"""Word-backed crystal data on Maya diagrams.

A datum is an integer-valued function on all left-black Maya diagrams,
represented by the sequence of lowering operators that produced it from the
zero datum O (which assigns 0 to every diagram).  Values are demand-computed
through the min-recursion

    (f_i M)(g) = min over the subsets S of g's removable residue-i boxes of
                 M(g - S) + |S| * c_i(M),      c_i(M) = M(L_i) - M(sL_i) - 1

where L_i / sL_i are the fundamental right-black diagrams.  Every crystal
statistic is read from the 2n values theta(L_i), theta(sL_i), i mod n (see
``CrystalDatum.statistics``).  All values are n-periodic: evaluation
happens on sigma-orbit canonical representatives (charge reduced mod n).

theta, the extension to a right-black tau, is the same min-recursion on
the plus side, adding boxes where the minus side removes them, at the
partition of tau's color inversion (its Fock key, ``maya.term_key``).
This equals the value at the left-black diagram that takes tau's colors
inside [-B, B] and the inverted ones outside, for any B >= span + 2l
(span = max |d| + 1 over tau's deviations d, l the word length).  Inside
the interval the two diagrams have opposite colors, and outside it both
are the left-black vacuum, so a removable residue-i box of the wide
diagram's partition is an addable residue-i box of the small one at the
same slot label.  Each letter moves each end of a color run by at most one
slot, so an l-letter recursion never reaches the interval's ends, and the
two recursion trees are isomorphic.

One path computes minus-side values: ``_fill`` runs a datum's word, letter
by letter, over a list of partitions in increasing box count that
``_index`` indexes.  ``table`` fills the window
canonical_diagrams(max_boxes), every partition of at most max_boxes boxes,
and ``fingerprint`` the box window box_diagrams(max_boxes), every
partition that fits in an a x b box with ab <= max_boxes.  A window is one
block of partitions, which each charge fills on its own: the charge only
shifts which index entry a letter reads (``_removal_index``).
``value_at``, which serves ``eval``, fills the closure of its one diagram
under the word's removals (``_removal_closure``).

Theta, which the coefficients and the crystal statistics read, has one
path: ``maya.filling_min``, the plus-side recursion unrolled into a min
over strict residue fillings and computed by a row DP from the word's
letters and coefficients, which each representative holds as a
``maya.Labels``.  It loops, so no word is too long for it, and it keeps
no memo: a representative keeps only its statistics, computed once.
"""

from __future__ import annotations

import struct
from array import array
from functools import lru_cache

from .maya import (
    LEFT_BLACK,
    RIGHT_BLACK,
    Labels,
    corner_rows,
    filling_min,
    partitions_of,
    removable_rows,
    term_key,
    to_partition,
    without_corner,
)


class CartanData:
    """Rank of the affine type-A Cartan matrix over residues mod n."""

    def __init__(self, n):
        if n < 2:
            raise ValueError("rank must be at least 2, got %d" % n)
        self.n = n

    def pairing(self, weight, i):
        """<sum_j weight_j h_j, alpha_i> = 2 weight_i - weight_{i-1} -
        weight_{i+1}, indices mod n (at n = 2 both neighbours are one)."""
        n = self.n
        return 2 * weight[i % n] - weight[(i - 1) % n] - weight[(i + 1) % n]


def _index(block, n, closed):
    """(position, index) of ``block``, partitions in increasing box count:
    position maps each to its place in it, and index entry r lists one pair
    (k, j) per removable box of block[k] whose slot label at charge 0 is r
    mod n, block[j] being block[k] without it.  A box's label drops by one
    as the charge rises, so at charge c residue i is entry (i + c) mod n.
    The pairs come in increasing k, with j < k, the order ``_fill`` needs,
    and take their ints from one list: one int object per block entry.  In
    a ``closed`` block a removal that leaves it raises KeyError; in any
    other it is left out (``CrystalDatum.value_at`` gives why no value read
    needs it)."""
    ids = list(range(len(block)))
    position = dict(zip(block, ids))
    lookup = position.__getitem__ if closed else position.get
    index = tuple([] for _ in range(n))
    for k, parts in zip(ids, block):
        for r, label in corner_rows(parts):
            j = lookup(without_corner(parts, r))
            if j is not None:
                index[label % n].append((k, j))
    return position, index


@lru_cache(maxsize=2)
def _removal_index(window, n, max_boxes):
    """``_index`` of window(max_boxes), where ``window`` is
    canonical_diagrams or box_diagrams: one block of partitions, closed
    under box removal, that serves every charge, since a removal keeps the
    charge.  A run uses one window, so the cache holds only the last two."""
    _, index = _index(window(max_boxes), n, True)
    return tuple(tuple(pairs) for pairs in index)


def _removal_closure(parts, charge, letters, n):
    """What the word ``letters`` reaches from ``parts`` at ``charge`` by
    removals, in increasing box count: from {parts}, each letter i, last
    first, closes the set under removing residue-i corners."""
    closure = {parts}
    for letter in reversed(letters):
        stack = list(closure)
        while stack:
            top = stack.pop()
            for r in removable_rows(top, charge, letter, n):
                sub = without_corner(top, r)
                if sub not in closure:
                    closure.add(sub)
                    stack.append(sub)
    return sorted(closure, key=sum)


def _fill_word(size, index, factors, charge):
    """The values over ``size`` indexed partitions at ``charge`` of the datum
    whose :meth:`~CrystalDatum.factors` are ``factors``: all zeros, filled
    by each (letter, coeff) in turn."""
    block = [0] * size
    for letter, coeff in factors:
        _fill(block, index[(letter + charge) % len(index)], coeff)
    return block


def _fill(block, pairs, coeff):
    """Turn one charge block of the parent's table (a list) into the
    child's, in place, and return it.

    Removing a residue-i box never creates or blocks another one, so the
    removable i-boxes of k minus a box b are those of k but b, and the min
    over subsets S of src[k - S] + |S| * c, with src the parent's block, is
    the chain recurrence H(k) = min(src[k], c + min over b of H(k - b)),
    with c the child's ``coeff`` and b running over k's removable i-boxes,
    which ``pairs``, an entry of an ``_index``, lists.  It lists
    j = k - b before k, so one pass in index order reads each H(j) final.
    """
    for k, j in pairs:
        v = block[j] + coeff
        if v < block[k]:
            block[k] = v
    return block


@lru_cache(maxsize=2)
def _packer(count):
    """The packer of ``count`` native signed 16-bit numbers.  A run packs
    tables of one window, so the cache holds only the last two sizes."""
    return struct.Struct("%dh" % count)


def _encode(values):
    """Values as native signed 16-bit bytes.  A value outside [-32768,
    32767] raises OverflowError."""
    try:
        return _packer(len(values)).pack(*values)
    except struct.error:
        raise OverflowError(
            "value table entry outside the 16-bit fingerprint range [-32768, 32767]"
        ) from None


def _decode(data):
    """The values that ``_encode`` packed into ``data``, as a list."""
    return array("h", data).tolist()


class CrystalDatum:
    """A crystal element: the zero datum O or f_i applied to a parent datum.

    A datum that holds its word's ``labels`` (a ``maya.Labels``) is a
    representative, and ``maya.filling_min`` reads theta from them at any
    key.  A representative computes its statistics, the 2n fundamental
    thetas that weight, eps and phi read, once, and keeps them.

    One datum serves each Dynkin rotation orbit of words.  Rotating every
    letter by k shifts every residue-i box set to the residue-(i + k) one
    at the same charge, and a residue-(i + k) box at charge c is a
    residue-i box at charge c + k, since a box's label drops by one as the
    charge rises; so V_{w+k}(parts, c) = V_w(parts, (c + k) mod n) for
    every word w, and the same holds for theta.  Every nonempty word's
    orbit has n words, exactly one of which starts with 0.  :meth:`apply`
    keeps one representative per orbit, in the memo its caller passes: the
    root or a datum whose word starts with 0.  Any other datum it returns
    is that representative rotated by a shift k, a view whose ``word``,
    ``letter`` and ``parent`` are the rotated ones and which shares its
    representative's labels, read at the charge shifted by k, and its
    statistics, rotated.  A representative's parent is a representative
    too.  ``coeff``, the parent's c_coeff at this datum's letter, is fixed
    at construction and is the same along an orbit.  A datum keeps no
    child, so none is part of a reference cycle, and no value table:
    exploration holds each table in its level's dedup keys.  The
    constructor builds a representative of any word from a representative
    parent, sharing nothing with other words but the labels' lists (see
    ``maya.Labels``).
    """

    def __init__(self, cartan, parent=None, letter=None):
        self.cartan = cartan
        self.parent = parent
        self._rep = None  # a view's representative
        self._shift = 0  # a view's rotation of its representative
        self._stats = None  # a representative's statistics, once computed
        if parent is None:
            self.letter = None
            self.word = ()
            self.coeff = None
            self.labels = Labels(cartan.n)
        else:
            self.letter = letter % cartan.n
            self.word = parent.word + (self.letter,)
            self.coeff = parent.c_coeff(self.letter)
            self.labels = parent.labels.extended(self.letter, self.coeff)

    def _rotated(self, parent, shift):
        """This representative rotated by ``shift``, as a child of
        ``parent``, which is this datum's parent rotated by ``shift``."""
        view = object.__new__(CrystalDatum)
        view.cartan = self.cartan
        view.parent = parent
        view._rep = self
        view._shift = shift
        view.labels = None
        view.letter = (self.letter + shift) % self.cartan.n
        view.word = parent.word + (view.letter,)
        view.coeff = self.coeff
        return view

    def apply(self, i, memo):
        """The datum for one more lowering operator f_i: its word gains i.

        For this datum's representative rep and shift k, it is rep's child
        at letter i - k, rotated by k; f_i O is f_0 O rotated by i.  ``memo``
        keeps each child representative under (rep, letter), so the calls
        that share it share orbits.  A new child's ``coeff`` is its parent's
        c_coeff at its letter, computed once."""
        n = self.cartan.n
        rep = self._rep or self
        if rep.parent is None:
            shift, letter = i % n, 0
        else:
            shift, letter = self._shift, (i - self._shift) % n
        child = memo.get((rep, letter))
        if child is None:
            child = memo[rep, letter] = CrystalDatum(self.cartan, rep, letter)
        return child._rotated(self, shift) if shift else child

    def apply_word(self, word, memo):
        """The datum of this one's word followed by ``word``: one
        :meth:`apply` per letter, all through ``memo``."""
        datum = self
        for i in word:
            datum = datum.apply(i, memo)
        return datum

    def factors(self):
        """The (letter, coeff) pair of each datum along the word, oldest
        (first letter) first, read up the ``parent`` chain: a view's are
        the rotated letters and its representative's coefficients."""
        chain = []
        node = self
        while node.parent is not None:
            chain.append((node.letter, node.coeff))
            node = node.parent
        return tuple(reversed(chain))

    # -- evaluation on left-black diagrams ---------------------------------

    def eval(self, gamma):
        """Value at a left-black Maya diagram."""
        if gamma.kind != LEFT_BLACK:
            raise ValueError("eval expects a left-black diagram")
        p = to_partition(gamma)
        return self.value_at(p.parts, p.charge % self.cartan.n)

    def value_at(self, parts, charge):
        """Value at the diagram of (parts, charge); charge is reduced mod n.

        :meth:`table`'s fill over the closure of {parts} under the word's
        removals (``_removal_closure``).  For an l-letter word let D_l =
        {parts} and D_{k-1} be D_k closed under removing residue-i_k
        corners.  Letter k's fill is exact on D_{k-1}: the set is closed
        under the removals that fill reads, and the values it reads there
        are exact because D_{k-1} lies in D_{k-2}.  The index leaves out
        removals that leave the closure, so a fill value outside D_{k-1}
        may be wrong, but none inside reads it.  The closure is not the
        whole down-set of parts, which for (30,) * 30 holds about 10^17
        partitions.  The fill loops, so no word is too long for it."""
        n = self.cartan.n
        charge %= n
        factors = self.factors()
        block = _removal_closure(parts, charge, [letter for letter, _ in factors], n)
        position, index = _index(block, n, False)
        return _fill_word(len(block), index, factors, charge)[position[parts]]

    def table(self, max_boxes):
        """Values over the block canonical_diagrams(max_boxes) at charge 0,
        then at charge 1, up to n - 1, as the unbounded ints that
        ``oracle.compare`` reads, each charge filled along the word
        (``_fill_word``).  It loops, so no word is too long for it."""
        n = self.cartan.n
        size = len(canonical_diagrams(max_boxes))
        factors = self.factors()
        index = _removal_index(canonical_diagrams, n, max_boxes)
        values = []
        for charge in range(n):
            values += _fill_word(size, index, factors, charge)
        return tuple(values)

    # -- extension to right-black diagrams ---------------------------------

    def _theta_at(self, parts, charge):
        """theta at the key (parts, charge), by ``maya.filling_min`` over
        the representative's labels; a view reads them at the charge
        shifted by its rotation."""
        rep = self._rep or self
        return filling_min(parts, (charge + self._shift) % self.cartan.n, rep.labels)

    def theta(self, tau):
        """Value at a right-black diagram: the plus-side min-recursion on
        the partition of tau's color inversion, adding boxes where
        ``value_at`` removes them (the module docstring gives why this is
        exact)."""
        if tau.kind != RIGHT_BLACK:
            raise ValueError("theta expects a right-black diagram")
        return self._theta_at(*term_key(tau))

    # -- crystal statistics -------------------------------------------------

    def _fundamental(self, parts, i):
        """theta(L_i) for parts (), theta(sL_i) for parts (1,), i mod n.

        The color inversion of L_i is the empty partition at charge 1 - i
        and that of sL_i is one box at the same charge, so these are
        theta at those ``term_key``s; no diagram is built."""
        return self._theta_at(parts, 1 - i)

    def c_coeff(self, i):
        """Coefficient used in the min-recursion: theta(L_i) - theta(sL_i) -
        1, which is phi_i - 1.  Read from the statistics once they are
        computed; otherwise only its own two thetas are, so a chain built
        letter by letter pays two per letter, not 2n."""
        rep = self._rep or self
        if rep._stats is not None:
            return rep._stats[2][(i - self._shift) % self.cartan.n] - 1
        return self._fundamental((), i) - self._fundamental((1,), i) - 1

    def weight(self):
        """Coefficients over the simple coroots: (theta(L_i))_{i mod n}."""
        return tuple(self._fundamental((), i) for i in range(self.cartan.n))

    def eps_hat(self, i):
        """String statistic -theta(L_i) - theta(sL_i) + theta(L_{i-1}) +
        theta(L_{i+1}), indices mod n."""
        theta = self._fundamental
        return -theta((), i) - theta((1,), i) + theta((), i - 1) + theta((), i + 1)

    def phi_hat(self, i):
        """<wt, h_i> + eps_hat(i); equals c_coeff(i) + 1 (tested identity)."""
        return self.cartan.pairing(self.weight(), i) + self.eps_hat(i)

    def statistics(self):
        """(weight, eps, phi) as a graph node stores them, phi_i = c_coeff(i)
        + 1: the formulas of :meth:`weight`, :meth:`eps_hat` and
        :meth:`c_coeff` over the 2n fundamental thetas, each computed once
        per representative and kept.  A view rotated by k reads its
        representative's: its value at residue i is the representative's
        at i - k."""
        rep = self._rep or self
        stats = rep._stats
        if stats is None:
            n, labels = self.cartan.n, rep.labels
            lam = [filling_min((), (1 - i) % n, labels) for i in range(n)]
            s_lam = [filling_min((1,), (1 - i) % n, labels) for i in range(n)]
            eps = tuple(-lam[i] - s_lam[i] + lam[i - 1] + lam[(i + 1) % n] for i in range(n))
            stats = rep._stats = tuple(lam), eps, tuple(lam[i] - s_lam[i] for i in range(n))
        shift = self._shift
        if shift:
            stats = tuple(values[-shift:] + values[:-shift] for values in stats)
        return stats

    # -- equality surrogate ---------------------------------------------------

    def fingerprint(self, max_boxes, parent_table, memo):
        """This datum's value table over the box window
        box_diagrams(max_boxes), the partitions lambda with lambda_1 *
        len(lambda) <= max_boxes, as n bytes blocks, one per charge from 0,
        each in the window's order (box count, then lexicographic parts),
        each value a native signed 16-bit number; a value outside [-32768,
        32767] raises OverflowError and is never clipped.  ``graph.explore``
        holds each table once, inside its dedup keys, at two bytes an entry.

        The root's blocks are all zero and it ignores ``parent_table``; any
        other datum fills each block from the block of its charge in
        ``parent_table``, its parent's table over the same window (see
        ``_fill``).  A fill is a function of (parent block, index entry,
        coeff) alone, so ``memo``, a dict shared by one exploration level,
        keeps each block filled under that key, hands it to every later
        fill of the same key, and makes equal blocks one bytes object; a
        fill that raises stores nothing.  The Dynkin rotation maps a level
        onto itself and a word's block c + 1 to its rotated word's block
        c, so a level's keys come at least n at a time, and a child costs
        at most one block fill on average, not n.

        The box window holds every rectangle of area at most max_boxes and
        lies inside canonical_diagrams(max_boxes), at a small fraction of
        its size (3,058 against 99,133 partitions at 36);
        ``tests/test_graph.py``'s ``TestExplore::test_equals_full_window``
        checks that exploration merges the same elements on either.

        ``oracle-check`` checks :meth:`table`, which shares ``_fill`` and
        ``_removal_index`` with this method, over the full window, but not
        the 16-bit encoding or the level memo; the tests of
        ``tests/test_datum.py``'s ``TestTable`` that fill from a parent's
        fingerprint and share a level memo cover those.
        """
        n = self.cartan.n
        if self.parent is None:
            return (bytes(2 * len(box_diagrams(max_boxes))),) * n
        index = _removal_index(box_diagrams, n, max_boxes)
        blocks = []
        for charge, parent_block in enumerate(parent_table):
            residue = (self.letter + charge) % n
            key = parent_block, residue, self.coeff
            block = memo.get(key)
            if block is None:
                block = memo[key] = _encode(_fill(_decode(parent_block), index[residue], self.coeff))
            blocks.append(block)
        return tuple(blocks)

    def value_table(self, max_boxes):
        """JSON-friendly list of {"diagram": ..., "value": k} rows."""
        from .maya import ChargedPartition, from_partition

        rows = []
        keys = [(p, c) for c in range(self.cartan.n) for p in canonical_diagrams(max_boxes)]
        for (parts, charge), value in zip(keys, self.table(max_boxes)):
            diagram = from_partition(ChargedPartition(parts, charge))
            rows.append({"diagram": diagram.to_json(), "value": value})
        return rows

    def to_json(self):
        return {"n": self.cartan.n, "word": list(self.word)}


def datum_from_word(cartan, word):
    """The datum of ``word``: :meth:`CrystalDatum.apply_word` from the root
    through a memo of its own, so each coefficient costs two
    ``maya.filling_min`` calls and no word is too long for it."""
    return CrystalDatum(cartan).apply_word(word, {})


@lru_cache(maxsize=2)
def canonical_diagrams(max_boxes):
    """The full window: every partition of at most ``max_boxes`` boxes, by
    box count, each count's partitions sorted.  Read at charges 0..n-1, it
    lists the sigma-canonical diagrams.  A run uses one window, so the
    cache holds only the last two, as for the removal index."""
    return tuple(parts for total in range(max_boxes + 1) for parts in partitions_of(total))


@lru_cache(maxsize=2)
def box_diagrams(max_area):
    """The box window: the partitions of canonical_diagrams(max_area) that
    fit in an a x b box with ab <= max_area, that is lambda_1 *
    len(lambda) <= max_area, in its order.  It is closed under box removal
    and holds every rectangle of area at most max_area.  It is built
    directly, by largest part a with at most max_area // a rows, not
    filtered from every partition of at most max_area boxes, which number
    1.3 million at 50.  Each box count lists a in rising order, each a's
    partitions sorted, so the block is in lexicographic order.  The cache
    holds the last two windows."""
    return ((),) + tuple(
        (a,) + rest
        for total in range(max_area + 1)
        for a in range(1, total + 1)
        for rest in partitions_of(total - a, a, max_area // a - 1)
    )
