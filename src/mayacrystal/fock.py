"""Fermionic Fock space over Laurent-polynomial coefficients.

The minus side is spanned by left-black Maya diagrams (row vectors), the
plus side by right-black ones (column vectors); the pairing matches a
left-black diagram with its color inversion.  Chevalley operators act by
removing (minus) or adding (plus) a single residue-colored box.  They and
the pairing are the tests' reference (``tests/reference.py``); this module
holds the one-parameter action and the window row fill.

A vector's terms are keyed by the raw ``(parts, charge)`` of a charged
partition: the diagram's own on the minus side, its color inversion's on
the plus side, so a left-black diagram and its color inversion share a key
and the pairing matches equal keys.  This layer sees only keys: Maya
diagrams are converted at the CLI and in the tests, never here.

Boxes of one residue are independent: removing or adding one never creates
or blocks another.  So the divided power E_i^k / k! sends a basis vector to
the sum, each with coefficient 1, of the diagrams obtained by moving a
k-subset of its residue-i boxes, and the one-parameter action
exp(p * E_i) = sum_k p^k E_i^k / k! is the finite sum over all subsets.
``x_act`` applies it to one vector; ``minus_rows`` applies a whole word to
the row vectors of a window of diagrams at once, in place, one pass per
letter and box row.  The window is one block of partitions, read at every
charge: the passes come from one corner scan per partition, and the charge
only shifts the residue entry each letter reads.  It packs each row into
one Laurent polynomial with an int coefficient per t-exponent, the row's
path counts as base-2^w digits (so a pass adds ints instead of merging
per-diagram coefficients), and ``vec_val`` reads a packed row's valuation.
No command builds a ``FockVector``: vectors are what ``x_act`` acts on,
for ``oracle.d_gamma`` and the tests, which unpack a packed row into one
to compare the two.
"""

from __future__ import annotations

from .laurent import LaurentPoly, _accumulate, _laurent
from .maya import addition_options, corner_rows, removal_options, without_corner

MINUS = "minus"
PLUS = "plus"


class FockVector:
    """Finitely supported map (parts, charge) -> nonzero LaurentPoly."""

    __slots__ = ("n", "side", "terms")

    def __init__(self, n, side, terms=None):
        """``terms`` maps ``(parts, charge)`` keys to coefficients."""
        if side not in (MINUS, PLUS):
            raise ValueError("unknown side: %r" % (side,))
        self.n = n
        self.side = side
        self.terms = {key: coeff for key, coeff in (terms or {}).items() if coeff}

    @classmethod
    def basis(cls, n, side, key, coeff=None):
        return cls(n, side, {key: coeff if coeff is not None else LaurentPoly.one()})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, FockVector):
            return NotImplemented
        return self.n == other.n and self.side == other.side and self.terms == other.terms

    def __repr__(self):
        return "FockVector(n=%d, side=%r, %d terms)" % (self.n, self.side, len(self.terms))


def _keyed(n, side, terms):
    """A vector over ``terms``, already keyed and free of zero coefficients."""
    v = FockVector.__new__(FockVector)
    v.n = n
    v.side = side
    v.terms = terms
    return v


def x_act(v, i, p):
    """Apply exp(p * E_i): the one-parameter action with parameter p.

    In divided-power form the action is one pass over the terms of v:

        x_i(p) <lambda| = sum over subsets S of the residue-i boxes of
                          p^|S| <lambda moved by S|,

    where S runs over the removable boxes on the minus side
    (:func:`~mayacrystal.maya.removal_options`) and over the addable boxes
    on the plus side (:func:`~mayacrystal.maya.addition_options`); the
    powers of p are computed once per call.  The sum is finite and exact on
    both sides: moving a residue-i box only makes boxes of residue i - 1
    and i + 1 movable, so E_i^k v / k! = 0 once k exceeds the number of
    residue-i boxes a term of v can move.
    """
    options = removal_options if v.side == MINUS else addition_options
    powers = [None, p]
    terms = {}
    for (parts, charge), coeff in v.terms.items():
        for moved, count in options(parts, charge, i, v.n):
            while len(powers) <= count:
                powers.append(powers[-1] * p)
            _accumulate(terms, (moved, charge), coeff * powers[count] if count else coeff)
    return _keyed(v.n, v.side, terms)


def minus_rows(n, factors, block):
    """Row vectors <gamma| x_{i_m}(p_m) ... x_{i_1}(p_1) at every a_j = 1,
    each packed into one Laurent polynomial, for gamma the partitions of
    ``block`` at charge 0, then at each charge up to n - 1.

    ``factors`` lists the pairs (i_j, e_j) with p_j = t^e_j, oldest first;
    ``block`` lists partitions closed under box removal, as
    ``canonical_diagrams(max_boxes)`` does.  The newest factor acts first
    on a row vector, so <gamma| g_j is the sum over subsets S of gamma's
    removable i_j-boxes of p_j^|S| <gamma minus S| g_{j-1}.  The boxes are
    independent, so that is the product over them of (1 + p_j E_b),
    applied one box row at a time (:func:`_passes`): add p_j times the row
    of gamma minus b into the row of each gamma whose i_j-box b ends the
    row.  A removal keeps the charge, so each charge c fills on its own,
    reading residue i at entry (i + c) mod n of the passes.  It is safe in
    place: gamma minus b ends that row in residue i_j - 1, never i_j as
    n >= 2, so no row a pass reads is one it writes.

    A row is stored t-major and Kronecker-packed: its coefficient at t^e is
    the int X_e = sum over q of c(gamma, q, e) * 2^(w * d(q)), where
    c(gamma, q, e) is the path count of the Fock coefficient of q at t^e
    and d(q) is q's place in the block, at gamma's charge (box removal
    keeps the charge, so no other diagram enters the row).  That is
    <gamma| g |Xi> for Xi = sum over q of z^d(q) |q> at z = 2^w, so a pass
    adds one int per exponent of the row it reads, shifted by e_j.  Every
    count is a positive integer, so no sum cancels, and each is at most
    its row's total at t = 1, which one int pass over the same pass lists
    gives; w is the bit length of the largest total (:func:`_digit_width`),
    so every count is below 2^w and the base-2^w digits of X_e are exactly
    the counts.  Returns the rows in that order, as ``LaurentPoly`` objects
    over the integers, and w.
    """
    passes = _passes(n, block)
    width = _digit_width(n, factors, passes, len(block))
    rows = []
    for charge in range(n):
        fill = [{0: 1 << width * d} for d in range(len(block))]
        for residue, exponent in factors:
            for pairs in passes[(residue + charge) % n].values():
                for k, j in pairs:
                    row = fill[k]
                    for e, x in fill[j].items():
                        e += exponent
                        row[e] = row.get(e, 0) + x
        rows += map(_laurent, fill)
    return rows, width


def _digit_width(n, factors, passes, size):
    """The bit length of the largest row total at t = 1: the rows' fill
    at every charge with every coefficient replaced by its sum, one int per
    row."""
    largest = 0
    for charge in range(n):
        totals = [1] * size
        for residue, _ in factors:
            for pairs in passes[(residue + charge) % n].values():
                for k, j in pairs:
                    totals[k] += totals[j]
        largest = max(largest, max(totals, default=0))
    return largest.bit_length()


def _passes(n, block):
    """By entry r, then by box row, the pairs (k, j) of places in ``block``
    with block[j] the partition block[k] less the box ending that row, whose
    slot label at charge 0 (``maya.corner_rows``) is r mod n: the rows of
    ``maya.removable_rows``, cut by ``maya.without_corner``.  At charge c
    residue i is entry (i + c) mod n, so one scan per partition serves
    every charge and residue.  Places are looked up by partition, so the
    block may come in any order closed under box removal."""
    position = {parts: k for k, parts in enumerate(block)}
    passes = tuple({} for _ in range(n))
    for k, parts in enumerate(block):
        for r, label in corner_rows(parts):
            passes[label % n].setdefault(r, []).append((k, position[without_corner(parts, r)]))
    return passes


def vec_val(row):
    """The t-valuation of one packed row of :func:`minus_rows`, INF for the
    zero row: the least valuation over the row's Fock coefficients.  The
    row's coefficient at t^e is a sum of path counts, each nonnegative,
    times positive powers of 2, so it is nonzero exactly when some
    diagram's coefficient has a t^e term; that the base-2^w digits never
    carry matters only for reading the counts back."""
    return row.val()
