"""The tests' independent implementations, and helpers the test modules share.

No command runs any of this.  It holds the per-box side of the Fock space
(the Chevalley operators, the pairing, vector sums and scalings), the
valuation of a vector, the unpacking of ``fock.minus_rows``' packed rows
into vectors, the plus-side columns g |tau>, the brute-force Kostant
count, the box-label readings of a charged partition, the removal index
built diagram by diagram, the minus-side min-recursion over removal
subsets, datums that share no rotation orbit, a datum's table blocks
filled along its chain and an exploration that keys every child by its
table over either window, each checked against the ``src/`` code it shadows.
Fock vectors are keyed by ``(parts, charge)`` only, so Maya diagrams are
converted here with ``term_key``.  It also loads the bench's per-layer
tracer, ``bench/layertrace.py``, which is not a package module.
"""

import importlib.util
from functools import lru_cache
from pathlib import Path

from mayacrystal.datum import CrystalDatum, canonical_diagrams
from mayacrystal.fock import MINUS, PLUS, FockVector, _keyed
from mayacrystal.graph import CrystalGraph, Node, default_max_boxes, positive_roots
from mayacrystal.laurent import INF, LaurentPoly, _accumulate
from mayacrystal.maya import (
    ChargedPartition,
    addition_options,
    corner_rows,
    from_partition,
    partitions_of,
    removal_options,
    term_key,
    without_corner,
)
from mayacrystal.oracle import _act, d_gamma, generic_element

# -- diagrams ----------------------------------------------------------------


def diagram(parts, charge=0):
    """The left-black Maya diagram of a charged partition."""
    return from_partition(ChargedPartition(parts, charge))


def partitions_up_to(max_boxes):
    """All partitions with at most max_boxes boxes, smaller sizes first."""
    for total in range(max_boxes + 1):
        yield from partitions_of(total)


def small_diagrams(n, max_boxes):
    """Left-black diagrams of at most max_boxes boxes at charges 0..n-1."""
    return [diagram(parts, charge) for charge in range(n) for parts in partitions_up_to(max_boxes)]


def charged(n, block):
    """The (parts, charge) pairs of a window block read at charges 0..n-1,
    charge 0 first, each charge in the block's order: the order of a
    datum's table, of ``fock.minus_rows``' rows and of an oracle report."""
    return [(parts, charge) for charge in range(n) for parts in block]


def sigma_canonical_diagrams(n, max_boxes):
    """The diagrams of ``canonical_diagrams(max_boxes)`` at charges
    0..n-1, in table order."""
    return [diagram(*key) for key in charged(n, canonical_diagrams(max_boxes))]


def box_slot_label(p, row, col):
    """Slot label of box (row, col); the box must lie inside the partition."""
    if not (1 <= row <= len(p.parts) and 1 <= col <= p.parts[row - 1]):
        raise ValueError("box (%d, %d) outside partition %r" % (row, col, p.parts))
    return (1 - p.charge) + col - row


def box_label_multiset(p):
    """Sorted list of the slot labels of every box of the partition."""
    return sorted(
        box_slot_label(p, row, col)
        for row, length in enumerate(p.parts, 1)
        for col in range(1, length + 1)
    )


def corner_removals(parts, charge):
    """(label, sub_parts) for each removable box of a partition with the
    given charge, any residue, top row first: label is the box's slot label
    and sub_parts the raw parts without that box."""
    return [(label - charge, without_corner(parts, r)) for r, label in corner_rows(parts)]


# -- value tables and exploration ---------------------------------------------


def removal_index(n, block):
    """The single-box removal index of a whole window, the (parts, charge)
    pairs of ``block`` at charges 0..n-1, built diagram by diagram: each
    window diagram's corners at its own charge, filed under their slot
    labels mod n.  ``datum._removal_index`` is one charge block of it."""
    window = charged(n, block)
    position = {key: k for k, key in enumerate(window)}
    index = tuple([] for _ in range(n))
    for k, (parts, charge) in enumerate(window):
        for label, sub in corner_removals(parts, charge):
            index[label % n].append((k, position[sub, charge]))
    return tuple(tuple(pairs) for pairs in index)


def subset_values(datum):
    """``datum``'s value at (parts, charge), by the min-recursion over every
    subset of removable residue-i boxes that ``removal_options`` lists,
    memoised by depth, parts and charge: the minus side diagram by diagram,
    independent of ``datum._fill`` and of the indexes it reads.  It
    recurses once per letter."""
    n = datum.cartan.n
    factors = datum.factors()

    @lru_cache(maxsize=None)
    def value(depth, parts, charge):
        if depth == 0:
            return 0
        letter, coeff = factors[depth - 1]
        return min(
            value(depth - 1, sub, charge) + count * coeff
            for sub, count in removal_options(parts, charge, letter, n)
        )

    return lambda parts, charge: value(len(factors), parts, charge % n)


def plus_side_theta(n, word):
    """(coeffs, statistics, theta) of ``word``'s datum by theta's plus-side
    min-recursion over every subset of addable residue-i boxes that
    ``addition_options`` lists, memoised by depth, parts and charge, with
    no closed form at any depth and no shared rotation orbit, independent
    of ``maya.filling_min``.  coeffs[k] is the coefficient of the (k +
    1)-th letter, c_i = theta(L_i) - theta(sL_i) - 1 for its letter i, read
    from the recursion's own values at depth k; statistics is (weight, eps,
    phi) of the whole word, read from its values at the fundamental keys
    ((), 1 - i) and ((1,), 1 - i); and theta(parts, charge) is the whole
    word's value at any key.  It recurses once per letter."""
    coeffs = []

    @lru_cache(maxsize=None)
    def value(depth, parts, charge):
        if depth == 0:
            return 0
        letter, coeff = word[depth - 1], coeffs[depth - 1]
        return min(
            value(depth - 1, sup, charge) + count * coeff
            for sup, count in addition_options(parts, charge, letter, n)
        )

    def lam(depth, i):
        return value(depth, (), (1 - i) % n)

    def s_lam(depth, i):
        return value(depth, (1,), (1 - i) % n)

    for depth, letter in enumerate(word):
        coeffs.append(lam(depth, letter) - s_lam(depth, letter) - 1)
    depth = len(word)
    weight = tuple(lam(depth, i) for i in range(n))
    eps = tuple(
        -lam(depth, i) - s_lam(depth, i) + lam(depth, i - 1) + lam(depth, i + 1) for i in range(n)
    )
    phi = tuple(lam(depth, i) - s_lam(depth, i) for i in range(n))
    return coeffs, (weight, eps, phi), lambda parts, charge: value(depth, parts, charge % n)


def unshared_from_word(cartan, word):
    """The datum of a word built letter by letter through the constructor,
    each coefficient its parent's ``c_coeff``, so that every datum of the
    chain is a representative and none is a rotation view, where
    ``apply_word`` and ``datum_from_word`` share rotation orbits."""
    datum = CrystalDatum(cartan)
    for i in word:
        datum = CrystalDatum(cartan, datum, i)
    return datum


def fingerprint_from_root(datum, max_boxes):
    """``datum``'s table blocks, as ``graph.explore`` makes them: each datum
    of its chain, from the root's zero blocks on, filled from its parent's
    with one fresh memo."""
    chain = []
    while datum is not None:
        chain.append(datum)
        datum = datum.parent
    table, memo = None, {}
    for datum in reversed(chain):
        table = datum.fingerprint(max_boxes, table, memo)
    return table


def explore_every_child(cartan, depth, max_boxes=None, full_window=False):
    """``graph.explore`` with every child keyed by (statistics, table), on
    every level, and no level memo: each fill runs on its own.  Each child is built
    through the constructor, so every word keeps its own datum and no
    rotation orbit is shared.  The table is the child's fingerprint over
    the box window or, with ``full_window``, its ``table`` over every
    diagram of at most ``max_boxes`` boxes, filled from the root."""
    n = cartan.n
    if max_boxes is None:
        max_boxes = default_max_boxes(n, depth)
    nodes, edges = [], {}
    candidates = [(None, CrystalDatum(cartan), None)]
    for _ in range(depth + 1):
        level = {}
        for edge, datum, parent_table in candidates:
            stats = datum.statistics()
            if full_window:
                table = datum.table(max_boxes)
            else:
                table = datum.fingerprint(max_boxes, parent_table, {})
            target, _ = level.setdefault((stats, table), (len(nodes), datum))
            if target == len(nodes):
                nodes.append(Node(target, datum.word, *stats))
            if edge is not None:
                edges[edge] = target
        candidates = [
            ((k, i), CrystalDatum(cartan, datum, i), table)
            for (_, table), (k, datum) in level.items()
            for i in range(n)
        ]
    return CrystalGraph(n, depth, max_boxes, nodes, edges)


# -- Fock space ----------------------------------------------------------------


def basis_minus(n, parts, charge):
    return FockVector.basis(n, MINUS, (parts, charge))


def add(v, w):
    """The sum of two vectors of one side."""
    terms = dict(v.terms)
    for k, coeff in w.terms.items():
        _accumulate(terms, k, coeff)
    return _keyed(v.n, v.side, terms)


def scale(v, scalar):
    """v times a LaurentPoly or a number."""
    if isinstance(scalar, LaurentPoly):
        terms = {k: c * scalar for k, c in v.terms.items()}
    else:
        terms = {k: c.scale(scalar) for k, c in v.terms.items()}
    return _keyed(v.n, v.side, {k: c for k, c in terms.items() if c})


def e_act(v, i):
    """Chevalley raising on the minus side: single residue-i box removals."""
    _expect(v, MINUS)
    return _single_moves(v, i, removal_options)


def e_plus_act(v, i):
    """Adjoint of e_act under the color-inversion pairing: box additions
    on the plus side."""
    _expect(v, PLUS)
    return _single_moves(v, i, addition_options)


def _single_moves(v, i, options):
    terms = {}
    for (parts, charge), coeff in v.terms.items():
        for moved, count in options(parts, charge, i, v.n):
            if count == 1:
                _accumulate(terms, (moved, charge), coeff)
    return _keyed(v.n, v.side, terms)


def pairing(v_minus, w_plus):
    """Nondegenerate pairing: sum over diagrams matched by color inversion,
    which are the terms with equal keys."""
    _expect(v_minus, MINUS)
    _expect(w_plus, PLUS)
    total = LaurentPoly.zero()
    for k, coeff in v_minus.terms.items():
        other = w_plus.terms.get(k)
        if other is not None:
            total = total + coeff * other
    return total


def vector_val(v):
    """Minimum coefficient valuation over the support; INF for zero."""
    if not v.terms:
        return INF
    return min(c.val() for c in v.terms.values())


def unpack_row(n, block, charge, row, width):
    """A packed row of ``fock.minus_rows`` over ``block``, for a diagram of
    ``charge``, as the minus-side vector it packs: the base-2^width digits
    of its coefficient at t^e, lowest first, are the coefficients at t^e
    of the block's partitions at that charge, in block order.  Bits past
    the last diagram's digit, which a wide enough digit never leaves, are
    kept under the key None, so that such a vector equals no row."""
    keys = [(parts, charge) for parts in block]
    mask = (1 << width) - 1
    terms = {}
    for e, packed in row.coeffs.items():
        for key in keys:
            digit = packed & mask
            if digit:
                terms.setdefault(key, {})[e] = digit
            packed >>= width
        if packed:
            terms.setdefault(None, {})[e] = packed
    return _keyed(n, MINUS, {key: LaurentPoly(coeffs) for key, coeffs in terms.items()})


def _expect(v, side):
    if v.side != side:
        raise ValueError("expected a %s-side vector, got %s" % (side, v.side))


# -- oracle --------------------------------------------------------------------


def d_tau(n, factors, key):
    """Column vector g |tau> as a plus-side Fock vector, for tau's key: the
    partition of its color inversion.  The newest factor acts first and the
    oldest last, the order that agrees with theta."""
    return _act(factors, FockVector.basis(n, PLUS, key))


def oracle_eval(datum, gamma):
    """Valuation of <gamma| g for the datum's generic group element, at a
    left-black diagram gamma."""
    return vector_val(d_gamma(datum.cartan.n, generic_element(datum), term_key(gamma)))


def oracle_theta(datum, tau):
    """Valuation of g |tau> for the datum's generic group element, at a
    right-black diagram tau."""
    return vector_val(d_tau(datum.cartan.n, generic_element(datum), term_key(tau)))


# -- Kostant partition function ------------------------------------------------


def kostant_brute(n, beta):
    """Direct enumeration of root multisets summing to beta."""
    beta = tuple(beta)
    height = sum(beta)
    if height == 0:
        return 1
    roots = positive_roots(n, height)

    def count(idx, remaining):
        if not any(remaining):
            return 1
        if idx == len(roots):
            return 0
        total = 0
        current = remaining
        while True:
            total += count(idx + 1, current)
            nxt = tuple(a - b for a, b in zip(current, roots[idx]))
            if any(x < 0 for x in nxt):
                break
            current = nxt
        return total

    return count(0, beta)


# -- the bench tracer ----------------------------------------------------------

LAYERTRACE = Path(__file__).resolve().parent.parent / "bench" / "layertrace.py"


def load_layertrace():
    """``bench/layertrace.py`` as a module, loaded from its file."""
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    return layertrace
