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
letter and box row, with the passes from one corner scan per distinct
partition of the window, which serves every charge and residue.  It packs
each row into one Laurent polynomial with an int coefficient per
t-exponent, the row's path counts as base-2^w digits (so a pass adds ints
instead of merging per-diagram coefficients), and
``vec_val`` reads a packed row's valuation.  No command builds a
``FockVector``: vectors are what ``x_act`` acts on, for ``oracle.d_gamma``
and the tests, which unpack a packed row into one to compare the two.
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


def minus_rows(n, factors, window):
    """Row vectors <gamma| x_{i_m}(p_m) ... x_{i_1}(p_1) at every a_j = 1,
    for every gamma of ``window``, each packed into one Laurent polynomial.

    ``factors`` lists the pairs (i_j, e_j) with p_j = t^e_j, oldest first;
    ``window`` lists ``(parts, charge)`` pairs closed under box removal, as
    ``canonical_diagrams(n, max_boxes)`` does, and they key the returned
    dict of rows in window order.  The newest factor acts first on a row
    vector, so <gamma| g_j is the sum over subsets S of gamma's removable
    i_j-boxes of p_j^|S| <gamma minus S| g_{j-1}.  The boxes are
    independent, so that is the product over them of (1 + p_j E_b),
    applied one box row at a time (:func:`_passes`): add p_j times the row
    of gamma minus b into the row of each gamma whose i_j-box b ends the
    row.  The passes of all the word's residues come from one corner scan
    per distinct partition of the window, whatever its charges.  It is
    safe in place: gamma minus b ends that row in residue i_j - 1, never
    i_j as n >= 2, so no row a pass reads is one it writes.

    A row is stored t-major and Kronecker-packed: its coefficient at t^e is
    the int X_e = sum over q of c(gamma, q, e) * 2^(w * d(q)), where
    c(gamma, q, e) is the path count of the Fock coefficient of q at t^e
    and d(q) is q's position among the window's diagrams of gamma's charge
    (box removal keeps the charge, so no other diagram enters the row).
    That is <gamma| g |Xi> for Xi = sum over q of z^d(q) |q> at z = 2^w,
    so a pass adds one int per exponent of the row it reads, shifted by
    e_j.  Every count is a positive integer, so no sum cancels, and each is
    at most its row's total at t = 1, which one int pass over the same pass
    lists gives; w is the bit length of the largest total
    (:func:`_digit_width`), so every count is below 2^w and the base-2^w
    digits of X_e are exactly the counts.
    Returns the rows, as ``LaurentPoly`` objects over the integers, and w.
    """
    passes = _passes(n, window, {i for i, _ in factors})
    width = _digit_width(factors, passes, len(window))
    seen = {}
    rows = []
    for _, charge in window:
        d = seen.get(charge, 0)
        seen[charge] = d + 1
        rows.append({0: 1 << width * d})
    for residue, exponent in factors:
        for pairs in passes[residue].values():
            for k, j in pairs:
                row = rows[k]
                for e, x in rows[j].items():
                    e += exponent
                    row[e] = row.get(e, 0) + x
    return {key: _laurent(row) for key, row in zip(window, rows)}, width


def _digit_width(factors, passes, size):
    """The bit length of the largest row total at t = 1: the rows' fill
    with every coefficient replaced by its sum, one int per row."""
    totals = [1] * size
    for residue, _ in factors:
        for pairs in passes[residue].values():
            for k, j in pairs:
                totals[k] += totals[j]
    return max(totals, default=0).bit_length()


def _passes(n, window, residues):
    """By residue i of ``residues``, then by box row r, the pairs (k, j) of
    window positions with diagram j the diagram k less its residue-i box
    ending row r: the rows of ``maya.removable_rows``, each cut by
    ``maya.without_corner``.

    One scan per distinct partition serves every charge and residue: a
    partition's corners do not depend on its charge, and the box ending
    row r has residue (label - charge) mod n for its ``maya.corner_rows``
    label.  Positions are looked up by partition, then charge, so the
    window need not be charge-major, only closed under box removal."""
    at = {}
    for k, (parts, charge) in enumerate(window):
        at.setdefault(parts, {})[charge] = k
    passes = {i: {} for i in residues}
    for parts, positions in at.items():
        for r, label in corner_rows(parts):
            below = at[without_corner(parts, r)]
            for charge, k in positions.items():
                rows = passes.get((label - charge) % n)
                if rows is not None:
                    rows.setdefault(r, []).append((k, below[charge]))
    return passes


def vec_val(row):
    """The t-valuation of one packed row of :func:`minus_rows`, INF for the
    zero row: the least valuation over the row's Fock coefficients.  The
    row's coefficient at t^e is a sum of path counts, each nonnegative,
    times positive powers of 2, so it is nonzero exactly when some
    diagram's coefficient has a t^e term; that the base-2^w digits never
    carry matters only for reading the counts back."""
    return row.val()
