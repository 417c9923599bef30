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
letter and box row.
"""

from __future__ import annotations

from .laurent import INF, LaurentPoly, _accumulate, _laurent
from .maya import addition_options, removable_rows, removal_options, without_corner

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
    for every gamma of ``window``.

    ``factors`` lists the pairs (i_j, e_j) with p_j = t^e_j, oldest first;
    ``window`` lists ``(parts, charge)`` pairs closed under box removal, as
    ``canonical_diagrams(n, max_boxes)`` does, and they key the returned
    dict of minus-side vectors in window order.  The newest factor acts
    first on a row vector, so <gamma| g_j is the sum over subsets S of
    gamma's removable i_j-boxes of p_j^|S| <gamma minus S| g_{j-1}.  The
    boxes are independent, so that is the product over them of
    (1 + p_j E_b), applied one box row at a time (:func:`_passes`): add
    p_j times the row of gamma minus b into the row of each gamma whose
    i_j-box b ends the row.  It is safe in place: gamma minus b ends that
    row in residue i_j - 1, never i_j as n >= 2, so no row a pass reads is
    one it writes.  p_j shifts exponents by e_j; every coefficient is a
    positive path count, so sums never cancel.  While filling, a row is a
    {position: {exponent: count}} dict keyed by window position.
    """
    passes = {i: _passes(n, window, i) for i in {i for i, _ in factors}}
    rows = [{q: {0: 1}} for q in range(len(window))]
    for residue, exponent in factors:
        for pairs in passes[residue].values():
            for k, j in pairs:
                row = rows[k]
                for q, coeffs in rows[j].items():
                    old = row.get(q)
                    if old is None:
                        row[q] = {e + exponent: c for e, c in coeffs.items()}
                        continue
                    for e, c in coeffs.items():
                        e += exponent
                        old[e] = old.get(e, 0) + c
    return {
        key: _keyed(n, MINUS, {window[q]: _laurent(coeffs) for q, coeffs in row.items()})
        for key, row in zip(window, rows)
    }


def _passes(n, window, residue):
    """By box row r, the pairs (k, j) of window positions with diagram j
    the diagram k less its ``residue`` box ending row r: the rows of
    ``maya.removable_rows``, each cut by ``maya.without_corner``."""
    position = {key: q for q, key in enumerate(window)}
    passes = {}
    for k, (parts, charge) in enumerate(window):
        for r in removable_rows(parts, charge, residue, n):
            passes.setdefault(r, []).append((k, position[without_corner(parts, r), charge]))
    return passes


def vec_val(v):
    """Minimum coefficient valuation over the support; INF for zero."""
    if not v.terms:
        return INF
    return min(c.val() for c in v.terms.values())
