"""Fermionic Fock space over Laurent-polynomial coefficients.

The minus side is spanned by left-black Maya diagrams (row vectors), the
plus side by right-black ones (column vectors); the pairing matches a
left-black diagram with its color inversion.  Chevalley operators act by
removing (minus) or adding (plus) a single residue-colored box.

A vector's terms are keyed by the raw ``(parts, charge)`` of a charged
partition: the diagram's own on the minus side, its color inversion's on
the plus side, so a left-black diagram and its color inversion share a key
and the pairing matches equal keys.  Maya diagrams appear only at the
boundary: ``FockVector(...)`` and :meth:`FockVector.basis` convert them
through :func:`~mayacrystal.maya.term_key`, or take a charged partition as
the key itself, and :meth:`FockVector.to_json` converts back.

Boxes of one residue are independent: removing or adding one never creates
or blocks another.  So the divided power E_i^k / k! sends a basis vector to
the sum, each with coefficient 1, of the diagrams obtained by moving a
k-subset of its residue-i boxes, and the one-parameter action
exp(p * E_i) = sum_k p^k E_i^k / k! is the finite sum over all subsets.
``x_act`` applies it to one vector; ``minus_rows`` applies a whole word to
the row vectors of a window of diagrams at once, one pass per letter, each
row built from rows of the previous prefix.
"""

from __future__ import annotations

from .laurent import INF, LaurentPoly, _laurent
from .maya import (
    LEFT_BLACK,
    RIGHT_BLACK,
    ChargedPartition,
    addition_options,
    from_partition,
    removal_options,
    term_key,
)

MINUS = "minus"
PLUS = "plus"


class FockVector:
    """Finitely supported map (parts, charge) -> nonzero LaurentPoly."""

    __slots__ = ("n", "side", "terms")

    def __init__(self, n, side, terms=None):
        """``terms`` maps Maya diagrams of the side's kind (left-black on
        the minus side, right-black on the plus side), or charged
        partitions taken as keys themselves, to coefficients."""
        if side not in (MINUS, PLUS):
            raise ValueError("unknown side: %r" % (side,))
        kind = LEFT_BLACK if side == MINUS else RIGHT_BLACK
        self.n = n
        self.side = side
        self.terms = {}
        for diagram, coeff in (terms or {}).items():
            if not coeff:
                continue
            if isinstance(diagram, ChargedPartition):
                key = diagram.parts, diagram.charge
            elif diagram.kind == kind:
                key = term_key(diagram)
            else:
                raise ValueError("%s-side vector requires %s diagrams" % (side, kind))
            self.terms[key] = coeff

    @classmethod
    def basis(cls, n, side, diagram, coeff=None):
        return cls(n, side, {diagram: coeff if coeff is not None else LaurentPoly.one()})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, FockVector):
            return NotImplemented
        return (
            self.n == other.n
            and self.side == other.side
            and self.terms.keys() == other.terms.keys()
            and all(other.terms[k] == c for k, c in self.terms.items())
        )

    def __add__(self, other):
        terms = dict(self.terms)
        for k, coeff in other.terms.items():
            _accumulate(terms, k, coeff)
        return _keyed(self.n, self.side, terms)

    def scale(self, scalar):
        if isinstance(scalar, LaurentPoly):
            terms = {k: c * scalar for k, c in self.terms.items()}
        else:
            terms = {k: c.scale(scalar) for k, c in self.terms.items()}
        return _keyed(self.n, self.side, {k: c for k, c in terms.items() if c})

    def to_json(self):
        rows = []
        for (parts, charge), c in self.terms.items():
            diagram = from_partition(ChargedPartition(parts, charge))
            if self.side == PLUS:
                diagram = diagram.invert()
            rows.append({"diagram": diagram.to_json(), "coeff": c.to_json()})
        rows.sort(key=lambda r: str(r["diagram"]))
        return {"n": self.n, "side": self.side, "terms": rows}

    def __repr__(self):
        return "FockVector(n=%d, side=%r, %d terms)" % (self.n, self.side, len(self.terms))


def _keyed(n, side, terms):
    """A vector over ``terms``, already keyed and free of zero coefficients."""
    v = FockVector.__new__(FockVector)
    v.n = n
    v.side = side
    v.terms = terms
    return v


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
            if count:
                while len(powers) <= count:
                    powers.append(powers[-1] * p)
                _accumulate(terms, (moved, charge), coeff * powers[count])
            else:
                _accumulate(terms, (moved, charge), coeff)
    return _keyed(v.n, v.side, terms)


def minus_rows(n, factors, window):
    """Row vectors <gamma| x_{i_m}(p_m) ... x_{i_1}(p_1) at every a_j = 1,
    for every gamma of ``window``.

    ``factors`` lists the pairs (i_j, e_j) with p_j = t^e_j, oldest first;
    ``window`` lists ``(parts, charge)`` pairs closed under box removal, as
    ``canonical_diagrams(n, max_boxes)`` does, and they key the returned
    dict of minus-side vectors in window order.  The rows fill one factor
    at a time from the basis rows.  The newest factor acts first on a row
    vector, so with g_j the product of the first j factors,

        <gamma| g_j = sum over S in removal_options(gamma, i_j) of
                      p_j^|S| <gamma minus S| g_{j-1},

    and every gamma minus S lies in the window, whose rows at g_{j-1} are
    already filled.  p_j^|S| shifts exponents by |S| e_j.  Every
    coefficient is a positive path count, so sums never cancel.  While
    filling, a row is a plain {key: {exponent: count}} dict.  A gamma with
    no removable i_j-box keeps its row object, and each prefix's rows are
    dropped once the next prefix's are filled.
    """
    rows = {key: {key: {0: 1}} for key in window}
    for residue, exponent in factors:
        rows = _next_rows(n, window, rows, residue, exponent)
    for key, row in rows.items():
        rows[key] = _keyed(n, MINUS, {k: _laurent(coeffs) for k, coeffs in row.items()})
    return rows


def _next_rows(n, window, previous, residue, exponent):
    """The rows at g_j from those at g_{j-1} (``previous``), as
    {key: {exponent: count}} dicts; see :func:`minus_rows`."""
    rows = {}
    for key in window:
        parts, charge = key
        options = removal_options(parts, charge, residue, n)
        row = previous[key]
        if len(options) == 1:
            rows[key] = row
            continue
        # shares row's coefficient dicts: copy one before adding to it
        terms = dict(row)
        for sub, count in options[1:]:
            shift = count * exponent
            for k, coeffs in previous[sub, charge].items():
                old = terms.get(k)
                if old is None:
                    terms[k] = {e + shift: c for e, c in coeffs.items()}
                    continue
                if old is row.get(k):
                    old = terms[k] = dict(old)
                for e, c in coeffs.items():
                    e += shift
                    old[e] = old.get(e, 0) + c
        rows[key] = terms
    return rows


def vec_val(v):
    """Minimum coefficient valuation over the support; INF for zero."""
    if not v.terms:
        return INF
    return min(c.val() for c in v.terms.values())


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


def _expect(v, side):
    if v.side != side:
        raise ValueError("expected a %s-side vector, got %s" % (side, v.side))


def _accumulate(terms, k, coeff):
    old = terms.get(k)
    new = coeff if old is None else old + coeff
    if new:
        terms[k] = new
    else:
        terms.pop(k, None)
