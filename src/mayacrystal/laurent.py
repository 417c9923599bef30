"""Exact sparse Laurent polynomials in t over pluggable exact coefficient rings.

Coefficients may be any exact value of a ring without zero divisors that
supports +, *, == and truthiness as a zero test: ``int``, ``Fraction`` or
:class:`MultiPoly`.  The oracle computes over the integers, at a = 1, so
every coefficient it makes is an ``int`` path count and needs no
``Fraction`` object or gcd per operation; :class:`MultiPoly`, sparse
multivariate polynomials over the rationals, is the tests' generic-point
reference.  No floating point ever enters these computations.

A Laurent product by a single term is one pass, without accumulating or
testing for zero: multiplying by a fixed nonzero term is injective on
exponents, and the coefficient rings have no zero divisors, so no two
products collide and none vanishes.  The one-parameter Fock action always
multiplies by such a term, the power p^k = a^k t^(e k).  Every other sum
of terms, here and in ``fock.x_act``, goes through :func:`_accumulate`, so
no stored coefficient is zero and equality is plain dict equality.  No
command prints a polynomial, so a repr shows only the coefficient dict.

Nothing here imports ``fractions`` (with ``decimal`` and ``numbers``) at
module level: no command makes a ``Fraction``, and :class:`MultiPoly`
loads it only when it first meets a coefficient that is not an ``int``.
"""

from __future__ import annotations

import math

#: Valuation of the zero polynomial.
INF = math.inf


def _accumulate(terms, key, coeff):
    """Add ``coeff`` to ``terms[key]``, dropping the key if the sum is zero."""
    old = terms.get(key)
    new = coeff if old is None else old + coeff
    if new:
        terms[key] = new
    else:
        terms.pop(key, None)


class MultiPoly:
    """Sparse multivariate polynomial over the rationals (``int`` or
    ``Fraction`` coefficients) in named indeterminates.

    Terms are stored as ``{monomial: coefficient}`` where a monomial is a
    tuple of ``(name, exponent)`` pairs sorted by name with exponents > 0;
    the empty tuple is the constant monomial.  Zero coefficients are never
    stored, so equality is plain dict equality.  ``fractions`` is imported
    on the first coefficient that is not an ``int``, so that importing this
    module, which every command does, does not load it.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = dict(terms) if terms else {}

    @classmethod
    def const(cls, value):
        if type(value) is not int:
            from fractions import Fraction

            value = Fraction(value)
        return cls({(): value} if value else None)

    @classmethod
    def variable(cls, name):
        return cls({((str(name), 1),): 1})

    @staticmethod
    def _coerce(other):
        if isinstance(other, MultiPoly):
            return other
        if isinstance(other, int):
            return MultiPoly.const(other)
        from fractions import Fraction

        if isinstance(other, Fraction):
            return MultiPoly.const(other)
        return NotImplemented

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            _accumulate(terms, mono, coeff)
        return MultiPoly(terms)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = _merge_monomials(m1, m2) if m1 and m2 else m1 or m2
                _accumulate(terms, mono, c1 * c2)
        return MultiPoly(terms)

    __rmul__ = __mul__

    def __repr__(self):
        return "MultiPoly(%r)" % self.terms

    __hash__ = None


def _merge_monomials(m1, m2):
    exps = dict(m1)
    for name, exp in m2:
        exps[name] = exps.get(name, 0) + exp
    return tuple(sorted(exps.items()))


class LaurentPoly:
    """Sparse Laurent polynomial: a finite map exponent -> nonzero coefficient."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {e: c for e, c in (coeffs or {}).items() if c}

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def term(cls, coeff, exponent=0):
        return cls({exponent: coeff})

    @classmethod
    def one(cls):
        return cls({0: 1})

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __add__(self, other):
        coeffs = dict(self.coeffs)
        for e, c in other.coeffs.items():
            _accumulate(coeffs, e, c)
        return _laurent(coeffs)

    def __neg__(self):
        return LaurentPoly({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        many, single = self.coeffs, other.coeffs
        if len(many) == 1:
            many, single = single, many
        if len(single) == 1:
            ((e2, c2),) = single.items()
            return _laurent({e1 + e2: c1 * c2 for e1, c1 in many.items()})
        coeffs = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                _accumulate(coeffs, e1 + e2, c1 * c2)
        return _laurent(coeffs)

    def scale(self, scalar):
        if not scalar:
            return LaurentPoly()
        return LaurentPoly({e: c * scalar for e, c in self.coeffs.items()})

    def val(self):
        """Minimal exponent with nonzero coefficient; INF for zero."""
        if not self.coeffs:
            return INF
        return min(self.coeffs)

    def __repr__(self):
        return "LaurentPoly(%r)" % self.coeffs

    __hash__ = None


def _laurent(coeffs):
    """A LaurentPoly over ``coeffs``, which it takes over without copying or
    filtering: every coefficient must be nonzero."""
    p = LaurentPoly.__new__(LaurentPoly)
    p.coeffs = coeffs
    return p
