from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from mayacrystal.datum import CartanData, canonical_diagrams, datum_from_word
from mayacrystal.fock import MINUS, PLUS, FockVector, x_act
from mayacrystal.laurent import INF, LaurentPoly, MultiPoly, _merge_monomials
from mayacrystal.oracle import d_gamma, generic_element
from reference import charged, d_tau, vector_val

coeffs = st.fractions(
    max_denominator=20,
    min_value=Fraction(-30),
    max_value=Fraction(30),
)
laurents = st.dictionaries(st.integers(-6, 6), coeffs, max_size=5).map(LaurentPoly)


def test_zero_and_one():
    assert not LaurentPoly.zero()
    assert LaurentPoly.one()
    assert LaurentPoly.one().val() == 0
    assert LaurentPoly.zero().val() == INF


def test_term_constructor():
    p = LaurentPoly.term(Fraction(3, 2), -4)
    assert p.val() == -4
    assert p.coeffs == {-4: Fraction(3, 2)}
    assert not LaurentPoly.term(Fraction(0), 5)


def test_addition_cancels():
    p = LaurentPoly.term(Fraction(1), 2)
    q = LaurentPoly.term(Fraction(-1), 2)
    assert not (p + q)
    assert (p + q).val() == INF


def test_multiplication_adds_exponents():
    p = LaurentPoly.term(Fraction(2), -1)
    q = LaurentPoly.term(Fraction(3), 4)
    assert (p * q).coeffs == {3: Fraction(6)}


@given(laurents, laurents)
def test_add_commutes(p, q):
    assert p + q == q + p


@given(laurents, laurents, laurents)
def test_mul_distributes(p, q, r):
    assert p * (q + r) == p * q + p * r


@given(laurents, laurents)
def test_val_of_product_when_exact(p, q):
    # Over a domain the valuation is additive; Fraction coefficients never
    # produce zero divisors, so the lowest terms cannot cancel.
    if p and q:
        assert (p * q).val() == p.val() + q.val()
    else:
        assert (p * q).val() == INF


@given(laurents, laurents)
def test_val_of_sum_lower_bound(p, q):
    s = p + q
    assert s.val() >= min(p.val(), q.val())


def test_scale():
    p = LaurentPoly({0: Fraction(1), 2: Fraction(-3)})
    assert p.scale(Fraction(2)).coeffs == {0: Fraction(2), 2: Fraction(-6)}
    assert not p.scale(Fraction(0))


def test_multipoly_basics():
    a = MultiPoly.variable("a")
    b = MultiPoly.variable("b")
    expr = (a + b) * (a - b)
    assert expr == a * a - b * b
    assert not MultiPoly.const(0)


def test_multipoly_generic_nonzero():
    # a nonzero symbolic coefficient stays nonzero under the ring ops the
    # exponential series performs: scaling by nonzero rationals and adding
    # terms in distinct indeterminates
    a = MultiPoly.variable("a1")
    assert a * Fraction(1, 6)
    assert a + MultiPoly.variable("a2")


def test_laurent_over_multipoly():
    a = MultiPoly.variable("a")
    p = LaurentPoly.term(a, -2)
    q = p * p
    assert q.val() == -4
    assert q.coeffs[-4] == a * a


# -- reference products --------------------------------------------------
#
# The general product loops, without the single-term paths: every pair of
# terms is accumulated and zero-tested, and monomials merge through a dict.


def reference_merge(m1, m2):
    exps = dict(m1)
    for name, exp in m2:
        exps[name] = exps.get(name, 0) + exp
    return tuple(sorted(exps.items()))


def reference_multipoly_mul(p, q):
    q = MultiPoly._coerce(q)
    terms = {}
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            mono = reference_merge(m1, m2) if m1 and m2 else m1 or m2
            old = terms.get(mono)
            new = c1 * c2 if old is None else old + c1 * c2
            if new:
                terms[mono] = new
            else:
                terms.pop(mono, None)
    return MultiPoly(terms)


def _reference_times(c1, c2):
    if isinstance(c1, MultiPoly):
        return reference_multipoly_mul(c1, c2)
    if isinstance(c2, MultiPoly):
        return reference_multipoly_mul(c2, c1)
    return c1 * c2


def reference_laurent_mul(p, q):
    coeffs = {}
    for e1, c1 in p.coeffs.items():
        for e2, c2 in q.coeffs.items():
            e = e1 + e2
            old = coeffs.get(e)
            new = _reference_times(c1, c2) if old is None else old + _reference_times(c1, c2)
            if new:
                coeffs[e] = new
            else:
                coeffs.pop(e, None)
    return LaurentPoly(coeffs)


# "a10" sorts between "a1" and "a2", so merged monomials sort by string, not
# by index; few names make shared variables, whose exponents add, common.
names = st.sampled_from(("a1", "a10", "a2", "b"))
monomials = st.dictionaries(names, st.integers(1, 3), max_size=3).map(
    lambda exps: tuple(sorted(exps.items()))
)
one_variable = st.tuples(names, st.integers(1, 3)).map(lambda pair: (pair,))
rationals = st.one_of(st.integers(-4, 4), coeffs).filter(bool)


def _multipolys(monos, max_size):
    return st.dictionaries(monos, rationals, max_size=max_size).map(MultiPoly)


multipolys = _multipolys(monomials, 4)
single_multipolys = _multipolys(st.one_of(monomials, one_variable, st.just(())), 1).filter(bool)
ring_values = st.one_of(rationals, multipolys.filter(bool))
ring_laurents = st.dictionaries(st.integers(-4, 4), ring_values, max_size=4).map(LaurentPoly)
single_laurents = st.tuples(
    st.integers(-4, 4), st.one_of(rationals, single_multipolys, multipolys.filter(bool))
).map(lambda term: LaurentPoly({term[0]: term[1]}))


def _assert_same_product(product, expected):
    # MultiPoly equality is dict equality, so an unsorted monomial differs
    assert product == expected
    assert all(product.coeffs.values())


class TestSingleTermProducts:
    @given(monomials, st.one_of(monomials, one_variable))
    def test_merge_matches_reference(self, m1, m2):
        assert _merge_monomials(m1, m2) == reference_merge(m1, m2)
        assert _merge_monomials(m2, m1) == reference_merge(m1, m2)

    def test_merge_inserts_sorted_and_adds_exponents(self):
        m = (("a1", 1), ("a2", 2))
        assert _merge_monomials(m, (("a10", 1),)) == (("a1", 1), ("a10", 1), ("a2", 2))
        assert _merge_monomials(m, (("a2", 3),)) == (("a1", 1), ("a2", 5))
        assert _merge_monomials((("b", 1),), m) == (("a1", 1), ("a2", 2), ("b", 1))

    @given(multipolys, st.one_of(multipolys, single_multipolys, rationals))
    def test_multipoly_mul_matches_reference(self, p, q):
        expected = reference_multipoly_mul(p, q)
        assert (p * q).terms == expected.terms
        assert (q * p).terms == expected.terms
        assert all((p * q).terms.values())

    @given(ring_laurents, st.one_of(ring_laurents, single_laurents))
    def test_laurent_mul_matches_reference(self, p, q):
        expected = reference_laurent_mul(p, q)
        _assert_same_product(p * q, expected)
        _assert_same_product(q * p, expected)


# -- sums ------------------------------------------------------------------
#
# Every sum goes through laurent._accumulate, which drops a key whose sum is
# zero, so p - p stores nothing and equality can be plain dict equality.

multipoly_laurents = st.dictionaries(
    st.integers(-4, 4), multipolys.filter(bool), max_size=4).map(LaurentPoly)


@given(st.one_of(laurents, multipoly_laurents, multipolys))
def test_difference_with_itself_stores_nothing(p):
    zero = p - p
    assert not zero
    assert (zero.terms if isinstance(p, MultiPoly) else zero.coeffs) == {}


def test_equality_across_coefficient_rings():
    assert LaurentPoly({0: 1}) == LaurentPoly({0: Fraction(1)}) == LaurentPoly({0: MultiPoly.const(1)})
    assert LaurentPoly({0: 1}) != LaurentPoly({0: MultiPoly.variable("a")})


# -- the generic-point reference -------------------------------------------
#
# The oracle's factor loop over independent indeterminates a_j, one MultiPoly
# variable per factor.  The oracle runs it at a_j = 1, which is exact
# because every coefficient lies in N[a][t, t^-1].


def generic_point(factors, v):
    """The group word's factors applied to v, newest first, factor j with
    the parameter a_j t^e_j."""
    for j, (residue, exponent) in reversed(list(enumerate(factors, 1))):
        v = x_act(v, residue, LaurentPoly.term(MultiPoly.variable("a%d" % j), exponent))
    return v


def numbers(value):
    """A MultiPoly's coefficients, or a number as itself (the basis
    vector's own unit, which no factor multiplies)."""
    return list(value.terms.values()) if isinstance(value, MultiPoly) else [value]


def at_one(v):
    """v's coefficients as {key: {exponent: value}}, each MultiPoly value
    taken at every a_j = 1, that is, its coefficient sum."""
    return {
        key: {e: sum(numbers(c)) for e, c in poly.coeffs.items()}
        for key, poly in v.terms.items()
    }


def coefficients(v):
    return {key: poly.coeffs for key, poly in v.terms.items()}


words = st.integers(2, 4).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(0, n - 1), max_size=5).map(tuple))
)


class TestIntegerUnits:
    def test_units_are_ints(self):
        assert type(LaurentPoly.one().coeffs[0]) is int
        assert [type(c) for c in MultiPoly.variable("a").terms.values()] == [int]
        assert type(MultiPoly.const(3).terms[()]) is int
        assert MultiPoly.const(Fraction(3, 2)).terms == {(): Fraction(3, 2)}
        assert type(MultiPoly.const(Fraction(2)).terms[()]) is Fraction

    def test_symbolic_d_gamma_matches_fraction_units(self, monkeypatch):
        factors = generic_element(datum_from_word(CartanData(2), (0, 1, 0, 1, 1, 0)))
        keys = charged(2, canonical_diagrams(6))
        vectors = [d_gamma(2, factors, key) for key in keys]
        numbers = [c for v in vectors for poly in v.terms.values() for c in poly.coeffs.values()]
        assert {type(number) for number in numbers} == {int}
        assert max(numbers) > 1

        # the generic-point reference over Fraction units and the reference
        # products, taken at a = 1, gives the same vectors
        monkeypatch.setattr(
            MultiPoly, "variable", classmethod(lambda cls, name: cls({((name, 1),): Fraction(1)}))
        )
        monkeypatch.setattr(LaurentPoly, "one", classmethod(lambda cls: cls({0: Fraction(1)})))
        monkeypatch.setattr(LaurentPoly, "__mul__", reference_laurent_mul)
        monkeypatch.setattr(MultiPoly, "__mul__", reference_multipoly_mul)
        monkeypatch.setattr(MultiPoly, "__rmul__", reference_multipoly_mul)
        for key, v in zip(keys, vectors):
            generic = generic_point(factors, FockVector.basis(2, MINUS, key))
            assert at_one(generic) == coefficients(v)


class TestGenericPoint:
    @settings(max_examples=30, deadline=None)
    @given(words)
    def test_integer_run_is_the_generic_point_at_one(self, case):
        # rows <gamma| g and columns g |tau> alike: the generic-point vector
        # has the integer vector's keys and only positive coefficients, its
        # coefficient sums are the integer coefficients, and the valuations agree
        n, letters = case
        factors = generic_element(datum_from_word(CartanData(n), letters))
        for key in charged(n, canonical_diagrams(5)):
            # the key of gamma, and of tau, gamma's color inversion
            for side, act in ((MINUS, d_gamma), (PLUS, d_tau)):
                integer = act(n, factors, key)
                generic = generic_point(factors, FockVector.basis(n, side, key))
                assert generic.terms.keys() == integer.terms.keys()
                assert all(
                    number > 0
                    for poly in generic.terms.values()
                    for c in poly.coeffs.values()
                    for number in numbers(c)
                )
                assert at_one(generic) == coefficients(integer)
                assert vector_val(generic) == vector_val(integer)
