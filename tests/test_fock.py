from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from mayacrystal.fock import MINUS, PLUS, FockVector, vec_val, x_act
from mayacrystal.laurent import INF, LaurentPoly, MultiPoly
from mayacrystal.maya import (
    ChargedPartition,
    from_partition,
    lambda_diagram,
    partitions_of,
    removable_boxes,
    term_key,
    to_partition,
)
from reference import (
    add,
    basis_minus,
    e_act,
    e_plus_act,
    pairing,
    partitions_up_to,
    scale,
    small_diagrams,
    vector_val,
)


def series_x_act(v, i, p):
    """Reference for x_act: exp(p * E_i) stepped one power at a time,
    term_k = term_(k-1) E_i * p / k, until a term vanishes."""
    step = e_act if v.side == MINUS else e_plus_act
    result = v
    term = v
    k = 0
    while True:
        k += 1
        term = step(term, i)
        if not term:
            return result
        term = scale(scale(term, p), Fraction(1, k))
        result = add(result, term)


small_keys = st.tuples(
    st.integers(0, 6).flatmap(lambda size: st.sampled_from(partitions_of(size))),
    st.integers(-3, 3),
)
parameters = st.lists(
    st.tuples(
        st.one_of(
            st.sampled_from("ab").map(MultiPoly.variable),
            st.fractions(-3, 3, max_denominator=3),
        ),
        st.integers(-2, 2),
    ),
    min_size=1,
    max_size=2,
).map(lambda terms: sum((LaurentPoly.term(c, e) for c, e in terms), LaurentPoly.zero()))


class TestFockVector:
    def test_zero_coefficients_pruned(self):
        v = FockVector(2, MINUS, {((), 0): LaurentPoly.zero()})
        assert not v

    def test_charged_partition_terms(self):
        # a term's key is the charged partition of the minus side's diagram,
        # or of the color inversion of the plus side's, so the two share it
        for g in small_diagrams(2, 3):
            p = to_partition(g)
            assert term_key(g) == term_key(g.invert()) == (p.parts, p.charge)
            assert set(FockVector.basis(2, PLUS, term_key(g.invert())).terms) == {
                (p.parts, p.charge)
            }

    def test_add_cancellation(self):
        v = basis_minus(2, (1,), 0)
        w = scale(v, Fraction(-1))
        assert not add(v, w)

    def test_scale_by_laurent_and_scalar(self):
        v = basis_minus(2, (1,), 0)
        p = LaurentPoly.term(Fraction(2), -3)
        assert vector_val(scale(v, p)) == -3
        assert vector_val(scale(v, Fraction(5))) == 0
        assert vector_val(v) == 0
        assert vector_val(scale(v, Fraction(0))) == INF


class TestChevalleyActions:
    def test_e_act_counts_removals(self):
        p = ChargedPartition((2, 2, 1), 0)
        v = basis_minus(2, p.parts, p.charge)
        for i in range(2):
            moved = e_act(v, i)
            assert len(moved.terms) == len(removable_boxes(p, i, 2))

    def test_e_act_nilpotent(self):
        v = basis_minus(2, (3, 2, 1), 1)
        steps = 0
        while v:
            v = e_act(v, steps % 2)
            steps += 1
            assert steps < 50

    def test_pairing_adjointness_exhaustive(self):
        # <gamma E_i, tau> == <gamma, E_i^+ tau> over all diagrams <= 5 boxes
        diagrams = small_diagrams(2, 5)
        for i in range(2):
            for g in diagrams:
                lhs_vec = e_act(FockVector.basis(2, MINUS, term_key(g)), i)
                for t in diagrams:
                    tau = t.invert()
                    w = FockVector.basis(2, PLUS, term_key(tau))
                    lhs = pairing(lhs_vec, w)
                    rhs = pairing(FockVector.basis(2, MINUS, term_key(g)), e_plus_act(w, i))
                    assert lhs == rhs

    def test_pairing_orthonormal(self):
        diagrams = small_diagrams(2, 3)
        for g in diagrams:
            for h in diagrams:
                value = pairing(
                    FockVector.basis(2, MINUS, term_key(g)),
                    FockVector.basis(2, PLUS, term_key(h.invert())),
                )
                assert bool(value) == (g == h)


class TestOneParameterAction:
    def test_identity_on_fixed_vector(self):
        # no removable boxes of that residue: x_i(p) acts as the identity
        v = basis_minus(2, (1,), 0)  # single box has residue 1
        p = LaurentPoly.term(Fraction(3), -1)
        assert x_act(v, 0, p) == v

    def test_single_removal(self):
        v = basis_minus(2, (1,), 0)
        p = LaurentPoly.term(Fraction(3), -1)
        moved = x_act(v, 1, p)
        vac = from_partition(ChargedPartition((), 0))
        assert len(moved.terms) == 2
        assert moved.terms[term_key(vac)] == p
        assert vector_val(moved) == -1

    def test_two_commuting_removals(self):
        # (2, 1) at charge 0 has two removable residue-0 corners... check n=3
        p = ChargedPartition((2, 1), 2)
        boxes = removable_boxes(p, 0, 1)
        v = basis_minus(2, p.parts, p.charge)
        param = LaurentPoly.term(Fraction(1), -1)
        i = boxes[0].slot_label % 2
        if all(b.slot_label % 2 == i for b in boxes):
            moved = x_act(v, i, param)
            # quadratic term carries p^2 / 2! on the doubly-removed diagram
            double = from_partition(
                ChargedPartition((1,), 2) if p.parts == (2, 1) else p
            )
            assert moved.terms[term_key(double)].coeffs == {-2: Fraction(1)}

    def test_one_parameter_additivity(self):
        # x_i(p) x_i(q) = x_i(p + q) since E_i is a single nilpotent operator
        v = basis_minus(2, (3, 2, 1), 0)
        p = LaurentPoly.term(Fraction(2), -1)
        q = LaurentPoly.term(Fraction(1, 3), 2)
        for i in range(2):
            assert x_act(x_act(v, i, q), i, p) == x_act(v, i, p + q)

    def test_symbolic_parameters(self):
        v = basis_minus(2, (2, 1), 0)
        p = LaurentPoly.term(MultiPoly.variable("a"), -1)
        moved = x_act(v, 0, p)
        assert vector_val(moved) <= 0

    def test_plus_side_terminates_without_cap_when_finite(self):
        # residue-i additions to a fixed diagram run out after finitely many
        v = FockVector.basis(2, PLUS, term_key(lambda_diagram(1)))
        p = LaurentPoly.term(Fraction(1), 0)
        out = x_act(v, 0, p)
        assert out == series_x_act(v, 0, p)
        w = FockVector.basis(2, PLUS, term_key(lambda_diagram(0)))
        moved = x_act(w, 0, LaurentPoly.term(Fraction(1), -1))
        assert len(moved.terms) == 2
        assert vector_val(moved) == -1

    @given(st.integers(0, 1), st.integers(-2, 1))
    @settings(max_examples=20, deadline=None)
    def test_valuation_min_formula(self, i, ell):
        # val(<gamma| x_i(p)) = min over removal subsets of ell * |removed|
        # for a generic symbolic p of valuation ell
        p = LaurentPoly.term(MultiPoly.variable("a"), ell)
        for parts in partitions_up_to(4):
            for charge in (0, 1):
                cp = ChargedPartition(parts, charge)
                v = basis_minus(2, parts, charge)
                k = len(removable_boxes(cp, i, 2))
                expected = min(ell * j for j in range(k + 1))
                assert vector_val(x_act(v, i, p)) == expected


class TestDividedPowers:
    @given(
        st.sampled_from((2, 3, 4)),
        st.sampled_from((MINUS, PLUS)),
        st.lists(st.tuples(small_keys, st.sampled_from((1, -1))), min_size=1, max_size=2),
        st.integers(0, 3),
        parameters,
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_series(self, n, side, entries, i, p):
        v = FockVector(n, side)
        for key, sign in entries:
            v = add(v, FockVector.basis(n, side, key, LaurentPoly.term(Fraction(sign))))
        assert x_act(v, i, p) == series_x_act(v, i, p)

    def test_cap_follows_the_series(self):
        # x_act sums over box subsets and the series steps through powers of
        # E_0; they agree where a step cancels: at n = 2, (2) and (1, 1) each
        # have one addable residue-0 box and both additions give (2, 1), so
        # E_0 cancels on their difference; (1) has two, and a zero parameter
        # stops the series after one step
        def up(*parts):
            return term_key(from_partition(ChargedPartition(parts)).invert())

        a = LaurentPoly.term(MultiPoly.variable("a"), -1)
        diff = FockVector(
            2, PLUS, {up(2): LaurentPoly.one(), up(1, 1): LaurentPoly.term(Fraction(-1))}
        )
        assert not e_plus_act(diff, 0)
        assert x_act(diff, 0, a) == diff == series_x_act(diff, 0, a)
        single = FockVector.basis(2, PLUS, up(2))
        assert x_act(single, 0, a) == series_x_act(single, 0, a) != single
        double = FockVector.basis(2, PLUS, up(1))
        zero = LaurentPoly.zero()
        assert x_act(double, 0, zero) == double == series_x_act(double, 0, zero)


class TestValuation:
    def test_vec_val_zero(self):
        assert vector_val(FockVector(2, MINUS)) == INF

    def test_vec_val_min_over_terms(self):
        v = FockVector(
            2,
            MINUS,
            {
                ((1,), 0): LaurentPoly.term(Fraction(1), 3),
                ((), 0): LaurentPoly.term(Fraction(1), -2),
            },
        )
        assert vector_val(v) == -2

    def test_packed_row_valuation(self):
        # fock.vec_val reads one packed row: its least exponent, INF when zero
        assert vec_val(LaurentPoly.zero()) == INF
        assert vec_val(LaurentPoly({3: 1 << 40, -2: 5, 0: 1})) == -2
