import itertools
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from mayacrystal import datum, fock, maya, oracle
from mayacrystal.datum import CartanData, canonical_diagrams, datum_from_word
from mayacrystal.fock import minus_rows
from mayacrystal.laurent import INF
from mayacrystal.maya import (
    MayaDiagram,
    RIGHT_BLACK,
    lambda_diagram,
    s_lambda_diagram,
    term_key,
    to_partition,
)
from mayacrystal.oracle import compare, d_gamma, generic_element, report_to_json
from reference import (
    charged,
    d_tau,
    diagram,
    oracle_eval,
    oracle_theta,
    small_diagrams,
    unpack_row,
    vector_val,
)


class TestGenericElement:
    def test_empty_word(self):
        assert generic_element(datum_from_word(CartanData(2), ())) == ()

    def test_factor_structure(self):
        d = datum_from_word(CartanData(2), (0, 1))
        factors = generic_element(d)
        assert [residue for residue, _ in factors] == [0, 1]
        # first factor parameter valuation is phi_hat_0(O) - 1 = -1
        assert factors[0][1] == -1

    def test_exponents_track_phi(self):
        d = datum_from_word(CartanData(2), (0, 0))
        factors = generic_element(d)
        prefix = datum_from_word(CartanData(2), (0,))
        assert factors[1][1] == prefix.phi_hat(0) - 1


class TestDGamma:
    def test_identity_on_empty_word(self):
        factors = generic_element(datum_from_word(CartanData(2), ()))
        g = diagram((2, 1), 1)
        v = d_gamma(2, factors, term_key(g))
        assert list(v.terms) == [term_key(g)]
        assert vector_val(v) == 0

    def test_accepts_the_charged_partition(self):
        # the row of gamma's (parts, charge) holds gamma itself, every
        # coefficient being positive, and otherwise only diagrams with boxes
        # removed from it, at its charge
        factors = generic_element(datum_from_word(CartanData(2), (0, 1, 1)))
        for g in small_diagrams(2, 3):
            p = to_partition(g)
            row = d_gamma(2, factors, (p.parts, p.charge))
            assert (p.parts, p.charge) in row.terms
            for parts, charge in row.terms:
                assert charge == p.charge
                assert len(parts) <= len(p.parts)
                assert all(a <= b for a, b in zip(parts, p.parts))

    def test_matches_recursion_single_letter(self):
        d = datum_from_word(CartanData(2), (0,))
        assert oracle_eval(d, diagram((1,), 1)) == -1
        assert oracle_eval(d, diagram((1,), 0)) == 0
        assert oracle_eval(d, diagram((), 0)) == 0

    def test_matches_recursion_words(self):
        cartan = CartanData(2)
        diagrams = small_diagrams(2, 4)
        for word in itertools.product(range(2), repeat=3):
            d = datum_from_word(cartan, word)
            for g in diagrams:
                assert d.eval(g) == oracle_eval(d, g)


class TestDTau:
    def taus(self):
        out = [lambda_diagram(i) for i in range(-1, 3)]
        out += [s_lambda_diagram(i) for i in range(0, 2)]
        out.append(MayaDiagram(RIGHT_BLACK, {-1, 1}))
        out.append(MayaDiagram(RIGHT_BLACK, {0, 2}))
        return out

    def test_default_order_matches_theta(self):
        cartan = CartanData(2)
        for word in itertools.product(range(2), repeat=2):
            d = datum_from_word(cartan, word)
            for tau in self.taus():
                assert oracle_theta(d, tau) == d.theta(tau)

    def test_order_convention_is_pinned(self):
        # the two factor orders genuinely differ; only d_tau's, newest factor
        # first, agrees with theta on every word, which fixes the convention
        cartan = CartanData(2)
        disagreements = 0
        for word in itertools.product(range(2), repeat=3):
            d = datum_from_word(cartan, word)
            factors = generic_element(d)
            for tau in self.taus():
                th = d.theta(tau)
                assert vector_val(d_tau(2, factors, term_key(tau))) == th
                if vector_val(d_tau(2, factors[::-1], term_key(tau))) != th:
                    disagreements += 1
        assert disagreements > 0


@st.composite
def group_words(draw):
    """n = 2..4 and a group word's (residue, exponent) factors: at most 5,
    any t-exponents."""
    n = draw(st.sampled_from((2, 3, 4)))
    factors = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(-3, 3)), max_size=5))
    return n, tuple(factors)


def unpacked_rows(n, factors, block):
    """``minus_rows`` of the block, each packed row unpacked into the
    minus-side vector it packs, keyed by its (parts, charge) in row order."""
    rows, width = minus_rows(n, factors, block)
    return {
        key: unpack_row(n, block, key[1], row, width)
        for key, row in zip(charged(n, block), rows, strict=True)
    }


class TestSharedRows:
    """fock.minus_rows fills every window row once per word prefix; the
    per-row d_gamma, one x_act per letter, is its reference."""

    @given(group_words(), st.integers(0, 5))
    @settings(max_examples=60, deadline=None)
    def test_rows_equal_d_gamma(self, word, max_boxes):
        n, factors = word
        block = canonical_diagrams(max_boxes)
        # the reversed block is closed under removal too, in another order,
        # which packs each row's diagrams in another digit order
        for order in (block, block[::-1]):
            rows = unpacked_rows(n, factors, order)
            assert list(rows) == charged(n, order)
            for parts, charge in charged(n, order):
                expected = d_gamma(n, factors, (parts, charge))
                # FockVector equality: the same keys, and equal LaurentPoly
                # coefficients at each
                assert rows[parts, charge] == expected

    def test_narrow_digits_break_the_rows(self, monkeypatch):
        # the equality above sees the packing: with 1-bit digits the counts
        # above 1 of this word's rows carry into their neighbours' digits
        factors = generic_element(datum_from_word(CartanData(2), (0, 1, 0, 1, 1, 0)))
        block = canonical_diagrams(5)
        expected = {key: d_gamma(2, factors, key) for key in charged(2, block)}
        assert unpacked_rows(2, factors, block) == expected
        monkeypatch.setattr(fock, "_digit_width", lambda *args: 1)
        assert unpacked_rows(2, factors, block) != expected

    def test_passes_are_safe_in_place(self):
        # within a box row's pass no diagram read is one written, and the
        # passes, from one charge-free corner scan per partition, pair each
        # partition at each charge c with exactly its removable boxes of
        # residue i at entry (i + c) mod n, in the block's order and in
        # its reverse
        for n in range(2, 6):
            for block in (canonical_diagrams(6), canonical_diagrams(6)[::-1]):
                passes = fock._passes(n, block)
                assert len(passes) == n
                for entry, by_row in enumerate(passes):
                    for pairs in by_row.values():
                        assert not {k for k, _ in pairs} & {j for _, j in pairs}
                    paired = {}
                    for r, pairs in by_row.items():
                        for k, j in pairs:
                            paired.setdefault(k, []).append((r, j))
                    for charge, (k, parts) in itertools.product(range(n), enumerate(block)):
                        rows = sorted(paired.get(k, []))
                        assert [r for r, _ in rows] == maya.removable_rows(
                            parts, charge, (entry - charge) % n, n
                        )
                        for r, j in rows:
                            sub = parts[:r] + (parts[r] - 1,) + parts[r + 1:]
                            assert block[j] == tuple(x for x in sub if x)

    def test_rows_reach_beyond_the_valuation(self):
        # rows carry whole Laurent polynomials, with several exponents and
        # path counts above 1, so the equality above tests more than a
        # valuation
        factors = generic_element(datum_from_word(CartanData(2), (0, 1, 0, 1, 1, 0)))
        rows = unpacked_rows(2, factors, canonical_diagrams(5))
        polys = [poly for row in rows.values() for poly in row.terms.values()]
        assert max(len(poly.coeffs) for poly in polys) > 1
        assert max(c for poly in polys for c in poly.coeffs.values()) > 1


class TestCompare:
    def test_report_shape_and_pass(self):
        d = datum_from_word(CartanData(2), (0, 1))
        report = compare(d, 3)
        assert report["pass"] is True
        assert report["word"] == [0, 1]
        # one row per window diagram, in window order
        assert [
            (tuple(r["diagram"]["parts"]), r["diagram"]["charge"]) for r in report["results"]
        ] == charged(2, canonical_diagrams(3))
        assert all(r["match"] for r in report["results"])

    def test_rows_need_no_conversion(self, monkeypatch):
        # compare works on the window's (parts, charge) pairs as they are,
        # and the statistics behind the generic element read theta at its
        # closed-form keys: no Maya diagram is converted anywhere
        calls = []
        original = maya.to_partition

        def counting(m):
            calls.append(m)
            return original(m)

        for module in (maya, datum, fock, oracle):
            monkeypatch.setattr(module, "to_partition", counting, raising=False)
        d = datum_from_word(CartanData(2), (0, 1))
        generic_element(d)
        report = compare(d, 3)
        assert report["pass"] is True
        assert len(report["results"]) == 2 * len(canonical_diagrams(3))
        assert calls == []

    def test_inf_serialized_as_string(self):
        d = datum_from_word(CartanData(2), ())
        report = compare(d, 0)
        assert report["results"][0]["oracle"] in (0, "inf")
        assert INF != 0
        text = report_to_json(report)
        assert text.endswith("\n")
        assert "Infinity" not in text

    def test_report_text_is_the_indented_dump(self):
        # the report is written by hand in json.dumps's indented layout
        def row(parts, charge, recursive, oracle):
            return {"diagram": {"parts": parts, "charge": charge},
                    "recursive": recursive, "oracle": oracle, "match": recursive == oracle}

        reports = [
            {"word": [], "results": [], "pass": False},
            {"word": [], "results": [row([], 0, 0, 0)], "pass": True},
            {"word": [0, 1, 1], "pass": False, "results": [
                row([], 1, -3, -3), row([3, 1, 1], 0, -12, "inf"), row([2], 2, 5, -1)]},
            compare(datum_from_word(CartanData(3), (0, 2, 1)), 3),
        ]
        for report in reports:
            assert report_to_json(report) == json.dumps(report, sort_keys=True, indent=2) + "\n"

    def test_n3_words(self):
        cartan = CartanData(3)
        for word in [(0,), (1, 2), (2, 0, 1)]:
            d = datum_from_word(cartan, word)
            report = compare(d, 3)
            assert report["pass"] is True
