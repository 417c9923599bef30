import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mayacrystal.datum import canonical_diagrams
from mayacrystal.maya import (
    BLACK,
    LEFT_BLACK,
    RIGHT_BLACK,
    WHITE,
    BoxRef,
    ChargedPartition,
    Interval,
    MayaDiagram,
    add_box,
    addable_boxes,
    addition_options,
    corner_rows,
    from_partition,
    invert_outside,
    lambda_diagram,
    partitions_of,
    removable_boxes,
    removable_rows,
    removal_options,
    remove_box,
    s_lambda_diagram,
    to_partition,
)
from reference import (
    box_label_multiset,
    box_slot_label,
    charged,
    corner_removals,
    partitions_up_to,
)

partition_parts = st.lists(st.integers(1, 7), max_size=5).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)
charges = st.integers(-6, 6)


@st.composite
def tall_parts(draw):
    """Near-rectangular partitions: 1-5 distinct parts, each repeated in a
    run of up to 100 equal rows, like the interval inversions theta meets."""
    values = draw(st.lists(st.integers(1, 12), min_size=1, max_size=5, unique=True))
    parts = []
    for value in sorted(values, reverse=True):
        parts += [value] * draw(st.integers(1, 100))
    return tuple(parts)


@st.composite
def right_black_in_interval(draw):
    """A right-black diagram and an interval within +-120 that contains its
    deviations."""
    lo, hi = sorted(draw(st.tuples(st.integers(-120, 120), st.integers(-120, 120))))
    diffs = draw(st.sets(st.integers(lo, hi), max_size=12))
    return MayaDiagram(RIGHT_BLACK, diffs), Interval(lo, hi)


def reference_invert_outside(t, interval):
    """invert_outside label by label, through color() and from_colors()."""
    lo = min(interval.lo, 0) - 1
    hi = max(interval.hi, 1) + 1
    overrides = {}
    for label in range(lo, hi + 1):
        c = t.color(label)
        if label not in interval:
            c = WHITE if c == BLACK else BLACK
        overrides[label] = c
    return MayaDiagram.from_colors(LEFT_BLACK, overrides)


def reference_to_partition(m):
    """to_partition of a left-black diagram, reading every label's color
    through color()."""
    hi = max([0] + [d for d in m.diffs])
    lo = min([1] + [d for d in m.diffs]) - 1
    whites = [label for label in range(hi, lo, -1) if m.color(label) == WHITE]
    k = len(whites)
    s = lo + k + 1
    parts = tuple(w - s + j for j, w in enumerate(whites, 1))
    parts = parts[: next((j for j, x in enumerate(parts) if x == 0), len(parts))]
    return ChargedPartition(parts, 1 - s)


def golden_diagram():
    """The 12-box fixture: explicit slot colors around the boundary."""
    overrides = {
        7: BLACK, 6: BLACK, 5: BLACK, 4: BLACK, 3: BLACK, 2: WHITE,
        1: BLACK, 0: WHITE, -1: WHITE, -2: BLACK, -3: BLACK, -4: WHITE,
        -5: WHITE, -6: BLACK, -7: WHITE,
    }
    return MayaDiagram.from_colors(LEFT_BLACK, overrides)


class TestGoldenFixture:
    def test_partition(self):
        p = to_partition(golden_diagram())
        assert p.parts == (4, 3, 3, 1, 1)
        assert p.charge == 2

    def test_round_trip(self):
        m = golden_diagram()
        assert from_partition(to_partition(m)) == m

    def test_label_multiset(self):
        p = to_partition(golden_diagram())
        assert box_label_multiset(p) == sorted(
            [2, 1, 0, 0, -1, -1, -1, -2, -2, -3, -4, -5]
        )


class TestMayaDiagram:
    def test_vacuum(self):
        vac = MayaDiagram(LEFT_BLACK)
        assert vac.charge == 0
        assert vac.color(1) == BLACK
        assert vac.color(0) == WHITE
        rvac = MayaDiagram(RIGHT_BLACK)
        assert rvac.color(0) == BLACK
        assert rvac.color(1) == WHITE

    def test_immutable_hashable(self):
        m = golden_diagram()
        with pytest.raises(AttributeError):
            m.kind = RIGHT_BLACK
        assert hash(m) == hash(MayaDiagram(m.kind, m.diffs))

    def test_from_colors_drops_redundant(self):
        m = MayaDiagram.from_colors(LEFT_BLACK, {5: BLACK, -3: WHITE, 0: BLACK})
        assert m.diffs == frozenset({0})

    def test_invert_involution(self):
        m = golden_diagram()
        assert m.invert().invert() == m
        assert m.invert().kind == RIGHT_BLACK
        for label in range(-9, 10):
            assert m.invert().color(label) != m.color(label)

    @given(st.sets(st.integers(-8, 8), max_size=6), st.integers(-5, 5))
    def test_shift_charge(self, diffs, k):
        m = MayaDiagram(LEFT_BLACK, diffs)
        shifted = m.shift(k)
        assert shifted.charge == m.charge - k
        for label in range(-20, 21):
            assert shifted.color(label + k) == m.color(label)

    @given(st.sets(st.integers(-8, 8), max_size=6), st.integers(-5, 5))
    def test_shift_inverse(self, diffs, k):
        m = MayaDiagram(RIGHT_BLACK, diffs)
        assert m.shift(k).shift(-k) == m

    def test_json_round_trip(self):
        m = golden_diagram()
        assert MayaDiagram.from_json(m.to_json()) == m
        assert MayaDiagram.from_json(m.invert().to_json()) == m.invert()

    @pytest.mark.parametrize("data", [
        {"kind": LEFT_BLACK, "deviations": [[0.5, BLACK]]},
        {"kind": LEFT_BLACK, "deviations": [["3", BLACK]]},
        {"kind": LEFT_BLACK, "deviations": [["3", WHITE]]},
        {"kind": LEFT_BLACK, "deviations": [[True, BLACK]]},
        {"kind": LEFT_BLACK, "deviations": [[True, WHITE]]},
        {"kind": LEFT_BLACK, "deviations": 5},
        {"kind": LEFT_BLACK, "deviations": [[0, BLACK, 3]]},
        {"kind": LEFT_BLACK},
    ])
    def test_from_json_rejects_a_malformed_deviation_list(self, data):
        # a label is an int, never truncated from a float or parsed from a
        # string: read as 3 and 1, ["3", "white"] and [true, "white"] would
        # be valid deviations.  The list must hold [label, color] pairs
        with pytest.raises(ValueError):
            MayaDiagram.from_json(data)


class TestRecords:
    @pytest.mark.parametrize("record, same, other, text", [
        (Interval(-1, 2), Interval(lo=-1, hi=2), Interval(-1, 3), "Interval(lo=-1, hi=2)"),
        (ChargedPartition((2, 1)), ChargedPartition(parts=(2, 1), charge=0),
         ChargedPartition((2, 1), 1), "ChargedPartition(parts=(2, 1), charge=0)"),
        (BoxRef(1, 2, 3, 1), BoxRef(row=1, col=2, slot_label=3, residue=1),
         BoxRef(1, 2, 3, 0), "BoxRef(row=1, col=2, slot_label=3, residue=1)"),
    ])
    def test_frozen_record(self, record, same, other, text):
        assert record == same and hash(record) == hash(same)
        assert record != other
        assert len({record, same, other}) == 2
        assert repr(record) == text
        fields = re.findall(r"(\w+)=", text)
        values = [getattr(record, name) for name in fields]
        assert record != tuple(values)

        class Sub(type(record)):
            __slots__ = ()

        assert record != Sub(*values)
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(record, name, 0)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert record == same

    def test_interval_rejects_an_empty_range(self):
        assert 2 in Interval(2, 2)
        with pytest.raises(ValueError):
            Interval(2, 1)

    def test_charged_partition_stores_a_tuple(self):
        p = ChargedPartition([2, 1])
        assert p.parts == (2, 1) and type(p.parts) is tuple
        assert p.charge == 0
        assert p == ChargedPartition((2, 1), 0)


class TestChargedPartition:
    def test_validation(self):
        with pytest.raises(ValueError):
            ChargedPartition((1, 2))
        with pytest.raises(ValueError):
            ChargedPartition((2, 0))
        with pytest.raises(ValueError):
            ChargedPartition((-1,), charge=3)
        with pytest.raises(ValueError):
            ChargedPartition([3, 1, 2])

    @given(partition_parts, charges)
    def test_round_trip(self, parts, charge):
        p = ChargedPartition(parts, charge)
        q = to_partition(from_partition(p))
        assert q.parts == p.parts
        assert q.charge == p.charge

    @given(partition_parts, charges)
    def test_diagram_charge(self, parts, charge):
        assert from_partition(ChargedPartition(parts, charge)).charge == charge

    def test_exhaustive_round_trip(self):
        for parts in partitions_up_to(8):
            for charge in range(-4, 5):
                p = ChargedPartition(parts, charge)
                assert to_partition(from_partition(p)) == p

    @given(st.sampled_from([LEFT_BLACK, RIGHT_BLACK]),
           st.sets(st.integers(-120, 120), max_size=40))
    def test_to_partition_matches_reference(self, kind, diffs):
        m = MayaDiagram(kind, diffs)
        if kind == RIGHT_BLACK:
            with pytest.raises(ValueError):
                to_partition(m)
        else:
            assert to_partition(m) == reference_to_partition(m)

    def test_to_partition_cost_ignores_high_white_labels(self):
        # one white at label 10^12 is the one-row partition (10^12 - 1,) at
        # charge -1; a scan over every label up to it would never finish,
        # so the child runs under a timeout
        script = (
            "from mayacrystal.maya import MayaDiagram, to_partition\n"
            "m = MayaDiagram.from_json({'kind': 'left-black',"
            " 'deviations': [[10**12, 'white']]})\n"
            "print(repr(to_partition(m)))\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=10)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == repr(ChargedPartition((10**12 - 1,), -1)) + "\n"

    @given(right_black_in_interval())
    def test_to_partition_matches_reference_on_inversions(self, case):
        gamma = invert_outside(*case)
        assert to_partition(gamma) == reference_to_partition(gamma)

    def test_right_black_pairs_through_inversion(self):
        # a right-black diagram is pictured by its color inversion's partition
        p = ChargedPartition((2, 1), 1)
        m = from_partition(p).invert()
        assert m.kind == RIGHT_BLACK
        assert to_partition(m.invert()) == p
        assert from_partition(to_partition(m.invert())).invert() == m


class TestPartitionsOf:
    def test_bounds_filter(self):
        # the largest-part and row bounds leave exactly the partitions
        # within them, in the same order; box_diagrams lists its window
        # through them
        for total in range(13):
            full = partitions_of(total)
            for largest in range(8):
                for rows in range(8):
                    assert partitions_of(total, largest, rows) == tuple(
                        p for p in full if max(p, default=0) <= largest and len(p) <= rows
                    )


class TestBoxes:
    def test_slot_labels(self):
        p = ChargedPartition((4, 3, 3, 1, 1), 2)
        assert box_slot_label(p, 1, 1) == -1
        assert box_slot_label(p, 1, 4) == 2
        assert box_slot_label(p, 5, 1) == -5
        with pytest.raises(ValueError):
            box_slot_label(p, 1, 5)

    @given(partition_parts, charges, st.integers(0, 2), st.integers(2, 4))
    def test_remove_then_add(self, parts, charge, i, n):
        p = ChargedPartition(parts, charge)
        for box in removable_boxes(p, i, n):
            q = remove_box(p, box)
            assert sum(q.parts) == sum(p.parts) - 1
            assert add_box(q, box) == p

    @given(partition_parts, charges, st.integers(0, 2), st.integers(2, 4))
    def test_add_then_remove(self, parts, charge, i, n):
        p = ChargedPartition(parts, charge)
        for box in addable_boxes(p, i, n):
            q = add_box(p, box)
            assert sum(q.parts) == sum(p.parts) + 1
            assert remove_box(q, box) == p

    @given(partition_parts, charges, st.integers(2, 4))
    def test_residues_partition_corners(self, parts, charge, n):
        p = ChargedPartition(parts, charge)
        all_corners = removable_boxes(p, 0, 1)
        by_residue = [removable_boxes(p, i, n) for i in range(n)]
        assert sum(len(b) for b in by_residue) == len(all_corners)
        labels = sorted(b.slot_label for b in all_corners)
        assert labels == sorted(set(labels)), "corner labels are distinct"

    @given(st.one_of(partition_parts, tall_parts()), charges, st.integers(0, 3),
           st.integers(2, 4))
    def test_removal_options_match_box_removal(self, parts, charge, i, n):
        # reference: delete each bitmask's boxes one by one with remove_box
        p = ChargedPartition(parts, charge)
        boxes = removable_boxes(p, i, n)
        expected = []
        for mask in range(1 << len(boxes)):
            q = p
            for j, box in enumerate(boxes):
                if mask >> j & 1:
                    q = remove_box(q, box)
            expected.append((q.parts, bin(mask).count("1")))
        assert removal_options(parts, charge, i, n) == expected

    def test_window_is_closed_under_box_removal(self):
        # fock.minus_rows and datum._removal_index read the diagram left by
        # removing any one box of a window diagram from the same window
        for n in (2, 3, 4):
            for max_boxes in range(7):
                window = charged(n, canonical_diagrams(max_boxes))
                keys = set(window)
                for parts, charge in window:
                    for _, sub in corner_removals(parts, charge):
                        assert (sub, charge) in keys

    @given(partition_parts, charges)
    def test_corner_removals_match_removable_boxes(self, parts, charge):
        # each corner's slot label and the parts left without it, against
        # remove_box on every corner box, top row first
        p = ChargedPartition(parts, charge)
        expected = [(box.slot_label, remove_box(p, box).parts)
                    for box in removable_boxes(p, 0, 1)]
        assert list(corner_removals(parts, charge)) == expected

    @given(partition_parts, charges, st.integers(2, 5))
    def test_corner_rows_give_every_residue(self, parts, charge, n):
        # one charge-0 scan gives removable_rows at any charge and residue
        for i in range(n):
            rows = [r for r, label in corner_rows(parts) if (label - charge - i) % n == 0]
            assert rows == removable_rows(parts, charge, i, n)

    @given(partition_parts, charges, st.integers(0, 3), st.integers(2, 4))
    def test_addition_options_match_box_addition(self, parts, charge, i, n):
        # reference: add each bitmask's boxes one by one with add_box
        p = ChargedPartition(parts, charge)
        boxes = addable_boxes(p, i, n)
        expected = []
        for mask in range(1 << len(boxes)):
            q = p
            for j, box in enumerate(boxes):
                if mask >> j & 1:
                    q = add_box(q, box)
            expected.append((q.parts, bin(mask).count("1")))
        assert addition_options(parts, charge, i, n) == expected


class TestFundamentalDiagrams:
    def test_lambda_2_beads(self):
        m = lambda_diagram(2)
        for label in range(-6, 2):
            assert m.color(label) == BLACK
        for label in range(2, 8):
            assert m.color(label) == WHITE

    def test_s_lambda_2_beads(self):
        m = s_lambda_diagram(2)
        assert m.color(1) == WHITE
        assert m.color(2) == BLACK
        for label in range(-6, 1):
            assert m.color(label) == BLACK
        for label in range(3, 8):
            assert m.color(label) == WHITE

    @given(st.integers(-4, 4))
    def test_lambda_charge(self, i):
        assert lambda_diagram(i).charge == 1 - i
        assert s_lambda_diagram(i).charge == 1 - i


class TestInvertOutside:
    def test_requires_right_black(self):
        with pytest.raises(ValueError):
            invert_outside(MayaDiagram(LEFT_BLACK), Interval(-2, 2))

    def test_requires_support_inside(self):
        with pytest.raises(ValueError):
            invert_outside(MayaDiagram(RIGHT_BLACK, {3}), Interval(-2, 2))
        with pytest.raises(ValueError):
            invert_outside(MayaDiagram(RIGHT_BLACK, {-3, 0}), Interval(-2, 2))

    @given(right_black_in_interval())
    def test_matches_reference(self, case):
        t, interval = case
        assert invert_outside(t, interval) == reference_invert_outside(t, interval)

    def test_agreement_inside(self):
        tau = s_lambda_diagram(1)
        iv = Interval(-5, 5)
        gamma = invert_outside(tau, iv)
        assert gamma.kind == LEFT_BLACK
        for label in range(iv.lo, iv.hi + 1):
            assert gamma.color(label) == tau.color(label)
        for label in (iv.lo - 1, iv.lo - 2, iv.hi + 1, iv.hi + 2):
            assert gamma.color(label) != tau.color(label)

    def test_rectangle_partition(self):
        # inverting a fundamental diagram outside [-B, B] cuts out a rectangle
        B, i = 4, 1
        gamma = invert_outside(lambda_diagram(i), Interval(-B, B))
        p = to_partition(gamma)
        assert p.parts == ((B + i),) * (B - i + 1)

    @given(
        st.sets(st.integers(-8, 8), max_size=6),
        st.integers(1, 20),
        st.integers(2, 4),
        st.integers(0, 3),
    )
    def test_removable_boxes_are_addable_boxes_of_inversion(self, diffs, extra, n, i):
        # what theta's plus-side recursion rests on: past tau's span, the
        # interval inversion's removable residue-i boxes sit at the slot
        # labels of the addable residue-i boxes of tau's color inversion
        tau = MayaDiagram(RIGHT_BLACK, diffs)
        B = max((abs(d) for d in diffs), default=0) + 1 + extra
        wide = to_partition(invert_outside(tau, Interval(-B, B)))
        small = to_partition(tau.invert())
        removable = sorted(box.slot_label for box in removable_boxes(wide, i, n))
        addable = sorted(box.slot_label for box in addable_boxes(small, i, n))
        assert removable == addable

    def test_injective_on_window(self):
        iv = Interval(-3, 3)
        seen = {}
        for diffs_bits in range(64):
            diffs = {d for j, d in enumerate(range(-2, 4)) if diffs_bits >> j & 1}
            tau = MayaDiagram(RIGHT_BLACK, diffs)
            gamma = invert_outside(tau, iv)
            assert gamma not in seen
            seen[gamma] = tau


class TestSigma:
    @given(partition_parts, charges, st.integers(2, 4))
    def test_sigma_commutes_with_boxes(self, parts, charge, n):
        p = ChargedPartition(parts, charge)
        m = from_partition(p)
        shifted = to_partition(m.shift(n))
        assert shifted.parts == p.parts
        assert shifted.charge == p.charge - n
        for i in range(n):
            a = [b.slot_label for b in removable_boxes(p, i, n)]
            b = [x.slot_label for x in removable_boxes(shifted, i, n)]
            assert [x - n for x in b] == a
