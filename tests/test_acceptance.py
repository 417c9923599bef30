"""Acceptance suite: seven exact desk-scale checks, one line of output each."""

import itertools

from mayacrystal.datum import CartanData, datum_from_word
from mayacrystal.fock import FockVector, MINUS, x_act
from mayacrystal.graph import check_axioms, explore, kostant, lattice_points, weight_census
from mayacrystal.laurent import LaurentPoly, MultiPoly
from mayacrystal.maya import (
    BLACK,
    LEFT_BLACK,
    RIGHT_BLACK,
    WHITE,
    ChargedPartition,
    MayaDiagram,
    from_partition,
    lambda_diagram,
    removable_boxes,
    s_lambda_diagram,
    to_partition,
)
from reference import (
    box_label_multiset,
    kostant_brute,
    oracle_eval,
    oracle_theta,
    partitions_up_to,
    sigma_canonical_diagrams,
    vector_val,
)

GRAPHS = {}


def graph_for(n, depth=6):
    key = (n, depth)
    if key not in GRAPHS:
        GRAPHS[key] = explore(CartanData(n), depth)
    return GRAPHS[key]


def verdict(number, label, ok):
    print("ACCEPTANCE %d (%s): %s" % (number, label, "PASS" if ok else "FAIL"))
    assert ok, "acceptance criterion %d failed: %s" % (number, label)


def test_acceptance_1_axiom_suite():
    ok = True
    for n in (2, 3):
        violations = check_axioms(graph_for(n))
        ok = ok and not violations
    verdict(1, "crystal axioms, n in {2,3}, depth 6", ok)


def test_acceptance_2_graded_census():
    ok = True
    for n in (2, 3):
        census = weight_census(graph_for(n))
        points = lattice_points(n, 6)
        counts = kostant(n, points)
        for beta in points:
            expected = counts[beta]
            if census.get(beta, 0) != expected:
                ok = False
            if sum(beta) <= 5 and kostant_brute(n, beta) != expected:
                ok = False
    verdict(2, "census equals Kostant up to height 6", ok)


def test_acceptance_3_oracle_equivalence():
    ok = True
    for n, max_len in ((2, 4), (3, 3)):
        cartan = CartanData(n)
        diagrams = sigma_canonical_diagrams(n, 6)
        for length in range(max_len + 1):
            for word in itertools.product(range(n), repeat=length):
                datum = datum_from_word(cartan, word)
                for gamma in diagrams:
                    if datum.eval(gamma) != oracle_eval(datum, gamma):
                        ok = False
    verdict(3, "symbolic oracle equals recursion", ok)


def test_acceptance_4_valuation_lemma():
    ok = True
    n = 2
    for ell in range(-3, 1):
        p = LaurentPoly.term(MultiPoly.variable("a"), ell)
        for i in range(n):
            for parts in partitions_up_to(6):
                for charge in range(n):
                    cp = ChargedPartition(parts, charge)
                    v = FockVector.basis(n, MINUS, (parts, charge))
                    k = len(removable_boxes(cp, i, n))
                    expected = min(ell * j for j in range(k + 1))
                    if vector_val(x_act(v, i, p)) != expected:
                        ok = False
    verdict(4, "single-factor valuation formula", ok)


def test_acceptance_5_theta_consistency():
    taus = []
    for i in range(2):
        taus += [lambda_diagram(i), s_lambda_diagram(i)]
        taus += [lambda_diagram(i - 1), lambda_diagram(i + 1)]
    taus += [
        MayaDiagram(RIGHT_BLACK, diffs)
        for diffs in (
            {1}, {0}, {-1}, {2}, {0, 1}, {-1, 2}, {1, 2}, {-1, 0}, {-2, 1}, {0, 3},
        )
    ]
    cartan = CartanData(2)
    ok = True
    for length in range(4):
        for word in itertools.product(range(2), repeat=length):
            datum = datum_from_word(cartan, word)
            for tau in taus:
                if datum.theta(tau) != oracle_theta(datum, tau):
                    ok = False
    verdict(5, "theta equals plus-side oracle (pins factor order)", ok)


def test_acceptance_6_internal_identities():
    ok = True
    for n in (2, 3):
        graph = graph_for(n, 4)
        for node in graph.nodes:
            datum = datum_from_word(CartanData(n), node.word)
            for i in range(n):
                if datum.c_coeff(i) != datum.phi_hat(i) - 1:
                    ok = False
            for parts in partitions_up_to(3):
                gamma = from_partition(ChargedPartition(parts, 1))
                if datum.eval(gamma) != datum.eval(gamma.shift(n)):
                    ok = False
        for (src, i), dst in graph.edges.items():
            a, b = graph.nodes[src].weight, graph.nodes[dst].weight
            expected = tuple(w - (1 if j == i else 0) for j, w in enumerate(a))
            if b != expected:
                ok = False
    verdict(6, "c-identity, n-periodicity, weight shift", ok)


def test_acceptance_7_fixtures():
    ok = True
    overrides = {
        7: BLACK, 6: BLACK, 5: BLACK, 4: BLACK, 3: BLACK, 2: WHITE,
        1: BLACK, 0: WHITE, -1: WHITE, -2: BLACK, -3: BLACK, -4: WHITE,
        -5: WHITE, -6: BLACK, -7: WHITE,
    }
    m = MayaDiagram.from_colors(LEFT_BLACK, overrides)
    p = to_partition(m)
    ok = ok and from_partition(p) == m
    ok = ok and box_label_multiset(p) == sorted(
        [2, 1, 0, 0, -1, -1, -1, -2, -2, -3, -4, -5]
    )
    lam = lambda_diagram(2)
    ok = ok and all(lam.color(label) == BLACK for label in range(-8, 2))
    ok = ok and all(lam.color(label) == WHITE for label in range(2, 9))
    slam = s_lambda_diagram(2)
    ok = ok and slam.color(1) == WHITE and slam.color(2) == BLACK
    ok = ok and all(slam.color(label) == BLACK for label in range(-8, 1))
    ok = ok and all(slam.color(label) == WHITE for label in range(3, 9))
    verdict(7, "figure fixtures round-trip bead-for-bead", ok)
