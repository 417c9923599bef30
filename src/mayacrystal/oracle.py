"""Generic-point oracle: valuations of Fock-space matrix coefficients.

A crystal element with word (i_1, ..., i_m) determines a group element

    g = x_{i_m}(p_m) * ... * x_{i_1}(p_1),    p_j = a_j * t^(phi_j - 1),

where phi_j is the phi statistic of residue i_j on the length j-1 prefix
and the a_j are generic scalars.  The element's value at a left-black
diagram gamma is then the t-valuation of the row vector <gamma| g, and its
theta value at a right-black diagram tau is the valuation of the column
vector g |tau>.  Both are computed exactly and compared against the
recursive evaluation as an independent cross-check.

Symbolic mode is exact by positivity at a_j = 1: ``x_act`` only multiplies
by p^|S|, whose coefficient is 1, and adds, so over indeterminates a_j
every coefficient lies in N[a][t, t^-1].  Such a polynomial, and each of
its t-coefficients, is nonzero exactly when its value at a = 1 is, so the
valuations are those at a = 1.  Random mode draws each a_j as a seeded
nonzero rational instead, through the same parameter path.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

from .fock import MINUS, PLUS, FockVector, vec_val, x_act
from .laurent import INF, LaurentPoly
from .maya import RIGHT_BLACK, ChargedPartition

SYMBOLIC = "symbolic"
RANDOM = "random"


@dataclass(frozen=True)
class Factor:
    """One x_i(p) factor: residue, scalar name, and the power of t."""

    residue: int
    name: str
    exponent: int

    def parameter(self, assignment):
        return LaurentPoly.term(assignment[self.name], self.exponent)


@dataclass(frozen=True)
class GroupWord:
    """Factors of a generic group element, oldest (first letter) first."""

    n: int
    factors: tuple

    @property
    def names(self):
        return [f.name for f in self.factors]


def generic_element(datum):
    """The generic group element attached to a datum's word."""
    chain = []
    node = datum
    while node.parent is not None:
        chain.append(node)
        node = node.parent
    chain.reverse()
    factors = []
    for j, node in enumerate(chain, 1):
        phi = node.parent.phi_hat(node.letter)
        factors.append(Factor(node.letter, "a%d" % j, phi - 1))
    return GroupWord(datum.cartan.n, tuple(factors))


def _assignment(word, mode, seed):
    if mode == SYMBOLIC:
        return dict.fromkeys(word.names, 1)
    if mode != RANDOM:
        raise ValueError("unknown mode: %r" % (mode,))
    if seed is None:
        raise ValueError("random mode requires a seed")
    rng = random.Random(seed)
    out = {}
    for name in word.names:
        value = 0
        while value == 0:
            value = Fraction(rng.randint(-999, 999), rng.randint(1, 99))
        out[name] = value
    return out


def _act(word, v, assignment):
    """The word's factors, scalars from ``assignment``, applied to the
    basis vector v, newest first."""
    for factor in reversed(word.factors):
        v = x_act(v, factor.residue, factor.parameter(assignment))
    return v


def d_gamma(word, gamma, mode=SYMBOLIC, seed=None):
    """Row vector <gamma| g as a minus-side Fock vector.

    gamma is a left-black Maya diagram or its charged partition, as
    ``to_partition`` returns it; each factor's x_act works on raw keys.
    """
    return _act(word, FockVector.basis(word.n, MINUS, gamma), _assignment(word, mode, seed))


def d_tau(word, tau, mode=SYMBOLIC, seed=None):
    """Column vector g |tau> as a plus-side Fock vector.  The newest factor
    acts first and the oldest last, the order that agrees with theta."""
    if tau.kind != RIGHT_BLACK:
        raise ValueError("d_tau expects a right-black diagram")
    return _act(word, FockVector.basis(word.n, PLUS, tau), _assignment(word, mode, seed))


def oracle_eval(datum, gamma, mode=SYMBOLIC, seed=None):
    """Valuation of <gamma| g for the datum's generic group element."""
    return vec_val(d_gamma(generic_element(datum), gamma, mode, seed))


def oracle_theta(datum, tau, mode=SYMBOLIC, seed=None):
    """Valuation of g |tau> for the datum's generic group element."""
    return vec_val(d_tau(generic_element(datum), tau, mode, seed))


def compare(datum, diagrams, mode=SYMBOLIC, seed=None):
    """Cross-check recursive values against oracle valuations.

    ``diagrams`` are left-black diagrams as ``(parts, charge)`` pairs, the
    form ``canonical_diagrams`` lists a window in.  Returns a JSON-ready
    report with one row per diagram and an overall pass flag.  INF
    valuations are serialized as the string "inf".
    """
    word = generic_element(datum)
    results = []
    ok = True
    for parts, charge in diagrams:
        valuation = vec_val(d_gamma(word, ChargedPartition(parts, charge), mode, seed))
        recursive = datum.value_at(parts, charge)
        match = recursive == valuation
        ok = ok and match
        results.append(
            {
                "diagram": {"parts": list(parts), "charge": charge},
                "recursive": recursive,
                "oracle": "inf" if valuation == INF else valuation,
                "match": match,
            }
        )
    return {
        "word": list(datum.word),
        "mode": mode,
        "seed": seed,
        "results": results,
        "pass": ok,
    }


def report_to_json(report):
    return json.dumps(report, sort_keys=True, indent=2) + "\n"
