"""Generic-point oracle: valuations of Fock-space matrix coefficients.

A crystal element with word (i_1, ..., i_m) determines a group element

    g = x_{i_m}(p_m) * ... * x_{i_1}(p_1),    p_j = a_j * t^(phi_j - 1),

where phi_j is the phi statistic of residue i_j on the length j-1 prefix
and the a_j are generic scalars.  The element's value at a left-black
diagram gamma is then the t-valuation of the row vector <gamma| g, and its
theta value at a right-black diagram tau is the valuation of the column
vector g |tau>.  Both are computed exactly and compared against the
recursive evaluation as an independent cross-check.

The computation runs at a_j = 1, over the integers, and is exact by
positivity: ``x_act`` only multiplies by p^|S|, whose coefficient is 1, and
adds, so over indeterminates a_j every coefficient lies in N[a][t, t^-1].
Such a polynomial, and each of its t-coefficients, is nonzero exactly when
its value at a = 1 is, so the valuations are those at a = 1.

``compare`` reads its oracle column from ``fock.minus_rows``, which fills
the rows of every diagram it needs in one pass per letter, each prefix's
rows from the previous prefix's.  ``d_gamma`` computes one row on its own,
one ``x_act`` per letter, and is the tests' reference for those rows;
``d_tau`` does the same on the plus side, whose column vectors share no
prefix.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .fock import MINUS, PLUS, FockVector, minus_rows, vec_val, x_act
from .laurent import INF, LaurentPoly
from .maya import RIGHT_BLACK, ChargedPartition


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
    """The generic group element attached to a datum's word.  Factor j's
    t-exponent phi_j - 1 is the recursion's own coefficient ``coeff`` of
    the length-j prefix, its parent's c_coeff at letter j."""
    factors = []
    node = datum
    while node.parent is not None:
        factors.append(Factor(node.letter, "a%d" % len(node.word), node.coeff))
        node = node.parent
    return GroupWord(datum.cartan.n, tuple(reversed(factors)))


def _act(word, v, assignment):
    """The word's factors, scalars from ``assignment``, applied to the
    basis vector v, newest first."""
    for factor in reversed(word.factors):
        v = x_act(v, factor.residue, factor.parameter(assignment))
    return v


def d_gamma(word, gamma):
    """Row vector <gamma| g as a minus-side Fock vector.

    gamma is a left-black Maya diagram or its charged partition, as
    ``to_partition`` returns it; each factor's x_act works on raw keys.
    """
    return _act(word, FockVector.basis(word.n, MINUS, gamma), dict.fromkeys(word.names, 1))


def d_tau(word, tau):
    """Column vector g |tau> as a plus-side Fock vector.  The newest factor
    acts first and the oldest last, the order that agrees with theta."""
    if tau.kind != RIGHT_BLACK:
        raise ValueError("d_tau expects a right-black diagram")
    return _act(word, FockVector.basis(word.n, PLUS, tau), dict.fromkeys(word.names, 1))


def oracle_eval(datum, gamma):
    """Valuation of <gamma| g for the datum's generic group element."""
    return vec_val(d_gamma(generic_element(datum), gamma))


def oracle_theta(datum, tau):
    """Valuation of g |tau> for the datum's generic group element."""
    return vec_val(d_tau(generic_element(datum), tau))


def compare(datum, diagrams):
    """Cross-check recursive values against oracle valuations.

    ``diagrams`` are left-black diagrams as ``(parts, charge)`` pairs, the
    form ``canonical_diagrams`` lists a window in, but any list will do.
    The Fock rows <gamma| g are filled together over the removal closure
    of ``diagrams`` (``fock.minus_rows``); a window is its own closure.
    Each report row's oracle value is ``vec_val`` of its Fock row and its
    recursive value is ``value_at``.  Returns a JSON-ready report with one
    row per given diagram, in the given order, and an overall pass flag.
    INF valuations are serialized as the string "inf".
    """
    word = generic_element(datum)
    # ChargedPartition checks each diagram and makes its parts a tuple
    diagrams = [(p.parts, p.charge) for p in (ChargedPartition(*d) for d in diagrams)]
    rows = minus_rows(word.n, [(f.residue, f.exponent) for f in word.factors], diagrams)
    results = []
    ok = True
    for parts, charge in diagrams:
        valuation = vec_val(rows[parts, charge])
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
    return {"word": list(datum.word), "results": results, "pass": ok}


def report_to_json(report):
    return json.dumps(report, sort_keys=True, indent=2) + "\n"
