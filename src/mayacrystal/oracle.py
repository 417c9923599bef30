"""Generic-point oracle: valuations of Fock-space matrix coefficients.

A crystal element with word (i_1, ..., i_m) determines a group element

    g = x_{i_m}(p_m) * ... * x_{i_1}(p_1),    p_j = a_j * t^(phi_j - 1),

where phi_j is the phi statistic of residue i_j on the length j-1 prefix
and the a_j are generic scalars; ``generic_element`` gives g as its factors'
(i_j, phi_j - 1) pairs, oldest first.  The element's value at a left-black
diagram gamma is then the t-valuation of the row vector <gamma| g, and its
theta value at a right-black diagram tau is the valuation of the column
vector g |tau>.

The computation runs at a_j = 1, over the integers, and is exact by
positivity: ``x_act`` only multiplies by p^|S|, whose coefficient is 1, and
adds, so over indeterminates a_j every coefficient lies in N[a][t, t^-1].
Such a polynomial, and each of its t-coefficients, is nonzero exactly when
its value at a = 1 is, so the valuations are those at a = 1.

The rows are packed the same way, in a second variable z: ``minus_rows``
keeps, for each t-exponent e, the single int X_e = <gamma| g |Xi> with
Xi = sum over q of z^d(q) |q> at z = 2^w, over the diagrams q of gamma's
charge, for d(q) the place of q's partition in the window's block.  At
a = 1 every t-coefficient of <gamma| g |q> is a path count, so it lies in
N, and X_e, like a polynomial in N[z] at z = 1, is nonzero exactly when
some q has a t^e term: the valuation of the row is the least e with X_e
nonzero.
The packing is also invertible: each count is at most the row's total at
t = 1, which is below 2^w, so the base-2^w digits of X_e are the counts
and no two diagrams' counts collide.

``compare``, behind ``oracle-check``, sets the value table
(``CrystalDatum.table``; see ``CrystalDatum.fingerprint`` for what it shares
with ``verify``'s) against ``vec_val`` of the packed rows that
``fock.minus_rows`` fills in place over the same window, one pass per
letter and box row.  The t-exponents are the datum's own coefficients, and
by positivity val(<gamma| g_j) is the min over S of |S| e_j +
val(<gamma minus S| g_{j-1}): the min-recursion again.
So this cross-checks the recursion's implementation, not the theorem that
the crystal is B(infinity); ``verify``'s axioms and census bear on that.

``d_gamma`` computes one row on its own, one ``x_act`` per letter, as a
``FockVector``, and is the tests' reference for ``minus_rows``, whose
rows the tests unpack.  The plus side's columns, which share no prefix,
the valuations of single rows and columns, and the unpacking live with the
tests (``tests/reference.py``).
"""

from __future__ import annotations

from .datum import canonical_diagrams
from .fock import MINUS, FockVector, minus_rows, vec_val, x_act
from .laurent import INF, LaurentPoly


def generic_element(datum):
    """The generic group element attached to a datum's word: its factors
    x_i(p), p = t^exponent at a = 1, as the (residue, exponent) pairs that
    ``minus_rows`` takes, oldest (first letter) first.  The j-th factor's
    t-exponent phi_j - 1 is the recursion's own coefficient ``coeff`` of
    the length-j prefix, theta(L_i) - theta(sL_i) - 1 of its parent for
    letter j = i: the datum's ``factors``, which ``CrystalDatum.table``
    fills along too.  Theta there is ``maya.filling_min``'s row DP, for an
    explored datum as for the one that ``oracle-check`` builds with
    ``datum_from_word``."""
    return datum.factors()


def _act(factors, v):
    """The factors, at a = 1, applied to the vector v, newest first."""
    for residue, exponent in reversed(factors):
        v = x_act(v, residue, LaurentPoly.term(1, exponent))
    return v


def d_gamma(n, factors, key):
    """Row vector <gamma| g as a minus-side Fock vector, for the
    ``(parts, charge)`` key of gamma."""
    return _act(factors, FockVector.basis(n, MINUS, key))


def compare(datum, max_boxes):
    """Cross-check the datum's value table against the Fock rows.

    The window is the block ``canonical_diagrams(max_boxes)`` at each
    charge in turn; a report row's recursive value is the entry of
    ``datum.table(max_boxes)`` and its oracle value is ``vec_val`` of the
    packed row <gamma| g that ``minus_rows`` fills, both in that order.  A
    pass shows that two implementations of the min-recursion agree (see
    the module docstring).  Returns a JSON-ready report with one row per
    window diagram, in window order, and an overall pass flag, which an
    empty window (``max_boxes < 0``) never sets.  INF valuations are
    serialized as the string "inf".
    """
    n = datum.cartan.n
    block = canonical_diagrams(max_boxes)
    rows, _ = minus_rows(n, generic_element(datum), block)
    keys = [(parts, charge) for charge in range(n) for parts in block]
    results = []
    ok = True
    for (parts, charge), recursive, row in zip(keys, datum.table(max_boxes), rows):
        valuation = vec_val(row)
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
    return {"word": list(datum.word), "results": results, "pass": ok and bool(results)}


_ROW = """    {
      "diagram": {
        "charge": %d,
        "parts": %s
      },
      "match": %s,
      "oracle": %s,
      "recursive": %d
    }"""


def report_to_json(report):
    """``json.dumps(report, sort_keys=True, indent=2) + "\n"``, written out
    for the report's fixed schema: ``indent`` makes ``json`` run its
    pure-Python encoder, which took about a quarter of ``compare``'s time.
    A window repeats each partition at every charge, so each partition's
    parts are written once."""
    texts = {}

    def parts_text(parts):
        key = tuple(parts)
        text = texts.get(key)
        if text is None:
            text = texts[key] = _int_list(parts, 8)
        return text

    rows = ",\n".join(
        _ROW % (
            row["diagram"]["charge"],
            parts_text(row["diagram"]["parts"]),
            _bool(row["match"]),
            '"inf"' if row["oracle"] == "inf" else row["oracle"],
            row["recursive"],
        )
        for row in report["results"]
    )
    return '{\n  "pass": %s,\n  "results": %s,\n  "word": %s\n}\n' % (
        _bool(report["pass"]),
        "[\n%s\n  ]" % rows if rows else "[]",
        _int_list(report["word"], 2),
    )


def _bool(flag):
    return "true" if flag else "false"


def _int_list(values, indent):
    """A list of ints as the indented encoder writes it ``indent`` spaces in."""
    if not values:
        return "[]"
    pad = "\n" + " " * (indent + 2)
    return "[%s%s\n%s]" % (pad, ("," + pad).join(map(str, values)), " " * indent)
