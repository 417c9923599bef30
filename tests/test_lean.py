"""``src/`` keeps only what a command runs or the bench tracer names.

Every command form runs in this process under a profile hook.  Each
module-level function and each method of ``mayacrystal`` must then have
been called, or be named in ``bench/layertrace.py``'s ``TRACED`` (loaded by
``reference.load_layertrace``), or be a helper of traced names in
``HELPERS``, or a method that the tests' reference needs in
``REFERENCE_METHODS``.  Code that only the tests use belongs in
``tests/reference.py``.  Definitions are matched by file and first line
number: Python 3.10 has no ``co_qualname`` to tell methods apart by name.
"""

import importlib
import inspect
import json
import pkgutil
import sys

import mayacrystal
from mayacrystal.cli import EXIT_OK, main
from reference import load_layertrace

#: Module-level functions that only traced names call.
HELPERS = {
    ("fock", "_keyed"),  # x_act
    ("laurent", "_accumulate"),  # x_act and the polynomial sums and products
    ("laurent", "_merge_monomials"),  # MultiPoly.__mul__
    ("maya", "removal_options"),  # x_act
    ("maya", "addition_options"),  # x_act
    ("maya", "addable_rows"),  # addition_options
    ("maya", "term_key"),  # CrystalDatum.theta
    ("oracle", "_act"),  # d_gamma
}

#: Methods that no command runs and no traced name is, which the tests and
#: their reference need: what moves to ``tests/reference.py`` with them.
REFERENCE_METHODS = {
    # "an explored graph equals its reloaded export", and record reprs
    ("maya", "_Record._fields"), ("maya", "_Record.__eq__"), ("maya", "_Record.__repr__"),
    # the frozen records' hashing and immutability
    ("maya", "_Frozen.__hash__"), ("maya", "_Frozen.__setattr__"),
    ("maya", "_Frozen.__delattr__"),
    # invert_outside's interval; removable_boxes' and addable_boxes' boxes
    ("maya", "Interval.__init__"), ("maya", "Interval.__contains__"), ("maya", "BoxRef.__init__"),
    # from_partition and to_json build and read colors; the tests read charges
    ("maya", "MayaDiagram.from_colors"), ("maya", "MayaDiagram.color"),
    ("maya", "MayaDiagram.charge"),
    # the Fock vectors of d_gamma and of the tests' plus side and operators
    ("fock", "FockVector.__init__"), ("fock", "FockVector.basis"), ("fock", "FockVector.__bool__"),
    ("fock", "FockVector.__eq__"),
    # x_act's coefficients in the tests: Laurent polynomials over the
    # integers and over MultiPoly, the generic-point reference ring
    ("laurent", "LaurentPoly.__init__"), ("laurent", "LaurentPoly.zero"),
    ("laurent", "LaurentPoly.term"), ("laurent", "LaurentPoly.one"),
    ("laurent", "LaurentPoly.__bool__"), ("laurent", "LaurentPoly.__eq__"),
    ("laurent", "LaurentPoly.__neg__"), ("laurent", "LaurentPoly.__sub__"),
    ("laurent", "MultiPoly.__init__"), ("laurent", "MultiPoly.const"),
    ("laurent", "MultiPoly.variable"), ("laurent", "MultiPoly._coerce"),
    ("laurent", "MultiPoly.__bool__"), ("laurent", "MultiPoly.__eq__"),
    ("laurent", "MultiPoly.__add__"), ("laurent", "MultiPoly.__neg__"),
    ("laurent", "MultiPoly.__sub__"),
    # pytest prints these when an equality assertion on such values fails
    ("maya", "MayaDiagram.__repr__"), ("fock", "FockVector.__repr__"),
    ("laurent", "LaurentPoly.__repr__"), ("laurent", "MultiPoly.__repr__"),
}


def command_forms(tmp_path):
    """explore as JSON and DOT, verify both ways, eval on both diagram-file
    forms, oracle-check and kostant, once in a form that only argparse
    parses."""
    graph = tmp_path / "graph.json"
    parts = tmp_path / "parts.json"
    parts.write_text(json.dumps({"parts": [2, 1], "charge": 0}))
    deviations = tmp_path / "deviations.json"
    deviations.write_text(json.dumps(
        {"kind": "left-black", "deviations": [[0, "black"], [1, "white"]]}))
    return [
        ["explore", "--rank", "2", "--depth", "3", "--output", str(graph)],
        ["explore", "--rank", "2", "--depth", "3", "--format", "dot"],
        ["verify", "--rank", "2", "--depth", "3"],
        ["verify", "--rank", "2", "--graph-file", str(graph)],
        ["eval", "--rank", "2", "--word", "0,1", "--diagram-file", str(parts)],
        ["eval", "--rank", "2", "--word", "0,1", "--diagram-file", str(deviations)],
        ["oracle-check", "--rank", "2", "--word", "0,1,0", "--max-boxes", "3"],
        ["kostant", "--rank", "3", "--beta", "1,1,1"],
        ["kostant", "--rank=3", "--beta", "1,1,1"],
    ]


def definitions():
    """(file, first line) -> (module, name) for every function of
    ``mayacrystal``: each module-level one by its name, and each method of a
    class defined there as ``Class.method``, a property by its getter and a
    class method by its function; an alias such as ``__radd__ = __add__``
    keeps its first name.  An ``lru_cache``'s is emptied so that its
    function runs again."""
    found = {}
    for info in pkgutil.iter_modules(mayacrystal.__path__):
        module = importlib.import_module("mayacrystal." + info.name)
        for name, value in vars(module).items():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
            members = [(name, value)]
            if inspect.isclass(value) and value.__module__ == module.__name__:
                members = [("%s.%s" % (name, attr), member) for attr, member in vars(value).items()]
            for qualified, member in members:
                member = getattr(member, "fget", None) or getattr(member, "__func__", member)
                function = inspect.unwrap(member) if callable(member) else member
                if inspect.isfunction(function) and function.__module__ == module.__name__:
                    code = function.__code__
                    found.setdefault((code.co_filename, code.co_firstlineno),
                                     (info.name, qualified))
    return found


def traced_names():
    traced = load_layertrace().TRACED
    return {(layer, name) for layer, names in traced.items() for name in names}


def test_every_function_is_run_or_traced(tmp_path, capsys):
    found = definitions()
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        codes = [main(argv) for argv in command_forms(tmp_path)]
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    assert codes == [EXIT_OK] * len(codes)
    assert HELPERS | REFERENCE_METHODS <= set(found.values())
    allowed = traced_names() | HELPERS | REFERENCE_METHODS
    idle = sorted(
        "%s.%s" % key for where, key in found.items()
        if where not in called and key not in allowed
    )
    assert idle == []
