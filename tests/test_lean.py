"""``src/`` keeps only what a command runs or the bench tracer names.

Every command form runs in this process under a profile hook.  Each
module-level function of ``mayacrystal`` must then have been called, or be
named in ``bench/layertrace.py``'s ``TRACED`` (loaded by
``reference.load_layertrace``), or be one of the helpers of traced names in
``HELPERS``.  Code that only the tests use belongs in ``tests/reference.py``.
Functions are matched by file and ``co_name``, which Python 3.10 has.
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
    ("laurent", "_accumulate"),  # x_act and the polynomial sums and products
    ("laurent", "_merge_monomials"),  # MultiPoly.__mul__
    ("maya", "term_key"),  # CrystalDatum.theta
    ("oracle", "_act"),  # d_gamma
}


def command_forms(tmp_path):
    """explore as JSON and DOT, verify both ways, eval on both diagram-file
    forms, oracle-check and kostant."""
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
    ]


def module_functions():
    """(file, co_name) -> (module, name) for every module-level function,
    an ``lru_cache``'s emptied so that its function runs again."""
    functions = {}
    for info in pkgutil.iter_modules(mayacrystal.__path__):
        module = importlib.import_module("mayacrystal." + info.name)
        for name, value in vars(module).items():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
            function = inspect.unwrap(value) if callable(value) else value
            if inspect.isfunction(function) and function.__module__ == module.__name__:
                code = function.__code__
                functions[code.co_filename, code.co_name] = (info.name, name)
    return functions


def traced_names():
    traced = load_layertrace().TRACED
    return {(layer, name) for layer, names in traced.items() for name in names}


def test_every_function_is_run_or_traced(tmp_path, capsys):
    functions = module_functions()
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add((frame.f_code.co_filename, frame.f_code.co_name))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        codes = [main(argv) for argv in command_forms(tmp_path)]
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    assert codes == [EXIT_OK] * len(codes)
    assert HELPERS <= set(functions.values())
    allowed = traced_names() | HELPERS
    idle = sorted(
        "%s.%s" % key for where, key in functions.items()
        if where not in called and key not in allowed
    )
    assert idle == []
