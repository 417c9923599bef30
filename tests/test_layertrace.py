"""The per-layer tracer in bench/layertrace.py wraps functions by name.

A traced name that no longer exists makes every traced benchmark run fail
with a KeyError, so each one is resolved here the way ``Tracer.install``
resolves it.
"""

import importlib
import importlib.util
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parent.parent / "bench" / "layertrace.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    missing = []
    for layer, names in layertrace.TRACED.items():
        for name in names:
            owner = importlib.import_module("mayacrystal." + layer)
            cls, _, attr = name.rpartition(".")
            if cls:
                owner = getattr(owner, cls)
            if attr not in vars(owner):
                missing.append("%s.%s" % (layer, name))
    assert missing == []
