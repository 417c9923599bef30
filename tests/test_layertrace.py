"""The per-layer tracer in bench/layertrace.py wraps functions by name.

A traced name that no longer exists makes every traced benchmark run fail
with a KeyError, so each one is resolved here the way ``Tracer.install``
resolves it.
"""

import importlib
import os
import subprocess
import sys

from reference import LAYERTRACE, load_layertrace


def test_every_traced_name_resolves():
    missing = []
    for layer, names in load_layertrace().TRACED.items():
        for name in names:
            owner = importlib.import_module("mayacrystal." + layer)
            cls, _, attr = name.rpartition(".")
            if cls:
                owner = getattr(owner, cls)
            if attr not in vars(owner):
                missing.append("%s.%s" % (layer, name))
    assert missing == []


def test_tracer_installs_on_every_reference(tmp_path):
    # install wraps each traced function wherever the package imported it
    # and raises on a reference it left unwrapped; the bench self-test that
    # would show this is not part of the tier-1 suite
    root = LAYERTRACE.parent.parent
    script = (
        "from layertrace import Tracer\n"
        "Tracer().install()\n"
        "from mayacrystal import cli, maya\n"
        "assert cli.to_partition is maya.to_partition\n"
        "assert hasattr(cli.to_partition, '__wrapped__')\n"
        "print('installed')\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), str(root / "bench")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert "unwrapped references" not in proc.stderr
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "installed\n"
