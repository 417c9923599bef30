"""Byte-for-byte comparison of CLI output with the stored golden set.

The files under ``tests/golden/`` are the stdout of the commands below.  A
change that alters any of them must say why and regenerate the file with
the same command, e.g.

    PYTHONPATH=src python -m mayacrystal.cli verify --rank 3 --depth 5 \\
        > tests/golden/verify-n3-d5.txt

Each case is checked in process, through ``main``, and as a whole process,
which also runs the CLI's exit path.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import mayacrystal
from mayacrystal.cli import EXIT_OK, main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "verify-n2-d6.txt": ("verify", "--rank", "2", "--depth", "6"),
    "verify-n3-d5.txt": ("verify", "--rank", "3", "--depth", "5"),
    "verify-n4-d4.txt": ("verify", "--rank", "4", "--depth", "4"),
    "explore-n2-d6.json": ("explore", "--rank", "2", "--depth", "6"),
    "explore-n2-d6.dot": ("explore", "--rank", "2", "--depth", "6", "--format", "dot"),
    "explore-n3-d4.json": ("explore", "--rank", "3", "--depth", "4"),
    "explore-n3-d4.dot": ("explore", "--rank", "3", "--depth", "4", "--format", "dot"),
    "oracle-n2-w010-b6.json": (
        "oracle-check", "--rank", "2", "--word", "0,1,0", "--max-boxes", "6",
    ),
    "oracle-n3-w0121-b5.json": (
        "oracle-check", "--rank", "3", "--word", "0,1,2,1", "--max-boxes", "5",
    ),
}


#: verify at the default window n*(depth+1) plus 2 boxes, which separates the
#: same elements, so it prints the same bytes; the bench's census runs both.
WIDER = {
    "verify-n2-d6.txt": "16",
    "verify-n3-d5.txt": "20",
    "verify-n4-d4.txt": "22",
}


def test_golden_set_is_complete():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(capsysbinary, name):
    code = main(list(CASES[name]))
    assert code == EXIT_OK
    assert capsysbinary.readouterr().out == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", sorted(WIDER))
def test_wider_window_matches_golden(capsysbinary, name):
    code = main([*CASES[name], "--max-boxes", WIDER[name]])
    assert code == EXIT_OK
    assert capsysbinary.readouterr().out == (GOLDEN / name).read_bytes()


def run_process(cwd, *argv):
    """The stdout bytes of ``python -m mayacrystal.cli argv``, importing the
    same ``mayacrystal`` as this test (the installed one, when it is)."""
    package_root = Path(mayacrystal.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(package_root))
    done = subprocess.run([sys.executable, "-m", "mayacrystal.cli", *argv], cwd=cwd, env=env,
                          capture_output=True, timeout=60)
    assert done.returncode == EXIT_OK, done.stderr
    return done.stdout


@pytest.mark.parametrize("name", sorted(CASES))
def test_process_output_matches_golden(tmp_path, name):
    assert run_process(tmp_path, *CASES[name]) == (GOLDEN / name).read_bytes()


def test_process_output_file_matches_golden(tmp_path):
    name = "explore-n2-d6.json"
    assert run_process(tmp_path, *CASES[name], "--output", "out.json") == b""
    assert (tmp_path / "out.json").read_bytes() == (GOLDEN / name).read_bytes()
