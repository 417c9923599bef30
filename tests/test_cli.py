import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mayacrystal import cli, datum, fock, maya, oracle
from mayacrystal import graph as graphmod
from mayacrystal.cli import EXIT_FAIL, EXIT_OK, EXIT_USAGE, main
from mayacrystal.laurent import MultiPoly
from reference import charged, unpack_row

GOLDEN = Path(__file__).parent / "golden"
#: 1,500 letters: deeper than the interpreter's default recursion limit
LONG_WORD = ",".join(["0"] * 1500)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def identity_fill(block, pairs, coeff):
    """A wrong ``datum._fill``: every child keeps its parent's values."""
    return block


def unchained_fill(block, pairs, coeff):
    """A wrong ``datum._fill``: each entry reads only the parent's values,
    so no single removal chains onto another."""
    parent = list(block)
    for k, j in pairs:
        block[k] = min(block[k], parent[j] + coeff)
    return block


def run_python(script):
    """``script``'s stdout, run by a fresh interpreter importing ``src/``."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, "-c", script], env=env, check=True,
                          capture_output=True, text=True, timeout=30).stdout


#: what no command path of the CLI may load at import
HEAVY = {"dataclasses", "inspect", "ast", "dis", "tokenize", "fractions", "decimal",
         "argparse", "gettext", "json"}


class TestStartup:
    def test_import_loads_no_dataclasses_or_fractions(self):
        # every command pays for what importing the CLI loads; dataclasses
        # pulls in inspect, ast, dis and tokenize, fractions pulls in decimal,
        # and argparse pulls in gettext, which only help and usage errors need
        script = "import sys\n%s\nprint('\\n'.join(sys.modules))"
        plain, loaded = (
            set(run_python(script % head).split()) for head in ("", "import mayacrystal.cli")
        )
        added = loaded - plain
        assert "mayacrystal.cli" in added
        assert not added & HEAVY, sorted(added & HEAVY)

    def test_well_formed_commands_load_no_argparse(self):
        # a canonical argv is parsed from the flag table; only a usage error
        # builds the argparse parser
        script = (
            "import os, sys\n"
            "before = set(sys.modules)\n"
            "from mayacrystal.cli import main\n"
            "main(['oracle-check', '--rank', '2', '--word', '0,1', '--max-boxes', '3',\n"
            "      '--output', os.devnull])\n"
            "main(['verify', '--rank', '2', '--depth', '2'])\n"
            "print(sorted((set(sys.modules) - before) & %r))\n"
            "try:\n"
            "    main(['oracle-check', '--rank', '2', '--max-boxes', '-1'])\n"
            "except SystemExit as exc:\n"
            "    print(exc.code, 'argparse' in sys.modules)\n"
        ) % HEAVY
        assert run_python(script).splitlines()[-2:] == ["[]", "2 True"]

    def test_heap_is_frozen_at_exit(self):
        # exit handlers run last in, first out, so the CLI's freeze runs
        # before this one; every object alive before the import must then be
        # frozen (some interpreters freeze a few hundred objects of their own)
        script = (
            "import atexit, gc\n"
            "floor = len(gc.get_objects())\n"
            "atexit.register(lambda: print(gc.get_freeze_count() >= floor))\n"
            "import mayacrystal.cli\n"
        )
        assert run_python(script) == "True\n"


class TestExplore:
    def test_depth_one_json(self, capsys):
        code, out, _ = run(capsys, "explore", "--rank", "2", "--depth", "1")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert len(payload["nodes"]) == 3

    def test_dot_output(self, capsys):
        code, out, _ = run(
            capsys, "explore", "--rank", "2", "--depth", "2", "--format", "dot"
        )
        assert code == EXIT_OK
        assert out.startswith("digraph")

    def test_deterministic(self, capsys):
        _, a, _ = run(capsys, "explore", "--rank", "2", "--depth", "2")
        _, b, _ = run(capsys, "explore", "--rank", "2", "--depth", "2")
        assert a == b

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "graph.json"
        code, out, _ = run(
            capsys, "explore", "--rank", "2", "--depth", "1", "--output", str(target)
        )
        assert code == EXIT_OK
        assert out == ""
        assert json.loads(target.read_text())["n"] == 2

    def test_rank_one_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["explore", "--rank", "1", "--depth", "1"])
        assert exc.value.code == EXIT_USAGE
        assert "rank" in capsys.readouterr().err


class TestEval:
    def write_diagram(self, tmp_path, data):
        path = tmp_path / "diagram.json"
        path.write_text(json.dumps(data))
        return str(path)

    def test_empty_word(self, capsys, tmp_path):
        path = self.write_diagram(tmp_path, {"parts": [2, 1], "charge": 0})
        code, out, _ = run(capsys, "eval", "--rank", "2", "--diagram-file", path)
        assert code == EXIT_OK
        assert out.strip() == "0"

    def test_one_box_residue_zero(self, capsys, tmp_path):
        path = self.write_diagram(tmp_path, {"parts": [1], "charge": 1})
        code, out, _ = run(
            capsys, "eval", "--rank", "2", "--word", "0", "--diagram-file", path
        )
        assert code == EXIT_OK
        assert out.strip() == "-1"

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(
            capsys, "eval", "--rank", "2", "--word", "0", "--diagram-file", str(path)
        )
        assert code == EXIT_USAGE
        assert err
        # the message names the file, as the nested-too-deeply one does
        assert err.startswith("error: %s: " % path)

    @pytest.mark.parametrize("data", [
        [1, 2],
        {"kind": "left-black", "deviations": 5},
        {"kind": "left-black", "deviations": [[0.5, "black"]]},
        {"parts": 5},
        {"parts": [2, 1], "charge": "1"},
        None,
        {"kind": "left-black", "deviations": [[1, "black"], [1, "white"]]},
        {"kind": "left-black", "deviations": [[1, "black"]]},
        {"kind": "left-black", "deviations": [[1, "white"], [1, "white"]]},
        {"kind": "right-black", "deviations": []},
    ])
    def test_wrong_shape(self, capsys, tmp_path, data):
        # well-formed JSON of the wrong shape, with contradictory
        # deviations, or right-black, is bad input, not a failed check
        path = self.write_diagram(tmp_path, data)
        code, out, err = run(
            capsys, "eval", "--rank", "2", "--word", "0", "--diagram-file", path
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "error" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "eval", "--rank", "2", "--word", "0",
            "--diagram-file", str(tmp_path / "nope.json"),
        )
        assert code == EXIT_USAGE

    def test_letter_out_of_range(self, capsys, tmp_path):
        # a letter outside 0..n-1 is bad input, not reduced mod n
        path = self.write_diagram(tmp_path, {"parts": [1], "charge": 1})
        code, out, err = run(
            capsys, "eval", "--rank", "2", "--word", "0,-1", "--diagram-file", path
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "0..1" in err

    def test_word_longer_than_the_recursion_limit(self, capsys, tmp_path):
        # value_at fills its closure along the word in a loop, so no word is
        # too long: each 0 lowers the value at (2, 1) by its two corners
        path = self.write_diagram(tmp_path, {"parts": [2, 1], "charge": 0})
        code, out, err = run(
            capsys, "eval", "--rank", "2", "--word", LONG_WORD, "--diagram-file", path
        )
        assert code == EXIT_OK
        assert out == "-3000\n"
        assert err == ""

    def test_parts_form_builds_no_maya_diagram(self, capsys, tmp_path, monkeypatch):
        # the parts form goes to value_at as a (parts, charge) key, so a
        # charge of 10^8 + 1 costs what charge 1 costs: values are n-periodic
        path = self.write_diagram(tmp_path, {"parts": [2, 1], "charge": 1})
        _, expected, _ = run(
            capsys, "eval", "--rank", "2", "--word", "0,1", "--diagram-file", path
        )

        def refuse(*args):
            raise AssertionError("eval built a MayaDiagram")

        monkeypatch.setattr(maya.MayaDiagram, "__init__", refuse)
        # from_partition lays out one slot per unit of charge before it
        # builds the diagram, 10^8 here; swapping its code, which every
        # by-name import shares, makes a regression fail before that
        monkeypatch.setattr(maya.from_partition, "__code__", refuse.__code__)
        path = self.write_diagram(tmp_path, {"parts": [2, 1], "charge": 100000001})
        code, out, err = run(
            capsys, "eval", "--rank", "2", "--word", "0,1", "--diagram-file", path
        )
        assert (code, err) == (EXIT_OK, "")
        assert out == expected == "0\n"

    @pytest.mark.parametrize("data", [{"deviations": []}, {}])
    def test_missing_kind_is_named(self, capsys, tmp_path, data):
        path = self.write_diagram(tmp_path, data)
        code, out, err = run(
            capsys, "eval", "--rank", "2", "--word", "0", "--diagram-file", path
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert '"kind"' in err and err.startswith("error: ")


class TestVerify:
    def test_pass_rank2(self, capsys):
        code, out, _ = run(capsys, "verify", "--rank", "2", "--depth", "4")
        assert code == EXIT_OK
        assert "PASS" in out

    def test_pass_rank3(self, capsys):
        code, out, _ = run(capsys, "verify", "--rank", "3", "--depth", "3")
        assert code == EXIT_OK
        assert "PASS" in out

    @pytest.mark.parametrize(
        "n, depth, max_boxes, failing",
        [
            (2, 8, 8, [
                "  (4, 4): 30 32 MISMATCH",
                "violation: axiom iv: node 169 has multiple f_1-predecessors [101, 111]",
                "violation: axiom iv: node 227 has multiple f_0-predecessors [138, 148]",
                "verify: FAIL (3 problems)",
            ]),
            (3, 7, 5, [
                "  (1, 3, 3): 21 22 MISMATCH",
                "  (3, 1, 3): 21 22 MISMATCH",
                "  (3, 3, 1): 21 22 MISMATCH",
                "violation: axiom iv: node 452 has multiple f_0-predecessors [224, 258]",
                "violation: axiom iv: node 452 has multiple f_1-predecessors [219, 274]",
                "violation: axiom iv: node 492 has multiple f_0-predecessors [239, 326]",
                "violation: axiom iv: node 492 has multiple f_2-predecessors [241, 334]",
                "violation: axiom iv: node 617 has multiple f_1-predecessors [306, 360]",
                "violation: axiom iv: node 617 has multiple f_2-predecessors [310, 362]",
                "verify: FAIL (9 problems)",
            ]),
            # the largest measured n = 3 minimum: 8 boxes at depth 8
            (3, 8, 7, [
                "  (2, 3, 3): 71 72 MISMATCH",
                "  (3, 2, 3): 71 72 MISMATCH",
                "  (3, 3, 2): 71 72 MISMATCH",
                "violation: axiom iv: node 916 has multiple f_1-predecessors [465, 488]",
                "violation: axiom iv: node 916 has multiple f_2-predecessors [469, 490]",
                "violation: axiom iv: node 1100 has multiple f_0-predecessors [564, 610]",
                "violation: axiom iv: node 1100 has multiple f_2-predecessors [566, 615]",
                "violation: axiom iv: node 1289 has multiple f_0-predecessors [673, 708]",
                "violation: axiom iv: node 1289 has multiple f_1-predecessors [668, 723]",
                "verify: FAIL (9 problems)",
            ]),
        ],
    )
    def test_too_small_window_fails(self, capsys, n, depth, max_boxes, failing):
        # A window too small to separate elements merges some of them: the
        # census comes up short and the merged node has two f_i-predecessors.
        # One box more separates them all.
        argv = ["verify", "--rank", str(n), "--depth", str(depth)]
        code, out, _ = run(capsys, *argv, "--max-boxes", str(max_boxes))
        assert code == EXIT_FAIL
        lines = out.splitlines()
        assert [line for line in lines[1:] if not line.endswith(" ok")] == failing
        code, out, _ = run(capsys, *argv, "--max-boxes", str(max_boxes + 1))
        assert code == EXIT_OK
        nodes = {(2, 8): 257, (3, 7): 754, (3, 8): 1447}[n, depth]
        assert out.endswith("verify: PASS (%d nodes)\n" % nodes)

    def test_wrong_coefficient_fails(self, capsys, monkeypatch):
        # a negative control: c_coeff off by one on datums of two letters
        # or more gives wrong children, whose statistics verify catches;
        # the statistics read phi from the fundamental thetas, not through
        # c_coeff, so the mutation reaches them only through the children.
        # The wrong children merge into 19 nodes, fewer than the 21 lattice
        # points of height <= 5, so one line replaces the census table's
        # mismatches
        argv = ("verify", "--rank", "2", "--depth", "5")
        assert run(capsys, *argv)[0] == EXIT_OK
        c_coeff = datum.CrystalDatum.c_coeff

        def off_by_one(self, i):
            return c_coeff(self, i) + (len(self.word) >= 2)

        monkeypatch.setattr(datum.CrystalDatum, "c_coeff", off_by_one)
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_FAIL
        assert out.endswith("verify: FAIL (73 problems)\n")

    def test_corrupted_graph_file(self, capsys, tmp_path):
        path = tmp_path / "graph.json"
        path.write_text('{"nodes": "oops"')
        code, _, err = run(
            capsys, "verify", "--rank", "2", "--graph-file", str(path)
        )
        assert code == EXIT_USAGE
        assert err.startswith("error: %s: " % path)

    @pytest.mark.parametrize("n, points", [(2, 91), (12, 2704156)])
    def test_too_few_nodes_for_the_census(self, capsys, tmp_path, n, points):
        # every root-lattice point of height <= depth has a Kostant count of
        # at least 1, so a file of fewer nodes than the C(depth + n, n)
        # points cannot pass: one line says so, and no census table is
        # built, which for this one-node depth-12 file at n = 12 would list
        # 2,704,156 points and took over a minute
        path = tmp_path / "graph.json"
        word = [k % n for k in range(12)]
        stats = datum.datum_from_word(datum.CartanData(n), word).statistics()
        node = dict(zip(("weight", "eps", "phi"), stats), id=0, word=word)
        path.write_text(json.dumps(
            {"n": n, "depth": 12, "max_boxes": 0, "nodes": [node], "edges": []}
        ))
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", "--rank", str(n), "--graph-file", str(path))
        assert time.perf_counter() - start < 1
        assert (code, err) == (EXIT_FAIL, "")
        lines = out.splitlines()
        census = "violation: census: 1 nodes cannot cover the %d root-lattice points of " \
            "height <= 12" % points
        assert census in lines and "weight census" not in out
        assert lines[-1] == "verify: FAIL (%d problems)" % (len(lines) - 1)

    def test_long_words_below_the_bound_are_not_read(self, capsys, tmp_path):
        # the node-count bound comes before the words' check, whose filling
        # DP grows with a word's length: a 2-node file with a 400-letter
        # word, whose stored statistics are not its word's, fails at once
        # on the bound alone, where the words' check took over a minute
        path = tmp_path / "graph.json"
        zero = {"weight": [0, 0], "eps": [0, 0], "phi": [0, 0]}
        nodes = [dict(zero, id=0, word=[]), dict(zero, id=1, word=[k % 2 for k in range(400)])]
        path.write_text(json.dumps(
            {"n": 2, "depth": 400, "max_boxes": 0, "nodes": nodes, "edges": []}
        ))
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", "--rank", "2", "--graph-file", str(path))
        assert time.perf_counter() - start < 1
        assert (code, err) == (EXIT_FAIL, "")
        lines = out.splitlines()
        assert "violation: census: 2 nodes cannot cover the 80601 root-lattice points of " \
            "height <= 400" in lines
        assert not any(line.startswith("violation: word:") for line in lines)
        assert lines[-1] == "verify: FAIL (%d problems)" % (len(lines) - 1)

    @pytest.mark.parametrize("edit", [
        lambda payload: [],
        lambda payload: dict(payload, n="2"),
        lambda payload: dict(payload, nodes=[5]),
        lambda payload: dict(payload, edges={}),
        lambda payload: dict(payload, nodes=[dict(payload["nodes"][0], weight=[0])]),
        lambda payload: dict(payload, nodes=[dict(payload["nodes"][0], word="01")]),
        lambda payload: dict(payload, edges=[dict(payload["edges"][0], i="0")]),
        lambda payload: dict(payload, edges=[dict(payload["edges"][0], to=99)]),
        lambda payload: dict(payload, edges=[dict(payload["edges"][0], **{"from": -1})]),
        lambda payload: dict(payload, edges=[dict(payload["edges"][0], i=7)]),
        lambda payload: dict(payload, nodes=payload["nodes"][:-1]
                             + [dict(payload["nodes"][-1], id=5)]),
        lambda payload: dict(payload, depth=0),
        lambda payload: dict(payload, depth=-1),
        lambda payload: dict(payload, depth=2),
        lambda payload: dict(payload, edges=payload["edges"] + payload["edges"][:1]),
        lambda payload: {key: v for key, v in payload.items() if key != "max_boxes"},
        lambda payload: dict(payload, max_boxes="oops"),
        lambda payload: dict(payload, max_boxes=-4),
        lambda payload: dict(payload, nodes=payload["nodes"][:-1]
                             + [dict(payload["nodes"][-1], word=[2])]),
    ], ids=["list", "string-rank", "node-int", "edges-object", "short-weight",
            "string-word", "string-residue", "edge-to-missing", "edge-from-missing",
            "residue-7", "node-id-5", "depth-0", "depth-negative", "depth-2", "duplicate-edge",
            "no-max-boxes", "string-max-boxes", "negative-max-boxes", "word-letter-2"])
    def test_wrong_shape_graph_file(self, capsys, tmp_path, edit):
        # a graph file of the wrong shape, or whose references or depth do
        # not hold together, is bad input, not a failed check
        _, out, _ = run(capsys, "explore", "--rank", "2", "--depth", "1")
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(edit(json.loads(out))))
        code, out, err = run(capsys, "verify", "--rank", "2", "--graph-file", str(path))
        assert code == EXIT_USAGE
        assert out == ""
        assert "error: graph file" in err

    def test_shifted_eps_graph_fails(self, capsys, tmp_path):
        # every eps and phi raised by 1 keeps the edge rules; the string
        # heads, which must have eps 0, catch it
        _, out, _ = run(capsys, "explore", "--rank", "3", "--depth", "3")
        payload = json.loads(out)
        for node in payload["nodes"]:
            node["eps"] = [e + 1 for e in node["eps"]]
            node["phi"] = [p + 1 for p in node["phi"]]
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(payload))
        code, out, _ = run(capsys, "verify", "--rank", "3", "--graph-file", str(path))
        assert code == EXIT_FAIL
        assert "violation: string head" in out
        assert "FAIL" in out

    def test_graph_file_refuses_depth_and_max_boxes(self, capsys, tmp_path):
        # the census runs to the file's own depth, so these flags would be
        # silently ignored
        _, out, _ = run(capsys, "explore", "--rank", "2", "--depth", "1")
        path = tmp_path / "g.json"
        path.write_text(out)
        for flags in (("--depth", "9", "--max-boxes", "3"), ("--depth", "0"),
                      ("--max-boxes", "3")):
            with pytest.raises(SystemExit) as exc:
                main(["verify", "--rank", "2", *flags, "--graph-file", str(path)])
            assert exc.value.code == EXIT_USAGE
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "--graph-file" in captured.err

    def test_graph_file_rank_mismatch_is_bad_input(self, capsys, tmp_path):
        _, out, _ = run(capsys, "explore", "--rank", "2", "--depth", "1")
        path = tmp_path / "g.json"
        path.write_text(out)
        code, out, err = run(capsys, "verify", "--rank", "3", "--graph-file", str(path))
        assert code == EXIT_USAGE
        assert out == ""
        assert "graph file has rank 2, expected 3" in err

    def test_graph_file_words_give_the_statistics(self, capsys, tmp_path):
        # the statistics are re-derived from each stored word: an export
        # passes, and the same file with every length-3 word replaced by
        # 1,1,1 (which keeps every stored weight, eps, phi and edge) fails
        _, out, _ = run(capsys, "explore", "--rank", "2", "--depth", "3")
        path = tmp_path / "graph.json"
        path.write_text(out)
        code, out, _ = run(capsys, "verify", "--rank", "2", "--graph-file", str(path))
        assert code == EXIT_OK
        assert "verify: PASS (15 nodes)" in out
        payload = json.loads(path.read_text())
        tampered = [node for node in payload["nodes"] if len(node["word"]) == 3]
        for node in tampered:
            node["word"] = [1, 1, 1]
        path.write_text(json.dumps(payload))
        code, out, _ = run(capsys, "verify", "--rank", "2", "--graph-file", str(path))
        assert code == EXIT_FAIL
        # one node really is f_1^3, so its row still matches
        assert out.count("violation: word: node") == len(tampered) - 1 > 0
        assert "FAIL" in out

    def test_forged_word_path_fails(self, capsys, tmp_path):
        # two nodes with equal weight, eps and phi: giving the second the
        # first's word keeps every statistic, but lists one element twice
        # and drops the other, and the word no longer leads to it
        _, out, _ = run(capsys, "explore", "--rank", "2", "--depth", "4")
        payload = json.loads(out)
        nodes = payload["nodes"]

        def stats(node):
            return node["weight"], node["eps"], node["phi"]

        a, b = next((a, b) for a in nodes for b in nodes
                    if a["id"] < b["id"] and stats(a) == stats(b))
        b["word"] = a["word"]
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(payload))
        code, out, _ = run(capsys, "verify", "--rank", "2", "--graph-file", str(path))
        assert code == EXIT_FAIL
        assert out.count("violation: ") == 1
        assert "violation: word: node %d: its word" % b["id"] in out

    def test_swapped_edge_targets_fail(self, capsys, tmp_path):
        # f_0 of the words 1,0,2 and 2,0,1 has equal weight but other eps
        # and phi; swapping the targets of their 0-edges keeps every axiom,
        # word path and census count, so only the edges' statistics show it
        _, out, _ = run(capsys, "explore", "--rank", "3", "--depth", "4")
        payload = json.loads(out)
        ids = {tuple(node["word"]): node["id"] for node in payload["nodes"]}
        a, b = ids[1, 0, 2], ids[2, 0, 1]
        edges = {(edge["from"], edge["i"]): edge for edge in payload["edges"]}
        to_a, to_b = edges[a, 0]["to"], edges[b, 0]["to"]
        edges[a, 0]["to"], edges[b, 0]["to"] = to_b, to_a
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(payload))
        code, out, _ = run(capsys, "verify", "--rank", "3", "--graph-file", str(path))
        assert code == EXIT_FAIL
        assert out.count("violation: ") == 2
        assert "violation: edge target: %d -0-> %d: " % (a, to_b) in out
        assert "violation: edge target: %d -0-> %d: " % (b, to_a) in out
        assert "verify: FAIL (2 problems)" in out

    def test_tampered_graph_fails(self, capsys, tmp_path):
        code, out, _ = run(capsys, "explore", "--rank", "2", "--depth", "2")
        payload = json.loads(out)
        payload["nodes"][1]["weight"] = [9, 9]
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(payload))
        code, out, _ = run(
            capsys, "verify", "--rank", "2", "--graph-file", str(path)
        )
        assert code == EXIT_FAIL
        assert "FAIL" in out


class TestOracleCheck:
    def test_empty_word_passes(self, capsys):
        code, out, _ = run(
            capsys, "oracle-check", "--rank", "2", "--word", "", "--max-boxes", "2"
        )
        assert code == EXIT_OK
        assert json.loads(out)["pass"] is True

    def test_single_letter(self, capsys):
        code, out, _ = run(
            capsys, "oracle-check", "--rank", "2", "--word", "0", "--max-boxes", "3"
        )
        assert code == EXIT_OK
        assert json.loads(out)["pass"] is True

    def test_letter_out_of_range(self, capsys):
        # 5 would reduce to 1 mod 2 and pass; it is bad input instead
        code, out, err = run(
            capsys, "oracle-check", "--rank", "2", "--word", "0,5", "--max-boxes", "1"
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "0..1" in err

    def test_compares_the_table(self, capsysbinary, monkeypatch):
        # the recursive column is the value table, whose values verify
        # dedups on, not value_at's per-diagram recursion
        def refuse(*args):
            raise AssertionError("oracle-check called value_at")

        monkeypatch.setattr(datum.CrystalDatum, "value_at", refuse)
        code = main(["oracle-check", "--rank", "2", "--word", "0,1,0", "--max-boxes", "6"])
        assert code == EXIT_OK
        assert capsysbinary.readouterr().out == (GOLDEN / "oracle-n2-w010-b6.json").read_bytes()

    @pytest.mark.parametrize("fill, mismatched", [(identity_fill, 40), (unchained_fill, 4)])
    def test_wrong_fill_fails(self, capsys, monkeypatch, fill, mismatched):
        # a negative control: a wrongly filled table must fail the oracle
        monkeypatch.setattr(datum, "_fill", fill)
        code, out, _ = run(
            capsys, "oracle-check", "--rank", "2", "--word", "0,1,0", "--max-boxes", "6"
        )
        assert code == EXIT_FAIL
        report = json.loads(out)
        assert report["pass"] is False
        assert len(report["results"]) == 60
        assert sum(not row["match"] for row in report["results"]) == mismatched

    def test_word_longer_than_the_recursion_limit(self, capsys):
        # the table fills along the word in a loop, so no word is too long
        code, out, _ = run(
            capsys, "oracle-check", "--rank", "2", "--word", LONG_WORD, "--max-boxes", "2"
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["pass"] is True
        assert len(report["word"]) == 1500
        assert len(report["results"]) == 2 * 4  # (), (1), (2), (1, 1) at each charge

    def test_theta_past_the_recursion_limit_is_bad_input(self, capsys, tmp_path):
        # theta's filling DP loops, and so does every command: with the
        # limit lowered in process, oracle-check of a word of 60 distinct
        # letters passes, as one letter does, and the words' check of a
        # one-node n = 2 export of a 60-letter word, whose stored
        # statistics are not its word's, gives a word violation, not a
        # traceback.  The file's 1 node cannot cover the 1,891 lattice
        # points of height <= 60, so verify exits 1 on that alone, reading
        # no word and building no census table
        def depth():
            frame, count = sys._getframe(), 0
            while frame is not None:
                frame, count = frame.f_back, count + 1
            return count

        letters = list(range(60))
        word = ",".join(map(str, letters))
        long_word = [k % 2 for k in range(60)]
        node = {"id": 0, "word": long_word, "weight": [0, 0], "eps": [0, 0], "phi": [0, 0]}
        payload = {"n": 2, "depth": 60, "max_boxes": 0, "nodes": [node], "edges": []}
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(payload))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth() + 50)
        try:
            short = run(capsys, "oracle-check", "--rank", "60", "--word", "0", "--max-boxes", "1")
            code, out, err = run(
                capsys, "oracle-check", "--rank", "60", "--word", word, "--max-boxes", "1"
            )
            graph = run(capsys, "verify", "--rank", "2", "--graph-file", str(path))
            violations = graphmod.check_words(graphmod.load_json(payload))
        finally:
            sys.setrecursionlimit(limit)
        assert short[0] == EXIT_OK
        assert (code, err) == (EXIT_OK, "")
        report = json.loads(out)
        assert report["pass"] is True and report["word"] == letters
        graph_code, graph_out, graph_err = graph
        assert (graph_code, graph_err) == (EXIT_FAIL, "")
        assert len(violations) == 1
        assert violations[0].startswith("word: node 0: stored (weight, eps, phi)")
        assert graph_out.startswith("violation: census: 1 nodes cannot cover the 1891 ")
        assert "weight census" not in graph_out
        assert graph_out.endswith("verify: FAIL (1 problems)\n")

    def test_no_diagrams_fails(self):
        # an empty window compares nothing, so it must not pass; the CLI's
        # --max-boxes is at least 0, so only a library caller reaches it
        report = oracle.compare(datum.datum_from_word(datum.CartanData(2), (0, 1)), -1)
        assert report["results"] == [] and report["pass"] is False

    @pytest.mark.parametrize("n, length", [(3, 12), (4, 14)])
    def test_long_cyclic_word(self, capsys, n, length):
        # at window 1 the cost is the plus-side theta recursion on partitions of
        # at most length + 1 boxes
        word = ",".join(str(k % n) for k in range(length))
        code, out, _ = run(
            capsys, "oracle-check", "--rank", str(n), "--word", word, "--max-boxes", "1"
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["pass"] is True
        assert len(report["results"]) == n * (1 + 1)

    def test_symbolic_path_builds_no_multipoly(self, capsys, monkeypatch):
        # the oracle runs at a = 1 over the integers (exact by
        # positivity): no MultiPoly is made or multiplied, and every
        # coefficient of the shared rows is an int
        calls = []
        variable, mul = MultiPoly.variable, MultiPoly.__mul__
        monkeypatch.setattr(
            MultiPoly, "variable",
            classmethod(lambda cls, name: calls.append("variable") or variable(name)),
        )
        for name in ("__mul__", "__rmul__"):
            monkeypatch.setattr(
                MultiPoly, name, lambda self, other: calls.append("mul") or mul(self, other)
            )
        fills = []
        minus_rows = oracle.minus_rows
        monkeypatch.setattr(
            oracle, "minus_rows", lambda *args: fills.append(minus_rows(*args)) or fills[-1]
        )
        code, out, _ = run(
            capsys, "oracle-check", "--rank", "2", "--word", "0,1,0,1,1,0", "--max-boxes", "6"
        )
        assert code == EXIT_OK
        ((packed, width),) = fills
        block = datum.canonical_diagrams(6)
        rows = {
            key: unpack_row(2, block, key[1], row, width)
            for key, row in zip(charged(2, block), packed, strict=True)
        }
        results = json.loads(out)["results"]
        assert len(rows) == len(results) > 0
        assert calls == []
        coefficients = {
            type(c)
            for v in rows.values()
            for poly in v.terms.values()
            for c in poly.coeffs.values()
        }
        assert coefficients == {int}

    def test_rows_fill_once_per_residue(self, capsys, monkeypatch):
        # the row fill scans each distinct window partition's corners once,
        # for every charge and residue of the word, and enumerates no
        # subsets; the table's fill reads datum's removal index, whose
        # corner_rows calls go through datum's own import, uncounted
        calls = {"removal_options": 0, "corner_rows": 0}

        def counting(name):
            original = getattr(maya, name)

            def wrapped(*args):
                calls[name] += 1
                return original(*args)
            return wrapped

        removal_options = counting("removal_options")
        for module in (maya, fock):
            monkeypatch.setattr(module, "removal_options", removal_options)
        monkeypatch.setattr(fock, "corner_rows", counting("corner_rows"))
        code, out, _ = run(
            capsys, "oracle-check", "--rank", "2", "--word", "0,1,0,1,1,0", "--max-boxes", "10"
        )
        assert code == EXIT_OK
        assert len(json.loads(out)["results"]) == 278
        assert calls == {"removal_options": 0, "corner_rows": 139}

    def test_threads_flag(self, capsys):
        # oracle-check has one path, through oracle.compare; --threads is gone
        with pytest.raises(SystemExit) as exc:
            main([
                "oracle-check", "--rank", "2", "--word", "0,1",
                "--max-boxes", "3", "--threads", "2",
            ])
        assert exc.value.code == EXIT_USAGE
        assert "--threads" in capsys.readouterr().err


class TestKostant:
    def test_delta(self, capsys):
        code, out, _ = run(capsys, "kostant", "--rank", "2", "--beta", "1,1")
        assert code == EXIT_OK
        assert out.strip() == "2"

    def test_bad_beta(self, capsys):
        code, _, err = run(capsys, "kostant", "--rank", "2", "--beta", "1,1,1")
        assert code == EXIT_USAGE


#: the flags each command requires besides --rank
REQUIRED = {"explore": (), "eval": ("--diagram-file", "d.json"), "verify": (),
            "oracle-check": ("--word", "0,1"), "kostant": ("--beta", "1,1")}
BAD_FLAGS = (
    [(command, "--rank", "1") for command in REQUIRED]
    + [(command, "--depth", "-1") for command in ("explore", "verify")]
    + [(command, "--max-boxes", "-1") for command in ("explore", "verify", "oracle-check")]
    + [("explore", "--format", "svg")]
    + [("eval", "--word", "a"), ("oracle-check", "--word", "0,,1"), ("kostant", "--beta", "1,x")]
)


class TestUsage:
    @pytest.mark.parametrize("command, flag, value", BAD_FLAGS, ids=[
        "%s-%s-%s" % (command, flag.lstrip("-"), value) for command, flag, value in BAD_FLAGS])
    def test_bad_flag_value(self, capsys, command, flag, value):
        # argparse checks every flag's value and names the flag, the way it
        # refuses an unknown one; nothing runs and nothing is printed
        rank = () if flag == "--rank" else ("--rank", "2")
        with pytest.raises(SystemExit) as exc:
            main([command, *rank, *REQUIRED[command], flag, value])
        captured = capsys.readouterr()
        assert exc.value.code == EXIT_USAGE
        assert captured.out == ""
        assert flag in captured.err

    def test_negative_max_boxes(self, capsys):
        for argv in (
            ("verify", "--rank", "2", "--depth", "2", "--max-boxes", "-1"),
            ("oracle-check", "--rank", "2", "--word", "0,1", "--max-boxes", "-3"),
        ):
            with pytest.raises(SystemExit) as exc:
                main(list(argv))
            assert exc.value.code == EXIT_USAGE
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "max-boxes" in captured.err

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == EXIT_USAGE

    @pytest.mark.parametrize("argv, flag", [
        (("kostant", "--rank", "2", "--beta", "1,1", "--format", "dot"), "--format"),
        (("eval", "--rank", "2", "--diagram-file", "d.json", "--max-boxes", "4"),
         "--max-boxes"),
        (("verify", "--rank", "2", "--mode", "random", "--seed", "1"), "--mode"),
        (("oracle-check", "--rank", "2", "--word", "0", "--format", "dot"), "--format"),
        (("explore", "--rank", "2", "--depth", "1", "--seed", "1"), "--seed"),
        (("oracle-check", "--rank", "2", "--word", "0", "--mode", "random", "--seed", "1"),
         "--mode"),
        (("oracle-check", "--rank", "2", "--word", "0", "--seed", "1"), "--seed"),
    ])
    def test_flag_of_another_subcommand(self, capsys, argv, flag):
        # each subcommand takes only the flags it reads; --mode and --seed
        # belong to none
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == EXIT_USAGE
        assert flag in capsys.readouterr().err

    def test_program_fault_is_not_bad_input(self, capsys, monkeypatch):
        # exit 2 is for usage and input errors: a KeyError inside a command,
        # here a removal index entry whose diagram is not in the window,
        # is the program's fault and propagates, not "error:" and exit 2.
        # explore's box-window index is cached in _removal_index with the
        # full window's, so an index built before the patch must go first
        monkeypatch.setattr(datum, "without_corner", lambda parts, r: parts + (1,))
        datum._removal_index.cache_clear()
        try:
            with pytest.raises(KeyError):
                main(["verify", "--rank", "2", "--depth", "2"])
        finally:
            # an index built from the wrong corners must not outlive the test
            datum._removal_index.cache_clear()
        assert capsys.readouterr().err == ""

    def test_help_is_for_users(self, capsys):
        # --help describes the subcommands, exit codes and output, and none
        # of the module docstring's notes on the code
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        out = " ".join(capsys.readouterr().out.split())
        assert exc.value.code == EXIT_OK
        for code in ("0 success", "1 verification failure", "2 usage or I/O error"):
            assert code in out
        assert "gc.freeze" not in out and "cmd_" not in out

    def test_no_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == EXIT_USAGE

    @pytest.mark.parametrize("argv", [
        ("eval", "--rank", "2", "--word", "0,1", "--diagram-file"),
        ("verify", "--rank", "2", "--graph-file"),
    ], ids=["eval-diagram-file", "verify-graph-file"])
    def test_deeply_nested_json_names_the_file(self, capsys, tmp_path, argv):
        # json recurses once per nesting level; a file too deep for it is
        # bad input named by its path, not a word too long to evaluate
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = run(capsys, *argv, str(path))
        assert code == EXIT_USAGE
        assert out == ""
        assert err.count("\n") == 1 and str(path) in err and "word" not in err


#: tokens that are no command's exact long flag
FOREIGN = ("--mode", "--seed", "--max", "--rank=2", "-h", "--")
VALUES = ("2", "1", "-1", "0,1", "", "0,,1", "x", "json", "dot")


@st.composite
def argvs(draw):
    """A command, its --rank and other distinct flags of it, in any order;
    sometimes also flags of any command or foreign tokens, and sometimes
    one stray token.  Foreign tokens stand among the values too."""
    command = draw(st.sampled_from(sorted(cli.COMMANDS)))
    # "2" passes every type but --format's, so that whole argvs often do
    values = st.one_of(st.just("2"), st.sampled_from(VALUES + FOREIGN))
    own = sorted(cli.COMMANDS[command][2].keys() - {"--rank"})
    flags = ["--rank", *draw(st.lists(st.sampled_from(own), unique=True))]
    if draw(st.booleans()):
        every = {flag for _, _, flags in cli.COMMANDS.values() for flag in flags}
        flags += draw(st.lists(st.sampled_from(sorted(every) + list(FOREIGN)),
                               min_size=1, max_size=2))
    pairs = draw(st.permutations([(flag, draw(values)) for flag in flags]))
    argv = [command, *itertools.chain.from_iterable(pairs)]
    if draw(st.booleans()):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(FOREIGN + VALUES)))
    return argv


def argparse_vars(argv):
    """``vars`` of argparse's parse of argv, or None where argparse exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit:
            return None


class TestParse:
    @given(argvs())
    @settings(max_examples=400, deadline=None)
    def test_direct_parse_agrees_with_argparse(self, argv):
        # the direct parse either defers or returns what argparse returns;
        # it defers wherever argparse exits
        direct = cli._parse_canonical(argv)
        expected = argparse_vars(argv)
        if direct is not None:
            assert vars(direct) == expected

    @pytest.mark.parametrize("argv", [
        ("oracle-check", "--rank", "2", "--word", "0,1", "--max-boxes", "3"),
        ("oracle-check", "--max-boxes", "3", "--rank", "2", "--output", "x", "--word", ""),
        ("explore", "--rank", "3", "--format", "dot", "--depth", "2"),
        ("eval", "--rank", "2", "--diagram-file", "d.json"),
        ("verify", "--rank", "2", "--graph-file", "g.json"),
        ("kostant", "--rank", "2", "--beta", "1,1"),
    ])
    def test_canonical_argv_is_parsed_directly(self, argv):
        direct = cli._parse_canonical(list(argv))
        assert direct is not None
        assert vars(direct) == argparse_vars(list(argv))

    @pytest.mark.parametrize("argv", [
        ("oracle-check", "--rank", "2", "--output", "--word"),
        ("oracle-check", "--rank", "2", "--word", "-1"),
        ("oracle-check", "--rank", "2", "--", "--word", "0"),
        ("explore", "--rank", "2", "--format", "svg"),
        ("eval", "--rank", "2"),
        ("kostant", "--rank", "2", "--beta", "1", "--beta", "2"),
        ("verify", "--rank", "2", "--depth"),
        ("--rank", "2", "verify"),
    ])
    def test_other_argv_is_deferred(self, argv):
        assert cli._parse_canonical(list(argv)) is None

    @pytest.mark.parametrize("flags", [
        ("--rank=2", "--word", "0,1", "--max-boxes", "3"),
        ("--rank", "2", "--word", "0,1", "--max", "3"),
        ("--rank", "2", "--word", "0,1", "--max-boxes", "5", "--max-boxes", "3"),
    ], ids=["equals-sign", "abbreviation", "repeated-flag-last-wins"])
    def test_fallback_forms(self, capsysbinary, flags):
        # forms only argparse handles give what the canonical argv gives
        argv = ["oracle-check", *flags]
        assert cli._parse_canonical(argv) is None
        assert main(argv) == EXIT_OK
        fallback = capsysbinary.readouterr().out
        assert main(["oracle-check", "--rank", "2", "--word", "0,1", "--max-boxes", "3"]) == EXIT_OK
        assert fallback == capsysbinary.readouterr().out

    @pytest.mark.parametrize("command", sorted(cli.COMMANDS))
    def test_command_help(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("usage: mayacrystal %s " % command)
        for flag in cli.COMMANDS[command][2]:
            assert flag in out
