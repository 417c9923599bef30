"""Command-line front end.

Subcommands: explore, eval, verify, oracle-check, kostant.  Exit codes:
0 success / verification passed, 1 verification failure, 2 usage or I/O
error.  Output is UTF-8, integers are decimal, and an infinite valuation
prints as "inf".  Runs are deterministic: identical flags give
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields

from . import graph as graphmod
from . import oracle as oraclemod
from .datum import CartanData, datum_from_word
from .maya import ChargedPartition, MayaDiagram, from_partition

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


@dataclass
class RunConfig:
    n: int
    depth: int = 0
    max_boxes: int | None = None
    output: str | None = None
    format: str = "json"

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("rank must be at least 2")
        if self.depth < 0:
            raise ValueError("depth must be nonnegative")
        if self.max_boxes is not None and self.max_boxes < 0:
            raise ValueError("max-boxes must be nonnegative")
        if self.format not in ("json", "dot"):
            raise ValueError("format must be json or dot")


def _parse_word(text):
    text = text.strip()
    if not text:
        return ()
    return tuple(int(piece) for piece in text.split(","))


def _parse_letters(cfg, text):
    """A --word's residues, each in 0..n-1; ValueError otherwise, where
    ``datum_from_word`` would silently reduce it mod n."""
    word = _parse_word(text)
    if any(not 0 <= i < cfg.n for i in word):
        raise ValueError("--word letters must be in 0..%d" % (cfg.n - 1))
    return word


def _load_diagram(path):
    """A {"parts", "charge"} or {"kind", "deviations"} object; ValueError otherwise."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ValueError("diagram file must hold a JSON object")
    if "parts" in data:
        parts, charge = data["parts"], data.get("charge", 0)
        if not (isinstance(parts, list) and all(type(x) is int for x in [*parts, charge])):
            raise ValueError("parts must be a list of integers and charge an integer")
        return from_partition(ChargedPartition(tuple(parts), charge))
    deviations = data.get("deviations")
    if not (
        isinstance(deviations, list)
        and all(isinstance(d, list) and len(d) == 2 and type(d[0]) is int for d in deviations)
    ):
        raise ValueError("deviations must be a list of [label, color] pairs")
    return MayaDiagram.from_json(data)


def _write(cfg, blob):
    if cfg.output:
        with open(cfg.output, "wb") as handle:
            handle.write(blob)
    else:
        sys.stdout.buffer.write(blob)
        sys.stdout.flush()


def cmd_explore(cfg):
    graph = graphmod.explore(CartanData(cfg.n), cfg.depth, cfg.max_boxes)
    _write(cfg, graphmod.export(graph, cfg.format))
    return EXIT_OK


def cmd_eval(cfg, word, diagram_path):
    datum = datum_from_word(CartanData(cfg.n), word)
    gamma = _load_diagram(diagram_path)
    print(datum.eval(gamma))
    return EXIT_OK


def cmd_verify(cfg, graph_path=None):
    if graph_path is not None:
        with open(graph_path, "rb") as handle:
            graph = graphmod.load_json(handle.read())
        if graph.n != cfg.n:
            raise ValueError("graph file has rank %d, expected %d" % (graph.n, cfg.n))
        violations = graphmod.check_words(graph)
    else:
        graph = graphmod.explore(CartanData(cfg.n), cfg.depth, cfg.max_boxes)
        violations = []
    violations += graphmod.check_axioms(graph)
    census = graphmod.weight_census(graph)
    cartan = CartanData(cfg.n)
    print("weight census (beta: nodes expected):")
    failures = list(violations)
    for beta in graphmod.lattice_points(cfg.n, graph.depth):
        expected = graphmod.kostant(cartan, beta)
        got = census.get(beta, 0)
        mark = "ok" if got == expected else "MISMATCH"
        print("  %r: %d %d %s" % (beta, got, expected, mark))
        if got != expected:
            failures.append("census mismatch at %r: %d != %d" % (beta, got, expected))
    for line in violations:
        print("violation: %s" % line)
    if failures:
        print("verify: FAIL (%d problems)" % len(failures))
        return EXIT_FAIL
    print("verify: PASS (%d nodes)" % len(graph.nodes))
    return EXIT_OK


def cmd_oracle_check(cfg, word):
    cartan = CartanData(cfg.n)
    datum = datum_from_word(cartan, word)
    max_boxes = cfg.max_boxes if cfg.max_boxes is not None else 6
    report = oraclemod.compare(datum, max_boxes)
    if not report["results"]:
        print("oracle-check: no diagrams compared", file=sys.stderr)
        report["pass"] = False
    _write(cfg, oraclemod.report_to_json(report).encode())
    return EXIT_OK if report["pass"] else EXIT_FAIL


def cmd_kostant(cfg, beta):
    print(graphmod.kostant(CartanData(cfg.n), beta))
    return EXIT_OK


#: Flags that several subcommands take: flag -> add_argument keywords.
SHARED_FLAGS = {
    "--depth": dict(type=int, default=0),
    "--max-boxes": dict(type=int, default=None),
    "--output": dict(default=None),
    "--format": dict(choices=["json", "dot"], default="json"),
    "--word": dict(default="", help="comma-separated residues, e.g. 0,1,0"),
}


def build_parser():
    """One subparser per command, each taking only the flags it reads."""
    parser = argparse.ArgumentParser(prog="mayacrystal", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help_text, *flags):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--rank", type=int, required=True, help="rank n (at least 2)")
        for flag in flags:
            p.add_argument(flag, **SHARED_FLAGS[flag])
        return p

    command("explore", "explore and export the crystal graph",
            "--depth", "--max-boxes", "--output", "--format")
    p_eval = command("eval", "evaluate a word's datum at a diagram", "--word")
    p_eval.add_argument("--diagram-file", required=True)
    p_verify = command("verify", "run the axiom and census suites")
    for flag in ("--depth", "--max-boxes"):
        # absent unless given, so that main can refuse them beside --graph-file
        p_verify.add_argument(flag, **dict(SHARED_FLAGS[flag], default=argparse.SUPPRESS))
    p_verify.add_argument("--graph-file", default=None, help="check a stored export instead")
    command("oracle-check", "cross-check a word against the oracle",
            "--word", "--max-boxes", "--output")
    p_kostant = command("kostant", "Kostant partition count of beta")
    p_kostant.add_argument("--beta", required=True, help="comma-separated coordinates")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    given = vars(args)
    try:
        if given.get("graph_file") is not None and given.keys() & {"depth", "max_boxes"}:
            raise ValueError("--depth and --max-boxes do not apply to --graph-file")
        cfg = RunConfig(
            n=args.rank, **{f.name: given[f.name] for f in fields(RunConfig) if f.name in given}
        )
    except ValueError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.command == "explore":
            return cmd_explore(cfg)
        if args.command == "eval":
            return cmd_eval(cfg, _parse_letters(cfg, args.word), args.diagram_file)
        if args.command == "verify":
            return cmd_verify(cfg, args.graph_file)
        if args.command == "oracle-check":
            return cmd_oracle_check(cfg, _parse_letters(cfg, args.word))
        if args.command == "kostant":
            return cmd_kostant(cfg, _parse_word(args.beta))
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except RecursionError:  # value_at and theta recurse once per word letter
        word = "a %d-letter word" % len(_parse_word(args.word)) if "word" in given else "a word"
        print("error: %s is too long for the recursive evaluation" % word, file=sys.stderr)
        return EXIT_USAGE
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
