"""Command-line front end.  Subcommands: explore, eval, verify,
oracle-check, kostant.  Exit codes: 0 success / verification passed,
1 verification failure, 2 usage or I/O error: a bad flag (rank below 2,
a negative depth or max-boxes, a format outside its choices, a word or beta
that is not comma-separated integers) exits 2 with a usage message naming
it, and bad input content exits 2 with a one-line error message.  Output
is UTF-8, integers are decimal, and an infinite valuation prints as "inf".
Runs are deterministic: identical flags give byte-identical output.

That first paragraph is ``--help``'s description; the rest is for readers
of the code.  ``COMMANDS`` is the one table of commands and flags, and each
command's ``cmd_*`` function does its work.  ``main`` reads an argv of
exact long flags, each given once with a value that does not start with
"-" and passes its type, straight from the table (``_parse_canonical``).
Any other argv goes to the argparse parser that ``build_parser`` makes from
the same table, so ``--help``, usage errors and forms such as
``--rank=2``, ``--max 3`` or a repeated flag behave as argparse makes them.
argparse, which loads gettext, is imported only there, and json only where
a file is read or a graph exported as JSON: with cached bytecode, importing
this module took a median 2.2 ms without them and 5.5 ms with them, and
building the parser and parsing an ``oracle-check`` argv 2.5 ms more,
against 0.03 ms for the direct parse (41 fresh processes each, shared
2-core VM, Python 3.11.7).

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

import atexit
import gc
import math
import sys
from types import SimpleNamespace

from . import graph as graphmod
from . import oracle as oraclemod
from .datum import CartanData, datum_from_word
from .maya import ChargedPartition, MayaDiagram, to_partition
from .maya import from_partition  # noqa: F401  bench/test_bench.py's by-name import witness

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

atexit.register(gc.freeze)  # the shutdown collections then scan nothing: see the docstring


def _count(text, low=0):
    """An argparse type: an integer no smaller than ``low``."""
    value = int(text)
    if value < low:
        import argparse  # only a usage error needs it

        raise argparse.ArgumentTypeError("must be at least %d, got %d" % (low, value))
    return value


def _rank(text):
    """An argparse type: an integer no smaller than 2."""
    return _count(text, 2)


_count.__name__ = _rank.__name__ = "int"  # argparse names the type in "invalid int value"


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
    """A file's parsed JSON; a ValueError naming the file if it is not
    JSON.  ``json`` recurses once per nesting level, so a file nested too
    deeply is one too: nothing else that a command runs recurses."""
    import json  # here, so that a command reading no file never loads it

    with open(path, "rb") as handle:
        try:
            return json.load(handle)
        except RecursionError:
            raise ValueError("%s: JSON nested too deeply to read" % path) from None
        except ValueError as exc:
            raise ValueError("%s: %s" % (path, exc)) from None


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
    else:
        graph = graphmod.explore(CartanData(n), args.depth or 0, args.max_boxes)
    points = math.comb(graph.depth + n, n)  # the lattice points of height <= depth
    # each has a Kostant count of at least 1, so fewer nodes fail the census;
    # then the words, whose check grows with their length, are not read
    covered = len(graph.nodes) >= points
    violations = graphmod.check_words(graph) if covered and args.graph_file is not None else []
    violations += graphmod.check_axioms(graph)
    if not covered:
        violations.append("census: %d nodes cannot cover the %d root-lattice points of "
                          "height <= %d" % (len(graph.nodes), points, graph.depth))
        failures = violations
    else:
        failures = violations + _census(graph)
    for line in violations:
        print("violation: %s" % line)
    if failures:
        print("verify: FAIL (%d problems)" % len(failures))
        return EXIT_FAIL
    print("verify: PASS (%d nodes)" % len(graph.nodes))
    return EXIT_OK


def _census(graph):
    """Print the weight census of ``graph`` against the Kostant partition
    function at every lattice point of height <= its depth; return a line
    for each mismatch."""
    n = graph.n
    census = graphmod.weight_census(graph)
    points = graphmod.lattice_points(n, graph.depth)
    counts = graphmod.kostant(n, points)
    print("weight census (beta: nodes expected):")
    mismatches = []
    for beta in points:
        expected = counts[beta]
        got = census[beta]
        mark = "ok" if got == expected else "MISMATCH"
        print("  %r: %d %d %s" % (beta, got, expected, mark))
        if got != expected:
            mismatches.append("census mismatch at %r: %d != %d" % (beta, got, expected))
    return mismatches


def cmd_oracle_check(args):
    datum = datum_from_word(CartanData(args.rank), _check_letters(args.rank, args.word))
    report = oraclemod.compare(datum, args.max_boxes)
    _write(args, oraclemod.report_to_json(report).encode())
    return EXIT_OK if report["pass"] else EXIT_FAIL


def cmd_kostant(args):
    print(graphmod.kostant(args.rank, graphmod.box(args.rank, args.beta))[args.beta])
    return EXIT_OK


_RANK = dict(type=_rank, required=True, help="rank n (at least 2)")
_WORD = dict(type=_parse_word, default=(), help="comma-separated residues, e.g. 0,1,0")
_AREA = ("area bound of the dedup window: the diagrams whose partition fits in an a x b "
         "box with ab at most this; default max(n(depth + 1), (depth - 2)^2 // 4 + 1)")

#: Each command's ``cmd_*`` function, help line and flags, in ``--help``
#: order; each flag's ``add_argument`` keywords.  ``build_parser`` and
#: ``_parse_canonical`` both read it, so their defaults and types agree.
COMMANDS = {
    "explore": (cmd_explore, "explore and export the crystal graph", {
        "--rank": _RANK,
        "--depth": dict(type=_count, default=0),
        "--max-boxes": dict(type=_count, help=_AREA),
        "--output": {},
        "--format": dict(choices=["json", "dot"], default="json"),
    }),
    "eval": (cmd_eval, "evaluate a word's datum at a diagram", {
        "--rank": _RANK,
        "--word": _WORD,
        "--diagram-file": dict(required=True),
    }),
    "verify": (cmd_verify, "run the axiom and census suites", {
        "--rank": _RANK,
        # no defaults, so that main can refuse them beside --graph-file
        "--depth": dict(type=_count, help="default 0"),
        "--max-boxes": dict(type=_count, help=_AREA),
        "--graph-file": dict(help="check a stored export instead"),
    }),
    "oracle-check": (cmd_oracle_check, "cross-check a word against the oracle", {
        "--rank": _RANK,
        "--word": _WORD,
        "--max-boxes": dict(type=_count, default=6,
                            help="window: every diagram of at most this many boxes"),
        "--output": {},
    }),
    "kostant": (cmd_kostant, "Kostant partition count of beta", {
        "--rank": _RANK,
        "--beta": dict(type=_parse_word, required=True, help="comma-separated coordinates"),
    }),
}


def build_parser():
    """One subparser per command of ``COMMANDS``, each taking only the
    flags it reads and naming its ``cmd_*`` function as ``run``."""
    import argparse

    parser = argparse.ArgumentParser(prog="mayacrystal", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (run, help_text, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        for flag, spec in flags.items():
            p.add_argument(flag, **spec)
    return parser


def _parse_canonical(argv):
    """The flags of ``argv`` as ``build_parser().parse_args(argv)`` would
    return them, read straight from ``COMMANDS``; None, for argparse to
    handle, unless argv is a command followed by distinct exact flags of
    it, each with one value that does not start with "-", passes its type
    and choices, and every required flag is given."""
    if not argv or argv[0] not in COMMANDS:
        return None
    run, _, flags = COMMANDS[argv[0]]
    given = dict(zip(argv[1::2], argv[2::2]))
    if 2 * len(given) != len(argv) - 1 or not given.keys() <= flags.keys():
        return None  # a flag without a value, repeated, or not this command's
    values = {"command": argv[0], "run": run}
    for flag, spec in flags.items():
        dest = flag[2:].replace("-", "_")
        if flag not in given:
            if spec.get("required"):
                return None
            values[dest] = spec.get("default")
            continue
        text = given[flag]
        if text.startswith("-"):
            return None
        try:
            value = spec.get("type", str)(text)
        except Exception:  # argparse reports it, or raises it as before
            return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        values[dest] = value
    return SimpleNamespace(**values)


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_canonical(argv) or build_parser().parse_args(argv)
    if getattr(args, "graph_file", None) is not None and {args.depth, args.max_boxes} != {None}:
        # the census runs to the file's own depth, so these would be ignored
        build_parser().error("--depth and --max-boxes do not apply to --graph-file")
    try:
        return args.run(args)
    except (OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
