"""Crystal graph exploration, axiom checking, and the Kostant census oracle.

The graph is grown breadth-first from the zero datum, merging children whose
statistics and value tables agree over the box window: the diagrams whose
partition fits in an a x b box with ab <= ``max_boxes`` (see ``explore``).
The window's area bound defaults to ``default_max_boxes``, a heuristic that
only the census and axiom iv check: too small a window merges distinct
elements.  A graph and its nodes are plain records, the fields and rows of
its JSON export, so an explored graph equals what ``load_json`` rebuilds
from that export.  They are ``__slots__`` classes, not dataclasses:
importing ``dataclasses`` would add ``inspect`` and ``ast`` to every
command's start-up.  ``maya._Record``, the one base of every record, gives
them equality, repr and no hash from the fields each declares.  Raising
operators exist only as edge inversions, which ``check_axioms`` reads off
the edges.  The independent oracle counts multiset decompositions of a
positive root-lattice element into positive roots of untwisted affine type
A, with imaginary roots m*delta carrying multiplicity n - 1.
"""

from __future__ import annotations

import itertools
from collections import Counter

from .datum import CartanData, CrystalDatum
from .maya import _Record


class Node(_Record):
    """One element's row of the JSON export.  Equal only to a Node with
    equal fields; mutable, so unhashable."""

    __slots__ = _names = ("id", "word", "weight", "eps", "phi")

    def __init__(self, id, word, weight, eps, phi):
        self.id = id
        self.word = word
        self.weight = weight
        self.eps = eps
        self.phi = phi


class CrystalGraph(_Record):
    """Explored, deduplicated crystal with lowering edges: the export's
    five fields.  Equal only to a CrystalGraph with equal fields; mutable,
    so unhashable."""

    __slots__ = _names = ("n", "depth", "max_boxes", "nodes", "edges")

    def __init__(self, n, depth, max_boxes, nodes, edges):
        self.n = n
        self.depth = depth
        self.max_boxes = max_boxes
        self.nodes = nodes
        self.edges = edges  # (node_id, residue) -> node_id


def default_max_boxes(n, depth):
    """The default area bound of ``explore``'s box window: n * (depth + 1),
    or floor((depth - 2)^2 / 4) + 1 where that is larger (n = 2 from depth
    13, n = 3 from depth 17).  At n = 2 the smallest passing area measured
    at depths 6 to 14 is floor((depth - 2)^2 / 4), the area of the
    rectangle floor((depth - 2) / 2) x ceil((depth - 2) / 2), and
    n * (depth + 1) falls below it at depth 13."""
    return max(n * (depth + 1), (depth - 2) ** 2 // 4 + 1)


def explore(cartan, depth, max_boxes=None):
    """All crystal elements reachable by at most ``depth`` lowering steps.

    Two children are one element when their dedup keys (stats, table) are
    equal: stats is the (weight, eps, phi) that the node's row stores,
    computed once per child, and table is the child's value table over the
    box window of area ``max_boxes`` (``CrystalDatum.fingerprint``), filled
    from its parent's.  The statistics are in the key because tables over
    a bounded window can coincide for elements that differ only on larger
    diagrams.  Each f_i lowers the weight by a simple root, so a node k
    steps from the root has height k, and a key, which leads with the
    weight, is looked up only among its own level's.  A level's keys and
    data are freed once the next level is keyed, with the level's memo of
    filled blocks and child representatives (see
    ``CrystalDatum.fingerprint`` and ``apply``), so a child that dedups
    away is freed with its labels and statistics.

    The last level grows no children, so its tables only have to tell
    apart its own children: a child there whose statistics no other child
    of the level shares is keyed (stats, None), with no table.  Equal keys
    need equal statistics, so the merges are those of keying every child
    by its table.

    Nodes are numbered in discovery order: level by level, each level's
    parents in order and their children by residue, so the root is node 0,
    the stored words, each the first to reach its node, ascend in shortlex
    order, and a window that merges the same elements numbers them the
    same."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    n = cartan.n
    if max_boxes is None:
        max_boxes = default_max_boxes(n, depth)
    nodes, edges = [], {}
    # (edge that reaches the datum or None, datum, its parent's table)
    candidates = [(None, CrystalDatum(cartan), None)]
    memo = {}  # the level's child representatives and filled blocks
    for height in range(depth + 1):
        candidates = ((edge, datum, datum.statistics(), table) for edge, datum, table in candidates)
        last = height == depth
        if last:
            candidates = list(candidates)
            shared = Counter(stats for _, _, stats, _ in candidates)
        level = {}  # (stats, table) -> (number, datum) of the level's elements
        for edge, datum, stats, parent_table in candidates:
            if last and shared[stats] == 1:
                table = None
            else:
                table = datum.fingerprint(max_boxes, parent_table, memo)
            target, _ = level.setdefault((stats, table), (len(nodes), datum))
            if target == len(nodes):
                nodes.append(Node(target, datum.word, *stats))
            if edge is not None:
                edges[edge] = target
        memo = {}
        candidates = _next_level(level, n, memo)
    return CrystalGraph(n, depth, max_boxes, nodes, edges)


def _next_level(level, n, memo):
    """``explore``'s candidates for the children of ``level``, built through ``memo``."""
    for (_, table), (k, datum) in level.items():
        for i in range(n):
            yield (k, i), datum.apply(i, memo), table


def check_words(graph):
    """Violations of the stored words.  At most one per node: its stored
    weight, eps and phi are not its word's, or else its word, read as f_i
    steps along the stored edges from the unique weight-zero node, does not
    end at it.  And one per edge (a, i) -> b whose target b stores other
    statistics than f_i of a's word, when a's word gives a's own.  An
    explored graph takes all of these from its words, so this only bites
    on graph files.  Every word is applied from one root through one memo
    by ``CrystalDatum.apply_word``, so words of one rotation orbit,
    prefixes included, share their representative, with its labels and
    its statistics, each computed once by ``maya.filling_min`` (see
    ``CrystalDatum.apply``)."""
    root, memo = CrystalDatum(CartanData(graph.n)), {}
    sources = [node.id for node in graph.nodes if not any(node.weight)]
    violations = []
    wrong = set()  # nodes whose words give other statistics
    for node in graph.nodes:
        stored = node.weight, node.eps, node.phi
        derived = root.apply_word(node.word, memo).statistics()
        if derived != stored:
            violations.append("word: node %d: stored (weight, eps, phi) %r, its word gives %r"
                              % (node.id, stored, derived))
            wrong.add(node.id)
            continue
        at = sources[0] if len(sources) == 1 else None
        for i in node.word:
            at = graph.edges.get((at, i))
        if at != node.id:
            violations.append("word: node %d: its word %r is not an edge path from the "
                              "weight-zero node to it" % (node.id, list(node.word)))
    for (src, i), dst in sorted(graph.edges.items()):
        if src in wrong:
            continue
        b = graph.nodes[dst]
        stored = b.weight, b.eps, b.phi
        derived = root.apply_word(graph.nodes[src].word + (i,), memo).statistics()
        if derived != stored:
            violations.append("edge target: %d -%d-> %d: node %d stores (weight, eps, phi) %r, "
                              "f_%d of node %d's word gives %r"
                              % (src, i, dst, dst, stored, i, src, derived))
    return violations


def check_axioms(graph):
    """Verify the crystal axioms on every explored node; returns violations.

    B(infinity) is upper seminormal, so eps_i is the length of the e_i-string
    above a node: it is 0 at a node without an f_i-predecessor (the string
    head axiom) and grows by 1 along each i-edge (axiom iii).  The check is
    exact on a depth-truncated graph, since depth is the height of -weight
    and an e_i-string climbs toward weight 0 inside the explored ball.
    Axiom iv, that f_i is injective, asks each (node, i) to have at most one
    f_i-predecessor among the edges.

    On an explored graph axiom i, phi = eps + <wt, alpha_i>, is an identity:
    eps_hat(i) + <wt, alpha_i> = theta(L_i) - theta(sL_i), which is how phi
    is computed.  So it only bites on graph files, whose statistics are
    stored.
    """
    cartan = CartanData(graph.n)
    predecessors = {}  # (node_id, residue) -> its f_i-predecessors
    for (src, i), dst in graph.edges.items():
        predecessors.setdefault((dst, i), []).append(src)
    violations = []
    for node in graph.nodes:
        for i in range(graph.n):
            expected = cartan.pairing(node.weight, i) + node.eps[i]
            if node.phi[i] != expected:
                violations.append(
                    "axiom i: node %d residue %d: phi=%d but eps+<wt,a>=%d"
                    % (node.id, i, node.phi[i], expected)
                )
            if node.eps[i] and (node.id, i) not in predecessors:
                violations.append(
                    "string head: node %d has no f_%d-predecessor but eps=%d"
                    % (node.id, i, node.eps[i])
                )
    for (src, i), dst in sorted(graph.edges.items()):
        a, b = graph.nodes[src], graph.nodes[dst]
        expected_weight = tuple(
            w - (1 if j == i else 0) for j, w in enumerate(a.weight)
        )
        if b.weight != expected_weight:
            violations.append(
                "axiom iii (wt): edge %d -%d-> %d: %r != %r"
                % (src, i, dst, b.weight, expected_weight)
            )
        if b.eps[i] != a.eps[i] + 1:
            violations.append(
                "axiom iii (eps): edge %d -%d-> %d: %d != %d + 1"
                % (src, i, dst, b.eps[i], a.eps[i])
            )
        if b.phi[i] != a.phi[i] - 1:
            violations.append(
                "axiom iii (phi): edge %d -%d-> %d: %d != %d - 1"
                % (src, i, dst, b.phi[i], a.phi[i])
            )
    for (dst, i), sources in sorted(predecessors.items()):
        if len(sources) > 1:
            violations.append(
                "axiom iv: node %d has multiple f_%d-predecessors %r" % (dst, i, sources)
            )
    zero_weight = [node for node in graph.nodes if not any(node.weight)]
    if len(zero_weight) != 1:
        violations.append("source: expected exactly one weight-0 node, found %d" % len(zero_weight))
    return violations


def weight_census(graph):
    """Count nodes per positive root-lattice element beta (weight = -beta),
    as a ``Counter``: a beta that no node reaches counts 0."""
    return Counter(tuple(-w for w in node.weight) for node in graph.nodes)


def positive_roots(n, max_height):
    """Positive roots of height <= max_height as sorted coefficient vectors
    over the simple roots.  A root of height h counts the residues mod n of
    h consecutive integers: n real roots when n does not divide h, and
    (h/n)*delta, repeated n - 1 times for its multiplicity, when it does."""
    roots = []
    for height in range(1, max_height + 1):
        q, r = divmod(height, n)
        if r:
            roots += [tuple(q + ((j - a) % n < r) for j in range(n)) for a in range(n)]
        else:
            roots += [(q,) * n] * (n - 1)
    return sorted(roots)


def kostant(n, points):
    """The Kostant partition function on a list of points: a dict from
    each point to its number of decompositions into positive roots.

    ``points`` must be down-closed and list each point after every point
    below it, as ``lattice_points`` and ``box`` do.  One dynamic program
    fills them all: each root's pass runs in list order, so it may use
    that root again, and a point minus a root is either in the list or has
    a negative coordinate."""
    ways = dict.fromkeys(points, 0)
    ways[(0,) * n] = 1
    for root in positive_roots(n, max(map(sum, ways))):
        for v in points:
            prev = ways.get(tuple(a - b for a, b in zip(v, root)))
            if prev:
                ways[v] += prev
    return ways


def box(n, beta):
    """The points of the box [0, beta] in lexicographic order, which lists
    each after every point below it.  ValueError unless beta is a
    nonnegative vector of length n."""
    beta = tuple(beta)
    if len(beta) != n or any(b < 0 for b in beta):
        raise ValueError("beta must be a nonnegative vector of length n")
    return list(itertools.product(*(range(b + 1) for b in beta)))


def lattice_points(n, max_height):
    """All beta in the positive span of the simple roots with height <= max."""
    out = []
    for height in range(max_height + 1):
        for combo in itertools.combinations(range(height + n - 1), n - 1):
            cuts = (-1,) + combo + (height + n - 1,)
            out.append(tuple(cuts[i + 1] - cuts[i] - 1 for i in range(n)))
    return out


def export(graph, fmt):
    """Deterministic DOT or JSON rendering of an explored graph."""
    if fmt == "json":
        import json  # here, so that only a JSON export loads it

        payload = {
            "n": graph.n,
            "depth": graph.depth,
            "max_boxes": graph.max_boxes,
            "nodes": [{key: getattr(node, key) for key in Node.__slots__} for node in graph.nodes],
            "edges": [
                {"from": src, "to": dst, "i": i}
                for (src, i), dst in sorted(graph.edges.items())
            ],
        }
        return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode()
    if fmt == "dot":
        lines = ["digraph crystal {"]
        for node in graph.nodes:
            lines.append(
                '  b%d [label="%s"];'
                % (node.id, ",".join(map(str, node.word)) or "O")
            )
        for (src, i), dst in sorted(graph.edges.items()):
            lines.append('  b%d -> b%d [label="%d"];' % (src, dst, i))
        lines.append("}")
        return ("\n".join(lines) + "\n").encode()
    raise ValueError("unsupported format: %r" % (fmt,))


def load_json(payload):
    """Rebuild a graph from its parsed JSON export (statistics as stored; see
    ``check_words``).
    ValueError unless n, depth, node ids and words, the n-entry statistics and
    the edges' from, i and to are all integers; max_boxes is a nonnegative
    integer; the node ids are 0..N-1, each once; every word letter is in
    0..n-1; every edge joins two nodes, has a residue in 0..n-1 and is the only edge of its (from, i); and depth
    is the longest word's length, as in every export, since f_0^k of the
    source lies on level k."""
    shaped = isinstance(payload, dict) and all(
        isinstance(payload.get(key), list) and all(isinstance(row, dict) for row in payload[key])
        for key in ("nodes", "edges")
    )
    if shaped:
        n, nodes = payload.get("n"), payload["nodes"]
        words = [row.get("word") for row in nodes]
        stats = [row.get(key) for row in nodes for key in ("weight", "eps", "phi")]
        ints = [n, payload.get("depth"), payload.get("max_boxes")]
        ints += [row.get("id") for row in nodes]
        ints += [row.get(key) for row in payload["edges"] for key in ("from", "i", "to")]
        shaped = (
            all(isinstance(v, list) for v in words + stats)
            and all(len(v) == n for v in stats)
            and all(type(x) is int for x in ints + [x for v in words + stats for x in v])
            and payload["max_boxes"] >= 0
        )
    if not shaped:
        raise ValueError("graph file does not have the shape of a JSON export")
    n, rows, edge_rows = payload["n"], payload["nodes"], payload["edges"]
    ids = range(len(rows))
    problems = (
        (sorted(row["id"] for row in rows) != list(ids), "node ids are not 0..N-1, each once"),
        (any(row[key] not in ids for row in edge_rows for key in ("from", "to")),
         "an edge joins a node that is not in the file"),
        (any(not 0 <= row["i"] < n for row in edge_rows), "an edge residue is not in 0..n-1"),
        (any(not 0 <= i < n for row in rows for i in row["word"]), "a word letter is not in 0..n-1"),
        (len({(row["from"], row["i"]) for row in edge_rows}) != len(edge_rows),
         "two edges share a (from, i) pair"),
        (max([0] + [len(row["word"]) for row in rows]) != payload["depth"],
         "depth is not the longest word's length"),
    )
    for bad, message in problems:
        if bad:
            raise ValueError("graph file: %s" % message)
    nodes = [
        Node(
            id=row["id"],
            word=tuple(row["word"]),
            weight=tuple(row["weight"]),
            eps=tuple(row["eps"]),
            phi=tuple(row["phi"]),
        )
        for row in sorted(rows, key=lambda r: r["id"])
    ]
    edges = {(row["from"], row["i"]): row["to"] for row in edge_rows}
    return CrystalGraph(n, payload["depth"], payload["max_boxes"], nodes, edges)
