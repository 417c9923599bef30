import gc
import json
import weakref

import pytest

from mayacrystal import datum
from mayacrystal.datum import CartanData, CrystalDatum
from mayacrystal.graph import (
    CrystalGraph,
    Node,
    box,
    check_axioms,
    check_words,
    default_max_boxes,
    explore,
    export,
    kostant,
    lattice_points,
    load_json,
    positive_roots,
    weight_census,
)
from reference import explore_every_child, kostant_brute


class TestExplore:
    def test_depth_zero(self):
        g = explore(CartanData(2), 0)
        assert len(g.nodes) == 1
        assert g.nodes[0].word == ()
        assert g.nodes[0].weight == (0, 0)

    def test_depth_one_n2(self):
        g = explore(CartanData(2), 1)
        assert len(g.nodes) == 3

    def test_depth_one_n3(self):
        g = explore(CartanData(3), 1)
        assert len(g.nodes) == 4

    @pytest.mark.parametrize("n, depth", [(2, 6), (3, 4), (4, 3)])
    def test_ids_are_discovery_order(self, n, depth):
        # the root is node 0 and ids follow the stored words in shortlex
        # order; fingerprints only detect duplicates, so windows that merge
        # the same elements give the same nodes and edges
        cartan = CartanData(n)
        g = explore(cartan, depth)
        assert g.nodes[0].word == ()
        keys = [(len(node.word), node.word) for node in g.nodes]
        assert keys == sorted(keys)
        for window in (default_max_boxes(n, depth) + 2, 2 * n):
            other = explore(cartan, depth, window)
            assert other.nodes == g.nodes
            assert other.edges == g.edges

    @pytest.mark.parametrize("n, depth, window", [
        # the census cells, at the default window and two boxes wider
        (2, 6, None), (2, 6, 16), (3, 5, None), (3, 5, 20), (4, 4, None), (4, 4, 22),
        # windows that merge distinct elements, and one box wider
        (2, 8, 8), (2, 8, 9), (3, 7, 5), (3, 7, 6),
        # the smallest passing windows, where the statistics do most of
        # the separating
        (3, 6, 2), (4, 5, 2),
    ])
    def test_equals_fingerprinting_every_child(self, n, depth, window, monkeypatch):
        # the last level keys a child whose statistics no other child
        # shares without a table; equal keys need equal statistics, so the
        # merges and the numbering are those of keying every child by its
        # table
        cartan = CartanData(n)
        expected = explore_every_child(cartan, depth, window)
        calls = []
        fingerprint = CrystalDatum.fingerprint

        def counting(self, *args):
            calls.append(self.word)
            return fingerprint(self, *args)

        monkeypatch.setattr(CrystalDatum, "fingerprint", counting)
        assert explore(cartan, depth, window) == expected
        last = [word for word in calls if len(word) == depth]
        assert len(last) < n * sum(len(node.word) == depth - 1 for node in expected.nodes)

    @pytest.mark.parametrize("n, depth, window", [
        (2, 6, None), (2, 8, 9), (3, 5, None), (3, 6, None), (4, 4, None),
    ])
    def test_equals_full_window(self, n, depth, window):
        # keying children by their tables over the box window, the
        # partitions that fit in an a x b box with ab <= window, merges
        # the same elements, with the same numbering, as keying them by
        # their tables over every diagram of at most window boxes
        cartan = CartanData(n)
        expected = explore_every_child(cartan, depth, window, full_window=True)
        assert explore(cartan, depth, window) == expected

    @pytest.mark.parametrize("n, depth, window, fills", [
        (2, 6, 14, 92), (3, 5, 18, 228), (4, 4, 20, 200),
    ])
    def test_one_block_fill_per_fingerprinted_child(self, n, depth, window, fills, monkeypatch):
        # the census cells at their default windows: the Dynkin rotation
        # maps each level onto itself, so a level memo fills each (parent
        # block, index entry, coeff) once, one block per fingerprinted child
        # where n blocks each were filled without it
        calls = []
        fill = datum._fill

        def counting(block, pairs, coeff):
            calls.append(coeff)
            return fill(block, pairs, coeff)

        monkeypatch.setattr(datum, "_fill", counting)
        explore(CartanData(n), depth, window)
        assert len(calls) == fills

    @staticmethod
    def record_children(monkeypatch):
        """Every child ``explore`` builds, in order: it reads each one's
        statistics once, so a wrapper around ``statistics`` sees them all."""
        seen = []
        statistics = CrystalDatum.statistics

        def recording(self):
            seen.append(self)
            return statistics(self)

        monkeypatch.setattr(CrystalDatum, "statistics", recording)
        return seen

    @pytest.mark.parametrize("n, depth", [(2, 6), (3, 5), (4, 4)])
    def test_one_representative_per_orbit(self, n, depth, monkeypatch):
        # rotating a word's letters by k gives an orbit of n words; apply
        # keeps one representative per orbit, the member whose word starts
        # with 0, and builds it once: the constructor runs once for the
        # root and once per orbit of each level's words
        seen = self.record_children(monkeypatch)
        built = []
        init = CrystalDatum.__init__

        def counting(self, *args):
            built.append(self)
            init(self, *args)

        monkeypatch.setattr(CrystalDatum, "__init__", counting)
        explore(CartanData(n), depth)
        orbits = 0
        for height in range(1, depth + 1):
            level = [d for d in seen if len(d.word) == height]
            reps = {}
            for d in level:
                rep = d._rep or d
                lead = tuple((i - d.word[0]) % n for i in d.word)
                assert rep.word == lead and rep._rep is None
                assert reps.setdefault(lead, rep) is rep
                assert d._shift == d.word[0] and d.letter == (rep.letter + d._shift) % n
            assert len(reps) < len(level)
            orbits += len(reps)
        assert len(built) == 1 + orbits

    @pytest.mark.parametrize("n, depth", [(2, 6), (3, 5), (4, 4)])
    def test_statistics_once_per_child(self, n, depth, monkeypatch):
        # the last level's count of shared statistics and the dedup keys
        # reuse one statistics() call per child
        seen = self.record_children(monkeypatch)
        g = explore(CartanData(n), depth)
        assert len(seen) == len({id(d) for d in seen}) == 1 + len(g.edges)

    def test_deduped_children_are_freed(self, monkeypatch):
        # a child holds its parent and the level memo the level's
        # representatives until the level is done, so after explore nothing
        # of it is left alive, even with the cycle collector off: every
        # datum is freed when its last reference goes, a child that dedups
        # away among them
        refs = []
        statistics = CrystalDatum.statistics

        def referencing(self):
            refs.extend((weakref.ref(self), weakref.ref(self._rep or self)))
            return statistics(self)

        monkeypatch.setattr(CrystalDatum, "statistics", referencing)
        gc.disable()
        try:
            g = explore(CartanData(3), 4)
            assert len(g.nodes) < len(refs) // 2 == 1 + len(g.edges)
            assert [ref for ref in refs if ref() is not None] == []
        finally:
            gc.enable()

    @pytest.mark.parametrize("n, depth", [(2, 8), (3, 6), (4, 5)])
    def test_level_memo_is_freed_with_its_level(self, n, depth, monkeypatch):
        # a level's memo holds every representative built for that level,
        # so it must be freed before the level after next is grown: when
        # the first child of level h + 2 is built, a representative of
        # level h may be alive only if a stored node of level h needs it,
        # the node's word rotated to start with 0
        built = []  # (word, weakref) of every representative, in order
        alive = {}  # h -> words of level h's representatives alive then
        init = CrystalDatum.__init__

        def checking(self, cartan, parent=None, letter=None):
            height = 0 if parent is None else len(parent.word) + 1
            if height >= 2 and height - 2 not in alive:
                alive[height - 2] = {
                    word for word, ref in built if len(word) == height - 2 and ref() is not None
                }
            init(self, cartan, parent, letter)
            built.append((self.word, weakref.ref(self)))

        monkeypatch.setattr(CrystalDatum, "__init__", checking)
        gc.disable()
        try:
            g = explore(CartanData(n), depth)
        finally:
            gc.enable()
        needed = {tuple((i - node.word[0]) % n for i in node.word) for node in g.nodes[1:]}
        needed.add(())
        assert sorted(alive) == list(range(depth - 1))
        assert all(alive[h] <= needed for h in alive)
        # some level h has representatives that no stored node needs, so a
        # memo that outlives its level shows
        assert any({word for word, _ in built if len(word) == h} - needed for h in alive)

    def test_negative_depth(self):
        with pytest.raises(ValueError):
            explore(CartanData(2), -1)

    def test_edges_total(self):
        g = explore(CartanData(2), 2)
        # every node expanded at depth < 2 has exactly n outgoing edges
        expanded = [node for node in g.nodes if len(node.word) < 2]
        assert len(g.edges) == 2 * len(expanded)

    def test_string_length_matches_eps(self):
        # eps_i is the length of the e_i-string, which lies inside the ball
        g = explore(CartanData(2), 3)
        predecessors = {}
        for (src, i), dst in g.edges.items():
            predecessors.setdefault((dst, i), []).append(src)
        for node in g.nodes:
            for i in range(2):
                length, current = 0, node.id
                while (current, i) in predecessors:
                    (current,) = predecessors[current, i]
                    length += 1
                assert length == node.eps[i]
        # raising every eps and phi by 1 keeps axioms i and iii; check_axioms
        # still flags it, at the string heads
        shifted = [
            Node(node.id, node.word, node.weight,
                 tuple(e + 1 for e in node.eps), tuple(p + 1 for p in node.phi))
            for node in g.nodes
        ]
        violations = check_axioms(CrystalGraph(g.n, g.depth, g.max_boxes, shifted, g.edges))
        assert violations
        assert all(line.startswith("string head") for line in violations)


class TestRecords:
    def test_node(self):
        node = Node(3, (0, 1), (-1, -1), (0, 1), (2, 1))
        assert node == Node(id=3, word=(0, 1), weight=(-1, -1), eps=(0, 1), phi=(2, 1))
        assert node != Node(3, (0, 1), (-1, -1), (0, 1), (2, 2))
        assert node != (3, (0, 1), (-1, -1), (0, 1), (2, 1))
        assert repr(node) == "Node(id=3, word=(0, 1), weight=(-1, -1), eps=(0, 1), phi=(2, 1))"
        with pytest.raises(TypeError):
            hash(node)
        node.word = (1, 0)
        assert node.word == (1, 0)

    def test_crystal_graph(self):
        g = explore(CartanData(2), 1)
        same = CrystalGraph(n=2, depth=1, max_boxes=g.max_boxes, nodes=list(g.nodes),
                            edges=dict(g.edges))
        assert g == same
        assert g != CrystalGraph(2, 1, g.max_boxes, g.nodes[:1], {})
        assert repr(g) == (
            "CrystalGraph(n=2, depth=1, max_boxes=%r, nodes=%r, edges=%r)"
            % (g.max_boxes, g.nodes, g.edges)
        )
        with pytest.raises(TypeError):
            hash(g)

    def test_a_subclass_is_never_equal(self):
        class Row(Node):
            __slots__ = ()

        class Graph(CrystalGraph):
            __slots__ = ()

        node = Node(0, (), (0, 0), (0, 0), (0, 0))
        assert node != Row(0, (), (0, 0), (0, 0), (0, 0))
        g = CrystalGraph(2, 0, 2, [node], {})
        assert g != Graph(2, 0, 2, [node], {})


class TestAxioms:
    def test_pass_small(self):
        for n, depth in ((2, 4), (3, 3)):
            g = explore(CartanData(n), depth)
            assert check_axioms(g) == []

    def test_negative_control(self):
        # rewiring one edge to a wrong target must be flagged
        g = explore(CartanData(2), 3)
        (src, i), dst = next(iter(sorted(g.edges.items())))
        wrong = (dst + 1) % len(g.nodes)
        if wrong == src:
            wrong = (wrong + 1) % len(g.nodes)
        broken_edges = dict(g.edges)
        broken_edges[(src, i)] = wrong
        broken = CrystalGraph(g.n, g.depth, g.max_boxes, g.nodes, broken_edges)
        assert check_axioms(broken)


def kostant_at(n, beta):
    """The Kostant count of beta, from one dynamic program over [0, beta]."""
    return kostant(n, box(n, beta))[tuple(beta)]


class TestKostant:
    def test_height_zero(self):
        assert kostant_at(2, (0, 0)) == 1

    def test_simple_roots(self):
        for beta in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
            assert kostant_at(3, beta) == 1

    def test_delta_n2(self):
        # alpha_0 + alpha_1 decomposes as the sum of the two real roots or
        # as one imaginary copy of delta (multiplicity n - 1 = 1): 2 ways
        assert kostant_at(2, (1, 1)) == 2

    def test_delta_n3(self):
        # {a0,a1,a2}, {a0,a1+a2}, {a1,a0+a2}, {a2,a0+a1}, plus two
        # distinguishable imaginary copies of delta: 6 ways
        assert kostant_at(3, (1, 1, 1)) == 6

    def test_invalid_beta(self):
        with pytest.raises(ValueError):
            box(2, (1, -1))
        with pytest.raises(ValueError):
            box(2, (1, 1, 1))

    def test_dp_matches_brute_force(self):
        for n in (2, 3):
            for beta in lattice_points(n, 5):
                assert kostant_at(n, beta) == kostant_brute(n, beta)

    @pytest.mark.parametrize("n, depth", [(2, 6), (3, 5), (4, 4), (5, 3)])
    def test_one_pass_over_lattice_points(self, n, depth):
        # verify's one dynamic program over every point it prints, which
        # lattice_points lists by height, gives each point's own box count
        points = lattice_points(n, depth)
        counts = kostant(n, points)
        assert list(counts) == points
        assert all(counts[beta] == kostant_at(n, beta) for beta in points)

    def test_box_lists_each_point_after_those_below(self):
        points = box(3, (2, 0, 1))
        assert len(points) == len(set(points)) == 6
        for k, v in enumerate(points):
            assert all(points.index(u) < k for u in points if u != v and
                       all(a <= b for a, b in zip(u, v)))

    def test_positive_roots_n2(self):
        roots = positive_roots(2, 4)
        assert roots.count((1, 1)) == 1  # delta once (multiplicity n - 1)
        assert (1, 0) in roots and (0, 1) in roots
        assert (2, 1) in roots and (1, 2) in roots
        assert all(sum(r) <= 4 for r in roots)

    def test_positive_roots_imaginary_multiplicity(self):
        roots = positive_roots(3, 6)
        assert roots.count((1, 1, 1)) == 2
        assert roots.count((2, 2, 2)) == 2

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_positive_roots_per_height(self, n):
        # n distinct real roots, whose coordinates differ by exactly 1, at each
        # height that n does not divide; n - 1 copies of (h/n)*delta otherwise
        roots = positive_roots(n, 4 * n)
        assert roots == sorted(roots)
        for height in range(1, 4 * n + 1):
            level = [r for r in roots if sum(r) == height]
            if height % n:
                assert len(set(level)) == len(level) == n
                assert all(max(r) - min(r) == 1 for r in level)
            else:
                assert level == [(height // n,) * n] * (n - 1)


class TestCensus:
    @staticmethod
    def census_matches_kostant(cartan, graph):
        census = weight_census(graph)
        points = lattice_points(cartan.n, graph.depth)
        counts = kostant(cartan.n, points)
        return all(census.get(beta, 0) == counts[beta] for beta in points)

    def test_matches_kostant_n2(self):
        cartan = CartanData(2)
        assert self.census_matches_kostant(cartan, explore(cartan, 4))

    def test_matches_kostant_n3(self):
        cartan = CartanData(3)
        assert self.census_matches_kostant(cartan, explore(cartan, 3))

    def test_matches_kostant_n4_depth5(self):
        cartan = CartanData(4)
        g = explore(cartan, 5)
        assert len(g.nodes) == 411
        assert check_axioms(g) == []
        assert self.census_matches_kostant(cartan, g)


class TestExport:
    def test_json_round_trip_bytes(self):
        g = explore(CartanData(2), 3)
        blob = export(g, "json")
        g2 = load_json(json.loads(blob))
        assert export(g2, "json") == blob

    def test_bytes_are_not_a_parsed_export(self):
        # the CLI parses the file first; unparsed bytes are refused
        blob = export(explore(CartanData(2), 3), "json")
        with pytest.raises(ValueError, match="shape of a JSON export"):
            load_json(blob)

    @pytest.mark.parametrize("n, depth", [(2, 5), (3, 4), (4, 3)])
    def test_load_json_rebuilds_explored_graph(self, n, depth):
        # an explored graph holds exactly the records its export stores
        g = explore(CartanData(n), depth)
        g2 = load_json(json.loads(export(g, "json")))
        assert g2.nodes == g.nodes
        assert g2.edges == g.edges
        assert (g2.n, g2.depth, g2.max_boxes) == (g.n, g.depth, g.max_boxes)

    @pytest.mark.parametrize("n, depth", [(2, 5), (3, 4), (4, 3)])
    def test_stored_words_give_stored_statistics(self, n, depth):
        g = load_json(json.loads(export(explore(CartanData(n), depth), "json")))
        assert check_words(g) == []
        # a node given another node's word keeps its own statistics
        # while the word gives the other node's
        a, b = g.nodes[1], g.nodes[-1]
        g.nodes[1] = Node(a.id, b.word, a.weight, a.eps, a.phi)
        violations = check_words(g)
        assert len(violations) == 1
        assert violations[0].startswith("word: node 1: ")

    @pytest.mark.parametrize("n, depth", [(2, 6), (3, 5), (4, 4)])
    def test_check_words_shares_orbits(self, n, depth, monkeypatch):
        # check_words applies each word's letters from one root through one
        # memo, so it builds each orbit representative once: the root and
        # the 0-led rotation of every prefix of a stored word or of an
        # edge's source word and residue
        g = load_json(json.loads(export(explore(CartanData(n), depth), "json")))
        words = [node.word for node in g.nodes]
        words += [g.nodes[src].word + (i,) for src, i in g.edges]
        leads = {tuple((i - w[0]) % n for i in w[:k]) for w in words for k in range(1, len(w) + 1)}
        built = []
        init = CrystalDatum.__init__

        def counting(self, *args):
            built.append(self)
            init(self, *args)

        monkeypatch.setattr(CrystalDatum, "__init__", counting)
        assert check_words(g) == []
        assert sorted(d.word for d in built) == sorted(leads | {()})

    def test_check_words_leaves_no_datum_alive(self, monkeypatch):
        # no datum holds a child, so with the cycle collector off every
        # representative and view that check_words builds is freed once it
        # returns
        g = load_json(json.loads(export(explore(CartanData(3), 4), "json")))
        refs = []
        init, rotated = CrystalDatum.__init__, CrystalDatum._rotated

        def referencing_init(self, *args):
            refs.append(weakref.ref(self))
            init(self, *args)

        def referencing_rotated(self, *args):
            view = rotated(self, *args)
            refs.append(weakref.ref(view))
            return view

        monkeypatch.setattr(CrystalDatum, "__init__", referencing_init)
        monkeypatch.setattr(CrystalDatum, "_rotated", referencing_rotated)
        gc.disable()
        try:
            assert check_words(g) == []
            assert len(refs) > len(g.nodes)
            assert [ref for ref in refs if ref() is not None] == []
        finally:
            gc.enable()

    def test_json_deterministic(self):
        a = export(explore(CartanData(2), 2), "json")
        b = export(explore(CartanData(2), 2), "json")
        assert a == b

    def test_dot_shape(self):
        g = explore(CartanData(2), 1)
        text = export(g, "dot").decode()
        assert text.startswith("digraph")
        assert text.count("->") == len(g.edges)

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            export(explore(CartanData(2), 0), "png")


def test_default_max_boxes():
    assert default_max_boxes(2, 6) == 14
    assert default_max_boxes(3, 4) == 15
    # n (depth + 1) until the n = 2 law's floor((depth - 2)^2 / 4) + 1
    # overtakes it: from depth 13 at n = 2 and from depth 17 at n = 3
    assert [default_max_boxes(2, depth) for depth in (11, 12, 13, 14, 16)] == [24, 26, 31, 37, 50]
    assert [default_max_boxes(3, depth) for depth in (16, 17, 18)] == [51, 57, 65]
    assert [default_max_boxes(4, depth) for depth in (0, 1, 2, 7)] == [4, 8, 12, 32]
    assert [default_max_boxes(5, depth) for depth in (4, 5)] == [25, 30]


def test_lattice_points_shape():
    points = lattice_points(2, 2)
    assert (0, 0) in points
    assert (2, 0) in points and (1, 1) in points
    assert len(points) == len(set(points))
    assert all(sum(p) <= 2 for p in points)
