"""Connectivity graphs, degree and thickness scoring."""

import itertools
import random
from collections import Counter

import networkx as nx
import pytest

from fqec import connectivity
from fqec.connectivity import (
    ConnectivityGraph,
    _is_planar,
    _layer_classes,
    _planar_layers,
    _planar_with_edge,
    build_graph,
    euler_thickness_bound,
    max_degree,
    node_name,
    thickness_upper_bound,
    to_adjacency,
    to_dot,
)
from fqec.fermion import HamiltonianSpec

from conftest import load_fixture
from oracles import greedy_layers


def graph_from_edges(edges):
    nodes = sorted({n for e in edges for n in e})
    g = ConnectivityGraph(data_nodes=list(nodes), ancilla_nodes=[])
    for u, v in edges:
        g.add_edge(u, v, "logical-term")
    return g


def complete_graph_edges(n):
    return [(("q", i), ("q", j)) for i, j in itertools.combinations(range(n), 2)]


def bipartite_edges(a, b):
    return [(("q", i), ("q", a + j)) for i in range(a) for j in range(b)]


class TestBuildGraph:
    def test_vc_one_ancilla_per_cell(self, vc_encoding):
        graph = build_graph(vc_encoding, HamiltonianSpec())
        assert len(graph.ancilla_nodes) == 9  # one stabilizer orbit, nine cells
        stab_weight = 8
        degree = Counter(n for edge in graph.edges for n in edge if n[0] == "s")
        assert degree == {ancilla: stab_weight for ancilla in graph.ancilla_nodes}

    def test_no_stabilizers_no_ancillas(self, jw_encoding):
        graph = build_graph(jw_encoding, HamiltonianSpec())
        assert graph.ancilla_nodes == []

    def test_chain_edges_for_logical_terms(self, jw_encoding):
        # The horizontal hop words have weight 2: each wrapped instance
        # contributes one chain edge between its two support slots.
        graph = build_graph(jw_encoding, HamiltonianSpec())
        logical_edges = [
            e for e, tags in graph.edges.items() if "logical-term" in tags
        ]
        assert logical_edges
        for (u, v) in logical_edges:
            assert u[0] == "q" and v[0] == "q"

    def test_deterministic(self, vc_encoding):
        a = build_graph(vc_encoding, HamiltonianSpec())
        b = build_graph(vc_encoding, HamiltonianSpec())
        assert a.edges == b.edges
        assert a.ancilla_nodes == b.ancilla_nodes

    def test_nnn_spec_adds_edges(self, vc_encoding):
        nn = build_graph(vc_encoding, HamiltonianSpec(t_prime=0.0))
        nnn = build_graph(vc_encoding, HamiltonianSpec(t_prime=0.5))
        assert len(nnn.edges) >= len(nn.edges)

    def test_no_self_loops(self, vc_encoding):
        graph = build_graph(vc_encoding, HamiltonianSpec())
        for u, v in graph.edges:
            assert u != v


class TestMaxDegree:
    def test_empty_graph(self):
        g = ConnectivityGraph(data_nodes=[("q", 0)], ancilla_nodes=[])
        assert max_degree(g) == 0

    def test_single_ancilla_weight_four(self):
        g = ConnectivityGraph(
            data_nodes=[("q", i) for i in range(4)], ancilla_nodes=[("s", 0, 0)]
        )
        for i in range(4):
            g.add_edge(("s", 0, 0), ("q", i), "stabilizer-readout")
        assert max_degree(g) == 4

    def test_triangle(self):
        g = graph_from_edges(complete_graph_edges(3))
        assert max_degree(g) == 2


class TestThickness:
    def test_trees_are_planar(self):
        rng = random.Random(17)
        for _ in range(10):
            n = rng.randint(2, 30)
            edges = []
            for child in range(1, n):
                parent = rng.randrange(child)
                edges.append((("q", parent), ("q", child)))
            assert thickness_upper_bound(graph_from_edges(edges)) == 1

    def test_planar_grid(self):
        edges = []
        for x in range(4):
            for y in range(4):
                if x < 3:
                    edges.append((("q", 4 * y + x), ("q", 4 * y + x + 1)))
                if y < 3:
                    edges.append((("q", 4 * y + x), ("q", 4 * (y + 1) + x)))
        assert thickness_upper_bound(graph_from_edges(edges)) == 1

    def test_k5_brute_force(self):
        # Oracle: K5 is non-planar but splits into two planar layers, so its
        # thickness is exactly 2; confirm by trying every 2-partition.
        edges = complete_graph_edges(5)
        assert not nx.check_planarity(nx.Graph(edges))[0]
        exists_two_partition = False
        for bits in range(1 << (len(edges) - 1)):
            part_a = [e for i, e in enumerate(edges) if (bits >> i) & 1]
            part_b = [e for i, e in enumerate(edges) if not (bits >> i) & 1]
            ok_a = not part_a or nx.check_planarity(nx.Graph(part_a))[0]
            ok_b = not part_b or nx.check_planarity(nx.Graph(part_b))[0]
            if ok_a and ok_b:
                exists_two_partition = True
                break
        assert exists_two_partition
        assert thickness_upper_bound(graph_from_edges(edges)) == 2

    def test_k33(self):
        assert thickness_upper_bound(graph_from_edges(bipartite_edges(3, 3))) == 2

    def test_edgeless_graph_is_planar(self):
        g = ConnectivityGraph(data_nodes=[("q", 0), ("q", 1)], ancilla_nodes=[])
        assert thickness_upper_bound(g) == 1

    def test_never_below_euler_bound(self):
        rng = random.Random(23)
        for _ in range(15):
            n = rng.randint(4, 12)
            all_edges = complete_graph_edges(n)
            edges = rng.sample(all_edges, rng.randint(n - 1, len(all_edges)))
            g = graph_from_edges(edges)
            assert thickness_upper_bound(g) >= euler_thickness_bound(g)


def fixture_graph(name, t_prime):
    return build_graph(load_fixture(f"{name}.json"), HamiltonianSpec(t_prime=t_prime))


def random_graph(rng):
    n = rng.randint(3, 30)
    density = rng.uniform(0.05, 0.6)
    edges = [e for e in complete_graph_edges(n) if rng.random() < density]
    return graph_from_edges(edges)


def graph_of(graph):
    return graph_from_edges([(("q", a), ("q", b)) for a, b in graph.edges])


def with_chords(graph, rng, most):
    nodes = list(graph)
    for _ in range(rng.randint(0, most)):
        graph.add_edge(*rng.sample(nodes, 2))
    return graph


def series_parallel_with_chords(rng):
    """A random series-parallel graph (each step subdivides an edge, adds a
    two-edge path beside it or hangs a vertex on it), plus chords."""
    graph = nx.Graph([(0, 1)])
    for w in range(2, rng.randint(4, 24)):
        a, b = rng.choice(list(graph.edges))
        step = rng.random()
        if step < 0.4:
            graph.remove_edge(a, b)
        if step < 0.8:
            graph.add_edges_from([(a, w), (w, b)])
        else:
            graph.add_edge(rng.choice((a, b)), w)
    return graph_of(with_chords(graph, rng, 5))


def kuratowski_with_chords(rng):
    """A subdivided K5 or K3,3 with pendant trees, plus chords."""
    base = rng.choice((nx.complete_graph(5), nx.complete_bipartite_graph(3, 3)))
    return graph_of(with_chords(subdivided(base, rng), rng, 4))


def cubic_with_chords(rng):
    graph = nx.random_regular_graph(3, 2 * rng.randint(2, 9), seed=rng.randrange(2**32))
    return graph_of(with_chords(graph, rng, 5))


def piece_kinds(classes):
    """Count the pieces of one layer state by their number of attachments
    (0 for a component with no core vertex), and the parallel pieces."""
    core, piece, cls = classes
    pieces = {id(members): cls[members[0]] for members in piece.values() if members}
    per_class = Counter(pieces.values())
    kinds = Counter(len(key) if key <= core.keys() else 0 for key in pieces.values())
    kinds["parallel"] = sum(n for n in per_class.values() if n > 1)
    return kinds


class TestThicknessMatchesPlainGreedy:
    """The skipped planarity tests never change an accept/defer decision:
    every layer's edge list is the plain greedy's."""

    def test_random_graphs(self):
        rng = random.Random(2024)
        for _ in range(300):
            g = random_graph(rng)
            layers = greedy_layers(g)
            assert _planar_layers(g) == layers
            assert thickness_upper_bound(g) == max(len(layers), 1)

    @pytest.mark.parametrize(
        "family, count",
        [(series_parallel_with_chords, 150), (kuratowski_with_chords, 100),
         (cubic_with_chords, 100)],
        ids=["series_parallel", "kuratowski", "cubic"],
    )
    def test_graph_families(self, monkeypatch, family, count):
        # Each family reaches pieces with no, one and two attachments, and
        # parallel pieces (two pieces with one class).
        seen = Counter()
        layer_classes = connectivity._layer_classes

        def tallying(adj):
            classes = layer_classes(adj)
            seen.update(piece_kinds(classes))
            return classes

        monkeypatch.setattr(connectivity, "_layer_classes", tallying)
        rng = random.Random(family.__name__)
        for _ in range(count):
            g = family(rng)
            assert _planar_layers(g) == greedy_layers(g)
        assert all(seen[kind] for kind in (0, 1, 2, "parallel")), seen

    @pytest.mark.parametrize(
        "name, expected",
        [("d1_nn_square", (3, 4)), ("d2_nn_square", (3, 4)),
         ("nnn_rank4", (6, 6)), ("triangular_rank2", (6, 6))],
    )
    def test_fixtures(self, name, expected):
        for t_prime, count in zip((0.0, 1.0), expected):
            g = fixture_graph(name, t_prime)
            layers = greedy_layers(g)
            assert _planar_layers(g) == layers
            assert thickness_upper_bound(g) == len(layers) == count


class TestLayerClasses:
    """The lemma of the module docstring against ``nx.check_planarity``, on
    every non-adjacent pair of one component of random planar layers."""

    def test_classes_decide_planarity(self):
        rng = random.Random(31)
        families = (series_parallel_with_chords, kuratowski_with_chords, cubic_with_chords)
        pairs = Counter()
        for i in range(30):
            for layer in _planar_layers(families[i % 3](rng)):
                adj = {}
                for u, v in layer:
                    adj.setdefault(u, set()).add(v)
                    adj.setdefault(v, set()).add(u)
                core, piece, cls = _layer_classes(adj)
                for key in set(cls.values()):
                    if key <= core.keys() and len(key) == 2:
                        a, b = key
                        assert b in core[a]  # two attachments are adjacent in the core
                    assert len(key) <= 2 or not key <= core.keys()
                graph = nx.Graph(layer)
                answers = {}
                for component in nx.connected_components(graph):
                    for x, y in itertools.combinations(sorted(component), 2):
                        if graph.has_edge(x, y):
                            continue
                        graph.add_edge(x, y)
                        planar = nx.check_planarity(graph)[0]
                        graph.remove_edge(x, y)
                        cx, cy = cls[x], cls[y]
                        if cx <= cy or cy <= cx:
                            assert planar
                            pairs["contained"] += 1
                        else:
                            assert _planar_with_edge(core, piece, adj, x, y) == planar
                            pairs[planar] += 1
                        assert answers.setdefault((cx, cy), planar) == planar
                        answers[cy, cx] = planar
                # A rejection holds for every pair whose classes contain its own.
                for (a, b), planar in answers.items():
                    if not planar:
                        larger = [(c, d) for c, d in answers if a <= c and b <= d]
                        assert not any(answers[key] for key in larger)
                        pairs["larger"] += len(larger) > 1
        assert min(pairs[key] for key in ("contained", False, True)) > 500, pairs
        assert pairs["larger"] > 100, pairs


class TestPlanarityCalls:
    @pytest.fixture
    def calls(self, monkeypatch):
        count = [0]
        is_planar = connectivity._is_planar

        def counting(adj):
            count[0] += 1
            return is_planar(adj)

        monkeypatch.setattr(connectivity, "_is_planar", counting)
        return count

    def test_tree_needs_no_test(self, calls):
        rng = random.Random(5)
        edges = [(("q", rng.randrange(child)), ("q", child)) for child in range(1, 30)]
        assert thickness_upper_bound(graph_from_edges(edges)) == 1
        assert calls[0] == 0

    @pytest.mark.parametrize(
        # The plain greedy makes 137, 191, 1016 and 577 calls.
        "name, expected",
        [("d1_nn_square", 53), ("d2_nn_square", 84), ("nnn_rank4", 267),
         ("triangular_rank2", 165)],
    )
    def test_fixture_counts(self, calls, name, expected):
        thickness_upper_bound(fixture_graph(name, 0.0))
        assert calls[0] == expected


def adjacency(graph):
    return {v: set(graph[v]) for v in graph}


def subdivided(base, rng):
    """``base`` with each edge a path of 1-4 edges, pendant vertices hung on
    it and the vertices relabelled at random."""
    graph = nx.Graph()
    fresh = itertools.count(len(base))
    for a, b in base.edges:
        nx.add_path(graph, [a, *(next(fresh) for _ in range(rng.randint(0, 3))), b])
    for _ in range(rng.randint(0, 6)):
        graph.add_edge(rng.choice(list(graph)), next(fresh))
    labels = rng.sample(range(len(graph)), len(graph))
    return nx.relabel_nodes(graph, dict(zip(graph, labels)))


def stacked_triangulation(n, rng):
    """A maximal planar graph: each new vertex is joined to a random face."""
    graph = nx.Graph([(0, 1), (1, 2), (2, 0)])
    faces = [(0, 1, 2), (0, 1, 2)]
    for v in range(3, n):
        a, b, c = faces.pop(rng.randrange(len(faces)))
        graph.add_edges_from([(v, a), (v, b), (v, c)])
        faces += [(a, b, v), (b, c, v), (a, c, v)]
    return graph


class TestIsPlanarMatchesNetworkx:
    """The left-right kernel against ``nx.check_planarity``."""

    def test_random_graphs(self):
        # Sparse, middling and dense graphs on up to 12 vertices, and
        # disjoint unions of two middling ones.
        rng = random.Random(16)
        seen = Counter()
        for i in range(20000):
            kind = i % 4
            sizes = [rng.randint(1, 12)] if kind < 3 else [rng.randint(1, 9), rng.randint(1, 9)]
            density = rng.uniform(*((0.05, 0.3), (0.3, 0.6), (0.6, 1.0), (0.3, 0.7))[kind])
            adj = {}
            for n in sizes:
                vertices = range(len(adj), len(adj) + n)
                adj.update((v, set()) for v in vertices)
                for a, b in itertools.combinations(vertices, 2):
                    if rng.random() < density:
                        adj[a].add(b)
                        adj[b].add(a)
            graph = nx.Graph(adj)
            want = nx.check_planarity(graph)[0]
            assert _is_planar(adj) == want, adj
            seen[want, nx.is_connected(graph)] += 1
            seen["within Euler's bound"] += not want and graph.size() <= 3 * len(graph) - 6
        assert min(seen[key] for key in itertools.product((False, True), repeat=2)) > 1000
        assert seen["within Euler's bound"] > 1000, seen

    def test_subdivisions_of_k5_and_k33(self):
        rng = random.Random(5)
        for base in (nx.complete_graph(5), nx.complete_bipartite_graph(3, 3)):
            for _ in range(200):
                graph = subdivided(base, rng)
                assert not _is_planar(adjacency(graph))
                assert not nx.check_planarity(graph)[0]
                # K5 and K3,3 less one edge are planar, and so are their subdivisions.
                smaller = base.copy()
                smaller.remove_edge(*rng.choice(list(base.edges)))
                graph = subdivided(smaller, rng)
                assert _is_planar(adjacency(graph))
                assert nx.check_planarity(graph)[0]

    def test_grids_and_wheels(self):
        rng = random.Random(9)
        for rows in range(2, 9):
            for cols in range(2, 9):
                grid = nx.grid_2d_graph(rows, cols)
                assert _is_planar(adjacency(grid))
                for _ in range(3):  # a chord may cross the grid
                    chorded = grid.copy()
                    a, b = rng.sample(list(grid), 2)
                    chorded.add_edge(a, b)
                    assert _is_planar(adjacency(chorded)) == nx.check_planarity(chorded)[0]
        for n in range(4, 40):
            wheel = nx.wheel_graph(n)
            assert _is_planar(adjacency(wheel))
            rim_chord = wheel.copy()
            rim_chord.add_edge(1, n // 2 + 1)
            assert _is_planar(adjacency(rim_chord)) == nx.check_planarity(rim_chord)[0]

    def test_maximal_planar_graphs(self):
        rng = random.Random(11)
        for _ in range(300):
            graph = stacked_triangulation(rng.randint(3, 40), rng)
            assert graph.number_of_edges() == 3 * len(graph) - 6
            assert _is_planar(adjacency(graph))
            # Swap one edge for another: still planar only if it fits a face.
            graph.remove_edge(*rng.choice(list(graph.edges)))
            absent = [e for e in itertools.combinations(graph, 2) if not graph.has_edge(*e)]
            graph.add_edge(*rng.choice(absent))
            assert _is_planar(adjacency(graph)) == nx.check_planarity(graph)[0]

    @pytest.mark.parametrize("name", ["d1_nn_square", "d2_nn_square", "nnn_rank4", "triangular_rank2"])
    def test_every_core_of_the_fixtures(self, monkeypatch, name):
        cores = []
        is_planar = connectivity._is_planar

        def capturing(adj):
            cores.append({v: set(nbrs) for v, nbrs in adj.items()})
            return is_planar(adj)

        monkeypatch.setattr(connectivity, "_is_planar", capturing)
        for t_prime in (0.0, 1.0):
            thickness_upper_bound(fixture_graph(name, t_prime))
        assert cores
        for core in cores:
            assert is_planar(core) == nx.check_planarity(nx.Graph(core))[0]


class TestExports:
    def test_dot_contains_all_nodes(self, vc_encoding):
        graph = build_graph(vc_encoding, HamiltonianSpec())
        dot = to_dot(graph)
        assert dot.startswith("graph connectivity {")
        for node in graph.ancilla_nodes:
            assert f'"{node_name(node)}"' in dot

    def test_adjacency_round_shape(self, vc_encoding):
        graph = build_graph(vc_encoding, HamiltonianSpec())
        adj = to_adjacency(graph)
        assert set(adj) == {"nodes", "edges"}
        assert len(adj["edges"]) == len(graph.edges)
        names = set(adj["nodes"])
        for edge in adj["edges"]:
            assert edge["a"] in names and edge["b"] in names
            assert edge["provenance"]
