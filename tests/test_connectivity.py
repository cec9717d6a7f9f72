"""Connectivity graphs, degree and thickness scoring."""

import itertools
import random
from collections import Counter

import networkx as nx
import pytest

from fqec.connectivity import (
    ConnectivityGraph,
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
from oracles import greedy_thickness


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


class TestThicknessMatchesPlainGreedy:
    """The skipped planarity tests never change an accept/defer decision."""

    def test_random_graphs(self):
        rng = random.Random(2024)
        for _ in range(300):
            g = random_graph(rng)
            assert thickness_upper_bound(g) == greedy_thickness(g)

    @pytest.mark.parametrize(
        "name, expected",
        [("d1_nn_square", (3, 4)), ("d2_nn_square", (3, 4)),
         ("nnn_rank4", (6, 6)), ("triangular_rank2", (6, 6))],
    )
    def test_fixtures(self, name, expected):
        for t_prime, layers in zip((0.0, 1.0), expected):
            g = fixture_graph(name, t_prime)
            assert thickness_upper_bound(g) == greedy_thickness(g) == layers


class TestPlanarityCalls:
    @pytest.fixture
    def calls(self, monkeypatch):
        count = [0]
        check_planarity = nx.check_planarity

        def counting(*args, **kwargs):
            count[0] += 1
            return check_planarity(*args, **kwargs)

        monkeypatch.setattr(nx, "check_planarity", counting)
        return count

    def test_tree_needs_no_test(self, calls):
        rng = random.Random(5)
        edges = [(("q", rng.randrange(child)), ("q", child)) for child in range(1, 30)]
        assert thickness_upper_bound(graph_from_edges(edges)) == 1
        assert calls[0] == 0

    @pytest.mark.parametrize(
        # The plain greedy makes 137, 191, 1016 and 577 calls.
        "name, expected",
        [("d1_nn_square", 71), ("d2_nn_square", 116), ("nnn_rank4", 743),
         ("triangular_rank2", 407)],
    )
    def test_fixture_counts(self, calls, name, expected):
        thickness_upper_bound(fixture_graph(name, 0.0))
        assert calls[0] == expected


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
