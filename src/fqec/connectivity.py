"""Qubit-connectivity graphs demanded by an encoding, and their scoring.

The hardware for a translationally invariant encoding repeats per unit
cell, so the graph is built on the 3x3 window with periodic identification:
every stabilizer orbit contributes one ancilla per cell, wired to the
wrapped support of that translate, and every Hamiltonian logical term
threads a chain through its (wrapped) support slots in slot order.  A chain
is the minimal connectivity for a CNOT-ladder implementation of a Pauli
exponential; a clique would wildly overstate hardware needs.

Graph thickness is NP-hard, so it is reported as a greedy upper bound: the
number of planar layers extracted by inserting edges, in a deterministic
order, into the current layer whenever planarity survives.  Three exact
rules decide most edges without testing the whole layer, so the layers are
those of one ``nx.check_planarity`` call per edge:

* A bridge, an edge between two components of the layer, is accepted
  untested: the blocks of the layer are unchanged and the bridge is a
  block of its own, and a graph is planar iff its blocks are.
* Any other edge is tested on the core of the layer plus the edge: delete
  vertices of degree at most 1 and smooth vertices of degree 2 (a parallel
  edge that results collapses) until none is left.  Some subdivision of
  the core is a subgraph of the graph, so a non-planar core means a
  non-planar graph; and an embedding of the core extends back, by putting
  each smoothed vertex on its edge (or on a copy drawn beside it) and each
  deleted vertex next to its neighbour.  So the core is planar iff the
  graph is.
* A core of at most 8 edges is accepted untested: K3,3, the smallest
  non-planar graph, has 9.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import networkx as nx

from . import fermion, lattice
from .fermion import HamiltonianSpec
from .lattice import CENTER, WINDOW

if TYPE_CHECKING:  # pragma: no cover
    from .encoding import EncodingCandidate

Node = tuple  # ("q", slot) for data qubits, ("s", stab index, cell index) for ancillas

STABILIZER_READOUT = "stabilizer-readout"
LOGICAL_TERM = "logical-term"


@dataclass
class ConnectivityGraph:
    data_nodes: list[Node]
    ancilla_nodes: list[Node]
    edges: dict[tuple[Node, Node], set[str]] = field(default_factory=dict)

    def add_edge(self, u: Node, v: Node, provenance: str) -> None:
        if u == v:
            raise ValueError("self-loops are not allowed")
        key = (u, v) if u <= v else (v, u)
        self.edges.setdefault(key, set()).add(provenance)

    @property
    def nodes(self) -> list[Node]:
        return self.data_nodes + self.ancilla_nodes


def node_name(node: Node) -> str:
    if node[0] == "q":
        return f"q{node[1]}"
    return f"s{node[1]}c{node[2]}"


def _wrapped_slots(support: int, shift: tuple[int, int], layout) -> list[int]:
    """Slots of a support mask translated by ``shift`` with periodic wrap."""
    out = []
    for slot in range(layout.n_slots):
        if support >> slot & 1:
            (x, y), local = lattice.cell_of(slot, layout)
            cell = ((x + shift[0]) % WINDOW, (y + shift[1]) % WINDOW)
            out.append(lattice.slot_of(cell, local, layout))
    return sorted(set(out))


def _term_words(enc: "EncodingCandidate", spec: HamiltonianSpec) -> list[tuple[int, int]]:
    """(x, z) masks of the Pauli words the hardware must implement.

    Every word of each orbit in ``fermion.term_orbits`` (the NNN hops only
    when t' is nonzero), identity words dropped and each word once: both
    words of each hop orbit, and the on-site word (for duplicated-grid
    schemes, the per-copy vertex factor).
    """
    layout = enc.layout
    masks = fermion.generator_masks(enc)
    words: list[tuple[int, int]] = []
    for orbit in fermion.term_orbits(layout):
        if orbit.nnn and spec.t_prime == 0.0:
            continue
        for word in fermion.term_masks(orbit, masks, layout.qubits_per_cell):
            if word not in words and word != (0, 0):
                words.append(word)
    return words


def build_graph(enc: "EncodingCandidate", spec: HamiltonianSpec) -> ConnectivityGraph:
    """Connectivity graph with stabilizer-readout ancillas and logical-term chains."""
    from .encoding import derive_stabilizers

    layout = enc.layout
    stabs = enc.stabilizer_generators
    if stabs is None:
        stabs = derive_stabilizers(enc)
    data = [("q", slot) for slot in range(layout.n_slots)]
    graph = ConnectivityGraph(data_nodes=data, ancilla_nodes=[])

    shifts = [(cx - CENTER[0], cy - CENTER[1]) for cx in range(WINDOW) for cy in range(WINDOW)]
    for si, stab in enumerate(stabs):
        for ci, shift in enumerate(shifts):
            ancilla = ("s", si, ci)
            graph.ancilla_nodes.append(ancilla)
            for slot in _wrapped_slots(stab.support, shift, layout):
                graph.add_edge(ancilla, ("q", slot), STABILIZER_READOUT)

    for x, z in _term_words(enc, spec):
        for shift in shifts:
            slots = _wrapped_slots(x | z, shift, layout)
            for a, b in zip(slots, slots[1:]):
                graph.add_edge(("q", a), ("q", b), LOGICAL_TERM)
    return graph


def max_degree(g: ConnectivityGraph) -> int:
    """Highest number of connections demanded of any data or ancilla qubit."""
    degrees: dict[Node, int] = {}
    for u, v in g.edges:
        degrees[u] = degrees.get(u, 0) + 1
        degrees[v] = degrees.get(v, 0) + 1
    return max(degrees.values(), default=0)


def euler_thickness_bound(g: ConnectivityGraph) -> int:
    """ceil(|E| / (3|V| - 6)), the planar-capacity lower bound on thickness."""
    n_vertices = len(g.nodes)
    n_edges = len(g.edges)
    if n_vertices < 3 or n_edges == 0:
        return 1 if n_edges else 0
    return math.ceil(n_edges / (3 * n_vertices - 6))


def _core(adj: dict[Node, set[Node]]) -> dict[Node, set[Node]]:
    """Reduce ``adj`` in place to its core and return it.

    Vertices of degree at most 1 are deleted, and each degree-2 vertex is
    replaced by an edge between its two neighbours (a parallel edge
    collapses), until every remaining vertex has degree 3 or more.
    """
    stack = [v for v, nbrs in adj.items() if len(nbrs) <= 2]
    while stack:
        w = stack.pop()
        nbrs = adj.get(w)
        if nbrs is None or len(nbrs) > 2:
            continue
        del adj[w]
        for n in nbrs:
            adj[n].discard(w)
            stack.append(n)
        if len(nbrs) == 2:
            a, b = nbrs
            adj[a].add(b)
            adj[b].add(a)
    return adj


# K3,3, the smallest non-planar graph, has 9 edges.
_SMALL_CORE_EDGES = 8


def _core_is_planar(adj: dict[Node, set[Node]]) -> bool:
    core = _core({v: set(nbrs) for v, nbrs in adj.items()})
    edges = [(u, v) for u, nbrs in core.items() for v in nbrs if u < v]
    if len(edges) <= _SMALL_CORE_EDGES:
        return True
    graph = nx.Graph(edges)
    ok, _ = nx.check_planarity(graph)
    # check_planarity caches an edge view on the graph, a reference cycle that
    # only the cyclic collector would free; emptying the graph frees its
    # adjacency at once.
    graph.clear()
    return ok


def _find(parent: dict[Node, Node], x: Node) -> Node:
    """Root of ``x`` in a union-find forest where roots have no entry."""
    root = x
    while root in parent:
        root = parent[root]
    while x != root:
        nxt = parent[x]
        parent[x] = root
        x = nxt
    return root


def thickness_upper_bound(g: ConnectivityGraph) -> int:
    """Greedy planar decomposition; 1 iff the graph is planar.

    Edges are taken in sorted order; each layer keeps every edge whose
    insertion leaves the layer planar, and remaining edges seed the next
    layer.  The layer count upper-bounds the true thickness.

    Each accept/defer decision is that of testing the whole layer plus the
    edge, but the tests whose answer is known are skipped (see the module
    docstring for why each rule is exact): an edge between two components
    of the layer, kept in a union-find, is accepted untested; any other
    edge is tested on the core of the layer plus the edge (``_core``); and
    a core of at most 8 edges is accepted untested.
    """
    remaining = sorted(g.edges)
    if not remaining:
        return 1  # edgeless graphs are planar
    layers = 0
    while remaining:
        adj: dict[Node, set[Node]] = {}
        parent: dict[Node, Node] = {}
        deferred = []
        for u, v in remaining:
            ru, rv = _find(parent, u), _find(parent, v)
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
            if ru != rv:
                parent[ru] = rv
            elif not _core_is_planar(adj):
                adj[u].discard(v)
                adj[v].discard(u)
                deferred.append((u, v))
        remaining = deferred
        layers += 1
    bound = euler_thickness_bound(g)
    if layers < bound:
        raise AssertionError(
            f"greedy thickness {layers} below the Euler lower bound {bound}"
        )
    return layers


def to_adjacency(g: ConnectivityGraph) -> dict:
    """Standard adjacency JSON form: node list plus tagged edge list."""
    return {
        "nodes": [node_name(n) for n in g.nodes],
        "edges": [
            {
                "a": node_name(u),
                "b": node_name(v),
                "provenance": sorted(tags),
            }
            for (u, v), tags in sorted(g.edges.items())
        ],
    }


def to_dot(g: ConnectivityGraph) -> str:
    """DOT text for external rendering; ancillas drawn as boxes."""
    lines = ["graph connectivity {"]
    for node in g.data_nodes:
        lines.append(f'  "{node_name(node)}";')
    for node in g.ancilla_nodes:
        lines.append(f'  "{node_name(node)}" [shape=box];')
    for (u, v), tags in sorted(g.edges.items()):
        label = ",".join(sorted(tags))
        lines.append(f'  "{node_name(u)}" -- "{node_name(v)}" [kind="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
