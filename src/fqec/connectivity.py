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
those of one planarity test of the whole layer per edge:

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

The cores left are tested by ``_is_planar``, a left-right planarity test
that answers yes or no and builds no embedding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

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


def _is_planar(adj: dict[Node, set[Node]]) -> bool:
    """Whether the simple graph ``adj`` (dict of neighbour sets) is planar.

    Brandes's left-right planarity test ("The left-right planarity test",
    2009), which decides the Trémaux-tree criterion of de Fraysseix, Ossona
    de Mendez and Rosenstiehl ("Trémaux trees and planarity", IJFCS 17,
    2006) in linear time.  Vertices are mapped to ints and both passes walk
    int arrays with explicit stacks, so the depth of the graph's DFS tree
    never reaches Python's recursion limit.

    * The orientation pass runs a DFS that directs each tree edge away from
      the root and each back edge toward it, and gives every edge its
      lowpoint (height of the lowest return), second lowpoint and nesting
      depth.
    * The testing pass runs the DFS again, visiting each vertex's outgoing
      edges by nesting depth, and keeps the return edges of the processed
      subtrees as a stack of conflict pairs (two intervals of back edges that
      must lie on opposite sides, linked by ``ref`` chains).  Adding an edge's
      constraints merges the pairs it conflicts with; back edges are trimmed
      off the pairs when the DFS retreats past their endpoint.  The graph is
      planar iff no pair ever needs the same interval on both sides.

    Only the yes/no answer is kept: no side is fixed and no embedding is
    built.
    """
    index = {v: i for i, v in enumerate(adj)}
    n = len(index)
    nbrs = [[index[w] for w in ws] for ws in adj.values()]
    m = sum(map(len, nbrs)) // 2
    if n > 2 and m > 3 * n - 6:
        return False  # Euler's bound

    # Orientation pass.  Edge ids are given in the order the DFS directs the
    # edges; ``src``/``dst`` are their ends, ``parent_edge[v]`` the tree edge
    # into v (-1 at a root).
    height = [-1] * n
    parent_edge = [-1] * n
    src: list[int] = []
    dst: list[int] = []
    lowpt: list[int] = []
    lowpt2: list[int] = []
    out: list[list[int]] = [[] for _ in range(n)]

    def finish(ei: int) -> None:
        """Fold the final lowpoints of ``ei`` into its parent tree edge."""
        low = lowpt[ei]
        e = parent_edge[src[ei]]
        if e >= 0:
            if low < lowpt[e]:
                lowpt2[e] = min(lowpt[e], lowpt2[ei])
                lowpt[e] = low
            elif low > lowpt[e]:
                lowpt2[e] = min(lowpt2[e], low)
            else:
                lowpt2[e] = min(lowpt2[e], lowpt2[ei])

    pos = [0] * n
    for root in range(n):
        if height[root] >= 0:
            continue
        height[root] = 0
        stack = [root]
        while stack:
            v = stack[-1]
            hv = height[v]
            ws = nbrs[v]
            parent = src[parent_edge[v]] if parent_edge[v] >= 0 else -1
            i = pos[v]
            while i < len(ws):
                w = ws[i]
                i += 1
                hw = height[w]
                if hw >= 0 and (w == parent or hw > hv):
                    continue  # directed already, from the other end
                ei = len(src)
                src.append(v)
                dst.append(w)
                lowpt2.append(hv)
                out[v].append(ei)
                if hw < 0:  # tree edge
                    lowpt.append(hv)
                    parent_edge[w] = ei
                    height[w] = hv + 1
                    stack.append(w)
                    break
                lowpt.append(hw)  # back edge
                finish(ei)
            else:
                stack.pop()
                if parent_edge[v] >= 0:
                    finish(parent_edge[v])
            pos[v] = i

    # Testing pass.  A conflict pair is [left low, left high, right low,
    # right high], each a back edge or -1 for none; an interval is empty
    # when both its ends are -1.  ``bottom[ei]`` is the pair that topped the
    # stack when the DFS entered ``ei``.  ``ref`` has one spare slot at the
    # end, so the writes through a missing interval end (-1) land there.
    def nesting_depth(ei: int) -> int:
        return 2 * lowpt[ei] + (lowpt2[ei] < height[src[ei]])

    ordered = [sorted(es, key=nesting_depth) for es in out]
    ref = [-1] * (m + 1)
    lowpt_edge = [-1] * m
    bottom: list = [None] * m
    pairs: list[list[int]] = []

    def add_constraints(ei: int, e: int) -> bool:
        """Merge the return edges of ``ei`` and those they conflict with."""
        left_low = left_high = right_low = right_high = -1
        while True:
            ll, lh, rl, rh = pairs.pop()
            if ll >= 0 or lh >= 0:
                ll, lh, rl, rh = rl, rh, ll, lh
            if ll >= 0 or lh >= 0:
                return False
            if lowpt[rl] > lowpt[e]:
                if right_low < 0 and right_high < 0:
                    right_high = rh
                else:
                    ref[right_low] = rh
                right_low = rl
            else:
                ref[rl] = lowpt_edge[e]
            if (pairs[-1] if pairs else None) is bottom[ei]:
                break
        low = lowpt[ei]
        while pairs:
            ll, lh, rl, rh = pairs[-1]
            left_conflict = (ll >= 0 or lh >= 0) and lowpt[lh] > low
            right_conflict = (rl >= 0 or rh >= 0) and lowpt[rh] > low
            if not (left_conflict or right_conflict):
                break
            pairs.pop()
            if right_conflict:
                ll, lh, rl, rh = rl, rh, ll, lh
                if left_conflict:
                    return False
            ref[right_low] = rh
            if rl >= 0:
                right_low = rl
            if left_low < 0 and left_high < 0:
                left_high = lh
            else:
                ref[left_low] = lh
            left_low = ll
        if left_low >= 0 or left_high >= 0 or right_low >= 0 or right_high >= 0:
            pairs.append([left_low, left_high, right_low, right_high])
        return True

    def remove_back_edges(e: int) -> None:
        """Trim the back edges that end at the tail of tree edge ``e``."""
        u = src[e]
        hu = height[u]
        while pairs:
            ll, lh, rl, rh = pairs[-1]
            if ll < 0 and lh < 0:
                lowest = lowpt[rl]
            elif rl < 0 and rh < 0:
                lowest = lowpt[ll]
            else:
                lowest = min(lowpt[ll], lowpt[rl])
            if lowest != hu:
                break
            pairs.pop()
        if pairs:
            pair = pairs[-1]
            ll, lh, rl, rh = pair
            while lh >= 0 and dst[lh] == u:
                lh = ref[lh]
            if lh < 0 and ll >= 0:
                ref[ll] = rl
                ll = -1
            while rh >= 0 and dst[rh] == u:
                rh = ref[rh]
            if rh < 0 and rl >= 0:
                ref[rl] = ll
                rl = -1
            pair[:] = ll, lh, rl, rh

    pos = [0] * n
    for root in range(n):
        if parent_edge[root] >= 0:
            continue
        stack = [root]
        while stack:
            v = stack[-1]
            hv = height[v]
            e = parent_edge[v]
            es = ordered[v]
            i = pos[v]
            while i < len(es):
                ei = es[i]
                i += 1
                w = dst[ei]
                bottom[ei] = pairs[-1] if pairs else None
                if parent_edge[w] == ei:  # tree edge: its constraints wait for w
                    stack.append(w)
                    break
                lowpt_edge[ei] = ei
                pairs.append([-1, -1, ei, ei])
                if lowpt[ei] < hv:
                    if i == 1:
                        lowpt_edge[e] = ei
                    elif not add_constraints(ei, e):
                        return False
            else:
                stack.pop()
                if e >= 0:
                    remove_back_edges(e)
                    u = src[e]
                    if lowpt[e] < height[u]:
                        if ordered[u][0] == e:
                            lowpt_edge[parent_edge[u]] = lowpt_edge[e]
                        elif not add_constraints(e, parent_edge[u]):
                            return False
            pos[v] = i
    return True


# K3,3, the smallest non-planar graph, has 9 edges.
_SMALL_CORE_EDGES = 8


def _core_is_planar(adj: dict[Node, set[Node]]) -> bool:
    core = _core({v: set(nbrs) for v, nbrs in adj.items()})
    n_edges = sum(len(nbrs) for nbrs in core.values()) // 2
    return n_edges <= _SMALL_CORE_EDGES or _is_planar(core)


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
