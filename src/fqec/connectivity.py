"""Qubit-connectivity graphs demanded by an encoding, and their scoring.

The hardware for a translationally invariant encoding repeats per unit
cell, so the graph is built on the 3x3 window with periodic identification:
every stabilizer orbit contributes one ancilla per cell, wired to the
wrapped support of that translate, and every Hamiltonian logical term
threads a chain through its (wrapped) support slots in slot order.  A chain
is the minimal connectivity for a CNOT-ladder implementation of a Pauli
exponential; a clique would wildly overstate hardware needs.

Graph thickness is NP-hard, so it is reported as a greedy upper bound: the
number of planar layers extracted by inserting edges uv, in a deterministic
order, into the current layer G whenever G + uv is planar.  Exact rules
decide each edge without testing all of G + uv:

* A bridge, an edge between two components of G, is accepted untested: the
  blocks of G are unchanged and the bridge is a block of its own, and a
  graph is planar iff its blocks are.
* Other edges read the core K of G, left by deleting vertices of degree at
  most 1 and smoothing vertices of degree 2 (a parallel edge that results
  collapses) until none is left, and the pieces, the components of G - K.
  A core vertex v has the class {v}, a piece vertex the set of core
  vertices its piece attaches to, or the piece if that set is empty; both
  are computed again only after G changed.  A banned uv is deferred; uv is
  accepted if one class contains the other; else it is tested on the core
  of T = K + piece(u) + piece(v) + uv, accepted if that has at most 8
  edges (K3,3, the smallest non-planar graph, has 9) and else tested by
  ``_is_planar``, a left-right planarity test that builds no embedding.  A
  rejection bans, for the rest of the layer, every pair whose classes
  contain those of u and v.

Why the rules are exact, for a planar G:

1. A piece attaches to at most two core vertices, adjacent in K if two: by
   induction over the reductions, deleting w merges the removed components
   on w into one on w's neighbour, and smoothing w merges them into one on
   its two neighbours, which the new edge joins.
2. If one class contains the other, G + uv is planar.  A piece plus its
   attachments and their edge reduces to at most that edge, and a
   reduction keeps any subdivided K4, so it is K4-minor-free; so is the
   union H of the pieces of u and v with the larger class A and its edge.
   H + uv is planar (K5 and K3,3 less an edge contain a K4), and G + uv is
   its 1- or 2-sum over A with G less the pieces plus the edge of A, a
   minor of G (for a class with no core vertex, a disjoint union).
3. G + uv is planar iff T is, and that depends on the classes alone.  Let
   S be K plus stand-ins for u and v joined by an edge: the vertex if in
   K, else its piece's attachment, or a new vertex z joined to both
   attachments a, b.  Contracting the pieces of u and v onto their
   stand-ins, and the others onto their edges of K or away, leaves a minor
   of G + uv that is S but for edges ab that only those pieces gave, which
   fit along a-z-b as z has degree at most 3.  Conversely a piece on
   {a, b} embeds with a, b, u on one face (plus a-z-b and zu it is
   K4-minor-free plus an edge) and replaces z in a drawing of S, a piece
   on {a} plus au is planar and fits at a, the other pieces glue back by
   1- and 2-sums, and edges of K not in G are dropped.  K + piece(u) +
   piece(v) reduces to K by the same reductions, so T behaves alike.
4. So a rejection holds for every pair whose classes contain those of u
   and v, as contracting each stand-in z of such a class onto the vertex
   of the smaller class turns its S into that of uv; and for the rest of
   the layer, since G only grows.
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


def _layer_classes(adj: dict[Node, set[Node]]) -> tuple[dict, dict, dict]:
    """The core of the layer ``adj``, and each vertex's piece (a list shared
    by the piece, empty for a core vertex) and class."""
    core = _core({v: set(nbrs) for v, nbrs in adj.items()})
    piece: dict[Node, list[Node]] = {v: [] for v in core}
    cls = {v: frozenset((v,)) for v in core}
    for start in adj:
        if start not in piece:
            members = piece[start] = [start]
            attached = set()
            for w in members:  # grows while it is walked
                for x in adj[w]:
                    if x in core:
                        attached.add(x)
                    elif x not in piece:
                        piece[x] = members
                        members.append(x)
            cls.update(dict.fromkeys(members, frozenset(attached or members)))
    return core, piece, cls


def _planar_with_edge(core: dict, piece: dict, adj: dict, u: Node, v: Node) -> bool:
    """Whether the layer ``adj`` plus uv is planar, tested on T."""
    test = {w: set(nbrs) for w, nbrs in core.items()}
    for w in piece[u] + piece[v]:
        test[w] = set(adj[w])
        for x in adj[w] & core.keys():
            test[x].add(w)
    test[u].add(v)
    test[v].add(u)
    _core(test)
    return sum(map(len, test.values())) <= 2 * _SMALL_CORE_EDGES or _is_planar(test)


def _planar_layers(g: ConnectivityGraph) -> list[list[tuple[Node, Node]]]:
    """Each layer's edges: edges are taken in sorted order, each layer keeps
    every edge that leaves it planar (by the rules of the module docstring),
    and the deferred edges seed the next layer."""
    remaining = sorted(g.edges)
    layers = []
    while remaining:
        adj: dict[Node, set[Node]] = {}
        parent: dict[Node, Node] = {}
        banned: set[tuple[Node, Node]] = set()
        classes = None
        kept, deferred = [], []
        for u, v in remaining:
            ru, rv = _find(parent, u), _find(parent, v)
            if ru != rv:
                parent[ru] = rv
            elif (u, v) in banned:
                deferred.append((u, v))
                continue
            else:
                if classes is None:
                    classes = _layer_classes(adj)
                core, piece, cls = classes
                cu, cv = cls[u], cls[v]
                if not (cu <= cv or cv <= cu or _planar_with_edge(core, piece, adj, u, v)):
                    xs = [w for w, c in cls.items() if cu <= c]
                    ys = [w for w, c in cls.items() if cv <= c]
                    banned.update((x, y) if x < y else (y, x) for x in xs for y in ys)
                    deferred.append((u, v))
                    continue
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
            kept.append((u, v))
            classes = None
        layers.append(kept)
        remaining = deferred
    return layers


def thickness_upper_bound(g: ConnectivityGraph) -> int:
    """Layer count of ``_planar_layers``; 1 iff the graph is planar."""
    layers = len(_planar_layers(g)) or 1  # edgeless graphs are planar
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
