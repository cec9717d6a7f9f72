"""Majorana-monomial algebra, edge/vertex generators and Hubbard-term images.

Fermionic modes sit on an integer site lattice.  Each unit-cell scheme maps
(cell, mode-slot) pairs to sites:

* two-grids      -- one mode per cell; the opposite spin lives on a disjoint
                    duplicate of the whole grid.
* mixed          -- two modes per cell, both spins of one site share a cell.
* doubled-h      -- two horizontally neighboring same-spin sites per cell.
* doubled-offset -- brick-wall doubling: mode = (u - v) mod 2, so both the
                    horizontal and the vertical hop alternate between the
                    two in-cell mode slots.

Vertex generators are mode parities (two Majorana factors on one mode);
edge generators link a mode to its site-space neighbor in a fixed direction.
Every generator is stored as the Pauli image of the instance anchored at the
window's central cell; other instances are cell translations of it.

The Hubbard terms are listed only here, in ``term_orbits``: one table per
layout, built on first use, with one entry per term orbit (a hop and its
mirror share one).  ``term_masks`` builds an orbit's words from the
generators' raw ``(x, z)`` masks and ``hopping_weight`` measures it, for the
metrics, the search's hop caps and filter, and the graph's term chains.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple

from . import lattice
from .lattice import CENTER, EdgeSet, Scheme, UnitCellLayout
from .symplectic import PauliWord

if TYPE_CHECKING:  # pragma: no cover
    from .encoding import EncodingCandidate


class PathError(ValueError):
    """A path or cycle step has no defined edge between its endpoints."""


class GeneratorKind(enum.Enum):
    VERTEX = "vertex"
    EDGE_RIGHT = "edge-right"
    EDGE_UP = "edge-up"
    EDGE_DIAG_UR = "edge-diag-ur"
    EDGE_DIAG_UL = "edge-diag-ul"


#: Site-space direction of each edge kind.
EDGE_DIRECTIONS = {
    GeneratorKind.EDGE_RIGHT: (1, 0),
    GeneratorKind.EDGE_UP: (0, 1),
    GeneratorKind.EDGE_DIAG_UR: (1, 1),
    GeneratorKind.EDGE_DIAG_UL: (-1, 1),
}

_KINDS_BY_EDGE_SET = {
    EdgeSet.NN_SQUARE: (GeneratorKind.EDGE_RIGHT, GeneratorKind.EDGE_UP),
    EdgeSet.TRIANGULAR: (
        GeneratorKind.EDGE_RIGHT,
        GeneratorKind.EDGE_UP,
        GeneratorKind.EDGE_DIAG_UR,
    ),
    EdgeSet.NNN_SQUARE: (
        GeneratorKind.EDGE_RIGHT,
        GeneratorKind.EDGE_UP,
        GeneratorKind.EDGE_DIAG_UR,
        GeneratorKind.EDGE_DIAG_UL,
    ),
}


def edge_kinds(layout: UnitCellLayout) -> tuple[GeneratorKind, ...]:
    return _KINDS_BY_EDGE_SET[layout.edge_set]


@dataclass(frozen=True)
class FermionGeneratorId:
    """Identity of one translation orbit of generators: a kind plus mode slot."""

    kind: GeneratorKind
    mode: int

    @property
    def name(self) -> str:
        return f"{self.kind.value}:{self.mode}"

    def __str__(self) -> str:
        return self.name


def generator_ids(layout: UnitCellLayout) -> tuple[FermionGeneratorId, ...]:
    """All generator orbits in canonical search order: per mode, vertex then edges."""
    ids = []
    for mode in range(layout.modes_per_cell):
        ids.append(FermionGeneratorId(GeneratorKind.VERTEX, mode))
        for kind in edge_kinds(layout):
            ids.append(FermionGeneratorId(kind, mode))
    return tuple(ids)


def generator_id_from_name(name: str) -> FermionGeneratorId:
    kind_name, _, mode_str = name.rpartition(":")
    try:
        kind = GeneratorKind(kind_name)
        mode = int(mode_str)
    except ValueError:
        raise ValueError(f"invalid generator name {name!r}") from None
    return FermionGeneratorId(kind, mode)


class Vertex(NamedTuple):
    """A fermionic mode instance: the mode slot of one concrete cell."""

    cell: tuple[int, int]
    mode: int


def site_of(layout: UnitCellLayout, v: Vertex) -> tuple[int, int]:
    """Site-lattice coordinates of a mode instance."""
    (cx, cy), p = v.cell, v.mode
    scheme = layout.scheme
    if scheme in (Scheme.TWO_GRIDS, Scheme.MIXED):
        return (cx, cy)
    if scheme is Scheme.DOUBLED_H:
        return (2 * cx + p, cy)
    return (2 * cx + cy + p, cy)  # DOUBLED_OFFSET brick wall


def vertex_at(layout: UnitCellLayout, site: tuple[int, int], mode_hint: int = 0) -> Vertex:
    """Inverse of :func:`site_of`.

    For two-grids and mixed schemes every site hosts one mode per spin, so
    ``mode_hint`` selects the mode slot; for doubled schemes the site fixes
    the mode slot and the hint is ignored.
    """
    u, v = site
    scheme = layout.scheme
    if scheme in (Scheme.TWO_GRIDS, Scheme.MIXED):
        return Vertex((u, v), mode_hint)
    if scheme is Scheme.DOUBLED_H:
        p = u % 2
        return Vertex(((u - p) // 2, v), p)
    p = (u - v) % 2
    return Vertex(((u - v - p) // 2, v), p)


def step(layout: UnitCellLayout, v: Vertex, direction: tuple[int, int]) -> Vertex:
    """The mode instance one site-space step away from ``v``."""
    u, w = site_of(layout, v)
    return vertex_at(layout, (u + direction[0], w + direction[1]), v.mode)


def edge_endpoints(
    layout: UnitCellLayout, gen: FermionGeneratorId, anchor: tuple[int, int]
) -> tuple[Vertex, Vertex]:
    """Source and target mode instances of an edge generator anchored at ``anchor``."""
    if gen.kind is GeneratorKind.VERTEX:
        raise ValueError("vertex generators have no endpoints")
    source = Vertex(anchor, gen.mode)
    return source, step(layout, source, EDGE_DIRECTIONS[gen.kind])


def far_cell_offset(layout: UnitCellLayout, gen: FermionGeneratorId) -> tuple[int, int]:
    """Cell offset (relative to the anchor) of an edge's far endpoint."""
    _, target = edge_endpoints(layout, gen, (0, 0))
    return target.cell


# ---------------------------------------------------------------------------
# Majorana monomials


@dataclass(frozen=True)
class MajoranaWord:
    """Majorana monomial over ``m`` modes as a 2m-bit vector (phase-blind).

    Bit ``j`` marks an unbarred factor on mode ``j`` for ``j < m``; bit
    ``j + m`` marks the barred factor of mode ``j``.
    """

    bits: int
    m: int

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("mode count must be positive")
        if self.bits >> (2 * self.m):
            raise ValueError("bits set beyond 2m storage")


def majorana_commute_parity(a: MajoranaWord, b: MajoranaWord) -> int:
    """Parity of a^T (I + C1) b over F2: 0 = commute, 1 = anticommute."""
    if a.m != b.m:
        raise ValueError(f"mode count mismatch: {a.m} vs {b.m}")
    dot = (a.bits & b.bits).bit_count() & 1
    return (dot + a.bits.bit_count() * b.bits.bit_count()) & 1


def _majorana_factors(
    layout: UnitCellLayout, gen: FermionGeneratorId, anchor: tuple[int, int]
) -> tuple[tuple[Vertex, bool], ...]:
    """Majorana factors of a generator instance as (mode instance, barred) pairs."""
    if gen.kind is GeneratorKind.VERTEX:
        v = Vertex(anchor, gen.mode)
        return ((v, False), (v, True))
    src, tgt = edge_endpoints(layout, gen, anchor)
    return ((src, False), (tgt, False))


def edge_vertex_required_parity(
    layout: UnitCellLayout,
    a: FermionGeneratorId,
    offset_a: tuple[int, int],
    b: FermionGeneratorId,
    offset_b: tuple[int, int],
) -> int:
    """Commutation parity the fermionic algebra demands of two generator instances.

    Both instances are expressed as Majorana words over a common mode window
    and compared with the Majorana symplectic form: edges anticommute with
    the vertices at their endpoints and with edges sharing exactly one
    endpoint; everything else commutes.
    """
    fac_a = _majorana_factors(layout, a, offset_a)
    fac_b = _majorana_factors(layout, b, offset_b)
    modes = sorted({v for v, _ in fac_a} | {v for v, _ in fac_b})
    index = {v: i for i, v in enumerate(modes)}
    m = len(modes)
    bits_a = bits_b = 0
    for v, barred in fac_a:
        bits_a |= 1 << (index[v] + (m if barred else 0))
    for v, barred in fac_b:
        bits_b |= 1 << (index[v] + (m if barred else 0))
    return majorana_commute_parity(MajoranaWord(bits_a, m), MajoranaWord(bits_b, m))


@lru_cache(maxsize=None)
def required_parity_table(layout: UnitCellLayout) -> tuple[tuple[int, ...], ...]:
    """Required parities by index: bit ``s`` of ``table[i][j]`` is the
    parity of generator ``i`` against generator ``j`` shifted by
    ``ALL_SHIFTS[s]``, with generators in ``generator_ids`` order."""
    ids = generator_ids(layout)
    return tuple(
        tuple(
            sum(
                edge_vertex_required_parity(layout, a, (0, 0), b, shift) << s
                for s, shift in enumerate(lattice.ALL_SHIFTS)
            )
            for b in ids
        )
        for a in ids
    )


# ---------------------------------------------------------------------------
# Instance products on raw masks

#: A generator instance: the generator's index in ``generator_ids`` order and
#: the shift of its anchor cell from the central cell.
Instance = tuple[int, tuple[int, int]]


@lru_cache(maxsize=None)
def _generator_index(layout: UnitCellLayout) -> dict[FermionGeneratorId, int]:
    return {gen: i for i, gen in enumerate(generator_ids(layout))}


def _instance(
    layout: UnitCellLayout, gen: FermionGeneratorId, anchor: tuple[int, int]
) -> Instance:
    return _generator_index(layout)[gen], (anchor[0] - CENTER[0], anchor[1] - CENTER[1])


def _edge_instance(layout: UnitCellLayout, v: Vertex, w: Vertex) -> Instance:
    """The edge generator instance joining two mode instances."""
    for kind in edge_kinds(layout):
        if step(layout, v, EDGE_DIRECTIONS[kind]) == w:
            return _instance(layout, FermionGeneratorId(kind, v.mode), v.cell)
        if step(layout, w, EDGE_DIRECTIONS[kind]) == v:
            return _instance(layout, FermionGeneratorId(kind, w.mode), w.cell)
    raise PathError(f"no defined edge between {v} and {w}")


_REANCHOR_ORDER = tuple(
    sorted(lattice.ALL_SHIFTS, key=lambda s: (max(abs(s[0]), abs(s[1])), s))
)


def generator_masks(enc: "EncodingCandidate") -> list[tuple[int, int]]:
    """(x, z) masks of every generator of an encoding, in ``generator_ids`` order."""
    words = [enc.generators[gen] for gen in generator_ids(enc.layout)]
    return [(w.x_mask, w.z_mask) for w in words]


def _product_masks(
    instances: tuple[Instance, ...], masks: list[tuple[int, int]], qubits_per_cell: int
) -> tuple[int, int]:
    """Masks of a product of generator instances, re-anchored together if
    needed to fit; ``masks[i]`` holds generator ``i``'s masks.

    Anchors are shifted by a common offset (identity first) until every
    instance's image fits the window; the product is translation-equivalent
    to the requested one.
    """
    tables = lattice._shift_tables(qubits_per_cell)
    for dx, dy in _REANCHOR_ORDER:
        x = z = 0
        for gi, (sx, sy) in instances:
            shift = (sx + dx, sy + dy)
            table = tables.get(shift)
            if table is None:
                break
            moved = masks[gi] if shift == (0, 0) else lattice._translate_masks(*masks[gi], table)
            if moved is None:
                break
            x ^= moved[0]
            z ^= moved[1]
        else:
            return x, z
    raise PathError("product of edge instances does not fit the window at any anchor")


def composite_edge(path: list[Vertex], enc: "EncodingCandidate") -> PauliWord:
    """Product of the edges along a path: an effective edge between its endpoints."""
    if len(path) < 2:
        raise ValueError("path needs at least two vertices")
    layout = enc.layout
    instances = tuple(_edge_instance(layout, v, w) for v, w in zip(path, path[1:]))
    x, z = _product_masks(instances, generator_masks(enc), layout.qubits_per_cell)
    return PauliWord(x, z, layout.n_slots)


def loop_stabilizer(cycle: list[Vertex], enc: "EncodingCandidate") -> PauliWord:
    """Product of the edges around a closed cycle (a stabilizer of the encoding).

    The cycle must be explicitly closed: first and last vertex equal.
    """
    if len(cycle) < 3 or cycle[0] != cycle[-1]:
        raise ValueError("cycle must be explicitly closed (first vertex == last)")
    return composite_edge(cycle, enc)


_FACE_WALKS = {
    EdgeSet.NN_SQUARE: (
        ((0, 0), ((1, 0), (0, 1), (-1, 0), (0, -1))),
    ),
    EdgeSet.TRIANGULAR: (
        ((0, 0), ((1, 0), (0, 1), (-1, -1))),
        ((0, 0), ((1, 1), (-1, 0), (0, -1))),
    ),
    EdgeSet.NNN_SQUARE: (
        ((0, 0), ((1, 0), (0, 1), (-1, -1))),
        ((0, 0), ((1, 1), (-1, 0), (0, -1))),
        ((0, 0), ((1, 0), (-1, 1), (0, -1))),
        ((1, 0), ((0, 1), (-1, 0), (1, -1))),
    ),
}


def stabilizer_cycles(layout: UnitCellLayout) -> list[list[Vertex]]:
    """Closed plaquette cycles anchored at the central cell, one list per orbit.

    One square face per mode for nn-square layouts, the two triangle halves
    for triangular, all four diagonal-split triangles for nnn-square.
    """
    cycles = []
    for mode in range(layout.modes_per_cell):
        base = Vertex(CENTER, mode)
        for start_dir, walk in _FACE_WALKS[layout.edge_set]:
            v = step(layout, base, start_dir) if start_dir != (0, 0) else base
            cycle = [v]
            for d in walk:
                v = step(layout, v, d)
                cycle.append(v)
            if cycle[0] != cycle[-1]:
                raise AssertionError("face walk did not close")
            cycles.append(cycle)
    return cycles


# ---------------------------------------------------------------------------
# Fermi-Hubbard logical terms


@dataclass(frozen=True)
class HamiltonianSpec:
    """Fermi-Hubbard couplings: NN hopping t, optional NNN hopping t', on-site U."""

    t: float = 1.0
    t_prime: float = 0.0
    U: float = 1.0


_DIRECTION_NAMES = {
    (1, 0): "+x", (-1, 0): "-x", (0, 1): "+y", (0, -1): "-y",
    (1, 1): "+ur", (-1, -1): "-ur", (-1, 1): "+ul", (1, -1): "-ul",
}


class TermOrbit(NamedTuple):
    """One translation orbit of Hubbard terms on a layout.

    ``names`` are the terms the orbit's weight stands for: a hop and its
    mirror share one orbit.  Each entry of ``words`` is one Pauli word of
    the orbit as a tuple of parts; a part is a tuple of generator instances
    re-anchored together, and the word is the product of its parts.
    ``copies`` is 2 for an on-site word whose opposite spin acts on the
    disjoint duplicate grid, else 1.
    """

    names: tuple[str, ...]
    kind: str  # "hopping" | "onsite"
    nnn: bool
    words: tuple[tuple[tuple[Instance, ...], ...], ...]
    copies: int = 1


@lru_cache(maxsize=None)
def term_orbits(layout: UnitCellLayout) -> tuple[TermOrbit, ...]:
    """Every Hubbard term orbit of a layout, NN and NNN, built on first use.

    Per mode, one hop orbit per canonical direction (the values of
    ``EDGE_DIRECTIONS``, NNN for the diagonals), named for the hop and for
    its mirror, the negated direction: the mirror's words are
    Hermitian-conjugate translates with the same weights.  The hop from the
    central mode instance j to k has the words V(k)·P and V(j)·P, where the
    path P is the direction's edge when the layout has that edge kind, else
    the L-path, horizontal leg first (the two L-paths differ by a plaquette
    stabilizer); P and each endpoint vertex are separate parts.  Then the
    on-site orbits: mixed cells host both spins of one site, so their one
    term is V(0)·V(1); every other scheme pairs each mode with its disjoint
    opposite-spin copy, one term of two copies of V per mode.
    """
    orbits = []

    def vertex_part(v: Vertex) -> tuple[Instance, ...]:
        return (_instance(layout, FermionGeneratorId(GeneratorKind.VERTEX, v.mode), v.cell),)

    for mode in range(layout.modes_per_cell):
        j = Vertex(CENTER, mode)
        for kind, (dx, dy) in EDGE_DIRECTIONS.items():
            k = step(layout, j, (dx, dy))
            if kind in edge_kinds(layout):
                path = (_instance(layout, FermionGeneratorId(kind, mode), CENTER),)
            else:
                mid = step(layout, j, (dx, 0))
                path = (_edge_instance(layout, j, mid), _edge_instance(layout, mid, k))
            names = tuple(
                f"hop:{_DIRECTION_NAMES[d]}:m{mode}" for d in ((dx, dy), (-dx, -dy))
            )
            words = ((path, vertex_part(k)), (path, vertex_part(j)))
            orbits.append(TermOrbit(names, "hopping", bool(dx and dy), words))
    if layout.scheme is Scheme.MIXED:
        word = tuple(vertex_part(Vertex(CENTER, mode)) for mode in (0, 1))
        orbits.append(TermOrbit(("onsite:m0",), "onsite", False, (word,)))
    else:
        for mode in range(layout.modes_per_cell):
            word = (vertex_part(Vertex(CENTER, mode)),)
            orbits.append(TermOrbit((f"onsite:m{mode}",), "onsite", False, (word,), 2))
    return tuple(orbits)


def term_masks(
    orbit: TermOrbit, masks: list[tuple[int, int]], qubits_per_cell: int
) -> list[tuple[int, int]]:
    """(x, z) masks of each word of a term orbit, given every generator's
    masks in ``generator_ids`` order (an assigned prefix suffices when it
    holds every generator the orbit multiplies)."""
    out = []
    for word in orbit.words:
        x = z = 0
        for part in word:
            px, pz = _product_masks(part, masks, qubits_per_cell)
            x ^= px
            z ^= pz
        out.append((x, z))
    return out


def hopping_weight(
    orbit: TermOrbit, masks: list[tuple[int, int]], qubits_per_cell: int
) -> int:
    """Weight of a term orbit, hop or on-site: the one routine that measures
    term weights, on raw masks.

    The largest Pauli weight among the orbit's words (for a hop, the max
    over its Hermitian pair), times its copies.
    """
    words = term_masks(orbit, masks, qubits_per_cell)
    return orbit.copies * max((x | z).bit_count() for x, z in words)

