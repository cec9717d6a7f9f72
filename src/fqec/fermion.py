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
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple

from . import lattice
from .lattice import CENTER, EdgeSet, Scheme, UnitCellLayout
from .symplectic import PauliWord, multiply, weight

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

#: Edge kind of each canonical direction; the other hop directions are their
#: negatives.
_KIND_BY_DIRECTION = {d: kind for kind, d in EDGE_DIRECTIONS.items()}

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
def required_parity_table(
    layout: UnitCellLayout,
) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Required parities by index: ``table[i][j][s]`` is the parity of
    generator ``i`` against generator ``j`` shifted by ``ALL_SHIFTS[s]``,
    with generators in ``generator_ids`` order."""
    ids = generator_ids(layout)
    return tuple(
        tuple(
            tuple(
                edge_vertex_required_parity(layout, a, (0, 0), b, shift)
                for shift in lattice.ALL_SHIFTS
            )
            for b in ids
        )
        for a in ids
    )


# ---------------------------------------------------------------------------
# Instance images and products


def instance_image(
    enc: "EncodingCandidate", gen: FermionGeneratorId, anchor: tuple[int, int]
) -> PauliWord | None:
    """Pauli image of the generator instance anchored at window cell ``anchor``.

    ``None`` when the translated image does not fit the window.
    """
    word = enc.generators.get(gen)
    if word is None:
        raise KeyError(f"generator {gen.name} is not assigned")
    shift = (anchor[0] - CENTER[0], anchor[1] - CENTER[1])
    if max(abs(shift[0]), abs(shift[1])) > lattice.SHIFT_RANGE:
        return None
    return lattice.translate_word(word, shift, enc.layout)


def _edge_instance(
    layout: UnitCellLayout, v: Vertex, w: Vertex
) -> tuple[FermionGeneratorId, tuple[int, int]]:
    """The edge generator orbit and anchor joining two mode instances."""
    for kind in edge_kinds(layout):
        if step(layout, v, EDGE_DIRECTIONS[kind]) == w:
            return FermionGeneratorId(kind, v.mode), v.cell
        if step(layout, w, EDGE_DIRECTIONS[kind]) == v:
            return FermionGeneratorId(kind, w.mode), w.cell
    raise PathError(f"no defined edge between {v} and {w}")

_REANCHOR_ORDER = tuple(
    sorted(lattice.ALL_SHIFTS, key=lambda s: (max(abs(s[0]), abs(s[1])), s))
)


def _product_of_instances(
    enc: "EncodingCandidate",
    instances: list[tuple[FermionGeneratorId, tuple[int, int]]],
) -> PauliWord:
    """Product of generator instances, re-anchored together if needed to fit.

    Anchors are shifted by a common offset (identity first) until every
    constituent image fits the window; the product is translation-equivalent
    to the requested one.
    """
    layout = enc.layout
    for dx, dy in _REANCHOR_ORDER:
        words = []
        for gen, (ax, ay) in instances:
            img = instance_image(enc, gen, (ax + dx, ay + dy))
            if img is None:
                break
            words.append(img)
        else:
            out = PauliWord.identity(layout.n_slots)
            for word in words:
                out = multiply(out, word)
            return out
    raise PathError("product of edge instances does not fit the window at any anchor")


def vertex_image(enc: "EncodingCandidate", vertex: Vertex) -> PauliWord:
    """Pauli image of a mode instance's vertex generator, re-anchored to fit."""
    gen = FermionGeneratorId(GeneratorKind.VERTEX, vertex.mode)
    return _product_of_instances(enc, [(gen, vertex.cell)])


def composite_edge(path: list[Vertex], enc: "EncodingCandidate") -> PauliWord:
    """Product of the edges along a path: an effective edge between its endpoints."""
    if len(path) < 2:
        raise ValueError("path needs at least two vertices")
    instances = [_edge_instance(enc.layout, v, w) for v, w in zip(path, path[1:])]
    return _product_of_instances(enc, instances)


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


NN_DIRECTIONS = ((1, 0), (-1, 0), (0, 1), (0, -1))
NNN_DIRECTIONS = ((1, 1), (-1, -1), (-1, 1), (1, -1))

_DIRECTION_NAMES = {
    (1, 0): "+x", (-1, 0): "-x", (0, 1): "+y", (0, -1): "-y",
    (1, 1): "+ur", (-1, -1): "-ur", (-1, 1): "+ul", (1, -1): "-ul",
}


@dataclass(frozen=True)
class TermDescriptor:
    """One distinct logical operator orbit of the Hubbard Hamiltonian."""

    name: str
    kind: str  # "hopping" | "onsite"
    mode: int
    direction: tuple[int, int] | None = None
    nnn: bool = False


def _onsite_modes(layout: UnitCellLayout) -> tuple[int, ...]:
    # Mixed cells host both spins of one site; every other scheme pairs each
    # in-window mode with its disjoint opposite-spin copy, one term per mode.
    if layout.scheme is Scheme.MIXED:
        return (0,)
    return tuple(range(layout.modes_per_cell))


def enumerate_hamiltonian_terms(
    spec: HamiltonianSpec, layout: UnitCellLayout
) -> list[TermDescriptor]:
    """Distinct logical-term descriptors for the model on this layout.

    Hoppings are enumerated per anchored mode and signed direction (the two
    signs are Hermitian-conjugate mirrors with identical weights); one
    on-site term per site hosted by the cell.
    """
    terms = []
    for mode in range(layout.modes_per_cell):
        for d in NN_DIRECTIONS:
            terms.append(
                TermDescriptor(
                    f"hop:{_DIRECTION_NAMES[d]}:m{mode}", "hopping", mode, d
                )
            )
    for mode in _onsite_modes(layout):
        terms.append(TermDescriptor(f"onsite:m{mode}", "onsite", mode))
    if spec.t_prime != 0.0:
        for mode in range(layout.modes_per_cell):
            for d in NNN_DIRECTIONS:
                terms.append(
                    TermDescriptor(
                        f"hop:{_DIRECTION_NAMES[d]}:m{mode}", "hopping", mode, d, nnn=True
                    )
                )
    return terms


def hop_instances(
    layout: UnitCellLayout, mode: int, direction: tuple[int, int]
) -> tuple[list[tuple[FermionGeneratorId, tuple[int, int]]], Vertex, Vertex]:
    """Edge instances of the hop from the central mode instance in a canonical
    direction (a value of ``EDGE_DIRECTIONS``), and the hop's two endpoints.

    A direction with no edge kind on the layout takes the L-path, horizontal
    leg first (the two L-paths differ by a plaquette stabilizer).
    """
    v0 = Vertex(CENTER, mode)
    w = step(layout, v0, direction)
    kind = _KIND_BY_DIRECTION.get(direction)
    if kind in edge_kinds(layout):
        return [(FermionGeneratorId(kind, mode), v0.cell)], v0, w
    mid = step(layout, v0, (direction[0], 0))
    return [_edge_instance(layout, v0, mid), _edge_instance(layout, mid, w)], v0, w


def hopping_pair(
    enc: "EncodingCandidate", mode: int, direction: tuple[int, int]
) -> tuple[PauliWord, PauliWord]:
    """The two hopping Pauli words for a site direction.

    A mirrored direction is the negated canonical one, whose words are
    taken; the edge path and each endpoint vertex are anchored separately.
    """
    if direction not in _KIND_BY_DIRECTION:
        direction = (-direction[0], -direction[1])
    instances, j, k = hop_instances(enc.layout, mode, direction)
    image = _product_of_instances(enc, instances)
    return multiply(vertex_image(enc, k), image), multiply(vertex_image(enc, j), image)


def hopping_weight(
    enc: "EncodingCandidate", mode: int, direction: tuple[int, int]
) -> int:
    """Max Pauli weight of the two hopping terms in a signed direction.

    Mirrored directions are Hermitian-conjugate translates of the canonical
    one and share its weights, so only canonical directions are expanded.
    """
    a, b = hopping_pair(enc, mode, direction)
    return max(weight(a), weight(b))


def onsite_pauli_term(
    enc: "EncodingCandidate", cell: tuple[int, int] = CENTER, mode: int = 0
) -> PauliWord:
    """The dominant on-site density-density word V_up * V_down for one site.

    For mixed layouts both spin vertices live in the window and the product
    is taken directly.  For the other schemes the opposite spin occupies a
    disjoint duplicate of the grid, so the word is returned on a doubled
    register (copy A in slots [0, n), copy B in [n, 2n)) when it fits.
    """
    layout = enc.layout
    if layout.scheme is Scheme.MIXED:
        v_up = vertex_image(enc, Vertex(cell, 0))
        v_down = vertex_image(enc, Vertex(cell, 1))
        return multiply(v_up, v_down)
    n = layout.n_slots
    if 2 * n > 64:
        raise ValueError(
            "on-site word for duplicated-grid schemes needs a doubled register; "
            f"2 * {n} slots exceed the packing"
        )
    v = vertex_image(enc, Vertex(cell, mode))
    return PauliWord(v.x_mask | v.x_mask << n, v.z_mask | v.z_mask << n, 2 * n)


def onsite_weight(enc: "EncodingCandidate", mode: int = 0) -> int:
    """Pauli weight of the on-site term for a site hosted at ``mode``."""
    layout = enc.layout
    if layout.scheme is Scheme.MIXED:
        return weight(onsite_pauli_term(enc))
    return 2 * weight(vertex_image(enc, Vertex(CENTER, mode)))
