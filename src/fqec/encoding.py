"""Encoding candidates: generator assignments, validation and quality metrics.

An encoding candidate stores one Pauli image per generator orbit, anchored
at the window's central cell.  Validation replays the translationally
invariant commutation condition on the finite window: for every generator
pair and every cell shift within +-2 per axis, the symplectic parity of the
Pauli images (the shifted one clipped to the window, which is exact for
in-window supports) must equal the parity demanded by the Majorana algebra.
The check works on raw ``(x, z)`` masks and builds no translate: a clipped
translate meets a window word only at slot pairs on one local whose cells
differ by the shift, so each pair's parities at every shift are read from
those slot pairs as one bitmask and compared with its required mask from
``fermion.required_parity_table``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache

from . import fermion, lattice
from .distance import DistanceBudget, DistanceResult, min_distance
from .fermion import (
    FermionGeneratorId,
    GeneratorKind,
    HamiltonianSpec,
    far_cell_offset,
    generator_ids,
    required_parity_table,
    stabilizer_cycles,
)
from .lattice import CENTER, UnitCellLayout
from .symplectic import PauliWord, weight


@dataclass(frozen=True)
class Violation:
    """One broken validation constraint; the pair/shift pins the witness."""

    kind: str  # "missing-generator" | "anchoring" | "commutation"
    gen_a: str
    gen_b: str | None = None
    shift: tuple[int, int] | None = None
    required: int | None = None
    actual: int | None = None

    def __str__(self) -> str:
        if self.kind == "missing-generator":
            return f"generator {self.gen_a} is not assigned"
        if self.kind == "anchoring":
            return f"generator {self.gen_a} violates window anchoring: {self.gen_b}"
        return (
            f"{self.gen_a} vs {self.gen_b} at shift {self.shift}: "
            f"required parity {self.required}, got {self.actual}"
        )


@dataclass(frozen=True)
class Metrics:
    """Quality metrics of a validated encoding."""

    distance: DistanceResult
    max_stab_weight: int
    sigma_nn: Fraction
    sigma_nnn: Fraction
    qubit_ratio: Fraction
    term_weights: tuple[tuple[str, int], ...] = ()

    def key(self) -> tuple[int, int, Fraction, Fraction]:
        """The four-metric tuple used for Pareto dominance."""
        return (self.distance.value, self.max_stab_weight, self.sigma_nn, self.sigma_nnn)


@dataclass
class EncodingCandidate:
    """A unit-cell encoding: layout, generator images and derived data.

    Treated as immutable once validated; derived fields are filled into
    fresh copies, so a candidate handed to a sink or a front never changes.
    """

    layout: UnitCellLayout
    generators: dict[FermionGeneratorId, PauliWord]
    stabilizer_generators: tuple[PauliWord, ...] | None = None
    metrics: Metrics | None = None

    def canonical_key(self) -> tuple:
        """Hashable identity of the generator map (masks in canonical order)."""
        parts = [
            (gen.name, w.x_mask, w.z_mask)
            for gen, w in sorted(self.generators.items(), key=lambda kv: kv[0].name)
        ]
        return (
            self.layout.scheme.value,
            self.layout.edge_set.value,
            self.layout.qubits_per_cell,
            tuple(parts),
        )

    def with_stabilizers(self, stabs: tuple[PauliWord, ...]) -> "EncodingCandidate":
        return replace(self, stabilizer_generators=stabs)

    def with_metrics(self, metrics: Metrics) -> "EncodingCandidate":
        return replace(self, metrics=metrics)


def _cell_mask(layout: UnitCellLayout, cell: tuple[int, int]) -> int:
    """Bit mask of the window slots of one cell."""
    return sum(1 << lattice.slot_of(cell, i, layout) for i in range(layout.qubits_per_cell))


@lru_cache(maxsize=None)
def _anchoring_plan(layout: UnitCellLayout) -> tuple[tuple[FermionGeneratorId, tuple], ...]:
    """Per generator in ``generator_ids`` order: the (cell mask, message if
    missed) of each cell its support must touch."""
    plan = []
    for gen in generator_ids(layout):
        cells = ((_cell_mask(layout, CENTER), "support misses the central cell"),)
        if gen.kind is not GeneratorKind.VERTEX:
            (dx, dy), (cx, cy) = far_cell_offset(layout, gen), CENTER
            far = (cx + dx, cy + dy)
            cells += ((_cell_mask(layout, far), f"support misses far endpoint cell {far}"),)
        plan.append((gen, cells))
    return tuple(plan)


def validate(enc: EncodingCandidate) -> list[Violation]:
    """Check the windowed commutation condition; an empty list means Ok.

    Every shift in the +-2 box is checked for every unordered generator
    pair (including self pairs): restricting to shifts with overlapping
    Pauli supports would miss pairs whose algebra demands anticommutation
    while their images are disjoint.  A pair's parities at all 25 shifts
    come as one bitmask from its same-local slot pairs
    (``lattice.pair_parities``), with no translate built, and only the bits
    where it differs from the required mask become violations.  They come in
    pair order (``generator_ids``, ``i <= j``), then ``ALL_SHIFTS`` order.
    """
    layout = enc.layout
    violations: list[Violation] = []
    present = []
    for i, (gen, cells) in enumerate(_anchoring_plan(layout)):
        word = enc.generators.get(gen)
        if word is None:
            violations.append(Violation("missing-generator", gen.name))
            continue
        present.append((i, gen.name, word.x_mask, word.z_mask))
        support = word.x_mask | word.z_mask
        for mask, missed in cells:
            if not support & mask:
                violations.append(Violation("anchoring", gen.name, missed))

    required, qpc = required_parity_table(layout), layout.qubits_per_cell
    for a, (i, name_a, xa, za) in enumerate(present):
        for j, name_b, xb, zb in present[a:]:
            want = required[i][j]
            wrong = lattice.pair_parities(xa, za, xb, zb, qpc) ^ want
            while wrong:
                s = (wrong & -wrong).bit_length() - 1
                wrong &= wrong - 1
                bit, shift = want >> s & 1, lattice.ALL_SHIFTS[s]
                violations.append(Violation("commutation", name_a, name_b, shift, bit, bit ^ 1))
    return violations


@lru_cache(maxsize=None)
def _cycle_instances(layout: UnitCellLayout) -> tuple[tuple[fermion.Instance, ...], ...]:
    """The edge instances around each cycle of ``stabilizer_cycles``."""
    return tuple(
        tuple(fermion._edge_instance(layout, v, w) for v, w in zip(cycle, cycle[1:]))
        for cycle in stabilizer_cycles(layout)
    )


def derive_stabilizers(enc: EncodingCandidate) -> tuple[PauliWord, ...]:
    """Loop stabilizers of every plaquette orbit, anchored at the central cell.

    Each multiplies its cycle's edge instances on raw masks.  Trivial
    (identity) loop images and exact duplicates are dropped, so encodings
    whose loops multiply to the identity report no stabilizers.
    """
    layout, masks = enc.layout, fermion.generator_masks(enc)
    out: list[PauliWord] = []
    seen: set[tuple[int, int]] = set()
    for instances in _cycle_instances(layout):
        key = fermion._product_masks(instances, masks, layout.qubits_per_cell)
        if not key[0] | key[1] or key in seen:
            continue
        seen.add(key)
        out.append(PauliWord(*key, layout.n_slots))
    return tuple(out)


def compute_metrics(
    enc: EncodingCandidate, spec: HamiltonianSpec, w_max: int
) -> Metrics:
    """Distance, stabilizer weight and mean logical weights of an encoding.

    Each term orbit of ``fermion.term_orbits`` is measured once, and its
    weight counts once per term it names.  Both sigma values are always
    computed (the NNN set merely adds the four diagonal hops, composed from
    defined edges where necessary); coupling magnitudes in ``spec`` do not
    affect any weight.
    """
    if enc.stabilizer_generators is None:
        enc = enc.with_stabilizers(derive_stabilizers(enc))
    dist = min_distance(enc, DistanceBudget(w_max=w_max))
    stabs = enc.stabilizer_generators or ()
    max_stab = max((weight(s) for s in stabs), default=0)
    layout = enc.layout
    masks = fermion.generator_masks(enc)
    weights = []  # (name, is_nnn, weight) per term
    for orbit in fermion.term_orbits(layout):
        w = fermion.hopping_weight(orbit, masks, layout.qubits_per_cell)
        weights.extend((name, orbit.nnn, w) for name in orbit.names)
    nn = [w for _, is_nnn, w in weights if not is_nnn]
    all_terms = [w for _, _, w in weights]
    return Metrics(
        distance=dist,
        max_stab_weight=max_stab,
        sigma_nn=Fraction(sum(nn), len(nn)),
        sigma_nnn=Fraction(sum(all_terms), len(all_terms)),
        qubit_ratio=Fraction(layout.qubits_per_cell, layout.modes_per_cell),
        term_weights=tuple(sorted((name, w) for name, _, w in weights)),
    )
