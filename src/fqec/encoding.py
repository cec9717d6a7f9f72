"""Encoding candidates: generator assignments, validation and quality metrics.

An encoding candidate stores one Pauli image per generator orbit, anchored
at the window's central cell.  Validation replays the translationally
invariant commutation condition on the finite window: for every generator
pair and every cell shift within +-2 per axis, the symplectic parity of the
Pauli images (the shifted one clipped to the window, which is exact for
in-window supports) must equal the parity demanded by the Majorana algebra.
The check works on raw ``(x, z)`` masks: each generator is translated once
per shift, and every pair reads its required parities from
``fermion.required_parity_table``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

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
    mask = 0
    for local in range(layout.qubits_per_cell):
        mask |= 1 << lattice.slot_of(cell, local, layout)
    return mask


def validate(enc: EncodingCandidate) -> list[Violation]:
    """Check the windowed commutation condition; an empty list means Ok.

    Every shift in the +-2 box is checked for every unordered generator
    pair (including self pairs): restricting to shifts with overlapping
    Pauli supports would miss pairs whose algebra demands anticommutation
    while their images are disjoint.  Each present generator's raw masks are
    translated once per shift, and each parity is a bit count on ints; the
    violations come in pair order (``generator_ids``, ``i <= j``), then
    ``ALL_SHIFTS`` order.
    """
    layout = enc.layout
    violations: list[Violation] = []
    ids = generator_ids(layout)
    present = []
    for i, gen in enumerate(ids):
        word = enc.generators.get(gen)
        if word is None:
            violations.append(Violation("missing-generator", gen.name))
            continue
        present.append((i, gen, word.x_mask, word.z_mask))
        if not word.support & _cell_mask(layout, CENTER):
            violations.append(
                Violation("anchoring", gen.name, "support misses the central cell")
            )
        if gen.kind is not GeneratorKind.VERTEX:
            off = far_cell_offset(layout, gen)
            far = (CENTER[0] + off[0], CENTER[1] + off[1])
            if not word.support & _cell_mask(layout, far):
                violations.append(
                    Violation(
                        "anchoring", gen.name, f"support misses far endpoint cell {far}"
                    )
                )

    required = required_parity_table(layout)
    moved = [
        lattice.clipped_translates(x, z, layout.qubits_per_cell) for _, _, x, z in present
    ]
    for a, (i, gen_a, xa, za) in enumerate(present):
        for (j, gen_b, _, _), translates in zip(present[a:], moved[a:]):
            want = required[i][j]
            for s, (tx, tz) in enumerate(translates):
                got = ((xa & tz).bit_count() + (za & tx).bit_count()) & 1
                if got != want[s]:
                    violations.append(
                        Violation(
                            "commutation", gen_a.name, gen_b.name, lattice.ALL_SHIFTS[s],
                            want[s], got,
                        )
                    )
    return violations


def derive_stabilizers(enc: EncodingCandidate) -> tuple[PauliWord, ...]:
    """Loop stabilizers of every plaquette orbit, anchored at the central cell.

    Trivial (identity) loop images and exact duplicates are dropped, so
    encodings whose loops multiply to the identity report no stabilizers.
    """
    out: list[PauliWord] = []
    seen: set[tuple[int, int]] = set()
    for cycle in stabilizer_cycles(enc.layout):
        word = fermion.loop_stabilizer(cycle, enc)
        if word.is_identity():
            continue
        key = (word.x_mask, word.z_mask)
        if key in seen:
            continue
        seen.add(key)
        out.append(word)
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
