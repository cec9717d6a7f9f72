"""Clifford deformations of a base encoding, replicated over the lattice.

Gates are phase-blind Clifford classes acting on the stored generator
images:

* single-qubit gates permute the letters {X, Y, Z} on one cell-local slot
  of every cell; replicas act on disjoint qubits, so this is an exact
  translation-invariant Clifford and preserves validation bit for bit;
* intra-cell CNOTs conjugate a (control, target) slot pair inside every
  cell; replicas are again disjoint and exact;
* cross-cell CNOTs update every in-window translate pair simultaneously
  from the pre-gate masks.  With distinct control/target locals this is the
  translation-invariant symplectic map (up to window clipping, which is
  flagged); with equal locals no translation-invariant Clifford exists at
  all, so deformed candidates are re-validated and rejected when broken.

Each gate has one implementation, a routine on a word's raw ``(x, z)``
masks (``_gate_masks``); ``apply_clifford`` maps it over an encoding.
Sequences are walked length by length, each length as one depth-first
walk over the gate pool that keeps the prefix images, one mask pair per
generator, on a stack: every sequence applies one gate to the image of its
prefix, and the sequences of a length come in ``itertools.permutations``
order.  A single-qubit gate only relabels the code, so the maps that
differ by a permutation of the cell-local qubits and of X/Y/Z on each local
form one relabeling class (``lattice.canonical_relabel``), with one
validation outcome and one metrics key.  The first map of each class in
walk order becomes an encoding candidate and goes through the brute-force
search's completion pipeline once: validation, one metrics pass, the
filters and the Pareto front.  A map already reached reads its class's
outcome by its raw masks, without computing the class key.  Every emitted
encoding therefore re-validates.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable

from . import fermion, lattice
from .encoding import EncodingCandidate, validate
from .fermion import far_cell_offset, generator_ids
from .lattice import UnitCellLayout
from .search_bruteforce import HoppingCapMode, ParetoFront, SearchReport, _complete
from .symplectic import LETTER_BITS, PauliWord

#: The six phase-blind single-qubit Clifford classes as images of (X, Y, Z).
ALL_LETTER_PERMS = tuple(itertools.permutations(("X", "Y", "Z")))


@dataclass(frozen=True)
class SingleQubitGate:
    """Letter permutation on one local slot, replicated across every cell."""

    local: int
    perm: tuple[str, str, str]  # images of (X, Y, Z)

    def __post_init__(self) -> None:
        if sorted(self.perm) != ["X", "Y", "Z"]:
            raise ValueError(f"not a letter permutation: {self.perm!r}")
        if self.local < 0:
            raise ValueError("local slot index must be non-negative")

    def describe(self) -> str:
        return f"single:{self.local}:{''.join(self.perm)}"


@dataclass(frozen=True)
class CnotGate:
    """CNOT on a (control, target) slot pair, replicated across translates.

    Endpoints are (cell offset, local) pairs; offsets are relative to an
    arbitrary base cell, so only their difference matters.
    """

    control: tuple[tuple[int, int], int]
    target: tuple[tuple[int, int], int]

    def describe(self) -> str:
        (co, cl), (to, tl) = self.control, self.target
        return f"cnot:{co[0]},{co[1]}:{cl}>{to[0]},{to[1]}:{tl}"

    @property
    def relative_offset(self) -> tuple[int, int]:
        return (
            self.target[0][0] - self.control[0][0],
            self.target[0][1] - self.control[0][1],
        )


CliffordGateOp = SingleQubitGate | CnotGate


@dataclass(frozen=True)
class CliffordConfig:
    """Sampling and filtering knobs of one deformation run."""

    base: EncodingCandidate
    n_single_qubit_samples: int
    n_cnot_pairs: int
    max_sequence_length: int
    rng_seed: int = 0
    min_distance_filter: int = 1
    max_vertex_weight: int | None = None
    max_edge_or_hopping_weight: int | None = None
    hopping_cap_mode: HoppingCapMode = HoppingCapMode.NN
    min_logical_weight_filter: int | None = None
    sequence_budget: int | None = None

    def __post_init__(self) -> None:
        if self.n_single_qubit_samples < 0 or self.n_cnot_pairs < 0:
            raise ValueError("sample counts must be non-negative")
        if self.max_sequence_length < 0:
            raise ValueError("max_sequence_length must be non-negative")
        if self.min_distance_filter < 1:
            raise ValueError("min_distance_filter must be at least 1")
        if self.max_vertex_weight is not None and self.max_vertex_weight < 1:
            raise ValueError("max_vertex_weight must be at least 1")
        if self.max_edge_or_hopping_weight is not None and self.max_edge_or_hopping_weight < 1:
            raise ValueError("max_edge_or_hopping_weight must be at least 1")
        if self.min_logical_weight_filter is not None and self.min_logical_weight_filter < 1:
            raise ValueError("min_logical_weight_filter must be at least 1")
        if self.sequence_budget is not None and self.sequence_budget < 1:
            raise ValueError("sequence_budget must be at least 1")


@lru_cache(maxsize=None)
def _gate_masks(qpc: int, g: CliffordGateOp) -> Callable[[int, int], tuple[int, int, bool]]:
    """The replicated gate on one word's raw masks: ``(x, z) -> (x', z',
    clipped)``, where ``clipped`` marks a cross-cell CNOT translate cut off
    at the window boundary.  ``g`` must have passed ``_check_gate``."""
    if isinstance(g, SingleQubitGate):
        mask = lattice._local_masks(qpc)[g.local]
        (xx, zx), (xz, zz) = LETTER_BITS[g.perm[0]], LETTER_BITS[g.perm[2]]  # X and Z images

        def single(x: int, z: int) -> tuple[int, int, bool]:
            xt, zt = x & mask, z & mask
            nxt = (xt if xx else 0) ^ (zt if xz else 0)
            nzt = (xt if zx else 0) ^ (zt if zz else 0)
            return (x & ~mask) | nxt, (z & ~mask) | nzt, False

        return single

    # In-window (control slot, target slot) pairs; a control slot whose
    # partner leaves the window loses its X propagation, a target slot
    # without a partner its Z propagation.
    (rx, ry), cl, tl = g.relative_offset, g.control[1], g.target[1]
    pairs, lost_x, lost_z, inside = [], 0, 0, range(lattice.WINDOW)
    for idx, (x, y) in enumerate(lattice._cells_by_index()):
        if x + rx in inside and y + ry in inside:
            pairs.append((idx * qpc + cl, lattice.cell_index((x + rx, y + ry)) * qpc + tl))
        else:
            lost_x |= 1 << idx * qpc + cl
        if x - rx not in inside or y - ry not in inside:
            lost_z |= 1 << idx * qpc + tl

    def cnot(x: int, z: int) -> tuple[int, int, bool]:
        nx, nz = x, z
        for cs, ts in pairs:
            if x >> cs & 1:
                nx ^= 1 << ts
            if z >> ts & 1:
                nz ^= 1 << cs
        return nx, nz, bool(x & lost_x or z & lost_z)

    return cnot


def _check_gate(layout: UnitCellLayout, g: CliffordGateOp) -> None:
    qpc = layout.qubits_per_cell
    if isinstance(g, SingleQubitGate):
        if g.local >= qpc:
            raise ValueError(f"local slot {g.local} outside cell of {qpc}")
        return
    (_, cl), (_, tl) = g.control, g.target
    if cl >= qpc or tl >= qpc:
        raise ValueError("CNOT local slot outside the cell")
    rel = g.relative_offset
    if rel == (0, 0):
        if cl == tl:
            raise ValueError("CNOT endpoints coincide")
        return
    allowed = connected_cell_offsets(layout)
    if rel not in allowed and (-rel[0], -rel[1]) not in allowed:
        raise ValueError(f"cells at offset {rel} share no edge operator")


def apply_clifford(
    enc: EncodingCandidate, g: CliffordGateOp
) -> tuple[EncodingCandidate, bool]:
    """Conjugate every generator image by the replicated gate.

    Returns the deformed candidate (stabilizers and metrics dropped; callers
    re-derive them after validating) and a flag marking whether any
    cross-cell CNOT translate was clipped at the window boundary.
    """
    layout = enc.layout
    _check_gate(layout, g)
    act = _gate_masks(layout.qubits_per_cell, g)
    images = {gen: act(word.x_mask, word.z_mask) for gen, word in enc.generators.items()}
    new_gens = {gen: PauliWord(x, z, layout.n_slots) for gen, (x, z, _) in images.items()}
    clipped = any(c for _, _, c in images.values())
    return replace(enc, generators=new_gens, stabilizer_generators=None, metrics=None), clipped


@lru_cache(maxsize=None)
def connected_cell_offsets(layout: UnitCellLayout) -> tuple[tuple[int, int], ...]:
    """Nonzero cell offsets joined by some edge generator (one per +- class)."""
    offsets = set()
    for gen in generator_ids(layout):
        if gen.kind is fermion.GeneratorKind.VERTEX:
            continue
        off = far_cell_offset(layout, gen)
        if off == (0, 0):
            continue
        if (-off[0], -off[1]) in offsets:
            continue
        offsets.add(off)
    return tuple(sorted(offsets))


def sample_gate_set(cfg: CliffordConfig) -> list[CliffordGateOp]:
    """Deterministic sampled gate pool for one run.

    Per local slot, ``n_single_qubit_samples`` distinct letter permutations;
    all intra-cell ordered CNOT pairs; per edge-connected cell pair,
    ``n_cnot_pairs`` distinct same-local CNOTs (either orientation).
    """
    layout = cfg.base.layout
    qpc = layout.qubits_per_cell
    rng = random.Random(cfg.rng_seed)
    gates: list[CliffordGateOp] = []
    for local in range(qpc):
        count = min(cfg.n_single_qubit_samples, len(ALL_LETTER_PERMS))
        for perm in rng.sample(ALL_LETTER_PERMS, count):
            gates.append(SingleQubitGate(local, perm))
    for control_local in range(qpc):
        for target_local in range(qpc):
            if control_local != target_local:
                gates.append(
                    CnotGate(((0, 0), control_local), ((0, 0), target_local))
                )
    for off in connected_cell_offsets(layout):
        population = []
        for p in range(qpc):
            population.append(CnotGate(((0, 0), p), (off, p)))
            population.append(CnotGate((off, p), ((0, 0), p)))
        count = min(cfg.n_cnot_pairs, len(population))
        gates.extend(rng.sample(population, count))
    return gates


def _gate_sequences(base: EncodingCandidate, gates: list[CliffordGateOp], max_len: int):
    """Yield ``(sequence, masks, clipped)`` for every ordered selection of
    distinct gates, by length and then in ``itertools.permutations`` order.

    ``masks`` holds one ``(x, z)`` pair per generator, in the order of
    ``base.generators``.  Every gate is checked once and turned into its
    mask routine (``_gate_masks``) before the walk.  Each length is one
    depth-first walk that keeps the prefix images on the stack, so a
    sequence costs one gate application on its prefix's image.  Lengths
    beyond the pool are empty and not walked.
    """
    for g in gates:
        _check_gate(base.layout, g)
    acts = [_gate_masks(base.layout.qubits_per_cell, g) for g in gates]
    n = len(gates)

    def walk(seq, masks, clipped, depth):
        if not depth:
            yield seq, masks, clipped
            return
        for i in range(n):
            if i not in seq:
                images = [acts[i](x, z) for x, z in masks]
                child = tuple((x, z) for x, z, _ in images)
                child_clipped = clipped or any(c for _, _, c in images)
                yield from walk(seq + (i,), child, child_clipped, depth - 1)

    start = tuple((word.x_mask, word.z_mask) for word in base.generators.values())
    for k in range(min(max_len, n) + 1):
        yield from walk((), start, False, k)


def clifford_deform_search(
    cfg: CliffordConfig,
    sink: Callable[[EncodingCandidate, dict], None],
    *,
    threads: int = 1,
    final_w_max: int | None = None,
    front: ParetoFront | None = None,
) -> SearchReport:
    """Enumerate gate sequences over the sampled set and Pareto-filter results.

    Sequences are ordered selections without repetition up to the configured
    length, walked in the calling thread by one prefix walk per length
    (``_gate_sequences``) on raw ``(x, z)`` masks: each sequence's image is
    its prefix's image with one more gate applied, never a replay from the
    base.  The first sequence to reach a relabeling class (keyed by
    ``lattice.canonical_relabel`` of its masks) builds the one
    ``EncodingCandidate`` of the class, generators in the base's order, and
    sends it through ``search_bruteforce._complete``, measured with the
    budget ``max(cfg.min_distance_filter, final_w_max)``; that sequence's
    provenance is the one streamed.  Later sequences that reach the class
    only add to the counter of its outcome: a raw map seen before is looked
    up by its masks, and a new map computes its class key once.
    ``sink`` receives each accepted encoding plus a provenance dict naming
    the gate sequence.  ``threads`` remains as a keyword that takes only 1
    (``bench/worker.py`` passes it); any other value raises ValueError.
    """
    if threads != 1:
        raise ValueError("the search runs in one thread; threads must be 1")
    if validate(cfg.base):
        raise ValueError("base encoding does not validate")
    gates = sample_gate_set(cfg)
    w_max = max(cfg.min_distance_filter, final_w_max or 0)
    layout, gens = cfg.base.layout, tuple(cfg.base.generators)
    n = layout.n_slots
    report = SearchReport()
    front = front if front is not None else ParetoFront()
    # Outcome label of every relabeling class reached so far: validation,
    # the metrics and the filters depend on the class alone.  ``outcomes``
    # caches the label by raw generator map, the per-sequence fast path;
    # its key packs the masks into one int, a tenth of the memory of the
    # tuple.  Only a map that misses it computes its class key.
    outcomes: dict[int, str] = {}
    classes: dict[tuple, str] = {}
    raw = _gate_sequences(cfg.base, gates, cfg.max_sequence_length)
    budget = cfg.sequence_budget
    sequences = raw if budget is None else itertools.islice(raw, budget)
    for seq, masks, clipped in sequences:
        report.nodes += 1
        key = 0
        for x, z in masks:
            key = (key << 2 * n) | (x << n) | z
        outcome = outcomes.get(key)
        if outcome is None:
            cls = lattice.canonical_relabel(masks, layout.qubits_per_cell)
            outcome = classes.get(cls)
            if outcome is None:
                enc = EncodingCandidate(
                    layout, {gen: PauliWord(x, z, n) for gen, (x, z) in zip(gens, masks)}
                )
                provenance = {
                    "clifford_sequence": [gates[i].describe() for i in seq],
                    "clipped": clipped,
                }
                outcome = outcomes[key] = classes[cls] = _complete(
                    cfg, enc, w_max, report, front, lambda accepted: sink(accepted, provenance)
                )
                if outcome == "ok":
                    report.completions += 1
                continue
            outcomes[key] = outcome
        if outcome == "invalid":
            report.invalid += 1
        elif outcome == "filtered":
            report.filtered += 1
        else:
            report.completions += 1
    if budget is not None and next(raw, None) is not None:
        report.truncated = True
    return report
