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

Deformed encodings go through the same Pareto front as the brute-force
search; every emitted encoding re-validates by construction.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable

from . import fermion, lattice
from .encoding import EncodingCandidate, compute_metrics, derive_stabilizers, validate
from .fermion import HamiltonianSpec, PathError, far_cell_offset, generator_ids
from .lattice import UnitCellLayout
from .search_bruteforce import (
    HoppingCapMode,
    ParetoFront,
    SearchReport,
    _passes_completion_filters,
    SearchConfig,
)
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
        if self.min_logical_weight_filter is not None and self.min_logical_weight_filter < 1:
            raise ValueError("min_logical_weight_filter must be at least 1")
        if self.sequence_budget is not None and self.sequence_budget < 1:
            raise ValueError("sequence_budget must be at least 1")


@lru_cache(maxsize=None)
def _perm_matrix(perm: tuple[str, str, str]) -> tuple[int, int, int, int]:
    """F2 matrix (mxx, mxz, mzx, mzz) of a letter permutation on (x, z) bits."""
    xa, za = LETTER_BITS[perm[0]]  # image of X
    xb, zb = LETTER_BITS[perm[2]]  # image of Z
    return xa, xb, za, zb


@lru_cache(maxsize=None)
def _local_mask(qpc: int, local: int) -> int:
    mask = 0
    for idx in range(lattice.WINDOW * lattice.WINDOW):
        mask |= 1 << (idx * qpc + local)
    return mask


@lru_cache(maxsize=None)
def _cnot_pairs(
    qpc: int, rel: tuple[int, int], control_local: int, target_local: int
) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...], tuple[int, ...]]:
    """In-window (control slot, target slot) pairs plus clipped-side slots.

    Returns (pairs, lost_control_slots, lost_target_slots): control slots
    whose partner falls outside the window lose their X propagation, target
    slots without a partner lose their Z propagation.
    """
    pairs = []
    lost_control = []
    lost_target = []
    for y in range(lattice.WINDOW):
        for x in range(lattice.WINDOW):
            u = (x, y)
            v = (x + rel[0], y + rel[1])
            cs = lattice.cell_index(u) * qpc + control_local
            if 0 <= v[0] < lattice.WINDOW and 0 <= v[1] < lattice.WINDOW:
                pairs.append((cs, lattice.cell_index(v) * qpc + target_local))
            else:
                lost_control.append(cs)
            w = (x - rel[0], y - rel[1])
            if not (0 <= w[0] < lattice.WINDOW and 0 <= w[1] < lattice.WINDOW):
                lost_target.append(lattice.cell_index(u) * qpc + target_local)
    return tuple(pairs), tuple(lost_control), tuple(lost_target)


def _apply_single(word: PauliWord, gate: SingleQubitGate, layout: UnitCellLayout) -> PauliWord:
    mask = _local_mask(layout.qubits_per_cell, gate.local)
    mxx, mxz, mzx, mzz = _perm_matrix(gate.perm)
    xt, zt = word.x_mask & mask, word.z_mask & mask
    nxt = (xt if mxx else 0) ^ (zt if mxz else 0)
    nzt = (xt if mzx else 0) ^ (zt if mzz else 0)
    return PauliWord(
        (word.x_mask & ~mask) | nxt, (word.z_mask & ~mask) | nzt, word.n_slots
    )


def _apply_cnot(
    word: PauliWord, gate: CnotGate, layout: UnitCellLayout
) -> tuple[PauliWord, bool]:
    rel = gate.relative_offset
    pairs, lost_control, lost_target = _cnot_pairs(
        layout.qubits_per_cell, rel, gate.control[1], gate.target[1]
    )
    x, z = word.x_mask, word.z_mask
    nx, nz = x, z
    for cs, ts in pairs:
        if (x >> cs) & 1:
            nx ^= 1 << ts
        if (z >> ts) & 1:
            nz ^= 1 << cs
    clipped = any((x >> cs) & 1 for cs in lost_control) or any(
        (z >> ts) & 1 for ts in lost_target
    )
    return PauliWord(nx, nz, word.n_slots), clipped


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
    allowed = set(connected_cell_offsets(layout))
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
    clipped = False
    new_gens = {}
    for gen, word in enc.generators.items():
        if isinstance(g, SingleQubitGate):
            new_gens[gen] = _apply_single(word, g, layout)
        else:
            new_word, word_clipped = _apply_cnot(word, g, layout)
            new_gens[gen] = new_word
            clipped = clipped or word_clipped
    return replace(enc, generators=new_gens, stabilizer_generators=None, metrics=None), clipped


def connected_cell_offsets(layout: UnitCellLayout) -> list[tuple[int, int]]:
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
    return sorted(offsets)


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


def _all_sequences(n_gates: int, max_len: int):
    for k in range(max_len + 1):
        yield from itertools.permutations(range(n_gates), k)


def _search_filter_config(cfg: CliffordConfig) -> SearchConfig | None:
    """Completion-filter view of the Clifford config; None when uncapped."""
    if cfg.max_vertex_weight is None and cfg.max_edge_or_hopping_weight is None:
        if cfg.min_logical_weight_filter is None and cfg.min_distance_filter <= 1:
            return None
    n = cfg.base.layout.n_slots
    return SearchConfig(
        layout=cfg.base.layout,
        max_vertex_weight=cfg.max_vertex_weight or n,
        max_edge_or_hopping_weight=cfg.max_edge_or_hopping_weight or n,
        hopping_cap_mode=cfg.hopping_cap_mode,
        min_distance_filter=cfg.min_distance_filter,
        min_logical_weight_filter=cfg.min_logical_weight_filter,
    )


@dataclass
class _Deformation:
    encoding: EncodingCandidate
    sequence: tuple[int, ...]
    clipped: bool
    invalid: bool
    filtered: bool


def _evaluate_sequence(
    cfg: CliffordConfig,
    gates: list[CliffordGateOp],
    seq: tuple[int, ...],
    filter_cfg: SearchConfig | None,
) -> _Deformation:
    enc = cfg.base
    clipped = False
    for idx in seq:
        enc, c = apply_clifford(enc, gates[idx])
        clipped = clipped or c
    if validate(enc):
        return _Deformation(enc, seq, clipped, invalid=True, filtered=False)
    try:
        enc = enc.with_stabilizers(derive_stabilizers(enc))
        metrics = compute_metrics(enc, HamiltonianSpec(), cfg.min_distance_filter)
    except PathError:
        return _Deformation(enc, seq, clipped, invalid=True, filtered=False)
    enc = enc.with_metrics(metrics)
    if filter_cfg is not None and not _passes_completion_filters(
        filter_cfg, enc, metrics
    ):
        return _Deformation(enc, seq, clipped, invalid=False, filtered=True)
    if metrics.distance.value < cfg.min_distance_filter:
        return _Deformation(enc, seq, clipped, invalid=False, filtered=True)
    return _Deformation(enc, seq, clipped, invalid=False, filtered=False)


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
    length, deduplicated by the resulting generator map.  ``sink`` receives
    each accepted encoding plus a provenance dict naming the gate sequence.
    Sequences are evaluated one after another in the calling thread.
    ``threads`` remains as a keyword that takes only 1 (``bench/worker.py``
    passes it); any other value raises ValueError.
    """
    if threads != 1:
        raise ValueError("the search runs in one thread; threads must be 1")
    if validate(cfg.base):
        raise ValueError("base encoding does not validate")
    base = cfg.base
    if base.stabilizer_generators is None:
        base = base.with_stabilizers(derive_stabilizers(base))
        cfg = replace(cfg, base=base)
    gates = sample_gate_set(cfg)
    filter_cfg = _search_filter_config(cfg)
    report = SearchReport()
    front = front if front is not None else ParetoFront()
    seen: set[tuple] = set()

    def reduce(deformation: _Deformation) -> None:
        report.nodes += 1
        if deformation.invalid:
            report.invalid += 1
            return
        if deformation.filtered:
            report.filtered += 1
            return
        report.completions += 1
        enc = deformation.encoding
        key = enc.canonical_key()
        if key in seen:
            return
        seen.add(key)
        metrics = enc.metrics
        assert metrics is not None
        if not front.update(metrics.key(), enc):
            return
        if final_w_max is not None and final_w_max > cfg.min_distance_filter:
            metrics = compute_metrics(enc, HamiltonianSpec(), final_w_max)
            enc = enc.with_metrics(metrics)
        report.emitted += 1
        if metrics.distance.exact:
            report.best_distance = max(report.best_distance or 0, metrics.distance.value)
        provenance = {
            "clifford_sequence": [gates[i].describe() for i in deformation.sequence],
            "clipped": deformation.clipped,
        }
        sink(enc, provenance)

    raw = _all_sequences(len(gates), cfg.max_sequence_length)
    budget = cfg.sequence_budget
    sequences = raw if budget is None else itertools.islice(raw, budget)
    for seq in sequences:
        reduce(_evaluate_sequence(cfg, gates, seq, filter_cfg))
    if budget is not None and next(raw, None) is not None:
        report.truncated = True
    return report
