"""Depth-first enumeration of encodings with pruning and Pareto filtering.

Generators are assigned in a fixed order (per mode: vertex, horizontal
edge, vertical edge, then the diagonal edges the layout defines).  At every
node the candidate Pauli words are restricted by:

* support touching the central cell, edges also touching their far cell;
* qubit-activation order: a cell-local slot may be used only once every
  lower local slot is used by some assigned generator (orbit-wise);
* letter normalization: the first, second and third distinct letters ever
  placed on a local slot must be Z, X, Y in that order, which kills the
  single-qubit relabeling symmetry;
* weight caps on vertices and on edge words / hopping terms;
* windowed commutation against every assigned generator and against the
  candidate's own translates.

The whole tree is walked by one depth-first search in one thread.  Each
completion is re-validated, measured, inserted into a Pareto front over
(distance, max stabilizer weight, sigma_NN, sigma_NNN) and streamed as
soon as it is found.  Every candidate of the first generator starts its own
RNG stream, derived from the seed and the candidate's index, so a
stochastic run draws the same numbers below a given first generator
whatever came before it.
"""

from __future__ import annotations

import enum
import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, Iterator

from . import fermion, lattice
from .encoding import (
    EncodingCandidate,
    Metrics,
    _cell_mask,
    compute_metrics,
    derive_stabilizers,
    validate,
)
from .fermion import (
    FermionGeneratorId,
    GeneratorKind,
    HamiltonianSpec,
    PathError,
    far_cell_offset,
    generator_ids,
    required_parity_table,
)
from .lattice import CENTER, UnitCellLayout
from .symplectic import LETTER_BITS, PauliWord

_INTRO_ORDER = ("Z", "X", "Y")


class HoppingCapMode(enum.Enum):
    NN = "nn"
    NN_AND_NNN = "nn+nnn"


@dataclass(frozen=True)
class SearchConfig:
    """All knobs of one brute-force run; equal configs give equal runs."""

    layout: UnitCellLayout
    max_vertex_weight: int
    max_edge_or_hopping_weight: int
    hopping_cap_mode: HoppingCapMode = HoppingCapMode.NN
    min_distance_filter: int = 1
    min_logical_weight_filter: int | None = None
    acceptance_probability: float = 1.0
    rng_seed: int = 0
    node_budget: int | None = None

    def __post_init__(self) -> None:
        n = self.layout.n_slots
        if not 1 <= self.max_vertex_weight <= n:
            raise ValueError(f"max_vertex_weight must be in 1..{n}")
        if not 1 <= self.max_edge_or_hopping_weight <= n:
            raise ValueError(f"max_edge_or_hopping_weight must be in 1..{n}")
        if not 0.0 < self.acceptance_probability <= 1.0:
            raise ValueError("acceptance_probability must be in (0, 1]")
        if self.min_distance_filter < 1:
            raise ValueError("min_distance_filter must be at least 1")
        if self.min_logical_weight_filter is not None and self.min_logical_weight_filter < 1:
            raise ValueError("min_logical_weight_filter must be at least 1")
        if self.node_budget is not None and self.node_budget < 1:
            raise ValueError("node_budget must be at least 1")


def stochastic_gate(accept_probability: float, rng: random.Random) -> bool:
    """One Bernoulli draw deciding whether a valid assignment is kept."""
    if not 0.0 < accept_probability <= 1.0:
        raise ValueError("accept_probability must be in (0, 1]")
    return rng.random() < accept_probability


def derive_subtree_seed(seed: int, index: int) -> int:
    """Stable per-subtree RNG seed, independent of platform hashing."""
    mixed = (seed * 6364136223846793005 + 1442695040888963407 * (index + 1)) & (
        (1 << 64) - 1
    )
    return mixed ^ (mixed >> 31)


# ---------------------------------------------------------------------------
# Pareto front


MetricsKey = tuple  # (distance value, max stab weight, sigma_nn, sigma_nnn)


def dominates(a: MetricsKey, b: MetricsKey) -> bool:
    """a is at least as good everywhere (distance up, weights down) and better once."""
    return (
        a[0] >= b[0]
        and a[1] <= b[1]
        and a[2] <= b[2]
        and a[3] <= b[3]
        and a != b
    )


@dataclass
class ParetoEntry:
    key: MetricsKey
    encoding: EncodingCandidate


@dataclass
class ParetoFront:
    """Non-dominated set of encodings; exact metric ties are all kept."""

    entries: list[ParetoEntry] = field(default_factory=list)

    def update(self, key: MetricsKey, encoding: EncodingCandidate) -> bool:
        for entry in self.entries:
            if dominates(entry.key, key):
                return False
        self.entries = [e for e in self.entries if not dominates(key, e.key)]
        self.entries.append(ParetoEntry(key, encoding))
        return True

    def snapshot(self) -> list[ParetoEntry]:
        """Entries in a canonical order independent of insertion history."""

        def entry_key(e: ParetoEntry):
            canonical = getattr(e.encoding, "canonical_key", None)
            return (e.key, canonical() if callable(canonical) else repr(e.encoding))

        return sorted(self.entries, key=entry_key)

    def __len__(self) -> int:
        return len(self.entries)


# ---------------------------------------------------------------------------
# Search report


@dataclass
class SearchReport:
    nodes: int = 0
    completions: int = 0
    filtered: int = 0
    invalid: int = 0
    emitted: int = 0
    truncated: bool = False
    best_distance: int | None = None

    def to_json(self) -> dict:
        return {
            "nodes": self.nodes,
            "completions": self.completions,
            "filtered": self.filtered,
            "invalid": self.invalid,
            "emitted": self.emitted,
            "truncated": self.truncated,
            "best_distance": self.best_distance,
        }


# ---------------------------------------------------------------------------
# The DFS engine


class _SearchContext:
    """Per-run constants plus the mutable state of the depth-first search."""

    def __init__(self, cfg: SearchConfig):
        self.cfg = cfg
        layout = cfg.layout
        self.layout = layout
        self.n = layout.n_slots
        self.qpc = layout.qubits_per_cell
        self.gen_order = generator_ids(layout)
        self.shifts = lattice.ALL_SHIFTS
        tables = lattice._shift_tables(self.qpc)
        self.shift_tables = [tables[shift] for shift in self.shifts]

        center_mask = _cell_mask(layout, CENTER)
        self.required_cell_masks: list[tuple[int, ...]] = []
        self.caps: list[int] = []
        for gen in self.gen_order:
            if gen.kind is GeneratorKind.VERTEX:
                self.required_cell_masks.append((center_mask,))
                self.caps.append(cfg.max_vertex_weight)
            else:
                off = far_cell_offset(layout, gen)
                far_mask = _cell_mask(layout, (CENTER[0] + off[0], CENTER[1] + off[1]))
                masks = (center_mask,) if far_mask == center_mask else (center_mask, far_mask)
                self.required_cell_masks.append(masks)
                self.caps.append(cfg.max_edge_or_hopping_weight)

        req = required_parity_table(layout)
        n_gen = len(self.gen_order)
        self.required: list[list[tuple[int, ...]]] = [
            [
                tuple(req[(self.gen_order[i], self.gen_order[j], s)] for s in self.shifts)
                for j in range(n_gen)
            ]
            for i in range(n_gen)
        ]

        # Mutable search state.
        self.assigned: list[tuple[int, int]] = []
        self.assigned_translates: list[list[tuple[int, int]]] = []
        self.intro: list[list[str]] = [[] for _ in range(self.qpc)]
        # Per-level bit-parallel commutation tables (see _begin_level).
        self.contrib: list[dict[str, int]] = []
        self.required_mask: int = 0

    # -- candidate enumeration -------------------------------------------

    def translates(self, x: int, z: int) -> list[tuple[int, int]]:
        """Clipped window translates of a word, in ``self.shifts`` order."""
        return [lattice._translate_masks(x, z, table, True) for table in self.shift_tables]

    def _begin_level(self, gi: int) -> None:
        """Build the bit-parallel commutation tables for generator level ``gi``.

        Bit (j * 25 + k) of the accumulator tracks the parity of the
        candidate against the k-th clipped translate of assigned generator
        j; a candidate is consistent iff the accumulated vector equals the
        required-parity mask.  The XOR accumulation runs per placed letter,
        so rejected candidates cost O(weight) integer operations.
        """
        n_shifts = len(self.shifts)
        contrib: list[dict[str, int]] = []
        for slot in range(self.n):
            per_letter: dict[str, int] = {}
            for letter in ("X", "Y", "Z"):
                cx, cz = LETTER_BITS[letter]
                acc = 0
                bit = 0
                for translates in self.assigned_translates:
                    for tx, tz in translates:
                        lx = (tx >> slot) & 1
                        lz = (tz >> slot) & 1
                        if (cx & lz) ^ (cz & lx):
                            acc |= 1 << bit
                        bit += 1
                per_letter[letter] = acc
            contrib.append(per_letter)
        self.contrib = contrib
        mask = 0
        bit = 0
        for j in range(len(self.assigned)):
            req = self.required[gi][j]
            for k in range(n_shifts):
                if req[k]:
                    mask |= 1 << bit
                bit += 1
        self.required_mask = mask

    def _support_ok(self, support: tuple[int, ...], gi: int) -> bool:
        mask = 0
        for slot in support:
            mask |= 1 << slot
        for required in self.required_cell_masks[gi]:
            if not mask & required:
                return False
        # Activation order: new locals must extend the active prefix.
        active = sum(1 for letters in self.intro if letters)
        new_locals = sorted(
            {slot % self.qpc for slot in support if not self.intro[slot % self.qpc]}
        )
        return new_locals == list(range(active, active + len(new_locals)))

    def _letters(
        self, support: tuple[int, ...], idx: int, x: int, z: int, acc: int
    ) -> Iterator[tuple[int, int, int]]:
        # The tentative introductions stay applied while a candidate is
        # yielded, so deeper generators see exactly the extended state; they
        # unwind automatically when enumeration resumes.
        if idx == len(support):
            yield x, z, acc
            return
        slot = support[idx]
        introduced = self.intro[slot % self.qpc]
        if len(introduced) >= 3:
            allowed = _INTRO_ORDER
        else:
            allowed = tuple(introduced) + (_INTRO_ORDER[len(introduced)],)
        slot_contrib = self.contrib[slot]
        for letter in ("X", "Y", "Z"):
            if letter not in allowed:
                continue
            fresh = letter not in introduced
            if fresh:
                introduced.append(letter)
            bx, bz = LETTER_BITS[letter]
            yield from self._letters(
                support,
                idx + 1,
                x | bx << slot,
                z | bz << slot,
                acc ^ slot_contrib[letter],
            )
            if fresh:
                introduced.pop()

    def candidates(self, gi: int) -> Iterator[tuple[int, int, int]]:
        """Candidate (x, z, parity accumulator) triples for level ``gi``.

        ``_begin_level(gi)`` must have been called for the current assigned
        prefix; the accumulator equals ``required_mask`` exactly when the
        candidate satisfies every windowed parity against assigned
        generators.
        """
        for w in range(1, self.caps[gi] + 1):
            for support in itertools.combinations(range(self.n), w):
                if not self._support_ok(support, gi):
                    continue
                yield from self._letters(support, 0, 0, 0, 0)

    # -- pruning checks ----------------------------------------------------

    def self_commutation_ok(self, gi: int, x: int, z: int) -> bool:
        """Windowed parities of a candidate against its own translates."""
        req_self = self.required[gi][gi]
        for idx, (tx, tz) in enumerate(self.translates(x, z)):
            if (((x & tz).bit_count() + (z & tx).bit_count()) & 1) != req_self[idx]:
                return False
        return True

    def assign(self, x: int, z: int) -> None:
        self.assigned.append((x, z))
        self.assigned_translates.append(self.translates(x, z))

    def unassign(self) -> None:
        self.assigned.pop()
        self.assigned_translates.pop()

    def _partial_encoding(self, extra: tuple[int, tuple[int, int]] | None) -> EncodingCandidate:
        gens: dict[FermionGeneratorId, PauliWord] = {}
        for idx, (x, z) in enumerate(self.assigned):
            gens[self.gen_order[idx]] = PauliWord(x, z, self.n)
        if extra is not None:
            gi, (x, z) = extra
            gens[self.gen_order[gi]] = PauliWord(x, z, self.n)
        return EncodingCandidate(self.layout, gens)

    def _capped_hop_directions(self) -> list[tuple[int, tuple[int, int]]]:
        out = []
        cap_nnn = self.cfg.hopping_cap_mode is HoppingCapMode.NN_AND_NNN
        for mode in range(self.layout.modes_per_cell):
            for d in fermion.NN_DIRECTIONS:
                out.append((mode, d))
            if cap_nnn:
                for d in fermion.NNN_DIRECTIONS:
                    out.append((mode, d))
        return out

    def hop_caps_ok(self, gi: int, x: int, z: int) -> bool:
        """Cap every hopping whose edge and endpoint vertices are all assigned."""
        gen = self.gen_order[gi]
        enc = self._partial_encoding((gi, (x, z)))
        cap = self.cfg.max_edge_or_hopping_weight
        min_w = self.cfg.min_logical_weight_filter
        checks: list[tuple[int, tuple[int, int]]] = []
        if gen.kind is not GeneratorKind.VERTEX:
            if gen.kind in fermion.EDGE_DIRECTIONS:
                direction = fermion.EDGE_DIRECTIONS[gen.kind]
                if self._hop_computable(enc, gen.mode, direction):
                    checks.append((gen.mode, direction))
        else:
            for mode, d in self._capped_hop_directions():
                if self._hop_computable(enc, mode, d):
                    checks.append((mode, d))
        is_diag_capped = self.cfg.hopping_cap_mode is HoppingCapMode.NN_AND_NNN
        for mode, d in checks:
            if d in fermion.NNN_DIRECTIONS and not is_diag_capped:
                continue
            try:
                w = fermion.hopping_weight(enc, mode, d)
            except PathError:
                continue  # not representable yet; completion re-checks
            if w > cap:
                return False
            if min_w is not None and w < min_w:
                return False
        return True

    def _hop_computable(self, enc: EncodingCandidate, mode: int, d: tuple[int, int]) -> bool:
        layout = self.layout
        canonical = fermion._CANONICAL_DIRECTION[d]
        kind = fermion._KIND_BY_DIRECTION.get(canonical)
        v0 = fermion.Vertex(CENTER, mode)
        w = fermion.step(layout, v0, canonical)
        needed = [FermionGeneratorId(GeneratorKind.VERTEX, v0.mode),
                  FermionGeneratorId(GeneratorKind.VERTEX, w.mode)]
        if kind is not None and kind in fermion.edge_kinds(layout):
            needed.append(FermionGeneratorId(kind, mode))
        else:
            mid = fermion.step(layout, v0, (canonical[0], 0))
            try:
                needed.append(fermion._edge_instance(layout, v0, mid)[0])
                needed.append(fermion._edge_instance(layout, mid, w)[0])
            except PathError:
                return False
        return all(g in enc.generators for g in needed)


def _passes_completion_filters(
    cfg: SearchConfig, enc: EncodingCandidate, metrics: Metrics
) -> bool:
    if metrics.distance.value < cfg.min_distance_filter:
        return False
    weights = dict(metrics.term_weights)
    capped_nnn = cfg.hopping_cap_mode is HoppingCapMode.NN_AND_NNN
    relevant: list[int] = []
    for name, w in weights.items():
        is_hop = name.startswith("hop:")
        is_nnn = name.split(":")[1] in ("+ur", "-ur", "+ul", "-ul") if is_hop else False
        if is_hop and is_nnn and not capped_nnn:
            continue
        relevant.append(w)
        if is_hop and w > cfg.max_edge_or_hopping_weight:
            return False
    if cfg.min_logical_weight_filter is not None:
        if any(w < cfg.min_logical_weight_filter for w in relevant):
            return False
    return True


def brute_force_search(
    cfg: SearchConfig,
    sink: Callable[[EncodingCandidate], None],
    *,
    threads: int = 1,
    final_w_max: int | None = None,
    front: ParetoFront | None = None,
    completion_sink: Callable[[EncodingCandidate], None] | None = None,
) -> SearchReport:
    """Run the full enumeration, streaming Pareto-accepted encodings to ``sink``.

    The search runs as one depth-first walk in the calling thread; equal
    configs give equal reports and emitted sequences.  Search-time metrics
    use a distance budget equal to the distance filter; accepted encodings
    are re-measured at ``final_w_max`` (when larger) before being emitted.
    ``completion_sink`` sees every completion that passes the filters, in
    the order found.  ``threads`` remains as a keyword that takes only 1
    (``bench/worker.py`` passes it); any other value raises ValueError.
    """
    if threads != 1:
        raise ValueError("the search runs in one thread; threads must be 1")
    ctx = _SearchContext(cfg)
    n_levels = len(ctx.gen_order)
    report = SearchReport()
    front = front if front is not None else ParetoFront()
    budget = cfg.node_budget

    def complete() -> None:
        report.completions += 1
        enc = ctx._partial_encoding(None)
        if validate(enc):
            report.invalid += 1
            return
        try:
            enc = enc.with_stabilizers(derive_stabilizers(enc))
            metrics = compute_metrics(enc, HamiltonianSpec(), cfg.min_distance_filter)
        except PathError:
            report.invalid += 1
            return
        if not _passes_completion_filters(cfg, enc, metrics):
            report.filtered += 1
            return
        enc = enc.with_metrics(metrics)
        if completion_sink is not None:
            completion_sink(enc)
        if not front.update(metrics.key(), enc):
            return
        if final_w_max is not None and final_w_max > cfg.min_distance_filter:
            metrics = compute_metrics(enc, HamiltonianSpec(), final_w_max)
            enc = enc.with_metrics(metrics)
        report.emitted += 1
        if metrics.distance.exact:
            report.best_distance = max(report.best_distance or 0, metrics.distance.value)
        sink(enc)

    def dfs(gi: int, rng: random.Random | None) -> bool:
        """Walk level ``gi`` and below; False once the node budget cuts the run."""
        ctx._begin_level(gi)
        required_mask = ctx.required_mask
        for index, (x, z, acc) in enumerate(ctx.candidates(gi)):
            if gi == 0:
                if budget is not None and report.nodes >= budget:
                    report.truncated = True
                    return False
                rng = random.Random(derive_subtree_seed(cfg.rng_seed, index))
            if acc != required_mask:
                continue
            if not ctx.self_commutation_ok(gi, x, z):
                continue
            if not ctx.hop_caps_ok(gi, x, z):
                continue
            if not stochastic_gate(cfg.acceptance_probability, rng):
                continue
            if budget is not None and report.nodes >= budget:
                report.truncated = True
                return False
            report.nodes += 1
            ctx.assign(x, z)
            if gi + 1 == n_levels:
                complete()
            elif not dfs(gi + 1, rng):
                return False
            ctx.unassign()
            ctx._begin_level(gi)
        return True

    dfs(0, None)
    return report
