"""Depth-first enumeration of encodings with pruning and Pareto filtering.

Generators are assigned in a fixed order (per mode: vertex, horizontal
edge, vertical edge, then the diagonal edges the layout defines).  A word
is tried for the next generator when it passes:

* static checks: support touching the central cell, edges also touching
  their far cell, and weight within the vertex or edge cap;
* qubit-activation order: when the assigned generators use cell-local
  slots 0..a-1, the further locals a word uses must be a, a+1, ... with
  none skipped;
* letter normalization: reading the assigned generators in order and each
  word's slots in ascending order, the first, second and third distinct
  letters ever placed on a local slot must be Z, X, Y in that order, which
  kills the single-qubit relabeling symmetry;
* windowed commutation against its own clipped translates, at the
  parities its level requires;
* windowed commutation against every clipped translate of every assigned
  generator.

Survivors then face the hopping caps and the stochastic gate.  The capped
hops (the NN hop orbits of ``fermion.term_orbits``, plus the NNN ones under
``nn+nnn``) are planned once per run: each orbit is checked at the level
that assigns the last generator its words multiply, so a level that
completes no hop skips the check.  The check measures the orbit on the
assigned prefix's raw masks plus the candidate's, and builds no
``PauliWord`` or encoding.

The words that pass the static checks and self-commutation form the
level's universe, built once per run and indexed in enumeration order: by
weight, then ``itertools.combinations`` support order, then
``itertools.product("XYZ")`` letters, last slot fastest.  Self-commutation
depends on the word alone, so it is settled before the search (node
consistency: Mackworth, "Consistency in networks of relations", AI 8,
1977) from the pairs of a word's slots on one local, which are all that
its translates meet.  The search keeps each level's domain as one int
bitset over its universe, starting full.  Assigning a word ANDs every later
domain with the words whose parity against each translate of it is the
required one, read from the same-local slot pairs the translate meets
(forward checking: Haralick & Elliott, "Increasing tree search efficiency
for constraint satisfaction problems", AI 14, 1980).  Activation and
normalization depend only on how many letters each local has introduced
(0 to 3), so they are precomputed bitsets as well.  A level walks the set
bits of its domain and those masks in ascending order, which is the
enumeration order.

The whole tree is walked by one depth-first search in one thread.  Each
completion is validated, measured once, filtered, inserted into a Pareto
front over (distance, max stabilizer weight, sigma_NN, sigma_NNN) and
streamed as soon as it is found, by the pipeline the deform search shares.
Every word of the first generator that passes the other checks above,
whether or not it commutes with its own translates, takes an index in
enumeration order, and each survivor starts its own RNG stream, derived
from the seed and its index, so a stochastic run draws the same numbers
below a given first generator whatever came before it.
"""

from __future__ import annotations

import bisect
import enum
import itertools
import random
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Iterator

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
    GeneratorKind,
    HamiltonianSpec,
    PathError,
    far_cell_offset,
    generator_ids,
    required_parity_table,
)
from .lattice import CENTER, UnitCellLayout
from .symplectic import LETTER_BITS, PauliWord, weight

if TYPE_CHECKING:
    from .search_clifford import CliffordConfig

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
    """Work counters of one run of either search.

    ``nodes`` counts words assigned in the brute-force tree, or gate
    sequences in deform.  ``completions`` counts every full assignment, or
    only the sequences whose map passes validation and the filters.
    ``invalid`` and ``filtered`` count completions (sequences) whose map
    fails validation (or has no representable hopping path) or the filters.
    ``emitted`` counts encodings the front accepted and streamed; a deform
    relabeling class is offered once, by its first map, however many
    sequences and maps reach it.  ``truncated``
    marks a run cut by its budget; ``best_distance`` is the largest exact
    distance emitted.
    """

    nodes: int = 0
    completions: int = 0
    filtered: int = 0
    invalid: int = 0
    emitted: int = 0
    truncated: bool = False
    best_distance: int | None = None

    def to_json(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# The DFS engine


# (x, z) bits of the letters of a universe word in ``itertools.product("XYZ")``
# digit order.
_DIGIT_BITS = tuple(LETTER_BITS[letter] for letter in "XYZ")


def _intro_rank(bx: int, bz: int) -> int:
    """Position of the letter with bits (bx, bz) in the introduction order Z, X, Y."""
    return bx + (bx & bz)


@lru_cache(maxsize=None)
def _component_pattern(w: int, pos: int, component: int) -> bytes:
    """'1' for each word of a weight-w block whose letter at support position
    ``pos`` has an X (``component`` 0) or a Z (1) part."""
    run = 3 ** (w - 1 - pos)
    return b"".join((b"1" if bits[component] else b"0") * run for bits in _DIGIT_BITS) * 3**pos


@lru_cache(maxsize=None)
def _normalization_pattern(w: int, positions: tuple[int, ...], introduced: int) -> bytes:
    """'1' for each word of a weight-w block whose letters at ``positions`` keep
    the Z, X, Y introduction order on a local that already has ``introduced``."""
    out = bytearray(b"1" * 3**w)
    for r in range(3**w):
        count = introduced
        for pos in positions:
            rank = _intro_rank(*_DIGIT_BITS[(r // 3 ** (w - 1 - pos)) % 3])
            if rank > count:
                out[r] = ord("0")
                break
            if rank == count:
                count += 1
    return bytes(out)


@lru_cache(maxsize=None)
def _differ_pattern(w: int, i: int, j: int) -> int:
    """Bitset over a weight-w block's letter choices: those whose letters at
    support positions i and j differ, that is anticommute."""
    return sum(
        1 << r for r in range(3**w) if r // 3 ** (w - 1 - i) % 3 != r // 3 ** (w - 1 - j) % 3
    )


@lru_cache(maxsize=None)
def _kept_choices(w: int, pairs: tuple[tuple[int, ...], ...], required: int) -> tuple[int, ...]:
    """Letter choices of a weight-w block whose parities against their own
    clipped translates are ``required`` (a bitmask over ``ALL_SHIFTS``
    indices): a translate by s meets the word only at its same-local position
    pairs (i, j, bits of s and -s), and a required bit at a shift no pair
    spans, such as (0, 0), empties the block."""
    parity: dict[int, int] = {}
    for i, j, bits in pairs:
        for bit in _slots(bits):
            parity[bit] = parity.get(bit, 0) ^ _differ_pattern(w, i, j)
    kept = (1 << 3**w) - 1
    for s in _slots(required):
        kept &= parity.pop(s, 0)
    for par in parity.values():
        kept ^= kept & par
    return tuple(_set_bits(kept))


def _root_pattern(support: tuple[int, ...], qpc: int) -> bytes:
    """'1' for each word of a support's full block that keeps activation
    order and letter normalization at the root, where no letter is placed:
    the bytewise min ('0' < '1') of those patterns is their AND."""
    w, used = len(support), sorted({slot % qpc for slot in support})
    active = b"1" if used == list(range(len(used))) else b"0"
    return bytes(map(min, active * 3**w, *(
        _normalization_pattern(w, tuple(p for p, s in enumerate(support) if s % qpc == local), 0)
        for local in used
    )))


@lru_cache(maxsize=None)
def _cut(pattern: bytes, kept: tuple[int, ...]) -> bytes:
    """A block pattern cut to its kept letter choices."""
    return bytes(pattern[r] for r in kept)


def _slots(mask: int) -> Iterator[int]:
    """Positions of the set bits of a window mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _set_bits(bitset: int) -> Iterator[int]:
    """Positions of the set bits of a universe bitset, ascending."""
    bits = bin(bitset)[:1:-1]
    index = bits.find("1")
    while index >= 0:
        yield index
        index = bits.find("1", index + 1)


class _Universe:
    """Every word one generator level may take, before any path check.

    The words pass the static checks (anchoring and the weight cap) and
    have the level's ``required`` parities against their own clipped
    translates; only these self-commuting words are indexed, in enumeration
    order: by weight, then ``itertools.combinations`` support order, then
    ``itertools.product("XYZ")`` letters with the last slot varying fastest.
    Only the anchored supports, their block offsets and each block's kept
    letter choices are stored; ``word`` decodes an index.  The bitsets over
    the indices are:

    * ``x_bits[slot]`` / ``z_bits[slot]``: words with an X (Z) component on
      ``slot``; the XOR of ``x_bits`` over a word's Z slots and ``z_bits``
      over its X slots is the set of universe words anticommuting with it;
    * ``activation[k]``: words whose locals beyond the first k are k, k+1, ...;
    * ``normalization[local][s]``: words whose letters on ``local`` keep the
      introduction order when s letters (0 or 1) are already introduced
      there; once Z and X are, every letter is allowed.
    """

    def __init__(
        self, layout: UnitCellLayout, cell_masks: tuple[int, ...], cap: int, required: int
    ):
        n, qpc = layout.n_slots, layout.qubits_per_cell
        shifts = lattice._pair_shifts(qpc)
        self.supports: list[tuple[int, ...]] = []
        self.offsets: list[int] = []
        self.choices: list[tuple[int, ...]] = []
        size = 0
        for w in range(1, cap + 1):
            for support in itertools.combinations(range(n), w):
                mask = 0
                for slot in support:
                    mask |= 1 << slot
                if all(mask & cell for cell in cell_masks):
                    pairs = tuple(
                        (i, j, shifts[p][q] | shifts[q][p])
                        for (i, p), (j, q) in itertools.combinations(enumerate(support), 2)
                        if (q - p) % qpc == 0
                    )
                    self.supports.append(support)
                    self.offsets.append(size)
                    self.choices.append(_kept_choices(w, pairs, required))
                    size += len(self.choices[-1])
        self.full = (1 << size) - 1

        x_rows, z_rows = [[bytearray(b"0" * size) for _ in range(n)] for _ in range(2)]
        act_rows = [bytearray(b"0" * size) for _ in range(qpc)]
        norm_rows = [[bytearray(b"0" * size) for _ in range(2)] for _ in range(qpc)]
        for support, start, kept in zip(self.supports, self.offsets, self.choices):
            if not kept:
                continue
            w, end = len(support), start + len(kept)
            for pos, slot in enumerate(support):
                x_rows[slot][start:end] = _cut(_component_pattern(w, pos, 0), kept)
                z_rows[slot][start:end] = _cut(_component_pattern(w, pos, 1), kept)
            used = sorted({slot % qpc for slot in support})
            for k in range(qpc):
                new = [local for local in used if local >= k]
                if new == list(range(k, k + len(new))):
                    act_rows[k][start:end] = b"1" * len(kept)
            for local in range(qpc):
                positions = tuple(p for p, slot in enumerate(support) if slot % qpc == local)
                for introduced in range(2):
                    pattern = _normalization_pattern(w, positions, introduced)
                    norm_rows[local][introduced][start:end] = _cut(pattern, kept)

        def bitset(row: bytearray) -> int:
            return int(row[::-1], 2) if size else 0

        self.x_bits = [bitset(row) for row in x_rows]
        self.z_bits = [bitset(row) for row in z_rows]
        self.activation = [bitset(row) for row in act_rows]
        self.normalization = [[bitset(row) for row in rows] for rows in norm_rows]

    def word(self, index: int) -> tuple[int, int]:
        """(x, z) masks of the word at ``index``."""
        block = bisect.bisect_right(self.offsets, index) - 1
        r = self.choices[block][index - self.offsets[block]]
        x = z = 0
        for slot in reversed(self.supports[block]):
            r, digit = divmod(r, 3)
            bx, bz = _DIGIT_BITS[digit]
            x |= bx << slot
            z |= bz << slot
        return x, z


class _SearchContext:
    """Per-run constants plus the mutable state of the depth-first search,
    whose domains start as each level's whole universe and are cut by
    forward checks read from same-local slot pairs."""

    def __init__(self, cfg: SearchConfig):
        self.cfg = cfg
        layout = cfg.layout
        self.layout = layout
        self.n = layout.n_slots
        self.qpc = layout.qubits_per_cell
        self.gen_order = generator_ids(layout)
        self.required = required_parity_table(layout)
        # partners[p]: (s, q) for each slot q on p's local, where a translate
        # by ALL_SHIFTS[s] moves p to q.
        shifts = lattice._pair_shifts(self.qpc)
        self.partners = [
            [(shifts[q][p].bit_length() - 1, q) for q in range(p % self.qpc, self.n, self.qpc)]
            for p in range(self.n)
        ]

        center_mask = _cell_mask(layout, CENTER)
        self.universes: list[_Universe] = []
        for gi, gen in enumerate(self.gen_order):
            if gen.kind is GeneratorKind.VERTEX:
                masks: tuple[int, ...] = (center_mask,)
                cap = cfg.max_vertex_weight
            else:
                off = far_cell_offset(layout, gen)
                far_mask = _cell_mask(layout, (CENTER[0] + off[0], CENTER[1] + off[1]))
                masks = (center_mask,) if far_mask == center_mask else (center_mask, far_mask)
                cap = cfg.max_edge_or_hopping_weight
            self.universes.append(_Universe(layout, masks, cap, self.required[gi][gi]))

        # Each capped hop orbit sits at the level of its last generator.
        cap_nnn = cfg.hopping_cap_mode is HoppingCapMode.NN_AND_NNN
        self.hop_checks: list[list[fermion.TermOrbit]] = [[] for _ in self.gen_order]
        for orbit in fermion.term_orbits(layout):
            if orbit.kind == "hopping" and (cap_nnn or not orbit.nnn):
                level = max(gi for word in orbit.words for part in word for gi, _ in part)
                self.hop_checks[level].append(orbit)

        # Mutable search state: the assigned prefix, each level's domain and
        # the letters introduced per local, with one undo entry per level.
        self.assigned: list[tuple[int, int]] = []
        self.domains: list[int] = [u.full for u in self.universes]
        self.intro: list[int] = [0] * self.qpc
        self._undo: list[tuple[list[int], list[int]]] = []

        # Level 0's RNG stream indices (module docstring): each survivor's
        # rank among the level's words that keep activation order and
        # normalization at the root, self-commutation unchecked, counted per
        # block from the full-block patterns.
        self.root_index: list[int] = []
        root, before = self.universes[0], 0
        for support, kept in zip(root.supports, root.choices):
            pattern = _root_pattern(support, self.qpc)
            self.root_index += [
                before + pattern.count(b"1", 0, r) for r in kept if pattern[r] == ord("1")
            ]
            before += pattern.count(b"1")

    # -- candidate enumeration -------------------------------------------

    def _ordered(self, gi: int, mask: int) -> int:
        """``mask`` cut to level ``gi``'s activation order and normalization."""
        universe = self.universes[gi]
        active = sum(1 for count in self.intro if count)
        if active < self.qpc:
            mask &= universe.activation[active]
        for local, count in enumerate(self.intro):
            if count < 2:
                mask &= universe.normalization[local][count]
        return mask

    def survivors(self, gi: int) -> Iterator[tuple[int, int]]:
        """Words of level ``gi``'s domain (self-commutation and every windowed
        parity against the assigned prefix) that keep activation order and
        letter normalization, as (x, z) masks in universe order."""
        universe = self.universes[gi]
        for index in _set_bits(self._ordered(gi, self.domains[gi])):
            yield universe.word(index)

    # -- pruning checks ----------------------------------------------------

    def assign(self, x: int, z: int) -> None:
        """Append a word to the prefix: filter every later domain by its
        translates and introduce its letters."""
        gi = len(self.assigned)
        self._undo.append((self.domains, self.intro))
        domains = self.domains[:]
        zs, xs = [], []  # (shift, slot) pairs met by the word's Z and X parts
        for p in _slots(x | z):
            if z >> p & 1:
                zs += self.partners[p]
            if x >> p & 1:
                xs += self.partners[p]
        for li in range(gi + 1, len(self.universes)):
            universe = self.universes[li]
            anti = [0] * len(lattice.ALL_SHIFTS)
            for s, q in zs:
                anti[s] ^= universe.x_bits[q]
            for s, q in xs:
                anti[s] ^= universe.z_bits[q]
            domain, required = domains[li], self.required[li][gi]
            for s, par in enumerate(anti):
                if required >> s & 1:
                    domain &= par
                elif par:
                    domain ^= domain & par
            domains[li] = domain
        intro = self.intro[:]
        for slot in _slots(x | z):
            local = slot % self.qpc
            if _intro_rank(x >> slot & 1, z >> slot & 1) == intro[local]:
                intro[local] += 1
        self.domains, self.intro = domains, intro
        self.assigned.append((x, z))

    def unassign(self) -> None:
        self.assigned.pop()
        self.domains, self.intro = self._undo.pop()

    def _partial_encoding(self) -> EncodingCandidate:
        gens = {
            self.gen_order[idx]: PauliWord(x, z, self.n)
            for idx, (x, z) in enumerate(self.assigned)
        }
        return EncodingCandidate(self.layout, gens)

    def hop_caps_ok(self, gi: int, x: int, z: int) -> bool:
        """Cap the hops in ``hop_checks[gi]``: those whose last edge or
        endpoint vertex is level ``gi``'s generator.  Their words are built
        from the assigned prefix's masks plus this word's."""
        checks = self.hop_checks[gi]
        if not checks:
            return True
        masks = self.assigned + [(x, z)]
        cap = self.cfg.max_edge_or_hopping_weight
        min_w = self.cfg.min_logical_weight_filter
        for orbit in checks:
            try:
                w = fermion.hopping_weight(orbit, masks, self.qpc)
            except PathError:
                continue  # not representable yet; completion re-checks
            if w > cap:
                return False
            if min_w is not None and w < min_w:
                return False
        return True


def _passes_completion_filters(
    cfg: SearchConfig | CliffordConfig, enc: EncodingCandidate, metrics: Metrics
) -> bool:
    """Distance, weight-cap and logical-weight filters on the same-named
    fields of either search's config; a cap of None (deform) is no cap."""
    if metrics.distance.value < cfg.min_distance_filter:
        return False
    vertex_cap, hop_cap = cfg.max_vertex_weight, cfg.max_edge_or_hopping_weight
    if vertex_cap is not None:
        for gen, word in enc.generators.items():
            if gen.kind is GeneratorKind.VERTEX and weight(word) > vertex_cap:
                return False
    uncapped = set()
    if cfg.hopping_cap_mode is not HoppingCapMode.NN_AND_NNN:
        uncapped = {
            name for orbit in fermion.term_orbits(enc.layout) if orbit.nnn
            for name in orbit.names
        }
    relevant: list[int] = []
    for name, w in metrics.term_weights:
        if name in uncapped:
            continue
        is_hop = name.startswith("hop:")
        relevant.append(w)
        if is_hop and hop_cap is not None and w > hop_cap:
            return False
    if cfg.min_logical_weight_filter is not None:
        if any(w < cfg.min_logical_weight_filter for w in relevant):
            return False
    return True


def _complete(
    cfg: SearchConfig | CliffordConfig,
    enc: EncodingCandidate,
    w_max: int,
    report: SearchReport,
    front: ParetoFront,
    emit: Callable[[EncodingCandidate], None],
    passed: Callable[[EncodingCandidate], None] | None = None,
) -> str:
    """The completion pipeline of both searches: validate, derive the
    stabilizers, measure once at ``w_max``, filter, offer to the front.

    Counts a rejected map as ``invalid`` or ``filtered`` and returns that
    label, else ``ok``.  A passing map goes to ``passed``; if the front
    accepts it, it is counted as emitted and goes to ``emit`` with the
    metrics the front ranked it on.
    """
    if validate(enc):
        report.invalid += 1
        return "invalid"
    try:
        enc = enc.with_stabilizers(derive_stabilizers(enc))
        metrics = compute_metrics(enc, HamiltonianSpec(), w_max)
    except PathError:
        report.invalid += 1
        return "invalid"
    if not _passes_completion_filters(cfg, enc, metrics):
        report.filtered += 1
        return "filtered"
    enc = enc.with_metrics(metrics)
    if passed is not None:
        passed(enc)
    if front.update(metrics.key(), enc):
        report.emitted += 1
        if metrics.distance.exact:
            report.best_distance = max(report.best_distance or 0, metrics.distance.value)
        emit(enc)
    return "ok"


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
    configs give equal reports and emitted sequences.  Each completion is
    measured once, at the distance budget ``max(cfg.min_distance_filter,
    final_w_max)``, and the filters, front and stream all see those metrics.
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
    w_max = max(cfg.min_distance_filter, final_w_max or 0)

    def dfs(gi: int, rng: random.Random | None) -> bool:
        """Walk level ``gi`` and below; False once the node budget cuts the run."""
        for index, (x, z) in enumerate(ctx.survivors(gi)):
            if gi == 0:
                if budget is not None and report.nodes >= budget:
                    report.truncated = True
                    return False
                rng = random.Random(derive_subtree_seed(cfg.rng_seed, ctx.root_index[index]))
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
                report.completions += 1
                enc = ctx._partial_encoding()
                _complete(cfg, enc, w_max, report, front, sink, completion_sink)
            elif not dfs(gi + 1, rng):
                return False
            ctx.unassign()
        return True

    dfs(0, None)
    return report
