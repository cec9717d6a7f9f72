"""Slow test-side oracles that share no code with the kernels they check.

``naive_min_distance`` re-implements ``fqec.distance.min_distance`` on dense
letter arrays with no bit packing and no pruning.  ``canonical_supports``
filters every slot combination by its cell bounding box, where
``fqec.distance.canonical_supports`` walks prefixes.  ``search_candidates``
lists the words the brute-force search may try for one generator, straight
from the rules in the ``fqec.search_bruteforce`` docstring.
``greedy_thickness`` tests the whole layer for every edge, where
``fqec.connectivity.thickness_upper_bound`` skips the tests whose answer is
known.  ``naive_validate`` translates one ``PauliWord`` per generator pair
and shift, slot by slot, and asks the Majorana algebra for each parity,
where ``fqec.encoding.validate`` translates raw masks once per generator
and reads a cached table.  ``naive_self_commutation_ok`` builds every
clipped translate of one word and asks the Majorana algebra for each
parity, where ``_SearchContext.self_commutation_ok`` reads pairs of the
word's own slots and builds no translate.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import networkx as nx

from fqec import lattice
from fqec.distance import DistanceResult
from fqec.encoding import EncodingCandidate, Violation
from fqec.fermion import (
    GeneratorKind,
    edge_vertex_required_parity,
    far_cell_offset,
    generator_ids,
)
from fqec.symplectic import PauliWord, commute_parity


# ---------------------------------------------------------------------------
# Dense-letter oracle (no bit packing, no pruning)

_NAIVE_ANTI = {
    ("X", "Z"), ("Z", "X"), ("X", "Y"), ("Y", "X"), ("Y", "Z"), ("Z", "Y"),
}


def _naive_letters(word: PauliWord) -> tuple[str, ...]:
    return tuple(word.letter(q) for q in range(word.n_slots))


def _naive_translate(
    letters: tuple[str, ...], shift: tuple[int, int], layout
) -> tuple[str, ...] | None:
    out = ["I"] * len(letters)
    for slot, letter in enumerate(letters):
        if letter == "I":
            continue
        (x, y), local = lattice.cell_of(slot, layout)
        nx, ny = x + shift[0], y + shift[1]
        if not (0 <= nx < lattice.WINDOW and 0 <= ny < lattice.WINDOW):
            return None
        out[lattice.slot_of((nx, ny), local, layout)] = letter
    return tuple(out)


def _naive_anticommutes(a: tuple[str, ...], b: tuple[str, ...]) -> bool:
    count = 0
    for la, lb in zip(a, b):
        if (la, lb) in _NAIVE_ANTI:
            count += 1
    return count % 2 == 1


def _naive_vector(letters: tuple[str, ...]) -> list[int]:
    vec = []
    for letter in letters:
        vec.append(1 if letter in ("X", "Y") else 0)
    for letter in letters:
        vec.append(1 if letter in ("Z", "Y") else 0)
    return vec


def _naive_in_span(rows: list[list[int]], vec: list[int]) -> bool:
    # plain forward elimination, recomputed from scratch every call
    reduced: list[list[int]] = []
    for row in rows:
        cur = row[:]
        for prow in reduced:
            lead = next(i for i, v in enumerate(prow) if v)
            if cur[lead]:
                cur = [a ^ b for a, b in zip(cur, prow)]
        if any(cur):
            reduced.append(cur)
    cur = vec[:]
    for prow in reduced:
        lead = next(i for i, v in enumerate(prow) if v)
        if cur[lead]:
            cur = [a ^ b for a, b in zip(cur, prow)]
    return not any(cur)


def canonical_supports(layout, w: int) -> list[tuple[int, ...]]:
    """Weight-w supports whose cell bounding box is centered, combinations order."""
    out = []
    for support in itertools.combinations(range(layout.n_slots), w):
        cells = [lattice.cell_of(slot, layout)[0] for slot in support]
        xs = [x for x, _ in cells]
        ys = [y for _, y in cells]
        bw = max(xs) - min(xs) + 1
        bh = max(ys) - min(ys) + 1
        if min(xs) == (lattice.WINDOW - bw) // 2 and min(ys) == (lattice.WINDOW - bh) // 2:
            out.append(support)
    return out


def naive_min_distance(enc: "EncodingCandidate", w_max: int) -> DistanceResult:
    """Same contract as :func:`min_distance` on dense letter arrays."""
    layout = enc.layout
    n = layout.n_slots
    stabs = enc.stabilizer_generators
    if stabs is None:
        raise ValueError("stabilizers not derived")
    translated: list[tuple[str, ...]] = []
    for stab in stabs:
        base = _naive_letters(stab)
        for shift in lattice.ALL_SHIFTS:
            moved = _naive_translate(base, shift, layout)
            if moved is None or all(l == "I" for l in moved):
                continue
            if moved not in translated:
                translated.append(moved)
    span_rows = [_naive_vector(t) for t in translated]

    for w in range(1, min(w_max, n) + 1):
        for support in itertools.combinations(range(n), w):
            # One representative per translation orbit: bounding box centered.
            boxes = [lattice.cell_of(s, layout)[0] for s in support]
            bw = max(b[0] for b in boxes) - min(b[0] for b in boxes) + 1
            bh = max(b[1] for b in boxes) - min(b[1] for b in boxes) + 1
            if min(b[0] for b in boxes) != (lattice.WINDOW - bw) // 2:
                continue
            if min(b[1] for b in boxes) != (lattice.WINDOW - bh) // 2:
                continue
            for letters in itertools.product("XYZ", repeat=w):
                error = ["I"] * n
                for slot, letter in zip(support, letters):
                    error[slot] = letter
                error_t = tuple(error)
                if any(_naive_anticommutes(error_t, s) for s in translated):
                    continue
                if _naive_in_span(span_rows, _naive_vector(error_t)):
                    continue
                return DistanceResult.exact_distance(w)
    return DistanceResult.lower_bound(w_max + 1)


# ---------------------------------------------------------------------------
# Windowed validation, one word pair and one shift at a time


def translate_word_clipped(
    a: PauliWord, shift: tuple[int, int], layout
) -> PauliWord:
    """Shift a word by whole cells, silently dropping slots that leave the window.

    Slot by slot through the cell map, with none of ``fqec.lattice``'s shift
    tables.  Dropped slots cannot overlap any in-window operator, so parities
    against window-supported words keep their infinite-lattice values.
    """
    out = PauliWord.identity(a.n_slots)
    for slot in a.support_slots():
        letter = a.letter(slot)
        (x, y), local = lattice.cell_of(slot, layout)
        cell = (x + shift[0], y + shift[1])
        if 0 <= cell[0] < lattice.WINDOW and 0 <= cell[1] < lattice.WINDOW:
            out = out.with_letter(lattice.slot_of(cell, local, layout), letter)
    return out


def _naive_cell_mask(layout, cell: tuple[int, int]) -> int:
    return sum(
        1 << lattice.slot_of(cell, local, layout) for local in range(layout.qubits_per_cell)
    )


def naive_validate(enc: EncodingCandidate) -> list[Violation]:
    """Same contract as :func:`fqec.encoding.validate`, one pair at a time.

    Translates the second word of every pair afresh for every shift and
    asks the Majorana algebra for each required parity.
    """
    layout = enc.layout
    violations: list[Violation] = []
    ids = generator_ids(layout)
    present = []
    for gen in ids:
        word = enc.generators.get(gen)
        if word is None:
            violations.append(Violation("missing-generator", gen.name))
            continue
        present.append(gen)
        if not word.support & _naive_cell_mask(layout, lattice.CENTER):
            violations.append(
                Violation("anchoring", gen.name, "support misses the central cell")
            )
        if gen.kind is not GeneratorKind.VERTEX:
            off = far_cell_offset(layout, gen)
            far = (lattice.CENTER[0] + off[0], lattice.CENTER[1] + off[1])
            if not word.support & _naive_cell_mask(layout, far):
                violations.append(
                    Violation(
                        "anchoring", gen.name, f"support misses far endpoint cell {far}"
                    )
                )

    for i, gen_a in enumerate(present):
        img_a = enc.generators[gen_a]
        for gen_b in present[i:]:
            img_b = enc.generators[gen_b]
            for shift in lattice.ALL_SHIFTS:
                want = edge_vertex_required_parity(layout, gen_a, (0, 0), gen_b, shift)
                got = commute_parity(img_a, translate_word_clipped(img_b, shift, layout))
                if got != want:
                    violations.append(
                        Violation(
                            "commutation", gen_a.name, gen_b.name, shift, want, got
                        )
                    )
    return violations


@lru_cache(maxsize=None)
def _self_required(layout, gen) -> tuple[int, ...]:
    return tuple(
        edge_vertex_required_parity(layout, gen, (0, 0), gen, shift)
        for shift in lattice.ALL_SHIFTS
    )


def naive_self_commutation_ok(layout, gen, word: PauliWord) -> bool:
    """Whether ``word``, as generator ``gen``, has the required parity against
    each of its own clipped translates, translated one shift at a time."""
    return all(
        commute_parity(word, translate_word_clipped(word, shift, layout)) == want
        for shift, want in zip(lattice.ALL_SHIFTS, _self_required(layout, gen))
    )


# ---------------------------------------------------------------------------
# Brute-force search candidates, one word at a time


def search_candidates(
    layout, max_vertex_weight: int, max_edge_weight: int, prefix: list[PauliWord]
) -> list[PauliWord]:
    """Words the search may try for the generator after ``prefix``, in order.

    A word qualifies when its weight is within the level's cap, its support
    touches the centre cell (and an edge's far cell), the cell-local slots
    used by the prefix and the word are 0..k-1 for some k, the first
    distinct letters on each local (prefix generators in order, then the
    word, slots ascending) are Z, X, Y in that order, and its parity
    against every clipped translate of every prefix generator is the
    required one.  Words come by weight, then support, then XYZ letters.
    """
    ids = generator_ids(layout)
    gen = ids[len(prefix)]
    n, qpc = layout.n_slots, layout.qubits_per_cell
    cells = [lattice.CENTER]
    cap = max_vertex_weight
    if gen.kind is not GeneratorKind.VERTEX:
        dx, dy = far_cell_offset(layout, gen)
        cells.append((lattice.CENTER[0] + dx, lattice.CENTER[1] + dy))
        cap = max_edge_weight
    local_of = [lattice.cell_of(slot, layout)[1] for slot in range(n)]
    history = [""] * qpc  # letters placed on each local, in placement order
    for word in prefix:
        for slot in range(n):
            if word.letter(slot) != "I":
                history[local_of[slot]] += word.letter(slot)
    used = {local for local in range(qpc) if history[local]}
    checks = [
        (
            edge_vertex_required_parity(layout, gen, (0, 0), ids[j], shift),
            translate_word_clipped(word, shift, layout),
        )
        for j, word in enumerate(prefix)
        for shift in lattice.ALL_SHIFTS
    ]

    out = []
    for w in range(1, cap + 1):
        for support in itertools.combinations(range(n), w):
            support_cells = {lattice.cell_of(slot, layout)[0] for slot in support}
            if any(cell not in support_cells for cell in cells):
                continue
            locals_used = used | {local_of[slot] for slot in support}
            if locals_used != set(range(len(locals_used))):
                continue
            # A word commutes with every translate it does not overlap.
            support_mask = sum(1 << slot for slot in support)
            if any(parity and not t.support & support_mask for parity, t in checks):
                continue
            overlapping = [(parity, t) for parity, t in checks if t.support & support_mask]
            for letters in itertools.product("XYZ", repeat=w):
                placed = list(history)
                for slot, letter in zip(support, letters):
                    placed[local_of[slot]] += letter
                firsts = ["".join(dict.fromkeys(seq)) for seq in placed]
                if any(order != "ZXY"[: len(order)] for order in firsts):
                    continue
                word = PauliWord.identity(n)
                for slot, letter in zip(support, letters):
                    word = word.with_letter(slot, letter)
                if all(commute_parity(word, t) == parity for parity, t in overlapping):
                    out.append(word)
    return out


# ---------------------------------------------------------------------------
# Plain greedy thickness (one planarity test of the whole layer per edge)


def greedy_thickness(g) -> int:
    """Layer count of ``fqec.connectivity.thickness_upper_bound``'s greedy.

    Every edge, in sorted order, is added to an ``nx.Graph`` layer and kept
    iff ``nx.check_planarity`` accepts the whole layer; the deferred edges
    seed the next layer.
    """
    remaining = sorted(g.edges)
    if not remaining:
        return 1  # edgeless graphs are planar
    layers = 0
    while remaining:
        layer = nx.Graph()
        deferred = []
        for u, v in remaining:
            layer.add_edge(u, v)
            ok, _ = nx.check_planarity(layer)
            if not ok:
                layer.remove_edge(u, v)
                if layer.degree(u) == 0:
                    layer.remove_node(u)
                if layer.degree(v) == 0:
                    layer.remove_node(v)
                deferred.append((u, v))
        remaining = deferred
        layers += 1
    return layers
