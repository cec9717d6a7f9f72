"""Exact code distance by weight-ordered exhaustive error enumeration.

Every Pauli error on the window is classified against the window-translated
stabilizer generators: an error that anticommutes with at least one of them
is detected, an error inside their F2 span is trivial, anything else is a
logical operator and its weight bounds the distance.  Errors are enumerated
in one sequential scan at weight 1, 2, ... until a logical is found or the
budget runs out.

Translations that fall partially outside the open 3x3 window are excluded
from the check set (a clipped stabilizer is not a stabilizer), matching the
windowed reading of the search restrictions.  Errors are enumerated one
representative per translation orbit, with the support's cell bounding box
centered in the window: an off-center placement would see fewer stabilizer
translates than the infinite lattice provides and report spurious logicals
at the window corners.  ``naive_min_distance`` is a deliberately dumb
re-implementation on dense letter arrays kept as an independent oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from . import lattice
from .symplectic import LETTER_BITS, PauliWord, SymplecticBasis

if TYPE_CHECKING:  # pragma: no cover
    from .encoding import EncodingCandidate


@dataclass(frozen=True)
class DistanceResult:
    """Either an exact minimum distance or a lower bound set by the budget."""

    value: int
    exact: bool

    @classmethod
    def exact_distance(cls, d: int) -> "DistanceResult":
        return cls(d, True)

    @classmethod
    def lower_bound(cls, w: int) -> "DistanceResult":
        return cls(w, False)

    def __str__(self) -> str:
        return f"Exact {self.value}" if self.exact else f"LowerBound {self.value}"


@dataclass(frozen=True)
class DistanceBudget:
    """Enumeration limit: the maximum error weight."""

    w_max: int

    def __post_init__(self) -> None:
        if self.w_max < 1:
            raise ValueError("w_max must be at least 1")


def translated_stabilizers(enc: "EncodingCandidate") -> list[PauliWord]:
    """All distinct window translates of the stabilizer generators."""
    layout = enc.layout
    stabs = enc.stabilizer_generators
    if stabs is None:
        raise ValueError("stabilizers not derived")
    out: list[PauliWord] = []
    seen: set[tuple[int, int]] = set()
    for stab in stabs:
        for shift in lattice.ALL_SHIFTS:
            word = lattice.translate_word(stab, shift, layout)
            if word is None or word.is_identity():
                continue
            key = (word.x_mask, word.z_mask)
            if key not in seen:
                seen.add(key)
                out.append(word)
    return out


def _stabilizer_span(n_slots: int, stabs: Iterable[PauliWord]) -> SymplecticBasis:
    basis = SymplecticBasis(n_slots)
    for s in stabs:
        basis.insert(s)
    return basis


def canonical_supports(layout, w: int) -> list[tuple[int, ...]]:
    """Weight-w slot supports, one per translation orbit, centered in the window.

    A support is canonical when its cell bounding box of size (bw, bh)
    starts at ((WINDOW - bw) // 2, (WINDOW - bh) // 2); every orbit that
    fits the window has exactly one such placement.
    """
    qpc = layout.qubits_per_cell
    cells = lattice._cells_by_index()
    out = []
    for support in itertools.combinations(range(layout.n_slots), w):
        xs = [cells[s // qpc][0] for s in support]
        ys = [cells[s // qpc][1] for s in support]
        bw = max(xs) - min(xs) + 1
        bh = max(ys) - min(ys) + 1
        if min(xs) == (lattice.WINDOW - bw) // 2 and min(ys) == (lattice.WINDOW - bh) // 2:
            out.append(support)
    return out


def is_logical(e: PauliWord, enc: "EncodingCandidate") -> bool:
    """True iff ``e`` commutes with every translated stabilizer but is not in their span."""
    stabs = translated_stabilizers(enc)
    for s in stabs:
        if ((e.x_mask & s.z_mask).bit_count() + (e.z_mask & s.x_mask).bit_count()) & 1:
            return False
    basis = _stabilizer_span(e.n_slots, stabs)
    return not basis.contains(e)


def min_distance(enc: "EncodingCandidate", budget: DistanceBudget) -> DistanceResult:
    """Exact minimum distance up to ``budget.w_max``, else a lower bound.

    Weights are scanned in increasing order; within a weight, supports in
    ``canonical_supports`` order and letters in X, Y, Z order.  The first
    logical error settles the distance.
    """
    layout = enc.layout
    n = layout.n_slots
    stabs = translated_stabilizers(enc)
    stab_pairs = [(s.x_mask, s.z_mask) for s in stabs]
    basis = _stabilizer_span(n, stabs)
    letter_bits = [LETTER_BITS[letter] for letter in ("X", "Y", "Z")]
    for w in range(1, min(budget.w_max, n) + 1):
        letter_sets = list(itertools.product(letter_bits, repeat=w))
        for support in canonical_supports(layout, w):
            for letters in letter_sets:
                x = z = 0
                for slot, (bx, bz) in zip(support, letters):
                    x |= bx << slot
                    z |= bz << slot
                for sx, sz in stab_pairs:
                    if ((x & sz).bit_count() + (z & sx).bit_count()) & 1:
                        break
                else:
                    if not basis.contains(PauliWord(x, z, n)):
                        return DistanceResult.exact_distance(w)
    return DistanceResult.lower_bound(budget.w_max + 1)


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
