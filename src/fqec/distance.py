"""Exact code distance by weight-ordered exhaustive error enumeration.

Every Pauli error on the window is classified against the window-translated
stabilizer generators: an error that anticommutes with at least one of them
is detected, an error inside their F2 span is trivial, anything else is a
logical operator and its weight bounds the distance.  Errors are enumerated
in one sequential scan at weight 1, 2, ... until a logical is found or the
budget runs out.

Classification is linear.  A syndrome table, built once per call, holds
for each slot and letter one int whose bit ``j`` is set iff that letter
anticommutes with translate ``j``; an error's syndrome is the XOR of its
letters' entries.  Supports come in combinations order, so consecutive
supports share prefixes: the scan keeps, per prefix length, the set of
syndromes of every letter choice on the prefix, and rebuilds them, past the
first slot that changed, only when the prefix changes.  An error on a
support is undetected iff a last-slot letter's syndrome lies in the set of
the other slots.  Only on such supports are words built, and only for the
letter choices whose syndrome is zero; each is tested against the span.

Translations that fall partially outside the open 3x3 window are excluded
from the check set (a clipped stabilizer is not a stabilizer), matching the
windowed reading of the search restrictions.  Errors are enumerated one
representative per translation orbit, with the support's cell bounding box
centered in the window: an off-center placement would see fewer stabilizer
translates than the infinite lattice provides and report spurious logicals
at the window corners.  The test suite keeps a deliberately dumb
re-implementation on dense letter arrays as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from . import lattice
from .symplectic import LETTER_BITS, PauliWord, SymplecticBasis

if TYPE_CHECKING:  # pragma: no cover
    from .encoding import EncodingCandidate

_XYZ_BITS = tuple(LETTER_BITS[letter] for letter in "XYZ")


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


def _syndrome_table(n_slots: int, stabs: list[PauliWord]) -> list[tuple[int, int, int]]:
    """Per slot, the syndromes of X, Y and Z there.

    Bit ``j`` of a letter's syndrome is set iff that letter anticommutes
    with ``stabs[j]``; an error's syndrome is the XOR of its letters'.
    """
    sx = [0] * n_slots
    sz = [0] * n_slots
    for j, stab in enumerate(stabs):
        bit = 1 << j
        for slot in stab.support_slots():
            if stab.z_mask >> slot & 1:
                sx[slot] |= bit
            if stab.x_mask >> slot & 1:
                sz[slot] |= bit
    return [(x, x ^ z, z) for x, z in zip(sx, sz)]


def _check_set(enc: "EncodingCandidate") -> tuple[list[tuple[int, int, int]], SymplecticBasis]:
    """Syndrome table and span of the window-translated stabilizers."""
    n = enc.layout.n_slots
    stabs = translated_stabilizers(enc)
    return _syndrome_table(n, stabs), _stabilizer_span(n, stabs)


# Column (row) sets of a centered support as bit masks, one bit per window
# column (row): {1}, {0, 1}, {0, 2} or {0, 1, 2}.  A cell bounding box of
# size b is centered when it starts at (WINDOW - b) // 2.
_CENTERED = frozenset((0b010, 0b011, 0b101, 0b111))


def canonical_supports(layout, w: int) -> list[tuple[int, ...]]:
    """Weight-w slot supports, one per translation orbit, centered in the window.

    A support is canonical when its cell bounding box of size (bw, bh)
    starts at ((WINDOW - bw) // 2, (WINDOW - bh) // 2); every orbit that
    fits the window has exactly one such placement.  Supports come in
    ``itertools.combinations`` order.  The walk ORs each slot's column and
    row bits down the prefix and tests the two sets at the last slot.
    """
    qpc = layout.qubits_per_cell
    n = layout.n_slots
    cells = lattice._cells_by_index()
    cols = [1 << cells[s // qpc][0] for s in range(n)]
    rows = [1 << cells[s // qpc][1] for s in range(n)]
    out: list[tuple[int, ...]] = []
    prefix: list[int] = []

    def walk(start: int, col: int, row: int) -> None:
        if len(prefix) == w - 1:
            for s in range(start, n):
                if col | cols[s] in _CENTERED and row | rows[s] in _CENTERED:
                    out.append((*prefix, s))
            return
        for s in range(start, n - (w - 1 - len(prefix))):
            prefix.append(s)
            walk(s + 1, col | cols[s], row | rows[s])
            prefix.pop()

    walk(0, 0, 0)
    # ``walk`` refers to itself through its closure cell; deleting it breaks
    # that cycle, so ``out`` is freed as soon as the caller drops it, not at
    # the next garbage collection.
    del walk
    return out


def min_distance(enc: "EncodingCandidate", budget: DistanceBudget) -> DistanceResult:
    """Exact minimum distance up to ``budget.w_max``, else a lower bound.

    Weights are scanned in increasing order, supports in
    ``canonical_supports`` order.  ``levels[d]`` holds the syndromes of every
    letter choice on the current support's first ``d`` slots; the levels are
    rebuilt, from the first slot that changed, only when the support's
    ``w - 1`` prefix differs from the previous support's.  A letter choice
    on the last slot completes a zero syndrome iff its syndrome is in
    ``levels[w - 1]``.  Only then is the support expanded: words are built,
    in ``itertools.product`` order, for just the letter choices whose
    syndrome is zero, and the first one outside the span is a logical.
    """
    layout = enc.layout
    n = layout.n_slots
    table, basis = _check_set(enc)
    for w in range(1, min(budget.w_max, n) + 1):
        last = w - 1
        levels = [{0}]
        top = levels[0]
        prev = (-1,) * last
        for support in canonical_supports(layout, w):
            head = support[:last]
            if head != prev:
                k = 0
                while head[k] == prev[k]:
                    k += 1
                del levels[k + 1 :]
                for slot in head[k:]:
                    levels.append({p ^ t for p in levels[-1] for t in table[slot]})
                prev = head
                top = levels[last]
            end = support[last]
            if top.isdisjoint(table[end]):
                continue
            # (syndrome, x, z) of every letter choice on the prefix.
            choices = [(0, 0, 0)]
            for slot in head:
                choices = [
                    (s ^ t, x | bx << slot, z | bz << slot)
                    for s, x, z in choices
                    for t, (bx, bz) in zip(table[slot], _XYZ_BITS)
                ]
            for s, x, z in choices:
                for t, (bx, bz) in zip(table[end], _XYZ_BITS):
                    if t == s and not basis.contains(PauliWord(x | bx << end, z | bz << end, n)):
                        return DistanceResult.exact_distance(w)
    return DistanceResult.lower_bound(budget.w_max + 1)
