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
letters' entries.  Each weight is one depth-first walk over the prefixes
of its supports, with the syndromes of every letter choice on the prefix
on the stack.  The last slot is not walked: per-syndrome slot masks and
centered-end masks give, in one OR and one AND, the ends on which some
letter completes a zero syndrome.  Only on those supports are words built,
and only for the zero-syndrome letter choices; each is tested against the
span.

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
from functools import lru_cache
from typing import TYPE_CHECKING

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


# A prefix's cells as one mask: window columns in the low WINDOW bits, rows
# above them.  A cell bounding box of size b is centered when it starts at
# (WINDOW - b) // 2: its columns (rows) are {1}, {0, 1}, {0, 2} or {0, 1, 2},
# the masks 2, 3, 5 and 7.
_CENTERED = frozenset(c | r << lattice.WINDOW for c in (2, 3, 5, 7) for r in (2, 3, 5, 7))


@lru_cache(maxsize=None)
def _box_tables(qubits_per_cell: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per slot, its cell's column and row bits; per prefix box, its ends.

    ``ends[box]`` masks the slots whose addition to a prefix with column
    and row sets ``box`` leaves the cell bounding box centered.
    """
    cells = [cell for cell in lattice._cells_by_index() for _ in range(qubits_per_cell)]
    boxes = tuple(1 << x | 1 << lattice.WINDOW + y for x, y in cells)
    masks = range(1 << 2 * lattice.WINDOW)
    ends = tuple(sum(1 << s for s, b in enumerate(boxes) if box | b in _CENTERED) for box in masks)
    return boxes, ends


class _Scan:
    """The tables of one ``min_distance`` call and the prefix walk over them."""

    def __init__(self, enc: "EncodingCandidate") -> None:
        n = self.n = enc.layout.n_slots
        stabs = translated_stabilizers(enc)
        self.table = _syndrome_table(n, stabs)
        self.basis = SymplecticBasis(n)
        for stab in stabs:
            self.basis.insert(stab)
        # Syndrome -> mask of the slots that carry a letter of that syndrome.
        self.at: dict[int, int] = {}
        for slot, letters in enumerate(self.table):
            for t in letters:
                self.at[t] = self.at.get(t, 0) | 1 << slot
        self.boxes, self.ends = _box_tables(enc.layout.qubits_per_cell)

    def walk(self, w: int, prefix: list[int], syndromes: set[int], box: int) -> bool:
        """Extend ``prefix`` (letter-choice ``syndromes``, cells ``box``) to the
        first w - 1 slots of weight-w supports; True once a logical is found."""
        table, get, boxes, ends = self.table, self.at.get, self.boxes, self.ends
        for s in range(prefix[-1] + 1 if prefix else 0, self.n - w + len(prefix) + 1):
            prefix.append(s)
            if len(prefix) < w - 1:
                below = {p ^ t for t in table[s] for p in syndromes}
                if self.walk(w, prefix, below, box | boxes[s]):
                    return True
            else:
                # Last prefix slot: the centered ends, then the zero-syndrome ones.
                live = ends[box | boxes[s]] >> (s + 1) << (s + 1)
                if live:
                    hits = 0
                    for t in table[s]:
                        for p in syndromes:
                            hits |= get(p ^ t, 0)
                    if hits & live and self.expand(prefix, hits & live):
                        return True
            prefix.pop()
        return False

    def expand(self, prefix: list[int], ends: int) -> bool:
        """True iff a zero-syndrome word on ``prefix`` plus a slot of ``ends`` is
        outside the span; words come in support, then ``itertools.product``, order."""
        table, basis, n = self.table, self.basis, self.n
        # (syndrome, x, z) of every letter choice on the prefix.
        choices = [(0, 0, 0)]
        for slot in prefix:
            choices = [
                (s ^ t, x | bx << slot, z | bz << slot)
                for s, x, z in choices
                for t, (bx, bz) in zip(table[slot], _XYZ_BITS)
            ]
        while ends:
            end = (ends & -ends).bit_length() - 1
            ends &= ends - 1
            for s, x, z in choices:
                for t, (bx, bz) in zip(table[end], _XYZ_BITS):
                    if t == s and not basis.contains(PauliWord(x | bx << end, z | bz << end, n)):
                        return True
        return False


def min_distance(enc: "EncodingCandidate", budget: DistanceBudget) -> DistanceResult:
    """Exact minimum distance up to ``budget.w_max``, else a lower bound.

    Each weight, in increasing order, is one depth-first walk over the
    first w - 1 slots of its supports, prefix syndrome sets on the stack.
    At the last prefix slot the centered-end mask skips a prefix with no
    centered end, and an OR of per-syndrome slot masks finds the ends that
    complete a zero syndrome.  Words are built only on those supports and
    only for zero-syndrome letter choices, in ``itertools.product`` order;
    the first one outside the span is a logical.
    """
    scan = _Scan(enc)
    # Weight 1: the centre cell's slots with a zero-syndrome letter.
    if scan.expand([], scan.ends[0] & scan.at.get(0, 0)):
        return DistanceResult.exact_distance(1)
    for w in range(2, min(budget.w_max, scan.n) + 1):
        if scan.walk(w, [], {0}, 0):
            return DistanceResult.exact_distance(w)
    return DistanceResult.lower_bound(budget.w_max + 1)
