"""Unit-cell layouts, the 3x3 window slot map, and windowed translations.

All operators live on a 3x3 window of unit cells whose qubit slots are
numbered in a snake pattern: row 0 runs left to right, odd rows are
reversed, and slots within a cell are consecutive.  Translating a word by a
cell shift remaps every supported slot; a shift that would push support off
the window yields ``None`` (the shift is representable, the word is not).
Commutation checks use clipped translates instead, which drop those slots,
and never build them: as a clipped translate by ``s`` meets a window word
only at same-local slot pairs ``s`` cells apart, ``pair_parities`` reads two
words' parities at every shift from those pairs.
``canonical_relabel`` keys a generator map by its class under relabeling
of the cell-local qubits and their letters.

The window is the finite-shift equivalent of a translationally invariant
description: two replicated operators can only interact at relative cell
shifts within +-2 per axis, so checking exactly those shifts covers every
coefficient of the infinite-lattice commutator.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

from .symplectic import PauliWord

WINDOW = 3
CENTER = (1, 1)

#: All cell shifts at which two window-supported operators can interact.
SHIFT_RANGE = 2
ALL_SHIFTS = tuple(
    (dx, dy)
    for dx in range(-SHIFT_RANGE, SHIFT_RANGE + 1)
    for dy in range(-SHIFT_RANGE, SHIFT_RANGE + 1)
)


class Scheme(enum.Enum):
    """How fermionic modes are packed into unit cells (one spin species shown)."""

    TWO_GRIDS = "two-grids"
    MIXED = "mixed"
    DOUBLED_H = "doubled-h"
    DOUBLED_OFFSET = "doubled-offset"


class EdgeSet(enum.Enum):
    """Which directed edge generators the layout defines."""

    NN_SQUARE = "nn-square"
    TRIANGULAR = "triangular"
    NNN_SQUARE = "nnn-square"


def scheme_from_name(name: str) -> Scheme:
    try:
        return Scheme(name)
    except ValueError:
        raise ValueError(
            f"unknown scheme {name!r}; expected one of "
            f"{sorted(s.value for s in Scheme)}"
        ) from None


def edge_set_from_name(name: str) -> EdgeSet:
    try:
        return EdgeSet(name)
    except ValueError:
        raise ValueError(
            f"unknown edge set {name!r}; expected one of "
            f"{sorted(s.value for s in EdgeSet)}"
        ) from None


@dataclass(frozen=True)
class UnitCellLayout:
    """A unit-cell geometry: qubits per cell, mode packing and edge set."""

    qubits_per_cell: int
    scheme: Scheme
    edge_set: EdgeSet

    def __post_init__(self) -> None:
        if not 1 <= self.qubits_per_cell <= 6:
            raise ValueError(
                f"qubits_per_cell must be in 1..6, got {self.qubits_per_cell}"
            )
        if self.scheme is not Scheme.TWO_GRIDS and self.modes_per_cell != 2:
            raise AssertionError("two-mode schemes must report two modes")

    @property
    def modes_per_cell(self) -> int:
        return 1 if self.scheme is Scheme.TWO_GRIDS else 2

    @property
    def n_slots(self) -> int:
        return self.qubits_per_cell * WINDOW * WINDOW


def cell_index(cell: tuple[int, int]) -> int:
    """Snake-order index of a window cell (row 0 left-to-right, odd rows reversed)."""
    x, y = cell
    if not (0 <= x < WINDOW and 0 <= y < WINDOW):
        raise ValueError(f"cell {cell} outside the {WINDOW}x{WINDOW} window")
    return y * WINDOW + (x if y % 2 == 0 else WINDOW - 1 - x)


def slot_of(cell: tuple[int, int], local: int, layout: UnitCellLayout) -> int:
    """Window slot of qubit ``local`` in ``cell``."""
    if not 0 <= local < layout.qubits_per_cell:
        raise ValueError(f"local index {local} outside cell of {layout.qubits_per_cell}")
    return cell_index(cell) * layout.qubits_per_cell + local


@lru_cache(maxsize=None)
def _cells_by_index() -> tuple[tuple[int, int], ...]:
    order: list[tuple[int, int]] = [(-1, -1)] * (WINDOW * WINDOW)
    for y in range(WINDOW):
        for x in range(WINDOW):
            order[cell_index((x, y))] = (x, y)
    return tuple(order)


def cell_of(slot: int, layout: UnitCellLayout) -> tuple[tuple[int, int], int]:
    """Inverse slot map: (cell, local) of a window slot."""
    if not 0 <= slot < layout.n_slots:
        raise ValueError(f"slot {slot} outside 0..{layout.n_slots - 1}")
    idx, local = divmod(slot, layout.qubits_per_cell)
    return _cells_by_index()[idx], local


@lru_cache(maxsize=None)
def _shift_tables(
    qubits_per_cell: int,
) -> dict[tuple[int, int], tuple[int, ...]]:
    """Per-shift slot remapping tables, in ``ALL_SHIFTS`` order; -1 marks slots
    leaving the window."""
    n = qubits_per_cell * WINDOW * WINDOW
    tables: dict[tuple[int, int], tuple[int, ...]] = {}
    cells = _cells_by_index()
    for shift in ALL_SHIFTS:
        dx, dy = shift
        table = []
        for slot in range(n):
            idx, local = divmod(slot, qubits_per_cell)
            x, y = cells[idx]
            nx, ny = x + dx, y + dy
            if 0 <= nx < WINDOW and 0 <= ny < WINDOW:
                table.append(cell_index((nx, ny)) * qubits_per_cell + local)
            else:
                table.append(-1)
        tables[shift] = tuple(table)
    return tables


def _translate_masks(x: int, z: int, table: tuple[int, ...]) -> tuple[int, int] | None:
    nx = nz = 0
    m = x | z
    while m:
        b = m & -m
        slot = b.bit_length() - 1
        m ^= b
        dest = table[slot]
        if dest < 0:
            return None
        bit = 1 << dest
        if x & b:
            nx |= bit
        if z & b:
            nz |= bit
    return nx, nz


def translate_word(
    a: PauliWord, shift: tuple[int, int], layout: UnitCellLayout
) -> PauliWord | None:
    """Shift a word by whole cells; ``None`` if any supported slot leaves the window."""
    if shift == (0, 0):
        return a
    table = _shift_tables(layout.qubits_per_cell).get(shift)
    if table is None:
        raise ValueError(f"shift {shift} outside +-{SHIFT_RANGE} per axis")
    masks = _translate_masks(a.x_mask, a.z_mask, table)
    if masks is None:
        return None
    return PauliWord(masks[0], masks[1], a.n_slots)


@lru_cache(maxsize=None)
def _local_masks(qubits_per_cell: int) -> tuple[int, ...]:
    """Window slot mask of each cell-local index."""
    cells, qpc = range(WINDOW * WINDOW), qubits_per_cell
    return tuple(sum(1 << i * qpc + local for i in cells) for local in range(qpc))


def canonical_relabel(
    masks: tuple[tuple[int, int], ...], qubits_per_cell: int
) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Class key of a generator map (one ``(x, z)`` pair per generator)
    under relabeling: a permutation of the cell-local qubits together with
    a permutation of X/Y/Z on each local, applied in every cell alike.

    Each local p is read on its own, generators in the given order and then
    p's slots in ascending order.  The map on the (x, z) bits that sends the
    first non-identity letter to X and the first letter anticommuting with
    it (the first non-identity letter that differs) to Z is one of the six
    GL(2, 2) maps; applied to p's bits shifted down to local 0, it gives the
    local's signature, an ``(x, z)`` pair per generator.  The key is the
    sorted tuple of the signatures.  Two maps have equal keys iff one is a
    relabeling of the other:

    * the normalisation cancels every letter permutation: permuting p's
      letters moves neither of the two first positions, and the map then
      sends the permuted letters to X and Z alike;
    * sorting cancels the local permutation;
    * the signatures rebuild the map up to relabeling: each local's letters
      are an invertible letter map of its signature.
    """
    signatures = []
    for p, local in enumerate(_local_masks(qubits_per_cell)):
        letters = [((x & local) >> p, (z & local) >> p) for x, z in masks]
        first = second = None
        for x, z in letters:
            if first is None and x | z:
                s = (x | z) & -(x | z)
                first = (x & s, z & s)
            if first is not None:
                # slots whose letter anticommutes with the first letter
                other = (x if first[1] else 0) ^ (z if first[0] else 0)
                if other:
                    s = other & -other
                    second = (x & s, z & s)
                    break
        if second is None:  # no two distinct letters: every letter becomes X
            signatures.append(tuple((x | z, 0) for x, z in letters))
            continue
        # first -> X and second -> Z: the inverse of the matrix whose
        # columns are first and second.
        (ax, az), (bx, bz) = first, second
        signatures.append(tuple(
            ((x if bz else 0) ^ (z if bx else 0), (x if az else 0) ^ (z if ax else 0))
            for x, z in letters
        ))
    return tuple(sorted(signatures))


@lru_cache(maxsize=None)
def _pair_shifts(qubits_per_cell: int) -> tuple[tuple[int, ...], ...]:
    """``table[p][q]``: the ``ALL_SHIFTS`` index bit of ``cell(p) - cell(q)``
    for slots on one local (``p == q`` gives shift (0, 0)), else 0."""
    index, cells = {shift: i for i, shift in enumerate(ALL_SHIFTS)}, _cells_by_index()
    n = qubits_per_cell * len(cells)
    rows = [[0] * n for _ in range(n)]
    for p in range(n):
        xp, yp = cells[p // qubits_per_cell]
        for q in range(p % qubits_per_cell, n, qubits_per_cell):
            xq, yq = cells[q // qubits_per_cell]
            rows[p][q] = 1 << index[(xp - xq, yp - yq)]
    return tuple(map(tuple, rows))


def pair_parities(xa: int, za: int, xb: int, zb: int, qubits_per_cell: int) -> int:
    """Bitmask over ``ALL_SHIFTS`` indices: bit ``s`` is the parity of word a
    against word b's clipped translate by ``ALL_SHIFTS[s]``, which meets a
    only at slot pairs (p in a, q in b) on one local with ``cell(p) -
    cell(q) == s``; each pair whose letters anticommute flips ``s``."""
    table, local_masks = _pair_shifts(qubits_per_cell), _local_masks(qubits_per_cell)
    out, m = 0, xa | za
    while m:
        p = (m & -m).bit_length() - 1
        m &= m - 1
        # b's slots on p's local whose letters anticommute with a's at p
        partners = (zb if xa >> p & 1 else 0) ^ (xb if za >> p & 1 else 0)
        partners &= local_masks[p % qubits_per_cell]
        row = table[p]
        while partners:
            q = partners & -partners
            out ^= row[q.bit_length() - 1]
            partners ^= q
    return out
