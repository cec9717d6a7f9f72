"""Unit-cell layouts, the 3x3 window slot map, and windowed translations.

All operators live on a 3x3 window of unit cells whose qubit slots are
numbered in a snake pattern: row 0 runs left to right, odd rows are
reversed, and slots within a cell are consecutive.  Translating a word by a
cell shift remaps every supported slot; a shift that would push support off
the window yields ``None`` (the shift is representable, the word is not).

The window is the finite-shift equivalent of a translationally invariant
description: two replicated operators can only interact at relative cell
shifts within +-2 per axis, so checking exactly those shifts covers every
coefficient of the infinite-lattice commutator.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

from .symplectic import MAX_SLOTS, PauliWord

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
        if self.qubits_per_cell * WINDOW * WINDOW > MAX_SLOTS:
            raise ValueError("window does not fit the 64-slot packing")
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
    """Per-shift slot remapping tables; -1 marks slots leaving the window."""
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


def _translate_masks(
    x: int, z: int, table: tuple[int, ...], clip: bool
) -> tuple[int, int] | None:
    nx = nz = 0
    m = x | z
    while m:
        b = m & -m
        slot = b.bit_length() - 1
        m ^= b
        dest = table[slot]
        if dest < 0:
            if clip:
                continue
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
    masks = _translate_masks(a.x_mask, a.z_mask, table, clip=False)
    if masks is None:
        return None
    return PauliWord(masks[0], masks[1], a.n_slots)


def translate_word_clipped(
    a: PauliWord, shift: tuple[int, int], layout: UnitCellLayout
) -> PauliWord:
    """Shift a word by whole cells, silently dropping slots that leave the window.

    The clipped translate is exactly what windowed commutation checks need:
    dropped slots cannot overlap any in-window operator, so parities against
    window-supported words match the infinite-lattice values.
    """
    if shift == (0, 0):
        return a
    table = _shift_tables(layout.qubits_per_cell).get(shift)
    if table is None:
        raise ValueError(f"shift {shift} outside +-{SHIFT_RANGE} per axis")
    nx, nz = _translate_masks(a.x_mask, a.z_mask, table, clip=True)
    return PauliWord(nx, nz, a.n_slots)
