"""Window slot map, translations and shift enumeration."""

import random

import pytest

from fqec.lattice import (
    ALL_SHIFTS,
    CENTER,
    WINDOW,
    EdgeSet,
    Scheme,
    UnitCellLayout,
    _pair_shift_bits,
    _shift_tables,
    cell_of,
    clipped_translates,
    edge_set_from_name,
    scheme_from_name,
    slot_of,
    translate_word,
)
from fqec.symplectic import PauliWord, weight
from oracles import translate_word_clipped


def snake_order_oracle(qpc):
    """Independent enumeration of the snake layout: rows alternate direction."""
    slots = {}
    index = 0
    for y in range(WINDOW):
        xs = range(WINDOW) if y % 2 == 0 else range(WINDOW - 1, -1, -1)
        for x in xs:
            for local in range(qpc):
                slots[(x, y, local)] = index
                index += 1
    return slots


LAYOUT6 = UnitCellLayout(6, Scheme.TWO_GRIDS, EdgeSet.NN_SQUARE)
LAYOUT1 = UnitCellLayout(1, Scheme.TWO_GRIDS, EdgeSet.NN_SQUARE)


class TestSlotMap:
    def test_origin(self):
        assert slot_of((0, 0), 0, LAYOUT6) == 0

    def test_spec_examples_against_oracle(self):
        oracle = snake_order_oracle(6)
        assert slot_of((1, 0), 2, LAYOUT6) == oracle[(1, 0, 2)] == 8
        assert slot_of((0, 1), 0, LAYOUT6) == oracle[(0, 1, 0)] == 30

    def test_bijection(self):
        for qpc in (1, 2, 3, 6):
            layout = UnitCellLayout(qpc, Scheme.TWO_GRIDS, EdgeSet.NN_SQUARE)
            seen = set()
            for y in range(WINDOW):
                for x in range(WINDOW):
                    for local in range(qpc):
                        slot = slot_of((x, y), local, layout)
                        assert cell_of(slot, layout) == ((x, y), local)
                        seen.add(slot)
            assert seen == set(range(layout.n_slots))

    def test_out_of_window_rejected(self):
        with pytest.raises(ValueError):
            slot_of((3, 0), 0, LAYOUT1)
        with pytest.raises(ValueError):
            slot_of((0, 0), 6, LAYOUT6)


class TestTranslate:
    def test_identity_word(self):
        identity = PauliWord.identity(LAYOUT1.n_slots)
        for shift in ALL_SHIFTS:
            assert translate_word(identity, shift, LAYOUT1) == identity

    def test_round_trip(self):
        w = PauliWord.identity(9).with_letter(slot_of((1, 1), 0, LAYOUT1), "X")
        moved = translate_word(w, (1, 0), LAYOUT1)
        assert moved is not None
        assert translate_word(moved, (-1, 0), LAYOUT1) == w

    def test_out_of_window_is_none(self):
        w = (
            PauliWord.identity(9)
            .with_letter(slot_of((1, 1), 0, LAYOUT1), "X")
            .with_letter(slot_of((2, 1), 0, LAYOUT1), "Z")
        )
        assert translate_word(w, (1, 0), LAYOUT1) is None

    def test_clipped_translate_keeps_in_window_part(self):
        w = (
            PauliWord.identity(9)
            .with_letter(slot_of((1, 1), 0, LAYOUT1), "X")
            .with_letter(slot_of((2, 1), 0, LAYOUT1), "Z")
        )
        clipped = translate_word_clipped(w, (1, 0), LAYOUT1)
        assert clipped.letter(slot_of((2, 1), 0, LAYOUT1)) == "X"
        assert weight(clipped) == 1

    def test_clipped_translates_match_oracle(self):
        rng = random.Random(8)
        layout3 = UnitCellLayout(3, Scheme.TWO_GRIDS, EdgeSet.NN_SQUARE)
        for layout in (LAYOUT1, layout3, LAYOUT6):
            n = layout.n_slots
            for _ in range(20):
                w = PauliWord(rng.getrandbits(n), rng.getrandbits(n), n)
                got = clipped_translates(w.x_mask, w.z_mask, layout.qubits_per_cell)
                want = [translate_word_clipped(w, shift, layout) for shift in ALL_SHIFTS]
                assert got == [(t.x_mask, t.z_mask) for t in want]

    def test_weight_preserved_when_in_window(self):
        rng = random.Random(6)
        layout = UnitCellLayout(2, Scheme.TWO_GRIDS, EdgeSet.NN_SQUARE)
        n = layout.n_slots
        for _ in range(100):
            w = PauliWord(rng.getrandbits(n), rng.getrandbits(n), n)
            shift = rng.choice(ALL_SHIFTS)
            moved = translate_word(w, shift, layout)
            if moved is not None:
                assert weight(moved) == weight(w)

    def test_shift_out_of_range_rejected(self):
        w = PauliWord.identity(9)
        with pytest.raises(ValueError):
            translate_word(w, (3, 0), LAYOUT1)


class TestPairShiftBits:
    @pytest.mark.parametrize("qpc", [1, 2, 3])
    def test_bits_are_the_shifts_that_map_one_slot_onto_the_other(self, qpc):
        layout = UnitCellLayout(qpc, Scheme.TWO_GRIDS, EdgeSet.NN_SQUARE)
        table = _pair_shift_bits(qpc)
        maps = _shift_tables(qpc)
        negated = [ALL_SHIFTS.index((-dx, -dy)) for dx, dy in ALL_SHIFTS]
        n = layout.n_slots
        assert len(table) == n and all(len(row) == n for row in table)
        for p in range(n):
            for q in range(n):
                bits = table[p][q]
                same_local = cell_of(p, layout)[1] == cell_of(q, layout)[1]
                if p == q or not same_local:
                    assert bits == 0, (p, q)
                    continue
                for s, shift in enumerate(ALL_SHIFTS):
                    moved = maps[shift][q] == p or maps[shift][p] == q
                    assert bool(bits >> s & 1) == moved, (p, q, shift)
                    assert (bits >> s & 1) == (bits >> negated[s] & 1), (p, q, shift)
                assert bits.bit_count() == 2
                assert table[q][p] == bits


class TestLayout:
    def test_names_round_trip(self):
        for scheme in Scheme:
            assert scheme_from_name(scheme.value) is scheme
        for edge_set in EdgeSet:
            assert edge_set_from_name(edge_set.value) is edge_set
        with pytest.raises(ValueError):
            scheme_from_name("hexagonal")
        with pytest.raises(ValueError):
            edge_set_from_name("kagome")

    def test_modes_per_cell(self):
        assert UnitCellLayout(2, Scheme.TWO_GRIDS, EdgeSet.NN_SQUARE).modes_per_cell == 1
        assert UnitCellLayout(2, Scheme.MIXED, EdgeSet.NN_SQUARE).modes_per_cell == 2
        assert UnitCellLayout(2, Scheme.DOUBLED_H, EdgeSet.NN_SQUARE).modes_per_cell == 2
        assert UnitCellLayout(2, Scheme.DOUBLED_OFFSET, EdgeSet.NN_SQUARE).modes_per_cell == 2

    def test_qubits_per_cell_bounds(self):
        with pytest.raises(ValueError):
            UnitCellLayout(0, Scheme.TWO_GRIDS, EdgeSet.NN_SQUARE)
        with pytest.raises(ValueError):
            UnitCellLayout(7, Scheme.TWO_GRIDS, EdgeSet.NN_SQUARE)

    def test_center_constant(self):
        assert CENTER == (1, 1)
