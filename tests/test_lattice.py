"""Window slot map, translations and shift enumeration."""

import itertools
import random

import pytest

from fqec.lattice import (
    ALL_SHIFTS,
    CENTER,
    WINDOW,
    EdgeSet,
    Scheme,
    UnitCellLayout,
    _shift_tables,
    canonical_relabel,
    cell_of,
    edge_set_from_name,
    pair_parities,
    scheme_from_name,
    slot_of,
    translate_word,
)
from fqec.symplectic import PauliWord, weight
from oracles import (
    LETTER_PERMS,
    commute_parity,
    dense_words,
    masks_of,
    pair_shift_bits,
    relabel_class,
    relabel_letters,
    relabelings,
    self_parities,
    translate_word_clipped,
)


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
        table = pair_shift_bits(qpc)
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


def oracle_parities(a, b, layout):
    """Bit ``s``: the parity of ``a`` against ``b`` clipped-translated by
    ``ALL_SHIFTS[s]``, one translate at a time."""
    return sum(
        commute_parity(a, translate_word_clipped(b, shift, layout)) << s
        for s, shift in enumerate(ALL_SHIFTS)
    )


class TestPairParities:
    """``pair_parities`` against ``oracles.translate_word_clipped``, which
    shares no pair or shift table with it."""

    @staticmethod
    def check(a, b, layout):
        got = pair_parities(a.x_mask, a.z_mask, b.x_mask, b.z_mask, layout.qubits_per_cell)
        assert got == oracle_parities(a, b, layout), (a, b)
        return got

    @staticmethod
    def random_word(rng, layout):
        n = layout.n_slots
        if rng.random() < 0.5:
            return PauliWord(rng.getrandbits(n), rng.getrandbits(n), n)
        word = PauliWord.identity(n)
        for slot in rng.sample(range(n), rng.randint(1, 4)):
            word = word.with_letter(slot, rng.choice("XYZ"))
        return word

    @pytest.mark.parametrize("qpc", [1, 2, 3, 4])
    def test_random_pairs(self, qpc):
        layout = UnitCellLayout(qpc, Scheme.TWO_GRIDS, EdgeSet.NN_SQUARE)
        rng = random.Random(30 + qpc)
        nonzero = 0
        for _ in range(60):
            a, b = self.random_word(rng, layout), self.random_word(rng, layout)
            nonzero += bool(self.check(a, b, layout))
        assert nonzero > 20

    def test_corner_and_edge_words_clip(self):
        # Each b spans opposite window cells, so every shift along its span
        # (24 for a diagonal, 22 for the middle row or column) pushes part of it out
        # of the window; a sits on one corner or edge cell, or the centre.
        layout = UnitCellLayout(2, Scheme.TWO_GRIDS, EdgeSet.NN_SQUARE)
        spans = [((0, 0), (2, 2)), ((2, 0), (0, 2)), ((0, 1), (2, 1)), ((1, 0), (1, 2))]
        for far_a, far_b in spans:
            for la, lb in itertools.product("XYZ", repeat=2):
                b = (
                    PauliWord.identity(layout.n_slots)
                    .with_letter(slot_of(far_a, 0, layout), lb)
                    .with_letter(slot_of(far_b, 1, layout), "X")
                )
                clipping = sum(translate_word(b, shift, layout) is None for shift in ALL_SHIFTS)
                assert clipping == (24 if far_a[0] != far_b[0] and far_a[1] != far_b[1] else 22)
                for cell in (far_a, far_b, (1, 1)):
                    for local in (0, 1):
                        a = PauliWord.single(la, slot_of(cell, local, layout), layout.n_slots)
                        self.check(a, b, layout)

    def test_pairs_meeting_only_at_one_slot(self):
        # Anticommuting letters on one shared slot, every other slot of the
        # two words on different locals: only shift (0, 0) flips.
        layout = UnitCellLayout(3, Scheme.TWO_GRIDS, EdgeSet.NN_SQUARE)
        n = layout.n_slots
        zero = 1 << ALL_SHIFTS.index((0, 0))
        for cell in [(0, 0), (1, 1), (2, 1)]:
            shared = slot_of(cell, 0, layout)
            a = PauliWord.single("X", shared, n).with_letter(slot_of((2, 2), 1, layout), "Y")
            b = PauliWord.single("Z", shared, n).with_letter(slot_of((0, 2), 2, layout), "X")
            assert self.check(a, b, layout) == zero
            assert self.check(b, a, layout) == zero

    @pytest.mark.parametrize("qpc", [1, 2, 3, 4, 5, 6])
    def test_self_parities_are_pair_parities_on_cap2_words(self, qpc):
        n = qpc * WINDOW * WINDOW
        words = [
            (x, z)
            for w in (1, 2)
            for support in itertools.combinations(range(n), w)
            for letters in itertools.product(((1, 0), (1, 1), (0, 1)), repeat=w)
            for x, z in [(
                sum(bx << slot for slot, (bx, _) in zip(support, letters)),
                sum(bz << slot for slot, (_, bz) in zip(support, letters)),
            )]
        ]
        assert len(words) == 3 * n + 9 * n * (n - 1) // 2
        for x, z in words:
            assert self_parities(x, z, qpc) == pair_parities(x, z, x, z, qpc), (x, z)


def sparse_map(rng, qpc, n_gens=2):
    """A generator map whose words lie on the first two cells, at weight at
    most 2, so that random maps often fall into one relabeling class."""
    slots = range(2 * qpc)
    masks = []
    for _ in range(n_gens):
        x = z = 0
        for slot in rng.sample(slots, rng.randint(0, 2)):
            letter = rng.randint(1, 3)
            x |= (letter & 1) << slot
            z |= (letter >> 1) << slot
        masks.append((x, z))
    return tuple(masks)


def dense_map(rng, qpc, n_gens=3):
    n = 9 * qpc
    return tuple((rng.getrandbits(n), rng.getrandbits(n)) for _ in range(n_gens))


def relabeled(masks, qpc, locals_to, letter_perms):
    return masks_of(relabel_letters(dense_words(masks, qpc), qpc, locals_to, letter_perms))


class TestCanonicalRelabel:
    """``canonical_relabel`` against ``relabel_class``, the least image over
    every relabeling."""

    @pytest.mark.parametrize("qpc, count, n_classes", [(1, 150, 45), (2, 150, 56), (3, 60, 22)])
    def test_equal_keys_iff_equal_classes(self, qpc, count, n_classes):
        rng = random.Random(qpc)
        maps = set()
        while len(maps) < count:
            masks = sparse_map(rng, qpc)
            maps.add(masks)
            # and a random relabeling of it, so that classes collide
            locals_to = tuple(rng.sample(range(qpc), qpc))
            letter_perms = [rng.choice(LETTER_PERMS) for _ in range(qpc)]
            maps.add(relabeled(masks, qpc, locals_to, letter_perms))
        pairs = {(canonical_relabel(m, qpc), relabel_class(m, qpc)) for m in sorted(maps)}
        keys, classes = {k for k, _ in pairs}, {c for _, c in pairs}
        assert len(keys) == len(classes) == len(pairs) == n_classes

    @pytest.mark.parametrize("qpc", [1, 2])
    def test_invariant_under_every_relabeling(self, qpc):
        rng = random.Random(10 + qpc)
        for masks in [sparse_map(rng, qpc) for _ in range(10)] + [dense_map(rng, qpc) for _ in range(10)]:
            key = canonical_relabel(masks, qpc)
            for locals_to, letter_perms in relabelings(qpc):
                assert canonical_relabel(relabeled(masks, qpc, locals_to, letter_perms), qpc) == key

    def test_invariant_under_sampled_relabelings_at_three_qubits(self):
        rng = random.Random(13)
        group = list(relabelings(3))
        assert len(group) == 6 * 6**3
        for masks in [sparse_map(rng, 3) for _ in range(10)] + [dense_map(rng, 3) for _ in range(10)]:
            key = canonical_relabel(masks, 3)
            for locals_to, letter_perms in rng.sample(group, 40):
                assert canonical_relabel(relabeled(masks, 3, locals_to, letter_perms), 3) == key

    def test_letters_normalised_per_local(self):
        # Local 0 reads Y in cell 0, then X in cell 1: Y becomes X, X becomes
        # Z.  Local 1 reads Z alone, in cell 1, which becomes X.  Shifted to
        # local 0, cell c is bit 2c.
        x = 1 << 0 | 1 << 2
        z = 1 << 0 | 1 << 3
        assert canonical_relabel(((x, z),), 2) == (((1, 1 << 2),), ((1 << 2, 0),))


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
