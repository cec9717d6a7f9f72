"""Bit-packed Pauli word algebra."""

import itertools
import random

import pytest

from fqec.symplectic import (
    MAX_SLOTS,
    PauliWord,
    SymplecticBasis,
    format_pauli,
    multiply,
    parse_pauli,
    weight,
)
from oracles import commute_parity


def word(text, n):
    return parse_pauli(text, n)


class TestCommuteParity:
    def test_x_vs_z_same_slot_anticommute(self):
        assert commute_parity(word("X", 1), word("Z", 1)) == 1

    def test_two_anticommuting_slots_cancel(self):
        assert commute_parity(word("XX", 2), word("ZZ", 2)) == 0

    def test_self_commutes(self):
        y3 = word("IIIY", 4)
        assert commute_parity(y3, y3) == 0

    def test_mismatched_slots_rejected(self):
        with pytest.raises(ValueError):
            commute_parity(word("X", 1), word("XZ", 2))

    def test_symmetry_and_bilinearity(self):
        rng = random.Random(7)
        n = 10
        words = [
            PauliWord(rng.getrandbits(n), rng.getrandbits(n), n) for _ in range(40)
        ]
        for a, b, c in zip(words, words[1:], words[2:]):
            assert commute_parity(a, b) == commute_parity(b, a)
            assert commute_parity(multiply(a, b), c) == (
                commute_parity(a, c) ^ commute_parity(b, c)
            )


class TestMultiply:
    def test_x_times_z_is_y(self):
        assert multiply(word("X", 1), word("Z", 1)) == word("Y", 1)

    def test_identity_neutral(self):
        a = word("XIZY", 4)
        assert multiply(a, PauliWord.identity(4)) == a

    def test_xor_of_masks(self):
        assert multiply(word("XI", 2), word("XZ", 2)) == word("IZ", 2)

    def test_self_inverse_and_associative(self):
        rng = random.Random(3)
        n = 12
        for _ in range(30):
            a = PauliWord(rng.getrandbits(n), rng.getrandbits(n), n)
            b = PauliWord(rng.getrandbits(n), rng.getrandbits(n), n)
            c = PauliWord(rng.getrandbits(n), rng.getrandbits(n), n)
            assert multiply(a, a) == PauliWord.identity(n)
            assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


class TestWeight:
    def test_examples(self):
        assert weight(word("YIZ", 3)) == 2
        assert weight(PauliWord.identity(5)) == 0
        assert weight(word("XYZX", 4)) == 4

    def test_subadditive(self):
        rng = random.Random(11)
        n = 16
        for _ in range(50):
            a = PauliWord(rng.getrandbits(n), rng.getrandbits(n), n)
            b = PauliWord(rng.getrandbits(n), rng.getrandbits(n), n)
            assert weight(multiply(a, b)) <= weight(a) + weight(b)


class TestSpanInsert:
    def test_first_insert(self):
        basis = SymplecticBasis(4)
        assert basis.insert(word("X", 4)) and basis.rank == 1

    def test_reinsert_rejected(self):
        basis = SymplecticBasis(4)
        basis.insert(word("X", 4))
        assert not basis.insert(word("X", 4))

    def test_product_in_span_brute_force(self):
        # Oracle: enumerate every F2 combination of the two inserted rows
        # and confirm the product really is one of them before asserting.
        rows = [word("X", 4), word("IZ", 4)]
        product = multiply(rows[0], rows[1])
        combos = set()
        for bits in itertools.product((0, 1), repeat=2):
            acc = PauliWord.identity(4)
            for bit, row in zip(bits, rows):
                if bit:
                    acc = multiply(acc, row)
            combos.add((acc.x_mask, acc.z_mask))
        assert (product.x_mask, product.z_mask) in combos

        basis = SymplecticBasis(4)
        for row in rows:
            assert basis.insert(row)
        assert not basis.insert(product)

    def test_idempotent_under_combinations(self):
        rng = random.Random(5)
        n = 10
        basis = SymplecticBasis(n)
        rows = []
        for _ in range(6):
            w = PauliWord(rng.getrandbits(n), rng.getrandbits(n), n)
            if basis.insert(w):
                rows.append(w)
        for _ in range(30):
            acc = PauliWord.identity(n)
            for row in rows:
                if rng.random() < 0.5:
                    acc = multiply(acc, row)
            assert not basis.copy().insert(acc) or acc.is_identity() is False
            assert basis.contains(acc)

    def test_pivots_strictly_increasing(self):
        rng = random.Random(9)
        n = 8
        basis = SymplecticBasis(n)
        for _ in range(12):
            basis.insert(PauliWord(rng.getrandbits(n), rng.getrandbits(n), n))
        pivots = basis.pivots
        assert pivots == sorted(set(pivots))
        assert len(basis.rows) == basis.rank


class TestParseFormat:
    def test_dense(self):
        w = parse_pauli("XIZ", 3)
        assert (w.x_mask, w.z_mask) == (0b001, 0b100)

    def test_sparse(self):
        w = parse_pauli("Y2", 4)
        assert (w.x_mask, w.z_mask) == (0b0100, 0b0100)

    def test_round_trip(self):
        assert format_pauli(parse_pauli("IZYX", 4)) == "IZYX"

    def test_parse_format_stable_random(self):
        rng = random.Random(2)
        for _ in range(30):
            n = rng.randint(1, 20)
            w = PauliWord(rng.getrandbits(n), rng.getrandbits(n), n)
            assert parse_pauli(format_pauli(w), n) == w

    def test_dense_pads_short_strings(self):
        assert parse_pauli("XZ", 5) == parse_pauli("XZIII", 5)

    def test_invalid_character(self):
        with pytest.raises(ValueError):
            parse_pauli("XQZ", 3)

    def test_sparse_index_out_of_range(self):
        with pytest.raises(ValueError):
            parse_pauli("X7", 3)

    def test_sparse_duplicate_slot(self):
        with pytest.raises(ValueError):
            parse_pauli("X1 Z1", 3)


class TestPauliWordInvariants:
    def test_mask_beyond_slots_rejected(self):
        with pytest.raises(ValueError):
            PauliWord(0b100, 0, 2)

    def test_slot_count_bounds(self):
        with pytest.raises(ValueError):
            PauliWord(0, 0, 0)
        with pytest.raises(ValueError):
            PauliWord(0, 0, MAX_SLOTS + 1)

    def test_letter_accessors(self):
        w = parse_pauli("XYZI", 4)
        assert [w.letter(i) for i in range(4)] == ["X", "Y", "Z", "I"]
        assert w.with_letter(3, "Y").letter(3) == "Y"
        assert w.support_slots() == [0, 1, 2]
