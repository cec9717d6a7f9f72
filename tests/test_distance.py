"""Exact distance engine and its dense-letter oracle."""

import random

import pytest

from conftest import load_fixture, random_sound_deformation
from fqec.distance import (
    DistanceBudget,
    DistanceResult,
    canonical_supports,
    is_logical,
    min_distance,
    naive_min_distance,
    translated_stabilizers,
)
from fqec.encoding import derive_stabilizers
from fqec.fermion import EDGE_DIRECTIONS, GeneratorKind, hopping_pair
from fqec.lattice import EdgeSet, Scheme, UnitCellLayout, cell_of, slot_of
from fqec.symplectic import PauliWord


class TestDistanceResult:
    def test_text_forms(self):
        assert str(DistanceResult.exact_distance(2)) == "Exact 2"
        assert str(DistanceResult.lower_bound(3)) == "LowerBound 3"

    def test_budget_bounds(self):
        with pytest.raises(ValueError):
            DistanceBudget(0)


class TestMinDistance:
    def test_no_stabilizers_gives_one(self, jw_encoding):
        assert min_distance(jw_encoding, DistanceBudget(3)) == DistanceResult.exact_distance(1)
        assert naive_min_distance(jw_encoding, 3) == DistanceResult.exact_distance(1)

    def test_vc_is_distance_two(self, vc_encoding):
        assert min_distance(vc_encoding, DistanceBudget(4)) == DistanceResult.exact_distance(2)

    def test_budget_gives_lower_bound(self, vc_encoding):
        assert min_distance(vc_encoding, DistanceBudget(1)) == DistanceResult.lower_bound(2)

    def test_frozen_fixture_distances(self, d2_encoding):
        assert min_distance(d2_encoding, DistanceBudget(3)).value == 2
        d1 = load_fixture("d1_nn_square.json")
        assert min_distance(d1, DistanceBudget(3)) == DistanceResult.exact_distance(1)

    def test_stabilizer_generator_is_trivial(self, vc_encoding):
        stab = vc_encoding.stabilizer_generators[0]
        assert not is_logical(stab, vc_encoding)

    def test_identity_not_logical(self, vc_encoding):
        assert not is_logical(PauliWord.identity(vc_encoding.layout.n_slots), vc_encoding)

    def test_hopping_terms_are_logical(self, vc_encoding):
        for kind in (GeneratorKind.EDGE_RIGHT, GeneratorKind.EDGE_UP):
            for term in hopping_pair(vc_encoding, 0, EDGE_DIRECTIONS[kind]):
                assert is_logical(term, vc_encoding)

    def test_translation_set_complete(self, vc_encoding):
        # The weight-8 plaquette spans 2x2 cells: exactly 4 window translates.
        assert len(translated_stabilizers(vc_encoding)) == 4

    def test_relabeling_invariance(self, vc_encoding):
        # Swap the two locals of every cell in every generator: distance is
        # unchanged under in-cell slot relabeling.
        layout = vc_encoding.layout
        perm = {}
        for slot in range(layout.n_slots):
            cell, local = cell_of(slot, layout)
            perm[slot] = slot_of(cell, 1 - local, layout)

        def relabel(word):
            out = PauliWord.identity(layout.n_slots)
            for slot in word.support_slots():
                out = out.with_letter(perm[slot], word.letter(slot))
            return out

        gens = {gen: relabel(w) for gen, w in vc_encoding.generators.items()}
        from fqec.encoding import EncodingCandidate, validate

        enc = EncodingCandidate(layout, gens)
        assert validate(enc) == []
        enc = enc.with_stabilizers(derive_stabilizers(enc))
        assert min_distance(enc, DistanceBudget(3)) == min_distance(
            vc_encoding, DistanceBudget(3)
        )


class TestCanonicalSupports:
    def test_weight_one_is_central(self):
        layout = UnitCellLayout(2, Scheme.TWO_GRIDS, EdgeSet.NN_SQUARE)
        supports = canonical_supports(layout, 1)
        cells = {cell_of(s, layout)[0] for (s,) in supports}
        assert cells == {(1, 1)}

    def test_one_per_orbit(self):
        # Every weight-2 support is a translate of exactly one canonical one.
        layout = UnitCellLayout(1, Scheme.TWO_GRIDS, EdgeSet.NN_SQUARE)
        canonical = set(canonical_supports(layout, 2))
        import itertools

        from fqec.lattice import ALL_SHIFTS

        for support in itertools.combinations(range(layout.n_slots), 2):
            cells = [cell_of(s, layout)[0] for s in support]
            hits = 0
            for dx, dy in ALL_SHIFTS:
                moved = []
                ok = True
                for (x, y), s in zip(cells, support):
                    nx, ny = x + dx, y + dy
                    if not (0 <= nx < 3 and 0 <= ny < 3):
                        ok = False
                        break
                    moved.append(slot_of((nx, ny), cell_of(s, layout)[1], layout))
                if ok and tuple(sorted(moved)) in canonical:
                    hits += 1
            assert hits == 1


class TestDifferential:
    def test_random_encodings_agree(self, vc_encoding, d2_encoding):
        rng = random.Random(99)
        pool = [vc_encoding, d2_encoding, load_fixture("d1_nn_square.json")]
        for index in range(12):
            enc = random_sound_deformation(pool[index % len(pool)], rng, n_gates=3)
            enc = enc.with_stabilizers(derive_stabilizers(enc))
            fast = min_distance(enc, DistanceBudget(3))
            slow = naive_min_distance(enc, 3)
            assert fast == slow
