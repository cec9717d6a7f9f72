"""Exact distance engine and its dense-letter oracle."""

import itertools
import random
from collections import Counter

import pytest

from conftest import load_fixture, random_sound_deformation
from fqec import distance
from fqec.distance import (
    DistanceBudget,
    DistanceResult,
    min_distance,
    translated_stabilizers,
)
from fqec.encoding import EncodingCandidate, derive_stabilizers
from fqec.fermion import EDGE_DIRECTIONS, GeneratorKind
from fqec.lattice import ALL_SHIFTS, CENTER, EdgeSet, Scheme, UnitCellLayout, cell_of, slot_of
from fqec.search_bruteforce import SearchConfig, brute_force_search
from fqec.symplectic import PauliWord
from oracles import canonical_supports as filtered_supports
from oracles import hopping_pair, is_logical, naive_min_distance

FIVE_QUBIT_CODE = ("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ")


def cell_local_group(words: tuple[str, ...]) -> EncodingCandidate:
    """Stabilizer-only encoding: ``words`` act on the centre cell's locals.

    Their window translates put a copy of the group on every cell.
    """
    layout = UnitCellLayout(len(words[0]), Scheme.TWO_GRIDS, EdgeSet.NN_SQUARE)
    stabs = []
    for text in words:
        word = PauliWord.identity(layout.n_slots)
        for local, letter in enumerate(text):
            if letter != "I":
                word = word.with_letter(slot_of(CENTER, local, layout), letter)
        stabs.append(word)
    return EncodingCandidate(layout, {}, stabilizer_generators=tuple(stabs))


def cycle_graph_state(qpc: int) -> tuple[str, ...]:
    """Generators X_i Z_{i-1} Z_{i+1} of the graph state of a qpc-cycle."""
    words = []
    for i in range(qpc):
        letters = ["I"] * qpc
        letters[i] = "X"
        letters[(i - 1) % qpc] = letters[(i + 1) % qpc] = "Z"
        words.append("".join(letters))
    return tuple(words)


def relabelled_cycle_graph_state(qpc: int, rng: random.Random) -> tuple[str, ...]:
    """``cycle_graph_state(qpc)`` with the locals shuffled and the three
    letters permuted on each local, both drawn from ``rng``."""
    order = rng.sample(range(qpc), qpc)
    letter_maps = [dict(zip("XYZ", rng.sample("XYZ", 3)), I="I") for _ in range(qpc)]
    words = []
    for text in cycle_graph_state(qpc):
        letters = ["I"] * qpc
        for i, letter in enumerate(text):
            letters[order[i]] = letter_maps[order[i]][letter]
        words.append("".join(letters))
    return tuple(words)


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

    def test_slot_count_mismatch_rejected(self, vc_encoding):
        n = vc_encoding.layout.n_slots
        with pytest.raises(ValueError, match="slot count mismatch"):
            is_logical(PauliWord.single("X", n, n + 1), vc_encoding)

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
        from fqec.encoding import validate

        enc = EncodingCandidate(layout, gens)
        assert validate(enc) == []
        enc = enc.with_stabilizers(derive_stabilizers(enc))
        assert min_distance(enc, DistanceBudget(3)) == min_distance(
            vc_encoding, DistanceBudget(3)
        )


def admitted_supports(layout, w: int) -> list[tuple[int, ...]]:
    """The supports that ``distance._box_tables`` admits, in walk order.

    Each ``itertools.combinations`` prefix of w - 1 slots is followed by
    the end slots of its centered-end mask past its last slot.
    """
    boxes, ends = distance._box_tables(layout.qubits_per_cell)
    out = []
    for prefix in itertools.combinations(range(layout.n_slots), w - 1):
        box = 0
        for s in prefix:
            box |= boxes[s]
        start = prefix[-1] + 1 if prefix else 0
        live = ends[box] >> start << start
        out.extend((*prefix, end) for end in range(layout.n_slots) if live >> end & 1)
    return out


class TestCanonicalSupports:
    def test_weight_one_is_central(self):
        layout = UnitCellLayout(2, Scheme.TWO_GRIDS, EdgeSet.NN_SQUARE)
        supports = admitted_supports(layout, 1)
        cells = {cell_of(s, layout)[0] for (s,) in supports}
        assert cells == {(1, 1)}

    def test_matches_filter_oracle(self):
        # Same list, same order as filtering every combination.
        for qpc in range(1, 7):
            layout = UnitCellLayout(qpc, Scheme.TWO_GRIDS, EdgeSet.NN_SQUARE)
            for w in range(1, 5 if qpc <= 4 else 4):
                assert admitted_supports(layout, w) == filtered_supports(layout, w), (qpc, w)

    def test_one_per_orbit(self):
        # Every weight-2 support is a translate of exactly one canonical one.
        layout = UnitCellLayout(1, Scheme.TWO_GRIDS, EdgeSet.NN_SQUARE)
        canonical = set(admitted_supports(layout, 2))
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


class TestFullRankGroups:
    """Cell-local groups whose translates span every error that they do not detect."""

    @pytest.mark.parametrize("qpc", [3, 4])
    def test_zero_syndrome_stabilizers_stay_trivial(self, qpc):
        # The weight-3 generators (and their weight-4 products) commute with
        # every translate; counting them as logicals would give Exact 3.
        enc = cell_local_group(cycle_graph_state(qpc))
        assert enc.layout.n_slots == 9 * qpc
        for stab in enc.stabilizer_generators:
            assert not is_logical(stab, enc)
        assert min_distance(enc, DistanceBudget(4)) == DistanceResult.lower_bound(5)

    def test_27_slots_match_oracle(self):
        enc = cell_local_group(cycle_graph_state(3))
        expected = DistanceResult.lower_bound(4)
        assert min_distance(enc, DistanceBudget(3)) == naive_min_distance(enc, 3) == expected

    @pytest.mark.parametrize("seed", range(5))
    def test_relabelled_27_slots_match_oracle(self, seed):
        enc = cell_local_group(relabelled_cycle_graph_state(3, random.Random(seed)))
        expected = DistanceResult.lower_bound(4)
        assert min_distance(enc, DistanceBudget(3)) == naive_min_distance(enc, 3) == expected


class TestFiveQubitCode:
    def test_distance_three(self):
        # 45 slots, the five-qubit code on every cell: the first distance 3.
        enc = cell_local_group(FIVE_QUBIT_CODE)
        assert enc.layout.n_slots == 45
        expected = DistanceResult.exact_distance(3)
        assert min_distance(enc, DistanceBudget(4)) == naive_min_distance(enc, 3) == expected


class TestBuiltWords:
    """The scan builds a word only for a letter choice with zero syndrome."""

    @pytest.fixture
    def built(self, monkeypatch):
        words = []

        class CountingWord(PauliWord):
            def __post_init__(self):
                super().__post_init__()
                words.append(self)

        monkeypatch.setattr(distance, "PauliWord", CountingWord)
        return words

    @pytest.mark.parametrize(
        # Building every letter choice of each passing support makes 8,802
        # and 4,095 words.
        "qpc, expected", [(3, 115), (4, 63)],
    )
    def test_full_rank_groups(self, built, qpc, expected):
        enc = cell_local_group(cycle_graph_state(qpc))
        assert min_distance(enc, DistanceBudget(4)) == DistanceResult.lower_bound(5)
        assert len(built) == expected

    def test_five_qubit_code(self, built):
        # The first zero-syndrome word is a logical; building every letter
        # choice of the passing support makes 4 words.
        enc = cell_local_group(FIVE_QUBIT_CODE)
        assert min_distance(enc, DistanceBudget(4)) == DistanceResult.exact_distance(3)
        assert len(built) == 1
        assert is_logical(built[0], enc)

    def test_trivial_word_before_logical(self, built):
        # X X on locals 0 and 1 has zero syndrome and lies in the span; the
        # next zero-syndrome word on that support, Y Y, is a logical.
        enc = cell_local_group(("ZZZZ", "XXXX", "XXII"))
        expected = DistanceResult.exact_distance(2)
        assert min_distance(enc, DistanceBudget(3)) == naive_min_distance(enc, 3) == expected
        layout = enc.layout
        pair = [slot_of(CENTER, local, layout) for local in (0, 1)]
        assert [sorted(w.support_slots()) for w in built] == [pair, pair]
        assert [w.letter(pair[0]) + w.letter(pair[1]) for w in built] == ["XX", "YY"]
        assert [is_logical(w, enc) for w in built] == [False, True]


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

    def test_criterion_5_completions_agree(self):
        # Every completion of the criterion-5 desk search, collected with the
        # distance filter off, in the order found.
        cfg = SearchConfig(
            layout=UnitCellLayout(2, Scheme.TWO_GRIDS, EdgeSet.NN_SQUARE),
            max_vertex_weight=4,
            max_edge_or_hopping_weight=4,
            min_distance_filter=1,
            acceptance_probability=1.0,
            rng_seed=1,
        )
        completions = []
        brute_force_search(cfg, lambda enc: None, completion_sink=completions.append)
        assert len(completions) == 274
        histogram = Counter()
        for enc in completions:
            fast = min_distance(enc, DistanceBudget(3))
            assert fast == naive_min_distance(enc, 3)
            histogram[str(fast)] += 1
        assert histogram == {"Exact 1": 214, "Exact 2": 60}
