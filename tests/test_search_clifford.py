"""Clifford deformations: gate semantics, invariance, deform search."""

import random

import pytest

from fqec.encoding import EncodingCandidate, validate
from fqec.lattice import ALL_SHIFTS, EdgeSet, Scheme, UnitCellLayout, translate_word_clipped
from fqec.search_clifford import (
    ALL_LETTER_PERMS,
    CliffordConfig,
    CnotGate,
    SingleQubitGate,
    apply_clifford,
    clifford_deform_search,
    connected_cell_offsets,
    sample_gate_set,
)
from fqec.symplectic import commute_parity, weight

NN2 = UnitCellLayout(2, Scheme.TWO_GRIDS, EdgeSet.NN_SQUARE)


def parity_table(enc):
    layout = enc.layout
    gens = sorted(enc.generators, key=lambda g: g.name)
    table = {}
    for a in gens:
        for b in gens:
            for shift in ALL_SHIFTS:
                table[(a.name, b.name, shift)] = commute_parity(
                    enc.generators[a],
                    translate_word_clipped(enc.generators[b], shift, layout),
                )
    return table


SOUND_GATES = [
    SingleQubitGate(0, ("Z", "Y", "X")),  # Hadamard-like: swap X and Z
    SingleQubitGate(1, ("Y", "X", "Z")),  # S-like: swap X and Y
    SingleQubitGate(0, ("X", "Y", "Z")),  # identity class
    CnotGate(((0, 0), 0), ((0, 0), 1)),
    CnotGate(((0, 0), 1), ((0, 0), 0)),
]


class TestSingleQubitGates:
    def test_identity_permutation_is_noop(self, vc_encoding):
        deformed, clipped = apply_clifford(vc_encoding, SingleQubitGate(0, ("X", "Y", "Z")))
        assert not clipped
        assert deformed.generators == vc_encoding.generators

    def test_weight_preserved_for_every_perm(self, vc_encoding):
        for local in range(2):
            for perm in ALL_LETTER_PERMS:
                deformed, _ = apply_clifford(vc_encoding, SingleQubitGate(local, perm))
                for gen, word in vc_encoding.generators.items():
                    assert weight(deformed.generators[gen]) == weight(word)

    def test_letterwise_action(self, vc_encoding):
        perm = ("Z", "Y", "X")
        gate = SingleQubitGate(0, perm)
        mapping = dict(zip(("X", "Y", "Z"), perm))
        mapping["I"] = "I"
        deformed, _ = apply_clifford(vc_encoding, gate)
        for gen, word in vc_encoding.generators.items():
            new_word = deformed.generators[gen]
            for slot in range(NN2.n_slots):
                expected = (
                    mapping[word.letter(slot)] if slot % 2 == 0 else word.letter(slot)
                )
                assert new_word.letter(slot) == expected

    def test_validation_preserved(self, vc_encoding):
        before = parity_table(vc_encoding)
        for perm in ALL_LETTER_PERMS:
            deformed, _ = apply_clifford(vc_encoding, SingleQubitGate(1, perm))
            assert validate(deformed) == []
            assert parity_table(deformed) == before


class TestCnotGates:
    def test_intra_cell_self_inverse(self, vc_encoding):
        gate = CnotGate(((0, 0), 0), ((0, 0), 1))
        once, clipped_a = apply_clifford(vc_encoding, gate)
        twice, clipped_b = apply_clifford(once, gate)
        assert not clipped_a and not clipped_b
        assert twice.generators == vc_encoding.generators

    def test_intra_cell_preserves_validation(self, vc_encoding):
        before = parity_table(vc_encoding)
        for control, target in ((0, 1), (1, 0)):
            deformed, clipped = apply_clifford(
                vc_encoding, CnotGate(((0, 0), control), ((0, 0), target))
            )
            assert not clipped
            assert validate(deformed) == []
            assert parity_table(deformed) == before

    def test_cross_cell_different_local_self_inverse(self, vc_encoding):
        gate = CnotGate(((0, 0), 0), ((1, 0), 1))
        once, _ = apply_clifford(vc_encoding, gate)
        twice, _ = apply_clifford(once, gate)
        assert twice.generators == vc_encoding.generators

    def test_cross_cell_same_local_is_unsound_and_gets_rejected(self, vc_encoding):
        # Same-local cross-cell replication is not a symplectic map on the
        # translation algebra: applying it twice shifts support by two cells
        # instead of restoring the word, and deformed encodings can fail
        # validation.  The deform pipeline re-validates and rejects those.
        from fqec.lattice import slot_of
        from fqec.search_clifford import _apply_cnot
        from fqec.symplectic import PauliWord

        gate = CnotGate(((0, 0), 0), ((1, 0), 0))
        layout = vc_encoding.layout
        word = PauliWord.identity(layout.n_slots).with_letter(
            slot_of((0, 1), 0, layout), "X"
        )
        once, _ = _apply_cnot(word, gate, layout)
        twice, _ = _apply_cnot(once, gate, layout)
        assert twice != word

        deformed, clipped = apply_clifford(vc_encoding, gate)
        assert clipped
        assert validate(deformed)  # broken, so the search would reject it

    def test_connected_offsets(self):
        assert connected_cell_offsets(NN2) == [(0, 1), (1, 0)]
        tri = UnitCellLayout(2, Scheme.TWO_GRIDS, EdgeSet.TRIANGULAR)
        assert connected_cell_offsets(tri) == [(0, 1), (1, 0), (1, 1)]

    def test_malformed_gates_rejected(self, vc_encoding):
        with pytest.raises(ValueError):
            SingleQubitGate(0, ("X", "X", "Z"))
        with pytest.raises(ValueError):
            apply_clifford(vc_encoding, SingleQubitGate(5, ("X", "Y", "Z")))
        with pytest.raises(ValueError):
            apply_clifford(vc_encoding, CnotGate(((0, 0), 0), ((0, 0), 0)))
        with pytest.raises(ValueError):
            # (2, 2) is not an edge-connected cell offset on nn-square
            apply_clifford(vc_encoding, CnotGate(((0, 0), 0), ((2, 2), 0)))


class TestSoundSequencesInvariance:
    def test_random_sound_sequences(self, vc_encoding):
        rng = random.Random(41)
        before = parity_table(vc_encoding)
        for _ in range(40):
            enc = vc_encoding
            for _ in range(rng.randint(1, 4)):
                gate = rng.choice(SOUND_GATES)
                enc, clipped = apply_clifford(enc, gate)
                assert not clipped
            assert validate(enc) == []
            assert parity_table(enc) == before


class TestSampleGateSet:
    def _cfg(self, layout, singles, cnots, seed=0):
        base = EncodingCandidate(layout, {})
        return CliffordConfig(
            base=base, n_single_qubit_samples=singles, n_cnot_pairs=cnots,
            max_sequence_length=1, rng_seed=seed,
        )

    def test_full_population_per_slot(self):
        gates = sample_gate_set(self._cfg(NN2, 6, 0))
        singles = [g for g in gates if isinstance(g, SingleQubitGate)]
        for local in range(2):
            perms = {g.perm for g in singles if g.local == local}
            assert perms == set(ALL_LETTER_PERMS)

    def test_same_seed_same_set(self):
        a = sample_gate_set(self._cfg(NN2, 3, 1, seed=5))
        b = sample_gate_set(self._cfg(NN2, 3, 1, seed=5))
        assert a == b

    def test_intra_cell_pairs_all_included(self):
        layout3 = UnitCellLayout(3, Scheme.TWO_GRIDS, EdgeSet.NN_SQUARE)
        gates = sample_gate_set(self._cfg(layout3, 0, 0))
        intra = [
            g for g in gates
            if isinstance(g, CnotGate) and g.relative_offset == (0, 0)
        ]
        assert len(intra) == 6  # 3 * 2 ordered pairs

    def test_cross_cell_pairs_same_local(self):
        gates = sample_gate_set(self._cfg(NN2, 0, 2, seed=3))
        cross = [
            g for g in gates
            if isinstance(g, CnotGate) and g.relative_offset != (0, 0)
        ]
        assert len(cross) == 4  # 2 per connected cell-pair class
        for g in cross:
            assert g.control[1] == g.target[1]

    def test_oversampling_capped(self):
        gates = sample_gate_set(self._cfg(NN2, 99, 99))
        singles = [g for g in gates if isinstance(g, SingleQubitGate)]
        assert len(singles) == 12  # 6 perms x 2 locals


class TestDeformSearch:
    def test_zero_length_evaluates_base(self, vc_encoding):
        cfg = CliffordConfig(
            base=vc_encoding, n_single_qubit_samples=2, n_cnot_pairs=0,
            max_sequence_length=0, rng_seed=1,
        )
        emitted = []
        report = clifford_deform_search(cfg, lambda enc, prov: emitted.append((enc, prov)))
        assert report.nodes == 1 and report.emitted == 1
        enc, prov = emitted[0]
        assert enc.generators == vc_encoding.generators
        assert prov["clifford_sequence"] == []

    def test_emitted_revalidate_and_keep_generator_count(self, vc_encoding):
        cfg = CliffordConfig(
            base=vc_encoding, n_single_qubit_samples=2, n_cnot_pairs=1,
            max_sequence_length=2, rng_seed=7,
        )
        emitted = []
        report = clifford_deform_search(cfg, lambda enc, prov: emitted.append(enc))
        assert emitted
        for enc in emitted:
            assert validate(enc) == []
            assert len(enc.generators) == len(vc_encoding.generators)

    def test_base_survives_via_tie(self, vc_encoding):
        cfg = CliffordConfig(
            base=vc_encoding, n_single_qubit_samples=1, n_cnot_pairs=0,
            max_sequence_length=1, rng_seed=1, min_distance_filter=1,
        )
        emitted = []
        report = clifford_deform_search(
            cfg, lambda enc, prov: emitted.append(enc), final_w_max=3
        )
        best = max(e.metrics.distance.value for e in emitted)
        assert best >= 2  # the base itself has distance 2

    def test_determinism(self, vc_encoding):
        cfg = CliffordConfig(
            base=vc_encoding, n_single_qubit_samples=2, n_cnot_pairs=1,
            max_sequence_length=2, rng_seed=11,
        )
        runs = []
        for _ in range(2):
            emitted = []
            report = clifford_deform_search(
                cfg, lambda enc, prov: emitted.append((enc.canonical_key(), str(prov)))
            )
            runs.append((emitted, report))
        assert runs[0][0] == runs[1][0]
        assert runs[0][1] == runs[1][1]

    def test_threads_other_than_one_rejected(self, vc_encoding):
        cfg = CliffordConfig(
            base=vc_encoding, n_single_qubit_samples=2, n_cnot_pairs=0,
            max_sequence_length=1, rng_seed=2,
        )
        with pytest.raises(ValueError):
            clifford_deform_search(cfg, lambda enc, prov: None, threads=2)

    def test_sequence_budget_truncates(self, vc_encoding):
        cfg = CliffordConfig(
            base=vc_encoding, n_single_qubit_samples=2, n_cnot_pairs=1,
            max_sequence_length=2, rng_seed=2, sequence_budget=5,
        )
        report = clifford_deform_search(cfg, lambda enc, prov: None)
        assert report.truncated
        assert report.nodes == 5

    def test_invalid_base_rejected(self):
        from conftest import jw_like

        broken = jw_like(UnitCellLayout(1, Scheme.TWO_GRIDS, EdgeSet.NN_SQUARE))
        cfg = CliffordConfig(
            base=broken, n_single_qubit_samples=1, n_cnot_pairs=0,
            max_sequence_length=1,
        )
        with pytest.raises(ValueError):
            clifford_deform_search(cfg, lambda enc, prov: None)

    def test_dedup_by_generator_map(self, vc_encoding):
        # Two different sequences of the same self-inverse intra-cell CNOT
        # reach the base again; duplicates must not be emitted twice.
        cfg = CliffordConfig(
            base=vc_encoding, n_single_qubit_samples=0, n_cnot_pairs=0,
            max_sequence_length=2, rng_seed=0, min_distance_filter=1,
        )
        emitted = []
        report = clifford_deform_search(cfg, lambda enc, prov: emitted.append(enc))
        keys = [enc.canonical_key() for enc in emitted]
        assert len(keys) == len(set(keys))
