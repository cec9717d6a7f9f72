"""Clifford deformations: gate semantics, invariance, deform search."""

import itertools
import random
from fractions import Fraction

import pytest

from fqec import encoding, search_bruteforce, search_clifford
from fqec.encoding import EncodingCandidate, validate
from fqec.lattice import ALL_SHIFTS, EdgeSet, Scheme, UnitCellLayout
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
from fqec.symplectic import PauliWord, weight
from conftest import load_fixture
from oracles import apply_gate_letters, commute_parity, relabel_class, translate_word_clipped

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

        gate = CnotGate(((0, 0), 0), ((1, 0), 0))
        layout = vc_encoding.layout
        act = search_clifford._gate_masks(layout.qubits_per_cell, gate)
        x = 1 << slot_of((0, 1), 0, layout)
        once = act(x, 0)
        twice = act(once[0], once[1])
        assert twice[:2] != (x, 0)

        deformed, clipped = apply_clifford(vc_encoding, gate)
        assert clipped
        assert validate(deformed)  # broken, so the search would reject it

    def test_connected_offsets(self):
        assert connected_cell_offsets(NN2) == ((0, 1), (1, 0))
        tri = UnitCellLayout(2, Scheme.TWO_GRIDS, EdgeSet.TRIANGULAR)
        assert connected_cell_offsets(tri) == ((0, 1), (1, 0), (1, 1))

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


def accepted_gates(layout):
    """Every gate ``_check_gate`` accepts on ``layout``, up to the base cell:
    each letter permutation per local, each intra-cell CNOT, and cross-cell
    CNOTs over every connected offset in both orientations and for every
    (control, target) local pair."""
    qpc = layout.qubits_per_cell
    gates = [SingleQubitGate(local, perm) for local in range(qpc) for perm in ALL_LETTER_PERMS]
    pairs = [(c, t) for c in range(qpc) for t in range(qpc)]
    gates += [CnotGate(((0, 0), c), ((0, 0), t)) for c, t in pairs if c != t]
    for off in connected_cell_offsets(layout):
        for c, t in pairs:
            gates += [CnotGate(((0, 0), c), (off, t)), CnotGate((off, c), ((0, 0), t))]
    return gates


class TestGateOracle:
    """The mask routine and ``apply_clifford`` against ``apply_gate_letters``."""

    FIXTURES = {  # fixture: (accepted gates, of which clip some generator)
        "d1_nn_square.json": (30, 11),
        "d2_nn_square.json": (30, 9),
        "nnn_rank4.json": (46, 31),
        "triangular_rank2.json": (38, 23),
    }

    def test_accepted_gates_are_every_offset_check_gate_takes(self):
        for name in self.FIXTURES:
            layout = load_fixture(name).layout
            offsets = set(connected_cell_offsets(layout))
            for dx, dy in ALL_SHIFTS:
                gate = CnotGate(((0, 0), 0), ((dx, dy), 1))
                if (dx, dy) == (0, 0) or {(dx, dy), (-dx, -dy)} & offsets:
                    search_clifford._check_gate(layout, gate)
                else:
                    with pytest.raises(ValueError):
                        search_clifford._check_gate(layout, gate)

    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_fixture_generators(self, name):
        enc = load_fixture(name)
        layout = enc.layout
        gates = accepted_gates(layout)
        clipping = 0
        for gate in gates:
            deformed, clipped = apply_clifford(enc, gate)
            act = search_clifford._gate_masks(layout.qubits_per_cell, gate)
            want_clipped = False
            for gen, word in enc.generators.items():
                want, word_clipped = apply_gate_letters(word, gate, layout)
                assert act(word.x_mask, word.z_mask) == (want.x_mask, want.z_mask, word_clipped)
                assert deformed.generators[gen] == want
                want_clipped = want_clipped or word_clipped
            assert clipped == want_clipped, gate
            clipping += clipped
        assert (len(gates), clipping) == self.FIXTURES[name]

    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_random_words(self, name):
        layout = load_fixture(name).layout
        n = layout.n_slots
        rng = random.Random(name)
        for gate in accepted_gates(layout):
            act = search_clifford._gate_masks(layout.qubits_per_cell, gate)
            for _ in range(4):
                word = PauliWord(rng.getrandbits(n), rng.getrandbits(n), n)
                want, clipped = apply_gate_letters(word, gate, layout)
                assert act(word.x_mask, word.z_mask) == (want.x_mask, want.z_mask, clipped)


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

    def test_one_pipeline_pass_per_distinct_map(self, d2_encoding, monkeypatch):
        # Sequences are deduplicated by the relabeling class of the map they
        # reach before validation, so validate runs once per class (plus the
        # base check) and compute_metrics once per valid class.  The
        # counters still count every sequence: the pinned values were
        # measured with every sequence validated and measured on its own.
        # Every map the front accepts is a relabeling of the base, so only
        # the base is emitted.
        cfg = CliffordConfig(
            base=d2_encoding, n_single_qubit_samples=3, n_cnot_pairs=1,
            max_sequence_length=3, rng_seed=5, min_distance_filter=1,
        )
        gates = sample_gate_set(cfg)
        maps = {}
        for k in range(cfg.max_sequence_length + 1):
            for seq in itertools.permutations(gates, k):
                enc = cfg.base
                for gate in seq:
                    enc, _ = apply_clifford(enc, gate)
                maps.setdefault(enc.canonical_key(), enc)
        classes = {}
        for enc in maps.values():
            masks = tuple((w.x_mask, w.z_mask) for w in enc.generators.values())
            classes.setdefault(relabel_class(masks, 2), enc)
        n_valid = sum(1 for enc in classes.values() if not validate(enc))
        assert (len(maps), len(classes), n_valid) == (332, 93, 9)

        calls = {"validate": 0, "compute_metrics": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        counted_validate = counting("validate", encoding.validate)
        for module in (search_bruteforce, search_clifford):
            monkeypatch.setattr(module, "validate", counted_validate)
        monkeypatch.setattr(
            search_bruteforce, "compute_metrics",
            counting("compute_metrics", encoding.compute_metrics),
        )
        emitted = []
        front = search_bruteforce.ParetoFront()
        report = clifford_deform_search(
            cfg, lambda enc, prov: emitted.append(enc), final_w_max=3, front=front
        )
        assert (report.nodes, report.completions, report.filtered, report.invalid,
                report.emitted) == (821, 401, 0, 420, 1)
        assert calls == {"validate": len(classes) + 1, "compute_metrics": n_valid}
        assert [enc.generators for enc in emitted] == [d2_encoding.generators]
        assert {entry.key for entry in front.entries} == {(2, 6, Fraction(4), Fraction(40, 9))}

    def test_each_completion_gets_a_new_class(self, d2_encoding, monkeypatch):
        # _complete sees one map of every class the walk reaches, and never
        # a second map of a class.
        cfg = TestSequenceWalk.pipeline_cfg(d2_encoding)
        received = []
        real = search_clifford._complete

        def recording(cfg, enc, *args):
            masks = tuple((w.x_mask, w.z_mask) for w in enc.generators.values())
            received.append(relabel_class(masks, 2))
            return real(cfg, enc, *args)

        monkeypatch.setattr(search_clifford, "_complete", recording)
        clifford_deform_search(cfg, lambda enc, prov: None, final_w_max=3)
        walked = search_clifford._gate_sequences(cfg.base, sample_gate_set(cfg), 3)
        reached = {relabel_class(masks, 2) for masks in {masks for _, masks, _ in walked}}
        assert len(received) == len(set(received)) == 93
        assert set(received) == reached


class TestSequenceWalk:
    """The per-length prefix walk against a replay of every sequence."""

    @staticmethod
    def pipeline_cfg(base, **overrides):
        # The config of test_one_pipeline_pass_per_distinct_map: 10 gates.
        fields = dict(
            base=base, n_single_qubit_samples=3, n_cnot_pairs=1,
            max_sequence_length=3, rng_seed=5, min_distance_filter=1,
        )
        fields.update(overrides)
        return CliffordConfig(**fields)

    @staticmethod
    def counting_gates(monkeypatch):
        """Record the gate of every call of a mask routine the walk builds:
        one gate application makes one call per generator."""
        calls = []
        real = search_clifford._gate_masks

        def counted(qpc, gate):
            act = real(qpc, gate)

            def wrapper(x, z):
                calls.append(gate)
                return act(x, z)

            return wrapper

        monkeypatch.setattr(search_clifford, "_gate_masks", counted)
        return calls

    def test_matches_replay(self, d2_encoding):
        cfg = self.pipeline_cfg(d2_encoding)
        gates = sample_gate_set(cfg)
        replay = []
        for k in range(cfg.max_sequence_length + 1):
            for seq in itertools.permutations(range(len(gates)), k):
                enc, clipped = cfg.base, False
                for i in seq:
                    enc, gate_clipped = apply_clifford(enc, gates[i])
                    clipped = clipped or gate_clipped
                masks = tuple((w.x_mask, w.z_mask) for w in enc.generators.values())
                replay.append((seq, masks, clipped))
        walked = list(search_clifford._gate_sequences(cfg.base, gates, cfg.max_sequence_length))
        assert len(walked) == 821
        assert any(clipped for _, _, clipped in walked)
        assert walked == replay

    def test_one_gate_application_per_sequence(self, d2_encoding, monkeypatch):
        # Replaying each sequence from the base would take 2,350 applications.
        # Only the first map of each of the 93 relabeling classes becomes
        # words and a candidate.
        cfg = self.pipeline_cfg(d2_encoding)
        calls = self.counting_gates(monkeypatch)
        built = {"PauliWord": 0, "EncodingCandidate": 0}
        for name in built:
            real = getattr(search_clifford, name)

            def counted(*args, _real=real, _name=name):
                built[_name] += 1
                return _real(*args)

            monkeypatch.setattr(search_clifford, name, counted)
        report = clifford_deform_search(cfg, lambda enc, prov: None, final_w_max=3)
        assert report.nodes == 821
        n_gens = len(d2_encoding.generators)
        assert len(calls) == 930 * n_gens
        assert built == {"PauliWord": 93 * n_gens, "EncodingCandidate": 93}

    def test_budget_cut_mid_length(self, d2_encoding):
        # Length 3 spans sequences 102..821; the pinned report, but for
        # ``emitted``, is the one the replay of every sequence gave.  Only
        # the base is emitted: the other accepted maps are its relabelings.
        cfg = self.pipeline_cfg(d2_encoding, sequence_budget=150)
        emitted = []
        report = clifford_deform_search(
            cfg, lambda enc, prov: emitted.append(prov), final_w_max=3
        )
        assert report == search_bruteforce.SearchReport(
            nodes=150, completions=102, filtered=0, invalid=48, emitted=1,
            truncated=True, best_distance=2,
        )
        assert emitted == [{"clifford_sequence": [], "clipped": False}]

    def test_lengths_beyond_the_pool_are_not_walked(self, vc_encoding, monkeypatch):
        calls = self.counting_gates(monkeypatch)
        reports = []
        for extra in (0, 2):
            cfg = CliffordConfig(
                base=vc_encoding, n_single_qubit_samples=1, n_cnot_pairs=0,
                max_sequence_length=4 + extra, rng_seed=3,
            )
            assert len(sample_gate_set(cfg)) == 4
            calls.clear()
            reports.append((clifford_deform_search(cfg, lambda enc, prov: None), len(calls)))
        assert reports[0] == reports[1]
        assert reports[0][0].nodes == 1 + 4 + 12 + 24 + 24
