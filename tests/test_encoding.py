"""Validation, stabilizer derivation and metrics."""

import itertools
import random
from fractions import Fraction

import pytest

from conftest import (
    jw_like,
    load_fixture,
    random_sound_deformation,
    vc_like,
    vc_with_composite_diagonals,
)
from fqec.encoding import (
    EncodingCandidate,
    compute_metrics,
    derive_stabilizers,
    validate,
)
from fqec.fermion import (
    FermionGeneratorId,
    GeneratorKind,
    HamiltonianSpec,
    generator_masks,
    term_masks,
    term_orbits,
)
from fqec.lattice import ALL_SHIFTS, EdgeSet, Scheme, UnitCellLayout, translate_word
from fqec.search_clifford import CliffordConfig, apply_clifford, sample_gate_set
from fqec.symplectic import PauliWord, weight
from oracles import commute_parity, naive_validate, translate_word_clipped

NN2 = UnitCellLayout(2, Scheme.TWO_GRIDS, EdgeSet.NN_SQUARE)


class TestValidate:
    def test_vc_fixture_validates_on_every_scheme(self):
        for scheme in Scheme:
            qpc = 2 if scheme is Scheme.TWO_GRIDS else 4
            layout = UnitCellLayout(qpc, scheme, EdgeSet.NN_SQUARE)
            assert validate(vc_like(layout)) == []

    def test_composite_diagonal_fixtures_validate(self):
        for edge_set in (EdgeSet.TRIANGULAR, EdgeSet.NNN_SQUARE):
            assert validate(vc_with_composite_diagonals(edge_set)) == []

    def test_replicated_snake_jw_does_not_validate(self):
        # The snake-ordered Jordan-Wigner strings are anchor dependent, so
        # replicating the centered words breaks commutation at some shifts.
        enc = jw_like(UnitCellLayout(1, Scheme.TWO_GRIDS, EdgeSet.NN_SQUARE))
        violations = validate(enc)
        assert violations
        assert all(v.kind == "commutation" for v in violations)

    def test_letter_swap_produces_violation(self, vc_encoding):
        rng = random.Random(21)
        swap = {"X": "Z", "Z": "X", "Y": "Y"}
        for _ in range(25):
            gen = rng.choice(list(vc_encoding.generators))
            word = vc_encoding.generators[gen]
            slot = rng.choice(word.support_slots())
            mutated = word.with_letter(slot, swap[word.letter(slot)])
            if mutated == word:
                mutated = word.with_letter(slot, "X" if word.letter(slot) == "Y" else "Y")
            gens = dict(vc_encoding.generators)
            gens[gen] = mutated
            assert validate(EncodingCandidate(NN2, gens))

    def test_empty_generator_map(self):
        violations = validate(EncodingCandidate(NN2, {}))
        missing = [v for v in violations if v.kind == "missing-generator"]
        assert len(missing) == 3

    def test_anchoring_violations(self, vc_encoding):
        gens = dict(vc_encoding.generators)
        # Move the vertex entirely off the central cell.
        from fqec.lattice import translate_word

        v_id = FermionGeneratorId(GeneratorKind.VERTEX, 0)
        gens[v_id] = translate_word(gens[v_id], (1, 0), NN2)
        violations = validate(EncodingCandidate(NN2, gens))
        assert any(v.kind == "anchoring" for v in violations)

    def test_random_sound_deformations_stay_valid(self, vc_encoding):
        rng = random.Random(33)
        for _ in range(20):
            enc = random_sound_deformation(vc_encoding, rng, n_gates=4)
            assert validate(enc) == []


class TestDeriveStabilizers:
    def test_vc_single_plaquette(self, vc_encoding):
        stabs = derive_stabilizers(vc_encoding)
        assert len(stabs) == 1
        assert weight(stabs[0]) == 8

    def test_counts_on_frozen_fixtures(self, d2_encoding):
        assert len(derive_stabilizers(d2_encoding)) == 1
        from conftest import load_fixture

        assert len(derive_stabilizers(load_fixture("triangular_rank2.json"))) == 2
        assert len(derive_stabilizers(load_fixture("nnn_rank4.json"))) == 4

    def test_identity_loops_dropped(self):
        # With the diagonal defined as the composite of the two square
        # edges, the first triangle loop multiplies to the identity and is
        # dropped; only the square plaquette survives.
        enc = vc_with_composite_diagonals(EdgeSet.TRIANGULAR)
        stabs = derive_stabilizers(enc)
        assert len(stabs) == 1
        assert not stabs[0].is_identity()

    def test_stabilizers_commute_pairwise_and_with_generators(self):
        from conftest import load_fixture

        enc = load_fixture("nnn_rank4.json")
        stabs = enc.stabilizer_generators
        layout = enc.layout
        for i, a in enumerate(stabs):
            for b in stabs[i:]:
                for shift in ALL_SHIFTS:
                    assert commute_parity(a, translate_word_clipped(b, shift, layout)) == 0
            for word in enc.generators.values():
                for shift in ALL_SHIFTS:
                    assert commute_parity(a, translate_word_clipped(word, shift, layout)) == 0


class TestMetrics:
    def test_vc_metrics_frozen(self, vc_encoding):
        m = compute_metrics(vc_encoding, HamiltonianSpec(), 3)
        assert m.distance.exact and m.distance.value == 2
        assert m.max_stab_weight == 8
        # Hand expansion: horizontal and vertical hops weigh 3, the on-site
        # term 4; diagonals compose to weight 6.
        assert m.sigma_nn == Fraction(16, 5)
        assert m.sigma_nnn == Fraction(40, 9)
        assert m.qubit_ratio == Fraction(2)

    def test_jw_term_weights(self, jw_encoding):
        m = compute_metrics(jw_encoding, HamiltonianSpec(), 2)
        weights = dict(m.term_weights)
        assert weights["hop:+x:m0"] == 2
        assert weights["hop:+y:m0"] == 4
        assert weights["onsite:m0"] == 2
        assert m.sigma_nn == Fraction(2 + 2 + 4 + 4 + 2, 5)
        assert m.max_stab_weight == 0  # no stabilizers
        assert m.qubit_ratio == Fraction(1)

    def test_metrics_deterministic(self, vc_encoding):
        a = compute_metrics(vc_encoding, HamiltonianSpec(), 3)
        b = compute_metrics(vc_encoding, HamiltonianSpec(), 3)
        assert a == b

    def test_metrics_key_order(self, vc_encoding):
        m = compute_metrics(vc_encoding, HamiltonianSpec(), 3)
        assert m.key() == (2, 8, Fraction(16, 5), Fraction(40, 9))

    def test_term_orbit_kinds(self, vc_encoding):
        orbits = term_orbits(vc_encoding.layout)
        assert {orbit.kind for orbit in orbits} == {"hopping", "onsite"}
        nnn = [name for orbit in orbits if orbit.nnn for name in orbit.names]
        assert sorted(nnn) == ["hop:+ul:m0", "hop:+ur:m0", "hop:-ul:m0", "hop:-ur:m0"]

    def test_canonical_key_stable(self, vc_encoding):
        assert vc_encoding.canonical_key() == vc_encoding.canonical_key()
        other = vc_like(NN2)
        assert other.canonical_key() == vc_encoding.canonical_key()

    def test_onsite_word_commutes_with_stabilizers(self):
        # Mixed scheme keeps the on-site word inside the window, so the
        # stabilizer commutation can be checked directly.
        layout = UnitCellLayout(4, Scheme.MIXED, EdgeSet.NN_SQUARE)
        enc = vc_like(layout)
        stabs = derive_stabilizers(enc)
        (orbit,) = [o for o in term_orbits(layout) if o.kind == "onsite"]
        ((x, z),) = term_masks(orbit, generator_masks(enc), layout.qubits_per_cell)
        onsite = PauliWord(x, z, layout.n_slots)
        for stab in stabs:
            for shift in ALL_SHIFTS:
                moved = translate_word_clipped(stab, shift, layout)
                assert commute_parity(onsite, moved) == 0


def _pins(modes, x, y, ur, ul, onsites):
    """Term name -> weight for ``modes`` modes whose hops weigh x, y, ur and
    ul along each axis, both signs alike; ``onsites`` lists the on-site
    weights by mode."""
    pins = {
        f"hop:{sign}{axis}:m{mode}": w
        for mode in range(modes)
        for axis, w in (("x", x), ("y", y), ("ur", ur), ("ul", ul))
        for sign in "+-"
    }
    pins.update({f"onsite:m{mode}": w for mode, w in enumerate(onsites)})
    return pins


class TestPinnedTermWeights:
    """Fresh measurements against stored metrics blocks and pinned weights."""

    @pytest.mark.parametrize("name", ["d1_nn_square", "d2_nn_square"])
    def test_fixture_metrics_block_reproduced(self, name):
        stored = load_fixture(f"{name}.json")
        fresh = EncodingCandidate(stored.layout, dict(stored.generators))
        assert stored.metrics is not None
        assert compute_metrics(fresh, HamiltonianSpec(), 3) == stored.metrics

    @pytest.mark.parametrize(
        "name, pins",
        [
            ("nnn_rank4", _pins(1, 3, 3, 12, 8, [4])),
            ("triangular_rank2", _pins(1, 3, 3, 12, 6, [4])),
        ],
    )
    def test_fixture_term_weights(self, name, pins):
        enc = load_fixture(f"{name}.json")
        assert enc.metrics is None
        assert dict(compute_metrics(enc, HamiltonianSpec(), 1).term_weights) == pins

    @pytest.mark.parametrize(
        "scheme, pins",
        [
            (Scheme.MIXED, _pins(2, 3, 3, 6, 6, [4])),
            (Scheme.DOUBLED_H, _pins(2, 3, 3, 6, 6, [4, 4])),
            (Scheme.DOUBLED_OFFSET, _pins(2, 3, 3, 6, 6, [4, 4])),
        ],
        ids=["mixed", "doubled-h", "doubled-offset"],
    )
    def test_vc_like_term_weights(self, scheme, pins):
        enc = vc_like(UnitCellLayout(4, scheme, EdgeSet.NN_SQUARE))
        assert dict(compute_metrics(enc, HamiltonianSpec(), 1).term_weights) == pins


class TestValidateMatchesOracle:
    """``validate`` against ``oracles.naive_validate``, violation lists in order."""

    @staticmethod
    def assert_same(enc):
        got = validate(enc)
        assert got == naive_validate(enc)
        return got

    def test_fixtures(self):
        for name in ("d1_nn_square.json", "d2_nn_square.json", "nnn_rank4.json",
                     "triangular_rank2.json"):
            assert self.assert_same(load_fixture(name)) == []

    def test_replicated_snake_jw(self):
        enc = jw_like(UnitCellLayout(1, Scheme.TWO_GRIDS, EdgeSet.NN_SQUARE))
        assert len(self.assert_same(enc)) == 8

    def test_missing_generator_and_anchoring(self, vc_encoding):
        gens = dict(vc_encoding.generators)
        del gens[FermionGeneratorId(GeneratorKind.VERTEX, 0)]
        missing = self.assert_same(EncodingCandidate(NN2, gens))
        assert missing[0].kind == "missing-generator"

        gens = dict(vc_encoding.generators)
        gen = FermionGeneratorId(GeneratorKind.EDGE_RIGHT, 0)
        gens[gen] = translate_word(gens[gen], (-1, 0), NN2)
        violations = self.assert_same(EncodingCandidate(NN2, gens))
        assert any(v.kind == "anchoring" for v in violations)
        assert any(v.kind == "commutation" for v in violations)

    @staticmethod
    def deform_maps(base, **fields):
        """Every distinct map of a deform run, replayed gate by gate from the
        base with ``apply_clifford``."""
        cfg = CliffordConfig(base=base, **fields)
        gates = sample_gate_set(cfg)
        maps = {}
        for k in range(cfg.max_sequence_length + 1):
            for seq in itertools.permutations(gates, k):
                enc = cfg.base
                for gate in seq:
                    enc, _ = apply_clifford(enc, gate)
                maps.setdefault(enc.canonical_key(), enc)
        return list(maps.values())

    def invalid_and_distinct(self, maps):
        return sum(1 for enc in maps if self.assert_same(enc)), len(maps)

    def test_every_map_of_a_deform_run(self, d2_encoding):
        # The deform config of test_one_pipeline_pass_per_distinct_map: its
        # 821 sequences reach 332 distinct maps, 196 of them invalid.
        maps = self.deform_maps(
            d2_encoding, n_single_qubit_samples=3, n_cnot_pairs=1,
            max_sequence_length=3, rng_seed=5,
        )
        assert self.invalid_and_distinct(maps) == (196, 332)

    @pytest.mark.parametrize(
        "name, counts", [("nnn_rank4.json", (123, 154)), ("triangular_rank2.json", (85, 116))]
    )
    def test_every_map_of_a_deform_run_with_diagonal_edges(self, name, counts):
        maps = self.deform_maps(
            load_fixture(name), n_single_qubit_samples=2, n_cnot_pairs=2,
            max_sequence_length=2, rng_seed=3,
        )
        assert self.invalid_and_distinct(maps) == counts

    @pytest.mark.parametrize(
        "scheme, counts",
        [
            (Scheme.TWO_GRIDS, (3, 9)),
            (Scheme.MIXED, (3, 20)),
            (Scheme.DOUBLED_H, (3, 20)),
            (Scheme.DOUBLED_OFFSET, (6, 22)),
        ],
    )
    def test_every_map_of_a_vc_like_deform_run(self, scheme, counts):
        # Two qubits per cell on two-grids, four on the two-mode schemes.
        layout = UnitCellLayout(2 if scheme is Scheme.TWO_GRIDS else 4, scheme, EdgeSet.NN_SQUARE)
        maps = self.deform_maps(
            vc_like(layout), n_single_qubit_samples=1, n_cnot_pairs=2,
            max_sequence_length=1, rng_seed=4,
        )
        assert self.invalid_and_distinct(maps) == counts
