"""Brute-force search: pruning rules, Pareto front, determinism."""

import itertools
import random

import pytest

from fqec.distance import naive_min_distance
from fqec.encoding import EncodingCandidate, validate
from fqec.fermion import generator_ids
from fqec.lattice import EdgeSet, Scheme, UnitCellLayout, cell_index
from fqec.search_bruteforce import (
    ParetoFront,
    SearchConfig,
    brute_force_search,
    derive_subtree_seed,
    dominates,
    stochastic_gate,
)
from fqec.symplectic import PauliWord

QPC1 = UnitCellLayout(1, Scheme.TWO_GRIDS, EdgeSet.NN_SQUARE)
QPC2 = UnitCellLayout(2, Scheme.TWO_GRIDS, EdgeSet.NN_SQUARE)


def run_search(cfg, **kwargs):
    found = []
    report = brute_force_search(cfg, found.append, **kwargs)
    return found, report


class TestStochasticGate:
    def test_probability_one_always_accepts(self):
        rng = random.Random(0)
        assert all(stochastic_gate(1.0, rng) for _ in range(200))

    def test_seeded_determinism(self):
        rng1, rng2 = random.Random(12), random.Random(12)
        assert [stochastic_gate(0.4, rng1) for _ in range(100)] == [
            stochastic_gate(0.4, rng2) for _ in range(100)
        ]

    def test_binomial_fraction(self):
        rng = random.Random(2024)
        n = 10_000
        p = 0.05
        hits = sum(stochastic_gate(p, rng) for _ in range(n))
        sigma = (p * (1 - p) / n) ** 0.5
        assert abs(hits / n - p) < 3 * sigma

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            stochastic_gate(0.0, random.Random(0))
        with pytest.raises(ValueError):
            stochastic_gate(1.5, random.Random(0))


class TestParetoFront:
    def test_empty_front_accepts(self):
        front = ParetoFront()
        assert front.update((1, 5, 3, 3), "a")
        assert len(front) == 1

    def test_exact_tie_kept(self):
        front = ParetoFront()
        front.update((2, 4, 3, 3), "a")
        assert front.update((2, 4, 3, 3), "b")
        assert len(front) == 2

    def test_strictly_worse_rejected(self):
        front = ParetoFront()
        front.update((2, 4, 3, 3), "a")
        assert not front.update((1, 5, 4, 4), "b")

    def test_dominated_evicted(self):
        front = ParetoFront()
        front.update((1, 5, 4, 4), "weak")
        assert front.update((2, 4, 3, 3), "strong")
        assert [e.encoding for e in front.entries] == ["strong"]

    def test_incomparable_coexist(self):
        front = ParetoFront()
        front.update((2, 4, 3, 3), "a")
        assert front.update((3, 6, 3, 3), "b")  # better distance, worse weight
        assert len(front) == 2

    def test_against_brute_oracle(self):
        rng = random.Random(77)
        keys = [
            (rng.randint(1, 4), rng.randint(2, 9), rng.randint(2, 14), rng.randint(2, 14))
            for _ in range(400)
        ]
        front = ParetoFront()
        for i, key in enumerate(keys):
            front.update(key, i)
        got = sorted((e.key, e.encoding) for e in front.entries)
        expected = sorted(
            (key, i)
            for i, key in enumerate(keys)
            if not any(dominates(other, key) for other in keys)
        )
        assert got == expected

    def test_snapshot_order_insertion_independent(self):
        keys = [(2, 4, 3, 3), (3, 6, 3, 3), (2, 4, 2, 5)]
        a, b = ParetoFront(), ParetoFront()
        for i, k in enumerate(keys):
            a.update(k, f"enc{i}")
        for i, k in reversed(list(enumerate(keys))):
            b.update(k, f"enc{i}")
        assert [e.key for e in a.snapshot()] == [e.key for e in b.snapshot()]


class TestSearchTinyExhaustive:
    def test_qpc1_matches_unconstrained_oracle(self):
        # Oracle: enumerate every (V, R, U) triple with the same weight caps
        # and anchoring, filter by validation only.  At one qubit per cell
        # nothing validates, and the search must agree.
        cfg = SearchConfig(
            layout=QPC1, max_vertex_weight=2, max_edge_or_hopping_weight=2,
            min_distance_filter=1,
        )
        found, report = run_search(cfg)
        center = cell_index((1, 1))

        def words(required_cells, max_w):
            out = []
            for w in range(1, max_w + 1):
                for support in itertools.combinations(range(9), w):
                    if any(c not in support for c in required_cells):
                        continue
                    for letters in itertools.product("XYZ", repeat=w):
                        word = PauliWord.identity(9)
                        for s, letter in zip(support, letters):
                            word = word.with_letter(s, letter)
                        out.append(word)
            return out

        ids = generator_ids(QPC1)
        pools = [
            words([center], 2),
            words([center, cell_index((2, 1))], 2),
            words([center, cell_index((1, 2))], 2),
        ]
        oracle_valid = [
            combo
            for combo in itertools.product(*pools)
            if not validate(EncodingCandidate(QPC1, dict(zip(ids, combo))))
        ]
        assert oracle_valid == []
        assert not found and report.completions == 0

    def test_search_reaches_known_encoding(self, vc_encoding):
        # The auxiliary-qubit encoding is written in canonical letters, so a
        # search with covering caps must visit it among its completions.
        cfg = SearchConfig(
            layout=QPC2, max_vertex_weight=2, max_edge_or_hopping_weight=4,
            min_distance_filter=2,
        )
        completions = []
        report = brute_force_search(
            cfg, lambda enc: None, completion_sink=completions.append
        )
        keys = {enc.canonical_key() for enc in completions}
        assert report.completions > 0
        assert vc_encoding.canonical_key() in keys


class TestSearchSoundness:
    def test_emitted_encodings_revalidate_and_pass_filters(self):
        cfg = SearchConfig(
            layout=QPC2, max_vertex_weight=4, max_edge_or_hopping_weight=4,
            min_distance_filter=2, rng_seed=5, node_budget=1200,
        )
        found, report = run_search(cfg, final_w_max=3)
        assert found
        for enc in found:
            assert validate(enc) == []
            recomputed = naive_min_distance(enc, 2)
            assert recomputed.value >= 2
            weights = dict(enc.metrics.term_weights)
            assert all(
                w <= 4 for name, w in weights.items()
                if name.startswith("hop:") and name.split(":")[1] in ("+x", "-x", "+y", "-y")
            )

    def test_stochastic_run_explores_fewer_nodes_but_stays_sound(self):
        cfg_full = SearchConfig(
            layout=QPC2, max_vertex_weight=2, max_edge_or_hopping_weight=4,
            min_distance_filter=2, rng_seed=9,
        )
        _, report_full = run_search(cfg_full)
        cfg_gated = SearchConfig(
            layout=QPC2, max_vertex_weight=2, max_edge_or_hopping_weight=4,
            min_distance_filter=2, rng_seed=9, acceptance_probability=0.25,
        )
        gated, report_gated = run_search(cfg_gated)
        assert report_gated.nodes <= report_full.nodes
        for enc in gated:
            assert validate(enc) == []

    def test_node_budget_truncates(self):
        cfg = SearchConfig(
            layout=QPC2, max_vertex_weight=3, max_edge_or_hopping_weight=3,
            min_distance_filter=1, node_budget=1,
        )
        _, report = run_search(cfg)
        assert report.truncated


class TestSearchDeterminism:
    def test_identical_runs(self):
        cfg = SearchConfig(
            layout=QPC2, max_vertex_weight=2, max_edge_or_hopping_weight=4,
            min_distance_filter=2, rng_seed=4, acceptance_probability=0.7,
        )
        found_a, report_a = run_search(cfg, final_w_max=3)
        found_b, report_b = run_search(cfg, final_w_max=3)
        assert report_a == report_b
        assert [e.canonical_key() for e in found_a] == [e.canonical_key() for e in found_b]

    # Golden counters: a change to the enumeration order, the gates or the
    # per-root RNG streams shows up here.

    def test_golden_counters_unbudgeted(self):
        cfg = SearchConfig(
            layout=QPC2, max_vertex_weight=2, max_edge_or_hopping_weight=4,
            min_distance_filter=2, rng_seed=7,
        )
        _, report = run_search(cfg, final_w_max=3)
        assert report.to_json() == {
            "nodes": 512, "completions": 194, "filtered": 138, "invalid": 0,
            "emitted": 5, "truncated": False, "best_distance": 2,
        }

    def test_golden_counters_stochastic(self):
        cfg = SearchConfig(
            layout=QPC2, max_vertex_weight=2, max_edge_or_hopping_weight=4,
            min_distance_filter=2, rng_seed=4, acceptance_probability=0.6,
        )
        _, report = run_search(cfg)
        assert (report.nodes, report.completions, report.filtered, report.emitted) == (
            205, 67, 44, 4,
        )

    def test_golden_counters_stochastic_with_budget(self):
        cfg = SearchConfig(
            layout=QPC2, max_vertex_weight=2, max_edge_or_hopping_weight=4,
            min_distance_filter=1, rng_seed=11, acceptance_probability=0.5,
            node_budget=300,
        )
        _, report = run_search(cfg, final_w_max=3)
        assert (report.nodes, report.completions, report.emitted) == (83, 17, 8)
        assert not report.truncated

    def test_golden_counters_budget_cut(self):
        cfg = SearchConfig(
            layout=QPC2, max_vertex_weight=2, max_edge_or_hopping_weight=4,
            min_distance_filter=1, rng_seed=7, node_budget=60,
        )
        _, report = run_search(cfg)
        assert (report.nodes, report.completions, report.emitted) == (60, 35, 9)
        assert report.truncated

    def test_threads_other_than_one_rejected(self):
        cfg = SearchConfig(layout=QPC1, max_vertex_weight=1, max_edge_or_hopping_weight=2)
        with pytest.raises(ValueError):
            brute_force_search(cfg, lambda enc: None, threads=2)

    def test_subtree_seed_mixing(self):
        seeds = {derive_subtree_seed(7, i) for i in range(1000)}
        assert len(seeds) == 1000


class TestConfigValidation:
    def test_probability_range(self):
        with pytest.raises(ValueError):
            SearchConfig(
                layout=QPC1, max_vertex_weight=2, max_edge_or_hopping_weight=2,
                acceptance_probability=1.5,
            )

    def test_cap_range(self):
        with pytest.raises(ValueError):
            SearchConfig(layout=QPC1, max_vertex_weight=0, max_edge_or_hopping_weight=2)

    def test_min_distance_range(self):
        with pytest.raises(ValueError):
            SearchConfig(
                layout=QPC1, max_vertex_weight=2, max_edge_or_hopping_weight=2,
                min_distance_filter=0,
            )
