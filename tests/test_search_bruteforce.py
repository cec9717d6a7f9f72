"""Brute-force search: pruning rules, Pareto front, determinism."""

import bisect
import dataclasses
import itertools
import random

import pytest

from fqec import lattice
from fqec.encoding import EncodingCandidate, _cell_mask, validate
from fqec.fermion import GeneratorKind, far_cell_offset, generator_ids, required_parity_table
from fqec.lattice import (
    ALL_SHIFTS, CENTER, EdgeSet, Scheme, UnitCellLayout, cell_index, cell_of, slot_of,
)
from fqec.search_bruteforce import (
    HoppingCapMode,
    ParetoFront,
    SearchConfig,
    _SearchContext,
    _Universe,
    brute_force_search,
    derive_subtree_seed,
    dominates,
    stochastic_gate,
)
from fqec.symplectic import PauliWord
from oracles import (
    naive_min_distance,
    naive_self_commutation_ok,
    search_candidates,
    self_parities,
)

QPC1 = UnitCellLayout(1, Scheme.TWO_GRIDS, EdgeSet.NN_SQUARE)
QPC2 = UnitCellLayout(2, Scheme.TWO_GRIDS, EdgeSet.NN_SQUARE)
MIXED2 = UnitCellLayout(2, Scheme.MIXED, EdgeSet.NN_SQUARE)


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


class TestCandidateEngine:
    """The forward-checked survivors equal a one-word-at-a-time oracle's."""

    @pytest.mark.parametrize(
        "layout, vertex_cap, edge_cap",
        [(QPC2, 2, 4), (QPC1, 2, 2), (MIXED2, 2, 3)],
        ids=["qpc2", "qpc1", "mixed"],
    )
    def test_survivors_match_oracle_on_budget_60_prefixes(self, layout, vertex_cap, edge_cap):
        cfg = SearchConfig(
            layout=layout, max_vertex_weight=vertex_cap, max_edge_or_hopping_weight=edge_cap,
            rng_seed=7, node_budget=60,
        )
        _, report = run_search(cfg)
        # Walk the same tree as the budgeted run, checking every level entered.
        ctx = _SearchContext(cfg)
        n_levels = len(ctx.gen_order)
        walked = {"nodes": 0, "completions": 0, "levels": 0}

        def walk(gi):
            survivors = list(ctx.survivors(gi))
            prefix = [PauliWord(x, z, layout.n_slots) for x, z in ctx.assigned]
            expected = [
                (w.x_mask, w.z_mask)
                for w in search_candidates(layout, vertex_cap, edge_cap, prefix)
                if naive_self_commutation_ok(layout, ctx.gen_order[gi], w)
            ]
            assert survivors == expected, (gi, prefix)
            walked["levels"] += 1
            for x, z in survivors:
                if walked["nodes"] >= cfg.node_budget:
                    return False
                if not ctx.hop_caps_ok(gi, x, z):
                    continue
                walked["nodes"] += 1
                ctx.assign(x, z)
                if gi + 1 == n_levels:
                    walked["completions"] += 1
                elif not walk(gi + 1):
                    return False
                ctx.unassign()
            return True

        truncated = not walk(0)
        assert (walked["nodes"], walked["completions"], truncated) == (
            report.nodes, report.completions, report.truncated,
        )
        assert walked["levels"] > 1


ALL_LAYOUTS = [
    UnitCellLayout(qpc, scheme, edge_set)
    for scheme in Scheme
    for edge_set in EdgeSet
    for qpc in (1, 2, 3)
]


def _layout_id(layout):
    return f"{layout.scheme.value}-{layout.edge_set.value}-q{layout.qubits_per_cell}"


def _anchor_cells(layout, gen):
    """Cells a generator's support must touch: the centre, and an edge's far cell."""
    cells = {CENTER}
    if gen.kind is not GeneratorKind.VERTEX:
        dx, dy = far_cell_offset(layout, gen)
        cells.add((CENTER[0] + dx, CENTER[1] + dy))
    return frozenset(cells)


def _static_supports(layout, cells, cap):
    """Supports of weight 1..cap touching every cell of ``cells``, in
    ``itertools.combinations`` order by weight."""
    return [
        support
        for w in range(1, cap + 1)
        for support in itertools.combinations(range(layout.n_slots), w)
        if cells <= {cell_of(slot, layout)[0] for slot in support}
    ]


def _word(layout, support, letters):
    word = PauliWord.identity(layout.n_slots)
    for slot, letter in zip(support, letters):
        word = word.with_letter(slot, letter)
    return word


def _static_words(layout, cells, cap):
    """Every word passing the static checks, in enumeration order."""
    return [
        _word(layout, support, letters)
        for support in _static_supports(layout, cells, cap)
        for letters in itertools.product("XYZ", repeat=len(support))
    ]


def _lookup(universe):
    """Universe index of each word, keyed by its (x, z) masks."""
    return {universe.word(index): index for index in range(universe.full.bit_length())}


class TestSelfCommutationKernel:
    """Each level's universe holds exactly the static-check words that a
    translate-by-translate oracle finds self-commuting."""

    @pytest.mark.parametrize("layout", ALL_LAYOUTS, ids=_layout_id)
    def test_every_cap2_word_matches_oracle(self, layout):
        ctx = _SearchContext(SearchConfig(layout, 2, 2))
        for gi, (gen, universe) in enumerate(zip(ctx.gen_order, ctx.universes)):
            expected = [
                (word.x_mask, word.z_mask)
                for word in _static_words(layout, _anchor_cells(layout, gen), 2)
                if naive_self_commutation_ok(layout, gen, word)
            ]
            got = [universe.word(index) for index in range(universe.full.bit_length())]
            assert got == expected, gen.name
            assert ctx.domains[gi] == universe.full

    @pytest.mark.parametrize("qpc", [1, 2, 3])
    def test_sampled_cap4_words_match_oracle(self, qpc):
        # The universe depends on the layout only through qubits per cell
        # and each level's required row, which the cap-2 test covers for
        # every level.  So each cap-4 word set (fixed by the cells a
        # generator must touch) is sampled once, and its words are spread
        # over the levels of every layout that shares it.
        users: dict[tuple, list] = {}
        for layout in ALL_LAYOUTS:
            if layout.qubits_per_cell != qpc:
                continue
            ctx = _SearchContext(SearchConfig(layout, 2, 2))
            for gi, gen in enumerate(ctx.gen_order):
                cells = tuple(sorted(_anchor_cells(layout, gen)))
                users.setdefault(cells, []).append((ctx, gi))
        for cells, levels in sorted(users.items()):
            layout = levels[0][0].layout
            supports = _static_supports(layout, frozenset(cells), 4)
            offsets = list(itertools.accumulate((3 ** len(s) for s in supports), initial=0))
            masks = tuple(_cell_mask(layout, c) for c in cells)
            lookups: dict[int, dict] = {}  # one universe per required row
            rng = random.Random(f"{qpc}:{cells}")
            indices = rng.sample(range(offsets[-1]), min(offsets[-1], 3000))
            for k, index in enumerate(indices):
                ctx, gi = levels[k % len(levels)]
                required = ctx.required[gi][gi]
                if required not in lookups:
                    lookups[required] = _lookup(_Universe(layout, masks, 4, required))
                block = bisect.bisect_right(offsets, index) - 1
                r, support = index - offsets[block], supports[block]
                letters = [
                    "XYZ"[r // 3 ** (len(support) - 1 - pos) % 3] for pos in range(len(support))
                ]
                word = _word(layout, support, letters)
                assert ((word.x_mask, word.z_mask) in lookups[required]) == (
                    naive_self_commutation_ok(ctx.layout, ctx.gen_order[gi], word)
                ), (_layout_id(ctx.layout), ctx.gen_order[gi].name, word)

    @pytest.mark.parametrize(
        "letters, ok", [("XZ", False), ("XY", False), ("ZY", False), ("XX", True), ("YY", True)]
    )
    @pytest.mark.parametrize(
        "cells", [(CENTER, (2, 1)), ((0, 1), (2, 1))], ids=["adjacent", "distance-2"]
    )
    def test_hand_cases_on_one_local(self, letters, ok, cells):
        # Two letters on local 0, one or two cells apart, and a Z on local 1
        # of the centre cell that anchors the word and meets no translate.
        ctx = _SearchContext(SearchConfig(QPC2, 3, 2))
        vertex = [g.name for g in ctx.gen_order].index("vertex:0")
        word = (
            PauliWord.identity(QPC2.n_slots)
            .with_letter(slot_of(cells[0], 0, QPC2), letters[0])
            .with_letter(slot_of(cells[1], 0, QPC2), letters[1])
            .with_letter(slot_of(CENTER, 1, QPC2), "Z")
        )
        index = _lookup(ctx.universes[vertex]).get((word.x_mask, word.z_mask))
        assert (index is not None) is ok
        assert index is None or ctx.domains[vertex] >> index & 1
        assert naive_self_commutation_ok(QPC2, ctx.gen_order[vertex], word) is ok

    def test_pair_parities_flip_both_signs_of_the_shift(self):
        # X and Z on local 0 one cell apart anticommute at exactly (1, 0) and
        # (-1, 0): the edge-right generator's required self parities.
        ctx = _SearchContext(SearchConfig(QPC2, 2, 2))
        word = (
            PauliWord.identity(QPC2.n_slots)
            .with_letter(slot_of(CENTER, 0, QPC2), "X")
            .with_letter(slot_of((2, 1), 0, QPC2), "Z")
        )
        bits = self_parities(word.x_mask, word.z_mask, 2)
        assert [ALL_SHIFTS[s] for s in range(len(ALL_SHIFTS)) if bits >> s & 1] == [
            (-1, 0), (1, 0),
        ]
        right = [g.name for g in ctx.gen_order].index("edge-right:0")
        assert (word.x_mask, word.z_mask) in _lookup(ctx.universes[right])


def _reference_budget_checks(cfg):
    """Walk the whole tree on the oracle's candidate lists
    (``search_candidates``), with self-commutation checked word by word after
    the budget check at level 0, and list (nodes, completions) at every
    budget check; also return the final (nodes, completions).

    A run at budget b stops at the first check that finds b nodes: the walk
    up to that check does not depend on the budget."""
    layout, caps = cfg.layout, (cfg.max_vertex_weight, cfg.max_edge_or_hopping_weight)
    ctx = _SearchContext(cfg)  # for its hop caps on the assigned prefix
    required = required_parity_table(layout)
    qpc, n_levels = layout.qubits_per_cell, len(ctx.gen_order)
    checks, count = [], {"nodes": 0, "completions": 0}

    def walk(gi, rng):
        prefix = [PauliWord(x, z, layout.n_slots) for x, z in ctx.assigned]
        for index, word in enumerate(search_candidates(layout, *caps, prefix)):
            x, z = word.x_mask, word.z_mask
            if gi == 0:
                checks.append((count["nodes"], count["completions"]))
                rng = random.Random(derive_subtree_seed(cfg.rng_seed, index))
            if self_parities(x, z, qpc) != required[gi][gi]:
                continue
            if not ctx.hop_caps_ok(gi, x, z):
                continue
            if not stochastic_gate(cfg.acceptance_probability, rng):
                continue
            checks.append((count["nodes"], count["completions"]))
            count["nodes"] += 1
            ctx.assigned.append((x, z))
            if gi + 1 == n_levels:
                count["completions"] += 1
            else:
                walk(gi + 1, rng)
            ctx.assigned.pop()

    walk(0, None)
    return checks, (count["nodes"], count["completions"])


class TestBudgetSweep:
    """Budgeted runs cut where a walk that checks self-commutation word by
    word, and the budget before every level-0 word, cuts."""

    @pytest.mark.parametrize(
        "layout, caps, budgets",
        [(QPC1, (3, 4), range(1, 80)), (QPC2, (3, 2), range(1, 401, 3))],
        ids=["qpc1", "qpc2"],
    )
    def test_counters_match_reference_walk(self, layout, caps, budgets):
        cfg = SearchConfig(layout, *caps, acceptance_probability=0.8, rng_seed=3)
        checks, (nodes, completions) = _reference_budget_checks(cfg)
        assert 1 < nodes < budgets[-1]  # budgets on both sides of the whole tree
        for budget in budgets:
            _, report = run_search(dataclasses.replace(cfg, node_budget=budget))
            cut = next(((n, c, True) for n, c in checks if n >= budget), None)
            assert (report.nodes, report.completions, report.truncated) == (
                cut or (nodes, completions, False)
            ), budget

    @pytest.mark.parametrize("layout", ALL_LAYOUTS, ids=_layout_id)
    def test_last_level0_word_survives(self, layout):
        # The search checks the budget before each level-0 survivor only.  A
        # word that fails self-commutation would see the same node count as
        # the next survivor, and one always follows it: the last level-0
        # word is all Z, which commutes with its translates as a vertex must.
        last = search_candidates(layout, 2, 2, [])[-1]
        x, z = last.x_mask, last.z_mask
        assert x == 0 and self_parities(x, z, layout.qubits_per_cell) == (
            required_parity_table(layout)[0][0]
        )
        assert list(_SearchContext(SearchConfig(layout, 2, 2)).survivors(0))[-1] == (x, z)

    @pytest.mark.parametrize("layout", ALL_LAYOUTS, ids=_layout_id)
    def test_root_index_is_position_among_oracle_candidates(self, layout):
        # Each level-0 survivor's RNG stream index counts every level-0 word
        # before it, self-commuting or not.
        ctx = _SearchContext(SearchConfig(layout, 2, 2))
        position = {
            (word.x_mask, word.z_mask): i
            for i, word in enumerate(search_candidates(layout, 2, 2, []))
        }
        assert ctx.root_index == [position[word] for word in ctx.survivors(0)]


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

    @pytest.mark.parametrize(
        "edge_set, counts",
        [(EdgeSet.NN_SQUARE, (331, 13, 0, 0, 9)), (EdgeSet.TRIANGULAR, (408, 17, 0, 0, 13))],
        ids=["nn-square", "triangular"],
    )
    def test_golden_counters_nnn_caps_prune_in_the_tree(self, edge_set, counts):
        # Every capped hop, L-path diagonals included, is checked at the level
        # that completes it, so no completion fails the caps at the end.
        cfg = SearchConfig(
            layout=UnitCellLayout(2, Scheme.TWO_GRIDS, edge_set), max_vertex_weight=2,
            max_edge_or_hopping_weight=4, hopping_cap_mode=HoppingCapMode.NN_AND_NNN,
            min_distance_filter=1, rng_seed=3,
        )
        found, report = run_search(cfg, final_w_max=2)
        assert (
            report.nodes, report.completions, report.filtered, report.invalid, report.emitted
        ) == counts
        for enc in found:
            nnn = [
                w for name, w in enc.metrics.term_weights
                if name.split(":")[1] in ("+ur", "-ur", "+ul", "-ul")
            ]
            assert len(nnn) == 4 and max(nnn) <= 4

    @pytest.mark.parametrize(
        "scheme, nodes",
        [
            (Scheme.MIXED, {"nn": 55, "nn+nnn": 55}),
            (Scheme.DOUBLED_H, {"nn": 1287, "nn+nnn": 1280}),
            (Scheme.DOUBLED_OFFSET, {"nn": 1456, "nn+nnn": 1440}),
        ],
        ids=["mixed", "doubled-h", "doubled-offset"],
    )
    def test_golden_nodes_two_mode_schemes(self, scheme, nodes):
        # Hops whose endpoints lie on different in-cell modes.
        for mode in HoppingCapMode:
            cfg = SearchConfig(
                layout=UnitCellLayout(2, scheme, EdgeSet.NN_SQUARE), max_vertex_weight=2,
                max_edge_or_hopping_weight=3, hopping_cap_mode=mode, min_distance_filter=1,
                rng_seed=3,
            )
            _, report = run_search(cfg)
            assert report.nodes == nodes[mode.value]

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
