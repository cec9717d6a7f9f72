"""Majorana algebra, generator geometry and Hubbard-term images."""

import random

import pytest

from conftest import jw_like
from fqec.encoding import derive_stabilizers
from fqec.fermion import (
    EDGE_DIRECTIONS,
    FermionGeneratorId,
    GeneratorKind,
    HamiltonianSpec,
    MajoranaWord,
    PathError,
    Vertex,
    _majorana_factors,
    composite_edge,
    edge_endpoints,
    edge_vertex_required_parity,
    enumerate_hamiltonian_terms,
    generator_id_from_name,
    generator_ids,
    hopping_pair,
    hopping_weight,
    loop_stabilizer,
    majorana_commute_parity,
    onsite_pauli_term,
    onsite_weight,
    site_of,
    step,
    vertex_at,
)
from fqec.lattice import (
    ALL_SHIFTS,
    CENTER,
    EdgeSet,
    Scheme,
    UnitCellLayout,
    translate_word_clipped,
)
from fqec.symplectic import commute_parity, multiply, weight

NN2 = UnitCellLayout(2, Scheme.TWO_GRIDS, EdgeSet.NN_SQUARE)


class TestMajoranaWords:
    def test_distinct_singles_anticommute(self):
        a = MajoranaWord(0b01, 2)  # gamma_1
        b = MajoranaWord(0b10, 2)  # gamma_2
        assert majorana_commute_parity(a, b) == 1

    def test_self_commutes(self):
        a = MajoranaWord(0b01, 2)
        assert majorana_commute_parity(a, a) == 0

    def test_edge_word_commutes_with_distant_vertex(self):
        # gamma_1 gamma_2 against gamma_3 gammabar_3 on three modes
        edge = MajoranaWord(0b011, 3)
        vertex = MajoranaWord(0b100 | (0b100 << 3), 3)
        assert majorana_commute_parity(edge, vertex) == 0

    def test_mode_count_mismatch(self):
        with pytest.raises(ValueError):
            majorana_commute_parity(MajoranaWord(1, 2), MajoranaWord(1, 3))

    def test_symmetry_and_bilinearity(self):
        # The cancelled factors of a product come in pairs, so the popcount
        # term stays additive mod 2 and the form is XOR-bilinear.
        rng = random.Random(31)
        m = 5
        words = [MajoranaWord(rng.getrandbits(2 * m), m) for _ in range(30)]
        for a, b, c in zip(words, words[1:], words[2:]):
            assert majorana_commute_parity(a, b) == majorana_commute_parity(b, a)
            product = MajoranaWord(a.bits ^ b.bits, m)
            assert majorana_commute_parity(product, c) == (
                majorana_commute_parity(a, c) ^ majorana_commute_parity(b, c)
            )

    def test_storage_bounds(self):
        with pytest.raises(ValueError):
            MajoranaWord(1 << 4, 2)


class TestRequiredParity:
    def test_vertex_vs_incident_edge(self):
        v = FermionGeneratorId(GeneratorKind.VERTEX, 0)
        r = FermionGeneratorId(GeneratorKind.EDGE_RIGHT, 0)
        assert edge_vertex_required_parity(NN2, v, (0, 0), r, (0, 0)) == 1

    def test_vertex_vs_distant_vertex(self):
        v = FermionGeneratorId(GeneratorKind.VERTEX, 0)
        assert edge_vertex_required_parity(NN2, v, (0, 0), v, (1, 0)) == 0

    def test_edges_sharing_a_vertex(self):
        r = FermionGeneratorId(GeneratorKind.EDGE_RIGHT, 0)
        u = FermionGeneratorId(GeneratorKind.EDGE_UP, 0)
        # EdgeRight at (0,0) ends on (1,0); EdgeUp at (1,0) starts there.
        assert edge_vertex_required_parity(NN2, r, (0, 0), u, (1, 0)) == 1

    def test_matches_shared_endpoint_rule(self):
        # Independent oracle: parity of the number of shared Majorana factors.
        rng = random.Random(13)
        layouts = [
            NN2,
            UnitCellLayout(2, Scheme.MIXED, EdgeSet.NNN_SQUARE),
            UnitCellLayout(2, Scheme.DOUBLED_H, EdgeSet.TRIANGULAR),
            UnitCellLayout(2, Scheme.DOUBLED_OFFSET, EdgeSet.NN_SQUARE),
        ]
        for layout in layouts:
            ids = generator_ids(layout)
            for _ in range(120):
                a = rng.choice(ids)
                b = rng.choice(ids)
                shift = rng.choice(ALL_SHIFTS)
                fac_a = set(_majorana_factors(layout, a, (0, 0)))
                fac_b = set(_majorana_factors(layout, b, shift))
                expected = len(fac_a & fac_b) % 2
                got = edge_vertex_required_parity(layout, a, (0, 0), b, shift)
                assert got == expected


class TestSiteMaps:
    def test_two_grids_identity(self):
        assert site_of(NN2, Vertex((2, 1), 0)) == (2, 1)
        assert step(NN2, Vertex((1, 1), 0), (1, 0)) == Vertex((2, 1), 0)

    def test_doubled_h_horizontal_alternates_modes(self):
        layout = UnitCellLayout(2, Scheme.DOUBLED_H, EdgeSet.NN_SQUARE)
        v = Vertex((1, 1), 0)
        w = step(layout, v, (1, 0))
        assert w == Vertex((1, 1), 1)  # intra-cell
        assert step(layout, w, (1, 0)) == Vertex((2, 1), 0)
        assert step(layout, v, (0, 1)) == Vertex((1, 2), 0)  # vertical same-mode

    def test_doubled_offset_both_directions_alternate(self):
        layout = UnitCellLayout(2, Scheme.DOUBLED_OFFSET, EdgeSet.NN_SQUARE)
        v = Vertex((1, 1), 0)
        right = step(layout, v, (1, 0))
        up = step(layout, v, (0, 1))
        assert right.mode == 1 and up.mode == 1  # brick wall: both hops alternate
        assert step(layout, right, (1, 0)).mode == 0
        assert step(layout, up, (0, 1)).mode == 0

    def test_round_trip_site_vertex(self):
        rng = random.Random(1)
        for scheme in Scheme:
            layout = UnitCellLayout(2, scheme, EdgeSet.NN_SQUARE)
            for _ in range(60):
                v = Vertex(
                    (rng.randint(-3, 3), rng.randint(-3, 3)),
                    rng.randrange(layout.modes_per_cell),
                )
                assert vertex_at(layout, site_of(layout, v), v.mode) == v

    def test_step_inverse(self):
        rng = random.Random(8)
        for scheme in Scheme:
            layout = UnitCellLayout(2, scheme, EdgeSet.NNN_SQUARE)
            for _ in range(60):
                v = Vertex(
                    (rng.randint(-2, 2), rng.randint(-2, 2)),
                    rng.randrange(layout.modes_per_cell),
                )
                d = rng.choice(list(EDGE_DIRECTIONS.values()))
                w = step(layout, v, d)
                assert step(layout, w, (-d[0], -d[1])) == v


class TestGeneratorIds:
    def test_order_and_counts(self):
        ids = generator_ids(NN2)
        assert [g.name for g in ids] == ["vertex:0", "edge-right:0", "edge-up:0"]
        mixed = UnitCellLayout(2, Scheme.MIXED, EdgeSet.NNN_SQUARE)
        assert len(generator_ids(mixed)) == 10  # 2 modes x (vertex + 4 edges)

    def test_name_round_trip(self):
        for layout in (NN2, UnitCellLayout(2, Scheme.MIXED, EdgeSet.TRIANGULAR)):
            for gen in generator_ids(layout):
                assert generator_id_from_name(gen.name) == gen
        with pytest.raises(ValueError):
            generator_id_from_name("edge-left:0")


class TestEdgeAndLoopProducts:
    def test_single_edge_path_is_that_edge(self, vc_encoding):
        r = FermionGeneratorId(GeneratorKind.EDGE_RIGHT, 0)
        src, tgt = edge_endpoints(NN2, r, CENTER)
        assert composite_edge([src, tgt], vc_encoding) == vc_encoding.generators[r]

    def test_composite_commutes_with_interior_vertex(self, vc_encoding):
        v0 = Vertex(CENTER, 0)
        mid = step(NN2, v0, (1, 0))
        end = step(NN2, mid, (0, 1))
        word = composite_edge([v0, mid, end], vc_encoding)
        v_img = vc_encoding.generators[FermionGeneratorId(GeneratorKind.VERTEX, 0)]
        for shift, vertex in (((1, 0), mid), ((0, 0), v0), ((1, 1), end)):
            moved = translate_word_clipped(v_img, shift, NN2)
            expected = 0 if vertex is mid else 1
            assert commute_parity(word, moved) == expected

    def test_l_path_equals_product_of_edges(self, vc_encoding):
        # Brute-force comparison: letter-wise product of the two edge words.
        v0 = Vertex(CENTER, 0)
        mid = step(NN2, v0, (1, 0))
        end = step(NN2, mid, (0, 1))
        word = composite_edge([v0, mid, end], vc_encoding)
        r_img = vc_encoding.generators[FermionGeneratorId(GeneratorKind.EDGE_RIGHT, 0)]
        u_img = vc_encoding.generators[FermionGeneratorId(GeneratorKind.EDGE_UP, 0)]
        u_moved = translate_word_clipped(u_img, (1, 0), NN2)
        mult = {"I": {"I": "I", "X": "X", "Y": "Y", "Z": "Z"},
                "X": {"I": "X", "X": "I", "Y": "Z", "Z": "Y"},
                "Y": {"I": "Y", "X": "Z", "Y": "I", "Z": "X"},
                "Z": {"I": "Z", "X": "Y", "Y": "X", "Z": "I"}}
        for slot in range(NN2.n_slots):
            expected = mult[r_img.letter(slot)][u_moved.letter(slot)]
            assert word.letter(slot) == expected

    def test_missing_edge_raises(self, vc_encoding):
        v0 = Vertex(CENTER, 0)
        far = Vertex((1, 3), 0)
        with pytest.raises(PathError):
            composite_edge([v0, far], vc_encoding)

    def test_two_cycle_is_identity(self, vc_encoding):
        v0 = Vertex(CENTER, 0)
        v1 = step(NN2, v0, (1, 0))
        word = loop_stabilizer([v0, v1, v0], vc_encoding)
        assert word.is_identity()

    def test_open_cycle_rejected(self, vc_encoding):
        v0 = Vertex(CENTER, 0)
        v1 = step(NN2, v0, (1, 0))
        with pytest.raises(ValueError):
            loop_stabilizer([v0, v1], vc_encoding)

    def test_plaquette_commutes_with_all_generators(self, vc_encoding):
        plaquette = derive_stabilizers(vc_encoding)[0]
        for word in vc_encoding.generators.values():
            for shift in ALL_SHIFTS:
                moved = translate_word_clipped(word, shift, NN2)
                assert commute_parity(plaquette, moved) == 0

    def test_triangle_cycle_yields_a_cell_stabilizer(self):
        from conftest import load_fixture
        from fqec.fermion import stabilizer_cycles

        enc = load_fixture("triangular_rank2.json")
        derived = {(s.x_mask, s.z_mask) for s in derive_stabilizers(enc)}
        for cycle in stabilizer_cycles(enc.layout):
            word = loop_stabilizer(cycle, enc)
            assert (word.x_mask, word.z_mask) in derived

    def test_composite_path_split_associativity(self, vc_encoding):
        # Splitting a path at any interior vertex and multiplying the two
        # sub-products reproduces the full-path product.
        v0 = Vertex(CENTER, 0)
        path = [v0]
        for d in ((1, 0), (0, 1), (-1, 0)):
            path.append(step(NN2, path[-1], d))
        full = composite_edge(path, vc_encoding)
        for cut in range(1, len(path) - 1):
            left = composite_edge(path[: cut + 1], vc_encoding)
            right = composite_edge(path[cut:], vc_encoding)
            assert multiply(left, right) == full


class TestHoppingTerms:
    def test_pair_product_cancels_edge(self, vc_encoding):
        t1, t2 = hopping_pair(vc_encoding, 0, EDGE_DIRECTIONS[GeneratorKind.EDGE_RIGHT])
        v = vc_encoding.generators[FermionGeneratorId(GeneratorKind.VERTEX, 0)]
        v_moved = translate_word_clipped(v, (1, 0), NN2)
        assert multiply(t1, t2) == multiply(v_moved, v)

    def test_terms_commute_with_stabilizers(self, vc_encoding):
        plaquette = derive_stabilizers(vc_encoding)[0]
        for kind in (GeneratorKind.EDGE_RIGHT, GeneratorKind.EDGE_UP):
            for term in hopping_pair(vc_encoding, 0, EDGE_DIRECTIONS[kind]):
                for shift in ALL_SHIFTS:
                    moved = translate_word_clipped(plaquette, shift, NN2)
                    assert commute_parity(term, moved) == 0

    def test_jw_row_hopping_weight_two(self):
        # 1D Jordan-Wigner along a row: both hop words have weight 2.
        enc = jw_like(UnitCellLayout(1, Scheme.TWO_GRIDS, EdgeSet.NN_SQUARE))
        terms = hopping_pair(enc, 0, EDGE_DIRECTIONS[GeneratorKind.EDGE_RIGHT])
        assert {weight(t) for t in terms} == {2}
        assert hopping_weight(enc, 0, (1, 0)) == 2

    def test_mirrored_directions_share_weight(self, vc_encoding):
        assert hopping_weight(vc_encoding, 0, (1, 0)) == hopping_weight(
            vc_encoding, 0, (-1, 0)
        )
        assert hopping_weight(vc_encoding, 0, (0, 1)) == hopping_weight(
            vc_encoding, 0, (0, -1)
        )

    def test_composite_diagonal_weight(self, vc_encoding):
        # nn-square layout: diagonal hop goes through the two-edge L path.
        w_ur = hopping_weight(vc_encoding, 0, (1, 1))
        assert w_ur >= 1


class TestOnsiteTerms:
    def test_two_grids_disjoint_product(self, vc_encoding):
        word = onsite_pauli_term(vc_encoding)
        n = NN2.n_slots
        assert word.n_slots == 2 * n
        v = vc_encoding.generators[FermionGeneratorId(GeneratorKind.VERTEX, 0)]
        assert weight(word) == 2 * weight(v)
        assert onsite_weight(vc_encoding) == 2 * weight(v)

    def test_mixed_product_in_window(self):
        enc = jw_like(UnitCellLayout(2, Scheme.MIXED, EdgeSet.NN_SQUARE))
        word = onsite_pauli_term(enc)
        assert word.n_slots == enc.layout.n_slots
        assert weight(word) == 2  # two single-Z vertices on distinct locals
        assert onsite_weight(enc) == 2

    def test_weight_matches_xor_arithmetic(self):
        enc = jw_like(UnitCellLayout(2, Scheme.MIXED, EdgeSet.NN_SQUARE))
        v0 = enc.generators[FermionGeneratorId(GeneratorKind.VERTEX, 0)]
        v1 = enc.generators[FermionGeneratorId(GeneratorKind.VERTEX, 1)]
        overlap_identity = sum(
            1
            for slot in range(enc.layout.n_slots)
            if v0.letter(slot) == v1.letter(slot) != "I"
        )
        assert onsite_weight(enc) == weight(v0) + weight(v1) - 2 * overlap_identity


class TestTermEnumeration:
    def test_nn_counts(self):
        assert len(enumerate_hamiltonian_terms(HamiltonianSpec(t_prime=0.0), NN2)) == 5

    def test_nnn_counts(self):
        assert len(enumerate_hamiltonian_terms(HamiltonianSpec(t_prime=0.3), NN2)) == 9

    def test_doubled_counts_by_orbit_oracle(self):
        # Oracle: count distinct (anchor mode, signed direction) hop orbits
        # plus one on-site term per site hosted in the enlarged cell.
        layout = UnitCellLayout(2, Scheme.DOUBLED_H, EdgeSet.NN_SQUARE)
        hops = layout.modes_per_cell * 4
        onsites = 2
        expected = hops + onsites
        assert expected == 10
        assert len(enumerate_hamiltonian_terms(HamiltonianSpec(), layout)) == 10

    def test_mixed_counts(self):
        layout = UnitCellLayout(2, Scheme.MIXED, EdgeSet.NN_SQUARE)
        assert len(enumerate_hamiltonian_terms(HamiltonianSpec(), layout)) == 9
        assert len(enumerate_hamiltonian_terms(HamiltonianSpec(t_prime=1.0), layout)) == 17

    def test_descriptor_names_unique(self):
        for scheme in Scheme:
            layout = UnitCellLayout(2, scheme, EdgeSet.NN_SQUARE)
            terms = enumerate_hamiltonian_terms(HamiltonianSpec(t_prime=1.0), layout)
            names = [t.name for t in terms]
            assert len(names) == len(set(names))
