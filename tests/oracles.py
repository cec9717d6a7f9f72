"""Slow test-side oracles that share no code with the kernels they check.

``naive_min_distance`` re-implements ``fqec.distance.min_distance`` on dense
letter arrays with no bit packing and no pruning, and ``is_logical``
classifies one word by the same rule.  ``canonical_supports``
filters every slot combination by its cell bounding box, where
``fqec.distance`` reads each prefix's centered ends from ``_box_tables``.
``search_candidates`` lists the words the brute-force search may try for
one generator, straight from the rules in the ``fqec.search_bruteforce``
docstring.
``greedy_layers`` tests the whole layer for every edge, where
``fqec.connectivity._planar_layers`` skips the tests whose answer is
known.  ``naive_validate`` translates one ``PauliWord`` per generator pair
and shift, slot by slot, and asks the Majorana algebra for each parity,
where ``fqec.encoding.validate`` reads each pair's parities from its
same-local slot pairs and compares them with a cached table.
``naive_self_commutation_ok`` builds every clipped translate of one word
and asks the Majorana algebra for each parity, where
``fqec.search_bruteforce._Universe`` keeps a whole support's
self-commuting letter choices at once, read from the choices whose
letters differ at each pair of its positions on one local.
``naive_term_weights`` and ``naive_term_words`` measure the Hubbard terms
name by name on ``PauliWord`` products, mirrors included, where
``fermion.term_orbits`` lists each orbit once and ``fermion.term_masks``
multiplies raw masks.
``apply_gate_letters`` applies a replicated Clifford gate letter by letter
and reads clipping from cell coordinates, where ``search_clifford`` works on
raw masks with per-gate slot tables.  ``relabel_class`` takes the least
image of a generator map over every relabeling (all q!·6^q of them) on
dense letters, where ``fqec.lattice.canonical_relabel`` normalises each
local's letters once and sorts.

``commute_parity``, ``hopping_pair`` and ``self_parities`` are test helpers
with no caller in ``fqec``: the symplectic parity of two ``PauliWord``s, a
hop's two words read from ``fermion.term_orbits`` by name, and one raw
word's parities against its own clipped translates, read from its
same-local slot pairs through the table ``pair_shift_bits``.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import networkx as nx

from fqec import lattice
from fqec.distance import DistanceResult
from fqec.encoding import EncodingCandidate, Violation
from fqec.fermion import (
    EDGE_DIRECTIONS,
    FermionGeneratorId,
    GeneratorKind,
    PathError,
    Vertex,
    edge_kinds,
    edge_vertex_required_parity,
    far_cell_offset,
    generator_ids,
    generator_masks,
    step,
    term_masks,
    term_orbits,
)
from fqec.lattice import CENTER, Scheme
from fqec.search_clifford import SingleQubitGate
from fqec.symplectic import PauliWord, multiply, weight


def commute_parity(a: PauliWord, b: PauliWord) -> int:
    """Symplectic-form parity of two words: 0 = commute, 1 = anticommute."""
    if a.n_slots != b.n_slots:
        raise ValueError(f"slot count mismatch: {a.n_slots} vs {b.n_slots}")
    return ((a.x_mask & b.z_mask).bit_count() + (a.z_mask & b.x_mask).bit_count()) & 1


# ---------------------------------------------------------------------------
# Dense-letter oracle (no bit packing, no pruning)

def _naive_letters(word: PauliWord) -> tuple[str, ...]:
    return tuple(word.letter(q) for q in range(word.n_slots))


def _naive_translate(
    letters: tuple[str, ...], shift: tuple[int, int], layout
) -> tuple[str, ...] | None:
    out = ["I"] * len(letters)
    for slot, letter in enumerate(letters):
        if letter == "I":
            continue
        (x, y), local = lattice.cell_of(slot, layout)
        nx, ny = x + shift[0], y + shift[1]
        if not (0 <= nx < lattice.WINDOW and 0 <= ny < lattice.WINDOW):
            return None
        out[lattice.slot_of((nx, ny), local, layout)] = letter
    return tuple(out)


def _naive_anticommutes(a: tuple[str, ...], b: tuple[str, ...]) -> bool:
    # Two letters anticommute iff both are non-identity and they differ.
    count = 0
    for la, lb in zip(a, b):
        if la != lb and la != "I" and lb != "I":
            count += 1
    return count % 2 == 1


def _naive_vector(letters: tuple[str, ...]) -> list[int]:
    vec = []
    for letter in letters:
        vec.append(1 if letter in ("X", "Y") else 0)
    for letter in letters:
        vec.append(1 if letter in ("Z", "Y") else 0)
    return vec


def _naive_in_span(rows: list[list[int]], vec: list[int]) -> bool:
    # plain forward elimination, recomputed from scratch every call
    reduced: list[list[int]] = []
    for row in rows:
        cur = row[:]
        for prow in reduced:
            lead = next(i for i, v in enumerate(prow) if v)
            if cur[lead]:
                cur = [a ^ b for a, b in zip(cur, prow)]
        if any(cur):
            reduced.append(cur)
    cur = vec[:]
    for prow in reduced:
        lead = next(i for i, v in enumerate(prow) if v)
        if cur[lead]:
            cur = [a ^ b for a, b in zip(cur, prow)]
    return not any(cur)


def canonical_supports(layout, w: int) -> list[tuple[int, ...]]:
    """Weight-w supports whose cell bounding box is centered, combinations order."""
    out = []
    for support in itertools.combinations(range(layout.n_slots), w):
        cells = [lattice.cell_of(slot, layout)[0] for slot in support]
        xs = [x for x, _ in cells]
        ys = [y for _, y in cells]
        bw = max(xs) - min(xs) + 1
        bh = max(ys) - min(ys) + 1
        if min(xs) == (lattice.WINDOW - bw) // 2 and min(ys) == (lattice.WINDOW - bh) // 2:
            out.append(support)
    return out


def _naive_translates(enc: "EncodingCandidate") -> list[tuple[str, ...]]:
    """Distinct non-identity window translates of the stabilizer generators."""
    stabs = enc.stabilizer_generators
    if stabs is None:
        raise ValueError("stabilizers not derived")
    translated: list[tuple[str, ...]] = []
    for stab in stabs:
        base = _naive_letters(stab)
        for shift in lattice.ALL_SHIFTS:
            moved = _naive_translate(base, shift, enc.layout)
            if moved is None or all(l == "I" for l in moved):
                continue
            if moved not in translated:
                translated.append(moved)
    return translated


def is_logical(error: PauliWord, enc: "EncodingCandidate") -> bool:
    """True iff ``error`` commutes with every window translate of the
    stabilizers but lies outside their span."""
    if error.n_slots != enc.layout.n_slots:
        raise ValueError(f"slot count mismatch: {error.n_slots} vs {enc.layout.n_slots}")
    translated = _naive_translates(enc)
    letters = _naive_letters(error)
    if any(_naive_anticommutes(letters, s) for s in translated):
        return False
    return not _naive_in_span([_naive_vector(t) for t in translated], _naive_vector(letters))


def naive_min_distance(enc: "EncodingCandidate", w_max: int) -> DistanceResult:
    """Same contract as :func:`min_distance` on dense letter arrays."""
    layout = enc.layout
    n = layout.n_slots
    translated = _naive_translates(enc)
    span_rows = [_naive_vector(t) for t in translated]

    for w in range(1, min(w_max, n) + 1):
        for support in itertools.combinations(range(n), w):
            # One representative per translation orbit: bounding box centered.
            boxes = [lattice.cell_of(s, layout)[0] for s in support]
            bw = max(b[0] for b in boxes) - min(b[0] for b in boxes) + 1
            bh = max(b[1] for b in boxes) - min(b[1] for b in boxes) + 1
            if min(b[0] for b in boxes) != (lattice.WINDOW - bw) // 2:
                continue
            if min(b[1] for b in boxes) != (lattice.WINDOW - bh) // 2:
                continue
            for letters in itertools.product("XYZ", repeat=w):
                error = ["I"] * n
                for slot, letter in zip(support, letters):
                    error[slot] = letter
                error_t = tuple(error)
                if any(_naive_anticommutes(error_t, s) for s in translated):
                    continue
                if _naive_in_span(span_rows, _naive_vector(error_t)):
                    continue
                return DistanceResult.exact_distance(w)
    return DistanceResult.lower_bound(w_max + 1)


# ---------------------------------------------------------------------------
# Windowed validation, one word pair and one shift at a time


def translate_word_clipped(
    a: PauliWord, shift: tuple[int, int], layout
) -> PauliWord:
    """Shift a word by whole cells, silently dropping slots that leave the window.

    Slot by slot through the cell map, with none of ``fqec.lattice``'s shift
    tables.  Dropped slots cannot overlap any in-window operator, so parities
    against window-supported words keep their infinite-lattice values.
    """
    out = PauliWord.identity(a.n_slots)
    for slot in a.support_slots():
        letter = a.letter(slot)
        (x, y), local = lattice.cell_of(slot, layout)
        cell = (x + shift[0], y + shift[1])
        if 0 <= cell[0] < lattice.WINDOW and 0 <= cell[1] < lattice.WINDOW:
            out = out.with_letter(lattice.slot_of(cell, local, layout), letter)
    return out


def _naive_cell_mask(layout, cell: tuple[int, int]) -> int:
    return sum(
        1 << lattice.slot_of(cell, local, layout) for local in range(layout.qubits_per_cell)
    )


def naive_validate(enc: EncodingCandidate) -> list[Violation]:
    """Same contract as :func:`fqec.encoding.validate`, one pair at a time.

    Translates the second word of every pair afresh for every shift and
    asks the Majorana algebra for each required parity.
    """
    layout = enc.layout
    violations: list[Violation] = []
    ids = generator_ids(layout)
    present = []
    for gen in ids:
        word = enc.generators.get(gen)
        if word is None:
            violations.append(Violation("missing-generator", gen.name))
            continue
        present.append(gen)
        if not word.support & _naive_cell_mask(layout, lattice.CENTER):
            violations.append(
                Violation("anchoring", gen.name, "support misses the central cell")
            )
        if gen.kind is not GeneratorKind.VERTEX:
            off = far_cell_offset(layout, gen)
            far = (lattice.CENTER[0] + off[0], lattice.CENTER[1] + off[1])
            if not word.support & _naive_cell_mask(layout, far):
                violations.append(
                    Violation(
                        "anchoring", gen.name, f"support misses far endpoint cell {far}"
                    )
                )

    for i, gen_a in enumerate(present):
        img_a = enc.generators[gen_a]
        for gen_b in present[i:]:
            img_b = enc.generators[gen_b]
            for shift in lattice.ALL_SHIFTS:
                want = edge_vertex_required_parity(layout, gen_a, (0, 0), gen_b, shift)
                got = commute_parity(img_a, translate_word_clipped(img_b, shift, layout))
                if got != want:
                    violations.append(
                        Violation(
                            "commutation", gen_a.name, gen_b.name, shift, want, got
                        )
                    )
    return violations


@lru_cache(maxsize=None)
def pair_shift_bits(qubits_per_cell: int) -> tuple[tuple[int, ...], ...]:
    """``lattice._pair_shifts`` made symmetric, with zeros on the diagonal."""
    d, n = lattice._pair_shifts(qubits_per_cell), qubits_per_cell * lattice.WINDOW**2
    return tuple(tuple(d[p][q] | d[q][p] if p != q else 0 for q in range(n)) for p in range(n))


def self_parities(x: int, z: int, qubits_per_cell: int) -> int:
    """``lattice.pair_parities(x, z, x, z)`` over unordered slot pairs: a slot
    meets itself with commuting letters, and each pair of distinct
    same-local slots whose letters anticommute flips ``s`` and ``-s``."""
    table, out, seen, m = pair_shift_bits(qubits_per_cell), 0, [], x | z
    while m:
        p = (m & -m).bit_length() - 1
        m &= m - 1
        row = table[p]
        for q in seen:
            if row[q] and (x >> p & z >> q ^ z >> p & x >> q) & 1:
                out ^= row[q]
        seen.append(p)
    return out


@lru_cache(maxsize=None)
def _self_required(layout, gen) -> tuple[int, ...]:
    return tuple(
        edge_vertex_required_parity(layout, gen, (0, 0), gen, shift)
        for shift in lattice.ALL_SHIFTS
    )


def naive_self_commutation_ok(layout, gen, word: PauliWord) -> bool:
    """Whether ``word``, as generator ``gen``, has the required parity against
    each of its own clipped translates, translated one shift at a time."""
    return all(
        commute_parity(word, translate_word_clipped(word, shift, layout)) == want
        for shift, want in zip(lattice.ALL_SHIFTS, _self_required(layout, gen))
    )


# ---------------------------------------------------------------------------
# Replicated Clifford gates, one letter at a time


def _letter_times(a: str, b: str) -> str:
    """Phase-blind product of two letters."""
    if a == "I":
        return b
    if b == "I":
        return a
    if a == b:
        return "I"
    return ({"X", "Y", "Z"} - {a, b}).pop()


def apply_gate_letters(word: PauliWord, gate, layout) -> tuple[PauliWord, bool]:
    """Phase-blind image of ``word`` under a gate replicated in every cell,
    and whether a CNOT translate was cut off at the window boundary.

    A single-qubit gate replaces each letter on its local by the letter's
    image.  A CNOT acts on every translate of its (control, target) pair at
    once, reading the letters before the gate: an X part on a control slot
    multiplies the target slot by X, a Z part on a target slot multiplies
    the control slot by Z.  Such a part whose partner cell lies outside the
    window is lost, and the image is clipped.
    """
    letters = [word.letter(slot) for slot in range(word.n_slots)]
    out = list(letters)
    clipped = False
    if isinstance(gate, SingleQubitGate):
        for slot, letter in enumerate(letters):
            if letter != "I" and lattice.cell_of(slot, layout)[1] == gate.local:
                out[slot] = gate.perm["XYZ".index(letter)]
    else:
        ((cx, cy), c_local), ((tx, ty), t_local) = gate.control, gate.target
        dx, dy = tx - cx, ty - cy
        for slot, letter in enumerate(letters):
            (x, y), local = lattice.cell_of(slot, layout)
            moves = []  # (partner cell, partner local, letter to multiply in)
            if local == c_local and letter in ("X", "Y"):
                moves.append(((x + dx, y + dy), t_local, "X"))
            if local == t_local and letter in ("Z", "Y"):
                moves.append(((x - dx, y - dy), c_local, "Z"))
            for cell, partner_local, factor in moves:
                if 0 <= cell[0] < lattice.WINDOW and 0 <= cell[1] < lattice.WINDOW:
                    partner = lattice.slot_of(cell, partner_local, layout)
                    out[partner] = _letter_times(out[partner], factor)
                else:
                    clipped = True
    image = PauliWord.identity(word.n_slots)
    for slot, letter in enumerate(out):
        if letter != "I":
            image = image.with_letter(slot, letter)
    return image, clipped


# ---------------------------------------------------------------------------
# Brute-force search candidates, one word at a time


def search_candidates(
    layout, max_vertex_weight: int, max_edge_weight: int, prefix: list[PauliWord]
) -> list[PauliWord]:
    """Words the search may try for the generator after ``prefix``, in order.

    A word qualifies when its weight is within the level's cap, its support
    touches the centre cell (and an edge's far cell), the cell-local slots
    used by the prefix and the word are 0..k-1 for some k, the first
    distinct letters on each local (prefix generators in order, then the
    word, slots ascending) are Z, X, Y in that order, and its parity
    against every clipped translate of every prefix generator is the
    required one.  Words come by weight, then support, then XYZ letters.
    """
    ids = generator_ids(layout)
    gen = ids[len(prefix)]
    n, qpc = layout.n_slots, layout.qubits_per_cell
    cells = [lattice.CENTER]
    cap = max_vertex_weight
    if gen.kind is not GeneratorKind.VERTEX:
        dx, dy = far_cell_offset(layout, gen)
        cells.append((lattice.CENTER[0] + dx, lattice.CENTER[1] + dy))
        cap = max_edge_weight
    local_of = [lattice.cell_of(slot, layout)[1] for slot in range(n)]
    history = [""] * qpc  # letters placed on each local, in placement order
    for word in prefix:
        for slot in range(n):
            if word.letter(slot) != "I":
                history[local_of[slot]] += word.letter(slot)
    used = {local for local in range(qpc) if history[local]}
    checks = [
        (
            edge_vertex_required_parity(layout, gen, (0, 0), ids[j], shift),
            translate_word_clipped(word, shift, layout),
        )
        for j, word in enumerate(prefix)
        for shift in lattice.ALL_SHIFTS
    ]

    out = []
    for w in range(1, cap + 1):
        for support in itertools.combinations(range(n), w):
            support_cells = {lattice.cell_of(slot, layout)[0] for slot in support}
            if any(cell not in support_cells for cell in cells):
                continue
            locals_used = used | {local_of[slot] for slot in support}
            if locals_used != set(range(len(locals_used))):
                continue
            # A word commutes with every translate it does not overlap.
            support_mask = sum(1 << slot for slot in support)
            if any(parity and not t.support & support_mask for parity, t in checks):
                continue
            overlapping = [(parity, t) for parity, t in checks if t.support & support_mask]
            for letters in itertools.product("XYZ", repeat=w):
                placed = list(history)
                for slot, letter in zip(support, letters):
                    placed[local_of[slot]] += letter
                firsts = ["".join(dict.fromkeys(seq)) for seq in placed]
                if any(order != "ZXY"[: len(order)] for order in firsts):
                    continue
                word = PauliWord.identity(n)
                for slot, letter in zip(support, letters):
                    word = word.with_letter(slot, letter)
                if all(commute_parity(word, t) == parity for parity, t in overlapping):
                    out.append(word)
    return out


# ---------------------------------------------------------------------------
# Plain greedy thickness (one planarity test of the whole layer per edge)


def greedy_layers(g) -> list[list[tuple]]:
    """Edge lists of the layers of ``fqec.connectivity._planar_layers``.

    Every edge, in sorted order, is added to an ``nx.Graph`` layer and kept
    iff ``nx.check_planarity`` accepts the whole layer; the deferred edges
    seed the next layer.
    """
    remaining = sorted(g.edges)
    layers = []
    while remaining:
        layer = nx.Graph()
        kept, deferred = [], []
        for u, v in remaining:
            layer.add_edge(u, v)
            ok, _ = nx.check_planarity(layer)
            if ok:
                kept.append((u, v))
            else:
                layer.remove_edge(u, v)
                if layer.degree(u) == 0:
                    layer.remove_node(u)
                if layer.degree(v) == 0:
                    layer.remove_node(v)
                deferred.append((u, v))
        layers.append(kept)
        remaining = deferred
    return layers


# ---------------------------------------------------------------------------
# Hubbard terms on PauliWord products, one term name at a time


def _naive_instance_image(enc, gen, anchor):
    """Pauli image of the generator instance anchored at window cell ``anchor``.

    ``None`` when the translated image does not fit the window.
    """
    word = enc.generators.get(gen)
    if word is None:
        raise KeyError(f"generator {gen.name} is not assigned")
    shift = (anchor[0] - CENTER[0], anchor[1] - CENTER[1])
    if max(abs(shift[0]), abs(shift[1])) > lattice.SHIFT_RANGE:
        return None
    return lattice.translate_word(word, shift, enc.layout)


def _naive_edge_instance(layout, v, w):
    """The edge generator orbit and anchor joining two mode instances."""
    for kind in edge_kinds(layout):
        if step(layout, v, EDGE_DIRECTIONS[kind]) == w:
            return FermionGeneratorId(kind, v.mode), v.cell
        if step(layout, w, EDGE_DIRECTIONS[kind]) == v:
            return FermionGeneratorId(kind, w.mode), w.cell
    raise PathError(f"no defined edge between {v} and {w}")


_NAIVE_REANCHOR_ORDER = tuple(
    sorted(lattice.ALL_SHIFTS, key=lambda s: (max(abs(s[0]), abs(s[1])), s))
)


def _naive_product_of_instances(enc, instances):
    """Product of generator instances, re-anchored together if needed to fit.

    Anchors are shifted by a common offset (identity first) until every
    constituent image fits the window; the product is translation-equivalent
    to the requested one.
    """
    layout = enc.layout
    for dx, dy in _NAIVE_REANCHOR_ORDER:
        words = []
        for gen, (ax, ay) in instances:
            img = _naive_instance_image(enc, gen, (ax + dx, ay + dy))
            if img is None:
                break
            words.append(img)
        else:
            out = PauliWord.identity(layout.n_slots)
            for word in words:
                out = multiply(out, word)
            return out
    raise PathError("product of edge instances does not fit the window at any anchor")


def _naive_vertex_image(enc, vertex):
    """Pauli image of a mode instance's vertex generator, re-anchored to fit."""
    gen = FermionGeneratorId(GeneratorKind.VERTEX, vertex.mode)
    return _naive_product_of_instances(enc, [(gen, vertex.cell)])


_NAIVE_KIND_BY_DIRECTION = {d: kind for kind, d in EDGE_DIRECTIONS.items()}
_NAIVE_NN = ((1, 0), (-1, 0), (0, 1), (0, -1))
_NAIVE_NNN = ((1, 1), (-1, -1), (-1, 1), (1, -1))
_NAIVE_DIRECTION_NAMES = {
    (1, 0): "+x", (-1, 0): "-x", (0, 1): "+y", (0, -1): "-y",
    (1, 1): "+ur", (-1, -1): "-ur", (-1, 1): "+ul", (1, -1): "-ul",
}


def naive_hopping_pair(enc, mode, direction):
    """The two hopping Pauli words for a site direction.

    A mirrored direction is the negated canonical one, whose words are
    taken; the edge path and each endpoint vertex are anchored separately.
    """
    layout = enc.layout
    if direction not in _NAIVE_KIND_BY_DIRECTION:
        direction = (-direction[0], -direction[1])
    v0 = Vertex(CENTER, mode)
    w = step(layout, v0, direction)
    kind = _NAIVE_KIND_BY_DIRECTION.get(direction)
    if kind in edge_kinds(layout):
        instances = [(FermionGeneratorId(kind, mode), v0.cell)]
    else:
        mid = step(layout, v0, (direction[0], 0))
        instances = [_naive_edge_instance(layout, v0, mid), _naive_edge_instance(layout, mid, w)]
    image = _naive_product_of_instances(enc, instances)
    return (
        multiply(_naive_vertex_image(enc, w), image),
        multiply(_naive_vertex_image(enc, v0), image),
    )


def hopping_pair(enc, mode, direction):
    """The two words of a hop as ``fermion.term_orbits`` lists them, as
    ``PauliWord``s; a mirrored direction shares the canonical one's orbit."""
    name = f"hop:{_NAIVE_DIRECTION_NAMES[direction]}:m{mode}"
    layout = enc.layout
    orbit = next(o for o in term_orbits(layout) if name in o.names)
    a, b = term_masks(orbit, generator_masks(enc), layout.qubits_per_cell)
    return PauliWord(*a, layout.n_slots), PauliWord(*b, layout.n_slots)


def _naive_onsite_modes(layout):
    # Mixed cells host both spins of one site; every other scheme pairs each
    # in-window mode with its disjoint opposite-spin copy, one term per mode.
    if layout.scheme is Scheme.MIXED:
        return (0,)
    return tuple(range(layout.modes_per_cell))


def _naive_onsite_word(enc, mode):
    """The on-site word: V_up * V_down in a mixed cell, else the vertex word
    that each of the two disjoint spin copies carries."""
    if enc.layout.scheme is Scheme.MIXED:
        v_up = _naive_vertex_image(enc, Vertex(CENTER, 0))
        v_down = _naive_vertex_image(enc, Vertex(CENTER, 1))
        return multiply(v_up, v_down)
    return _naive_vertex_image(enc, Vertex(CENTER, mode))


def naive_term_weights(enc) -> dict[str, tuple[bool, int]]:
    """Every Hubbard term name mapped to (is NNN, weight), each name measured
    on its own: a hop's weight is the max over its two words, mirrors
    included; an on-site term weighs V_up * V_down in a mixed cell, else
    twice its vertex (the two disjoint spin copies)."""
    layout = enc.layout
    out = {}
    for mode in range(layout.modes_per_cell):
        for nnn, directions in ((False, _NAIVE_NN), (True, _NAIVE_NNN)):
            for d in directions:
                pair = naive_hopping_pair(enc, mode, d)
                out[f"hop:{_NAIVE_DIRECTION_NAMES[d]}:m{mode}"] = (
                    nnn, max(weight(word) for word in pair)
                )
    copies = 1 if layout.scheme is Scheme.MIXED else 2
    for mode in _naive_onsite_modes(layout):
        out[f"onsite:m{mode}"] = (False, copies * weight(_naive_onsite_word(enc, mode)))
    return out


def naive_term_words(enc, t_prime: float) -> set[tuple[int, int]]:
    """(x, z) masks of the connectivity graph's term words: both words of
    each canonical hop (NNN hops only when ``t_prime`` is nonzero) and each
    on-site word, identity words dropped."""
    layout = enc.layout
    directions = _NAIVE_NN + (_NAIVE_NNN if t_prime != 0.0 else ())
    words = []
    for mode in range(layout.modes_per_cell):
        for d in directions:
            if d in _NAIVE_KIND_BY_DIRECTION:  # a mirror is a translate
                words.extend(naive_hopping_pair(enc, mode, d))
    words.extend(_naive_onsite_word(enc, mode) for mode in _naive_onsite_modes(layout))
    return {(w.x_mask, w.z_mask) for w in words if not w.is_identity()}


# ---------------------------------------------------------------------------
# Relabeling classes: the least image over the whole group, on dense letters

LETTER_PERMS = tuple(itertools.permutations("XYZ"))


def relabel_letters(
    words: tuple[str, ...], qubits_per_cell: int, locals_to, letter_perms
) -> tuple[str, ...]:
    """Dense words relabeled: local p's letter ``L`` in every cell moves to
    local ``locals_to[p]`` as ``letter_perms[p]``'s image of ``L`` (images of
    X, Y, Z in that order)."""
    q = qubits_per_cell
    images = [dict(zip("IXYZ", ("I",) + tuple(perm))) for perm in letter_perms]
    out = []
    for word in words:
        new = ["I"] * len(word)
        for slot, letter in enumerate(word):
            cell, p = divmod(slot, q)
            new[cell * q + locals_to[p]] = images[p][letter]
        out.append("".join(new))
    return tuple(out)


def dense_words(masks, qubits_per_cell: int) -> tuple[str, ...]:
    """One letter string per ``(x, z)`` pair on the 3x3 window's slots."""
    slots = range(9 * qubits_per_cell)
    return tuple("".join("IXZY"[(x >> s & 1) | (z >> s & 1) << 1] for s in slots) for x, z in masks)


def masks_of(words: tuple[str, ...]) -> tuple[tuple[int, int], ...]:
    """Inverse of ``dense_words``."""
    out = []
    for word in words:
        x = sum(1 << s for s, letter in enumerate(word) if letter in "XY")
        z = sum(1 << s for s, letter in enumerate(word) if letter in "ZY")
        out.append((x, z))
    return tuple(out)


def relabelings(qubits_per_cell: int):
    """Every relabeling as ``(locals_to, letter_perms)``: q!·6^q of them."""
    q = qubits_per_cell
    for locals_to in itertools.permutations(range(q)):
        for letter_perms in itertools.product(LETTER_PERMS, repeat=q):
            yield locals_to, letter_perms


def relabel_class(masks, qubits_per_cell: int) -> tuple[str, ...]:
    """The least dense image of a generator map over every relabeling: two
    maps are relabelings of each other iff their classes are equal."""
    words = dense_words(masks, qubits_per_cell)
    return min(
        relabel_letters(words, qubits_per_cell, locals_to, letter_perms)
        for locals_to, letter_perms in relabelings(qubits_per_cell)
    )
