"""Seeded inputs of the four workloads, written into a pass work directory.

Every input is a pure function of the seed (and the smoke flag), so two
invocations with one seed hand the program identical files.  The spec file
``spec.json`` tells ``worker.py`` which workload to run and where its inputs
and outputs live.
"""

from __future__ import annotations

import json
import os
import random

FIXTURES = ("d1_nn_square", "d2_nn_square", "nnn_rank4", "triangular_rank2")

# The unbudgeted criterion-10 search.  At acceptance probability 1 the seed
# draws nothing, so every seed does the same work and finds the same front.
# The smoke size stops at a node budget, after the first few completions.
SEARCH_CONFIG = (
    "scheme = two-grids\nedge-set = nn-square\nqubits-per-cell = 2\n"
    "max-vertex-weight = 2\nmax-hopping-weight = 4\nacceptance-probability = 1.0\n"
    "seed = {seed}\n"
)
SEARCH_SIZES = {
    "full": {"min_distance": 2, "extra": ""},
    "smoke": {"min_distance": 1, "extra": "node-budget = 60\n"},
}

# The criterion-10 deform config at sequence length 4; the seed picks the
# sampled gate pool.
DEFORM_CONFIG = (
    "base = {base}\nsingles-per-qubit = 3\ncnot-pairs = 1\n"
    "max-sequence-length = {length}\nseed = {seed}\nmin-distance = 2\n"
)
DEFORM_LENGTH = {"full": 4, "smoke": 2}

# Slot counts of the distance layouts (3 and 4 qubits per cell) and the
# enumeration weight.  Full-rank groups have no logical, so every weight up
# to ``w_max`` is scanned and the answer is always LowerBound w_max + 1.
DISTANCE_QUBITS_PER_CELL = (3, 4)
DISTANCE_W_MAX = {"full": 4, "smoke": 3}

EXPORT_DOCUMENTS = {"full": 8, "smoke": 2}

# ``--w-max`` of the search and deform passes, as the CLI takes it.
FINAL_W_MAX = 3


def _fixture_path(root: str, name: str) -> str:
    return os.path.join(root, "tests", "data", name + ".json")


def write_inputs(
    root: str, workload: str, seed: int, smoke: bool, workdir: str
) -> dict:
    """Write the workload's input files and ``spec.json``; return the spec."""
    size = "smoke" if smoke else "full"
    spec = {
        "root": root,
        "workload": workload,
        "seed": seed,
        "w_max": FINAL_W_MAX,
        "outputs": {},
    }
    if workload == "search":
        path = os.path.join(workdir, "search.cfg")
        params = SEARCH_SIZES[size]
        _write(
            path,
            SEARCH_CONFIG.format(seed=seed)
            + f"min-distance = {params['min_distance']}\n"
            + params["extra"],
        )
        spec["config"] = path
        spec["min_distance"] = params["min_distance"]
        spec["outputs"] = {"stream": "stream.jsonl", "front": "front.jsonl"}
    elif workload == "deform":
        base = _fixture_path(root, "d2_nn_square")
        _require_file(base)
        path = os.path.join(workdir, "deform.cfg")
        _write(path, DEFORM_CONFIG.format(base=base, length=DEFORM_LENGTH[size], seed=seed))
        spec["config"] = path
        spec["min_distance"] = 2
        spec["outputs"] = {"stream": "stream.jsonl", "front": "front.jsonl"}
    elif workload == "distance":
        path = os.path.join(workdir, "groups.json")
        _write(path, json.dumps(full_rank_groups(seed)) + "\n")
        spec["groups"] = path
        spec["w_max"] = DISTANCE_W_MAX[size]
        spec["outputs"] = {"results": "results.json"}
    elif workload == "export":
        path = os.path.join(workdir, "front.jsonl")
        lines = export_front(root, seed, EXPORT_DOCUMENTS[size])
        _write(path, "".join(line + "\n" for line in lines))
        spec["front"] = path
        spec["outputs"] = {"csv": "front.csv"}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    spec["outputs"] = {k: os.path.join(workdir, v) for k, v in spec["outputs"].items()}
    _write(os.path.join(workdir, "spec.json"), json.dumps(spec, indent=1) + "\n")
    return spec


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _require_file(path: str) -> None:
    if not os.path.isfile(path):
        raise FileNotFoundError(f"benchmark input {path} is missing")


def full_rank_groups(seed: int) -> list[dict]:
    """One cell-local graph-state stabilizer group per distance layout.

    Each cell carries the graph state of a cycle on its qubits, with a
    seeded labelling of the qubits and a seeded letter permutation on each.
    The ``qubits_per_cell`` generators are independent and commute, and
    their translates fill every window cell, so the group has full rank.

    The scan time depends on the graph, not on the labelling or the letters:
    relabelling or permuting letters maps the errors of one weight onto
    themselves, so every seed gives the same amount of work.  Generator ``i``
    is listed at position ``i`` for the same reason.
    """
    from fqec.lattice import CENTER, EdgeSet, Scheme, UnitCellLayout, slot_of

    rng = random.Random(f"distance:{seed}")
    groups = []
    for qpc in DISTANCE_QUBITS_PER_CELL:
        layout = UnitCellLayout(qpc, Scheme.TWO_GRIDS, EdgeSet.NN_SQUARE)
        label = rng.sample(range(qpc), qpc)
        perms = [dict(zip("XYZ", rng.sample("XYZ", 3))) for _ in range(qpc)]
        stabilizers = []
        for i in range(qpc):
            letters = {label[i]: "X", label[(i - 1) % qpc]: "Z", label[(i + 1) % qpc]: "Z"}
            stabilizers.append(
                " ".join(
                    f"{perms[local][letter]}{slot_of(CENTER, local, layout)}"
                    for local, letter in sorted(letters.items())
                )
            )
        groups.append({"qubits_per_cell": qpc, "stabilizers": stabilizers})
    return groups


def export_front(root: str, seed: int, n_documents: int) -> list[str]:
    """Seeded sound deformations of the fixtures, as a search writes them.

    Document ``i`` deforms fixture ``i mod 4``: its second and later rounds
    first apply ``round`` intra-cell CNOTs, then every document gets a seeded
    letter permutation on each local qubit.  Both gates replicate over
    disjoint qubits, so every deformation validates.  Letter permutations
    keep every support, so the connectivity graphs, and with them the
    thickness work, are the same for every seed.  Each document carries the
    metrics block measured at the search's ``--w-max``.
    """
    from fqec.document import document_to_encoding, dumps_document, encoding_to_document, load_document
    from fqec.encoding import compute_metrics, derive_stabilizers, validate
    from fqec.fermion import HamiltonianSpec
    from fqec.search_clifford import CnotGate, SingleQubitGate, apply_clifford

    rng = random.Random(f"export:{seed}")
    lines = []
    for index in range(n_documents):
        name = FIXTURES[index % len(FIXTURES)]
        path = _fixture_path(root, name)
        _require_file(path)
        enc = document_to_encoding(load_document(path))
        qpc = enc.layout.qubits_per_cell
        gates = [
            CnotGate(((0, 0), k % qpc), ((0, 0), (k + 1) % qpc))
            for k in range(index // len(FIXTURES) if qpc > 1 else 0)
        ]
        gates += [SingleQubitGate(local, tuple(rng.sample("XYZ", 3))) for local in range(qpc)]
        for gate in gates:
            enc, clipped = apply_clifford(enc, gate)
            if clipped or validate(enc):
                raise RuntimeError(f"deformation of {name} by {gate.describe()} is not sound")
        enc = enc.with_stabilizers(derive_stabilizers(enc))
        enc = enc.with_metrics(compute_metrics(enc, HamiltonianSpec(), FINAL_W_MAX))
        provenance = {"base": name, "clifford_sequence": [g.describe() for g in gates]}
        lines.append(dumps_document(encoding_to_document(enc, provenance)))
    return lines
