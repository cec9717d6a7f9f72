"""Canonical JSON serialization of encodings.

An encoding document carries the layout, the generator images in sparse
cell-offset token form ("cell(dx,dy):local:letter", offsets relative to the
central cell), optionally the computed metrics block and a provenance
block.  Parsing is strict: unknown fields, unknown generator names and
malformed tokens are rejected, and by default a document must validate as
an encoding or the import fails with the violation list.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .distance import DistanceResult
from .encoding import EncodingCandidate, Metrics, derive_stabilizers, validate
from .fermion import generator_id_from_name, generator_ids
from .lattice import (
    CENTER,
    UnitCellLayout,
    edge_set_from_name,
    scheme_from_name,
)
from . import lattice
from .symplectic import PauliWord

SCHEMA_VERSION = "1"

_TOKEN_RE = re.compile(r"^cell\((-?\d+),(-?\d+)\):(\d+):([XYZ])$")

_TOP_KEYS = {"schema_version", "layout", "generators", "metrics", "provenance"}
_LAYOUT_KEYS = {"scheme", "edge_set", "qubits_per_cell"}
_METRICS_KEYS = {
    "distance",
    "max_stab_weight",
    "sigma_nn",
    "sigma_nnn",
    "qubit_ratio",
    "term_weights",
}


class DocumentError(ValueError):
    """A document failed schema checks or encoding validation."""

    def __init__(self, message: str, violations: list | None = None):
        super().__init__(message)
        self.violations = violations or []


def _word_to_tokens(word: PauliWord, layout: UnitCellLayout) -> list[str]:
    tokens = []
    for slot in word.support_slots():
        (x, y), local = lattice.cell_of(slot, layout)
        dx, dy = x - CENTER[0], y - CENTER[1]
        tokens.append(f"cell({dx},{dy}):{local}:{word.letter(slot)}")
    return tokens


def _tokens_to_word(tokens: list[str], layout: UnitCellLayout) -> PauliWord:
    word = PauliWord.identity(layout.n_slots)
    seen: set[int] = set()
    for token in tokens:
        match = _TOKEN_RE.match(token) if isinstance(token, str) else None
        if not match:
            raise DocumentError(f"malformed generator token {token!r}")
        dx, dy, local, letter = (
            int(match.group(1)),
            int(match.group(2)),
            int(match.group(3)),
            match.group(4),
        )
        cell = (CENTER[0] + dx, CENTER[1] + dy)
        if not (0 <= cell[0] < lattice.WINDOW and 0 <= cell[1] < lattice.WINDOW):
            raise DocumentError(f"token {token!r} falls outside the window")
        if local >= layout.qubits_per_cell:
            raise DocumentError(f"token {token!r} exceeds qubits_per_cell")
        slot = lattice.slot_of(cell, local, layout)
        if slot in seen:
            raise DocumentError(f"duplicate slot in generator tokens: {token!r}")
        seen.add(slot)
        word = word.with_letter(slot, letter)
    return word


def metrics_to_json(metrics: Metrics) -> dict:
    distance = (
        {"exact": metrics.distance.value}
        if metrics.distance.exact
        else {"at_least": metrics.distance.value}
    )
    return {
        "distance": distance,
        "max_stab_weight": metrics.max_stab_weight,
        "sigma_nn": str(metrics.sigma_nn),
        "sigma_nnn": str(metrics.sigma_nnn),
        "qubit_ratio": str(metrics.qubit_ratio),
        "term_weights": {name: w for name, w in metrics.term_weights},
    }


def metrics_from_json(block: dict) -> Metrics:
    if not isinstance(block, dict):
        raise DocumentError("metrics block must be an object")
    unknown = set(block) - _METRICS_KEYS
    if unknown:
        raise DocumentError(f"unknown metrics fields: {sorted(unknown)}")
    missing = _METRICS_KEYS - {"term_weights"} - set(block)
    if missing:
        raise DocumentError(f"missing metrics fields: {sorted(missing)}")
    dist_block = block["distance"]
    if not isinstance(dist_block, dict):
        raise DocumentError(f"malformed distance block {dist_block!r}")
    if not isinstance(block.get("term_weights", {}), dict):
        raise DocumentError("metrics term_weights must be an object")
    if "exact" in dist_block:
        distance = DistanceResult.exact_distance(int(dist_block["exact"]))
    elif "at_least" in dist_block:
        distance = DistanceResult.lower_bound(int(dist_block["at_least"]))
    else:
        raise DocumentError(f"malformed distance block {dist_block!r}")
    return Metrics(
        distance=distance,
        max_stab_weight=int(block["max_stab_weight"]),
        sigma_nn=Fraction(block["sigma_nn"]),
        sigma_nnn=Fraction(block["sigma_nnn"]),
        qubit_ratio=Fraction(block["qubit_ratio"]),
        term_weights=tuple(sorted(block.get("term_weights", {}).items())),
    )


def encoding_to_document(
    enc: EncodingCandidate, provenance: dict | None = None
) -> dict:
    """Strict-schema JSON document of an encoding (deterministic key order)."""
    layout = enc.layout
    doc: dict = {
        "schema_version": SCHEMA_VERSION,
        "layout": {
            "scheme": layout.scheme.value,
            "edge_set": layout.edge_set.value,
            "qubits_per_cell": layout.qubits_per_cell,
        },
        "generators": {
            gen.name: _word_to_tokens(enc.generators[gen], layout)
            for gen in generator_ids(layout)
            if gen in enc.generators
        },
    }
    if enc.metrics is not None:
        doc["metrics"] = metrics_to_json(enc.metrics)
    if provenance is not None:
        doc["provenance"] = provenance
    return doc


def document_to_encoding(
    doc: dict, *, require_valid: bool = True
) -> EncodingCandidate:
    """Parse and check a document; stabilizers are derived on success."""
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise DocumentError(f"unknown document fields: {sorted(unknown)}")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise DocumentError(
            f"unsupported schema_version {doc.get('schema_version')!r}"
        )
    layout_block = doc.get("layout")
    if not isinstance(layout_block, dict) or set(layout_block) != _LAYOUT_KEYS:
        raise DocumentError("layout block must have scheme, edge_set, qubits_per_cell")
    qpc = layout_block["qubits_per_cell"]
    if not isinstance(qpc, int) or isinstance(qpc, bool):
        raise DocumentError(f"qubits_per_cell must be an integer, got {qpc!r}")
    layout = UnitCellLayout(
        qubits_per_cell=qpc,
        scheme=scheme_from_name(layout_block["scheme"]),
        edge_set=edge_set_from_name(layout_block["edge_set"]),
    )
    gen_block = doc.get("generators")
    if not isinstance(gen_block, dict):
        raise DocumentError("generators block must be an object")
    known = set(generator_ids(layout))
    generators = {}
    for name, tokens in gen_block.items():
        gen = generator_id_from_name(name)
        if gen not in known:
            raise DocumentError(f"generator {name!r} is not part of this layout")
        if not isinstance(tokens, list):
            raise DocumentError(f"generator {name!r} must be a list of tokens")
        generators[gen] = _tokens_to_word(tokens, layout)
    enc = EncodingCandidate(layout, generators)
    violations = validate(enc)
    if violations and require_valid:
        lines = "; ".join(str(v) for v in violations[:8])
        raise DocumentError(
            f"document does not validate ({len(violations)} violations): {lines}",
            violations,
        )
    if not violations:
        enc = enc.with_stabilizers(derive_stabilizers(enc))
    if "metrics" in doc:
        enc = enc.with_metrics(metrics_from_json(doc["metrics"]))
    return enc


def dumps_document(doc: dict) -> str:
    """Compact single-line JSON, byte-stable for identical documents."""
    return json.dumps(doc, separators=(",", ":"))


def load_document(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def load_document_lines(path: str) -> list[dict]:
    docs = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                docs.append(json.loads(line))
    return docs
