"""Command-line interface: search, deform, distance, metrics, graph, export.

Search and deform runs are driven by a flat key-value config file (one
``key = value`` per line, ``#`` comments, no includes) so a run is fully
reproducible from one hashable artifact.  Exit codes: 0 success, 1 usage or
input error, 2 budget truncation.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import sys

from .connectivity import build_graph, max_degree, thickness_upper_bound, to_adjacency, to_dot
from .distance import DistanceBudget, min_distance
from .document import (
    DocumentError,
    document_to_encoding,
    dumps_document,
    encoding_to_document,
    load_document,
    load_document_lines,
    metrics_to_json,
)
from .encoding import compute_metrics, derive_stabilizers
from .fermion import HamiltonianSpec
from .lattice import UnitCellLayout, edge_set_from_name, scheme_from_name
from .search_bruteforce import (
    HoppingCapMode,
    ParetoFront,
    SearchConfig,
    brute_force_search,
)
from .search_clifford import CliffordConfig, clifford_deform_search

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_TRUNCATED = 2


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with ``EXIT_USAGE``.

    argparse's own exit code 2 would read as a budget-truncated run.
    """

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise ConfigError(f"{self.prog}: {message}")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def parse_config_file(path: str) -> dict[str, str]:
    """Flat ``key = value`` lines; '#' starts a comment; keys are unique."""
    values: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
                key, _, value = line.partition("=")
                key, value = key.strip(), value.strip()
                if not key or not value:
                    raise ConfigError(f"{path}:{lineno}: empty key or value")
                if key in values:
                    raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
                values[key] = value
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return values


def _take(values: dict[str, str], key: str, default: str | None = None) -> str | None:
    return values.pop(key, default)


def _require(values: dict[str, str], key: str, path: str) -> str:
    value = values.pop(key, None)
    if value is None:
        raise ConfigError(f"{path}: missing required key {key!r}")
    return value


def _reject_unknown(values: dict[str, str], path: str) -> None:
    if values:
        raise ConfigError(f"{path}: unknown keys {sorted(values)}")


def _parse_int(text: str, key: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"key {key!r}: expected integer, got {text!r}") from None


def _parse_float(text: str, key: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"key {key!r}: expected number, got {text!r}") from None


def _layout_from_config(values: dict[str, str], path: str) -> UnitCellLayout:
    return UnitCellLayout(
        qubits_per_cell=_parse_int(_require(values, "qubits-per-cell", path), "qubits-per-cell"),
        scheme=scheme_from_name(_require(values, "scheme", path)),
        edge_set=edge_set_from_name(_require(values, "edge-set", path)),
    )


def _cap_mode(text: str) -> HoppingCapMode:
    try:
        return HoppingCapMode(text)
    except ValueError:
        raise ConfigError(
            f"hopping-cap-mode must be 'nn' or 'nn+nnn', got {text!r}"
        ) from None


def search_config_from_file(path: str, seed_override: int | None = None) -> SearchConfig:
    values = parse_config_file(path)
    layout = _layout_from_config(values, path)
    min_logical = _take(values, "min-logical-weight")
    node_budget = _take(values, "node-budget")
    cfg = SearchConfig(
        layout=layout,
        max_vertex_weight=_parse_int(_require(values, "max-vertex-weight", path), "max-vertex-weight"),
        max_edge_or_hopping_weight=_parse_int(
            _require(values, "max-hopping-weight", path), "max-hopping-weight"
        ),
        hopping_cap_mode=_cap_mode(_take(values, "hopping-cap-mode", "nn")),
        min_distance_filter=_parse_int(_take(values, "min-distance", "1"), "min-distance"),
        min_logical_weight_filter=(
            _parse_int(min_logical, "min-logical-weight") if min_logical else None
        ),
        acceptance_probability=_parse_float(
            _take(values, "acceptance-probability", "1.0"), "acceptance-probability"
        ),
        rng_seed=(
            seed_override
            if seed_override is not None
            else _parse_int(_take(values, "seed", "0"), "seed")
        ),
        node_budget=_parse_int(node_budget, "node-budget") if node_budget else None,
    )
    _reject_unknown(values, path)
    return cfg


def clifford_config_from_file(
    path: str, seed_override: int | None = None
) -> CliffordConfig:
    values = parse_config_file(path)
    base_path = _require(values, "base", path)
    if not os.path.isabs(base_path):
        base_path = os.path.join(os.path.dirname(os.path.abspath(path)), base_path)
    base = document_to_encoding(load_document(base_path))
    max_vertex = _take(values, "max-vertex-weight")
    max_hopping = _take(values, "max-hopping-weight")
    min_logical = _take(values, "min-logical-weight")
    budget = _take(values, "sequence-budget")
    cfg = CliffordConfig(
        base=base,
        n_single_qubit_samples=_parse_int(
            _require(values, "singles-per-qubit", path), "singles-per-qubit"
        ),
        n_cnot_pairs=_parse_int(_require(values, "cnot-pairs", path), "cnot-pairs"),
        max_sequence_length=_parse_int(
            _require(values, "max-sequence-length", path), "max-sequence-length"
        ),
        rng_seed=(
            seed_override
            if seed_override is not None
            else _parse_int(_take(values, "seed", "0"), "seed")
        ),
        min_distance_filter=_parse_int(_take(values, "min-distance", "1"), "min-distance"),
        max_vertex_weight=_parse_int(max_vertex, "max-vertex-weight") if max_vertex else None,
        max_edge_or_hopping_weight=(
            _parse_int(max_hopping, "max-hopping-weight") if max_hopping else None
        ),
        hopping_cap_mode=_cap_mode(_take(values, "hopping-cap-mode", "nn")),
        min_logical_weight_filter=(
            _parse_int(min_logical, "min-logical-weight") if min_logical else None
        ),
        sequence_budget=_parse_int(budget, "sequence-budget") if budget else None,
    )
    _reject_unknown(values, path)
    return cfg


def _config_hash(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()[:16]


def _hamiltonian_from_flag(text: str) -> HamiltonianSpec:
    parts = text.split(",")
    if len(parts) != 3:
        raise ConfigError("--hamiltonian expects 't,tprime,U'")
    try:
        t, t_prime, u = (float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"--hamiltonian values must be numbers, got {text!r}") from None
    return HamiltonianSpec(t=t, t_prime=t_prime, U=u)


def _write_front(front: ParetoFront, path: str, provenance: dict | None) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for entry in front.snapshot():
            doc = encoding_to_document(entry.encoding, provenance)
            handle.write(dumps_document(doc) + "\n")


def cmd_search(args: argparse.Namespace) -> int:
    cfg = search_config_from_file(args.config, args.seed)
    provenance = {"search_config_hash": _config_hash(args.config)}
    front = ParetoFront()
    out = open(args.output, "w", encoding="utf-8") if args.output else sys.stdout

    def sink(enc) -> None:
        out.write(dumps_document(encoding_to_document(enc, provenance)) + "\n")

    try:
        report = brute_force_search(cfg, sink, final_w_max=args.w_max, front=front)
    finally:
        if out is not sys.stdout:
            out.close()
    if args.front_output:
        _write_front(front, args.front_output, provenance)
    print(json.dumps({"report": report.to_json()}))
    return EXIT_TRUNCATED if report.truncated else EXIT_OK


def cmd_deform(args: argparse.Namespace) -> int:
    cfg = clifford_config_from_file(args.config, args.seed)
    base_provenance = {"deform_config_hash": _config_hash(args.config)}
    front = ParetoFront()
    out = open(args.output, "w", encoding="utf-8") if args.output else sys.stdout

    def sink(enc, provenance) -> None:
        merged = dict(base_provenance)
        merged.update(provenance)
        out.write(dumps_document(encoding_to_document(enc, merged)) + "\n")

    try:
        report = clifford_deform_search(cfg, sink, final_w_max=args.w_max, front=front)
    finally:
        if out is not sys.stdout:
            out.close()
    if args.front_output:
        _write_front(front, args.front_output, base_provenance)
    print(json.dumps({"report": report.to_json()}))
    return EXIT_TRUNCATED if report.truncated else EXIT_OK


def cmd_distance(args: argparse.Namespace) -> int:
    enc = document_to_encoding(load_document(args.encoding))
    result = min_distance(enc, DistanceBudget(w_max=args.w_max))
    if args.format == "json":
        block = {"exact": result.value} if result.exact else {"at_least": result.value}
        print(json.dumps({"distance": block}))
    else:
        print(str(result))
    return EXIT_OK


def cmd_metrics(args: argparse.Namespace) -> int:
    enc = document_to_encoding(load_document(args.encoding))
    spec = _hamiltonian_from_flag(args.hamiltonian)
    metrics = compute_metrics(enc, spec, args.w_max)
    if args.format == "json":
        print(json.dumps({"metrics": metrics_to_json(metrics)}))
        return EXIT_OK
    print(f"distance:         {metrics.distance}")
    print(f"max_stab_weight:  {metrics.max_stab_weight}")
    print(f"sigma_nn:         {metrics.sigma_nn}")
    print(f"sigma_nnn:        {metrics.sigma_nnn}")
    print(f"qubit_ratio:      {metrics.qubit_ratio}")
    for name, w in metrics.term_weights:
        print(f"  {name}: {w}")
    return EXIT_OK


def cmd_graph(args: argparse.Namespace) -> int:
    enc = document_to_encoding(load_document(args.encoding))
    if enc.stabilizer_generators is None:
        enc = enc.with_stabilizers(derive_stabilizers(enc))
    spec = _hamiltonian_from_flag(args.hamiltonian)
    graph = build_graph(enc, spec)
    if args.format == "json":
        text = json.dumps(
            {
                "graph": to_adjacency(graph),
                "max_degree": max_degree(graph),
                "thickness_upper_bound": thickness_upper_bound(graph),
            }
        ) + "\n"
    else:
        text = to_dot(graph)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


CSV_COLUMNS = [
    "distance",
    "max_stab_weight",
    "sigma_nn",
    "sigma_nnn",
    "qubit_ratio",
    "max_degree",
    "thickness_ub",
]


def cmd_export(args: argparse.Namespace) -> int:
    docs = load_document_lines(args.front)
    spec = _hamiltonian_from_flag(args.hamiltonian)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for doc in docs:
        enc = document_to_encoding(doc)
        metrics = enc.metrics
        if metrics is None:
            metrics = compute_metrics(enc, spec, args.w_max)
            enc = enc.with_metrics(metrics)
        graph = build_graph(enc, spec)
        writer.writerow(
            [
                metrics.distance.value,
                metrics.max_stab_weight,
                float(metrics.sigma_nn),
                float(metrics.sigma_nnn),
                float(metrics.qubit_ratio),
                max_degree(graph),
                thickness_upper_bound(graph),
            ]
        )
    text = buffer.getvalue()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fqec",
        description="Search and analyze translationally invariant fermion-to-qubit encodings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_search = sub.add_parser("search", help="run the brute-force encoding search")
    p_search.add_argument("config", help="flat key-value config file")
    p_search.add_argument("--output", help="JSON-lines stream of accepted encodings")
    p_search.add_argument("--front-output", help="write the final Pareto front (canonical order)")
    p_search.add_argument("--seed", type=int, help="override the config seed")
    p_search.add_argument(
        "--w-max", type=_positive_int, default=None,
        help="distance budget for re-measuring accepted encodings",
    )
    p_search.set_defaults(func=cmd_search)

    p_deform = sub.add_parser("deform", help="run the Clifford deformation search")
    p_deform.add_argument("config", help="flat key-value config file (includes base=)")
    p_deform.add_argument("--output", help="JSON-lines stream of accepted encodings")
    p_deform.add_argument("--front-output", help="write the final Pareto front (canonical order)")
    p_deform.add_argument("--seed", type=int, help="override the config seed")
    p_deform.add_argument(
        "--w-max", type=_positive_int, default=None,
        help="distance budget for re-measuring accepted encodings",
    )
    p_deform.set_defaults(func=cmd_deform)

    p_dist = sub.add_parser("distance", help="exact distance of an encoding document")
    p_dist.add_argument("encoding", help="encoding JSON document")
    p_dist.add_argument("--w-max", type=_positive_int, default=3, help="maximum enumerated weight")
    p_dist.add_argument("--format", choices=("text", "json"), default="text")
    p_dist.set_defaults(func=cmd_distance)

    p_metrics = sub.add_parser("metrics", help="quality metrics of an encoding document")
    p_metrics.add_argument("encoding")
    p_metrics.add_argument("--hamiltonian", default="1,0,4", help="t,tprime,U couplings")
    p_metrics.add_argument("--w-max", type=_positive_int, default=3)
    p_metrics.add_argument("--format", choices=("text", "json"), default="text")
    p_metrics.set_defaults(func=cmd_metrics)

    p_graph = sub.add_parser("graph", help="qubit-connectivity graph of an encoding")
    p_graph.add_argument("encoding")
    p_graph.add_argument("--hamiltonian", default="1,0,4")
    p_graph.add_argument("--format", choices=("dot", "json"), default="dot")
    p_graph.add_argument("--output")
    p_graph.set_defaults(func=cmd_graph)

    p_export = sub.add_parser("export", help="plot-ready CSV of a front file")
    p_export.add_argument("front", help="JSON-lines file of encoding documents")
    p_export.add_argument("--hamiltonian", default="1,0,4")
    p_export.add_argument("--w-max", type=_positive_int, default=3)
    p_export.add_argument("--format", choices=("csv",), default="csv")
    p_export.add_argument("--output")
    p_export.set_defaults(func=cmd_export)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ConfigError, DocumentError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
