"""Spans around calls into fqec's modules, and the per-layer numbers they give.

A traced pass rebinds every name through which fqec's modules look up a
traced function (``search_bruteforce.validate``, ``encoding.min_distance``,
``networkx.check_planarity``, ...) to a wrapper that records a span: name,
start, end, parent span and an optional note about the call.  Spans stay in
memory and are written to the work directory when the pass ends.

``symplectic`` and ``lattice`` are not wrapped: they are called about a
million times per pass, and a wrapper there would distort the trace.  Their
cost stays inside the self time of their callers.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import defaultdict

# Span name, defining module, attribute path, note taken from (args, result).
TARGETS = (
    ("cli.main", "fqec.cli", "main", None),
    ("cli.search_config_from_file", "fqec.cli", "search_config_from_file", None),
    ("cli.clifford_config_from_file", "fqec.cli", "clifford_config_from_file", None),
    ("document.load_document_lines", "fqec.document", "load_document_lines", None),
    ("document.document_to_encoding", "fqec.document", "document_to_encoding", None),
    ("document.encoding_to_document", "fqec.document", "encoding_to_document", None),
    ("search_bruteforce.brute_force_search", "fqec.search_bruteforce", "brute_force_search", None),
    ("search_bruteforce.pareto_update", "fqec.search_bruteforce", "ParetoFront.update", None),
    ("search_clifford.clifford_deform_search", "fqec.search_clifford", "clifford_deform_search", None),
    ("search_clifford.apply_clifford", "fqec.search_clifford", "apply_clifford", None),
    ("encoding.validate", "fqec.encoding", "validate", lambda args, result: int(bool(result))),
    ("encoding.derive_stabilizers", "fqec.encoding", "derive_stabilizers", None),
    ("encoding.compute_metrics", "fqec.encoding", "compute_metrics", None),
    ("fermion.hopping_weight", "fqec.fermion", "hopping_weight", None),
    ("distance.min_distance", "fqec.distance", "min_distance", None),
    (
        "distance.canonical_supports",
        "fqec.distance",
        "canonical_supports",
        lambda args, result: [args[0].n_slots, args[1], len(result)],
    ),
    ("connectivity.build_graph", "fqec.connectivity", "build_graph", lambda args, result: len(result.edges)),
    ("connectivity.thickness_upper_bound", "fqec.connectivity", "thickness_upper_bound", lambda args, result: result),
    ("connectivity.check_planarity", "networkx", "check_planarity", None),
)

# Slack of the root-span cover of a pass: the few statements of the pass
# body that are not calls into a traced function (file writes, a loop).
ROOT_COVER_MIN = 0.95
SELF_TIME_EPS = 1e-9


class Tracer:
    """Records spans of the wrapped calls of one single-threaded pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        # [name index, start, end, parent index or -1, note]
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrapper(self, name: str, fn, note):
        index = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            record = [index, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(record)
            stack.append(sid)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if note is not None:
                try:
                    record[4] = note(args, result)
                except (AttributeError, IndexError, TypeError):
                    record[4] = None
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Rebind every traced function in each module that looks it up."""
        for name, module_name, path, note in TARGETS:
            owner = sys.modules.get(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if owner is None or not callable(original):
                self.missing.append(name)
                continue
            wrapper = self._wrapper(name, original, note)
            if parents:  # a method: the class attribute is the only binding
                self._rebind(owner, attr, wrapper)
                continue
            for mod_name, module in list(sys.modules.items()):
                if mod_name == module_name or mod_name == "fqec" or mod_name.startswith("fqec."):
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._rebind(module, key, wrapper)

    def _rebind(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans, "missing": self.missing}


# ---------------------------------------------------------------------------
# Analysis of one traced pass


def span_table(trace: dict) -> list[dict]:
    """Spans with their duration and self time (duration minus child cover).

    A pass is single-threaded, so children nest inside their parent and
    never overlap each other: the covered part is the sum of their lengths.
    """
    names = trace["names"]
    rows = [
        {"name": names[n], "start": s, "end": e, "parent": p, "note": note, "dur": e - s}
        for n, s, e, p, note in trace["spans"]
    ]
    child = [0.0] * len(rows)
    for row in rows:
        if row["parent"] >= 0:
            child[row["parent"]] += row["dur"]
    for row, covered in zip(rows, child):
        row["self"] = row["dur"] - covered
    return rows


def root_cover(rows: list[dict], pass_start: float, pass_end: float) -> float:
    """Share of the pass wall time covered by its root spans."""
    roots = [r for r in rows if r["parent"] < 0 and r["start"] >= pass_start]
    return sum(r["dur"] for r in roots) / (pass_end - pass_start)


def check_trace(rows: list[dict], pass_start: float, pass_end: float) -> list[str]:
    """Consistency problems of one traced pass; empty when the trace holds."""
    problems = []
    cover = root_cover(rows, pass_start, pass_end)
    if not ROOT_COVER_MIN <= cover <= 1.0 + SELF_TIME_EPS:
        problems.append(f"root spans cover {cover:.4f} of the pass wall time")
    negative = sorted({r["name"] for r in rows if r["self"] < -SELF_TIME_EPS})
    if negative:
        problems.append(f"negative self time in {negative}")
    return problems


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# Per-layer metric -> (span name, statistic): call count, total seconds or
# self seconds of that span over the pass.
SPAN_METRICS = {
    "search_bruteforce.self_s": ("search_bruteforce.brute_force_search", "self"),
    "search_bruteforce.pareto_update.calls": ("search_bruteforce.pareto_update", "calls"),
    "search_bruteforce.pareto_update.s": ("search_bruteforce.pareto_update", "total"),
    "encoding.validate.calls": ("encoding.validate", "calls"),
    "encoding.validate.s": ("encoding.validate", "total"),
    "encoding.derive_stabilizers.calls": ("encoding.derive_stabilizers", "calls"),
    "encoding.derive_stabilizers.s": ("encoding.derive_stabilizers", "total"),
    "encoding.compute_metrics.calls": ("encoding.compute_metrics", "calls"),
    "encoding.compute_metrics.self_s": ("encoding.compute_metrics", "self"),
    "fermion.hopping_weight.calls": ("fermion.hopping_weight", "calls"),
    "fermion.hopping_weight.s": ("fermion.hopping_weight", "total"),
    "distance.min_distance.calls": ("distance.min_distance", "calls"),
    "distance.min_distance.s": ("distance.min_distance", "total"),
    "distance.canonical_supports.s": ("distance.canonical_supports", "total"),
    "search_clifford.self_s": ("search_clifford.clifford_deform_search", "self"),
    "search_clifford.apply_clifford.calls": ("search_clifford.apply_clifford", "calls"),
    "search_clifford.apply_clifford.s": ("search_clifford.apply_clifford", "total"),
    "connectivity.build_graph.calls": ("connectivity.build_graph", "calls"),
    "connectivity.build_graph.s": ("connectivity.build_graph", "total"),
    "connectivity.thickness_upper_bound.calls": ("connectivity.thickness_upper_bound", "calls"),
    "connectivity.thickness_upper_bound.s": ("connectivity.thickness_upper_bound", "total"),
    "connectivity.planarity_checks": ("connectivity.check_planarity", "calls"),
    "connectivity.planarity_s": ("connectivity.check_planarity", "total"),
    "document.document_to_encoding.calls": ("document.document_to_encoding", "calls"),
    "document.document_to_encoding.s": ("document.document_to_encoding", "total"),
    "document.encoding_to_document.calls": ("document.encoding_to_document", "calls"),
    "document.encoding_to_document.s": ("document.encoding_to_document", "total"),
}


def layer_metrics(rows: list[dict], workload: str, counters: dict) -> dict[str, float]:
    """Per-layer numbers of one traced pass (every name, zero where unused).

    ``counters`` is the pass's search report; its counts belong to the
    brute-force layer on ``search`` and to the Clifford layer on ``deform``.
    """
    stats: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0})
    notes: dict[str, list] = defaultdict(list)
    for row in rows:
        stat = stats[row["name"]]
        stat["calls"] += 1
        stat["total"] += row["dur"]
        stat["self"] += row["self"]
        notes[row["name"]].append(row["note"])
    m = {name: stats[span][stat] for name, (span, stat) in SPAN_METRICS.items()}

    search = counters if workload == "search" else {}
    nodes, completions = search.get("nodes", 0), search.get("completions", 0)
    m["search_bruteforce.nodes"] = nodes
    m["search_bruteforce.completions"] = completions
    m["search_bruteforce.emitted"] = search.get("emitted", 0)
    m["search_bruteforce.completion_ratio"] = _ratio(completions, nodes)
    m["search_bruteforce.nodes_per_self_s"] = _ratio(nodes, m["search_bruteforce.self_s"])

    deform = counters if workload == "deform" else {}
    sequences, valid = deform.get("sequences", 0), deform.get("completions", 0)
    m["search_clifford.sequences"] = sequences
    m["search_clifford.valid_ratio"] = _ratio(valid, sequences)
    m["search_clifford.unique_ratio"] = _ratio(m["search_bruteforce.pareto_update.calls"], valid)

    m["encoding.validate.reject_ratio"] = _ratio(
        sum(1 for note in notes["encoding.validate"] if note), m["encoding.validate.calls"]
    )
    m.update(error_rates(rows))
    m["connectivity.edges"] = sum(n or 0 for n in notes["connectivity.build_graph"])
    m["connectivity.thickness_sum"] = sum(n or 0 for n in notes["connectivity.thickness_upper_bound"])
    m["cli.config_load_s"] = (
        stats["cli.search_config_from_file"]["total"] + stats["cli.clifford_config_from_file"]["total"]
    )
    return m


DISTANCE_SLOTS = (27, 36)
DISTANCE_WEIGHTS = (1, 2, 3, 4)


def error_rates(rows: list[dict]) -> dict[str, float]:
    """Errors scanned and errors per second, per slot count and weight.

    A weight's scan runs from its ``canonical_supports`` call to the next
    one, or to the end of the enclosing ``min_distance`` for the last.
    """
    errors: dict[tuple[int, int], int] = defaultdict(int)
    seconds: dict[tuple[int, int], float] = defaultdict(float)
    children: dict[int, list[dict]] = defaultdict(list)
    for row in rows:
        if row["name"] == "distance.canonical_supports" and row["note"]:
            children[row["parent"]].append(row)
    for parent, calls in children.items():
        end = rows[parent]["end"] if parent >= 0 else calls[-1]["end"]
        for call, nxt in zip(calls, calls[1:] + [None]):
            n_slots, w, n_supports = call["note"]
            errors[(n_slots, w)] += n_supports * 3**w
            seconds[(n_slots, w)] += (nxt["start"] if nxt else end) - call["start"]
    m: dict[str, float] = {}
    for n_slots in DISTANCE_SLOTS:
        for w in DISTANCE_WEIGHTS:
            m[f"distance.errors.s{n_slots}.w{w}"] = errors[(n_slots, w)]
    for n_slots in DISTANCE_SLOTS:
        for w in DISTANCE_WEIGHTS:
            m[f"distance.errors_per_s.s{n_slots}.w{w}"] = _ratio(
                errors[(n_slots, w)], seconds[(n_slots, w)]
            )
    return m


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
