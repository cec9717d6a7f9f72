"""Output checks that hold for every correct version of fqec.

Each check adds one attempt to a ``CheckLog``; each failure is kept with a
one-line reason.  ``error_ratio`` is failures over attempts.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from fractions import Fraction

CSV_HEADER = [
    "distance",
    "max_stab_weight",
    "sigma_nn",
    "sigma_nnn",
    "qubit_ratio",
    "max_degree",
    "thickness_ub",
]


class CheckLog:
    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    @property
    def error_ratio(self) -> float:
        return len(self.failures) / self.attempted if self.attempted else 0.0


def output_digest(paths: list[str]) -> str:
    """SHA-256 over the pass's output files, in the given order."""
    digest = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def _read_lines(path: str) -> list[dict]:
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _metrics_key(doc: dict) -> tuple:
    """(distance, max stabilizer weight, sigma_NN, sigma_NNN) of a document."""
    m = doc["metrics"]
    block = m["distance"]
    distance = block["exact"] if "exact" in block else block["at_least"]
    return distance, m["max_stab_weight"], Fraction(m["sigma_nn"]), Fraction(m["sigma_nnn"])


def check_stream(log: CheckLog, path: str, min_distance: int) -> None:
    """Every streamed encoding re-validates and has distance >= ``min_distance``."""
    from fqec.distance import DistanceBudget, min_distance as measure
    from fqec.document import DocumentError, document_to_encoding
    from fqec.encoding import validate

    try:
        docs = _read_lines(path)
    except ValueError as exc:
        log.check(False, f"stream is not JSON lines: {exc}")
        return
    for index, doc in enumerate(docs):
        try:
            enc = document_to_encoding(doc)
            claimed = _metrics_key(doc)[0]
        except (DocumentError, KeyError, TypeError, ValueError) as exc:
            log.check(False, f"stream line {index}: {exc}")
            continue
        log.check(validate(enc) == [], f"stream line {index} does not re-validate")
        measured = measure(enc, DistanceBudget(w_max=min_distance)).value
        log.check(
            min(measured, claimed) >= min_distance,
            f"stream line {index}: distance {measured} (claimed {claimed}) below {min_distance}",
        )


def _dominates(a: tuple, b: tuple) -> bool:
    """Distance up, weights down: at least as good everywhere, better once."""
    return a[0] >= b[0] and all(x <= y for x, y in zip(a[1:], b[1:])) and a != b


def check_front(log: CheckLog, path: str) -> None:
    """The front's entries are mutually non-dominated."""
    try:
        keys = [_metrics_key(doc) for doc in _read_lines(path)]
    except (KeyError, TypeError, ValueError) as exc:
        log.check(False, f"front metrics are unreadable: {exc}")
        return
    dominated = [
        (i, j) for i, a in enumerate(keys) for j, b in enumerate(keys) if _dominates(a, b)
    ]
    log.check(not dominated, f"front entries dominate others: {dominated[:4]}")


def check_distance(log: CheckLog, path: str, w_max: int) -> None:
    """A full-rank group has no logical: the answer is LowerBound w_max + 1."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            results = list(json.load(handle))
    except (TypeError, ValueError) as exc:
        log.check(False, f"distance results are unreadable: {exc}")
        return
    expected = f"LowerBound {w_max + 1}"
    log.check(bool(results), "no distance results")
    for index, text in enumerate(results):
        log.check(text == expected, f"distance result {index} is {text!r}, not {expected!r}")


def euler_bounds(front_path: str) -> list[int]:
    """ceil(|E| / (3|V| - 6)) of each document's connectivity graph.

    Computed here, not with ``connectivity.euler_thickness_bound``, so that a
    wrong bound in the program cannot hide a wrong thickness.
    """
    from fqec.connectivity import build_graph
    from fqec.document import document_to_encoding
    from fqec.fermion import HamiltonianSpec

    bounds = []
    for doc in _read_lines(front_path):
        graph = build_graph(document_to_encoding(doc), HamiltonianSpec(t=1.0, t_prime=0.0, U=4.0))
        n_nodes, n_edges = len(graph.nodes), len(graph.edges)
        if n_nodes < 3 or n_edges == 0:
            bounds.append(1 if n_edges else 0)
        else:
            bounds.append(math.ceil(n_edges / (3 * n_nodes - 6)))
    return bounds


def check_csv(log: CheckLog, path: str, bounds: list[int]) -> None:
    """One CSV row per document; each thickness at least its Euler bound."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    if not log.check(bool(rows) and rows[0] == CSV_HEADER, "CSV header is wrong"):
        return
    body = rows[1:]
    log.check(len(body) == len(bounds), f"CSV has {len(body)} rows for {len(bounds)} documents")
    column = CSV_HEADER.index("thickness_ub")
    for index, (row, bound) in enumerate(zip(body, bounds)):
        try:
            thickness = int(row[column])
        except (IndexError, ValueError):
            log.check(False, f"CSV row {index} has no thickness")
            continue
        log.check(thickness >= max(bound, 1), f"CSV row {index}: thickness {thickness} below {bound}")
