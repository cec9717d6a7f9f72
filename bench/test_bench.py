"""Tests of the benchmark itself: smoke sizes, checks that fire, trace maths.

Run from the repository root with ``python3 -m pytest -q bench``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import checks
import inputs
import run
import tracing

sys.path.insert(0, os.path.join(run.ROOT, "src"))

with open(os.path.join(run.ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)


def _result(capsys, argv: list[str]) -> dict:
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return detail | {"result": result}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(capsys, workload):
    out = _result(capsys, ["--workload", workload, "--seed", "5", "--seconds", "1", "--smoke"])
    result = out["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, out["failures"]
    names = [m["name"] for m in BENCHMARK["end_to_end"]]
    assert list(result["metrics"]) == names
    for metric in BENCHMARK["end_to_end"]:
        assert result["metrics"][metric["name"]]["value"] > 0
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert len(out["passes"]) >= run.MIN_PASSES
    assert len({p["digest"] for p in out["passes"]}) == 1
    assert len(out["setup_samples"]) == (run.SETUP_PER_PASS + 1) * len(out["passes"])
    assert out["environment"]["src_sha256"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_smoke_run_reports_every_per_layer_metric(capsys, workload):
    out = _result(
        capsys, ["--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "1", "--smoke"]
    )
    result = out["result"]
    assert result["correct"], out["failures"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert sorted(metrics) == sorted(m["name"] for m in BENCHMARK["per_layer"])
    for metric in BENCHMARK["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert [p["traced"] for p in out["passes"]][:2] == [False, True]
    assert tracing.ROOT_COVER_MIN <= metrics["trace.root_cover"] <= 1.0
    layer = {
        "search": "search_bruteforce.self_s",
        "deform": "search_clifford.self_s",
        "distance": "distance.min_distance.s",
        "export": "connectivity.planarity_s",
    }[workload]
    assert metrics[layer] > 0
    if workload == "distance":
        w_max = inputs.DISTANCE_W_MAX["smoke"]
        assert metrics[f"distance.errors.s27.w{w_max}"] > 0
        assert metrics[f"distance.errors_per_s.s36.w{w_max}"] > 0


@pytest.fixture()
def workdir(tmp_path):
    return str(tmp_path)


def test_corrupted_stream_fails_checks(workdir):
    spec = inputs.write_inputs(run.ROOT, "deform", 3, True, workdir)
    record = run.run_worker(workdir)
    log = checks.CheckLog()
    run.check_pass(log, spec, record, None)
    assert log.attempted > 0 and not log.failures
    clean_digest = record["digest"]

    with open(spec["outputs"]["stream"], "r", encoding="utf-8") as handle:
        docs = [json.loads(line) for line in handle]
    tokens = docs[0]["generators"]["vertex:0"]
    tokens[0] = tokens[0][:-1] + ("X" if tokens[0][-1] != "X" else "Z")
    with open(spec["outputs"]["stream"], "w", encoding="utf-8") as handle:
        handle.writelines(json.dumps(doc) + "\n" for doc in docs)
    corrupted = dict(record)
    log = checks.CheckLog()
    run.check_pass(log, spec, corrupted, None)
    assert log.failures and log.error_ratio > 0
    assert corrupted["digest"] != clean_digest
    run.check_repeats(log, [record, corrupted])
    assert any("digest" in f for f in log.failures)


def test_dominated_front_fails_check(workdir):
    doc = inputs.export_front(run.ROOT, 1, 2)[1]
    better, worse = json.loads(doc), json.loads(doc)
    worse["metrics"]["max_stab_weight"] += 1
    path = os.path.join(workdir, "front.jsonl")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(better) + "\n" + json.dumps(worse) + "\n")
    log = checks.CheckLog()
    checks.check_front(log, path)
    assert log.failures


def test_wrong_distance_and_short_csv_fail_checks(workdir):
    results = os.path.join(workdir, "results.json")
    with open(results, "w", encoding="utf-8") as handle:
        json.dump(["LowerBound 5", "Exact 3"], handle)
    log = checks.CheckLog()
    checks.check_distance(log, results, 4)
    assert len(log.failures) == 1

    csv_path = os.path.join(workdir, "front.csv")
    with open(csv_path, "w", encoding="utf-8") as handle:
        handle.write(",".join(checks.CSV_HEADER) + "\n2,6,4.0,4.4,2.0,9,0\n")
    log = checks.CheckLog()
    checks.check_csv(log, csv_path, [3, 3])
    assert len(log.failures) == 2  # one row for two documents; thickness 0 < 3
    assert log.error_ratio == 2 / 3


def test_inputs_are_a_function_of_the_seed(tmp_path):
    for workload in run.WORKLOADS:
        files = []
        for name, seed in (("a", 7), ("b", 7), ("c", 8)):
            target = tmp_path / workload / name
            target.mkdir(parents=True)
            spec = inputs.write_inputs(run.ROOT, workload, seed, False, str(target))
            key = {"search": "config", "deform": "config", "distance": "groups", "export": "front"}[workload]
            with open(spec[key], "rb") as handle:
                files.append(handle.read())
        assert files[0] == files[1]
        assert files[0] != files[2]


def test_self_time_and_root_cover():
    trace = {
        "names": ["outer", "inner"],
        # outer 0..10 holds inner 1..4 and inner 5..6; a second root 10..11.
        "spans": [[0, 0.0, 10.0, -1, None], [1, 1.0, 4.0, 0, None], [1, 5.0, 6.0, 0, None], [1, 10.0, 11.0, -1, None]],
        "missing": [],
    }
    rows = tracing.span_table(trace)
    assert [r["self"] for r in rows] == [6.0, 3.0, 1.0, 1.0]
    assert tracing.root_cover(rows, 0.0, 11.5) == pytest.approx(11.0 / 11.5)
    assert tracing.check_trace(rows, 0.0, 11.5) == []
    assert tracing.check_trace(rows, 0.0, 20.0)  # roots cover only 55 %
    trace["spans"][1][2] = 12.0  # a child outliving its parent
    assert any("negative" in p for p in tracing.check_trace(tracing.span_table(trace), 0.0, 12.0))


def test_tracer_wraps_and_restores():
    from fqec import cli, encoding, search_bruteforce  # noqa: F401 -- cli pulls in every module

    original = encoding.validate
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert search_bruteforce.validate is not original
        assert search_bruteforce.validate.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert search_bruteforce.validate is original and encoding.validate is original
    assert tracer.missing == []


def test_fails_without_the_program(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "search", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
