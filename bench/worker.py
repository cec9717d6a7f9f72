"""One benchmark pass in a fresh process.

Usage: ``python3 bench/worker.py WORKDIR [--trace] [--setup-only]``

The worker imports fqec from the checkout's ``src``, loads the pass inputs
named in ``WORKDIR/spec.json`` with the program's own loaders (together the
set-up time), runs the workload once with one worker, as the CLI does by
default, and writes the outputs next to the spec.  Its last stdout line is
a JSON record of timings, work counters and peak memory.  With ``--trace``
the calls into fqec's modules are wrapped and the spans are written to
``WORKDIR/spans.json``.
"""

import hashlib
import json
import os
import resource
import sys
import time

_clock = time.perf_counter


# fqec's modules are imported inside the functions: the import must follow
# the ``sys.path`` entry for the checkout, and the calls look names up on the
# modules at run time, so a traced pass reaches the wrappers.


def _load_config(spec, loader, hash_key):
    with open(spec["config"], "rb") as handle:
        config_hash = hashlib.sha256(handle.read()).hexdigest()[:16]
    return loader(spec["config"]), {hash_key: config_hash}


def _load_search(spec):
    from fqec import cli

    return _load_config(spec, cli.search_config_from_file, "search_config_hash")


def _load_deform(spec):
    from fqec import cli

    return _load_config(spec, cli.clifford_config_from_file, "deform_config_hash")


def _load_distance(spec):
    from fqec.encoding import EncodingCandidate
    from fqec.lattice import EdgeSet, Scheme, UnitCellLayout
    from fqec.symplectic import parse_pauli

    with open(spec["groups"], "r", encoding="utf-8") as handle:
        groups = json.load(handle)
    encodings = []
    for group in groups:
        layout = UnitCellLayout(group["qubits_per_cell"], Scheme.TWO_GRIDS, EdgeSet.NN_SQUARE)
        stabs = tuple(parse_pauli(text, layout.n_slots) for text in group["stabilizers"])
        encodings.append(EncodingCandidate(layout, {}, stabilizer_generators=stabs))
    return encodings


def _load_export(spec):
    from fqec import document

    return document.load_document_lines(spec["front"])


def _write_front(front, provenance, path):
    from fqec import document

    with open(path, "w", encoding="utf-8") as handle:
        for entry in front.snapshot():
            doc = document.encoding_to_document(entry.encoding, provenance)
            handle.write(document.dumps_document(doc) + "\n")


def _run_search(spec, inputs, record):
    """``fqec search CONFIG --output --front-output --w-max``, as cmd_search runs it."""
    from fqec import document, search_bruteforce

    cfg, provenance = inputs
    front = search_bruteforce.ParetoFront()
    start = _clock()
    with open(spec["outputs"]["stream"], "w", encoding="utf-8") as out:

        def sink(enc):
            if record["first_result_s"] is None:
                record["first_result_s"] = _clock() - start
            out.write(document.dumps_document(document.encoding_to_document(enc, provenance)) + "\n")

        report = search_bruteforce.brute_force_search(
            cfg, sink, threads=1, final_w_max=spec["w_max"], front=front
        )
    _write_front(front, provenance, spec["outputs"]["front"])
    return start, report.to_json()


def _run_deform(spec, inputs, record):
    """``fqec deform CONFIG --output --front-output --w-max``, as cmd_deform runs it."""
    from fqec import document, search_bruteforce, search_clifford

    cfg, base_provenance = inputs
    front = search_bruteforce.ParetoFront()
    start = _clock()
    with open(spec["outputs"]["stream"], "w", encoding="utf-8") as out:

        def sink(enc, provenance):
            if record["first_result_s"] is None:
                record["first_result_s"] = _clock() - start
            merged = dict(base_provenance)
            merged.update(provenance)
            out.write(document.dumps_document(document.encoding_to_document(enc, merged)) + "\n")

        report = search_clifford.clifford_deform_search(
            cfg, sink, threads=1, final_w_max=spec["w_max"], front=front
        )
    _write_front(front, base_provenance, spec["outputs"]["front"])
    counters = report.to_json()
    counters["sequences"] = counters.pop("nodes")
    return start, counters


def _run_distance(spec, inputs, record):
    """``min_distance`` at ``w_max`` on each full-rank group."""
    from fqec import distance

    budget = distance.DistanceBudget(w_max=spec["w_max"])
    results = []
    start = _clock()
    for enc in inputs:
        results.append(str(distance.min_distance(enc, budget)))
        if record["first_result_s"] is None:
            record["first_result_s"] = _clock() - start
    with open(spec["outputs"]["results"], "w", encoding="utf-8") as handle:
        json.dump(results, handle)
    return start, {"results": len(results)}


def _run_export(spec, inputs, record):
    """``fqec export FRONT --output CSV``; the CSV is its one and first result."""
    from fqec import cli

    start = _clock()
    code = cli.main(["export", spec["front"], "--output", spec["outputs"]["csv"]])
    record["first_result_s"] = _clock() - start
    if code != 0:
        raise RuntimeError(f"fqec export exited with {code}")
    return start, {"documents": len(inputs)}


WORKLOADS = {
    "search": (_load_search, _run_search),
    "deform": (_load_deform, _run_deform),
    "distance": (_load_distance, _run_distance),
    "export": (_load_export, _run_export),
}


def main(argv):
    workdir = argv[0]
    trace = "--trace" in argv[1:]
    setup_only = "--setup-only" in argv[1:]
    with open(os.path.join(workdir, "spec.json"), "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)
    load, run = WORKLOADS[spec["workload"]]

    setup_start = _clock()
    import fqec
    import fqec.cli  # imports every module of the package

    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    inputs = load(spec)
    setup_end = _clock()

    record = {
        "fqec_file": os.path.abspath(fqec.__file__),
        "setup_s": setup_end - setup_start,
        "first_result_s": None,
    }
    if not setup_only:
        start, record["counters"] = run(spec, inputs, record)
        end = _clock()
        record["wall_s"] = end - start
        record["pass_start"], record["pass_end"] = start, end
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
        with open(os.path.join(workdir, "spans.json"), "w", encoding="utf-8") as handle:
            json.dump(tracer.dump(), handle)
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
