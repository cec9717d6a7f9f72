"""CLI commands, config parsing and exit codes."""

import json
import os

import pytest

from conftest import DATA_DIR
from fqec.cli import main, parse_config_file

D2_DOC = os.path.join(DATA_DIR, "d2_nn_square.json")
D1_DOC = os.path.join(DATA_DIR, "d1_nn_square.json")

SEARCH_CONFIG = """
# toy search
scheme = two-grids
edge-set = nn-square
qubits-per-cell = 2
max-vertex-weight = 2
max-hopping-weight = 4
min-distance = 2
acceptance-probability = 1.0
seed = 7
node-budget = 400
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def deform_config(tmp_path, base_doc=D2_DOC, extra=""):
    return write(
        tmp_path,
        "deform.cfg",
        f"""
base = {base_doc}
singles-per-qubit = 2
cnot-pairs = 0
max-sequence-length = 1
seed = 3
{extra}
""",
    )


class TestConfigParsing:
    def test_flat_key_values(self, tmp_path):
        path = write(tmp_path, "a.cfg", "x = 1\n# comment\ny = two # tail\n")
        assert parse_config_file(path) == {"x": "1", "y": "two"}

    def test_duplicate_key_rejected(self, tmp_path):
        path = write(tmp_path, "a.cfg", "x = 1\nx = 2\n")
        with pytest.raises(ValueError):
            parse_config_file(path)

    def test_missing_equals_rejected(self, tmp_path):
        path = write(tmp_path, "a.cfg", "just-a-word\n")
        with pytest.raises(ValueError):
            parse_config_file(path)


class TestSearchCommand:
    def test_truncated_run_exits_two(self, tmp_path, capsys):
        cfg = write(tmp_path, "search.cfg", SEARCH_CONFIG)
        out = str(tmp_path / "out.jsonl")
        code = main(["search", cfg, "--output", out, "--w-max", "3"])
        assert code == 2  # node budget cuts the run
        report = json.loads(capsys.readouterr().out)["report"]
        assert report["truncated"]
        lines = open(out).read().splitlines()
        assert lines  # at least one encoding emitted before the cut
        for line in lines:
            doc = json.loads(line)
            assert doc["metrics"]["distance"] == {"exact": 2}
            assert "search_config_hash" in doc["provenance"]

    def test_malformed_probability_exits_one(self, tmp_path, capsys):
        cfg = write(
            tmp_path, "bad.cfg",
            SEARCH_CONFIG.replace("acceptance-probability = 1.0",
                                  "acceptance-probability = 1.5"),
        )
        assert main(["search", cfg, "--output", str(tmp_path / "o.jsonl")]) == 1

    def test_unknown_key_exits_one(self, tmp_path):
        cfg = write(tmp_path, "bad.cfg", SEARCH_CONFIG + "mystery-knob = 3\n")
        assert main(["search", cfg, "--output", str(tmp_path / "o.jsonl")]) == 1

    def test_negative_node_budget_exits_one(self, tmp_path, capsys):
        cfg = write(tmp_path, "bad.cfg", SEARCH_CONFIG.replace("node-budget = 400", "node-budget = -3"))
        assert main(["search", cfg, "--output", str(tmp_path / "o.jsonl")]) == 1
        assert "node_budget" in capsys.readouterr().err

    def test_min_logical_weight_below_one_exits_one(self, tmp_path, capsys):
        cfg = write(tmp_path, "bad.cfg", SEARCH_CONFIG + "min-logical-weight = -1\n")
        assert main(["search", cfg, "--output", str(tmp_path / "o.jsonl")]) == 1
        deform = deform_config(tmp_path, extra="min-logical-weight = 0\n")
        assert main(["deform", deform, "--output", str(tmp_path / "d.jsonl")]) == 1
        assert capsys.readouterr().err.count("min_logical_weight_filter") == 2

    def test_w_max_below_one_exits_one(self, tmp_path, capsys):
        cfg = write(tmp_path, "search.cfg", SEARCH_CONFIG)
        assert main(["search", cfg, "--output", str(tmp_path / "o.jsonl"), "--w-max", "0"]) == 1
        assert not (tmp_path / "o.jsonl").exists()

    def test_byte_identical_reruns(self, tmp_path, capsys):
        cfg = write(tmp_path, "search.cfg", SEARCH_CONFIG)
        outputs = []
        for run in range(2):
            out = str(tmp_path / f"out{run}.jsonl")
            front = str(tmp_path / f"front{run}.jsonl")
            main(["search", cfg, "--output", out, "--front-output", front, "--w-max", "3"])
            outputs.append((open(out, "rb").read(), open(front, "rb").read()))
        assert outputs[0] == outputs[1]


class TestDeformCommand:
    def test_zero_length_outputs_base(self, tmp_path, capsys):
        cfg = deform_config(tmp_path, extra="max-sequence-length = 0\n")
        # rewrite without the duplicate key
        cfg = write(
            tmp_path, "deform0.cfg",
            f"base = {D2_DOC}\nsingles-per-qubit = 2\ncnot-pairs = 0\n"
            "max-sequence-length = 0\nseed = 3\n",
        )
        out = str(tmp_path / "d.jsonl")
        assert main(["deform", cfg, "--output", out]) == 0
        lines = open(out).read().splitlines()
        assert len(lines) == 1
        emitted = json.loads(lines[0])
        base = json.load(open(D2_DOC))
        assert emitted["generators"] == base["generators"]

    def test_invalid_base_exits_one(self, tmp_path):
        broken = json.load(open(D2_DOC))
        tokens = broken["generators"]["vertex:0"]
        broken["generators"]["vertex:0"] = [tokens[0].replace(":Z", ":X")] + tokens[1:]
        base = write(tmp_path, "broken.json", json.dumps(broken))
        cfg = write(
            tmp_path, "deform.cfg",
            f"base = {base}\nsingles-per-qubit = 1\ncnot-pairs = 0\n"
            "max-sequence-length = 1\n",
        )
        assert main(["deform", cfg, "--output", str(tmp_path / "d.jsonl")]) == 1

    def test_seeded_reruns_byte_identical(self, tmp_path, capsys):
        cfg = write(
            tmp_path, "deform.cfg",
            f"base = {D2_DOC}\nsingles-per-qubit = 3\ncnot-pairs = 1\n"
            "max-sequence-length = 2\nseed = 5\nmin-distance = 1\n",
        )
        blobs = []
        for run in range(2):
            out = str(tmp_path / f"d{run}.jsonl")
            code = main(["deform", cfg, "--output", out, "--w-max", "3"])
            assert code == 0
            blobs.append(open(out, "rb").read())
        assert blobs[0] == blobs[1]

    def test_negative_sequence_budget_exits_one(self, tmp_path, capsys):
        cfg = deform_config(tmp_path, extra="sequence-budget = -2\n")
        assert main(["deform", cfg, "--output", str(tmp_path / "d.jsonl")]) == 1
        assert "sequence_budget" in capsys.readouterr().err

    def test_w_max_below_one_exits_one(self, tmp_path, capsys):
        cfg = deform_config(tmp_path)
        assert main(["deform", cfg, "--output", str(tmp_path / "d.jsonl"), "--w-max", "0"]) == 1

    def test_sequence_budget_exits_two(self, tmp_path, capsys):
        cfg = write(
            tmp_path, "deform.cfg",
            f"base = {D2_DOC}\nsingles-per-qubit = 3\ncnot-pairs = 0\n"
            "max-sequence-length = 2\nseed = 5\nsequence-budget = 3\n",
        )
        code = main(["deform", cfg, "--output", str(tmp_path / "d.jsonl")])
        assert code == 2
        report = json.loads(capsys.readouterr().out)["report"]
        assert report["truncated"] and report["nodes"] == 3


class TestUsageErrors:
    """argparse errors exit 1: exit 2 is reserved for a truncated run."""

    def test_unknown_flag_exits_one(self, tmp_path, capsys):
        cfg = write(tmp_path, "search.cfg", SEARCH_CONFIG)
        assert main(["search", cfg, "--bogus"]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_threads_flag_exits_one(self, tmp_path, capsys):
        cfg = write(tmp_path, "search.cfg", SEARCH_CONFIG)
        assert main(["search", cfg, "--threads", "4"]) == 1
        assert main(["deform", deform_config(tmp_path), "--threads", "4"]) == 1
        assert main(["distance", D2_DOC, "--threads", "4"]) == 1

    def test_non_integer_w_max_exits_one(self, tmp_path, capsys):
        cfg = write(tmp_path, "search.cfg", SEARCH_CONFIG)
        assert main(["search", cfg, "--w-max", "abc"]) == 1
        assert "--w-max" in capsys.readouterr().err


class TestDistanceCommand:
    def test_exact_two(self, capsys):
        assert main(["distance", D2_DOC, "--w-max", "3"]) == 0
        assert capsys.readouterr().out.strip() == "Exact 2"

    def test_exact_one(self, capsys):
        assert main(["distance", D1_DOC, "--w-max", "3"]) == 0
        assert capsys.readouterr().out.strip() == "Exact 1"

    def test_lower_bound_with_small_budget(self, capsys):
        assert main(["distance", D2_DOC, "--w-max", "1"]) == 0
        assert capsys.readouterr().out.strip() == "LowerBound 2"

    def test_json_format(self, capsys):
        assert main(["distance", D2_DOC, "--w-max", "3", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"distance": {"exact": 2}}

    def test_missing_file_exits_one(self, capsys):
        assert main(["distance", "/nonexistent.json"]) == 1


class TestMetricsCommand:
    def test_text_output(self, capsys):
        assert main(["metrics", D2_DOC, "--w-max", "3"]) == 0
        out = capsys.readouterr().out
        assert "distance:" in out and "qubit_ratio:" in out

    def test_json_output(self, capsys):
        assert main(["metrics", D2_DOC, "--w-max", "3", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)["metrics"]
        assert payload["distance"] == {"exact": 2}
        assert payload["qubit_ratio"] == "2"

    def test_bad_hamiltonian_flag(self, capsys):
        assert main(["metrics", D2_DOC, "--hamiltonian", "1,2"]) == 1


class TestGraphCommand:
    def test_dot_has_one_ancilla_per_cell(self, capsys):
        assert main(["graph", D2_DOC]) == 0
        dot = capsys.readouterr().out
        ancillas = [line for line in dot.splitlines() if "shape=box" in line]
        assert len(ancillas) == 9

    def test_json_format(self, tmp_path):
        out = str(tmp_path / "g.json")
        assert main(["graph", D2_DOC, "--format", "json", "--output", out]) == 0
        payload = json.loads(open(out).read())
        assert payload["max_degree"] >= 1
        assert payload["thickness_upper_bound"] >= 1


class TestExportCommand:
    def test_three_rows_and_header(self, tmp_path, capsys):
        front = tmp_path / "front.jsonl"
        doc = open(D2_DOC).read().strip()
        doc1 = open(D1_DOC).read().strip()
        front.write_text("\n".join([doc, doc1, doc]) + "\n", encoding="utf-8")
        out = str(tmp_path / "front.csv")
        assert main(["export", str(front), "--output", out, "--w-max", "3"]) == 0
        lines = open(out).read().splitlines()
        assert lines[0] == "distance,max_stab_weight,sigma_nn,sigma_nnn,qubit_ratio,max_degree,thickness_ub"
        assert len(lines) == 4
