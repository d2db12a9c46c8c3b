"""Command-line interface: subcommands, exit codes, output documents."""

import json

import numpy as np
import pytest

from spiderbp.cli import cli_dispatch

GOOD = {
    "semiring_hint": "prob",
    "variables": [{"id": 0, "name": "a", "dim": 2}, {"id": 1, "name": "b", "dim": 2}],
    "factors": [{"id": 0, "neighbors": [0, 1], "values": [1.0, 2.0, 3.0, 4.0]}],
    "mode": "spider",
}

LOOPY = {
    "variables": [{"id": i, "dim": 2} for i in range(3)],
    "factors": [
        {"id": 0, "neighbors": [0, 1], "values": [2.0, 1.0, 1.0, 2.0]},
        {"id": 1, "neighbors": [1, 2], "values": [2.0, 1.0, 1.0, 2.0]},
        {"id": 2, "neighbors": [0, 2], "values": [2.0, 1.0, 1.0, 2.0]},
    ],
}

UAI_PAIR = """MARKOV
2
2 2
1
2 0 1

4
1.0 2.0 3.0 4.0
"""


def write(tmp_path, doc, name="g.json"):
    path = tmp_path / name
    if isinstance(doc, str):
        path.write_text(doc)
    else:
        path.write_text(json.dumps(doc))
    return str(path)


def run_cli(capsys, *argv):
    code = cli_dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRun:
    def test_basic_run(self, tmp_path, capsys):
        path = write(tmp_path, GOOD)
        code, out, err = run_cli(capsys, "run", "--input", path)
        assert code == 0
        doc = json.loads(out)
        assert doc["converged"] is True
        assert doc["semiring"] == "prob"
        assert doc["beliefs"][0] == {"id": 0, "values": [0.3, 0.7]}
        assert doc["beliefs"][1] == {"id": 1, "values": [0.4, 0.6]}

    def test_output_file(self, tmp_path, capsys):
        path = write(tmp_path, GOOD)
        dest = tmp_path / "out.json"
        code, out, _ = run_cli(capsys, "run", "--input", path, "--output", str(dest))
        assert code == 0
        assert out == ""
        assert json.loads(dest.read_text())["converged"] is True

    def test_tree_unnormalized_reports_contraction(self, tmp_path, capsys):
        path = write(tmp_path, GOOD)
        code, out, _ = run_cli(
            capsys, "run", "--input", path, "--schedule", "tree", "--no-normalize"
        )
        assert code == 0
        assert json.loads(out)["contraction_value"] == 10.0

    def test_uai_input(self, tmp_path, capsys):
        path = write(tmp_path, UAI_PAIR, "g.uai")
        code, out, _ = run_cli(capsys, "run", "--input", path, "--format", "uai")
        assert code == 0
        assert json.loads(out)["beliefs"][0]["values"] == [0.3, 0.7]

    def test_semiring_flag(self, tmp_path, capsys):
        doc = dict(GOOD)
        doc = json.loads(json.dumps(GOOD))
        del doc["semiring_hint"]
        doc["factors"][0]["values"] = [1, 0, 0, 1]
        path = write(tmp_path, doc)
        code, out, _ = run_cli(capsys, "run", "--input", path, "--semiring", "count")
        assert code == 0
        parsed = json.loads(out)
        assert parsed["semiring"] == "count"
        assert parsed["beliefs"][0]["values"] == [1, 1]


class TestExitCodes:
    def test_usage_no_command(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 1
        assert "usage" in err

    def test_usage_unknown_flag(self, tmp_path, capsys):
        path = write(tmp_path, GOOD)
        code, _, _ = run_cli(capsys, "run", "--input", path, "--frobnicate")
        assert code == 1

    def test_usage_missing_input(self, capsys):
        code, _, _ = run_cli(capsys, "run")
        assert code == 1

    def test_usage_bad_damping(self, tmp_path, capsys):
        path = write(tmp_path, GOOD)
        code, _, _ = run_cli(capsys, "run", "--input", path, "--damping", "1.5")
        assert code == 1

    def test_parse_error_is_2(self, tmp_path, capsys):
        path = write(tmp_path, "{broken")
        code, _, _ = run_cli(capsys, "run", "--input", path)
        assert code == 2

    def test_validation_error_is_2(self, tmp_path, capsys):
        doc = json.loads(json.dumps(GOOD))
        doc["factors"][0]["values"] = [1.0]
        path = write(tmp_path, doc)
        code, _, _ = run_cli(capsys, "run", "--input", path)
        assert code == 2

    def test_count_sync_on_a_cycle_is_2(self, tmp_path, capsys):
        pairs = [(a, b) for a in range(4) for b in range(a + 1, 4)]
        doc = {
            "variables": [{"id": i, "dim": 2} for i in range(4)],
            "factors": [{"id": i, "neighbors": list(p), "values": [1, 1, 1, 1]} for i, p in enumerate(pairs)],
        }
        path = write(tmp_path, doc)
        code, _, err = run_cli(capsys, "run", "--input", path, "--semiring", "count", "--max-iters", "30")
        assert code == 2
        assert "--schedule tree" in err and "jtree" in err
        code, out, _ = run_cli(capsys, "jtree", "--input", path, "--semiring", "count")
        assert code == 0
        assert json.loads(out)["contraction_value"] == 16

    def test_non_finite_value_is_2(self, tmp_path, capsys):
        native = write(tmp_path, json.dumps(GOOD).replace("2.0", "1e309"))
        uai = write(tmp_path, UAI_PAIR.replace("2.0", "1e309"), "g.uai")
        for argv in (["--input", native], ["--input", uai, "--format", "uai"]):
            code, out, err = run_cli(capsys, "run", *argv)
            assert code == 2
            assert out == ""
            assert "finite" in err

    def test_missing_file_is_2(self, tmp_path, capsys):
        code, _, _ = run_cli(capsys, "run", "--input", str(tmp_path / "nope.json"))
        assert code == 2

    def test_tree_schedule_on_loopy_graph_is_2(self, tmp_path, capsys):
        path = write(tmp_path, LOOPY)
        code, _, _ = run_cli(capsys, "run", "--input", path, "--schedule", "tree")
        assert code == 2

    def test_not_converged_is_3(self, tmp_path, capsys):
        doc = json.loads(json.dumps(GOOD))
        doc["variables"].append({"id": 2, "name": "c", "dim": 2})
        doc["factors"].append(
            {"id": 1, "neighbors": [1, 2], "values": [5.0, 6.0, 7.0, 8.0]}
        )
        path = write(tmp_path, doc)
        code, out, err = run_cli(capsys, "run", "--input", path, "--max-iters", "1")
        assert code == 3
        assert json.loads(out)["converged"] is False

    def test_contradiction_is_4(self, tmp_path, capsys):
        doc = json.loads(json.dumps(GOOD))
        doc["factors"].append({"id": 1, "neighbors": [0], "values": [0.0, 0.0]})
        path = write(tmp_path, doc)
        code, out, _ = run_cli(capsys, "run", "--input", path)
        assert code == 4

    def test_contradiction_beats_not_converged(self, tmp_path, capsys):
        doc = json.loads(json.dumps(GOOD))
        doc["factors"].append({"id": 1, "neighbors": [0], "values": [0.0, 0.0]})
        path = write(tmp_path, doc)
        code, _, _ = run_cli(capsys, "run", "--input", path, "--max-iters", "1")
        assert code == 4

    def test_size_cap_is_5(self, tmp_path, capsys):
        doc = {
            "variables": [{"id": i, "dim": 2} for i in range(25)],
            "factors": [
                {"id": 0, "neighbors": list(range(25)), "values": []}
            ],
        }
        path = write(tmp_path, doc)
        code, _, _ = run_cli(capsys, "run", "--input", path)
        assert code == 5

    def test_oracle_cap_is_5(self, tmp_path, capsys):
        doc = {
            "variables": [{"id": i, "dim": 2} for i in range(24)],
            "factors": [
                {
                    "id": i,
                    "neighbors": [i, i + 1],
                    "values": [1.0, 2.0, 3.0, 4.0],
                }
                for i in range(23)
            ],
        }
        path = write(tmp_path, doc)
        code, _, _ = run_cli(capsys, "exact", "--input", path)
        assert code == 5

    def test_diagnostics_are_single_line_json(self, tmp_path, capsys):
        path = write(tmp_path, "{broken")
        _, _, err = run_cli(capsys, "run", "--input", path)
        lines = [ln for ln in err.splitlines() if ln]
        assert lines
        for line in lines:
            record = json.loads(line)
            assert record["level"] == "error"


class TestExact:
    def test_document(self, tmp_path, capsys):
        path = write(tmp_path, GOOD)
        code, out, _ = run_cli(capsys, "exact", "--input", path)
        assert code == 0
        doc = json.loads(out)
        assert doc["contraction_value"] == 10.0
        assert doc["marginals"][0]["values"] == [3.0, 7.0]


class TestJtree:
    def test_loopy_beliefs(self, tmp_path, capsys):
        path = write(tmp_path, LOOPY)
        code, out, _ = run_cli(capsys, "jtree", "--input", path)
        assert code == 0
        doc = json.loads(out)
        assert doc["converged"] is True
        assert "contraction_value" in doc
        assert len(doc["cliques"]) >= 1
        # symmetric attractive triangle: uniform marginals
        for item in doc["beliefs"]:
            assert np.allclose(item["values"], [0.5, 0.5])

    def test_bool_unsat_is_4(self, tmp_path, capsys):
        ne = [False, True, True, False]
        doc = {
            "semiring_hint": "bool",
            "variables": [{"id": i, "dim": 2} for i in range(3)],
            "factors": [
                {"id": 0, "neighbors": [0, 1], "values": ne},
                {"id": 1, "neighbors": [1, 2], "values": ne},
                {"id": 2, "neighbors": [0, 2], "values": ne},
            ],
        }
        path = write(tmp_path, doc)
        code, out, _ = run_cli(capsys, "jtree", "--input", path, "--no-normalize")
        assert code == 4
        assert json.loads(out)["contraction_value"] is False


class TestMap:
    def test_assignment(self, tmp_path, capsys):
        path = write(tmp_path, GOOD)
        code, out, _ = run_cli(capsys, "map", "--input", path)
        assert code == 0
        doc = json.loads(out)
        assert doc["semiring"] == "maxtimes"
        assert doc["assignment"] == [{"id": 0, "state": 1}, {"id": 1, "state": 1}]
        assert doc["value"] == 4.0

    def test_conflicting_semiring_is_usage_error(self, tmp_path, capsys):
        path = write(tmp_path, GOOD)
        code, _, _ = run_cli(capsys, "map", "--input", path, "--semiring", "prob")
        assert code == 1

    def test_explicit_maxtimes_allowed(self, tmp_path, capsys):
        path = write(tmp_path, GOOD)
        code, _, _ = run_cli(capsys, "map", "--input", path, "--semiring", "maxtimes")
        assert code == 0


class TestGrad:
    def test_derivative_of_contraction(self, tmp_path, capsys):
        path = write(tmp_path, GOOD)
        code, out, _ = run_cli(
            capsys, "grad", "--input", path, "--factor", "0", "--entry", "2"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["semiring"] == "dual"
        assert doc["value"] == 10.0
        assert doc["derivative"] == 1.0  # dZ/df[1,0]: each entry appears once

    def test_entry_out_of_range_is_2(self, tmp_path, capsys):
        path = write(tmp_path, GOOD)
        code, _, _ = run_cli(
            capsys, "grad", "--input", path, "--factor", "0", "--entry", "99"
        )
        assert code == 2

    def test_requires_factor_and_entry(self, tmp_path, capsys):
        path = write(tmp_path, GOOD)
        code, _, _ = run_cli(capsys, "grad", "--input", path)
        assert code == 1

    def test_conflicting_semiring_is_usage_error(self, tmp_path, capsys):
        path = write(tmp_path, GOOD)
        code, _, _ = run_cli(
            capsys,
            "grad", "--input", path, "--factor", "0", "--entry", "0",
            "--semiring", "prob",
        )
        assert code == 1


class TestCheck:
    def test_all_suites_pass(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--seed", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] is True
        names = {s["name"] for s in doc["suites"]}
        assert "spider_fusion" in names
        assert "reshape_routes" in names
        assert any(n.startswith("semiring_axioms") for n in names)
        assert all(s["failures"] == [] for s in doc["suites"])


class TestConvert:
    def test_native_to_uai(self, tmp_path, capsys):
        path = write(tmp_path, GOOD)
        code, out, _ = run_cli(capsys, "convert", "--input", path)
        assert code == 0
        assert out.startswith("MARKOV")

    def test_uai_to_native(self, tmp_path, capsys):
        path = write(tmp_path, UAI_PAIR, "g.uai")
        code, out, _ = run_cli(capsys, "convert", "--input", path, "--format", "uai")
        assert code == 0
        doc = json.loads(out)
        assert doc["factors"][0]["values"] == [1.0, 2.0, 3.0, 4.0]

    def test_round_trip_through_uai(self, tmp_path, capsys):
        path = write(tmp_path, GOOD)
        code, uai_text, _ = run_cli(capsys, "convert", "--input", path)
        assert code == 0
        path2 = write(tmp_path, uai_text, "g.uai")
        code, native_text, _ = run_cli(
            capsys, "convert", "--input", path2, "--format", "uai"
        )
        assert code == 0
        doc = json.loads(native_text)
        assert doc["factors"][0]["values"] == GOOD["factors"][0]["values"]

    def test_output_file(self, tmp_path, capsys):
        path = write(tmp_path, GOOD)
        dest = tmp_path / "g.uai"
        code, out, _ = run_cli(capsys, "convert", "--input", path, "--output", str(dest))
        assert code == 0 and out == ""
        assert dest.read_text().startswith("MARKOV")
