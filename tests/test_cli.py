"""Command-line interface: subcommands, exit codes, output documents."""

import json

import numpy as np
import pytest

from spiderbp import cli, engine, graph
from spiderbp.algebra import DualSemiring
from spiderbp.cli import EXIT_NOT_CONVERGED, cli_dispatch

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


#: two unary factors and an equality that no state satisfies together
DEAD_SUPPORT = {
    "variables": [{"id": 0, "dim": 2}, {"id": 1, "dim": 2}],
    "factors": [
        {"id": 0, "neighbors": [0], "values": [1.0, 0.0]},
        {"id": 1, "neighbors": [1], "values": [0.0, 1.0]},
        {"id": 2, "neighbors": [0, 1], "values": [1.0, 0.0, 0.0, 1.0]},
    ],
}


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

    def test_usage_bad_max_iters(self, tmp_path, capsys):
        path = write(tmp_path, GOOD)
        for value in ("0", "-3", "2.5", "inf", "true"):
            code, out, err = run_cli(capsys, "run", "--input", path, "--max-iters", value)
            assert code == 1 and out == "", value
            assert json.loads(err)["message"].startswith("usage: "), value
        assert run_cli(capsys, "run", "--input", path, "--max-iters", "1")[0] == EXIT_NOT_CONVERGED

    def test_damping_a_model_outside_prob_is_usage(self, tmp_path, capsys):
        path = write(tmp_path, GOOD)
        for argv in (["run", "--semiring", "count"], ["map"]):
            code, out, err = run_cli(capsys, *argv, "--input", path, "--damping", "0.5")
            assert code == 1 and out == ""
            assert json.loads(err)["message"].startswith("usage: --damping needs a prob model")

    def test_a_value_error_while_reading_is_not_usage(self, tmp_path, capsys, monkeypatch):
        # only configuration errors raised before the input is read are usage
        # errors: a slip in a parser surfaces as itself, not as exit 1
        def slip(text, semiring=None):
            raise ValueError("a parser slip")

        monkeypatch.setattr(cli, "parse_native", slip)
        path = write(tmp_path, GOOD)
        with pytest.raises(ValueError, match="a parser slip"):
            cli_dispatch(["run", "--input", path])

    @pytest.mark.parametrize(
        "argv",
        [
            ["grad", "--factor", "0", "--entry", "0", "--schedule", "sync"],
            ["exact", "--tol", "1"],
            ["run", "--seed", "3"],
            ["jtree", "--schedule", "tree"],
            ["convert", "--no-normalize"],
            ["check", "--input", "x"],
        ],
    )
    def test_a_flag_the_command_does_not_read_is_1(self, tmp_path, capsys, argv):
        path = write(tmp_path, GOOD)
        if argv[0] != "check":
            argv = argv + ["--input", path]
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert "unrecognized arguments" in err

    @pytest.mark.parametrize("doc", [{"variables": 3, "factors": []}, {"variables": [], "factors": 5}])
    def test_non_list_variables_or_factors_is_2(self, tmp_path, capsys, doc):
        path = write(tmp_path, doc)
        code, out, err = run_cli(capsys, "run", "--input", path)
        assert code == 2 and out == ""
        assert "expected a list at" in err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1e-9"])
    def test_non_finite_or_negative_tol_is_1(self, tmp_path, capsys, tol):
        path = write(tmp_path, LOOPY)
        code, out, err = run_cli(capsys, "run", "--no-normalize", f"--tol={tol}", "--input", path)
        assert code == 1 and out == ""
        assert "tol must be a finite number >= 0" in err

    def test_bipartite_mode_is_2(self, tmp_path, capsys):
        path = write(tmp_path, dict(GOOD, mode="bipartite"))
        code, out, err = run_cli(capsys, "run", "--input", path)
        assert code == 2 and out == ""
        assert "one variable per wire" in err

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

    @pytest.mark.parametrize("bad", ["null", "{}", pytest.param("1" * 400, id="400-digit-int")])
    def test_malformed_native_entry_is_2(self, tmp_path, capsys, bad):
        path = write(tmp_path, json.dumps(GOOD).replace("2.0", bad))
        for semiring in ("prob", "maxtimes"):
            code, out, err = run_cli(capsys, "run", "--input", path, "--semiring", semiring)
            assert code == 2
            assert out == ""
            assert "factor 0" in err

    def test_uai_cardinality_below_one_is_2(self, tmp_path, capsys):
        # once a bare ValueError from ObjectType, reported as a usage error
        path = write(tmp_path, "MARKOV\n2\n2 0\n1\n2 0 1\n\n0\n", "g.uai")
        code, out, err = run_cli(capsys, "run", "--input", path, "--format", "uai")
        assert code == 2 and out == ""
        assert json.loads(err)["message"] == "cardinality of variable 1 must be >= 1, got 0 at byte offset 11"

    @pytest.mark.parametrize("hint", [["prob"], {"name": "prob"}])
    @pytest.mark.parametrize("command", ["run", "jtree"])
    def test_non_string_semiring_hint_is_2(self, tmp_path, capsys, command, hint):
        # once an unhashable-type TypeError that escaped cli_dispatch
        doc = {"semiring_hint": hint, "variables": [{"id": 0, "name": "a", "dim": 2}],
               "factors": [{"id": 0, "neighbors": [0], "values": [1, 2]}]}
        code, out, err = run_cli(capsys, command, "--input", write(tmp_path, doc))
        assert code == 2 and out == ""
        assert json.loads(err)["message"].startswith("semiring_hint must be a string")

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

    @pytest.mark.parametrize("command", ["run", "jtree", "exact", "map", "grad", "convert"])
    def test_dim_over_the_tensor_cap_is_5_before_any_allocation(self, tmp_path, capsys, command):
        import tracemalloc

        path = write(tmp_path, {"variables": [{"id": 0, "dim": (1 << 24) + 1}], "factors": []})
        extra = ["--factor", "0", "--entry", "0"] if command == "grad" else []
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, command, "--input", path, *extra)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 5 and out == ""
        assert "over the tensor cap" in json.loads(err)["message"]
        assert peak < 1 << 20

    def test_uai_cardinality_over_the_tensor_cap_is_5(self, tmp_path, capsys):
        path = write(tmp_path, f"MARKOV\n1\n{(1 << 24) + 1}\n0\n", "g.uai")
        assert run_cli(capsys, "run", "--input", path, "--format", "uai")[0] == 5

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

    @pytest.mark.parametrize("semiring", ["prob", "maxtimes", "count", "bool", "dual"])
    def test_one_joint_table_per_exact(self, tmp_path, capsys, monkeypatch, semiring):
        from spiderbp import cli, oracle
        from spiderbp.formats import parse_native

        doc = {
            "variables": [{"id": i, "dim": 2 + i % 2} for i in range(4)],
            "factors": [
                {"id": 0, "neighbors": [0, 1], "values": [1, 0, 1, 1, 1, 1]},
                {"id": 1, "neighbors": [1, 2], "values": [1, 1, 0, 1, 1, 1]},
                {"id": 2, "neighbors": [2, 3], "values": [1, 1, 1, 1, 0, 1]},
            ],
        }
        path = write(tmp_path, doc)
        # the document each answer gives from a joint table of its own
        g, sr = parse_native(json.dumps(doc), semiring=semiring)
        expected = json.dumps({
            "semiring": semiring,
            "contraction_value": sr.value_to_json(oracle.exact_contraction(g, sr)),
            "marginals": [
                {"id": v.id, "values": [sr.value_to_json(x) for x in oracle.exact_marginal(g, sr, v.id).tolist()]}
                for v in g.variables
            ],
        }) + "\n"
        calls = []
        original = oracle.joint_table

        def counted(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(oracle, "joint_table", counted)
        monkeypatch.setattr(cli, "joint_table", counted)
        code, out, _ = run_cli(capsys, "exact", "--input", path, "--semiring", semiring)
        assert code == 0 and len(calls) == 1
        assert out == expected


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

    def test_a_false_rank0_factor_exits_0_as_a_tree_run_does(self, tmp_path, capsys):
        # Z is false, yet every marginal keeps a true entry: no dead support
        doc = {
            "semiring_hint": "bool",
            "variables": [{"id": 0, "dim": 2}, {"id": 1, "dim": 2}],
            "factors": [
                {"id": 0, "neighbors": [], "values": [False]},
                {"id": 1, "neighbors": [0, 1], "values": [True, False, True, True]},
            ],
        }
        path = write(tmp_path, doc)
        for argv in (["run", "--schedule", "tree"], ["jtree"]):
            code, out, err = run_cli(capsys, *argv, "--input", path)
            assert (code, err) == (0, ""), argv
            assert [item["values"] for item in json.loads(out)["beliefs"]] == [[True, True]] * 2
        assert json.loads(out)["contraction_value"] is False

    @pytest.mark.parametrize(
        "flags, exit_code",
        [
            ([], 4),
            (["--semiring", "maxtimes"], 4),
            (["--semiring", "bool"], 4),
            (["--no-normalize"], 0),
            (["--semiring", "count"], 0),
        ],
    )
    def test_dead_support_by_run_bps_rule(self, tmp_path, capsys, flags, exit_code):
        path = write(tmp_path, DEAD_SUPPORT)
        code, out, err = run_cli(capsys, "jtree", "--input", path, *flags)
        assert code == exit_code
        assert run_cli(capsys, "run", "--input", path, *flags)[0] == exit_code
        assert [item["values"] for item in json.loads(out)["beliefs"]] == [[0, 0], [0, 0]]
        if exit_code:
            assert [json.loads(line)["level"] for line in err.splitlines()] == ["error"]


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

    def test_failures_report_like_run(self, tmp_path, capsys):
        # the same diagnostic as run under maxtimes, and no document
        dead = json.loads(json.dumps(GOOD))
        dead["factors"].append({"id": 1, "neighbors": [0], "values": [0.0, 0.0]})
        loopy = json.loads(json.dumps(LOOPY))
        loopy["factors"].append({"id": 3, "neighbors": [0], "values": [0.3, 0.7]})
        cases = [(write(tmp_path, dead), ["--schedule", "tree"], 4), (write(tmp_path, loopy, "loopy.json"), ["--max-iters", "1"], 3)]
        for path, flags, want in cases:
            code, out, err = run_cli(capsys, "map", "--input", path, *flags)
            assert (code, out) == (want, "")
            _, _, run_err = run_cli(capsys, "run", "--input", path, "--semiring", "maxtimes", *flags)
            assert err == run_err
        assert json.loads(run_cli(capsys, "map", "--input", cases[0][0], "--schedule", "tree")[2])["wire"] == ["f2v", 1, 0]
        assert "residual" in json.loads(err)["message"]


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

    @pytest.mark.parametrize(
        "doc, factor, entry, message",
        [
            (GOOD, "7", "0", "no factor with id 7"),
            (GOOD, "0", "-1", "entry -1 out of range for factor 0 (4 entries)"),
            (GOOD, "0", "4", "entry 4 out of range for factor 0 (4 entries)"),
            (LOOPY, "0", "0", "two-pass scheduling needs a cycle-free graph without repeated wires"),
        ],
        ids=["unknown-factor", "entry-minus-1", "entry-at-size", "loopy"],
    )
    def test_bad_target_or_loopy_model_is_2(self, tmp_path, capsys, doc, factor, entry, message):
        path = write(tmp_path, doc)
        code, out, err = run_cli(capsys, "grad", "--input", path, "--factor", factor, "--entry", entry)
        assert (code, out) == (2, "")
        assert json.loads(err) == {"level": "error", "message": message}

    def test_one_prob_two_pass_and_no_dual_code(self, tmp_path, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("grad ran dual code")

        monkeypatch.setattr(engine, "dual_seed", boom)
        for name, attr in vars(DualSemiring).items():
            if callable(attr):
                monkeypatch.setattr(DualSemiring, name, boom)
        runs = []
        two_pass = engine._Plan.two_pass

        def counted(plan, g, cfg):
            runs.append(plan.semiring.name)
            return two_pass(plan, g, cfg)

        monkeypatch.setattr(engine._Plan, "two_pass", counted)
        path = write(tmp_path, GOOD)
        code, out, _ = run_cli(capsys, "grad", "--input", path, "--factor", "0", "--entry", "2")
        assert code == 0 and runs == ["prob"]
        assert json.loads(out) == {"semiring": "dual", "factor": 0, "entry": 2, "value": 10.0, "derivative": 1.0}

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


class TestResultDocument:
    @pytest.mark.parametrize(
        "argv",
        [
            ["run"],
            ["run", "--schedule", "tree", "--no-normalize"],
            ["map"],
            ["grad", "--factor", "0", "--entry", "2"],
            ["jtree"],
            ["exact"],
        ],
    )
    def test_one_line_of_json_on_stdout_and_in_the_output_file(self, tmp_path, capsys, argv):
        path = write(tmp_path, GOOD)
        code, out, _ = run_cli(capsys, argv[0], "--input", path, *argv[1:])
        assert code == 0
        assert out.endswith("\n") and out.count("\n") == 1
        assert out == json.dumps(json.loads(out)) + "\n"
        dest = tmp_path / "out.json"
        code, quiet, _ = run_cli(capsys, argv[0], "--input", path, *argv[1:], "--output", str(dest))
        assert code == 0 and quiet == ""
        assert dest.read_bytes() == out.encode("utf-8")

    @pytest.mark.parametrize("schedule", ["tree", "sync"])
    def test_an_infinite_residual_is_null(self, tmp_path, capsys, schedule):
        # the only factor is all zero, so either schedule ends contradicted
        # with an inf residual, which JSON (RFC 8259) cannot spell
        doc = {"variables": [{"id": 0, "dim": 2}], "factors": [{"id": 0, "neighbors": [0], "values": [0.0, 0.0]}]}
        code, out, err = run_cli(capsys, "run", "--schedule", schedule, "--input", write(tmp_path, doc))

        def reject(literal):
            raise ValueError(f"{literal} is not JSON")

        parsed = json.loads(out, parse_constant=reject)
        assert code == 4
        assert (parsed["converged"], parsed["residual"]) == (False, None)
        # either run keeps the dead message: the belief is the zeros themselves
        assert parsed["beliefs"][0]["values"] == [0.0, 0.0]
        other = "sync" if schedule == "tree" else "tree"
        # the same document and the same dead wire on stderr
        assert run_cli(capsys, "run", "--schedule", other, "--input", write(tmp_path, doc)) == (code, out, err)

    @pytest.mark.parametrize("schedule", ["tree", "sync"])
    def test_a_model_without_nodes(self, tmp_path, capsys, schedule):
        path = write(tmp_path, {"variables": [], "factors": []})
        code, out, _ = run_cli(capsys, "run", "--schedule", schedule, "--input", path)
        assert code == 0
        assert json.loads(out)["beliefs"] == []
        code, out, _ = run_cli(capsys, "run", "--schedule", "tree", "--no-normalize", "--input", path)
        assert code == 0 and json.loads(out)["contraction_value"] == 1.0


def big_tables(n, edges):
    """A native document on ``n`` binary variables whose pairwise tables
    hold 1e30, or 1e20 past the first half, so unnormalized messages
    overflow to inf, at more than one level of a chain."""
    return {
        "variables": [{"id": i, "dim": 2} for i in range(n)],
        "factors": [
            {"id": k, "neighbors": list(e), "values": [1e30 if 2 * k < len(edges) else 1e20] * 4}
            for k, e in enumerate(edges)
        ],
    }


class TestDiagnosticsAreJson:
    """A numpy warning raised while a command runs is one single-line JSON
    diagnostic per distinct message, after the command's own."""

    def records(self, err):
        records = [json.loads(line) for line in err.splitlines()]
        assert all(isinstance(r, dict) and "level" in r for r in records)
        return records

    @pytest.mark.parametrize(
        "argv",
        [["run", "--schedule", "tree", "--no-normalize"], ["grad", "--factor", "0", "--entry", "0"]],
    )
    def test_overflow_warnings_on_a_tree(self, tmp_path, capsys, argv):
        path = write(tmp_path, big_tables(60, [(i, i + 1) for i in range(59)]))
        code, out, err = run_cli(capsys, argv[0], "--input", path, *argv[1:])
        assert code == 0 and out == json.dumps(json.loads(out)) + "\n"
        messages = [r["message"] for r in self.records(err) if r["level"] == "warning"]
        assert messages and len(set(messages)) == len(messages)
        assert all(m.startswith("overflow encountered in") for m in messages)

    def test_a_bayes_file_warns_once_after_the_commands_own_lines(self, tmp_path, capsys):
        path = write(tmp_path, UAI_PAIR.replace("MARKOV", "BAYES"), "g.uai")
        code, _, err = run_cli(capsys, "run", "--input", path, "--format", "uai")
        assert code == 0
        assert [(r["level"], r["message"]) for r in self.records(err)] == [
            ("warning", "BAYES network read as plain factor tables")
        ]
        code, _, err = run_cli(capsys, "grad", "--input", path, "--format", "uai", "--factor", "5", "--entry", "0")
        assert code == 2
        assert [r["level"] for r in self.records(err)] == ["error", "warning"]

    def test_warnings_follow_the_error_of_a_failed_run(self, tmp_path, capsys):
        path = write(tmp_path, big_tables(3, [(0, 1), (1, 2), (2, 0)]))
        code, _, err = run_cli(capsys, "run", "--input", path, "--no-normalize", "--max-iters", "40")
        assert code == 3
        levels = [r["level"] for r in self.records(err)]
        assert levels[0] == "error" and len(levels) > 1 and set(levels[1:]) == {"warning"}


class TestRepeatedDispatch:
    def test_usage_error_after_success_is_1(self, tmp_path, capsys):
        path = write(tmp_path, GOOD)
        assert run_cli(capsys, "run", "--input", path)[0] == 0
        assert run_cli(capsys, "run", "--input", path, "--frobnicate")[0] == 1
        assert run_cli(capsys)[0] == 1
        assert run_cli(capsys, "grad", "--input", path)[0] == 1
        assert run_cli(capsys, "run", "--input", path)[0] == 0

    def test_repeated_dispatches_give_identical_documents(self, tmp_path, capsys):
        native = write(tmp_path, GOOD)
        uai = write(tmp_path, UAI_PAIR, "g.uai")
        argvs = [
            ["run", "--input", native, "--schedule", "tree", "--no-normalize"],
            ["map", "--input", uai, "--format", "uai", "--schedule", "tree"],
            ["grad", "--input", native, "--factor", "0", "--entry", "1"],
            ["run", "--input", uai, "--format", "uai", "--semiring", "count", "--schedule", "tree"],
        ]
        first = [run_cli(capsys, *argv) for argv in argvs]
        again = [run_cli(capsys, *argv) for argv in reversed(argvs)][::-1]
        assert first == again
        assert all(code == 0 for code, _out, _err in first)


class TestValidateOnce:
    """A parsed graph is validated once per op, however many entry points
    it passes through (the parser, run_bp, contraction_value)."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--schedule", "tree"],
            ["run", "--schedule", "tree", "--no-normalize"],
            ["map", "--schedule", "tree"],
            ["grad", "--factor", "0", "--entry", "1"],
            ["run", "--semiring", "count", "--schedule", "tree", "--no-normalize"],
        ],
    )
    def test_one_validation_per_op(self, tmp_path, capsys, monkeypatch, argv):
        calls = []
        original = graph.validate_graph

        def counted(g):
            calls.append(g)
            return original(g)

        monkeypatch.setattr(graph, "validate_graph", counted)
        native = write(tmp_path, GOOD)
        uai = write(tmp_path, UAI_PAIR, "g.uai")
        for source in (["--input", native], ["--input", uai, "--format", "uai"]):
            calls.clear()
            assert run_cli(capsys, *argv, *source)[0] == 0
            assert len(calls) == 1
