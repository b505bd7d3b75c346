"""CLI contract: subcommand wiring, exit codes, JSON records, seed
resolution, overrides, and report reproduction."""

from __future__ import annotations

import json
import shutil
from dataclasses import replace

import pytest
import yaml

from spaq.cli import _EXPERIMENTS, _seed_block, build_parser, main
from spaq.experiments import Exp1Config, Exp2Config, Exp3Config
from spaq.graph import builtin_config_path
from spaq.trace import read_trace


def run_cli(capsys, *argv) -> tuple[int, str, str, dict | None]:
    """Invoke main(); returns (exit code, stdout, stderr, last-line JSON)."""
    code = main(list(argv))
    out = capsys.readouterr()
    record = None
    lines = out.out.strip().splitlines()
    if lines:
        try:
            record = json.loads(lines[-1])
        except json.JSONDecodeError:
            record = None
    return code, out.out, out.err, record


@pytest.fixture(scope="module")
def trace_dir(tmp_path_factory):
    """Two short runs of the packaged coupling pair."""
    d = tmp_path_factory.mktemp("traces")
    code = main([
        "simulate", "--builtin", "internode", "--runs", "2", "--cycles", "3000",
        "--seed", "7", "-o", str(d),
    ])
    assert code == 0
    return d


@pytest.fixture(scope="module")
def exp2_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("exp2")
    code = main([
        "exp2", "--runs", "2", "--cycles", "1500", "--seed", "1", "-o", str(d),
    ])
    assert code == 0
    return d


class TestInvocation:
    def test_subcommand_validated(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_requires_subcommand(self, capsys):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2


class TestRunFlags:
    @pytest.mark.parametrize("flag", ["--cycles", "--runs", "--jobs"])
    @pytest.mark.parametrize("command", ["simulate", "scan", "exp1", "exp2", "exp3"])
    def test_zero_exits_two_before_writing(self, capsys, tmp_path, command, flag):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as err:
            main([command, flag, "0", "-o", str(out)])
        assert err.value.code == 2
        assert "expected a positive integer, got '0'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "-3"])
    @pytest.mark.parametrize(
        "command, flag",
        [("scan", "--window"), ("exp3", "--window"), ("simulate", "--hf-timeout"), ("exp1", "--hf-timeout")],
    )
    def test_window_and_hf_timeout_take_positive_integers(self, capsys, tmp_path, command, flag, value):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as err:
            main([command, flag, value, "--runs", "1", "--cycles", "500", "-o", str(out)])
        assert err.value.code == 2
        assert f"expected a positive integer, got '{value}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "1", "1.5"])
    @pytest.mark.parametrize(
        "command, flag",
        [("scan", "--p0"), ("scan", "--confidence"), ("exp1", "--confidence"), ("exp2", "--p0"),
         ("exp2", "--confidence"), ("exp3", "--p0"), ("exp3", "--confidence")],
    )
    def test_probability_flags_take_open_intervals(self, capsys, tmp_path, command, flag, value):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as err:
            main([command, flag, value, "--runs", "1", "--cycles", "500", "-o", str(out)])
        assert err.value.code == 2
        assert f"argument {flag}: expected a number in (" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["-3", "two", "1.5"])
    def test_non_positive_or_non_integer_runs_rejected(self, capsys, tmp_path, value):
        with pytest.raises(SystemExit) as err:
            main(["simulate", "--runs", value, "-o", str(tmp_path / "out")])
        assert err.value.code == 2
        assert not (tmp_path / "out").exists()


class TestSimulate:
    def test_writes_traces_and_summary(self, trace_dir):
        files = sorted(p.name for p in trace_dir.glob("*.jsonl"))
        assert files == ["run-7.jsonl", "run-8.jsonl"]
        summary = json.loads((trace_dir / "summary.json").read_text())
        assert summary["cycles"] == 3000
        assert 0.0 <= summary["availability_mean"] <= 1.0
        run = read_trace(trace_dir / "run-7.jsonl")
        assert run.meta.seed == 7 and run.meta.total_cycles == 3000

    def test_same_seed_identical_bytes(self, capsys, tmp_path):
        for sub in ("a", "b"):
            code, *_ = run_cli(
                capsys, "simulate", "--builtin", "internode", "--cycles", "400",
                "--seed", "3", "-o", str(tmp_path / sub),
            )
            assert code == 0
        assert (tmp_path / "a/run-3.jsonl").read_bytes() == (tmp_path / "b/run-3.jsonl").read_bytes()

    def test_env_seed_fallback(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("SPAQ_SEED", "4")
        code, out, _, record = run_cli(
            capsys, "simulate", "--builtin", "internode", "--cycles", "200",
            "-o", str(tmp_path / "envseed"),
        )
        assert code == 0
        assert record["runs"][0]["run_id"] == "run-4"

    def test_bad_env_seed_is_config_error(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("SPAQ_SEED", "many")
        code, _, err, _ = run_cli(
            capsys, "simulate", "--builtin", "internode", "-o", str(tmp_path / "x"),
        )
        assert code == 2
        assert "SPAQ_SEED" in err

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err, _ = run_cli(
            capsys, "simulate", "--config", str(tmp_path / "ghost.yaml"), "-o", str(tmp_path),
        )
        assert code == 2

    def test_misspelled_node_key_is_a_config_error(self, capsys, tmp_path):
        config = tmp_path / "g.yaml"
        config.write_text(builtin_config_path("xgate").read_text().replace("timeout:", "timout:", 1))
        out_dir = tmp_path / "out"
        code, out, err, _ = run_cli(capsys, "simulate", "--config", str(config), "-o", str(out_dir))
        assert code == 2
        assert err.startswith("error: nodes[0]: unknown key 'timout'") and "Traceback" not in err
        assert out == "" and not out_dir.exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            (lambda raw: yaml.safe_dump({**raw, "nodes": [{**raw["nodes"][0], "checks": 5}]}),
             "error: nodes[0].checks must be a list, got 5"),
            (lambda raw: "nodes: [\n", "error: {config}: not valid YAML: "),
        ],
        ids=["checks_not_a_list", "bad_yaml"],
    )
    def test_malformed_config_is_a_config_error(self, capsys, tmp_path, text, message):
        config = tmp_path / "g.yaml"
        config.write_text(text(yaml.safe_load(builtin_config_path("xgate").read_text())))
        out_dir = tmp_path / "out"
        code, out, err, _ = run_cli(capsys, "simulate", "--config", str(config), "-o", str(out_dir))
        assert code == 2
        assert err.startswith(message.format(config=config)) and "Traceback" not in err
        assert out == "" and not out_dir.exists()

    def test_misspelled_drift_field_is_a_config_error(self, capsys, tmp_path):
        config = tmp_path / "g.yaml"
        config.write_text(builtin_config_path("xgate").read_text().replace("sigma:", "sigmaa:", 1))
        out_dir = tmp_path / "out"
        code, out, err, _ = run_cli(capsys, "simulate", "--config", str(config), "-o", str(out_dir))
        assert code == 2
        assert err.startswith("error: nodes[0].params.") and "drift: unknown key 'sigmaa'" in err
        assert "Traceback" not in err and out == "" and not out_dir.exists()


class TestCheck:
    def test_bound_produced_exits_zero(self, capsys, trace_dir):
        code, out, _, record = run_cli(
            capsys, "check", "--traces", str(trace_dir),
            "--property", "ci ttf(A) @ F=0.5 C=0.8", "--side", "lower",
        )
        assert code == 0
        assert record["result"]["bound"] > 0
        assert "bound:" in out

    def test_does_not_hold_exits_one(self, capsys, trace_dir):
        code, _, _, record = run_cli(
            capsys, "check", "--traces", str(trace_dir),
            "--property", "test ttf(A) > 1e9 @ F=0.5 C=0.8",
        )
        assert code == 1
        assert record["result"]["verdict"] == "does_not_hold"

    def test_insufficient_data_exits_three(self, capsys, trace_dir):
        code, out, _, record = run_cli(
            capsys, "check", "--traces", str(trace_dir),
            "--property", "ci ttf(A) @ F=0.05 C=0.95",
        )
        assert code == 3
        assert record["result"] == {"verdict": "insufficient_data", "n_used": 0}
        assert record["exit_code"] == 3
        assert "verdict: insufficient_data (" in out

    def test_parse_error_exits_two_with_caret(self, capsys, trace_dir):
        code, _, err, _ = run_cli(
            capsys, "check", "--traces", str(trace_dir), "--property", "test bogus !!",
        )
        assert code == 2
        assert "^" in err

    def test_missing_traces_exit_two(self, capsys, tmp_path):
        code, _, err, _ = run_cli(
            capsys, "check", "--traces", str(tmp_path / "none"), "--property", "ci ttf(A) @ C=0.9",
        )
        assert code == 2

    def test_property_is_parsed_before_any_trace_is_read(self, capsys, tmp_path):
        not_a_trace = tmp_path / "notes.jsonl"
        not_a_trace.write_text("this is not a trace\n")
        code, _, err, _ = run_cli(
            capsys, "check", "--traces", str(not_a_trace),
            "--property", "ci ttf(A) @ C=0.9 trailing",
        )
        assert code == 2
        assert "^" in err and "trailing" in err

    def test_property_file(self, capsys, trace_dir, tmp_path):
        pf = tmp_path / "prop.txt"
        pf.write_text("ci ttf(A) @ F=0.5 C=0.8\n")
        code, _, _, record = run_cli(
            capsys, "check", "--traces", str(trace_dir), "--property-file", str(pf),
        )
        assert code == 0
        assert record["property"] == "ci ttf(A) @ F=0.5 C=0.8"


class TestScan:
    def test_scan_traces_writes_outputs(self, capsys, trace_dir, tmp_path):
        out = tmp_path / "nested" / "scan"  # missing outdir is created
        code, _, _, record = run_cli(
            capsys, "scan", "--traces", str(trace_dir), "--window", "10", "-o", str(out),
        )
        assert code == 0
        assert (out / "matrix.csv").is_file()
        doc = json.loads((out / "scan.json").read_text())
        assert {(c["response"], c["trigger"]) for c in doc["cells"]} == {("A", "B"), ("B", "A")}
        assert record["window"] == 10

    def test_scan_can_simulate(self, capsys, tmp_path):
        code, _, _, record = run_cli(
            capsys, "scan", "--builtin", "internode", "--runs", "1", "--cycles", "500",
            "--seed", "2", "-o", str(tmp_path / "s"),
        )
        assert code == 0
        assert record["source"]["runs"] == 1


class TestExperimentCommands:
    def test_exp2_report_files(self, exp2_dir):
        doc = json.loads((exp2_dir / "report.json").read_text())
        assert doc["scenario"] == "internode_coupling"
        assert (exp2_dir / "availability.csv").is_file()
        assert (exp2_dir / "node_costs.csv").is_file()
        assert (exp2_dir / "traces" / "unmerged").is_dir()

    def test_exp3_override_applies(self, capsys, tmp_path):
        code, _, _, record = run_cli(
            capsys, "exp3", "--runs", "1", "--cycles", "800", "--seed", "5",
            "--set", "window=5", "-o", str(tmp_path / "e3"),
        )
        assert code == 0
        doc = json.loads((tmp_path / "e3" / "report.json").read_text())
        assert "within 5" in doc["matrix"][0]["property"]

    def test_bad_override_exits_two(self, capsys, tmp_path):
        code, _, err, _ = run_cli(
            capsys, "exp3", "--set", "window", "-o", str(tmp_path / "x"),
        )
        assert code == 2
        assert "key=value" in err

    def test_unknown_override_field_exits_two(self, capsys, tmp_path):
        code, _, err, _ = run_cli(
            capsys, "exp3", "--set", "frobs=3", "-o", str(tmp_path / "x"),
        )
        assert code == 2
        assert "unknown config field" in err

    def test_override_of_the_wrong_type_names_the_field(self, capsys, tmp_path):
        code, _, err, _ = run_cli(
            capsys, "exp1", "--set", "n_runs=abc", "-o", str(tmp_path / "x"),
        )
        assert code == 2
        assert err == "error: --set n_runs expects an integer, got 'abc'\n"


class TestReport:
    def test_print_and_reproduce(self, capsys, exp2_dir):
        code, out, _, record = run_cli(capsys, "report", str(exp2_dir), "--reproduce")
        assert code == 0
        assert record["mismatches"] == []
        assert "scenario: internode_coupling" in out

    def test_tampered_report_fails_reproduction(self, capsys, exp2_dir, tmp_path):
        broken = tmp_path / "broken"
        shutil.copytree(exp2_dir, broken)
        doc = json.loads((broken / "report.json").read_text())
        n_used = doc["shift_test"]["n_used"]
        doc["shift_test"]["n_used"] += 1
        (broken / "report.json").write_text(json.dumps(doc))
        code, _, err, record = run_cli(capsys, "report", str(broken), "--reproduce")
        assert code == 1
        # one string per property, naming the field that differs and
        # nothing else
        assert record["mismatches"] == [f"shift_test: n_used: {n_used + 1} != {n_used}"]
        assert f"MISMATCH shift_test: n_used: {n_used + 1} != {n_used}\n" in err

    def test_missing_report_exits_two(self, capsys, tmp_path):
        code, _, _, _ = run_cli(capsys, "report", str(tmp_path / "nowhere"))
        assert code == 2

    def test_tampered_control_group_fails_reproduction(self, capsys, exp2_dir, tmp_path):
        # a control that holds withholds the merge, so the control is
        # evidence that reproduction must check too
        broken = tmp_path / "broken"
        shutil.copytree(exp2_dir, broken)
        doc = json.loads((broken / "report.json").read_text())
        control = doc["shift_test"]["control"]
        verdict, n_used = control["verdict"], control["n_used"]
        assert verdict != "holds"
        control["verdict"], control["n_used"] = "holds", n_used + 5
        (broken / "report.json").write_text(json.dumps(doc))
        code, _, err, record = run_cli(capsys, "report", str(broken), "--reproduce")
        assert code == 1
        line = f"shift_test.control: verdict: holds != {verdict}; n_used: {n_used + 5} != {n_used}"
        assert record["mismatches"] == [line]
        assert f"MISMATCH {line}\n" in err

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: [1, 2], "expected an object, got an array"),
            (lambda doc: {"scenario": "delayed_checks"}, "missing field 'availability_before'"),
            (lambda doc: {**doc, "recommendations": [3]}, "recommendations[0]: expected an object, got an integer"),
        ],
        ids=["not_an_object", "missing_field", "recommendation_not_an_object"],
    )
    def test_malformed_report_exits_two(self, capsys, exp2_dir, tmp_path, edit, message):
        path = tmp_path / "report.json"
        path.write_text(json.dumps(edit(json.loads((exp2_dir / "report.json").read_text()))))
        code, out, err, _ = run_cli(capsys, "report", str(path), "--reproduce")
        assert code == 2
        assert err == f"error: {path}: {message}\n"
        assert out == ""


def config_of(*argv):
    """The config a command builds from its flags; nothing is run."""
    ns = build_parser().parse_args(argv)
    return _seed_block(_EXPERIMENTS[ns.subcommand][0], ns)


class TestDefaults:
    """A flag not given takes its config field's default."""

    @pytest.fixture(autouse=True)
    def _no_env_seed(self, monkeypatch):
        monkeypatch.delenv("SPAQ_SEED", raising=False)

    @pytest.mark.parametrize("command, cls", [("exp1", Exp1Config), ("exp2", Exp2Config), ("exp3", Exp3Config)])
    def test_no_flags_give_the_config_class_at_seed_0(self, command, cls):
        cfg = config_of(command)
        assert type(cfg) is cls and cfg == cls() and cfg.seed == 0

    @pytest.mark.parametrize(
        "argv, field, value",
        [
            (("exp1", "--cycles", "123"), "total_cycles", 123),
            (("exp1", "--runs", "3"), "n_runs", 3),
            (("exp1", "--seed", "5"), "seed", 5),
            (("exp1", "--jobs", "2"), "jobs", 2),
            (("exp1", "--hf-timeout", "9"), "hf_timeout", 9),
            (("exp1", "--confidence", "0.9"), "confidence", 0.9),
            (("exp2", "--rel-shift", "0.2"), "rel_shift", 0.2),
            (("exp2", "--p0", "0.4"), "p0", 0.4),
            (("exp2", "--confidence", "0.99"), "confidence", 0.99),
            (("exp2", "--no-coupling"), "coupling", False),
            (("exp3", "--window", "7"), "window", 7),
            (("exp3", "--p0", "0.2"), "p0", 0.2),
            (("exp3", "--confidence", "0.8"), "confidence", 0.8),
        ],
    )
    def test_a_flag_sets_its_field(self, argv, field, value):
        assert config_of(*argv) == replace(config_of(argv[0]), **{field: value})

    def test_an_override_wins_over_a_flag(self):
        assert config_of("exp3", "--window", "7", "--set", "window=5").window == 5

    def test_scan_takes_the_scan_settings_of_exp3(self, capsys, trace_dir, tmp_path):
        code, _, _, record = run_cli(capsys, "scan", "--traces", str(trace_dir), "-o", str(tmp_path / "s"))
        assert code == 0
        defaults = Exp3Config()
        assert (record["window"], record["p0"], record["confidence"]) == (
            defaults.window, defaults.p0, defaults.confidence,
        )
