"""CLI contract: subcommand wiring, exit codes, JSON records, seed
resolution, overrides, and report reproduction."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from spaq.cli import main
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
        code, _, _, record = run_cli(
            capsys, "check", "--traces", str(trace_dir),
            "--property", "ci ttf(A) @ F=0.05 C=0.95",
        )
        assert code == 3
        assert record["result"]["verdict"] == "insufficient_data"

    def test_parse_error_exits_two_with_caret(self, capsys, trace_dir):
        code, _, err, _ = run_cli(
            capsys, "check", "--traces", str(trace_dir), "--property", "test bogus !!",
        )
        assert code == 2
        assert "^" in err

    def test_missing_traces_exit_two(self, capsys, tmp_path):
        code, _, err, _ = run_cli(
            capsys, "check", "--traces", str(tmp_path / "none"), "--property", "ci ttf(A)",
        )
        assert code == 2

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


class TestReport:
    def test_print_and_reproduce(self, capsys, exp2_dir):
        code, out, _, record = run_cli(capsys, "report", str(exp2_dir), "--reproduce")
        assert code == 0
        assert record["mismatches"] == []
        assert "scenario: internode_coupling" in out

    def test_tampered_report_fails_reproduction(self, capsys, exp2_dir, tmp_path):
        import shutil

        broken = tmp_path / "broken"
        shutil.copytree(exp2_dir, broken)
        doc = json.loads((broken / "report.json").read_text())
        doc["shift_test"]["n_used"] += 1
        (broken / "report.json").write_text(json.dumps(doc))
        code, _, err, record = run_cli(capsys, "report", str(broken), "--reproduce")
        assert code == 1
        assert record["mismatches"]
        assert "MISMATCH" in err

    def test_missing_report_exits_two(self, capsys, tmp_path):
        code, _, _, _ = run_cli(capsys, "report", str(tmp_path / "nowhere"))
        assert code == 2
