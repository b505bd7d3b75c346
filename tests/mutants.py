"""A table of mutants of the simulator, the trace layer, the extractors, the
statistics, the graph config reader and ``spaq report``, and a runner that
checks each is killed.

Each mutant is one exact text edit of a file under ``src/spaq``, and names
the tests that must fail once it is applied. Run it from the repository
root:

    python tests/mutants.py

The runner copies ``src``, ``tests``, ``perfbench`` (some tests import its
workloads) and ``pyproject.toml`` to a temporary directory, checks that the
named tests pass there unmutated, then applies one mutant at a time and
runs only its tests. It prints each mutant as
killed or survived, then killed/total, and exits 1 if any survived. It is
not part of the test suite; ``tests/test_mutants.py`` checks only that
each mutant's old text occurs exactly once in its file, so that a change
which moves the code must move the entry too.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


TRACE = "src/spaq/trace.py"
SIM = "src/spaq/sim.py"
TEST_TRACE = "tests/test_trace.py"
TEST_SIM = "tests/test_sim.py"
REFERENCE = f"{TEST_SIM}::TestReferenceSimulator::test_runs_and_trace_bytes_equal_the_reference"
GRAPH = "src/spaq/graph.py"
ROUND_TRIP = "tests/test_graph.py::TestConfigRoundTrip"
WRITER_KEYS = f"{ROUND_TRIP}::test_every_key_the_writer_emits_reads_back"
MALFORMED = f"{ROUND_TRIP}::test_malformed_entries_are_rejected_with_their_path"
CORRUPTED = "tests/test_graph.py::test_corrupted_configs_round_trip_or_raise_a_typed_error"

MUTANTS = (
    Mutant(
        "columns_without_the_finite_check",
        TRACE,
        '    if not np.isfinite(cols["value"][cols["has_value"]]).all():\n'
        '        raise SchemaError("event values must be finite")\n',
        "",
        (f"{TEST_TRACE}::TestFileRoundTrip::test_writer_rejects_columns_that_no_line_can_hold",
         f"{TEST_TRACE}::TestStrictReader::test_numbers_written_another_way_read_as_json_loads_reads_them"),
    ),
    Mutant(
        "columns_time_order_le",
        TRACE,
        "back = np.flatnonzero(time[1:] < time[:-1])",
        "back = np.flatnonzero(time[1:] <= time[:-1])",
        (f"{TEST_TRACE}::TestColumnarRun::test_events_come_back_from_the_columns",),
    ),
    Mutant(
        "params_without_the_repeated_name_check",
        TRACE,
        "    if len({k for k, _ in params}) < len(params):\n"
        '        raise SchemaError(f"repeated parameter name in {params!r}")\n',
        "",
        (f"{TEST_TRACE}::TestFileRoundTrip::test_writer_rejects_what_the_reader_would_reject",
         f"{TEST_TRACE}::TestFileRoundTrip::test_writer_rejects_columns_that_no_line_can_hold"),
    ),
    Mutant(
        "fast_number_takes_int_literals",
        TRACE,
        r'_NUMBER = r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:e[-+][0-9]+)?|e[-+][0-9]+)"',
        r'_NUMBER = r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:e[-+][0-9]+)?|e[-+][0-9]+)?"',
        (f"{TEST_TRACE}::TestStrictReader::test_numbers_written_another_way_read_as_json_loads_reads_them",),
    ),
    Mutant(
        "fast_number_without_exponent_only_floats",
        TRACE,
        r'_NUMBER = r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:e[-+][0-9]+)?|e[-+][0-9]+)"',
        r'_NUMBER = r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:e[-+][0-9]+)?)"',
        (f"{TEST_TRACE}::test_writer_files_are_read_on_the_fast_path",),
    ),
    Mutant(
        "event_params_unsorted",
        TRACE,
        '_sorted_params(self.params_before))\n'
        '        object.__setattr__(self, "params_after", _sorted_params(self.params_after))',
        'self.params_before)\n'
        '        object.__setattr__(self, "params_after", self.params_after)',
        (f"{TEST_TRACE}::TestEventValidation::test_params_sorted_at_construction",),
    ),
    Mutant(
        "fast_int64_takes_19_digits",
        TRACE,
        '_INT = r"(?:0|[1-9][0-9]{0,17})"',
        '_INT = r"(?:0|[1-9][0-9]{0,18})"',
        (f"{TEST_TRACE}::TestStrictReader::test_rejects_loose_event_fields",),
    ),
    Mutant(
        "fast_path_names_not_decoded",
        TRACE,
        """name = json.loads(f'"{text}"') if "\\\\" in text else text""",
        "name = text",
        (f"{TEST_TRACE}::test_writer_files_are_read_on_the_fast_path",),
    ),
    Mutant(
        "drift_sample_grid_off_by_one",
        SIM,
        "grid = range((lo // every + 1) * every - t, hi - t + 1, every)",
        "grid = range((lo // every + 1) * every - t + 1, hi - t + 1, every)",
        (f"{TEST_SIM}::TestGroundTruthTracking::test_drift_sample_grid_is_unconditional", REFERENCE),
    ),
    Mutant(
        "drift_walk_adds_the_value_last",
        "src/spaq/drift.py",
        "    increments[0] += value\n    return np.cumsum(increments, axis=0)",
        "    return np.cumsum(increments, axis=0) + value",
        ("tests/test_drift.py::TestLogistic::test_chained_splits_equal_one_call_bit_for_bit", REFERENCE),
    ),
    Mutant(
        "reset_without_the_stale_mark",
        SIM,
        "        self.changed.add(col)\n",
        "",
        (f"{TEST_SIM}::TestEpisodeStructure::test_shared_dependency_calibrated_once", REFERENCE),
    ),
    Mutant(
        "left_over_normals_dropped",
        SIM,
        "zs, self.normals = self.normals[:n], self.normals[n:]",
        "zs, self.normals = self.normals[:n], self.normals[:0]",
        (f"{TEST_SIM}::TestChunkLength::test_short_blocks_use_the_normals_left_over", REFERENCE),
    ),
    Mutant(
        "block_events_sorted_by_row_kind_node",
        SIM,
        "for j, m, kind in sorted(marks):",
        "for j, m, kind in sorted(marks, key=lambda mark: (mark[0], mark[2], mark[1])):",
        (REFERENCE, "tests/test_golden.py::test_trace_bytes"),
    ),
    Mutant(
        "sink_gate_lt",
        SIM,
        "                if due[s] <= self.t:",
        "                if due[s] < self.t:",
        (f"{TEST_SIM}::TestDeterminism::test_stepwise_execution_matches_batched_run", REFERENCE),
    ),
    Mutant(
        "next_check_searchsorted_left",
        "src/spaq/extractors.py",
        'np.searchsorted(checks, t, side="right")',
        'np.searchsorted(checks, t, side="left")',
        ("tests/test_extractors.py::TestConditions::test_window_edges_agree_with_the_oracle",
         "tests/test_extractors.py::TestOracleAgreement::test_conditions_agree_on_random_streams"),
    ),
    Mutant(
        "availability_flips_sorted_by_time_and_status",
        SIM,
        'order = np.argsort(when, kind="stable")',
        "order = np.lexsort((in_spec, when))",
        (f"{TEST_SIM}::TestAvailability::test_matches_brute_force_oracle",),
    ),
    Mutant(
        "run_columns_not_cached",
        TRACE,
        "    @cached_property\n    def columns(self)",
        "    @property\n    def columns(self)",
        ("tests/test_experiments.py::TestVerdictMatrix::test_suite_and_scan_build_each_runs_columns_once",),
    ),
    Mutant(
        "upper_tail_skips_k",
        "src/spaq/smc.py",
        "for j in range(k, n + 1)",
        "for j in range(k + 1, n + 1)",
        ("tests/test_smc.py::TestBinomialTails::test_matches_scipy",),
    ),
    Mutant(
        "config_offset_not_always_written",
        GRAPH,
        '*((ObservableSpec, name) for name in ("kind", "offset", "terms", "omega")),',
        '*((ObservableSpec, name) for name in ("kind", "terms", "omega")),',
        (WRITER_KEYS,),
    ),
    Mutant(
        "config_type_check_takes_bools",
        GRAPH,
        "if type(raw) not in ((int, float) if tp is float else (tp,)) or raw != raw:",
        "if not isinstance(raw, (int, float) if tp is float else tp) or raw != raw:",
        (f"{ROUND_TRIP}::test_integer_node_fields_must_be_exact_ints", MALFORMED),
    ),
    Mutant(
        "config_kind_without_the_linear_default",
        GRAPH,
        'keys = _keys(cls, raw.get("kind", LINEAR))',
        'keys = _keys(cls, raw.get("kind"))',
        (CORRUPTED,),
    ),
    Mutant(
        "config_observable_keys_not_per_kind",
        GRAPH,
        "    if cls is ObservableSpec and isinstance(kind, str) and kind in _OBSERVABLE_KEYS:\n"
        "        return _OBSERVABLE_KEYS[kind]\n",
        "",
        (WRITER_KEYS, MALFORMED),
    ),
    Mutant(
        "config_writer_omits_every_default",
        GRAPH,
        "if value == default and (cls, key) not in _ALWAYS:",
        "if value == default:",
        (WRITER_KEYS,),
    ),
    Mutant(
        "config_parameter_names_unchecked",
        GRAPH,
        "            if type(name) is not str:\n"
        '                raise ConfigError(f"{where}: parameter name {name!r} is not a string")\n',
        "            pass\n",
        (MALFORMED,),
    ),
    Mutant(
        "config_range_check_catches_type_errors",
        GRAPH,
        "    except ValueError as exc:\n"
        '        raise ConfigError(f"{where}: {exc}") from None',
        "    except TypeError as exc:\n"
        '        raise ConfigError(f"{where}: {exc}") from None',
        (MALFORMED, CORRUPTED),
    ),
    Mutant(
        "report_missing_field_not_refused",
        "src/spaq/cli.py",
        "            elif name == field:\n"
        '                raise SchemaError(f"{at}: missing field {name!r}")\n',
        "",
        ("tests/test_cli.py::TestReport::test_malformed_report_exits_two",),
    ),
    Mutant(
        "reproduce_skips_the_control_group",
        "src/spaq/cli.py",
        '        if "control" in recorded:\n            compared.append(',
        "        if False:\n            compared.append(",
        ("tests/test_cli.py::TestReport::test_tampered_control_group_fails_reproduction",),
    ),
)


def _pytest(cwd: Path, tests) -> int:
    env = {**os.environ, "PYTHONPATH": str(cwd / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests", "perfbench"):
            shutil.copytree(ROOT / part, work / part, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", work)
        tests = sorted({t for m in MUTANTS for t in m.tests})
        if _pytest(work, tests) != 0:
            print("the named tests fail without any mutant; fix them first", file=sys.stderr)
            return 2
        killed = 0
        for m in MUTANTS:
            path = work / m.path
            original = path.read_text()
            if original.count(m.old) != 1:
                print(f"{m.name}: old text occurs {original.count(m.old)} times in {m.path}", file=sys.stderr)
                return 2
            path.write_text(original.replace(m.old, m.new))
            try:
                code = _pytest(work, m.tests)
            finally:
                path.write_text(original)
            # exit code 1 is a test that failed; any other is an error the
            # mutant caused before its tests ran, which shows no test
            status = "killed" if code == 1 else "survived" if code == 0 else f"error (pytest exit {code})"
            killed += code == 1
            print(f"{m.name}: {status}")
    print(f"killed {killed}/{len(MUTANTS)}")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
