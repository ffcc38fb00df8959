"""Tests for the CI performance gate (``tools/perf_gate.py``).

The gate reads perfbench results (the last line of ``perfbench/run.py``'s
output) and the committed ``results/bench_history.jsonl``.  These tests pin
how it picks a baseline, which drops and ratios fail, that wrong outputs fail
whatever the speed, and that the committed history can serve as a baseline
for every workload ``BENCHMARK.json`` gates.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("perf_gate", ROOT / "tools" / "perf_gate.py")
perf_gate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(perf_gate)


def _result(python_ips: float, numpy_ips: float, correct: bool = True, failed: int = 0) -> dict:
    return {
        "correct": correct,
        "attempted": 20,
        "failed": failed,
        "metrics": {
            "setup_s": {"value": 1.0, "unit": "s"},
            "ips_python": {"value": python_ips, "unit": "instr/s"},
            "ips_numpy": {"value": numpy_ips, "unit": "instr/s"},
        },
    }


def _record(workload: str, commit: str, python_ips: float, numpy_ips: float) -> dict:
    return dict(_result(python_ips, numpy_ips), workload=workload, commit=commit,
                seed=perf_gate.SEED, seconds=perf_gate.SECONDS, date="2026-01-01T00:00:00+00:00")


def _output(tmp_path: Path, workload: str, result: dict) -> str:
    """A saved perfbench output: a progress line, then the result line."""
    path = tmp_path / f"{workload}.txt"
    path.write_text("host speed factor 1.0000 over 3 samples\n" + json.dumps(result) + "\n")
    return str(path)


def _history(tmp_path: Path, *records) -> str:
    path = tmp_path / "history.jsonl"
    path.write_text("".join(json.dumps(record) + "\n" for record in records))
    return str(path)


class TestRecord:
    def test_appends_the_result_with_its_run_fields(self, tmp_path, monkeypatch):
        monkeypatch.setattr(perf_gate, "current_commit", lambda: "abc123")
        history = _history(tmp_path)
        output = _output(tmp_path, "paper_grid", _result(100.0, 300.0))
        assert perf_gate.main(["record", history, output]) == 0
        (entry,) = perf_gate.load_history(history)
        assert entry["workload"] == "paper_grid"
        assert (entry["seed"], entry["seconds"]) == (2023, 15)
        assert entry["commit"] == "abc123" and entry["date"]
        assert entry["metrics"] == _result(100.0, 300.0)["metrics"]
        assert entry["correct"] is True and entry["failed"] == 0

    def test_keeps_older_lines_as_history(self, tmp_path):
        legacy = {"format": 2, "benchmark": "sweep_scenarios_smoke", "backends": {}}
        history = _history(tmp_path, legacy)
        before = Path(history).read_text()
        outputs = [_output(tmp_path, name, _result(100.0, 300.0))
                   for name in ("paper_grid", "consolidation")]
        assert perf_gate.main(["record", history, *outputs]) == 0
        text = Path(history).read_text()
        assert text.startswith(before)
        assert [r.get("workload") for r in perf_gate.load_history(history)] == [
            None, "paper_grid", "consolidation"]

    def test_refuses_a_result_whose_outputs_did_not_check(self, tmp_path, capsys):
        history = _history(tmp_path)
        good = _output(tmp_path, "paper_grid", _result(100.0, 300.0))
        bad = _output(tmp_path, "consolidation", _result(100.0, 300.0, failed=1))
        assert perf_gate.main(["record", history, good, bad]) == 1
        assert perf_gate.load_history(history) == []
        assert "not recorded" in capsys.readouterr().out


class TestCheck:
    def test_passes_within_the_bound(self, tmp_path, capsys):
        history = _history(tmp_path, _record("paper_grid", "base", 100.0, 400.0))
        output = _output(tmp_path, "paper_grid", _result(85.0, 330.0))
        assert perf_gate.main(["check", history, output]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_a_drop_of_exactly_20_percent_passes(self, tmp_path):
        history = _history(tmp_path, _record("paper_grid", "base", 100.0, 400.0))
        output = _output(tmp_path, "paper_grid", _result(80.0, 320.0))
        assert perf_gate.main(["check", history, output]) == 0

    def test_baseline_is_the_last_record_of_the_same_workload(self, tmp_path, capsys):
        history = _history(
            tmp_path,
            _record("paper_grid", "ancient", 1000.0, 4000.0),
            _record("paper_grid", "latest", 100.0, 400.0),
            _record("consolidation", "other", 1000.0, 4000.0),
            {"format": 1, "benchmark": "sweep_scenarios_smoke", "commit": "legacy"},
        )
        output = _output(tmp_path, "paper_grid", _result(100.0, 400.0))
        assert perf_gate.main(["check", history, output]) == 0
        out = capsys.readouterr().out
        assert "latest" in out
        assert "ancient" not in out and "other" not in out

    @pytest.mark.parametrize("metric", ["ips_python", "ips_numpy"])
    def test_a_drop_over_20_percent_exits_1_and_names_the_label(self, tmp_path, capsys, metric):
        history = _history(tmp_path, _record("paper_grid", "base", 100.0, 400.0))
        fresh = _result(100.0, 400.0)
        fresh["metrics"][metric]["value"] *= 0.75
        output = _output(tmp_path, "paper_grid", fresh)
        assert perf_gate.main(["check", history, output]) == 1
        out = capsys.readouterr().out
        assert f"paper_grid: {metric}" in out and "FAIL" in out
        assert perf_gate.OVERRIDE_LABEL in out

    def test_speedup_below_the_3x_floor_exits_1_and_names_the_label(self, tmp_path, capsys):
        history = _history(tmp_path, _record("consolidation", "base", 100.0, 190.0))
        output = _output(tmp_path, "consolidation", _result(100.0, 190.0))
        assert perf_gate.main(["check", history, output]) == 1
        out = capsys.readouterr().out
        assert "ips_numpy/ips_python 1.90x (floor 3.0x)  FAIL" in out
        assert perf_gate.OVERRIDE_LABEL in out

    @pytest.mark.parametrize("flaw", [{"correct": False}, {"failed": 2}])
    def test_outputs_that_did_not_check_fail_at_full_speed(self, tmp_path, capsys, flaw):
        history = _history(tmp_path, _record("paper_grid", "base", 100.0, 400.0))
        output = _output(tmp_path, "paper_grid", dict(_result(100.0, 400.0), **flaw))
        assert perf_gate.main(["check", history, output]) == 1
        out = capsys.readouterr().out
        assert "outputs did not check" in out
        # Wrong outputs are not a perf trade-off; the label does not cover them.
        assert perf_gate.OVERRIDE_LABEL not in out

    def test_every_workload_is_gated(self, tmp_path, capsys):
        history = _history(
            tmp_path,
            _record("paper_grid", "base", 100.0, 400.0),
            _record("consolidation", "base", 100.0, 400.0),
        )
        outputs = [
            _output(tmp_path, "paper_grid", _result(100.0, 400.0)),
            _output(tmp_path, "consolidation", _result(50.0, 400.0)),
        ]
        assert perf_gate.main(["check", history, *outputs]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if line.endswith("FAIL")] == [
            next(line for line in lines if line.startswith("consolidation: ips_python"))]

    def test_a_missing_workload_record_names_the_record_command(self, tmp_path, capsys):
        history = _history(tmp_path, _record("paper_grid", "base", 100.0, 400.0))
        output = _output(tmp_path, "consolidation", _result(100.0, 400.0))
        assert perf_gate.main(["check", history, output]) == 2
        err = capsys.readouterr().err
        assert "no record of workload 'consolidation'" in err
        assert f"tools/perf_gate.py record {history}" in err
        assert "--workload consolidation --seed 2023 --seconds 15 --trace 0" in err

    def test_a_corrupt_history_line_fails_with_file_and_line(self, tmp_path, capsys):
        history = tmp_path / "history.jsonl"
        history.write_text(json.dumps(_record("paper_grid", "base", 100.0, 400.0)) + "\n{torn\n")
        output = _output(tmp_path, "paper_grid", _result(100.0, 400.0))
        assert perf_gate.main(["check", str(history), output]) == 2
        assert f"{history}:2: corrupt history line" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [0.0, None])
    def test_a_zero_or_missing_throughput_is_an_error(self, tmp_path, capsys, value):
        """No division by a zero leg, and no silently ungated backend."""
        history = _history(tmp_path, _record("paper_grid", "base", 100.0, 400.0))
        fresh = _result(100.0, 400.0)
        if value is None:
            del fresh["metrics"]["ips_numpy"]
        else:
            fresh["metrics"]["ips_numpy"]["value"] = value
        output = _output(tmp_path, "paper_grid", fresh)
        assert perf_gate.main(["check", history, output]) == 2
        assert "no positive ips_numpy" in capsys.readouterr().err

    def test_an_output_without_a_result_line_is_an_error(self, tmp_path, capsys):
        history = _history(tmp_path, _record("paper_grid", "base", 100.0, 400.0))
        output = tmp_path / "paper_grid.txt"
        output.write_text("Traceback (most recent call last):\n  ...\n")
        assert perf_gate.main(["check", history, str(output)]) == 2
        assert "last line is not a perfbench result" in capsys.readouterr().err


def test_committed_history_holds_a_passing_record_for_each_gated_workload():
    """CI checks every gated workload against the committed history."""
    history_path = ROOT / "results" / "bench_history.jsonl"
    history = perf_gate.load_history(history_path)
    gated = [workload["name"] for workload in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    assert gated
    for workload in gated:
        base = perf_gate.baseline(history, workload, history_path)
        assert perf_gate.outputs_checked(base), (workload, base)
        assert (base["seed"], base["seconds"]) == (perf_gate.SEED, perf_gate.SECONDS)
        for name in perf_gate.GATED_METRICS:
            assert perf_gate.metric(base, name, workload) > 0
        # The batched backend is faster than the oracle, if not yet 3x faster.
        assert perf_gate.metric(base, "ips_numpy", workload) > perf_gate.metric(base, "ips_python", workload)
