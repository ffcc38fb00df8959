"""Tests for the zero-dependency telemetry layer (:mod:`repro.obs`).

Covers the recorder core (span nesting, parent ids, the metrics registry,
drain/merge/write round-trips), the disabled-path contract (NullRecorder
no-ops, <2% overhead against a smoke-scale sweep), the Chrome trace-event
export (deterministic, Perfetto-loadable shape), the report aggregation
(percentiles, pool utilization, cache hit rates, per-driver throughput), the
cross-process story (pool workers ship spans back and the parent merges them
under consistent parent ids), and the CLI surface (``--trace-out``,
``obs report|export``, ``--quiet``/``--verbose``).
"""

from __future__ import annotations

import json
import time

import pytest

from repro.cli import main
from repro.common.config import BTBStyle
from repro.experiments.engine import ExperimentEngine, SimJob
from repro.experiments.runner import clear_trace_cache
from repro.obs import (
    NULL_RECORDER,
    JsonlRecorder,
    NullRecorder,
    Recorder,
    get_recorder,
    read_trace,
    set_recorder,
    use_recorder,
)
from repro.obs.chrome import export_chrome, to_chrome_events
from repro.obs.report import aggregate, format_report, percentile
from repro.traces.store import TraceStore


@pytest.fixture(autouse=True)
def _clean_obs_state():
    yield
    set_recorder(None)
    clear_trace_cache()


def _tiny_job(style: BTBStyle = BTBStyle.BTBX, workload: str = "client_001") -> SimJob:
    return SimJob(
        workload=workload,
        instructions=4_000,
        warmup_instructions=1_000,
        style=style,
        fdip_enabled=True,
        budget_kib=0.90625,
    )


class TestSpanCore:
    def test_nested_spans_record_parent_ids(self):
        recorder = JsonlRecorder(origin="t")
        with recorder.span("outer") as outer:
            with recorder.span("middle") as middle:
                with recorder.span("inner", depth=3):
                    pass
            with recorder.span("sibling"):
                pass
        events = recorder.drain()
        spans = {e["name"]: e for e in events if e["type"] == "span"}
        assert spans["outer"]["parent_id"] is None
        assert spans["middle"]["parent_id"] == outer.span_id
        assert spans["inner"]["parent_id"] == middle.span_id
        assert spans["sibling"]["parent_id"] == outer.span_id
        assert spans["inner"]["attrs"] == {"depth": 3}
        # Exit order: innermost spans close (and are appended) first.
        names = [e["name"] for e in events if e["type"] == "span"]
        assert names == ["inner", "middle", "sibling", "outer"]

    def test_span_ids_are_origin_prefixed_and_unique(self):
        recorder = JsonlRecorder(origin="t")
        for _ in range(5):
            with recorder.span("x"):
                pass
        ids = [e["span_id"] for e in recorder.drain()]
        assert len(ids) == len(set(ids))
        assert all(span_id.startswith("t-") for span_id in ids)

    def test_default_origins_differ_across_recorders(self):
        """A pool worker builds one recorder per job; ids must never collide."""
        first, second = JsonlRecorder(), JsonlRecorder()
        assert first.origin != second.origin

    def test_span_durations_are_monotonic_nonnegative(self):
        recorder = JsonlRecorder(origin="t")
        with recorder.span("timed"):
            time.sleep(0.01)
        (event,) = recorder.drain()
        assert event["dur"] >= 0.01
        assert event["ts"] > 0

    def test_set_attaches_attributes_mid_span(self):
        recorder = JsonlRecorder(origin="t")
        with recorder.span("job", fixed=1) as span:
            span.set(result=42)
        (event,) = recorder.drain()
        assert event["attrs"] == {"fixed": 1, "result": 42}

    def test_emit_span_records_explicit_timing(self):
        recorder = JsonlRecorder(origin="t")
        recorder.emit_span("engine.queue_wait", ts=123.0, dur=0.5, parent_id="t-9", job="abc")
        (event,) = recorder.drain()
        assert event["ts"] == 123.0
        assert event["dur"] == 0.5
        assert event["parent_id"] == "t-9"
        assert event["attrs"] == {"job": "abc"}

    def test_current_span_id_tracks_the_open_stack(self):
        recorder = JsonlRecorder(origin="t")
        assert recorder.current_span_id() is None
        with recorder.span("outer") as outer:
            assert recorder.current_span_id() == outer.span_id
        assert recorder.current_span_id() is None


class TestMetricsRegistry:
    def test_counters_accumulate(self):
        recorder = JsonlRecorder(origin="t")
        recorder.count("jobs")
        recorder.count("jobs", 4)
        assert recorder.metrics_snapshot()["counters"] == {"jobs": 5}

    def test_gauges_keep_the_latest_value(self):
        recorder = JsonlRecorder(origin="t")
        recorder.gauge("workers", 2)
        recorder.gauge("workers", 8)
        assert recorder.metrics_snapshot()["gauges"] == {"workers": 8}

    def test_snapshot_holds_counters_and_gauges_only(self):
        recorder = JsonlRecorder(origin="t")
        recorder.count("jobs")
        recorder.gauge("workers", 2)
        assert recorder.metrics_snapshot() == {
            "counters": {"jobs": 1},
            "gauges": {"workers": 2},
        }

    def test_drain_flushes_metrics_as_sorted_events(self):
        recorder = JsonlRecorder(origin="t")
        recorder.count("b.count", 2)
        recorder.count("a.count", 1)
        recorder.gauge("g", 3.5)
        events = recorder.drain()
        assert [(e["type"], e["name"]) for e in events] == [
            ("counter", "a.count"),
            ("counter", "b.count"),
            ("gauge", "g"),
        ]
        # Drain clears everything: a second drain is empty.
        assert recorder.drain() == []


class TestNullRecorder:
    def test_null_recorder_is_disabled_and_inert(self):
        recorder = NullRecorder()
        assert recorder.enabled is False
        with recorder.span("anything", a=1) as span:
            span.set(b=2)
        assert span.span_id is None
        recorder.count("x")
        recorder.gauge("y", 1.0)

    def test_null_span_is_a_shared_singleton(self):
        assert NULL_RECORDER.span("a") is NULL_RECORDER.span("b")

    def test_recorders_satisfy_the_protocol(self):
        assert isinstance(NULL_RECORDER, Recorder)
        assert isinstance(JsonlRecorder(origin="t"), Recorder)

    def test_disabled_overhead_is_under_two_percent_of_a_sweep(self):
        """The NullRecorder path must cost <2% of a smoke-scale sweep.

        Wall-clock A/B runs are too noisy on shared runners, so the bound is
        established structurally: record one representative cell to count how
        many telemetry calls it makes per simulated instruction, micro-bench
        the disabled primitives, and check the product against the measured
        per-instruction simulation cost.
        """
        from repro.scenarios.run import execute_scenario

        recorder = JsonlRecorder(origin="t")
        started = time.perf_counter()
        with use_recorder(recorder):
            execute_scenario(
                "consolidated_server",
                style=BTBStyle.BTBX,
                instructions=8_000,
                warmup_instructions=2_000,
                budget_kib=14.5,
            )
        cell_wall_s = time.perf_counter() - started
        events = recorder.drain()
        spans = sum(1 for e in events if e["type"] == "span")
        counter_calls = sum(e["value"] for e in events if e["type"] == "counter")
        calls = spans + counter_calls
        assert spans > 0

        rounds = 100_000
        started = time.perf_counter()
        for _ in range(rounds):
            with NULL_RECORDER.span("bench", attr=1):
                pass
            NULL_RECORDER.count("bench")
        per_call_s = (time.perf_counter() - started) / (2 * rounds)

        overhead_s = calls * per_call_s
        assert overhead_s < 0.02 * cell_wall_s, (
            f"{calls} disabled telemetry calls at {per_call_s * 1e6:.3f}us each "
            f"cost {overhead_s:.6f}s against a {cell_wall_s:.3f}s cell"
        )


class TestActiveRecorderPlumbing:
    def test_default_recorder_is_the_null_singleton(self):
        assert get_recorder() is NULL_RECORDER

    def test_use_recorder_scopes_and_restores(self):
        recorder = JsonlRecorder(origin="t")
        with use_recorder(recorder):
            assert get_recorder() is recorder
        assert get_recorder() is NULL_RECORDER

    def test_set_recorder_none_restores_the_null_recorder(self):
        set_recorder(JsonlRecorder(origin="t"))
        set_recorder(None)
        assert get_recorder() is NULL_RECORDER


class TestMergeAndSerialization:
    def test_merge_reparents_worker_root_spans(self):
        parent = JsonlRecorder(origin="parent")
        worker = JsonlRecorder(origin="worker")
        with worker.span("engine.execute"):
            with worker.span("job.simulate"):
                pass
        shipped = worker.drain()
        with parent.span("engine.run_jobs") as run_span:
            parent.merge(shipped, parent_id=run_span.span_id)
        events = parent.drain()
        spans = {e["name"]: e for e in events if e["type"] == "span"}
        assert spans["engine.execute"]["parent_id"] == run_span.span_id
        # Non-root worker spans keep their original parent.
        assert spans["job.simulate"]["parent_id"] == spans["engine.execute"]["span_id"]
        ids = [e["span_id"] for e in events if e["type"] == "span"]
        assert len(ids) == len(set(ids))

    def test_merge_does_not_mutate_the_shipped_events(self):
        worker = JsonlRecorder(origin="worker")
        with worker.span("root"):
            pass
        shipped = worker.drain()
        JsonlRecorder(origin="parent").merge(shipped, parent_id="parent-0")
        assert shipped[0]["parent_id"] is None

    def test_write_read_round_trip(self, tmp_path):
        recorder = JsonlRecorder(origin="t")
        with recorder.span("a", k="v"):
            pass
        recorder.count("c", 3)
        path = recorder.write(tmp_path / "trace.jsonl")
        events = read_trace(path)
        assert [e["type"] for e in events] == ["span", "counter"]
        assert events[0]["attrs"] == {"k": "v"}
        assert events[1]["value"] == 3


class TestChromeExport:
    def _sample_events(self):
        recorder = JsonlRecorder(origin="p1")
        with recorder.span("engine.run_jobs", jobs=2):
            with recorder.span("engine.execute"):
                pass
        recorder.count("engine.executed", 2)
        return recorder.drain()

    def test_spans_become_complete_events(self):
        events = self._sample_events()
        chrome = to_chrome_events(events)
        complete = [e for e in chrome if e["ph"] == "X"]
        assert {e["name"] for e in complete} == {"engine.run_jobs", "engine.execute"}
        for event in complete:
            assert event["cat"] == "engine"
            assert event["tid"] == "p1"
            assert event["ts"] >= 0.0
            assert "span_id" in event["args"]

    def test_counters_become_counter_events(self):
        chrome = to_chrome_events(self._sample_events())
        (counter,) = [e for e in chrome if e["ph"] == "C"]
        assert counter["name"] == "engine.executed"
        assert counter["args"] == {"value": 2}
        assert counter["tid"] == "metrics"

    def test_export_is_deterministic_and_loadable(self, tmp_path):
        events = self._sample_events()
        first = export_chrome(events, tmp_path / "a.json")
        second = export_chrome(events, tmp_path / "b.json")
        assert first.read_bytes() == second.read_bytes()
        document = json.loads(first.read_text())
        assert document["displayTimeUnit"] == "ms"
        assert isinstance(document["traceEvents"], list)
        assert document["traceEvents"]

    def test_empty_trace_exports_cleanly(self, tmp_path):
        path = export_chrome([], tmp_path / "empty.json")
        assert json.loads(path.read_text())["traceEvents"] == []


class TestReport:
    def test_percentile_is_nearest_rank(self):
        assert percentile([], 0.5) == 0.0
        assert percentile([3.0], 0.95) == 3.0
        values = [float(v) for v in range(1, 11)]
        # index = round(q * (n - 1)): banker's rounding puts the median at 5.
        assert percentile(values, 0.50) == 5.0
        assert percentile(values, 0.95) == 10.0

    def test_aggregate_builds_phase_table_and_derived_sections(self):
        recorder = JsonlRecorder(origin="t")
        recorder.gauge("engine.workers", 2)
        recorder.count("engine.submitted", 4)
        recorder.count("engine.memo_hits", 1)
        recorder.count("engine.disk_hits", 1)
        recorder.count("engine.executed", 2)
        recorder.count("trace.store.hits", 3)
        recorder.count("trace.store.misses", 1)
        recorder.emit_span("engine.run_jobs", ts=0.0, dur=2.0)
        recorder.emit_span("engine.execute", ts=0.0, dur=1.0)
        recorder.emit_span("engine.execute", ts=1.0, dur=1.0)
        recorder.emit_span("driver.fig09", ts=0.0, dur=2.0, instructions=1_000_000)
        report = aggregate(recorder.drain())
        assert report["phases"]["engine.execute"] == {
            "count": 2, "total_s": 2.0, "p50_s": 1.0, "p95_s": 1.0,
        }
        assert report["pool"] == {
            "workers": 2,
            "run_jobs_wall_s": 2.0,
            "execute_busy_s": 2.0,
            "utilization": 0.5,
        }
        assert report["caches"]["engine"]["hit_rate"] == 0.5
        assert report["caches"]["trace_store"]["hit_rate"] == 0.75
        assert report["drivers"]["fig09"]["ips"] == 500_000.0

    def test_format_report_renders_the_sections(self):
        recorder = JsonlRecorder(origin="t")
        recorder.emit_span("scenario.simulate", ts=0.0, dur=1.5)
        recorder.count("engine.submitted", 2)
        recorder.count("engine.executed", 2)
        text = format_report(aggregate(recorder.drain()))
        assert "phase" in text and "scenario.simulate" in text
        assert "engine cache: 2 submitted" in text
        assert "counters:" in text


class TestTraceBuildSpans:
    def test_store_miss_splits_build_into_program_and_walk(self):
        recorder = JsonlRecorder(origin="t")
        store = TraceStore()
        with use_recorder(recorder):
            store.get("client_001", 2_000)
            store.get("client_001", 2_000)  # a hit records no build spans
        events = recorder.drain()
        spans = [e for e in events if e["type"] == "span"]
        builds = [s for s in spans if s["name"] == "trace.build"]
        assert len(builds) == 1
        children = sorted(s["name"] for s in spans if s["parent_id"] == builds[0]["span_id"])
        assert children == ["trace.program", "trace.walk"]
        phases = aggregate(events)["phases"]
        assert phases["trace.program"]["count"] == phases["trace.walk"]["count"] == 1


class TestEngineIntegration:
    def test_inline_run_records_engine_and_job_spans(self, tmp_path):
        recorder = JsonlRecorder(origin="t")
        with use_recorder(recorder):
            ExperimentEngine(workers=1, cache_dir=tmp_path / "cache").run_jobs(
                [_tiny_job()]
            )
        events = recorder.drain()
        names = {e["name"] for e in events if e["type"] == "span"}
        assert {"engine.run_jobs", "engine.memo_lookup", "engine.cache_read",
                "engine.execute", "job.simulate", "engine.cache_write"} <= names
        counters = {e["name"]: e["value"] for e in events if e["type"] == "counter"}
        assert counters["engine.submitted"] == 1
        assert counters["engine.executed"] == 1

    def test_memo_hits_are_counted_not_reexecuted(self, tmp_path):
        recorder = JsonlRecorder(origin="t")
        engine = ExperimentEngine(workers=1, cache_dir=tmp_path / "cache")
        with use_recorder(recorder):
            engine.run_jobs([_tiny_job()])
            engine.run_jobs([_tiny_job()])
        counters = {
            e["name"]: e["value"] for e in recorder.drain() if e["type"] == "counter"
        }
        assert counters["engine.memo_hits"] == 1
        assert counters["engine.executed"] == 1

    def test_pooled_run_merges_worker_spans_under_run_jobs(self, tmp_path):
        jobs = [_tiny_job(style) for style in (BTBStyle.BTBX, BTBStyle.CONVENTIONAL)]
        recorder = JsonlRecorder(origin="parent")
        with use_recorder(recorder):
            ExperimentEngine(workers=2, cache_dir=tmp_path / "cache").run_jobs(jobs)
        events = recorder.drain()
        spans = [e for e in events if e["type"] == "span"]
        ids = [s["span_id"] for s in spans]
        assert len(ids) == len(set(ids)), "span ids must be globally unique"
        id_set = set(ids)
        assert all(
            s["parent_id"] is None or s["parent_id"] in id_set for s in spans
        ), "merged trace must not dangle parent ids"
        (run_jobs,) = [s for s in spans if s["name"] == "engine.run_jobs"]
        executes = [s for s in spans if s["name"] == "engine.execute"]
        assert len(executes) == 2
        assert all(s["parent_id"] == run_jobs["span_id"] for s in executes)
        assert any(s["pid"] != run_jobs["pid"] for s in executes), (
            "worker spans must come from worker processes"
        )
        waits = [s for s in spans if s["name"] == "engine.queue_wait"]
        assert len(waits) == 2
        assert all(s["parent_id"] == run_jobs["span_id"] for s in waits)

    def test_pooled_run_ships_no_telemetry_when_disabled(self, tmp_path):
        """The worker return stays lean (no third-element payload) when off."""
        summary = ExperimentEngine(workers=2, cache_dir=tmp_path / "cache").run_jobs(
            [_tiny_job()]
        )
        assert summary
        assert get_recorder() is NULL_RECORDER


class TestCliSurface:
    def test_trace_out_writes_a_jsonl_trace(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        assert main(
            ["scenario", "run", "noisy_neighbor", "--scale", "smoke",
             "--cache-dir", str(tmp_path / "cache"), "--trace-out", str(trace)]
        ) == 0
        events = read_trace(trace)
        names = {e["name"] for e in events if e["type"] == "span"}
        assert "scenario.simulate" in names and "scenario.compose" in names
        assert f"(telemetry trace written to {trace})" in capsys.readouterr().out

    def test_obs_export_converts_a_recorded_run(self, tmp_path):
        trace = tmp_path / "run.jsonl"
        chrome = tmp_path / "run.chrome.json"
        assert main(
            ["scenario", "run", "noisy_neighbor", "--scale", "smoke",
             "--cache-dir", str(tmp_path / "cache"), "--trace-out", str(trace)]
        ) == 0
        assert main(["obs", "export", str(trace), "--out", str(chrome)]) == 0
        document = json.loads(chrome.read_text())
        assert document["traceEvents"] == to_chrome_events(read_trace(trace))
        assert "scenario.simulate" in {e["name"] for e in document["traceEvents"]}

    def test_trace_format_is_not_an_option(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["scenario", "run", "noisy_neighbor", "--scale", "smoke",
                  "--trace-out", str(tmp_path / "t.json"), "--trace-format", "chrome"])

    def test_obs_report_renders_phase_table(self, tmp_path, capsys):
        recorder = JsonlRecorder(origin="t")
        recorder.emit_span("scenario.simulate", ts=0.0, dur=1.0)
        recorder.count("engine.submitted", 1)
        path = recorder.write(tmp_path / "trace.jsonl")
        assert main(["obs", "report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "scenario.simulate" in out and "phase" in out

    def test_obs_report_json(self, tmp_path, capsys):
        recorder = JsonlRecorder(origin="t")
        recorder.emit_span("scenario.simulate", ts=0.0, dur=1.0)
        path = recorder.write(tmp_path / "trace.jsonl")
        json_out = tmp_path / "report.json"
        assert main(["obs", "report", str(path), "--json", str(json_out)]) == 0
        report = json.loads(json_out.read_text())
        assert report["phases"]["scenario.simulate"]["count"] == 1

    def test_obs_export_derives_the_output_name(self, tmp_path, capsys):
        recorder = JsonlRecorder(origin="t")
        recorder.emit_span("a", ts=0.0, dur=1.0)
        path = recorder.write(tmp_path / "trace.jsonl")
        assert main(["obs", "export", str(path)]) == 0
        exported = tmp_path / "trace.chrome.json"
        assert exported.exists()
        assert json.loads(exported.read_text())["traceEvents"]

    def test_quiet_suppresses_info_but_keeps_results(self, tmp_path, capsys):
        trace = tmp_path / "q.jsonl"
        assert main(
            ["--quiet", "scenario", "run", "noisy_neighbor", "--scale", "smoke",
             "--cache-dir", str(tmp_path / "cache"), "--trace-out", str(trace)]
        ) == 0
        out = capsys.readouterr().out
        assert "BTB" in out  # the scenario report still prints
        assert "telemetry trace written" not in out

    def test_quiet_and_verbose_are_mutually_exclusive(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["--quiet", "--verbose", "scenario", "list"])
        assert excinfo.value.code == 2
