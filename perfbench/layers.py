"""The traced run: per-layer metrics and the end-to-end metric each should move.

:data:`TARGETS` holds, per metric, the prediction written down before
measuring: which end-to-end metric the layer metric should move, on which
workload (``ips_*`` means both backends).  On the workloads a prediction does
not name, the expected change is none.  The metric names and units are read
from ``BENCHMARK.json``.

:func:`traced_run` first runs the workload once untraced (set-up plus one
pass, or one engine cold/warm cycle), then again with every layer probe
installed and a :class:`repro.obs.JsonlRecorder` active, so pool workers ship
their ``engine.execute``/``engine.queue_wait``/``trace.build`` spans and the
batched engine emits its ``batch.*`` counters.  ``trace_overhead`` is the
traced wall time over the untraced one.
"""

from __future__ import annotations

import gc
import os
import sys
import tempfile
import time
from pathlib import Path

from repro.btb.storage import make_btb_for_budget
from repro.common.config import default_machine_config
from repro.common.stats import Stats
from repro.obs import JsonlRecorder, use_recorder
from repro.predictor.factory import make_direction_predictor

import legs
from grids import BUDGETS_KIB, ORGANIZATIONS, Consolidation, EngineColdWarm, PaperGrid
from hostspeed import HostSpeed
from replay import replay_metrics
from tracer import Tracer

SIM = "paper_grid,consolidation"
ENGINE = "cold_s,warm_s@engine_cold_warm (ungated; traced with consolidation)"
EXACT = "none: exact, checked"
_SCALAR_ONLY_BTBS = ("rbtb", "pdede", "ideal")


def _btb_targets() -> dict:
    targets = {}
    for style in ORGANIZATIONS:
        org = style.value
        target = "ips_python@paper_grid"
        if org in _SCALAR_ONLY_BTBS:
            target = "ips_*@paper_grid (no batch_plan: scalar on numpy too)"
        for op in ("lookup", "update"):
            targets[f"btb.{org}.{op}.calls"] = targets[f"btb.{org}.{op}.self_s"] = target
        if org not in _SCALAR_ONLY_BTBS:
            targets[f"btb.{org}.batch_plan.self_s"] = "ips_numpy@paper_grid"
        targets[f"btb.{org}.invalidate_all.self_s"] = "ips_*@consolidation (flush)"
    return targets


def _model_targets() -> dict:
    targets = {
        f"model.btb_mpki.{style.value}.{budget}": EXACT
        for style in ORGANIZATIONS
        for budget in BUDGETS_KIB
    }
    targets.update({f"model.btbx_over_conv_mpki.{budget}": EXACT for budget in BUDGETS_KIB})
    for name in ("model.l1i_mpki", "model.context_switches", "model.execute_flushes"):
        targets[name] = EXACT
    return targets


def _replay_targets() -> dict:
    targets = {}
    for style in ORGANIZATIONS:
        targets[f"replay.btb.{style.value}.ops_per_s"] = "ips_python@paper_grid"
        targets[f"replay.btb.{style.value}.numpy_ops_per_s"] = "ips_numpy@paper_grid"
    for layer in ("predictor", "memory"):
        targets[f"replay.{layer}.ops_per_s"] = "ips_python@" + SIM
        targets[f"replay.{layer}.numpy_ops_per_s"] = "ips_numpy@" + SIM
    return targets


#: Per-layer metric name -> predicted end-to-end target.  Names, units and
#: order come from ``BENCHMARK.json``; :func:`check_schema` keeps the two in step.
TARGETS = {
    "traces.store_get.calls": "setup_s@all; cold_s@engine_cold_warm",
    "traces.store_get.misses": "setup_s@all; cold_s@engine_cold_warm",
    "traces.build.self_s": "setup_s@all; cold_s@engine_cold_warm",
    "traces.worker_build_s": "cold_s@engine_cold_warm",
    "scenarios.generate.self_s": "setup_s,peak_rss_mib@consolidation",
    "scenarios.composer_init.self_s": "setup_s,peak_rss_mib@consolidation",
    "scenarios.stream.self_s": "ips_python@consolidation",
    "scenarios.pipeline_wait_s": "ips_numpy@consolidation",
    "core.run.self_s": "ips_*@paper_grid",
    "core.run_scenario.self_s": "ips_python@consolidation",
    "core.batch.self_s": "ips_numpy@" + SIM,
    "frontend.bpu_process.calls": "ips_python@" + SIM,
    "frontend.bpu_process.self_s": "ips_python@" + SIM,
    "frontend.fdip.calls": "ips_python@" + SIM,
    "frontend.fdip.self_s": "ips_python@" + SIM,
    "frontend.bpu_context_switch.calls": "ips_*@consolidation",
    "frontend.bpu_context_switch.self_s": "ips_*@consolidation",
    **_btb_targets(),
    "predictor.predict.calls": "ips_python@" + SIM,
    "predictor.predict.self_s": "ips_python@" + SIM,
    "predictor.update.calls": "ips_python@" + SIM,
    "predictor.update.self_s": "ips_python@" + SIM,
    "predictor.plan_commits.self_s": "ips_numpy@" + SIM,
    "memory.fetch.calls": "ips_*@" + SIM,
    "memory.fetch.self_s": "ips_*@" + SIM,
    "memory.fetch_batch.self_s": "ips_numpy@" + SIM,
    "memory.prefetch.calls": "ips_*@" + SIM + " (0: FDIP never calls it)",
    "memory.context_switch.calls": "ips_*@consolidation",
    "memory.context_switch.self_s": "ips_*@consolidation",
    "experiments.config_hash.calls": ENGINE,
    "experiments.config_hash.self_s": ENGINE,
    "experiments.cache_get.calls": "warm_s@engine_cold_warm",
    "experiments.cache_get.self_s": ENGINE,
    "experiments.cache_put.calls": "cold_s@engine_cold_warm",
    "experiments.cache_put.self_s": ENGINE,
    "experiments.queue_wait_s": "cold_s@engine_cold_warm",
    "experiments.pool_busy": "cold_s@engine_cold_warm",
    "experiments.executed": "warm_s@engine_cold_warm (warm leg: 0)",
    "experiments.disk_hits": "warm_s@engine_cold_warm (warm leg: all)",
    **_model_targets(),
    "batch.fast_share": "ips_numpy@" + SIM,
    "trace_overhead": "none: traced wall / untraced wall",
    **_replay_targets(),
}


def check_schema(names) -> list:
    """Messages for every per-layer name without a target, or target without a name."""
    names = set(names)
    return [f"per-layer metric {name!r} has no predicted target in layers.TARGETS"
            for name in sorted(names - TARGETS.keys())] + [
            f"layers.TARGETS names {name!r}, which BENCHMARK.json does not declare"
            for name in sorted(TARGETS.keys() - names)]


# -- probes ---------------------------------------------------------------------


def install_probes(tracer: Tracer) -> None:
    """Wrap every layer entry point the per-layer metrics read.

    A probe whose target no longer exists is skipped; its metrics read 0.
    """
    from repro.core import batch, simulator
    from repro.experiments import engine
    from repro.frontend.bpu import BranchPredictionUnit
    from repro.frontend.fdip import FDIPPrefetcher
    from repro.memory.hierarchy import MemoryHierarchy
    from repro.scenarios import compose, generate
    from repro.traces import store
    from repro.workloads import suites

    patch = tracer.patch
    patch(store.TraceStore, "get", "traces.store_get")
    # TraceStore's default build function imports this name from suites per call.
    patch(suites, "build_workload", "traces.build")
    patch(generate, "generate_scenario", "scenarios.generate")
    patch(compose.TraceComposer, "__init__", "scenarios.composer_init")
    patch(compose.TraceComposer, "stream", "scenarios.stream", generator=True)
    patch(compose.TraceComposer, "stream_batches", "scenarios.stream", generator=True)
    try:
        from repro.scenarios.pipeline import ChunkPipeline
    except ImportError:  # pragma: no cover - depends on the program version
        pass
    else:
        patch(ChunkPipeline, "__next__", "scenarios.pipeline_wait")
    patch(simulator.FrontEndSimulator, "run", "core.run")
    patch(simulator.FrontEndSimulator, "run_scenario", "core.run_scenario")
    # The simulator imports these from repro.core.batch at call time.
    patch(batch, "run_batched", "core.batch")
    patch(batch, "run_scenario_batched", "core.batch")
    patch(BranchPredictionUnit, "process", "frontend.bpu_process")
    patch(BranchPredictionUnit, "context_switch", "frontend.bpu_context_switch")
    for method in ("cover_demand_miss", "observe_predicted_address",
                   "observe_predicted_block_run", "on_stream_break"):
        patch(FDIPPrefetcher, method, "frontend.fdip")
    for style in ORGANIZATIONS:
        cls = type(make_btb_for_budget(style, BUDGETS_KIB[-1]))
        for method in ("lookup", "update", "batch_plan", "invalidate_all"):
            patch(cls, method, f"btb.{style.value}.{method}")
    predictor_cls = type(
        make_direction_predictor(default_machine_config().branch_predictor, Stats())
    )
    patch(predictor_cls, "predict", "predictor.predict")
    patch(predictor_cls, "update", "predictor.update")
    # repro.core.batch binds plan_commits at import, so patch it there.
    patch(batch, "plan_commits", "predictor.plan_commits")
    for method in ("fetch", "fetch_batch", "prefetch", "context_switch"):
        patch(MemoryHierarchy, method, f"memory.{method}")
    patch(engine.SimJob, "config_hash", "experiments.config_hash")
    patch(engine.ScenarioJob, "config_hash", "experiments.config_hash")
    patch(engine.ResultCache, "get", "experiments.cache_get")
    patch(engine.ResultCache, "put", "experiments.cache_put")


# -- metrics --------------------------------------------------------------------


def _span_metrics(summary) -> dict:
    """calls/self_s metrics straight from the tracer's per-name summary."""
    values = {}
    for name, (calls, self_s) in summary.items():
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = self_s
    values["traces.store_get.misses"] = summary.get("traces.build", (0, 0.0))[0]
    values["scenarios.pipeline_wait_s"] = summary.get("scenarios.pipeline_wait", (0, 0.0))[1]
    return values


def _cell_budget(cell: str) -> float:
    """Budget of a cell from its name; scenario cells run at the paper's budget."""
    try:
        return float(cell.rsplit("/", 1)[-1])
    except ValueError:
        return BUDGETS_KIB[-1]


def model_metrics(payloads: dict) -> dict:
    """Exact simulated counters over the scalar payloads of one run.

    ``model.btb_mpki.<org>.<budget>`` pools every cell of that organization
    and budget; the BTB-X over Conv-BTB ratio uses single-trace cells only,
    so both sides cover the same traces.
    """
    misses: dict = {}
    instructions: dict = {}
    totals = {"l1i": 0, "instructions": 0, "switches": 0, "flushes": 0}
    for cell, payload in payloads.items():
        scenario = payload.get("scenario")
        result = scenario["aggregate"] if scenario is not None else payload["result"]
        for key in ((result["btb_style"], _cell_budget(cell)),
                    (result["btb_style"], _cell_budget(cell), scenario is None)):
            misses[key] = misses.get(key, 0) + result["btb_misses_taken"]
            instructions[key] = instructions.get(key, 0) + result["instructions"]
        totals["l1i"] += result["l1i_misses"]
        totals["instructions"] += result["instructions"]
        totals["switches"] += scenario["context_switches"] if scenario is not None else 0
        totals["flushes"] += result["execute_flushes"]

    def mpki(key):
        return 1000.0 * misses[key] / instructions[key] if instructions.get(key) else None

    values = {}
    for style in ORGANIZATIONS:
        for budget in BUDGETS_KIB:
            value = mpki((style.value, budget))
            if value is not None:
                values[f"model.btb_mpki.{style.value}.{budget}"] = value
    for budget in BUDGETS_KIB:
        conv = mpki(("conventional", budget, True))
        btbx = mpki(("btbx", budget, True))
        if conv and btbx is not None:
            values[f"model.btbx_over_conv_mpki.{budget}"] = btbx / conv
    if totals["instructions"]:
        values["model.l1i_mpki"] = 1000.0 * totals["l1i"] / totals["instructions"]
    values["model.context_switches"] = totals["switches"]
    values["model.execute_flushes"] = totals["flushes"]
    return values


def _recorder_totals(recorder: JsonlRecorder):
    """Counters (own and merged from workers) and span seconds by (name, in a worker)."""
    parent = os.getpid()
    counters = dict(recorder.metrics_snapshot()["counters"])
    durations: dict = {}
    for event in recorder.events:
        if event.get("type") == "counter":
            counters[event["name"]] = counters.get(event["name"], 0) + event["value"]
        elif event.get("type") == "span":
            key = (event["name"], event.get("pid") != parent)
            durations[key] = durations.get(key, 0.0) + event["dur"]
    return counters, durations


def batch_share(recorder: JsonlRecorder) -> dict:
    """``batch.fast_share`` from the batched engine's ``batch.*`` counters."""
    counters, _ = _recorder_totals(recorder)
    fast = counters.get("batch.instructions_fast", 0)
    slow = counters.get("batch.instructions_slow", 0)
    return {"batch.fast_share": fast / (fast + slow) if fast + slow else 0.0}


def pool_metrics(recorder: JsonlRecorder, cycle: legs.Measured) -> dict:
    """Worker-side engine spans ``repro.obs`` merged across the pool."""
    _, durations = _recorder_totals(recorder)
    busy = durations.get(("engine.execute", True), 0.0)
    return {
        "traces.worker_build_s": durations.get(("trace.build", True), 0.0),
        "experiments.queue_wait_s": durations.get(("engine.queue_wait", False), 0.0),
        "experiments.pool_busy": busy / (legs.engine_workers() * cycle.raw["cold_s"]),
        "experiments.executed": cycle.warm_counters["executed"],
        "experiments.disk_hits": cycle.warm_counters["disk_hits"],
    }


# -- the traced run -------------------------------------------------------------


def _inline_once(workload, checker, keep=None) -> list:
    """Set-up and one pass; the names of the cells it ran."""
    cells = workload.cells(workload.setup())
    legs.run_pass(cells, checker, keep=keep)
    return [cell.name for cell in cells]


def _engine_cycle(grid, checker, tmp_root, keep=None) -> legs.Measured:
    """One pooled cold/warm cycle (``workers=nproc``, one warm leg)."""
    with tempfile.TemporaryDirectory(dir=tmp_root) as workdir:
        return legs.engine_cycle(
            grid, workdir, checker, legs.engine_workers(), 1, HostSpeed(), keep
        )


def traced_run(workload, seed: int, checker, tmp_root: str, out_dir: Path,
               units: dict, engine_reference: dict | None = None) -> dict:
    """Untraced then traced run of ``workload``; every per-layer value in ``units``.

    ``engine_cold_warm`` is not a gated workload, so the traced run of
    ``consolidation`` also pushes the seed's engine grid through the pool,
    with its own recorder so none of it mixes into consolidation's layers;
    its cells are checked against ``engine_reference`` and join the checks
    under an ``engine/`` prefix.
    """
    engine_workload = isinstance(workload, EngineColdWarm)
    start = time.perf_counter()
    if engine_workload:
        _engine_cycle(workload.setup(), checker, tmp_root)
    else:
        _inline_once(workload, checker)
    untraced = time.perf_counter() - start
    engine_grid = EngineColdWarm(seed).setup() if isinstance(workload, Consolidation) else None
    gc.collect()

    tracer = Tracer()
    recorder = JsonlRecorder()
    engine_recorder = JsonlRecorder()
    engine_checker = legs.Checker(engine_reference)
    payloads: dict = {}
    cycle = None
    install_probes(tracer)
    try:
        with use_recorder(recorder):
            start = time.perf_counter()
            if engine_workload:
                grid = workload.setup()
                cycle = _engine_cycle(grid, checker, tmp_root, payloads)
                engine_recorder = recorder
                cell_names = list(grid.jobs)
            else:
                cell_names = _inline_once(workload, checker, payloads)
            traced = time.perf_counter() - start
        if engine_grid is not None:
            with use_recorder(engine_recorder):
                cycle = _engine_cycle(engine_grid, engine_checker, tmp_root)
    finally:
        tracer.unpatch()
    checker.finish(cell_names)
    if engine_grid is not None:
        engine_checker.finish(list(engine_grid.jobs))
    for cell, entry in engine_checker.digests.items():
        checker.digests[f"engine/{cell}"] = entry
    for cell, reason in engine_checker.failures.items():
        checker.failures[f"engine/{cell}"] = reason

    values = {name: 0.0 for name in units}
    values.update(_span_metrics(tracer.summary()))
    values.update(model_metrics(payloads))
    values.update(batch_share(recorder))
    if cycle is not None:
        values.update(pool_metrics(engine_recorder, cycle))
    values["trace_overhead"] = traced / untraced
    if isinstance(workload, PaperGrid):
        trace = workload.setup()["server_high"]
        values.update(replay_metrics(trace))

    stem = f"{workload.name}-seed{seed}"
    tracer.write(out_dir / f"spans-{stem}.npz")
    recorder.write(out_dir / f"obs-{stem}.jsonl")
    if engine_grid is not None:
        engine_recorder.write(out_dir / f"obs-engine-{stem}.jsonl")
    print_table(workload.name, values, units)
    return values


def print_table(workload: str, values: dict, units: dict) -> None:
    print(f"per-layer metrics, workload {workload} (target: end-to-end metric@workload)")
    for name, unit in units.items():
        print(f"  {name:44s} {values[name]:>16.6g} {unit:8s} {TARGETS[name]}")
    sys.stdout.flush()
