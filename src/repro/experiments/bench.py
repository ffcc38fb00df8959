"""Perf-trajectory benchmark: throughput of the `sweep scenarios` smoke grid.

The CI pipeline needs a number that moves when the simulation engine gets
slower, not when trace synthesis or the disk cache changes.  This module
times exactly that: the full smoke-scale :mod:`scenario_sweep` grid (every
preset, both sweep axes, every style x ASID mode) executed cell-by-cell on a
fresh in-process engine, with every workload trace pre-generated so the
measured wall time is simulation throughput.

Three decisions keep the number comparable across commits and runners:

* **Fresh engine per repetition** -- no memo, no disk cache; every cell
  simulates.  ``instructions/sec`` is executed cells times the scale's
  instruction count over wall time.
* **Best-of-N repetitions** -- shared CI runners are noisy (30 % swings are
  routine); the *minimum* wall time is the least-contended measurement and
  is what the history records.
* **One leg per configured backend** -- the scalar oracle and (when numpy is
  importable) the batched backend run the same grid, so each history record
  carries both absolute throughputs plus their ratio.

Records append to ``results/bench_history.jsonl`` (one JSON object per
line); :func:`compare` diffs a fresh record against the last committed entry
and fails on a >threshold throughput drop, which is the CI gate.
"""

from __future__ import annotations

import datetime as _datetime
import json
import os
import pathlib
import subprocess
import time
from typing import Dict, List, Sequence

from repro.common.config import BACKEND_ENV_VAR, resolve_backend
from repro.experiments import scenario_sweep
from repro.experiments.config import SMOKE_SCALE, ExperimentScale
from repro.experiments.engine import ExperimentEngine
from repro.obs import JsonlRecorder, get_recorder, use_recorder
from repro.scenarios.presets import get_scenario, scenario_names
from repro.traces.store import TraceStore, default_store

#: Current record schema; bump when fields change meaning.
#: v2: per-backend ``phases`` (decode/compose/simulate seconds aggregated
#: from the telemetry spans of the measured leg).  Additive; ``compare``
#: still gates on ``backends[*].ips`` only, so v1 baselines keep working.
RECORD_FORMAT = 2

#: Span name -> phase field of the per-leg breakdown.
_PHASE_SPANS = {
    "trace.build": "decode_s",
    "trace.decode": "decode_s",
    "scenario.compose": "compose_s",
    "scenario.simulate": "simulate_s",
}


def _phase_seconds(events: List[Dict[str, object]]) -> Dict[str, float]:
    """Sum the recorded span durations into the decode/compose/simulate split."""
    phases = {"decode_s": 0.0, "compose_s": 0.0, "simulate_s": 0.0}
    for event in events:
        if event.get("type") != "span":
            continue
        field = _PHASE_SPANS.get(event.get("name"))
        if field is not None:
            phases[field] += float(event.get("dur", 0.0))
    return {field: round(value, 3) for field, value in phases.items()}

#: The committed perf trajectory (one JSON object per line).
DEFAULT_HISTORY_PATH = "results/bench_history.jsonl"

#: Throughput drop that fails ``bench compare`` (0.2 = 20 %).
DEFAULT_REGRESSION_THRESHOLD = 0.20

#: PR label that documents an accepted regression; the CI workflow skips the
#: compare gate when it is present (see .github/workflows/ci.yml).
OVERRIDE_LABEL = "perf-regression-ok"


def _git_commit() -> str:
    """Current commit hash, falling back to CI metadata or ``unknown``."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return os.environ.get("GITHUB_SHA", "unknown")


def available_backends() -> List[str]:
    """Backends this interpreter can run: scalar always, numpy when importable."""
    backends = ["python"]
    try:
        resolve_backend("numpy")
    except Exception:
        return backends
    backends.append("numpy")
    return backends


def warm_traces(scale: ExperimentScale, store: TraceStore | None = None) -> int:
    """Pre-generate every workload trace the sweep grid will replay.

    Returns the number of distinct workloads warmed.  Trace generation is
    deterministic and identical across backends, so excluding it from the
    timed region removes the largest backend-independent term.  Shared-code
    tenant remaps are warmed the same way: the composer memoizes them on the
    source traces (:func:`repro.scenarios.compose.cached_remap`), so warming
    them here keeps the legs symmetric -- whichever backend runs first would
    otherwise pay every cache fill.
    """
    from repro.scenarios.compose import TraceComposer

    store = store or default_store()
    specs = [get_scenario(name) for name in scenario_names()]
    workloads = set()
    for spec in specs:
        for tenant in spec.tenants:
            workloads.add(tenant.workload)
    for workload in sorted(workloads):
        store.get(workload, scale.instructions)
    for spec in specs:
        variants = [
            scenario_sweep.tenant_count_variant(spec, count)
            for count in range(1, len(spec.tenants) + 1)
        ]
        for variant in variants:
            if variant.shared_fraction <= 0.0:
                continue
            traces = {
                tenant.workload: store.get(tenant.workload, scale.instructions)
                for tenant in variant.tenants
            }
            TraceComposer(variant, traces)
    return len(workloads)


def _time_sweep_leg(backend: str, scale: ExperimentScale) -> Dict[str, object]:
    """One timed pass of the smoke sweep grid on a fresh serial engine.

    Every leg runs under its own :class:`~repro.obs.JsonlRecorder`, so the
    record carries a decode/compose/simulate phase split alongside the wall
    time (the span overhead is a few hundred spans against a multi-second
    leg, far inside runner noise).  When an outer recorder is active (the
    CLI's ``--trace-out``), the leg's events are merged into it.
    """
    previous = os.environ.get(BACKEND_ENV_VAR)
    os.environ[BACKEND_ENV_VAR] = backend
    recorder = JsonlRecorder()
    try:
        engine = ExperimentEngine(workers=1)
        with use_recorder(recorder):
            started = time.perf_counter()
            scenario_sweep.run(scale=scale, engine=engine)
            wall_s = time.perf_counter() - started
    finally:
        if previous is None:
            os.environ.pop(BACKEND_ENV_VAR, None)
        else:
            os.environ[BACKEND_ENV_VAR] = previous
    events = recorder.drain()
    outer = get_recorder()
    if outer.enabled:
        outer.merge(events)
    cells = engine.counters.executed
    instructions = cells * scale.instructions
    return {
        "cells": cells,
        "instructions": instructions,
        "wall_s": wall_s,
        "ips": instructions / wall_s if wall_s > 0 else 0.0,
        "phases": _phase_seconds(events),
    }


def run_smoke(
    backends: Sequence[str] | None = None,
    repeats: int = 2,
    scale: ExperimentScale = SMOKE_SCALE,
    store: TraceStore | None = None,
) -> Dict[str, object]:
    """Measure the sweep-scenarios smoke grid and return one history record."""
    if repeats < 1:
        raise ValueError("bench needs at least one repetition")
    legs = list(backends) if backends is not None else available_backends()
    for backend in legs:
        resolve_backend(backend)  # fail fast on unknown/uninstallable backends
    warm_traces(scale, store=store)

    measured: Dict[str, Dict[str, float]] = {}
    for backend in legs:
        best: Dict[str, float] | None = None
        for _ in range(repeats):
            leg = _time_sweep_leg(backend, scale)
            if best is None or leg["wall_s"] < best["wall_s"]:
                best = leg
        measured[backend] = best

    # The backends run the same grid, so every leg must have executed the
    # same cell count; a mismatch means one leg silently hit a cache or ran
    # a different grid, which would make the throughput ratio meaningless.
    cell_counts = {backend: leg["cells"] for backend, leg in measured.items()}
    if len(set(cell_counts.values())) > 1:
        raise RuntimeError(f"bench legs executed different cell counts: {cell_counts}")

    record: Dict[str, object] = {
        "format": RECORD_FORMAT,
        "benchmark": "sweep_scenarios_smoke",
        "commit": _git_commit(),
        "date": _datetime.datetime.now(_datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "scale": scale.name,
        "repeats": repeats,
        "cells": next(iter(measured.values()))["cells"],
        "instructions": next(iter(measured.values()))["instructions"],
        "backends": {
            backend: {
                "cells": leg["cells"],
                "instructions": leg["instructions"],
                "wall_s": round(leg["wall_s"], 3),
                "ips": round(leg["ips"], 1),
                "phases": leg["phases"],
            }
            for backend, leg in measured.items()
        },
    }
    # Guard on the throughputs themselves, not wall_s: a leg that executed
    # zero cells has ips == 0.0 with a perfectly positive wall time, and the
    # ratio below would divide by it.
    if (
        "python" in measured
        and "numpy" in measured
        and measured["python"]["ips"] > 0
        and measured["numpy"]["ips"] > 0
    ):
        record["speedup_numpy_over_python"] = round(
            measured["numpy"]["ips"] / measured["python"]["ips"], 3
        )
    return record


def append_history(record: Dict[str, object], path: str | os.PathLike = DEFAULT_HISTORY_PATH) -> None:
    """Append ``record`` as one line of the JSONL perf trajectory."""
    target = pathlib.Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")


def load_history(path: str | os.PathLike = DEFAULT_HISTORY_PATH) -> List[Dict[str, object]]:
    """Parse the JSONL history; unreadable lines fail loudly (the file is committed)."""
    target = pathlib.Path(path)
    if not target.exists():
        return []
    records = []
    for line_number, line in enumerate(target.read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise ValueError(f"{target}:{line_number}: corrupt bench history line") from exc
    return records


def compare(
    fresh: Dict[str, object],
    baseline: Dict[str, object],
    threshold: float = DEFAULT_REGRESSION_THRESHOLD,
) -> Dict[str, object]:
    """Diff a fresh record against a baseline record, backend by backend.

    A backend regresses when its fresh throughput drops more than
    ``threshold`` below the baseline throughput.  Backends present in only
    one record are reported but never gate (the numpy-free CI leg must not
    fail for lacking a numpy baseline).  Returns a verdict dict with
    ``regressed`` (bool) and per-backend ratios.
    """
    fresh_backends = dict(fresh.get("backends", {}))
    base_backends = dict(baseline.get("backends", {}))
    comparisons: Dict[str, object] = {}
    regressed: List[str] = []
    for backend in sorted(set(fresh_backends) & set(base_backends)):
        fresh_ips = float(fresh_backends[backend]["ips"])
        base_ips = float(base_backends[backend]["ips"])
        ratio = fresh_ips / base_ips if base_ips else 0.0
        failed = ratio < (1.0 - threshold)
        row: Dict[str, object] = {
            "baseline_ips": base_ips,
            "fresh_ips": fresh_ips,
            "ratio": round(ratio, 3),
            "regressed": failed,
        }
        # Informational per-phase deltas (format-v2 records carry a
        # decode/compose/simulate split per leg).  Never gates: the
        # throughput ratio above is the one regression signal.
        fresh_phases = fresh_backends[backend].get("phases")
        base_phases = base_backends[backend].get("phases")
        if fresh_phases and base_phases:
            row["phase_deltas"] = {
                field: round(
                    float(fresh_phases.get(field, 0.0))
                    - float(base_phases.get(field, 0.0)),
                    3,
                )
                for field in sorted(set(fresh_phases) | set(base_phases))
            }
        comparisons[backend] = row
        if failed:
            regressed.append(backend)
    return {
        "threshold": threshold,
        "baseline_commit": baseline.get("commit"),
        "fresh_commit": fresh.get("commit"),
        "comparisons": comparisons,
        "skipped_backends": sorted(set(fresh_backends) ^ set(base_backends)),
        "regressed": bool(regressed),
        "regressed_backends": regressed,
    }


def format_record(record: Dict[str, object]) -> str:
    """Human-readable one-record report."""
    lines = [
        f"benchmark  : {record['benchmark']} (scale={record['scale']}, "
        f"best of {record['repeats']})",
        f"commit     : {record['commit']}",
        f"cells      : {record['cells']} x {record['instructions'] // max(record['cells'], 1)} "
        "instructions",
    ]
    for backend, leg in record["backends"].items():
        lines.append(
            f"  {backend:<7}: {leg['wall_s']:8.2f} s   {leg['ips']:>12,.0f} instructions/s"
        )
        phases = leg.get("phases")
        if phases:
            lines.append(
                f"           decode {phases['decode_s']:.3f} s / "
                f"compose {phases['compose_s']:.3f} s / "
                f"simulate {phases['simulate_s']:.3f} s"
            )
    if "speedup_numpy_over_python" in record:
        lines.append(f"speedup    : {record['speedup_numpy_over_python']:.2f}x (numpy / python)")
    return "\n".join(lines)


def format_comparison(verdict: Dict[str, object]) -> str:
    """Human-readable compare report."""
    lines = [
        f"baseline commit: {verdict['baseline_commit']}",
        f"fresh commit   : {verdict['fresh_commit']}",
        f"threshold      : -{verdict['threshold'] * 100:.0f}% instructions/s",
    ]
    for backend, row in verdict["comparisons"].items():
        state = "REGRESSED" if row["regressed"] else "ok"
        lines.append(
            f"  {backend:<7}: {row['baseline_ips']:>12,.0f} -> {row['fresh_ips']:>12,.0f} "
            f"({row['ratio']:.2f}x)  {state}"
        )
        deltas = row.get("phase_deltas")
        if deltas:
            rendered = ", ".join(
                f"{name.removesuffix('_s')} {value:+.3f}s"
                for name, value in deltas.items()
            )
            lines.append(f"           phases (informational): {rendered}")
    for backend in verdict["skipped_backends"]:
        lines.append(f"  {backend:<7}: present in only one record (not gated)")
    if verdict["regressed"]:
        lines.append(
            "verdict        : REGRESSION -- apply the "
            f"'{OVERRIDE_LABEL}' label to accept it deliberately"
        )
    else:
        lines.append("verdict        : within threshold")
    return "\n".join(lines)
