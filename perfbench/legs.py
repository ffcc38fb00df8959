"""Untraced measurement: set-up, simulate passes, and engine cold/warm legs.

Every timing is host wall time from ``time.perf_counter``, divided by the
host speed factor sampled around it (see :mod:`hostspeed`); the raw host
figures are kept next to the scaled ones.  Reported values are medians: of
the set-up repetitions, of each cell's time across passes, and of the
engine cycles run within ``--seconds``.
"""

from __future__ import annotations

import gc
import os
import statistics
import sys
import tempfile
import time
import traceback
from typing import Dict, List

from repro.common.config import BACKEND_ENV_VAR
from repro.experiments.engine import ExperimentEngine

from grids import BACKENDS, Cell, outcome_payload, payload_digest
from hostspeed import HostSpeed

#: Set-up is repeated this many times per run; the median is reported.
SETUP_REPS = 3
#: Warm engine legs per cold leg; the median is reported.
WARM_REPS = 5
#: Calibration samples taken before and after each set-up or engine leg.
BRACKET_SAMPLES = 8
#: Calibration samples taken between consecutive cell runs of a pass.
CELL_SAMPLES = 2


class Checker:
    """Every cell's payload must hash the same on every run of the process.

    The first payload of a cell is the process-local reference; every later
    run (other backend, later pass, warm engine leg) must match it, and with
    the default seed the pinned digest from ``reference.json`` must match too.
    """

    def __init__(self, reference: Dict[str, str] | None) -> None:
        self.reference = reference
        self.digests: Dict[str, tuple[str, str]] = {}
        self.failures: Dict[str, str] = {}

    def record(self, cell: str, label: str, payload: dict) -> None:
        digest = payload_digest(payload)
        first_label, first = self.digests.setdefault(cell, (label, digest))
        if digest != first:
            self.fail(cell, f"{label} payload differs from {first_label}")

    def fail(self, cell: str, reason: str) -> None:
        if cell not in self.failures:
            print(f"[perfbench] cell {cell} FAILED: {reason}", file=sys.stderr)
            self.failures[cell] = reason

    def finish(self, cells: List[str]) -> None:
        for cell in cells:
            if cell not in self.digests:
                self.fail(cell, "produced no payload")
            elif self.reference is not None and self.reference.get(cell) != self.digests[cell][1]:
                self.fail(cell, "payload differs from the pinned reference digest")


def median(values) -> float:
    return float(statistics.median(values))


class Measured:
    """Reported (host-speed-scaled) values next to their raw host figures."""

    def __init__(self) -> None:
        self.scaled: Dict[str, float] = {}
        self.raw: Dict[str, float] = {}
        #: The last warm engine's counters (engine cycles only).
        self.warm_counters: Dict[str, int] = {}

    def put(self, name: str, scaled: float, raw: float) -> None:
        self.scaled[name] = scaled
        self.raw[name] = raw


def _setup_once(workload, speed: HostSpeed):
    """One timed ``workload.setup()``: (raw seconds, scaled seconds, state)."""
    gc.collect()
    mark = speed.mark()
    speed.sample(BRACKET_SAMPLES)
    start = time.perf_counter()
    state = workload.setup()
    elapsed = time.perf_counter() - start
    speed.sample(BRACKET_SAMPLES)
    # Collect set-up's garbage now, so a full collection does not land in
    # the next timed piece on some seeds and not on others.
    gc.collect()
    return elapsed, elapsed / speed.factor(mark), state


def timed_setup(workload, speed: HostSpeed, out: Measured, reps: int = SETUP_REPS):
    """Run ``workload.setup()`` ``reps`` times into ``setup_s``; the last state."""
    raw, scaled = [], []
    state = None
    for _ in range(reps):
        state = None
        elapsed, elapsed_scaled, state = _setup_once(workload, speed)
        raw.append(elapsed)
        scaled.append(elapsed_scaled)
    out.put("setup_s", median(scaled), median(raw))
    return state


def run_pass(cells: List[Cell], checker: Checker, speed: HostSpeed | None = None,
             keep: dict | None = None) -> Dict[str, Dict[str, tuple[float, float]]]:
    """Every cell on every backend once; backend -> cell -> (seconds, scaled).

    With ``speed``, calibration samples bracket every cell run outside its
    timed span, and the run's scaled time is divided by the factor of the
    samples just before and after it; without, scaled equals raw.  ``keep``
    collects each cell's scalar-backend payload.
    """
    times: Dict[str, Dict[str, tuple[float, float]]] = {backend: {} for backend in BACKENDS}
    if speed is not None:
        speed.sample(CELL_SAMPLES)
    for cell in cells:
        for backend in BACKENDS:
            start = time.perf_counter()
            try:
                payload = cell.run(backend)
            except Exception as exc:  # a failing cell is counted, not fatal
                traceback.print_exc(file=sys.stderr)
                checker.fail(cell.name, f"{backend} raised {exc!r}")
                continue
            elapsed = time.perf_counter() - start
            factor = 1.0
            if speed is not None:
                since = speed.mark() - CELL_SAMPLES
                speed.sample(CELL_SAMPLES)
                factor = speed.factor(since)
            times[backend][cell.name] = (elapsed, elapsed / factor)
            checker.record(cell.name, backend, payload)
            if keep is not None and backend == "python":
                keep[cell.name] = payload
    return times


def pass_total(times) -> tuple[float, float]:
    """(seconds, scaled seconds) of one pass: the sum of its cell runs."""
    runs = [run for by_cell in times.values() for run in by_cell.values()]
    return sum(raw for raw, _ in runs), sum(scaled for _, scaled in runs)


def inline_metrics(workload, seconds: float, checker: Checker, speed: HostSpeed) -> Measured:
    """paper_grid / consolidation: set-ups and cold passes, then timed passes.

    Every set-up builds fresh state (new traces, new composer); the last
    ``workload.cold_passes`` of them are each followed by a cold pass, which
    pays first-use costs such as the numpy backend's array decode.  Timed
    passes then repeat over the last state until ``seconds`` have elapsed.
    Pass times are sums of cell runs, so calibration time is not in them.
    """
    out = Measured()
    setup, cold = [], []
    cells = state = None
    for rep in range(SETUP_REPS):
        cells = state = None  # drop the previous repetition's state first
        elapsed, elapsed_scaled, state = _setup_once(workload, speed)
        setup.append((elapsed_scaled, elapsed))
        if rep >= SETUP_REPS - workload.cold_passes:
            cells = workload.cells(state)
            raw, scaled = pass_total(run_pass(cells, checker, speed))
            cold.append((scaled, raw))
    for name, samples in (("setup_s", setup), ("cold_s", cold)):
        out.put(name, median(v for v, _ in samples), median(r for _, r in samples))

    passes = []
    begin = time.perf_counter()
    while not passes or time.perf_counter() - begin < seconds:
        passes.append(run_pass(cells, checker, speed))
    totals = [pass_total(times) for times in passes]
    out.put("warm_s", median(s for _, s in totals), median(r for r, _ in totals))
    for backend in BACKENDS:
        instructions = 0
        scaled = raw = 0.0
        for cell in cells:
            runs = [times[backend][cell.name] for times in passes if cell.name in times[backend]]
            if runs:
                instructions += cell.instructions
                raw += median(r for r, _ in runs)
                scaled += median(s for _, s in runs)
        out.put(f"ips_{backend}", instructions / scaled if scaled else 0.0,
                instructions / raw if raw else 0.0)
    checker.finish([cell.name for cell in cells])
    return out


#: Workers of the measured engine legs.  Inline execution keeps the engine's
#: own work (hashing, memo, cache writes and reads, trace synthesis) on the
#: critical path without the process pool, whose run-to-run spread on a
#: shared 2-vCPU host (20-27 %) exceeds any usable bound; the traced run
#: measures the pool with :func:`engine_workers`.
MEASURED_WORKERS = 1


def engine_workers() -> int:
    """``nproc`` for the pool, at least 2 (so the pool path runs) and at most 4."""
    return min(4, max(2, len(os.sched_getaffinity(0))))


def engine_leg(grid, cache_dir: str, backend: str, workers: int):
    """One fresh engine over ``cache_dir``; (outcomes, wall seconds, counters)."""
    jobs = list(grid.jobs.values())
    store = grid.fresh_store()
    gc.collect()
    previous = os.environ.get(BACKEND_ENV_VAR)
    os.environ[BACKEND_ENV_VAR] = backend  # inline runs and pool workers read it here
    try:
        engine = ExperimentEngine(workers=workers, cache_dir=cache_dir, trace_store=store)
        start = time.perf_counter()
        outcomes = engine.run_jobs(jobs)
        wall = time.perf_counter() - start
    finally:
        if previous is None:
            os.environ.pop(BACKEND_ENV_VAR, None)
        else:
            os.environ[BACKEND_ENV_VAR] = previous
    return outcomes, wall, engine.stats()


def check_leg(names, outcomes, stats, label: str, warm: bool, checker: Checker,
              keep: dict | None = None) -> None:
    expected = {"executed": 0, "disk_hits": len(names)} if warm else {"executed": len(names)}
    for key, value in expected.items():
        if stats[key] != value:
            for name in names:
                checker.fail(name, f"{label}: engine {key} = {stats[key]}, expected {value}")
    for name, outcome in zip(names, outcomes):
        payload = outcome_payload(outcome.result, outcome.access_counts, outcome.scenario)
        checker.record(name, label, payload)
        if keep is not None:
            keep[name] = payload


def engine_cycle(grid, workdir: str, checker: Checker, workers: int, warm_reps: int,
                 speed: HostSpeed, keep: dict | None = None) -> Measured:
    """Cold legs on both backends into empty caches, then warm legs over them.

    Calibration samples bracket the legs.  ``keep`` collects the scalar
    cold leg's payloads.
    """
    out = Measured()
    names = list(grid.jobs)
    dirs = {backend: os.path.join(workdir, backend) for backend in BACKENDS}
    cold = {}
    mark = speed.mark()
    speed.sample(BRACKET_SAMPLES)
    for backend in BACKENDS:
        outcomes, wall, stats = engine_leg(grid, dirs[backend], backend, workers)
        check_leg(names, outcomes, stats, f"{backend} cold", False, checker,
                  keep if backend == "python" else None)
        cold[backend] = (wall, stats["instructions_simulated"])
        speed.sample(BRACKET_SAMPLES)
    factor = speed.factor(mark)
    walls = sum(wall for wall, _ in cold.values())
    out.put("cold_s", walls / factor, walls)
    for backend, (wall, instructions) in cold.items():
        out.put(f"ips_{backend}", instructions * factor / wall, instructions / wall)

    warm = []
    mark = speed.mark()
    for _ in range(warm_reps):
        speed.sample(2)
        total = 0.0
        for backend in BACKENDS:
            outcomes, wall, stats = engine_leg(grid, dirs[backend], backend, workers)
            check_leg(names, outcomes, stats, f"{backend} warm", True, checker)
            total += wall
        warm.append(total)
        out.warm_counters = stats
    speed.sample(2)
    factor = speed.factor(mark)
    out.put("warm_s", median(warm) / factor, median(warm))
    return out


def engine_metrics(workload, seconds: float, checker: Checker, tmp_root: str,
                   speed: HostSpeed) -> Measured:
    """engine_cold_warm: set-up, then cold/warm cycles for ``seconds``."""
    out = Measured()
    grid = timed_setup(workload, speed, out)
    cycles = []
    begin = time.perf_counter()
    while not cycles or time.perf_counter() - begin < seconds:
        with tempfile.TemporaryDirectory(dir=tmp_root) as workdir:
            cycles.append(
                engine_cycle(grid, workdir, checker, MEASURED_WORKERS, WARM_REPS, speed)
            )
    for key in ("cold_s", "warm_s", "ips_python", "ips_numpy"):
        out.put(key, median(c.scaled[key] for c in cycles), median(c.raw[key] for c in cycles))
    checker.finish(list(grid.jobs))
    return out
