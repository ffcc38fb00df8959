"""Parallel experiment execution engine with an on-disk result cache.

The paper's evaluation is a grid — traces x organizations x budgets x FDIP —
and every cell is an independent simulation.  :class:`ExperimentEngine` turns
that observation into throughput:

* each cell becomes a hashable :class:`SimJob` that fully describes one
  simulation (workload, trace length, warmup, BTB construction, FDIP);
* jobs run either inline (``workers=1``) or on a ``ProcessPoolExecutor``
  (``workers>1``), with worker processes regenerating their traces locally
  from the deterministic workload specs — nothing heavyweight is pickled;
* every finished job is memoized in-process and, when a ``cache_dir`` is
  given, persisted as JSON keyed by a content hash of the job config and
  stamped with a digest of the simulator's source, so reruns and
  overlapping figures (fig09/fig10/fig11/table5 share most of their grid)
  skip completed work entirely, and an edit to the source never replays
  old numbers.

Results are bit-identical across worker counts and cache states: the engine
always round-trips :class:`SimulationResult` through the same JSON payload,
whether a job ran inline, in a worker, or was loaded from disk.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import os
import tempfile
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from typing import Dict, Iterator, List, Mapping, Sequence

import repro
from repro.common.config import ASIDMode, BTBStyle, default_machine_config, require_budget_kib
from repro.common.errors import ConfigurationError
from repro.obs import JsonlRecorder, get_recorder, use_recorder
from repro.core.metrics import ScenarioResult, SimulationResult
from repro.core.simulator import FrontEndSimulator
from repro.scenarios.spec import ScenarioSpec
from repro.traces.store import TraceStore, default_store
from repro.traces.trace import Trace

#: Part of every job's config hash, frozen at 6 and never bumped again: cache
#: entries go stale through :func:`source_digest` instead.
CACHE_FORMAT_VERSION = 6


def _hash_config(config: Mapping[str, object]) -> str:
    """sha256 of a job's canonical JSON config; the on-disk cache key."""
    canonical = json.dumps(config, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def source_digest(root: str | os.PathLike | None = None) -> str:
    """sha256 over every ``.py`` file under ``root``, as sorted relative path plus bytes.

    ``root`` defaults to the imported ``repro`` package; that digest is
    computed once per process, on the first cache read or write.  A cache
    entry stored under another digest is a miss, so any edit to the
    simulator's source re-simulates instead of replaying old numbers.
    """
    if root is None:
        return _package_digest()
    files = sorted(
        os.path.relpath(os.path.join(directory, name), root).replace(os.sep, "/")
        for directory, _dirs, names in os.walk(root)
        for name in names
        if name.endswith(".py")
    )
    digest = hashlib.sha256()
    for relative in files:
        with open(os.path.join(root, relative), "rb") as handle:
            data = handle.read()
        digest.update(f"{relative}\0{len(data)}\0".encode("utf-8"))
        digest.update(data)
    return digest.hexdigest()


@functools.cache
def _package_digest() -> str:
    return source_digest(os.path.dirname(repro.__file__))


@dataclass(frozen=True)
class SimJob:
    """One independent simulation: a hashable cell of an experiment grid.

    ``budget_kib`` sizes the BTB through :func:`make_btb_for_budget`;
    ``way_offset_bits`` replaces BTB-X's per-way offset widths (the way-sizing
    ablation).  Workers resolve ``workload`` to a trace through the
    deterministic suite specs, so a job is self-contained.
    """

    workload: str
    instructions: int
    warmup_instructions: int
    style: BTBStyle
    fdip_enabled: bool
    budget_kib: float | None = None
    way_offset_bits: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        require_budget_kib(self.budget_kib, "SimJob")

    def config_dict(self) -> Dict[str, object]:
        """Canonical JSON-able description of the job (the cache identity)."""
        config = asdict(self)
        config["style"] = self.style.value
        if self.way_offset_bits is not None:
            config["way_offset_bits"] = list(self.way_offset_bits)
        config["cache_format"] = CACHE_FORMAT_VERSION
        return config

    def config_hash(self) -> str:
        """Content hash of the job config; the on-disk cache key."""
        return _hash_config(self.config_dict())


@dataclass(frozen=True)
class ScenarioJob:
    """One multi-tenant scenario cell: a hashable, cacheable experiment job.

    Mirrors :class:`SimJob` but runs a scenario spec instead of a single
    workload.  ``scenario`` names a registered preset; the resolved
    :class:`ScenarioSpec` is pinned onto the job at construction time (in the
    submitting process, where user registrations live), so worker processes
    never consult the preset registry -- a job survives ``spawn``-style pools
    even for scenarios registered only in the parent.  Tenant traces are still
    rebuilt locally from the deterministic workload specs, like plain jobs.
    """

    scenario: str
    instructions: int
    warmup_instructions: int
    style: BTBStyle
    asid_mode: ASIDMode
    fdip_enabled: bool = True
    budget_kib: float = 14.5
    #: Context-switch policy of the cache hierarchy; ``None`` is the legacy
    #: ASID-oblivious shared hierarchy (see MachineConfig.cache_asid_mode).
    cache_asid_mode: ASIDMode | None = None
    #: Resolved at construction from ``scenario`` when not given explicitly.
    spec: ScenarioSpec | None = None

    def __post_init__(self) -> None:
        if self.instructions < 1:
            raise ConfigurationError("scenario stream needs at least one instruction")
        require_budget_kib(self.budget_kib, "a scenario job")
        if self.spec is None:
            from repro.scenarios.presets import get_scenario

            object.__setattr__(self, "spec", get_scenario(self.scenario))

    def config_dict(self) -> Dict[str, object]:
        """Canonical JSON-able description of the job (the cache identity).

        Includes the resolved scenario spec, so re-registering a preset with
        different tenants or scheduling knobs changes the cache key.
        """
        config = asdict(self)
        del config["spec"]
        config["style"] = self.style.value
        config["asid_mode"] = self.asid_mode.value
        config["cache_asid_mode"] = (
            None if self.cache_asid_mode is None else self.cache_asid_mode.value
        )
        config["kind"] = "scenario"
        config["scenario_spec"] = self.spec.config_dict()
        config["cache_format"] = CACHE_FORMAT_VERSION
        return config

    def config_hash(self) -> str:
        """Content hash of the job config; the on-disk cache key."""
        return _hash_config(self.config_dict())


#: Anything the engine can execute, memoize and cache.
EngineJob = SimJob | ScenarioJob


@dataclass
class JobOutcome:
    """What one executed (or cache-loaded) job produced.

    ``result`` is always present (for scenario jobs it is the aggregate over
    the whole interleaved stream); ``scenario`` additionally carries the
    per-tenant breakdown when the job was a :class:`ScenarioJob`.
    """

    result: SimulationResult
    access_counts: Dict[str, float] | None = None
    scenario: ScenarioResult | None = None


def grid_jobs(
    traces: Sequence[Trace],
    styles: Sequence[BTBStyle],
    budgets_kib: Sequence[float],
    fdip_modes: Sequence[bool],
    instructions: int,
    warmup_instructions: int,
) -> List[SimJob]:
    """Expand a (budget, fdip, style, trace) grid into its job list."""
    return [
        SimJob(
            workload=trace.name,
            instructions=instructions,
            warmup_instructions=warmup_instructions,
            style=style,
            fdip_enabled=fdip,
            budget_kib=budget,
        )
        for budget in budgets_kib
        for fdip in fdip_modes
        for style in styles
        for trace in traces
    ]


# -- job execution (runs in the parent or in a worker process) ---------------


def _execute_scenario_job(job: ScenarioJob,
                          trace_store: TraceStore | None = None) -> Dict[str, object]:
    """Run one scenario cell and serialize aggregate + per-tenant results."""
    from repro.scenarios.run import execute_scenario

    scenario_result = execute_scenario(
        job.spec,
        style=job.style,
        asid_mode=job.asid_mode,
        budget_kib=job.budget_kib,
        instructions=job.instructions,
        warmup_instructions=job.warmup_instructions,
        fdip_enabled=job.fdip_enabled,
        trace_store=trace_store,
        cache_mode=job.cache_asid_mode,
    )
    scenario = asdict(scenario_result)
    return {"result": scenario.pop("aggregate"), "scenario": scenario}


def _payload_to_scenario(payload: Mapping[str, object]) -> ScenarioResult:
    scenario = dict(payload["scenario"])
    scenario["per_tenant"] = {
        name: SimulationResult(**tenant) for name, tenant in scenario["per_tenant"].items()
    }
    return ScenarioResult(aggregate=SimulationResult(**payload["result"]), **scenario)


def execute_job(job: "EngineJob", trace: Trace | None = None,
                trace_store: TraceStore | None = None) -> Dict[str, object]:
    """Run one simulation and return its serialized payload.

    The serialized form (not the live objects) is the engine's currency: it is
    what workers return, what the disk cache stores and what every caller gets
    rehydrated from, which is how serial, parallel and cached runs stay
    bit-identical.  Scenario jobs compose their own tenant traces, so the
    ``trace`` shortcut only applies to plain single-trace jobs.
    """
    if isinstance(job, ScenarioJob):
        return _execute_scenario_job(job, trace_store=trace_store)
    recorder = get_recorder()
    if trace is None:
        trace = (trace_store or default_store()).get(job.workload, job.instructions)
    machine = default_machine_config(
        btb_style=job.style, budget_kib=job.budget_kib, fdip_enabled=job.fdip_enabled, isa=trace.isa
    )
    machine = replace(machine, btb=replace(machine.btb, btbx_way_offset_bits=job.way_offset_bits))
    simulator = FrontEndSimulator(machine)
    with recorder.span(
        "job.simulate",
        workload=job.workload,
        style=job.style.value,
        instructions=job.instructions,
    ):
        result = simulator.run(trace, warmup_instructions=job.warmup_instructions)
    # Access counters are maintained unconditionally by every BTB and are tiny
    # next to the result, so they ride along in every payload; that keeps the
    # energy analysis (Table V) on the same cached cells as the MPKI and
    # performance figures instead of forking the cache key.
    # energy_access_counts() is the BTB's one counter report, the same one
    # the scenario runner exports and BTBEnergyModel prices, so BTB-X's
    # companion traffic is priced identically whichever path computes Table V.
    return {
        "result": asdict(result),
        "access_counts": simulator.btb.energy_access_counts(),
    }


def _worker_execute(
    job: "EngineJob", record: bool = False
) -> tuple[str, Dict[str, object], List[Dict[str, object]] | None]:
    """Pool entry point: regenerate the trace(s) locally and run the job.

    With ``record`` set (the parent's recorder is enabled), the worker buffers
    its own telemetry in a pid-origin :class:`~repro.obs.JsonlRecorder` and
    ships the events back pickled with the result; the parent merges them so a
    single trace file covers the whole pool.  Telemetry never enters the
    payload itself, so disk-cache entries stay identical with recording on.
    """
    config_hash = job.config_hash()
    if not record:
        return config_hash, execute_job(job), None
    recorder = JsonlRecorder()
    with use_recorder(recorder):
        with recorder.span(
            "engine.execute", job=config_hash[:12], kind=type(job).__name__
        ):
            payload = execute_job(job)
    return config_hash, payload, recorder.drain()


def _payload_to_outcome(payload: Mapping[str, object]) -> JobOutcome:
    return JobOutcome(
        result=SimulationResult(**payload["result"]),
        access_counts=payload.get("access_counts"),
        scenario=_payload_to_scenario(payload) if "scenario" in payload else None,
    )


# -- on-disk result cache ----------------------------------------------------


class ResultCache:
    """Content-addressed JSON store of finished job payloads.

    One file per job, named by the job's config hash and sharded into
    subdirectories by the hash's leading hex byte (``ab/<hash>.json``), so a
    cache of tens of thousands of entries never piles every file into one
    directory (directory scans stay cheap, and concurrent writers spread
    their ``os.replace`` traffic across 256 directories).
    Writes go through a temp file in the entry's shard plus
    :func:`os.replace`, so concurrent processes sharing a cache directory
    never observe partial entries.  Each entry records the
    :func:`source_digest` it was computed under, and lookups serve only
    entries of the running source, so an edit to the simulator never replays
    old numbers.  Lookups read the sharded path only: flat-layout entries
    predate sharding, so no current job hash names one.  Maintenance
    (``stats``, ``prune``, ``clear``) still walks the flat directory, so old
    caches can be inspected and cleaned.
    """

    def __init__(self, directory: str | os.PathLike) -> None:
        self.directory = os.fspath(directory)
        os.makedirs(self.directory, exist_ok=True)

    def _shard_dir(self, config_hash: str) -> str:
        return os.path.join(self.directory, config_hash[:2])

    def _path(self, config_hash: str) -> str:
        return os.path.join(self._shard_dir(config_hash), f"{config_hash}.json")

    def get(self, job: "EngineJob") -> Dict[str, object] | None:
        """Load the payload of ``job`` or None on a miss/corrupt/stale entry.

        Any unreadable entry — missing, corrupt, permission-denied on a
        shared cache directory — is a miss, and so is one stored under
        another source digest: the job simply re-simulates.
        """
        try:
            with open(self._path(job.config_hash()), "r", encoding="utf-8") as handle:
                entry = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(entry, dict) or entry.get("source") != source_digest():
            return None
        payload = entry.get("payload")
        if not isinstance(payload, dict) or "result" not in payload:
            return None
        return payload

    def put(self, job: "EngineJob", payload: Mapping[str, object]) -> None:
        """Persist the payload of ``job`` atomically (into its shard)."""
        entry = {"job": job.config_dict(), "source": source_digest(), "payload": payload}
        config_hash = job.config_hash()
        shard = self._shard_dir(config_hash)
        os.makedirs(shard, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(dir=shard, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(entry, handle)
            os.replace(tmp_path, self._path(config_hash))
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp_path)
            raise

    def __len__(self) -> int:
        return len(self._entry_paths())

    def _scan_dirs(self) -> List[str]:
        """The flat directory plus every shard subdirectory, scan order fixed.

        Shards that vanish mid-scan (a concurrent ``clear``) simply drop out.
        """
        dirs = [self.directory]
        try:
            names = sorted(os.listdir(self.directory))
        except OSError:
            return dirs
        for name in names:
            path = os.path.join(self.directory, name)
            if len(name) == 2 and os.path.isdir(path):
                dirs.append(path)
        return dirs

    def _entry_paths(self) -> List[str]:
        paths: List[str] = []
        for directory in self._scan_dirs():
            try:
                names = os.listdir(directory)
            except OSError:
                continue
            paths.extend(
                os.path.join(directory, name) for name in names if name.endswith(".json")
            )
        return paths

    def stats(self) -> Dict[str, object]:
        """Entry count, total bytes and age range of the cached payloads.

        Entries that vanish mid-scan (a concurrent prune or run) are simply
        skipped, mirroring how :meth:`get` treats unreadable files.
        """
        entries = 0
        total_bytes = 0
        oldest: float | None = None
        newest: float | None = None
        for path in self._entry_paths():
            try:
                info = os.stat(path)
            except OSError:
                continue
            entries += 1
            total_bytes += info.st_size
            oldest = info.st_mtime if oldest is None else min(oldest, info.st_mtime)
            newest = info.st_mtime if newest is None else max(newest, info.st_mtime)
        return {
            "directory": self.directory,
            "entries": entries,
            "total_bytes": total_bytes,
            "oldest_mtime": oldest,
            "newest_mtime": newest,
        }

    #: A ``.tmp`` file younger than this is an in-flight atomic write of a
    #: concurrent run, not a crash orphan; prune leaves it alone.
    _TMP_GRACE_SECONDS = 3600.0

    def prune(self, max_age_seconds: float | None = None) -> int:
        """Delete cached entries older than ``max_age_seconds`` (all when None).

        Returns the number of entries removed.  Crash-orphaned ``.tmp`` files
        are swept too, but only once they are comfortably older than any
        in-flight write could be, so pruning a cache directory a concurrent
        run is writing to never breaks that run's atomic replace.
        """
        now = time.time()
        cutoff = None if max_age_seconds is None else now - max_age_seconds
        removed = 0
        for path in self._entry_paths():
            try:
                if cutoff is not None and os.stat(path).st_mtime >= cutoff:
                    continue
                os.unlink(path)
                removed += 1
            except OSError:
                continue
        tmp_cutoff = now - self._TMP_GRACE_SECONDS
        for directory in self._scan_dirs():
            try:
                names = os.listdir(directory)
            except OSError:
                continue
            for name in names:
                if name.endswith(".tmp"):
                    path = os.path.join(directory, name)
                    with contextlib.suppress(OSError):
                        if os.stat(path).st_mtime < tmp_cutoff:
                            os.unlink(path)
        return removed

    def clear(self) -> None:
        """Delete every cached entry (and any crash-orphaned temp file)."""
        for directory in self._scan_dirs():
            try:
                names = os.listdir(directory)
            except OSError:
                continue
            for name in names:
                if name.endswith((".json", ".tmp")):
                    with contextlib.suppress(OSError):
                        os.unlink(os.path.join(directory, name))


# -- the engine ---------------------------------------------------------------


@dataclass
class EngineCounters:
    """Where each submitted job's result came from (for tests and reports)."""

    submitted: int = 0
    executed: int = 0
    memo_hits: int = 0
    disk_hits: int = 0
    #: Stream instructions actually simulated (executed jobs only -- memo and
    #: disk hits re-use results without simulating, so they add nothing).
    instructions_simulated: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "submitted": self.submitted,
            "executed": self.executed,
            "memo_hits": self.memo_hits,
            "disk_hits": self.disk_hits,
            "instructions_simulated": self.instructions_simulated,
        }


class ExperimentEngine:
    """Executes :class:`SimJob` lists with pooling and memoization.

    ``workers=1`` runs jobs inline (no subprocess overhead, still memoized);
    ``workers>1`` fans the cache misses out over a process pool.  One engine
    is meant to be shared across experiment drivers — its in-memory memo is
    what lets ``run-all`` simulate each overlapping grid cell exactly once.
    """

    def __init__(
        self,
        workers: int = 1,
        cache_dir: str | os.PathLike | None = None,
        trace_store: TraceStore | None = None,
    ) -> None:
        if workers < 1:
            raise ConfigurationError("engine needs at least one worker")
        self.workers = workers
        self.cache = ResultCache(cache_dir) if cache_dir is not None else None
        self.trace_store = trace_store or default_store()
        self.counters = EngineCounters()
        # LRU-bounded so a long-lived library process cannot grow the memo
        # forever (payloads are small; the bound comfortably covers a full-
        # scale sweep of 43 traces x 3 styles x 7 budgets x 2 FDIP modes).
        self._memo: "OrderedDict[str, Dict[str, object]]" = OrderedDict()
        self._memo_limit = 4096

    # -- execution ----------------------------------------------------------

    def run_jobs(
        self,
        jobs: Sequence["EngineJob"],
        traces: Mapping[str, Trace] | None = None,
    ) -> List[JobOutcome]:
        """Execute ``jobs`` and return their outcomes in submission order.

        ``traces`` optionally supplies already-built :class:`Trace` objects by
        workload name; inline execution uses them directly, worker processes
        always regenerate deterministically from the workload specs.
        """
        recorder = get_recorder()
        self.counters.submitted += len(jobs)
        recorder.count("engine.submitted", len(jobs))
        recorder.gauge("engine.workers", self.workers)
        hashes = [job.config_hash() for job in jobs]

        with recorder.span("engine.run_jobs", jobs=len(jobs), workers=self.workers):
            # Resolve duplicates and cache hits first; collect the true misses.
            # ``resolved`` is the call-local view, immune to memo LRU eviction.
            resolved: Dict[str, Dict[str, object]] = {}
            misses: List[tuple[str, SimJob]] = []
            with recorder.span("engine.memo_lookup", jobs=len(jobs)):
                for job, config_hash in zip(jobs, hashes):
                    if config_hash in resolved:
                        continue
                    payload = self.lookup(job, config_hash)
                    if payload is not None:
                        resolved[config_hash] = payload
                        continue
                    resolved[config_hash] = {}  # placeholder; filled by execution
                    misses.append((config_hash, job))

            missed_jobs = dict(misses)
            for config_hash, payload in self._execute(misses, traces or {}):
                self.counters.executed += 1
                recorder.count("engine.executed")
                job = missed_jobs[config_hash]
                self.counters.instructions_simulated += job.instructions
                recorder.count("engine.instructions_simulated", job.instructions)
                self._memoize(config_hash, payload)
                resolved[config_hash] = payload
                if self.cache is not None:
                    with recorder.span("engine.cache_write", job=config_hash[:12]):
                        self.cache.put(job, payload)

        return [_payload_to_outcome(resolved[config_hash]) for config_hash in hashes]

    def run_job(self, job: "EngineJob", trace: Trace | None = None) -> JobOutcome:
        """Convenience wrapper for a single job."""
        traces = {trace.name: trace} if trace is not None else None
        return self.run_jobs([job], traces=traces)[0]

    def lookup(
        self, job: "EngineJob", config_hash: str | None = None
    ) -> Dict[str, object] | None:
        """Resolve ``job`` from the memo or disk cache without executing it.

        Counts the hit and promotes disk hits into the memo; :meth:`run_jobs`
        resolves every job through here before executing the misses.
        Returns None on a true miss.
        """
        recorder = get_recorder()
        if config_hash is None:
            config_hash = job.config_hash()
        if config_hash in self._memo:
            self.counters.memo_hits += 1
            recorder.count("engine.memo_hits")
            self._memo.move_to_end(config_hash)
            return self._memo[config_hash]
        if self.cache is not None:
            with recorder.span("engine.cache_read", job=config_hash[:12]):
                payload = self.cache.get(job)
            if payload is not None:
                self.counters.disk_hits += 1
                recorder.count("engine.disk_hits")
                self._memoize(config_hash, payload)
                return payload
        return None

    def _execute(
        self,
        misses: Sequence[tuple[str, "EngineJob"]],
        traces: Mapping[str, Trace],
    ) -> Iterator[tuple[str, Dict[str, object]]]:
        if not misses:
            return
        recorder = get_recorder()
        if self.workers == 1 or len(misses) == 1:
            for config_hash, job in misses:
                # Scenario jobs have no single workload; they compose their own
                # tenant traces from the store.
                trace = traces.get(getattr(job, "workload", None))
                with recorder.span(
                    "engine.execute", job=config_hash[:12], kind=type(job).__name__
                ):
                    payload = execute_job(job, trace=trace, trace_store=self.trace_store)
                yield config_hash, payload
            return
        max_workers = min(self.workers, len(misses))
        record = bool(recorder.enabled)
        parent_id = recorder.current_span_id() if record else None
        submit_ts = time.time()
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            results = pool.map(
                _worker_execute, [job for _, job in misses], [record] * len(misses)
            )
            for config_hash, payload, events in results:
                if events:
                    # The worker's root span is its engine.execute; its wall-
                    # clock start minus our submit time is the queue wait.
                    root = next(
                        (
                            e
                            for e in events
                            if e.get("type") == "span" and e.get("parent_id") is None
                        ),
                        None,
                    )
                    if root is not None:
                        recorder.emit_span(
                            "engine.queue_wait",
                            ts=submit_ts,
                            dur=max(0.0, root["ts"] - submit_ts),
                            parent_id=parent_id,
                            job=config_hash[:12],
                        )
                    recorder.merge(events, parent_id=parent_id)
                yield config_hash, payload

    # -- bookkeeping ---------------------------------------------------------

    def _memoize(self, config_hash: str, payload: Dict[str, object]) -> None:
        self._memo[config_hash] = payload
        self._memo.move_to_end(config_hash)
        while len(self._memo) > self._memo_limit:
            self._memo.popitem(last=False)

    def clear_memo(self) -> None:
        """Drop the in-memory memo (the disk cache, if any, is kept)."""
        self._memo.clear()

    def stats(self) -> Dict[str, int]:
        """Counter snapshot: submitted/executed/memo_hits/disk_hits."""
        return self.counters.as_dict()


# -- active-engine plumbing ---------------------------------------------------

_ACTIVE_ENGINE: ExperimentEngine | None = None


def get_active_engine() -> ExperimentEngine:
    """The engine drivers submit to when not handed one explicitly.

    Defaults to a serial, disk-cache-less engine so library users who never
    touch the CLI see the historical single-process behavior.
    """
    global _ACTIVE_ENGINE
    if _ACTIVE_ENGINE is None:
        _ACTIVE_ENGINE = ExperimentEngine(workers=1)
    return _ACTIVE_ENGINE


def set_active_engine(engine: ExperimentEngine | None) -> None:
    """Install (or with None, reset) the process-wide active engine."""
    global _ACTIVE_ENGINE
    _ACTIVE_ENGINE = engine


def clear_active_memo() -> None:
    """Clear the active engine's in-memory memo, if an engine exists.

    Does not lazily create an engine; ``clear_trace_cache`` calls this so
    "drop the caches" keeps meaning every in-process cache.
    """
    if _ACTIVE_ENGINE is not None:
        _ACTIVE_ENGINE.clear_memo()


@contextlib.contextmanager
def use_engine(engine: ExperimentEngine) -> Iterator[ExperimentEngine]:
    """Scope ``engine`` as the active engine (the CLI wraps runs in this)."""
    previous = _ACTIVE_ENGINE
    set_active_engine(engine)
    try:
        yield engine
    finally:
        set_active_engine(previous)
