"""Isolated layer replays: record a layer's input stream once, replay it alone.

One small-budget ``paper_grid`` cell (the high-footprint server) runs on the
scalar backend with its BTB, direction predictor and memory hierarchy
instrumented on the instance, recording three streams:

* BTB operations: a lookup per instruction, an update per taken branch;
* direction-predictor commits: ``(pc, taken)`` of every conditional branch;
* L1-I demand fetches: the address of every new-block fetch.

Each stream is then replayed against a fresh structure, per organization and
per backend, and reported as operations per host second (median of
:data:`REPLAYS` replays).  The numpy rows replay what the batched engine
does with the same work: a ``batch_plan`` over the trace's PCs for the BTB
(organizations without a plan fall back to the scalar path there too), one
``plan_commits`` for the predictor, and ``fetch_batch`` for the hierarchy.
"""

from __future__ import annotations

import statistics
import sys
import time
from functools import partial

import numpy as np

from repro.btb.storage import make_btb_for_budget
from repro.common.config import BTBStyle, default_machine_config
from repro.common.stats import Stats
from repro.core.simulator import FrontEndSimulator
from repro.memory.hierarchy import MemoryHierarchy
from repro.predictor.factory import make_direction_predictor

from grids import BUDGETS_KIB, ORGANIZATIONS

REPLAYS = 3


def record_streams(trace, budget_kib: float):
    """Run one scalar cell and capture its BTB, predictor and fetch streams."""
    machine = default_machine_config(
        btb_style=BTBStyle.CONVENTIONAL, fdip_enabled=True, isa=trace.isa, backend="python"
    )
    btb = make_btb_for_budget(BTBStyle.CONVENTIONAL, budget_kib, isa=trace.isa)
    simulator = FrontEndSimulator(machine, btb=btb)
    btb_ops: list = []
    commits: list = []
    fetches: list = []
    lookup, update = btb.lookup, btb.update
    predictor_update = simulator.bpu.direction_predictor.update
    fetch = simulator.hierarchy.fetch

    def recording_lookup(pc):
        btb_ops.append((False, pc))
        return lookup(pc)

    def recording_update(instruction):
        btb_ops.append((True, instruction))
        return update(instruction)

    def recording_commit(pc, taken):
        commits.append((pc, taken))
        return predictor_update(pc, taken)

    def recording_fetch(address):
        fetches.append(address)
        return fetch(address)

    btb.lookup, btb.update = recording_lookup, recording_update
    simulator.bpu.direction_predictor.update = recording_commit
    simulator.hierarchy.fetch = recording_fetch
    simulator.run(trace, warmup_instructions=len(trace) // 2)
    return machine, btb_ops, commits, fetches


def _btb_scalar(style, budget_kib, isa, ops) -> float:
    btb = make_btb_for_budget(style, budget_kib, isa=isa)
    lookup, update = btb.lookup, btb.update
    start = time.perf_counter()
    for is_update, argument in ops:
        if is_update:
            update(argument)
        else:
            lookup(argument)
    return time.perf_counter() - start


def _btb_numpy(style, budget_kib, trace, ops) -> float:
    from repro.traces.batch import trace_arrays

    btb = make_btb_for_budget(style, budget_kib, isa=trace.isa)
    arrays = trace_arrays(trace)
    start = time.perf_counter()
    plan = btb.batch_plan(arrays.pc, np.unique(arrays.pc[arrays.is_branch & arrays.taken]))
    if plan is None:
        elapsed = time.perf_counter() - start
        return elapsed + _btb_scalar(style, budget_kib, trace.isa, ops)
    # A guaranteed miss is skipped unless it is a taken branch, whose full
    # lookup and update the batched engine still performs.
    probe = ~plan.guaranteed_miss | (arrays.is_branch & arrays.taken)
    taken = arrays.taken.tolist()
    instructions = trace.instructions
    lookup, update = plan.lookup, btb.update
    skipped = 0
    for position, (pc, needs_probe) in enumerate(zip(arrays.pc.tolist(), probe.tolist())):
        if needs_probe:
            lookup(position, pc)
        else:
            skipped += 1
        if taken[position]:
            update(instructions[position])
    btb.note_skipped_miss_lookups(skipped)
    return time.perf_counter() - start


def _predictor_scalar(machine, commits) -> float:
    predictor = make_direction_predictor(machine.branch_predictor, Stats())
    predict, record, update = predictor.predict, predictor.record_outcome, predictor.update
    start = time.perf_counter()
    for pc, taken in commits:
        record(predict(pc), taken)
        update(pc, taken)
    return time.perf_counter() - start


def _predictor_numpy(machine, commits) -> float:
    from repro.predictor.batch import plan_commits

    predictor = make_direction_predictor(machine.branch_predictor, Stats())
    pcs = np.array([pc for pc, _ in commits], dtype=np.uint64)
    outcomes = np.array([taken for _, taken in commits], dtype=bool)
    start = time.perf_counter()
    plan = plan_commits(predictor, pcs, outcomes)
    for k, taken in enumerate(outcomes.tolist()):
        plan.record_outcome(plan.predict(k), taken)
        plan.update(k)
    plan.finish()
    return time.perf_counter() - start


def _memory_scalar(machine, fetches) -> float:
    hierarchy = MemoryHierarchy(machine, Stats())
    fetch = hierarchy.fetch
    start = time.perf_counter()
    for address in fetches:
        fetch(address)
    return time.perf_counter() - start


def _memory_numpy(machine, fetches) -> float:
    hierarchy = MemoryHierarchy(machine, Stats())
    start = time.perf_counter()
    hierarchy.fetch_batch(fetches)
    return time.perf_counter() - start


def replay_metrics(trace) -> dict:
    """``replay.*`` ops/s of every layer stream recorded from ``trace``.

    A replay whose program interface has gone (the batched hooks may be
    refactored away) reads 0 instead of failing the traced run.
    """
    budget = BUDGETS_KIB[0]
    machine, btb_ops, commits, fetches = record_streams(trace, budget)
    replays = {}
    for style in ORGANIZATIONS:
        replays[f"replay.btb.{style.value}.ops_per_s"] = (
            len(btb_ops), partial(_btb_scalar, style, budget, trace.isa, btb_ops))
        replays[f"replay.btb.{style.value}.numpy_ops_per_s"] = (
            len(btb_ops), partial(_btb_numpy, style, budget, trace, btb_ops))
    replays["replay.predictor.ops_per_s"] = (len(commits), partial(_predictor_scalar, machine, commits))
    replays["replay.predictor.numpy_ops_per_s"] = (
        len(commits), partial(_predictor_numpy, machine, commits))
    replays["replay.memory.ops_per_s"] = (len(fetches), partial(_memory_scalar, machine, fetches))
    replays["replay.memory.numpy_ops_per_s"] = (
        len(fetches), partial(_memory_numpy, machine, fetches))
    metrics = {}
    for name, (operations, replay) in replays.items():
        try:
            metrics[name] = operations / statistics.median(replay() for _ in range(REPLAYS))
        except (AttributeError, ImportError, NotImplementedError, TypeError) as exc:
            print(f"[perfbench] {name}: replay unavailable: {exc!r}", file=sys.stderr)
            metrics[name] = 0.0
    return metrics
