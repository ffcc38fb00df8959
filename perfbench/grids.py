"""The benchmark's three workloads: seeded inputs, set-up and cell runners.

Every workload is built from the ``--seed`` alone.  The seed picks workload
*instances* (generator seeds of server traces, the consolidation
recipe's seed), never their size: footprint scales, tenant counts and
stream lengths are fixed here, so host cost stays comparable from seed to
seed while the simulated inputs change.

A *cell* is one simulation the workload runs on both backends.  Each cell
returns a plain-JSON payload of every simulated result field (aggregate,
per tenant, BTB access counts, energy); :func:`payload_digest` turns it into
the string the output checks compare.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List

from repro.btb.storage import make_btb_for_budget
from repro.common.config import ASIDMode, BTBStyle, default_machine_config
from repro.core.simulator import FrontEndSimulator
from repro.energy.btb_energy import BTBEnergyModel
from repro.experiments.engine import ScenarioJob, SimJob
from repro.scenarios import generate
from repro.scenarios.compose import TraceComposer
from repro.traces import store as trace_store
from repro.workloads.suites import generated_workload_name

try:  # the numpy backend's chunk prefetch thread; iterate directly without it
    from repro.scenarios.pipeline import ChunkPipeline
except ImportError:  # pragma: no cover - depends on the program version
    ChunkPipeline = None

#: Seed whose cell digests are pinned in ``reference.json``.
DEFAULT_SEED = 2023
#: Seed never used while the benchmark was tuned; it must run clean too.
HELD_OUT_SEED = 7

BACKENDS = ("python", "numpy")
ORGANIZATIONS = tuple(BTBStyle)
#: A budget small enough to force evictions, and the paper's budget.
BUDGETS_KIB = (0.90625, 14.5)
ASID_MODES = (ASIDMode.FLUSH, ASIDMode.TAGGED, ASIDMode.PARTITIONED)

#: Footprint scales of the two ``paper_grid`` traces: one in the range of
#: the suite's high-footprint cluster (server_023..035 span 3.0..7.8) and
#: one moderate server.  A client trace fits a 14.5 KiB BTB outright, so it
#: would add host time without capacity pressure at the paper's budget.
PAPER_TRACE_SCALES = (("server_high", "server", 4.2), ("server_mid", "server", 1.8))
#: Long enough that the high-footprint server evicts from a 14.5 KiB BTB and
#: per-cell throughput is within a few per cent of a 160 k-instruction cell
#: (see README.md, "Cell length").
PAPER_INSTRUCTIONS = 80_000

CONSOLIDATION_INSTRUCTIONS = 20_000
CONSOLIDATION_TENANTS = 16

ENGINE_INSTRUCTIONS = 8_000
ENGINE_STYLES = (BTBStyle.CONVENTIONAL, BTBStyle.PDEDE, BTBStyle.BTBX)
ENGINE_TENANTS = 6


@dataclass(frozen=True)
class Cell:
    """One simulation of a workload; ``run(backend)`` returns its payload."""

    name: str
    instructions: int
    run: Callable[[str], dict]


# -- payloads ------------------------------------------------------------------


#: SimulationResult fields the checks cover: every field the program had when
#: the reference was pinned, except the live Stats registry.  Fields added
#: later do not enter the digest, so a new output does not fail old cells.
RESULT_FIELDS = (
    "workload", "btb_style", "btb_storage_kib", "fdip_enabled", "instructions", "cycles",
    "base_cycles", "flush_cycles", "resteer_cycles", "icache_stall_cycles", "btb_extra_cycles",
    "btb_misses_taken", "decode_resteers", "execute_flushes", "direction_mispredictions",
    "target_mispredictions", "taken_branches", "branches", "l1i_accesses", "l1i_misses",
    "l1i_misses_covered", "l2_accesses", "l2_misses",
)
#: ScenarioResult fields the checks cover, on the same terms.
SCENARIO_FIELDS = (
    "scenario", "asid_mode", "context_switches", "partition_sets", "secondary_partition_sets",
    "duplication", "cache_mode", "cache_partition_sets", "btb_access_counts", "energy",
)


def _result_fields(result) -> dict:
    return {name: getattr(result, name) for name in RESULT_FIELDS}


def _energy_uj(btb, budget_kib: float, isa) -> float | None:
    try:
        return BTBEnergyModel(budget_kib, isa=isa).energy_from_btb(btb).total_energy_uj
    except ValueError:  # organizations without an energy model (ideal)
        return None


def outcome_payload(result, access_counts, scenario) -> dict:
    """Payload of an engine :class:`JobOutcome`-shaped triple."""
    payload = {"result": _result_fields(result), "access_counts": access_counts}
    if scenario is not None:
        payload["scenario"] = scenario_fields(scenario)
    return payload


def scenario_fields(scenario) -> dict:
    """Scenario-level fields plus the aggregate and every tenant's result."""
    fields = {name: getattr(scenario, name) for name in SCENARIO_FIELDS}
    fields["aggregate"] = _result_fields(scenario.aggregate)
    fields["per_tenant"] = {
        name: _result_fields(result) for name, result in scenario.per_tenant.items()
    }
    return fields


def payload_digest(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# -- paper_grid ----------------------------------------------------------------


def paper_trace_names(seed: int) -> Dict[str, str]:
    """Role -> generated workload name of the seed's three paper_grid traces."""
    rng = random.Random(f"perfbench-paper-grid:{seed}")
    return {
        role: generated_workload_name(workload_class, rng.randrange(1 << 31), scale)
        for role, workload_class, scale in PAPER_TRACE_SCALES
    }


def run_plain_cell(trace, style: BTBStyle, budget_kib: float, backend: str) -> dict:
    """One single-trace cell: FDIP on, 50 % warmup, no engine, no disk cache."""
    machine = default_machine_config(
        btb_style=style, fdip_enabled=True, isa=trace.isa, backend=backend
    )
    btb = make_btb_for_budget(style, budget_kib, isa=trace.isa)
    result = FrontEndSimulator(machine, btb=btb).run(
        trace, warmup_instructions=len(trace) // 2
    )
    payload = {"result": _result_fields(result), "access_counts": btb.energy_access_counts()}
    payload["energy_uj"] = _energy_uj(btb, budget_kib, trace.isa)
    return payload


class PaperGrid:
    """Two server traces x five organizations x two budgets, run inline."""

    name = "paper_grid"
    #: Cold passes (each after its own fresh set-up); one pass is ~25 s.
    cold_passes = 1

    def __init__(self, seed: int) -> None:
        self.trace_names = paper_trace_names(seed)

    def setup(self):
        store = trace_store.TraceStore()
        return {
            role: store.get(name, PAPER_INSTRUCTIONS) for role, name in self.trace_names.items()
        }

    def cells(self, traces) -> List[Cell]:
        return [
            Cell(
                f"{role}/{style.value}/{budget}",
                len(trace),
                partial(run_plain_cell, trace, style, budget),
            )
            for role, trace in traces.items()
            for style in ORGANIZATIONS
            for budget in BUDGETS_KIB
        ]


# -- consolidation -------------------------------------------------------------


def consolidation_recipe(seed: int, tenants: int, name: str) -> "generate.ScenarioRecipe":
    """Server tenants at one footprint scale, a short quantum, shared code."""
    return generate.ScenarioRecipe(
        name=name,
        tenants=tenants,
        seed=seed,
        server_fraction=1.0,
        workload_population=4,
        scale_min=1.0,
        scale_max=1.0,
        quantum_instructions=512,
        shared_fraction=0.25,
    )


def run_scenario_cell(spec, composer, mode: ASIDMode, instructions: int, backend: str) -> dict:
    """One BTB-X consolidation cell; mirrors ``execute_scenario`` past composition."""
    machine = default_machine_config(
        btb_style=BTBStyle.BTBX,
        fdip_enabled=True,
        isa=composer.isa,
        asid_mode=mode,
        cache_asid_mode=mode,
        backend=backend,
    )
    btb = make_btb_for_budget(BTBStyle.BTBX, 14.5, isa=composer.isa)
    if mode is ASIDMode.PARTITIONED:
        btb.configure_partitions(spec.partition_weights)
    simulator = FrontEndSimulator(machine, btb=btb)
    if mode is ASIDMode.PARTITIONED:
        simulator.hierarchy.configure_partitions(spec.partition_weights)
    warmup = instructions // 2
    if backend == "numpy":
        chunks = composer.stream_batches(instructions)
        pipeline = ChunkPipeline(chunks) if ChunkPipeline is not None else None
        try:
            result = simulator.run_scenario_batches(
                pipeline if pipeline is not None else chunks,
                warmup_instructions=warmup,
                scenario_name=spec.name,
            )
        finally:
            if pipeline is not None:
                pipeline.close()
    else:
        result = simulator.run_scenario(
            composer.stream(instructions), warmup_instructions=warmup, scenario_name=spec.name
        )
    return {
        "scenario": scenario_fields(result),
        "partition_sets": btb.partition_set_counts(),
        "secondary_partition_sets": btb.secondary_partition_counts(),
        "cache_partition_sets": simulator.hierarchy.partition_report(),
        "duplication": btb.duplication_counts(),
        "access_counts": btb.energy_access_counts(),
        "energy_uj": _energy_uj(btb, 14.5, composer.isa),
    }


class Consolidation:
    """One generated many-tenant scenario on BTB-X under three ASID modes."""

    name = "consolidation"
    cold_passes = 3

    def __init__(self, seed: int) -> None:
        self.recipe = consolidation_recipe(
            seed, CONSOLIDATION_TENANTS, "perfbench-consolidation"
        )

    def setup(self):
        spec = generate.generate_scenario(self.recipe)
        store = trace_store.TraceStore()
        traces = {
            workload: store.get(workload, CONSOLIDATION_INSTRUCTIONS)
            for workload in sorted(set(spec.workloads))
        }
        return spec, TraceComposer(spec, traces)

    def cells(self, state) -> List[Cell]:
        spec, composer = state
        return [
            Cell(
                f"btbx/{mode.value}",
                CONSOLIDATION_INSTRUCTIONS,
                partial(run_scenario_cell, spec, composer, mode, CONSOLIDATION_INSTRUCTIONS),
            )
            for mode in ASID_MODES
        ]


# -- engine_cold_warm ----------------------------------------------------------


@dataclass(frozen=True)
class EngineGrid:
    """The engine workload's state: jobs by cell name and the parent's traces."""

    jobs: Dict[str, object]
    traces: tuple

    def fresh_store(self) -> "trace_store.TraceStore":
        """A store holding the parent's traces, as a forked pool worker inherits them."""
        store = trace_store.TraceStore()
        for trace in self.traces:
            store.put(trace, ENGINE_INSTRUCTIONS)
        return store


class EngineColdWarm:
    """A run-all-shaped grid of SimJob and ScenarioJob cells for the engine.

    Set-up mirrors what ``run-all`` does in the parent before submitting:
    the single-trace workloads are built, the scenario is expanded, and the
    job list is formed.  Each cold leg's engine gets a store holding only
    those traces, so scenario tenants' traces are synthesized during the
    leg, as pool workers do.  Scenario jobs come first: they are the longest.
    """

    name = "engine_cold_warm"

    def __init__(self, seed: int) -> None:
        self.trace_names = paper_trace_names(seed)
        self.recipe = consolidation_recipe(seed, ENGINE_TENANTS, "perfbench-engine")

    def setup(self) -> EngineGrid:
        store = trace_store.TraceStore()
        traces = {role: store.get(name, ENGINE_INSTRUCTIONS) for role, name in self.trace_names.items()}
        spec = generate.generate_scenario(self.recipe)
        jobs: Dict[str, object] = {
            f"scenario/btbx/{mode.value}": ScenarioJob(
                scenario=spec.name,
                instructions=ENGINE_INSTRUCTIONS,
                warmup_instructions=ENGINE_INSTRUCTIONS // 2,
                style=BTBStyle.BTBX,
                asid_mode=mode,
                cache_asid_mode=mode,
                spec=spec,
            )
            for mode in ASID_MODES
        }
        for budget in BUDGETS_KIB:
            for style in ENGINE_STYLES:
                for role, trace in traces.items():
                    jobs[f"{role}/{style.value}/{budget}"] = SimJob(
                        workload=trace.name,
                        instructions=ENGINE_INSTRUCTIONS,
                        warmup_instructions=ENGINE_INSTRUCTIONS // 2,
                        style=style,
                        fdip_enabled=True,
                        budget_kib=budget,
                    )
        return EngineGrid(jobs, tuple(traces.values()))


WORKLOADS = {cls.name: cls for cls in (PaperGrid, Consolidation, EngineColdWarm)}
