"""Run one scenario on one machine configuration.

This is the scenario counterpart of :func:`repro.core.simulator.simulate_trace`:
resolve the spec, build the tenant traces through the (bounded, process-local)
trace store, compose the scheduled stream, and hand it to
:meth:`FrontEndSimulator.run_scenario`.  Everything is deterministic in the
argument tuple, which is what makes scenario cells cacheable experiment jobs.
"""

from __future__ import annotations

from repro.common.config import ASIDMode, BTBStyle, default_machine_config
from repro.core.metrics import ScenarioResult
from repro.core.simulator import FrontEndSimulator
from repro.obs import get_recorder
from repro.btb.base import BTBBase
from repro.scenarios.compose import TraceComposer
from repro.scenarios.presets import get_scenario
from repro.scenarios.spec import ScenarioSpec
from repro.traces.store import TraceStore, default_store


def resolve_scenario(scenario: ScenarioSpec | str) -> ScenarioSpec:
    """Accept a spec or a registered preset name."""
    if isinstance(scenario, ScenarioSpec):
        return scenario
    return get_scenario(scenario)


def _energy_report(btb: BTBBase, budget_kib: float, isa) -> dict | None:
    """Table V's per-design energy, evaluated on this run's access counters.

    Returns ``None`` for organizations without an energy model (ideal).
    """
    from repro.energy.btb_energy import BTBEnergyModel

    try:
        design = BTBEnergyModel(budget_kib, isa=isa).energy_from_btb(btb)
    except ValueError:
        return None
    return {
        "design": design.design,
        "total_energy_uj": design.total_energy_uj,
        "lookup_latency_ns": design.lookup_latency_ns,
        "structures": {
            name: {
                "reads": float(entry.reads),
                "writes": float(entry.writes),
                "searches": float(entry.searches),
                "read_energy_pj": entry.read_energy_pj,
                "write_energy_pj": entry.write_energy_pj,
                "search_energy_pj": entry.search_energy_pj,
                "total_energy_uj": entry.total_energy_uj,
            }
            for name, entry in design.structures.items()
        },
    }


def execute_scenario(
    scenario: ScenarioSpec | str,
    style: BTBStyle = BTBStyle.BTBX,
    asid_mode: ASIDMode = ASIDMode.FLUSH,
    budget_kib: float = 14.5,
    instructions: int = 100_000,
    warmup_instructions: int = 0,
    fdip_enabled: bool = True,
    trace_store: TraceStore | None = None,
    cache_mode: ASIDMode | None = None,
    backend: str | None = None,
) -> ScenarioResult:
    """Compose and simulate ``scenario`` for ``instructions`` total instructions.

    Each tenant's trace is generated at the full stream length (reads wrap,
    so a tenant scheduled for only a fraction of the stream still replays its
    own deterministic workload).  Full-length generation is a deliberate
    choice: a tenant's trace is then identical to the one the single-trace
    experiments cache under ``(workload, instructions)``, whatever the
    scenario's policy or weights, so the trace store shares work across
    scenario and plain cells and the job identity stays simple.  The cost --
    tenant-count times the generation work, each trace only partially consumed
    -- is acceptable at this model's scales.  The BTB is sized for
    ``budget_kib`` exactly like every single-trace experiment cell.

    Under ``ASIDMode.PARTITIONED`` the BTB's sets are divided among the
    tenants before the run, proportionally to the spec's scheduling weights
    (see :meth:`~repro.scenarios.spec.ScenarioSpec.partition_weights`); the
    resulting per-tenant set counts are reported on the
    :class:`~repro.core.metrics.ScenarioResult`, as are any partitioned
    secondary structures (PDede's Page-/Region-BTB, R-BTB's Page-BTB, BTB-X's
    companion) and the BTB's duplication counters -- the tag-distinct versus
    distinct allocations that make shared-code duplication measurable when
    ``spec.shared_fraction > 0``.

    ``backend`` selects the execution engine: ``"python"`` is the scalar
    oracle, ``"numpy"`` streams the schedule as structure-of-arrays chunks
    through :mod:`repro.core.batch` (bit-exact, enforced by the differential
    backend suite), and ``None`` defers to the ``REPRO_BACKEND`` environment
    variable (see :func:`repro.common.config.resolve_backend`).  The backend
    is an execution detail, never part of a cell's identity.

    ``cache_mode`` selects the memory hierarchy's context-switch behaviour:
    ``None`` (the default) keeps the legacy shared, untagged hierarchy, while
    an :class:`ASIDMode` makes every cache level flush, ASID-tag or
    set-partition across switches -- partitioned cache capacity uses the same
    scheduling weights as the BTB.  The result also carries the BTB's access
    counters and their Table V energy evaluation, so consolidation's energy
    cost reads off the same cell as its MPKI cost.
    """
    spec = resolve_scenario(scenario)
    recorder = get_recorder()
    store = trace_store or default_store()
    # Compose covers tenant trace fetch/build plus the composer's shared-page
    # remap work; simulate covers the actual run.  Splitting the two is what
    # lets `obs report` show where a scenario cell's wall-clock goes.
    with recorder.span(
        "scenario.compose", scenario=spec.name, tenants=len(spec.tenant_names)
    ):
        traces = {
            workload: store.get(workload, instructions) for workload in set(spec.workloads)
        }
        composer = TraceComposer(spec, traces)
    machine = default_machine_config(
        btb_style=style,
        budget_kib=budget_kib,
        fdip_enabled=fdip_enabled,
        isa=composer.isa,
        asid_mode=asid_mode,
        cache_asid_mode=cache_mode,
        backend=backend,
    )
    simulator = FrontEndSimulator(machine)
    btb = simulator.btb
    if asid_mode is ASIDMode.PARTITIONED:
        btb.configure_partitions(spec.partition_weights)
    if cache_mode is ASIDMode.PARTITIONED:
        simulator.hierarchy.configure_partitions(spec.partition_weights)
    with recorder.span(
        "scenario.simulate",
        scenario=spec.name,
        style=style.value,
        asid_mode=asid_mode.value,
        backend=machine.backend,
        instructions=instructions,
        quantum=spec.quantum_instructions,
    ) as sim_span:
        if machine.backend == "numpy":
            result = simulator.run_scenario_batches(
                composer.stream_batches(instructions),
                warmup_instructions=warmup_instructions,
                scenario_name=spec.name,
            )
        else:
            result = simulator.run_scenario(
                composer.stream(instructions),
                warmup_instructions=warmup_instructions,
                scenario_name=spec.name,
            )
        sim_span.set(context_switches=result.context_switches)
    recorder.count("scenario.context_switches", result.context_switches)
    counts = btb.partition_set_counts()
    if counts is not None:
        result.partition_sets = dict(zip(spec.tenant_names, counts))
    secondary = btb.secondary_partition_counts()
    if secondary:
        result.secondary_partition_sets = {
            structure: dict(zip(spec.tenant_names, structure_counts))
            for structure, structure_counts in secondary.items()
        }
    cache_partitions = simulator.hierarchy.partition_report()
    if cache_partitions:
        result.cache_partition_sets = {
            level: dict(zip(spec.tenant_names, level_counts))
            for level, level_counts in cache_partitions.items()
        }
    result.duplication = btb.duplication_counts()
    # The BTB's one counter report, the same one the energy model prices
    # (BTB-X's adds its companion's accesses), so re-deriving energy from
    # these exported counters reproduces the energy field exactly.
    result.btb_access_counts = btb.energy_access_counts()
    result.energy = _energy_report(btb, budget_kib, composer.isa)
    return result
