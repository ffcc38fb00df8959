"""Scenario sweeps: MPKI versus timeslice length and versus tenant count.

This is the consolidation analogue of Figure 11's budget sweep.  Where fig11
asks "how does each organization degrade as *storage* shrinks?", this driver
asks "how does each organization degrade as *scheduling pressure* grows?"
along two axes:

* **quantum sweep** -- shorter scheduling quanta mean more context switches
  per kilo-instruction, so flush-on-switch pays more cold misses while tagged
  and partitioned retention amortize them (MPKI-vs-timeslice curves);
* **tenant-count sweep** -- more tenants sharing one BTB means less effective
  capacity each, so the retention modes separate: ``tagged`` shows cold-start
  plus cross-tenant pollution, ``partitioned`` shows cold-start only (its set
  slices are private), and the gap between them *is* the pollution.

Every (preset x axis-value x organization x ASID-mode) cell is an ordinary
cacheable :class:`~repro.experiments.engine.ScenarioJob`; the
:mod:`~repro.experiments.sweep` core submits the whole grid in one pooled
engine pass, so sweeps parallelize and memoize exactly like the figure grids.
:mod:`~repro.experiments.scenario_study` is this sweep's quantum axis
narrowed to each preset's own quantum.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Sequence, Tuple

from repro.common.config import ASIDMode, BTBStyle, require_positive_int
from repro.experiments import sweep
from repro.experiments.config import DEFAULT_BUDGET_KIB, ExperimentScale, QUICK_SCALE
from repro.experiments.engine import ExperimentEngine
from repro.scenarios.spec import ScenarioSpec, TenantSpec

#: Organizations swept by default (the paper's baseline and its proposal).
SWEEP_STYLES: Tuple[BTBStyle, ...] = (BTBStyle.CONVENTIONAL, BTBStyle.BTBX)

#: Default timeslice lengths (instructions per scheduling turn).
DEFAULT_QUANTA: Tuple[int, ...] = (1_024, 2_048, 4_096, 8_192, 16_384)

#: Axis names (the ``axis`` column of the result rows).
QUANTUM_AXIS = "quantum"
TENANT_AXIS = "tenant_count"


# -- spec derivation ----------------------------------------------------------


def quantum_variant(spec: ScenarioSpec, quantum: int) -> ScenarioSpec:
    """``spec`` rescheduled with a ``quantum``-instruction timeslice.

    The preset's own quantum returns the preset unchanged, so that sweep cell
    is cache-identical to the preset's own cell (the :mod:`scenario_study`
    cell).
    """
    if quantum == spec.quantum_instructions:
        return spec
    return replace(spec, name=f"{spec.name}@q{quantum}", quantum_instructions=quantum)


def tenant_count_variant(spec: ScenarioSpec, count: int) -> ScenarioSpec:
    """``spec`` resized to exactly ``count`` tenants.

    Counts up to the preset's tenant list take a prefix (so ``count=1`` is the
    first tenant alone -- the solo anchor of the curve).  Larger counts cycle
    the preset's tenants with ``~N`` suffixed names, modelling more instances
    of the same service mix sharing the machine.  The preset's own size
    returns the preset unchanged (cache-identical to the plain cell).
    """
    require_positive_int(count, "tenant count")
    base = spec.tenants
    if count == len(base):
        return spec
    tenants: List[TenantSpec] = []
    for position in range(count):
        template = base[position % len(base)]
        lap = position // len(base)
        name = template.name if lap == 0 else f"{template.name}~{lap + 1}"
        tenants.append(TenantSpec(name, template.workload, template.weight))
    return replace(spec, name=f"{spec.name}@t{count}", tenants=tuple(tenants))


def pressure_axes(
    quanta: Sequence[int], tenant_counts: Sequence[int] | None = None
) -> Tuple[sweep.Axis, sweep.Axis]:
    """The quantum and tenant-count axes over preset bases.

    ``tenant_counts=None`` sweeps 1..len(tenants) per preset.
    """
    counts = (
        tenant_counts
        if tenant_counts is not None
        else lambda spec: range(1, len(spec.tenants) + 1)
    )
    return (
        sweep.Axis(QUANTUM_AXIS, quanta, quantum_variant),
        sweep.Axis(TENANT_AXIS, counts, tenant_count_variant),
    )


# -- the sweep ----------------------------------------------------------------


def run(
    scale: ExperimentScale = QUICK_SCALE,
    budget_kib: float = DEFAULT_BUDGET_KIB,
    presets: Sequence[str] | None = None,
    styles: Sequence[BTBStyle] = SWEEP_STYLES,
    asid_modes: Sequence[ASIDMode] = sweep.ASID_MODES,
    quanta: Sequence[int] = DEFAULT_QUANTA,
    tenant_counts: Sequence[int] | None = None,
    engine: ExperimentEngine | None = None,
) -> Dict[str, object]:
    """Run both sweep axes for every preset (``None``: all) in one engine pass.

    All three ASID modes run by default, so pollution (tagged vs
    partitioned) and cold-start (flush vs tagged) read off the same plot.
    Returns the :func:`~repro.experiments.sweep.run_sweep` rows; a curve
    (``config``) is ``<style>/<asid_mode>``.
    """
    return sweep.run_sweep(
        sweep.Sweep(
            experiment="scenario_sweep",
            bases=sweep.preset_bases(presets),
            axes=pressure_axes(quanta, tenant_counts),
            styles=styles,
            asid_modes=asid_modes,
            budget_kib=budget_kib,
        ),
        scale,
        engine,
    )


def format_report(result: Dict[str, object]) -> str:
    """Aggregate MPKI and context switches per curve, per axis and preset."""
    return sweep.format_report(result, "Scenario sweep", ("btb_mpki", "context_switches"))
