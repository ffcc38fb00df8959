"""Scenario study: does BTB-X's storage advantage survive consolidation?

Runs every registered scenario preset (or the given ones) across BTB
organizations and ASID modes at the paper's headline 14.5 KB budget, each at
the preset's own timeslice.  Questions this answers that the paper's
single-trace evaluation cannot:

* how much MPKI does timeslicing add over the solo baseline?
* does ASID-tagged retention beat flush-on-switch, and for which tenants?
* does the BTB-X > Conv-BTB ordering hold when capacity is shared?
* is a tenant's damage cross-tenant pollution or its own cold-start misses
  (tagged vs partitioned-capacity retention)?

The study is a :mod:`~repro.experiments.sweep` declaration with one
single-valued axis, the preset's own quantum, so each of its rows is the
:mod:`~repro.experiments.scenario_sweep` row at that quantum (the same
cacheable cell).
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.common.config import ASIDMode, BTBStyle
from repro.experiments import sweep
from repro.experiments.config import DEFAULT_BUDGET_KIB, ExperimentScale, QUICK_SCALE
from repro.experiments.engine import ExperimentEngine
from repro.experiments.scenario_sweep import QUANTUM_AXIS, SWEEP_STYLES, quantum_variant


def run(
    scale: ExperimentScale = QUICK_SCALE,
    budget_kib: float = DEFAULT_BUDGET_KIB,
    presets: Sequence[str] | None = None,
    styles: Sequence[BTBStyle] = SWEEP_STYLES,
    asid_modes: Sequence[ASIDMode] = sweep.ASID_MODES,
    engine: ExperimentEngine | None = None,
) -> Dict[str, object]:
    """Run every preset (``None``: all) at its own quantum in one engine pass.

    Returns the :func:`~repro.experiments.sweep.run_sweep` rows; a curve
    (``config``) is ``<style>/<asid_mode>`` with one point.
    """
    return sweep.run_sweep(
        sweep.Sweep(
            experiment="scenario_study",
            bases=sweep.preset_bases(presets),
            axes=(
                sweep.Axis(
                    QUANTUM_AXIS, lambda spec: (spec.quantum_instructions,), quantum_variant
                ),
            ),
            styles=styles,
            asid_modes=asid_modes,
            budget_kib=budget_kib,
        ),
        scale,
        engine,
    )


def format_report(result: Dict[str, object]) -> str:
    """Aggregate MPKI, IPC and context switches per configuration and preset."""
    return sweep.format_report(result, "Scenario study", ("btb_mpki", "ipc", "context_switches"))
