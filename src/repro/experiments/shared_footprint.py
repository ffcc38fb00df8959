"""Shared-footprint sweep: MPKI and duplication versus code-overlap fraction.

The paper's storage-effectiveness argument is about how much front-end state a
budget actually buys.  In a consolidated server, tenants that map the same
shared libraries make ASID tagging pay a measurable *duplication* cost: the
same branch (and, for the page-deduplicating organizations, the same target
page) lives once per address space.  This driver quantifies that cost instead
of assuming it away: it sweeps a scenario's
:attr:`~repro.scenarios.spec.ScenarioSpec.shared_fraction` from fully-private
to fully-shared footprints and reports, per BTB organization and ASID mode,

* the aggregate BTB MPKI and IPC (does sharing help or hurt performance?);
* the duplication counters of every structure -- ``distinct`` contents ever
  allocated versus ``tag_distinct`` ``(asid, content)`` pairs, whose gap is
  the capacity tagging spends on storing shared code once per tenant.  For
  PDede's Page-/Region-BTB and R-BTB's Page-BTB (now ASID-tagged themselves)
  this is exactly the deduplication the hardware loses to tagging;
* the partition maps of main and secondary structures under ``partitioned``.

Every (fraction x organization x ASID-mode) cell is an ordinary cacheable
:class:`~repro.experiments.engine.ScenarioJob`; the
:mod:`~repro.experiments.sweep` core submits the grid in one pooled engine
pass, so the sweep parallelizes and memoizes like every other grid.  The
fraction-zero cell is the preset's historical, remap-free layout; note that
tenants replaying the same binary then overlap *incidentally* (every workload
image starts at the same base address), so duplication is monotone in the
overlap fraction over the remapped (``fraction > 0``) cells, where private
pages are genuinely disjoint.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Sequence, Tuple

from repro.common.config import ASIDMode, BTBStyle
from repro.common.errors import ConfigurationError
from repro.core.metrics import ScenarioResult
from repro.experiments import sweep
from repro.experiments.config import DEFAULT_BUDGET_KIB, ExperimentScale, QUICK_SCALE
from repro.experiments.engine import ExperimentEngine, ScenarioJob
from repro.scenarios.spec import ScenarioSpec

#: The preset swept by default: three instances of one service binary.
DEFAULT_PRESET = "shared_services"

#: Overlap fractions swept by default (0.0 is the historical remap-free cell).
DEFAULT_FRACTIONS: Tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0)

#: Organizations swept by default: the baseline plus both page-deduplicating
#: organizations, whose secondary structures carry the duplication story.
SWEEP_STYLES: Tuple[BTBStyle, ...] = (
    BTBStyle.CONVENTIONAL,
    BTBStyle.PDEDE,
    BTBStyle.REDUCED,
)

#: Axis name (the ``axis`` column of the result rows).
SHARED_AXIS = "shared_fraction"

#: Structures whose duplication counters the text report prints.
REPORTED_STRUCTURES: Tuple[str, ...] = ("main", "page", "region", "companion")


def shared_variant(spec: ScenarioSpec, fraction: float) -> ScenarioSpec:
    """``spec`` with its shared-code fraction replaced by ``fraction``.

    The preset's own fraction returns the preset unchanged, so that sweep
    cell is cache-identical to the preset's own cell (the
    :mod:`~repro.experiments.scenario_study` cell).
    """
    if (
        isinstance(fraction, bool)
        or not isinstance(fraction, (int, float))
        or not 0.0 <= fraction <= 1.0
    ):
        raise ConfigurationError(
            f"shared fraction must be a number within [0, 1], got {fraction!r}"
        )
    if float(fraction) == spec.shared_fraction:
        return spec
    return replace(spec, name=f"{spec.name}@s{fraction:g}", shared_fraction=float(fraction))


def duplication_counters(_job: ScenarioJob, scenario: ScenarioResult) -> Dict[str, int]:
    """A cell's duplication counters as ``<structure>_<counter>`` columns.

    ``distinct`` contents ever allocated, ``tag_distinct`` ``(asid, content)``
    pairs and their gap ``duplicated``, per BTB structure.
    """
    return {
        f"{structure}_{counter}": count
        for structure, counters in (scenario.duplication or {}).items()
        for counter, count in counters.items()
    }


def run(
    scale: ExperimentScale = QUICK_SCALE,
    budget_kib: float = DEFAULT_BUDGET_KIB,
    preset: str = DEFAULT_PRESET,
    fractions: Sequence[float] = DEFAULT_FRACTIONS,
    styles: Sequence[BTBStyle] = SWEEP_STYLES,
    asid_modes: Sequence[ASIDMode] = sweep.ASID_MODES,
    engine: ExperimentEngine | None = None,
) -> Dict[str, object]:
    """Sweep the overlap fraction of one preset in one engine pass.

    All three ASID modes run by default: flush pays cold-start, tagged pays
    duplication, partitioned pays duplication inside private slices.
    Returns the :func:`~repro.experiments.sweep.run_sweep` rows; a curve
    (``config``) is ``<style>/<asid_mode>``, and every ``(aggregate)`` row
    carries the :func:`duplication_counters` of its cell.
    """
    return sweep.run_sweep(
        sweep.Sweep(
            experiment="shared_footprint",
            bases=sweep.preset_bases([preset]),
            axes=(sweep.Axis(SHARED_AXIS, [float(f) for f in fractions], shared_variant),),
            styles=styles,
            asid_modes=asid_modes,
            budget_kib=budget_kib,
            derive=duplication_counters,
        ),
        scale,
        engine,
    )


def format_report(result: Dict[str, object]) -> str:
    """Aggregate MPKI plus duplicated allocations (tag-distinct minus distinct)."""
    return sweep.format_report(
        result,
        "Shared-footprint sweep",
        ("btb_mpki",) + tuple(f"{name}_duplicated" for name in REPORTED_STRUCTURES),
    )
