"""Cache-interference sweep: per-tenant i-cache MPKI under consolidation.

The paper's central claim is that *instruction supply* -- not just BTB hits --
governs front-end performance.  The scenario engine has long modelled context
switches in the BTB/BPU, but until the hierarchy became ASID-aware the caches
silently stayed shared and untagged across switches, understating the cold
front-end cost of consolidation.  This driver measures exactly that cost:
per-tenant (and aggregate) L1-I and L2 MPKI as scheduling pressure grows,

* **quantum sweep** -- shorter timeslices mean more switches per
  kilo-instruction, so a flush-on-switch hierarchy pays a cold L1-I refill
  every turn while tagged (PIPT-style shared) retention keeps warm lines;
* **tenant-count sweep** -- more tenants sharing the caches means less
  effective capacity each; ``tagged`` shows cold-start plus cross-tenant
  eviction pressure, ``partitioned`` confines each tenant to its own set
  slices, and the gap between the two is the pollution;

for every cache mode (``flush``/``tagged``/``partitioned``) over the scenario
presets.  The BTB itself runs in ``tagged`` retention throughout, so the
curves isolate the *hierarchy's* contribution to consolidation cost.

Every (preset x axis-value x cache-mode) cell is an ordinary cacheable
:class:`~repro.experiments.engine.ScenarioJob` (with ``cache_asid_mode`` set);
the axes are :mod:`scenario_sweep`'s, and the :mod:`~repro.experiments.sweep`
core submits the grid in one pooled engine pass like every other grid.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.common.config import ASIDMode, BTBStyle
from repro.experiments import sweep
from repro.experiments.config import DEFAULT_BUDGET_KIB, ExperimentScale, QUICK_SCALE
from repro.experiments.engine import ExperimentEngine
from repro.experiments.scenario_sweep import DEFAULT_QUANTA, pressure_axes

#: The organization the sweep runs on (the paper's proposal); the BTB's own
#: retention mode is fixed to ``tagged`` so only the hierarchy varies.
DEFAULT_STYLE = BTBStyle.BTBX
DEFAULT_BTB_ASID_MODE = ASIDMode.TAGGED


def run(
    scale: ExperimentScale = QUICK_SCALE,
    budget_kib: float = DEFAULT_BUDGET_KIB,
    presets: Sequence[str] | None = None,
    style: BTBStyle = DEFAULT_STYLE,
    btb_asid_mode: ASIDMode = DEFAULT_BTB_ASID_MODE,
    cache_modes: Sequence[ASIDMode] = sweep.ASID_MODES,
    quanta: Sequence[int] = DEFAULT_QUANTA,
    tenant_counts: Sequence[int] | None = None,
    engine: ExperimentEngine | None = None,
) -> Dict[str, object]:
    """Run both sweep axes for every preset (``None``: all) in one engine pass.

    ``tenant_counts=None`` sweeps 1..len(tenants) per preset.  All three
    cache modes run by default; the legacy ASID-oblivious hierarchy is
    deliberately absent, since it false-shares lines between tenants and its
    per-tenant MPKI is not comparable (run a scenario study for it).
    Returns the :func:`~repro.experiments.sweep.run_sweep` rows; a curve
    (``config``) is ``<style>/cache-<mode>``.
    """
    return sweep.run_sweep(
        sweep.Sweep(
            experiment="cache_interference",
            bases=sweep.preset_bases(presets),
            axes=pressure_axes(quanta, tenant_counts),
            styles=(style,),
            asid_modes=(btb_asid_mode,),
            cache_modes=cache_modes,
            budget_kib=budget_kib,
            series=("style", "cache_mode"),
        ),
        scale,
        engine,
    )


def format_report(result: Dict[str, object]) -> str:
    """Aggregate L1-I and L2 MPKI per curve, per axis and preset."""
    return sweep.format_report(result, "Cache-interference sweep", ("l1i_mpki", "l2_mpki"))
