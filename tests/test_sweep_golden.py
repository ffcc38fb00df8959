"""Pinned job sets and metric digests of the four consolidation sweeps.

``sweep scenarios``, ``sweep shared``, ``sweep caches`` and ``sweep tenants``
each expand a grid of :class:`~repro.experiments.engine.ScenarioJob` cells.
This suite pins, per sweep, at a tiny scale, once with the default arguments
and once with a non-default argument set:

* the sorted list of submitted ``ScenarioJob.config_hash()`` values -- the
  cache identity of every cell, so a warm result cache keeps replaying the
  sweep with zero simulations;
* one sha256 per cell over its aggregate and per-tenant metrics
  (``btb_mpki``, ``l1i_mpki``, ``l2_mpki``, ``ipc``), its context switches,
  partition maps and duplication counters.

The suite observes the engine, not the driver's output format, so it holds
across any change to how a sweep lays out its rows.  A failure names the
sweep and the cell.

When a change is *intentionally* result-altering, regenerate the fixture and
commit it together with the change (see TESTING.md)::

    PYTHONPATH=src python tests/test_sweep_golden.py regenerate
"""

from __future__ import annotations

import hashlib
import importlib
import json
import pathlib
import sys
from typing import Dict, List, Tuple

import pytest

from repro.common.config import ASIDMode, BTBStyle, ISAStyle
from repro.experiments.config import ExperimentScale
from repro.experiments.engine import ExperimentEngine
from repro.experiments.runner import clear_trace_cache

FIXTURE_PATH = pathlib.Path(__file__).parent / "golden" / "sweep_jobs.json"

GOLDEN_SCALE = ExperimentScale(
    name="tiny",
    instructions=2_000,
    warmup_fraction=0.25,
    server_workloads=1,
    client_workloads=1,
)

#: Case name -> (driver module, keyword arguments of its ``run``).  Every
#: sweep appears once with its defaults and once with a non-default set that
#: repeats an axis value (the duplicate must not add a cell).
CASES: Dict[str, Tuple[str, Dict[str, object]]] = {
    "scenarios/default": ("repro.experiments.scenario_sweep", {}),
    "scenarios/custom": (
        "repro.experiments.scenario_sweep",
        dict(
            presets=["noisy_neighbor", "consolidated_server"],
            styles=(BTBStyle.PDEDE,),
            asid_modes=(ASIDMode.TAGGED, ASIDMode.PARTITIONED),
            quanta=(512, 512, 3_000),
            tenant_counts=(2, 5),
            budget_kib=7.25,
        ),
    ),
    "shared/default": ("repro.experiments.shared_footprint", {}),
    "shared/custom": (
        "repro.experiments.shared_footprint",
        dict(
            preset="consolidated_server",
            fractions=(0.0, 0.3, 0.3, 1.0),
            styles=(BTBStyle.BTBX, BTBStyle.REDUCED),
            asid_modes=(ASIDMode.PARTITIONED,),
            budget_kib=3.625,
        ),
    ),
    "caches/default": ("repro.experiments.cache_interference", {}),
    "caches/custom": (
        "repro.experiments.cache_interference",
        dict(
            presets=["shared_services"],
            style=BTBStyle.CONVENTIONAL,
            cache_modes=(ASIDMode.PARTITIONED, ASIDMode.FLUSH),
            quanta=(700,),
            tenant_counts=(1, 3, 6),
            budget_kib=7.25,
        ),
    ),
    "tenants/default": ("repro.experiments.tenant_scale", {}),
    "tenants/custom": (
        "repro.experiments.tenant_scale",
        dict(
            tenant_counts=(3, 40, 40),
            asid_modes=(ASIDMode.PARTITIONED, ASIDMode.TAGGED),
            cache_modes=(None, ASIDMode.TAGGED),
            style=BTBStyle.PDEDE,
            seed=7,
            isa=ISAStyle.X86,
            quantum_instructions=128,
            shared_fraction=0.5,
            budget_kib=7.25,
        ),
    ),
}

_METRICS = ("btb_mpki", "l1i_mpki", "l2_mpki", "ipc")


@pytest.fixture(autouse=True)
def _bounded_traces():
    yield
    clear_trace_cache()


class _RecordingEngine(ExperimentEngine):
    """A serial engine that remembers every submitted job and its outcome."""

    def __init__(self) -> None:
        super().__init__(workers=1)
        self.cells: List[tuple] = []

    def run_jobs(self, jobs, traces=None):
        outcomes = super().run_jobs(jobs, traces)
        self.cells.extend(zip(jobs, outcomes))
        return outcomes


def _sha256(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def cell_label(job) -> str:
    """Readable, case-unique name of one sweep cell."""
    cache = "shared" if job.cache_asid_mode is None else job.cache_asid_mode.value
    return (
        f"{job.scenario}/{job.style.value}/{job.asid_mode.value}/cache-{cache}"
        f"@{job.budget_kib:g}KiB"
    )


def cell_digest(scenario) -> str:
    """sha256 over one cell's aggregate and per-tenant metrics."""
    return _sha256(
        {
            "aggregate": {name: getattr(scenario.aggregate, name) for name in _METRICS},
            "per_tenant": {
                tenant: {name: getattr(result, name) for name in _METRICS}
                for tenant, result in scenario.per_tenant.items()
            },
            "context_switches": scenario.context_switches,
            "partition_sets": scenario.partition_sets,
            "secondary_partition_sets": scenario.secondary_partition_sets,
            "cache_partition_sets": scenario.cache_partition_sets,
            "duplication": scenario.duplication,
        }
    )


def run_case(case: str) -> Dict[str, object]:
    """Run one sweep case; returns its sorted job hashes and per-cell digests."""
    module_name, kwargs = CASES[case]
    engine = _RecordingEngine()
    importlib.import_module(module_name).run(GOLDEN_SCALE, engine=engine, **kwargs)
    cells: Dict[str, Dict[str, str]] = {}
    for job, outcome in engine.cells:
        cell = {"job": job.config_hash(), "metrics": cell_digest(outcome.scenario)}
        label = cell_label(job)
        assert cells.setdefault(label, cell) == cell, (
            f"sweep {case}: two different jobs share the cell label {label}"
        )
    # With multiplicity: a cell both axes reach is submitted (and pinned) twice.
    return {"jobs": sorted(job.config_hash() for job, _ in engine.cells), "cells": cells}


@pytest.fixture(scope="module")
def fixture():
    if not FIXTURE_PATH.exists():
        pytest.fail(
            f"sweep golden fixture {FIXTURE_PATH} is missing; regenerate it with "
            "'PYTHONPATH=src python tests/test_sweep_golden.py regenerate'"
        )
    return json.loads(FIXTURE_PATH.read_text(encoding="utf-8"))


def test_fixture_matches_the_pinned_cases(fixture):
    assert fixture["instructions"] == GOLDEN_SCALE.instructions
    assert fixture["warmup"] == GOLDEN_SCALE.warmup_instructions
    assert sorted(fixture["sweeps"]) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_sweep_jobs_and_cells_are_pinned(fixture, case):
    pinned = fixture["sweeps"][case]
    actual = run_case(case)
    if actual["jobs"] != pinned["jobs"]:
        missing = [label for label, cell in pinned["cells"].items()
                   if cell["job"] not in actual["jobs"]]
        extra = [label for label, cell in actual["cells"].items()
                 if cell["job"] not in pinned["jobs"]]
        pytest.fail(
            f"sweep {case} submitted a different job set: missing cells {missing}, "
            f"unexpected cells {extra}"
        )
    for label, cell in pinned["cells"].items():
        assert actual["cells"][label]["metrics"] == cell["metrics"], (
            f"sweep {case}, cell {label}: metrics drifted from the pinned digest; "
            "if the change is intentional, regenerate tests/golden/sweep_jobs.json "
            "(see TESTING.md) and commit the new fixture with your change"
        )


def test_scenario_study_cells_are_pinned_sweep_cells(fixture):
    """The study runs each preset at its own quantum, so every one of its
    cells is a pinned ``scenarios/default`` cell, with the pinned metrics."""
    from repro.experiments import scenario_study

    pinned = fixture["sweeps"]["scenarios/default"]
    engine = _RecordingEngine()
    scenario_study.run(GOLDEN_SCALE, engine=engine)
    hashes = {job.config_hash() for job, _ in engine.cells}
    assert len(hashes) == 30  # 5 presets x 2 styles x 3 ASID modes
    assert hashes <= set(pinned["jobs"])
    for job, outcome in engine.cells:
        assert pinned["cells"][cell_label(job)] == {
            "job": job.config_hash(), "metrics": cell_digest(outcome.scenario)
        }


def regenerate() -> None:  # pragma: no cover - developer tool
    """Rerun every sweep case and rewrite the fixture."""
    sweeps = {}
    for case in sorted(CASES):
        print(f"  {case} ...", flush=True)
        sweeps[case] = run_case(case)
        clear_trace_cache()
    fixture = {
        "format": 1,
        "instructions": GOLDEN_SCALE.instructions,
        "warmup": GOLDEN_SCALE.warmup_instructions,
        "sweeps": sweeps,
    }
    FIXTURE_PATH.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE_PATH.write_text(json.dumps(fixture, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
    print(f"wrote {len(sweeps)} sweep cases to {FIXTURE_PATH}")


if __name__ == "__main__":  # pragma: no cover - developer tool
    if len(sys.argv) == 2 and sys.argv[1] == "regenerate":
        regenerate()
    else:
        print(__doc__)
        raise SystemExit(f"usage: {sys.argv[0]} regenerate")
