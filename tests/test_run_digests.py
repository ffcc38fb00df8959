"""Pinned digests of single-trace ``FrontEndSimulator.run`` results.

``run`` is the plain single-trace path every paper figure uses.  This suite
pins a sha256 per cell over the serialized result fields plus the BTB's
energy access counters, on ``server_001`` at 8 k instructions with a 2 k
warmup, for every BTB organization at the paper's budget (14.5 KiB) and at
the smallest evaluated one (0.90625 KiB, where the BTBs are under capacity
pressure), plus one cell whose measured phase is capped by
``max_instructions``.  Both backends must reproduce the same result digest;
the python backend also pins the full raw statistics registry, which
``tests/test_backend_differential.py`` requires the numpy backend to match
exactly.  A failure names the cell.

When a change is *intentionally* result-altering, regenerate the fixture and
commit it together with the change (see TESTING.md)::

    PYTHONPATH=src python tests/test_run_digests.py regenerate
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys
from dataclasses import asdict

import pytest

from repro.btb.storage import make_btb_for_budget
from repro.common.config import BTBStyle, default_machine_config
from repro.core.simulator import FrontEndSimulator
from repro.traces.batch import HAVE_NUMPY
from repro.traces.store import default_store

FIXTURE_PATH = pathlib.Path(__file__).parent / "golden" / "run_digests.json"

DIGEST_WORKLOAD = "server_001"
DIGEST_INSTRUCTIONS = 8_000
DIGEST_WARMUP = 2_000
DIGEST_BUDGETS_KIB = (14.5, 0.90625)
#: ``(style, budget_kib, max_instructions)``: the full grid, then one capped cell.
DIGEST_CELLS = tuple(
    (style, budget, None) for budget in DIGEST_BUDGETS_KIB for style in BTBStyle
) + ((BTBStyle.BTBX, 14.5, 3_000),)

BACKENDS = (
    "python",
    pytest.param(
        "numpy", marks=pytest.mark.skipif(not HAVE_NUMPY, reason="numpy backend not available")
    ),
)


def cell_key(style: BTBStyle, budget_kib: float, max_instructions: int | None) -> str:
    key = f"{style.value}@{budget_kib}"
    return key if max_instructions is None else f"{key}/max{max_instructions}"


def _sha256(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def run_cell(style, budget_kib, max_instructions, backend) -> dict:
    """Simulate one cell; returns its result digest and raw-stats digest."""
    trace = default_store().get(DIGEST_WORKLOAD, DIGEST_INSTRUCTIONS)
    machine = default_machine_config(
        btb_style=style, fdip_enabled=True, isa=trace.isa, backend=backend
    )
    btb = make_btb_for_budget(style, budget_kib, isa=trace.isa)
    simulator = FrontEndSimulator(machine, btb=btb)
    result = simulator.run(
        trace, warmup_instructions=DIGEST_WARMUP, max_instructions=max_instructions
    )
    return {
        "result": _sha256(
            {"payload": asdict(result), "btb": btb.energy_access_counts()}
        ),
        "stats": _sha256(simulator.stats.counters()),
    }


@pytest.fixture(scope="module")
def fixture():
    if not FIXTURE_PATH.exists():
        pytest.fail(
            f"run digest fixture {FIXTURE_PATH} is missing; regenerate it with "
            "'PYTHONPATH=src python tests/test_run_digests.py regenerate'"
        )
    return json.loads(FIXTURE_PATH.read_text(encoding="utf-8"))


def test_fixture_matches_the_pinned_set(fixture):
    assert fixture["workload"] == DIGEST_WORKLOAD
    assert fixture["instructions"] == DIGEST_INSTRUCTIONS
    assert fixture["warmup"] == DIGEST_WARMUP
    assert sorted(fixture["cells"]) == sorted(cell_key(*cell) for cell in DIGEST_CELLS)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "style,budget_kib,max_instructions",
    DIGEST_CELLS,
    ids=[cell_key(*cell) for cell in DIGEST_CELLS],
)
def test_run_digest_is_pinned(fixture, style, budget_kib, max_instructions, backend):
    key = cell_key(style, budget_kib, max_instructions)
    pinned = fixture["cells"][key]
    actual = run_cell(style, budget_kib, max_instructions, backend)
    assert actual["result"] == pinned["result"], (
        f"run result of {key} on the {backend} backend drifted from its pinned digest; "
        "if the change is intentional, regenerate tests/golden/run_digests.json "
        "(see TESTING.md) and commit the new fixture with your change"
    )
    if backend == "python":
        assert actual["stats"] == pinned["stats"], (
            f"raw statistics of {key} on the python backend drifted from their pinned digest"
        )


def regenerate() -> None:  # pragma: no cover - developer tool
    """Recompute every pinned digest on the python backend and rewrite the fixture."""
    cells = {}
    for cell in DIGEST_CELLS:
        key = cell_key(*cell)
        print(f"  {key} ...", flush=True)
        cells[key] = run_cell(*cell, backend="python")
    fixture = {
        "format": 1,
        "workload": DIGEST_WORKLOAD,
        "instructions": DIGEST_INSTRUCTIONS,
        "warmup": DIGEST_WARMUP,
        "cells": cells,
    }
    FIXTURE_PATH.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE_PATH.write_text(json.dumps(fixture, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
    print(f"wrote {len(cells)} cells to {FIXTURE_PATH}")


if __name__ == "__main__":  # pragma: no cover - developer tool
    if len(sys.argv) == 2 and sys.argv[1] == "regenerate":
        regenerate()
    else:
        print(__doc__)
        raise SystemExit(f"usage: {sys.argv[0]} regenerate")
