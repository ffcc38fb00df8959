"""Oracle-differential suite for the batched (numpy) execution backend.

The batched engine in :mod:`repro.core.batch` is a performance twin of the
scalar loops: same machine, same results, different schedule.  This suite
enforces that claim **bit-exactly** by replaying the entire golden grid --
all 38 scenario cells and all 8 cache-mode cells pinned in
``tests/golden/scenario_golden.json`` -- with ``backend="numpy"`` and
comparing against the same fixture the scalar oracle must match.  Fixture
equality on both backends is transitively python == numpy on every pinned
counter, without paying for two simulations per cell.

On top of the distilled golden counters, a small subset of cells is run on
*both* backends in-process and compared over every result field, the
predictor, cache and memory counters of the raw statistics registry and the
BTB's access/event counters, so divergence in an unpinned counter cannot
hide.  A further set of *capacity-pressure* cells does the
same for R-BTB, PDede and the ideal BTB at the smallest budget, where
evictions, Page-BTB evictions and dangling-pointer invalidations are
frequent -- the paths that must write through to the batched residency
shadow.  *Predictor* cells run Conv-BTB and BTB-X at that budget, so each
Section VI-A resolution rule the batched walk applies inline fires against
the direction predictor's commit plan.  No compared counter is tolerated to
differ: the two backends must report identical statistics on every compared
cell.

Requires numpy; the module skips cleanly on the numpy-free CI leg, where the
scalar half of the equality is still enforced by the golden suite itself.
"""

from __future__ import annotations

from dataclasses import asdict

import pytest

from repro.btb.storage import make_btb_for_budget
from repro.common.config import ASIDMode, BTBStyle, default_machine_config
from repro.core.simulator import FrontEndSimulator
from repro.frontend.bpu import PredictionOutcome
from repro.isa.branch import BranchType
from repro.isa.instruction import Instruction
from repro.obs import JsonlRecorder, use_recorder
from repro.scenarios.run import execute_scenario
from repro.traces.batch import HAVE_NUMPY
from repro.traces.store import default_store
from repro.traces.trace import Trace

from test_golden_scenarios import (
    GOLDEN_BUDGET_KIB,
    GOLDEN_INSTRUCTIONS,
    GOLDEN_WARMUP,
    cache_cell_key,
    cache_golden_cells,
    cell_key,
    compute_cache_cell,
    compute_cell,
    golden_cells,
    load_fixture,
)

pytestmark = [
    pytest.mark.differential,
    pytest.mark.skipif(not HAVE_NUMPY, reason="numpy backend not available"),
]

#: Cells compared over every result field, the raw statistics registry and the
#: BTB reports (one per BTB family plus a partitioned-hierarchy cell, where
#: chunk boundaries are busiest).
FULL_STATS_CELLS = (
    ("consolidated_server", BTBStyle.CONVENTIONAL, ASIDMode.FLUSH, None),
    ("consolidated_server", BTBStyle.BTBX, ASIDMode.TAGGED, None),
    ("shared_services", BTBStyle.PDEDE, ASIDMode.TAGGED, None),
    ("shared_services", BTBStyle.BTBX, ASIDMode.PARTITIONED, ASIDMode.PARTITIONED),
)


@pytest.fixture(scope="module")
def fixture() -> dict:
    return load_fixture()


@pytest.mark.parametrize(
    "preset,style,mode",
    golden_cells(),
    ids=[cell_key(*cell) for cell in golden_cells()],
)
def test_numpy_backend_matches_golden_cell(fixture, preset, style, mode):
    pinned = fixture["cells"][cell_key(preset, style, mode)]
    actual = compute_cell(preset, style, mode, backend="numpy")
    assert actual == pinned, (
        f"numpy backend diverged from the scalar oracle on "
        f"{cell_key(preset, style, mode)}"
    )


@pytest.mark.parametrize(
    "preset,style,cache_mode",
    cache_golden_cells(),
    ids=[cache_cell_key(*cell) for cell in cache_golden_cells()],
)
def test_numpy_backend_matches_cache_golden_cell(fixture, preset, style, cache_mode):
    pinned = fixture["cells"][cache_cell_key(preset, style, cache_mode)]
    actual = compute_cache_cell(preset, style, cache_mode, backend="numpy")
    assert actual == pinned, (
        f"numpy backend diverged from the scalar oracle on "
        f"{cache_cell_key(preset, style, cache_mode)}"
    )


#: Smallest budget of the evaluation: the BTBs are under capacity pressure.
PRESSURE_BUDGET_KIB = 0.90625

#: ``(preset, style, mode)`` capacity-pressure cells (``preset=None``: the
#: single-trace ``run`` of :data:`PRESSURE_WORKLOAD`).
PRESSURE_CELLS = (
    (None, BTBStyle.REDUCED, None),
    ("consolidated_server", BTBStyle.REDUCED, ASIDMode.FLUSH),
    ("consolidated_server", BTBStyle.REDUCED, ASIDMode.TAGGED),
    ("consolidated_server", BTBStyle.REDUCED, ASIDMode.PARTITIONED),
    (None, BTBStyle.PDEDE, None),
    ("consolidated_server", BTBStyle.PDEDE, ASIDMode.FLUSH),
    ("consolidated_server", BTBStyle.PDEDE, ASIDMode.TAGGED),
    ("consolidated_server", BTBStyle.PDEDE, ASIDMode.PARTITIONED),
    (None, BTBStyle.IDEAL, None),
    ("consolidated_server", BTBStyle.IDEAL, ASIDMode.FLUSH),
    ("consolidated_server", BTBStyle.IDEAL, ASIDMode.TAGGED),
)
PRESSURE_WORKLOAD = "server_001"

#: ``(style, warmup)`` single-trace cells at :data:`PRESSURE_BUDGET_KIB` whose
#: warmup boundary -- the batched walk's only piece boundary in a ``run`` --
#: splits a gap of non-branches fewer than 128 instructions after a stream
#: break, with an L1-I miss in the gap a few instructions later.  The FTQ
#: occupancy crosses the boundary unsaturated, and the miss's FDIP coverage
#: (``result.icache_stall_cycles``) and the PDede extra lookup cycles
#: (``result.btb_extra_cycles``) read it.
BOUNDARY_CELLS = (
    (BTBStyle.CONVENTIONAL, 2061),
    (BTBStyle.REDUCED, 2044),
    (BTBStyle.PDEDE, 2285),
    (BTBStyle.BTBX, 1854),
    (BTBStyle.IDEAL, 1042),
)

PREDICTOR_STYLES = (BTBStyle.CONVENTIONAL, BTBStyle.BTBX)
#: Resolution counts every predictor cell must fire: target mispredictions and
#: taken BTB misses (false hits are recounted from the prediction records).
RESOLUTION_COUNTERS = ("result.target_mispredictions", "result.btb_misses_taken")

#: Counters that prove the bounded organizations were really under pressure.
PRESSURE_COUNTERS = ("evictions", "page_evictions", "pointer_invalidations")
#: Pressure counters a cell cannot reach: a flush empties PDede's Page-BTB
#: before its evictions strand any Main-BTB pointer.  PDede's pointer path
#: is covered by its other cells and by ``tests/test_btb_batch_plan.py``.
PRESSURE_UNREACHABLE = {(BTBStyle.PDEDE, ASIDMode.FLUSH): ("pointer_invalidations",)}

def _raw_stats(simulator, result) -> dict:
    """The simulator's raw statistics registry, every result field and the BTB's counter reports.

    BTB-X's report carries BTB-XC's accesses only; BTB-XC's own report (its
    hits, misses and evictions) is compared too, under ``btbxc.``.
    """
    btb = simulator.btb
    stats = dict(simulator.stats.counters())
    for name, value in asdict(result).items():
        stats[f"result.{name}"] = value
    for prefix, structure in (("btb", btb), ("btbxc", getattr(btb, "companion", None))):
        for key, value in (structure.energy_access_counts() if structure else {}).items():
            stats[f"{prefix}.{key}"] = value
    return stats


def _cell_stats(preset, style, mode, cache_mode, backend, budget_kib=GOLDEN_BUDGET_KIB):
    built = []

    class KeptSimulator(FrontEndSimulator):
        """The scenario runner's simulator, kept for its BTB's reports."""

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.scenarios.run.FrontEndSimulator", KeptSimulator)
        result = execute_scenario(
            preset,
            style=style,
            asid_mode=mode,
            cache_mode=cache_mode,
            budget_kib=budget_kib,
            instructions=GOLDEN_INSTRUCTIONS,
            warmup_instructions=GOLDEN_WARMUP,
            backend=backend,
        )
    (simulator,) = built
    assert result.btb_access_counts == simulator.btb.energy_access_counts()
    stats = _raw_stats(simulator, result.aggregate)
    stats["scenario.context_switches"] = result.context_switches
    return stats


def _run_simulator(style, backend, budget_kib):
    trace = default_store().get(PRESSURE_WORKLOAD, GOLDEN_INSTRUCTIONS)
    machine = default_machine_config(
        btb_style=style, fdip_enabled=True, isa=trace.isa, backend=backend
    )
    btb = make_btb_for_budget(style, budget_kib, isa=trace.isa)
    return FrontEndSimulator(machine, btb=btb), trace


def _run_stats(style, backend, budget_kib, warmup=GOLDEN_WARMUP):
    """Raw stats of a single-trace ``run`` cell (same length as the golden cells)."""
    simulator, trace = _run_simulator(style, backend, budget_kib)
    result = simulator.run(trace, warmup_instructions=warmup)
    return _raw_stats(simulator, result)


def _assert_backends_agree(python: dict, numpy: dict) -> None:
    differing = sorted(
        key
        for key in set(python) | set(numpy)
        if python.get(key) != numpy.get(key)
    )
    assert not differing, "backends diverged: " + ", ".join(
        f"{key}: python={python.get(key)} numpy={numpy.get(key)}" for key in differing
    )


@pytest.mark.parametrize(
    "preset,style,mode,cache_mode",
    FULL_STATS_CELLS,
    ids=[
        f"{preset}/{style.value}/{mode.value}/cache-{cache.value if cache else 'none'}"
        for preset, style, mode, cache in FULL_STATS_CELLS
    ],
)
def test_full_raw_stats_match_between_backends(preset, style, mode, cache_mode):
    python = _cell_stats(preset, style, mode, cache_mode, "python")
    numpy = _cell_stats(preset, style, mode, cache_mode, "numpy")
    _assert_backends_agree(python, numpy)


@pytest.mark.parametrize(
    "preset,style,mode",
    PRESSURE_CELLS,
    ids=[
        f"{preset or 'run'}/{style.value}/{mode.value if mode else PRESSURE_WORKLOAD}"
        for preset, style, mode in PRESSURE_CELLS
    ],
)
def test_backends_agree_under_capacity_pressure(preset, style, mode):
    def stats(backend):
        if preset is None:
            return _run_stats(style, backend, PRESSURE_BUDGET_KIB)
        return _cell_stats(preset, style, mode, None, backend, PRESSURE_BUDGET_KIB)

    python = stats("python")
    recorder = JsonlRecorder()
    with use_recorder(recorder):
        numpy = stats("numpy")
    _assert_backends_agree(python, numpy)
    assert recorder.metrics_snapshot()["counters"].get("batch.instructions_fast", 0) > 0
    if style is not BTBStyle.IDEAL:
        unreachable = PRESSURE_UNREACHABLE.get((style, mode), ())
        idle = [
            name
            for name in PRESSURE_COUNTERS
            if name not in unreachable and not python.get(f"btb.{name}")
        ]
        assert not idle, f"no capacity pressure on this cell: {idle} stayed zero"


@pytest.mark.parametrize("style", PREDICTOR_STYLES, ids=[style.value for style in PREDICTOR_STYLES])
def test_backends_agree_on_every_resolution_rule(style):
    simulator, trace = _run_simulator(style, "python", PRESSURE_BUDGET_KIB)
    records = []
    process = simulator.bpu.process

    def recording_process(instruction, lookup):
        prediction = process(instruction, lookup)
        records.append(prediction)
        return prediction

    simulator.bpu.process = recording_process
    result = simulator.run(trace, warmup_instructions=GOLDEN_WARMUP)
    python = _raw_stats(simulator, result)
    numpy = _run_stats(style, "numpy", PRESSURE_BUDGET_KIB)
    _assert_backends_agree(python, numpy)
    idle = [name for name in RESOLUTION_COUNTERS if not python.get(name)]
    # An identified resteer is a false hit (partial-tag aliasing).
    if not any(
        prediction.identified_branch and prediction.outcome is PredictionOutcome.DECODE_RESTEER
        for prediction in records
    ):
        idle.append("false hits")
    assert not idle, f"resolution rules never fired on this cell: {idle} stayed zero"


@pytest.mark.parametrize(
    "style,warmup",
    BOUNDARY_CELLS,
    ids=[f"run/{style.value}/warmup{warmup}" for style, warmup in BOUNDARY_CELLS],
)
def test_backends_agree_across_unsaturated_occupancy_boundary(style, warmup):
    simulator, trace = _run_simulator(style, "python", PRESSURE_BUDGET_KIB)
    assert all(
        trace.instructions[position].branch_type is BranchType.NOT_BRANCH
        for position in (warmup - 1, warmup)
    ), "the warmup boundary does not split a run of non-branches"
    simulator.run(trace, warmup_instructions=warmup, max_instructions=0)
    assert 0 < simulator.ftq.occupancy < simulator.ftq.capacity, (
        "the FTQ occupancy at the warmup boundary is empty or saturated"
    )
    _assert_backends_agree(
        _run_stats(style, "python", PRESSURE_BUDGET_KIB, warmup),
        _run_stats(style, "numpy", PRESSURE_BUDGET_KIB, warmup),
    )


def test_ftq_occupancy_after_a_run_matches_across_backends():
    """A straight-line run carries an over-full gap across the warmup boundary.

    Neither piece of the batched walk has a slow position, so the FTQ
    occupancy written back at each piece end must already be saturated;
    context-switch flushes read it there.
    """
    trace = Trace("straight_line", [Instruction(pc=0x400000 + 4 * i) for i in range(600)])
    occupancy = {}
    for backend in ("python", "numpy"):
        simulator = FrontEndSimulator(default_machine_config(fdip_enabled=True, backend=backend))
        simulator.run(trace, warmup_instructions=300)
        occupancy[backend] = simulator.ftq.occupancy
    assert occupancy["numpy"] == occupancy["python"] == simulator.ftq.capacity
