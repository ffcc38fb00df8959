"""Integration tests for the front-end simulator and the cycles derived from its counts."""

from __future__ import annotations

import pytest

from repro.common.config import BTBStyle, CoreConfig, default_machine_config
from repro.core.metrics import MEASURED_FIELDS, PRODUCED, tenant_fields
from repro.core.simulator import _EMPTY_ACCOUNT, FrontEndSimulator, _Ledger, simulate_trace
from repro.btb.ideal import IdealBTB
from repro.btb.storage import make_btb_for_budget
from repro.frontend.bpu import PredictionOutcome
from repro.scenarios.run import execute_scenario
from repro.scenarios.spec import ScenarioSpec, TenantSpec
from repro.traces.batch import HAVE_NUMPY
from repro.traces.store import default_store

BACKENDS = (
    "python",
    pytest.param(
        "numpy", marks=pytest.mark.skipif(not HAVE_NUMPY, reason="numpy backend not available")
    ),
)


def _account(**counts):
    return dict(_EMPTY_ACCOUNT, **counts)


class TestCycleDerivation:
    def test_base_cycles_from_fetch_width(self):
        derived = tenant_fields(_account(instructions=600), CoreConfig(fetch_width=6))
        assert derived["base_cycles"] == 100
        assert derived["cycles"] == 100

    def test_penalties_add_to_the_base(self):
        core = CoreConfig()
        derived = tenant_fields(
            _account(
                instructions=60, execute_flushes=2, decode_resteers=3,
                icache_stall_cycles=12.0, btb_extra_cycles=1.0,
            ),
            core,
        )
        assert derived["flush_cycles"] == 2 * core.execute_flush_penalty
        assert derived["resteer_cycles"] == 3 * core.decode_resteer_penalty
        assert derived["cycles"] == (
            10 + 2 * core.execute_flush_penalty + 3 * core.decode_resteer_penalty + 12 + 1
        )
        for name in ("cycles", "base_cycles", "flush_cycles", "resteer_cycles"):
            assert type(derived[name]) is float, name

    def test_a_tenant_without_stalls_reports_float_zeros(self):
        derived = tenant_fields(_account(), CoreConfig())
        for name, kind in MEASURED_FIELDS.items():
            assert derived[name] == 0 and type(derived[name]) is kind, name

    def test_every_l1i_demand_miss_is_an_l2_access(self):
        derived = tenant_fields(_account(l1i_misses=7, l2_misses=2), CoreConfig())
        assert derived["l2_accesses"] == 7

    def test_every_measured_field_is_produced_exactly_one_way(self):
        kinds = {"charged", "derived"}
        by_kind = {kind: {n for n, p in PRODUCED.items() if p == kind} for kind in kinds}
        assert set(PRODUCED) == set(MEASURED_FIELDS)
        assert set(PRODUCED.values()) == kinds
        assert sum(len(names) for names in by_kind.values()) == len(MEASURED_FIELDS)
        assert set(_EMPTY_ACCOUNT) == by_kind["charged"]
        assert set(tenant_fields(_account(), CoreConfig())) == set(MEASURED_FIELDS)
        # A derived field is not in the account, so a loop cannot charge it.
        ledger = _Ledger(FrontEndSimulator())
        ledger.enter("tenant")
        ledger.charge(instructions=1)
        with pytest.raises(KeyError):
            ledger.charge(l2_accesses=1)


class TestSimulatorBasics:
    def test_result_accounting_consistency(self, small_server_trace):
        result = simulate_trace(small_server_trace, btb_style=BTBStyle.BTBX, warmup_fraction=0.3)
        assert result.instructions == len(small_server_trace) - int(0.3 * len(small_server_trace))
        assert result.cycles == pytest.approx(
            result.base_cycles
            + result.flush_cycles
            + result.resteer_cycles
            + result.icache_stall_cycles
            + result.btb_extra_cycles
        )
        assert 0 < result.ipc <= 6
        assert result.taken_branches <= result.branches
        assert result.l1i_misses <= result.l1i_accesses

    def test_warmup_excluded_from_measurement(self, small_server_trace):
        machine = default_machine_config(btb_style=BTBStyle.CONVENTIONAL, budget_kib=8.0)
        full = FrontEndSimulator(machine).run(small_server_trace, warmup_instructions=0)
        warmed = FrontEndSimulator(machine).run(small_server_trace, warmup_instructions=10_000)
        assert warmed.instructions == full.instructions - 10_000
        # Warming must not increase the measured miss ratio.
        assert warmed.btb_mpki <= full.btb_mpki + 1e-9

    def test_max_instructions_cap(self, small_server_trace):
        machine = default_machine_config()
        result = FrontEndSimulator(machine).run(small_server_trace, max_instructions=5_000)
        assert result.instructions == 5_000

    def test_ideal_btb_has_no_capacity_misses(self, small_server_trace):
        machine = default_machine_config(btb_style=BTBStyle.IDEAL)
        simulator = FrontEndSimulator(machine, btb=IdealBTB())
        simulator.run(small_server_trace)
        # Replaying the same trace through the already-trained ideal BTB must
        # produce zero BTB misses: every taken branch has been inserted once.
        replay = simulator.run(small_server_trace)
        assert replay.btb_misses_taken == 0

    def test_results_deterministic(self, small_client_trace):
        first = simulate_trace(small_client_trace, btb_style=BTBStyle.BTBX)
        second = simulate_trace(small_client_trace, btb_style=BTBStyle.BTBX)
        assert first == second


class TestPaperShapes:
    """Coarse end-to-end checks of the paper's qualitative results."""

    @pytest.fixture(scope="class")
    def server_results(self, small_server_trace):
        results = {}
        for style in (BTBStyle.CONVENTIONAL, BTBStyle.PDEDE, BTBStyle.BTBX):
            machine = default_machine_config(btb_style=style, fdip_enabled=True)
            btb = make_btb_for_budget(style, 1.8125)  # small budget stresses capacity
            simulator = FrontEndSimulator(machine, btb=btb)
            results[style] = simulator.run(small_server_trace, warmup_instructions=12_000)
        return results

    def test_btbx_tracks_more_branches_and_misses_less(self, server_results):
        conv = server_results[BTBStyle.CONVENTIONAL]
        btbx = server_results[BTBStyle.BTBX]
        assert btbx.btb_mpki < conv.btb_mpki
        assert conv.btb_mpki > 1.0

    def test_btbx_at_least_matches_pdede_capacity_trend(self, server_results):
        pdede = server_results[BTBStyle.PDEDE]
        btbx = server_results[BTBStyle.BTBX]
        # BTB-X holds ~1.3x more entries; allow a modest tolerance because the
        # synthetic offset mix is longer-tailed than the paper's traces.
        assert btbx.btb_mpki <= pdede.btb_mpki * 1.25

    def test_server_worse_than_client(self, small_server_trace, small_client_trace):
        machine = default_machine_config(btb_style=BTBStyle.CONVENTIONAL)
        btb_server = make_btb_for_budget(BTBStyle.CONVENTIONAL, 1.8125)
        btb_client = make_btb_for_budget(BTBStyle.CONVENTIONAL, 1.8125)
        server = FrontEndSimulator(machine, btb=btb_server).run(
            small_server_trace, warmup_instructions=10_000
        )
        client = FrontEndSimulator(machine, btb=btb_client).run(
            small_client_trace, warmup_instructions=8_000
        )
        assert server.btb_mpki > client.btb_mpki

    def test_fdip_does_not_hurt(self, small_server_trace):
        base = simulate_trace(small_server_trace, btb_style=BTBStyle.BTBX, fdip_enabled=False)
        fdip = simulate_trace(small_server_trace, btb_style=BTBStyle.BTBX, fdip_enabled=True)
        assert fdip.cycles <= base.cycles + 1e-6

    def test_larger_btb_never_increases_mpki(self, small_server_trace):
        machine = default_machine_config(btb_style=BTBStyle.CONVENTIONAL)
        small = FrontEndSimulator(
            machine, btb=make_btb_for_budget(BTBStyle.CONVENTIONAL, 0.90625)
        ).run(small_server_trace, warmup_instructions=10_000)
        large = FrontEndSimulator(
            machine, btb=make_btb_for_budget(BTBStyle.CONVENTIONAL, 29.0)
        ).run(small_server_trace, warmup_instructions=10_000)
        assert large.btb_mpki <= small.btb_mpki


class TestWarmupCoveringTheStream:
    """A stream that ends inside its warmup measures nothing, mispredictions included."""

    @staticmethod
    def _measured(result) -> tuple:
        return (result.instructions, result.direction_mispredictions,
                result.target_mispredictions)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("warmup", (4_000, 4_100))
    def test_run(self, backend, warmup):
        trace = default_store().get("server_001", 4_000)
        machine = default_machine_config(isa=trace.isa, backend=backend)
        result = FrontEndSimulator(machine).run(trace, warmup_instructions=warmup)
        assert self._measured(result) == (0, 0, 0)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_two_tenant_scenario(self, backend):
        spec = ScenarioSpec(
            name="warmup_only_pair",
            tenants=(TenantSpec("front", "server_001"), TenantSpec("back", "server_009")),
            quantum_instructions=1_000,
        )
        result = execute_scenario(
            spec, instructions=4_000, warmup_instructions=4_000, backend=backend
        )
        assert result.context_switches == 0
        assert sorted(result.per_tenant) == ["back", "front"]
        for tenant_result in (result.aggregate, *result.per_tenant.values()):
            assert self._measured(tenant_result) == (0, 0, 0)


class TestEmptyRun:
    """A run that measures nothing reports zeros of every field's kind."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_no_instruction_equals_warmup_only(self, backend):
        trace = default_store().get("server_001", 4_000)
        machine = default_machine_config(isa=trace.isa, backend=backend)
        empty = FrontEndSimulator(machine).run(trace, max_instructions=0)
        warmup_only = FrontEndSimulator(machine).run(
            trace, warmup_instructions=100, max_instructions=0
        )
        assert empty == warmup_only
        for result in (empty, warmup_only):
            for name, kind in MEASURED_FIELDS.items():
                assert getattr(result, name) == 0, name
                assert type(getattr(result, name)) is kind, name


class TestChargedResolutionCounts:
    """The loop's taken BTB misses and mispredictions match a recount of its records.

    The scalar loop reads these three counts off the outcome of each
    prediction record it measures.  The recount below classifies the same
    measured records by the architectural outcome instead: a taken branch the
    BTB did not identify, an identified branch whose direction was wrong, and
    an identified taken branch whose predicted target was wrong.
    """

    WARMUP = 5_000

    @pytest.mark.parametrize("style", tuple(BTBStyle), ids=[style.value for style in BTBStyle])
    def test_charged_counts_equal_a_recount_of_the_measured_records(self, style):
        trace = default_store().get("server_001", 20_000)
        machine = default_machine_config(btb_style=style, isa=trace.isa)
        btb = make_btb_for_budget(style, 0.90625, isa=trace.isa)
        simulator = FrontEndSimulator(machine, btb=btb)
        # The loop pushes every instruction into the FTQ once, after
        # resolving it, so the pushes count stream positions (an instruction
        # object can recur in a trace).  The BTB is probed only where a probe
        # can hit; every other probe is credited as a skipped miss.
        position = probes = skipped = 0
        records = []
        push = simulator.ftq.push
        lookup = btb.lookup
        note_skipped = btb.note_skipped_miss_lookups
        process = simulator.bpu.process

        def counting_push():
            nonlocal position
            position += 1
            return push()

        def counting_lookup(pc):
            nonlocal probes
            probes += 1
            return lookup(pc)

        def counting_skipped(count):
            nonlocal skipped
            skipped += count
            return note_skipped(count)

        def recording_process(instruction, found):
            prediction = process(instruction, found)
            if position >= self.WARMUP:
                records.append((instruction, prediction))
            return prediction

        simulator.ftq.push = counting_push
        btb.lookup = counting_lookup
        btb.note_skipped_miss_lookups = counting_skipped
        simulator.bpu.process = recording_process
        result = simulator.run(trace, warmup_instructions=self.WARMUP)
        assert position == len(trace)
        assert probes + skipped == len(trace) and skipped > 0
        assert btb.energy_access_counts()["reads.main"] == result.instructions

        btb_misses = direction = target = 0
        for instruction, prediction in records:
            if not instruction.is_branch:
                continue
            if not prediction.identified_branch:
                btb_misses += instruction.taken
            elif prediction.predicted_taken != instruction.taken:
                direction += 1
            elif instruction.taken and prediction.predicted_target != instruction.target:
                target += 1
        assert btb_misses > 0 and direction > 0 and target > 0
        assert (
            result.btb_misses_taken, result.direction_mispredictions, result.target_mispredictions
        ) == (btb_misses, direction, target)
        assert result.execute_flushes == sum(
            prediction.outcome is PredictionOutcome.EXECUTE_FLUSH for _, prediction in records
        )


class TestRunIsAOneTenantScenario:
    """``run`` is the one-tenant scenario of the machine's backend."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_result_is_named_after_the_trace(self, backend):
        trace = default_store().get("server_001", 4_000)
        simulator = FrontEndSimulator(default_machine_config(isa=trace.isa, backend=backend))
        result = simulator.run(trace, warmup_instructions=1_000)
        assert result.workload == trace.name
        assert result.instructions == 3_000

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_max_instructions_past_the_trace_end_measures_the_rest(self, backend):
        trace = default_store().get("server_001", 4_000)
        machine = default_machine_config(isa=trace.isa, backend=backend)
        capped = FrontEndSimulator(machine).run(
            trace, warmup_instructions=1_000, max_instructions=10_000
        )
        uncapped = FrontEndSimulator(machine).run(trace, warmup_instructions=1_000)
        assert capped.instructions == 3_000
        assert capped == uncapped
