"""Tests for the multi-tenant scenario subsystem.

Covers the PR's contract points: the composer interleaves deterministically
without materializing the merge, warm/cold ASID assignment, context switches
thread through BTB/predictor/RAS state correctly in both ASID modes, a
single-tenant scenario reproduces the plain single-trace simulation exactly,
and scenario cells behave like every other engine job (hashable, worker-safe,
disk-cacheable).
"""

from __future__ import annotations

import json
import threading
from dataclasses import asdict, fields, replace

import pytest

from repro.common.config import ASIDMode, BTBStyle, default_machine_config
from repro.common.errors import ConfigurationError
from repro.core.metrics import SimulationResult
from repro.core.simulator import FrontEndSimulator
from repro.btb.btbx import BTBX
from repro.btb.conventional import ConventionalBTB
from repro.btb.ideal import IdealBTB
from repro.btb.storage import make_btb_for_budget
from repro.experiments.engine import (
    ExperimentEngine,
    ScenarioJob,
)
from repro.experiments.runner import clear_trace_cache
from repro.isa.branch import BranchType
from repro.isa.instruction import Instruction
from repro.scenarios import (
    ScenarioSpec,
    TenantSpec,
    TraceComposer,
    execute_scenario,
    get_scenario,
    scenario_names,
)
from repro.scenarios.presets import PRESET_NAMES
from repro.traces.store import default_store
from repro.traces.trace import Trace


@pytest.fixture(autouse=True)
def _bounded_traces():
    yield
    clear_trace_cache()


def _two_tenant_spec(**overrides) -> ScenarioSpec:
    settings = dict(
        name="test_pair",
        tenants=(
            TenantSpec("alpha", "server_001"),
            TenantSpec("beta", "server_009"),
        ),
        quantum_instructions=1_000,
        policy="round_robin",
        switch_semantics="warm",
    )
    settings.update(overrides)
    return ScenarioSpec(**settings)


class TestScenarioSpec:
    def test_specs_are_hashable(self):
        assert hash(_two_tenant_spec()) == hash(_two_tenant_spec())

    def test_duplicate_tenant_names_rejected(self):
        with pytest.raises(ConfigurationError):
            _two_tenant_spec(
                tenants=(TenantSpec("t", "server_001"), TenantSpec("t", "server_009"))
            )

    def test_bad_policy_and_semantics_rejected(self):
        with pytest.raises(ConfigurationError):
            _two_tenant_spec(policy="lottery")
        with pytest.raises(ConfigurationError):
            _two_tenant_spec(switch_semantics="lukewarm")
        with pytest.raises(ConfigurationError):
            _two_tenant_spec(quantum_instructions=0)
        with pytest.raises(ConfigurationError):
            TenantSpec("t", "server_001", weight=0)

    @pytest.mark.parametrize("weight", [0, -3, 1.5, 2.0, True, None])
    def test_non_positive_integer_weights_rejected_naming_the_field(self, weight):
        with pytest.raises(ConfigurationError, match="weight"):
            TenantSpec("greedy", "server_001", weight=weight)

    @pytest.mark.parametrize("quantum", [0, -1024, 512.5, 4096.0, False, None])
    def test_bad_quanta_rejected_naming_the_field(self, quantum):
        with pytest.raises(ConfigurationError, match="quantum_instructions"):
            _two_tenant_spec(quantum_instructions=quantum)

    def test_partition_weights_follow_tenant_order(self):
        spec = _two_tenant_spec(
            tenants=(
                TenantSpec("heavy", "server_001", weight=3),
                TenantSpec("light", "server_009", weight=1),
            ),
        )
        assert spec.partition_weights == (3, 1)

    def test_weighted_quantum_scales_with_weight(self):
        spec = _two_tenant_spec(
            tenants=(
                TenantSpec("heavy", "server_001", weight=3),
                TenantSpec("light", "server_009", weight=1),
            ),
            policy="weighted",
        )
        assert spec.turn_quantum(spec.tenants[0]) == 3_000
        assert spec.turn_quantum(spec.tenants[1]) == 1_000

    def test_presets_registered(self):
        assert set(PRESET_NAMES) == {
            "solo_baseline",
            "consolidated_server",
            "microservice_churn",
            "shared_services",
            "noisy_neighbor",
        }
        for name in scenario_names():
            assert get_scenario(name).name == name

    def test_unknown_scenario_raises(self):
        with pytest.raises(ConfigurationError):
            get_scenario("no_such_scenario")


def _straight_line_trace(name: str, base: int, count: int) -> Trace:
    """``count`` 4-byte non-branch instructions at ``base``, ``base + 4``, ..."""
    return Trace(name, [Instruction(pc=base + 4 * i, size=4) for i in range(count)])


class TestComposerSchedule:
    """The composer's schedule against hand-built ``(asid, tenant, pc)`` sequences.

    Tiny straight-line traces make every expected element writable by hand:
    tenant ``a`` runs at ``A + 4 * i`` and tenant ``b`` at ``B + 4 * i``.
    """

    A, B = 0x10000, 0x20000

    def _composer(self, a_length=20, b_length=20, tenants=("a", "b"), **settings):
        traces = {
            "wl_a": _straight_line_trace("wl_a", self.A, a_length),
            "wl_b": _straight_line_trace("wl_b", self.B, b_length),
        }
        weights = settings.pop("weights", {})
        spec = ScenarioSpec(
            name="schedule",
            tenants=tuple(
                TenantSpec(name, f"wl_{name}", weight=weights.get(name, 1)) for name in tenants
            ),
            **settings,
        )
        return TraceComposer(spec, traces)

    def _turn(self, asid, tenant, indices):
        base = self.A if tenant == "a" else self.B
        return [(asid, tenant, base + 4 * i) for i in indices]

    @staticmethod
    def _stream(composer, total):
        return [(asid, tenant, inst.pc) for asid, tenant, inst in composer.stream(total)]

    def test_warm_two_tenants_with_unequal_quanta(self):
        composer = self._composer(
            quantum_instructions=3, policy="weighted", weights={"a": 2, "b": 1}
        )
        expected = (
            self._turn(0, "a", range(0, 6))
            + self._turn(1, "b", range(0, 3))
            + self._turn(0, "a", range(6, 11))
        )
        assert self._stream(composer, 14) == expected

    def test_a_tenant_trace_wraps_mid_turn(self):
        composer = self._composer(a_length=4, b_length=10, quantum_instructions=3)
        expected = (
            self._turn(0, "a", [0, 1, 2])
            + self._turn(1, "b", [0, 1, 2])
            + self._turn(0, "a", [3, 0, 1])
            + self._turn(1, "b", [3, 4, 5])
        )
        assert self._stream(composer, 12) == expected

    def test_cold_takes_a_fresh_asid_every_turn(self):
        composer = self._composer(quantum_instructions=2, switch_semantics="cold")
        expected = (
            self._turn(0, "a", [0, 1])
            + self._turn(1, "b", [0, 1])
            + self._turn(2, "a", [2, 3])
            + self._turn(3, "b", [2])
        )
        assert self._stream(composer, 7) == expected

    def test_one_warm_tenant_never_switches(self):
        composer = self._composer(a_length=5, tenants=("a",), quantum_instructions=3)
        assert self._stream(composer, 8) == self._turn(0, "a", [0, 1, 2, 3, 4, 0, 1, 2])

    @pytest.mark.parametrize("total", [0, 1, 5, 6, 7, 61])
    def test_stream_has_the_exact_length(self, total):
        composer = self._composer(a_length=4, b_length=9, quantum_instructions=5)
        assert len(self._stream(composer, total)) == total

    def test_negative_length_is_rejected(self):
        with pytest.raises(ConfigurationError):
            list(self._composer().stream(-1))


class TestTraceComposer:
    def _traces(self, spec, instructions=6_000):
        store = default_store()
        return {workload: store.get(workload, instructions) for workload in set(spec.workloads)}

    def test_stream_has_exact_length_and_round_robin_order(self):
        spec = _two_tenant_spec()
        composer = TraceComposer(spec, self._traces(spec))
        slots = list(composer.stream(5_500))
        assert len(slots) == 5_500
        # Quantum 1000, round robin: alpha, beta, alpha, beta, alpha, beta(500).
        tenants = [tenant for _, tenant, _ in slots]
        assert tenants[:1_000] == ["alpha"] * 1_000
        assert tenants[1_000:2_000] == ["beta"] * 1_000
        assert tenants[5_000:] == ["beta"] * 500

    def test_warm_asids_are_stable_per_tenant(self):
        spec = _two_tenant_spec()
        composer = TraceComposer(spec, self._traces(spec))
        asids = {tenant: {asid for asid, t, _ in composer.stream(4_000) if t == tenant}
                 for tenant in ("alpha", "beta")}
        assert asids == {"alpha": {0}, "beta": {1}}

    def test_cold_asids_are_fresh_every_turn(self):
        spec = _two_tenant_spec(switch_semantics="cold")
        composer = TraceComposer(spec, self._traces(spec))
        seen = []
        for asid, _, _ in composer.stream(4_000):
            if not seen or seen[-1] != asid:
                seen.append(asid)
        assert seen == [0, 1, 2, 3]

    def test_streams_are_deterministic(self):
        spec = _two_tenant_spec()
        traces = self._traces(spec)
        left = [(a, t, i.pc) for a, t, i in TraceComposer(spec, traces).stream(3_000)]
        right = [(a, t, i.pc) for a, t, i in TraceComposer(spec, traces).stream(3_000)]
        assert left == right

    def test_tenant_stream_wraps_its_trace(self):
        spec = ScenarioSpec(
            name="solo_wrap",
            tenants=(TenantSpec("only", "client_001"),),
            quantum_instructions=10_000,
        )
        traces = self._traces(spec, instructions=2_000)
        slots = list(TraceComposer(spec, traces).stream(5_000))
        trace = traces["client_001"]
        assert [i.pc for _, _, i in slots[2_000:4_000]] == [inst.pc for inst in trace]

    def test_mixed_isa_rejected(self, small_server_trace, small_x86_trace):
        spec = ScenarioSpec(
            name="mixed",
            tenants=(TenantSpec("a", "arm_wl"), TenantSpec("b", "x86_wl")),
        )
        with pytest.raises(ConfigurationError):
            TraceComposer(spec, {"arm_wl": small_server_trace, "x86_wl": small_x86_trace})

    def test_missing_trace_rejected(self, small_server_trace):
        spec = _two_tenant_spec()
        with pytest.raises(ConfigurationError):
            TraceComposer(spec, {"server_001": small_server_trace})

    def test_empty_trace_rejected_at_construction(self, small_server_trace):
        """An empty tenant trace is a configuration error, caught once in the
        composer constructor so both streaming paths share the check."""
        spec = _two_tenant_spec()
        empty = Trace("server_009", [], isa=small_server_trace.isa)
        with pytest.raises(ConfigurationError, match="server_009"):
            TraceComposer(spec, {"server_001": small_server_trace, "server_009": empty})


class TestASIDStateManagement:
    branch = Instruction.branch(0x401000, BranchType.UNCONDITIONAL, True, 0x402800)

    @pytest.mark.parametrize("btb", [ConventionalBTB(512), BTBX(512), IdealBTB()])
    def test_tagged_btb_isolates_address_spaces(self, btb):
        btb.update(self.branch)
        assert btb.lookup(self.branch.pc).hit
        btb.set_active_asid(7)
        assert not btb.lookup(self.branch.pc).hit
        btb.set_active_asid(0)
        assert btb.lookup(self.branch.pc).hit

    def test_flush_mode_clears_everything(self):
        machine = default_machine_config(asid_mode=ASIDMode.FLUSH)
        simulator = FrontEndSimulator(machine)
        simulator.bpu.btb.update(self.branch)
        simulator.bpu.ras.push(0x1234)
        simulator.bpu.context_switch(1)
        assert not simulator.bpu.btb.lookup(self.branch.pc).hit
        assert simulator.bpu.ras.peek() is None

    def test_tagged_mode_checkpoints_ras_per_asid(self):
        machine = default_machine_config(asid_mode=ASIDMode.TAGGED)
        simulator = FrontEndSimulator(machine)
        simulator.bpu.ras.push(0x1111)
        simulator.bpu.context_switch(1)
        assert simulator.bpu.ras.peek() is None  # fresh address space
        simulator.bpu.ras.push(0x2222)
        simulator.bpu.context_switch(0)
        assert simulator.bpu.ras.peek() == 0x1111  # restored checkpoint
        simulator.bpu.context_switch(1)
        assert simulator.bpu.ras.peek() == 0x2222

    def test_tagged_mode_retains_btb_across_switches(self):
        machine = default_machine_config(asid_mode=ASIDMode.TAGGED)
        simulator = FrontEndSimulator(machine)
        simulator.bpu.btb.update(self.branch)
        simulator.bpu.context_switch(1)
        assert not simulator.bpu.btb.lookup(self.branch.pc).hit
        simulator.bpu.context_switch(0)
        assert simulator.bpu.btb.lookup(self.branch.pc).hit

    def test_partitioned_mode_retains_btb_across_switches(self):
        machine = default_machine_config(asid_mode=ASIDMode.PARTITIONED)
        simulator = FrontEndSimulator(machine)
        simulator.bpu.btb.configure_partitions((1, 1))
        simulator.bpu.btb.update(self.branch)
        simulator.bpu.context_switch(1)
        assert not simulator.bpu.btb.lookup(self.branch.pc).hit
        simulator.bpu.context_switch(0)
        assert simulator.bpu.btb.lookup(self.branch.pc).hit


class TestPartitionedCapacity:
    """Set-partitioned ASID mode: tenants cannot evict each other's entries."""

    def _fill(self, btb, count: int, base_pc: int = 0x500000) -> list[Instruction]:
        branches = [
            Instruction.branch(base_pc + 64 * i, BranchType.UNCONDITIONAL, True,
                               base_pc + 64 * i + 0x400)
            for i in range(count)
        ]
        for branch in branches:
            btb.update(branch)
        return branches

    @pytest.mark.parametrize(
        "make_btb",
        [
            lambda: ConventionalBTB(256, associativity=8),
            lambda: BTBX(256),
        ],
    )
    def test_neighbor_pressure_cannot_evict_partitioned_entries(self, make_btb):
        btb = make_btb()
        btb.configure_partitions((1, 1))
        victims = self._fill(btb, 32, base_pc=0x500000)
        hits_before = sum(btb.lookup(b.pc).hit for b in victims)
        # Tenant 1 hammers far more branches than its slice can hold.
        btb.set_active_asid(1)
        self._fill(btb, 4 * btb.capacity_entries(), base_pc=0x900000)
        btb.set_active_asid(0)
        hits_after = sum(btb.lookup(b.pc).hit for b in victims)
        assert hits_after == hits_before

    def test_shared_tagged_btb_does_suffer_neighbor_pressure(self):
        """Contrast case: without partitions the neighbour evicts the victim."""
        btb = ConventionalBTB(64, associativity=8)
        victims = self._fill(btb, 32, base_pc=0x500000)
        btb.set_active_asid(1)
        self._fill(btb, 4 * btb.capacity_entries(), base_pc=0x900000)
        btb.set_active_asid(0)
        hits_after = sum(btb.lookup(b.pc).hit for b in victims)
        assert hits_after < 32

    def test_partition_counts_follow_weights(self):
        btb = ConventionalBTB(256, associativity=8)  # 32 sets
        btb.configure_partitions((4, 1, 1))
        counts = btb.partition_set_counts()
        assert sum(counts) == 32
        assert counts[0] > counts[1] == counts[2] >= 1

    def test_removing_partitions_invalidates_slice_indexed_entries(self):
        """Going back to shared indexing must not leave slice-indexed entries
        reachable (or unreachable-but-aliasable) under whole-structure sets."""
        btb = ConventionalBTB(256, associativity=8)
        btb.configure_partitions((1, 1))
        branches = [
            Instruction.branch(0x500000 + 4 * i, BranchType.UNCONDITIONAL, True,
                               0x500000 + 4 * i + 0x400)
            for i in range(16)  # stride of one set: walks the whole 16-set slice
        ]
        for branch in branches:
            btb.update(branch)
        assert all(btb.lookup(b.pc).hit for b in branches)
        btb.configure_partitions(None)
        assert not any(btb.lookup(b.pc).hit for b in branches)

    def test_partitioning_smaller_than_tenant_count_falls_back_to_sharing(self):
        btb = ConventionalBTB(16, associativity=8)  # 2 sets
        btb.configure_partitions((1, 1, 1))
        assert btb.partition_set_counts() is None

    def test_fallback_still_validates_weights_and_invalidates(self):
        btb = ConventionalBTB(256, associativity=8)  # 32 sets
        with pytest.raises(ConfigurationError):
            btb.configure_partitions((1, 0) + (1,) * 40)
        btb.configure_partitions((1, 1))
        branch = Instruction.branch(0x500000, BranchType.UNCONDITIONAL, True, 0x500400)
        btb.update(branch)
        assert btb.lookup(branch.pc).hit
        # Falling back from a partitioned map must invalidate slice-indexed
        # entries, exactly like returning to shared explicitly does.
        btb.configure_partitions((1,) * 64)
        assert btb.partition_set_counts() is None
        assert not btb.lookup(branch.pc).hit

    def test_bad_partition_weights_rejected(self):
        btb = ConventionalBTB(256, associativity=8)
        for weights in ((), (0,), (-1, 2), (1.5, 1), (True, 1)):
            with pytest.raises(ConfigurationError):
                btb.configure_partitions(weights)

    def test_btbx_companion_falls_back_to_sharing_when_too_small(self):
        btb = BTBX(256, companion_entries=1)  # 1-entry companion
        btb.configure_partitions((1, 1))
        assert btb.partition_set_counts() == [16, 16]
        assert btb.companion.partition_set_counts() is None

    def test_ideal_btb_accepts_partitions_as_noop(self):
        btb = IdealBTB()
        btb.configure_partitions((2, 1))
        assert btb.partition_set_counts() is None
        with pytest.raises(ConfigurationError):
            btb.configure_partitions((0,))

    def test_execute_scenario_reports_weighted_partition_sets(self):
        result = execute_scenario(
            "noisy_neighbor",
            style=BTBStyle.CONVENTIONAL,
            asid_mode=ASIDMode.PARTITIONED,
            instructions=12_000,
            warmup_instructions=3_000,
        )
        partitions = result.partition_sets
        assert set(partitions) == {"noisy", "victim_a", "victim_b"}
        assert partitions["noisy"] > 2 * partitions["victim_a"]
        assert partitions["victim_a"] == partitions["victim_b"]
        # Shared modes report no partition map.
        shared = execute_scenario(
            "noisy_neighbor",
            style=BTBStyle.CONVENTIONAL,
            asid_mode=ASIDMode.TAGGED,
            instructions=12_000,
            warmup_instructions=3_000,
        )
        assert shared.partition_sets is None


class TestRunScenario:
    def test_solo_baseline_reproduces_single_trace_simulation(self):
        """Acceptance: one tenant, no switches == the plain simulate() path."""
        instructions, warmup = 24_000, 8_000
        for asid_mode in (ASIDMode.FLUSH, ASIDMode.TAGGED, ASIDMode.PARTITIONED):
            scenario = execute_scenario(
                "solo_baseline",
                style=BTBStyle.BTBX,
                asid_mode=asid_mode,
                budget_kib=14.5,
                instructions=instructions,
                warmup_instructions=warmup,
            )
            trace = default_store().get("server_001", instructions)
            machine = default_machine_config(
                btb_style=BTBStyle.BTBX, fdip_enabled=True, isa=trace.isa, asid_mode=asid_mode
            )
            btb = make_btb_for_budget(BTBStyle.BTBX, 14.5, isa=trace.isa)
            solo = FrontEndSimulator(machine, btb=btb).run(trace, warmup_instructions=warmup)

            assert scenario.context_switches == 0
            assert replace(scenario.aggregate, workload=solo.workload) == solo

    def test_flush_and_tagged_mpki_differ_measurably(self):
        """Acceptance: consolidated_server separates the two ASID modes."""
        results = {
            mode: execute_scenario(
                "consolidated_server",
                style=BTBStyle.BTBX,
                asid_mode=mode,
                instructions=48_000,
                warmup_instructions=16_000,
            )
            for mode in (ASIDMode.FLUSH, ASIDMode.TAGGED)
        }
        flush, tagged = results[ASIDMode.FLUSH], results[ASIDMode.TAGGED]
        assert flush.context_switches == tagged.context_switches > 0
        assert abs(flush.aggregate.btb_mpki - tagged.aggregate.btb_mpki) > 0.5
        # Warm tenants re-use retained state, so flushing must cost misses.
        assert flush.aggregate.btb_mpki > tagged.aggregate.btb_mpki
        for result in (flush, tagged):
            assert set(result.per_tenant) == {"frontend", "search", "ads", "feed"}

    @pytest.mark.parametrize("scenario", ["noisy_neighbor", "microservice_churn"])
    def test_per_tenant_results_sum_to_aggregate(self, scenario):
        """Every measured field of the aggregate is the tenant-order sum, exactly.

        ``noisy_neighbor`` keeps one ASID per tenant (warm);
        ``microservice_churn`` gives every turn a fresh ASID (cold), so the
        stream also switches address space without switching tenant.
        """
        result = execute_scenario(
            scenario,
            style=BTBStyle.CONVENTIONAL,
            asid_mode=ASIDMode.FLUSH,
            instructions=24_000,
            warmup_instructions=6_000,
        )
        tenants = list(result.per_tenant.values())
        assert len(tenants) > 1 and result.context_switches > len(tenants)
        identity = {"workload", "btb_style", "btb_storage_kib", "fdip_enabled"}
        measured = [f.name for f in fields(SimulationResult) if f.name not in identity]
        for name in measured:
            expected = sum(getattr(t, name) for t in tenants)
            actual = getattr(result.aggregate, name)
            assert (actual, type(actual)) == (expected, type(expected)), name
        # Every charged resolution count is attributed to more than one tenant.
        for name in ("btb_misses_taken", "direction_mispredictions", "target_mispredictions"):
            assert sum(1 for t in tenants if getattr(t, name)) > 1, name
        if scenario == "noisy_neighbor":
            # Weighted scheduling: the noisy tenant gets ~4x the victims' share.
            noisy = result.per_tenant["noisy"].instructions
            victim = result.per_tenant["victim_a"].instructions
            assert noisy > 2 * victim

    def test_cold_semantics_defeats_tagged_retention(self):
        """Fresh ASIDs every turn: retained state is dead weight, so tagged
        retention cannot beat flushing the way it does in the warm scenario."""
        results = {
            mode: execute_scenario(
                "microservice_churn",
                style=BTBStyle.BTBX,
                asid_mode=mode,
                instructions=24_000,
                warmup_instructions=6_000,
            )
            for mode in (ASIDMode.FLUSH, ASIDMode.TAGGED)
        }
        flush, tagged = results[ASIDMode.FLUSH], results[ASIDMode.TAGGED]
        assert flush.context_switches == tagged.context_switches > 0
        assert tagged.aggregate.btb_mpki >= flush.aggregate.btb_mpki * 0.9


class TestNumpyScenarioPath:
    """The numpy backend decodes each scheduled chunk on the caller's thread."""

    @pytest.fixture(autouse=True)
    def _numpy(self):
        pytest.importorskip("numpy")

    def _run(self):
        return execute_scenario(
            "consolidated_server",
            style=BTBStyle.CONVENTIONAL,
            asid_mode=ASIDMode.FLUSH,
            instructions=2_000,
            backend="numpy",
        )

    def test_chunks_are_decoded_on_the_calling_thread(self, monkeypatch):
        from repro.core import batch

        decoded_on = []
        decode = batch.trace_arrays

        def recording(trace):
            decoded_on.append(threading.get_ident())
            return decode(trace)

        monkeypatch.setattr(batch, "trace_arrays", recording)
        threads_before = {thread.ident for thread in threading.enumerate()}
        result = self._run()
        assert result.aggregate.instructions > 0
        assert decoded_on and set(decoded_on) == {threading.get_ident()}
        assert {thread.ident for thread in threading.enumerate()} <= threads_before

    def test_decode_failure_propagates_from_execute_scenario(self, monkeypatch):
        from repro.core import batch

        def explode(trace):
            raise RuntimeError("injected decode failure")

        monkeypatch.setattr(batch, "trace_arrays", explode)
        threads_before = {thread.ident for thread in threading.enumerate()}
        with pytest.raises(RuntimeError, match="injected decode failure"):
            self._run()
        assert {thread.ident for thread in threading.enumerate()} <= threads_before


class TestScenarioJobs:
    def _job(self, **overrides):
        settings = dict(
            scenario="consolidated_server",
            instructions=12_000,
            warmup_instructions=4_000,
            style=BTBStyle.BTBX,
            asid_mode=ASIDMode.TAGGED,
            fdip_enabled=True,
            budget_kib=14.5,
        )
        settings.update(overrides)
        return ScenarioJob(**settings)

    def test_hash_stable_and_sensitive(self):
        base = self._job()
        assert base.config_hash() == self._job().config_hash()
        variants = [
            self._job(scenario="microservice_churn"),
            self._job(instructions=13_000),
            self._job(warmup_instructions=0),
            self._job(style=BTBStyle.CONVENTIONAL),
            self._job(asid_mode=ASIDMode.FLUSH),
            self._job(fdip_enabled=False),
            self._job(budget_kib=7.25),
        ]
        hashes = {job.config_hash() for job in variants}
        assert len(hashes) == len(variants)
        assert base.config_hash() not in hashes

    def test_scenario_and_plain_jobs_never_collide(self):
        from repro.experiments.engine import SimJob

        plain = SimJob(
            workload="consolidated_server",  # same string, different meaning
            instructions=12_000,
            warmup_instructions=4_000,
            style=BTBStyle.BTBX,
            fdip_enabled=True,
            budget_kib=14.5,
        )
        assert plain.config_hash() != self._job().config_hash()

    def test_serial_and_parallel_scenario_results_identical(self):
        """Acceptance: scenario cells are bit-identical across worker counts."""
        jobs = [self._job(), self._job(asid_mode=ASIDMode.FLUSH)]
        serial = ExperimentEngine(workers=1).run_jobs(jobs)
        parallel = ExperimentEngine(workers=2).run_jobs(jobs)
        for left, right in zip(serial, parallel):
            assert left.result == right.result
            assert left.scenario is not None and right.scenario is not None
            assert left.scenario == right.scenario

    def test_warm_cache_rerun_runs_zero_scenario_simulations(self, tmp_path):
        """Acceptance: a warm-cache rerun performs zero simulations."""
        jobs = [self._job(), self._job(style=BTBStyle.CONVENTIONAL)]
        first = ExperimentEngine(workers=1, cache_dir=tmp_path)
        warm = first.run_jobs(jobs)
        assert first.stats()["executed"] == len(jobs)

        second = ExperimentEngine(workers=1, cache_dir=tmp_path)
        cold = second.run_jobs(jobs)
        assert second.stats()["executed"] == 0
        assert second.stats()["disk_hits"] == len(jobs)
        for left, right in zip(warm, cold):
            assert left.result == right.result
            assert left.scenario == right.scenario

    def test_scenario_study_driver(self):
        from repro.experiments import scenario_study
        from repro.experiments.config import ExperimentScale

        tiny = ExperimentScale(
            name="tiny", instructions=10_000, warmup_fraction=0.3,
            server_workloads=1, client_workloads=1,
        )
        from repro.experiments.sweep import AGGREGATE, aggregate_curves

        result = scenario_study.run(
            tiny,
            presets=["solo_baseline", "consolidated_server"],
            styles=(BTBStyle.BTBX,),
            engine=ExperimentEngine(workers=1),
        )
        curves = aggregate_curves(result["rows"])
        assert list(curves) == [
            ("quantum", "solo_baseline"), ("quantum", "consolidated_server")
        ]
        consolidated = curves[("quantum", "consolidated_server")]
        assert list(consolidated) == ["BTB-X/flush", "BTB-X/tagged", "BTB-X/partitioned"]
        quantum = get_scenario("consolidated_server").quantum_instructions
        for (point,) in consolidated.values():
            assert point["axis_value"] == quantum and point["context_switches"] > 0
        tenants = [
            row["tenant"] for row in result["rows"]
            if row["preset"] == "consolidated_server" and row["config"] == "BTB-X/tagged"
        ]
        # 10,000 instructions at a 4,096-instruction quantum schedule three turns.
        assert tenants == [AGGREGATE, "frontend", "search", "ads"]
        report = scenario_study.format_report(result)
        assert "consolidated_server" in report and "BTB-X/tagged" in report
        assert "BTB-X/partitioned" in report

    def test_rejects_bad_jobs(self):
        with pytest.raises(ConfigurationError):
            self._job(instructions=0)
        for budget_kib in (0.0, float("inf"), float("nan")):
            with pytest.raises(ConfigurationError, match="budget"):
                self._job(budget_kib=budget_kib)
        with pytest.raises(ConfigurationError):
            self._job(scenario="never_registered")

    def test_job_pins_resolved_spec_at_construction(self):
        """A job built from a user-registered scenario must stay executable in
        a process that never saw the registration (spawn-style worker pools),
        so the resolved spec rides on the job instead of being re-looked-up."""
        from repro.scenarios import register_scenario
        from repro.scenarios.presets import _REGISTRY

        custom = ScenarioSpec(
            name="custom_pinned",
            tenants=(TenantSpec("a", "client_001"), TenantSpec("b", "client_002")),
            quantum_instructions=1_000,
        )
        register_scenario(custom)
        try:
            job = self._job(scenario="custom_pinned", instructions=6_000,
                            warmup_instructions=2_000)
            assert job.spec is custom
            del _REGISTRY["custom_pinned"]  # simulate a fresh worker interpreter
            stable_hash = job.config_hash()  # no registry lookup involved
            assert stable_hash == job.config_hash()
            outcome = ExperimentEngine(workers=1).run_job(job)
            assert outcome.scenario.scenario == "custom_pinned"
            assert set(outcome.scenario.per_tenant) == {"a", "b"}
        finally:
            _REGISTRY.pop("custom_pinned", None)

    def test_result_fields_stay_complete(self):
        """Every SimulationResult field survives the disk cache's JSON payload."""
        outcome = ExperimentEngine(workers=1).run_job(self._job(instructions=6_000))
        payload = json.loads(json.dumps(asdict(outcome.result)))
        assert SimulationResult(**payload) == outcome.result
