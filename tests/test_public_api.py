"""Tests for the public package surface (`import repro`) and the runner helpers."""

from __future__ import annotations

import pytest

import repro
from repro.common.config import BTBStyle
from repro.experiments.config import SMOKE_SCALE
from repro.experiments.runner import (
    EVALUATED_STYLES,
    clear_trace_cache,
    evaluation_traces,
    is_server_workload,
    simulate,
    style_label,
)


class TestPackageSurface:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_quickstart_flow(self):
        trace = repro.build_workload("client_001", 4_000)
        result = repro.simulate_trace(trace, btb_style=repro.BTBStyle.BTBX, budget_kib=1.8125)
        assert result.instructions > 0
        assert result.btb_storage_kib > 0

    def test_make_btb_for_budget_exported(self):
        btb = repro.make_btb_for_budget(repro.BTBStyle.BTBX, 1.8125)
        assert btb.capacity_entries() == 520


class TestRunnerHelpers:
    def test_style_labels(self):
        assert [style_label(s) for s in EVALUATED_STYLES] == ["Conv-BTB", "PDede", "BTB-X"]

    def test_is_server_workload(self):
        assert is_server_workload("server_032")
        assert is_server_workload("cvp_server_001")
        assert is_server_workload("wordpress")
        assert not is_server_workload("client_003")

    def test_evaluation_traces_respect_limits(self):
        clear_trace_cache()
        traces = evaluation_traces(SMOKE_SCALE, suites=("ipc1_client", "ipc1_server"))
        assert len(traces) == SMOKE_SCALE.client_workloads + SMOKE_SCALE.server_workloads
        for trace in traces:
            assert len(trace) == SMOKE_SCALE.instructions
        clear_trace_cache()

    def test_simulate_single_config(self):
        clear_trace_cache()
        trace = evaluation_traces(SMOKE_SCALE, suites=("ipc1_client",))[0]
        result = simulate(trace, BTBStyle.CONVENTIONAL, 0.90625, fdip_enabled=True, scale=SMOKE_SCALE)
        assert result.workload == trace.name
        assert result.instructions == SMOKE_SCALE.instructions - SMOKE_SCALE.warmup_instructions
        assert result.btb_storage_kib <= 0.91
        clear_trace_cache()

    @pytest.mark.parametrize("style", EVALUATED_STYLES)
    def test_simulate_all_styles_produce_metrics(self, style):
        clear_trace_cache()
        trace = evaluation_traces(SMOKE_SCALE, suites=("ipc1_client",))[0]
        result = simulate(trace, style, 1.8125, fdip_enabled=False, scale=SMOKE_SCALE)
        assert result.cycles > 0
        assert result.ipc > 0
        clear_trace_cache()
