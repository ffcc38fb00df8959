"""Tests for the public package surface (`import repro`) and the runner helpers."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro
from repro.experiments.config import SMOKE_SCALE
from repro.experiments.runner import (
    EVALUATED_STYLES,
    clear_trace_cache,
    evaluation_traces,
    is_server_workload,
    style_label,
)

#: Every ``repro.*`` package (a module with submodules), imported by name.
PACKAGES = ["repro"] + sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if info.ispkg
)


class TestPackageSurface:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_exports_resolve(self, package):
        module = importlib.import_module(package)
        for name in module.__all__:
            assert hasattr(module, name), f"{package}.{name}"

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
