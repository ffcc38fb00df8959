"""Tests for the synthetic workload generator (programs, traces, calibration)."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.common.config import ISAStyle
from repro.common.errors import WorkloadError
from repro.analysis.offset_analysis import offset_distribution
from repro.workloads.cfg import (
    Function,
    ProgramBuilder,
    TerminatorKind,
    _nearest_position,
    build_program,
)
from repro.workloads.execution import TraceGenerator, generate_trace, verify_trace_consistency
from repro.workloads.spec import WorkloadClass, WorkloadSpec, client_spec, server_spec
from repro.workloads.suites import (
    SERVER_WORKLOAD_NAMES,
    SUITE_NAMES,
    build_suite,
    build_workload,
    workload_names,
    workload_spec_by_name,
)


class TestSpecValidation:
    def test_bad_terminator_fractions(self):
        with pytest.raises(WorkloadError):
            WorkloadSpec("bad", WorkloadClass.SERVER, conditional_fraction=0.9, call_fraction=0.3)

    def test_bad_call_classes(self):
        with pytest.raises(WorkloadError):
            WorkloadSpec("bad", WorkloadClass.SERVER, neighbor_call_fraction=0.9, module_call_fraction=0.3)

    def test_bad_block_range(self):
        with pytest.raises(WorkloadError):
            WorkloadSpec("bad", WorkloadClass.SERVER, min_blocks_per_function=5, max_blocks_per_function=2)

    def test_scaled_changes_function_count(self):
        spec = server_spec("s", seed=1)
        bigger = spec.scaled(2.0)
        assert bigger.functions_per_module == 2 * spec.functions_per_module

    def test_scaled_rejects_non_positive(self):
        with pytest.raises(WorkloadError):
            server_spec("s", seed=1).scaled(0)


class TestProgramBuilder:
    def test_program_validates(self):
        program = build_program(server_spec("p", seed=3, footprint_scale=0.2))
        program.validate()
        assert program.num_functions > 100
        assert program.static_branch_count() > 0
        assert program.code_footprint_bytes() > 0

    def test_deterministic_given_seed(self):
        spec = client_spec("c", seed=11, footprint_scale=0.5)
        a = ProgramBuilder(spec).build()
        b = ProgramBuilder(spec).build()
        assert a.functions[5].entry_pc == b.functions[5].entry_pc
        assert a.static_branch_count() == b.static_branch_count()

    def test_levelled_call_graph(self):
        program = build_program(server_spec("p", seed=5, footprint_scale=0.2))
        for function in program.functions:
            for block in function.blocks:
                if block.terminator is TerminatorKind.CALL:
                    callee = program.functions[block.callee]
                    assert callee.is_library or callee.level > function.level

    def test_library_modules_far_away(self):
        spec = server_spec("p", seed=5, footprint_scale=0.2)
        program = build_program(spec)
        app_bases = program.module_bases[: spec.num_modules]
        lib_bases = program.module_bases[spec.num_modules:]
        assert all(lib > max(app_bases) for lib in lib_bases)

    def test_x86_variable_instruction_sizes(self):
        program = build_program(server_spec("p", seed=5, footprint_scale=0.2, isa=ISAStyle.X86))
        sizes = {
            size
            for function in program.functions
            for block in function.blocks
            for size in block.instruction_sizes
        }
        assert len(sizes) > 1


def _linear_anchor(pool, index):
    """Reference: the linear neighbour-anchor scan over the whole pool."""
    return min(range(len(pool)), key=lambda i: abs(pool[i].index - index))


class TestNeighbourAnchor:
    @settings(max_examples=300, deadline=None)
    @given(
        indices=st.lists(st.integers(0, 60), min_size=1, max_size=25, unique=True),
        caller=st.integers(0, 70),
    )
    @example(indices=[2, 6], caller=4)  # equal distance: the lower position wins
    @example(indices=[2, 6, 10], caller=8)
    @example(indices=[5, 9, 20], caller=0)  # caller below the first entry
    @example(indices=[5, 9, 20], caller=70)  # caller above the last entry
    @example(indices=[5, 9, 20], caller=9)  # caller is a pool member
    def test_bisected_anchor_equals_linear_scan(self, indices, caller):
        pool = [
            Function(index=index, name=f"f{index}", module=0, level=1, is_library=False)
            for index in sorted(indices)
        ]
        assert _nearest_position(pool, caller) == _linear_anchor(pool, caller)


class TestTraceGeneration:
    def test_consistency(self, small_server_trace):
        verify_trace_consistency(small_server_trace)

    def test_client_consistency(self, small_client_trace):
        verify_trace_consistency(small_client_trace)

    def test_requested_length(self, small_server_trace):
        assert len(small_server_trace) == 30_000

    def test_deterministic(self):
        spec = client_spec("c", seed=21, footprint_scale=0.4)
        a = generate_trace(spec, 5_000)
        b = generate_trace(spec, 5_000)
        assert list(a) == list(b)

    def test_rejects_non_positive_length(self):
        spec = client_spec("c", seed=21, footprint_scale=0.4)
        with pytest.raises(WorkloadError):
            TraceGenerator(build_program(spec)).generate(0)

    def test_metadata_recorded(self, small_server_trace):
        assert small_server_trace.metadata["workload_class"] == "server"
        assert small_server_trace.metadata["max_call_depth"] >= 1

    def test_branch_mix_plausible(self, small_server_trace):
        summary = small_server_trace.summary()
        assert 0.10 <= summary.branch_fraction <= 0.35
        # Calls and returns must balance closely (every call returns).
        assert abs(summary.call_count - summary.return_count) <= summary.call_count * 0.2
        assert summary.conditional_count > summary.call_count

    def test_server_footprint_exceeds_client(self, small_server_trace, small_client_trace):
        server = small_server_trace.summary()
        client = small_client_trace.summary()
        assert server.unique_branch_pcs > 3 * client.unique_branch_pcs
        assert server.instruction_footprint_bytes > client.instruction_footprint_bytes


class TestOffsetCalibration:
    """The generator must roughly reproduce the paper's Figure 4 bands."""

    def test_offset_bands_server(self, small_server_trace):
        dist = offset_distribution(small_server_trace)
        assert 0.40 <= dist.fraction_covered(6) <= 0.85
        assert dist.fraction_covered(25) >= 0.95
        assert 1.0 - dist.fraction_covered(25) <= 0.03

    def test_returns_have_zero_bits(self, small_server_trace):
        dist = offset_distribution(small_server_trace)
        summary = small_server_trace.summary()
        assert dist.histogram.get(0, 0) >= summary.return_count

    def test_x86_needs_more_bits_than_arm(self, small_server_trace, small_x86_trace):
        arm = offset_distribution(small_server_trace)
        x86 = offset_distribution(small_x86_trace)
        # At the 6-bit point, Arm64 coverage should not be below x86 by much:
        # the paper reports x86 needs 1-2 extra bits for the same coverage.
        assert arm.quantile_bits(0.5) <= x86.quantile_bits(0.5) + 1


class TestSuites:
    def test_suite_names(self):
        for suite in SUITE_NAMES:
            assert len(workload_names(suite)) > 0

    def test_unknown_suite_rejected(self):
        with pytest.raises(WorkloadError):
            workload_names("mystery")

    def test_unknown_workload_rejected(self):
        with pytest.raises(WorkloadError):
            workload_spec_by_name("server_999")

    def test_server_names_match_figure9_axis(self):
        assert "server_001" in SERVER_WORKLOAD_NAMES
        assert "server_039" in SERVER_WORKLOAD_NAMES
        assert "server_005" not in SERVER_WORKLOAD_NAMES  # the figure skips 005-008

    def test_build_suite_with_limit(self):
        suite = build_suite("ipc1_client", 2_000, limit=2)
        assert len(suite) == 2
        for trace in suite:
            assert len(trace) == 2_000

    def test_build_workload_by_name(self):
        trace = build_workload("client_001", 2_000)
        assert trace.name == "client_001"

    def test_x86_suite_uses_x86_isa(self):
        suite = build_suite("x86_server", 2_000, limit=1)
        assert list(suite)[0].isa is ISAStyle.X86
