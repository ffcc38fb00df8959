"""Tests for the offset-distribution and aggregation helpers."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.analysis.aggregate import arithmetic_mean, geometric_mean
from repro.analysis.offset_analysis import (
    OffsetDistribution,
    combined_distribution,
    distribution_table,
    offset_distribution,
)
from repro.common.config import ISAStyle


class TestOffsetDistribution:
    def test_monotone_cdf(self, small_server_trace):
        dist = offset_distribution(small_server_trace)
        cdf = dist.cdf(46)
        assert cdf == sorted(cdf)
        assert cdf[-1] == pytest.approx(1.0)

    def test_quantile_and_way_sizing(self, small_server_trace):
        dist = offset_distribution(small_server_trace)
        ways = dist.way_sizing(8)
        assert len(ways) == 8
        assert ways == sorted(ways)
        assert dist.fraction_covered(ways[-1]) >= 0.99

    def test_combined_distribution_totals(self, small_server_trace, small_client_trace):
        combined = combined_distribution([small_server_trace, small_client_trace])
        total = (
            offset_distribution(small_server_trace).total_branches
            + offset_distribution(small_client_trace).total_branches
        )
        assert combined.total_branches == total

    def test_combined_requires_traces(self):
        with pytest.raises(ValueError):
            combined_distribution([])

    def test_distribution_table(self, small_client_trace):
        rows = distribution_table([offset_distribution(small_client_trace)])
        assert rows[0]["name"] == small_client_trace.name
        assert rows[0]["<=46b"] == pytest.approx(1.0)

    def test_quantile_rejects_bad_fraction(self):
        dist = OffsetDistribution("x", ISAStyle.ARM64)
        with pytest.raises(ValueError):
            dist.quantile_bits(1.5)


class TestAggregation:
    def test_geometric_mean_basics(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
        assert geometric_mean([]) == 0.0

    def test_arithmetic_mean(self):
        assert arithmetic_mean([1.0, 2.0, 3.0]) == 2.0
        assert arithmetic_mean([]) == 0.0

    @given(st.lists(st.floats(min_value=0.1, max_value=10), min_size=1, max_size=20))
    def test_gmean_bounded_by_min_max(self, values):
        gmean = geometric_mean(values)
        assert min(values) - 1e-9 <= gmean <= max(values) + 1e-9
