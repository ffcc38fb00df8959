"""Unit tests for the configuration dataclasses."""

from __future__ import annotations

import pytest

from repro.common.config import (
    ASIDMode,
    BACKEND_ENV_VAR,
    BTBConfig,
    BTBStyle,
    BranchPredictorConfig,
    CacheConfig,
    CoreConfig,
    FDIPConfig,
    ISAStyle,
    MachineConfig,
    default_machine_config,
    partition_set_counts,
    resolve_backend,
    validate_partition_weights,
)
from repro.common.errors import ConfigurationError


class TestCacheConfig:
    def test_table2_l1i_geometry(self):
        config = CacheConfig("L1I", 32 * 1024, 8)
        assert config.num_sets == 64
        assert config.num_lines == 512

    def test_rejects_bad_divisibility(self):
        with pytest.raises(ConfigurationError):
            CacheConfig("bad", 1000, 3)

    def test_rejects_non_power_of_two_line(self):
        with pytest.raises(ConfigurationError):
            CacheConfig("bad", 32 * 1024, 8, line_size=48)


class TestCoreAndPredictorConfig:
    def test_defaults_match_table2(self):
        core = CoreConfig()
        assert core.fetch_width == 6
        assert core.execute_flush_penalty == 17
        assert core.decode_resteer_penalty == 5
        predictor = BranchPredictorConfig()
        assert predictor.perceptron_history_lengths == (3, 8, 14, 21, 31)
        assert predictor.ras_entries == 64

    def test_ras_needs_an_entry(self):
        with pytest.raises(ConfigurationError):
            BranchPredictorConfig(ras_entries=0)

    def test_predictor_has_no_kind_selector(self):
        """The hashed perceptron is the only direction predictor, so a
        configuration that still names a kind fails instead of being ignored."""
        with pytest.raises(TypeError):
            BranchPredictorConfig(kind="gshare")

    def test_flush_cheaper_than_resteer_rejected(self):
        with pytest.raises(ConfigurationError):
            CoreConfig(execute_flush_penalty=2, decode_resteer_penalty=5)

    def test_fdip_validation(self):
        with pytest.raises(ConfigurationError):
            FDIPConfig(ftq_instructions=0)


class TestBTBConfig:
    def test_default_is_btbx_at_the_paper_budget(self):
        config = BTBConfig()
        assert config.style is BTBStyle.BTBX
        assert config.budget_kib == 14.5
        assert config.btbx_way_offset_bits is None

    @pytest.mark.parametrize("budget_kib", [0, -1.0, float("inf"), float("nan")])
    def test_budget_must_be_positive(self, budget_kib):
        with pytest.raises(ConfigurationError, match="budget"):
            BTBConfig(budget_kib=budget_kib)


class TestISAStyle:
    def test_alignment_bits(self):
        assert ISAStyle.ARM64.alignment_bits == 2
        assert ISAStyle.X86.alignment_bits == 0


class TestMachineConfig:
    def test_default_machine_for_each_style(self):
        for style in BTBStyle:
            machine = default_machine_config(btb_style=style)
            assert machine.btb.style is style

    def test_default_machine_records_the_budget_and_isa(self):
        machine = default_machine_config(
            btb_style=BTBStyle.CONVENTIONAL, budget_kib=3.625, isa=ISAStyle.X86
        )
        assert machine.btb == BTBConfig(BTBStyle.CONVENTIONAL, 3.625, ISAStyle.X86)

    def test_with_fdip_returns_a_copy(self):
        machine = MachineConfig()
        other = machine.with_fdip(False)
        assert other.fdip.enabled is False
        # The original is untouched (frozen dataclasses + replace).
        assert machine.fdip.enabled is True
        assert other.btb == machine.btb


class TestResolveBackend:
    def test_none_falls_back_to_python(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert resolve_backend(None) == "python"

    def test_env_var_is_normalized(self, monkeypatch):
        """Regression: 'numpy ' or 'NUMPY' from CI YAML must not die as unknown."""
        for raw in ("python ", " PYTHON", "Python\n", "python"):
            monkeypatch.setenv(BACKEND_ENV_VAR, raw)
            assert resolve_backend(None) == "python"

    def test_explicit_argument_is_normalized(self):
        assert resolve_backend(" PYTHON ") == "python"

    def test_whitespace_only_env_falls_back_to_python(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "   ")
        assert resolve_backend(None) == "python"

    def test_unknown_backend_still_rejected(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        with pytest.raises(ConfigurationError):
            resolve_backend("fortran")
        monkeypatch.setenv(BACKEND_ENV_VAR, "fortran ")
        with pytest.raises(ConfigurationError):
            resolve_backend(None)


class TestPartitionMaps:
    def test_all_three_asid_modes_exist(self):
        assert {mode.value for mode in ASIDMode} == {"flush", "tagged", "partitioned"}

    def test_valid_weights_pass_through_as_tuple(self):
        assert validate_partition_weights([2, 1, 1]) == (2, 1, 1)

    @pytest.mark.parametrize("weights", [(), None, (0,), (-1, 1), (1.5, 1), (True, 1), ("2", 1)])
    def test_bad_weights_rejected(self, weights):
        with pytest.raises(ConfigurationError):
            validate_partition_weights(weights)

    def test_counts_sum_exactly_and_respect_proportions(self):
        counts = partition_set_counts(64, (4, 1, 1))
        assert sum(counts) == 64
        assert counts[0] > counts[1] == counts[2] >= 1
        assert partition_set_counts(64, (1, 1, 1, 1)) == [16, 16, 16, 16]

    def test_every_tenant_gets_at_least_one_set(self):
        counts = partition_set_counts(5, (100, 1, 1, 1, 1))
        assert sum(counts) == 5
        assert min(counts) == 1

    def test_remainder_distribution_is_deterministic(self):
        assert partition_set_counts(7, (1, 1, 1)) == partition_set_counts(7, (1, 1, 1))
        assert sum(partition_set_counts(7, (1, 1, 1))) == 7

    def test_more_tenants_than_sets_rejected(self):
        with pytest.raises(ConfigurationError):
            partition_set_counts(2, (1, 1, 1))

    def test_thousand_tenants_with_adversarial_weights_apportion_exactly(self):
        """Regression: the apportionment must stay exact at consolidation scale.

        The previous implementation computed fractional shares in floating
        point; with 1000 tenants and weights spanning fifteen orders of
        magnitude the products overflow the 53-bit mantissa, so nothing about
        the result was guaranteed.  The integer rewrite is checked here
        against an exact ``Fraction``-based largest-remainder reference.
        """
        from fractions import Fraction
        import random

        rng = random.Random(0xBADC0DE)
        tenants = 1_000
        weights = tuple(
            rng.choice((1, 3, 997, 10**6, 10**15 + rng.randrange(10**12)))
            for _ in range(tenants)
        )
        for num_sets in (tenants, tenants + 1, 4_096, 65_536):
            counts = partition_set_counts(num_sets, weights)
            assert sum(counts) == num_sets
            assert min(counts) >= 1
            assert counts == partition_set_counts(num_sets, weights)

            # Exact reference: floor of the proportional share plus the
            # leftover sets handed to the largest exact remainders.
            spare = num_sets - tenants
            total = sum(weights)
            reference = [1 + spare * w // total for w in weights]
            leftover = num_sets - sum(reference)
            order = sorted(
                range(tenants),
                key=lambda i: (Fraction(spare * weights[i] % total, total), weights[i], -i),
                reverse=True,
            )
            for index in order[:leftover]:
                reference[index] += 1
            assert counts == reference

    def test_matches_prior_float_apportionment_on_small_grids(self):
        """Differential golden-safety proof for the integer apportionment.

        Every partitioned golden cell apportions a handful of tenants over a
        BTB-sized set count with small weights, where the old float
        arithmetic happened to be exact.  Re-implement the old algorithm
        and assert byte-identical counts across a grid that covers every
        weight pattern the preset scenarios and the golden suite use, so the
        rewrite provably cannot move a single golden cell.
        """

        def float_counts(num_sets, weights):
            tenants = len(weights)
            spare = num_sets - tenants
            total = sum(weights)
            shares = [spare * weight / total for weight in weights]
            counts = [1 + int(share) for share in shares]
            leftover = num_sets - sum(counts)
            by_remainder = sorted(
                range(tenants),
                key=lambda i: (shares[i] - int(shares[i]), weights[i], -i),
                reverse=True,
            )
            for index in by_remainder[:leftover]:
                counts[index] += 1
            return counts

        weight_patterns = [
            (1,), (1, 1), (1, 1, 1), (1, 1, 1, 1), (4, 1, 1), (3, 2, 2),
            (42, 11, 11), (1, 2, 3, 4, 5), (7, 5, 3, 2, 1, 1, 1, 1),
        ]
        set_counts = [8, 16, 22, 32, 64, 96, 128, 341, 512, 1024, 2048]
        checked = 0
        for weights in weight_patterns:
            for num_sets in set_counts:
                if num_sets < len(weights):
                    continue
                assert partition_set_counts(num_sets, weights) == float_counts(
                    num_sets, weights
                ), f"divergence at num_sets={num_sets} weights={weights}"
                checked += 1
        assert checked >= 90
