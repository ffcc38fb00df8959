"""Factory mapping a :class:`BranchPredictorConfig` to a predictor instance."""

from __future__ import annotations

from repro.common.config import BranchPredictorConfig
from repro.common.stats import Stats
from repro.predictor.perceptron import HashedPerceptronPredictor


def make_direction_predictor(
    config: BranchPredictorConfig, stats: Stats | None = None
) -> HashedPerceptronPredictor:
    """Instantiate the hashed perceptron described by ``config``."""
    return HashedPerceptronPredictor(
        history_lengths=config.perceptron_history_lengths,
        table_bits=config.perceptron_table_bits,
        weight_bits=config.perceptron_weight_bits,
        stats=stats,
    )
