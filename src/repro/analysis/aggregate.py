"""Aggregation helpers for experiment results (the paper's suite means)."""

from __future__ import annotations

import math
from typing import Iterable


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean (the paper's aggregation for speedups)."""
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def arithmetic_mean(values: Iterable[float]) -> float:
    """Arithmetic mean (the paper's aggregation for MPKI)."""
    values = list(values)
    return sum(values) / len(values) if values else 0.0
