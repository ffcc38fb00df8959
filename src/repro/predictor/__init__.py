"""Branch direction predictor and the return address stack.

The modelled core (Table II) uses a hashed-perceptron direction predictor and
a 64-entry return address stack.  :func:`make_direction_predictor` builds the
perceptron from a :class:`~repro.common.config.BranchPredictorConfig`.
"""

from repro.predictor.perceptron import HashedPerceptronPredictor
from repro.predictor.ras import ReturnAddressStack
from repro.predictor.factory import make_direction_predictor

__all__ = [
    "HashedPerceptronPredictor",
    "ReturnAddressStack",
    "make_direction_predictor",
]
