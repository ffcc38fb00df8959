"""Hashed perceptron direction predictor (Table II).

This follows the structure of the hashed-perceptron predictor shipped with
ChampSim: several weight tables, each indexed by a hash of the branch PC and a
different length of global branch history, whose selected weights are summed;
the sign of the sum is the prediction.  Training nudges the selected weights
when the prediction was wrong or the sum's magnitude was below a threshold.
"""

from __future__ import annotations

from operator import getitem
from typing import List, Sequence

from repro.common.bitutils import fold_xor
from repro.common.errors import ConfigurationError
from repro.common.stats import StatGroup, Stats


class HashedPerceptronPredictor:
    """Multi-table hashed perceptron over geometric history lengths.

    The front end consults it for every branch the BTB identifies as
    conditional (unconditional branches bypass it): :meth:`predict` at
    prediction time and :meth:`update` with the resolved outcome at commit.

    Table ``i`` is indexed by the PC bits XORed with the newest
    ``history_lengths[i]`` history bits XOR-folded to ``table_bits``
    (:func:`~repro.common.bitutils.fold_xor`; the bias table folds none).
    Rather than refolding at every branch, the predictor keeps one folded
    register per table, as TAGE and ChampSim's hashed perceptron do, and
    updates it at each history shift: for a fold width ``T`` and a length
    ``L``, ``f' = rotl_T(f) ^ taken ^ (outgoing << (L % T))``, where the
    outgoing bit is the one the shift pushes past the length.  Shifting a
    value left by one rotates every ``T``-bit chunk and carries each
    chunk's top bit into the next one's bottom, so the fold rotates; the
    rule is exact and gives the from-scratch indices bit for bit.  The
    registers are the folds of the history value they were last synced to,
    so a writer that assigns ``_history`` directly (the batched commit plan)
    needs no hook: :meth:`_indices` refolds once when the two differ.
    """

    def __init__(
        self,
        history_lengths: Sequence[int] = (3, 8, 14, 21, 31),
        table_bits: int = 12,
        weight_bits: int = 8,
        stats: Stats | None = None,
    ) -> None:
        registry = stats if stats is not None else Stats()
        self.stats: StatGroup = registry.group("predictor.hashed_perceptron")
        if not history_lengths:
            raise ConfigurationError("the perceptron needs at least one history length")
        if table_bits <= 0 or weight_bits <= 1:
            raise ConfigurationError("invalid perceptron geometry")
        self.history_lengths = tuple(history_lengths)
        self.table_bits = table_bits
        self.table_size = 1 << table_bits
        self._length_masks = tuple((1 << length) - 1 for length in self.history_lengths)
        self.weight_bits = weight_bits
        self.weight_max = (1 << (weight_bits - 1)) - 1
        self.weight_min = -(1 << (weight_bits - 1))
        # One weight table per history length plus a bias table (index 0 uses
        # history length 0, i.e. PC only).
        self._tables: List[List[int]] = [
            [0] * self.table_size for _ in range(len(self.history_lengths) + 1)
        ]
        self._history = 0
        self.max_history = max(self.history_lengths)
        self._history_mask = (1 << self.max_history) - 1
        # Folded-history registers, one per table (the bias table's is a
        # length-0 fold, always 0), and the history value they fold.
        self._fold_lengths = (0, *self.history_lengths)
        self._fold_positions = tuple(length % table_bits for length in self._fold_lengths)
        self._folded = [0] * len(self._fold_lengths)
        self._folded_history = 0
        # Training threshold from the perceptron literature: ~1.93*h + 14.
        self.threshold = int(1.93 * self.max_history + 14)
        # predict() -> update() memo for the common per-branch call pair: both
        # hash the same (pc, history) state, so the selected indices and their
        # sum can be computed once.  Invalidated whenever weights or history
        # change, so it never outlives one instruction's predict/update pair.
        self._memo_pc: int | None = None
        self._memo: tuple[List[int], int] | None = None

    def reset(self) -> None:
        """Zero every weight table and the global history register (context-switch flush)."""
        zero = [0] * self.table_size
        for table in self._tables:
            table[:] = zero
        self._history = 0
        self._folded = [0] * len(self._fold_lengths)
        self._folded_history = 0
        self._memo_pc = None

    # -- hashing ------------------------------------------------------------

    def _indices(self, pc: int) -> List[int]:
        """Selected index of every table: PC bits XOR its folded register."""
        if self._folded_history != self._history:
            self._refold()
        base = (pc >> 2) & (self.table_size - 1)
        return [base ^ folded for folded in self._folded]

    def _refold(self) -> None:
        """Recompute the folded registers from the history register."""
        history = self._history
        bits = self.table_bits
        self._folded = [
            fold_xor(history & ((1 << length) - 1), bits) for length in self._fold_lengths
        ]
        self._folded_history = history

    def _locate(self, pc: int) -> tuple[List[int], int]:
        """Selected table indices and their weight sum for ``pc``, memoized.

        The memo is only ever valid between a ``predict(pc)`` and the
        ``update(pc, ...)`` of the same instruction: any weight or history
        mutation clears it.
        """
        if pc == self._memo_pc:
            return self._memo  # type: ignore[return-value]
        indices = self._indices(pc)
        total = sum(map(getitem, self._tables, indices))
        self._memo_pc = pc
        self._memo = (indices, total)
        return indices, total

    # -- interface ------------------------------------------------------------

    def predict(self, pc: int) -> bool:
        """Predict taken when the summed weights are non-negative."""
        return self._locate(pc)[1] >= 0

    def update(self, pc: int, taken: bool) -> None:
        """Perceptron training rule with a magnitude threshold, then shift history.

        Weights start at 0 and only ever move by one inside
        ``[weight_min, weight_max]``, so saturation is a bound check per
        weight.  The shift updates the folded registers too, when they fold
        the history being shifted (see the class docstring).
        """
        indices, total = self._locate(pc)
        if (total >= 0) != taken or abs(total) < self.threshold:
            if taken:
                weight_max = self.weight_max
                for table, index in zip(self._tables, indices):
                    weight = table[index]
                    if weight < weight_max:
                        table[index] = weight + 1
            else:
                weight_min = self.weight_min
                for table, index in zip(self._tables, indices):
                    weight = table[index]
                    if weight > weight_min:
                        table[index] = weight - 1
        history = self._history
        bit = 1 if taken else 0
        shifted = (history << 1) | bit
        self._history = shifted & self._history_mask
        if self._folded_history == history:
            mask = self.table_size - 1
            top = self.table_bits - 1
            self._folded = [
                ((folded << 1) & mask | folded >> top) ^ bit ^ ((shifted >> length & 1) << position)
                for folded, length, position in zip(
                    self._folded, self._fold_lengths, self._fold_positions
                )
            ]
            self._folded_history = self._history
        self._memo_pc = None

    def record_outcome(self, predicted: bool, taken: bool) -> None:
        """Book-keeping helper used by the front end to track accuracy."""
        self.record_outcomes(1, 1 if predicted == taken else 0)

    def record_outcomes(self, predictions: int, correct: int) -> None:
        """Book ``predictions`` outcomes at once, ``correct`` of them right."""
        if not predictions:
            return
        self.stats.inc("predictions", predictions)
        if correct:
            self.stats.inc("correct", correct)
        if predictions != correct:
            self.stats.inc("mispredictions", predictions - correct)
