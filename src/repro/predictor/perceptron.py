"""Hashed perceptron direction predictor (Table II).

This follows the structure of the hashed-perceptron predictor shipped with
ChampSim: several weight tables, each indexed by a hash of the branch PC and a
different length of global branch history, whose selected weights are summed;
the sign of the sum is the prediction.  Training nudges the selected weights
when the prediction was wrong or the sum's magnitude was below a threshold.
"""

from __future__ import annotations

from operator import getitem
from typing import TYPE_CHECKING, List, Sequence

from repro.common.errors import ConfigurationError, SimulationError
from repro.common.stats import StatGroup, Stats

if TYPE_CHECKING:
    from repro.predictor.trajectory import Trajectory


class HashedPerceptronPredictor:
    """Multi-table hashed perceptron over geometric history lengths.

    The front end consults it for every branch the BTB identifies as
    conditional (unconditional branches bypass it): :meth:`predict` at
    prediction time and :meth:`update` with the resolved outcome at commit.

    Table ``i`` is indexed by the PC bits XORed with the newest
    ``history_lengths[i]`` history bits XOR-folded to ``table_bits``
    (:func:`~repro.common.bitutils.fold_xor`; the bias table folds none).
    :meth:`_indices` hashes every table in one pass over a packed integer
    with one lane per table, each ``ceil(max_history / table_bits)`` chunks
    of ``table_bits`` bits wide: the history is copied into every lane and
    masked to the lane's length, the chunks are XORed down into the lowest,
    and each lane's lowest chunk, XORed with the PC bits, is its table's
    index.  A lane's chunks never reach into the next lane, so the indices
    are the per-table folds bit for bit.  The predictor keeps no state
    derived from ``_history`` but the predict->update memo, so a writer that
    assigns ``_history`` or a weight directly (the batched commit plan) needs
    no hook beyond clearing ``_memo_pc``.  A run follows a trajectory only
    from a *pristine* predictor, though: a direct write that leaves a weight
    or the history nonzero makes the next run compute.

    **Following a trajectory.**  The tables and history depend only on the
    trace's conditional commits, so :meth:`follow` lets a pristine predictor
    -- every weight and the history 0, checked exactly -- replay a
    :class:`~repro.predictor.trajectory.Trajectory` recorded once per trace
    instead of computing it.  While it follows, ``_commits`` counts the
    commits made, and the tables and history lag behind them:

    * :meth:`predict` returns the recorded prediction when ``pc`` is the
      next commit's PC: the recording predicted that PC from the state the
      commits so far produce;
    * :meth:`update` only counts the commit, when it is the next one;
    * any other query (a false BTB hit, a BTB-identified conditional type on
      another instruction, a query after the last commit) first applies the
      recorded writes up to now and sets the recorded history, then hashes
      as a computing predictor does; an off-trajectory :meth:`update` then
      stops following;
    * :meth:`stop_following` (at run end) applies the remaining writes, so
      the tables and history match a computed run bit for bit; :meth:`reset`
      ends the replay first.
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
        # record_outcome runs per conditional commit: it bumps the registry's
        # live counters under pre-resolved keys.
        self._counters = self.stats.live
        self._outcome_keys = tuple(
            map(self.stats.key, ("predictions", "correct", "mispredictions"))
        )
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
        # The packed hash (see the class docstring): lane offsets, the
        # multiplier that copies the history into every lane, the lanes'
        # length masks and the chunk shifts that fold each lane down.
        lane = -(-self.max_history // table_bits) * table_bits
        self._lane_shifts = tuple(lane * table for table in range(len(self._tables)))
        self._spread = sum(1 << shift for shift in self._lane_shifts)
        self._lane_masks = sum(
            length_mask << shift
            for length_mask, shift in zip((0, *self._length_masks), self._lane_shifts)
        )
        self._chunk_shifts = tuple(range(table_bits, lane, table_bits))
        # Training threshold from the perceptron literature: ~1.93*h + 14.
        self.threshold = int(1.93 * self.max_history + 14)
        # predict() -> update() memo for the common per-branch call pair: both
        # hash the same (pc, history) state, so the selected indices and their
        # sum can be computed once.  Invalidated whenever weights or history
        # change, so it never outlives one instruction's predict/update pair.
        self._memo_pc: int | None = None
        self._memo: tuple[List[int], int] | None = None
        # The trajectory being followed (see the class docstring), the
        # commits made while following it, and how many of them the tables
        # and history reflect.
        self._trajectory: Trajectory | None = None
        self._commits = 0
        self._applied = 0

    def reset(self) -> None:
        """Zero every weight table and the global history register (context-switch flush)."""
        self._trajectory = None
        zero = [0] * self.table_size
        for table in self._tables:
            table[:] = zero
        self._history = 0
        self._memo_pc = None

    # -- hashing ------------------------------------------------------------

    def _indices(self, pc: int) -> List[int]:
        """Selected index of every table: PC bits XOR its folded history lane."""
        packed = (self._history * self._spread) & self._lane_masks
        folded = packed ^ ((pc >> 2) & (self.table_size - 1)) * self._spread
        for shift in self._chunk_shifts:
            folded ^= packed >> shift
        mask = self.table_size - 1
        return [folded >> shift & mask for shift in self._lane_shifts]

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

    # -- following a trajectory ---------------------------------------------------

    def pristine(self) -> bool:
        """True when every weight and the history are 0, as after construction."""
        return self._history == 0 and not any(map(any, self._tables))

    def follow(self, trajectory: Trajectory) -> None:
        """Replay ``trajectory`` from its first commit instead of computing it."""
        if not self.pristine():
            raise SimulationError("only a pristine predictor can follow a trajectory")
        self._trajectory = trajectory
        self._commits = self._applied = 0
        self._memo_pc = None

    def stop_following(self) -> None:
        """Bring the tables and history up to the commits made, and compute from here."""
        if self._trajectory is not None:
            self._catch_up()
            self._trajectory = None

    def _catch_up(self) -> None:
        trajectory = self._trajectory
        commits = self._commits
        trajectory.apply(self._tables, self._applied, commits)
        self._applied = commits
        self._history = trajectory.history(commits)
        self._memo_pc = None

    # -- interface ------------------------------------------------------------

    def predict(self, pc: int) -> bool:
        """Predict taken when the summed weights are non-negative."""
        trajectory = self._trajectory
        if trajectory is not None:
            commit = self._commits
            if trajectory.pcs[commit] == pc:
                return trajectory.predictions[commit] == 1
            self._catch_up()
        return self._locate(pc)[1] >= 0

    def update(self, pc: int, taken: bool) -> None:
        """Perceptron training rule with a magnitude threshold, then shift history.

        Weights start at 0 and only ever move by one inside
        ``[weight_min, weight_max]``, so saturation is a bound check per
        weight.
        """
        trajectory = self._trajectory
        if trajectory is not None:
            commit = self._commits
            if trajectory.pcs[commit] == pc and trajectory.outcomes[commit] == taken:
                self._commits = commit + 1
                return
            self.stop_following()
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
        self._history = ((self._history << 1) | (1 if taken else 0)) & self._history_mask
        self._memo_pc = None

    def record_outcome(self, predicted: bool, taken: bool) -> None:
        """Book one outcome: what :meth:`record_outcomes` books for ``(1, predicted == taken)``."""
        counters = self._counters
        predictions, correct, mispredictions = self._outcome_keys
        counters[predictions] += 1
        if predicted == taken:
            counters[correct] += 1
        else:
            counters[mispredictions] += 1

    def record_outcomes(self, predictions: int, correct: int) -> None:
        """Book ``predictions`` outcomes at once, ``correct`` of them right."""
        if not predictions:
            return
        self.stats.inc("predictions", predictions)
        if correct:
            self.stats.inc("correct", correct)
        if predictions != correct:
            self.stats.inc("mispredictions", predictions - correct)
