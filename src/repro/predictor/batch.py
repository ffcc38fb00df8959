"""Batched commit plans: vectorized direction prediction for the numpy backend.

The direction predictors' state (counter tables, weight tables, global history
registers) evolves *only* through ``update(pc, taken)`` calls at conditional
branch commits, and always with the architectural outcome the trace carries --
never with anything prediction-dependent.  For a scheduling piece the batched
engine therefore knows, before simulating a single instruction, the exact
sequence of ``(pc, taken)`` commits the predictor will see.  A *commit plan*
exploits that:

* **histories** -- the global history value at every commit is a sliding
  window over ``[initial history bits | piece taken bits]``, computed for the
  whole piece with one strided-view matmul;
* **indices** -- every table index (bimodal's PC hash, gshare's PC^history,
  the hashed perceptron's per-table XOR folds, the hottest loop of the scalar
  predictor) is a pure function of ``(pc, history)`` and is vectorized over
  the commit sub-array;
* **segments** (2-bit counter predictors) -- table reads and writes conflict
  only when the same index repeats, so the commit stream is cut into segments
  at first-repeat points; within a segment every read precedes every write,
  and the per-commit predictions and trained counter values are evaluated
  with array gathers/scatters against a plan-private mirror, provably equal
  to the scalar interleaved order.

Application stays **lazy**: the plan precomputes, but each commit's table
write lands when the engine reaches that commit.  This is what keeps the plan
bit-exact under the front end's interleaved reads -- a false BTB hit on a
non-branch PC consults ``predict(pc)`` *between* commits and must observe
exactly-current tables (pinned by the oracle-differential suite and the
property tests in ``tests/test_predictor_batch.py``).

The perceptron's weight *sums* are deliberately not segment-batched: measured
commit streams cut at bias-table conflicts have median segment length 2 (same
branch PCs recur immediately), far below numpy's per-call break-even, so the
plan vectorizes the index/history computation and applies the sum + training
rule per commit through plain list indexing.  See TESTING.md.

Everything here degrades gracefully: no numpy, an unsupported predictor type
or an empty commit sub-array yields ``None`` and the engine falls back to the
scalar ``predict``/``update`` calls (counted as ``batch.commits_scalar``).
"""

from __future__ import annotations

from repro.predictor.base import DirectionPredictor
from repro.predictor.bimodal import BimodalPredictor
from repro.predictor.gshare import GSharePredictor
from repro.predictor.perceptron import HashedPerceptronPredictor
from repro.traces.batch import HAVE_NUMPY, np

#: Counter-plan segments shorter than this are evaluated with plain Python
#: (numpy's per-call overhead dwarfs 2-3 element gathers); longer segments
#: use array gathers/scatters.  Purely an evaluation-cost knob: both paths
#: compute identical values and the property suite drives both.
_SEGMENT_VECTOR_MIN = 8


def plan_commits(predictor: DirectionPredictor, pcs, taken):
    """Build a commit plan for this piece's conditional-branch sub-array.

    ``pcs``/``taken`` are numpy arrays holding the PCs and architectural
    outcomes of the piece's conditional branch commits, in stream order.
    Returns ``None`` when there is nothing to plan (no numpy, no commits, or
    a predictor type without a batched twin); the caller then stays on the
    scalar path.
    """
    if not HAVE_NUMPY or len(pcs) == 0:
        return None
    if type(predictor) is BimodalPredictor:
        return _CounterPlan(predictor, pcs, taken, history_bits=0)
    if type(predictor) is GSharePredictor:
        return _CounterPlan(predictor, pcs, taken, history_bits=predictor.history_bits)
    if type(predictor) is HashedPerceptronPredictor:
        return _PerceptronPlan(predictor, pcs, taken)
    return None


def history_values(initial: int, taken, bits: int):
    """Global-history value before and after every commit, vectorized.

    ``h_before[k]`` is the history register's value when commit ``k`` is
    processed; ``h_after[k]`` the value once its outcome has been shifted in
    (``h_after[k] == h_before[k + 1]``).  Equivalent to iterating
    ``h = ((h << 1) | taken) & mask``: the register after ``k`` shifts holds
    the last ``bits`` outcomes, which is exactly a ``bits``-wide sliding
    window over ``[initial bits | taken bits]``.
    """
    n = len(taken)
    if bits <= 0:
        zeros = np.zeros(n, dtype=np.int64)
        return zeros, zeros
    taken_bits = np.asarray(taken, dtype=np.uint8)
    initial_bits = np.empty(bits, dtype=np.uint8)
    for position in range(bits):
        initial_bits[position] = (initial >> (bits - 1 - position)) & 1
    padded = np.concatenate([initial_bits, taken_bits])
    windows = np.lib.stride_tricks.sliding_window_view(padded, bits)
    weights = np.int64(1) << np.arange(bits - 1, -1, -1, dtype=np.int64)
    values = windows.astype(np.int64) @ weights
    return values[:n], values[1 : n + 1]


def segment_cuts(indices) -> list[int]:
    """Greedy conflict cuts: start a new segment when an index repeats.

    Returns segment boundaries ``[0, c1, ..., n]``: within each half-open
    segment all indices are distinct, so every table read (which happens at
    the commit's prediction) precedes every write to the same entry -- batch
    evaluation against segment-start state equals the scalar interleaving.
    """
    cuts = [0]
    seen: set[int] = set()
    add = seen.add
    for position, index in enumerate(indices):
        if index in seen:
            cuts.append(position)
            seen = {index}
            add = seen.add
        else:
            add(index)
    cuts.append(len(indices))
    return cuts


class _PlanStats:
    """Deferred ``record_outcome`` accounting, flushed once per piece.

    The scalar front end bumps the predictor's accuracy counters at every
    conditional commit; those counters are only read at run boundaries, and
    integer-valued float sums are exact and order-independent below 2^53, so
    one bulk ``add`` per piece is bit-identical to per-commit increments.
    """

    __slots__ = ("_predictions", "_correct", "commits_applied")

    def __init__(self) -> None:
        self._predictions = 0
        self._correct = 0
        self.commits_applied = 0

    def record_outcome(self, predicted: bool, taken: bool) -> None:
        """Deferred twin of :meth:`DirectionPredictor.record_outcome`."""
        self._predictions += 1
        if predicted == taken:
            self._correct += 1

    def flush(self, predictor: DirectionPredictor) -> None:
        if not self._predictions:
            return
        stats = predictor.stats
        stats.inc("predictions", self._predictions)
        stats.inc("correct", self._correct)
        mispredictions = self._predictions - self._correct
        if mispredictions:
            stats.inc("mispredictions", mispredictions)
        self._predictions = 0
        self._correct = 0


class _CounterPlan(_PlanStats):
    """Commit plan for the 2-bit counter predictors (bimodal, gshare).

    Build time does all the work: indices vectorized over the piece, then a
    segment-batched mirror evaluation precomputes every commit's prediction
    *and* its trained counter value.  Applying a commit is two list stores
    (counter write-through, history register), so interleaved scalar
    ``predict`` calls against the live tables always see current state.
    """

    __slots__ = ("_predictor", "_indices", "_pred", "_trained", "_history_after")

    def __init__(self, predictor, pcs, taken, history_bits: int) -> None:
        super().__init__()
        self._predictor = predictor
        mask = np.uint64(predictor.table_size - 1)
        if history_bits > 0:
            before, after = history_values(predictor._history, taken, history_bits)
            indices = ((pcs >> np.uint64(2)) ^ before.astype(np.uint64)) & mask
            self._history_after = after.tolist()
        else:
            indices = (pcs >> np.uint64(2)) & mask
            self._history_after = None
        indices = indices.astype(np.int64)
        index_list = indices.tolist()
        taken_list = taken.tolist()

        mirror = np.asarray(predictor._counters, dtype=np.int64)
        pred = [False] * len(index_list)
        trained = [0] * len(index_list)
        cuts = segment_cuts(index_list)
        for cut in range(len(cuts) - 1):
            start, stop = cuts[cut], cuts[cut + 1]
            if stop - start >= _SEGMENT_VECTOR_MIN:
                segment = indices[start:stop]
                current = mirror[segment]
                step = np.where(taken[start:stop], 1, -1)
                new = np.clip(current + step, 0, 3)
                pred[start:stop] = (current >= 2).tolist()
                trained[start:stop] = new.tolist()
                mirror[segment] = new
            else:
                for position in range(start, stop):
                    index = index_list[position]
                    current = int(mirror[index])
                    pred[position] = current >= 2
                    if taken_list[position]:
                        new = current + 1 if current < 3 else 3
                    else:
                        new = current - 1 if current > 0 else 0
                    trained[position] = new
                    mirror[index] = new
        self._indices = index_list
        self._pred = pred
        self._trained = trained

    def predict(self, k: int) -> bool:
        """Bit-exact twin of ``predict(pc_k)`` against commit-time state."""
        return self._pred[k]

    def update(self, k: int) -> None:
        """Apply commit ``k``'s training to the live predictor."""
        predictor = self._predictor
        predictor._counters[self._indices[k]] = self._trained[k]
        if self._history_after is not None:
            predictor._history = self._history_after[k]
        self.commits_applied += 1

    def finish(self) -> None:
        """Flush the deferred accuracy counters at piece end."""
        self.flush(self._predictor)


class _PerceptronPlan(_PlanStats):
    """Commit plan for the hashed perceptron.

    The vectorized part is the hashing: per-commit history values and all
    per-table XOR-folded indices for the whole piece in a handful of array
    ops.  The weight sum and the training rule run per commit through the
    precomputed index rows -- mirroring the scalar ``_locate``/``update``
    pair line for line, including the predict->update memo handshake, so the
    live tables stay exact for interleaved reads.
    """

    __slots__ = ("_predictor", "_pcs", "_taken", "_rows", "_history_after")

    def __init__(self, predictor, pcs, taken) -> None:
        super().__init__()
        self._predictor = predictor
        mask_width = np.uint64(predictor.table_size - 1)
        table_bits = np.uint64(predictor.table_bits)
        before, after = history_values(predictor._history, taken, predictor.max_history)
        history = before.astype(np.uint64)
        base = (pcs >> np.uint64(2)) & mask_width
        columns = [base.astype(np.int64).tolist()]
        for length, length_mask in zip(predictor.history_lengths, predictor._length_masks):
            h = history & np.uint64(length_mask)
            folded = np.zeros_like(h)
            rounds = (length + predictor.table_bits - 1) // predictor.table_bits
            for _ in range(rounds):
                folded ^= h & mask_width
                h >>= table_bits
            columns.append(((base ^ folded) & mask_width).astype(np.int64).tolist())
        self._rows = list(zip(*columns))
        self._pcs = pcs.tolist()
        self._taken = taken.tolist()
        self._history_after = after.tolist()

    def _locate(self, k: int):
        """Scalar ``_locate`` with the index hashing replaced by the plan."""
        predictor = self._predictor
        pc = self._pcs[k]
        if pc == predictor._memo_pc:
            return predictor._memo
        indices = self._rows[k]
        total = 0
        for table, index in zip(predictor._tables, indices):
            total += table[index]
        predictor._memo_pc = pc
        predictor._memo = (indices, total)
        return indices, total

    def predict(self, k: int) -> bool:
        """Bit-exact twin of ``predict(pc_k)`` against commit-time state."""
        # Inlined _locate (this and update are the engine's hottest
        # predictor calls): sum the live weights and leave the memo behind
        # for the paired update, exactly like the scalar predict.
        predictor = self._predictor
        pc = self._pcs[k]
        if pc == predictor._memo_pc:
            return predictor._memo[1] >= 0
        indices = self._rows[k]
        total = 0
        for table, index in zip(predictor._tables, indices):
            total += table[index]
        predictor._memo_pc = pc
        predictor._memo = (indices, total)
        return total >= 0

    def update(self, k: int) -> None:
        """Scalar training rule over the precomputed index row for commit ``k``."""
        predictor = self._predictor
        # Inlined _locate: the predict->update pair makes the memo hit the
        # common case, and this is the engine's hottest predictor call.
        if self._pcs[k] == predictor._memo_pc:
            indices, total = predictor._memo
        else:
            indices = self._rows[k]
            total = 0
            for table, index in zip(predictor._tables, indices):
                total += table[index]
        taken = self._taken[k]
        predicted = total >= 0
        if predicted != taken or abs(total) < predictor.threshold:
            # Weights start at 0 and only ever move by one inside
            # [weight_min, weight_max], so the scalar clamp reduces to a
            # bound check per weight.
            if taken:
                weight_max = predictor.weight_max
                for table, index in zip(predictor._tables, indices):
                    weight = table[index]
                    if weight < weight_max:
                        table[index] = weight + 1
            else:
                weight_min = predictor.weight_min
                for table, index in zip(predictor._tables, indices):
                    weight = table[index]
                    if weight > weight_min:
                        table[index] = weight - 1
        predictor._history = self._history_after[k]
        predictor._memo_pc = None
        self.commits_applied += 1

    def finish(self) -> None:
        """Flush the deferred accuracy counters at piece end."""
        self.flush(self._predictor)
