"""Batched commit plans: vectorized direction prediction for the numpy backend.

The hashed perceptron's state (weight tables, global history register)
evolves *only* through ``update(pc, taken)`` calls at conditional branch
commits, and always with the architectural outcome the trace carries --
never with anything prediction-dependent.  For a scheduling piece the batched
engine therefore knows, before simulating a single instruction, the exact
sequence of ``(pc, taken)`` commits the predictor will see.  A *commit plan*
exploits that:

* **histories** -- the global history value at every commit is a sliding
  window over ``[initial history bits | piece taken bits]``, computed for the
  whole piece with one strided-view matmul;
* **indices** -- every per-table XOR-folded index (the hottest loop of the
  scalar predictor) is a pure function of ``(pc, history)`` and is vectorized
  over the commit sub-array.

Application stays **lazy**: the plan precomputes, but each commit's table
write lands when the engine reaches that commit.  This is what keeps the plan
bit-exact under the front end's interleaved reads -- a false BTB hit on a
non-branch PC consults ``predict(pc)`` *between* commits and must observe
exactly-current tables (pinned by the oracle-differential suite and the
property tests in ``tests/test_predictor_batch.py``).

The weight *sums* are deliberately not batched: measured commit streams cut
at bias-table conflicts have median segment length 2 (same branch PCs recur
immediately), far below numpy's per-call break-even, so the plan applies the
sum + training rule per commit through plain list indexing.  See TESTING.md.
"""

from __future__ import annotations

from repro.predictor.perceptron import HashedPerceptronPredictor
from repro.traces.batch import np


def plan_commits(predictor: HashedPerceptronPredictor, pcs, taken) -> _PerceptronPlan:
    """Build a commit plan for this piece's conditional-branch sub-array.

    ``pcs``/``taken`` are numpy arrays holding the PCs and architectural
    outcomes of the piece's conditional branch commits, in stream order
    (possibly none).
    """
    return _PerceptronPlan(predictor, pcs, taken)


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


class _PerceptronPlan:
    """Commit plan for the hashed perceptron.

    The vectorized part is the hashing: per-commit history values and all
    per-table XOR-folded indices for the whole piece in a handful of array
    ops.  The weight sum and the training rule run per commit through the
    precomputed index rows -- mirroring the scalar ``_locate``/``update``
    pair line for line, including the predict->update memo handshake, so the
    live tables stay exact for interleaved reads.

    ``record_outcome`` accounting is deferred and flushed once per piece by
    :meth:`finish`: the scalar front end bumps the predictor's accuracy
    counters at every conditional commit, but those counters are only read at
    run boundaries, and integer-valued float sums are exact and
    order-independent below 2^53, so one bulk ``inc`` per piece is
    bit-identical to per-commit increments.
    """

    __slots__ = (
        "_predictor", "_pcs", "_taken", "_rows", "_history_after",
        "_predictions", "_correct",
    )

    def __init__(self, predictor: HashedPerceptronPredictor, pcs, taken) -> None:
        self._predictor = predictor
        self._predictions = 0
        self._correct = 0
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

    def predict(self, k: int) -> bool:
        """Bit-exact twin of ``predict(pc_k)`` against commit-time state."""
        # The scalar _locate with the index hashing replaced by the plan,
        # inlined (this and update are the engine's hottest predictor
        # calls): sum the live weights and leave the memo behind for the
        # paired update, exactly like the scalar predict.
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

    def record_outcome(self, predicted: bool, taken: bool) -> None:
        """Deferred twin of :meth:`HashedPerceptronPredictor.record_outcome`."""
        self._predictions += 1
        if predicted == taken:
            self._correct += 1

    def finish(self) -> None:
        """Flush the deferred accuracy counters at piece end."""
        self._predictor.record_outcomes(self._predictions, self._correct)
        self._predictions = 0
        self._correct = 0
