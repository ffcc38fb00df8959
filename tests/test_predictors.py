"""Tests for the hashed-perceptron direction predictor and the return address stack."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.bitutils import fold_xor, mask
from repro.common.config import BranchPredictorConfig
from repro.common.errors import ConfigurationError
from repro.common.stats import Stats
from repro.predictor.factory import make_direction_predictor
from repro.predictor.perceptron import HashedPerceptronPredictor
from repro.predictor.ras import ReturnAddressStack


class TestPredictorLearning:
    def test_learns_always_taken_branch(self):
        predictor = HashedPerceptronPredictor(table_bits=8)
        pc = 0x401000
        for _ in range(64):
            predictor.update(pc, True)
        assert predictor.predict(pc) is True

    def test_learns_never_taken_branch(self):
        predictor = HashedPerceptronPredictor(table_bits=8)
        pc = 0x402000
        for _ in range(64):
            predictor.update(pc, False)
        assert predictor.predict(pc) is False

    def test_learns_alternating_pattern(self):
        predictor = HashedPerceptronPredictor(table_bits=10)
        pc = 0x403000
        outcome = True
        correct = 0
        total = 400
        for i in range(total):
            prediction = predictor.predict(pc)
            if prediction == outcome:
                correct += 1
            predictor.update(pc, outcome)
            outcome = not outcome
        # After warmup the history-indexed tables track the alternation.
        assert correct / total > 0.7

    def test_perceptron_learns_correlated_branches(self):
        predictor = HashedPerceptronPredictor(table_bits=10)
        rng = random.Random(1)
        lead, follower = 0x404000, 0x404100
        correct = 0
        total = 500
        for i in range(total):
            lead_outcome = rng.random() < 0.5
            predictor.update(lead, lead_outcome)
            prediction = predictor.predict(follower)
            if prediction == lead_outcome:
                correct += 1
            predictor.update(follower, lead_outcome)
        assert correct / total > 0.7

    def test_biased_branch_accuracy_beats_coin_flip(self):
        predictor = HashedPerceptronPredictor(table_bits=10)
        rng = random.Random(7)
        pc = 0x405000
        correct = 0
        total = 1000
        for _ in range(total):
            outcome = rng.random() < 0.95
            if predictor.predict(pc) == outcome:
                correct += 1
            predictor.update(pc, outcome)
        assert correct / total > 0.85

    def test_reset_forgets_training(self):
        predictor = HashedPerceptronPredictor(table_bits=8)
        fresh = HashedPerceptronPredictor(table_bits=8)
        pc = 0x406000
        for _ in range(64):
            predictor.update(pc, False)
        predictor.reset()
        assert predictor._tables == fresh._tables
        assert predictor._history == 0
        assert predictor.predict(pc) is True

    @pytest.mark.parametrize("weight_bits", [2, 3, 4])
    def test_weights_saturate_at_their_width(self, weight_bits):
        # Six tables of weights this narrow never sum past the threshold, so
        # every update trains and the selected weights run into their bounds.
        predictor = HashedPerceptronPredictor(table_bits=4, weight_bits=weight_bits)
        for taken in (True, False):
            for _ in range(300):
                predictor.update(0x407000, taken)
            weights = [weight for table in predictor._tables for weight in table]
            assert min(weights) >= -(1 << (weight_bits - 1))
            assert max(weights) <= (1 << (weight_bits - 1)) - 1
        # The bias weight of the last direction trained sits at its bound.
        bias_index = (0x407000 >> 2) & (predictor.table_size - 1)
        assert predictor._tables[0][bias_index] == predictor.weight_min

    def test_threshold_follows_the_longest_history(self):
        assert HashedPerceptronPredictor().threshold == int(1.93 * 31 + 14)
        assert HashedPerceptronPredictor(history_lengths=(2, 5)).threshold == int(1.93 * 5 + 14)

    def test_training_stops_once_confident_and_correct(self):
        predictor = HashedPerceptronPredictor(history_lengths=(1,), table_bits=6, weight_bits=8)
        pc = 0x408000
        for _ in range(200):
            predictor.update(pc, True)
        assert predictor._locate(pc)[1] >= predictor.threshold
        tables = [list(table) for table in predictor._tables]
        predictor.update(pc, True)
        assert predictor._tables == tables

    def test_history_register_keeps_the_newest_outcomes(self):
        predictor = HashedPerceptronPredictor(history_lengths=(3, 6), table_bits=6)
        outcomes = [True, False, False, True, True, True, False, True, False]
        for taken in outcomes:
            predictor.update(0x409000, taken)
        expected = 0
        for taken in outcomes[-6:]:
            expected = (expected << 1) | int(taken)
        assert predictor._history == expected

    def test_predict_leaves_the_state_unchanged(self):
        predictor = HashedPerceptronPredictor(table_bits=6)
        rng = random.Random(3)
        for _ in range(50):
            predictor.update(0x40A000 + 4 * rng.randrange(16), rng.random() < 0.5)
        tables = [list(table) for table in predictor._tables]
        history = predictor._history
        for offset in range(16):
            predictor.predict(0x40A000 + 4 * offset)
        assert predictor._tables == tables
        assert predictor._history == history

    def test_update_of_another_branch_refreshes_the_prediction(self):
        """A predict memo must not outlive a weight or history change made by a
        different branch that shares its table entries."""
        predictor = HashedPerceptronPredictor(history_lengths=(1,), table_bits=1)
        pc, alias = 0x40B000, 0x40B008  # same bias index in a 2-entry table
        assert predictor.predict(pc) is True
        for _ in range(8):
            predictor.update(alias, False)
        assert predictor.predict(pc) is False

    def test_reset_drops_a_pending_prediction(self):
        predictor = HashedPerceptronPredictor(table_bits=8)
        pc = 0x40C000
        for _ in range(64):
            predictor.update(pc, False)
        assert predictor.predict(pc) is False
        predictor.reset()
        assert predictor.predict(pc) is True

    @settings(max_examples=60, deadline=None)
    @given(
        pc=st.integers(min_value=0, max_value=2**48),
        history=st.integers(min_value=0, max_value=2**31 - 1),
        table_bits=st.integers(min_value=1, max_value=12),
    )
    def test_indices_xor_the_folded_history_into_the_pc(self, pc, history, table_bits):
        """Each history table's index is the PC index XORed with the newest
        ``length`` history bits folded to the table width."""
        predictor = HashedPerceptronPredictor(table_bits=table_bits)
        predictor._history = history
        base = (pc >> 2) & mask(table_bits)
        expected = [base] + [
            base ^ fold_xor(history & mask(length), table_bits)
            for length in predictor.history_lengths
        ]
        assert predictor._indices(pc) == expected

    def test_record_outcome_counters(self):
        stats = Stats()
        predictor = HashedPerceptronPredictor(table_bits=8, stats=stats)
        predictor.record_outcome(True, True)
        predictor.record_outcome(True, False)
        assert predictor.stats.get("predictions") == 2
        assert predictor.stats.get("mispredictions") == 1
        assert stats.get("predictor.hashed_perceptron.correct") == 1

    @pytest.mark.parametrize("predictions,correct", [(0, 0), (4, 4), (4, 0), (5, 3)])
    def test_record_outcomes_books_like_single_outcomes(self, predictions, correct):
        """A batch of outcomes books the same counters, with the same key set,
        as recording them one at a time."""
        batched, single = Stats(), Stats()
        HashedPerceptronPredictor(table_bits=4, stats=batched).record_outcomes(
            predictions, correct
        )
        one_by_one = HashedPerceptronPredictor(table_bits=4, stats=single)
        for position in range(predictions):
            one_by_one.record_outcome(True, position < correct)
        assert batched.counters() == single.counters()


@st.composite
def _folded_geometries(draw):
    """A table width and history lengths below, equal to, a multiple of and above it."""
    table_bits = draw(st.integers(min_value=1, max_value=12))
    lengths = {table_bits, draw(st.sampled_from((2, 3))) * table_bits}
    if table_bits > 1:
        lengths.add(draw(st.integers(min_value=1, max_value=table_bits - 1)))
    above = draw(st.integers(min_value=table_bits + 1, max_value=40))
    if above % table_bits or table_bits == 1:
        lengths.add(above)
    return table_bits, tuple(sorted(lengths))


_FOLD_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("update"),
            st.integers(min_value=0, max_value=2**48).map(lambda pc: pc & ~3),
            st.booleans(),
        ),
        st.tuples(st.just("reset")),
        # What the batched commit plan does: assign the history register.
        st.tuples(st.just("assign"), st.integers(min_value=0, max_value=2**40)),
    ),
    max_size=80,
)


def _scratch_indices(predictor, pc):
    """Every table's index from the history register, folded from scratch."""
    bits = predictor.table_bits
    base = (pc >> 2) & mask(bits)
    history = predictor._history
    return [base] + [
        base ^ fold_xor(history & mask(length), bits) for length in predictor.history_lengths
    ]


class TestPackedHash:
    """The one-pass packed hash gives the from-scratch fold bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(geometry=_folded_geometries(), ops=_FOLD_OPS, probe=st.integers(0, 2**48))
    def test_indices_match_the_scratch_fold(self, geometry, ops, probe):
        table_bits, lengths = geometry
        predictor = HashedPerceptronPredictor(history_lengths=lengths, table_bits=table_bits)
        for op in ops:
            if op[0] == "update":
                _, pc, taken = op
                predictor.update(pc, taken)
            elif op[0] == "reset":
                predictor.reset()
            else:
                predictor._history = op[1] & mask(predictor.max_history)
            for pc in (probe, *(op[1:2] if op[0] == "update" else ())):
                assert predictor._indices(pc) == _scratch_indices(predictor, pc), op

    def test_indices_match_over_a_long_stream(self):
        predictor = HashedPerceptronPredictor()
        rng = random.Random(7)
        for _ in range(2000):
            pc = 0x40_0000 + 4 * rng.randrange(64)
            predictor.update(pc, rng.random() < 0.6)
            assert predictor._indices(pc) == _scratch_indices(predictor, pc)


class TestPredictorValidation:
    def test_perceptron_rejects_empty_history(self):
        with pytest.raises(ConfigurationError):
            HashedPerceptronPredictor(history_lengths=())

    @pytest.mark.parametrize("table_bits,weight_bits", [(0, 8), (8, 1)])
    def test_perceptron_rejects_bad_geometry(self, table_bits, weight_bits):
        with pytest.raises(ConfigurationError):
            HashedPerceptronPredictor(table_bits=table_bits, weight_bits=weight_bits)

    def test_factory_builds_the_configured_perceptron(self):
        config = BranchPredictorConfig(
            perceptron_history_lengths=(2, 5), perceptron_table_bits=6, perceptron_weight_bits=4
        )
        predictor = make_direction_predictor(config)
        assert isinstance(predictor, HashedPerceptronPredictor)
        assert predictor.history_lengths == (2, 5)
        assert predictor.table_size == 64
        assert predictor.weight_max == 7

    def test_factory_default_is_the_table2_perceptron(self):
        predictor = make_direction_predictor(BranchPredictorConfig())
        assert predictor.history_lengths == (3, 8, 14, 21, 31)
        assert predictor.table_size == 4096
        assert predictor.weight_bits == 8

    def test_factory_books_outcomes_in_the_given_stats(self):
        stats = Stats()
        predictor = make_direction_predictor(BranchPredictorConfig(), stats)
        predictor.record_outcome(False, True)
        assert stats.get("predictor.hashed_perceptron.mispredictions") == 1


class TestReturnAddressStack:
    def test_lifo_order(self):
        ras = ReturnAddressStack(entries=8)
        ras.push(0x1000)
        ras.push(0x2000)
        assert ras.pop() == 0x2000
        assert ras.pop() == 0x1000

    def test_underflow_returns_none(self):
        ras = ReturnAddressStack(entries=4)
        assert ras.pop() is None

    def test_overflow_drops_oldest(self):
        ras = ReturnAddressStack(entries=2)
        for value in (0x1, 0x2, 0x3):
            ras.push(value)
        assert len(ras) == 2
        assert ras.pop() == 0x3
        assert ras.pop() == 0x2
        assert ras.pop() is None

    def test_peek_does_not_pop(self):
        ras = ReturnAddressStack(entries=4)
        ras.push(0xABC)
        assert ras.peek() == 0xABC
        assert len(ras) == 1

    def test_clear(self):
        ras = ReturnAddressStack(entries=4)
        ras.push(0x1)
        ras.clear()
        assert ras.peek() is None

    def test_requires_positive_entries(self):
        with pytest.raises(ConfigurationError):
            ReturnAddressStack(entries=0)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=2**40), min_size=1, max_size=40))
    def test_balanced_push_pop_matches_list_semantics(self, addresses):
        """Property: without overflow, the RAS behaves exactly like a stack."""
        ras = ReturnAddressStack(entries=len(addresses))
        for address in addresses:
            ras.push(address)
        for expected in reversed(addresses):
            assert ras.pop() == expected
