"""Property suite: batched commit plans are bit-exact twins of the scalar path.

:mod:`repro.predictor.batch` precomputes, per scheduling piece, every
conditional-branch commit's history value and perceptron table indices.  The
contract is strict bit-exactness against the scalar ``predict``/``update``
pair *including* interleaved live reads (a false BTB hit consults
``predict(pc)`` between commits and must observe exactly-current tables).

Hypothesis drives the dimensions the plan's correctness argument leans on:

* **conflict density** -- PCs drawn from small pools against tiny tables force
  index repeats, so a commit often reads weights an earlier commit of the
  same plan has just trained;
* **history lengths** -- perceptron history register widths around the
  sliding-window and XOR-fold edge cases (1, < table_bits, > table_bits);
* **weight widths** -- perceptron weights as narrow as 2 bits saturate within
  a few commits, exercising the training rule's bounds;
* **warmup-boundary mid-chunk** -- a stream cut at an arbitrary point into
  two consecutive plans (exactly what the engine does when a chunk straddles
  the warmup boundary) must equal one uncut scalar replay.
"""

from __future__ import annotations

import pytest

pytest.importorskip("numpy")
hypothesis = pytest.importorskip("hypothesis")

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.common.bitutils import fold_xor
from repro.common.stats import Stats
from repro.predictor.batch import history_values, plan_commits
from repro.predictor.perceptron import HashedPerceptronPredictor


def _make(geometry: int, history: int, weight_bits: int):
    return HashedPerceptronPredictor(
        history_lengths=tuple(sorted({1, history, 2 * history + 1})),
        table_bits=geometry,
        weight_bits=weight_bits,
        stats=Stats(),
    )


def _state(predictor):
    return ([list(t) for t in predictor._tables], predictor._history)


def _counters(predictor):
    """Every counter the predictor booked, with its key set."""
    return predictor.stats._stats.counters()


def _scalar_replay(predictor, commits, probes):
    """The scalar front end's commit loop, with interleaved live reads."""
    predictions = []
    interleaved = []
    for position, (pc, taken) in enumerate(commits):
        predicted = predictor.predict(pc)
        predictions.append(predicted)
        predictor.record_outcome(predicted, taken)
        predictor.update(pc, taken)
        probe = probes.get(position)
        if probe is not None:
            interleaved.append(predictor.predict(probe))
    return predictions, interleaved


def _plan_replay(predictor, commits, probes):
    """The batched engine's commit loop over one or more consecutive plans."""
    pcs = np.array([pc for pc, _ in commits], dtype=np.uint64)
    taken = np.array([taken for _, taken in commits], dtype=bool)
    plan = plan_commits(predictor, pcs, taken)
    predictions = []
    interleaved = []
    for k in range(len(commits)):
        predicted = plan.predict(k)
        predictions.append(predicted)
        plan.record_outcome(predicted, taken[k])
        plan.update(k)
        probe = probes.get(k)
        if probe is not None:
            # Live read against the predictor's tables mid-plan: must see
            # every commit <= k applied and nothing beyond.
            interleaved.append(predictor.predict(probe))
    plan.finish()
    return predictions, interleaved


# Small pools against small tables maximize index conflicts; the pc values
# keep realistic address magnitudes (plans hash ``pc >> 2`` as uint64).
_commits = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=7).map(lambda i: 0x40_0000 + 4 * i),
        st.booleans(),
    ),
    min_size=1,
    max_size=64,
)
_geometry = st.integers(min_value=1, max_value=6)
_history = st.integers(min_value=1, max_value=20)
_weight_bits = st.integers(min_value=2, max_value=8)


class TestCommitPlanProperties:
    @settings(deadline=None, max_examples=60)
    @given(
        commits=_commits,
        geometry=_geometry,
        history=_history,
        weight_bits=_weight_bits,
        data=st.data(),
    )
    def test_plan_matches_scalar_with_interleaved_reads(
        self, commits, geometry, history, weight_bits, data
    ):
        probe_positions = data.draw(
            st.sets(st.integers(min_value=0, max_value=len(commits) - 1), max_size=8)
        )
        probes = {
            position: 0x40_0000 + 4 * data.draw(st.integers(0, 7), label="probe pc")
            for position in probe_positions
        }
        scalar = _make(geometry, history, weight_bits)
        planned = _make(geometry, history, weight_bits)

        scalar_pred, scalar_reads = _scalar_replay(scalar, commits, probes)
        plan_pred, plan_reads = _plan_replay(planned, commits, probes)

        assert plan_pred == scalar_pred
        assert plan_reads == scalar_reads
        assert _state(planned) == _state(scalar)
        assert _counters(planned) == _counters(scalar)

    @settings(deadline=None, max_examples=40)
    @given(
        commits=_commits,
        geometry=_geometry,
        history=_history,
        weight_bits=_weight_bits,
        cut_fraction=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_split_plans_equal_one_scalar_stream(
        self, commits, geometry, history, weight_bits, cut_fraction
    ):
        """A stream cut into two consecutive plans (the warmup boundary falling
        mid-chunk) trains the predictor identically to one uncut scalar pass --
        the second plan must pick up the exact post-first-plan state."""
        cut = int(cut_fraction * len(commits))
        scalar = _make(geometry, history, weight_bits)
        planned = _make(geometry, history, weight_bits)

        scalar_pred, _ = _scalar_replay(scalar, commits, {})
        # Either piece may hold no commit at all (cut at 0 or at the end).
        head_pred, _ = _plan_replay(planned, commits[:cut], {})
        tail_pred, _ = _plan_replay(planned, commits[cut:], {})

        assert head_pred + tail_pred == scalar_pred
        assert _state(planned) == _state(scalar)
        assert _counters(planned) == _counters(scalar)

    @settings(deadline=None, max_examples=30)
    @given(
        commits=st.lists(
            st.tuples(st.just(0x40_0000), st.booleans()), min_size=8, max_size=64
        ),
        weight_bits=_weight_bits,
    )
    def test_single_pc_stream_is_one_conflict_chain(self, commits, weight_bits):
        """The worst conflict case -- every commit reads the bias weight the
        previous commit just trained."""
        scalar = _make(4, 6, weight_bits)
        planned = _make(4, 6, weight_bits)
        scalar_pred, _ = _scalar_replay(scalar, commits, {})
        plan_pred, _ = _plan_replay(planned, commits, {})
        assert plan_pred == scalar_pred
        assert _state(planned) == _state(scalar)

    def test_table2_geometry_plan_matches_scalar(self):
        """The product configuration: 4096-entry tables and a 31-bit history."""
        rng = np.random.default_rng(11)
        pcs = 0x40_0000 + 4 * rng.integers(0, 200, size=3000)
        outcomes = rng.random(3000) < 0.7
        commits = [(int(pc), bool(taken)) for pc, taken in zip(pcs, outcomes)]
        scalar = HashedPerceptronPredictor(stats=Stats())
        planned = HashedPerceptronPredictor(stats=Stats())
        scalar_pred, _ = _scalar_replay(scalar, commits, {})
        plan_pred, _ = _plan_replay(planned, commits, {})
        assert plan_pred == scalar_pred
        assert _state(planned) == _state(scalar)

    def test_a_plan_without_commits_changes_nothing(self):
        """A piece with no conditional branch still gets a plan, and finishing
        it books no counter and leaves the tables and history alone."""
        predictor = _make(4, 6, 8)
        predictor.update(0x40_0000, True)
        before = _state(predictor)
        plan = plan_commits(
            predictor, np.array([], dtype=np.uint64), np.array([], dtype=bool)
        )
        plan.finish()
        assert _state(predictor) == before
        assert _counters(predictor) == {}

    @settings(deadline=None, max_examples=40)
    @given(
        head=_commits,
        tail=_commits,
        geometry=_geometry,
        history=_history,
        weight_bits=_weight_bits,
    )
    def test_scalar_indices_after_a_plan_are_the_scratch_fold(
        self, head, tail, geometry, history, weight_bits
    ):
        """A plan assigns the history register directly; the scalar commits
        after it still index exactly."""
        predictor = _make(geometry, history, weight_bits)
        _scalar_replay(predictor, head[: len(head) // 2], {})
        _plan_replay(predictor, head, {})
        for pc, taken in tail:
            expected = [(pc >> 2) & ((1 << geometry) - 1)]
            expected += [
                expected[0] ^ fold_xor(predictor._history & ((1 << length) - 1), geometry)
                for length in predictor.history_lengths
            ]
            assert predictor._indices(pc) == expected
            predictor.update(pc, taken)

    @settings(deadline=None, max_examples=60)
    @given(
        initial=st.integers(min_value=0, max_value=2**40),
        taken=st.lists(st.booleans(), max_size=64),
        bits=st.integers(min_value=0, max_value=40),
    )
    def test_history_values_match_the_shift_register(self, initial, taken, bits):
        initial &= (1 << bits) - 1
        before, after = history_values(initial, np.array(taken, dtype=bool), bits)
        register = initial
        for k, outcome in enumerate(taken):
            assert before[k] == register
            register = ((register << 1) | int(outcome)) & ((1 << bits) - 1)
            assert after[k] == register
