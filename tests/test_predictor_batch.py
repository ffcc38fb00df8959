"""Property suite: batched commit plans are bit-exact twins of the scalar path.

:mod:`repro.predictor.batch` precomputes, per scheduling piece, every
conditional-branch commit's direction prediction and training effect.  The
contract is strict bit-exactness against the scalar ``predict``/``update``
pair *including* interleaved live reads (a false BTB hit consults
``predict(pc)`` between commits and must observe exactly-current tables).

Hypothesis drives the dimensions the plan's correctness argument leans on:

* **conflict density** -- PCs drawn from small pools against tiny tables force
  index repeats, which is what exercises the segment-cut machinery (both the
  vectorized >=8-element segments and the scalar short-segment path);
* **history lengths** -- gshare/perceptron history register widths around the
  sliding-window edge cases (0, 1, < table_bits, > table_bits);
* **weight widths** -- perceptron weights as narrow as 2 bits saturate within
  a few commits, exercising the training rule's bounds;
* **warmup-boundary mid-segment** -- a stream cut at an arbitrary point into
  two consecutive plans (exactly what the engine does when a chunk straddles
  the warmup boundary) must equal one uncut scalar replay.
"""

from __future__ import annotations

import pytest

pytest.importorskip("numpy")
hypothesis = pytest.importorskip("hypothesis")

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.common.stats import Stats
from repro.predictor.batch import plan_commits, segment_cuts
from repro.predictor.bimodal import BimodalPredictor
from repro.predictor.gshare import GSharePredictor
from repro.predictor.perceptron import HashedPerceptronPredictor


def _make(kind: str, geometry: int, history: int, weight_bits: int = 8):
    stats = Stats()
    if kind == "bimodal":
        return BimodalPredictor(table_bits=geometry, stats=stats)
    if kind == "gshare":
        return GSharePredictor(table_bits=geometry, history_bits=history, stats=stats)
    return HashedPerceptronPredictor(
        history_lengths=tuple(sorted({1, history, 2 * history + 1})),
        table_bits=geometry,
        weight_bits=weight_bits,
        stats=stats,
    )


def _state(predictor):
    if isinstance(predictor, HashedPerceptronPredictor):
        return ([list(t) for t in predictor._tables], predictor._history)
    if isinstance(predictor, GSharePredictor):
        return (list(predictor._counters), predictor._history)
    return list(predictor._counters)


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
    assert plan is not None
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
_kinds = st.sampled_from(["bimodal", "gshare", "perceptron"])
_geometry = st.integers(min_value=1, max_value=6)
_history = st.integers(min_value=0, max_value=20)
_weight_bits = st.integers(min_value=2, max_value=8)


class TestCommitPlanProperties:
    @settings(deadline=None, max_examples=60)
    @given(
        commits=_commits,
        kind=_kinds,
        geometry=_geometry,
        history=_history,
        weight_bits=_weight_bits,
        data=st.data(),
    )
    def test_plan_matches_scalar_with_interleaved_reads(
        self, commits, kind, geometry, history, weight_bits, data
    ):
        if kind == "perceptron":
            history = max(history, 1)
        probe_positions = data.draw(
            st.sets(st.integers(min_value=0, max_value=len(commits) - 1), max_size=8)
        )
        probes = {
            position: 0x40_0000 + 4 * data.draw(st.integers(0, 7), label="probe pc")
            for position in probe_positions
        }
        scalar = _make(kind, geometry, history, weight_bits)
        planned = _make(kind, geometry, history, weight_bits)

        scalar_pred, scalar_reads = _scalar_replay(scalar, commits, probes)
        plan_pred, plan_reads = _plan_replay(planned, commits, probes)

        assert plan_pred == scalar_pred
        assert plan_reads == scalar_reads
        assert _state(planned) == _state(scalar)
        assert planned.stats.get("predictions") == scalar.stats.get("predictions")
        assert planned.stats.get("mispredictions") == scalar.stats.get("mispredictions")

    @settings(deadline=None, max_examples=40)
    @given(
        commits=_commits,
        kind=_kinds,
        geometry=_geometry,
        history=_history,
        weight_bits=_weight_bits,
        cut_fraction=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_split_plans_equal_one_scalar_stream(
        self, commits, kind, geometry, history, weight_bits, cut_fraction
    ):
        """A stream cut into two consecutive plans (the warmup boundary falling
        mid-chunk) trains the predictor identically to one uncut scalar pass --
        the second plan must pick up the exact post-first-plan state."""
        if kind == "perceptron":
            history = max(history, 1)
        cut = int(cut_fraction * len(commits))
        scalar = _make(kind, geometry, history, weight_bits)
        planned = _make(kind, geometry, history, weight_bits)

        scalar_pred, _ = _scalar_replay(scalar, commits, {})
        head_pred, _ = _plan_replay(planned, commits[:cut], {}) if cut else ([], [])
        tail_pred, _ = (
            _plan_replay(planned, commits[cut:], {}) if cut < len(commits) else ([], [])
        )

        assert head_pred + tail_pred == scalar_pred
        assert _state(planned) == _state(scalar)

    @settings(deadline=None, max_examples=60)
    @given(indices=st.lists(st.integers(min_value=0, max_value=5), max_size=64))
    def test_segment_cuts_invariants(self, indices):
        """Within every segment all indices are distinct, segments tile the
        stream, and each non-initial segment starts at a repeat point."""
        cuts = segment_cuts(indices)
        assert cuts[0] == 0 and cuts[-1] == len(indices)
        assert cuts == sorted(cuts)
        for left, right in zip(cuts, cuts[1:]):
            segment = indices[left:right]
            assert len(set(segment)) == len(segment)
            if left > 0:
                # The cut was forced: its first index appeared in the previous
                # segment (greedy first-repeat rule).
                assert indices[left] in indices[cuts[cuts.index(left) - 1]:left]

    @settings(deadline=None, max_examples=30)
    @given(
        commits=st.lists(
            st.tuples(st.just(0x40_0000), st.booleans()), min_size=8, max_size=64
        ),
        kind=st.sampled_from(["bimodal", "gshare"]),
    )
    def test_single_pc_stream_is_one_conflict_chain(self, commits, kind):
        """The worst segment-cut case -- every commit hits one table entry, so
        every segment has length 1 and the plan degenerates to a scalar chain."""
        scalar = _make(kind, 4, 6)
        planned = _make(kind, 4, 6)
        scalar_pred, _ = _scalar_replay(scalar, commits, {})
        plan_pred, _ = _plan_replay(planned, commits, {})
        assert plan_pred == scalar_pred
        assert _state(planned) == _state(scalar)
