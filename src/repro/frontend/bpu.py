"""Branch prediction unit: BTB + direction predictor + return address stack.

For every instruction address the BPU walks over it produces a
:class:`FrontEndPrediction`: whether a branch was identified (BTB hit), the
predicted direction and target, and -- once the architectural outcome is known
-- how the prediction resolves (correct, resteerable at decode, or a full
execute-stage flush).

The resolution rules follow the improved branch handling of Section VI-A:

* a taken branch that *misses* in the BTB is resolved at decode (cheap
  resteer) when its target is encoded in the instruction -- unconditional
  direct branches and calls always, conditional branches only if the direction
  predictor predicted taken (the decode stage receives direction predictions
  for all instructions);
* a taken branch that misses in the BTB and cannot be resolved at decode
  (returns, indirect branches, conditional branches predicted not-taken)
  causes a full execute-stage flush;
* a BTB miss for a not-taken conditional branch is harmless;
* on a BTB hit, a wrong predicted direction or wrong predicted target causes a
  full execute-stage flush.

These rules and the commit-time training live here once for the scalar
oracle.  The BPU does not probe the BTB itself: the simulator's loop probes
(every branch, and every non-branch whose probe could hit) and settles the
most common instruction -- a non-branch the BTB misses, for which the
sequential path is correct and nothing trains -- on its own, so
:meth:`BranchPredictionUnit.process` sees only branches and false hits,
together with their lookup result.  It is one body, the
classification and then the commit training, and the records of a BTB miss
are shared constants.  The batched backend
(:mod:`repro.core.batch`) applies the same rules inline in its walk, without
building a :class:`FrontEndPrediction`; the oracle-differential suite holds
the two to identical results.

The BPU keeps no counters: a loop reads each measured event (a taken branch
the BTB missed, a direction or target misprediction) off the returned
record's ``identified_branch``, ``predicted_taken`` and ``outcome``.

The direction predictor is asked the same ``predict``/``update`` calls
whether it computes or follows a trajectory: in a single-trace
:meth:`~repro.core.simulator.FrontEndSimulator.run` a pristine perceptron
replays the trace's recorded commits (:mod:`repro.predictor.trajectory`),
and answers every other query from caught-up tables, so nothing here
depends on which it does.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from repro.common.asid import ASIDCheckpointStore, retains_across_switch
from repro.common.config import MachineConfig
from repro.common.stats import Stats
from repro.isa.branch import BranchType
from repro.isa.instruction import Instruction
from repro.btb.base import BTBBase, BTBLookupResult
from repro.predictor.factory import make_direction_predictor
from repro.predictor.ras import ReturnAddressStack


class PredictionOutcome(enum.Enum):
    """How the front end's handling of one instruction resolves."""

    #: Correct next-PC prediction (or a non-branch instruction): no penalty.
    CORRECT = "correct"
    #: Taken branch missed in the BTB but was resteered at the decode stage.
    DECODE_RESTEER = "decode_resteer"
    #: Wrong path until the execute stage: full pipeline flush.
    EXECUTE_FLUSH = "execute_flush"


class FrontEndPrediction(NamedTuple):
    """Everything the front end decided about one instruction.

    An immutable tuple rather than a frozen dataclass, because one is built
    for every BTB hit and every taken-branch miss and a tuple is cheaper to
    construct.  The record carries no PC, so every BTB miss shares one of
    three instances (:data:`SEQUENTIAL`, :data:`_MISSED_RESTEER`,
    :data:`_MISSED_FLUSH`).
    """

    #: True on a BTB hit: the front end knows this PC is a branch.
    identified_branch: bool
    predicted_taken: bool
    predicted_target: int | None
    outcome: PredictionOutcome
    #: Extra BTB port cycles beyond the first (PDede different-page lookups).
    extra_btb_cycles: int = 0
    #: True when the prediction breaks the fetch stream (any wrong next-PC);
    #: used by the FTQ/FDIP model to reset the run-ahead distance.
    stream_break: bool = False


#: The prediction of every BTB miss that is not a taken branch: the front end
#: continues on the sequential path, which is correct.  Shared, because it
#: is by far the most common outcome (every non-branch the BTB misses).
SEQUENTIAL = FrontEndPrediction(
    identified_branch=False,
    predicted_taken=False,
    predicted_target=None,
    outcome=PredictionOutcome.CORRECT,
)

_NOT_BRANCH = BranchType.NOT_BRANCH
_CONDITIONAL = BranchType.CONDITIONAL
_UNCONDITIONAL = BranchType.UNCONDITIONAL
_CALL = BranchType.CALL
_INDIRECT_CALL = BranchType.INDIRECT_CALL
_RETURN = BranchType.RETURN
_RESTEER = PredictionOutcome.DECODE_RESTEER
_FLUSH = PredictionOutcome.EXECUTE_FLUSH
_CORRECT = PredictionOutcome.CORRECT

#: The records of a taken branch the BTB missed, resteered at decode or
#: flushed at execute; shared like :data:`SEQUENTIAL`.
_MISSED_RESTEER = FrontEndPrediction(False, False, None, _RESTEER, 0, True)
_MISSED_FLUSH = FrontEndPrediction(False, False, None, _FLUSH, 0, True)


class BranchPredictionUnit:
    """Combines a BTB organization, a direction predictor and a RAS."""

    def __init__(
        self,
        btb: BTBBase,
        config: MachineConfig,
        stats: Stats | None = None,
    ) -> None:
        """``stats`` is the registry the direction predictor counts in."""
        self.btb = btb
        self.config = config
        self.direction_predictor = make_direction_predictor(config.branch_predictor, stats)
        self.ras = ReturnAddressStack(config.branch_predictor.ras_entries)
        # Context-switch state: the currently scheduled ASID and, under tagged
        # retention, the saved RAS contents of descheduled address spaces
        # (the RAS is positional, not tag-matched, so retention means
        # checkpointing it per address space; see ASIDCheckpointStore).
        self.active_asid = 0
        self._ras_checkpoints = ASIDCheckpointStore(limit=256)

    # -- context switches ------------------------------------------------------

    def context_switch(self, asid: int) -> None:
        """Schedule address space ``asid`` in, applying the machine's ASID mode.

        ``FLUSH`` discards all predictive state (BTB, direction predictor,
        RAS), modelling hardware without ASID tags.  ``TAGGED`` retains it:
        the BTB switches its active tag color, the RAS is checkpointed per
        ASID, and the direction predictor keeps its (untagged, shared) tables
        -- cross-ASID aliasing in direction tables is benign and matches real
        cores, which tag BTBs but not weight tables.  ``PARTITIONED`` retains
        exactly like ``TAGGED`` -- the difference lives entirely in the BTB's
        set indexing (see :meth:`~repro.btb.base.BTBBase.configure_partitions`),
        which keys off the same active-ASID switch.
        """
        if asid == self.active_asid:
            return
        if retains_across_switch(self.config.asid_mode):
            self.ras.restore(
                self._ras_checkpoints.swap(self.active_asid, asid, self.ras.snapshot())
            )
            self.btb.set_active_asid(asid)
        else:
            self.btb.invalidate_all()
            self.ras.clear()
            self.direction_predictor.reset()
        self.active_asid = asid

    # -- prediction -----------------------------------------------------------

    def process(self, instruction: Instruction, lookup: BTBLookupResult) -> FrontEndPrediction:
        """Resolve ``instruction`` against its BTB ``lookup`` and train at commit.

        ``lookup`` is the caller's probe of ``instruction.pc`` (the
        simulator's loop probes every branch).  The architectural outcome
        carried by ``instruction`` is only used to classify the prediction
        (correct / decode resteer / execute flush) and to train the
        predictors at commit -- the prediction itself relies exclusively on
        the BTB, the direction predictor and the RAS.

        The loop settles a non-branch BTB miss without calling this; any
        input still resolves correctly here, a non-branch miss to
        :data:`SEQUENTIAL`.  A non-branch that *hits* (partial-tag aliasing)
        comes here, since a predicted-taken false hit breaks the stream.

        One body, the classification (Section VI-A) and then commit
        training, because this runs for every branch.  Records are built
        positionally, in :class:`FrontEndPrediction` field order, and the
        predictor, RAS and BTB are looked up on ``self`` per call, so
        instance-level instrumentation installed after construction is seen.
        """
        branch_type = instruction.branch_type
        taken = instruction.taken
        predictor = self.direction_predictor

        if not lookup.hit:
            # The front end does not know this PC is a branch: it continues on
            # the sequential path.  Conceptually the direction predictor still
            # produces a prediction for every PC (Section VI-A); it is only
            # consulted here when that prediction influences the outcome
            # (a taken conditional branch that decode might resteer).
            if branch_type is _NOT_BRANCH:
                return SEQUENTIAL
            if not taken:
                prediction = SEQUENTIAL
            # The events of the paper's BTB MPKI: every taken branch from here.
            elif branch_type is _UNCONDITIONAL or branch_type is _CALL:
                prediction = _MISSED_RESTEER
            elif branch_type is _CONDITIONAL and predictor.predict(instruction.pc):
                prediction = _MISSED_RESTEER
            else:
                prediction = _MISSED_FLUSH
            predicted_taken = False
        else:
            # BTB hit: the front end knows the branch type and (usually) its target.
            identified_type = lookup.branch_type or branch_type
            if identified_type is _CONDITIONAL:
                predicted_taken = predictor.predict(instruction.pc)
            else:
                predicted_taken = True
            if lookup.target_from_ras or identified_type is _RETURN:
                predicted_target = self.ras.peek()
            else:
                predicted_target = lookup.target
            extra_cycles = (lookup.latency_cycles - 1) if predicted_taken else 0

            if branch_type is _NOT_BRANCH:
                # A false BTB hit (partial-tag aliasing) on a non-branch: if it
                # is predicted taken the fetch stream is broken until decode
                # notices.  Nothing trains.
                if predicted_taken:
                    return FrontEndPrediction(
                        True, True, predicted_target, _RESTEER, extra_cycles, True
                    )
                return FrontEndPrediction(
                    True, False, predicted_target, _CORRECT, extra_cycles, False
                )
            # A wrong direction, or a wrong target (stale indirect target, RAS
            # mismatch or aliasing) on a taken branch, flushes at execute.
            if predicted_taken != taken or (taken and predicted_target != instruction.target):
                prediction = FrontEndPrediction(
                    True, predicted_taken, predicted_target, _FLUSH, extra_cycles, True
                )
            else:
                prediction = FrontEndPrediction(
                    True, predicted_taken, predicted_target, _CORRECT, extra_cycles, False
                )

        # Commit-time training: the direction predictor for conditionals,
        # the architectural RAS (calls push, returns pop), and the BTB for
        # taken branches only (Section VI-A).
        if branch_type is _CONDITIONAL:
            predictor.record_outcome(predicted_taken, taken)
            predictor.update(instruction.pc, taken)
        elif branch_type is _CALL or branch_type is _INDIRECT_CALL:
            self.ras.push(instruction.pc + instruction.size)
        elif branch_type is _RETURN:
            self.ras.pop()
        if taken:
            self.btb.update(instruction)
        return prediction
