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
every PC and settles the most common instruction -- a non-branch the BTB
misses, for which the sequential path is correct and nothing trains -- on
its own, so :meth:`BranchPredictionUnit.process` sees only branches and
false hits, together with their lookup result.  The batched backend
(:mod:`repro.core.batch`) applies the same rules inline in its walk, without
building a :class:`FrontEndPrediction`; the oracle-differential suite holds
the two to identical results.

The BPU keeps no counters: a loop reads each measured event (a taken branch
the BTB missed, a direction or target misprediction) off the returned
record's ``identified_branch``, ``predicted_taken`` and ``outcome``.
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
    construct.  The record carries no PC, so the outcome that depends on
    nothing per-instruction is one shared instance (:data:`SEQUENTIAL`).
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
        simulator's loop probes every PC).  The architectural outcome carried
        by ``instruction`` is only used to classify the prediction (correct /
        decode resteer / execute flush) and to train the predictors at commit
        -- the prediction itself relies exclusively on the BTB, the direction
        predictor and the RAS.

        The loop settles a non-branch BTB miss without calling this; any
        input still resolves correctly here, a non-branch miss to
        :data:`SEQUENTIAL`.  A non-branch that *hits* (partial-tag aliasing)
        comes here, since a predicted-taken false hit breaks the stream.
        """
        is_branch = instruction.branch_type is not _NOT_BRANCH
        prediction = self._classify(instruction, lookup, is_branch)
        self._commit(instruction, prediction, is_branch)
        return prediction

    def _classify(
        self, instruction: Instruction, lookup: BTBLookupResult, is_branch: bool
    ) -> FrontEndPrediction:
        """Classify ``instruction`` against its BTB lookup (Section VI-A rules).

        ``is_branch`` is the caller's already-known ``instruction.is_branch``.

        Records are built positionally, in :class:`FrontEndPrediction` field
        order: keyword construction of a tuple costs about twice as much.
        Branch classes are tested by identity against module constants
        rather than through the :class:`BranchType` properties.
        """
        actually_taken = instruction.taken

        if not lookup.hit:
            # The front end does not know this PC is a branch: it continues on
            # the sequential path.  Conceptually the direction predictor still
            # produces a prediction for every PC (Section VI-A); it is only
            # consulted here when that prediction influences the outcome
            # (a taken conditional branch that decode might resteer).
            if not is_branch or not actually_taken:
                return SEQUENTIAL
            # The events of the paper's BTB MPKI: every record from here on.
            branch_type = instruction.branch_type
            if branch_type is _UNCONDITIONAL or branch_type is _CALL:
                outcome = _RESTEER
            elif branch_type is _CONDITIONAL and self.direction_predictor.predict(
                instruction.pc
            ):
                outcome = _RESTEER
            else:
                outcome = _FLUSH
            return FrontEndPrediction(False, False, None, outcome, 0, True)

        # BTB hit: the front end knows the branch type and (usually) its target.
        identified_type = lookup.branch_type or instruction.branch_type
        if identified_type is _CONDITIONAL:
            predicted_taken = self.direction_predictor.predict(instruction.pc)
        else:
            predicted_taken = True

        if lookup.target_from_ras or identified_type is _RETURN:
            predicted_target = self.ras.peek()
        else:
            predicted_target = lookup.target

        extra_cycles = (lookup.latency_cycles - 1) if predicted_taken else 0

        if not is_branch:
            # A false BTB hit (partial-tag aliasing) on a non-branch: if it is
            # predicted taken the fetch stream is broken until decode notices.
            if predicted_taken:
                return FrontEndPrediction(
                    True, predicted_taken, predicted_target, _RESTEER, extra_cycles, True
                )
            return FrontEndPrediction(
                True, predicted_taken, predicted_target, _CORRECT, extra_cycles, False
            )

        if predicted_taken != actually_taken:
            outcome = _FLUSH
            stream_break = True
        elif actually_taken and predicted_target != instruction.target:
            # Wrong target: stale indirect target, RAS mismatch or aliasing.
            outcome = _FLUSH
            stream_break = True
        else:
            outcome = _CORRECT
            stream_break = False

        return FrontEndPrediction(
            True, predicted_taken, predicted_target, outcome, extra_cycles, stream_break
        )

    # -- commit-time updates ------------------------------------------------------

    def _commit(
        self, instruction: Instruction, prediction: FrontEndPrediction, is_branch: bool
    ) -> None:
        """Commit-time training: predictors, RAS and BTB updates.

        The predictor, RAS and BTB are looked up on ``self`` per commit, so
        instance-level instrumentation installed after construction is seen.
        """
        if not is_branch:
            return
        branch_type = instruction.branch_type
        taken = instruction.taken
        if branch_type is _CONDITIONAL:
            predictor = self.direction_predictor
            predicted = prediction.predicted_taken if prediction.identified_branch else False
            predictor.record_outcome(predicted, taken)
            predictor.update(instruction.pc, taken)
        # Architectural RAS maintenance: calls push, returns pop.
        elif branch_type is _CALL or branch_type is _INDIRECT_CALL:
            self.ras.push(instruction.pc + instruction.size)
        elif branch_type is _RETURN:
            self.ras.pop()
        # The BTB is updated at commit by taken branches only (Section VI-A).
        if taken:
            self.btb.update(instruction)
