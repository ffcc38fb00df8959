"""Direction-predictor trajectories: simulate the perceptron once per trace.

The hashed perceptron trains at every conditional commit with the branch's
architectural outcome, never with anything a BTB decides (Section VI-A), so
its tables and history evolve the same way in every BTB cell of a trace.  A
:class:`Trajectory` records that evolution once, the single-pass idea of
Mattson et al. (1970): for each conditional commit of the trace, in order,

* its PC and outcome (the outcomes are the history: the register before
  commit ``k`` holds the outcomes of the ``max_history`` commits before it),
* the prediction the perceptron made for it,
* the weight writes its training made, as ``(table * table_size + index,
  new weight)`` pairs.

A run over a prefix of the trace makes a prefix of those commits, so one
trajectory serves every prefix.  The data lives in typed arrays, cached per
trace and perceptron geometry (the perceptron fields of a
:class:`~repro.common.config.BranchPredictorConfig`) in a
:class:`weakref.WeakKeyDictionary`: a trajectory is freed with its trace.

:meth:`~repro.predictor.perceptron.HashedPerceptronPredictor.follow` makes a
pristine predictor replay a trajectory instead of computing it; the rules of
that replay are on the predictor.
"""

from __future__ import annotations

import weakref
from array import array
from typing import Dict, Iterable, List, Tuple

from repro.isa.branch import BranchType
from repro.isa.instruction import Instruction
from repro.obs import get_recorder
from repro.predictor.perceptron import HashedPerceptronPredictor
from repro.traces.trace import Trace

_CONDITIONAL = BranchType.CONDITIONAL

#: A perceptron's geometry, what a trajectory is keyed by besides its trace:
#: history lengths, table bits, weight bits.
Geometry = Tuple[Tuple[int, ...], int, int]


def _narrowest(typecodes: str, bits: int) -> str:
    """The first of ``typecodes`` whose items are at least ``bits`` wide."""
    for code in typecodes:
        if bits <= 8 * array(code).itemsize:
            return code
    raise OverflowError(f"no array type holds {bits}-bit values")


class Trajectory:
    """One perceptron geometry's recorded commits over one trace.

    ``pcs`` carries one entry past the last commit, ``-1``, which no
    instruction's PC equals (PCs are non-negative), so a query after the
    last commit is never mistaken for one.  ``write_ends[k]`` is the number
    of weight writes the commits before ``k`` made.
    """

    __slots__ = (
        "pcs", "outcomes", "predictions", "write_ends", "write_slots", "write_values",
        "table_bits", "max_history", "__weakref__",
    )

    def __init__(self, tables: int, table_bits: int, max_history: int, weight_bits: int) -> None:
        self.pcs = array("q")
        self.outcomes = array("b")
        self.predictions = array("b")
        self.write_ends = array("I", [0])
        self.write_slots = array(_narrowest("BHIQ", ((tables << table_bits) - 1).bit_length()))
        self.write_values = array(_narrowest("bhiq", weight_bits))
        self.table_bits = table_bits
        self.max_history = max_history

    def __len__(self) -> int:
        """The number of conditional commits recorded."""
        return len(self.outcomes)

    def apply(self, tables: List[List[int]], start: int, stop: int) -> None:
        """Write into ``tables`` what commits ``[start, stop)`` wrote."""
        first, last = self.write_ends[start], self.write_ends[stop]
        if first == last:
            return
        shift = self.table_bits
        mask = (1 << shift) - 1
        for slot, value in zip(self.write_slots[first:last], self.write_values[first:last]):
            tables[slot >> shift][slot & mask] = value

    def history(self, commit: int) -> int:
        """The global history register before ``commit`` (after the last one at ``len``)."""
        value = 0
        for taken in self.outcomes[max(0, commit - self.max_history) : commit]:
            value = (value << 1) | taken
        return value


def record(instructions: Iterable[Instruction], shape: Geometry) -> Trajectory:
    """Run a fresh perceptron of ``shape`` over the conditional commits of ``instructions``.

    The weight writes are what training changed: the selected weights are
    read before and after each :meth:`~HashedPerceptronPredictor.update`, so
    the training rule is the predictor's own.
    """
    history_lengths, table_bits, weight_bits = shape
    predictor = HashedPerceptronPredictor(history_lengths, table_bits, weight_bits)
    tables = predictor._tables
    trajectory = Trajectory(len(tables), table_bits, predictor.max_history, weight_bits)
    numbered = tuple(enumerate(tables))
    table_size = predictor.table_size
    locate, update = predictor._locate, predictor.update
    pcs, outcomes, predictions = trajectory.pcs, trajectory.outcomes, trajectory.predictions
    write_ends, slots, values = (
        trajectory.write_ends, trajectory.write_slots, trajectory.write_values
    )
    for instruction in instructions:
        if instruction.branch_type is not _CONDITIONAL:
            continue
        pc = instruction.pc
        taken = instruction.taken
        indices, total = locate(pc)
        before = [table[index] for table, index in zip(tables, indices)]
        update(pc, taken)
        for (number, table), index, weight in zip(numbered, indices, before):
            if table[index] != weight:
                slots.append(number * table_size + index)
                values.append(table[index])
        pcs.append(pc)
        outcomes.append(taken)
        predictions.append(total >= 0)
        write_ends.append(len(slots))
    pcs.append(-1)
    return trajectory


_TRAJECTORIES: "weakref.WeakKeyDictionary[object, Dict[Geometry, Trajectory]]" = (
    weakref.WeakKeyDictionary()
)


def trajectory_for(trace: Trace, predictor: HashedPerceptronPredictor) -> Trajectory | None:
    """``trace``'s trajectory for ``predictor``'s geometry, recorded on first use.

    The trajectory holds no reference to the trace, so the cache entry goes
    when the trace does.  A trace the arrays cannot hold (a PC of 2**63 or
    more, weights wider than 64 bits) has none, and its runs compute.
    """
    per_trace = _TRAJECTORIES.get(trace)
    if per_trace is None:
        per_trace = _TRAJECTORIES[trace] = {}
    shape = (predictor.history_lengths, predictor.table_bits, predictor.weight_bits)
    if shape not in per_trace:
        with get_recorder().span("predictor.trajectory", trace=trace.name) as span:
            try:
                trajectory = record(trace, shape)
            except OverflowError:
                trajectory = None
            else:
                span.set(commits=len(trajectory), writes=len(trajectory.write_slots))
        per_trace[shape] = trajectory
    return per_trace[shape]


def follow_trace(predictor: HashedPerceptronPredictor, trace: Trace) -> bool:
    """Make ``predictor`` follow ``trace``'s trajectory if it is pristine.

    Returns whether it follows; a predictor that does must be stopped with
    :meth:`~HashedPerceptronPredictor.stop_following` when the run ends.
    """
    if not predictor.pristine():
        return False
    trajectory = trajectory_for(trace, predictor)
    if trajectory is None:
        return False
    predictor.follow(trajectory)
    return True
