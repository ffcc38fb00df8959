"""Pinned content digests of synthesized workload traces.

Trace synthesis is seeded and deterministic, so every workload name maps to
one exact instruction stream.  This suite pins a sha256 over the
``(pc, size, branch_type, taken, target)`` fields of an 8 k-instruction
trace per workload family (ARM server and client, CVP-like, x86 suite,
generated x86 server): a change to program synthesis or the trace walk that
alters a single record fails here, naming the workload, before any
simulated result moves.

When a change is *intentionally* trace-altering, regenerate the fixture and
commit it together with the change (see TESTING.md)::

    PYTHONPATH=src python tests/test_trace_digests.py regenerate
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys

import pytest

from repro.traces.trace import Trace
from repro.workloads.suites import build_workload

FIXTURE_PATH = pathlib.Path(__file__).parent / "golden" / "trace_digests.json"

DIGEST_INSTRUCTIONS = 8_000
DIGEST_WORKLOADS = (
    "server_001",
    "server_035",
    "client_001",
    "cvp_server_001",
    "wordpress",
    "gen_xserver_7_1000",
)


def trace_digest(trace: Trace) -> str:
    """sha256 over every record's ``(pc, size, branch_type, taken, target)``."""
    digest = hashlib.sha256()
    for inst in trace:
        digest.update(
            f"{inst.pc},{inst.size},{inst.branch_type.value},{int(inst.taken)},{inst.target}\n"
            .encode("ascii")
        )
    return digest.hexdigest()


@pytest.fixture(scope="module")
def fixture():
    if not FIXTURE_PATH.exists():
        pytest.fail(
            f"trace digest fixture {FIXTURE_PATH} is missing; regenerate it with "
            "'PYTHONPATH=src python tests/test_trace_digests.py regenerate'"
        )
    return json.loads(FIXTURE_PATH.read_text(encoding="utf-8"))


def test_fixture_matches_the_pinned_set(fixture):
    assert fixture["instructions"] == DIGEST_INSTRUCTIONS
    assert sorted(fixture["digests"]) == sorted(DIGEST_WORKLOADS)


@pytest.mark.parametrize("workload", DIGEST_WORKLOADS)
def test_trace_digest_is_pinned(fixture, workload):
    trace = build_workload(workload, DIGEST_INSTRUCTIONS)
    assert len(trace) == DIGEST_INSTRUCTIONS
    actual = trace_digest(trace)
    assert actual == fixture["digests"][workload], (
        f"synthesized trace of {workload} drifted from its pinned digest; if the "
        "change is intentional, regenerate tests/golden/trace_digests.json "
        "(see TESTING.md) and commit the new fixture with your change"
    )


def test_server_trace_records_are_shared():
    # The walk emits one record object per distinct (pc, outcome, target), so
    # a looping server trace holds far fewer objects than records.
    trace = build_workload("server_001", DIGEST_INSTRUCTIONS)
    distinct = len({id(inst) for inst in trace})
    assert distinct * 2 < len(trace), (distinct, len(trace))


def regenerate() -> None:  # pragma: no cover - developer tool
    """Recompute every pinned digest and rewrite the fixture."""
    digests = {}
    for workload in DIGEST_WORKLOADS:
        print(f"  {workload} ...", flush=True)
        digests[workload] = trace_digest(build_workload(workload, DIGEST_INSTRUCTIONS))
    fixture = {"format": 1, "instructions": DIGEST_INSTRUCTIONS, "digests": digests}
    FIXTURE_PATH.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE_PATH.write_text(json.dumps(fixture, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
    print(f"wrote {len(digests)} digests to {FIXTURE_PATH}")


if __name__ == "__main__":  # pragma: no cover - developer tool
    if len(sys.argv) == 2 and sys.argv[1] == "regenerate":
        regenerate()
    else:
        print(__doc__)
        raise SystemExit(f"usage: {sys.argv[0]} regenerate")
