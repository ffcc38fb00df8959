"""Named workload suites mirroring the paper's evaluation sets.

The paper evaluates on:

* IPC-1 client traces (``client_001`` .. ``client_008``) and server traces
  (``server_001`` .. ``server_039`` as named on the Figure 9/10 x-axis);
* CVP-1 server traces (750+; represented here by a differently-seeded suite);
* five x86-compiled server applications (Wordpress, Mediawiki, Drupal, Kafka,
  Finagle-HTTP) used for the Figure 13 ISA study.

Each named workload maps to a :class:`~repro.workloads.spec.WorkloadSpec` with
its own seed and instruction-footprint scale.  Server workloads 023-035 are
given the largest footprints, mirroring the paper's observation that those
traces stress the BTB hardest (Figure 9's right-hand cluster).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.common.config import ISAStyle
from repro.common.errors import WorkloadError
from repro.traces.trace import Trace, TraceSet
from repro.workloads.execution import generate_trace
from repro.workloads.spec import WorkloadSpec, client_spec, server_spec

#: Names on the Figure 9 / Figure 10 x-axis.
CLIENT_WORKLOAD_NAMES: tuple[str, ...] = tuple(f"client_{i:03d}" for i in range(1, 9))
SERVER_WORKLOAD_NAMES: tuple[str, ...] = tuple(
    f"server_{i:03d}" for i in list(range(1, 5)) + list(range(9, 40))
)
CVP_WORKLOAD_NAMES: tuple[str, ...] = tuple(f"cvp_server_{i:03d}" for i in range(1, 13))
X86_WORKLOAD_NAMES: tuple[str, ...] = (
    "wordpress",
    "mediawiki",
    "drupal",
    "kafka",
    "finagle_http",
)

SUITE_NAMES: tuple[str, ...] = ("ipc1_client", "ipc1_server", "cvp1_server", "x86_server")

#: Prefix of generated workload names (see :mod:`repro.scenarios.generate`).
GENERATED_PREFIX = "gen_"

#: Class tokens of generated names -> (spec builder, ISA).  The ``x`` prefix
#: marks the x86-compiled variant of a class, mirroring the Figure 13 apps.
_GENERATED_CLASSES = {
    "server": (server_spec, ISAStyle.ARM64),
    "client": (client_spec, ISAStyle.ARM64),
    "xserver": (server_spec, ISAStyle.X86),
    "xclient": (client_spec, ISAStyle.X86),
}


def _server_footprint_scale(ordinal: int) -> float:
    """Footprint scale for the n-th server workload.

    Workloads named server_023 .. server_035 (the high-MPKI cluster in
    Figure 9) get the largest instruction footprints; the rest span a range of
    moderate footprints so the suite shows per-workload variation.
    """
    if 23 <= ordinal <= 35:
        return 3.0 + 0.4 * (ordinal - 23)
    return 1.0 + 0.2 * (ordinal % 9)


def _client_footprint_scale(ordinal: int) -> float:
    """Footprint scale for the n-th client workload (all small)."""
    return 0.6 + 0.1 * (ordinal % 5)


def _build_specs() -> Dict[str, WorkloadSpec]:
    specs: Dict[str, WorkloadSpec] = {}
    for name in CLIENT_WORKLOAD_NAMES:
        ordinal = int(name.split("_")[1])
        specs[name] = client_spec(name, seed=1000 + ordinal, footprint_scale=_client_footprint_scale(ordinal))
    for name in SERVER_WORKLOAD_NAMES:
        ordinal = int(name.split("_")[1])
        specs[name] = server_spec(name, seed=2000 + ordinal, footprint_scale=_server_footprint_scale(ordinal))
    for name in CVP_WORKLOAD_NAMES:
        ordinal = int(name.split("_")[2])
        specs[name] = server_spec(name, seed=5000 + ordinal, footprint_scale=1.0 + 0.2 * (ordinal % 7))
    for ordinal, name in enumerate(X86_WORKLOAD_NAMES, start=1):
        specs[name] = server_spec(
            name, seed=7000 + ordinal, footprint_scale=1.0 + 0.3 * ordinal, isa=ISAStyle.X86
        )
    return specs


_SPECS: Dict[str, WorkloadSpec] = _build_specs()


def workload_names(suite: str) -> Sequence[str]:
    """Return the workload names of a suite."""
    if suite == "ipc1_client":
        return CLIENT_WORKLOAD_NAMES
    if suite == "ipc1_server":
        return SERVER_WORKLOAD_NAMES
    if suite == "cvp1_server":
        return CVP_WORKLOAD_NAMES
    if suite == "x86_server":
        return X86_WORKLOAD_NAMES
    raise WorkloadError(f"unknown suite {suite!r}; expected one of {SUITE_NAMES}")


def generated_workload_name(workload_class: str, seed: int, footprint_scale: float) -> str:
    """Canonical name of a generated workload: ``gen_<class>_<seed>_<milliscale>``.

    The name is self-describing -- :func:`workload_spec_by_name` rebuilds the
    identical spec from the string alone -- so pooled engine workers and the
    sharded result cache resolve generated workloads with no registration
    step and no cache-format change.  ``footprint_scale`` is carried in
    integer thousandths, keeping the name (and hence every cache identity
    derived from it) free of float formatting.
    """
    if workload_class not in _GENERATED_CLASSES:
        raise WorkloadError(
            f"unknown generated workload class {workload_class!r}; "
            f"expected one of {tuple(_GENERATED_CLASSES)}"
        )
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise WorkloadError(f"generated workload seed must be a non-negative int, got {seed!r}")
    milli = int(round(footprint_scale * 1000))
    if milli <= 0:
        raise WorkloadError(
            f"generated workload footprint scale {footprint_scale!r} rounds below 0.001"
        )
    return f"{GENERATED_PREFIX}{workload_class}_{seed}_{milli}"


def _generated_spec(name: str) -> WorkloadSpec | None:
    """Parse a ``gen_`` name into its spec; ``None`` for non-generated names."""
    if not name.startswith(GENERATED_PREFIX):
        return None
    parts = name.split("_")
    if (
        len(parts) != 4
        or parts[1] not in _GENERATED_CLASSES
        or not parts[2].isdigit()
        or not parts[3].isdigit()
        or int(parts[3]) == 0
    ):
        raise WorkloadError(
            f"malformed generated workload name {name!r}; expected "
            f"gen_<class>_<seed>_<milliscale> with class in {tuple(_GENERATED_CLASSES)}"
        )
    builder, isa = _GENERATED_CLASSES[parts[1]]
    return builder(name, seed=int(parts[2]), footprint_scale=int(parts[3]) / 1000, isa=isa)


def workload_spec_by_name(name: str) -> WorkloadSpec:
    """Return the spec of a named workload (e.g. ``server_032``).

    Names starting with ``gen_`` are parsed as generated workloads -- the
    spec is a pure function of the name, so any process can resolve it.
    """
    spec = _SPECS.get(name)
    if spec is not None:
        return spec
    generated = _generated_spec(name)
    if generated is not None:
        return generated
    raise WorkloadError(f"unknown workload {name!r}")


def build_workload(name: str, instructions: int) -> Trace:
    """Generate the trace of a single named workload."""
    return generate_trace(workload_spec_by_name(name), instructions, name=name)


def selected_workload_names(suite: str, limit: int | None = None) -> List[str]:
    """Workload names of a suite, optionally capped to ``limit`` members.

    When limited, workloads are chosen spread across the suite so both low-
    and high-footprint members are represented.  The selection is a pure
    function of ``(suite, limit)``, which is what lets parallel workers and
    the result cache agree on which workloads a scale implies.
    """
    names = list(workload_names(suite))
    if limit is not None and limit < len(names):
        if limit <= 0:
            raise WorkloadError("suite limit must be positive")
        stride = len(names) / limit
        names = [names[int(i * stride)] for i in range(limit)]
    return names


def build_suite(suite: str, instructions: int, limit: int | None = None) -> TraceSet:
    """Generate traces for a whole suite.

    ``limit`` caps the number of workloads, keeping quick runs and benchmarks
    tractable; see :func:`selected_workload_names` for how they are chosen.
    """
    names = selected_workload_names(suite, limit)
    suite_set = TraceSet(name=suite)
    for name in names:
        suite_set.add(build_workload(name, instructions))
    return suite_set

