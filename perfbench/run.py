"""Repository benchmark: host throughput, set-up time and memory per workload.

Run from the repository root::

    python3 perfbench/run.py --workload paper_grid --seed 2023 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs the traced pass and prints the per-layer table.  The last line of
standard output is one JSON object: ``correct``, ``attempted`` (cells),
``failed`` (cells that raised or whose outputs did not check) and
``metrics``.  ``--write-reference`` re-pins the default seed's digests.
See ``perfbench/README.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE = BENCH_DIR / "reference.json"
#: Declares the metric names and units this script prints.
BENCHMARK = ROOT / "BENCHMARK.json"
#: Scratch space for engine caches; inside the checkout, removed on exit.
TMP_ROOT = ROOT / ".perfbench_tmp"
#: Where the traced run writes its spans.
OUT_DIR = ROOT / ".perfbench_out"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-reference",
        action="store_true",
        help="pin this run's cell digests as the reference (default seed only)",
    )
    return parser.parse_args(argv)


def load_schema() -> dict:
    """``end_to_end`` and ``per_layer``: metric name -> unit, in declared order."""
    spec = json.loads(BENCHMARK.read_text())
    return {
        kind: {metric["name"]: metric["unit"] for metric in spec[kind]}
        for kind in ("end_to_end", "per_layer")
    }


def load_references(seed: int, default_seed: int) -> dict:
    """Pinned cell digests by workload; empty unless ``seed`` is the default."""
    if seed != default_seed or not REFERENCE.is_file():
        return {}
    return json.loads(REFERENCE.read_text())


def write_reference(workload: str, checker) -> None:
    pinned = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    pinned[workload] = {cell: digest for cell, (_, digest) in sorted(checker.digests.items())}
    REFERENCE.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {SRC}", file=sys.stderr)
        return 2
    if not BENCHMARK.is_file():
        print(f"perfbench: no metric declarations in {BENCHMARK}", file=sys.stderr)
        return 2
    schema = load_schema()
    sys.path.insert(0, str(SRC))

    import grids
    import legs
    from hostspeed import HostSpeed

    if args.workload not in grids.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("perfbench: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    if args.write_reference and (args.seed != grids.DEFAULT_SEED or args.trace):
        print("perfbench: --write-reference needs the default seed and --trace 0", file=sys.stderr)
        return 2

    workload = grids.WORKLOADS[args.workload](args.seed)
    references = {}
    if not args.write_reference:
        references = load_references(args.seed, grids.DEFAULT_SEED)
    checker = legs.Checker(references.get(args.workload))
    TMP_ROOT.mkdir(exist_ok=True)
    tmp_root = tempfile.mkdtemp(dir=TMP_ROOT)
    try:
        if args.trace:
            import layers

            units = schema["per_layer"]
            problems = layers.check_schema(units)
            if problems:
                print("perfbench: " + "\n".join(problems), file=sys.stderr)
                return 2
            values = layers.traced_run(workload, args.seed, checker, tmp_root, OUT_DIR, units,
                                       references.get("engine_cold_warm"))
        else:
            speed = HostSpeed()
            if args.workload == "engine_cold_warm":
                measured = legs.engine_metrics(workload, args.seconds, checker, tmp_root, speed)
            else:
                measured = legs.inline_metrics(workload, args.seconds, checker, speed)
            values = measured.scaled
            values["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            units = schema["end_to_end"]
            print(f"host speed factor {speed.factor():.4f} over {len(speed.samples)} samples; "
                  f"raw host values: {json.dumps(measured.raw, sort_keys=True)}")
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass  # another run still holds a directory there
    if args.write_reference:
        write_reference(args.workload, checker)

    attempted = len(checker.digests.keys() | checker.failures.keys())
    failed = len(checker.failures)
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
