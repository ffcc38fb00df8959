"""Performance gate over perfbench results and the committed history.

Measure each gated workload with perfbench, saving its standard output in a
file named after the workload, then record or check those files::

    python3 perfbench/run.py --workload paper_grid --seed 2023 --seconds 15 --trace 0 > BENCH_perfbench/paper_grid.txt
    python3 tools/perf_gate.py record results/bench_history.jsonl BENCH_perfbench/paper_grid.txt
    python3 tools/perf_gate.py check results/bench_history.jsonl BENCH_perfbench/paper_grid.txt

``record`` appends each result (perfbench's last output line) to the history
with its ``workload``, ``seed``, ``seconds``, ``commit`` and ``date``; it
refuses a result whose outputs did not check.  ``check`` compares each result
with the last history record of the same workload and exits 1 when the
outputs did not check (``correct`` false or ``failed > 0``), when
``ips_python`` or ``ips_numpy`` dropped by more than 20 %, or when
``ips_numpy/ips_python`` is below 3.0.  Unreadable inputs, a corrupt history
line or a workload without a record exit 2.  Only the standard library is
used, so the gate runs before anything is installed.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import subprocess
import sys
from pathlib import Path

#: The perfbench run the history records describe; CI runs exactly this.
SEED = 2023
SECONDS = 15
COMMAND = f"python3 perfbench/run.py --workload {{workload}} --seed {SEED} --seconds {SECONDS} --trace 0"

#: Largest accepted throughput drop against the baseline record (20 %).
MAX_DROP = 0.20
#: The batched backend must deliver this multiple of the scalar oracle.
SPEEDUP_FLOOR = 3.0
#: PR label under which CI skips ``check``: a deliberate slowdown.
OVERRIDE_LABEL = "perf-regression-ok"

GATED_METRICS = ("ips_python", "ips_numpy")


class GateError(Exception):
    """An input the gate cannot judge: exit status 2."""


def read_result(path: str | os.PathLike) -> dict:
    """Perfbench's result: the last non-empty line of its saved output."""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise GateError(f"{path}: {exc.strerror}") from exc
    last = next((line for line in reversed(lines) if line.strip()), "")
    try:
        result = json.loads(last)
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or not isinstance(result.get("metrics"), dict):
        raise GateError(f"{path}: last line is not a perfbench result")
    return result


def load_history(path: str | os.PathLike) -> list:
    """Every record of the JSONL history; a corrupt line names ``file:line``."""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise GateError(f"{path}: {exc.strerror}") from exc
    records = []
    for number, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise GateError(f"{path}:{number}: corrupt history line ({exc.msg})") from exc
    return records


def baseline(history: list, workload: str, history_path: str | os.PathLike) -> dict:
    """The last record of ``workload``; records of other workloads never match."""
    for record in reversed(history):
        if isinstance(record, dict) and record.get("workload") == workload:
            return record
    raise GateError(
        f"{history_path}: no record of workload {workload!r}; measure it with "
        f"`{COMMAND.format(workload=workload)} > {workload}.txt` and add it with "
        f"`python3 tools/perf_gate.py record {history_path} {workload}.txt`"
    )


def metric(result: dict, name: str, source: str) -> float:
    """A positive throughput metric of a perfbench result."""
    entry = result.get("metrics", {}).get(name)
    value = entry.get("value") if isinstance(entry, dict) else None
    if not isinstance(value, (int, float)) or value <= 0:
        raise GateError(f"{source}: no positive {name}")
    return float(value)


def outputs_checked(result: dict) -> bool:
    return result.get("correct") is True and result.get("failed") == 0


def workload_of(path: str | os.PathLike) -> str:
    return Path(path).stem


def current_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10, check=False
        )
    except (OSError, subprocess.SubprocessError):
        out = None
    if out is not None and out.returncode == 0 and out.stdout.strip():
        return out.stdout.strip()
    return os.environ.get("GITHUB_SHA", "unknown")


def record(history_path: str, outputs: list) -> int:
    results = {path: read_result(path) for path in outputs}
    for path, result in results.items():
        if not outputs_checked(result):
            print(f"{path}: outputs did not check (correct={result.get('correct')}, "
                  f"failed={result.get('failed')}); not recorded")
            return 1
    commit = current_commit()
    date = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
    with open(history_path, "a", encoding="utf-8") as handle:
        for path, result in results.items():
            entry = dict(result, workload=workload_of(path), seed=SEED, seconds=SECONDS,
                         commit=commit, date=date)
            handle.write(json.dumps(entry, sort_keys=True) + "\n")
            print(f"{workload_of(path)}: recorded in {history_path}")
    return 0


def check(history_path: str, outputs: list) -> int:
    history = load_history(history_path)
    failures = regressions = 0
    for path in outputs:
        workload = workload_of(path)
        result = read_result(path)
        base = baseline(history, workload, history_path)
        if outputs_checked(result):
            print(f"{workload}: outputs checked ({result.get('attempted')} cells)  ok")
        else:
            print(f"{workload}: outputs did not check (correct={result.get('correct')}, "
                  f"failed={result.get('failed')})  FAIL")
            failures += 1
        fresh = {name: metric(result, name, str(path)) for name in GATED_METRICS}
        for name in GATED_METRICS:
            old = metric(base, name, f"{history_path} record of {workload}")
            ratio = fresh[name] / old
            dropped = ratio < 1.0 - MAX_DROP
            regressions += dropped
            print(f"{workload}: {name} {old:,.0f} -> {fresh[name]:,.0f} ({ratio:.2f}x of "
                  f"{str(base.get('commit'))[:12]}, min {1.0 - MAX_DROP:.2f}x)  "
                  f"{'FAIL' if dropped else 'ok'}")
        speedup = fresh["ips_numpy"] / fresh["ips_python"]
        below = speedup < SPEEDUP_FLOOR
        regressions += below
        print(f"{workload}: ips_numpy/ips_python {speedup:.2f}x (floor {SPEEDUP_FLOOR:.1f}x)  "
              f"{'FAIL' if below else 'ok'}")
    if regressions:
        print(f"performance gate failed; apply the '{OVERRIDE_LABEL}' label to accept "
              "a deliberate regression")
    return 1 if failures or regressions else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("record", "check"))
    parser.add_argument("history", help="JSONL history, e.g. results/bench_history.jsonl")
    parser.add_argument("outputs", nargs="+", help="perfbench output files named <workload>.<ext>")
    args = parser.parse_args(argv)
    try:
        return (record if args.mode == "record" else check)(args.history, args.outputs)
    except GateError as exc:
        print(f"perf_gate: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
