"""Command-line interface: run any experiment driver and print its report.

Examples::

    btbx-repro list
    btbx-repro run fig09_mpki --scale quick
    btbx-repro run fig11_sweep --scale full --workers 8 --cache-dir results/cache
    btbx-repro run-all --scale smoke --workers 4 --timings BENCH_run_all.json
    btbx-repro scenario list
    btbx-repro scenario run consolidated_server --scale smoke --json scenario.json
    btbx-repro scenario run noisy_neighbor --asid-modes flush,tagged --csv noisy.csv
    btbx-repro sweep scenarios --preset consolidated_server --json sweep.json --csv sweep.csv
    btbx-repro sweep shared --preset shared_services --json shared.json --csv shared.csv
    btbx-repro sweep scenarios --scale smoke --backend numpy
    btbx-repro sweep caches --preset consolidated_server --json caches.json --csv caches.csv
    btbx-repro sweep tenants --tenant-counts 4,64,1024 --csv tenants.csv
    btbx-repro plot caches.csv --out-dir figures
    btbx-repro cache stats --cache-dir results/cache
    btbx-repro cache prune --cache-dir results/cache --max-age-days 30
    btbx-repro run-all --scale smoke --workers 4 --trace-out run_all.trace.jsonl
    btbx-repro obs report run_all.trace.jsonl
    btbx-repro obs export run_all.trace.jsonl --out run_all.chrome.json

Scale resolution honors the ``REPRO_SCALE`` environment variable: when set
(to ``smoke``, ``quick`` or ``full``) it overrides the ``--scale`` flag, so
CI and batch jobs can redirect every invocation without editing commands.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import math
import os
import sys
import time
from typing import Dict, Iterator, List

from repro.common import log
from repro.common.config import BACKEND_ENV_VAR, BACKENDS, ASIDMode, BTBStyle, ISAStyle
from repro.experiments.config import (
    FULL_SCALE,
    QUICK_SCALE,
    SMOKE_SCALE,
    ExperimentScale,
    current_scale,
)
from repro.experiments.engine import ExperimentEngine, ResultCache, use_engine
from repro.obs import JsonlRecorder, get_recorder, use_recorder

#: Every experiment driver, in run-all order: ``name`` is ``repro.experiments.<name>``.
EXPERIMENTS = (
    "table1_exynos",
    "fig04_offsets",
    "table3_storage",
    "table4_capacity",
    "fig09_mpki",
    "fig10_performance",
    "table5_energy",
    "fig11_sweep",
    "fig12_cvp",
    "fig13_x86",
    "ablation_ways",
    "scenario_study",
    "scenario_sweep",
    "shared_footprint",
    "cache_interference",
    "tenant_scale",
)


def experiment_module(name: str):
    """The driver module of experiment ``name``."""
    return importlib.import_module(f"repro.experiments.{name}")


_SCALES = {"smoke": SMOKE_SCALE, "quick": QUICK_SCALE, "full": FULL_SCALE}


def _positive_int(value: str) -> int:
    count = int(value)
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value!r}")
    return count


# -- sweep option parsing -------------------------------------------------------
#
# Each parse function takes the flag's value (a string, or what argparse's
# ``type`` made of it), the flag as typed and the parser, and returns the
# driver's ``run`` argument or exits 2 through ``parser.error``.


def _positive(value: float, flag: str, parser: argparse.ArgumentParser) -> float:
    if not 0 < value < math.inf:
        parser.error(f"{flag} must be positive and finite, got {value}")
    return value


def _non_negative(value: float, flag: str, parser: argparse.ArgumentParser) -> float:
    if not 0 <= value < math.inf:
        parser.error(f"{flag} must be non-negative and finite, got {value}")
    return value


def _unit_interval(value: float, flag: str, parser: argparse.ArgumentParser) -> float:
    if not 0.0 <= value <= 1.0:
        parser.error(f"{flag} must be within [0, 1], got {value}")
    return value


def _number_list(text: str, flag: str, parser: argparse.ArgumentParser, kind, check) -> list:
    values = []
    for token in text.split(","):
        try:
            value = kind(token.strip())
        except ValueError:
            parser.error(f"{flag} expects comma-separated {kind.__name__} values, got {token!r}")
        values.append(check(value, flag, parser))
    return values


def _int_list(text: str, flag: str, parser: argparse.ArgumentParser) -> List[int]:
    """Comma-separated positive integers."""
    return _number_list(text, flag, parser, int, _positive)


def _fraction_list(text: str, flag: str, parser: argparse.ArgumentParser) -> List[float]:
    """Comma-separated numbers within [0, 1]."""
    return _number_list(text, flag, parser, float, _unit_interval)


def _enum_list(text: str, flag: str, parser: argparse.ArgumentParser, kind) -> list:
    try:
        return [kind(token.strip()) for token in text.split(",")]
    except ValueError as exc:
        parser.error(f"{flag}: {exc}")


def _styles(text: str, flag: str, parser: argparse.ArgumentParser) -> List[BTBStyle]:
    """Comma-separated BTB styles."""
    return _enum_list(text, flag, parser, BTBStyle)


def _style(text: str, flag: str, parser: argparse.ArgumentParser) -> BTBStyle:
    """Exactly one BTB style."""
    styles = _styles(text, flag, parser)
    if len(styles) != 1:
        parser.error(f"{flag} expects exactly one BTB style, got {len(styles)}: {text!r}")
    return styles[0]


def _modes(text: str, flag: str, parser: argparse.ArgumentParser) -> List[ASIDMode]:
    """Comma-separated ASID modes."""
    return _enum_list(text, flag, parser, ASIDMode)


def _modes_or_shared(
    text: str, flag: str, parser: argparse.ArgumentParser
) -> List[ASIDMode | None]:
    """Comma-separated cache modes, ``shared`` (``None``) being the legacy hierarchy."""
    return [
        None if token.strip() == "shared" else _modes(token, flag, parser)[0]
        for token in text.split(",")
    ]


def _preset(name: str, flag: str, parser: argparse.ArgumentParser) -> str:
    """A registered scenario preset."""
    from repro.common.errors import ConfigurationError
    from repro.scenarios.presets import get_scenario

    try:
        get_scenario(name)
    except ConfigurationError as exc:
        parser.error(str(exc))
    return name


def _presets(names: List[str], flag: str, parser: argparse.ArgumentParser) -> List[str]:
    return [_preset(name, flag, parser) for name in names]


def _isa(value: str, flag: str, parser: argparse.ArgumentParser) -> ISAStyle:
    return ISAStyle(value)


def _option(flag: str, help: str, parse=None, **settings) -> tuple:
    """One sweep flag: its help, parse function and extra ``add_argument`` settings."""
    return (flag, help, parse, settings)


_STYLES_HELP = "comma-separated BTB styles (conventional,rbtb,pdede,btbx,ideal; default: {})"
_PRESETS_OPTION = _option(
    "--preset",
    "scenario preset to sweep (repeatable; default: every registered preset)",
    _presets,
    action="append",
    dest="presets",
    metavar="NAME",
)
_QUANTA_OPTION = _option(
    "--quanta",
    "comma-separated quantum lengths in instructions (default: 1024..16384)",
    _int_list,
)
_PRESET_TENANT_COUNTS_OPTION = _option(
    "--tenant-counts",
    "comma-separated tenant counts (default: 1..len(preset tenants))",
    _int_list,
)
_ASID_MODES_OPTION = _option(
    "--asid-modes",
    "comma-separated ASID modes (flush,tagged,partitioned; default: all three)",
    _modes,
)
_STYLE_OPTION = _option(
    "--style",
    "BTB style the sweep runs on (conventional,rbtb,pdede,btbx,ideal; default: btbx)",
    _style,
)
_BUDGET_OPTION = _option(
    "--budget-kib",
    "BTB storage budget in KiB (default: the paper's 14.5)",
    _positive,
    type=float,
)

#: ``sweep`` subcommand -> (driver's :data:`EXPERIMENTS` name, help, options).
#: Each option's dest is the driver's ``run`` keyword it sets; ``None`` marks
#: where the engine arguments go.  ``--json`` and ``--csv`` close every option
#: list.
SWEEP_COMMANDS: Dict[str, tuple] = {
    "scenarios": (
        "scenario_sweep",
        "MPKI vs quantum and vs tenant count across BTB styles and ASID modes",
        (
            _PRESETS_OPTION,
            None,
            _QUANTA_OPTION,
            _PRESET_TENANT_COUNTS_OPTION,
            _option("--styles", _STYLES_HELP.format("conventional,btbx"), _styles),
            _ASID_MODES_OPTION,
            _BUDGET_OPTION,
        ),
    ),
    "shared": (
        "shared_footprint",
        "MPKI + duplication vs shared-code overlap fraction "
        "(ASID tagging's duplication cost)",
        (
            _option(
                "--preset",
                "scenario preset to sweep (default: shared_services)",
                _preset,
                default="shared_services",
            ),
            None,
            _option(
                "--fractions",
                "comma-separated overlap fractions in [0, 1] (default: 0,0.25,0.5,0.75,1)",
                _fraction_list,
            ),
            _option("--styles", _STYLES_HELP.format("conventional,pdede,rbtb"), _styles),
            _ASID_MODES_OPTION,
            _BUDGET_OPTION,
        ),
    ),
    "caches": (
        "cache_interference",
        "per-tenant L1-I/L2 MPKI vs quantum and tenant count across cache "
        "ASID modes (flush/tagged/partitioned hierarchy)",
        (
            _PRESETS_OPTION,
            None,
            _QUANTA_OPTION,
            _PRESET_TENANT_COUNTS_OPTION,
            _STYLE_OPTION,
            _option(
                "--cache-modes",
                "comma-separated cache ASID modes (flush,tagged,partitioned; "
                "default: all three)",
                _modes,
            ),
            _BUDGET_OPTION,
        ),
    ),
    "tenants": (
        "tenant_scale",
        "tenant-count scaling (4..1024+) on seeded generated scenarios: "
        "aggregate/percentile MPKI and partition-fallback occupancy per "
        "(tenant count x ASID mode x cache mode)",
        (
            None,
            _option(
                "--tenant-counts",
                "comma-separated tenant counts (default: 4,16,64,256,1024)",
                _int_list,
            ),
            _option(
                "--asid-modes",
                "comma-separated BTB ASID modes (flush,tagged,partitioned; default: all three)",
                _modes,
            ),
            _option(
                "--cache-modes",
                "comma-separated cache hierarchy modes; 'shared' is the legacy "
                "untagged hierarchy (shared,flush,tagged,partitioned; default: "
                "shared,partitioned)",
                _modes_or_shared,
            ),
            _STYLE_OPTION,
            _option(
                "--seed",
                "recipe seed; one seed draws one workload population for the whole axis",
                _non_negative,
                type=int,
            ),
            _option(
                "--isa",
                "ISA flavour of the generated tenant population (default: arm64)",
                _isa,
                choices=["arm64", "x86"],
            ),
            _option(
                "--quantum",
                "scheduling quantum in instructions (default: 256)",
                type=_positive_int,
                dest="quantum_instructions",
                metavar="QUANTUM",
            ),
            _option(
                "--shared-fraction",
                "fraction of each tenant's code pages remapped onto the shared "
                "region (default: 0, no remap)",
                _unit_interval,
                type=float,
            ),
            _BUDGET_OPTION,
        ),
    ),
}

#: ``scenario run``, declared like a :data:`SWEEP_COMMANDS` entry: the study
#: at one preset's own quantum.
SCENARIO_RUN: tuple = (
    "scenario_study",
    "run one scenario across BTB styles and ASID modes",
    (
        _option("presets", "registered scenario preset name", _presets, nargs=1, metavar="NAME"),
        None,
        _ASID_MODES_OPTION,
    ),
)


def _add_engine_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale", choices=sorted(_SCALES), default="quick", help="simulation scale preset"
    )
    parser.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help="simulation worker processes (1 = serial, no pool)",
    )
    parser.add_argument(
        "--cache-dir",
        help="directory for the on-disk result cache (reruns skip finished jobs)",
    )
    parser.add_argument(
        "--backend",
        choices=sorted(BACKENDS),
        default=None,
        help="simulation backend: 'python' = scalar oracle, 'numpy' = batched "
        f"SoA engine (default: the {BACKEND_ENV_VAR} environment variable, "
        "else python)",
    )
    parser.add_argument(
        "--trace-out",
        dest="trace_out",
        default=None,
        help="record structured telemetry (spans + metrics) of this run to the "
        "given file as JSON Lines, the input of 'obs report' and 'obs export' "
        "(default: off)",
    )


def _add_declared_command(sub, name: str, entry: tuple) -> None:
    """Add subcommand ``name`` with the options its table ``entry`` declares."""
    _experiment, help_text, options = entry
    command = sub.add_parser(name, help=help_text)
    for option in options:
        if option is None:
            _add_engine_arguments(command)
            continue
        flag, option_help, _parse, settings = option
        command.add_argument(flag, help=option_help, **settings)
    command.add_argument("--json", dest="json_path", help="dump the raw result as JSON")
    command.add_argument("--csv", dest="csv_path", help="dump flat per-point rows as CSV")
    command.set_defaults(declared=entry)


def build_parser() -> argparse.ArgumentParser:
    """Build the argparse command-line parser."""
    parser = argparse.ArgumentParser(
        prog="btbx-repro",
        description="Reproduction harness for 'A Storage-Effective BTB Organization for Servers'",
    )
    verbosity = parser.add_mutually_exclusive_group()
    verbosity.add_argument(
        "--quiet",
        action="store_true",
        help="suppress progress notes; keep reports, warnings and errors",
    )
    verbosity.add_argument(
        "--verbose",
        action="store_true",
        help="emit extra diagnostics (resolved scale, engine counters, ...)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run_parser = sub.add_parser("run", help="run one experiment and print its report")
    run_parser.add_argument("experiment", choices=sorted(EXPERIMENTS), help="experiment to run")
    _add_engine_arguments(run_parser)
    run_parser.add_argument("--json", dest="json_path", help="also dump the raw result as JSON")

    all_parser = sub.add_parser(
        "run-all", help="run every experiment through one shared engine"
    )
    _add_engine_arguments(all_parser)
    all_parser.add_argument(
        "--timings",
        dest="timings_path",
        help="dump a JSON timing summary (per-experiment seconds, ok/failed status, "
        "engine counters)",
    )

    scenario_parser = sub.add_parser(
        "scenario", help="multi-tenant scenarios: list presets or run one"
    )
    scenario_sub = scenario_parser.add_subparsers(dest="scenario_command", required=True)
    scenario_sub.add_parser("list", help="list registered scenario presets")
    _add_declared_command(scenario_sub, "run", SCENARIO_RUN)

    sweep_parser = sub.add_parser(
        "sweep", help="grid sweeps over the scenario presets"
    )
    sweep_sub = sweep_parser.add_subparsers(dest="sweep_command", required=True)
    for name, entry in SWEEP_COMMANDS.items():
        _add_declared_command(sweep_sub, name, entry)

    plot_parser = sub.add_parser(
        "plot", help="render the CSV output of any sweep subcommand as figures"
    )
    plot_parser.add_argument("csv_path", help="sweep CSV produced by a --csv flag")
    plot_parser.add_argument(
        "--out-dir",
        dest="out_dir",
        help="directory for the emitted figures (default: next to the CSV)",
    )

    obs_parser = sub.add_parser(
        "obs", help="inspect recorded telemetry traces (--trace-out output)"
    )
    obs_sub = obs_parser.add_subparsers(dest="obs_command", required=True)
    obs_report = obs_sub.add_parser(
        "report",
        help="aggregate a JSONL trace into a phase table (p50/p95 per phase, "
        "pool utilization, cache hit rates, instructions/sec per driver)",
    )
    obs_report.add_argument("trace_path", help="JSONL trace file written by --trace-out")
    obs_report.add_argument(
        "--json", dest="json_path", help="also dump the aggregated report as JSON"
    )
    obs_export = obs_sub.add_parser(
        "export",
        help="convert a JSONL trace to Chrome trace-event JSON "
        "(about://tracing / Perfetto)",
    )
    obs_export.add_argument("trace_path", help="JSONL trace file written by --trace-out")
    obs_export.add_argument(
        "--out",
        dest="out_path",
        default=None,
        help="output file (default: <trace>.chrome.json)",
    )

    cache_parser = sub.add_parser("cache", help="inspect or prune the on-disk result cache")
    cache_sub = cache_parser.add_subparsers(dest="cache_command", required=True)
    cache_stats = cache_sub.add_parser("stats", help="entry count, total bytes, age range")
    cache_stats.add_argument("--cache-dir", required=True, help="result cache directory")
    cache_prune = cache_sub.add_parser("prune", help="delete cached entries by age")
    cache_prune.add_argument("--cache-dir", required=True, help="result cache directory")
    cache_prune.add_argument(
        "--max-age-days",
        type=float,
        default=None,
        help="delete entries older than this many days (default: delete everything)",
    )
    return parser


def resolve_scale(scale_name: str = "quick") -> ExperimentScale:
    """Scale implied by ``scale_name``, unless ``REPRO_SCALE`` overrides it."""
    return current_scale(default=_SCALES[scale_name])


def make_engine(workers: int = 1, cache_dir: str | None = None) -> ExperimentEngine:
    """Build an engine from CLI-level knobs."""
    return ExperimentEngine(workers=workers, cache_dir=cache_dir)


def run_experiment(
    name: str,
    scale_name: str = "quick",
    engine: ExperimentEngine | None = None,
) -> Dict[str, object]:
    """Run a named experiment at the requested scale and return its raw result."""
    module = experiment_module(name)
    scale = resolve_scale(scale_name)
    if engine is None:
        return module.run(scale)
    with use_engine(engine):
        return module.run(scale)


def run_all(
    scale_name: str = "quick",
    engine: ExperimentEngine | None = None,
) -> Dict[str, object]:
    """Run every experiment in one pooled pass over a shared engine.

    The engine's memo and cache are shared across drivers, so overlapping
    grids (fig09/fig10/fig11/table5 reuse most cells) simulate only once.
    A failing experiment does not abort the batch: its status is recorded as
    ``failed`` (with the error message) and the remaining experiments still
    run.  Returns ``{"results": ..., "timings_s": ..., "status": ...,
    "errors": ..., "engine": ...}``.
    """
    engine = engine or ExperimentEngine(workers=1)
    recorder = get_recorder()
    results: Dict[str, Dict[str, object]] = {}
    timings: Dict[str, float] = {}
    status: Dict[str, str] = {}
    errors: Dict[str, str] = {}
    instructions: Dict[str, int] = {}
    ips: Dict[str, float] = {}
    per_driver: Dict[str, Dict[str, int]] = {}
    with use_engine(engine):
        for name in EXPERIMENTS:
            counters_before = engine.stats()
            started = time.perf_counter()
            with recorder.span(f"driver.{name}") as driver_span:
                try:
                    results[name] = run_experiment(name, scale_name, engine=engine)
                    status[name] = "ok"
                except Exception as exc:  # noqa: BLE001 - batch resilience is the point
                    status[name] = "failed"
                    errors[name] = f"{type(exc).__name__}: {exc}"
                timings[name] = time.perf_counter() - started
                # Executed jobs only: a driver whose cells all memo/cache-hit
                # simulated nothing, so its throughput is reported as 0 rather
                # than an absurd cells/lookup-time figure.
                counters_after = engine.stats()
                per_driver[name] = {
                    key: counters_after[key] - counters_before[key]
                    for key in ("submitted", "executed", "memo_hits", "disk_hits")
                }
                instructions[name] = (
                    counters_after["instructions_simulated"]
                    - counters_before["instructions_simulated"]
                )
                ips[name] = instructions[name] / timings[name] if timings[name] > 0 else 0.0
                driver_span.set(
                    status=status[name],
                    instructions=instructions[name],
                    executed=per_driver[name]["executed"],
                )
    return {
        "scale": resolve_scale(scale_name).name,
        "results": results,
        "timings_s": timings,
        "instructions": instructions,
        "instructions_per_second": ips,
        "total_s": sum(timings.values()),
        "status": status,
        "errors": errors,
        "failed": sorted(name for name, state in status.items() if state == "failed"),
        "engine": engine.stats(),
        "engine_per_driver": per_driver,
    }


def _write_timings(path: str, summary: Dict[str, object], workers: int) -> None:
    record = {
        "benchmark": "run_all",
        "scale": summary["scale"],
        "workers": workers,
        "timings_s": summary["timings_s"],
        "instructions": summary["instructions"],
        "instructions_per_second": summary["instructions_per_second"],
        "total_s": summary["total_s"],
        "status": summary["status"],
        "errors": summary["errors"],
        "engine": summary["engine"],
        "engine_per_driver": summary["engine_per_driver"],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)


def _write_result_outputs(
    result: Dict[str, object],
    json_path: str | None,
    csv_path: str | None = None,
) -> None:
    """Dump a driver result to ``--json`` and a sweep's rows to ``--csv``."""
    if json_path:
        with open(json_path, "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=2, default=str)
        log.info(f"\n(raw result written to {json_path})")
    if csv_path:
        from repro.experiments.sweep import write_csv

        write_csv(result, csv_path)
        log.info(f"(rows CSV written to {csv_path})")


def run_scenario_command(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """Handle ``scenario list``."""
    from repro.scenarios.presets import get_scenario, scenario_names

    for name in scenario_names():
        spec = get_scenario(name)
        tenants = ", ".join(
            f"{t.name}:{t.workload}" + (f" x{t.weight}" if t.weight != 1 else "")
            for t in spec.tenants
        )
        log.result(f"{name:<22} {spec.policy}/{spec.switch_semantics}, "
                   f"quantum {spec.quantum_instructions}: {tenants}")
        if spec.description:
            log.result(f"{'':<22} {spec.description}")
    return 0


def run_sweep_command(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """Handle ``sweep <name>`` and ``scenario run`` as their table entry declares.

    Every flag the user set is checked and converted by its parse function
    and passed to the driver's ``run`` under its dest; unset flags keep the
    driver's defaults.
    """
    experiment, _help, options = args.declared
    kwargs: Dict[str, object] = {}
    for flag, _option_help, parse, settings in filter(None, options):
        dest = settings.get("dest", flag.lstrip("-").replace("-", "_"))
        value = getattr(args, dest)
        if value is not None:
            kwargs[dest] = value if parse is None else parse(value, flag, parser)
    try:
        engine = make_engine(workers=args.workers, cache_dir=args.cache_dir)
    except OSError as exc:
        parser.error(f"cannot use cache directory {args.cache_dir!r}: {exc}")
    module = experiment_module(experiment)
    result = module.run(resolve_scale(args.scale), engine=engine, **kwargs)
    log.result(module.format_report(result))
    _write_result_outputs(result, args.json_path, args.csv_path)
    return 0


def run_plot_command(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """Handle ``plot``: render a sweep CSV into one figure per metric."""
    import os

    from repro.analysis import plotting

    if not os.path.isfile(args.csv_path):
        parser.error(f"no such CSV file: {args.csv_path}")
    try:
        figures = plotting.plot_csv(args.csv_path, out_dir=args.out_dir)
    except plotting.PlotSchemaError as exc:
        parser.error(str(exc))
    for path in figures:
        log.result(f"wrote {path}")
    if not figures:
        log.result("nothing to plot (no rows in the CSV)")
    return 0


def run_cache_command(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """Handle ``cache stats`` and ``cache prune``.

    A cache directory that does not exist is an empty cache, not an error:
    report that and exit 0 without creating the directory as a side effect
    (``ResultCache`` would, which surprises ``stats`` users probing a path).
    """
    if getattr(args, "max_age_days", None) is not None:
        _non_negative(args.max_age_days, "--max-age-days", parser)
    if not os.path.isdir(args.cache_dir):
        if args.cache_command == "prune":
            log.result(f"pruned 0 entries (cache directory {args.cache_dir} does not exist)")
        else:
            log.result(f"cache directory : {args.cache_dir}")
            log.result("entries         : 0  (directory does not exist; nothing cached yet)")
        return 0
    try:
        cache = ResultCache(args.cache_dir)
    except OSError as exc:
        parser.error(f"cannot use cache directory {args.cache_dir!r}: {exc}")

    if args.cache_command == "stats":
        stats = cache.stats()
        log.result(f"cache directory : {stats['directory']}")
        log.result(f"entries         : {stats['entries']}")
        log.result(f"total bytes     : {stats['total_bytes']}")
        if stats["entries"]:
            age_s = time.time() - stats["oldest_mtime"]
            log.result(f"oldest entry    : {age_s / 86400.0:.2f} days old")
        return 0

    max_age_s = None if args.max_age_days is None else args.max_age_days * 86400.0
    removed = cache.prune(max_age_seconds=max_age_s)
    what = "entries" if removed != 1 else "entry"
    if args.max_age_days is None:
        log.result(f"pruned {removed} {what} (no age limit given: cache emptied)")
    else:
        log.result(f"pruned {removed} {what} older than {args.max_age_days} days")
    return 0


def run_obs_command(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """Handle ``obs report`` and ``obs export``."""
    from repro.obs import read_trace
    from repro.obs.chrome import export_chrome
    from repro.obs.report import aggregate, format_report

    try:
        events = read_trace(args.trace_path)
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"cannot read trace {args.trace_path!r}: {exc}")

    if args.obs_command == "report":
        report = aggregate(events)
        log.result(format_report(report))
        if args.json_path:
            with open(args.json_path, "w", encoding="utf-8") as handle:
                json.dump(report, handle, indent=2, sort_keys=True)
            log.info(f"\n(report written to {args.json_path})")
        return 0

    out_path = args.out_path or f"{args.trace_path.removesuffix('.jsonl')}.chrome.json"
    export_chrome(events, out_path)
    log.result(f"wrote {out_path}")
    return 0


@contextlib.contextmanager
def _scoped_environ(updates: Dict[str, str]) -> Iterator[None]:
    """Apply environment ``updates`` for one command, then restore.

    The CLI exports its --backend / --trace-out choices through the
    environment so pooled worker processes inherit them; scoping the mutation
    keeps ``main()`` reentrant (library callers and tests invoking it must
    not find the previous run's knobs left behind in ``os.environ``).
    """
    previous = {key: os.environ.get(key) for key in updates}
    os.environ.update(updates)
    try:
        yield
    finally:
        for key, value in previous.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    log.configure(-1 if args.quiet else (1 if args.verbose else 0))

    # One central knob for the simulation backend: subcommands that build an
    # engine expose --backend, which routes through the environment so pooled
    # worker processes inherit it.  The export is scoped to this command.
    env_updates: Dict[str, str] = {}
    if getattr(args, "backend", None):
        from repro.common.config import resolve_backend
        from repro.common.errors import ConfigurationError

        try:
            resolve_backend(args.backend)
        except ConfigurationError as exc:
            parser.error(str(exc))
        env_updates[BACKEND_ENV_VAR] = args.backend

    # --trace-out turns on a JsonlRecorder around the whole command; pool
    # workers record per job and ship their events back to it.  The `obs`
    # subcommand only *reads* traces, so it never records itself.
    trace_out = getattr(args, "trace_out", None)
    if trace_out and args.command != "obs":
        recorder = JsonlRecorder()
        with _scoped_environ(env_updates):
            with use_recorder(recorder):
                exit_code = _dispatch(args, parser)
        recorder.write(trace_out)
        log.info(f"(telemetry trace written to {trace_out})")
        return exit_code
    with _scoped_environ(env_updates):
        return _dispatch(args, parser)


def _dispatch(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """Route a parsed command line to its handler."""
    if args.command == "list":
        for name in sorted(EXPERIMENTS):
            module = experiment_module(name)
            summary = (module.__doc__ or "").strip().splitlines()[0]
            log.result(f"{name:<18} {summary}")
        return 0

    if getattr(args, "declared", None) is not None:
        return run_sweep_command(args, parser)

    if args.command == "scenario":
        return run_scenario_command(args, parser)

    if args.command == "plot":
        return run_plot_command(args, parser)

    if args.command == "cache":
        return run_cache_command(args, parser)

    if args.command == "obs":
        return run_obs_command(args, parser)

    try:
        engine = make_engine(workers=args.workers, cache_dir=args.cache_dir)
    except OSError as exc:
        parser.error(f"cannot use cache directory {args.cache_dir!r}: {exc}")
    log.debug(
        f"engine: workers={args.workers}, cache_dir={args.cache_dir}, "
        f"scale={resolve_scale(args.scale).name}"
    )

    if args.command == "run-all":
        summary = run_all(args.scale, engine=engine)
        for name in EXPERIMENTS:
            if summary["status"][name] == "failed":
                log.result(f"[{name}: FAILED after {summary['timings_s'][name]:.2f}s: "
                           f"{summary['errors'][name]}]\n")
                continue
            module = experiment_module(name)
            log.result(module.format_report(summary["results"][name]))
            driver = summary["engine_per_driver"][name]
            reuse = f"{driver['memo_hits']} memo + {driver['disk_hits']} disk hits"
            if summary["instructions"][name]:
                log.info(
                    f"[{name}: {summary['timings_s'][name]:.2f}s, "
                    f"{summary['instructions_per_second'][name]:,.0f} instructions/s, "
                    f"{driver['executed']} executed, {reuse}]\n"
                )
            else:
                log.info(
                    f"[{name}: {summary['timings_s'][name]:.2f}s "
                    f"(all cells reused: {reuse})]\n"
                )
        counters = summary["engine"]
        log.result(
            f"run-all: {summary['total_s']:.2f}s at scale {summary['scale']} "
            f"({counters['executed']} simulations, {counters['memo_hits']} memo hits, "
            f"{counters['disk_hits']} cache hits)"
        )
        if summary["failed"]:
            log.result(f"run-all: {len(summary['failed'])} experiment(s) FAILED: "
                       f"{', '.join(summary['failed'])}")
        if args.timings_path:
            _write_timings(args.timings_path, summary, args.workers)
            log.info(f"(timing summary written to {args.timings_path})")
        return 1 if summary["failed"] else 0

    result = run_experiment(args.experiment, args.scale, engine=engine)
    module = experiment_module(args.experiment)
    log.result(module.format_report(result))
    _write_result_outputs(result, args.json_path)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
