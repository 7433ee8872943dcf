"""Command-line entry point.

Subcommands:

* ``validate <config>``            - check a config file and build its task
                                     set, write nothing
* ``run <config> [--out DIR]``     - run all configured modes, write CSVs
* ``sweep-rank <config> --ranks R...`` - JOINT vs structured-projection sweep;
                                     writes ``rank_sweep.csv``, then the
                                     resolved ``config.json`` and ``sweep.json``
                                     (the ranks and the seed count)
* ``summarize <dir>``              - recompute the summary from the CSVs of a
                                     ``run`` directory, each read against its
                                     ``config.json``, or of a ``sweep-rank``
                                     directory, read against its ``sweep.json``
                                     and ``config.json``

Exit codes: 0 success, 1 runtime failure (a ``MemoryError`` too: a config
whose arrays do not fit in memory; ``run`` and ``sweep-rank`` make their
directory only after training, so a failed run leaves none), 2 usage or
validation error
(including a ``sweep-rank`` rank the config rejects or repeats, or a
``--seeds`` below 1 or whose last seed the config rejects, caught before the
run directory is made, and a ``run`` directory that already holds a mode
directory the config does not run, an adapter dump the config would not
overwrite (one of a run with more tasks or layers) or a ``rank_sweep.csv``,
or a ``sweep-rank`` directory that holds any mode directory, caught before
anything is trained or written, so that ``summarize`` never mixes two runs,
no adapter dump outlives its run and ``config.json`` describes the directory
it is in). ``summarize`` exits 2 on a run file other than the one a run of
the directory's ``config.json`` writes, or a ``rank_sweep.csv`` whose ranks
are not its ``sweep.json``'s (naming the file and the first line that
differs), a missing or invalid ``config.json`` or ``sweep.json`` (naming the
file and the field), a ``sweep.json`` rank its ``config.json`` rejects, a
missing CSV, a mode directory the config does not list, and a mode directory
beside a ``rank_sweep.csv``. ``validate`` and ``run`` build the config's
task set first, and ``sweep-rank`` each seed's (which every rank of that
seed then trains on), and exit 2 on an array too large for numpy to size
(naming the file and the field) or a label pool
that no draw fills (naming the file, the task and the pool); ``run`` and
``sweep-rank`` exit 2 on a run directory that is a file or lies under one
(naming the file). Both are caught before anything is trained or written.
Output root resolution: --out flag, then config.output_dir, then the
ORTHO_LORA_OUT environment variable, then ./ortho_lora_runs; the config
file's stem names the run subdirectory unless config.output_dir points at
an explicit run directory.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .adapter import save_adapter
from .config import (
    SINGLE_TASK,
    ExperimentConfig,
    SweepRecord,
    check_array_sizes,
    load_config,
    save_config,
    save_sweep,
)
from .errors import ConfigError, OrthoLoraError
from .reporting import (
    CONFIG_FILE,
    RANK_FILE,
    SWEEP_FILE,
    SummaryTable,
    build_summary,
    format_summary,
    mode_dirs,
    rank_sweep,
    summarize_dir,
    sweep_configs,
    write_metrics,
    write_rank_rows,
)
from .tasks import SyntheticTaskSet
from .trainer import build_task_set, run_count, run_experiment

ENV_OUT = "ORTHO_LORA_OUT"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ortho-lora",
        description="Multi-task low-rank adapter training lab with conflict-aware projection",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="validate a config file")
    p_validate.add_argument("config", help="path to a JSON experiment config")

    p_run = sub.add_parser("run", help="run the configured modes and write metric CSVs")
    p_run.add_argument("config", help="path to a JSON experiment config")
    p_run.add_argument("--out", help="run directory (overrides config and environment)")

    p_sweep = sub.add_parser("sweep-rank", help="sweep adapter rank for JOINT vs structured projection")
    p_sweep.add_argument("config", help="path to a JSON experiment config")
    p_sweep.add_argument("--ranks", nargs="+", type=int, required=True, help="ranks to sweep")
    p_sweep.add_argument("--seeds", type=int, default=5, help="seeds per rank (default 5)")
    p_sweep.add_argument("--out", help="run directory (overrides config and environment)")

    p_sum = sub.add_parser("summarize", help="recompute the summary table from a run directory")
    p_sum.add_argument("dir", help="run directory containing per-mode CSVs")

    return parser


def resolve_run_dir(config: ExperimentConfig, config_path: str, override: str | None) -> Path:
    """The run directory; a ConfigError names it, or the file on its path,
    when a file stands where a directory must."""
    if override:
        run_dir = Path(override)
    elif config.output_dir:
        run_dir = Path(config.output_dir)
    else:
        run_dir = Path(os.environ.get(ENV_OUT) or "ortho_lora_runs") / Path(config_path).stem
    existing = next((p for p in (run_dir, *run_dir.parents) if p.exists()), None)
    if existing is not None and not existing.is_dir():
        raise ConfigError(f"{existing}: a file, not a directory; choose another run directory")
    return run_dir


def _task_set(config: ExperimentConfig, config_path: str) -> SyntheticTaskSet:
    """config's task set, or a ConfigError naming the file and the field of an
    array too large for numpy to size, or the task and the label pool that
    no draw filled."""
    try:
        check_array_sizes(config)
        return build_task_set(config)
    except ConfigError as exc:
        raise ConfigError(f"{config_path}: {exc}") from None


def _cmd_validate(args) -> int:
    _task_set(load_config(args.config), args.config)
    print(f"{args.config}: ok")
    return 0


def _adapter_file(mode: str, idx: int, layer: int) -> str:
    """The name of model idx's layer dump, task-prefixed in SINGLE_TASK."""
    return f"{f'task{idx}_' if mode == SINGLE_TASK else ''}adapter_L{layer}.json"


def _cmd_run(args) -> int:
    config = load_config(args.config)
    run_dir = resolve_run_dir(config, args.config, args.out)
    stale = [child for child in mode_dirs(run_dir) if child.name not in config.modes]
    if stale:
        raise ConfigError(f"{stale[0]}: a mode directory of another run, and this config runs "
                          f"only {', '.join(config.modes)}; choose another run directory")
    if (run_dir / RANK_FILE).is_file():
        raise ConfigError(f"{run_dir / RANK_FILE}: a sweep-rank table; choose another run directory")
    for mode_dir in mode_dirs(run_dir):
        written = {_adapter_file(mode_dir.name, idx, li)
                   for idx in range(run_count(config, mode_dir.name))
                   for li in range(len(config.model.layer_dims) - 1)}
        other = [p for p in sorted(mode_dir.glob("*adapter_L*.json")) if p.name not in written]
        if other:
            raise ConfigError(f"{other[0]}: an adapter dump of another run, which this config "
                              "would not overwrite; choose another run directory")
    result = run_experiment(config, _task_set(config, args.config))
    run_dir.mkdir(parents=True, exist_ok=True)  # after training: a failed run leaves no directory
    save_config(config, run_dir / CONFIG_FILE)
    for mode, log in result.logs.items():
        mode_dir = run_dir / mode
        write_metrics(log, mode_dir)
        for idx, model in enumerate(result.models[mode]):
            for li, layer in enumerate(model.layers):
                save_adapter(layer.adapter, mode_dir / _adapter_file(mode, idx, li))
    print(f"wrote metrics for {len(result.logs)} mode(s) under {run_dir}")
    print(format_summary(build_summary(result.logs)))
    return 0


def _cmd_sweep_rank(args) -> int:
    config = load_config(args.config)
    sweep_configs(config, args.ranks, args.seeds)  # the sweep's inputs, before anything is written
    task_sets = [_task_set(config.with_updates(seed=seed), args.config)  # one per seed, for every rank
                 for seed in range(config.seed, config.seed + args.seeds)]
    run_dir = resolve_run_dir(config, args.config, args.out)
    modes = mode_dirs(run_dir)
    if modes:
        raise ConfigError(f"{modes[0]}: a mode directory of a run; choose another sweep directory")
    rows = rank_sweep(config, args.ranks, task_sets)
    run_dir.mkdir(parents=True, exist_ok=True)  # after training: a failed sweep leaves no directory
    write_rank_rows(rows, run_dir / RANK_FILE)
    save_config(config, run_dir / CONFIG_FILE)  # written last: they describe the table
    save_sweep(SweepRecord(sorted(args.ranks), args.seeds), run_dir / SWEEP_FILE)
    print(f"wrote {run_dir / RANK_FILE}")
    print(format_summary(SummaryTable(rank_rows=rows)))
    return 0


def _cmd_summarize(args) -> int:
    table = summarize_dir(args.dir)
    print(format_summary(table))
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "run": _cmd_run,
    "sweep-rank": _cmd_sweep_rank,
    "summarize": _cmd_summarize,
}


def run_cli(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits on usage errors and --help
        code = exc.code if isinstance(exc.code, int) else 2
        return 0 if code == 0 else 2
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OrthoLoraError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
