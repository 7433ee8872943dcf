"""Command-line entry point.

Subcommands:

* ``validate <config>``            - check a config file, write nothing
* ``run <config> [--out DIR]``     - run all configured modes, write CSVs
* ``sweep-rank <config> --ranks R...`` - JOINT vs structured-projection sweep
* ``summarize <dir>``              - recompute the summary from written CSVs

Exit codes: 0 success, 1 runtime failure, 2 usage or validation error.
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
from .config import SINGLE_TASK, ExperimentConfig, load_config, save_config
from .errors import ConfigError, OrthoLoraError
from .reporting import (
    RANK_FILE,
    build_summary,
    format_summary,
    rank_sweep,
    summarize_dir,
    write_metrics,
    write_rank_rows,
)
from .trainer import run_experiment

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
    if override:
        return Path(override)
    if config.output_dir:
        return Path(config.output_dir)
    root = os.environ.get(ENV_OUT) or "ortho_lora_runs"
    return Path(root) / Path(config_path).stem


def _cmd_validate(args) -> int:
    load_config(args.config)
    print(f"{args.config}: ok")
    return 0


def _cmd_run(args) -> int:
    config = load_config(args.config)
    run_dir = resolve_run_dir(config, args.config, args.out)
    run_dir.mkdir(parents=True, exist_ok=True)
    save_config(config, run_dir / "config.json")

    result = run_experiment(config)
    for mode, log in result.logs.items():
        mode_dir = run_dir / mode
        write_metrics(log, mode_dir)
        for idx, model in enumerate(result.models[mode]):
            prefix = f"task{idx}_" if mode == SINGLE_TASK else ""
            for li, layer in enumerate(model.layers):
                save_adapter(layer.adapter, mode_dir / f"{prefix}adapter_L{li}.json")
    print(f"wrote metrics for {len(result.logs)} mode(s) under {run_dir}")
    print(format_summary(build_summary(result.logs)))
    return 0


def _cmd_sweep_rank(args) -> int:
    config = load_config(args.config)
    run_dir = resolve_run_dir(config, args.config, args.out)
    run_dir.mkdir(parents=True, exist_ok=True)
    rows = rank_sweep(config, args.ranks, num_seeds=args.seeds)
    write_rank_rows(rows, run_dir / RANK_FILE)
    print(f"wrote {run_dir / RANK_FILE}")
    print("rank  joint         ortho         delta")
    for r in rows:
        print(f"{r.rank:<5d} {r.joint:<13.6g} {r.ortho:<13.6g} {r.delta:+.6g}")
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
    except (OrthoLoraError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
