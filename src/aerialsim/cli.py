"""Command-line entry point: run / oracle / compare subcommands."""

from __future__ import annotations

import argparse
import csv
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

from .deployment import grid_index_to_position
from .geometry import ConfigurationError
from .oracle import exhaustive_search, export_qos_csv
from .scenario import (PRESETS, aerial_helps, build_config, build_network,
                       check_compare_config, compare_seed, disable_site, emit_outputs,
                       run_scenario)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # main's one error: line, not usage and exit 2
        raise ConfigurationError(message)


def _config_from_args(args):
    overrides = {} if args.seed is None else {"seed": args.seed}
    return build_config(preset=args.preset, config_file=args.config,
                        overrides=overrides)


def cmd_run(args) -> int:
    cfg = _config_from_args(args)
    t0 = time.perf_counter()
    run = run_scenario(cfg)
    paths = emit_outputs(run.records, run.reward_traces, args.out_dir, config=cfg)
    elapsed = time.perf_counter() - t0
    print(f"wrote {len(paths)} files to {args.out_dir} "
          f"({len(run.records)} slots, {elapsed:.1f}s)", file=sys.stderr)
    return 0


def cmd_oracle(args) -> int:
    cfg = _config_from_args(args)
    grid = cfg.placement_grid()
    # Snapshot at t_st with the configured BS disabled and no aerial yet.
    snapshot = disable_site(build_network(cfg)[0], cfg)
    t0 = time.perf_counter()
    best, qos = exhaustive_search(snapshot, grid)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    export_qos_csv(qos, grid, args.out_dir / "oracle_qos.csv")
    p = grid_index_to_position(grid, best)
    print(f"best state {best} at ({p.x:.1f}, {p.y:.1f}, {p.h:.1f}) "
          f"qos={qos[best]:.4f} ({time.perf_counter() - t0:.1f}s)",
          file=sys.stderr)
    return 0


def cmd_compare(args) -> int:
    for flag, n in (("--n-seeds", args.n_seeds), ("--jobs", args.jobs)):
        if n < 1:
            raise ConfigurationError(f"{flag} must be at least 1, got {n}")
    cfg = _config_from_args(args)
    check_compare_config(cfg)  # in this process, before any worker starts
    cfgs = [replace(cfg, seed=cfg.seed + k) for k in range(args.n_seeds)]
    jobs = min(args.jobs, len(cfgs))  # a pool may start all its workers at once
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as ex:
            rows = list(ex.map(compare_seed, cfgs))
    else:
        rows = list(map(compare_seed, cfgs))
    args.out_dir.mkdir(parents=True, exist_ok=True)
    path = args.out_dir / "compare.csv"
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.DictWriter(f, fieldnames=list(rows[0].keys()), lineterminator="\n")
        w.writeheader()
        w.writerows(rows)
    gains = sum(map(aerial_helps, rows))
    print(f"wrote {path}; aerial helps at lagging slots in {gains}/{len(rows)} seeds",
          file=sys.stderr)
    return 0


def main(argv=None) -> int:
    common = argparse.ArgumentParser(add_help=False)  # every command's options
    common.add_argument("--config", help="YAML config file")
    common.add_argument("--seed", type=int, help="random seed (overrides config)")
    common.add_argument("--out-dir", type=Path, default=Path("out"),
                        help="output directory (default: ./out)")
    common.add_argument("--preset", choices=list(PRESETS), default="desk")
    parser = _Parser(
        prog="aerialsim",
        description="Downlink cellular simulator with Q-learning aerial-BS placement")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("run", parents=[common], help="run one scenario and write metrics"
                   ).set_defaults(func=cmd_run)
    sub.add_parser("oracle", parents=[common], help="exhaustive QoS map for a t_st snapshot"
                   ).set_defaults(func=cmd_oracle)
    p_cmp = sub.add_parser("compare", parents=[common],
                           help="paired ground-only vs aerial-assisted seeds")
    p_cmp.add_argument("--n-seeds", type=int, default=20)
    p_cmp.add_argument("--jobs", type=int, default=1)
    p_cmp.set_defaults(func=cmd_compare)

    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (OSError, ValueError) as e:  # a ConfigurationError is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:  # e.g. numpy cannot allocate a table the config asks for
        print("error: out of memory" + (f": {e}" if str(e) else ""), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
