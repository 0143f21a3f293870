"""Command-line entry point: run / oracle / compare subcommands."""

from __future__ import annotations

import argparse
import csv
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from .deployment import grid_index_to_position
from .geometry import ConfigurationError
from .oracle import exhaustive_search, export_qos_csv
from .scenario import (BASELINE_AERIAL, BASELINE_GROUND, build_config,
                       build_network, default_out_dir, disable_site,
                       emit_outputs, per_user_mean_sinr_db, run_scenario)

ORACLE_STATE_LIMIT = 200_000


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="YAML config file")
    p.add_argument("--seed", type=int, help="random seed (overrides config)")
    p.add_argument("--out-dir", help=f"output directory (default: $AERIALSIM_OUT_DIR or ./out)")
    p.add_argument("--preset", choices=["paper", "desk"], default="desk")


def _config_from_args(args, extra=None):
    overrides = dict(extra or {})
    if args.seed is not None:
        overrides["seed"] = args.seed
    return build_config(preset=args.preset, config_file=args.config,
                        overrides=overrides)


def cmd_run(args) -> int:
    cfg = _config_from_args(args)
    out = Path(args.out_dir) if args.out_dir else default_out_dir()
    t0 = time.perf_counter()
    run = run_scenario(cfg)
    paths = emit_outputs(run.records, run.reward_traces, out, config=cfg)
    elapsed = time.perf_counter() - t0
    print(f"wrote {len(paths)} files to {out} "
          f"({len(run.records)} slots, {elapsed:.1f}s)", file=sys.stderr)
    return 0


def cmd_oracle(args) -> int:
    cfg = _config_from_args(args)
    grid = cfg.placement_grid()
    if grid.n_states > ORACLE_STATE_LIMIT and not args.force:
        raise ConfigurationError(
            f"grid has {grid.n_states} states (> {ORACLE_STATE_LIMIT}); "
            "pass --force to enumerate anyway")
    # Snapshot at t_st with the configured BS disabled and no aerial yet.
    net, _, _ = build_network(cfg)
    snapshot = replace(net, ground_bs=disable_site(net.ground_bs, cfg))
    t0 = time.perf_counter()
    best, qos = exhaustive_search(snapshot, grid)
    out = Path(args.out_dir) if args.out_dir else default_out_dir()
    out.mkdir(parents=True, exist_ok=True)
    export_qos_csv(qos, grid, out / "oracle_qos.csv")
    p = grid_index_to_position(grid, best)
    print(f"best state {best} at ({p.x:.1f}, {p.y:.1f}, {p.h:.1f}) "
          f"qos={qos[best]:.4f} ({time.perf_counter() - t0:.1f}s)",
          file=sys.stderr)
    return 0


def _compare_one(payload):
    seed, preset, config_file = payload
    base = build_config(preset=preset, config_file=config_file,
                        overrides={"seed": seed, "baseline_mode": BASELINE_GROUND})
    if not base.n_users:  # the median SINRs below need a user
        raise ConfigurationError("compare needs at least one user, got n_users 0")
    aerial = replace(base, baseline_mode=BASELINE_AERIAL)
    rb = run_scenario(base)
    ra = run_scenario(aerial)
    lag = [k for k, r in enumerate(rb.records) if r.qos < r.qos_th]
    wins = sum(1 for k in lag if ra.records[k].qos >= rb.records[k].qos)
    return {
        "seed": seed,
        "qos_base_mean": float(np.mean([r.qos for r in rb.records])),
        "qos_aerial_mean": float(np.mean([r.qos for r in ra.records])),
        "lagging_slots": len(lag),
        "aerial_wins_at_lagging": wins,
        "median_sinr_base_db": float(np.median(per_user_mean_sinr_db(rb.records))),
        "median_sinr_aerial_db": float(np.median(per_user_mean_sinr_db(ra.records))),
    }


def cmd_compare(args) -> int:
    for flag, n in (("--n-seeds", args.n_seeds), ("--jobs", args.jobs)):
        if n < 1:
            raise ConfigurationError(f"{flag} must be at least 1, got {n}")
    payloads = [((args.seed or 0) + k, args.preset, args.config) for k in range(args.n_seeds)]
    jobs = min(args.jobs, len(payloads))  # a pool may start all its workers at once
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as ex:
            rows = list(ex.map(_compare_one, payloads))
    else:
        rows = [_compare_one(p) for p in payloads]
    out = Path(args.out_dir) if args.out_dir else default_out_dir()
    out.mkdir(parents=True, exist_ok=True)
    path = out / "compare.csv"
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.DictWriter(f, fieldnames=list(rows[0].keys()), lineterminator="\n")
        w.writeheader()
        w.writerows(rows)
    gains = sum(1 for r in rows
                if r["lagging_slots"] == 0
                or r["aerial_wins_at_lagging"] / r["lagging_slots"] >= 0.5)
    print(f"wrote {path}; aerial helps at lagging slots in {gains}/{len(rows)} seeds",
          file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="aerialsim",
        description="Downlink cellular simulator with Q-learning aerial-BS placement")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario and write metrics")
    _add_common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_oracle = sub.add_parser("oracle",
                              help="exhaustive QoS map for a t_st snapshot")
    _add_common(p_oracle)
    p_oracle.add_argument("--force", action="store_true",
                          help="allow very large grids")
    p_oracle.set_defaults(func=cmd_oracle)

    p_cmp = sub.add_parser("compare",
                           help="paired ground-only vs aerial-assisted seeds")
    _add_common(p_cmp)
    p_cmp.add_argument("--n-seeds", type=int, default=20)
    p_cmp.add_argument("--jobs", type=int, default=1)
    p_cmp.set_defaults(func=cmd_compare)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:  # e.g. numpy cannot allocate a table the config asks for
        print("error: out of memory" + (f": {e}" if str(e) else ""), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
