import csv
import dataclasses
import io
import math
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr
from dataclasses import replace
from datetime import timedelta
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import aerialsim
from aerialsim import cli, scenario
from aerialsim.cli import main
from aerialsim.geometry import ConfigurationError
from aerialsim.radio import qos_map
from aerialsim.scenario import (ScenarioConfig, build_config, build_network,
                                disable_site)

# hex_layout's one ring rule: the error line of every n_rings outside 0-2.
RING_RULE = "n_rings must be 0, 1 or 2: no square area holds a third ring"


@pytest.fixture
def fast_config(tmp_path):
    p = tmp_path / "cfg.yaml"
    p.write_text(
        "n_users: 25\n"
        "sim_duration: 40.0\n"
        "learning:\n"
        "  max_episodes: 100\n"
        "  max_steps: 15\n"
    )
    return p


def test_run_subcommand(tmp_path, fast_config):
    out = tmp_path / "out"
    rc = main(["run", "--preset", "desk", "--config", str(fast_config),
               "--seed", "1", "--out-dir", str(out)])
    assert rc == 0
    for name in ("timeslots.csv", "sinr_cdf.csv", "reward_trace.csv",
                 "summary.yaml"):
        assert (out / name).exists()


def test_oracle_subcommand(tmp_path, fast_config):
    out = tmp_path / "out"
    rc = main(["oracle", "--preset", "desk", "--config", str(fast_config),
               "--seed", "2", "--out-dir", str(out)])
    assert rc == 0
    with open(out / "oracle_qos.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["state", "x", "y", "h", "qos"]
    assert len(rows) == 1 + 5 * 5 * 3


@pytest.mark.parametrize("seed", [0, 5])
def test_oracle_qos_is_the_map_of_the_built_network(tmp_path, seed):
    rc = main(["oracle", "--preset", "desk", "--seed", str(seed),
               "--out-dir", str(tmp_path)])
    assert rc == 0
    with open(tmp_path / "oracle_qos.csv", newline="") as f:
        qos = [float(row[4]) for row in list(csv.reader(f))[1:]]
    cfg = build_config(preset="desk", overrides={"seed": seed})
    net, _, _ = build_network(cfg)
    snapshot = disable_site(net, cfg)
    assert qos == qos_map(snapshot, cfg.placement_grid()).tolist()


def test_oracle_grid_guard(tmp_path, capsys):
    cfg = tmp_path / "big.yaml"
    cfg.write_text("grid:\n  n_x: 100\n  n_y: 100\n  n_h: 100\n")
    rc = main(["oracle", "--preset", "desk", "--config", str(cfg),
               "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: grid has 1000000 states; at most 200000 are allowed"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["run", "oracle", "compare"])
def test_grid_state_limit_holds_for_every_command(tmp_path, capsys, monkeypatch, command):
    # The desk grid has 75 states: over a limit of 74 for every command.
    monkeypatch.setattr(scenario, "MAX_GRID_STATES", 74)
    out = tmp_path / "o"
    assert main([command, "--preset", "desk", "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err.strip().splitlines() == [
        "error: grid has 75 states; at most 74 are allowed"]
    assert not out.exists()


def test_compare_subcommand(tmp_path, fast_config):
    out = tmp_path / "out"
    rc = main(["compare", "--preset", "desk", "--config", str(fast_config),
               "--seed", "0", "--n-seeds", "2", "--out-dir", str(out)])
    assert rc == 0
    with open(out / "compare.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 2
    assert {"seed", "qos_base_mean", "qos_aerial_mean"} <= set(rows[0])


def test_compare_rejects_zero_seeds(tmp_path, capsys):
    rc = main(["compare", "--preset", "desk", "--n-seeds", "0",
               "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not (tmp_path / "o" / "compare.csv").exists()


def test_compare_rejects_no_users(tmp_path, capsys):
    # The median SINR over no users was a "Mean of empty slice" warning and nan.
    cfg = tmp_path / "empty.yaml"
    cfg.write_text("n_users: 0\nsim_duration: 20.0\n")
    rc = main(["compare", "--preset", "desk", "--config", str(cfg), "--n-seeds", "1",
               "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: compare needs at least one user, got n_users 0"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_compare_rejects_fewer_than_one_job(tmp_path, capsys, jobs):
    rc = main(["compare", "--preset", "desk", "--n-seeds", "1", "--jobs", jobs,
               "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: --jobs must be at least 1, got {jobs}"]
    assert not (tmp_path / "o").exists()


@pytest.fixture
def serial_pool(monkeypatch):
    """Runs compare's pool map in this process; gives each pool's max_workers."""
    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, payloads):
            return map(fn, payloads)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
    return started


@pytest.mark.parametrize("line, message", [
    # The learned table lives for one run; no config key names a file for it.
    ("qtable_path: {tmp_path}/q.npz", "unknown config keys: ['qtable_path']"),
    # The config builds the ground layout, so its faults end compare before
    # the pool starts.
    ("n_rings: 3", RING_RULE),
    ("antenna_height: 0.0", "antenna height must be positive and at most 1e+06 m"),
], ids=["qtable_path", "n_rings", "antenna_height"])
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_compare_rejects_a_bad_config_before_any_pool(tmp_path, capsys, serial_pool,
                                                       jobs, line, message):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(line.format(tmp_path=tmp_path) + "\n")
    rc = main(["compare", "--preset", "desk", "--config", str(cfg), "--n-seeds", "2",
               "--jobs", jobs, "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert serial_pool == []
    assert not (tmp_path / "o").exists()
    assert not (tmp_path / "q.npz").exists()


@pytest.mark.parametrize("jobs, n_seeds, workers", [("64", "2", 2), ("2", "3", 2),
                                                    ("8", "1", None)])
def test_compare_starts_no_more_workers_than_seeds(tmp_path, fast_config, serial_pool,
                                                   jobs, n_seeds, workers):
    out = tmp_path / "out"
    rc = main(["compare", "--preset", "desk", "--config", str(fast_config),
               "--n-seeds", n_seeds, "--jobs", jobs, "--out-dir", str(out)])
    assert rc == 0
    assert serial_pool == ([workers] if workers else [])
    with open(out / "compare.csv", newline="") as f:
        assert len(list(csv.DictReader(f))) == int(n_seeds)


@pytest.mark.parametrize("seed_args, first_seed", [([], 99), (["--seed", "5"], 5)])
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_compare_maps_compare_seed_over_one_config(tmp_path, fast_config, serial_pool,
                                                   monkeypatch, capsys, seed_args,
                                                   first_seed, jobs):
    with open(fast_config, "a") as f:
        f.write("seed: 99\n")  # the first seed, unless --seed overrides it
    built, mapped = [], []

    def counted_build_config(**kwargs):
        built.append(build_config(**kwargs))
        return built[-1]

    def fake_compare_seed(cfg):
        mapped.append(cfg)
        return {"seed": cfg.seed, "lagging_slots": 2,
                "aerial_wins_at_lagging": cfg.seed % 2}

    monkeypatch.setattr(cli, "build_config", counted_build_config)
    monkeypatch.setattr(cli, "compare_seed", fake_compare_seed)
    rc = main(["compare", "--preset", "desk", "--config", str(fast_config),
               "--n-seeds", "3", "--jobs", jobs, "--out-dir", str(tmp_path), *seed_args])
    assert rc == 0
    assert len(built) == 1
    seeds = range(first_seed, first_seed + 3)
    assert mapped == [replace(built[0], seed=s) for s in seeds]
    assert serial_pool == ([2] if jobs == "2" else [])
    with open(tmp_path / "compare.csv", newline="") as f:
        assert [int(r["seed"]) for r in csv.DictReader(f)] == list(seeds)
    helped = sum(s % 2 for s in seeds)
    assert capsys.readouterr().err.endswith(
        f"aerial helps at lagging slots in {helped}/3 seeds\n")


@pytest.mark.parametrize("command", ["run", "oracle", "run-ground"])
def test_invalid_disabled_bs_exits_nonzero(tmp_path, capsys, command):
    # A ground-only run never turns a site off, but the id is still checked.
    cfg = tmp_path / "off.yaml"
    cfg.write_text("disabled_bs: 99\nsim_duration: 20.0\n"
                   + ("baseline_mode: ground19\n" if command == "run-ground" else ""))
    rc = main([command.removesuffix("-ground"), "--preset", "desk", "--config", str(cfg),
               "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: disabled_bs 99 is not a ground BS id"]
    assert not (tmp_path / "o").exists()


def test_bad_config_exits_nonzero(tmp_path):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("bogus_key: 1\n")
    rc = main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
    assert rc == 1


@pytest.mark.parametrize("line, keys", [("1: 2", "['1']"), ("true: 1", "['True']"),
                                        ("learning: {1: 2}", "['learning.1']")])
def test_non_string_config_key_exits_nonzero(tmp_path, capsys, line, keys):
    # The key used to end in a TypeError traceback from joining it to a prefix.
    cfg = tmp_path / "keys.yaml"
    cfg.write_text(line + "\n")
    rc = main(["run", "--preset", "desk", "--config", str(cfg),
               "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [f"error: unknown config keys: {keys}"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("text, key, line, column", [
    ("seed: 3\nsim_duration: 20.0\nseed: 4\n", "seed", 3, 1),
    ("learning:\n  max_steps: 3\n  max_steps: 4\n", "max_steps", 3, 3),
])
def test_repeated_config_key_exits_nonzero(tmp_path, capsys, text, key, line, column):
    # The last value used to win silently.
    cfg = tmp_path / "twice.yaml"
    cfg.write_text(text)
    rc = main(["run", "--preset", "desk", "--config", str(cfg),
               "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: config file {cfg} is not valid YAML: found duplicate key {key!r} "
        f'in "{cfg}", line {line}, column {column}']
    assert not (tmp_path / "o").exists()


def test_merged_config_key_may_be_set_again(tmp_path):
    cfg = tmp_path / "merge.yaml"
    cfg.write_text("grid:\n  <<: {n_x: 3, n_y: 3, n_h: 2}\n  n_x: 4\n")
    assert build_config(config_file=cfg).grid == scenario.GridSpec(4, 3, 2)


@pytest.mark.parametrize("args, message", [
    (["run", "--seed", "abc"], "argument --seed: invalid int value: 'abc'"),
    (["run", "--preset", "bogus"],
     "argument --preset: invalid choice: 'bogus' (choose from 'paper', 'desk')"),
    (["run", "--bogus"], "unrecognized arguments: --bogus"),
    (["bogus"], "argument command: invalid choice: 'bogus' "
                "(choose from 'run', 'oracle', 'compare')"),
])
def test_bad_argument_exits_nonzero(tmp_path, capsys, args, message):
    # argparse used to print its usage lines and exit 2.
    assert main([*args, "--out-dir", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not (tmp_path / "o").exists()


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as e:
        main(["run", "--help"])
    assert e.value.code == 0
    assert capsys.readouterr().out.startswith("usage: aerialsim run ")


@pytest.mark.parametrize("command,written", [("run", "timeslots.csv"),
                                             ("oracle", "oracle_qos.csv")])
def test_out_dir_defaults_to_out(tmp_path, fast_config, monkeypatch, command, written):
    monkeypatch.chdir(tmp_path)
    rc = main([command, "--preset", "desk", "--config", str(fast_config), "--seed", "3"])
    assert rc == 0
    assert (tmp_path / "out" / written).exists()


def test_qtable_path_is_an_unknown_key_before_any_slot(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(scenario, "step", None)  # any slot would fail
    cfg = tmp_path / "q.yaml"
    cfg.write_text(f"sim_duration: 20.0\nqtable_path: {tmp_path / 'nodir' / 'q.npz'}\n")
    rc = main(["run", "--preset", "desk", "--config", str(cfg),
               "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: unknown config keys: ['qtable_path']"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("line", ["sim_duration: 1e3", "learning: 5"])
def test_mistyped_config_value_exits_nonzero(tmp_path, capsys, line):
    # PyYAML reads 1e3 (no decimal point) as a string.
    cfg = tmp_path / "typed.yaml"
    cfg.write_text(line + "\n")
    rc = main(["run", "--preset", "desk", "--config", str(cfg),
               "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: config key ")


@pytest.mark.parametrize("mode", ["ground19", "aerial18plus1"])
def test_run_without_users(tmp_path, mode):
    # Warnings fail the tests, so this also checks that an empty slot raises none.
    cfg = tmp_path / "empty.yaml"
    cfg.write_text(f"n_users: 0\nsim_duration: 30.0\nbaseline_mode: {mode}\n")
    rc = main(["run", "--preset", "desk", "--config", str(cfg),
               "--out-dir", str(tmp_path / "o")])
    assert rc == 0
    with open(tmp_path / "o" / "timeslots.csv", newline="") as f:
        assert [float(r["qos"]) for r in csv.DictReader(f)] == [0.0] * 4


def test_epsilon_floor_above_one_exits_nonzero(tmp_path, capsys):
    cfg = tmp_path / "floor.yaml"
    cfg.write_text("learning: {epsilon_floor: 3.0}\n")
    rc = main(["run", "--preset", "desk", "--config", str(cfg),
               "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: epsilon_floor must be in [0, 1]"]


@pytest.mark.parametrize("line, message", [
    ("learning: {gamma: 1.0}", "gamma must be in [0, 1)"),
    ("learning: {epsilon: 1.5}", "epsilon must be in [0, 1]"),
])
def test_gamma_or_epsilon_out_of_range_exits_nonzero(tmp_path, capsys, line, message):
    cfg = tmp_path / "learning.yaml"
    cfg.write_text(line + "\n")
    rc = main(["run", "--preset", "desk", "--config", str(cfg),
               "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err.strip().splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("preset, seed, config", [
    ("desk", 7, {}),
    ("paper", 0, {"sim_duration": 20.0, "learning": {"max_episodes": 20}}),
    ("desk", 3, {"sim_duration": 30.0, "baseline_mode": "ground19", "disabled_bs": 3,
                 "learning": {"gamma": 0.5, "epsilon": 0.25}}),
])
def test_summary_config_reads_back_as_the_run_config(tmp_path, monkeypatch, preset,
                                                    seed, config):
    monkeypatch.chdir(tmp_path)
    Path("cfg.yaml").write_text(yaml.safe_dump(config))
    want = build_config(preset=preset, config_file="cfg.yaml", overrides={"seed": seed})
    assert main(["run", "--preset", preset, "--config", "cfg.yaml",
                 "--seed", str(seed), "--out-dir", "o"]) == 0
    summary = yaml.safe_load(Path("o/summary.yaml").read_text())
    assert {"gamma", "epsilon"} <= set(summary["config"]["learning"])
    assert build_config(overrides=summary["config"]) == want


@pytest.mark.parametrize("line, message", [
    ("sim_duration: .inf", "config key sim_duration must be finite, got inf"),
    ("h_max: .inf", "config key h_max must be finite, got inf"),
    ("aerial_tx_power: .nan", "config key aerial_tx_power must be finite, got nan"),
    ("t_min: .nan", "config key t_min must be finite, got nan"),
    ("radio: {noise_power: -.inf}", "config key radio.noise_power must be finite, got -inf"),
    ("radio: {ground_pathloss_exponent: -3.5}",
     "ground path-loss exponent must be positive"),
])
def test_non_finite_or_bad_radio_config_exits_nonzero(tmp_path, capsys, line, message):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(line + "\n")
    rc = main(["run", "--preset", "desk", "--config", str(cfg),
               "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err.strip().splitlines() == [f"error: {message}"]
    assert not (tmp_path / "o").exists()


def test_zero_sinr_everywhere_exits_nonzero(tmp_path, capsys):
    # Every received power underflows to 0 mW, so every user's SINR is 0.
    cfg = tmp_path / "dark.yaml"
    cfg.write_text("baseline_mode: ground19\nsim_duration: 20.0\n"
                   "radio: {ground_pathloss_exponent: 300.0}\n")
    rc = main(["run", "--preset", "desk", "--config", str(cfg),
               "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: 100 of 100 users have a time-averaged SINR of -inf dB; "
                   "the SINR CDF needs finite values"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("line", [
    # Reward trace: 10**15 episodes x 30 steps of float64, 240 PB.
    "learning: {max_episodes: 1000000000000000}",
])
def test_unallocatable_table_exits_nonzero(tmp_path, capsys, line):
    # The size exceeds a 57-bit address space (128 PiB), so the allocation
    # fails on any host, whatever its overcommit policy.
    cfg = tmp_path / "huge.yaml"
    cfg.write_text(line + "\n")
    rc = main(["run", "--preset", "desk", "--config", str(cfg),
               "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: out of memory: ")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key", ["aerial_tx_power", "ground_tx_power"])
def test_overflowing_tx_power_exits_nonzero(tmp_path, capsys, key):
    # 10 ** (1e300 / 10) mW overflows to inf.
    cfg = tmp_path / "loud.yaml"
    cfg.write_text(f"{key}: 1.0e+300\n")
    rc = main(["run", "--preset", "desk", "--config", str(cfg),
               "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err.strip().splitlines() == [
        f"error: {key} 1e+300 dBm is not a finite power in mW"]
    assert not (tmp_path / "o").exists()


def run_cli(args, timeout=60):
    """Run aerialsim's CLI in a fresh interpreter: (exit code, stderr lines).

    Unlike main() in process, this shows what a user sees on stderr,
    warnings included, and the timeout turns a hang into a failure.
    """
    src = Path(aerialsim.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-m", "aerialsim.cli", *map(str, args)],
                          cwd=src, capture_output=True, text=True, timeout=timeout)
    return proc.returncode, proc.stderr.strip().splitlines()


def dispatched_cpu_features():
    """The SIMD features numpy dispatches to on this host: the found list of
    np.show_runtime()."""
    umath = pytest.importorskip("numpy._core._multiarray_umath")
    return [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]


@pytest.mark.parametrize("seed", [3, 7])
def test_a_run_holds_without_the_dispatched_simd_features(tmp_path, seed):
    # NPY_DISABLE_CPU_FEATURES acts only in the child interpreter. Without
    # those code paths a float may round differently in its last place, so
    # the bytes may differ, but the triggers and the aerial positions stay
    # and the QoS values stay within 1e-12 relative.
    found = dispatched_cpu_features()
    if not found:
        pytest.skip("numpy dispatches to no SIMD feature on this host")
    src = Path(aerialsim.__file__).resolve().parent.parent

    def timeslots(name, env):
        out = tmp_path / name
        subprocess.run([sys.executable, "-m", "aerialsim.cli", "run", "--preset", "desk",
                        "--seed", str(seed), "--out-dir", str(out)],
                       cwd=src, env=env, check=True, capture_output=True, timeout=120)
        with open(out / "timeslots.csv", newline="", encoding="utf-8") as f:
            return list(csv.DictReader(f))

    usual = timeslots("usual", dict(os.environ))
    plain = timeslots("plain", {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(found)})
    placed = ("t", "triggered", "aerial_x", "aerial_y", "aerial_h")
    assert [[r[k] for k in placed] for r in plain] == [[r[k] for k in placed] for r in usual]
    for key in ("qos", "qos_th"):
        assert [float(r[key]) for r in plain] == pytest.approx(
            [float(r[key]) for r in usual], rel=1e-12, abs=0)


@pytest.mark.parametrize("config, message", [
    # 1e300 mW over about 4e-11 mW of noise.
    ("aerial_tx_power: 3000.0",
     "aerial_tx_power 3000.0 dBm over the noise power overflows the SINR"),
    ("ground_tx_power: 3000.0",
     "ground_tx_power 3000.0 dBm over the noise power overflows the SINR"),
    # 1e20 mW: finite over the noise, but noise + total would round to total.
    ("aerial_tx_power: 200.0",
     "transmit powers reach 236.6 dB over the noise power; a finite SINR "
     "needs less than 156.5 dB"),
    # 10 ** -400 mW underflows to 0.
    ("{n_rings: 0, baseline_mode: ground19, radio: {noise_power: -4000.0}}",
     "radio.noise_power -4000.0 dBm is not a positive finite power in mW"),
    ("radio: {noise_power: 4000.0}",
     "radio.noise_power 4000.0 dBm is not a positive finite power in mW"),
])
def test_overflowing_sinr_exits_nonzero(tmp_path, config, message):
    cfg = tmp_path / "sinr.yaml"
    cfg.write_text(config + "\n")
    rc, err = run_cli(["run", "--preset", "desk", "--config", cfg,
                       "--out-dir", tmp_path / "o"])
    assert (rc, err) == (1, [f"error: {message}"])
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("c_max", ["1.0e+9", "1.0e+300"])
def test_user_faster_than_the_area_exits_nonzero(tmp_path, c_max):
    # One mirror brings a user back inside only if a stretch of the walk,
    # at most min(t_min, hold_time) long, stays within one area width.
    cfg = tmp_path / "fast.yaml"
    cfg.write_text(f"mobility: {{c_max: {c_max}}}\n")
    rc, err = run_cli(["run", "--preset", "desk", "--config", cfg,
                       "--out-dir", tmp_path / "o"], timeout=30)
    assert rc == 1
    assert len(err) == 1 and err[0].startswith(
        f"error: mobility.c_max * min(t_min, mobility.hold_time) ({float(c_max)!r} m/s "
        "* 10.0 s) exceeds area_side (2000.0 m)")
    assert not (tmp_path / "o").exists()


def test_malformed_yaml_exits_nonzero(tmp_path, capsys):
    cfg = tmp_path / "broken.yaml"
    cfg.write_text("n_rings: 0, baseline_mode: ground19\n")
    rc = main(["run", "--preset", "desk", "--config", str(cfg),
               "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(
        f"error: config file {cfg} is not valid YAML: ")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("config, message", [
    # 3e12 slots; any t_min at or below the time tolerance would also
    # leave the users standing.
    ("t_min: 1.0e-10", "need 1e-09 s < t_min <= sim_duration"),
    ("mobility_dt: 1.0", "unknown config keys: ['mobility_dt']"),
    ("t_min: 1.0e-5", "sim_duration / min(t_min, mobility.hold_time) is 3e+07 mobility "
                      "stretches; at most 10000000 are allowed"),
    ("mobility: {hold_time: 1.0e-5}", "sim_duration / min(t_min, mobility.hold_time) is "
                                      "3e+07 mobility stretches; at most 10000000 are allowed"),
    # Too large for a float, and billions of sites.
    ("n_rings: 1" + "0" * 200, RING_RULE),
    ("n_rings: 100000", RING_RULE),
    ("n_rings: -1", RING_RULE),
    # Ten rings on a 1 nm side: every site lies within 1e-9 m of the area,
    # yet no square area holds a third ring, however small it is.
    ("{area_side: 1.0e-9, n_rings: 10, mobility: {c_max: 0.0}}", RING_RULE),
    # A Q-table of 10**16 states x 6 actions of float64, 480 PB.
    ("grid: {n_x: 1000000, n_y: 1000000, n_h: 10000}",
     "grid has 10000000000000000 states; at most 200000 are allowed"),
    # numpy's SeedSequence message named no key: "expected non-negative integer".
    ("seed: -1", "seed must be >= 0, got -1"),
    # Lengths whose squares overflow: an OverflowError traceback from the
    # antenna height's square, overflow warnings from heights and distances.
    ("antenna_height: 1.0e+300", "antenna height must be positive and at most 1e+06 m"),
    ("h_max: 1.0e+300", "service area must lie within 1e+06 m of 0"),
    ("area_side: 1.0e+160", "service area must lie within 1e+06 m of 0"),
    # The free-space ratio 4*pi*f*d/c overflows (an overflow warning, then a
    # run that exited 0) or underflows to 0 (a divide warning in log10).
    ("radio: {carrier_freq: 1.0e+306}", "carrier frequency 1e+306 Hz must keep 4*pi*f*d/c "
     "a positive finite float for every link distance d from 5e-324 to 3e+06 m"),
    ("radio: {carrier_freq: 5.0e-324}", "carrier frequency 5e-324 Hz must keep 4*pi*f*d/c "
     "a positive finite float for every link distance d from 5e-324 to 3e+06 m"),
    # The aerial overhead at h_min gains about 6000 dB: its power overflows,
    # and the message must not quote inf dB.
    ("h_min: 1.0e-300", "transmit powers over the noise power overflow a float; a finite "
                        "SINR needs less than 156.5 dB"),
])
def test_unbounded_run_exits_nonzero(tmp_path, config, message):
    cfg = tmp_path / "huge.yaml"
    cfg.write_text(config + "\n")
    rc, err = run_cli(["run", "--preset", "desk", "--config", cfg,
                       "--out-dir", tmp_path / "o"], timeout=10)
    assert (rc, err) == (1, [f"error: {message}"])
    assert not (tmp_path / "o").exists()


# Drawn configs: every key is optional, and its valid values are small enough
# that a run takes milliseconds. In half the examples one or two keys get a
# junk value instead; none of them asks for a long run or a large allocation
# that could succeed.
_VALID = {
    "seed": st.integers(0, 2**64),
    "n_users": st.integers(0, 30),
    "n_rings": st.integers(0, 3),
    "area_side": st.floats(1.0, 4000.0),
    "h_min": st.floats(1.0, 100.0),
    "h_max": st.floats(50.0, 600.0),
    "antenna_height": st.floats(0.0, 60.0),
    "ground_tx_power": st.floats(-20.0, 60.0),
    "aerial_tx_power": st.floats(-20.0, 60.0),
    "t_min": st.floats(1.0, 20.0),
    "sim_duration": st.floats(1.0, 60.0),
    "baseline_mode": st.sampled_from(["ground19", "aerial18plus1"]),
    "disabled_bs": st.integers(0, 20),
    "grid": {"n_x": st.integers(1, 4), "n_y": st.integers(1, 4), "n_h": st.integers(1, 4)},
    "env": {"kappa": st.floats(0.1, 20.0), "zeta": st.floats(0.01, 1.0),
            "eta_los": st.floats(0.0, 5.0), "eta_nlos": st.floats(0.0, 40.0)},
    "radio": {"carrier_freq": st.floats(1e8, 1e10), "noise_power": st.floats(-130.0, -60.0),
              "ground_pathloss_exponent": st.floats(1.0, 6.0),
              "ground_ref_loss": st.floats(0.0, 60.0)},
    "mobility": {"c_max": st.floats(0.0, 50.0), "hold_time": st.floats(0.1, 20.0)},
    "learning": {"max_episodes": st.integers(1, 20), "max_steps": st.integers(1, 10),
                 "gamma": st.floats(0.0, 1.0, exclude_max=True),
                 "epsilon": st.floats(0.0, 1.0),
                 "epsilon_decay": st.floats(0.5, 1.0), "epsilon_floor": st.floats(0.0, 1.0)},
}
_JUNK = st.sampled_from([None, True, "x", [], {}, [1.0], -1, 0, 10**30, -0.5, 1e-12,
                         1e300, 1e306, 5e-324, math.nan, math.inf, -math.inf])
# The desk preset's counts, cut down; a drawn section is merged into these.
_CHEAP = {"n_users": 20, "sim_duration": 30.0, "grid": {"n_x": 3, "n_y": 3, "n_h": 2},
          "learning": {"max_episodes": 10, "max_steps": 5}}


def _paths(spec, prefix=()):
    for k, v in spec.items():
        yield from _paths(v, prefix + (k,)) if isinstance(v, dict) else [prefix + (k,)]


def test_every_config_key_is_drawn():
    # A key left out of _VALID is never drawn; one no longer in the config is junk.
    assert sorted(_paths(_VALID)) == sorted(_paths(dataclasses.asdict(ScenarioConfig())))


@st.composite
def config_mappings(draw):
    paths = list(_paths(_VALID))
    chosen = draw(st.lists(st.sampled_from(paths), unique=True, max_size=8))
    junk = draw(st.sets(st.sampled_from(chosen or paths), max_size=2)) \
        if draw(st.booleans()) else set()
    d = {k: dict(v) if isinstance(v, dict) else v for k, v in _CHEAP.items()}
    for path in chosen:
        spec, node = _VALID, d
        for k in path[:-1]:
            spec = spec[k]
            if not isinstance(node.get(k), dict):
                node[k] = {}
            node = node[k]
        node[path[-1]] = draw(_JUNK if path in junk else spec[path[-1]])
    if draw(st.booleans()) and junk:  # a whole section or an unknown key
        d[draw(st.sampled_from(["grid", "mobility", "learning", "bogus", 1]))] = draw(_JUNK)
    return d


@settings(max_examples=150, deadline=timedelta(seconds=5))
@given(config_mappings(), st.sampled_from(["run", "oracle", "compare"]))
def test_any_config_exits_cleanly(config, command):
    with tempfile.TemporaryDirectory() as tmp, redirect_stderr(io.StringIO()) as err:
        path = Path(tmp) / "cfg.yaml"
        path.write_text(yaml.safe_dump(config, sort_keys=False))  # keys may be mixed
        extra = ["--n-seeds", "1"] if command == "compare" else []
        rc = main([command, "--config", str(path), "--out-dir", str(Path(tmp) / "o"),
                   *extra])
        try:
            accepted = build_config(preset="desk", config_file=path)
        except ConfigurationError:
            accepted = None
    lines = err.getvalue().splitlines()
    assert rc in (0, 1)
    if rc == 1:
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
    if rc == 1 and accepted is not None:
        # The config is the whole gate: past it, only these documented
        # faults end a command.
        if command == "compare" and accepted.n_users == 0:
            assert lines == ["error: compare needs at least one user, got n_users 0"]
        else:
            assert command == "run" and lines[0].endswith(
                "the SINR CDF needs finite values"), lines
