import csv
import io
import math
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr
from dataclasses import replace
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import aerialsim
from aerialsim import cli
from aerialsim.cli import main
from aerialsim.placement import QTable, save_qtable
from aerialsim.radio import qos_map
from aerialsim.scenario import build_config, build_network, disable_site


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
    snapshot = replace(net, ground_bs=disable_site(net.ground_bs, cfg))
    assert qos == qos_map(snapshot, cfg.placement_grid()).tolist()


def test_oracle_grid_guard(tmp_path):
    cfg = tmp_path / "big.yaml"
    cfg.write_text("grid:\n  n_x: 100\n  n_y: 100\n  n_h: 100\n")
    rc = main(["oracle", "--preset", "desk", "--config", str(cfg),
               "--out-dir", str(tmp_path / "o")])
    assert rc == 1


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


@pytest.mark.parametrize("jobs, n_seeds, workers", [("64", "2", 2), ("2", "3", 2),
                                                    ("8", "1", None)])
def test_compare_starts_no_more_workers_than_seeds(tmp_path, fast_config, monkeypatch,
                                                   jobs, n_seeds, workers):
    started = []

    class SerialPool:
        """Records max_workers and runs the map in this process."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, payloads):
            return map(fn, payloads)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
    out = tmp_path / "out"
    rc = main(["compare", "--preset", "desk", "--config", str(fast_config),
               "--n-seeds", n_seeds, "--jobs", jobs, "--out-dir", str(out)])
    assert rc == 0
    assert started == ([workers] if workers else [])
    with open(out / "compare.csv", newline="") as f:
        assert len(list(csv.DictReader(f))) == int(n_seeds)


@pytest.mark.parametrize("command", ["run", "oracle"])
def test_invalid_disabled_bs_exits_nonzero(tmp_path, capsys, command):
    cfg = tmp_path / "off.yaml"
    cfg.write_text("disabled_bs: 99\n")
    rc = main([command, "--preset", "desk", "--config", str(cfg),
               "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: disabled_bs 99 is not a ground BS id"]


def test_bad_config_exits_nonzero(tmp_path):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("bogus_key: 1\n")
    rc = main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
    assert rc == 1


def test_out_dir_env_var(tmp_path, fast_config, monkeypatch):
    out = tmp_path / "envout"
    monkeypatch.setenv("AERIALSIM_OUT_DIR", str(out))
    rc = main(["run", "--preset", "desk", "--config", str(fast_config),
               "--seed", "3"])
    assert rc == 0
    assert (out / "timeslots.csv").exists()


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


def test_qtable_from_another_grid_rejected(tmp_path, capsys):
    qtable = tmp_path / "q.npz"
    outs = []
    for grid in ("{n_x: 5, n_y: 5, n_h: 3}", "{n_x: 3, n_y: 5, n_h: 5}"):
        cfg = tmp_path / "grid.yaml"
        cfg.write_text(f"sim_duration: 20.0\nqtable_path: {qtable}\ngrid: {grid}\n")
        outs.append(main(["run", "--preset", "desk", "--config", str(cfg),
                          "--out-dir", str(tmp_path / "o")]))
    assert outs == [0, 1]
    err = capsys.readouterr().err.strip().splitlines()
    assert err[-1].startswith(f"error: Q-table {qtable} was learned on a 5x5x3 grid")


@pytest.mark.parametrize("field, bad, message", [
    ("values", np.zeros((3, 6)), "has values of shape (3, 6)"),
    ("values", np.full((75, 6), np.nan), "has values that are not all finite"),
])
def test_malformed_qtable_exits_nonzero(tmp_path, capsys, field, bad, message):
    # The grid record matches the desk grid; only the table itself is bad.
    qtable = tmp_path / "q.npz"
    grid = build_config(preset="desk").placement_grid()
    save_qtable(qtable, QTable.zeros(grid.n_states), grid)
    with np.load(qtable) as f:
        d = dict(f)
    d[field] = bad
    with open(qtable, "wb") as f:
        np.savez(f, **d)
    cfg = tmp_path / "warm.yaml"
    cfg.write_text(f"sim_duration: 20.0\nqtable_path: {qtable}\n")
    rc = main(["run", "--preset", "desk", "--config", str(cfg),
               "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: Q-table {qtable} {message}")


def test_epsilon_floor_above_one_exits_nonzero(tmp_path, capsys):
    cfg = tmp_path / "floor.yaml"
    cfg.write_text("learning: {epsilon_floor: 3.0}\n")
    rc = main(["run", "--preset", "desk", "--config", str(cfg),
               "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: epsilon_floor must be in [0, 1]"]


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
    # Q-table: 10**16 states x 6 actions of float64, 480 PB.
    "grid: {n_x: 1000000, n_y: 1000000, n_h: 10000}",
])
def test_unallocatable_table_exits_nonzero(tmp_path, capsys, line):
    # Both sizes exceed a 57-bit address space (128 PiB), so the allocation
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
    # A mirror fold moves a user back by about one area width, so a step of
    # c_max * mobility_dt far beyond area_side would fold for ever.
    cfg = tmp_path / "fast.yaml"
    cfg.write_text(f"mobility: {{c_max: {c_max}}}\n")
    rc, err = run_cli(["run", "--preset", "desk", "--config", cfg,
                       "--out-dir", tmp_path / "o"], timeout=30)
    assert rc == 1
    assert len(err) == 1 and err[0].startswith(
        f"error: mobility.c_max * mobility_dt ({float(c_max)!r} m/s * 1.0 s) "
        "exceeds area_side (2000.0 m)")
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
    # 3e12 slots; any t_min at or below the sub-step tolerance would also
    # skip the mobility loop and leave the users standing.
    ("t_min: 1.0e-10", "need 1e-09 s < t_min <= sim_duration"),
    ("mobility_dt: 1.0e-10", "mobility_dt must be above 1e-09 s"),
    ("t_min: 1.0e-5", "sim_duration / min(t_min, mobility_dt) is 3e+07 mobility "
                      "sub-steps; at most 10000000 are allowed"),
    # Too large for a float, and billions of sites.
    ("n_rings: 1" + "0" * 200, "n_rings gives 1 + 3 * n_rings * (n_rings + 1) ground "
                               "sites; at most 10000 are allowed"),
    ("n_rings: 100000", "n_rings gives 1 + 3 * n_rings * (n_rings + 1) ground "
                        "sites; at most 10000 are allowed"),
    ("n_rings: -1", "n_rings must be >= 0"),
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
    "n_rings": st.integers(0, 2),
    "area_side": st.floats(1.0, 4000.0),
    "h_min": st.floats(1.0, 100.0),
    "h_max": st.floats(50.0, 600.0),
    "antenna_height": st.floats(0.0, 60.0),
    "ground_tx_power": st.floats(-20.0, 60.0),
    "aerial_tx_power": st.floats(-20.0, 60.0),
    "t_min": st.floats(1.0, 20.0),
    "mobility_dt": st.floats(0.1, 5.0),
    "sim_duration": st.floats(1.0, 60.0),
    "baseline_mode": st.sampled_from(["ground19", "aerial18plus1"]),
    "disabled_bs": st.one_of(st.none(), st.integers(0, 20)),
    "qtable_path": st.one_of(st.none(), st.just("q.npz")),
    "grid": {"n_x": st.integers(1, 4), "n_y": st.integers(1, 4), "n_h": st.integers(1, 4)},
    "env": {"kappa": st.floats(0.1, 20.0), "zeta": st.floats(0.01, 1.0),
            "eta_los": st.floats(0.0, 5.0), "eta_nlos": st.floats(0.0, 40.0),
            "literal_los_exponent": st.booleans()},
    "radio": {"carrier_freq": st.floats(1e8, 1e10), "noise_power": st.floats(-130.0, -60.0),
              "ground_pathloss_exponent": st.floats(1.0, 6.0),
              "ground_ref_loss": st.floats(0.0, 60.0)},
    "mobility": {"c_max": st.floats(0.0, 50.0), "hold_time": st.floats(0.1, 20.0),
                 "boundary_policy": st.sampled_from(["reflect", "wrap"])},
    "learning": {"max_episodes": st.integers(1, 20), "max_steps": st.integers(1, 10),
                 "epsilon_decay": st.floats(0.5, 1.0), "epsilon_floor": st.floats(0.0, 1.0),
                 "episode_start": st.sampled_from(["chain", "fixed"])},
}
_JUNK = st.sampled_from([None, True, "x", [], {}, [1.0], -1, 0, 10**30, -0.5, 1e-12,
                         1e300, 1e306, 5e-324, math.nan, math.inf, -math.inf])
# The desk preset's counts, cut down; a drawn section is merged into these.
_CHEAP = {"n_users": 20, "sim_duration": 30.0, "grid": {"n_x": 3, "n_y": 3, "n_h": 2},
          "learning": {"max_episodes": 10, "max_steps": 5}}


def _paths(spec, prefix=()):
    for k, v in spec.items():
        yield from _paths(v, prefix + (k,)) if isinstance(v, dict) else [prefix + (k,)]


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
        d[draw(st.sampled_from(["grid", "mobility", "learning", "bogus"]))] = draw(_JUNK)
    return d


@settings(max_examples=150, deadline=timedelta(seconds=5))
@given(config_mappings(), st.sampled_from(["run", "oracle", "compare"]))
def test_any_config_exits_cleanly(config, command):
    with tempfile.TemporaryDirectory() as tmp, redirect_stderr(io.StringIO()) as err:
        if isinstance(config.get("qtable_path"), str):
            config["qtable_path"] = str(Path(tmp) / config["qtable_path"])
        path = Path(tmp) / "cfg.yaml"
        path.write_text(yaml.safe_dump(config))
        extra = ["--n-seeds", "1"] if command == "compare" else []
        rc = main([command, "--config", str(path), "--out-dir", str(Path(tmp) / "o"),
                   *extra])
    lines = err.getvalue().splitlines()
    assert rc in (0, 1)
    if rc == 1:
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
