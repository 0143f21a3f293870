import csv

import pytest

from aerialsim.cli import main


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
