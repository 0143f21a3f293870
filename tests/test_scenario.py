import csv
import dataclasses
import io
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from aerialsim import scenario
from aerialsim.geometry import ConfigurationError
from aerialsim.mobility import MobilityParams
from aerialsim.placement import LearningConfig, LearnResult, QTable
from aerialsim.radio import aggregate_qos, throughput
from aerialsim.scenario import (PRESETS, GridSpec, ScenarioConfig, TimeSlotRecord,
                                aerial_helps, build_config, build_network,
                                compare_seed, emit_outputs, run_scenario,
                                sinr_cdf, slot_count)
from tests.conftest import trigger_tables
from tests.test_mobility import ref_walk


def desk_config(**overrides):
    base = dict(seed=0, n_users=40, n_rings=1, grid=GridSpec(5, 5, 3),
                learning=LearningConfig(max_episodes=200, max_steps=20),
                sim_duration=60.0)
    base.update(overrides)
    return ScenarioConfig(**base)


def record(qos, sinr_list, qos_th=10.0, aerial=None, trig=False):
    return TimeSlotRecord(qos=qos, qos_th=qos_th, aerial_pos=aerial,
                          user_sinr=np.asarray(sinr_list, dtype=float),
                          learning_triggered=trig)


class TestRunScenario:
    def test_static_users_never_trigger(self):
        # zero-ish speed: QoS never moves off the threshold value
        cfg = desk_config(mobility=MobilityParams(c_max=0.0),
                          sim_duration=30.0, baseline_mode="ground19")
        run = run_scenario(cfg)
        assert all(not r.learning_triggered for r in run.records)
        for r in run.records:
            assert r.qos == r.qos_th

    def test_ground_baseline_has_no_aerial(self):
        run = run_scenario(desk_config(baseline_mode="ground19", sim_duration=50.0))
        assert all(r.aerial_pos is None for r in run.records)
        assert all(not r.learning_triggered for r in run.records)

    def test_record_count(self):
        cfg = desk_config(sim_duration=73.0)  # floor(73/10) + 1 = 8
        assert len(run_scenario(cfg).records) == 8

    @pytest.mark.parametrize("sim_duration, t_min, n_slots", [
        (0.7, 0.1, 7),  # 0.7 / 0.1 == 6.999999999999999
        (300.0, 10.0, 30), (900.0, 10.0, 90), (50.0, 10.0, 5), (30.0, 10.0, 3)])
    def test_slot_count_survives_rounding(self, tmp_path, sim_duration, t_min, n_slots):
        cfg = build_config(preset="desk", overrides={
            "sim_duration": sim_duration, "t_min": t_min,
            "baseline_mode": "ground19", "n_users": 5})
        run = run_scenario(cfg)
        emit_outputs(run.records, run.reward_traces, tmp_path, config=cfg)
        with open(tmp_path / "timeslots.csv", newline="") as f:
            assert [row["t"] for row in csv.DictReader(f)] == \
                [repr(k * t_min) for k in range(n_slots + 1)]

    @pytest.mark.parametrize("sim_duration, t_min, n_slots", [
        (0.7, 0.1, 7),
        # The quotient is 9000000.999999998; a valid config (9e6 stretches).
        (44100004.9, 4.9, 9000001),
        (300.0, 10.0, 30), (900.0, 10.0, 90), (50.0, 10.0, 5), (30.0, 10.0, 3),
        (73.0, 10.0, 7), (29.999, 10.0, 2)])
    def test_slot_count(self, sim_duration, t_min, n_slots):
        assert slot_count(sim_duration, t_min) == n_slots

    def test_threshold_constant_across_slots(self):
        run = run_scenario(desk_config(sim_duration=50.0))
        th = {r.qos_th for r in run.records}
        assert len(th) == 1

    def test_threshold_is_the_qos_of_the_built_network(self):
        cfg = desk_config(seed=3, sim_duration=20.0)
        net, _, _ = build_network(cfg)
        assert net.aerial_pos is None and all(b.active for b in net.ground_bs)
        assert run_scenario(cfg).records[0].qos_th == aggregate_qos(net)

    def test_aerial_position_on_grid_and_only_moves_on_trigger(self):
        cfg = desk_config(sim_duration=120.0, seed=3)
        grid = cfg.placement_grid()
        run = run_scenario(cfg)
        coords = (set(map(float, grid.xs)), set(map(float, grid.ys)),
                  set(map(float, grid.hs)))
        prev = None
        for r in run.records[1:]:
            assert r.aerial_pos is not None
            assert r.aerial_pos.x in coords[0]
            assert r.aerial_pos.y in coords[1]
            assert r.aerial_pos.h in coords[2]
            if prev is not None and not r.learning_triggered:
                assert r.aerial_pos == prev
            prev = r.aerial_pos

    def test_warm_start_persistence_roundtrip(self, monkeypatch):
        # The learner writes into the table in place, and the run hands that
        # same table to the next trigger: each learns on from the visits before it.
        cfg = build_config(preset="desk", overrides={
            "seed": 2, "mobility": {"c_max": 40.0, "hold_time": 3.0}})
        entries = trigger_tables(monkeypatch, cfg)
        steps = cfg.learning.max_episodes * cfg.learning.max_steps
        assert len({id(table) for table, _ in entries}) == 1
        assert [visits for _, visits in entries] == [0, steps]

    def test_invalid_disabled_bs(self):
        # One ring: ground sites 0 to 6, whether or not the aerial flies.
        for mode in ("ground19", "aerial18plus1"):
            assert desk_config(disabled_bs=6, baseline_mode=mode).disabled_bs == 6
            for off in (-1, 7, 99):
                with pytest.raises(ConfigurationError,
                                   match=f"disabled_bs {off} is not a ground BS id"):
                    desk_config(disabled_bs=off, baseline_mode=mode, sim_duration=20.0)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            desk_config(sim_duration=5.0)  # < t_min
        with pytest.raises(ConfigurationError):
            desk_config(baseline_mode="hybrid")
        # The config builds the ground layout; no square area holds a third ring.
        for n_rings in (-1, 3, 10**6):
            with pytest.raises(ConfigurationError,
                               match="^n_rings must be 0, 1 or 2: no square area holds a "
                                     "third ring$"):
                ScenarioConfig(n_rings=n_rings)
        for height in (0.0, -1.0, 1e300):
            with pytest.raises(ConfigurationError, match="antenna height must be positive"):
                ScenarioConfig(antenna_height=height)


@pytest.mark.parametrize("cfg", [
    desk_config(baseline_mode="ground19", n_users=60, sim_duration=75.0, t_min=7.5,
                mobility=MobilityParams(c_max=200.0, hold_time=3.0)),
    desk_config(seed=3, sim_duration=60.0),
], ids=["fast-walker-ground", "desk-aerial"])
def test_run_matches_a_walk_of_one_substep_at_a_time(cfg, monkeypatch):
    # The run's walk against the scalar reference, which walks one user at a
    # time; each slot is one call that walks t_min seconds.
    fast = run_scenario(cfg)

    def walk_per_user(users, duration, params, area, rng):
        assert duration == cfg.t_min
        return ref_walk(users, duration, params, area, rng)

    monkeypatch.setattr(scenario, "step", walk_per_user)
    ref = run_scenario(cfg)
    assert len(fast.records) == len(ref.records) == int(cfg.sim_duration // cfg.t_min) + 1
    for got, want in zip(fast.records, ref.records):
        assert (got.qos, got.qos_th, got.aerial_pos, got.learning_triggered) == \
            (want.qos, want.qos_th, want.aerial_pos, want.learning_triggered)
        assert got.user_sinr.tobytes() == want.user_sinr.tobytes()
    assert [t.tobytes() for t in fast.reward_traces] == \
        [t.tobytes() for t in ref.reward_traces]


def test_records_of_arrays_compare_by_identity_and_hash():
    # Field-wise == would compare arrays (ValueError) and leave these records
    # unhashable; each equals only itself.
    cfg = desk_config(sim_duration=20.0)
    run = run_scenario(cfg)
    net, _, _ = build_network(cfg)
    for rec in (run.records[-1], net, QTable.zeros(4),
                LearnResult(best_state=0, rewards=np.zeros(3),
                            episode_greedy_qos=np.zeros(1)), run):
        twin = replace(rec)
        assert rec == rec and rec != twin and not rec == twin
        assert hash(rec) == hash(rec) != hash(twin)
        assert len({rec, twin}) == 2


class TestCompareSeed:
    def test_row(self):
        cfg = desk_config(sim_duration=40.0, n_users=25)
        row = compare_seed(cfg)
        assert list(row) == ["seed", "qos_base_mean", "qos_aerial_mean",
                             "lagging_slots", "aerial_wins_at_lagging",
                             "median_sinr_base_db", "median_sinr_aerial_db"]
        assert row["seed"] == cfg.seed
        assert 0 <= row["aerial_wins_at_lagging"] <= row["lagging_slots"] <= 4
        assert compare_seed(replace(cfg, baseline_mode="ground19")) == row

    @pytest.mark.parametrize("overrides, message", [
        ({"n_users": 0}, "compare needs at least one user, got n_users 0")])
    def test_rejected_before_any_run(self, monkeypatch, overrides, message):
        monkeypatch.setattr(scenario, "run_scenario", None)  # any run would fail
        with pytest.raises(ConfigurationError, match=message):
            compare_seed(desk_config(**overrides))

    @pytest.mark.parametrize("lagging, wins, helps", [
        (0, 0, True),   # no slot lags
        (6, 3, True),   # exactly half won
        (6, 2, False),  # one short of half
        (5, 3, True), (5, 2, False), (1, 1, True), (1, 0, False)])
    def test_aerial_helps(self, lagging, wins, helps):
        assert aerial_helps({"lagging_slots": lagging,
                             "aerial_wins_at_lagging": wins}) is helps


class TestSinrCdf:
    def test_constant_sinr_step(self):
        recs = [record(5.0, [2.0, 2.0, 2.0])]
        xs, cdf = sinr_cdf(recs)
        v = 10 * math.log10(2.0)
        assert cdf[-1] == 1.0
        assert xs[0] <= v <= xs[-1]
        assert np.all(cdf[xs < v - 0.11] == 0.0)
        assert np.all(cdf[xs >= v] == 1.0)

    def test_monotone_from_zero_to_one(self):
        rng = np.random.default_rng(0)
        recs = [record(5.0, rng.uniform(0.1, 50.0, 30)) for _ in range(5)]
        xs, cdf = sinr_cdf(recs)
        assert np.all(np.diff(cdf) >= 0)
        assert cdf[0] >= 0.0 and cdf[-1] == 1.0

    def test_3db_shift_moves_quantiles(self):
        rng = np.random.default_rng(1)
        base_sinr = rng.uniform(0.5, 20.0, 100)
        recs = [record(5.0, base_sinr)]
        shifted = [record(5.0, base_sinr * 10 ** 0.3)]
        xs1, c1 = sinr_cdf(recs)
        xs2, c2 = sinr_cdf(shifted)
        med1 = xs1[np.searchsorted(c1, 0.5)]
        med2 = xs2[np.searchsorted(c2, 0.5)]
        assert med2 - med1 == pytest.approx(3.0, abs=0.15)


class TestEmitOutputs:
    def test_row_count_matches_slots(self, tmp_path):
        cfg = desk_config(sim_duration=60.0)
        run = run_scenario(cfg)
        emit_outputs(run.records, run.reward_traces, tmp_path, config=cfg)
        lines = (tmp_path / "timeslots.csv").read_text().splitlines()
        assert len(lines) - 1 == int(cfg.sim_duration // cfg.t_min) + 1

    def test_byte_identical_reruns(self, tmp_path):
        cfg = desk_config(sim_duration=80.0, seed=11)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            run = run_scenario(cfg)
            emit_outputs(run.records, run.reward_traces, out, config=cfg)
        for name in ("timeslots.csv", "sinr_cdf.csv", "reward_trace.csv",
                     "summary.yaml"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    @pytest.mark.parametrize("n_users", [0, 1, 40])
    def test_summary(self, tmp_path, n_users):
        cfg = desk_config(sim_duration=40.0, seed=4, n_users=n_users)
        run = run_scenario(cfg)
        emit_outputs(run.records, run.reward_traces, tmp_path, config=cfg)
        summary = yaml.safe_load((tmp_path / "summary.yaml").read_text())
        assert "seed" not in summary and summary["config"]["seed"] == cfg.seed
        # The mean per-user spectral efficiency over users and slots.
        se = summary["spectral_efficiency_mean"]
        assert se == (summary["qos_mean"] / n_users if n_users else 0.0)
        if n_users:
            assert se == pytest.approx(np.mean([throughput(r.user_sinr)
                                                for r in run.records]), rel=1e-12)

    def test_summary_counts_users_of_the_records(self, tmp_path):
        # Two users per slot, whatever the config's n_users says.
        emit_outputs([record(2.0, [1.0, 1.0]), record(4.0, [1.0, 1.0])], [],
                     tmp_path, config=ScenarioConfig())
        summary = yaml.safe_load((tmp_path / "summary.yaml").read_text())
        assert (summary["qos_mean"], summary["spectral_efficiency_mean"]) == (3.0, 1.5)

    def test_reward_trace_matches_csv_writer(self, tmp_path):
        repeated = np.random.default_rng(0).choice(
            [0.0, -0.0, 0.0, 0.0, 1.25, -7.5e-3, 0.1 + 0.2, 3e100], size=5000)
        traces = [np.array([1.5, -2.25, 0.0, -0.0, 1e-300, -3.0e20]),
                  np.array([]), np.array([0.1 + 0.2, -1e-5]), repeated,
                  np.array([0.1, -0.0, 1.5, 0.1], dtype=np.float32),
                  repeated[::-7], [2.5, -0.0, 0.0, 2.5, -1e-3]]
        assert not traces[5].flags.c_contiguous
        emit_outputs([record(1.0, [1.0])], traces, tmp_path, config=ScenarioConfig())
        expected = io.StringIO(newline="")
        w = csv.writer(expected, lineterminator="\n")
        w.writerow(["reward"])
        w.writerows([repr(float(r))] for trace in traces for r in trace)
        written = (tmp_path / "reward_trace.csv").read_bytes()
        assert written == expected.getvalue().encode("utf-8")
        assert written.startswith(b"reward\n1.5\n-2.25\n0.0\n-0.0\n")

    def test_reward_trace_reads_back_every_learner_step(self, tmp_path):
        # One line per step, in step order across triggers: the data line's
        # number is the step, and each line reads back to the reward's bits.
        cfg = build_config(preset="desk", overrides={
            "seed": 2, "mobility": {"c_max": 40.0, "hold_time": 3.0}})  # two triggers
        run = run_scenario(cfg)
        emit_outputs(run.records, run.reward_traces, tmp_path, config=cfg)
        header, *lines = (tmp_path / "reward_trace.csv").read_text().split("\n")[:-1]
        steps = cfg.learning.max_episodes * cfg.learning.max_steps
        assert header == "reward" and len(run.reward_traces) >= 2
        assert len(lines) == len(run.reward_traces) * steps
        assert np.array([float(line) for line in lines]).tobytes() == \
            np.concatenate(run.reward_traces).tobytes()

    def test_unwritable_directory_surfaces_path(self, tmp_path):
        target = tmp_path / "file"
        target.write_text("x")
        with pytest.raises(OSError):
            emit_outputs([record(1.0, [1.0])], [], target / "sub",
                         config=ScenarioConfig())


class TestConfigPlumbing:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError):
            build_config(overrides={"bogus": 1})

    @pytest.mark.parametrize("d, message", [
        ({"sim_duration": "1e3"}, "config key sim_duration must be a number"),
        ({"n_users": 10.0}, "config key n_users must be an integer"),
        ({"n_users": True}, "config key n_users must be an integer"),
        ({"baseline_mode": 3}, "config key baseline_mode must be a string"),
        ({"learning": 5}, "config key learning must be a mapping"),
        ({"grid": [5, 5, 3]}, "config key grid must be a mapping"),
        ({"mobility": {"c_max": "fast"}}, "config key mobility.c_max must be a number"),
        ({"env": {"literal_los_exponent": False}},
         r"unknown config keys: \['env.literal_los_exponent'\]"),
        ({"learning": {"bogus": 1}}, r"unknown config keys: \['learning.bogus'\]"),
        ({"mobility": {"c_max": float("nan")}}, "config key mobility.c_max must be finite"),
        # An int beyond the float range is infinite as a float.
        ({"sim_duration": 10 ** 400}, "config key sim_duration must be finite"),
        # One LoS formula and one boundary rule: the keys that chose another are gone.
        ({"mobility": {"boundary_policy": "reflect"}},
         r"unknown config keys: \['mobility.boundary_policy'\]"),
        # The aerial always replaces one ground site; there is no "none".
        ({"disabled_bs": None}, "config key disabled_bs must be an integer, got None"),
        # The learned table lives for one run; no config key names a file for it.
        ({"qtable_path": "q.npz"}, r"unknown config keys: \['qtable_path'\]"),
    ])
    def test_mistyped_values_rejected(self, d, message):
        with pytest.raises(ConfigurationError, match=message):
            build_config(overrides=d)

    @pytest.mark.parametrize("overrides", [{"env": {"kappa": -1.0}},
                                           {"radio": {"ground_pathloss_exponent": 0.0}}])
    def test_bad_section_value_is_a_configuration_error(self, overrides):
        with pytest.raises(ConfigurationError):
            build_config(overrides=overrides)

    def test_typed_values_accepted(self):
        cfg = build_config(overrides={"sim_duration": 1000, "disabled_bs": 3,
                                      "grid": GridSpec(3, 3, 2),
                                      "mobility": {"c_max": 40, "hold_time": 3}})
        assert cfg.sim_duration == 1000 and cfg.grid == GridSpec(3, 3, 2)
        assert cfg.disabled_bs == 3
        assert cfg.mobility == MobilityParams(c_max=40, hold_time=3)

    def test_float_keys_hold_floats(self):
        # A YAML integer too large for int64 used to reach numpy as an object
        # (np.log10 raised TypeError on antenna_height: 10**30). The ground
        # reference loss is a float key whose range admits such a value.
        cfg = build_config(overrides={"t_min": 10, "radio": {"ground_ref_loss": 10**30},
                                      "mobility": {"c_max": 40}})
        assert [type(v) for v in (cfg.t_min, cfg.radio.ground_ref_loss,
                                  cfg.mobility.c_max)] == [float] * 3
        assert cfg.radio.ground_ref_loss == 1e30

    def test_readme_example_config_loads(self, tmp_path):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = readme.split("Example config:\n\n```yaml\n", 1)[1].split("```", 1)[0]
        cfgfile = tmp_path / "example.yaml"
        cfgfile.write_text(block)
        cfg = build_config(config_file=cfgfile)
        assert (cfg.seed, cfg.n_users, cfg.learning.max_episodes) == (42, 150, 2500)

    def test_presets_build(self):
        # The resolved setups are written out in full, so that a changed
        # ScenarioConfig default cannot change the paper or desk run unseen.
        def setup(cfg):
            return (cfg.n_users, cfg.n_rings, cfg.grid, cfg.sim_duration,
                    cfg.learning.max_episodes, cfg.learning.max_steps)

        assert setup(build_config(preset="paper")) == \
            (150, 2, GridSpec(21, 21, 11), 300.0, 5000, 40)
        assert setup(build_config(preset="desk")) == \
            (100, 1, GridSpec(5, 5, 3), 300.0, 600, 30)
        assert setup(build_config()) == (150, 2, GridSpec(21, 21, 11), 300.0, 2500, 30)
        assert build_config(preset="paper") == ScenarioConfig(
            learning=LearningConfig(max_episodes=5000, max_steps=40))
        assert build_config(preset="desk") == ScenarioConfig(
            n_users=100, n_rings=1, grid=GridSpec(5, 5, 3),
            learning=LearningConfig(max_episodes=600))
        assert build_config() == ScenarioConfig()

    def test_presets_restate_no_default(self):
        def leaves(d, prefix=()):
            for k, v in d.items():
                yield from leaves(v, prefix + (k,)) if isinstance(v, dict) \
                    else [(prefix + (k,), v)]

        defaults = dataclasses.asdict(ScenarioConfig())
        restated = []
        for name, preset in PRESETS.items():
            for path, value in leaves(preset):
                default = defaults
                for k in path:
                    default = default[k]
                if value == default:
                    restated.append((name, ".".join(path)))
        assert restated == []

    def test_overrides_layering(self, tmp_path):
        cfgfile = tmp_path / "c.yaml"
        cfgfile.write_text("n_users: 77\nlearning:\n  max_steps: 12\n")
        cfg = build_config(preset="desk", config_file=cfgfile,
                           overrides={"seed": 42})
        assert cfg.n_users == 77
        assert cfg.learning.max_steps == 12
        assert cfg.learning.max_episodes == 600  # from preset, not clobbered
        assert cfg.seed == 42
