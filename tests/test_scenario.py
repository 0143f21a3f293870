import csv
import io
import math

import numpy as np
import pytest

from aerialsim import scenario
from aerialsim.geometry import ConfigurationError
from aerialsim.mobility import MobilityParams, Users
from aerialsim.placement import LearningConfig
from aerialsim.radio import aggregate_qos
from aerialsim.scenario import (GridSpec, ScenarioConfig, TimeSlotRecord,
                                build_config, build_network, config_from_dict,
                                emit_outputs, run_scenario, sinr_cdf,
                                spectral_efficiency_summary)
from tests.test_mobility import ref_walk


def desk_config(**overrides):
    base = dict(seed=0, n_users=40, n_rings=1, grid=GridSpec(5, 5, 3),
                learning=LearningConfig(max_episodes=200, max_steps=20),
                sim_duration=60.0)
    base.update(overrides)
    return ScenarioConfig(**base)


def record(t, qos, sinr_list, qos_th=10.0, aerial=None, trig=False):
    return TimeSlotRecord(t=t, qos=qos, qos_th=qos_th, aerial_pos=aerial,
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

    def test_warm_start_persistence_roundtrip(self, tmp_path):
        path = tmp_path / "q.npz"
        cfg = desk_config(sim_duration=60.0, qtable_path=str(path), seed=5)
        run_scenario(cfg)
        assert path.exists()
        run2 = run_scenario(cfg)  # loads the persisted table
        assert len(run2.records) == 7

    def test_warm_start_from_path_without_npz_suffix(self, tmp_path):
        path = tmp_path / "qt"
        cfg = desk_config(sim_duration=60.0, qtable_path=str(path), seed=5)
        first = run_scenario(cfg)
        assert path.exists() and not (tmp_path / "qt.npz").exists()
        second = run_scenario(cfg)  # must continue from the persisted table
        n_first = first.qtable.visit_counts.sum()
        assert n_first > 0
        assert second.qtable.visit_counts.sum() > n_first

    def test_invalid_disabled_bs(self):
        with pytest.raises(ConfigurationError):
            run_scenario(desk_config(disabled_bs=99, sim_duration=20.0))

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            desk_config(sim_duration=5.0)  # < t_min
        with pytest.raises(ConfigurationError):
            desk_config(baseline_mode="hybrid")


def slot_substeps(cfg):
    """One slot's sub-steps, each min(mobility_dt, what is left of t_min)."""
    remaining, dts = cfg.t_min, []
    while remaining > 1e-9:
        dts.append(min(cfg.mobility_dt, remaining))
        remaining -= dts[-1]
    return dts


@pytest.mark.parametrize("cfg", [
    desk_config(baseline_mode="ground19", n_users=60, sim_duration=75.0, t_min=7.5,
                mobility_dt=2.0, mobility=MobilityParams(c_max=200.0, hold_time=3.0)),
    desk_config(seed=3, sim_duration=60.0),
], ids=["fast-walker-ground", "desk-aerial"])
def test_run_matches_a_walk_of_one_substep_at_a_time(cfg, monkeypatch):
    fast = run_scenario(cfg)
    substeps = slot_substeps(cfg)

    def walk_per_substep(users, dts, params, area, rng):
        assert list(dts) == substeps
        users = ref_walk(users, substeps, params, area, rng)
        return Users(*(np.array(v, dtype=float) for v in zip(
            *((u.pos.x, u.pos.y, u.speed, u.direction, u.hold_remaining) for u in users))))

    monkeypatch.setattr(scenario, "step", walk_per_substep)
    ref = run_scenario(cfg)
    assert len(fast.records) == len(ref.records) == int(cfg.sim_duration // cfg.t_min) + 1
    for got, want in zip(fast.records, ref.records):
        assert (got.t, got.qos, got.qos_th, got.aerial_pos, got.learning_triggered) == \
            (want.t, want.qos, want.qos_th, want.aerial_pos, want.learning_triggered)
        assert got.user_sinr.tobytes() == want.user_sinr.tobytes()
    assert [t.tobytes() for t in fast.reward_traces] == \
        [t.tobytes() for t in ref.reward_traces]


class TestSinrCdf:
    def test_constant_sinr_step(self):
        recs = [record(0.0, 5.0, [2.0, 2.0, 2.0])]
        xs, cdf = sinr_cdf(recs)
        v = 10 * math.log10(2.0)
        assert cdf[-1] == 1.0
        assert xs[0] <= v <= xs[-1]
        assert np.all(cdf[xs < v - 0.11] == 0.0)
        assert np.all(cdf[xs >= v] == 1.0)

    def test_monotone_from_zero_to_one(self):
        rng = np.random.default_rng(0)
        recs = [record(10.0 * k, 5.0, rng.uniform(0.1, 50.0, 30)) for k in range(5)]
        xs, cdf = sinr_cdf(recs)
        assert np.all(np.diff(cdf) >= 0)
        assert cdf[0] >= 0.0 and cdf[-1] == 1.0

    def test_3db_shift_moves_quantiles(self):
        rng = np.random.default_rng(1)
        base_sinr = rng.uniform(0.5, 20.0, 100)
        recs = [record(0.0, 5.0, base_sinr)]
        shifted = [record(0.0, 5.0, base_sinr * 10 ** 0.3)]
        xs1, c1 = sinr_cdf(recs)
        xs2, c2 = sinr_cdf(shifted)
        med1 = xs1[np.searchsorted(c1, 0.5)]
        med2 = xs2[np.searchsorted(c2, 0.5)]
        assert med2 - med1 == pytest.approx(3.0, abs=0.15)

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            sinr_cdf([])


class TestSpectralEfficiency:
    def test_single_user_sinr_one(self):
        assert spectral_efficiency_summary([record(0.0, 1.0, [1.0])]) == \
            pytest.approx(1.0)

    def test_replication_invariance(self):
        rng = np.random.default_rng(2)
        recs = [record(10.0 * k, 5.0, rng.uniform(0.1, 9.0, 20)) for k in range(3)]
        assert spectral_efficiency_summary(recs * 2) == \
            pytest.approx(spectral_efficiency_summary(recs), rel=1e-12)

    def test_matches_manual_recomputation(self):
        rng = np.random.default_rng(3)
        recs = [record(10.0 * k, 5.0, rng.uniform(0.1, 9.0, 7)) for k in range(4)]
        manual = np.mean([math.log2(1 + s) for r in recs for s in r.user_sinr])
        assert spectral_efficiency_summary(recs) == pytest.approx(manual, rel=1e-12)


class TestEmitOutputs:
    def test_empty_records(self, tmp_path):
        paths = emit_outputs([], [], tmp_path)
        names = {p.name for p in paths}
        assert names == {"timeslots.csv", "sinr_cdf.csv", "reward_trace.csv",
                         "summary.yaml"}
        assert (tmp_path / "timeslots.csv").read_text().splitlines() == \
            ["t,qos,qos_th,aerial_x,aerial_y,aerial_h,triggered"]

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

    def test_reward_trace_matches_csv_writer(self, tmp_path):
        repeated = np.random.default_rng(0).choice(
            [0.0, -0.0, 0.0, 0.0, 1.25, -7.5e-3, 0.1 + 0.2, 3e100], size=5000)
        traces = [np.array([1.5, -2.25, 0.0, -0.0, 1e-300, -3.0e20]),
                  np.array([]), np.array([0.1 + 0.2, -1e-5]), repeated,
                  np.array([0.1, -0.0, 1.5, 0.1], dtype=np.float32),
                  repeated[::-7], [2.5, -0.0, 0.0, 2.5, -1e-3]]
        assert not traces[5].flags.c_contiguous
        emit_outputs([], traces, tmp_path)
        expected = io.StringIO(newline="")
        w = csv.writer(expected, lineterminator="\n")
        w.writerow(["iteration", "reward"])
        rows = [r for trace in traces for r in trace]
        w.writerows([i, repr(float(r))] for i, r in enumerate(rows))
        written = (tmp_path / "reward_trace.csv").read_bytes()
        assert written == expected.getvalue().encode("utf-8")
        assert b"3,-0.0\n" in written

    def test_unwritable_directory_surfaces_path(self, tmp_path):
        target = tmp_path / "file"
        target.write_text("x")
        with pytest.raises(OSError):
            emit_outputs([], [], target / "sub")


class TestConfigPlumbing:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError):
            config_from_dict({"bogus": 1})

    @pytest.mark.parametrize("d, message", [
        ({"sim_duration": "1e3"}, "config key sim_duration must be a number"),
        ({"n_users": 10.0}, "config key n_users must be an integer"),
        ({"n_users": True}, "config key n_users must be an integer"),
        ({"baseline_mode": 3}, "config key baseline_mode must be a string"),
        ({"learning": 5}, "config key learning must be a mapping"),
        ({"grid": [5, 5, 3]}, "config key grid must be a mapping"),
        ({"mobility": {"c_max": "fast"}}, "config key mobility.c_max must be a number"),
        ({"env": {"literal_los_exponent": 1}},
         "config key env.literal_los_exponent must be true or false"),
        ({"learning": {"bogus": 1}}, r"unknown config keys: \['learning.bogus'\]"),
        ({"mobility": {"c_max": float("nan")}}, "config key mobility.c_max must be finite"),
        # An int beyond the float range is infinite as a float.
        ({"sim_duration": 10 ** 400}, "config key sim_duration must be finite"),
    ])
    def test_mistyped_values_rejected(self, d, message):
        with pytest.raises(ConfigurationError, match=message):
            config_from_dict(d)

    def test_typed_values_accepted(self):
        cfg = config_from_dict({"sim_duration": 1000, "disabled_bs": None,
                                "qtable_path": "q.npz", "grid": GridSpec(3, 3, 2),
                                "mobility": {"c_max": 40, "boundary_policy": "wrap"},
                                "env": {"literal_los_exponent": True}})
        assert cfg.sim_duration == 1000 and cfg.grid == GridSpec(3, 3, 2)
        assert cfg.mobility == MobilityParams(c_max=40, boundary_policy="wrap")
        assert cfg.env.literal_los_exponent is True

    def test_float_keys_hold_floats(self):
        # A YAML integer too large for int64 used to reach numpy as an object
        # (np.log10 raised TypeError on antenna_height: 10**30).
        cfg = config_from_dict({"t_min": 10, "antenna_height": 10**30,
                                "mobility": {"c_max": 40}})
        assert [type(v) for v in (cfg.t_min, cfg.antenna_height, cfg.mobility.c_max)] == \
            [float] * 3
        assert cfg.antenna_height == 1e30

    def test_presets_build(self):
        paper = build_config(preset="paper")
        assert paper.n_rings == 2
        assert paper.grid == GridSpec(21, 21, 11)
        desk = build_config(preset="desk")
        assert desk.n_rings == 1

    def test_overrides_layering(self, tmp_path):
        cfgfile = tmp_path / "c.yaml"
        cfgfile.write_text("n_users: 77\nlearning:\n  max_episodes: 123\n")
        cfg = build_config(preset="desk", config_file=cfgfile,
                           overrides={"seed": 42})
        assert cfg.n_users == 77
        assert cfg.learning.max_episodes == 123
        assert cfg.learning.max_steps == 30  # from preset, not clobbered
        assert cfg.seed == 42
