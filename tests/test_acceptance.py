"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. The learning-based criteria
share a module-scoped battery of 20 seeded runs to keep total runtime low.
"""

import copy
import itertools
import math

import numpy as np
import pytest
from scipy import stats

from aerialsim.channel import AtgEnvironment, RadioParams, atg_pathloss_hl, p_los
from aerialsim.deployment import GroundBS, PlacementGrid
from aerialsim.geometry import Position2D, Position3D
from aerialsim.mobility import MobilityParams, draw_velocities
from aerialsim.oracle import exhaustive_search
from aerialsim.placement import (LearningConfig, QTable, learn_placement,
                                 make_qos_table)
from aerialsim.radio import NetworkState, aggregate_qos
from aerialsim.scenario import (aerial_helps, build_config, compare_seed,
                                emit_outputs, run_scenario)
from tests.conftest import DEFAULTS, episodes_to_reach, make_snapshot, users_at
from tests.reference import sinr_matrix

N_SEEDS = 20


def _report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


# ---------------------------------------------------------------------------
# Shared battery for criteria 2-4: cold + warm learning on 20 seeded snapshots.


@pytest.fixture(scope="module")
def learning_battery(desk_area_mod, desk_grid_mod):
    runs = []
    for seed in range(N_SEEDS):
        snap, rng = make_snapshot(seed, desk_area_mod, n_users=50)
        best, orc_qos = exhaustive_search(snap, desk_grid_mod)
        optimum = float(orc_qos[best])
        cfg = LearningConfig()
        cold_q = QTable.zeros(desk_grid_mod.n_states)
        cold = learn_placement(desk_grid_mod.center_state(), snap, cold_q,
                               cfg, desk_grid_mod, rng)
        warm = learn_placement(desk_grid_mod.center_state(), snap,
                               copy.deepcopy(cold_q), cfg, desk_grid_mod, rng)
        qos = make_qos_table(snap, desk_grid_mod)
        runs.append({
            "seed": seed,
            "optimum": optimum,
            "cold_qos": qos(cold.best_state),
            "cold_rewards": cold.rewards,
            "cold_eps": episodes_to_reach(cold, 0.99 * optimum),
            "warm_eps": episodes_to_reach(warm, 0.99 * optimum),
        })
    return runs


@pytest.fixture(scope="module")
def desk_area_mod():
    return DEFAULTS.service_area()


@pytest.fixture(scope="module")
def desk_grid_mod(desk_area_mod):
    return PlacementGrid(desk_area_mod, 5, 5, 3)


def test_criterion_1_channel_hand_values():
    urban = AtgEnvironment()
    radio = RadioParams()
    v90 = p_los(math.pi / 2, urban)
    v0 = p_los(1e-12, urban)
    atg = atg_pathloss_hl(100.0, 0.0, urban, radio)
    ok = (abs(v90 - 0.999975) <= 1e-6 and abs(v0 - 0.02188) <= 1e-4
          and abs(atg - 79.47) <= 0.01)
    assert _report("1 channel hand-values", ok,
                   f"p_los(90)={v90:.7f}, p_los(0+)={v0:.5f}, atg={atg:.3f} dB")


def test_criterion_2_oracle_equivalence(learning_battery):
    hits = sum(r["cold_qos"] >= 0.99 * r["optimum"] for r in learning_battery)
    ok = hits >= 0.9 * N_SEEDS
    assert _report("2 oracle equivalence", ok,
                   f"{hits}/{N_SEEDS} seeds within 1% of exhaustive optimum")


def test_criterion_3_warm_start_speedup(learning_battery):
    ratios = []
    for r in learning_battery:
        cold = r["cold_eps"] if r["cold_eps"] is not None else np.inf
        warm = r["warm_eps"] if r["warm_eps"] is not None else np.inf
        ratios.append(warm / cold)
    med = float(np.median(ratios))
    ok = med <= 0.25
    assert _report("3 warm-start speedup", ok,
                   f"median episode ratio warm/cold = {med:.3f} (<= 0.25)")


def test_criterion_4_reward_convergence(learning_battery):
    worst = 0.0
    for r in learning_battery:
        rw = np.abs(r["cold_rewards"])
        n = len(rw) // 10
        ratio = rw[-n:].mean() / rw[:n].mean()
        worst = max(worst, ratio)
    ok = worst <= 0.10
    assert _report("4 reward convergence", ok,
                   f"worst final/initial mean |reward| ratio = {worst:.4f}")


def test_criterion_5_directional_qos_gain():
    rows = [compare_seed(build_config(preset="desk", overrides={"seed": seed}))
            for seed in range(N_SEEDS)]
    seed_ok = sum(map(aerial_helps, rows))
    med_base = np.median([r["median_sinr_base_db"] for r in rows])
    med_aerial = np.median([r["median_sinr_aerial_db"] for r in rows])
    ok = seed_ok >= 0.8 * N_SEEDS and med_aerial >= med_base
    assert _report(
        "5 directional QoS gain", ok,
        f"{seed_ok}/{N_SEEDS} seeds gain at lagging slots; median SINR "
        f"{med_base:.2f} -> {med_aerial:.2f} dB")


def test_criterion_6_mobility_statistics():
    params = MobilityParams(c_max=1.3)
    rng = np.random.default_rng(2026)
    speeds, dirs = draw_velocities(params, rng, 100_000)
    _, p_speed = stats.kstest(speeds, stats.uniform(loc=0, scale=1.3).cdf)
    _, p_dir = stats.kstest(dirs, stats.uniform(loc=0, scale=2 * math.pi).cdf)
    ok = p_speed > 0.01 and p_dir > 0.01
    assert _report("6 mobility statistics", ok,
                   f"KS p-values: speed {p_speed:.3f}, direction {p_dir:.3f}")


def test_criterion_7_association_optimality(urban):
    rng = np.random.default_rng(7)
    failures = 0
    for _ in range(100):
        n_bs = int(rng.integers(1, 4))
        n_users = int(rng.integers(1, 7))
        bss = [GroundBS(id=i, pos=Position3D(*rng.uniform(-800, 800, 2), 25.0),
                        tx_power=DEFAULTS.ground_tx_power) for i in range(n_bs)]
        users = [Position2D(*rng.uniform(-900, 900, 2)) for _ in range(n_users)]
        state = NetworkState(ground_bs=bss, users=users_at(users), env=urban,
                             radio=RadioParams(),
                             aerial_tx_power=DEFAULTS.aerial_tx_power)
        achieved = aggregate_qos(state)
        s = sinr_matrix(state)
        best = max(sum(math.log2(1 + s[i, c]) for i, c in enumerate(choice))
                   for choice in itertools.product(range(n_bs), repeat=n_users))
        if not math.isclose(achieved, best, rel_tol=1e-12):
            failures += 1
    ok = failures == 0
    assert _report("7 association optimality", ok,
                   f"{100 - failures}/100 instances attain the enumerated maximum")


def test_criterion_8_determinism(tmp_path):
    cfg = build_config(preset="desk",
                       overrides={"seed": 314, "sim_duration": 100.0,
                                  "n_users": 50})
    outs = []
    for sub in ("first", "second"):
        run = run_scenario(cfg)
        out = tmp_path / sub
        emit_outputs(run.records, run.reward_traces, out, config=cfg)
        outs.append(out)
    names = ["timeslots.csv", "sinr_cdf.csv", "reward_trace.csv", "summary.yaml"]
    same = all((outs[0] / n).read_bytes() == (outs[1] / n).read_bytes()
               for n in names)
    assert _report("8 determinism", same,
                   "byte-identical CSV/summary outputs across reruns")
