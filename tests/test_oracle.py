import csv
from dataclasses import replace

import numpy as np
import pytest

import aerialsim as a
from aerialsim.channel import AtgEnvironment, RadioParams
from aerialsim.deployment import grid_index_to_position
from aerialsim.oracle import exhaustive_search, export_qos_csv
from aerialsim.radio import NetworkState, aggregate_qos
from tests.conftest import make_snapshot


def test_single_state_grid(desk_area):
    grid = a.PlacementGrid(desk_area, 1, 1, 1)
    snap, _ = make_snapshot(0, desk_area, n_users=10)
    res = exhaustive_search(snap, grid)
    assert res.best_state == 0
    assert res.qos_per_state.shape == (1,)


def test_noise_limited_single_user_optimum_overhead(desk_area, desk_grid, urban, radio):
    user = a.Position2D(float(desk_grid.xs[1]), float(desk_grid.ys[3]))
    snap = NetworkState(ground_bs=[], users=[user], env=urban, radio=radio)
    res = exhaustive_search(snap, desk_grid)
    best = grid_index_to_position(desk_grid, res.best_state)
    assert (best.x, best.y) == (user.x, user.y)
    assert best.h == desk_area.h_min


def test_best_dominates_every_state(desk_area, desk_grid):
    snap, _ = make_snapshot(7, desk_area, n_users=40)
    res = exhaustive_search(snap, desk_grid)
    assert res.best_qos == res.qos_per_state.max()
    assert np.all(res.best_qos >= res.qos_per_state)
    # lowest index on ties / first argmax
    assert res.best_state == int(np.argmax(res.qos_per_state))


def test_each_entry_matches_independent_recomputation(desk_area):
    grid = a.PlacementGrid(desk_area, 3, 3, 2)
    snap, _ = make_snapshot(2, desk_area, n_users=15)
    res = exhaustive_search(snap, grid)
    for s in range(grid.n_states):
        fresh = aggregate_qos(replace(snap, aerial_pos=grid_index_to_position(grid, s)))
        assert res.qos_per_state[s] == fresh


def test_deterministic(desk_area, desk_grid):
    snap, _ = make_snapshot(9, desk_area, n_users=25)
    r1 = exhaustive_search(snap, desk_grid)
    r2 = exhaustive_search(snap, desk_grid)
    assert r1.best_state == r2.best_state
    assert np.array_equal(r1.qos_per_state, r2.qos_per_state)


def test_csv_export(tmp_path, desk_area):
    grid = a.PlacementGrid(desk_area, 2, 2, 2)
    snap, _ = make_snapshot(1, desk_area, n_users=5)
    res = exhaustive_search(snap, grid)
    path = tmp_path / "qos.csv"
    export_qos_csv(res, grid, path)
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["state", "x", "y", "h", "qos"]
    assert len(rows) == 1 + grid.n_states
    s, x, y, h, q = rows[1 + res.best_state]
    assert float(q) == pytest.approx(res.best_qos)


def test_csv_rows_are_the_grid_positions(tmp_path, desk_area):
    grid = a.PlacementGrid(desk_area, 4, 3, 5)
    snap, _ = make_snapshot(3, desk_area, n_users=8)
    res = exhaustive_search(snap, grid)
    path = tmp_path / "qos.csv"
    export_qos_csv(res, grid, path)
    with open(path, newline="") as f:
        rows = list(csv.reader(f))[1:]
    for s, row in enumerate(rows):
        p = grid_index_to_position(grid, s)
        assert row == [str(s), repr(p.x), repr(p.y), repr(p.h),
                       repr(float(res.qos_per_state[s]))]
