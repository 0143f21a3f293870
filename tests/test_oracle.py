import csv
import io
from dataclasses import replace

import numpy as np
import pytest

import aerialsim as a
from aerialsim.deployment import grid_index_to_position
from aerialsim.oracle import exhaustive_search, export_qos_csv
from aerialsim.radio import NetworkState, aggregate_qos
from tests.conftest import make_snapshot, users_at


def test_single_state_grid(desk_area):
    grid = a.PlacementGrid(desk_area, 1, 1, 1)
    snap, _ = make_snapshot(0, desk_area, n_users=10)
    best, qos = exhaustive_search(snap, grid)
    assert best == 0
    assert qos.shape == (1,)


def test_noise_limited_single_user_optimum_overhead(desk_area, desk_grid, urban, radio):
    user = a.Position2D(float(desk_grid.xs[1]), float(desk_grid.ys[3]))
    snap = NetworkState(ground_bs=[], users=users_at([user]), env=urban, radio=radio)
    best = grid_index_to_position(desk_grid, exhaustive_search(snap, desk_grid)[0])
    assert (best.x, best.y) == (user.x, user.y)
    assert best.h == desk_area.h_min


def test_best_dominates_every_state(desk_area, desk_grid):
    snap, _ = make_snapshot(7, desk_area, n_users=40)
    best, qos = exhaustive_search(snap, desk_grid)
    assert np.all(qos[best] >= qos)
    # lowest index on ties / first argmax
    assert best == int(np.argmax(qos))


def test_each_entry_matches_independent_recomputation(desk_area):
    grid = a.PlacementGrid(desk_area, 3, 3, 2)
    snap, _ = make_snapshot(2, desk_area, n_users=15)
    _, qos = exhaustive_search(snap, grid)
    for s in range(grid.n_states):
        fresh = aggregate_qos(replace(snap, aerial_pos=grid_index_to_position(grid, s)))
        assert qos[s] == fresh


def test_deterministic(desk_area, desk_grid):
    snap, _ = make_snapshot(9, desk_area, n_users=25)
    best1, qos1 = exhaustive_search(snap, desk_grid)
    best2, qos2 = exhaustive_search(snap, desk_grid)
    assert best1 == best2
    assert np.array_equal(qos1, qos2)


def test_csv_export(tmp_path, desk_area):
    grid = a.PlacementGrid(desk_area, 2, 2, 2)
    snap, _ = make_snapshot(1, desk_area, n_users=5)
    best, qos = exhaustive_search(snap, grid)
    path = tmp_path / "qos.csv"
    export_qos_csv(qos, grid, path)
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["state", "x", "y", "h", "qos"]
    assert len(rows) == 1 + grid.n_states
    s, x, y, h, q = rows[1 + best]
    assert float(q) == pytest.approx(qos[best])


def test_csv_rows_are_the_grid_positions(tmp_path, desk_area):
    grid = a.PlacementGrid(desk_area, 4, 3, 5)
    snap, _ = make_snapshot(3, desk_area, n_users=8)
    _, qos = exhaustive_search(snap, grid)
    path = tmp_path / "qos.csv"
    export_qos_csv(qos, grid, path)
    with open(path, newline="") as f:
        rows = list(csv.reader(f))[1:]
    for s, row in enumerate(rows):
        p = grid_index_to_position(grid, s)
        assert row == [str(s), repr(p.x), repr(p.y), repr(p.h), repr(float(qos[s]))]


def test_csv_bytes_match_csv_writer(tmp_path, desk_area):
    grid = a.PlacementGrid(desk_area, 3, 2, 2)
    qos = np.array([0.0, -0.0, 1e-300, 123.456, 0.1 + 0.2, 1e20,
                    -1.5, 7.0, 2.0 / 3.0, 5e-324, 1e16, 42.0])
    export_qos_csv(qos, grid, tmp_path / "qos.csv")
    expected = io.StringIO(newline="")
    w = csv.writer(expected, lineterminator="\n")
    w.writerow(["state", "x", "y", "h", "qos"])
    for s in range(grid.n_states):
        p = grid_index_to_position(grid, s)
        w.writerow((s, repr(p.x), repr(p.y), repr(p.h), repr(float(qos[s]))))
    written = (tmp_path / "qos.csv").read_bytes()
    assert written == expected.getvalue().encode("utf-8")
