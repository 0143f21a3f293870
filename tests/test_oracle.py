import csv
import io
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aerialsim.deployment import PlacementGrid, grid_index_to_position
from aerialsim.geometry import Position2D
from aerialsim.mobility import Users
from aerialsim.oracle import exhaustive_search, export_qos_csv
from aerialsim.radio import NetworkState, aggregate_qos, link_report, qos_map
from tests.conftest import DEFAULTS, make_snapshot, users_at


def test_single_state_grid(desk_area):
    grid = PlacementGrid(desk_area, 1, 1, 1)
    snap, _ = make_snapshot(0, desk_area, n_users=10)
    best, qos = exhaustive_search(snap, grid)
    assert best == 0
    assert qos.shape == (1,)


def test_noise_limited_single_user_optimum_overhead(desk_area, desk_grid, urban, radio):
    user = Position2D(float(desk_grid.xs[1]), float(desk_grid.ys[3]))
    snap = NetworkState(ground_bs=[], users=users_at([user]), env=urban, radio=radio,
                        aerial_tx_power=DEFAULTS.aerial_tx_power)
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
    grid = PlacementGrid(desk_area, 3, 3, 2)
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
    grid = PlacementGrid(desk_area, 2, 2, 2)
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
    grid = PlacementGrid(desk_area, 4, 3, 5)
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
    grid = PlacementGrid(desk_area, 3, 2, 2)
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


# The signs (x, y) of the mirrors: in x, in y, and in both (a half turn).
MIRRORS = [(-1, 1), (1, -1), (-1, -1)]


# The service area, its hex layout with every site on, and the grid (a lone
# point on an axis sits at its middle) are each symmetric about the area's
# centre lines, so mirroring the users mirrors every result. These checks
# mirror the inputs and compare outputs only; they share no formula with the
# code.
@settings(deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_users=st.integers(1, 60),
       n_rings=st.integers(0, 2), counts=st.tuples(*[st.integers(1, 8)] * 3),
       data=st.data())
def test_mirrored_users_mirror_the_results(seed, n_users, n_rings, counts, data):
    area = DEFAULTS.service_area()
    grid = PlacementGrid(area, *counts)
    snap, _ = make_snapshot(seed, area, n_users=n_users, n_rings=n_rings, disabled=None)
    qos = qos_map(snap, grid)
    best, _ = exhaustive_search(snap, grid)
    s = data.draw(st.integers(0, grid.n_states - 1), label="aerial state")
    tput = link_report(replace(snap, aerial_pos=grid_index_to_position(grid, s)))[1]
    u = snap.users
    for sx, sy in MIRRORS:
        mirrored = replace(snap, users=Users(sx * u.x, sy * u.y, u.vx, u.vy, u.hold))
        flipped = [axis for axis, sign in enumerate((sx, sy)) if sign < 0]
        np.testing.assert_allclose(qos_map(mirrored, grid).reshape(counts),
                                   np.flip(qos.reshape(counts), flipped), rtol=1e-12)
        best_m, qos_m = exhaustive_search(mirrored, grid)
        np.testing.assert_allclose(qos_m[best_m], qos[best], rtol=1e-12)
        ix, iy, ih = grid.unravel(s)
        s_m = grid.ravel(grid.n_x - 1 - ix if sx < 0 else ix,
                         grid.n_y - 1 - iy if sy < 0 else iy, ih)
        tput_m = link_report(replace(mirrored,
                                     aerial_pos=grid_index_to_position(grid, s_m)))[1]
        np.testing.assert_allclose(tput_m, tput, rtol=1e-12, atol=1e-12)
