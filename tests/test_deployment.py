import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from aerialsim.deployment import (MIN_ANTENNA_HEIGHT, PlacementGrid, drop_users_ppp,
                                  grid_index_to_position, hex_cell_count, hex_layout,
                                  inter_site_distance, position_to_grid_index)
from aerialsim.geometry import ConfigurationError, ServiceArea
from tests.conftest import DEFAULTS

SITE = (DEFAULTS.antenna_height, DEFAULTS.ground_tx_power)  # hex_layout's site values
RING_RULE = "^n_rings must be 0, 1 or 2: no square area holds a third ring$"


class TestHexLayout:
    def test_zero_rings_single_center_site(self, desk_area):
        bss = hex_layout(0, desk_area, *SITE)
        assert len(bss) == 1
        assert (bss[0].pos.x, bss[0].pos.y) == (0.0, 0.0)

    def test_two_rings_is_19_sites(self, desk_area):
        assert len(hex_layout(2, desk_area, *SITE)) == 19

    def test_one_ring_equal_nearest_neighbor_distances(self, desk_area):
        bss = hex_layout(1, desk_area, *SITE)
        assert len(bss) == 7
        pts = [(b.pos.x, b.pos.y) for b in bss]
        nearest = []
        for i, p in enumerate(pts):
            nearest.append(min(math.dist(p, q) for j, q in enumerate(pts) if j != i))
        assert max(nearest) - min(nearest) < 1e-9
        assert nearest[0] == pytest.approx(inter_site_distance(desk_area, 7))

    def test_ids_unique_contiguous(self, desk_area):
        bss = hex_layout(2, desk_area, *SITE)
        assert [b.id for b in bss] == list(range(19))

    def test_all_sites_inside_area(self, desk_area):
        for n_rings in (0, 1, 2):
            for bs in hex_layout(n_rings, desk_area, *SITE):
                assert max(abs(bs.pos.x), abs(bs.pos.y)) <= desk_area.half

    def test_sixfold_rotational_symmetry(self, desk_area):
        bss = hex_layout(2, desk_area, *SITE)
        pts = sorted((round(b.pos.x, 6), round(b.pos.y, 6)) for b in bss)
        c, s = math.cos(math.pi / 3), math.sin(math.pi / 3)
        rotated = sorted((round(c * b.pos.x - s * b.pos.y, 6),
                          round(s * b.pos.x + c * b.pos.y, 6)) for b in bss)
        assert pts == rotated

    def test_too_small_area_rejected(self, desk_area):
        # Every square area is too small for a third ring, whatever its side.
        for n_rings in (-1, 3, 57, 10**6):
            with pytest.raises(ConfigurationError, match=RING_RULE):
                hex_layout(n_rings, desk_area, *SITE)

    @pytest.mark.parametrize("height", [0.0, -1.0, 1.0e6 * (1 + 1e-15), 1.0e300])
    def test_antenna_height_outside_its_range_rejected(self, desk_area, height):
        with pytest.raises(ConfigurationError, match="antenna height must be positive"):
            hex_layout(1, desk_area, height, DEFAULTS.ground_tx_power)

    def test_antenna_height_floor_is_the_least_with_a_positive_square(self, desk_area):
        below = math.nextafter(MIN_ANTENNA_HEIGHT, 0.0)
        assert MIN_ANTENNA_HEIGHT ** 2 > 0.0 and below ** 2 == 0.0
        assert hex_layout(1, desk_area, MIN_ANTENNA_HEIGHT, DEFAULTS.ground_tx_power)
        with pytest.raises(ConfigurationError, match=re.escape(
                f"antenna height {below!r} m squares to 0.0; it must be at least "
                f"{MIN_ANTENNA_HEIGHT!r} m")):
            hex_layout(1, desk_area, below, DEFAULTS.ground_tx_power)


class TestDropUsers:
    def test_zero_count(self, desk_area):
        xs, ys = drop_users_ppp(0, desk_area, np.random.default_rng(0))
        assert xs.shape == ys.shape == (0,) and xs.dtype == ys.dtype == float

    def test_count_and_bounds(self, desk_area):
        xs, ys = drop_users_ppp(150, desk_area, np.random.default_rng(1))
        assert xs.shape == ys.shape == (150,) and xs.dtype == ys.dtype == float
        assert np.all((-desk_area.half <= xs) & (xs <= desk_area.half))
        assert np.all((-desk_area.half <= ys) & (ys <= desk_area.half))

    def test_the_two_uniform_draws(self, desk_area):
        xs, ys = drop_users_ppp(64, desk_area, np.random.default_rng(5))
        rng = np.random.default_rng(5)
        assert xs.tolist() == rng.uniform(-desk_area.half, desk_area.half, 64).tolist()
        assert ys.tolist() == rng.uniform(-desk_area.half, desk_area.half, 64).tolist()

    def test_quadrant_uniformity_chi_square(self, desk_area):
        xs, ys = drop_users_ppp(10_000, desk_area, np.random.default_rng(42))
        counts = [0, 0, 0, 0]
        for x, y in zip(xs.tolist(), ys.tolist()):
            counts[(x >= 0) * 2 + (y >= 0)] += 1
        _, p = stats.chisquare(counts)
        assert p > 0.01

    def test_seeded_reproducibility(self, desk_area):
        x1, y1 = drop_users_ppp(64, desk_area, np.random.default_rng(9))
        x2, y2 = drop_users_ppp(64, desk_area, np.random.default_rng(9))
        assert np.array_equal(x1, x2) and np.array_equal(y1, y2)


class TestPlacementGrid:
    def test_state_zero_is_min_corner(self, desk_area):
        grid = PlacementGrid(desk_area, 4, 5, 3)
        p = grid_index_to_position(grid, 0)
        assert (p.x, p.y, p.h) == (-desk_area.half, -desk_area.half, desk_area.h_min)

    def test_one_count_axis_is_its_middle(self, desk_area):
        grid = PlacementGrid(desk_area, 3, 1, 1)
        assert grid.xs.tolist() == [-desk_area.half, 0.0, desk_area.half]
        assert grid.ys.tolist() == [0.0]
        assert grid.hs.tolist() == [(desk_area.h_min + desk_area.h_max) / 2]
        # Two or more points are np.linspace's, bit for bit.
        for n in range(2, 9):
            grid = PlacementGrid(desk_area, n, n, n)
            assert grid.hs.tolist() == np.linspace(desk_area.h_min, desk_area.h_max,
                                                   n).tolist()

    def test_last_state_of_2x2x2_is_max_corner(self, desk_area):
        grid = PlacementGrid(desk_area, 2, 2, 2)
        p = grid_index_to_position(grid, 7)
        assert (p.x, p.y, p.h) == (desk_area.half, desk_area.half, desk_area.h_max)

    def test_round_trip_bijection(self, desk_area):
        grid = PlacementGrid(desk_area, 4, 3, 5)
        for s in range(grid.n_states):
            assert position_to_grid_index(grid, grid_index_to_position(grid, s)) == s

    def test_positions_inside_box(self, desk_area):
        grid = PlacementGrid(desk_area, 5, 5, 3)
        for s in range(grid.n_states):
            p = grid_index_to_position(grid, s)
            assert max(abs(p.x), abs(p.y)) <= desk_area.half
            assert desk_area.h_min <= p.h <= desk_area.h_max

    def test_out_of_range_index(self, desk_grid):
        with pytest.raises(IndexError):
            grid_index_to_position(desk_grid, desk_grid.n_states)
        with pytest.raises(IndexError):
            grid_index_to_position(desk_grid, -1)

    def test_empty_axis_rejected(self, desk_area):
        with pytest.raises(ConfigurationError):
            PlacementGrid(desk_area, 0, 5, 3)


def test_service_area_validation():
    for side in (0.0, -1.0, 5e-324):  # 5e-324 / 2 rounds to 0
        with pytest.raises(ConfigurationError, match="must have positive extent"):
            ServiceArea(side, 25.0, 525.0)
    with pytest.raises(ConfigurationError):
        ServiceArea(2.0, h_min=100.0, h_max=50.0)
    for box in [(2e6 * (1 + 1e-15), 25.0, 525.0), (1e300, 25.0, 525.0), (2.0, 25.0, 1e300)]:
        with pytest.raises(ConfigurationError, match="must lie within 1e"):
            ServiceArea(*box)
    assert ServiceArea(2e6, 25.0, 1e6).half == 1e6


# Sides log-uniform over [1e-150, 2e6] m, where side * side is a normal float.
_SIDES = st.floats(math.log(1e-150), math.log(2e6)).map(lambda t: min(math.exp(t), 2e6))


@settings(max_examples=300, deadline=None)
@given(side=_SIDES)
def test_two_rings_fit_every_square_and_a_third_never_does(side):
    # The geometry behind hex_layout's ring rule: the site at axial (k, 0)
    # lies k * isd from the centre, inside the area for k <= 2 and beyond
    # its edge for every k >= 3.
    area = ServiceArea(side, DEFAULTS.h_min, DEFAULTS.h_max)
    for n_rings in (0, 1, 2):
        for bs in hex_layout(n_rings, area, *SITE):
            assert max(abs(bs.pos.x), abs(bs.pos.y)) <= area.half
    for k in range(3, 61):
        assert k * inter_site_distance(area, hex_cell_count(k)) > area.half
