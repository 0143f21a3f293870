import math

import numpy as np
import pytest
from scipy import stats

from aerialsim.deployment import (PlacementGrid, drop_users_ppp,
                                  grid_index_to_position, hex_layout,
                                  inter_site_distance, position_to_grid_index)
from aerialsim.geometry import ConfigurationError, ServiceArea


class TestHexLayout:
    def test_zero_rings_single_center_site(self, desk_area):
        bss = hex_layout(0, desk_area)
        assert len(bss) == 1
        assert (bss[0].pos.x, bss[0].pos.y) == (0.0, 0.0)

    def test_two_rings_is_19_sites(self, desk_area):
        assert len(hex_layout(2, desk_area)) == 19

    def test_one_ring_equal_nearest_neighbor_distances(self, desk_area):
        bss = hex_layout(1, desk_area)
        assert len(bss) == 7
        pts = [(b.pos.x, b.pos.y) for b in bss]
        nearest = []
        for i, p in enumerate(pts):
            nearest.append(min(math.dist(p, q) for j, q in enumerate(pts) if j != i))
        assert max(nearest) - min(nearest) < 1e-9
        assert nearest[0] == pytest.approx(inter_site_distance(desk_area, 7))

    def test_ids_unique_contiguous(self, desk_area):
        bss = hex_layout(2, desk_area)
        assert [b.id for b in bss] == list(range(19))

    def test_all_sites_inside_area(self, desk_area):
        for n_rings in (0, 1, 2):
            for bs in hex_layout(n_rings, desk_area):
                assert desk_area.contains_2d(bs.pos)

    def test_sixfold_rotational_symmetry(self, desk_area):
        bss = hex_layout(2, desk_area)
        pts = sorted((round(b.pos.x, 6), round(b.pos.y, 6)) for b in bss)
        c, s = math.cos(math.pi / 3), math.sin(math.pi / 3)
        rotated = sorted((round(c * b.pos.x - s * b.pos.y, 6),
                          round(s * b.pos.x + c * b.pos.y, 6)) for b in bss)
        assert pts == rotated

    def test_too_small_area_rejected(self):
        # Tall thin strip: outer ring cannot fit inside the box.
        area = ServiceArea(-50.0, 50.0, -40000.0, 40000.0)
        with pytest.raises(ConfigurationError):
            hex_layout(2, area)

    def test_negative_rings_rejected(self, desk_area):
        with pytest.raises(ConfigurationError):
            hex_layout(-1, desk_area)

    @pytest.mark.parametrize("height", [0.0, -1.0, 1.0e6 * (1 + 1e-15), 1.0e300])
    def test_antenna_height_outside_its_range_rejected(self, desk_area, height):
        with pytest.raises(ConfigurationError, match="antenna height must be positive"):
            hex_layout(1, desk_area, antenna_height=height)


class TestDropUsers:
    def test_zero_count(self, desk_area):
        xy = drop_users_ppp(0, desk_area, np.random.default_rng(0))
        assert xy.shape == (0, 2) and xy.dtype == float

    def test_count_and_bounds(self, desk_area):
        xy = drop_users_ppp(150, desk_area, np.random.default_rng(1))
        assert xy.shape == (150, 2) and xy.dtype == float
        assert np.all((desk_area.x_min <= xy[:, 0]) & (xy[:, 0] <= desk_area.x_max))
        assert np.all((desk_area.y_min <= xy[:, 1]) & (xy[:, 1] <= desk_area.y_max))

    def test_the_two_uniform_draws(self, desk_area):
        xy = drop_users_ppp(64, desk_area, np.random.default_rng(5))
        rng = np.random.default_rng(5)
        assert xy[:, 0].tolist() == rng.uniform(desk_area.x_min, desk_area.x_max, 64).tolist()
        assert xy[:, 1].tolist() == rng.uniform(desk_area.y_min, desk_area.y_max, 64).tolist()

    def test_quadrant_uniformity_chi_square(self, desk_area):
        xy = drop_users_ppp(10_000, desk_area, np.random.default_rng(42))
        counts = [0, 0, 0, 0]
        for x, y in xy.tolist():
            counts[(x >= 0) * 2 + (y >= 0)] += 1
        _, p = stats.chisquare(counts)
        assert p > 0.01

    def test_seeded_reproducibility(self, desk_area):
        u1 = drop_users_ppp(64, desk_area, np.random.default_rng(9))
        u2 = drop_users_ppp(64, desk_area, np.random.default_rng(9))
        assert np.array_equal(u1, u2)


class TestPlacementGrid:
    def test_state_zero_is_min_corner(self, desk_area):
        grid = PlacementGrid(desk_area, 4, 5, 3)
        p = grid_index_to_position(grid, 0)
        assert (p.x, p.y, p.h) == (desk_area.x_min, desk_area.y_min, desk_area.h_min)

    def test_last_state_of_2x2x2_is_max_corner(self, desk_area):
        grid = PlacementGrid(desk_area, 2, 2, 2)
        p = grid_index_to_position(grid, 7)
        assert (p.x, p.y, p.h) == (desk_area.x_max, desk_area.y_max, desk_area.h_max)

    def test_round_trip_bijection(self, desk_area):
        grid = PlacementGrid(desk_area, 4, 3, 5)
        for s in range(grid.n_states):
            assert position_to_grid_index(grid, grid_index_to_position(grid, s)) == s

    def test_positions_inside_box(self, desk_area):
        grid = PlacementGrid(desk_area, 5, 5, 3)
        for s in range(grid.n_states):
            p = grid_index_to_position(grid, s)
            assert desk_area.contains_2d(p)
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
    with pytest.raises(ConfigurationError):
        ServiceArea(0, 0, -1, 1)
    with pytest.raises(ConfigurationError):
        ServiceArea(-1, 1, -1, 1, h_min=100.0, h_max=50.0)
    for box in [(-2e6, 1, -1, 1), (5e5, 1.5e6, -1, 1), (-1, 1, -1, 1e300),
                (-1, 1, -1, 1, 25.0, 1e300)]:
        with pytest.raises(ConfigurationError, match="must lie within 1e"):
            ServiceArea(*box)
    assert ServiceArea(-1e6, 1e6, -1e6, 1e6, 25.0, 1e6).width == 2e6
