"""Ground network geometry, user drops, and the aerial placement grid."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

import numpy as np

from .geometry import MAX_LENGTH, ConfigurationError, Position3D, ServiceArea

DEFAULT_ANTENNA_HEIGHT = 25.0
DEFAULT_GROUND_TX_DBM = 46.0

# Axial-coordinate unit steps around a hex ring.
_HEX_DIRECTIONS = [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)]


@dataclass(frozen=True)
class GroundBS:
    id: int
    pos: Position3D
    tx_power: float = DEFAULT_GROUND_TX_DBM  # dBm
    active: bool = True


def hex_cell_count(n_rings: int) -> int:
    return 1 + 3 * n_rings * (n_rings + 1)


def inter_site_distance(area: ServiceArea, n_cells: int) -> float:
    """ISD such that n_cells hexagons tessellate the 2D area."""
    area_per_cell = area.area / n_cells
    return math.sqrt(2.0 * area_per_cell / math.sqrt(3.0))


def _axial_to_xy(q: int, r: int, isd: float):
    x = isd * (q + r / 2.0)
    y = isd * (math.sqrt(3.0) / 2.0) * r
    return x, y


def hex_layout(n_rings: int, area: ServiceArea,
               antenna_height: float = DEFAULT_ANTENNA_HEIGHT,
               tx_power: float = DEFAULT_GROUND_TX_DBM) -> List[GroundBS]:
    """Center site plus n_rings concentric hexagonal rings, centered in the area."""
    if n_rings < 0:
        raise ConfigurationError("n_rings must be >= 0")
    if not 0 < antenna_height <= MAX_LENGTH:
        raise ConfigurationError(f"antenna height must be positive and at most {MAX_LENGTH:g} m")

    n_cells = hex_cell_count(n_rings)
    isd = inter_site_distance(area, n_cells)
    if isd <= 0:
        raise ConfigurationError("area too small for a positive inter-site distance")

    cx, cy = area.center.x, area.center.y
    coords = [(0, 0)]
    for k in range(1, n_rings + 1):
        q, r = 0, -k  # ring start: k steps along direction 4 from center
        for d in range(6):
            dq, dr = _HEX_DIRECTIONS[d]
            for _ in range(k):
                coords.append((q, r))
                q, r = q + dq, r + dr

    bss = []
    for i, (q, r) in enumerate(coords):
        x, y = _axial_to_xy(q, r, isd)
        pos = Position3D(cx + x, cy + y, antenna_height)
        if not area.contains_2d(pos):
            raise ConfigurationError(
                f"hex layout with {n_rings} rings does not fit the service area "
                f"(site {i} at ({pos.x:.1f}, {pos.y:.1f}) is outside)")
        bss.append(GroundBS(id=i, pos=pos, tx_power=tx_power))
    return bss


def drop_users_ppp(count: int, area: ServiceArea, rng: np.random.Generator) -> np.ndarray:
    """Fixed-count PPP conditioning: i.i.d. uniform (x, y) over the area, as (count, 2)."""
    if count < 0:
        raise ConfigurationError("user count must be >= 0")
    xs = rng.uniform(area.x_min, area.x_max, size=count)
    ys = rng.uniform(area.y_min, area.y_max, size=count)
    return np.column_stack((xs, ys))


@dataclass(frozen=True)
class PlacementGrid:
    """Discrete 3D lattice of candidate aerial positions inside the area box."""

    area: ServiceArea
    n_x: int
    n_y: int
    n_h: int

    def __post_init__(self):
        if min(self.n_x, self.n_y, self.n_h) < 1:
            raise ConfigurationError("grid counts must be positive")

    @property
    def n_states(self) -> int:
        return self.n_x * self.n_y * self.n_h

    def axis_coords(self, lo: float, hi: float, n: int) -> np.ndarray:
        return np.linspace(lo, hi, n) if n > 1 else np.array([lo])

    @property
    def xs(self) -> np.ndarray:
        return self.axis_coords(self.area.x_min, self.area.x_max, self.n_x)

    @property
    def ys(self) -> np.ndarray:
        return self.axis_coords(self.area.y_min, self.area.y_max, self.n_y)

    @property
    def hs(self) -> np.ndarray:
        return self.axis_coords(self.area.h_min, self.area.h_max, self.n_h)

    def unravel(self, s: int):
        if not 0 <= s < self.n_states:
            raise IndexError(f"state index {s} out of range [0, {self.n_states})")
        ih = s % self.n_h
        iy = (s // self.n_h) % self.n_y
        ix = s // (self.n_h * self.n_y)
        return ix, iy, ih

    def ravel(self, ix: int, iy: int, ih: int) -> int:
        return (ix * self.n_y + iy) * self.n_h + ih

    def center_state(self) -> int:
        return self.ravel(self.n_x // 2, self.n_y // 2, 0)


def grid_index_to_position(grid: PlacementGrid, s: int) -> Position3D:
    ix, iy, ih = grid.unravel(s)
    return Position3D(float(grid.xs[ix]), float(grid.ys[iy]), float(grid.hs[ih]))


def position_to_grid_index(grid: PlacementGrid, pos: Position3D) -> int:
    """Inverse of grid_index_to_position for exact grid points (nearest otherwise)."""
    ix = int(np.argmin(np.abs(grid.xs - pos.x)))
    iy = int(np.argmin(np.abs(grid.ys - pos.y)))
    ih = int(np.argmin(np.abs(grid.hs - pos.h)))
    return grid.ravel(ix, iy, ih)
