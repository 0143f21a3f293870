"""Ground network geometry, user drops, and the aerial placement grid."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .geometry import MAX_LENGTH, ConfigurationError, Position3D, ServiceArea

# Axial-coordinate unit steps around a hex ring.
_HEX_DIRECTIONS = [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)]


@dataclass(frozen=True)
class GroundBS:
    id: int
    pos: Position3D
    tx_power: float  # dBm
    active: bool = True


def hex_cell_count(n_rings: int) -> int:
    return 1 + 3 * n_rings * (n_rings + 1)


def inter_site_distance(area: ServiceArea, n_cells: int) -> float:
    """ISD such that n_cells hexagons tessellate the 2D area."""
    area_per_cell = area.side * area.side / n_cells
    return math.sqrt(2.0 * area_per_cell / math.sqrt(3.0))


def _axial_to_xy(q: int, r: int, isd: float):
    x = isd * (q + r / 2.0)
    y = isd * (math.sqrt(3.0) / 2.0) * r
    return x, y


def hex_layout(n_rings: int, area: ServiceArea, antenna_height: float,
               tx_power: float) -> List[GroundBS]:
    """Center site plus n_rings concentric hexagonal rings, centered in the area.

    Ring k's site at axial (k, 0) lies k * isd = k * side * sqrt(2 / (sqrt(3) *
    (3k^2 + 3k + 1))) from the centre: 0.493 * side for k = 2, and at least
    0.530 * side, outside the area, for every k >= 3.
    """
    if not 0 <= n_rings <= 2:
        raise ConfigurationError("n_rings must be 0, 1 or 2: no square area holds a third ring")
    if not 0 < antenna_height <= MAX_LENGTH:
        raise ConfigurationError(f"antenna height must be positive and at most {MAX_LENGTH:g} m")

    n_cells = hex_cell_count(n_rings)
    isd = inter_site_distance(area, n_cells)
    if isd <= 0:
        raise ConfigurationError("area too small for a positive inter-site distance")

    coords = [(0, 0)]
    for k in range(1, n_rings + 1):
        q, r = 0, -k  # ring start: k steps along direction 4 from center
        for d in range(6):
            dq, dr = _HEX_DIRECTIONS[d]
            for _ in range(k):
                coords.append((q, r))
                q, r = q + dq, r + dr

    return [GroundBS(id=i, pos=Position3D(*_axial_to_xy(q, r, isd), antenna_height),
                     tx_power=tx_power)
            for i, (q, r) in enumerate(coords)]


def drop_users_ppp(count: int, area: ServiceArea,
                   rng: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
    """Fixed-count PPP conditioning: i.i.d. uniform positions over the area, as (xs, ys)."""
    xs = rng.uniform(-area.half, area.half, size=count)
    ys = rng.uniform(-area.half, area.half, size=count)
    return xs, ys


def _axis(lo: float, hi: float, n: int) -> np.ndarray:
    """n evenly spaced points from lo to hi; a lone point sits at the middle."""
    return np.linspace(lo, hi, n) if n > 1 else np.array([(lo + hi) / 2.0])


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

    @property
    def xs(self) -> np.ndarray:
        return _axis(-self.area.half, self.area.half, self.n_x)

    @property
    def ys(self) -> np.ndarray:
        return _axis(-self.area.half, self.area.half, self.n_y)

    @property
    def hs(self) -> np.ndarray:
        return _axis(self.area.h_min, self.area.h_max, self.n_h)

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
