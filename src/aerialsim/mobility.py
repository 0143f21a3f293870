"""Random walk user mobility with hold intervals."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

import numpy as np

from .geometry import ConfigurationError, Position2D, ServiceArea


@dataclass(frozen=True)
class MobilityParams:
    c_max: float = 1.3          # m/s, pedestrian maximum
    hold_time: float = 10.0     # s between (speed, direction) redraws
    boundary_policy: str = "reflect"  # reflect | wrap

    def __post_init__(self):
        # c_max == 0 is allowed as the degenerate static-users case
        if self.c_max < 0 or self.hold_time <= 0:
            raise ConfigurationError("c_max must be >= 0 and hold_time positive")
        if self.boundary_policy not in ("reflect", "wrap"):
            raise ConfigurationError(f"unknown boundary policy {self.boundary_policy!r}")


@dataclass(frozen=True)
class User:
    id: int
    pos: Position2D
    speed: float
    direction: float       # radians, [0, 2*pi)
    hold_remaining: float  # s


def draw_velocity(params: MobilityParams, rng: np.random.Generator):
    speed = float(rng.uniform(0.0, params.c_max))
    direction = float(rng.uniform(0.0, 2.0 * math.pi))
    return speed, direction


def init_users(positions: List[Position2D], params: MobilityParams,
               rng: np.random.Generator) -> List[User]:
    """Assign each dropped position an initial random velocity and full hold."""
    users = []
    for i, p in enumerate(positions):
        speed, direction = draw_velocity(params, rng)
        users.append(User(id=i, pos=p, speed=speed, direction=direction,
                          hold_remaining=params.hold_time))
    return users


def _reflect(v: float, lo: float, hi: float):
    """Fold v into [lo, hi] by mirror reflection; returns (value, flipped)."""
    flipped = False
    span = hi - lo
    while v < lo or v > hi:
        if v < lo:
            v = 2 * lo - v
        else:
            v = 2 * hi - v
        flipped = not flipped
        if span <= 0:
            break
    return v, flipped


def _apply_boundary(x, y, direction, area: ServiceArea, policy: str):
    if policy == "wrap":
        x = area.x_min + (x - area.x_min) % area.width
        y = area.y_min + (y - area.y_min) % area.height
        return x, y, direction
    x, fx = _reflect(x, area.x_min, area.x_max)
    y, fy = _reflect(y, area.y_min, area.y_max)
    dx, dy = math.cos(direction), math.sin(direction)
    if fx:
        dx = -dx
    if fy:
        dy = -dy
    if fx or fy:
        direction = math.atan2(dy, dx) % (2.0 * math.pi)
    return x, y, direction


def step(users: List[User], dt: float, params: MobilityParams,
         area: ServiceArea, rng: np.random.Generator) -> List[User]:
    """Advance every user by dt seconds; redraw velocity when the hold expires."""
    if dt <= 0:
        raise ConfigurationError("dt must be positive")
    out = []
    for u in users:
        x = u.pos.x + u.speed * dt * math.cos(u.direction)
        y = u.pos.y + u.speed * dt * math.sin(u.direction)
        x, y, direction = _apply_boundary(x, y, u.direction, area,
                                          params.boundary_policy)
        speed = u.speed
        hold = u.hold_remaining - dt
        if hold <= 1e-12:
            speed, direction = draw_velocity(params, rng)
            hold = params.hold_time
        out.append(User(id=u.id, pos=Position2D(x, y), speed=speed,
                        direction=direction, hold_remaining=hold))
    return out
