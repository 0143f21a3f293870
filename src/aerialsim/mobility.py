"""Random walk user mobility: straight, mirrored stretches between velocity redraws."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .geometry import ConfigurationError, Position2D, ServiceArea

# A time at or below this is none: step walks while more than this is left
# of its duration, and the hold has run out once this much or less is left.
TIME_TOL = 1e-9  # s


@dataclass(frozen=True)
class MobilityParams:
    c_max: float = 1.3          # m/s, pedestrian maximum
    hold_time: float = 10.0     # s between velocity redraws

    def __post_init__(self):
        # c_max == 0 is allowed as the degenerate static-users case
        if self.c_max < 0 or self.hold_time <= 0:
            raise ConfigurationError("c_max must be >= 0 and hold_time positive")


@dataclass(frozen=True)
class User:
    """One user's state, as read from a Users record."""

    id: int
    pos: Position2D
    vx: float  # m/s
    vy: float  # m/s


@dataclass(frozen=True, eq=False)
class Users:
    """Every user's position and velocity as float arrays indexed by user id,
    and the time until every user redraws its velocity.

    No array of a Users is ever written to: step returns new ones.
    """

    x: np.ndarray
    y: np.ndarray
    vx: np.ndarray  # m/s
    vy: np.ndarray  # m/s
    hold: float     # s until the next redraw, shared by every user

    def __len__(self) -> int:
        return self.x.size

    def __getitem__(self, i: int) -> User:
        i = range(len(self))[i]  # IndexError out of range; negatives count back
        return User(id=i, pos=Position2D(float(self.x[i]), float(self.y[i])),
                    vx=float(self.vx[i]), vy=float(self.vy[i]))


def draw_velocities(params: MobilityParams, rng: np.random.Generator,
                    k: int) -> Tuple[np.ndarray, np.ndarray]:
    """k (speed, direction) pairs, uniform on [0, c_max) x [0, 2*pi).

    Pair i takes draws 2i and 2i+1 of the stream; each value equals the
    scalar rng.uniform(lo, hi) call, which is lo + (hi - lo) * rng.random().
    """
    u = rng.random((k, 2))
    return params.c_max * u[:, 0], (2.0 * math.pi) * u[:, 1]


def _draw_vxy(params: MobilityParams, rng: np.random.Generator,
              k: int) -> Tuple[np.ndarray, np.ndarray]:
    """k velocities (vx, vy), from draw_velocities' (speed, direction) pairs."""
    speed, direction = draw_velocities(params, rng, k)
    return speed * np.cos(direction), speed * np.sin(direction)


def init_users(xy: Tuple[np.ndarray, np.ndarray], params: MobilityParams,
               rng: np.random.Generator) -> Users:
    """Users at the dropped positions xy = (x, y), each with a random velocity, and a full hold."""
    x, y = xy
    return Users(x, y, *_draw_vxy(params, rng, x.size), float(params.hold_time))


def _mirror(p: np.ndarray, v: np.ndarray, lo: float,
            hi: float) -> Tuple[np.ndarray, np.ndarray]:
    """Coordinates p mirrored once across the border [lo, hi] they left, and
    their velocities v negated there."""
    below, above = p < lo, p > hi
    return (np.where(below, 2 * lo - p, np.where(above, 2 * hi - p, p)),
            np.where(below | above, -v, v))


def step(users: Users, duration: float, params: MobilityParams,
         area: ServiceArea, rng: np.random.Generator) -> Users:
    """Every user walked for duration seconds.

    The walk goes in stretches, each ending where the hold or the duration
    runs out. Over a stretch of t seconds a user moves by (vx * t, vy * t);
    on an axis it has left, it is mirrored once across that border and its
    velocity there negated. A config keeps c_max * t within the area's side,
    so one mirror brings a user that started inside back inside, and keeps
    duration above TIME_TOL. Where the hold runs out, every user redraws its
    velocity, in id order, from rng.
    """
    x, y, vx, vy, hold, left = users.x, users.y, users.vx, users.vy, users.hold, duration
    lo, hi = -area.half, area.half
    while left > TIME_TOL:
        t = min(hold, left)
        x, vx = _mirror(x + vx * t, vx, lo, hi)
        y, vy = _mirror(y + vy * t, vy, lo, hi)
        hold, left = hold - t, left - t
        if hold <= TIME_TOL:  # rng.random((0, 2)) draws nothing
            vx, vy = _draw_vxy(params, rng, x.size)
            hold = float(params.hold_time)
    return Users(x, y, vx, vy, hold)
