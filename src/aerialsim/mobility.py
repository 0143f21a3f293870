"""Random walk user mobility with hold intervals."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .geometry import ConfigurationError, Position2D, ServiceArea

# A hold at or below this has expired; step ends segments and redraws by
# this one test. It only absorbs the rounding of a countdown by sub-steps,
# so it is far tighter than scenario.SLOT_TIME_TOL, the rest of a slot too
# short for a sub-step; raising it would redraw some users a sub-step early.
HOLD_EXPIRY_TOL = 1e-12  # s


@dataclass(frozen=True)
class MobilityParams:
    c_max: float = 1.3          # m/s, pedestrian maximum
    hold_time: float = 10.0     # s between (speed, direction) redraws

    def __post_init__(self):
        # c_max == 0 is allowed as the degenerate static-users case
        if self.c_max < 0 or self.hold_time <= 0:
            raise ConfigurationError("c_max must be >= 0 and hold_time positive")


@dataclass(frozen=True)
class User:
    """One user's state, as read from a Users record."""

    id: int
    pos: Position2D
    speed: float
    direction: float       # radians, [0, 2*pi)
    hold_remaining: float  # s


@dataclass(frozen=True, eq=False)
class Users:
    """Every user's state as float arrays indexed by user id.

    cos and sin hold np.cos and np.sin of direction. No array of a Users is
    ever written to: step returns new ones.
    """

    x: np.ndarray
    y: np.ndarray
    speed: np.ndarray
    direction: np.ndarray  # radians, [0, 2*pi)
    hold: np.ndarray       # s until the next (speed, direction) redraw
    cos: np.ndarray
    sin: np.ndarray

    def __len__(self) -> int:
        return self.x.size

    @property
    def xy(self) -> np.ndarray:
        """Positions, shape (n, 2)."""
        return np.column_stack((self.x, self.y))

    def __getitem__(self, i: int) -> User:
        i = range(len(self))[i]  # IndexError out of range; negatives count back
        return User(id=i, pos=Position2D(float(self.x[i]), float(self.y[i])),
                    speed=float(self.speed[i]), direction=float(self.direction[i]),
                    hold_remaining=float(self.hold[i]))


def draw_velocities(params: MobilityParams, rng: np.random.Generator,
                    k: int) -> Tuple[np.ndarray, np.ndarray]:
    """k (speed, direction) pairs, uniform on [0, c_max) x [0, 2*pi).

    Pair i takes draws 2i and 2i+1 of the stream; each value equals the
    scalar rng.uniform(lo, hi) call, which is lo + (hi - lo) * rng.random().
    """
    u = rng.random((k, 2))
    return params.c_max * u[:, 0], (2.0 * math.pi) * u[:, 1]


def init_users(xy: np.ndarray, params: MobilityParams,
               rng: np.random.Generator) -> Users:
    """Users at the dropped (n, 2) positions xy, each with a random velocity and full hold."""
    x, y = np.ascontiguousarray(xy.T, dtype=float)
    speed, direction = draw_velocities(params, rng, x.size)
    return Users(x, y, speed, direction, np.full(x.size, float(params.hold_time)),
                 np.cos(direction), np.sin(direction))


def _fold(v: float, lo: float, hi: float) -> Tuple[float, bool]:
    """v folded into [lo, hi] by mirror reflection, and whether it flipped."""
    flipped = False
    while v < lo or v > hi:
        v = 2 * lo - v if v < lo else 2 * hi - v
        flipped = not flipped
    return v, flipped


def _reflecting_walk(x, y, speed, direction, cos, sin, dts, area):
    """One user's (x, y, direction, cos, sin), as floats, after dts one at a time.

    math.atan2 mirrors the heading at a fold bit for bit as the scalar walk
    did (np.arctan2 can differ in the last place).
    """
    for dt in dts:
        v = speed * dt
        x, fx = _fold(x + v * cos, area.x_min, area.x_max)
        y, fy = _fold(y + v * sin, area.y_min, area.y_max)
        if fx or fy:
            dx, dy = math.cos(direction), math.sin(direction)
            direction = math.atan2(-dy if fy else dy, -dx if fx else dx) % (2.0 * math.pi)
            cos, sin = float(np.cos(direction)), float(np.sin(direction))
    return x, y, direction, cos, sin


def step(users: Users, dts, params: MobilityParams,
         area: ServiceArea, rng: np.random.Generator) -> Users:
    """Advance every user through the sequence of sub-steps dts (s) in order.

    Result and rng state are bit for bit those of one sub-step at a time:
    move by speed * dt along the cached heading, reflect at the edge,
    count the hold down, and redraw, in id order, where it expired. A segment
    ends where the smallest hold expires (rounding is monotone, so it expires
    first); in it each user adds one displacement per distinct dt. A straight
    walk that starts and ends inside the area never left it, so only users
    outside at either end are replayed one sub-step at a time.
    """
    if not all(dt > 0 for dt in dts):
        raise ConfigurationError("dt must be positive")
    x, y, hold, speed, direction, cos, sin = users.x, users.y, users.hold, *(
        a.copy() for a in (users.speed, users.direction, users.cos, users.sin))
    start = 0
    while start < len(dts) and len(users):
        h, end = float(hold.min()) - dts[start], start + 1
        while end < len(dts) and h > HOLD_EXPIRY_TOL:
            h -= dts[end]
            end += 1
        segment, x0, y0 = dts[start:end], x, y
        moves = {dt: (speed * dt * cos, speed * dt * sin) for dt in set(segment)}
        for dt in segment:
            x, y, hold = x + moves[dt][0], y + moves[dt][1], hold - dt
        out = (x0 < area.x_min) | (x0 > area.x_max) | (y0 < area.y_min) | (y0 > area.y_max) \
            | (x < area.x_min) | (x > area.x_max) | (y < area.y_min) | (y > area.y_max)
        for i in np.flatnonzero(out).tolist():
            x[i], y[i], direction[i], cos[i], sin[i] = _reflecting_walk(
                *(float(a[i]) for a in (x0, y0, speed, direction, cos, sin)), segment, area)
        redraw = np.flatnonzero(hold <= HOLD_EXPIRY_TOL)  # rng.random((0, 2)) draws nothing
        speed[redraw], direction[redraw] = draw_velocities(params, rng, redraw.size)
        hold[redraw] = params.hold_time
        cos[redraw], sin[redraw] = np.cos(direction[redraw]), np.sin(direction[redraw])
        start = end
    return Users(x, y, speed, direction, hold, cos, sin)
