"""Random walk user mobility with hold intervals."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

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
    """One user's state, as read from a Users record."""

    id: int
    pos: Position2D
    speed: float
    direction: float       # radians, [0, 2*pi)
    hold_remaining: float  # s


@dataclass(frozen=True, eq=False)
class Users:
    """Every user's state as float arrays indexed by user id.

    cos and sin hold np.cos and np.sin of direction, computed here when not
    given. step shares every array it does not change with the Users it
    returns, so no array of a Users is ever written to.
    """

    x: np.ndarray
    y: np.ndarray
    speed: np.ndarray
    direction: np.ndarray  # radians, [0, 2*pi)
    hold: np.ndarray       # s until the next (speed, direction) redraw
    cos: Optional[np.ndarray] = None
    sin: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.cos is None:
            object.__setattr__(self, "cos", np.cos(self.direction))
        if self.sin is None:
            object.__setattr__(self, "sin", np.sin(self.direction))

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

    def __iter__(self) -> Iterator[User]:
        return (self[i] for i in range(len(self)))


def draw_velocities(params: MobilityParams, rng: np.random.Generator,
                    k: int) -> Tuple[np.ndarray, np.ndarray]:
    """k (speed, direction) pairs, uniform on [0, c_max) x [0, 2*pi).

    Pair i takes draws 2i and 2i+1 of the stream; each value equals the
    scalar rng.uniform(lo, hi) call, which is lo + (hi - lo) * rng.random().
    """
    u = rng.random((k, 2))
    return params.c_max * u[:, 0], (2.0 * math.pi) * u[:, 1]


def draw_velocity(params: MobilityParams, rng: np.random.Generator):
    speed, direction = draw_velocities(params, rng, 1)
    return float(speed[0]), float(direction[0])


def init_users(positions: List[Position2D], params: MobilityParams,
               rng: np.random.Generator) -> Users:
    """Assign each dropped position an initial random velocity and full hold."""
    speed, direction = draw_velocities(params, rng, len(positions))
    return Users(x=np.array([p.x for p in positions], dtype=float),
                 y=np.array([p.y for p in positions], dtype=float),
                 speed=speed, direction=direction,
                 hold=np.full(len(positions), float(params.hold_time)))


def _fold(v: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Fold v into [lo, hi] by mirror reflection, in place; True where it flipped."""
    flipped = np.zeros(v.shape, dtype=bool)
    out = (v < lo) | (v > hi)
    while out.any():
        v[:] = np.where(v < lo, 2 * lo - v, np.where(v > hi, 2 * hi - v, v))
        flipped ^= out
        out = (v < lo) | (v > hi)
    return flipped


def step(users: Users, dt: float, params: MobilityParams,
         area: ServiceArea, rng: np.random.Generator) -> Users:
    """Advance every user by dt seconds; redraw velocity when the hold expires.

    Users whose hold expires draw a new (speed, direction) pair in id order.
    Only the users that reflect or redraw get a new cos and sin.
    """
    if dt <= 0:
        raise ConfigurationError("dt must be positive")
    v = users.speed * dt
    x = users.x + v * users.cos
    y = users.y + v * users.sin
    speed, direction = users.speed, users.direction
    turned = []  # ids whose direction changed, as index arrays
    if params.boundary_policy == "wrap":
        x = area.x_min + (x - area.x_min) % area.width
        y = area.y_min + (y - area.y_min) % area.height
    elif x.size and (x.min() < area.x_min or x.max() > area.x_max
                     or y.min() < area.y_min or y.max() > area.y_max):
        fx = _fold(x, area.x_min, area.x_max)
        fy = _fold(y, area.y_min, area.y_max)
        reflected = np.flatnonzero(fx | fy)
        direction = direction.copy()
        # Few users reflect in a step. math.atan2 gives their new direction
        # bit for bit as the scalar walk did; np.arctan2 can differ in the
        # last place.
        for i in reflected.tolist():
            dx, dy = math.cos(direction[i]), math.sin(direction[i])
            if fx[i]:
                dx = -dx
            if fy[i]:
                dy = -dy
            direction[i] = math.atan2(dy, dx) % (2.0 * math.pi)
        turned.append(reflected)
    hold = users.hold - dt
    redraw = np.flatnonzero(hold <= 1e-12)
    if redraw.size:  # rng.random((0, 2)) draws nothing, so skipping keeps the stream
        speed = speed.copy()
        if direction is users.direction:
            direction = direction.copy()
        speed[redraw], direction[redraw] = draw_velocities(params, rng, redraw.size)
        hold[redraw] = params.hold_time
        turned.append(redraw)
    cos, sin = users.cos, users.sin
    if turned:
        ids = np.concatenate(turned)
        cos, sin = cos.copy(), sin.copy()
        cos[ids] = np.cos(direction[ids])
        sin[ids] = np.sin(direction[ids])
    return Users(x=x, y=y, speed=speed, direction=direction, hold=hold,
                 cos=cos, sin=sin)
