"""Geometric primitives and the service-area box."""

from __future__ import annotations

import math
from dataclasses import dataclass


class ConfigurationError(ValueError):
    """Raised for invalid scenario / layout configuration."""


class DegenerateGeometryError(ValueError):
    """Raised when a link distance collapses to zero."""


@dataclass(frozen=True)
class Position2D:
    x: float
    y: float


@dataclass(frozen=True)
class Position3D:
    x: float
    y: float
    h: float


def horizontal_distance(a, b) -> float:
    return math.hypot(a.x - b.x, a.y - b.y)


def distance_3d(a: Position3D, b) -> float:
    """3D distance; ``b`` may be a Position2D (ground level) or Position3D."""
    bh = getattr(b, "h", 0.0)
    return math.sqrt((a.x - b.x) ** 2 + (a.y - b.y) ** 2 + (a.h - bh) ** 2)


@dataclass(frozen=True)
class ServiceArea:
    """2D service region plus the permitted aerial altitude band."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    h_min: float = 25.0
    h_max: float = 525.0

    def __post_init__(self):
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ConfigurationError("service area must have positive extent")
        if not (0.0 < self.h_min < self.h_max):
            raise ConfigurationError("altitude band must satisfy 0 < h_min < h_max")

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> Position2D:
        return Position2D((self.x_min + self.x_max) / 2.0,
                          (self.y_min + self.y_max) / 2.0)

    def contains_2d(self, p, tol: float = 1e-9) -> bool:
        return (self.x_min - tol <= p.x <= self.x_max + tol
                and self.y_min - tol <= p.y <= self.y_max + tol)


def square_area(side: float, h_min: float = 25.0, h_max: float = 525.0) -> ServiceArea:
    """Square service area of the given side length centered on the origin."""
    half = side / 2.0
    return ServiceArea(-half, half, -half, half, h_min, h_max)
