"""Geometric primitives and the service-area box."""

from __future__ import annotations

from dataclasses import dataclass

MAX_LENGTH = 1e6  # m, on any coordinate or height, so squared distances stay finite
# contains_2d accepts a point this far outside the box, for rounding at its edge.
CONTAINS_TOL = 1e-9  # m


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


@dataclass(frozen=True)
class ServiceArea:
    """2D service region plus the permitted aerial altitude band."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    h_min: float
    h_max: float

    def __post_init__(self):
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ConfigurationError("service area must have positive extent")
        if max(-self.x_min, self.x_max, -self.y_min, self.y_max, self.h_max) > MAX_LENGTH:
            raise ConfigurationError(f"service area must lie within {MAX_LENGTH:g} m of 0")
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

    def contains_2d(self, p) -> bool:
        return (self.x_min - CONTAINS_TOL <= p.x <= self.x_max + CONTAINS_TOL
                and self.y_min - CONTAINS_TOL <= p.y <= self.y_max + CONTAINS_TOL)


def square_area(side: float, h_min: float, h_max: float) -> ServiceArea:
    """Square service area of the given side length centered on the origin."""
    half = side / 2.0
    return ServiceArea(-half, half, -half, half, h_min, h_max)
