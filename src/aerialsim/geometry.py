"""Geometric primitives and the square service area."""

from __future__ import annotations

from dataclasses import dataclass

MAX_LENGTH = 1e6  # m, on any coordinate or height, so squared distances stay finite


class ConfigurationError(ValueError):
    """Raised for invalid scenario / layout configuration."""


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
    """Square 2D service region centred on the origin, plus the aerial altitude band."""

    side: float
    h_min: float
    h_max: float

    def __post_init__(self):
        if not self.half > 0.0:
            raise ConfigurationError("service area must have positive extent")
        if max(self.half, self.h_max) > MAX_LENGTH:
            raise ConfigurationError(f"service area must lie within {MAX_LENGTH:g} m of 0")
        if not (0.0 < self.h_min < self.h_max):
            raise ConfigurationError("altitude band must satisfy 0 < h_min < h_max")

    @property
    def half(self) -> float:
        """Each coordinate of the area lies in [-half, half]."""
        return self.side / 2.0
