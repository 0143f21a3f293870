"""Air-to-ground and terrestrial path loss models.

All functions accept scalars or numpy arrays and return matching shapes, so
the single-link operations and the vectorized network evaluation share one
code path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import DegenerateGeometryError

SPEED_OF_LIGHT = 299_792_458.0  # m/s


@dataclass(frozen=True)
class AtgEnvironment:
    """Sigmoid LoS-probability constants and excess losses for one environment.

    ``literal_los_exponent`` switches the LoS sigmoid exponent from the cited
    model family exp(-zeta*(theta_deg - kappa)) to the literal rendering
    exp(-zeta*theta_deg - kappa); the former is the default.
    """

    kappa: float = 9.61
    zeta: float = 0.16          # per degree
    eta_los: float = 1.0        # dB
    eta_nlos: float = 20.0      # dB
    literal_los_exponent: bool = False

    def __post_init__(self):
        if self.kappa <= 0 or self.zeta <= 0:
            raise ValueError("kappa and zeta must be positive")
        if not 0 <= self.eta_los <= self.eta_nlos:
            raise ValueError("need eta_nlos >= eta_los >= 0")
        if self.zeta * self.kappa + max(0.0, math.log(self.kappa)) > 700.0:
            raise ValueError("zeta * kappa too large: p_los's kappa * exp term overflows")


URBAN = AtgEnvironment()


@dataclass(frozen=True)
class RadioParams:
    carrier_freq: float = 2.0e9          # Hz
    noise_power: float = -104.0          # dBm (10 MHz thermal + 7 dB NF)
    ground_pathloss_exponent: float = 3.5
    ground_ref_loss: float = 38.4        # dB at 1 m

    def __post_init__(self):
        if self.carrier_freq <= 0:
            raise ValueError("carrier frequency must be positive")
        if not math.isfinite(self.noise_power):
            raise ValueError("noise power must be finite")
        if not self.ground_pathloss_exponent > 0:
            raise ValueError("ground path-loss exponent must be positive")


def elevation_angle(h, l):
    """Elevation angle arctan(h/l) in radians; pi/2 when directly overhead."""
    return np.arctan2(h, l)


def p_los(theta, env: AtgEnvironment):
    """LoS probability as a sigmoid in the elevation angle (radians)."""
    theta_deg = np.degrees(theta)
    if env.literal_los_exponent:
        exponent = -env.zeta * theta_deg - env.kappa
    else:
        exponent = -env.zeta * (theta_deg - env.kappa)
    return 1.0 / (1.0 + env.kappa * np.exp(exponent))


def free_space_pathloss(d, carrier_freq):
    return 20.0 * np.log10(4.0 * np.pi * carrier_freq * d / SPEED_OF_LIGHT)


def atg_pathloss_hl(h, l, env: AtgEnvironment, radio: RadioParams):
    """Air-to-ground path loss (dB) from altitude h and horizontal distance l."""
    d = np.hypot(h, l)
    if np.any(d <= 0):
        raise DegenerateGeometryError("air-to-ground distance must be positive")
    p = p_los(elevation_angle(h, l), env)
    return free_space_pathloss(d, radio.carrier_freq) \
        + p * env.eta_los + (1.0 - p) * env.eta_nlos


def atg_pathloss(aerial, user, env: AtgEnvironment, radio: RadioParams):
    l = np.hypot(aerial.x - user.x, aerial.y - user.y)
    return atg_pathloss_hl(aerial.h, l, env, radio)


def ground_pathloss_d(d, radio: RadioParams):
    """Log-distance terrestrial path loss (dB) at 3D distance d meters."""
    if np.any(d <= 0):
        raise DegenerateGeometryError("link distance must be positive")
    return radio.ground_ref_loss + 10.0 * radio.ground_pathloss_exponent * np.log10(d)


def ground_pathloss(bs, user, radio: RadioParams):
    d = np.sqrt((bs.pos.x - user.x) ** 2 + (bs.pos.y - user.y) ** 2 + bs.pos.h ** 2)
    return ground_pathloss_d(d, radio)


def dbm_to_mw(dbm):
    return np.power(10.0, np.asarray(dbm, dtype=float) / 10.0)
