"""Air-to-ground and terrestrial path loss models.

All functions accept scalars or numpy arrays and return matching shapes, so
the single-link operations and the vectorized network evaluation share one
code path. Given ``out``, they compute into that array by the same operations.
Given ``work``, they keep their intermediates in its arrays; dbm_to_mw keeps
the base of its power there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import MAX_LENGTH, ConfigurationError

SPEED_OF_LIGHT = 299_792_458.0  # m/s
# The shortest and longest link distances an area can hold: any positive
# distance, and the diagonal of a box within MAX_LENGTH of 0 on x, y and h.
LINK_DISTANCE_RANGE = (5e-324, 3.0 * MAX_LENGTH)  # m


@dataclass(frozen=True)
class AtgEnvironment:
    """Sigmoid LoS-probability constants and excess losses for one environment."""

    kappa: float = 9.61
    zeta: float = 0.16          # per degree
    eta_los: float = 1.0        # dB
    eta_nlos: float = 20.0      # dB

    def __post_init__(self):
        if self.kappa <= 0 or self.zeta <= 0:
            raise ConfigurationError("kappa and zeta must be positive")
        if not 0 <= self.eta_los <= self.eta_nlos:
            raise ConfigurationError("need eta_nlos >= eta_los >= 0")
        if self.zeta * self.kappa + max(0.0, math.log(self.kappa)) > 700.0:
            raise ConfigurationError(
                "zeta * kappa too large: p_los's kappa * exp term overflows")


@dataclass(frozen=True)
class RadioParams:
    carrier_freq: float = 2.0e9          # Hz
    noise_power: float = -104.0          # dBm (10 MHz thermal + 7 dB NF)
    ground_pathloss_exponent: float = 3.5
    ground_ref_loss: float = 38.4        # dB at 1 m

    def __post_init__(self):
        # The free-space ratio 4*pi*f*d/c is monotone in d, and so is its
        # rounding: it is a positive finite float at every link distance if
        # it is one at both ends.
        with np.errstate(all="ignore"):
            ratio = 4.0 * np.pi * self.carrier_freq * np.array(LINK_DISTANCE_RANGE) \
                / SPEED_OF_LIGHT
        if not np.all((0 < ratio) & (ratio < np.inf)):
            raise ConfigurationError(
                f"carrier frequency {self.carrier_freq!r} Hz must keep 4*pi*f*d/c a "
                f"positive finite float for every link distance d from "
                f"{LINK_DISTANCE_RANGE[0]!r} to {LINK_DISTANCE_RANGE[1]:g} m")
        if not self.ground_pathloss_exponent > 0:
            raise ConfigurationError("ground path-loss exponent must be positive")


def p_los(theta, env: AtgEnvironment, out=None):
    """LoS probability 1 / (1 + kappa * exp(-zeta * (theta_deg - kappa))), theta in rad."""
    t = np.degrees(theta, out=out)
    t -= env.kappa
    t *= -env.zeta
    t = np.exp(t, out=out)
    t *= env.kappa
    t += 1.0
    return np.divide(1.0, t, out=out)


def free_space_pathloss(d, carrier_freq, out=None):
    ratio = np.multiply(4.0 * np.pi * carrier_freq, d, out=out)
    ratio /= SPEED_OF_LIGHT
    return np.multiply(20.0, np.log10(ratio, out=out), out=out)


def atg_pathloss_hl(h, l, env: AtgEnvironment, radio: RadioParams, out=None, work=None):
    """Air-to-ground path loss (dB) from altitude h > 0 and horizontal distance l.

    work, if given, holds two more arrays of out's shape.
    """
    d = np.hypot(h, l, out=out)
    w_p, w_t = work or (None, None)
    p = p_los(np.arctan2(h, l, out=w_p), env, out=w_p)  # elevation angle, pi/2 overhead
    pl = free_space_pathloss(d, radio.carrier_freq, out=out)
    pl += np.multiply(p, env.eta_los, out=w_t)
    p = np.subtract(1.0, p, out=w_p)
    p *= env.eta_nlos
    pl += p
    return pl


def ground_pathloss_d(d, radio: RadioParams, out=None):
    """Log-distance terrestrial path loss (dB) at 3D distance d > 0 meters."""
    pl = np.log10(d, out=out)
    pl *= 10.0 * radio.ground_pathloss_exponent
    pl += radio.ground_ref_loss
    return pl


def dbm_to_mw(dbm, out=None, work=None):
    """10 ** (dbm / 10) mW.

    work, if given, is an array of dbm's shape that shares no memory with dbm
    or out; it is filled with 10.0 and is the base of the power. numpy's SIMD
    power loop gives the scalar base's bits on an array base at about half
    the cost (a scalar reaches it as a stride-0 operand), provided work and
    out step through memory the same way: with one forwards and one
    backwards, that loop does not run.
    """
    x = np.divide(np.asarray(dbm, dtype=float), 10.0, out=out)
    if work is None:
        return np.power(10.0, x, out=out)
    work.fill(10.0)
    return np.power(work, x, out=out)
