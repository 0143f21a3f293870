"""Per-user SINR under max-SINR association, throughput, and the aggregate QoS."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .channel import (AtgEnvironment, RadioParams, atg_pathloss_hl, dbm_to_mw,
                      ground_pathloss_d)
from .deployment import GroundBS, PlacementGrid
from .geometry import Position3D
from .mobility import Users


@dataclass(frozen=True, eq=False)
class NetworkState:
    """One instant of the network: sites, users, and radio parameters."""

    ground_bs: Sequence[GroundBS]
    users: Users
    env: AtgEnvironment
    radio: RadioParams
    aerial_tx_power: float  # dBm
    aerial_pos: Optional[Position3D] = None


def _ground_power(state: NetworkState, users: Users) -> np.ndarray:
    """Linear received power (mW) from each active ground BS, (n_active, n_users).

    One sites x users broadcast, so the path loss is a single call and the
    long user axis is the inner one. Each site's h ** 2 is a scalar power
    (C pow), as in the per-site form; an array's ** 2 is h * h, which can
    differ in the last place. Each step of
    tx - pl(sqrt((x - ux) ** 2 + (y - uy) ** 2 + h ** 2)) writes into one of
    two sites x users arrays, by the same operations in the same order; the
    second is the power's base once it is free.
    """
    site = np.array([(bs.pos.x, bs.pos.y, bs.pos.h ** 2, bs.tx_power)
                     for bs in state.ground_bs if bs.active]).reshape(-1, 4)[:, :, None]
    d = np.subtract(site[:, 0], users.x)
    np.square(d, out=d)
    dy = np.subtract(site[:, 1], users.y)
    d += np.square(dy, out=dy)
    d += site[:, 2]
    pl = ground_pathloss_d(np.sqrt(d, out=d), state.radio, out=d)
    return dbm_to_mw(np.subtract(site[:, 3], pl, out=pl), out=pl, work=dy)


def _ground_totals(state: NetworkState, users: Users):
    """Each user's summed and strongest ground power (mW); strongest 0.0 with no site.

    The sum runs over the rows of a C-contiguous users x sites copy: numpy
    adds along a contiguous axis in pairwise order, the order the reference
    sums are held to. A maximum is exact in any order, so it reads the
    site-major powers directly.
    """
    p = _ground_power(state, users)
    return np.ascontiguousarray(p.T).sum(axis=1), p.max(axis=0, initial=0.0)


def _aerial_power(state: NetworkState, h, l, out=None, work=None) -> np.ndarray:
    """Linear received power (mW) from the aerial at altitude h, horizontal distance l."""
    pl = atg_pathloss_hl(h, l, state.env, state.radio, out=out, work=work)
    return dbm_to_mw(np.subtract(state.aerial_tx_power, pl, out=out), out=out,
                     work=work and work[0])


def _strongest_sinr(noise_mw, ground_sum, ground_max, aerial, out=None, work=None):
    """Per-user SINR of the strongest server, with aerial = 0.0 when there is none.

    Under full-buffer reuse-1 a server's SINR p / (noise + total - p) rises
    with its power p, and rounding keeps that order, so the max-SINR server
    is the strongest one; ties do not change the value. The total is the
    ground sum, then plus the aerial. With no aerial, adding 0.0 and taking
    the maximum with 0.0 change no bit. work, if given, is an array of out's
    shape for the strongest power.
    """
    best = np.maximum(ground_max, aerial, out=work)
    total = np.add(ground_sum, aerial, out=out)
    total += noise_mw
    total -= best
    return np.divide(best, total, out=out)


def throughput(sinr_linear, out=None):
    return np.log2(np.add(1.0, sinr_linear, out=out), out=out)


def link_report(state: NetworkState) -> Tuple[np.ndarray, np.ndarray]:
    """Each user's linear SINR (0 with no server) and throughput (bits/s/Hz) under
    max-SINR association."""
    users = state.users
    ground_sum, ground_max = _ground_totals(state, users)
    if state.aerial_pos is not None:
        ap = state.aerial_pos
        aerial = _aerial_power(state, ap.h, np.hypot(users.x - ap.x, users.y - ap.y))
    else:
        aerial = 0.0
    s = _strongest_sinr(dbm_to_mw(state.radio.noise_power), ground_sum, ground_max,
                        aerial)
    return s, throughput(s)


def aggregate_qos(state: NetworkState) -> float:
    """Sum of per-user spectral efficiency under max-SINR association."""
    return float(link_report(state)[1].sum())


# Bytes of one of the three (states, users) working arrays in which qos_map
# evaluates each chunk of grid states; they stay in cache.
QOS_MAP_CHUNK_BYTES = 256 * 1024


def qos_map_chunk(n_users: int) -> int:
    """Grid states per qos_map chunk (at least one).

    qos_map rounds this down to whole (x, y) columns, at least one column.
    """
    return max(1, QOS_MAP_CHUNK_BYTES // (8 * n_users))


def qos_map(snapshot: NetworkState, grid: PlacementGrid) -> np.ndarray:
    """Aggregate QoS with the aerial at every grid state, indexed by state.

    Each value is bit-identical to aggregate_qos with the aerial at that
    state (snapshot.aerial_pos is ignored): both take the strongest
    server's SINR from each user's ground sum and ground maximum, which
    the map computes once, so per state only the aerial column is new and
    the cost is states x users. States go in chunks of whole (x, y)
    columns, and the horizontal user distance is computed once per column
    and shared by its heights. Chunks are computed in three working arrays.
    """
    users = snapshot.users
    n_users = len(users)
    qos = np.zeros(grid.n_states)
    if n_users == 0:
        return qos
    ground_sum, ground_max = _ground_totals(snapshot, users)  # max 0: the aerial wins
    noise_mw = dbm_to_mw(snapshot.radio.noise_power)
    n_cols, n_h = grid.n_x * grid.n_y, grid.n_h
    ix, iy = np.unravel_index(np.arange(n_cols), (grid.n_x, grid.n_y))
    xs, ys = grid.xs[ix, None], grid.ys[iy, None]
    hs = grid.hs[:, None]

    cols_per_chunk = min(n_cols, max(1, qos_map_chunk(n_users) // n_h))
    work = np.empty((3, cols_per_chunk, n_h, n_users))
    for lo in range(0, n_cols, cols_per_chunk):
        hi = min(lo + cols_per_chunk, n_cols)
        a, b, c = work[:, :hi - lo]
        l = np.hypot(users.x - xs[lo:hi], users.y - ys[lo:hi])
        _aerial_power(snapshot, hs, l[:, None, :], out=a, work=(b, c))
        s = _strongest_sinr(noise_mw, ground_sum, ground_max, a, out=b, work=c)
        throughput(s, out=s).sum(axis=-1, out=qos[lo * n_h:hi * n_h].reshape(hi - lo, n_h))
    return qos
