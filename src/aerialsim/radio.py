"""SINR, max-SINR association, throughput, and the aggregate QoS objective."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .channel import (AtgEnvironment, RadioParams, atg_pathloss_hl, dbm_to_mw,
                      ground_pathloss_d)
from .deployment import GroundBS, PlacementGrid
from .geometry import Position3D
from .mobility import Users

AERIAL_ID = -1  # BS identifier reserved for the aerial station
DEFAULT_AERIAL_TX_DBM = 36.0


@dataclass(frozen=True)
class NetworkState:
    """One instant of the network: sites, users, and radio parameters."""

    ground_bs: Sequence[GroundBS]
    users: Sequence  # mobility.Users, or a sequence of User or bare Position2D
    env: AtgEnvironment
    radio: RadioParams
    aerial_pos: Optional[Position3D] = None
    aerial_tx_power: float = DEFAULT_AERIAL_TX_DBM


@dataclass(frozen=True)
class AssociationMap:
    """Per-user serving BS id (ground id, or AERIAL_ID for the aerial)."""

    assign: List[int]


@dataclass(frozen=True)
class LinkReport:
    serving: List[int]
    sinr: np.ndarray        # linear, per user
    throughput: np.ndarray  # bits/s/Hz, per user


def user_xy(state: NetworkState) -> np.ndarray:
    if isinstance(state.users, Users):
        return state.users.xy
    pts = [getattr(u, "pos", u) for u in state.users]
    if not pts:
        return np.empty((0, 2))
    return np.array([[p.x, p.y] for p in pts], dtype=float)


def active_bs_ids(state: NetworkState) -> List[int]:
    ids = [bs.id for bs in state.ground_bs if bs.active]
    if state.aerial_pos is not None:
        ids.append(AERIAL_ID)
    return ids


def _ground_columns(state: NetworkState, xy: np.ndarray) -> List[np.ndarray]:
    """Linear received power (mW) from each active ground BS, one array each."""
    cols = []
    for bs in state.ground_bs:
        if not bs.active:
            continue
        d = np.sqrt((xy[:, 0] - bs.pos.x) ** 2 + (xy[:, 1] - bs.pos.y) ** 2
                    + bs.pos.h ** 2)
        cols.append(dbm_to_mw(bs.tx_power - ground_pathloss_d(d, state.radio)))
    return cols


def _aerial_column(state: NetworkState, xy: np.ndarray, x, y, h) -> np.ndarray:
    """Linear received power (mW) from the aerial at (x, y, h).

    x, y and h are scalars, or (n_states, 1) arrays that give one row of
    users per aerial position.
    """
    l = np.hypot(xy[:, 0] - x, xy[:, 1] - y)
    pl = atg_pathloss_hl(h, l, state.env, state.radio)
    return dbm_to_mw(state.aerial_tx_power - pl)


def received_power_matrix(state: NetworkState) -> np.ndarray:
    """Linear received power (mW), shape (n_users, n_active_bs).

    Column order matches active_bs_ids: active ground BSs first, aerial last.
    """
    xy = user_xy(state)
    cols = _ground_columns(state, xy)
    if state.aerial_pos is not None:
        ap = state.aerial_pos
        cols.append(_aerial_column(state, xy, ap.x, ap.y, ap.h))
    if not cols:
        raise ValueError("network has no active base station")
    return np.column_stack(cols)


def sinr_matrix(state: NetworkState) -> np.ndarray:
    """Linear SINR per (user, candidate serving BS) under full-buffer reuse-1."""
    p = received_power_matrix(state)
    noise_mw = dbm_to_mw(state.radio.noise_power)
    total = p.sum(axis=1, keepdims=True)
    return p / (noise_mw + total - p)


def sinr(user, serving: int, state: NetworkState) -> float:
    """SINR of a single user served by the given BS id."""
    probe = NetworkState(ground_bs=state.ground_bs, users=[user], env=state.env,
                         radio=state.radio, aerial_pos=state.aerial_pos,
                         aerial_tx_power=state.aerial_tx_power)
    ids = active_bs_ids(probe)
    if serving not in ids:
        raise ValueError(f"serving BS {serving} is not active")
    return float(sinr_matrix(probe)[0, ids.index(serving)])


def _best_columns(ids: List[int], s: np.ndarray) -> np.ndarray:
    """Per user, the column of s of the SINR-maximizing BS; ties to the lowest id."""
    # Column order is ascending ground id then aerial; reorder so argmax's
    # first-max rule breaks ties toward the lowest BS index (aerial id -1 first).
    order = np.argsort(np.array(ids), kind="stable")
    return order[np.argmax(s[:, order], axis=1)]


def associate_max_sinr(state: NetworkState) -> AssociationMap:
    """Each user picks the SINR-maximizing BS; ties go to the lowest BS index."""
    ids = active_bs_ids(state)
    best = _best_columns(ids, sinr_matrix(state))
    return AssociationMap(assign=np.asarray(ids)[best].tolist())


def throughput(sinr_linear) -> float:
    return np.log2(1.0 + sinr_linear)


def link_report(state: NetworkState) -> LinkReport:
    """Max-SINR association and each user's SINR and throughput, from one SINR matrix."""
    ids = active_bs_ids(state)
    s = sinr_matrix(state)
    best = _best_columns(ids, s)
    per_user = s[np.arange(best.size), best]
    return LinkReport(serving=np.asarray(ids)[best].tolist(), sinr=per_user,
                      throughput=throughput(per_user))


def aggregate_qos(state: NetworkState) -> float:
    """Sum of per-user spectral efficiency under max-SINR association."""
    if not state.users:
        return 0.0
    return float(link_report(state).throughput.sum())


# Bytes of the (states, users, servers) received-power block that qos_map
# holds per chunk of grid states; a few such blocks stay in cache.
QOS_MAP_CHUNK_BYTES = 256 * 1024


def qos_map_chunk(n_users: int, n_servers: int) -> int:
    """Grid states per qos_map chunk (at least one)."""
    return max(1, QOS_MAP_CHUNK_BYTES // (8 * n_users * n_servers))


def qos_map(snapshot: NetworkState, grid: PlacementGrid) -> np.ndarray:
    """Aggregate QoS with the aerial at every grid state, indexed by state.

    Each value is bit-identical to aggregate_qos with the aerial at that
    state (snapshot.aerial_pos is ignored). The ground columns are computed
    once; per chunk of states the aerial column goes last in a
    (states, users, servers) power block, and the block goes through the
    same reductions as in aggregate_qos, each along a contiguous last axis
    of the same length, so numpy sums in the same order. The max SINR value
    is the one the max-SINR association picks; ties do not change it.
    """
    xy = user_xy(snapshot)
    n_users = xy.shape[0]
    out = np.zeros(grid.n_states)
    if n_users == 0:
        return out
    ground = _ground_columns(snapshot, xy)
    n_ground = len(ground)
    noise_mw = dbm_to_mw(snapshot.radio.noise_power)
    ix, iy, ih = np.unravel_index(np.arange(grid.n_states),
                                  (grid.n_x, grid.n_y, grid.n_h))
    xs, ys, hs = grid.xs[ix, None], grid.ys[iy, None], grid.hs[ih, None]

    chunk = qos_map_chunk(n_users, n_ground + 1)
    power = np.empty((min(chunk, grid.n_states), n_users, n_ground + 1))
    if ground:
        power[:, :, :n_ground] = np.column_stack(ground)
    for lo in range(0, grid.n_states, chunk):
        hi = min(lo + chunk, grid.n_states)
        p = power[:hi - lo]
        p[:, :, n_ground] = _aerial_column(snapshot, xy, xs[lo:hi], ys[lo:hi],
                                           hs[lo:hi])
        total = p.sum(axis=-1, keepdims=True)
        s = p / (noise_mw + total - p)
        out[lo:hi] = throughput(s.max(axis=-1)).sum(axis=-1)
    return out
