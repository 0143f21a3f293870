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


def _ground_power(state: NetworkState, xy: np.ndarray) -> np.ndarray:
    """Linear received power (mW) from each active ground BS, (n_users, n_active)."""
    cols = []
    for bs in state.ground_bs:
        if not bs.active:
            continue
        d = np.sqrt((xy[:, 0] - bs.pos.x) ** 2 + (xy[:, 1] - bs.pos.y) ** 2
                    + bs.pos.h ** 2)
        cols.append(dbm_to_mw(bs.tx_power - ground_pathloss_d(d, state.radio)))
    if not cols:
        return np.empty((xy.shape[0], 0))
    return np.column_stack(cols)


def _horizontal_distance(xy: np.ndarray, x, y) -> np.ndarray:
    """Horizontal distance from each user to (x, y); scalars or (n, 1) arrays."""
    return np.hypot(xy[:, 0] - x, xy[:, 1] - y)


def _aerial_power(state: NetworkState, h, l) -> np.ndarray:
    """Linear received power (mW) from the aerial at altitude h, horizontal distance l."""
    pl = atg_pathloss_hl(h, l, state.env, state.radio)
    return dbm_to_mw(state.aerial_tx_power - pl)


def sinr_matrix(state: NetworkState) -> np.ndarray:
    """Linear SINR per (user, candidate serving BS) under full-buffer reuse-1.

    Column order matches active_bs_ids: active ground BSs first, aerial
    last. A user's total received power is the sum of its ground columns
    first, then plus its aerial column; qos_map forms it the same way, so
    the two agree bit for bit whatever the number of servers.
    """
    xy = user_xy(state)
    p = _ground_power(state, xy)
    total = p.sum(axis=1)
    if state.aerial_pos is not None:
        ap = state.aerial_pos
        a = _aerial_power(state, ap.h, _horizontal_distance(xy, ap.x, ap.y))
        total = total + a
        p = np.column_stack([p, a])
    if p.shape[1] == 0:
        raise ValueError("network has no active base station")
    noise_mw = dbm_to_mw(state.radio.noise_power)
    return p / (noise_mw + total[:, None] - p)


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


# Bytes of the (states, users) aerial-power block that qos_map holds per
# chunk of grid states; its few temporaries of that size stay in cache.
QOS_MAP_CHUNK_BYTES = 256 * 1024


def qos_map_chunk(n_users: int) -> int:
    """Grid states per qos_map chunk (at least one).

    qos_map rounds this down to whole (x, y) columns, at least one column.
    """
    return max(1, QOS_MAP_CHUNK_BYTES // (8 * n_users))


def qos_map(snapshot: NetworkState, grid: PlacementGrid) -> np.ndarray:
    """Aggregate QoS with the aerial at every grid state, indexed by state.

    Each value is bit-identical to aggregate_qos with the aerial at that
    state (snapshot.aerial_pos is ignored). Under full-buffer reuse-1 a
    server's SINR p / (noise + total - p) rises with its power p, and
    rounding keeps that order, so the largest SINR is the strongest
    server's; ties do not change the value. Hence per user the ground sum
    and the ground maximum are computed once, and per state only the aerial
    column: the cost is states x users, not states x users x servers. The
    total is the ground sum plus the aerial, as in sinr_matrix. States go
    in chunks of whole (x, y) columns, and the horizontal user distance is
    computed once per column and shared by its heights.
    """
    xy = user_xy(snapshot)
    n_users = xy.shape[0]
    out = np.zeros(grid.n_states)
    if n_users == 0:
        return out
    ground = _ground_power(snapshot, xy)
    ground_sum = ground.sum(axis=1)
    ground_max = ground.max(axis=1, initial=0.0)  # 0: no site, the aerial wins
    noise_mw = dbm_to_mw(snapshot.radio.noise_power)
    n_cols, n_h = grid.n_x * grid.n_y, grid.n_h
    ix, iy = np.unravel_index(np.arange(n_cols), (grid.n_x, grid.n_y))
    xs, ys = grid.xs[ix, None], grid.ys[iy, None]
    hs = grid.hs[:, None]

    cols_per_chunk = max(1, qos_map_chunk(n_users) // n_h)
    for lo in range(0, n_cols, cols_per_chunk):
        hi = min(lo + cols_per_chunk, n_cols)
        l = _horizontal_distance(xy, xs[lo:hi], ys[lo:hi])
        a = _aerial_power(snapshot, hs, l[:, None, :]).reshape(-1, n_users)
        best = np.maximum(ground_max, a)
        s = best / (noise_mw + (ground_sum + a) - best)
        out[lo * n_h:hi * n_h] = throughput(s).sum(axis=-1)
    return out
