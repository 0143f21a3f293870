"""Naive references that aerialsim's fast paths are held to.

aerialsim.radio takes each user's SINR straight from its strongest server.
This module computes it the long way: the received power one ground site at
a time, the full (users x servers) SINR matrix, and max-SINR association by
an argmax over every server, ties to the lowest BS id.

aerialsim.placement runs the learner on flat tables of Python scalars. This
module keeps it as single steps on the QTable: an epsilon-greedy choice, a
clamped move on the grid, the QoS difference as reward, one
temporal-difference backup, and the greedy rollout.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional

import numpy as np

from aerialsim.channel import dbm_to_mw, ground_pathloss_d
from aerialsim.deployment import PlacementGrid
from aerialsim.geometry import ConfigurationError
from aerialsim.placement import N_ACTIONS, Action, QTable
from aerialsim.radio import (NetworkState, _aerial_power, _horizontal_distance,
                             throughput)
from tests.conftest import users_at

AERIAL_ID = -1  # BS identifier reserved for the aerial station


@dataclass(frozen=True)
class AssociationMap:
    """Per-user serving BS id (ground id, or AERIAL_ID for the aerial)."""

    assign: List[int]


def active_bs_ids(state: NetworkState) -> List[int]:
    ids = [bs.id for bs in state.ground_bs if bs.active]
    if state.aerial_pos is not None:
        ids.append(AERIAL_ID)
    return ids


def ground_power(state: NetworkState, xy: np.ndarray) -> np.ndarray:
    """Linear received power (mW) from each active ground BS, one site at a time."""
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


def sinr_matrix(state: NetworkState) -> np.ndarray:
    """Linear SINR per (user, candidate serving BS) under full-buffer reuse-1.

    Column order matches active_bs_ids: active ground BSs first, aerial
    last. A user's total received power is the sum of its ground columns,
    then plus its aerial column.
    """
    xy = state.users.xy
    p = ground_power(state, xy)
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
    probe = replace(state, users=users_at([user]))
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


def served_sinr(state: NetworkState) -> np.ndarray:
    """Each user's SINR at its max-SINR server, gathered from the SINR matrix."""
    s = sinr_matrix(state)
    best = _best_columns(active_bs_ids(state), s)
    return s[np.arange(best.size), best]


def aggregate_qos(state: NetworkState) -> float:
    """Sum of per-user spectral efficiency under max-SINR association."""
    if not state.users:
        return 0.0
    return float(throughput(served_sinr(state)).sum())


# ---------------------------------------------------------------------------
# Learner


_ACTION_DELTAS = {
    Action.PLUS_X: (1, 0, 0),
    Action.MINUS_X: (-1, 0, 0),
    Action.PLUS_Y: (0, 1, 0),
    Action.MINUS_Y: (0, -1, 0),
    Action.PLUS_H: (0, 0, 1),
    Action.MINUS_H: (0, 0, -1),
}


def apply_action(s: int, a: Action, grid: PlacementGrid) -> int:
    """Neighbor state one step along the action axis; clamps at grid edges."""
    ix, iy, ih = grid.unravel(s)
    dx, dy, dh = _ACTION_DELTAS[Action(a)]
    nx, ny, nh = ix + dx, iy + dy, ih + dh
    if not (0 <= nx < grid.n_x and 0 <= ny < grid.n_y and 0 <= nh < grid.n_h):
        return s
    return grid.ravel(nx, ny, nh)


def reward(qos_t: float, qos_prev: float) -> float:
    return qos_t - qos_prev


def q_update(q: QTable, s: int, a: int, r: float, s_next: int) -> QTable:
    """One temporal-difference backup; increments the (s, a) visit count."""
    q.visit_counts[s, a] += 1
    if q.alpha_mode == "inverse_visits":
        alpha = 1.0 / q.visit_counts[s, a]
    elif q.alpha_mode == "constant":
        alpha = q.alpha
    else:
        raise ConfigurationError(f"unknown alpha_mode {q.alpha_mode!r}")
    target_err = r + q.gamma * np.max(q.values[s_next]) - q.values[s, a]
    if q.literal_update:
        q.values[s, a] = alpha * target_err
    else:
        q.values[s, a] += alpha * target_err
    return q


def select_action(q: QTable, s: int, epsilon: float,
                  rng: np.random.Generator) -> Action:
    """Epsilon-greedy; greedy ties resolve in fixed Action order."""
    if rng.random() < epsilon:
        return Action(int(rng.integers(N_ACTIONS)))
    return Action(int(np.argmax(q.values[s])))


def greedy_rollout(q: QTable, s: int, grid: PlacementGrid,
                   max_steps: Optional[int] = None) -> int:
    """Follow the greedy policy from s; stops on a clamp or a revisit.

    On a revisit (greedy cycle) the cycle member with the higher greedy value
    is returned, so the rollout terminal is well defined.
    """
    if max_steps is None:
        max_steps = grid.n_x + grid.n_y + grid.n_h
    seen = {s}
    for _ in range(max_steps):
        a = Action(int(np.argmax(q.values[s])))
        s_next = apply_action(s, a, grid)
        if s_next == s:
            break
        if s_next in seen:
            if np.max(q.values[s_next]) > np.max(q.values[s]):
                s = s_next
            break
        seen.add(s_next)
        s = s_next
    return s
