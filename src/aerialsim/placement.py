"""Tabular Q-learning placement of the aerial station on the 3D grid."""

from __future__ import annotations

import os
import zipfile
from dataclasses import dataclass, replace
from enum import IntEnum
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .deployment import PlacementGrid
from .geometry import ConfigurationError
# aggregate_qos is not called here; it stays a module attribute because
# bench/tracing.py wraps it.
from .radio import NetworkState, aggregate_qos, qos_map  # noqa: F401

N_ACTIONS = 6

ALPHA_MODES = ("inverse_visits", "constant")

QTABLE_FORMAT_VERSION = 2  # 2: bound to its grid's counts and area


class Action(IntEnum):
    """Six unit moves on the grid; enum order is also the greedy tie-break order."""

    PLUS_X = 0
    MINUS_X = 1
    PLUS_Y = 2
    MINUS_Y = 3
    PLUS_H = 4
    MINUS_H = 5


_ACTION_DELTAS = {
    Action.PLUS_X: (1, 0, 0),
    Action.MINUS_X: (-1, 0, 0),
    Action.PLUS_Y: (0, 1, 0),
    Action.MINUS_Y: (0, -1, 0),
    Action.PLUS_H: (0, 0, 1),
    Action.MINUS_H: (0, 0, -1),
}


@dataclass
class QTable:
    values: np.ndarray        # (n_states, 6)
    visit_counts: np.ndarray  # (n_states, 6), int64
    gamma: float = 0.9
    epsilon: float = 0.9
    alpha_mode: str = "inverse_visits"  # inverse_visits | constant
    alpha: float = 0.5                  # used in constant mode
    literal_update: bool = False        # printed-form update without the Q(s,a) base

    @classmethod
    def zeros(cls, n_states: int, **kwargs) -> "QTable":
        return cls(values=np.zeros((n_states, N_ACTIONS)),
                   visit_counts=np.zeros((n_states, N_ACTIONS), dtype=np.int64),
                   **kwargs)

    def copy(self) -> "QTable":
        return replace(self, values=self.values.copy(),
                       visit_counts=self.visit_counts.copy())


@dataclass(frozen=True)
class LearningConfig:
    max_episodes: int = 2500
    max_steps: int = 30
    epsilon_decay: float = 0.998   # multiplier per episode
    epsilon_floor: float = 0.02
    # "chain": each episode starts where the previous one ended (the agent's
    # latest virtual position); "fixed": always restart from the physical one.
    episode_start: str = "chain"

    def __post_init__(self):
        if self.max_episodes <= 0 or self.max_steps <= 0:
            raise ConfigurationError("episode/step counts must be positive")
        if not 0 < self.epsilon_decay <= 1:
            raise ConfigurationError("epsilon_decay must be in (0, 1]")
        if not 0 <= self.epsilon_floor <= 1:
            raise ConfigurationError("epsilon_floor must be in [0, 1]")
        if self.episode_start not in ("chain", "fixed"):
            raise ConfigurationError(f"unknown episode_start {self.episode_start!r}")


def next_state_table(grid: PlacementGrid) -> np.ndarray:
    """(n_states, 6) int64 array: apply_action(s, a, grid) at every s and a.

    Each action moves along one axis, so clipping that axis at the grid edge
    gives back s, as apply_action's clamp does.
    """
    dims = (grid.n_x, grid.n_y, grid.n_h)
    idx = np.unravel_index(np.arange(grid.n_states), dims)
    deltas = np.array([_ACTION_DELTAS[a] for a in Action]).T  # (3, 6)
    moved = [np.clip(i[:, None] + d, 0, n - 1) for i, d, n in zip(idx, deltas, dims)]
    return np.ravel_multi_index(moved, dims)


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


def make_qos_table(snapshot: NetworkState, grid: PlacementGrid) -> Callable[[int], float]:
    """QoS(state): aggregate QoS with the aerial at that grid point.

    The whole table is one radio.qos_map call, so every read is bit-identical
    to aggregate_qos at that state.
    """
    return qos_map(snapshot, grid).tolist().__getitem__


@dataclass
class LearnResult:
    best_state: int
    qtable: QTable
    rewards: np.ndarray            # one entry per learning step (Fig.-7 style trace)
    episode_greedy_qos: np.ndarray  # greedy-rollout terminal QoS after each episode

    def episodes_to_reach(self, qos_target: float) -> Optional[int]:
        """First episode (1-based) whose greedy rollout attains qos_target."""
        hits = np.nonzero(self.episode_greedy_qos >= qos_target)[0]
        return int(hits[0]) + 1 if hits.size else None


def learn_placement(initial_state: int, snapshot: NetworkState, q: QTable,
                    cfg: LearningConfig, grid: PlacementGrid,
                    rng: np.random.Generator) -> LearnResult:
    """Run the episodic act/reward/update loop on a frozen user snapshot.

    The loop runs on plain Python scalars over flat tables built once per
    call: the QoS at every state, the next state at index 6*s + a, and the
    Q-values and visit counts at the same index; q is written back in place
    at the end. It makes the same RNG calls and the same float operations as
    select_action, apply_action and q_update step by step, and its episode
    rollouts follow greedy_rollout, so the result is bit-identical to a loop
    built from those functions.

    vmax[s] is kept == the maximum of row s: an update raises it when the
    new value is larger, and rescans the row only when it lowers the row's
    maximum. The greedy action is the first index in the row whose value is
    == vmax[s], np.argmax's tie-break. vmax[s] may be -0.0 where the row's
    first maximum is 0.0, or the reverse: index() matches either sign, and
    r + gamma * vmax[s'] is the same sum for either, because r, a difference
    of QoS values >= +0.0, is never -0.0.
    """
    if grid.n_states < 1:
        raise ConfigurationError("placement grid is empty")
    grid.unravel(initial_state)  # validates
    if q.alpha_mode not in ALPHA_MODES:
        raise ConfigurationError(f"unknown alpha_mode {q.alpha_mode!r}")

    qos = qos_map(snapshot, grid).tolist()
    nxt = next_state_table(grid).ravel().tolist()
    values = q.values.ravel().tolist()
    vmax = q.values.max(axis=1).tolist()
    visits = q.visit_counts.ravel().tolist()
    gamma = q.gamma
    inverse_visits = q.alpha_mode == "inverse_visits"
    alpha = q.alpha
    literal = q.literal_update
    fixed_start = cfg.episode_start == "fixed"
    rollout_steps = grid.n_x + grid.n_y + grid.n_h
    random, integers = rng.random, rng.integers

    def rollout(s):
        """greedy_rollout(q, s, grid) on the flat tables."""
        seen = {s}
        for _ in range(rollout_steps):
            b = N_ACTIONS * s
            best = vmax[s]
            s_next = nxt[values.index(best, b, b + N_ACTIONS)]
            if s_next == s:
                break
            if s_next in seen:
                if vmax[s_next] > best:
                    s = s_next
                break
            seen.add(s_next)
            s = s_next
        return s

    rewards = np.empty(cfg.max_episodes * cfg.max_steps)
    episode_qos = np.empty(cfg.max_episodes)
    epsilon = q.epsilon
    s = initial_state
    i = 0
    for ep in range(cfg.max_episodes):
        if fixed_start:
            s = initial_state
        qos_s = qos[s]
        for _ in range(cfg.max_steps):
            b = N_ACTIONS * s
            if random() < epsilon:
                k = b + int(integers(N_ACTIONS))
            else:
                k = values.index(vmax[s], b, b + N_ACTIONS)
            s_next = nxt[k]
            qos_next = qos[s_next]
            r = qos_next - qos_s
            visits[k] += 1
            if inverse_visits:
                alpha = 1.0 / visits[k]
            old = values[k]
            # Read vmax[s_next] before values[k] changes: s_next may be s.
            target_err = r + gamma * vmax[s_next] - old
            new = alpha * target_err if literal else old + alpha * target_err
            values[k] = new
            m = vmax[s]
            if new > m:
                vmax[s] = new
            elif new < m and old == m:
                vmax[s] = max(values[b:b + N_ACTIONS])
            rewards[i] = r
            i += 1
            s, qos_s = s_next, qos_next
        epsilon = max(cfg.epsilon_floor, epsilon * cfg.epsilon_decay)
        episode_qos[ep] = qos[rollout(initial_state)]

    q.values[...] = np.reshape(values, q.values.shape)
    q.visit_counts[...] = np.reshape(visits, q.visit_counts.shape)
    best = greedy_rollout(q, initial_state, grid)
    return LearnResult(best_state=best, qtable=q,
                       rewards=rewards, episode_greedy_qos=episode_qos)


def _grid_record(grid: PlacementGrid):
    """The grid a Q-table belongs to: its counts and its area box."""
    a = grid.area
    return (np.array([grid.n_x, grid.n_y, grid.n_h]),
            np.array([a.x_min, a.x_max, a.y_min, a.y_max, a.h_min, a.h_max]))


def save_qtable(path, q: QTable, grid: PlacementGrid) -> None:
    """Persist a Q-table learned on grid (versioned .npz) for warm starts.

    The file is written at exactly ``path``; np.savez given a name would
    append ``.npz`` to one without that suffix, where no warm start looks.
    It is written to a temporary file beside ``path`` and then moved over
    it, so a failed write leaves any previous table whole.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    counts, box = _grid_record(grid)
    try:
        with open(tmp, "wb") as f:
            np.savez(f, format_version=QTABLE_FORMAT_VERSION, grid_counts=counts,
                     grid_area=box, values=q.values,
                     visit_counts=q.visit_counts, gamma=q.gamma, epsilon=q.epsilon,
                     alpha_mode=q.alpha_mode, alpha=q.alpha,
                     literal_update=q.literal_update)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_qtable(path, grid: PlacementGrid) -> QTable:
    """Load a Q-table saved by save_qtable; it must have been learned on grid."""
    try:
        with np.load(path, allow_pickle=False) as f:
            d = dict(f)
        version = int(d["format_version"])
    except (OSError, KeyError, ValueError, zipfile.BadZipFile) as e:
        raise ConfigurationError(f"cannot read Q-table {path}: {e!r}") from e
    if version != QTABLE_FORMAT_VERSION:
        raise ConfigurationError(f"Q-table {path} has format version {version}, "
                                 f"expected {QTABLE_FORMAT_VERSION}")
    try:
        grid_counts, grid_area = d["grid_counts"], d["grid_area"]
        q = QTable(values=d["values"], visit_counts=d["visit_counts"],
                   gamma=float(d["gamma"]), epsilon=float(d["epsilon"]),
                   alpha_mode=str(d["alpha_mode"]), alpha=float(d["alpha"]),
                   literal_update=bool(d["literal_update"]))
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigurationError(f"cannot read Q-table {path}: {e!r}") from e
    counts, box = _grid_record(grid)
    if not (np.array_equal(grid_counts, counts) and np.array_equal(grid_area, box)):
        got = "x".join(map(str, grid_counts.tolist()))
        raise ConfigurationError(
            f"Q-table {path} was learned on a {got} grid over area "
            f"{grid_area.tolist()}, not this run's "
            f"{grid.n_x}x{grid.n_y}x{grid.n_h} grid over {box.tolist()}")
    shape = (grid.n_states, N_ACTIONS)
    if q.values.shape != shape or q.visit_counts.shape != shape:
        problem = (f"has values of shape {q.values.shape} and visit counts of "
                   f"shape {q.visit_counts.shape}, expected {shape}")
    elif q.values.dtype.kind != "f" or not np.isfinite(q.values).all():
        problem = "has values that are not all finite floats"
    elif q.visit_counts.dtype.kind not in "iu" or (q.visit_counts < 0).any():
        problem = "has visit counts that are not all non-negative integers"
    elif q.alpha_mode not in ALPHA_MODES:
        problem = f"has unknown alpha_mode {q.alpha_mode!r}"
    elif not 0 <= q.gamma < 1:
        problem = f"has gamma {q.gamma!r} outside [0, 1)"
    elif not 0 <= q.epsilon <= 1:
        problem = f"has epsilon {q.epsilon!r} outside [0, 1]"
    elif not 0 < q.alpha <= 1:
        problem = f"has alpha {q.alpha!r} outside (0, 1]"
    else:
        return q
    raise ConfigurationError(f"Q-table {path} {problem}")
