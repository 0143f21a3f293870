"""Tabular Q-learning placement of the aerial station on the 3D grid."""

from __future__ import annotations

import os
import zipfile
from dataclasses import dataclass, replace
from enum import IntEnum
from pathlib import Path
from typing import Callable, List, Optional

import numpy as np

from .deployment import PlacementGrid
from .geometry import ConfigurationError
# aggregate_qos is not called here; it stays a module attribute because
# bench/tracing.py wraps it.
from .radio import NetworkState, aggregate_qos, qos_map  # noqa: F401

N_ACTIONS = 6

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
        if self.episode_start not in ("chain", "fixed"):
            raise ConfigurationError(f"unknown episode_start {self.episode_start!r}")


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
    """Run the episodic act/reward/update loop on a frozen user snapshot."""
    if grid.n_states < 1:
        raise ConfigurationError("placement grid is empty")
    grid.unravel(initial_state)  # validates

    qos = make_qos_table(snapshot, grid)
    rewards: List[float] = []
    episode_qos = np.empty(cfg.max_episodes)
    epsilon = q.epsilon
    s = initial_state
    for ep in range(cfg.max_episodes):
        if cfg.episode_start == "fixed":
            s = initial_state
        qos_s = qos(s)
        for _ in range(cfg.max_steps):
            a = select_action(q, s, epsilon, rng)
            s_next = apply_action(s, a, grid)
            qos_next = qos(s_next)
            r = reward(qos_next, qos_s)
            q_update(q, s, a, r, s_next)
            rewards.append(r)
            s, qos_s = s_next, qos_next
        epsilon = max(cfg.epsilon_floor, epsilon * cfg.epsilon_decay)
        episode_qos[ep] = qos(greedy_rollout(q, initial_state, grid))

    best = greedy_rollout(q, initial_state, grid)
    return LearnResult(best_state=best, qtable=q,
                       rewards=np.array(rewards), episode_greedy_qos=episode_qos)


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
    counts, box = _grid_record(grid)
    if not (np.array_equal(d["grid_counts"], counts)
            and np.array_equal(d["grid_area"], box)):
        got = "x".join(map(str, d["grid_counts"].tolist()))
        raise ConfigurationError(
            f"Q-table {path} was learned on a {got} grid over area "
            f"{d['grid_area'].tolist()}, not this run's "
            f"{grid.n_x}x{grid.n_y}x{grid.n_h} grid over {box.tolist()}")
    return QTable(values=d["values"], visit_counts=d["visit_counts"],
                  gamma=float(d["gamma"]), epsilon=float(d["epsilon"]),
                  alpha_mode=str(d["alpha_mode"]), alpha=float(d["alpha"]),
                  literal_update=bool(d["literal_update"]))
