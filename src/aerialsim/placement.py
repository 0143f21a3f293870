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
    """(n_states, 6) int64 array: the state each action moves each state to.

    An action moves one step along one axis; at the grid edge the move is
    clamped, so the state stays where it is.
    """
    dims = (grid.n_x, grid.n_y, grid.n_h)
    idx = np.unravel_index(np.arange(grid.n_states), dims)
    deltas = np.array([_ACTION_DELTAS[a] for a in Action]).T  # (3, 6)
    moved = [np.clip(i[:, None] + d, 0, n - 1) for i, d, n in zip(idx, deltas, dims)]
    return np.ravel_multi_index(moved, dims)


def _rollout(values: list, vmax: list, nxt: list, s: int, max_steps: int) -> int:
    """The greedy rollout on flat tables: values and nxt at 6*s + a, vmax[s].

    vmax[s] is the maximum of row s, so the greedy action is the first index
    in the row whose value is == vmax[s], np.argmax's tie-break.
    """
    seen = {s}
    for _ in range(max_steps):
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


def greedy_rollout(q: QTable, s: int, grid: PlacementGrid,
                   max_steps: Optional[int] = None) -> int:
    """Follow the greedy policy from s; stops on a clamp or a revisit.

    On a revisit (greedy cycle) the cycle member with the higher greedy value
    is returned, so the rollout terminal is well defined. max_steps defaults
    to n_x + n_y + n_h.
    """
    grid.unravel(s)  # validates
    if max_steps is None:
        max_steps = grid.n_x + grid.n_y + grid.n_h
    return _rollout(q.values.ravel().tolist(), q.values.max(axis=1).tolist(),
                    next_state_table(grid).ravel().tolist(), s, max_steps)


def make_qos_table(snapshot: NetworkState, grid: PlacementGrid) -> Callable[[int], float]:
    """QoS(state): aggregate QoS with the aerial at that grid point.

    The whole table is one radio.qos_map call, so every read is bit-identical
    to aggregate_qos at that state.
    """
    return qos_map(snapshot, grid).tolist().__getitem__


@dataclass
class LearnResult:
    best_state: int
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
    call: the QoS at every state, the next state at index 6*s + a (from
    next_state_table), and the Q-values and visit counts at the same index;
    q is written back in place at the end. Each step is an epsilon-greedy
    choice (one rng.random() against epsilon, then one rng.integers(6) when
    it explores), the clamped move, the QoS difference as reward and one
    temporal-difference backup, with the RNG calls and float operations of
    the single-step loop in tests/reference.py, so the two are bit-identical.
    Each episode's rollout and the final pick are greedy_rollout's, on the
    flat tables.

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
        episode_qos[ep] = qos[_rollout(values, vmax, nxt, initial_state, rollout_steps)]

    q.values[...] = np.reshape(values, q.values.shape)
    q.visit_counts[...] = np.reshape(visits, q.visit_counts.shape)
    best = _rollout(values, vmax, nxt, initial_state, rollout_steps)
    return LearnResult(best_state=best, rewards=rewards, episode_greedy_qos=episode_qos)


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
        # np.load(path) would leave its own handle open when the archive is
        # rejected; this one closes either way.
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as f:
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
