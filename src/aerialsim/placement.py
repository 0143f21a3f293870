"""Tabular Q-learning placement of the aerial station on the 3D grid."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from typing import Callable, Optional

import numpy as np

from .deployment import PlacementGrid
from .geometry import ConfigurationError
# aggregate_qos is not called here; it stays a module attribute because
# bench/tracing.py patches it.
from .radio import NetworkState, aggregate_qos, qos_map  # noqa: F401

N_ACTIONS = 6


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


@dataclass(eq=False)
class QTable:
    """The learned table: it lives for one run and is carried from trigger to trigger."""

    values: np.ndarray        # (n_states, 6)
    visit_counts: np.ndarray  # (n_states, 6), int64

    @classmethod
    def zeros(cls, n_states: int) -> "QTable":
        return cls(values=np.zeros((n_states, N_ACTIONS)),
                   visit_counts=np.zeros((n_states, N_ACTIONS), dtype=np.int64))


@dataclass(frozen=True)
class LearningConfig:
    max_episodes: int = 2500
    max_steps: int = 30
    gamma: float = 0.9             # discount
    epsilon: float = 0.9           # exploration rate of each trigger's first episode
    epsilon_decay: float = 0.998   # multiplier per episode
    epsilon_floor: float = 0.02

    def __post_init__(self):
        if self.max_episodes <= 0 or self.max_steps <= 0:
            raise ConfigurationError("episode/step counts must be positive")
        if not 0 <= self.gamma < 1:
            raise ConfigurationError("gamma must be in [0, 1)")
        if not 0 <= self.epsilon <= 1:
            raise ConfigurationError("epsilon must be in [0, 1]")
        if not 0 < self.epsilon_decay <= 1:
            raise ConfigurationError("epsilon_decay must be in (0, 1]")
        if not 0 <= self.epsilon_floor <= 1:
            raise ConfigurationError("epsilon_floor must be in [0, 1]")


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


def _at_row_bases(per_state: list) -> list:
    """per_state[s] placed at index 6*s of a list 6 times as long."""
    out = [None] * (N_ACTIONS * len(per_state))
    out[::N_ACTIONS] = per_state
    return out


def _row_tables(values: np.ndarray, grid: PlacementGrid):
    """The greedy tables of a (n_states, 6) Q-value array, on row bases b = 6*s.

    nxt[b + a] is the row base that action a moves state s to (from
    next_state_table), vmax[b] is the maximum of row s and kmax[b] is the
    flat index b + a of its first maximum, np.argmax's tie-break.
    """
    bases = np.arange(0, values.size, N_ACTIONS)
    return ((N_ACTIONS * next_state_table(grid)).ravel().tolist(),
            _at_row_bases(values.max(axis=1).tolist()),
            _at_row_bases((bases + values.argmax(axis=1)).tolist()))


def _rollout(vmax: list, kmax: list, nxt: list, b: int, max_steps: int) -> int:
    """greedy_rollout on _row_tables' tables, from row base b; returns a row base."""
    seen = {b}
    for _ in range(max_steps):
        b_next = nxt[kmax[b]]
        if b_next == b:
            break
        if b_next in seen:
            if vmax[b_next] > vmax[b]:
                b = b_next
            break
        seen.add(b_next)
        b = b_next
    return b


def greedy_rollout(q: QTable, s: int, grid: PlacementGrid,
                   max_steps: Optional[int] = None) -> int:
    """Follow the greedy policy from state s of grid; stops on a clamp or a revisit.

    On a revisit (greedy cycle) the cycle member with the higher greedy value
    is returned, so the rollout terminal is well defined. max_steps defaults
    to n_x + n_y + n_h.
    """
    if max_steps is None:
        max_steps = grid.n_x + grid.n_y + grid.n_h
    nxt, vmax, kmax = _row_tables(q.values, grid)
    return _rollout(vmax, kmax, nxt, N_ACTIONS * s, max_steps) // N_ACTIONS


_MASK32 = 0xFFFFFFFF
# numpy's Lemire draw of integers(6) redraws while the low 32 bits of
# 6 * h fall below (2**32 - 6) % 6, which is 4.
_LEMIRE_REJECT = 2**32 % N_ACTIONS


def make_qos_table(snapshot: NetworkState, grid: PlacementGrid) -> Callable[[int], float]:
    """QoS(state): aggregate QoS with the aerial at that grid point.

    The whole table is one radio.qos_map call, so every read is bit-identical
    to aggregate_qos at that state.
    """
    return qos_map(snapshot, grid).tolist().__getitem__


@dataclass(eq=False)
class LearnResult:
    best_state: int
    rewards: np.ndarray            # one entry per learning step (Fig.-7 style trace)
    episode_greedy_qos: np.ndarray  # greedy-rollout terminal QoS after each episode


def learn_placement(initial_state: int, snapshot: NetworkState, q: QTable,
                    cfg: LearningConfig, grid: PlacementGrid,
                    rng: np.random.Generator) -> LearnResult:
    """Run the episodic act/reward/update loop on a frozen user snapshot.

    The loop runs on plain Python scalars over flat tables built once per
    call. The Q-values and visit counts are at index b + a, where b = 6*s is
    the row base of state s; the per-state tables (the QoS, the row maximum
    vmax and the index of its first maximum kmax) are at b, and the next
    state table holds row bases (_row_tables). q is written back in place at
    the end. Each step is an epsilon-greedy choice, the clamped move, the
    QoS difference as reward and one temporal-difference backup with step
    size 1/visits and discount cfg.gamma; epsilon starts at cfg.epsilon.
    Each episode starts where the last one ended; its rollout and the final
    pick are greedy_rollout's, on the same tables.

    The choice is that of one rng.random() against epsilon, then one
    rng.integers(6) when it explores, decoded from raw PCG64 words drawn in
    blocks: random() is numpy's next_double, (w >> 11) * 2**-53 for the next
    word w, and integers(6) is numpy's 32-bit Lemire draw on PCG64's
    half-words: the low half of a fresh word, whose high half is kept for
    the next draw (has_uint32 and uinteger in the state), or that kept half.
    At the end the generator is left as the scalar calls would leave it. So
    the draws, rng's final state and the float operations are those of the
    single-step loop in tests/reference.py, and the two are bit-identical.
    rng must run on PCG64, as np.random.default_rng's does.

    vmax[b] is kept == the maximum of row s, and kmax[b] at its first
    maximum: an update that raises the maximum, or ties it at a lower index,
    moves them to its entry, and one that lowers the maximum rescans the
    row. vmax[b] may be -0.0 where the row's first maximum is 0.0, or the
    reverse: == and > treat both alike, and r + gamma * vmax[b'] is the same
    sum for either, because r, a difference of QoS values >= +0.0, is never
    -0.0.
    """
    bitgen = rng.bit_generator
    if type(bitgen) is not np.random.PCG64:
        raise TypeError(f"learn_placement decodes PCG64 words; rng runs on "
                        f"{type(bitgen).__name__}")

    qos = _at_row_bases(qos_map(snapshot, grid).tolist())
    nxt, vmax, kmax = _row_tables(q.values, grid)
    values = q.values.ravel().tolist()
    visits = q.visit_counts.ravel().tolist()
    gamma = cfg.gamma
    max_steps = cfg.max_steps
    rollout_steps = grid.n_x + grid.n_y + grid.n_h

    rewards = np.empty(cfg.max_episodes * max_steps)
    episode_qos = np.empty(cfg.max_episodes)
    entry = bitgen.state
    has, half = bool(entry["has_uint32"]), entry["uinteger"]
    # Words for up to 16 episodes at a time: 2 per step at most.
    block = 2 * max_steps * min(cfg.max_episodes, 16)
    words, j, drawn = [], 0, 0
    trace = [0.0] * max_steps  # the episode's rewards
    epsilon = cfg.epsilon
    b0 = b = N_ACTIONS * initial_state
    for ep in range(cfg.max_episodes):
        if len(words) - j < 2 * max_steps:  # 2 words a step at most, plus each redraw's
            del words[:j]
            j = 0
            words += bitgen.random_raw(block).tolist()
            drawn += block
        # (w >> 11) * 2**-53 < epsilon  <=>  (w >> 11) < ceil(epsilon * 2**53)
        # <=>  w < lim, as multiplying by a power of 2 is exact.
        lim = math.ceil(epsilon * 2**53) << 11
        qos_b = qos[b]
        for t in range(max_steps):
            w = words[j]
            j += 1
            if w >= lim:
                k = kmax[b]
            else:
                while True:
                    if has:
                        h, has = half, False
                    else:
                        w = words[j]
                        j += 1
                        h, half, has = w & _MASK32, w >> 32, True
                    h *= N_ACTIONS
                    if h & _MASK32 >= _LEMIRE_REJECT:
                        break
                    # Rejected (p = 4 / 2**32): a word beyond the budget.
                    words += bitgen.random_raw(1).tolist()
                    drawn += 1
                k = b + (h >> 32)
            c = nxt[k]
            qos_c = qos[c]
            r = qos_c - qos_b
            trace[t] = r
            n = visits[k] + 1
            visits[k] = n
            old = values[k]
            # Read vmax[c] before row b changes: c may be b.
            new = old + (1.0 / n) * (r + gamma * vmax[c] - old)
            values[k] = new
            top = vmax[b]
            if new > top:
                vmax[b], kmax[b] = new, k
            elif new == top:
                if k < kmax[b]:
                    kmax[b] = k
            elif old == top:
                row = values[b:b + N_ACTIONS]
                top = max(row)
                vmax[b], kmax[b] = top, b + row.index(top)
            b, qos_b = c, qos_c
        rewards[ep * max_steps:(ep + 1) * max_steps] = trace
        epsilon = max(cfg.epsilon_floor, epsilon * cfg.epsilon_decay)
        episode_qos[ep] = qos[_rollout(vmax, kmax, nxt, b0, rollout_steps)]

    # Set the generator to the state the scalar calls leave.
    bitgen.state = entry
    bitgen.advance(drawn - (len(words) - j))
    state = bitgen.state  # advance() clears the kept half-word
    # numpy leaves a used half in uinteger when it clears has_uint32.
    state["has_uint32"], state["uinteger"] = int(has), half
    bitgen.state = state
    q.values[...] = np.reshape(values, q.values.shape)
    q.visit_counts[...] = np.reshape(visits, q.visit_counts.shape)
    best = _rollout(vmax, kmax, nxt, b0, rollout_steps) // N_ACTIONS
    return LearnResult(best_state=best, rewards=rewards, episode_greedy_qos=episode_qos)
