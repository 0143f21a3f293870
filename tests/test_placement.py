import copy
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aerialsim.deployment import PlacementGrid
from aerialsim.geometry import ConfigurationError
from aerialsim.oracle import exhaustive_search
from aerialsim.placement import (N_ACTIONS, Action, LearningConfig, QTable,
                                 greedy_rollout, learn_placement, make_qos_table,
                                 next_state_table)
from aerialsim.scenario import GridSpec, build_config
from tests.conftest import DEFAULTS, episodes_to_reach, make_snapshot, trigger_tables
from aerialsim.radio import qos_map
from tests.reference import (apply_action, q_star, q_update, reference_learn, reward,
                             select_action)
from tests.reference import greedy_rollout as reference_rollout


class TestApplyAction:
    def test_boundary_clamp_min_x(self, desk_grid):
        s = desk_grid.ravel(0, 2, 1)
        assert apply_action(s, Action.MINUS_X, desk_grid) == s

    def test_inverse_actions(self, desk_grid):
        s = desk_grid.ravel(2, 2, 1)
        assert apply_action(apply_action(s, Action.PLUS_H, desk_grid),
                            Action.MINUS_H, desk_grid) == s

    def test_corner_clamp(self, desk_grid):
        s = desk_grid.ravel(desk_grid.n_x - 1, desk_grid.n_y - 1, desk_grid.n_h - 1)
        for act in (Action.PLUS_X, Action.PLUS_Y, Action.PLUS_H):
            assert apply_action(s, act, desk_grid) == s

    def test_interior_moves_change_one_axis(self, desk_grid):
        s = desk_grid.ravel(2, 2, 1)
        moved = apply_action(s, Action.PLUS_Y, desk_grid)
        assert desk_grid.unravel(moved) == (2, 3, 1)


class TestReward:
    def test_values(self):
        assert reward(10.0, 10.0) == 0.0
        assert reward(12.5, 10.0) == 2.5

    def test_telescoping_along_trajectories(self, desk_grid):
        rng = np.random.default_rng(0)
        qos = rng.uniform(0, 100, desk_grid.n_states)
        s = int(rng.integers(desk_grid.n_states))
        first = s
        total = 0.0
        for _ in range(200):
            s_next = apply_action(s, Action(int(rng.integers(6))), desk_grid)
            total += reward(qos[s_next], qos[s])
            s = s_next
        assert total == pytest.approx(qos[s] - qos[first], rel=1e-9, abs=1e-9)


class TestQUpdate:
    # The step size is 1 / visits, the visit count after the increment.

    def test_single_update_from_zero(self):
        q = QTable.zeros(4)
        q_update(q, 0, 2, 1.0, 1, 0.9)  # step 1: Q = r + 0.9 * 0
        assert q.values[0, 2] == 1.0
        assert q.visit_counts[0, 2] == 1

    def test_fixed_point(self):
        q = QTable.zeros(4)
        q.values[0, 1] = 0.7
        q.visit_counts[0, 1] = 3
        q.values[3, :] = 0.7 / 0.9  # gamma * max Q(s') == Q(s, a), r = 0
        q_update(q, 0, 1, 0.0, 3, 0.9)
        assert q.values[0, 1] == pytest.approx(0.7)
        assert q.visit_counts[0, 1] == 4

    def test_two_state_chain_hand_sequence(self):
        # gamma=0.9, visiting (s0,a0) r=1 -> (s1,a0) r=0 -> (s0,a0) r=1:
        #   u1, step 1:   0 + 1*(1 + 0.9*0 - 0)          = 1.0
        #   u2, step 1:   0 + 1*(0 + 0.9*1.0 - 0)        = 0.9
        #   u3, step 1/2: 1.0 + 0.5*(1 + 0.9*0.9 - 1.0)  = 1.405
        q = QTable.zeros(2)
        q_update(q, 0, 0, 1.0, 1, 0.9)
        assert q.values[0, 0] == pytest.approx(1.0)
        q_update(q, 1, 0, 0.0, 0, 0.9)
        assert q.values[1, 0] == pytest.approx(0.9)
        q_update(q, 0, 0, 1.0, 1, 0.9)
        assert q.values[0, 0] == pytest.approx(1.405)

    def test_inverse_visits_schedule(self):
        q = QTable.zeros(2)
        q_update(q, 0, 0, 1.0, 1, 0.9)   # step 1
        assert q.values[0, 0] == pytest.approx(1.0)
        q_update(q, 0, 0, 0.0, 1, 0.9)   # step 1/2, target = 0 + 0.9*0
        assert q.values[0, 0] == pytest.approx(0.5)
        q_update(q, 0, 0, 0.0, 1, 0.9)   # step 1/3: the mean of the targets
        assert q.values[0, 0] == pytest.approx(1.0 / 3.0)


class TestSelectAction:
    def test_pure_greedy(self):
        q = QTable.zeros(2)
        q.values[0] = [0, 0, 0, 1, 0, 0]
        assert select_action(q, 0, 0.0, np.random.default_rng(0)) == Action.MINUS_Y

    def test_tie_break_order(self):
        q = QTable.zeros(2)
        assert select_action(q, 0, 0.0, np.random.default_rng(0)) == Action.PLUS_X

    def test_uniform_exploration_frequencies(self):
        q = QTable.zeros(1)
        rng = np.random.default_rng(99)
        n = 60_000
        counts = np.bincount([int(select_action(q, 0, 1.0, rng)) for _ in range(n)],
                             minlength=6)
        p = 1.0 / 6.0
        sigma = np.sqrt(n * p * (1 - p))
        assert np.all(np.abs(counts - n * p) <= 3 * sigma)


class TestLearnPlacement:
    def test_single_state_grid(self, desk_area, urban, radio):
        grid = PlacementGrid(desk_area, 1, 1, 1)
        snap, rng = make_snapshot(0, desk_area, n_users=5)
        cfg = LearningConfig(max_episodes=5, max_steps=4)
        res = learn_placement(0, snap, QTable.zeros(1), cfg, grid, rng)
        assert res.best_state == 0
        assert len(res.rewards) == 20

    def test_reaches_oracle_optimum_small_grid(self, desk_area, desk_grid):
        snap, rng = make_snapshot(3, desk_area, n_users=50)
        _, orc_qos = exhaustive_search(snap, desk_grid)
        res = learn_placement(desk_grid.center_state(), snap,
                              QTable.zeros(desk_grid.n_states),
                              LearningConfig(), desk_grid, rng)
        qos = make_qos_table(snap, desk_grid)
        assert qos(res.best_state) >= 0.99 * orc_qos.max()

    def test_qos_cache_matches_recomputation(self, desk_area, desk_grid):
        from dataclasses import replace

        from aerialsim.deployment import grid_index_to_position
        from aerialsim.radio import aggregate_qos
        snap, _ = make_snapshot(1, desk_area, n_users=20)
        qos = make_qos_table(snap, desk_grid)
        for s in (0, 17, desk_grid.n_states - 1):
            fresh = aggregate_qos(replace(
                snap, aerial_pos=grid_index_to_position(desk_grid, s)))
            assert qos(s) == fresh  # bit-identical, cached twice
            assert qos(s) == fresh

    def test_q_values_bounded(self, desk_area, desk_grid):
        snap, rng = make_snapshot(2, desk_area, n_users=30)
        cfg = LearningConfig(max_episodes=300, max_steps=20)
        q = QTable.zeros(desk_grid.n_states)
        res = learn_placement(desk_grid.center_state(), snap, q, cfg, desk_grid, rng)
        r_max = np.max(np.abs(res.rewards))
        bound = r_max / (1.0 - cfg.gamma) + 1e-9
        assert np.all(np.abs(q.values) <= bound)

    def test_greedy_terminal_is_local_qos_maximum(self, desk_area, desk_grid):
        snap, rng = make_snapshot(4, desk_area, n_users=50)
        res = learn_placement(desk_grid.center_state(), snap,
                              QTable.zeros(desk_grid.n_states),
                              LearningConfig(), desk_grid, rng)
        qos = make_qos_table(snap, desk_grid)
        best = res.best_state
        for act in Action:
            neighbor = apply_action(best, act, desk_grid)
            assert qos(neighbor) <= qos(best) + 1e-9

    def test_empty_grid_error(self, desk_area):
        with pytest.raises(Exception):
            PlacementGrid(desk_area, 0, 1, 1)

    def test_warm_start_converges_faster(self, desk_area, desk_grid):
        snap, rng = make_snapshot(5, desk_area, n_users=50)
        _, orc_qos = exhaustive_search(snap, desk_grid)
        target = 0.99 * orc_qos.max()
        q = QTable.zeros(desk_grid.n_states)
        cold = learn_placement(desk_grid.center_state(), snap, q,
                               LearningConfig(), desk_grid, rng)
        warm = learn_placement(desk_grid.center_state(), snap, q,
                               LearningConfig(), desk_grid, rng)
        e_cold = episodes_to_reach(cold, target)
        e_warm = episodes_to_reach(warm, target)
        assert e_cold is not None and e_warm is not None
        assert e_warm <= e_cold



class TestRunTable:
    """The table a run hands to the learner at each trigger and reads back."""

    @pytest.mark.parametrize("other", [GridSpec(5, 3, 2), GridSpec(3, 5, 2),
                                       GridSpec(2, 2, 4)])
    def test_bound_to_its_grid(self, monkeypatch, other):
        # Each run starts from an empty table of its own grid: no table
        # outlives its run.
        cfg = build_config(preset="desk", overrides={
            "seed": 2, "grid": other, "mobility": {"c_max": 40.0, "hold_time": 3.0}})
        runs = [trigger_tables(monkeypatch, cfg)[0] for _ in range(2)]
        assert runs[0][0] is not runs[1][0]
        for table, visits in runs:
            n_states = other.n_x * other.n_y * other.n_h
            assert table.values.shape == table.visit_counts.shape == (n_states, N_ACTIONS)
            assert visits == 0


grid_dims = st.tuples(*[st.integers(1, 4)] * 3)

# Few distinct values, so rows tie, and both signs of zero.
TABLE_VALUES = [-1.0, -0.0, 0.0, 0.5, 2.0]


@st.composite
def rollout_cases(draw):
    """(grid dims, Q-table rows, start state, max_steps)."""
    dims = draw(grid_dims)
    n_states = dims[0] * dims[1] * dims[2]
    row = st.lists(st.sampled_from(TABLE_VALUES), min_size=N_ACTIONS,
                   max_size=N_ACTIONS)
    rows = draw(st.lists(row, min_size=n_states, max_size=n_states))
    return dims, rows, draw(st.integers(0, n_states - 1)), draw(
        st.none() | st.integers(0, 5))


# On a 2x1x1 grid, +x leads from state 0 to 1 and -x back: the rollout
# revisits 0, whose row maximum (2.0) is the higher, so it ends there.
TWO_CYCLE = ((2, 1, 1), [[2.0, -1.0, -1.0, -1.0, -1.0, -1.0],
                         [-1.0, 0.5, -1.0, -1.0, -1.0, -1.0]], 0, None)


class TestGreedyRollout:
    def test_rollout_follows_max_values(self, desk_grid):
        q = QTable.zeros(desk_grid.n_states)
        # make +x strictly better everywhere: rollout should hit the x_max face
        q.values[:, Action.PLUS_X] = 1.0
        s = desk_grid.ravel(0, 2, 1)
        term = greedy_rollout(q, s, desk_grid)
        ix, iy, ih = desk_grid.unravel(term)
        assert ix == desk_grid.n_x - 1 and (iy, ih) == (2, 1)

    @settings(deadline=None)
    @given(case=rollout_cases())
    @example(case=TWO_CYCLE)
    @example(case=((1, 1, 1), [[0.0] * N_ACTIONS], 0, None))
    def test_matches_reference(self, case):
        dims, rows, start, max_steps = case
        grid = PlacementGrid(DEFAULTS.service_area(), *dims)
        q = QTable.zeros(grid.n_states)
        q.values[:] = rows
        assert greedy_rollout(q, start, grid, max_steps) == \
            reference_rollout(q, start, grid, max_steps)

    def test_two_cycle_ends_on_the_higher_row_maximum(self):
        dims, rows, start, max_steps = TWO_CYCLE
        grid = PlacementGrid(DEFAULTS.service_area(), *dims)
        q = QTable.zeros(grid.n_states)
        q.values[:] = rows
        assert greedy_rollout(q, start, grid, max_steps) == 0
        q.values[0, Action.PLUS_X] = 0.25  # now state 1's maximum is the higher
        assert greedy_rollout(q, start, grid, max_steps) == 1


@st.composite
def learning_cases(draw):
    dims = draw(grid_dims)
    grid = PlacementGrid(DEFAULTS.service_area(), *dims)
    q = QTable.zeros(grid.n_states)
    if draw(st.booleans()):  # warm table: few distinct values, so rows tie
        table_rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        q.values[:] = table_rng.choice(TABLE_VALUES, size=q.values.shape)
        q.visit_counts[:] = table_rng.integers(0, 4, size=q.visit_counts.shape)
    cfg = LearningConfig(max_episodes=draw(st.integers(1, 12)),
                         max_steps=draw(st.integers(1, 8)),
                         gamma=draw(st.sampled_from([0.0, 0.5, 0.9])),
                         epsilon=draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)),
                         epsilon_decay=draw(st.sampled_from([1.0, 0.9, 0.5])),
                         epsilon_floor=draw(st.sampled_from([0.0, 0.02, 1.0])))
    return (grid, q, cfg, draw(st.integers(0, grid.n_states - 1)),
            draw(st.integers(0, 3)), draw(st.integers(0, 6)),
            draw(st.booleans()), draw(st.integers(0, 3)))


def example_case(dims, start, snap_seed, n_users, cfg, rows=None, pre_draws=0):
    """A learning_cases value; rows, if given, fills the Q-table cyclically."""
    grid = PlacementGrid(DEFAULTS.service_area(), *dims)
    q = QTable.zeros(grid.n_states)
    if rows is not None:
        q.values[:] = [rows[s % len(rows)] for s in range(grid.n_states)]
    return grid, q, cfg, start, snap_seed, n_users, False, pre_draws


# On snapshot 3 with 1 user, the centre of a 3x3x3 grid (state 13) has a
# strictly higher QoS than its six neighbours. Learning from there with one
# exploring step, every reward is negative and the neighbours' rows stay 0,
# so each update lowers a value of row 13 below 0; over repeated calls the
# row maximum is rescanned down until the whole row is negative.
NEGATIVE_REWARDS = example_case(
    (3, 3, 3), 13, 3, 1,
    LearningConfig(max_episodes=1, max_steps=1, gamma=0.9, epsilon=1.0,
                   epsilon_decay=1.0, epsilon_floor=1.0))

# Greedy steps on a warm table whose rows each hold one maximum of 2.0, with
# no discount: a first visit sets the value to its reward, below 2.0, so the
# maximum moves to the row's next value.
LOWERED_MAXIMUM = example_case(
    (2, 2, 2), 0, 0, 1,
    LearningConfig(max_episodes=6, max_steps=5, gamma=0.0, epsilon=0.0),
    rows=[[2.0, 1.0, -1.0, -0.0, 0.5, -1.0], [-0.0, 0.5, 1.0, -1.0, 2.0, 0.0]])

# 40 episodes with a kept half-word at entry. A step takes at least one word,
# so 40 episodes of 3 steps take more than the first block's 96 words less
# the last episode's 6: the words are drawn again at least once. The drawn
# cases, at most 12 episodes, stay in their first block.
KEPT_HALF_REFILL = example_case(
    (3, 2, 2), 4, 1, 3,
    LearningConfig(max_episodes=40, max_steps=3, epsilon=0.9, epsilon_decay=0.95),
    pre_draws=1)

# On a 2x1x1 grid only +x from state 0 and -x from state 1 move; every other
# action clamps, with reward 0.0. With no discount, a first visit of a clamp
# set to -1.0 makes it -1.0 + (0.0 - -1.0) == 0.0, which ties the row's
# maximum, -0.0 or 0.0 at index 3, at a lower index: the greedy index moves
# there (np.argmax's first maximum), and the next greedy step takes it.
TIED_MAXIMUM = example_case(
    (2, 1, 1), 0, 0, 2,
    LearningConfig(max_episodes=6, max_steps=5, gamma=0.0, epsilon=0.5,
                   epsilon_decay=1.0),
    rows=[[-1.0, -1.0, -1.0, -0.0, -1.0, 0.0], [-1.0, -1.0, -1.0, 0.0, -1.0, -0.0]])


def assert_learns_as_reference(start, snap, q, q_ref, cfg, grid, rng, rng_ref):
    """learn_placement and reference_learn give the same pick, rewards,
    greedy QoS, Q-table and generator state; returns the pick."""
    res = learn_placement(start, snap, q, cfg, grid, rng)
    best, rewards, episode_qos = reference_learn(start, snap, q_ref, cfg, grid, rng_ref)
    assert res.rewards.tolist() == rewards.tolist()
    assert res.episode_greedy_qos.tolist() == episode_qos.tolist()
    assert res.best_state == best
    assert q.values.tolist() == q_ref.values.tolist()
    assert q.visit_counts.tolist() == q_ref.visit_counts.tolist()
    assert rng.bit_generator.state == rng_ref.bit_generator.state
    return best


class TestFlatLearnerMatchesReference:
    @settings(max_examples=80, deadline=None)
    @given(case=learning_cases(), learn_seed=st.integers(0, 2**32 - 1))
    @example(case=NEGATIVE_REWARDS, learn_seed=0)
    @example(case=LOWERED_MAXIMUM, learn_seed=0)
    @example(case=KEPT_HALF_REFILL, learn_seed=0)
    @example(case=TIED_MAXIMUM, learn_seed=0)
    def test_bit_identical_to_single_step_loop(self, case, learn_seed):
        grid, q, cfg, start, snap_seed, n_users, fortran, pre_draws = case
        q, q_ref = copy.deepcopy(q), copy.deepcopy(q)  # an explicit example's q is shared
        if fortran:  # a non-contiguous ravel() would be a copy
            q.values = np.asfortranarray(q.values)
            q.visit_counts = np.asfortranarray(q.visit_counts)
        values_id = id(q.values)
        rng, rng_ref = (np.random.default_rng(learn_seed) for _ in range(2))
        for _ in range(pre_draws):  # an odd count leaves a kept half-word
            rng.integers(N_ACTIONS)
            rng_ref.integers(N_ACTIONS)
        # Two triggers in a row: q and the generators carry over between
        # them, as run_scenario's table and rng_learn do.
        for trigger in range(2):
            snap, _ = make_snapshot(snap_seed + trigger, grid.area, n_users=n_users)
            start = assert_learns_as_reference(start, snap, q, q_ref, cfg, grid,
                                               rng, rng_ref)
            assert id(q.values) == values_id

    @settings(deadline=None)
    @given(dims=grid_dims)
    @example(dims=(1, 1, 1))
    def test_next_state_table_is_apply_action(self, dims):
        grid = PlacementGrid(DEFAULTS.service_area(), *dims)
        table = next_state_table(grid)
        assert table.shape == (grid.n_states, N_ACTIONS)
        assert table.tolist() == [[apply_action(s, act, grid) for act in Action]
                                  for s in range(grid.n_states)]

    def test_single_state_grid_matches_reference(self, desk_area):
        grid = PlacementGrid(desk_area, 1, 1, 1)
        snap, _ = make_snapshot(0, desk_area, n_users=5)
        cfg = LearningConfig(max_episodes=4, max_steps=3, epsilon=0.5)
        q, q_ref = QTable.zeros(1), QTable.zeros(1)
        res = learn_placement(0, snap, q, cfg, grid, np.random.default_rng(1))
        _, rewards, _ = reference_learn(0, snap, q_ref, cfg, grid,
                                        np.random.default_rng(1))
        assert res.rewards.tolist() == rewards.tolist() == [0.0] * 12
        assert q.visit_counts.tolist() == q_ref.visit_counts.tolist()
        assert q.values.tolist() == q_ref.values.tolist()

    def test_negative_rewards_rescan_the_row_maximum(self):
        # Only a rescan lets vmax[13] and its greedy index follow the row
        # below 0: a stale pair would point at a value that is no longer the
        # row's maximum. Each of the 30 one-episode calls starts at state 13
        # on the same table and generator.
        grid, q, cfg, start, snap_seed, n_users, _, _ = NEGATIVE_REWARDS
        snap, _ = make_snapshot(snap_seed, grid.area, n_users=n_users)
        q, q_ref = copy.deepcopy(q), copy.deepcopy(q)
        rng, rng_ref = np.random.default_rng(0), np.random.default_rng(0)
        for _ in range(30):
            res = learn_placement(start, snap, q, cfg, grid, rng)
            best, rewards, _ = reference_learn(start, snap, q_ref, cfg, grid, rng_ref)
            assert (res.rewards < 0).all()
            assert res.rewards.tolist() == rewards.tolist()
            assert res.best_state == best
        assert (q.values[13] < 0).all()
        assert q.values.tolist() == q_ref.values.tolist()
        assert rng.bit_generator.state == rng_ref.bit_generator.state


def crafted_generator(word, position, kept_half=None):
    """A PCG64 Generator whose raw word at position (1-based) is word (< 2**64).

    With the high 64 bits of PCG64's 128-bit state 0, its output is the low
    64 bits, and PCG64 outputs its state after each step.
    """
    bitgen = np.random.PCG64(5)
    state = bitgen.state
    state["state"]["state"] = word
    bitgen.state = state
    bitgen.advance(-position)  # leaves has_uint32 0
    if kept_half is not None:
        state = bitgen.state
        state["has_uint32"], state["uinteger"] = 1, kept_half
        bitgen.state = state
    return np.random.Generator(bitgen)


def learn_both(rng, rng_ref, cfg, calls=1, dims=(3, 2, 2)):
    """calls learning triggers from state 0, each held to reference_learn."""
    grid = PlacementGrid(DEFAULTS.service_area(), *dims)
    snap, _ = make_snapshot(0, grid.area, n_users=4)
    q, q_ref = QTable.zeros(grid.n_states), QTable.zeros(grid.n_states)
    for _ in range(calls):
        assert_learns_as_reference(0, snap, q, q_ref, cfg, grid, rng, rng_ref)


class TestPcg64Draws:
    """The learner's draws, decoded from raw PCG64 words, are held to
    numpy's Generator.random() and integers(6), which reference_learn calls."""

    @pytest.mark.parametrize("kept_half", [False, True])
    def test_matches_numpy_scalar_calls(self, kept_half):
        rng, rng_ref = (np.random.default_rng(2024) for _ in range(2))
        if kept_half:  # one integers(6) draw keeps the high half of its word
            rng.integers(N_ACTIONS)
            rng_ref.integers(N_ACTIONS)
        # 10^5 steps of 1 or 2 words: the 1280-word block is drawn again
        # after every 15 to 31 episodes. Decayed, epsilon is not always a
        # multiple of 2**-53.
        cfg = LearningConfig(max_episodes=2500, max_steps=40, epsilon=1.0,
                             epsilon_decay=0.998, epsilon_floor=0.02)
        learn_both(rng, rng_ref, cfg, dims=(4, 4, 3))
        assert rng.random() == rng_ref.random()

    @pytest.mark.parametrize("word", [
        0,            # both halves rejected, then a fresh word
        1 << 40,      # the low half 0 rejected, then the high half, 256
        0x2AAAAAAB,   # 6 * low half == 2**32 + 2
    ])
    @pytest.mark.parametrize("kept_half", [None, 0])
    def test_lemire_rejection_matches_numpy(self, word, kept_half):
        assert (word & 0xFFFFFFFF) * N_ACTIONS % 2**32 < 4  # numpy redraws
        # The second word: the first is the explore test's.
        rng, rng_ref = (crafted_generator(word, 2, kept_half) for _ in range(2))
        # One-step episodes at epsilon 1, one a call: each call draws a
        # 2-word block, so a redraw's word is beyond it.
        cfg = LearningConfig(max_episodes=1, max_steps=1, epsilon=1.0)
        learn_both(rng, rng_ref, cfg, calls=5)

    @pytest.mark.parametrize("epsilon", [0.3, 0.02, 1 / 3, 0.75])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_explore_test_at_epsilon_boundary(self, epsilon, offset):
        # The words just below and at ceil(epsilon * 2**53) * 2**11, the
        # lowest word whose random() is not below epsilon.
        word = (math.ceil(epsilon * 2**53) << 11) + offset
        rng, rng_ref = (crafted_generator(word, 1) for _ in range(2))
        learn_both(rng, rng_ref, LearningConfig(max_episodes=1, max_steps=3,
                                                epsilon=epsilon))

    @pytest.mark.parametrize("bitgen", [np.random.PCG64DXSM, np.random.MT19937,
                                        np.random.Philox, np.random.SFC64])
    def test_other_bit_generators_rejected(self, bitgen):
        grid = PlacementGrid(DEFAULTS.service_area(), 2, 2, 2)
        snap, _ = make_snapshot(0, grid.area, n_users=3)
        rng = np.random.Generator(bitgen(0))
        with pytest.raises(TypeError, match=f"PCG64 words; rng runs on {bitgen.__name__}"):
            learn_placement(0, snap, QTable.zeros(grid.n_states),
                            LearningConfig(max_episodes=2, max_steps=3), grid, rng)
        assert rng.random() == np.random.Generator(bitgen(0)).random()  # no draw


def next_states(grid):
    """(n_states, 6) array of apply_action at every state and action."""
    return np.array([[apply_action(s, a, grid) for a in Action]
                     for s in range(grid.n_states)])


class TestQStar:
    def test_hand_values_on_a_line(self):
        # QoS 0, 2, 1 along x; every other move clamps. The peak's value is 0
        # (staying earns 0), state 2 steps onto it (1 + 0.5 * 0) and state 0
        # too (2 + 0.5 * 0); a clamp earns 0.5 times its own state's value.
        grid = PlacementGrid(DEFAULTS.service_area(), 3, 1, 1)
        q = q_star(np.array([0.0, 2.0, 1.0]), next_states(grid), 0.5)
        assert q.tolist() == [[2.0, 1.0, 1.0, 1.0, 1.0, 1.0],
                              [-0.5, -1.0, 0.0, 0.0, 0.0, 0.0],
                              [0.5, 1.0, 0.5, 0.5, 0.5, 0.5]]

    @settings(max_examples=25, deadline=None)
    @given(dims=st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 3)).filter(
               lambda d: d[0] != d[1]),
           snap_seed=st.integers(0, 50), n_users=st.integers(1, 12),
           gamma=st.sampled_from([0.0, 0.5, 0.9]), learn_seed=st.integers(0, 2**32 - 1),
           epsilon=st.sampled_from([0.0, 0.5, 1.0]))
    def test_is_a_fixed_point_of_learn_placement(self, dims, snap_seed, n_users, gamma,
                                                 learn_seed, epsilon):
        # Every backup of the learner's rule from Q* has a target equal to
        # the value it updates, wherever the episodes go.
        grid = PlacementGrid(DEFAULTS.service_area(), *dims)
        snap, _ = make_snapshot(snap_seed, DEFAULTS.service_area(), n_users=n_users)
        want = q_star(qos_map(snap, grid), next_states(grid), gamma)
        q = QTable.zeros(grid.n_states)
        q.values[:] = want
        cfg = LearningConfig(max_episodes=20, max_steps=10, gamma=gamma, epsilon=epsilon)
        learn_placement(grid.center_state(), snap, q, cfg, grid,
                        np.random.default_rng(learn_seed))
        assert q.visit_counts.sum() == cfg.max_episodes * cfg.max_steps
        np.testing.assert_allclose(q.values, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_desk_discount_ceiling_is_zero(self, desk_area, desk_grid, seed):
        # On the acceptance battery's snapshots, the discounted objective's
        # own greedy pick from the centre is the oracle's optimum, so the
        # discount costs criterion 2 nothing.
        snap, _ = make_snapshot(seed, desk_area, n_users=50)
        best, qos = exhaustive_search(snap, desk_grid)
        q = QTable.zeros(desk_grid.n_states)
        q.values[:] = q_star(qos, next_states(desk_grid), LearningConfig().gamma)
        assert qos[reference_rollout(q, desk_grid.center_state(), desk_grid)] == qos[best]


class TestLearningConfigBounds:
    @pytest.mark.parametrize("floor", [-0.1, 1.5, 3.0])
    def test_epsilon_floor_outside_unit_interval_rejected(self, floor):
        with pytest.raises(ConfigurationError, match=r"epsilon_floor must be in \[0, 1\]"):
            LearningConfig(epsilon_floor=floor)

    @pytest.mark.parametrize("floor", [0.0, 1.0])
    def test_epsilon_floor_bounds_accepted(self, floor):
        assert LearningConfig(epsilon_floor=floor).epsilon_floor == floor

    @pytest.mark.parametrize("key, value, interval", [
        ("gamma", 1.0, "[0, 1)"), ("gamma", -0.1, "[0, 1)"), ("gamma", np.nan, "[0, 1)"),
        ("epsilon", 1.5, "[0, 1]"), ("epsilon", -0.5, "[0, 1]"),
    ])
    def test_outside_range_rejected(self, key, value, interval):
        with pytest.raises(ConfigurationError,
                           match=f"^{re.escape(f'{key} must be in {interval}')}$"):
            LearningConfig(**{key: value})

    @pytest.mark.parametrize("fields", [{"gamma": 0.0, "epsilon": 0.0}, {"epsilon": 1.0}])
    def test_gamma_and_epsilon_edge_values_accepted(self, fields):
        cfg = LearningConfig(**fields)
        assert {k: getattr(cfg, k) for k in fields} == fields
