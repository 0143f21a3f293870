import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import aerialsim as a
from aerialsim.deployment import PlacementGrid
from aerialsim.geometry import ConfigurationError, square_area
from aerialsim.oracle import exhaustive_search
from aerialsim.placement import (ALPHA_MODES, N_ACTIONS, Action, LearningConfig,
                                 QTable, greedy_rollout, learn_placement,
                                 load_qtable, make_qos_table, next_state_table,
                                 save_qtable)
from tests.conftest import make_snapshot
from tests.reference import apply_action, q_update, reward, select_action
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
    def make_q(self, n=4, **kw):
        kw.setdefault("alpha_mode", "constant")
        kw.setdefault("alpha", 0.5)
        return QTable.zeros(n, **kw)

    def test_single_update_from_zero(self):
        q = self.make_q()
        q_update(q, 0, 2, 1.0, 1)
        assert q.values[0, 2] == pytest.approx(0.5)
        assert q.visit_counts[0, 2] == 1

    def test_fixed_point(self):
        q = self.make_q()
        q.values[0, 1] = 0.7
        q.values[3, :] = 0.7 / 0.9  # gamma * max Q(s') == Q(s, a), r = 0
        q_update(q, 0, 1, 0.0, 3)
        assert q.values[0, 1] == pytest.approx(0.7)

    def test_two_state_chain_hand_sequence(self):
        # alpha=0.5, gamma=0.9, visiting (s0,a0) r=1 -> (s1,a0) r=0 -> (s0,a0) r=1:
        #   u1: 0 + 0.5*(1 + 0.9*0 - 0)          = 0.5
        #   u2: 0 + 0.5*(0 + 0.9*0.5 - 0)        = 0.225
        #   u3: 0.5 + 0.5*(1 + 0.9*0.225 - 0.5)  = 0.85125
        q = self.make_q(n=2)
        q_update(q, 0, 0, 1.0, 1)
        assert q.values[0, 0] == pytest.approx(0.5)
        q_update(q, 1, 0, 0.0, 0)
        assert q.values[1, 0] == pytest.approx(0.225)
        q_update(q, 0, 0, 1.0, 1)
        assert q.values[0, 0] == pytest.approx(0.85125)

    def test_inverse_visits_schedule(self):
        q = QTable.zeros(2, alpha_mode="inverse_visits")
        q_update(q, 0, 0, 1.0, 1)   # alpha = 1
        assert q.values[0, 0] == pytest.approx(1.0)
        q_update(q, 0, 0, 0.0, 1)   # alpha = 1/2, target = 0 + 0.9*0
        assert q.values[0, 0] == pytest.approx(0.5)

    def test_literal_update_form(self):
        q = self.make_q(literal_update=True)
        q.values[0, 0] = 0.8
        q_update(q, 0, 0, 1.0, 1)
        # printed form: Q <- alpha * (r + gamma max Q(s') - Q)
        assert q.values[0, 0] == pytest.approx(0.5 * (1.0 - 0.8))


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
        grid = a.PlacementGrid(desk_area, 1, 1, 1)
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
        bound = r_max / (1.0 - q.gamma) + 1e-9
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
            a.PlacementGrid(desk_area, 0, 1, 1)

    def test_warm_start_converges_faster(self, desk_area, desk_grid):
        snap, rng = make_snapshot(5, desk_area, n_users=50)
        _, orc_qos = exhaustive_search(snap, desk_grid)
        target = 0.99 * orc_qos.max()
        q = QTable.zeros(desk_grid.n_states)
        cold = learn_placement(desk_grid.center_state(), snap, q,
                               LearningConfig(), desk_grid, rng)
        warm = learn_placement(desk_grid.center_state(), snap, q,
                               LearningConfig(), desk_grid, rng)
        e_cold = cold.episodes_to_reach(target)
        e_warm = warm.episodes_to_reach(target)
        assert e_cold is not None and e_warm is not None
        assert e_warm <= e_cold


class TestQTableIO:
    def test_round_trip(self, tmp_path):
        q = QTable.zeros(30, gamma=0.85, epsilon=0.7, alpha_mode="constant",
                         alpha=0.3, literal_update=True)
        rng = np.random.default_rng(0)
        q.values[:] = rng.normal(size=q.values.shape)
        q.visit_counts[:] = rng.integers(0, 50, size=q.visit_counts.shape)
        grid = PlacementGrid(square_area(2000.0), 5, 3, 2)
        path = tmp_path / "qtable.npz"
        save_qtable(path, q, grid)
        loaded = load_qtable(path, grid)
        assert np.array_equal(loaded.values, q.values)
        assert np.array_equal(loaded.visit_counts, q.visit_counts)
        assert (loaded.gamma, loaded.epsilon) == (0.85, 0.7)
        assert loaded.alpha_mode == "constant"
        assert loaded.alpha == 0.3
        assert loaded.literal_update is True

    @pytest.mark.parametrize("other", [
        PlacementGrid(square_area(2000.0), 3, 5, 2),        # same n_states
        PlacementGrid(square_area(1500.0), 5, 3, 2),        # same counts
        PlacementGrid(square_area(2000.0, h_max=500.0), 5, 3, 2),
    ])
    def test_bound_to_its_grid(self, tmp_path, other):
        path = tmp_path / "qtable.npz"
        save_qtable(path, QTable.zeros(30), PlacementGrid(square_area(2000.0), 5, 3, 2))
        with pytest.raises(ConfigurationError, match="was learned on a 5x3x2 grid"):
            load_qtable(path, other)

    def test_version_1_file_rejected(self, tmp_path):
        q = QTable.zeros(30)
        path = tmp_path / "qtable.npz"
        with open(path, "wb") as f:  # the version-1 layout: no grid record
            np.savez(f, format_version=1, values=q.values,
                     visit_counts=q.visit_counts, gamma=q.gamma, epsilon=q.epsilon,
                     alpha_mode=q.alpha_mode, alpha=q.alpha,
                     literal_update=q.literal_update)
        with pytest.raises(ConfigurationError, match="format version 1, expected 2"):
            load_qtable(path, PlacementGrid(square_area(2000.0), 5, 3, 2))

    def test_unreadable_file_rejected(self, tmp_path):
        path = tmp_path / "qtable.npz"
        path.write_bytes(b"PK\x03\x04 not a zip archive")
        with pytest.raises(ConfigurationError, match="cannot read Q-table"):
            load_qtable(path, PlacementGrid(square_area(2000.0), 5, 3, 2))

    def test_failed_write_keeps_the_previous_table(self, tmp_path, monkeypatch):
        grid = PlacementGrid(square_area(2000.0), 5, 3, 2)
        path = tmp_path / "qtable.npz"
        save_qtable(path, QTable.zeros(30, gamma=0.5), grid)

        def broken_savez(f, **arrays):
            f.write(b"partial")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", broken_savez)
        with pytest.raises(OSError, match="disk full"):
            save_qtable(path, QTable.zeros(30, gamma=0.9), grid)
        monkeypatch.undo()
        assert load_qtable(path, grid).gamma == 0.5
        assert [p.name for p in tmp_path.iterdir()] == ["qtable.npz"]


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
        grid = PlacementGrid(square_area(2000.0), *dims)
        q = QTable.zeros(grid.n_states)
        q.values[:] = rows
        assert greedy_rollout(q, start, grid, max_steps) == \
            reference_rollout(q, start, grid, max_steps)

    def test_two_cycle_ends_on_the_higher_row_maximum(self):
        dims, rows, start, max_steps = TWO_CYCLE
        grid = PlacementGrid(square_area(2000.0), *dims)
        q = QTable.zeros(grid.n_states)
        q.values[:] = rows
        assert greedy_rollout(q, start, grid, max_steps) == 0
        q.values[0, Action.PLUS_X] = 0.25  # now state 1's maximum is the higher
        assert greedy_rollout(q, start, grid, max_steps) == 1

    @pytest.mark.parametrize("start", [-1, 30])
    @pytest.mark.parametrize("max_steps", [None, 0])
    def test_out_of_range_start_rejected(self, start, max_steps):
        grid = PlacementGrid(square_area(2000.0), 5, 3, 2)
        with pytest.raises(IndexError, match="out of range"):
            greedy_rollout(QTable.zeros(grid.n_states), start, grid, max_steps)


def reference_learn(initial_state, snapshot, q, cfg, grid, rng):
    """learn_placement as a loop over the single-step functions.

    Returns (best_state, rewards, episode_greedy_qos); q is updated in place.
    """
    qos = make_qos_table(snapshot, grid)
    rewards = []
    episode_qos = np.empty(cfg.max_episodes)
    epsilon = q.epsilon
    s = initial_state
    for ep in range(cfg.max_episodes):
        if cfg.episode_start == "fixed":
            s = initial_state
        qos_s = qos(s)
        for _ in range(cfg.max_steps):
            act = select_action(q, s, epsilon, rng)
            s_next = apply_action(s, act, grid)
            qos_next = qos(s_next)
            r = reward(qos_next, qos_s)
            q_update(q, s, act, r, s_next)
            rewards.append(r)
            s, qos_s = s_next, qos_next
        epsilon = max(cfg.epsilon_floor, epsilon * cfg.epsilon_decay)
        episode_qos[ep] = qos(reference_rollout(q, initial_state, grid))
    return reference_rollout(q, initial_state, grid), np.array(rewards), episode_qos


@st.composite
def learning_cases(draw):
    dims = draw(grid_dims)
    grid = PlacementGrid(square_area(2000.0), *dims)
    q = QTable.zeros(grid.n_states,
                     gamma=draw(st.sampled_from([0.0, 0.5, 0.9])),
                     epsilon=draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)),
                     alpha_mode=draw(st.sampled_from(ALPHA_MODES)),
                     alpha=draw(st.floats(0.05, 1.0)),
                     literal_update=draw(st.booleans()))
    if draw(st.booleans()):  # warm table: few distinct values, so rows tie
        table_rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        q.values[:] = table_rng.choice(TABLE_VALUES, size=q.values.shape)
        q.visit_counts[:] = table_rng.integers(0, 4, size=q.visit_counts.shape)
    cfg = LearningConfig(max_episodes=draw(st.integers(1, 12)),
                         max_steps=draw(st.integers(1, 8)),
                         epsilon_decay=draw(st.sampled_from([1.0, 0.9, 0.5])),
                         epsilon_floor=draw(st.sampled_from([0.0, 0.02, 1.0])),
                         episode_start=draw(st.sampled_from(["fixed", "chain"])))
    return (grid, q, cfg, draw(st.integers(0, grid.n_states - 1)),
            draw(st.integers(0, 3)), draw(st.integers(0, 6)),
            draw(st.booleans()))


def example_case(dims, start, snap_seed, n_users, cfg, rows=None, **q_fields):
    """A learning_cases value; rows, if given, fills the Q-table cyclically."""
    grid = PlacementGrid(square_area(2000.0), *dims)
    q = QTable.zeros(grid.n_states, **q_fields)
    if rows is not None:
        q.values[:] = [rows[s % len(rows)] for s in range(grid.n_states)]
    return grid, q, cfg, start, snap_seed, n_users, False


# On snapshot 3 with 1 user, the centre of a 3x3x3 grid (state 13) has a
# strictly higher QoS than its six neighbours. Restarting there with one
# exploring step per episode, every reward is negative, so literal updates
# keep lowering the row maximum until the whole row is negative.
NEGATIVE_REWARDS = example_case(
    (3, 3, 3), 13, 3, 1,
    LearningConfig(max_episodes=30, max_steps=1, epsilon_decay=1.0,
                   epsilon_floor=1.0, episode_start="fixed"),
    epsilon=1.0, literal_update=True, gamma=0.9)

# Greedy steps on a warm table whose rows each hold one maximum of 2.0: every
# update lowers it, so the maximum moves to the row's next value.
LOWERED_MAXIMUM = example_case(
    (2, 2, 2), 0, 0, 1, LearningConfig(max_episodes=6, max_steps=5),
    rows=[[2.0, 1.0, -1.0, -0.0, 0.5, -1.0], [-0.0, 0.5, 1.0, -1.0, 2.0, 0.0]],
    epsilon=0.0, alpha_mode="constant", alpha=1.0, literal_update=True, gamma=0.0)


class TestFlatLearnerMatchesReference:
    @settings(max_examples=80, deadline=None)
    @given(case=learning_cases(), learn_seed=st.integers(0, 2**32 - 1))
    @example(case=NEGATIVE_REWARDS, learn_seed=0)
    @example(case=LOWERED_MAXIMUM, learn_seed=0)
    def test_bit_identical_to_single_step_loop(self, case, learn_seed):
        grid, q, cfg, start, snap_seed, n_users, fortran = case
        snap, _ = make_snapshot(snap_seed, grid.area, n_users=n_users)
        q, q_ref = q.copy(), q.copy()  # an explicit example's q is shared
        if fortran:  # a non-contiguous ravel() would be a copy
            q.values = np.asfortranarray(q.values)
            q.visit_counts = np.asfortranarray(q.visit_counts)
        values_id = id(q.values)
        rng, rng_ref = (np.random.default_rng(learn_seed) for _ in range(2))
        res = learn_placement(start, snap, q, cfg, grid, rng)
        best, rewards, episode_qos = reference_learn(start, snap, q_ref, cfg,
                                                     grid, rng_ref)
        assert res.rewards.tolist() == rewards.tolist()
        assert res.episode_greedy_qos.tolist() == episode_qos.tolist()
        assert res.best_state == best
        assert id(q.values) == values_id
        assert q.values.tolist() == q_ref.values.tolist()
        assert q.visit_counts.tolist() == q_ref.visit_counts.tolist()
        assert rng.bit_generator.state == rng_ref.bit_generator.state

    @settings(deadline=None)
    @given(dims=grid_dims)
    @example(dims=(1, 1, 1))
    def test_next_state_table_is_apply_action(self, dims):
        grid = PlacementGrid(square_area(2000.0), *dims)
        table = next_state_table(grid)
        assert table.shape == (grid.n_states, N_ACTIONS)
        assert table.tolist() == [[apply_action(s, act, grid) for act in Action]
                                  for s in range(grid.n_states)]

    def test_single_state_grid_matches_reference(self, desk_area):
        grid = PlacementGrid(desk_area, 1, 1, 1)
        snap, _ = make_snapshot(0, desk_area, n_users=5)
        cfg = LearningConfig(max_episodes=4, max_steps=3)
        q, q_ref = QTable.zeros(1, epsilon=0.5), QTable.zeros(1, epsilon=0.5)
        res = learn_placement(0, snap, q, cfg, grid, np.random.default_rng(1))
        _, rewards, _ = reference_learn(0, snap, q_ref, cfg, grid,
                                        np.random.default_rng(1))
        assert res.rewards.tolist() == rewards.tolist() == [0.0] * 12
        assert q.visit_counts.tolist() == q_ref.visit_counts.tolist()
        assert q.values.tolist() == q_ref.values.tolist()

    def test_unknown_alpha_mode_rejected_before_the_loop(self, desk_area, desk_grid):
        snap, rng = make_snapshot(0, desk_area, n_users=5)
        q = QTable.zeros(desk_grid.n_states, alpha_mode="bogus")
        state = rng.bit_generator.state
        with pytest.raises(ConfigurationError, match="unknown alpha_mode 'bogus'"):
            learn_placement(0, snap, q, LearningConfig(max_episodes=2), desk_grid, rng)
        assert rng.bit_generator.state == state
        assert not q.visit_counts.any()


def _write_qtable_file(path, grid, **fields):
    """A version-2 Q-table file for grid, with fields overriding save_qtable's."""
    save_qtable(path, QTable.zeros(grid.n_states), grid)
    with np.load(path) as f:
        d = dict(f)
    d.update(fields)
    with open(path, "wb") as f:
        np.savez(f, **d)


class TestMalformedQTableRejected:
    GRID = PlacementGrid(square_area(2000.0), 5, 3, 2)

    @pytest.mark.parametrize("fields, message", [
        ({"values": np.zeros((3, 6))}, r"values of shape \(3, 6\)"),
        ({"values": np.zeros(30 * 6)}, r"values of shape \(180,\)"),
        ({"visit_counts": np.zeros((30, 5), dtype=np.int64)},
         r"visit counts of shape \(30, 5\)"),
        ({"values": np.full((30, 6), np.nan)}, "not all finite floats"),
        ({"values": np.full((30, 6), np.inf)}, "not all finite floats"),
        ({"values": np.full((30, 6), "x")}, "not all finite floats"),
        ({"visit_counts": np.full((30, 6), -1)}, "not all non-negative integers"),
        ({"visit_counts": np.full((30, 6), 0.5)}, "not all non-negative integers"),
        ({"alpha_mode": "bogus"}, "unknown alpha_mode 'bogus'"),
        ({"gamma": 1.0}, r"gamma 1.0 outside \[0, 1\)"),
        ({"gamma": -0.1}, r"gamma -0.1 outside \[0, 1\)"),
        ({"gamma": np.nan}, r"gamma nan outside \[0, 1\)"),
        ({"epsilon": 1.5}, r"epsilon 1.5 outside \[0, 1\]"),
        ({"epsilon": -0.5}, r"epsilon -0.5 outside \[0, 1\]"),
        ({"alpha": np.nan}, r"alpha nan outside \(0, 1\]"),
        ({"alpha": 0.0}, r"alpha 0.0 outside \(0, 1\]"),
        ({"gamma": np.zeros(2)}, "cannot read Q-table"),
    ])
    def test_rejected_with_reason(self, tmp_path, fields, message):
        path = tmp_path / "q.npz"
        _write_qtable_file(path, self.GRID, **fields)
        with pytest.raises(ConfigurationError, match=message):
            load_qtable(path, self.GRID)

    @pytest.mark.parametrize("key", ["values", "visit_counts", "gamma", "grid_area"])
    def test_missing_field_rejected(self, tmp_path, key):
        path = tmp_path / "q.npz"
        _write_qtable_file(path, self.GRID)
        with np.load(path) as f:
            d = {k: v for k, v in f.items() if k != key}
        with open(path, "wb") as f:
            np.savez(f, **d)
        with pytest.raises(ConfigurationError, match=f"cannot read Q-table .*'{key}'"):
            load_qtable(path, self.GRID)

    @pytest.mark.parametrize("fields", [
        {"gamma": 0.0, "epsilon": 0.0}, {"epsilon": 1.0, "alpha": 1.0},
        {"visit_counts": np.full((30, 6), 7, dtype=np.int32)},
    ])
    def test_edge_values_accepted(self, tmp_path, fields):
        path = tmp_path / "q.npz"
        _write_qtable_file(path, self.GRID, **fields)
        load_qtable(path, self.GRID)


class TestLearningConfigBounds:
    @pytest.mark.parametrize("floor", [-0.1, 1.5, 3.0])
    def test_epsilon_floor_outside_unit_interval_rejected(self, floor):
        with pytest.raises(ConfigurationError, match=r"epsilon_floor must be in \[0, 1\]"):
            LearningConfig(epsilon_floor=floor)

    @pytest.mark.parametrize("floor", [0.0, 1.0])
    def test_epsilon_floor_bounds_accepted(self, floor):
        assert LearningConfig(epsilon_floor=floor).epsilon_floor == floor
