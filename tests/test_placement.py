import numpy as np
import pytest

import aerialsim as a
from aerialsim.deployment import PlacementGrid
from aerialsim.geometry import ConfigurationError, square_area
from aerialsim.oracle import exhaustive_search
from aerialsim.placement import (Action, LearningConfig, QTable, apply_action,
                                 greedy_rollout, learn_placement, load_qtable,
                                 make_qos_table, q_update, reward, save_qtable,
                                 select_action)
from tests.conftest import make_snapshot


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
        orc = exhaustive_search(snap, desk_grid)
        res = learn_placement(desk_grid.center_state(), snap,
                              QTable.zeros(desk_grid.n_states),
                              LearningConfig(), desk_grid, rng)
        qos = make_qos_table(snap, desk_grid)
        assert qos(res.best_state) >= 0.99 * orc.best_qos

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
        res = learn_placement(desk_grid.center_state(), snap,
                              QTable.zeros(desk_grid.n_states), cfg, desk_grid, rng)
        r_max = np.max(np.abs(res.rewards))
        bound = r_max / (1.0 - res.qtable.gamma) + 1e-9
        assert np.all(np.abs(res.qtable.values) <= bound)

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
        orc = exhaustive_search(snap, desk_grid)
        target = 0.99 * orc.best_qos
        cold = learn_placement(desk_grid.center_state(), snap,
                               QTable.zeros(desk_grid.n_states),
                               LearningConfig(), desk_grid, rng)
        warm = learn_placement(desk_grid.center_state(), snap, cold.qtable,
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


class TestGreedyRollout:
    def test_rollout_follows_max_values(self, desk_grid):
        q = QTable.zeros(desk_grid.n_states)
        # make +x strictly better everywhere: rollout should hit the x_max face
        q.values[:, Action.PLUS_X] = 1.0
        s = desk_grid.ravel(0, 2, 1)
        term = greedy_rollout(q, s, desk_grid)
        ix, iy, ih = desk_grid.unravel(term)
        assert ix == desk_grid.n_x - 1 and (iy, ih) == (2, 1)
