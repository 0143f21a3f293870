import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aerialsim.channel import AtgEnvironment, RadioParams
from aerialsim.deployment import (MIN_ANTENNA_HEIGHT, GroundBS, PlacementGrid,
                                  grid_index_to_position)
from aerialsim.geometry import Position2D, Position3D
from aerialsim.mobility import Users, step
from aerialsim.placement import LearningConfig, QTable, learn_placement
from aerialsim.radio import (QOS_MAP_CHUNK_BYTES, NetworkState, _ground_power,
                             _ground_totals, aggregate_qos, link_report, qos_map,
                             qos_map_chunk, throughput)
from aerialsim.scenario import ScenarioConfig, build_network
from tests.conftest import DEFAULTS, make_snapshot, users_at
from tests.reference import (AERIAL_ID, associate_max_sinr, ground_power,
                             served_sinr, sinr, sinr_matrix)
from tests.reference import aggregate_qos as reference_qos


def make_state(bss, users, urban, radio, aerial=None, aerial_tx=36.0):
    return NetworkState(ground_bs=bss, users=users_at(users), env=urban, radio=radio,
                        aerial_pos=aerial, aerial_tx_power=aerial_tx)


def bs_at(i, x, y, h=25.0, tx=46.0, active=True):
    return GroundBS(id=i, pos=Position3D(x, y, h), tx_power=tx, active=active)


class TestSinr:
    def test_signal_equals_noise(self, urban, radio):
        # Choose the horizontal distance so the received power equals the noise.
        h = 25.0
        pl_target = 46.0 - radio.noise_power
        d = 10 ** ((pl_target - radio.ground_ref_loss)
                   / (10 * radio.ground_pathloss_exponent))
        x = math.sqrt(d ** 2 - h ** 2)
        state = make_state([bs_at(0, 0, 0, h)], [Position2D(x, 0.0)], urban, radio)
        assert sinr(Position2D(x, 0.0), 0, state) == pytest.approx(1.0, rel=1e-9)

    def test_two_equidistant_bs_interference_limited(self, urban):
        radio = RadioParams(noise_power=-300.0)  # negligible noise
        bss = [bs_at(0, -400, 0), bs_at(1, 400, 0)]
        state = make_state(bss, [Position2D(0.0, 0.0)], urban, radio)
        assert sinr(Position2D(0.0, 0.0), 0, state) == pytest.approx(1.0, rel=1e-9)

    def test_three_bs_hand_link_budget(self, urban, radio):
        # Independent spreadsheet-style computation with plain math.
        bss = [bs_at(0, -300, 100), bs_at(1, 500, -200, tx=43.0), bs_at(2, 0, 800)]
        user = Position2D(50.0, 75.0)
        powers = []
        for bs in bss:
            d = math.sqrt((bs.pos.x - user.x) ** 2 + (bs.pos.y - user.y) ** 2
                          + bs.pos.h ** 2)
            pl = radio.ground_ref_loss \
                + 10 * radio.ground_pathloss_exponent * math.log10(d)
            powers.append(10 ** ((bs.tx_power - pl) / 10))
        noise = 10 ** (radio.noise_power / 10)
        expected = powers[1] / (noise + powers[0] + powers[2])
        state = make_state(bss, [user], urban, radio)
        assert sinr(user, 1, state) == pytest.approx(expected, rel=1e-9)

    def test_aerial_is_an_interferer(self, urban, radio):
        bss = [bs_at(0, -300, 100)]
        user = Position2D(50.0, 75.0)
        without = sinr(user, 0, make_state(bss, [user], urban, radio))
        with_aerial = sinr(user, 0, make_state(bss, [user], urban, radio,
                                               aerial=Position3D(0, 0, 100.0)))
        assert with_aerial < without

    def test_inactive_serving_rejected(self, urban, radio):
        bss = [bs_at(0, 0, 0), bs_at(1, 500, 0, active=False)]
        state = make_state(bss, [Position2D(100.0, 0.0)], urban, radio)
        with pytest.raises(ValueError):
            sinr(Position2D(100.0, 0.0), 1, state)


class TestAssociation:
    def test_single_bs_serves_everyone(self, urban, radio):
        users = [Position2D(x, y) for x, y in [(0, 0), (100, 50), (-400, 300)]]
        state = make_state([bs_at(0, 10, 10)], users, urban, radio)
        assert associate_max_sinr(state).assign == [0, 0, 0]

    def test_colocated_user_gets_its_bs(self, urban, radio):
        bss = [bs_at(i, x, y) for i, (x, y) in
               enumerate([(-600, 0), (600, 0), (0, 700)])]
        user = Position2D(600.0, 0.0)
        state = make_state(bss, [user], urban, radio)
        assoc = associate_max_sinr(state)
        # exhaustive check: BS 1 gives the max SINR of the three
        sinrs = [sinr(user, j, state) for j in range(3)]
        assert int(np.argmax(sinrs)) == 1
        assert assoc.assign == [1]

    def test_tie_breaks_to_lowest_id(self, urban):
        radio = RadioParams(noise_power=-300.0)
        bss = [bs_at(0, -400, 0), bs_at(1, 400, 0)]
        state = make_state(bss, [Position2D(0.0, 0.0)], urban, radio)
        assert associate_max_sinr(state).assign == [0]

    def test_exactly_one_bs_per_user(self, urban, radio):
        rng = np.random.default_rng(3)
        bss = [bs_at(i, *rng.uniform(-800, 800, 2)) for i in range(4)]
        users = [Position2D(*rng.uniform(-900, 900, 2)) for _ in range(25)]
        assoc = associate_max_sinr(make_state(bss, users, urban, radio))
        assert len(assoc.assign) == len(users)
        assert all(b in {0, 1, 2, 3} for b in assoc.assign)


class TestLinkReport:
    def test_matches_association_and_sinr_matrix(self, urban, radio):
        rng = np.random.default_rng(12)
        bss = [bs_at(i, *rng.uniform(-800, 800, 2)) for i in range(4)]
        users = [Position2D(*rng.uniform(-900, 900, 2)) for _ in range(30)]
        state = make_state(bss, users, urban, radio, aerial=Position3D(0, 0, 200.0))
        user_sinr, tput = link_report(state)
        assoc = associate_max_sinr(state)
        s = sinr_matrix(state)
        col = {b: k for k, b in enumerate([0, 1, 2, 3, AERIAL_ID])}
        assert user_sinr.tolist() == [s[i, col[b]] for i, b in enumerate(assoc.assign)]
        assert aggregate_qos(state) == float(tput.sum())

    def test_users_record_matches_positions(self, desk_area, urban, radio):
        snap, _ = make_snapshot(6, desk_area, n_users=40)
        as_positions = replace(snap, users=users_at([u.pos for u in snap.users]))
        for aerial in (None, Position3D(100.0, -200.0, 150.0)):
            got = replace(snap, aerial_pos=aerial)
            want = replace(as_positions, aerial_pos=aerial)
            assert associate_max_sinr(got) == associate_max_sinr(want)
            assert link_report(got)[0].tolist() == link_report(want)[0].tolist()

    def test_user_at_a_site_foot_at_the_least_antenna_height(self):
        # The config's floor keeps every site's link distance positive, so a
        # user standing on a site's (x, y) gets a finite SINR from it. The
        # tiny exponent lets the config's SINR bound accept the height.
        cfg = ScenarioConfig(antenna_height=MIN_ANTENNA_HEIGHT,
                             radio=RadioParams(ground_pathloss_exponent=1.0e-6))
        net = build_network(cfg)[0]
        on_sites = users_at([b.pos for b in net.ground_bs])
        user_sinr, _ = link_report(replace(net, users=on_sites))
        assert np.all((0.0 < user_sinr) & (user_sinr < np.inf))

    def test_ground_totals_in_two_working_arrays(self):
        # The ground power is computed in place in two sites x users arrays,
        # and the pairwise sum takes one users x sites copy after the second
        # is freed; numpy's broadcast buffers stay below 1.5 more.
        area = DEFAULTS.service_area()
        snap, _ = make_snapshot(0, area, n_users=600, n_rings=2, disabled=None)
        n_sites = sum(bs.active for bs in snap.ground_bs)
        assert n_sites == 19
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _ground_totals(snap, snap.users)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base < 3.5 * n_sites * 600 * 8

    def test_zero_users(self, urban, radio):
        state = make_state([bs_at(0, 0, 0)], [], urban, radio)
        user_sinr, tput = link_report(state)
        assert associate_max_sinr(state).assign == [] and user_sinr.shape == tput.shape == (0,)

    @staticmethod
    def assert_matches_reference(state):
        assert np.array_equal(_ground_power(state, state.users).T,
                              ground_power(state, state.users))
        user_sinr, tput = link_report(state)
        if not any(b.active for b in state.ground_bs) and state.aerial_pos is None:
            assert not user_sinr.any() and not tput.any()  # no server: SINR 0
            return
        want = served_sinr(state)
        assert user_sinr.tolist() == want.tolist()
        assert tput.tolist() == throughput(want).tolist()

    # Server counts (sites plus the aerial) of 8 and 16 fill numpy's 8-wide
    # pairwise-sum block, and 128 or more make it recurse.
    @settings(max_examples=80, deadline=None)
    @given(n_sites=st.integers(0, 200), first_off=st.booleans(),
           n_users=st.integers(0, 60), aerial=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    @example(n_sites=7, first_off=False, n_users=60, aerial=True, seed=0)
    @example(n_sites=16, first_off=False, n_users=60, aerial=False, seed=1)
    @example(n_sites=128, first_off=True, n_users=60, aerial=True, seed=2)
    @example(n_sites=200, first_off=False, n_users=60, aerial=True, seed=3)
    @example(n_sites=1, first_off=True, n_users=5, aerial=False, seed=4)
    # A site height h where h ** 2 (C pow) and h * h differ in the last place.
    @example(n_sites=75, first_off=False, n_users=15, aerial=False, seed=53)
    def test_random_sites_and_powers_match_reference(self, n_sites, first_off, n_users,
                                                     aerial, seed):
        rng = np.random.default_rng(seed)
        bss = [bs_at(i, *rng.uniform(-1000, 1000, 2), h=rng.uniform(10, 60),
                     tx=rng.uniform(20, 50), active=not (first_off and i == 0))
               for i in range(n_sites)]
        users = [Position2D(*rng.uniform(-1000, 1000, 2)) for _ in range(n_users)]
        aerial_pos = (Position3D(*rng.uniform(-1000, 1000, 2), rng.uniform(25, 525))
                      if aerial else None)
        self.assert_matches_reference(NetworkState(
            ground_bs=bss, users=users_at(users), env=AtgEnvironment(), radio=RadioParams(),
            aerial_pos=aerial_pos, aerial_tx_power=rng.uniform(20, 40)))

    @pytest.mark.parametrize("aerial", [None, Position3D(1500.0, 1500.0, 500.0)])
    def test_user_equidistant_from_two_sites(self, urban, radio, aerial):
        bss = [bs_at(0, -400, 0), bs_at(1, 400, 0), bs_at(2, 0, 900, tx=43.0)]
        users = [Position2D(0.0, 0.0), Position2D(0.0, -250.0), Position2D(100.0, 0.0)]
        state = make_state(bss, users, urban, radio, aerial=aerial)
        assert associate_max_sinr(state).assign[:2] == [0, 0]
        self.assert_matches_reference(state)


class TestThroughput:
    def test_values(self):
        assert throughput(1.0) == pytest.approx(1.0)
        assert throughput(3.0) == pytest.approx(2.0)
        assert throughput(0.0) == 0.0


class TestAggregateQos:
    def test_zero_users(self, urban, radio):
        assert aggregate_qos(make_state([bs_at(0, 0, 0)], [], urban, radio)) == 0.0

    def test_one_user_sinr_one(self, urban, radio):
        h = 25.0
        pl_target = 46.0 - radio.noise_power
        d = 10 ** ((pl_target - radio.ground_ref_loss)
                   / (10 * radio.ground_pathloss_exponent))
        x = math.sqrt(d ** 2 - h ** 2)
        state = make_state([bs_at(0, 0, 0, h)], [Position2D(x, 0.0)], urban, radio)
        assert aggregate_qos(state) == pytest.approx(1.0, rel=1e-9)

    def test_matches_brute_force_over_associations(self, urban, radio):
        rng = np.random.default_rng(11)
        bss = [bs_at(i, *rng.uniform(-700, 700, 2)) for i in range(2)]
        users = [Position2D(*rng.uniform(-900, 900, 2)) for _ in range(5)]
        state = make_state(bss, users, urban, radio)
        s = sinr_matrix(state)
        best = max(sum(math.log2(1 + s[i, c]) for i, c in enumerate(choice))
                   for choice in itertools.product(range(2), repeat=5))
        assert aggregate_qos(state) == pytest.approx(best, rel=1e-12)

    def test_relabeling_invariance(self, urban, radio):
        rng = np.random.default_rng(5)
        pts = [tuple(rng.uniform(-700, 700, 2)) for _ in range(3)]
        users = [Position2D(*rng.uniform(-900, 900, 2)) for _ in range(20)]
        s1 = make_state([bs_at(i, *p) for i, p in enumerate(pts)], users, urban, radio)
        s2 = make_state([bs_at(i, *p) for i, p in enumerate(reversed(pts))],
                        users, urban, radio)
        assert aggregate_qos(s1) == pytest.approx(aggregate_qos(s2), rel=1e-12)

    def test_translation_invariance(self, urban, radio):
        rng = np.random.default_rng(6)
        pts = [tuple(rng.uniform(-700, 700, 2)) for _ in range(3)]
        users = [Position2D(*rng.uniform(-900, 900, 2)) for _ in range(10)]
        dx, dy = 12345.0, -999.0
        s1 = make_state([bs_at(i, *p) for i, p in enumerate(pts)], users, urban, radio,
                        aerial=Position3D(100, 100, 300.0))
        s2 = make_state([bs_at(i, p[0] + dx, p[1] + dy) for i, p in enumerate(pts)],
                        [Position2D(u.x + dx, u.y + dy) for u in users], urban, radio,
                        aerial=Position3D(100 + dx, 100 + dy, 300.0))
        assert aggregate_qos(s1) == pytest.approx(aggregate_qos(s2), rel=1e-9)

    def test_deactivating_bs_never_raises_interference(self, urban, radio):
        rng = np.random.default_rng(8)
        bss = [bs_at(i, *rng.uniform(-700, 700, 2)) for i in range(4)]
        users = [Position2D(*rng.uniform(-900, 900, 2)) for _ in range(15)]
        full = make_state(bss, users, urban, radio)
        reduced = make_state([replace(b, active=False) if b.id == 2 else b
                              for b in bss], users, urban, radio)
        # every user still served by a surviving BS sees at least its old SINR
        for i, u in enumerate(users):
            for j in (0, 1, 3):
                assert sinr(u, j, reduced) >= sinr(u, j, full)

    def test_aerial_marker_in_association(self, urban, radio):
        user = Position2D(0.0, 0.0)
        state = make_state([bs_at(0, 900, 900)], [user], urban, radio,
                           aerial=Position3D(0, 0, 100.0))
        assoc = associate_max_sinr(state)
        assert assoc.assign == [AERIAL_ID]
        user_sinr, tput = link_report(state)
        assert tput[0] == pytest.approx(math.log2(1 + user_sinr[0]))


class TestQosMap:
    """qos_map must equal an independent aggregate QoS call at every state."""

    @staticmethod
    def assert_equals_reference(snap, grid, qos=aggregate_qos):
        got = qos_map(snap, grid)
        assert got.shape == (grid.n_states,)
        for s in range(grid.n_states):
            want = qos(replace(snap, aerial_pos=grid_index_to_position(grid, s)))
            assert got[s] == want, f"state {s}"

    # With 1, 7 or 19 sites and the aerial, the aerial's power column sits
    # before, inside or after numpy's 8-wide pairwise-sum block.
    @pytest.mark.parametrize("n_rings", [0, 1, 2])
    @pytest.mark.parametrize("disabled", [None, 0])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_hex_layouts(self, desk_area, n_rings, disabled, seed):
        snap, _ = make_snapshot(seed, desk_area, n_users=40, n_rings=n_rings,
                                disabled=disabled)
        self.assert_equals_reference(snap, PlacementGrid(desk_area, 3, 3, 2))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_no_ground_sites(self, desk_area, seed):
        snap, _ = make_snapshot(seed, desk_area, n_users=30)
        self.assert_equals_reference(replace(snap, ground_bs=[]),
                                     PlacementGrid(desk_area, 3, 3, 2))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_one_user(self, desk_area, seed):
        snap, _ = make_snapshot(seed, desk_area, n_users=1)
        self.assert_equals_reference(snap, PlacementGrid(desk_area, 4, 3, 2))

    def test_zero_users(self, desk_area, desk_grid):
        snap, _ = make_snapshot(0, desk_area, n_users=0)
        assert np.array_equal(qos_map(snap, desk_grid), np.zeros(desk_grid.n_states))
        self.assert_equals_reference(snap, desk_grid)

    def test_ignores_the_snapshot_aerial(self, desk_area, desk_grid):
        snap, _ = make_snapshot(4, desk_area, n_users=25)
        placed = replace(snap, aerial_pos=grid_index_to_position(desk_grid, 7))
        assert np.array_equal(qos_map(placed, desk_grid), qos_map(snap, desk_grid))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_several_chunks_with_a_partial_last_one(self, seed):
        area = DEFAULTS.service_area()
        snap, _ = make_snapshot(seed, area, n_users=150, n_rings=2)
        grid = PlacementGrid(area, 9, 9, 4)
        # qos_map takes its chunks in whole columns of n_h states.
        chunk = qos_map_chunk(150) // grid.n_h * grid.n_h
        assert grid.n_states > chunk and grid.n_states % chunk
        self.assert_equals_reference(snap, grid)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_three_working_arrays(self, seed):
        # qos_map computes the two chunks of the case above in three
        # chunk-sized working arrays; its smaller temporaries (the user
        # distances of a chunk's columns, a mask) stay below two more.
        area = DEFAULTS.service_area()
        snap, _ = make_snapshot(seed, area, n_users=150, n_rings=2)
        grid = PlacementGrid(area, 9, 9, 4)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            qos_map(snap, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base < 5 * QOS_MAP_CHUNK_BYTES

    # Random sites reach the server counts the hex layouts cannot: multiples
    # of 8, where numpy's pairwise sum of a whole row would differ from the
    # ground sum plus the aerial, and 128 or more, where it recurses. The
    # reference is the SINR matrix with max-SINR association: aggregate_qos
    # shares the map's formula, so it would check nothing here.
    @settings(max_examples=60, deadline=None)
    @given(n_sites=st.integers(0, 200), first_off=st.booleans(),
           n_users=st.integers(0, 60),
           shape=st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)),
           seed=st.integers(0, 2**32 - 1))
    @example(n_sites=7, first_off=False, n_users=60, shape=(2, 2, 2), seed=0)
    @example(n_sites=16, first_off=True, n_users=60, shape=(2, 2, 2), seed=1)
    @example(n_sites=127, first_off=False, n_users=60, shape=(2, 2, 2), seed=2)
    @example(n_sites=200, first_off=False, n_users=60, shape=(2, 2, 2), seed=3)
    def test_random_sites_and_powers(self, n_sites, first_off, n_users, shape, seed):
        rng = np.random.default_rng(seed)
        area = DEFAULTS.service_area()
        bss = [bs_at(i, *rng.uniform(-1000, 1000, 2), h=rng.uniform(10, 60),
                     tx=rng.uniform(20, 50), active=not (first_off and i == 0))
               for i in range(n_sites)]
        users = [Position2D(*rng.uniform(-1000, 1000, 2)) for _ in range(n_users)]
        snap = NetworkState(ground_bs=bss, users=users_at(users), env=AtgEnvironment(),
                            radio=RadioParams(), aerial_tx_power=rng.uniform(20, 40))
        self.assert_equals_reference(snap, PlacementGrid(area, *shape), reference_qos)


def test_radio_mobility_and_learner_write_no_user_array(desk_area, desk_grid):
    # Users promises that no array of it is ever written: the radio computes
    # in place only in arrays it allocates, and step returns new ones. Only
    # the learner's QTable is written.
    snap, rng = make_snapshot(3, desk_area, n_users=60)
    arrays = [a.copy() for a in (snap.users.x, snap.users.y, snap.users.vx, snap.users.vy)]
    for a in arrays:
        a.setflags(write=False)
    users = Users(*arrays, snap.users.hold)
    snap = replace(snap, users=users, aerial_pos=grid_index_to_position(desk_grid, 7))
    link_report(snap)
    aggregate_qos(snap)
    qos_map(snap, desk_grid)
    step(users, DEFAULTS.t_min, DEFAULTS.mobility, desk_area, np.random.default_rng(0))
    q = QTable.zeros(desk_grid.n_states)
    learn_placement(desk_grid.center_state(), snap, q,
                    LearningConfig(max_episodes=5, max_steps=4), desk_grid, rng)
    assert q.visit_counts.sum() == 5 * 4
