import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import aerialsim as a
from aerialsim.geometry import ConfigurationError, Position2D
from aerialsim.mobility import (MobilityParams, User, Users, draw_velocities,
                                init_users, step)


def make_users(x=0.0, y=0.0, speed=1.0, direction=0.0, hold=10.0):
    """A Users record; each argument is one value per user (a scalar: one user)."""
    return Users(*(np.atleast_1d(np.asarray(v, dtype=float))
                   for v in (x, y, speed, direction, hold)))


# ---------------------------------------------------------------------------
# Scalar per-user reference: the walk one user and one scalar draw at a time.


def ref_draw_velocity(params, rng):
    speed = float(rng.uniform(0.0, params.c_max))
    direction = float(rng.uniform(0.0, 2.0 * math.pi))
    return speed, direction


def ref_reflect(v, lo, hi):
    """Fold v into [lo, hi] by mirror reflection; returns (value, flipped)."""
    flipped = False
    while v < lo or v > hi:
        if v < lo:
            v = 2 * lo - v
        else:
            v = 2 * hi - v
        flipped = not flipped
    return v, flipped


def ref_apply_boundary(x, y, direction, area, policy):
    if policy == "wrap":
        x = area.x_min + (x - area.x_min) % area.width
        y = area.y_min + (y - area.y_min) % area.height
        return x, y, direction
    x, fx = ref_reflect(x, area.x_min, area.x_max)
    y, fy = ref_reflect(y, area.y_min, area.y_max)
    dx, dy = math.cos(direction), math.sin(direction)
    if fx:
        dx = -dx
    if fy:
        dy = -dy
    if fx or fy:
        direction = math.atan2(dy, dx) % (2.0 * math.pi)
    return x, y, direction


def ref_step(users, dt, params, area, rng):
    out = []
    for u in users:
        x = u.pos.x + u.speed * dt * math.cos(u.direction)
        y = u.pos.y + u.speed * dt * math.sin(u.direction)
        x, y, direction = ref_apply_boundary(x, y, u.direction, area,
                                             params.boundary_policy)
        speed = u.speed
        hold = u.hold_remaining - dt
        if hold <= 1e-12:
            speed, direction = ref_draw_velocity(params, rng)
            hold = params.hold_time
        out.append(User(id=u.id, pos=Position2D(x, y), speed=speed,
                        direction=direction, hold_remaining=hold))
    return out


def ref_walk(users, dts, params, area, rng):
    """ref_step applied once per sub-step of dts."""
    for dt in dts:
        users = ref_step(users, dt, params, area, rng)
    return users


def as_tuples(users):
    return [(u.id, u.pos.x, u.pos.y, u.speed, u.direction, u.hold_remaining)
            for u in users]


finite = dict(allow_nan=False, allow_infinity=False)


def countdowns(dts):
    """Holds that expire exactly at each sub-step of dts: its running sums."""
    sums, total = [], 0.0
    for dt in dts:
        total += dt
        sums.append(total)
    return sums


@st.composite
def walks(draw):
    """Users, a boundary policy and one or more slots of sub-steps.

    A user's sub-step is 0, a fraction of the area width or up to several
    widths, so some users fold more than once. Users start anywhere within
    twice the area, so some start outside. A slot's last sub-step may be
    shorter than the others. Holds start anywhere from expired to full, or
    exactly at a running sum of the sub-steps, so some expire on a middle
    sub-step and some on the last.
    """
    side = draw(st.floats(1.0, 2000.0, **finite))
    area = a.square_area(side)
    params = MobilityParams(
        c_max=draw(st.sampled_from([0.0, 1.3, 4.0 * side])),
        hold_time=draw(st.floats(0.05, 20.0, **finite)),
        boundary_policy=draw(st.sampled_from(["reflect", "wrap"])))
    dt = draw(st.floats(0.01, 3.0, **finite))
    dts = [dt] * draw(st.integers(0, 11))
    dts.append(draw(st.sampled_from([dt, dt / 3.0, draw(st.floats(0.01, dt, **finite))])))
    n = draw(st.integers(0, 6))
    # Integer hundredths of the area width come out closer to uniform than
    # drawn floats, which favour the ends of their range.
    coord = st.one_of(st.floats(-side, side, **finite),
                      st.integers(-100, 100).map(lambda k: k * side / 100))
    # Sub-step lengths in area widths: none, a fraction (a user starting
    # outside can take several sub-steps to come in) or several folds.
    widths = st.one_of(st.just(0.0), st.integers(0, 30).map(lambda k: k / 100),
                       st.floats(0.0, 5.0, **finite))
    hold = st.one_of(st.floats(0.0, params.hold_time, **finite),
                     st.sampled_from(countdowns(dts)))
    users = make_users(
        x=draw(st.lists(coord, min_size=n, max_size=n)),
        y=draw(st.lists(coord, min_size=n, max_size=n)),
        speed=[f * side / dt for f in draw(st.lists(widths, min_size=n, max_size=n))],
        direction=draw(st.lists(st.floats(0.0, 2 * math.pi, exclude_max=True, **finite),
                                min_size=n, max_size=n)),
        hold=draw(st.lists(hold, min_size=n, max_size=n)))
    return users, params, area, dts, draw(st.integers(1, 3))


class TestStepMatchesScalarReference:
    @settings(max_examples=400, deadline=None)
    @given(walks(), st.integers(0, 2**32 - 1))
    def test_every_field_and_the_rng_state(self, walk, seed):
        users, params, area, dts, n_slots = walk
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        ref = list(users)
        for _ in range(n_slots):
            users = step(users, dts, params, area, rng)
            ref = ref_walk(ref, dts, params, area, ref_rng)
            assert as_tuples(users) == as_tuples(ref)
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    @settings(max_examples=200, deadline=None)
    @given(walks(), st.integers(0, 2**32 - 1))
    def test_cached_heading_and_input_unchanged(self, walk, seed):
        users, params, area, dts, n_slots = walk
        rng = np.random.default_rng(seed)
        for _ in range(n_slots):
            before = {k: v.tobytes() for k, v in vars(users).items()}
            after = step(users, dts, params, area, rng)
            assert {k: v.tobytes() for k, v in vars(users).items()} == before
            users = after
            assert users.cos.tobytes() == np.cos(users.direction).tobytes()
            assert users.sin.tobytes() == np.sin(users.direction).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(walks(), st.integers(0, 2**32 - 1))
    def test_float_is_one_substep(self, walk, seed):
        users, params, area, dts, _ = walk
        rng, list_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for dt in dts:
            one, listed = (step(users, dt, params, area, rng),
                           step(users, [dt], params, area, list_rng))
            assert as_tuples(one) == as_tuples(listed)
            users = one
        assert rng.bit_generator.state == list_rng.bit_generator.state

    @pytest.mark.parametrize("x, y, direction", [(-1100.0, 0.0, 0.0),
                                                 (0.0, -1100.0, math.pi / 2)])
    def test_walking_in_from_outside(self, desk_area, x, y, direction):
        # Outside after the first sub-step and inside at the end. The two
        # folds on the way in leave the position where a straight walk ends,
        # but turn the heading by a last-place amount, which a check of the
        # end alone misses.
        params = MobilityParams(c_max=100.0, hold_time=30.0)
        users = make_users(x=x, y=y, speed=40.0, direction=direction, hold=30.0)
        out = step(users, [1.0] * 3, params, desk_area, np.random.default_rng(0))
        ref = ref_walk(list(users), [1.0] * 3, params, desk_area, np.random.default_rng(0))
        assert as_tuples(out) == as_tuples(ref)
        assert desk_area.contains_2d(out[0].pos) and out[0].direction != direction

    @pytest.mark.parametrize("policy", ["reflect", "wrap"])
    def test_seeded_drop_over_many_steps(self, desk_area, policy):
        params = MobilityParams(c_max=40.0, hold_time=3.0, boundary_policy=policy)
        rng = np.random.default_rng(11)
        users = init_users(a.drop_users_ppp(200, desk_area, rng), params, rng)
        ref_rng = np.random.default_rng(0)
        ref_rng.bit_generator.state = rng.bit_generator.state
        ref = list(users)
        dts = [0.7] * 6 + [0.2]
        for _ in range(10):
            users = step(users, dts, params, desk_area, rng)
            ref = ref_walk(ref, dts, params, desk_area, ref_rng)
        assert as_tuples(users) == as_tuples(ref)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_init_users_draws_like_the_scalar_reference(self, desk_area):
        params = MobilityParams()
        positions = a.drop_users_ppp(50, desk_area, np.random.default_rng(0))
        users = init_users(positions, params, np.random.default_rng(1))
        ref_rng = np.random.default_rng(1)
        for i, ((x, y), u) in enumerate(zip(positions.tolist(), users)):
            assert (u.id, u.pos) == (i, Position2D(x, y))
            assert (u.speed, u.direction) == ref_draw_velocity(params, ref_rng)
            assert u.hold_remaining == params.hold_time

    def test_draw_velocity_is_the_scalar_draw(self):
        params = MobilityParams(c_max=1.3)
        rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
        speed, direction = draw_velocities(params, rng, 1000)
        assert list(zip(speed.tolist(), direction.tolist())) == \
            [ref_draw_velocity(params, ref_rng) for _ in range(1000)]
        assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestUsers:
    def test_views_and_arrays(self):
        users = make_users(x=[1.0, 2.0, 3.0], y=[4.0, 5.0, 6.0],
                           speed=[0.1, 0.2, 0.3], direction=[0.0, 1.0, 2.0],
                           hold=[7.0, 8.0, 9.0])
        assert len(users) == 3
        assert users.xy.shape == (3, 2)
        assert users.xy.tolist() == [[1.0, 4.0], [2.0, 5.0], [3.0, 6.0]]
        assert users[1] == User(id=1, pos=Position2D(2.0, 5.0), speed=0.2,
                                direction=1.0, hold_remaining=8.0)
        assert users[-1].id == 2
        assert [u.id for u in users] == [0, 1, 2]
        with pytest.raises(IndexError):
            users[3]

    def test_no_users(self, desk_area):
        rng = np.random.default_rng(0)
        users = init_users(np.empty((0, 2)), MobilityParams(), rng)
        assert len(users) == 0 and not users
        assert users.xy.shape == (0, 2)
        assert list(users) == []
        state = rng.bit_generator.state
        assert len(step(users, 1.0, MobilityParams(), desk_area, rng)) == 0
        assert len(step(users, [1.0, 2.0], MobilityParams(), desk_area, rng)) == 0
        assert rng.bit_generator.state == state


class TestStep:
    def test_zero_speed_stays_put(self, desk_area):
        u = make_users(speed=0.0, direction=1.234, hold=30.0)
        rng = np.random.default_rng(0)
        out = step(u, [7.0, 7.0], MobilityParams(hold_time=30.0), desk_area, rng)
        assert (out[0].pos.x, out[0].pos.y) == (0.0, 0.0)

    def test_axis_aligned_motion(self, desk_area):
        u = make_users(speed=1.0, direction=0.0, hold=30.0)
        out = step(u, [4.0, 4.0, 2.0], MobilityParams(hold_time=30.0), desk_area,
                   np.random.default_rng(0))
        assert out[0].pos.x == pytest.approx(10.0)
        assert out[0].pos.y == pytest.approx(0.0, abs=1e-12)

    def test_hold_countdown_and_redraw(self, desk_area):
        params = MobilityParams(hold_time=10.0)
        u = make_users(speed=1.0, direction=0.0)
        rng = np.random.default_rng(1)
        mid = step(u, [1.5, 2.5], params, desk_area, rng)
        assert mid[0].hold_remaining == pytest.approx(6.0)
        assert mid[0].speed == 1.0
        done = step(mid, 6.0, params, desk_area, rng)
        assert done[0].hold_remaining == pytest.approx(10.0)

    def test_hold_expiring_mid_slot_restarts_the_countdown(self, desk_area):
        params = MobilityParams(hold_time=10.0)
        u = make_users(speed=1.0, direction=0.0)
        out = step(u, [4.0, 6.0, 1.0], params, desk_area, np.random.default_rng(1))
        assert out[0].hold_remaining == pytest.approx(9.0)
        assert out[0].speed != 1.0

    def test_displacement_bounded_by_cmax_dt(self, desk_area):
        params = MobilityParams()
        rng = np.random.default_rng(2)
        users = init_users(a.drop_users_ppp(200, desk_area, rng), params, rng)
        dts = [1.0, 1.0, 1.0]
        for before, after in zip(users, step(users, dts, params, desk_area, rng)):
            disp = math.dist((before.pos.x, before.pos.y), (after.pos.x, after.pos.y))
            assert disp <= params.c_max * sum(dts) + 1e-9

    def test_reflect_keeps_users_inside(self, desk_area):
        params = MobilityParams(c_max=50.0, hold_time=5.0)
        rng = np.random.default_rng(3)
        users = init_users(a.drop_users_ppp(100, desk_area, rng), params, rng)
        for _ in range(10):
            users = step(users, [1.0] * 10, params, desk_area, rng)
            assert all(desk_area.contains_2d(u.pos) for u in users)

    def test_wrap_keeps_users_inside(self, desk_area):
        params = MobilityParams(c_max=50.0, hold_time=5.0, boundary_policy="wrap")
        rng = np.random.default_rng(4)
        users = init_users(a.drop_users_ppp(50, desk_area, rng), params, rng)
        for _ in range(5):
            users = step(users, [1.0] * 10, params, desk_area, rng)
            assert all(desk_area.contains_2d(u.pos) for u in users)

    def test_straight_line_within_hold(self, desk_area):
        params = MobilityParams(hold_time=10.0)
        u = make_users(x=10.0, y=20.0, speed=1.1, direction=0.87)
        p0 = (u[0].pos.x, u[0].pos.y)
        u1 = step(u, [2.0], params, desk_area, np.random.default_rng(5))
        u2 = step(u, [2.0, 2.0], params, desk_area, np.random.default_rng(5))
        p1, p2 = (u1[0].pos.x, u1[0].pos.y), (u2[0].pos.x, u2[0].pos.y)
        cross = (p1[0] - p0[0]) * (p2[1] - p0[1]) - (p1[1] - p0[1]) * (p2[0] - p0[0])
        assert abs(cross) < 1e-9

    def test_seeded_trajectories_bit_exact(self, desk_area):
        params = MobilityParams()

        def run():
            rng = np.random.default_rng(77)
            users = init_users(a.drop_users_ppp(30, desk_area, rng), params, rng)
            for _ in range(4):
                users = step(users, [1.0] * 10, params, desk_area, rng)
            return [(u.pos.x, u.pos.y, u.speed, u.direction) for u in users]

        assert run() == run()

    def test_bad_dt_rejected(self, desk_area):
        for dts in (0.0, -1.0, [1.0, 0.0], [-1.0], [math.nan]):
            with pytest.raises(ConfigurationError, match="dt must be positive"):
                step(make_users(), dts, MobilityParams(), desk_area,
                     np.random.default_rng(0))


class TestRedrawDistributions:
    def test_speed_and_direction_uniform(self):
        params = MobilityParams(c_max=1.3)
        rng = np.random.default_rng(123)
        speeds, dirs = draw_velocities(params, rng, 100_000)
        _, p_speed = stats.kstest(speeds, stats.uniform(loc=0, scale=1.3).cdf)
        _, p_dir = stats.kstest(dirs, stats.uniform(loc=0, scale=2 * math.pi).cdf)
        assert p_speed > 0.01
        assert p_dir > 0.01


def test_params_validation():
    with pytest.raises(Exception):
        MobilityParams(c_max=-1.0)
    with pytest.raises(Exception):
        MobilityParams(boundary_policy="bounce")
