import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import aerialsim as a
from aerialsim.geometry import Position2D
from aerialsim.mobility import (MobilityParams, User, Users, draw_velocity,
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


def as_tuples(users):
    return [(u.id, u.pos.x, u.pos.y, u.speed, u.direction, u.hold_remaining)
            for u in users]


finite = dict(allow_nan=False, allow_infinity=False)


@st.composite
def walks(draw):
    """Users, a boundary policy, a time step and a number of steps.

    Speeds reach several area widths per step, so users fold more than once;
    holds start anywhere from expired to full, so some expire on the first step.
    """
    side = draw(st.floats(1.0, 2000.0, **finite))
    area = a.square_area(side)
    params = MobilityParams(
        c_max=draw(st.sampled_from([0.0, 1.3, 4.0 * side])),
        hold_time=draw(st.floats(0.05, 20.0, **finite)),
        boundary_policy=draw(st.sampled_from(["reflect", "wrap"])))
    n = draw(st.integers(0, 6))
    coord = st.floats(-side / 2, side / 2, **finite)
    users = make_users(
        x=draw(st.lists(coord, min_size=n, max_size=n)),
        y=draw(st.lists(coord, min_size=n, max_size=n)),
        speed=draw(st.lists(st.floats(0.0, 5.0 * side, **finite), min_size=n, max_size=n)),
        direction=draw(st.lists(st.floats(0.0, 2 * math.pi, exclude_max=True, **finite),
                                min_size=n, max_size=n)),
        hold=draw(st.lists(st.floats(0.0, params.hold_time, **finite),
                           min_size=n, max_size=n)))
    dt = draw(st.floats(0.01, 3.0, **finite))
    return users, params, area, dt, draw(st.integers(1, 4))


class TestStepMatchesScalarReference:
    @settings(max_examples=300, deadline=None)
    @given(walks(), st.integers(0, 2**32 - 1))
    def test_every_field_and_the_rng_state(self, walk, seed):
        users, params, area, dt, n_steps = walk
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        ref = list(users)
        for _ in range(n_steps):
            users = step(users, dt, params, area, rng)
            ref = ref_step(ref, dt, params, area, ref_rng)
            assert as_tuples(users) == as_tuples(ref)
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("policy", ["reflect", "wrap"])
    def test_seeded_drop_over_many_steps(self, desk_area, policy):
        params = MobilityParams(c_max=40.0, hold_time=3.0, boundary_policy=policy)
        rng = np.random.default_rng(11)
        users = init_users(a.drop_users_ppp(200, desk_area, rng), params, rng)
        ref_rng = np.random.default_rng(0)
        ref_rng.bit_generator.state = rng.bit_generator.state
        ref = list(users)
        for _ in range(60):
            users = step(users, 0.7, params, desk_area, rng)
            ref = ref_step(ref, 0.7, params, desk_area, ref_rng)
        assert as_tuples(users) == as_tuples(ref)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_init_users_draws_like_the_scalar_reference(self, desk_area):
        params = MobilityParams()
        positions = a.drop_users_ppp(50, desk_area, np.random.default_rng(0))
        users = init_users(positions, params, np.random.default_rng(1))
        ref_rng = np.random.default_rng(1)
        for i, (p, u) in enumerate(zip(positions, users)):
            assert (u.id, u.pos) == (i, p)
            assert (u.speed, u.direction) == ref_draw_velocity(params, ref_rng)
            assert u.hold_remaining == params.hold_time

    def test_draw_velocity_is_the_scalar_draw(self):
        params = MobilityParams(c_max=1.3)
        rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
        for _ in range(1000):
            assert draw_velocity(params, rng) == ref_draw_velocity(params, ref_rng)


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
        users = init_users([], MobilityParams(), rng)
        assert len(users) == 0 and not users
        assert users.xy.shape == (0, 2)
        assert list(users) == []
        state = rng.bit_generator.state
        assert len(step(users, 1.0, MobilityParams(), desk_area, rng)) == 0
        assert rng.bit_generator.state == state


class TestStep:
    def test_zero_speed_stays_put(self, desk_area):
        u = make_users(speed=0.0, direction=1.234)
        rng = np.random.default_rng(0)
        out = step(u, 7.0, MobilityParams(), desk_area, rng)
        assert (out[0].pos.x, out[0].pos.y) == (0.0, 0.0)

    def test_axis_aligned_motion(self, desk_area):
        u = make_users(speed=1.0, direction=0.0, hold=30.0)
        out = step(u, 10.0, MobilityParams(hold_time=30.0), desk_area,
                   np.random.default_rng(0))
        assert out[0].pos.x == pytest.approx(10.0)
        assert out[0].pos.y == pytest.approx(0.0, abs=1e-12)

    def test_hold_countdown_and_redraw(self, desk_area):
        params = MobilityParams(hold_time=10.0)
        u = make_users(speed=1.0, direction=0.0)
        rng = np.random.default_rng(1)
        mid = step(u, 4.0, params, desk_area, rng)
        assert mid[0].hold_remaining == pytest.approx(6.0)
        assert mid[0].speed == 1.0
        done = step(mid, 6.0, params, desk_area, rng)
        assert done[0].hold_remaining == pytest.approx(10.0)

    def test_displacement_bounded_by_cmax_dt(self, desk_area):
        params = MobilityParams()
        rng = np.random.default_rng(2)
        users = init_users(a.drop_users_ppp(200, desk_area, rng), params, rng)
        dt = 3.0
        for before, after in zip(users, step(users, dt, params, desk_area, rng)):
            disp = math.dist((before.pos.x, before.pos.y), (after.pos.x, after.pos.y))
            assert disp <= params.c_max * dt + 1e-9

    def test_reflect_keeps_users_inside(self, desk_area):
        params = MobilityParams(c_max=50.0, hold_time=5.0)
        rng = np.random.default_rng(3)
        users = init_users(a.drop_users_ppp(100, desk_area, rng), params, rng)
        for _ in range(100):
            users = step(users, 1.0, params, desk_area, rng)
            assert all(desk_area.contains_2d(u.pos) for u in users)

    def test_wrap_keeps_users_inside(self, desk_area):
        params = MobilityParams(c_max=50.0, hold_time=5.0, boundary_policy="wrap")
        rng = np.random.default_rng(4)
        users = init_users(a.drop_users_ppp(50, desk_area, rng), params, rng)
        for _ in range(50):
            users = step(users, 1.0, params, desk_area, rng)
            assert all(desk_area.contains_2d(u.pos) for u in users)

    def test_straight_line_within_hold(self, desk_area):
        params = MobilityParams(hold_time=10.0)
        u = make_users(x=10.0, y=20.0, speed=1.1, direction=0.87)
        rng = np.random.default_rng(5)
        p0 = (u[0].pos.x, u[0].pos.y)
        u1 = step(u, 2.0, params, desk_area, rng)
        u2 = step(u1, 2.0, params, desk_area, rng)
        p1, p2 = (u1[0].pos.x, u1[0].pos.y), (u2[0].pos.x, u2[0].pos.y)
        cross = (p1[0] - p0[0]) * (p2[1] - p0[1]) - (p1[1] - p0[1]) * (p2[0] - p0[0])
        assert abs(cross) < 1e-9

    def test_seeded_trajectories_bit_exact(self, desk_area):
        params = MobilityParams()

        def run():
            rng = np.random.default_rng(77)
            users = init_users(a.drop_users_ppp(30, desk_area, rng), params, rng)
            for _ in range(40):
                users = step(users, 1.0, params, desk_area, rng)
            return [(u.pos.x, u.pos.y, u.speed, u.direction) for u in users]

        assert run() == run()

    def test_bad_dt_rejected(self, desk_area):
        with pytest.raises(Exception):
            step(make_users(), 0.0, MobilityParams(), desk_area,
                 np.random.default_rng(0))


class TestRedrawDistributions:
    def test_speed_and_direction_uniform(self):
        params = MobilityParams(c_max=1.3)
        rng = np.random.default_rng(123)
        draws = [draw_velocity(params, rng) for _ in range(100_000)]
        speeds = np.array([d[0] for d in draws])
        dirs = np.array([d[1] for d in draws])
        _, p_speed = stats.kstest(speeds, stats.uniform(loc=0, scale=1.3).cdf)
        _, p_dir = stats.kstest(dirs, stats.uniform(loc=0, scale=2 * math.pi).cdf)
        assert p_speed > 0.01
        assert p_dir > 0.01


def test_params_validation():
    with pytest.raises(Exception):
        MobilityParams(c_max=-1.0)
    with pytest.raises(Exception):
        MobilityParams(boundary_policy="bounce")
