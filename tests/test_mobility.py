import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from aerialsim.deployment import drop_users_ppp
from aerialsim.geometry import ConfigurationError, Position2D, ServiceArea
from aerialsim.mobility import (TIME_TOL, MobilityParams, User, Users,
                                draw_velocities, init_users, step)
from tests.conftest import DEFAULTS


def make_users(x=0.0, y=0.0, vx=1.0, vy=0.0, hold=10.0):
    """A Users record; x, y, vx and vy are one value per user (a scalar: one user)."""
    x, y, vx, vy = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (x, y, vx, vy))
    return Users(x, y, vx, vy, float(hold))


# ---------------------------------------------------------------------------
# Scalar reference: the walk one user and one scalar draw at a time.


def ref_draw_velocity(params, rng):
    """(speed, direction) by two scalar uniform draws."""
    speed = float(rng.uniform(0.0, params.c_max))
    direction = float(rng.uniform(0.0, 2.0 * math.pi))
    return speed, direction


def ref_velocity(params, rng):
    """(vx, vy) of one scalar (speed, direction) draw."""
    speed, direction = ref_draw_velocity(params, rng)
    return speed * math.cos(direction), speed * math.sin(direction)


def ref_mirror(p, v, lo, hi):
    """p mirrored once across the border of [lo, hi] it left, with v negated."""
    if p < lo:
        return 2 * lo - p, -v
    if p > hi:
        return 2 * hi - p, -v
    return p, v


def ref_walk(users, duration, params, area, rng):
    """users walked for duration seconds in continuous time, one user at a time.

    Stretch by stretch on the shared hold's clock, each user moves in a
    straight line for the stretch and is then mirrored once on each axis it
    left. When the hold runs out, every user draws a new velocity, in id
    order.
    """
    walkers = [(u.pos.x, u.pos.y, u.vx, u.vy) for u in users]
    hold, left = users.hold, duration
    while left > TIME_TOL:
        t = min(hold, left)
        moved = []
        for x, y, vx, vy in walkers:
            x, vx = ref_mirror(x + vx * t, vx, -area.half, area.half)
            y, vy = ref_mirror(y + vy * t, vy, -area.half, area.half)
            moved.append((x, y, vx, vy))
        walkers = moved
        hold -= t
        left -= t
        if hold <= TIME_TOL:
            walkers = [(x, y, *ref_velocity(params, rng)) for x, y, _, _ in walkers]
            hold = params.hold_time
    x, y, vx, vy = np.array(walkers, dtype=float).reshape(-1, 4).T
    return Users(x, y, vx, vy, float(hold))


def as_tuples(users):
    return [(u.id, u.pos.x, u.pos.y, u.vx, u.vy) for u in users], users.hold


finite = dict(allow_nan=False, allow_infinity=False)


@st.composite
def walks(draw):
    """Users, their parameters, a duration and the number of steps to take.

    A hold is drawn from expired to full, or equal to the duration or a
    fraction of it, so some run out inside a step and some at its end. A
    speed reaches the one-mirror bound, the area's side over the longest
    stretch, so some users cross the area. Users start anywhere within
    twice the area, so some start outside.
    """
    side = draw(st.floats(1.0, 2000.0, **finite))
    area = ServiceArea(side, DEFAULTS.h_min, DEFAULTS.h_max)
    hold_time = draw(st.floats(0.05, 20.0, **finite))
    duration = draw(st.floats(0.01, 30.0, **finite))
    top = side / min(hold_time, duration)  # the fastest speed one mirror allows
    params = MobilityParams(c_max=draw(st.sampled_from([0.0, 1.3, top])),
                            hold_time=hold_time)
    hold = draw(st.one_of(st.floats(0.0, hold_time, **finite),
                          st.sampled_from([min(duration * f, hold_time)
                                           for f in (1.0, 0.5, 1 / 3)])))
    n = draw(st.integers(0, 6))
    # Integer hundredths of the area width come out closer to uniform than
    # drawn floats, which favour the ends of their range.
    coord = st.one_of(st.floats(-side, side, **finite),
                      st.integers(-100, 100).map(lambda k: k * side / 100))
    speed = st.one_of(st.just(0.0), st.integers(0, 100).map(lambda k: k * top / 100),
                      st.floats(0.0, top, **finite))
    direction = st.floats(0.0, 2 * math.pi, exclude_max=True, **finite)
    speeds, directions = (draw(st.lists(s, min_size=n, max_size=n))
                          for s in (speed, direction))
    users = make_users(
        x=draw(st.lists(coord, min_size=n, max_size=n)),
        y=draw(st.lists(coord, min_size=n, max_size=n)),
        vx=[s * math.cos(d) for s, d in zip(speeds, directions)],
        vy=[s * math.sin(d) for s, d in zip(speeds, directions)],
        hold=hold)
    return users, params, area, duration, draw(st.integers(1, 3))


class TestStepMatchesScalarReference:
    @settings(max_examples=400, deadline=None)
    @given(walks(), st.integers(0, 2**32 - 1))
    def test_every_field_and_the_rng_state(self, walk, seed):
        users, params, area, duration, n_steps = walk
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        ref = users
        for _ in range(n_steps):
            users = step(users, duration, params, area, rng)
            ref = ref_walk(ref, duration, params, area, ref_rng)
            assert as_tuples(users) == as_tuples(ref)
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    @settings(max_examples=200, deadline=None)
    @given(walks(), st.integers(0, 2**32 - 1))
    def test_input_unchanged_and_hold_in_range(self, walk, seed):
        users, params, area, duration, n_steps = walk
        rng = np.random.default_rng(seed)
        for _ in range(n_steps):
            before = {k: np.asarray(v).tobytes() for k, v in vars(users).items()}
            after = step(users, duration, params, area, rng)
            assert {k: np.asarray(v).tobytes() for k, v in vars(users).items()} == before
            users = after
            assert TIME_TOL < users.hold <= params.hold_time

    @pytest.mark.parametrize("x, y, direction", [(-1100.0, 0.0, 0.0),
                                                 (0.0, -1100.0, math.pi / 2)])
    def test_walking_in_from_outside(self, desk_area, x, y, direction):
        # Outside at the start and inside at the end of the stretch: a
        # straight walk in, with no mirror and the velocity kept.
        params = MobilityParams(c_max=100.0, hold_time=30.0)
        users = make_users(x=x, y=y, vx=40.0 * math.cos(direction),
                           vy=40.0 * math.sin(direction), hold=30.0)
        out = step(users, 3.0, params, desk_area, np.random.default_rng(0))
        ref = ref_walk(users, 3.0, params, desk_area, np.random.default_rng(0))
        assert as_tuples(out) == as_tuples(ref)
        assert max(abs(out[0].pos.x), abs(out[0].pos.y)) <= desk_area.half
        assert (out[0].vx, out[0].vy) == (users[0].vx, users[0].vy)

    def test_seeded_drop_over_many_steps(self, desk_area):
        params = MobilityParams(c_max=40.0, hold_time=3.0)
        rng = np.random.default_rng(11)
        users = init_users(drop_users_ppp(200, desk_area, rng), params, rng)
        ref_rng = np.random.default_rng(0)
        ref_rng.bit_generator.state = rng.bit_generator.state
        ref = users
        for _ in range(10):
            users = step(users, 4.4, params, desk_area, rng)
            ref = ref_walk(ref, 4.4, params, desk_area, ref_rng)
        assert as_tuples(users) == as_tuples(ref)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_init_users_draws_like_the_scalar_reference(self, desk_area):
        params = MobilityParams()
        xs, ys = drop_users_ppp(50, desk_area, np.random.default_rng(0))
        users = init_users((xs, ys), params, np.random.default_rng(1))
        ref_rng = np.random.default_rng(1)
        assert users.hold == params.hold_time
        for i, (x, y, u) in enumerate(zip(xs.tolist(), ys.tolist(), users)):
            assert (u.id, u.pos) == (i, Position2D(x, y))
            assert (u.vx, u.vy) == ref_velocity(params, ref_rng)

    def test_draw_velocities_is_the_scalar_draw(self):
        params = MobilityParams(c_max=1.3)
        rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
        speed, direction = draw_velocities(params, rng, 1000)
        assert list(zip(speed.tolist(), direction.tolist())) == \
            [ref_draw_velocity(params, ref_rng) for _ in range(1000)]
        assert rng.bit_generator.state == ref_rng.bit_generator.state


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), hold_time=st.integers(5, 400),
       hold=st.integers(0, 400), t1=st.integers(1, 400), t2=st.integers(1, 400))
def test_the_walk_is_split_invariant(seed, hold_time, hold, t1, t2):
    # Times in hundredths of a second, so a hold runs out inside either part
    # or on its end, never within the time tolerance of a part's end.
    area = DEFAULTS.service_area()
    params = MobilityParams(c_max=area.side / (hold_time / 100), hold_time=hold_time / 100)
    rng = np.random.default_rng(seed)
    users = init_users(drop_users_ppp(20, area, rng), params, rng)
    users = replace(users, hold=min(hold, hold_time) / 100)
    split_rng = np.random.default_rng(0)
    split_rng.bit_generator.state = rng.bit_generator.state
    whole = step(users, (t1 + t2) / 100, params, area, rng)
    split = step(step(users, t1 / 100, params, area, split_rng), t2 / 100,
                 params, area, split_rng)
    np.testing.assert_allclose(split.x, whole.x, rtol=0, atol=1e-9)
    np.testing.assert_allclose(split.y, whole.y, rtol=0, atol=1e-9)
    assert (split.vx.tobytes(), split.vy.tobytes()) == (whole.vx.tobytes(), whole.vy.tobytes())
    assert split.hold == pytest.approx(whole.hold, abs=1e-9)
    assert split_rng.bit_generator.state == rng.bit_generator.state


@settings(max_examples=200, deadline=None)
@given(side=st.floats(1.0, 2000.0, **finite), duration=st.floats(0.01, 30.0, **finite),
       n_steps=st.integers(1, 3), data=st.data())
def test_mirrored_users_walk_to_the_mirrored_positions(side, duration, n_steps, data):
    # A square centred on the origin has borders at -side/2 and side/2, and
    # negation is exact, so a user mirrored in x (x, vx -> -x, -vx), in y or
    # in both walks to exactly the mirror of where the user walks. The hold
    # outlasts every step (no redraw), and a speed reaches the one-mirror
    # bound, the side over the stretch.
    area = ServiceArea(side, DEFAULTS.h_min, DEFAULTS.h_max)
    params = MobilityParams(c_max=side / duration, hold_time=(n_steps + 1) * duration)
    n = data.draw(st.integers(1, 8))
    coord = st.floats(-0.5, 0.5, **finite).map(lambda u: u * side)
    speed = st.floats(0.0, params.c_max, **finite)
    direction = st.floats(0.0, 2 * math.pi, exclude_max=True, **finite)
    x, y, s, d = (np.array(data.draw(st.lists(e, min_size=n, max_size=n)))
                  for e in (coord, coord, speed, direction))
    users = Users(x, y, s * np.cos(d), s * np.sin(d), params.hold_time)
    for sx, sy in ((-1.0, 1.0), (1.0, -1.0), (-1.0, -1.0)):
        walked = users
        mirrored = Users(sx * x, sy * y, sx * users.vx, sy * users.vy, params.hold_time)
        for _ in range(n_steps):
            walked = step(walked, duration, params, area, np.random.default_rng(0))
            mirrored = step(mirrored, duration, params, area, np.random.default_rng(0))
        assert walked.hold == mirrored.hold
        assert (sx * walked.x).tolist() == mirrored.x.tolist()
        assert (sy * walked.y).tolist() == mirrored.y.tolist()
        assert (sx * walked.vx).tolist() == mirrored.vx.tolist()
        assert (sy * walked.vy).tolist() == mirrored.vy.tolist()


class TestUsers:
    def test_views_and_arrays(self):
        users = make_users(x=[1.0, 2.0, 3.0], y=[4.0, 5.0, 6.0],
                           vx=[0.1, 0.2, 0.3], vy=[-0.1, -0.2, -0.3], hold=7.0)
        assert len(users) == 3
        assert (users.x.tolist(), users.y.tolist()) == ([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
        assert users[1] == User(id=1, pos=Position2D(2.0, 5.0), vx=0.2, vy=-0.2)
        assert users[-1].id == 2
        assert [u.id for u in users] == [0, 1, 2]
        with pytest.raises(IndexError):
            users[3]

    def test_no_users(self, desk_area):
        rng = np.random.default_rng(0)
        users = init_users((np.empty(0), np.empty(0)), MobilityParams(), rng)
        assert len(users) == 0 and not users
        assert users.x.shape == users.y.shape == (0,)
        assert list(users) == []
        state = rng.bit_generator.state
        assert len(step(users, 1.0, MobilityParams(), desk_area, rng)) == 0
        assert len(step(users, 25.0, MobilityParams(), desk_area, rng)) == 0
        assert rng.bit_generator.state == state


class TestStep:
    def test_zero_speed_stays_put(self, desk_area):
        u = make_users(vx=0.0, vy=0.0, hold=30.0)
        rng = np.random.default_rng(0)
        out = step(u, 14.0, MobilityParams(hold_time=30.0), desk_area, rng)
        assert (out[0].pos.x, out[0].pos.y) == (0.0, 0.0)

    def test_axis_aligned_motion(self, desk_area):
        u = make_users(vx=1.0, vy=0.0, hold=30.0)
        out = step(u, 10.0, MobilityParams(hold_time=30.0), desk_area,
                   np.random.default_rng(0))
        assert out[0].pos.x == pytest.approx(10.0)
        assert out[0].pos.y == pytest.approx(0.0, abs=1e-12)

    def test_mirror_at_the_border(self, desk_area):
        u = make_users(x=[990.0, 0.0], y=[0.0, -995.0], vx=[20.0, 0.0], vy=[0.0, -10.0])
        out = step(u, 1.0, MobilityParams(), desk_area, np.random.default_rng(0))
        assert (out.x.tolist(), out.y.tolist()) == ([990.0, 0.0], [0.0, -995.0])
        assert (out.vx.tolist(), out.vy.tolist()) == ([-20.0, 0.0], [0.0, 10.0])

    def test_hold_countdown_and_redraw(self, desk_area):
        params = MobilityParams(hold_time=10.0)
        u = make_users(vx=1.0, vy=0.0)
        rng = np.random.default_rng(1)
        mid = step(u, 4.0, params, desk_area, rng)
        assert mid.hold == pytest.approx(6.0)
        assert mid[0].vx == 1.0
        done = step(mid, 6.0, params, desk_area, rng)
        assert done.hold == 10.0
        assert done[0].vx != 1.0

    def test_hold_expiring_mid_slot_restarts_the_countdown(self, desk_area):
        params = MobilityParams(hold_time=10.0)
        u = make_users(vx=1.0, vy=0.0)
        out = step(u, 11.0, params, desk_area, np.random.default_rng(1))
        assert out.hold == pytest.approx(9.0)
        assert out[0].vx != 1.0

    def test_displacement_bounded_by_cmax_duration(self, desk_area):
        params = MobilityParams()
        rng = np.random.default_rng(2)
        users = init_users(drop_users_ppp(200, desk_area, rng), params, rng)
        for before, after in zip(users, step(users, 3.0, params, desk_area, rng)):
            disp = math.dist((before.pos.x, before.pos.y), (after.pos.x, after.pos.y))
            assert disp <= params.c_max * 3.0 + 1e-9

    def test_reflect_keeps_users_inside(self, desk_area):
        params = MobilityParams(c_max=50.0, hold_time=5.0)
        rng = np.random.default_rng(3)
        users = init_users(drop_users_ppp(100, desk_area, rng), params, rng)
        for _ in range(10):
            users = step(users, 10.0, params, desk_area, rng)
            assert max(np.abs(users.x).max(), np.abs(users.y).max()) <= desk_area.half

    def test_straight_line_within_hold(self, desk_area):
        params = MobilityParams(hold_time=10.0)
        u = make_users(x=10.0, y=20.0, vx=1.1 * math.cos(0.87), vy=1.1 * math.sin(0.87))
        p0 = (u[0].pos.x, u[0].pos.y)
        u1 = step(u, 2.0, params, desk_area, np.random.default_rng(5))
        u2 = step(u, 4.0, params, desk_area, np.random.default_rng(5))
        p1, p2 = (u1[0].pos.x, u1[0].pos.y), (u2[0].pos.x, u2[0].pos.y)
        cross = (p1[0] - p0[0]) * (p2[1] - p0[1]) - (p1[1] - p0[1]) * (p2[0] - p0[0])
        assert abs(cross) < 1e-9

    def test_seeded_trajectories_bit_exact(self, desk_area):
        params = MobilityParams()

        def run():
            rng = np.random.default_rng(77)
            users = init_users(drop_users_ppp(30, desk_area, rng), params, rng)
            for _ in range(4):
                users = step(users, 10.0, params, desk_area, rng)
            return [(u.pos.x, u.pos.y, u.vx, u.vy) for u in users]

        assert run() == run()


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
    for bad in ({"c_max": -1.0}, {"hold_time": 0.0}):
        with pytest.raises(ConfigurationError, match="c_max must be >= 0 and hold_time"):
            MobilityParams(**bad)
