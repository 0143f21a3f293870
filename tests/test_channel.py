import math

import numpy as np
import pytest

from aerialsim.channel import (AtgEnvironment, RadioParams, atg_pathloss_hl, dbm_to_mw,
                               free_space_pathloss, ground_pathloss_d, p_los)
from aerialsim.deployment import GroundBS
from aerialsim.geometry import DegenerateGeometryError, Position2D, Position3D
from aerialsim.radio import (NetworkState, _aerial_power, _ground_power, _strongest_sinr,
                             throughput)
from tests.conftest import DEFAULTS, users_at


class TestPLos:
    def test_90_degrees_urban(self, urban):
        # hand evaluation: 1 / (1 + 9.61 * exp(-0.16 * (90 - 9.61)))
        assert p_los(math.pi / 2, urban) == pytest.approx(0.999975, abs=1e-6)

    def test_near_zero_urban(self, urban):
        # hand evaluation: 1 / (1 + 9.61 * exp(0.16 * 9.61))
        assert p_los(1e-12, urban) == pytest.approx(0.02188, abs=1e-4)

    def test_theta_equals_kappa_degrees(self, urban):
        theta = math.radians(urban.kappa)
        assert p_los(theta, urban) == pytest.approx(1.0 / (1.0 + urban.kappa), rel=1e-12)

    def test_strictly_increasing_into_unit_interval(self, urban):
        thetas = np.linspace(1e-6, math.pi / 2, 500)
        p = p_los(thetas, urban)
        assert np.all(np.diff(p) > 0)
        assert np.all((p > 0) & (p < 1))

    @pytest.mark.parametrize("zeta, kappa", [(1e30, 9.61), (0.16, 1e300), (80.0, 9.0)])
    def test_overflowing_sigmoid_rejected(self, zeta, kappa):
        # At 0 degrees the exponent is zeta * kappa; np.exp of more than about
        # 709 overflows with a warning.
        with pytest.raises(ValueError, match="zeta \\* kappa too large"):
            AtgEnvironment(zeta=zeta, kappa=kappa)

    def test_steepest_accepted_sigmoid_stays_finite(self):
        # Warnings fail the tests, so this also checks that none is raised.
        p = p_los(np.radians([0.0, 1.0, 90.0]), AtgEnvironment(zeta=70.0, kappa=9.61))
        assert np.all((p >= 0.0) & (p <= 1.0)) and p[-1] == 1.0


class TestAtgPathloss:
    def test_100m_overhead(self, urban, radio):
        pl = atg_pathloss_hl(100.0, 0.0, urban, radio)
        assert pl == pytest.approx(79.47, abs=0.01)

    def test_chained_from_atg(self, urban, radio):
        # Received power (dBm) of a 36 dBm aerial 100 m overhead.
        pl = atg_pathloss_hl(100.0, 0.0, urban, radio)
        assert 36.0 - pl == pytest.approx(-43.47, abs=0.01)

    def test_1000m_overhead(self, urban, radio):
        pl = atg_pathloss_hl(1000.0, 0.0, urban, radio)
        assert pl == pytest.approx(99.46, abs=0.01)

    def test_equal_excess_losses_reduce_to_fspl_plus_eta(self, radio):
        env = AtgEnvironment(eta_los=5.0, eta_nlos=5.0)
        for l in (0.0, 50.0, 2000.0):
            h = 120.0
            d = math.hypot(h, l)
            pl = atg_pathloss_hl(h, l, env, radio)
            assert pl == pytest.approx(free_space_pathloss(d, radio.carrier_freq) + 5.0,
                                       rel=1e-12)

    def test_bounded_by_los_and_nlos_fspl(self, urban, radio):
        rng = np.random.default_rng(7)
        h = rng.uniform(25, 525, 200)
        l = rng.uniform(0, 3000, 200)
        d = np.hypot(h, l)
        pl = atg_pathloss_hl(h, l, urban, radio)
        fspl = free_space_pathloss(d, radio.carrier_freq)
        assert np.all(pl >= fspl + urban.eta_los - 1e-9)
        assert np.all(pl <= fspl + urban.eta_nlos + 1e-9)

    def test_interior_minimum_in_height(self, urban, radio):
        # LoS/FSPL trade-off: at fixed l=1000 m the loss is not monotone in h.
        hs = np.linspace(25, 2000, 200)
        pl = atg_pathloss_hl(hs, 1000.0, urban, radio)
        i = int(np.argmin(pl))
        assert 0 < i < len(hs) - 1

    def test_translation_invariance(self, urban, radio):
        aerial = Position3D(120.0, -40.0, 300.0)
        user = Position2D(-500.0, 250.0)
        base = atg_pathloss_hl(aerial.h, np.hypot(aerial.x - user.x, aerial.y - user.y),
                               urban, radio)
        l = np.hypot((aerial.x + 1234.5) - (user.x + 1234.5),
                     (aerial.y - 987.0) - (user.y - 987.0))
        shifted = atg_pathloss_hl(aerial.h, l, urban, radio)
        assert shifted == pytest.approx(base, rel=1e-12)


class TestGroundPathloss:
    def test_reference_distance(self, radio):
        assert ground_pathloss_d(1.0, radio) == pytest.approx(radio.ground_ref_loss)

    def test_100m_hand_value(self, radio):
        # 38.4 + 10 * 3.5 * log10(100) = 108.4
        assert ground_pathloss_d(100.0, radio) == pytest.approx(108.4, abs=1e-9)

    def test_doubling_distance(self, radio):
        d = 313.0
        delta = ground_pathloss_d(2 * d, radio) - ground_pathloss_d(d, radio)
        assert delta == pytest.approx(10 * 3.5 * math.log10(2), rel=1e-12)

    def test_bs_user_geometry(self, urban, radio):
        # The radio's site-to-user distance: 30 m up and 40 m across is 50 m.
        bs = GroundBS(id=0, pos=Position3D(0, 0, 30.0), tx_power=DEFAULTS.ground_tx_power)
        state = NetworkState(ground_bs=[bs], users=users_at([Position2D(40.0, 0.0)]),
                             env=urban, radio=radio,
                             aerial_tx_power=DEFAULTS.aerial_tx_power)
        assert _ground_power(state, state.users)[0, 0] == pytest.approx(
            dbm_to_mw(bs.tx_power - ground_pathloss_d(50.0, radio)), rel=1e-12)

    def test_zero_distance_rejected(self, radio):
        with pytest.raises(DegenerateGeometryError):
            ground_pathloss_d(0.0, radio)


def test_environment_validation():
    with pytest.raises(ValueError):
        AtgEnvironment(kappa=0.0)
    with pytest.raises(ValueError):
        AtgEnvironment(eta_los=5.0, eta_nlos=1.0)


# Inputs shaped as qos_map passes them: heights (n_h, 1) and horizontal
# distances (columns, 1, users), which broadcast to columns x heights x users.
_RNG = np.random.default_rng(0)
_H = _RNG.uniform(25.0, 525.0, (3, 1))
_L = np.concatenate([np.zeros((1, 1, 5)), _RNG.uniform(0.0, 2000.0, (3, 1, 5))])
_SHAPE = (4, 3, 5)
_X = _RNG.uniform(0.01, 1.5, _SHAPE)            # angles, distances, SINRs
_DBM = _RNG.uniform(-120.0, 40.0, _SHAPE)
_GSUM, _GMAX = _RNG.uniform(0.0, 1e-9, (2, 5))   # a user's ground sum and maximum


def _formula_calls(env, radio=RadioParams()):
    """name -> (function, array args, scalar args, keywords) for each formula with out."""
    state = NetworkState(ground_bs=[], users=users_at([]), env=env, radio=radio,
                         aerial_tx_power=DEFAULTS.aerial_tx_power)
    work2 = (np.empty(_SHAPE), np.empty(_SHAPE))
    return {
        "p_los": (p_los, (_X, env), (0.3, env), {}),
        "free_space_pathloss": (free_space_pathloss, (_X, radio.carrier_freq),
                                (120.0, radio.carrier_freq), {}),
        "atg_pathloss_hl": (atg_pathloss_hl, (_H, _L, env, radio),
                            (100.0, 30.0, env, radio), {}),
        "atg_pathloss_hl work": (atg_pathloss_hl, (_H, _L, env, radio),
                                 (100.0, 30.0, env, radio), {"work": work2}),
        "dbm_to_mw": (dbm_to_mw, (_DBM,), (-60.0,), {}),
        "_aerial_power": (_aerial_power, (state, _H, _L), (state, 100.0, 30.0), {}),
        "_aerial_power work": (_aerial_power, (state, _H, _L), (state, 100.0, 30.0),
                               {"work": work2}),
        "_strongest_sinr": (_strongest_sinr, (1e-13, _GSUM, _GMAX, _X * 1e-9),
                            (1e-13, 2e-10, 1e-10, 3e-10), {}),
        "_strongest_sinr work": (_strongest_sinr, (1e-13, _GSUM, _GMAX, _X * 1e-9),
                                 (1e-13, 2e-10, 1e-10, 3e-10), {"work": np.empty(_SHAPE)}),
        "throughput": (throughput, (_X,), (3.0,), {}),
    }


_FORMULAS = _formula_calls(AtgEnvironment())


@pytest.mark.parametrize("strided", [False, True])
@pytest.mark.parametrize("name", _FORMULAS)
def test_out_gives_the_same_bits(name, strided):
    # out is a fresh array, or a view of every other element of a larger one.
    fn, args, scalar_args, kw = _FORMULAS[name]
    want = fn(*args)
    assert want.shape == _SHAPE
    out = np.full(_SHAPE[:-1] + (2 * _SHAPE[-1],), np.nan)[..., ::2] if strided \
        else np.full(_SHAPE, np.nan)
    got = fn(*args, out=out, **kw)
    assert got is out
    assert got.tobytes() == want.tobytes()
    # Without out, scalar input still gives a scalar, not a 0-d array.
    value = fn(*scalar_args)
    assert isinstance(value, np.float64) and not isinstance(value, np.ndarray)


@pytest.mark.parametrize("fn, args", [
    (p_los, (AtgEnvironment(),)), (free_space_pathloss, (2.0e9,)), (dbm_to_mw, ()),
    (throughput, ()),
])
def test_out_may_be_the_input(fn, args):
    # qos_map runs these in place on its working arrays.
    x = _X.copy()
    assert fn(x, *args, out=x) is x
    assert x.tobytes() == fn(_X, *args).tobytes()
