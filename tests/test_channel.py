import math

import numpy as np
import pytest

from aerialsim.channel import (SPEED_OF_LIGHT, AtgEnvironment, RadioParams,
                               atg_pathloss, atg_pathloss_hl, elevation_angle,
                               free_space_pathloss, ground_pathloss,
                               ground_pathloss_d, p_los)
from aerialsim.deployment import GroundBS
from aerialsim.geometry import DegenerateGeometryError, Position2D, Position3D


class TestElevationAngle:
    def test_45_degrees(self):
        assert elevation_angle(100.0, 100.0) == pytest.approx(math.pi / 4)

    def test_overhead(self):
        assert elevation_angle(100.0, 0.0) == pytest.approx(math.pi / 2)

    def test_30_degrees(self):
        assert elevation_angle(100.0, 100.0 * math.sqrt(3)) == pytest.approx(math.pi / 6)


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

    def test_literal_parenthesization_flag(self):
        env = AtgEnvironment(literal_los_exponent=True)
        theta = math.pi / 4
        expected = 1.0 / (1.0 + 9.61 * math.exp(-0.16 * 45.0 - 9.61))
        assert p_los(theta, env) == pytest.approx(expected, rel=1e-12)

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
        pl = atg_pathloss(Position3D(0, 0, 100.0), Position2D(0, 0), urban, radio)
        assert pl == pytest.approx(79.47, abs=0.01)

    def test_chained_from_atg(self, urban, radio):
        # Received power (dBm) of a 36 dBm aerial 100 m overhead.
        pl = atg_pathloss(Position3D(0, 0, 100.0), Position2D(0, 0), urban, radio)
        assert 36.0 - pl == pytest.approx(-43.47, abs=0.01)

    def test_1000m_overhead(self, urban, radio):
        pl = atg_pathloss(Position3D(0, 0, 1000.0), Position2D(0, 0), urban, radio)
        assert pl == pytest.approx(99.46, abs=0.01)

    def test_equal_excess_losses_reduce_to_fspl_plus_eta(self, radio):
        env = AtgEnvironment(eta_los=5.0, eta_nlos=5.0)
        for l in (0.0, 50.0, 2000.0):
            h = 120.0
            d = math.hypot(h, l)
            pl = atg_pathloss_hl(h, l, env, radio)
            assert pl == pytest.approx(free_space_pathloss(d, radio.carrier_freq) + 5.0,
                                       rel=1e-12)

    def test_zero_distance_rejected(self, urban, radio):
        with pytest.raises(DegenerateGeometryError):
            atg_pathloss_hl(0.0, 0.0, urban, radio)

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
        base = atg_pathloss(aerial, user, urban, radio)
        shifted = atg_pathloss(Position3D(aerial.x + 1234.5, aerial.y - 987.0, aerial.h),
                               Position2D(user.x + 1234.5, user.y - 987.0),
                               urban, radio)
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

    def test_bs_user_geometry(self, radio):
        bs = GroundBS(id=0, pos=Position3D(0, 0, 30.0))
        user = Position2D(40.0, 0.0)
        assert ground_pathloss(bs, user, radio) == pytest.approx(
            ground_pathloss_d(50.0, radio), rel=1e-12)

    def test_zero_distance_rejected(self, radio):
        with pytest.raises(DegenerateGeometryError):
            ground_pathloss_d(0.0, radio)


def test_environment_validation():
    with pytest.raises(ValueError):
        AtgEnvironment(kappa=0.0)
    with pytest.raises(ValueError):
        AtgEnvironment(eta_los=5.0, eta_nlos=1.0)
