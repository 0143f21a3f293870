from dataclasses import replace

import numpy as np
import pytest

import aerialsim as a
from aerialsim.channel import AtgEnvironment, RadioParams
from aerialsim.mobility import Users
from aerialsim.scenario import ScenarioConfig, build_network, disable_site


@pytest.fixture
def urban():
    return AtgEnvironment()


@pytest.fixture
def radio():
    return RadioParams()


@pytest.fixture
def desk_area():
    return a.square_area(2000.0)


@pytest.fixture
def desk_grid(desk_area):
    return a.PlacementGrid(desk_area, 5, 5, 3)


def make_snapshot(seed, area, n_users=50, n_rings=1, disabled=0):
    """Frozen t_st network snapshot: hex ground layout minus one site, PPP users.

    It is the t=0 network of a run with this seed over area (a square centred
    on the origin) and default parameters otherwise, with site disabled off
    (None keeps every site on). Returns (snapshot, learning_rng), the
    learning generator being the one such a run would learn with.
    """
    cfg = ScenarioConfig(seed=seed, n_users=n_users, n_rings=n_rings,
                         area_side=area.width, h_min=area.h_min, h_max=area.h_max,
                         disabled_bs=disabled)
    assert cfg.service_area() == area
    snap, _, rng_learn = build_network(cfg)
    if disabled is not None:
        snap = replace(snap, ground_bs=disable_site(snap.ground_bs, cfg))
    return snap, rng_learn


def users_at(points) -> Users:
    """Users standing still at the given points (each with .x and .y), in order."""
    xy = np.array([(p.x, p.y) for p in points], dtype=float).reshape(-1, 2)
    zero = np.zeros(len(xy))
    return Users(xy[:, 0], xy[:, 1], zero, zero, zero)
