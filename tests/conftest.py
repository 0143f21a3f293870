from dataclasses import replace

import numpy as np
import pytest

from aerialsim.channel import AtgEnvironment, RadioParams
from aerialsim.deployment import PlacementGrid
from aerialsim import scenario
from aerialsim.mobility import Users
from aerialsim.placement import learn_placement
from aerialsim.scenario import ScenarioConfig, build_network, disable_site, run_scenario

# Model values for networks built by hand: the config's defaults.
DEFAULTS = ScenarioConfig()


@pytest.fixture
def urban():
    return AtgEnvironment()


@pytest.fixture
def radio():
    return RadioParams()


@pytest.fixture
def desk_area():
    return DEFAULTS.service_area()


@pytest.fixture
def desk_grid(desk_area):
    return PlacementGrid(desk_area, 5, 5, 3)


def make_snapshot(seed, area, n_users=50, n_rings=1, disabled=0):
    """Frozen t_st network snapshot: hex ground layout minus one site, PPP users.

    It is the t=0 network of a run with this seed over area (a square centred
    on the origin) and default parameters otherwise, with site disabled off
    (None keeps every site on). Returns (snapshot, learning_rng), the
    learning generator being the one such a run would learn with.
    """
    cfg = ScenarioConfig(seed=seed, n_users=n_users, n_rings=n_rings,
                         area_side=area.side, h_min=area.h_min, h_max=area.h_max)
    assert cfg.service_area() == area
    snap, _, rng_learn = build_network(cfg)
    if disabled is not None:
        snap = disable_site(snap, replace(cfg, disabled_bs=disabled))
    return snap, rng_learn


def users_at(points) -> Users:
    """Users standing still at the given points (each with .x and .y), in order."""
    x = np.array([p.x for p in points], dtype=float)
    y = np.array([p.y for p in points], dtype=float)
    zero = np.zeros(x.size)
    return Users(x, y, zero, zero, DEFAULTS.mobility.hold_time)


def episodes_to_reach(result, qos_target):
    """First episode (1-based) whose greedy rollout in a LearnResult attains
    qos_target, or None."""
    hits = np.nonzero(result.episode_greedy_qos >= qos_target)[0]
    return int(hits[0]) + 1 if hits.size else None


def trigger_tables(monkeypatch, cfg):
    """Runs cfg; gives (table, its visit sum) as handed to the learner at each trigger."""
    entries = []

    def spy(initial_state, snapshot, q, *args):
        entries.append((q, int(q.visit_counts.sum())))
        return learn_placement(initial_state, snapshot, q, *args)

    monkeypatch.setattr(scenario, "learn_placement", spy)
    run_scenario(cfg)
    return entries
