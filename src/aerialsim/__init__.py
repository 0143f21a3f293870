"""Downlink cellular simulator with Q-learning 3D aerial-BS placement."""

from __future__ import annotations

from .channel import (AtgEnvironment, RadioParams, URBAN, atg_pathloss_hl,
                      elevation_angle, ground_pathloss_d, p_los)
from .deployment import (GroundBS, PlacementGrid, drop_users_ppp,
                         grid_index_to_position, hex_layout,
                         position_to_grid_index)
from .geometry import (ConfigurationError, DegenerateGeometryError, Position2D,
                       Position3D, ServiceArea, square_area)
from .mobility import MobilityParams, User, Users, init_users, step
from .oracle import exhaustive_search, export_qos_csv
from .placement import (Action, LearnResult, LearningConfig, QTable,
                        greedy_rollout, learn_placement, load_qtable,
                        save_qtable)
from .radio import NetworkState, aggregate_qos, link_report, throughput
from .scenario import (ScenarioConfig, ScenarioRun, TimeSlotRecord,
                       build_config, emit_outputs, run_scenario, sinr_cdf,
                       spectral_efficiency_summary)

__version__ = "0.1.0"
