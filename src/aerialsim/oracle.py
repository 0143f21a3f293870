"""Exhaustive-search ground truth for the placement objective."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .deployment import PlacementGrid
from .geometry import ConfigurationError
# aggregate_qos is not called here; it stays a module attribute because
# bench/tracing.py wraps it.
from .radio import NetworkState, aggregate_qos, qos_map  # noqa: F401


def exhaustive_search(snapshot: NetworkState,
                      grid: PlacementGrid) -> Tuple[int, np.ndarray]:
    """(best state, QoS at every grid state) of the aggregate QoS.

    The map comes from radio.qos_map, which is bit-identical to an
    independent aggregate_qos call (a fresh max-SINR association) at each
    state; aggregate_qos is the reference the tests hold it to. Ties go to
    the lowest state index.
    """
    if grid.n_states < 1:
        raise ConfigurationError("placement grid is empty")
    qos = qos_map(snapshot, grid)
    return int(np.argmax(qos)), qos  # first maximum = lowest index on ties


def export_qos_csv(qos: np.ndarray, grid: PlacementGrid, path) -> None:
    """One row per state: its grid position (as grid_index_to_position) and QoS."""
    ix, iy, ih = np.unravel_index(np.arange(grid.n_states),
                                  (grid.n_x, grid.n_y, grid.n_h))
    rows = zip(range(grid.n_states), grid.xs[ix].tolist(), grid.ys[iy].tolist(),
               grid.hs[ih].tolist(), qos.tolist())
    # The rows csv.writer would write: no field needs quoting.
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.write("state,x,y,h,qos\n")
        f.writelines("%d,%r,%r,%r,%r\n" % row for row in rows)
