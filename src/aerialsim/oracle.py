"""Exhaustive-search ground truth for the placement objective."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .deployment import PlacementGrid
# aggregate_qos is not called here; it stays a module attribute because
# bench/tracing.py patches it.
from .radio import NetworkState, aggregate_qos, qos_map  # noqa: F401


def exhaustive_search(snapshot: NetworkState,
                      grid: PlacementGrid) -> Tuple[int, np.ndarray]:
    """(best state, QoS at every grid state) of the aggregate QoS.

    The map comes from radio.qos_map, which is bit-identical to an
    independent aggregate_qos call (a fresh max-SINR association) at each
    state; aggregate_qos is the reference the tests hold it to. Ties go to
    the lowest state index.
    """
    qos = qos_map(snapshot, grid)
    return int(np.argmax(qos)), qos  # first maximum = lowest index on ties


def export_qos_csv(qos: np.ndarray, grid: PlacementGrid, path) -> None:
    """One row per state: its grid position (as grid_index_to_position) and QoS."""
    idx = np.unravel_index(np.arange(grid.n_states), (grid.n_x, grid.n_y, grid.n_h))
    # Each axis value is repr'd once, not once per row.
    x, y, h = (np.array([repr(v) for v in axis.tolist()])[i].tolist()
               for axis, i in zip((grid.xs, grid.ys, grid.hs), idx))
    rows = zip(range(grid.n_states), x, y, h, qos.tolist())
    # The rows csv.writer would write: no field needs quoting.
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.write("state,x,y,h,qos\n")
        f.writelines("%d,%s,%s,%s,%r\n" % row for row in rows)
