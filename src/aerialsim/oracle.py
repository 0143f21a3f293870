"""Exhaustive-search ground truth for the placement objective."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .deployment import PlacementGrid
from .geometry import ConfigurationError
# aggregate_qos is not called here; it stays a module attribute because
# bench/tracing.py wraps it.
from .radio import NetworkState, aggregate_qos, qos_map  # noqa: F401


@dataclass(frozen=True)
class OracleResult:
    best_state: int
    best_qos: float
    qos_per_state: np.ndarray


def exhaustive_search(snapshot: NetworkState, grid: PlacementGrid) -> OracleResult:
    """Evaluate the aggregate QoS at every grid state and return the maximizer.

    The map comes from radio.qos_map, which is bit-identical to an
    independent aggregate_qos call (a fresh max-SINR association) at each
    state; aggregate_qos is the reference the tests hold it to. Ties go to
    the lowest state index.
    """
    if grid.n_states < 1:
        raise ConfigurationError("placement grid is empty")
    qos = qos_map(snapshot, grid)
    best = int(np.argmax(qos))  # first maximum = lowest index on ties
    return OracleResult(best_state=best, best_qos=float(qos[best]), qos_per_state=qos)


def export_qos_csv(result: OracleResult, grid: PlacementGrid, path) -> None:
    """One row per state: its grid position (as grid_index_to_position) and QoS."""
    ix, iy, ih = np.unravel_index(np.arange(grid.n_states),
                                  (grid.n_x, grid.n_y, grid.n_h))
    rows = zip(range(grid.n_states), grid.xs[ix].tolist(), grid.ys[iy].tolist(),
               grid.hs[ih].tolist(), result.qos_per_state.tolist())
    # The rows csv.writer would write: no field needs quoting.
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.write("state,x,y,h,qos\n")
        f.writelines("%d,%r,%r,%r,%r\n" % row for row in rows)
