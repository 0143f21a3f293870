"""What the benchmark's workloads read from aerialsim.

bench/workloads.py imports aerialsim's modules inside its functions and runs
outside this suite (bench/test_smoke.py is not in testpaths). These tests
keep what it reads working: its imports, its inputs, set-up and reference
values, its own QoS map, which must agree with aerialsim's, and its output
checks, which each workload's small run must pass.
"""

import ast
import importlib
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from aerialsim.radio import qos_map

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_aerialsim_import_resolves():
    tree = ast.parse(WORKLOADS_PY.read_text(encoding="utf-8"))
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[0] == "aerialsim"
                for alias in node.names]
    assert imported
    assert [f"{m}.{name}" for m, name in imported
            if not hasattr(importlib.import_module(m), name)] == []


@pytest.mark.parametrize("name", ["learn_static", "oracle_paper", "walk_ground"])
def test_inputs_setup_and_reference(workloads, name):
    workload = workloads.WORKLOADS[name](small=True)
    inputs = workload.make_inputs(0)
    cfg, snapshot = workload.setup(inputs)
    assert len(snapshot.users) == cfg.n_users
    ref = workload.reference(inputs)
    if "map" in ref:
        assert ref["map"].shape == (cfg.placement_grid().n_states,)
    if "optimum" in ref:
        assert ref["optimum"] > 0


@pytest.mark.parametrize("name", ["learn_static", "oracle_paper", "walk_ground"])
def test_small_run_passes_the_workload_check(workloads, name, tmp_path):
    workload = workloads.WORKLOADS[name](small=True)
    inputs = workload.make_inputs(0)
    ref = workload.reference(inputs)
    out = tmp_path / "out"
    result = workload.run(inputs, out)
    assert workload.check(inputs, ref, result, out) == []
    assert math.isfinite(workload.qos_vs_oracle(ref, result))


@pytest.mark.parametrize("seed", [0, 1])
def test_reference_qos_map_matches_radio(workloads, seed):
    cfg = workloads.build_config(workloads.Inputs(seed, {}, "desk"))
    snapshot = workloads.build_network(cfg, disable_site=True)
    grid = cfg.placement_grid()
    np.testing.assert_allclose(workloads.qos_map(snapshot, grid), qos_map(snapshot, grid),
                               rtol=1e-9, atol=0)
