import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import aerialsim
import aerialsim.cli  # noqa: F401  (the tracer patches every module it imports)
from aerialsim import scenario
from aerialsim.scenario import build_config

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACING = BENCH / "tracing.py"

# Imports aerialsim afresh, loads the benchmark's tracer from its file, and
# prints every (module, attribute) in its SPANNED list that is not a callable
# on the package; then installs and uninstalls the tracer, which also patches
# attributes outside SPANNED.
SCRIPT = """
import importlib, importlib.util, json, sys
importlib.import_module("aerialsim.cli")
spec = importlib.util.spec_from_file_location("tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
missing = [f"{m}.{a}" for m, a, _ in tracing.SPANNED
           if not callable(getattr(sys.modules.get(m), a, None))]
if not missing:
    modules = {m: sys.modules[m] for m in sys.modules if m.startswith("aerialsim.")}
    before = {(m, a): getattr(modules[m], a) for m, a, _ in tracing.SPANNED}
    tracer = tracing.Tracer()
    tracer.install(modules)
    tracer.uninstall()
    assert all(getattr(modules[m], a) is f for (m, a), f in before.items())
print(json.dumps(missing))
"""


def test_every_traced_attribute_exists():
    src = str(Path(aerialsim.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", SCRIPT, str(TRACING)], cwd=src,
                         check=True, capture_output=True, text=True).stdout
    assert json.loads(out) == []


def _load(name):
    """A module of the benchmark, loaded from its file under a private name."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_tracer_counts_one_step_per_slot():
    # A traced ground-only desk run of 3 slots, read as the benchmark's
    # per-layer metrics: each slot is one step over every user.
    tracing, run = _load("tracing"), _load("run")
    cfg = build_config(preset="desk", overrides={"baseline_mode": "ground19",
                                                  "sim_duration": 30.0})
    tracer = tracing.Tracer()
    tracer.install({m: sys.modules[m] for m in list(sys.modules)
                    if m.startswith("aerialsim.")})
    try:
        scenario.run_scenario(cfg)
    finally:
        tracer.uninstall()
    metrics = run.layer_metrics(tracer.summary(), tracer.counts)
    assert metrics["mobility.step.calls"] == 3
    assert metrics["mobility.user_steps"] == 3 * cfg.n_users
