"""aerialsim benchmark harness.

    python3 bench/run.py --workload learn_static --seed 0 --seconds 30 --trace 0

Runs one workload (see workloads.py and README.md) in this process, from the
sources in ``src/`` next to this directory, repeating it for about
``--seconds`` seconds and checking every repetition's output files. The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the end-to-end
ones; with ``--trace 1`` some repetitions run with every layer wrapped by
tracing.Tracer, and the metrics are the per-layer ones. Results, machine info
and trace spans are also written under ``.bench_out/`` at the checkout root.
"""

import argparse
import contextlib
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Stop starting repetitions once the next one would overrun --seconds, but
# not before MIN_REPS: every time reported is a median over repetitions.
MIN_REPS = 3
MIN_SETUPS = 15
SETUP_PROBE = ("interp", "objects")   # set-up imports modules and builds objects

END_TO_END = {
    "wall_s": "s",
    "throughput": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "qos_vs_oracle": "ratio",
}

PER_LAYER = {
    "mobility.step.calls": "count",
    "mobility.step.s": "s",
    "mobility.user_steps": "count",
    "mobility.ns_per_user_step": "ns",
    "radio.aggregate_qos.calls": "count",
    "radio.aggregate_qos.s": "s",
    "radio.us_per_qos_eval": "us",
    "radio.link_evals": "count",
    "radio.link_report.s": "s",
    "channel.pathloss.calls": "count",
    "channel.pathloss.s": "s",
    "placement.learn_placement.calls": "count",
    "placement.learn_placement.s": "s",
    "placement.self_s": "s",
    "placement.steps": "count",
    "placement.us_per_step": "us",
    "placement.greedy_rollout.calls": "count",
    "placement.greedy_rollout.s": "s",
    "placement.qos_lookups": "count",
    "placement.qos_evals": "count",
    "placement.qos_hit_ratio": "ratio",
    "oracle.exhaustive_search.s": "s",
    "oracle.export_qos_csv.s": "s",
    "scenario.emit_outputs.s": "s",
    "scenario.bytes_written": "bytes",
    "scenario.self_s": "s",
    "scenario.slots": "count",
    "deployment.hex_layout.s": "s",
    "deployment.drop_users_ppp.s": "s",
    "trace.overhead_s": "s",
}

THREAD_ENV = ["OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "PYTHONHASHSEED"]


def machine_info() -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "platform": platform.platform(),
            "thread_env": {k: os.environ.get(k) for k in THREAD_ENV}}


@dataclass(frozen=True)
class _Point:
    x: float
    y: float


_X = np.array([float(v) for v in range(0, 2000, 13)])
_POINTS = [_Point(x, 2000.0 - x) for x in _X.tolist()]
_ROWS = _X[:60].reshape(10, 6)


def _interp():
    """Floats, dicts and frozen dataclasses in the interpreter (mobility)."""
    acc, table, made = 0.0, {}, []
    for i in range(800):
        acc += i * 0.5
        table[i & 63] = acc
        made.append(_Point(acc, i))


def _vectors():
    """numpy calls on 150-element vectors (path loss, SINR)."""
    for _ in range(60):
        d = np.sqrt((_X - 3.0) ** 2 + (_X[::-1] - 5.0) ** 2 + 625.0)
        np.power(10.0, -3.5 * np.log10(d)).sum()


def _objects():
    """Arrays built from lists of Python objects (user positions)."""
    for _ in range(16):
        np.array([[p.x, p.y] for p in _POINTS]).sum()


def _scalars():
    """Scalar random draws and argmax/max over 6-element rows (Q-learning)."""
    rng = np.random.default_rng(0)
    for i in range(100):
        if rng.random() < 0.5:
            rng.integers(6)
        np.argmax(_ROWS[i % 10]) + np.max(_ROWS[(i * 7) % 10])


# Each probe part's usual duration on the baseline machine (README.md, Noise).
PROBES = {"interp": (_interp, 0.0008), "vectors": (_vectors, 0.0008),
          "objects": (_objects, 0.0009), "scalars": (_scalars, 0.0009)}


def probe(parts) -> float:
    """How much slower than the reference the host runs the given probe parts.

    Each part is about 1 ms of fixed work that does not touch aerialsim. The
    garbage collector is off meanwhile: a collection inside a probe would
    time the workload's heap, not the host.
    """
    slowness = 0.0
    gc.disable()
    try:
        for name in parts:
            fn, ref_s = PROBES[name]
            t0 = time.perf_counter()
            fn()
            slowness += (time.perf_counter() - t0) / ref_s
    finally:
        gc.enable()
    return slowness / len(parts)


class HostSpeed:
    """Samples the host's speed while a block runs.

    The host this benchmark was built on runs the same code up to 1.8x slower
    for stretches of seconds to minutes, on each CPU independently, and not
    by the same factor for all kinds of code. So probe(parts), with the parts
    that mirror what the timed code does, runs before and after the block
    and, from a SIGALRM timer, every INTERVAL_S inside it. ``factor`` is the
    reference speed over the mean measured speed, and ``spent`` the seconds
    the probes inside the block took, which the caller subtracts from the
    block's wall time.
    """

    INTERVAL_S = 0.25
    EDGE_PROBES = 3

    def __init__(self, parts):
        self.parts = parts
        self.samples, self.spent = [], 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(probe(self.parts))
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self.samples += [probe(self.parts) for _ in range(self.EDGE_PROBES)]
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.samples += [probe(self.parts) for _ in range(self.EDGE_PROBES)]

    @property
    def factor(self) -> float:
        return 1.0 / statistics.fmean(self.samples)


def fresh_import():
    """Drop aerialsim from the module cache and import it again."""
    for name in [m for m in sys.modules if m == "aerialsim" or m.startswith("aerialsim.")]:
        del sys.modules[name]
    importlib.import_module("aerialsim.cli")
    return {m: sys.modules[m] for m in sys.modules if m.startswith("aerialsim.")}


def timed_setup(workload, inputs):
    """Seconds to import aerialsim and build the workload's config and network."""
    t0 = time.perf_counter()
    modules = fresh_import()
    workload.setup(inputs)
    return time.perf_counter() - t0, modules


def layer_metrics(summary, counts) -> dict:
    def s(name):
        return summary.get(name, {}).get("s", 0.0)

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def per(num, den, scale):
        return num / den * scale if den else 0.0

    m = {
        "mobility.step.calls": calls("mobility.step"),
        "mobility.step.s": s("mobility.step"),
        "mobility.user_steps": counts["mobility.user_steps"],
        "radio.aggregate_qos.calls": calls("radio.aggregate_qos"),
        "radio.aggregate_qos.s": s("radio.aggregate_qos"),
        "radio.link_evals": counts["radio.link_evals"],
        "radio.link_report.s": s("radio.link_report"),
        "channel.pathloss.calls": calls("channel.pathloss"),
        "channel.pathloss.s": s("channel.pathloss"),
        "placement.learn_placement.calls": calls("placement.learn_placement"),
        "placement.learn_placement.s": s("placement.learn_placement"),
        "placement.self_s": summary.get("placement.learn_placement", {}).get("self_s", 0.0),
        "placement.steps": counts["placement.steps"],
        "placement.greedy_rollout.calls": calls("placement.greedy_rollout"),
        "placement.greedy_rollout.s": s("placement.greedy_rollout"),
        "placement.qos_lookups": counts["placement.qos_lookups"],
        "placement.qos_evals": counts["placement.qos_evals"],
        "oracle.exhaustive_search.s": s("oracle.exhaustive_search"),
        "oracle.export_qos_csv.s": s("oracle.export_qos_csv"),
        "scenario.emit_outputs.s": s("scenario.emit_outputs"),
        "scenario.bytes_written": counts["scenario.bytes_written"],
        "scenario.self_s": summary.get("scenario.run_scenario", {}).get("self_s", 0.0),
        "scenario.slots": counts["scenario.slots"],
        "deployment.hex_layout.s": s("deployment.hex_layout"),
        "deployment.drop_users_ppp.s": s("deployment.drop_users_ppp"),
    }
    m["mobility.ns_per_user_step"] = per(m["mobility.step.s"], m["mobility.user_steps"], 1e9)
    m["radio.us_per_qos_eval"] = per(m["radio.aggregate_qos.s"],
                                     m["radio.aggregate_qos.calls"], 1e6)
    m["placement.us_per_step"] = per(m["placement.learn_placement.s"], m["placement.steps"], 1e6)
    m["placement.qos_hit_ratio"] = (1.0 - per(m["placement.qos_evals"],
                                              m["placement.qos_lookups"], 1.0)
                                    if m["placement.qos_lookups"] else 0.0)
    return m


def measure(workload, inputs, seconds, trace, work_dir):
    """Warm up, then repeat the workload until the time budget is spent.

    Each repetition is preceded by one timed set-up (a fresh import plus the
    config and network build), so set-up is sampled across the whole run.
    Both are scaled to the reference host speed by HostSpeed. With trace,
    repetitions alternate untraced and traced.
    """
    from tracing import Tracer

    ref = workload.reference(inputs)
    small = type(workload)(small=True)
    small.run(small.make_inputs(0), work_dir / "warmup")

    # Per repetition: wall s, its host speed factor, set-up s, its factor.
    reps = {False: [], True: []}
    layers = []
    attempted = failed = 0
    qos_ratio = None
    tracer = Tracer()
    start = time.perf_counter()
    while True:
        traced = trace and len(reps[True]) < len(reps[False])
        with HostSpeed(SETUP_PROBE) as setup_speed:
            setup_s, modules = timed_setup(workload, inputs)
        if traced:
            tracer.install(modules)
        first, counts_before = len(tracer), dict(tracer.counts)
        attempted += 1
        try:
            with HostSpeed(workload.probe) as speed:
                t0 = time.perf_counter()
                result = workload.run(inputs, work_dir / "out")
                wall = time.perf_counter() - t0 - speed.spent
        except Exception:  # a crashing repetition counts as failed; keep measuring
            traceback.print_exc()
            failed += 1
            result = None
        finally:
            tracer.uninstall()
        if result is not None:
            reps[traced].append((wall, speed.factor, setup_s - setup_speed.spent,
                                 setup_speed.factor))
            if traced:
                counts = Counter({k: v - counts_before.get(k, 0) for k, v in tracer.counts.items()})
                layers.append(layer_metrics(tracer.summary(first), counts))
            failures = workload.check(inputs, ref, result, work_dir / "out")
            for f in failures:
                print(f"check failed: {workload.name}: {f}", file=sys.stderr)
            failed += bool(failures)
            if qos_ratio is None:
                qos_ratio = workload.qos_vs_oracle(ref, result)
            result = None  # free it before the next repetition, for peak_rss_mb
        walls = [r[0] for r in reps[False] + reps[True]]
        if not walls and attempted >= MIN_REPS:
            break  # the program fails every time; nothing to time
        enough = (reps[True] and reps[False]) if trace else len(reps[False]) >= MIN_REPS
        if enough and time.perf_counter() - start + statistics.median(walls) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = [s * f for _, _, s, f in reps[False] + reps[True]]
    while len(setups) < MIN_SETUPS:
        with HostSpeed(SETUP_PROBE) as setup_speed:
            setup_s = timed_setup(workload, inputs)[0]
        setups.append((setup_s - setup_speed.spent) * setup_speed.factor)
    return {"reps": reps, "setups": setups, "layers": layers, "attempted": attempted,
            "failed": failed, "qos_ratio": qos_ratio, "peak_rss_mb": peak_rss_mb,
            "tracer": tracer}


def scaled_walls(reps):
    """Repetition wall times at the calibration's reference host speed."""
    return [wall * factor for wall, factor, _, _ in reps]


def end_to_end_metrics(workload, inputs, res) -> dict:
    wall = statistics.median(scaled_walls(res["reps"][False]))
    return {"wall_s": wall,
            "throughput": workload.units_done(inputs) / wall,
            "setup_s": statistics.median(res["setups"]),
            "peak_rss_mb": res["peak_rss_mb"],
            "qos_vs_oracle": res["qos_ratio"]}


def per_layer_metrics(res) -> dict:
    layers = res["layers"]
    m = {k: statistics.median(l[k] for l in layers) for k in layers[0]}
    m["trace.overhead_s"] = (statistics.median(scaled_walls(res["reps"][True]))
                             - statistics.median(scaled_walls(res["reps"][False])))
    return m


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["learn_static", "oracle_paper", "walk_ground"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="time budget for the measured repetitions")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def use_sources() -> bool:
    """Put the checkout's src/ first on sys.path; False if aerialsim is not there."""
    if not (SRC / "aerialsim" / "__init__.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True


def run_benchmark(workload, seed, seconds, trace):
    """Measure one workload; returns (inputs, measurements, result), or None
    when no repetition succeeded."""
    inputs = workload.make_inputs(seed)
    work_dir = OUT / f"work-{workload.name}-{os.getpid()}"
    try:
        res = measure(workload, inputs, seconds, trace, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if not res["reps"][False] or (trace and not res["layers"]):
        return None
    if trace:
        metrics, units = per_layer_metrics(res), PER_LAYER
    else:
        metrics, units = end_to_end_metrics(workload, inputs, res), END_TO_END
    result = {"correct": res["failed"] == 0, "attempted": res["attempted"],
              "failed": res["failed"],
              "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()}}
    return inputs, res, result


def main(argv=None) -> int:
    args = parse_args(argv)
    if not use_sources():
        print(f"error: aerialsim sources not found under {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    out = run_benchmark(workload, args.seed, args.seconds, bool(args.trace))
    if out is None:
        print(f"error: every repetition of {workload.name} failed", file=sys.stderr)
        return 1
    inputs, res, result = out

    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    record = {"workload": workload.name, "seed": args.seed,
              "scenario_seed": inputs.scenario_seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine_info(),
              "repetitions": {kind: [dict(zip(("wall_s", "speed", "setup_s", "setup_speed"), r))
                                     for r in res["reps"][traced]]
                              for kind, traced in (("untraced", False), ("traced", True))},
              "scaled_setups_s": res["setups"], "result": result}
    with open(OUT / "results" / f"{tag}.json", "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
    if args.trace:
        res["tracer"].save(OUT / "results" / f"{tag}-spans.npz")

    print(f"machine: {json.dumps(record['machine'])}")
    print(f"{workload.name} seed {args.seed} (scenario seed {inputs.scenario_seed}): "
          f"{len(res['reps'][False])} untraced + {len(res['reps'][True])} traced repetitions")
    for k, v in result["metrics"].items():
        print(f"  {k:34s} {v['value']:.6g} {v['unit']}")
    raw = statistics.median(r[0] for r in res["reps"][False])
    speeds = [r[1] for r in res["reps"][False] + res["reps"][True]]
    print(f"  (times above are scaled to the reference host speed; unscaled median "
          f"wall {raw:.6g} s, host speed {min(speeds):.3g}-{max(speeds):.3g} x reference)")
    print(f"  {'failed_ratio':34s} {res['failed'] / res['attempted']:.6g} "
          f"({res['failed']} of {res['attempted']} repetitions failed a check)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
