"""The benchmark's workloads: inputs from a seed, one repetition, output checks.

Every workload goes through aerialsim's public API (``run_scenario`` plus
``emit_outputs``, or ``cli.main``). aerialsim is imported inside the
functions, so each call picks up the modules most recently imported; the
harness re-imports the package to time set-up.

Output checks hold whatever order the random draws come in: they compare
outputs with aerialsim recomputing the same quantities, with the reference
QoS map below, and with structural invariants, never with byte digests.
"""

import contextlib
import csv
import io
import math
import re
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Inputs:
    scenario_seed: int
    overrides: dict      # config overrides on top of the preset
    preset: str = "paper"


def build_config(inputs: Inputs):
    from aerialsim.scenario import build_config as build
    return build(preset=inputs.preset,
                 overrides={"seed": inputs.scenario_seed, **inputs.overrides})


def build_network(cfg, disable_site: bool):
    """The t=0 snapshot every command starts from: sites, dropped users, no aerial.

    Built the way ``run_scenario`` and ``aerialsim oracle`` build it, from the
    same random streams, so its users are the ones the workload sees at t=0.
    """
    from aerialsim.deployment import drop_users_ppp, hex_layout
    from aerialsim.mobility import init_users
    from aerialsim.radio import NetworkState
    area = cfg.service_area()
    streams = np.random.SeedSequence(cfg.seed).spawn(3)
    bss = hex_layout(cfg.n_rings, area, cfg.antenna_height, cfg.ground_tx_power)
    if disable_site:
        off = cfg.disabled_bs if cfg.disabled_bs is not None else 0
        bss = [replace(b, active=False) if b.id == off else b for b in bss]
    users = init_users(drop_users_ppp(cfg.n_users, area, np.random.default_rng(streams[0])),
                       cfg.mobility, np.random.default_rng(streams[1]))
    return NetworkState(ground_bs=bss, users=users, env=cfg.env, radio=cfg.radio,
                        aerial_pos=None, aerial_tx_power=cfg.aerial_tx_power)


def qos_map(snapshot, grid, chunk=512):
    """Aggregate QoS with the aerial at every grid state, as one array.

    An independent reference for the oracle optimum, written from the model
    rather than from aerialsim's code path: under full-buffer reuse-1 the
    max-SINR server is the max-received-power server, so each state needs
    only the aerial's column next to the fixed ground columns. Equal to
    ``aggregate_qos`` up to floating-point summation order.
    """
    from aerialsim.channel import atg_pathloss_hl, dbm_to_mw, ground_pathloss_d
    xy = np.array([[u.pos.x, u.pos.y] for u in snapshot.users])
    ground = np.column_stack([
        dbm_to_mw(b.tx_power - ground_pathloss_d(
            np.sqrt((xy[:, 0] - b.pos.x) ** 2 + (xy[:, 1] - b.pos.y) ** 2 + b.pos.h ** 2),
            snapshot.radio))
        for b in snapshot.ground_bs if b.active])
    g_sum, g_max = ground.sum(axis=1), ground.max(axis=1)
    noise = dbm_to_mw(snapshot.radio.noise_power)
    x, y, h = (a.ravel() for a in np.meshgrid(grid.xs, grid.ys, grid.hs, indexing="ij"))
    out = np.empty(grid.n_states)
    for lo in range(0, grid.n_states, chunk):
        sl = slice(lo, lo + chunk)
        dist = np.hypot(x[sl, None] - xy[None, :, 0], y[sl, None] - xy[None, :, 1])
        aerial = dbm_to_mw(snapshot.aerial_tx_power - atg_pathloss_hl(
            h[sl, None], dist, snapshot.env, snapshot.radio))
        best = np.maximum(aerial, g_max)
        out[sl] = np.log2(1.0 + best / (noise + g_sum + aerial - best)).sum(axis=1)
    return out


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    return rows[0], rows[1:]


def _count_data_lines(path):
    with open(path, "rb") as f:
        return sum(1 for _ in f) - 1


def check_sinr_cdf(out_dir, failures):
    header, rows = _read_csv(Path(out_dir) / "sinr_cdf.csv")
    cdf = np.array([float(r[1]) for r in rows])
    if header != ["sinr_db", "cdf"] or cdf.size == 0:
        failures.append("sinr_cdf.csv: missing header or rows")
    elif np.any(np.diff(cdf) < 0) or cdf[-1] != 1.0 or cdf[0] < 0:
        failures.append("sinr_cdf.csv: CDF not monotone from >= 0 up to 1")


def check_timeslots(out_dir, n_slots, failures):
    """timeslots.csv holds t=0 plus n_slots rows of finite, positive QoS."""
    header, rows = _read_csv(Path(out_dir) / "timeslots.csv")
    if header[:3] != ["t", "qos", "qos_th"] or len(rows) != n_slots + 1:
        failures.append(f"timeslots.csv: {len(rows)} rows, want {n_slots + 1}")
        return np.empty(0)
    qos = np.array([float(r[1]) for r in rows])
    if not np.all(np.isfinite(qos) & (qos > 0)):
        failures.append("timeslots.csv: QoS not finite and positive")
    return qos


class Workload:
    """One benchmark workload; BENCHMARK.json and README.md say why each exists."""

    name = ""
    probe = ()   # run.probe() parts that mirror what a repetition spends time on

    def __init__(self, small=False):
        self.small = small  # tiny inputs for the harness's own smoke test

    def make_inputs(self, seed: int) -> Inputs:
        raise NotImplementedError

    def setup(self, inputs: Inputs):
        """Config and t=0 network build; timed as part of setup_s."""
        cfg = build_config(inputs)
        return cfg, build_network(cfg, disable_site=True)

    def run(self, inputs: Inputs, out_dir: Path):
        """One repetition; returns what check() needs."""
        raise NotImplementedError

    def units_done(self, inputs: Inputs) -> float:
        """Work per repetition that `throughput` counts: simulated s or oracle states."""
        raise NotImplementedError

    def reference(self, inputs: Inputs) -> dict:
        """Expected values computed outside timing, once per benchmark run."""
        return {}

    def check(self, inputs, ref, result, out_dir) -> list:
        """Failed output checks, as one message each."""
        raise NotImplementedError

    def qos_vs_oracle(self, ref, result) -> float:
        raise NotImplementedError


class _Scenario(Workload):
    """Workloads that run one scenario and write its four output files."""

    def run(self, inputs, out_dir):
        from aerialsim.scenario import emit_outputs, run_scenario
        cfg = build_config(inputs)
        run = run_scenario(cfg)
        emit_outputs(run.records, run.reward_traces, out_dir, config=cfg)
        return run

    def units_done(self, inputs):
        return build_config(inputs).sim_duration


class LearnStatic(_Scenario):
    name = "learn_static"
    probe = ("scalars", "vectors")

    SLOTS = 3
    # A coarser grid than the paper's 21x21x11 over the same area, and 1000
    # instead of 5000 episodes, so that a repetition takes a few seconds and a
    # run holds several. Each slot's learner explores nearly every one of the
    # 324 states, so the QoS-table fills (about 950 over the 3 slots) hardly
    # depend on the seed; on the paper grid they range 3000-4400.
    GRID = {"n_x": 9, "n_y": 9, "n_h": 4}
    EPISODES = 1000

    def _overrides(self):
        o = {"sim_duration": 10.0 * self.SLOTS, "mobility": {"c_max": 0.0},
             "grid": self.GRID, "learning": {"max_episodes": self.EPISODES}}
        if self.small:
            o.pop("grid")
            o["learning"] = {"max_episodes": 50, "max_steps": 20}
        return o

    def make_inputs(self, seed):
        """The first scenario seed from seed's stream on which every slot learns.

        Learning runs at a slot only while the slot's QoS is below the
        threshold taken from the full ground network at t=0. Users are static,
        so when even the oracle optimum of the t=0 snapshot is below that
        threshold, each of the SLOTS slots learns and the learning work does
        not depend on the seed. A third to a half of the drops qualify.
        """
        from aerialsim.radio import aggregate_qos
        preset = "desk" if self.small else "paper"
        for k in range(1000):
            s = seed if k == 0 else int(np.random.SeedSequence([seed, k]).generate_state(1)[0])
            inputs = Inputs(s, self._overrides(), preset)
            cfg = build_config(inputs)
            full = build_network(cfg, disable_site=False)
            if qos_map(build_network(cfg, disable_site=True),
                       cfg.placement_grid()).max() < aggregate_qos(full) * (1 - 1e-9):
                return inputs
        raise RuntimeError(f"no scenario seed from {seed} learns at every slot")

    def reference(self, inputs):
        cfg = build_config(inputs)
        snap = build_network(cfg, disable_site=True)
        return {"snapshot": snap, "optimum": float(qos_map(snap, cfg.placement_grid()).max()),
                "cfg": cfg}

    # Final-slot QoS per scenario seed, recorded when this benchmark was added.
    RECORDED = {
        3141116543: 446.95408624632404,  # --seed 0
        1189033389: 422.8210945697306,   # --seed 1
        2: 463.91445937733874,           # --seed 2
    }

    def check(self, inputs, ref, run, out_dir):
        from aerialsim.deployment import position_to_grid_index
        from aerialsim.radio import aggregate_qos
        failures = []
        cfg = ref["cfg"]
        triggers = sum(r.learning_triggered for r in run.records)
        if triggers != self.SLOTS or len(run.reward_traces) != self.SLOTS:
            failures.append(f"{triggers} learning triggers, want {self.SLOTS}")
        want_rows = self.SLOTS * cfg.learning.max_episodes * cfg.learning.max_steps
        rows = _count_data_lines(Path(out_dir) / "reward_trace.csv")
        if rows != want_rows:
            failures.append(f"reward_trace.csv: {rows} rows, want {want_rows}")
        qos = check_timeslots(out_dir, self.SLOTS, failures)
        final = run.records[-1]
        if final.aerial_pos is None:
            failures.append("no aerial placement at the final slot")
            return failures
        # Users never move, so the final slot's network is the t=0 snapshot
        # with the aerial where the learner put it.
        recomputed = aggregate_qos(replace(ref["snapshot"], aerial_pos=final.aerial_pos))
        grid_pos = position_to_grid_index(cfg.placement_grid(), final.aerial_pos)
        if final.qos != recomputed or (qos.size and qos[-1] != final.qos):
            failures.append(f"final QoS {final.qos!r} != recomputed {recomputed!r} "
                            f"at state {grid_pos}")
        if inputs.scenario_seed in self.RECORDED and not self.small \
                and final.qos != self.RECORDED[inputs.scenario_seed]:
            failures.append(f"final QoS {final.qos!r} != recorded "
                            f"{self.RECORDED[inputs.scenario_seed]!r}")
        if not final.qos <= ref["optimum"] * (1 + 1e-9):
            failures.append(f"final QoS {final.qos!r} above the oracle optimum")
        check_sinr_cdf(out_dir, failures)
        return failures

    def qos_vs_oracle(self, ref, run):
        return run.records[-1].qos / ref["optimum"]


class WalkGround(_Scenario):
    name = "walk_ground"
    probe = ("interp", "objects")

    def make_inputs(self, seed):
        if self.small:
            return Inputs(seed, {"baseline_mode": "ground19", "n_users": 40,
                                 "sim_duration": 50.0}, "desk")
        return Inputs(seed, {"baseline_mode": "ground19", "n_users": 600,
                             "sim_duration": 900.0})

    def setup(self, inputs):
        cfg = build_config(inputs)
        return cfg, build_network(cfg, disable_site=False)

    def reference(self, inputs):
        cfg = build_config(inputs)
        snap = build_network(cfg, disable_site=True)
        return {"optimum": float(qos_map(snap, cfg.placement_grid()).max()),
                "n_slots": int(math.floor(cfg.sim_duration / cfg.t_min))}

    def check(self, inputs, ref, run, out_dir):
        failures = []
        n = ref["n_slots"]
        if len(run.records) != n + 1 or any(r.learning_triggered for r in run.records):
            failures.append(f"{len(run.records)} records, want {n + 1} and no learning")
        qos = check_timeslots(out_dir, n, failures)
        if qos.size and qos[0] != run.records[0].qos_th:
            failures.append("t=0 QoS is not the threshold")
        check_sinr_cdf(out_dir, failures)
        return failures

    def qos_vs_oracle(self, ref, run):
        """Ground-only QoS at t=0 over the best QoS with the aerial replacing site 0."""
        return run.records[0].qos / ref["optimum"]


class OraclePaper(Workload):
    name = "oracle_paper"
    probe = ("vectors", "objects", "scalars")

    SAMPLES = 8  # states recomputed with aggregate_qos per check
    # 11x11x11 instead of the paper's 21x21x11 over the same box, so that a
    # repetition takes seconds and a run holds many: the oracle's cost is the
    # same per state, and on the paper grid a run held only 3-4 repetitions.
    GRID = {"n_x": 11, "n_y": 11, "n_h": 11}

    def make_inputs(self, seed):
        if self.small:
            return Inputs(seed, {}, "desk")
        return Inputs(seed, {"grid": self.GRID}, "paper")

    def run(self, inputs, out_dir):
        import yaml
        from aerialsim.cli import main
        argv = ["oracle", "--preset", inputs.preset, "--seed", str(inputs.scenario_seed),
                "--out-dir", str(out_dir)]
        if inputs.overrides:  # the CLI takes config changes as a YAML file
            Path(out_dir).mkdir(parents=True, exist_ok=True)
            config = Path(out_dir) / "oracle.yaml"
            config.write_text(yaml.safe_dump(inputs.overrides), encoding="utf-8")
            argv += ["--config", str(config)]
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(argv)
        if code != 0:
            raise RuntimeError(f"aerialsim {' '.join(argv)} exited with {code}: "
                               f"{err.getvalue().strip()}")
        return Path(out_dir) / "oracle_qos.csv", err.getvalue()

    def units_done(self, inputs):
        return build_config(inputs).placement_grid().n_states

    def reference(self, inputs):
        cfg = build_config(inputs)
        snap = build_network(cfg, disable_site=True)
        grid = cfg.placement_grid()
        return {"snapshot": snap, "grid": grid, "map": qos_map(snap, grid),
                "rng": np.random.default_rng([inputs.scenario_seed, 1])}

    def check(self, inputs, ref, result, out_dir):
        from aerialsim.deployment import grid_index_to_position
        from aerialsim.radio import aggregate_qos
        path, message = result
        failures = []
        header, rows = _read_csv(path)
        grid = ref["grid"]
        if header != ["state", "x", "y", "h", "qos"] or len(rows) != grid.n_states:
            failures.append(f"oracle_qos.csv: {len(rows)} rows, want {grid.n_states}")
            return failures
        qos = np.array([float(r[4]) for r in rows])
        if [int(r[0]) for r in rows] != list(range(grid.n_states)):
            failures.append("oracle_qos.csv: states out of order")
        best = int(np.argmax(qos))
        reported = re.search(r"best state (\d+) ", message)
        if not reported or int(reported.group(1)) != best:
            failures.append(f"reported best state is not the argmax {best}: {message!r}")
        if not np.allclose(qos, ref["map"], rtol=1e-9, atol=0):
            failures.append("oracle_qos.csv: QoS differs from the reference map")
        # The best state, plus a few drawn afresh each check, recomputed exactly.
        for s in [best, *ref["rng"].integers(grid.n_states, size=self.SAMPLES)]:
            want = aggregate_qos(replace(ref["snapshot"],
                                         aerial_pos=grid_index_to_position(grid, int(s))))
            if qos[s] != want:
                failures.append(f"oracle_qos.csv: state {s} QoS {qos[s]!r} != {want!r}")
        return failures

    def qos_vs_oracle(self, ref, result):
        """The oracle's best QoS over the reference map's optimum."""
        _, rows = _read_csv(result[0])
        return max(float(r[4]) for r in rows) / float(ref["map"].max())


WORKLOADS = {w.name: w for w in (LearnStatic, OraclePaper, WalkGround)}
