"""Scenario driver: outer control loop, metrics, and output files."""

from __future__ import annotations

import csv
import dataclasses
import math
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np
import yaml

from .channel import (AtgEnvironment, RadioParams, atg_pathloss_hl, dbm_to_mw,
                      ground_pathloss_d)
from .deployment import (PlacementGrid, drop_users_ppp, grid_index_to_position,
                         hex_cell_count, hex_layout)
from .geometry import ConfigurationError, Position3D, ServiceArea
from .mobility import TIME_TOL, MobilityParams, init_users, step
from .placement import LearningConfig, QTable, learn_placement
# aggregate_qos is not called here; bench/tracing.py patches it as an attribute.
from .radio import NetworkState, aggregate_qos, link_report  # noqa: F401

BASELINE_GROUND = "ground19"
BASELINE_AERIAL = "aerial18plus1"

# slot_count takes a quotient this close below an integer, relative to its
# size, as that integer: rounding leaves 0.7 / 0.1 at 6.999999999999999 and
# 44100004.9 / 4.9 at 9000000.999999998, a few units in the last place low.
SLOT_COUNT_RTOL = 1e-12
# Limits on the work one run may ask for: mobility stretches
# (sim_duration / min(t_min, mobility.hold_time)) and grid states.
MAX_MOBILITY_STRETCHES = 10**7
MAX_GRID_STATES = 200_000


@dataclass(frozen=True)
class GridSpec:
    n_x: int = 21
    n_y: int = 21
    n_h: int = 11


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int = 0
    n_users: int = 150
    n_rings: int = 2
    area_side: float = 2000.0          # meters; square service area
    h_min: float = 25.0                # meters; aerial altitude band
    h_max: float = 525.0
    antenna_height: float = 25.0       # meters; ground sites
    ground_tx_power: float = 46.0      # dBm
    aerial_tx_power: float = 36.0      # dBm
    grid: GridSpec = field(default_factory=GridSpec)
    env: AtgEnvironment = field(default_factory=AtgEnvironment)
    radio: RadioParams = field(default_factory=RadioParams)
    mobility: MobilityParams = field(default_factory=MobilityParams)
    learning: LearningConfig = field(default_factory=LearningConfig)
    t_min: float = 10.0                # aerial dwell / slot length, s
    sim_duration: float = 300.0
    baseline_mode: str = BASELINE_AERIAL
    disabled_bs: int = 0               # the site the aerial replaces (0: the center)

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed!r}")
        if self.baseline_mode not in (BASELINE_GROUND, BASELINE_AERIAL):
            raise ConfigurationError(f"unknown baseline_mode {self.baseline_mode!r}")
        if self.t_min <= TIME_TOL or self.sim_duration < self.t_min:
            raise ConfigurationError(f"need {TIME_TOL!r} s < t_min <= sim_duration")
        stretches = self.sim_duration / min(self.t_min, self.mobility.hold_time)
        if stretches > MAX_MOBILITY_STRETCHES:
            raise ConfigurationError(
                f"sim_duration / min(t_min, mobility.hold_time) is {stretches:.3g} "
                f"mobility stretches; at most {MAX_MOBILITY_STRETCHES} are allowed")
        if self.n_users < 0:
            raise ConfigurationError("n_users must be >= 0")
        # Checks the ring count, the antenna height and the site spacing.
        hex_layout(self.n_rings, self.service_area(), self.antenna_height,
                   self.ground_tx_power)
        if not 0 <= self.disabled_bs < hex_cell_count(self.n_rings):
            raise ConfigurationError(f"disabled_bs {self.disabled_bs} is not a ground BS id")
        n_states = self.placement_grid().n_states  # checks the grid counts
        if n_states > MAX_GRID_STATES:
            raise ConfigurationError(
                f"grid has {n_states} states; at most {MAX_GRID_STATES} are allowed")
        with np.errstate(over="ignore"):
            noise_mw = dbm_to_mw(self.radio.noise_power)
            if not 0.0 < noise_mw < np.inf:
                raise ConfigurationError(f"radio.noise_power {self.radio.noise_power!r} "
                                         "dBm is not a positive finite power in mW")
            for name in ("ground_tx_power", "aerial_tx_power"):
                dbm = getattr(self, name)
                mw = dbm_to_mw(dbm)
                if not np.isfinite(mw):
                    raise ConfigurationError(
                        f"{name} {dbm!r} dBm is not a finite power in mW")
                # The SINR of an interference-free link is power over noise.
                if not np.isfinite(mw / noise_mw):
                    raise ConfigurationError(
                        f"{name} {dbm!r} dBm over the noise power overflows the SINR")
            # A SINR is best / (noise + total - best). While the total a user
            # receives is below 2**52 times the noise, noise + total rounds
            # above total, so the denominator stays positive. Bound that
            # total from above: every site at the distance of its antenna
            # height, the aerial overhead at h_min.
            peak = (hex_cell_count(self.n_rings) * dbm_to_mw(
                        self.ground_tx_power
                        - ground_pathloss_d(self.antenna_height, self.radio))
                    + dbm_to_mw(self.aerial_tx_power
                                - atg_pathloss_hl(self.h_min, 0.0, self.env, self.radio)))
            ratio = peak / noise_mw
            if not ratio < 2.0 ** 52:
                level = (f"reach {10 * np.log10(ratio):.1f} dB over the noise power"
                         if np.isfinite(ratio) else "over the noise power overflow a float")
                raise ConfigurationError(
                    f"transmit powers {level}; a finite SINR needs less than "
                    f"{10 * np.log10(2.0 ** 52):.1f} dB")
        # A stretch of the walk then moves a user at most one area width, so
        # a single mirror brings it back inside.
        stretch = min(self.t_min, self.mobility.hold_time)
        if self.mobility.c_max * stretch > self.area_side:
            raise ConfigurationError(
                f"mobility.c_max * min(t_min, mobility.hold_time) ({self.mobility.c_max!r} "
                f"m/s * {stretch!r} s) exceeds area_side ({self.area_side!r} m)")

    def service_area(self) -> ServiceArea:
        return ServiceArea(self.area_side, self.h_min, self.h_max)

    def placement_grid(self) -> PlacementGrid:
        return PlacementGrid(self.service_area(), self.grid.n_x, self.grid.n_y,
                             self.grid.n_h)


@dataclass(frozen=True)
class TimeSlotRecord:
    qos: float
    qos_th: float
    aerial_pos: Optional[Position3D]
    user_sinr: np.ndarray  # linear, per user
    learning_triggered: bool


@dataclass
class ScenarioRun:
    records: List[TimeSlotRecord]
    reward_traces: List[np.ndarray]


def disable_site(net: NetworkState, cfg: ScenarioConfig) -> NetworkState:
    """net with ground site cfg.disabled_bs off: the aerial-assisted network, at the
    ground network's BS count, before the aerial."""
    return replace(net, ground_bs=[replace(b, active=False) if b.id == cfg.disabled_bs
                                   else b for b in net.ground_bs])


def build_network(cfg: ScenarioConfig) -> Tuple[NetworkState, np.random.Generator,
                                                np.random.Generator]:
    """The t=0 network of a run, with its mobility and learning generators.

    The network has every ground site on, the dropped users and no aerial.
    The drop, mobility and learning streams are spawned from cfg.seed in
    that order; the drop stream is spent here and the mobility stream has
    drawn each user's initial velocity.
    """
    area = cfg.service_area()
    rng_drop, rng_mob, rng_learn = (
        np.random.default_rng(s) for s in np.random.SeedSequence(cfg.seed).spawn(3))
    bss = hex_layout(cfg.n_rings, area, cfg.antenna_height, cfg.ground_tx_power)
    users = init_users(drop_users_ppp(cfg.n_users, area, rng_drop),
                       cfg.mobility, rng_mob)
    state = NetworkState(ground_bs=bss, users=users, env=cfg.env, radio=cfg.radio,
                         aerial_tx_power=cfg.aerial_tx_power)
    return state, rng_mob, rng_learn


def slot_count(sim_duration: float, t_min: float) -> int:
    """The number of whole slots of t_min in sim_duration."""
    q = sim_duration / t_min
    return math.floor(q + q * SLOT_COUNT_RTOL)


def run_scenario(cfg: ScenarioConfig) -> ScenarioRun:
    """Execute one scenario: threshold snapshot, then slot-by-slot control loop."""
    area = cfg.service_area()
    grid = cfg.placement_grid()
    net, rng_mob, rng_learn = build_network(cfg)

    def evaluate(state):
        """(aggregate QoS, per-user SINR) from one link report."""
        sinr, tput = link_report(state)
        return float(tput.sum()), sinr

    # Threshold snapshot: full ground network, no aerial.
    qos_th, sinr0 = evaluate(net)
    records = [TimeSlotRecord(qos=qos_th, qos_th=qos_th, aerial_pos=None,
                              user_sinr=sinr0, learning_triggered=False)]
    traces: List[np.ndarray] = []

    aerial_mode = cfg.baseline_mode == BASELINE_AERIAL
    if aerial_mode:
        aerial_state = grid.center_state()
        net = replace(disable_site(net, cfg),
                      aerial_pos=grid_index_to_position(grid, aerial_state))
        # One table for the run, carried from trigger to trigger.
        qtable = QTable.zeros(grid.n_states)

    users = net.users
    for k in range(1, slot_count(cfg.sim_duration, cfg.t_min) + 1):
        users = step(users, cfg.t_min, cfg.mobility, area, rng_mob)
        state = replace(net, users=users)
        qos_now, sinr_now = evaluate(state)
        triggered = False
        if aerial_mode and qos_now < qos_th:
            result = learn_placement(aerial_state, state, qtable, cfg.learning,
                                     grid, rng_learn)
            aerial_state = result.best_state
            traces.append(result.rewards)
            triggered = True
            net = replace(net, aerial_pos=grid_index_to_position(grid, aerial_state))
            state = replace(net, users=users)
            qos_now, sinr_now = evaluate(state)

        records.append(TimeSlotRecord(
            qos=qos_now, qos_th=qos_th,
            aerial_pos=state.aerial_pos, user_sinr=sinr_now,
            learning_triggered=triggered))
    return ScenarioRun(records=records, reward_traces=traces)


def compare_seed(cfg: ScenarioConfig) -> dict:
    """One compare.csv row: cfg's seed run ground-only and aerial-assisted. A slot
    lags at a ground-only QoS below qos_th; the aerial wins it at a QoS no lower."""
    if not cfg.n_users:  # the median SINRs below need a user
        raise ConfigurationError("compare needs at least one user, got n_users 0")
    rb = run_scenario(replace(cfg, baseline_mode=BASELINE_GROUND))
    ra = run_scenario(replace(cfg, baseline_mode=BASELINE_AERIAL))
    lag = [k for k, r in enumerate(rb.records) if r.qos < r.qos_th]
    return {
        "seed": cfg.seed,
        "qos_base_mean": float(np.mean([r.qos for r in rb.records])),
        "qos_aerial_mean": float(np.mean([r.qos for r in ra.records])),
        "lagging_slots": len(lag),
        "aerial_wins_at_lagging": sum(ra.records[k].qos >= rb.records[k].qos for k in lag),
        "median_sinr_base_db": float(np.median(per_user_mean_sinr_db(rb.records))),
        "median_sinr_aerial_db": float(np.median(per_user_mean_sinr_db(ra.records))),
    }


def aerial_helps(row: dict) -> bool:
    """The per-seed rule: no slot lags, or the aerial wins at least half of them."""
    return 2 * row["aerial_wins_at_lagging"] >= row["lagging_slots"]


# ---------------------------------------------------------------------------
# Metrics


def per_user_mean_sinr_db(records: Sequence[TimeSlotRecord]) -> np.ndarray:
    """Time-averaged linear SINR per user, in dB."""
    slots = [r.user_sinr for r in records if r.user_sinr.size]
    if not slots:
        return np.empty(0)
    mean_lin = np.mean(np.vstack(slots), axis=0)
    with np.errstate(divide="ignore"):  # a mean SINR of 0 is -inf dB
        return 10.0 * np.log10(mean_lin)


def sinr_cdf(records: Sequence[TimeSlotRecord]) -> Tuple[np.ndarray, np.ndarray]:
    """Empirical CDF of per-user time-averaged SINR on a 0.1 dB grid."""
    if not records:
        raise ValueError("no records")
    vals = np.sort(per_user_mean_sinr_db(records))
    if vals.size == 0:
        return np.empty(0), np.empty(0)
    bad = vals[~np.isfinite(vals)]
    if bad.size:
        raise ValueError(f"{bad.size} of {vals.size} users have a time-averaged "
                         f"SINR of {bad[0]} dB; the SINR CDF needs finite values")
    lo = math.floor(vals[0] * 10.0) / 10.0
    hi = math.ceil(vals[-1] * 10.0) / 10.0
    xs = np.round(np.arange(lo, hi + 0.05, 0.1), 1)
    cdf = np.searchsorted(vals, xs, side="right") / vals.size
    return xs, cdf


# ---------------------------------------------------------------------------
# Output files


# Rows of reward_trace.csv formatted and written per write call.
TRACE_BLOCK_ROWS = 1024


def _fmt(x: float) -> str:
    return repr(float(x))


def emit_outputs(records: Sequence[TimeSlotRecord],
                 reward_traces: Sequence[np.ndarray], out_dir,
                 config: ScenarioConfig) -> List[Path]:
    """Write timeslots.csv, sinr_cdf.csv, reward_trace.csv, and summary.yaml.

    Outputs are a pure function of the inputs (no timestamps), so a repeated
    run with the same seed and config is byte-identical.
    """
    out = Path(out_dir)
    # Before any file is written, so an undefined CDF leaves no partial outputs.
    xs, cdf = sinr_cdf(records)
    try:
        out.mkdir(parents=True, exist_ok=True)
        paths = []

        p = out / "timeslots.csv"
        with open(p, "w", newline="", encoding="utf-8") as f:
            w = csv.writer(f, lineterminator="\n")
            w.writerow(["t", "qos", "qos_th", "aerial_x", "aerial_y", "aerial_h",
                        "triggered"])
            for k, r in enumerate(records):
                ap = r.aerial_pos
                w.writerow([_fmt(k * config.t_min), _fmt(r.qos), _fmt(r.qos_th),
                            _fmt(ap.x) if ap else "", _fmt(ap.y) if ap else "",
                            _fmt(ap.h) if ap else "", int(r.learning_triggered)])
        paths.append(p)

        p = out / "sinr_cdf.csv"
        with open(p, "w", newline="", encoding="utf-8") as f:
            w = csv.writer(f, lineterminator="\n")
            w.writerow(["sinr_db", "cdf"])
            for x, c in zip(xs, cdf):
                w.writerow([f"{x:.1f}", _fmt(c)])
        paths.append(p)

        p = out / "reward_trace.csv"
        with open(p, "wb") as f:
            # The rows csv.writer would write (no field needs quoting), as
            # ASCII bytes. Each distinct float64 bit pattern (-0.0 apart from
            # 0.0) is repr'd once. Rows go out in blocks, each one %-format
            # of its rows' numbers and texts; a list of the whole trace would
            # raise peak memory.
            f.write(b"iteration,reward\n")
            i = 0
            for trace in reward_traces:
                bits = np.ascontiguousarray(trace, dtype=float).view(np.uint64)
                uniq, inv = np.unique(bits, return_inverse=True)
                text = [repr(r).encode() for r in uniq.view(float).tolist()]
                for lo in range(0, inv.size, TRACE_BLOCK_ROWS):
                    block = inv[lo:lo + TRACE_BLOCK_ROWS].tolist()
                    row = [None] * (2 * len(block))
                    row[0::2] = range(i + lo, i + lo + len(block))
                    row[1::2] = map(text.__getitem__, block)
                    f.write((b"%d,%b\n" * len(block)) % tuple(row))
                i += inv.size
        paths.append(p)

        p = out / "summary.yaml"
        qos_mean = float(np.mean([r.qos for r in records]))
        n_users = records[0].user_sinr.size
        summary = {
            "config": dataclasses.asdict(config),
            "n_slots": len(records),
            "learning_runs": len(reward_traces),
            "qos_th": float(records[0].qos_th),
            "qos_mean": qos_mean,
            "qos_final": float(records[-1].qos),
            # A slot's QoS sums its users' spectral efficiencies.
            "spectral_efficiency_mean": qos_mean / n_users if n_users else 0.0,
        }
        with open(p, "w", encoding="utf-8", newline="\n") as f:
            yaml.safe_dump(summary, f, sort_keys=True)
        paths.append(p)
        return paths
    except OSError as e:
        raise OSError(f"failed writing outputs under {out}: {e}") from e


# ---------------------------------------------------------------------------
# Config serialization and presets


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _merge(out[k], v)
        else:
            out[k] = v
    return out


# Accepted value types, by field annotation. No config value is a boolean;
# bool is an int subclass, so it is rejected separately.
_SCALAR_TYPES = {
    "int": ((int,), "an integer"),
    "float": ((int, float), "a number"),
    "str": ((str,), "a string"),
}


def _from_mapping(cls, d: dict, prefix: str = ""):
    """cls(**d), with the keys and value types of d checked against cls's fields."""
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(d) - set(fields)
    if unknown:  # a YAML key need not be a string
        raise ConfigurationError(
            f"unknown config keys: {sorted(prefix + str(k) for k in unknown)}")
    kwargs = {}
    for k, v in d.items():
        name, f = prefix + k, fields[k]
        section = f.default_factory  # a config section's class
        if section is not dataclasses.MISSING:
            if isinstance(v, dict):
                v = _from_mapping(section, v, name + ".")
            elif not isinstance(v, section):
                raise ConfigurationError(f"config key {name} must be a mapping, got {v!r}")
        else:
            accepted, what = _SCALAR_TYPES[f.type]
            if isinstance(v, bool) or not isinstance(v, accepted):
                raise ConfigurationError(f"config key {name} must be {what}, got {v!r}")
            if float in accepted and not abs(v) <= sys.float_info.max:  # nan too
                raise ConfigurationError(f"config key {name} must be finite, got {v!r}")
        kwargs[k] = float(v) if f.type == "float" else v
    return cls(**kwargs)


# Each preset holds only what differs from the ScenarioConfig defaults.
PRESETS = {
    # The defaults are the full-size setup (19 ground sites, 4 km^2, 21x21x11
    # placement grid); the paper's learner runs longer.
    "paper": {"learning": {"max_episodes": 5000, "max_steps": 40}},
    # Small setup sized for fast verification runs.
    "desk": {
        "n_users": 100,
        "n_rings": 1,
        "grid": {"n_x": 5, "n_y": 5, "n_h": 3},
        "learning": {"max_episodes": 600},
    },
}


class _ConfigLoader(yaml.SafeLoader):
    """A SafeLoader that rejects a key written twice in one mapping. A key
    merged in with << may be set again."""

    def flatten_mapping(self, node):
        seen = set()
        for k, _ in node.value:
            if isinstance(k, yaml.ScalarNode) and k.tag != "tag:yaml.org,2002:merge":
                key = self.construct_object(k)
                if key in seen:
                    raise yaml.constructor.ConstructorError(
                        None, None, f"found duplicate key {key!r}", k.start_mark)
                seen.add(key)
        super().flatten_mapping(node)


def build_config(preset: Optional[str] = None, config_file=None,
                 overrides: Optional[dict] = None) -> ScenarioConfig:
    """Layer preset < config file < explicit overrides into a ScenarioConfig."""
    if preset and preset not in PRESETS:
        raise ConfigurationError(f"unknown preset {preset!r}")
    d = PRESETS[preset] if preset else {}  # _merge copies; nothing writes to d
    if config_file:
        with open(config_file, "r", encoding="utf-8") as f:
            try:
                loaded = yaml.load(f, Loader=_ConfigLoader) or {}
            except yaml.YAMLError as e:
                raise ConfigurationError(f"config file {config_file} is not valid "
                                         f"YAML: {' '.join(str(e).split())}") from e
        if not isinstance(loaded, dict):
            raise ConfigurationError("config file must be a mapping")
        d = _merge(d, loaded)
    return _from_mapping(ScenarioConfig, _merge(d, overrides or {}))
