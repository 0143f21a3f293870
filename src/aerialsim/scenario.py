"""Scenario driver: outer control loop, metrics, and output files."""

from __future__ import annotations

import csv
import dataclasses
import math
import os
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np
import yaml

from .channel import (AtgEnvironment, RadioParams, dbm_to_mw,
                      free_space_pathloss, ground_pathloss_d)
from .deployment import (DEFAULT_ANTENNA_HEIGHT, DEFAULT_GROUND_TX_DBM,
                         GroundBS, PlacementGrid, drop_users_ppp,
                         grid_index_to_position, hex_cell_count, hex_layout)
from .geometry import ConfigurationError, Position3D, ServiceArea, square_area
from .mobility import MobilityParams, init_users, step
from .placement import (LearningConfig, QTable, learn_placement, load_qtable,
                        save_qtable)
# aggregate_qos is not called here; bench/tracing.py wraps it as an attribute.
from .radio import (DEFAULT_AERIAL_TX_DBM, NetworkState,  # noqa: F401
                    aggregate_qos, link_report, throughput)

BASELINE_GROUND = "ground19"
BASELINE_AERIAL = "aerial18plus1"

OUT_DIR_ENV_VAR = "AERIALSIM_OUT_DIR"

# run_scenario moves the users while more than this much of a slot is left.
SLOT_TIME_TOL = 1e-9  # s
# Limits on the work one run may ask for: mobility sub-steps
# (sim_duration / min(t_min, mobility_dt)) and ground sites.
MAX_MOBILITY_SUBSTEPS = 10**7
MAX_GROUND_SITES = 10**4


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
    h_min: float = 25.0
    h_max: float = 525.0
    antenna_height: float = DEFAULT_ANTENNA_HEIGHT
    ground_tx_power: float = DEFAULT_GROUND_TX_DBM
    aerial_tx_power: float = DEFAULT_AERIAL_TX_DBM
    grid: GridSpec = field(default_factory=GridSpec)
    env: AtgEnvironment = field(default_factory=AtgEnvironment)
    radio: RadioParams = field(default_factory=RadioParams)
    mobility: MobilityParams = field(default_factory=MobilityParams)
    learning: LearningConfig = field(default_factory=LearningConfig)
    t_min: float = 10.0                # aerial dwell / slot length, s
    mobility_dt: float = 1.0
    sim_duration: float = 300.0
    baseline_mode: str = BASELINE_AERIAL
    disabled_bs: Optional[int] = None  # defaults to the center site (id 0)
    qtable_path: Optional[str] = None  # warm-start persistence across runs

    def __post_init__(self):
        if self.baseline_mode not in (BASELINE_GROUND, BASELINE_AERIAL):
            raise ConfigurationError(f"unknown baseline_mode {self.baseline_mode!r}")
        if self.t_min <= SLOT_TIME_TOL or self.sim_duration < self.t_min:
            raise ConfigurationError(f"need {SLOT_TIME_TOL!r} s < t_min <= sim_duration")
        if self.mobility_dt <= SLOT_TIME_TOL:
            raise ConfigurationError(f"mobility_dt must be above {SLOT_TIME_TOL!r} s")
        substeps = self.sim_duration / min(self.t_min, self.mobility_dt)
        if substeps > MAX_MOBILITY_SUBSTEPS:
            raise ConfigurationError(
                f"sim_duration / min(t_min, mobility_dt) is {substeps:.3g} mobility "
                f"sub-steps; at most {MAX_MOBILITY_SUBSTEPS} are allowed")
        if self.n_users < 0:
            raise ConfigurationError("n_users must be >= 0")
        # Before the SINR bound below, which takes the site count as a float.
        if self.n_rings < 0:
            raise ConfigurationError("n_rings must be >= 0")
        if hex_cell_count(self.n_rings) > MAX_GROUND_SITES:
            raise ConfigurationError(
                f"n_rings gives 1 + 3 * n_rings * (n_rings + 1) ground sites; at most "
                f"{MAX_GROUND_SITES} are allowed")
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
            # height, the aerial overhead at h_min in line of sight.
            # Non-positive heights are rejected where the layout and the
            # area are built.
            if self.antenna_height > 0 and self.h_min > 0:
                peak = (hex_cell_count(self.n_rings) * dbm_to_mw(
                            self.ground_tx_power
                            - ground_pathloss_d(self.antenna_height, self.radio))
                        + dbm_to_mw(self.aerial_tx_power - self.env.eta_los
                                    - free_space_pathloss(self.h_min,
                                                          self.radio.carrier_freq)))
                if not peak / noise_mw < 2.0 ** 52:
                    raise ConfigurationError(
                        f"transmit powers reach {10 * np.log10(peak / noise_mw):.1f} dB "
                        f"over the noise power; a finite SINR needs less than "
                        f"{10 * np.log10(2.0 ** 52):.1f} dB")
        # One step then moves a user at most one area width, so a single
        # mirror fold brings it back inside.
        if self.mobility.c_max * self.mobility_dt > self.area_side:
            raise ConfigurationError(
                f"mobility.c_max * mobility_dt ({self.mobility.c_max!r} m/s * "
                f"{self.mobility_dt!r} s) exceeds area_side ({self.area_side!r} m)")

    def service_area(self) -> ServiceArea:
        return square_area(self.area_side, self.h_min, self.h_max)

    def placement_grid(self) -> PlacementGrid:
        return PlacementGrid(self.service_area(), self.grid.n_x, self.grid.n_y,
                             self.grid.n_h)


@dataclass(frozen=True)
class TimeSlotRecord:
    t: float
    qos: float
    qos_th: float
    aerial_pos: Optional[Position3D]
    user_sinr: np.ndarray  # linear, per user
    learning_triggered: bool


@dataclass
class ScenarioRun:
    records: List[TimeSlotRecord]
    reward_traces: List[np.ndarray]
    qtable: Optional[QTable]


def disable_site(bss: Sequence[GroundBS], cfg: ScenarioConfig) -> List[GroundBS]:
    """The ground sites with cfg.disabled_bs (default: the center site, id 0) off."""
    off = cfg.disabled_bs if cfg.disabled_bs is not None else 0
    if off not in {b.id for b in bss}:
        raise ConfigurationError(f"disabled_bs {off} is not a ground BS id")
    return [replace(b, active=False) if b.id == off else b for b in bss]


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


def run_scenario(cfg: ScenarioConfig) -> ScenarioRun:
    """Execute one scenario: threshold snapshot, then slot-by-slot control loop."""
    area = cfg.service_area()
    grid = cfg.placement_grid()
    net, rng_mob, rng_learn = build_network(cfg)

    def evaluate(state):
        """(aggregate QoS, per-user SINR) from one link report."""
        if not state.users:
            return 0.0, np.empty(0)
        sinr, tput = link_report(state)
        return float(tput.sum()), sinr

    # Threshold snapshot: full ground network, no aerial.
    qos_th, sinr0 = evaluate(net)
    records = [TimeSlotRecord(t=0.0, qos=qos_th, qos_th=qos_th, aerial_pos=None,
                              user_sinr=sinr0, learning_triggered=False)]
    traces: List[np.ndarray] = []

    aerial_mode = cfg.baseline_mode == BASELINE_AERIAL
    if aerial_mode:
        aerial_state = grid.center_state()
        net = replace(net, ground_bs=disable_site(net.ground_bs, cfg),
                      aerial_pos=grid_index_to_position(grid, aerial_state))
        if cfg.qtable_path and Path(cfg.qtable_path).exists():
            qtable = load_qtable(cfg.qtable_path, grid)
        else:
            qtable = QTable.zeros(grid.n_states)
    else:
        qtable = None

    dts, remaining = [], cfg.t_min  # one slot's mobility sub-steps
    while remaining > SLOT_TIME_TOL:
        dts.append(min(cfg.mobility_dt, remaining))
        remaining -= dts[-1]
    users = net.users
    n_slots = int(math.floor(cfg.sim_duration / cfg.t_min))
    for k in range(1, n_slots + 1):
        users = step(users, dts, cfg.mobility, area, rng_mob)
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
            t=k * cfg.t_min, qos=qos_now, qos_th=qos_th,
            aerial_pos=state.aerial_pos, user_sinr=sinr_now,
            learning_triggered=triggered))

    if aerial_mode and cfg.qtable_path:
        save_qtable(cfg.qtable_path, qtable, grid)
    return ScenarioRun(records=records, reward_traces=traces, qtable=qtable)


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


def spectral_efficiency_summary(records: Sequence[TimeSlotRecord]) -> float:
    """Mean per-user spectral efficiency over users and slots (bits/s/Hz)."""
    if not records:
        raise ValueError("no records")
    per_slot = [throughput(r.user_sinr) for r in records if r.user_sinr.size]
    if not per_slot:
        return 0.0
    return float(np.mean(np.concatenate(per_slot)))


# ---------------------------------------------------------------------------
# Output files


# Rows of reward_trace.csv formatted and written per write call.
TRACE_BLOCK_ROWS = 1024


def _fmt(x: float) -> str:
    return repr(float(x))


def emit_outputs(records: Sequence[TimeSlotRecord],
                 reward_traces: Sequence[np.ndarray], out_dir,
                 config: Optional[ScenarioConfig] = None) -> List[Path]:
    """Write timeslots.csv, sinr_cdf.csv, reward_trace.csv, and summary.yaml.

    Outputs are a pure function of the inputs (no timestamps), so a repeated
    run with the same seed and config is byte-identical.
    """
    out = Path(out_dir)
    # Before any file is written, so an undefined CDF leaves no partial outputs.
    xs, cdf = sinr_cdf(records) if records else ((), ())
    try:
        out.mkdir(parents=True, exist_ok=True)
        paths = []

        p = out / "timeslots.csv"
        with open(p, "w", newline="", encoding="utf-8") as f:
            w = csv.writer(f, lineterminator="\n")
            w.writerow(["t", "qos", "qos_th", "aerial_x", "aerial_y", "aerial_h",
                        "triggered"])
            for r in records:
                ap = r.aerial_pos
                w.writerow([_fmt(r.t), _fmt(r.qos), _fmt(r.qos_th),
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
        with open(p, "w", newline="", encoding="utf-8") as f:
            # The rows csv.writer would write (no field needs quoting). Each
            # distinct float64 bit pattern (-0.0 apart from 0.0) is repr'd
            # once. Rows go out in blocks, each one %-format of its rows'
            # numbers and texts; a list of the whole trace would raise peak
            # memory.
            f.write("iteration,reward\n")
            i = 0
            for trace in reward_traces:
                bits = np.ascontiguousarray(trace, dtype=float).view(np.uint64)
                uniq, inv = np.unique(bits, return_inverse=True)
                text = [repr(r) for r in uniq.view(float).tolist()]
                for lo in range(0, inv.size, TRACE_BLOCK_ROWS):
                    block = inv[lo:lo + TRACE_BLOCK_ROWS].tolist()
                    row = [None] * (2 * len(block))
                    row[0::2] = range(i + lo, i + lo + len(block))
                    row[1::2] = map(text.__getitem__, block)
                    f.write(("%d,%s\n" * len(block)) % tuple(row))
                i += inv.size
        paths.append(p)

        p = out / "summary.yaml"
        summary = {
            "config": config_to_dict(config) if config else None,
            "seed": config.seed if config else None,
            "n_slots": len(records),
            "learning_runs": len(reward_traces),
            "qos_th": float(records[0].qos_th) if records else None,
            "qos_mean": float(np.mean([r.qos for r in records])) if records else None,
            "qos_final": float(records[-1].qos) if records else None,
            "spectral_efficiency_mean":
                spectral_efficiency_summary(records) if records else None,
        }
        with open(p, "w", encoding="utf-8", newline="\n") as f:
            yaml.safe_dump(summary, f, sort_keys=True)
        paths.append(p)
        return paths
    except OSError as e:
        raise OSError(f"failed writing outputs under {out}: {e}") from e


# ---------------------------------------------------------------------------
# Config serialization and presets


def config_to_dict(cfg: ScenarioConfig) -> dict:
    return dataclasses.asdict(cfg)


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _merge(out[k], v)
        else:
            out[k] = v
    return out


# Config sections, by the annotation of the ScenarioConfig field that holds them.
_NESTED_TYPES = {cls.__name__: cls for cls in (GridSpec, AtgEnvironment, RadioParams,
                                               MobilityParams, LearningConfig)}

# Accepted value types, by field annotation. bool is an int subclass, so it is
# rejected separately where a number is expected.
_SCALAR_TYPES = {
    "int": ((int,), "an integer"),
    "float": ((int, float), "a number"),
    "bool": ((bool,), "true or false"),
    "str": ((str,), "a string"),
}


def _finite(x) -> bool:
    """math.isfinite, and False for an int too large to be a float."""
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def _from_mapping(cls, d: dict, prefix: str = ""):
    """cls(**d), with the keys and value types of d checked against cls's fields."""
    types = {f.name: f.type for f in dataclasses.fields(cls)}
    unknown = set(d) - set(types)
    if unknown:
        raise ConfigurationError(
            f"unknown config keys: {sorted(prefix + k for k in unknown)}")
    kwargs = {}
    for k, v in d.items():
        name, typ = prefix + k, types[k]
        nested = _NESTED_TYPES.get(typ)
        if nested is not None:
            if isinstance(v, dict):
                v = _from_mapping(nested, v, name + ".")
            elif not isinstance(v, nested):
                raise ConfigurationError(f"config key {name} must be a mapping, got {v!r}")
        elif not (v is None and typ.startswith("Optional[")):
            accepted, what = _SCALAR_TYPES[typ.removeprefix("Optional[").rstrip("]")]
            if isinstance(v, bool) != (bool in accepted) or not isinstance(v, accepted):
                raise ConfigurationError(f"config key {name} must be {what}, got {v!r}")
            if float in accepted and not _finite(v):
                raise ConfigurationError(f"config key {name} must be finite, got {v!r}")
        kwargs[k] = float(v) if typ == "float" else v
    return cls(**kwargs)


def config_from_dict(d: dict) -> ScenarioConfig:
    return _from_mapping(ScenarioConfig, d)


PRESETS = {
    # Full-size setup: 19 ground sites, 4 km^2, 21x21x11 placement grid.
    "paper": {
        "n_users": 150,
        "n_rings": 2,
        "grid": {"n_x": 21, "n_y": 21, "n_h": 11},
        "learning": {"max_episodes": 5000, "max_steps": 40},
        "sim_duration": 300.0,
    },
    # Small setup sized for fast verification runs.
    "desk": {
        "n_users": 100,
        "n_rings": 1,
        "grid": {"n_x": 5, "n_y": 5, "n_h": 3},
        "learning": {"max_episodes": 600, "max_steps": 30},
        "sim_duration": 300.0,
    },
}


def build_config(preset: Optional[str] = None, config_file=None,
                 overrides: Optional[dict] = None) -> ScenarioConfig:
    """Layer preset < config file < explicit overrides into a ScenarioConfig."""
    d: dict = {}
    if preset:
        if preset not in PRESETS:
            raise ConfigurationError(f"unknown preset {preset!r}")
        d = _merge(d, PRESETS[preset])
    if config_file:
        with open(config_file, "r", encoding="utf-8") as f:
            try:
                loaded = yaml.safe_load(f) or {}
            except yaml.YAMLError as e:
                raise ConfigurationError(f"config file {config_file} is not valid "
                                         f"YAML: {' '.join(str(e).split())}") from e
        if not isinstance(loaded, dict):
            raise ConfigurationError("config file must be a mapping")
        d = _merge(d, loaded)
    if overrides:
        d = _merge(d, overrides)
    return config_from_dict(d)


def default_out_dir() -> Path:
    return Path(os.environ.get(OUT_DIR_ENV_VAR, "out"))
