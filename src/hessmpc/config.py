"""Engine configuration: shipped defaults, JSON loading with includes,
cross-field validation.

The default configuration reproduces the reference plant: 200 MW / 5000 MWh
hydrogen with an unbounded methanol store behind it, 100 MW / 1000 MWh
compressed air, 100 MW / 200 MWh battery, 60 MW / 2 MWh flywheel, the
15/120/25 frequency-response gains, Q/R ratios 0.27 / 0.15 / 0.1 and the
sigmoid band constants (1.0, 5.0, 2 MW). Dispatch-cost vectors are in
currency/MWh with magnitudes chosen so the cost-induced dispatch deadband
(c / 2(Q/R)) stays at the few-MW scale; their ratios across layers drive the
adaptive band blending.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .devices import (
    AweParams, BatteryDegParams, EssState, FessParams, MeohParams,
    PemfcParams, TurbineParams, fess_standby_loss,
)
from .errors import ConfigError
from .metrics import TariffConfig
from .mpc import LayerSpec
from .mtip import marginal_cost
from .scenario import ScenarioConfig
from .vic import VicParams


@dataclass
class StoreConfig:
    """One simple storage device (battery or compressed air)."""

    power_mw: float
    energy_mwh: float
    envelope_frac: tuple[float, float]
    eta_c: float
    eta_d: float
    self_discharge: float = 0.0
    init_frac: float = 0.5

    def make_state(self, standby_loss: float = 0.0) -> EssState:
        lo = self.envelope_frac[0] * self.energy_mwh
        hi = self.envelope_frac[1] * self.energy_mwh
        return EssState(
            energy=lo + self.init_frac * (hi - lo),
            envelope=(lo, hi),
            power_cap=self.power_mw,
            eta_c=self.eta_c,
            eta_d=self.eta_d,
            self_discharge=self.self_discharge,
            standby_loss=standby_loss,
        )


@dataclass
class MtipConfig:
    kappa: float = 5.0
    chi_th: float = 1.0
    eps_db: float = 2.0


@dataclass
class BaselineConfig:
    soc_period_h: float = 24.0
    filter_cutoffs: tuple[float, float] = (60.0, 900.0)
    trend_cutoff_s: float = 86400.0


@dataclass
class EngineConfig:
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    csv_path: str | None = None

    awe: AweParams = field(default_factory=AweParams)
    pemfc: PemfcParams = field(default_factory=PemfcParams)
    meoh: MeohParams = field(default_factory=MeohParams)
    turbine: TurbineParams = field(default_factory=TurbineParams)
    battery_deg: BatteryDegParams = field(default_factory=BatteryDegParams)
    fess: FessParams = field(default_factory=FessParams)
    fess_init_frac: float = 0.5

    bess: StoreConfig = field(default_factory=lambda: StoreConfig(
        power_mw=100.0, energy_mwh=200.0, envelope_frac=(0.1, 0.9),
        eta_c=0.95, eta_d=0.95,
    ))
    caes: StoreConfig = field(default_factory=lambda: StoreConfig(
        power_mw=100.0, energy_mwh=1000.0, envelope_frac=(0.05, 0.95),
        eta_c=0.83, eta_d=0.83,
    ))

    h2_power_mw: float = 200.0
    tank_cap_mwh: float = 5000.0
    tank_init_frac: float = 0.5
    meoh_init_mwh: float = 0.0

    n1: int = 240
    n2: int = 96
    n3: int = 60
    q_weights: tuple[float, float, float] = (0.27, 0.15, 0.1)
    r_weights: tuple[float, float, float] = (1.0, 1.0, 1.0)
    c_l1: tuple[float, float, float, float] = (0.60, 0.80, 0.30, 0.90)
    c_l2: tuple[float, float] = (0.35, 0.35)
    c_l3: tuple[float, float] = (0.50, 0.50)
    c_l4: float = 0.80
    l3_norm_power: int = 2
    # Receding-horizon measurement feedback: each layer de-biases its
    # forecast window by the previous step's observed error, decayed
    # geometrically over the horizon. 0 disables.
    forecast_bias_decay: float = 0.8

    vic: VicParams = field(default_factory=VicParams)
    mtip: MtipConfig = field(default_factory=MtipConfig)
    tariff: TariffConfig = field(default_factory=TariffConfig)
    baseline: BaselineConfig = field(default_factory=BaselineConfig)

    controller: str = "proposed"     # proposed | periodic_soc | filter
    ambient_temp_c: float = 25.0
    out_dir: str = "out"
    debug_qp_dump: bool = False

    def layer_specs(self) -> dict[str, LayerSpec]:
        """Build the three layer descriptions from the configured weights."""
        conv_cap = self.meoh.rated_power / 0.75
        return {
            "L1": LayerSpec(
                layer_id="L1", dt_h=1.0, horizon=self.n1,
                tracking_weight=self.q_weights[0], cost_weight=self.r_weights[0],
                cost_vec=np.array(self.c_l1),
                output_row=np.array([-1.0, 1.0, 0.0, 1.0]),
                u_max=np.array([
                    self.h2_power_mw, self.h2_power_mw,
                    conv_cap, self.turbine.rated,
                ]),
            ),
            "L2": LayerSpec(
                layer_id="L2", dt_h=0.25, horizon=self.n2,
                tracking_weight=self.q_weights[1], cost_weight=self.r_weights[1],
                cost_vec=np.array(self.c_l2),
                output_row=np.array([-1.0, 1.0]),
                u_max=np.array([self.caes.power_mw, self.caes.power_mw]),
            ),
            "L3": LayerSpec(
                layer_id="L3", dt_h=1.0 / 60.0, horizon=self.n3,
                tracking_weight=self.q_weights[2], cost_weight=self.r_weights[2],
                cost_vec=np.array(self.c_l3),
                output_row=np.array([-1.0, 1.0]),
                u_max=np.array([self.bess.power_mw, self.bess.power_mw]),
                norm_power=self.l3_norm_power,
            ),
        }

    def fess_state(self) -> EssState:
        lo, hi = self.fess.energy_envelope
        return EssState(
            energy=lo + self.fess_init_frac * (hi - lo),
            envelope=(lo, hi),
            power_cap=self.fess.power_cap,
            eta_c=self.fess.eta_c,
            eta_d=self.fess.eta_d,
            standby_loss=fess_standby_loss(self.fess),
        )


@dataclass
class Finding:
    severity: str       # "error" | "warning"
    path: str
    message: str


def validate(config: EngineConfig) -> list[Finding]:
    """Exhaustive cross-field checks; findings are the output, never raises."""
    out: list[Finding] = []

    def err(path, msg):
        out.append(Finding("error", path, msg))

    def warn(path, msg):
        out.append(Finding("warning", path, msg))

    for name, store in (("bess", config.bess), ("caes", config.caes)):
        for side in ("eta_c", "eta_d"):
            val = getattr(store, side)
            if not 0.0 < val <= 1.0:
                err(f"{name}.{side}", f"must lie in (0, 1], got {val}")
        lo, hi = store.envelope_frac
        if not 0.0 <= lo < hi <= 1.0:
            err(f"{name}.envelope_frac", f"must satisfy 0 <= lo < hi <= 1, got {store.envelope_frac}")
        if store.power_mw <= 0.0:
            err(f"{name}.power_mw", "must be positive")
        if not 0.0 <= store.init_frac <= 1.0:
            err(f"{name}.init_frac", "must lie in [0, 1]")
    for side in ("eta_c", "eta_d"):
        val = getattr(config.fess, side)
        if not 0.0 < val <= 1.0:
            err(f"fess.{side}", f"must lie in (0, 1], got {val}")
    for i, q in enumerate(config.q_weights):
        if q <= 0.0:
            err(f"q_weights[{i}]", "tracking weights must be positive")
    for i, r in enumerate(config.r_weights):
        if r < 0.0:
            err(f"r_weights[{i}]", "cost weights must be non-negative")
    for key in ("n1", "n2", "n3"):
        if getattr(config, key) < 1:
            err(key, "horizon must hold at least one step")
    if config.l3_norm_power not in (2, 3):
        err("l3_norm_power", "must be 2 or 3")
    if config.debug_qp_dump and config.l3_norm_power == 3 and config.controller != "filter":
        # The dump writes the dense quadratic form, which the cubic penalty
        # does not have; the filter controller writes no dump.
        err("debug_qp_dump", "the QP dump needs the quadratic penalty, but l3_norm_power is 3")
    if not 0.0 <= config.forecast_bias_decay < 1.0:
        err("forecast_bias_decay", "must lie in [0, 1)")
    if config.mtip.eps_db < 0.0:
        err("mtip.eps_db", "deadband must be non-negative")
    if config.controller == "periodic_soc":
        if config.l3_norm_power == 3:
            err("l3_norm_power", "cubic penalty is not available with the periodic-SOC baseline")
        # The periodic law plans each layer's full horizon, and the forecast
        # runs n1 hours past the run end: the last decision's window holds
        # its own step and at most the pad's steps after it.
        for key, per_hour in (("n2", 4), ("n3", 60)):
            most = per_hour * config.n1 + 1
            if getattr(config, key) > most:
                err(key, f"periodic-SOC horizon outruns the forecast, which ends "
                         f"n1 = {config.n1} h after the run: at most {most} steps")
    if config.controller not in ("proposed", "periodic_soc", "filter"):
        err("controller", f"unknown controller '{config.controller}'")
    if config.controller == "proposed":
        # The band blend divides by the marginal cost of each band child. A
        # layer that cannot be built is reported by the checks above.
        try:
            specs = config.layer_specs()
        except ValueError:
            pass
        else:
            for i, child, prices in ((1, "L2", "c_l2"), (2, "L3", "c_l3")):
                lam = marginal_cost(specs[child])
                if lam <= 0.0:
                    err(f"r_weights[{i}]" if config.r_weights[i] <= 0.0 else prices,
                        f"marginal cost of band child {child} must be positive, got {lam}")
        if config.c_l4 <= 0.0:
            err("c_l4", f"marginal cost of band child L4 must be positive, got {config.c_l4}")
    if config.tank_cap_mwh <= 0.0:
        err("tank_cap_mwh", "must be positive")
    if not 0.0 <= config.tank_init_frac <= 1.0:
        err("tank_init_frac", "must lie in [0, 1]")
    if config.meoh_init_mwh < 0.0:
        err("meoh_init_mwh", "must be non-negative")

    if config.n2 * 0.25 < 1.0:
        warn("n2", "L2 horizon shorter than one L1 step")
    if config.n3 * 1.0 < 15.0:
        warn("n3", "L3 horizon shorter than one L2 step")

    for layer, acc in config.scenario.forecast_accuracy.items():
        if not 0.0 < acc <= 1.0:
            err(f"scenario.forecast_accuracy.{layer}", f"must lie in (0, 1], got {acc}")
    if config.csv_path is not None and not os.path.exists(config.csv_path):
        err("csv_path", f"file '{config.csv_path}' does not exist")
    if config.scenario.calm_window_days is not None:
        a, b = config.scenario.calm_window_days
        if not 0.0 <= a < b <= config.scenario.duration_days:
            err("scenario.calm_window_days", "window must lie inside the run")
    try:
        TariffConfig(config.tariff.tou_schedule, config.tariff.capacity_rate)
    except ValueError as exc:
        err("tariff.tou_schedule", str(exc))
    c0, c1 = config.baseline.filter_cutoffs
    if not c0 < c1:
        err("baseline.filter_cutoffs", "cutoffs must be strictly ordered")
    if config.baseline.trend_cutoff_s <= c1:
        err("baseline.trend_cutoff_s", "trend cutoff must exceed the second corner")
    if config.baseline.soc_period_h <= 0.0:
        err("baseline.soc_period_h", "must be positive")
    return out


# ----------------------------------------------------------------------
# JSON round trip with includes
# ----------------------------------------------------------------------

_TUPLE_FIELDS = {
    "envelope_frac", "energy_envelope", "rotor_inertias", "j_range",
    "q_weights", "r_weights", "c_l1", "c_l2", "c_l3", "filter_cutoffs",
    "calm_window_days",
}


def _undataclass(obj):
    if dataclasses.is_dataclass(obj):
        return {f.name: _undataclass(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, (list, tuple)):
        return [_undataclass(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _undataclass(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj


def to_dict(config: EngineConfig) -> dict:
    return _undataclass(config)


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _merge(out[k], v)
        else:
            out[k] = v
    return out


#: Config sections built from a nested JSON object, by field name.
_NESTED = {
    "scenario": ScenarioConfig, "awe": AweParams, "pemfc": PemfcParams,
    "meoh": MeohParams, "turbine": TurbineParams,
    "battery_deg": BatteryDegParams, "fess": FessParams,
    "bess": StoreConfig, "caes": StoreConfig, "vic": VicParams,
    "mtip": MtipConfig, "baseline": BaselineConfig, "tariff": TariffConfig,
}


def _unknown_keys(cls, data: dict, prefix: str = "") -> list[str]:
    """Dotted paths of the keys in ``data`` that name no field of ``cls``."""
    fields = {f.name for f in dataclasses.fields(cls)}
    out = []
    for key, val in data.items():
        if key not in fields:
            out.append(prefix + key)
        elif key in _NESTED and isinstance(val, dict):
            out += _unknown_keys(_NESTED[key], val, f"{prefix}{key}.")
    return out


def _build(cls, data: dict):
    kwargs = {}
    for f in dataclasses.fields(cls):
        if f.name not in data:
            continue
        val = data[f.name]
        nested = _NESTED.get(f.name)
        if f.name == "tariff" and isinstance(val, dict):
            if "tou_schedule" not in val:
                raise ConfigError(
                    "tariff.tou_schedule: missing; a tariff object must give its "
                    "time-of-use schedule"
                )
            sched = [((a, b), p) for (a, b), p in
                     ((tuple(rng), p) for rng, p in val["tou_schedule"])]
            kwargs[f.name] = TariffConfig(sched, val.get("capacity_rate", 10000.0))
        elif nested is not None and isinstance(val, dict):
            kwargs[f.name] = _build(nested, val)
        elif f.name in _TUPLE_FIELDS and isinstance(val, list):
            kwargs[f.name] = tuple(val)
        elif f.name == "forecast_accuracy" and isinstance(val, dict):
            kwargs[f.name] = dict(val)
        else:
            kwargs[f.name] = val
    return cls(**kwargs)


def from_dict(data: dict) -> EngineConfig:
    """Build a configuration from its JSON form; a key that names no
    configuration field is an error, reported with its dotted path."""
    unknown = _unknown_keys(EngineConfig, data)
    if unknown:
        raise ConfigError("unknown configuration keys: " + ", ".join(unknown))
    try:
        return _build(EngineConfig, data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad configuration: {exc}") from exc


def load_config(path: str) -> EngineConfig:
    """Load a JSON config file.

    A top-level ``include`` key lists other config files (paths relative to
    the including file) merged in order before the file's own keys.
    """
    def load_raw(p: str) -> dict:
        with open(p, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{p}: {exc}") from exc
        includes = data.pop("include", [])
        merged: dict = {}
        for inc in includes:
            inc_path = inc if os.path.isabs(inc) else \
                os.path.join(os.path.dirname(os.path.abspath(p)), inc)
            merged = _merge(merged, load_raw(inc_path))
        return _merge(merged, data)

    return from_dict(load_raw(path))


def save_config(config: EngineConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_dict(config), fh, indent=2, sort_keys=True)
        fh.write("\n")
