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
import numbers
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .devices import (
    AweParams, BatteryDegParams, EssState, FessParams, MeohParams,
    PemfcParams, TurbineParams, fess_standby_loss,
)
from .errors import ConfigError
from .metrics import TariffConfig
from .mpc import LAYERS, LayerSpec, freeze_efficiencies, periodic_plan
from .mtip import marginal_cost
from .scenario import ARCHETYPES, ScenarioConfig
from .vic import VicParams


#: The controllers, in the order ``hessmpc compare`` runs and prints them.
CONTROLLERS = ("proposed", "periodic_soc", "filter")


@dataclass
class StoreConfig:
    """One simple storage device (battery or compressed air);
    self_discharge is its leak, a fraction of the energy per hour."""

    power_mw: float
    energy_mwh: float
    envelope_frac: tuple[float, float]
    eta_c: float
    eta_d: float
    self_discharge: float = 0.0
    init_frac: float = 0.5

    def make_state(self) -> tuple[EssState, float]:
        """The store's limits and its run-start energy (MWh)."""
        store = EssState(envelope=(self.envelope_frac[0] * self.energy_mwh,
                                   self.envelope_frac[1] * self.energy_mwh),
                         power_cap=self.power_mw, eta_c=self.eta_c, eta_d=self.eta_d,
                         self_discharge=self.self_discharge)
        return store, store.energy_at(self.init_frac)


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
    # Receding-horizon measurement feedback: each layer de-biases its
    # forecast window by the previous step's observed error, decayed
    # geometrically over the horizon. 0 disables.
    forecast_bias_decay: float = 0.8

    vic: VicParams = field(default_factory=VicParams)
    mtip: MtipConfig = field(default_factory=MtipConfig)
    tariff: TariffConfig = field(default_factory=TariffConfig)
    baseline: BaselineConfig = field(default_factory=BaselineConfig)

    controller: str = "proposed"     # one of CONTROLLERS
    ambient_temp_c: float = 25.0
    out_dir: str = "out"
    inspect: bool = False

    def layer_specs(self) -> dict[str, LayerSpec]:
        """Build the layer descriptions of :data:`~hessmpc.mpc.LAYERS` from
        the configured weights: L1 moves the hydrogen chain's four inputs
        (electrolysis, fuel cell, methanol conversion, turbine), each other
        layer its store's charge and discharge."""
        specs = {}
        for i, row in enumerate(LAYERS):
            if row.device == "hydrogen":
                output_row = [-1.0, 1.0, 0.0, 1.0]
                u_max = [self.h2_power_mw, self.h2_power_mw,
                         self.meoh.rated_power / 0.75, self.turbine.rated]
            else:
                output_row = [-1.0, 1.0]
                u_max = [getattr(self, row.device).power_mw] * 2
            specs[row.layer_id] = LayerSpec(
                layer_id=row.layer_id, dt_h=row.step_s / 3600,
                horizon=getattr(self, row.horizon_key),
                tracking_weight=self.q_weights[i], cost_weight=self.r_weights[i],
                cost_vec=np.array(getattr(self, row.price_key)),
                output_row=np.array(output_row), u_max=np.array(u_max),
            )
        return specs

    def fess_state(self) -> tuple[EssState, float]:
        """The flywheel's limits and its run-start energy (MWh)."""
        fess = self.fess
        store = EssState(envelope=tuple(fess.energy_envelope), power_cap=fess.power_cap,
                         eta_c=fess.eta_c, eta_d=fess.eta_d, standby_loss=fess_standby_loss(fess))
        return store, store.energy_at(self.fess_init_frac)


@dataclass
class Finding:
    severity: str       # "error" | "warning"
    path: str
    message: str


def _is_finite(value) -> bool:
    """True for a number, not a bool, that a float holds finitely. A plain
    int or float skips the ABC check; bools and numpy scalars take it."""
    if type(value) in (int, float):
        return abs(value) <= sys.float_info.max
    return isinstance(value, numbers.Real) and not isinstance(value, bool) \
        and abs(value) <= sys.float_info.max


def _interval(text: str, message: str | None = None):
    """The test and the message of an interval written as in mathematics,
    such as ``"(0, 1]"`` or ``"[1, inf)"``. Without a message of its own, a
    bounded interval reads "must lie in (0, 1]" and an upper-unbounded one
    "must be positive", "non-negative", "above a" or "at least a"."""
    lo, hi = (float(bound) for bound in text[1:-1].split(","))
    lo_open, hi_open = text[0] == "(", text[-1] == ")"

    def holds(val) -> bool:
        return (lo < val if lo_open else lo <= val) and (val < hi if hi_open else val <= hi)

    if message is None:
        if hi < np.inf:
            message = f"must lie in {text}"
        elif lo == 0.0:
            message = "must be positive" if lo_open else "must be non-negative"
        else:
            message = f"must be {'above' if lo_open else 'at least'} {lo:g}"
    return holds, message


#: The value rule of each single field, path -> (interval, test, message):
#: a path reads a tuple entry as ``name[i]`` and a mapping entry as
#: ``name.key``.
_RULES = {path: (rule[0], *_interval(*rule)) for path, *rule in (
    # A store's moves and its room divide by its efficiencies and multiply
    # them by the step: one far below any device's loses every digit.
    *((f"{store}.{side}", "[1e-6, 1]") for store in ("bess", "caes", "fess")
      for side in ("eta_c", "eta_d")),
    ("bess.init_frac", "[0, 1]"), ("caes.init_frac", "[0, 1]"),
    ("fess_init_frac", "[0, 1]"), ("tank_init_frac", "[0, 1]"),
    ("bess.self_discharge", "[0, 1)"), ("caes.self_discharge", "[0, 1)"),
    ("forecast_bias_decay", "[0, 1)"),
    *((f"scenario.forecast_accuracy.{row.layer_id}", "(0, 1]") for row in LAYERS),
    # Rated powers and energies cap the inputs and the flywheel's injection,
    # and the costs divide by them; the flywheel's levelized cost sums over
    # its cycle life, one float per cycle, at a discount rate that a
    # negative one makes overflow.
    *((path, "(0, inf)") for path in (
        "bess.power_mw", "caes.power_mw", "h2_power_mw", "tank_cap_mwh",
        "meoh.rated_power", "turbine.rated", "fess.power_cap", "bess.energy_mwh",
        "caes.energy_mwh")),
    ("fess.lifetime_cycles", "[1, 1e7]"), ("fess.discount_rate", "[0, inf)"),
    # The standby drain's terms; a negative one would cancel the others.
    *((f"fess.{name}", "[0, inf)")
      for name in ("windage_coeff", "bearing_coeff", "bop_power", "rated_speed")),
    ("meoh_init_mwh", "[0, inf)"),
    # A negative capacity turns the renewables into load, a negative peak
    # the load into generation.
    *((f"scenario.{name}", "[0, inf)") for name in ("wind_capacity", "pv_capacity", "load_peak")),
    # A negative price starts its input at the cap in the fill-order base,
    # so a store priced negative on both sides charges and discharges at once.
    *((f"{row.price_key}[{i}]", "[0, inf)") for row in LAYERS
      for i in range(len(getattr(EngineConfig, row.price_key)))),
    *((f"q_weights[{i}]", "(0, inf)") for i in range(3)),
    *((f"r_weights[{i}]", "[0, inf)") for i in range(3)),
    *((key, "[1, inf)", "horizon must hold at least one step") for key in ("n1", "n2", "n3")),
    ("scenario.seed", "[0, inf)", "must be a non-negative integer"),
    ("mtip.eps_db", "[0, inf)"),
    ("baseline.soc_period_h", "(0, inf)"),
    # The degradation model's stress factor divides by 273 + T.
    ("ambient_temp_c", "(-273, inf)"),
    ("vic.k_pf", "(0, inf)"), ("vic.k_p", "(0, inf)"), ("vic.k_d", "(0, inf)"),
    ("awe.area", "(0, inf)"), ("awe.n_cells", "[1, inf)"),
)}


def _value(config, path: str):
    """The value at ``path`` (see :data:`_RULES`)."""
    name, _, index = path.partition("[")
    val = config
    for key in name.split("."):
        val = val[key] if isinstance(val, dict) else getattr(val, key)
    return val[int(index[:-1])] if index else val


def _schedule_error(schedule) -> str | None:
    """Why ``schedule`` is no time-of-use schedule, ((hour_start, hour_end),
    price) entries whose half-open ranges of whole hours cover 24 h without
    overlap; None if it is one. Prices are per whole hour of day."""
    pair = (tuple, list)
    if not (isinstance(schedule, pair) and all(
            isinstance(e, pair) and len(e) == 2 and isinstance(e[0], pair) and len(e[0]) == 2
            for e in schedule)):
        return f"must hold ((hour_start, hour_end), price) entries, got {schedule!r}"
    spans = [(h0, h1, price) for (h0, h1), price in schedule]
    if not all(_is_finite(v) for span in spans for v in span):
        return "tou_schedule hours and prices must be finite"
    if not all(float(h).is_integer() for h0, h1, _ in spans for h in (h0, h1)):
        return "tou_schedule hours must be whole"
    covered = 0.0
    prev_end = 0.0
    for h0, h1, _ in sorted(spans):
        if h0 < prev_end:
            return "tou_schedule ranges overlap"
        if h0 > prev_end:
            return "tou_schedule leaves a gap"
        covered += h1 - h0
        prev_end = h1
    if covered != 24.0:
        return "tou_schedule must cover 24 h"
    return None


def _shape_errors(config, default, prefix: str = "") -> list[Finding]:
    """A finding for each field of ``default`` whose value in ``config`` is
    not of its default's kind: a section or a mapping is an object, a
    mapping holds its default's keys and its entries are finite numbers, a
    bool a bool, an integer an integer, a number a finite number, a string a
    string, and a tuple holds as many finite numbers; sections recurse."""
    out = []
    for f in dataclasses.fields(default):
        want, got = getattr(default, f.name), getattr(config, f.name)
        path = prefix + f.name
        if dataclasses.is_dataclass(want) and dataclasses.is_dataclass(got):
            out += _shape_errors(got, want, path + ".")
        elif dataclasses.is_dataclass(want) or isinstance(want, dict) and not isinstance(got, dict):
            out.append(Finding("error", path, f"must be an object, got {got!r}"))
        elif isinstance(want, dict):
            missing = [key for key in want if key not in got]
            if missing:
                out.append(Finding("error", path, f"must hold an entry for each of "
                                   f"{', '.join(want)}, missing {', '.join(missing)}"))
            out += [Finding("error", f"{path}.{key}", f"must be a finite number, got {val!r}")
                    for key, val in got.items() if not _is_finite(val)]
        elif isinstance(want, tuple):
            if not isinstance(got, (tuple, list)) or len(got) != len(want):
                out.append(Finding("error", path, f"must hold {len(want)} values"))
            elif not all(map(_is_finite, got)):
                out.append(Finding("error", path, f"must hold {len(want)} finite numbers"))
        elif isinstance(want, (bool, str)):
            if type(got) is not type(want):
                out.append(Finding("error", path, f"must be a {type(want).__name__}, got {got!r}"))
        elif isinstance(want, numbers.Integral):
            if not (_is_finite(got) and isinstance(got, numbers.Integral)):
                out.append(Finding("error", path, f"must be an integer, got {got!r}"))
        elif _is_finite(want) and not _is_finite(got):
            out.append(Finding("error", path, f"must be a finite number, got {got!r}"))
    return out


def validate(config: EngineConfig) -> list[Finding]:
    """Every value rule of the configuration, each finding at its field
    path; findings are the output, never raises. The sections check nothing
    themselves. A field of the wrong shape or type is reported alone: the
    other checks compare the numbers and index the tuples."""
    out = _shape_errors(config, EngineConfig())
    if out:
        return out

    def err(path, msg):
        out.append(Finding("error", path, msg))

    def warn(path, msg):
        out.append(Finding("warning", path, msg))

    for path, (_, holds, message) in _RULES.items():
        val = _value(config, path)
        if not holds(val):
            err(path, f"{message}, got {val}")
    for name in ("bess", "caes"):
        lo, hi = frac = getattr(config, name).envelope_frac
        if not 0.0 <= lo < hi <= 1.0:
            err(f"{name}.envelope_frac", f"must satisfy 0 <= lo < hi <= 1, got {frac}")
    fess, meoh, deg = config.fess, config.meoh, config.battery_deg
    lo, hi = fess.energy_envelope
    if not lo < hi:
        err("fess.energy_envelope", f"must satisfy lo < hi, got {fess.energy_envelope}")
    if fess.decay_factor * fess.lifetime_cycles >= 1.0:
        err("fess.decay_factor", "capacity would decay to zero within the cycle life: "
            f"decay_factor * lifetime_cycles must be below 1, got "
            f"{fess.decay_factor * fess.lifetime_cycles}")
    if not 0.0 < meoh.rho_min <= meoh.rho_star <= 1.0:
        err("meoh.rho_min", "must satisfy 0 < rho_min <= rho_star <= 1, got "
            f"rho_min {meoh.rho_min} and rho_star {meoh.rho_star}")
    for low, high in (("x_min", "x_max"), ("s_min", "s_max")):
        if getattr(meoh, low) > getattr(meoh, high):
            err(f"meoh.{low}", f"must not exceed {high}, got {getattr(meoh, low)} "
                f"> {getattr(meoh, high)}")
    if deg.alpha_sei + deg.alpha_sds >= 1.0:
        err("battery_deg.alpha_sei", f"alpha_sei + alpha_sds must be below 1, got "
            f"{deg.alpha_sei + deg.alpha_sds}")
    period = config.baseline.soc_period_h
    specs = config.layer_specs()
    if config.controller == "periodic_soc":
        # The forecast runs n1 hours past the run end, so the last decision's
        # window holds its own step and at most the pad's steps after it;
        # the periodic law reads the steps it plans. A pad that broke its
        # rule is reported there alone.
        if period > 0.0 and config.n1 >= 1:
            for row in LAYERS[1:]:
                most = LAYERS[0].step_s // row.step_s * config.n1 + 1
                if periodic_plan(specs[row.layer_id], period) > most:
                    err(row.horizon_key, f"periodic-SOC horizon outruns the forecast, which "
                        f"ends n1 = {config.n1} h after the run: at most {most} steps")
    if config.controller not in CONTROLLERS:
        err("controller", f"unknown controller '{config.controller}'")
    if config.controller == "proposed":
        # The band blend divides by the marginal cost of each band child;
        # a child whose prices or cost weight broke their rule is reported
        # there alone.
        for i, row in enumerate(LAYERS[1:], 1):
            if any(f.path.startswith((row.price_key + "[", f"r_weights[{i}]")) for f in out):
                continue
            lam = marginal_cost(specs[row.layer_id])
            if lam <= 0.0:
                err(f"r_weights[{i}]" if config.r_weights[i] <= 0.0 else row.price_key,
                    f"marginal cost of band child {row.layer_id} must be positive, got {lam}")
        if config.c_l4 <= 0.0:
            err("c_l4", f"marginal cost of band child L4 must be positive, got {config.c_l4}")
    # The hydrogen chain's efficiencies before a load sets them; a chain
    # value that already broke a rule would only fail here again.
    chain = ("awe", "pemfc", "meoh", "turbine")
    if not any(f.path.split(".")[0] in chain for f in out):
        try:
            eff = freeze_efficiencies(config.awe, config.pemfc, config.meoh, config.turbine)
        except (ArithmeticError, ValueError) as exc:
            err(", ".join(chain), f"device curves fail at the idle point: {exc}")
        else:
            for section, name in zip(chain, ("eta_hc", "eta_hd", "eta_mc", "eta_md")):
                val = getattr(eff, name)
                if not 0.0 < val <= 1.0:
                    err(section, f"idle-point efficiency {name} must lie in (0, 1], got {val}")

    for parent, row in zip(LAYERS, LAYERS[1:]):
        if getattr(config, row.horizon_key) * row.step_s < parent.step_s:
            warn(row.horizon_key, f"{row.layer_id} horizon shorter than one "
                 f"{parent.layer_id} step")

    days = config.scenario.duration_days
    span_s = days * 86400.0
    # A span that overflows to infinity counts as no run at all.
    run_s = round(span_s) if 0.0 < span_s < np.inf else 0
    if run_s < LAYERS[0].step_s or run_s % LAYERS[0].step_s:
        err("scenario.duration_days",
            f"run length must be a positive whole number of hours, got {days} days")
    for layer in config.scenario.forecast_accuracy:
        if layer not in [row.layer_id for row in LAYERS]:
            err(f"scenario.forecast_accuracy.{layer}", "names no layer; the layers are L1, L2 and L3")
    if config.scenario.archetype not in ARCHETYPES:
        err("scenario.archetype", f"unknown archetype '{config.scenario.archetype}'; "
            f"the archetypes are {', '.join(ARCHETYPES)}")
    csv = config.csv_path
    if csv is not None and not (isinstance(csv, str) and os.path.exists(csv)):
        err("csv_path", f"must be null or the path of an existing file, got {csv!r}")
    window = config.scenario.calm_window_days
    if window is not None:
        # No default shape to check it against: the default is None.
        if not (isinstance(window, (tuple, list)) and len(window) == 2
                and all(map(_is_finite, window))):
            err("scenario.calm_window_days", "must be null or hold 2 numbers")
        elif not 0.0 <= window[0] < window[1] <= days:
            err("scenario.calm_window_days", "window must lie inside the run")
    schedule_error = _schedule_error(config.tariff.tou_schedule)
    if schedule_error:
        err("tariff.tou_schedule", schedule_error)
    c0, c1 = config.baseline.filter_cutoffs
    if not c0 > 0.5:
        # The filter's first trailing mean spans round(c0) samples.
        err("baseline.filter_cutoffs", f"the first corner must round to at least 1 s, got {c0}")
    if not c0 < c1:
        err("baseline.filter_cutoffs", "cutoffs must be strictly ordered")
    if not c1 < config.baseline.trend_cutoff_s:
        err("baseline.trend_cutoff_s", "trend cutoff must exceed the second corner")
    return out


def require_valid(config: EngineConfig) -> None:
    """Raise ConfigError naming every error :func:`validate` finds."""
    errors = [f for f in validate(config) if f.severity == "error"]
    if errors:
        raise ConfigError("; ".join(f"{f.path}: {f.message}" for f in errors))


# ----------------------------------------------------------------------
# JSON round trip with includes
# ----------------------------------------------------------------------

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


def _build(default, data: dict, unknown: list[str], prefix: str = ""):
    """``default`` with the fields ``data`` names replaced: a nested object
    overrides its section or its mapping of ``default`` key by key, and a
    list is a tuple wherever the default is a tuple or None. The dotted path
    of each key that names no field is appended to ``unknown``. A value of
    the wrong kind is kept for :func:`validate` to report."""
    names = {f.name for f in dataclasses.fields(default)}
    kwargs = {}
    for key, val in data.items():
        if key not in names:
            unknown.append(prefix + key)
            continue
        base = getattr(default, key)
        if dataclasses.is_dataclass(base) and isinstance(val, dict):
            val = _build(base, val, unknown, f"{prefix}{key}.")
        elif isinstance(val, dict):
            val = {**base, **val} if isinstance(base, dict) else dict(val)
        elif isinstance(val, list) and (base is None or isinstance(base, tuple)):
            val = tuple(val)
        kwargs[key] = val
    return dataclasses.replace(default, **kwargs)


def _known(config: EngineConfig, keys: list[str], unknown: list[str] | None) -> EngineConfig:
    """``config``, once each path of ``keys`` is reported once, in order: as
    a ConfigError, or appended to a list ``unknown``."""
    keys = list(dict.fromkeys(keys))
    if unknown is None and keys:
        raise ConfigError("unknown configuration keys: " + ", ".join(keys))
    if unknown is not None:
        unknown += keys
    return config


def from_dict(data: dict, unknown: list[str] | None = None) -> EngineConfig:
    """Build a configuration from its JSON form over the defaults. A key
    that names no configuration field is an error, reported with its dotted
    path; given a list ``unknown``, the paths are appended to it instead,
    and the rest is built."""
    keys: list[str] = []
    return _known(_build(EngineConfig(), data, keys), keys, unknown)


def load_config(path: str, unknown: list[str] | None = None) -> EngineConfig:
    """Load a JSON config file; ``unknown`` as in :func:`from_dict`.

    A top-level ``include`` key lists other config files (paths relative to
    the including file). Each file applies over the configuration built so
    far, its includes in order first, by the rule of :func:`from_dict`. A
    file that includes itself, directly or through others, is an error.
    """
    keys: list[str] = []

    def load(p: str, config: EngineConfig, chain: tuple[str, ...]) -> EngineConfig:
        try:
            with open(p, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"{p}: {exc.strerror}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{p}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"{p}: must hold a JSON object, got {type(data).__name__}")
        includes = data.pop("include", [])
        if not (isinstance(includes, list) and all(isinstance(i, str) for i in includes)):
            raise ConfigError(f"{p}: include: must be a list of file names, got {includes!r}")
        chain += (os.path.realpath(p),)
        for inc in includes:
            inc_path = os.path.join(os.path.dirname(os.path.abspath(p)), inc)
            if os.path.realpath(inc_path) in chain:
                raise ConfigError(f"{p}: include: {inc!r} is already being loaded, a cycle")
            config = load(inc_path, config, chain)
        return _build(config, data, keys)

    return _known(load(path, EngineConfig(), ()), keys, unknown)


def save_config(config: EngineConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_dict(config), fh, indent=2, sort_keys=True)
        fh.write("\n")
