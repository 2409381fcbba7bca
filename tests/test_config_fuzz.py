"""Whatever validate accepts runs to a documented end.

Each draw sets a few configuration fields at or near the edges of their
value rules (the single-field rules of ``config._RULES`` and the rules over
two fields), and runs one hour under every controller: either validate
reports an error and the run stops with a ConfigError (exit 2), or the run
returns with its SOC traces inside their envelopes and its ledger closed.
"""

import math
import numbers

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hessmpc.config import _RULES, EngineConfig, _value, from_dict, validate
from hessmpc.engine import prepare_scenario, run
from hessmpc.errors import ConfigError
from hessmpc.scenario import ARCHETYPES

_DEFAULT = EngineConfig()


def _edges(path: str, text: str) -> list:
    """Values at and near each finite edge of the interval ``text``, and a
    large one for an unbounded upper end; whole numbers for an integer
    field. The horizon n1 sets the forecast pad, so it keeps to its lower
    edge, and the flywheel's cycle life to its lower one: its levelized
    cost holds four floats per cycle."""
    lo, hi = (float(bound) for bound in text[1:-1].split(","))
    default = _value(_DEFAULT, path)
    if path in ("n1", "fess.lifetime_cycles"):
        hi = math.inf
    if isinstance(default, numbers.Integral):
        out = [int(edge) + d for edge in (lo, hi) if math.isfinite(edge) for d in (-1, 0, 1)]
        return out + ([] if math.isfinite(hi) or path == "n1" else [int(lo) + 1000])
    out = [v for edge in (lo, hi) if math.isfinite(edge)
           for v in (edge - 1e-3, edge - 1e-9, math.nextafter(edge, -math.inf), edge,
                     math.nextafter(edge, math.inf), edge + 1e-9, edge + 1e-3)]
    return out + ([] if math.isfinite(hi) else [1e3 * max(1.0, abs(default or 1.0))])


def _set(data: dict, path: str, val) -> None:
    """Set ``path`` (a :data:`config._RULES` path) to ``val`` in the JSON
    form ``data``, a tuple entry in a copy of its tuple."""
    name, _, index = path.partition("[")
    *sections, key = name.split(".")
    node = data
    for section in sections:
        node = node.setdefault(section, {})
    if index:
        seq = list(node.get(key, _value(_DEFAULT, name)))
        seq[int(index[:-1])] = val
        val = seq
    node[key] = val


#: The rules over two fields, each as the fields' paths and pairs of values
#: at and around the rule's edge.
_PAIRS = [
    *((f"{store}.envelope_frac[0]", f"{store}.envelope_frac[1]",
       [(0.0, 1.0), (0.5, 0.5), (0.5, 0.5 + 1e-9), (0.0, 1e-6), (1.0 - 1e-6, 1.0),
        (-1e-9, 0.9), (0.1, 1.0 + 1e-9)]) for store in ("bess", "caes")),
    ("fess.energy_envelope[0]", "fess.energy_envelope[1]",
     [(0.0, 1e-6), (1.0, 1.0), (1.0, 1.0 + 1e-9), (1.9, 0.1)]),
    ("fess.decay_factor", "fess.lifetime_cycles",
     [(1e-3, 999), (1e-3, 1000), (0.0, 1), (0.999, 1)]),
    ("meoh.rho_min", "meoh.rho_star", [(1e-9, 1e-9), (0.5, 0.5), (0.6, 0.5), (1.0, 1.0)]),
    ("meoh.x_min", "meoh.x_max", [(0.5, 0.5), (0.5, 0.5 - 1e-9)]),
    ("meoh.s_min", "meoh.s_max", [(0.5, 0.5), (0.5, 0.5 - 1e-9)]),
    ("battery_deg.alpha_sei", "battery_deg.alpha_sds",
     [(0.5, 0.5 - 1e-9), (0.5, 0.5), (0.0, 0.0), (1e-9, 1.0 - 2e-9)]),
    ("baseline.filter_cutoffs[0]", "baseline.filter_cutoffs[1]",
     [(0.5, 900.0), (0.5 + 1e-9, 900.0), (1.0, 1.0), (1.0, 1.0 + 1e-9), (60.0, 86400.0)]),
]

_PATHS = sorted(_RULES)


def _draw(rnd) -> dict:
    """A one-hour run's JSON form with 2 to 5 draws of fields near their
    rules' edges: a single-field value inside its rule three times in four,
    or a pair of values of a rule over two fields one draw in three. The
    forecast pad is small, with a SOC period the periodic plans fit in."""
    data = {"n1": 2, "baseline": {"soc_period_h": 2},
            "scenario": {"duration_days": 1 / 24, "seed": rnd.randrange(21),
                         "archetype": rnd.choice(ARCHETYPES)}}
    for _ in range(rnd.randint(2, 5)):
        if rnd.random() < 1 / 3:
            *paths, pairs = rnd.choice(_PAIRS)
            values = rnd.choice(pairs)
        else:
            path = rnd.choice(_PATHS)
            text, holds, _ = _RULES[path]
            inside = rnd.random() < 0.75
            paths, values = [path], [rnd.choice(
                [v for v in _edges(path, text) if holds(v) == inside])]
        for path, val in zip(paths, values):
            _set(data, path, val)
    return data


def _envelope_breach(cfg: EngineConfig, rep) -> str | None:
    """The first SOC trace outside its envelope, else None."""
    checks = {
        "hydrogen": (0.0, cfg.tank_cap_mwh),
        "methanol": (0.0, math.inf),
        "fess": cfg.fess.energy_envelope,
        **{name: tuple(f * getattr(cfg, name).energy_mwh for f in getattr(cfg, name).envelope_frac)
           for name in ("caes", "bess")},
    }
    for name, (lo, hi) in checks.items():
        vals = rep.soc_traces[name].values
        tol = 1e-9 * max(1.0, abs(lo), abs(hi) if math.isfinite(hi) else 0.0)
        if not (vals.min() >= lo - tol and vals.max() <= hi + tol):
            return name
    return None


def _closure_gap(data, rep) -> float:
    recon = data.actuals.values[: data.run_seconds] - rep.smoothed_netload.values
    for ts in rep.layer_outputs.values():
        recon = recon - np.repeat(ts.values, int(ts.dt))
    return float(np.abs(recon).max())


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(rnd=st.randoms(use_true_random=False))
def test_validated_configs_run_to_a_documented_end(rnd):
    data_json = _draw(rnd)
    scenario = None
    for controller in ("proposed", "periodic_soc", "filter"):
        cfg = from_dict({**data_json, "controller": controller})
        errors = [f.path for f in validate(cfg) if f.severity == "error"]
        if errors:
            try:
                run(cfg)
            except ConfigError as exc:
                assert errors[0] in str(exc)
            else:
                raise AssertionError(f"{controller} ran on {data_json} despite {errors}")
            continue
        scenario = scenario or prepare_scenario(cfg)
        rep = run(cfg, scenario)
        assert _envelope_breach(cfg, rep) is None, (controller, data_json)
        assert _closure_gap(scenario, rep) <= 1e-6 * max(
            1.0, float(np.abs(scenario.actuals.values).max())), (controller, data_json)


def test_edges_cover_every_rule():
    # Every single-field rule has values on both sides of each finite edge.
    for path, (text, holds, _) in _RULES.items():
        values = _edges(path, text)
        assert any(map(holds, values)) and not all(map(holds, values)), path
