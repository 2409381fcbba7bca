import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hessmpc.devices import (
    BatteryDegParams, battery_damage, battery_soh, bess_cycle_cost,
    rainflow_cycles, stress_factors,
)
from hessmpc.timeseries import TimeSeries

P = BatteryDegParams()


def test_soh_at_zero_damage():
    expected = P.alpha_sei + P.alpha_sds + (1 - P.alpha_sei - P.alpha_sds) * (1 - P.knee_kappa)
    assert battery_soh(0.0, P) == pytest.approx(expected)
    assert battery_soh(0.0, P) == pytest.approx(1.0, abs=2e-3)


def test_soh_clamped_at_zero():
    assert battery_soh(50.0, P) == 0.0


def test_soh_monotone_nonincreasing_dense():
    grid = np.linspace(0.0, 2.0, 2001)
    vals = [battery_soh(float(d), P) for d in grid]
    assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))


def test_stress_factor_reference_points():
    s_T, s_t, s_tau, _ = stress_factors(P.T_ref, 0.0, P.tau_ref, 0.5, P)
    assert s_T == pytest.approx(1.0)
    assert s_t == 0.0
    assert s_tau == pytest.approx(1.0)


def test_stress_factor_depth_arithmetic():
    p = BatteryDegParams(k_nu1=1.0, k_nu2=1.0, k_nu3=0.0)
    _, _, _, s_nu = stress_factors(25.0, 0.0, 0.5, 0.5, p)
    assert s_nu == pytest.approx(2.0)


def test_stress_factor_zero_depth_domain():
    p = BatteryDegParams(k_nu1=1.0, k_nu2=1.0, k_nu3=0.0)
    with pytest.raises(ValueError):
        stress_factors(25.0, 0.0, 0.5, 0.0, p)
    # Negative depth exponent: zero-depth cycles carry zero damage.
    assert stress_factors(25.0, 0.0, 0.5, 0.0, P)[3] == 0.0


def test_rainflow_single_cycle():
    cycles = rainflow_cycles(np.array([0.5, 1.0, 0.5]))
    assert sum(c[0] for c in cycles) == pytest.approx(1.0)
    for count, depth, mean, _, _ in cycles:
        assert depth == pytest.approx(0.5)
        assert mean == pytest.approx(0.75)


def test_rainflow_constant_series():
    assert rainflow_cycles(np.full(10, 0.4)) == []


def test_rainflow_nested_cycle():
    # Small inner cycle nested inside a large swing.
    soc = np.array([0.2, 0.9, 0.5, 0.6, 0.1])
    cycles = rainflow_cycles(soc)
    depths = sorted(round(c[1], 12) for c in cycles)
    # Inner (0.5 -> 0.6) closes as a full cycle of depth 0.1.
    inner = [c for c in cycles if c[0] == 1.0]
    assert len(inner) == 1
    assert inner[0][1] == pytest.approx(0.1)
    assert depths[0] == pytest.approx(0.1)


def _cycle_bytes(cycles):
    return [(count, np.float64(depth).tobytes(), np.float64(mean).tobytes(), a, b)
            for count, depth, mean, a, b in cycles]


@st.composite
def _soc_paths(draw):
    """SOC paths with plateaus, equal extrema and both signed zeros: each
    value repeats a few times, from a small pool or anywhere in [-1, 1]."""
    pool = draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=4)) + [0.0, -0.0]
    value = st.one_of(st.sampled_from(pool), st.floats(-1.0, 1.0))
    runs = draw(st.lists(st.tuples(value, st.integers(1, 3)), max_size=60))
    return np.array([v for v, k in runs for _ in range(k)], dtype=np.float64)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_soc_paths())
def test_rainflow_matches_numpy_scalar_walk_bit_for_bit(soc):
    assert _cycle_bytes(rainflow_cycles(soc)) == _cycle_bytes(oracles.rainflow_cycles(soc))
    if soc.size < 2:
        return
    # The damage summed over the returned floats equals the sum over the
    # numpy scalars the walk used to return.
    temp = np.linspace(20.0, 40.0, soc.size)
    s_T, s_t, s_tau, _ = stress_factors(float(temp.mean()), (soc.size - 1) * 60.0,
                                        float(soc.mean()), 1.0, P)
    want = s_t * s_tau * s_T
    for count, depth, mean, i0, i1 in oracles.rainflow_cycles(soc):
        lo, hi = min(i0, i1), max(i0, i1)
        s_T_c, _, s_tau_c, s_nu_c = stress_factors(float(temp[lo : hi + 1].mean()), 0.0,
                                                    mean, depth, P)
        want += count * s_tau_c * s_nu_c * s_T_c
    got = battery_damage(TimeSeries(0.0, 60.0, soc), TimeSeries(0.0, 60.0, temp), P)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_damage_constant_soc_is_calendar_only():
    n = 100
    soc = TimeSeries(0.0, 60.0, np.full(n, 0.6))
    temp = TimeSeries(0.0, 60.0, np.full(n, 25.0))
    d = battery_damage(soc, temp, P)
    span = (n - 1) * 60.0
    s_T, s_t, s_tau, _ = stress_factors(25.0, span, 0.6, 1.0, P)
    assert d == pytest.approx(s_t * s_tau * s_T, rel=1e-12)


def test_damage_single_cycle_hand_rainflow():
    soc = TimeSeries(0.0, 60.0, np.array([0.5, 1.0, 0.5]))
    temp = TimeSeries(0.0, 60.0, np.full(3, P.T_ref))
    d = battery_damage(soc, temp, P)
    s_T, s_t, s_tau_mean, _ = stress_factors(P.T_ref, 120.0, float(np.mean([0.5, 1.0, 0.5])), 1.0, P)
    cal = s_t * s_tau_mean * s_T
    _, _, s_tau_c, s_nu_c = stress_factors(P.T_ref, 0.0, 0.75, 0.5, P)
    assert d == pytest.approx(cal + 1.0 * s_tau_c * s_nu_c, rel=1e-12)


def test_damage_stacked_cycles_linear():
    # k stacked identical cycles give exactly k times one cycle's cyclic term.
    base = [0.5, 1.0]
    temps = lambda n: TimeSeries(0.0, 60.0, np.full(n, P.T_ref))

    def cyclic_damage(k):
        vals = np.array(base * k + [0.5])
        ts = TimeSeries(0.0, 60.0, vals)
        total = battery_damage(ts, temps(len(vals)), P)
        span = (len(vals) - 1) * 60.0
        s_T, s_t, s_tau, _ = stress_factors(P.T_ref, span, float(vals.mean()), 1.0, P)
        return total - s_t * s_tau * s_T

    one = cyclic_damage(1)
    for k in (2, 3, 7):
        assert cyclic_damage(k) == pytest.approx(k * one, rel=1e-9)


def test_cycle_cost_examples():
    p = BatteryDegParams(invest=8e7, om_rate=0.0)
    assert bess_cycle_cost(0.0, p, 200.0) == 0.0
    assert bess_cycle_cost(1e-4, p, 200.0) == pytest.approx(25.0)
    assert bess_cycle_cost(2e-4, p, 200.0) == pytest.approx(50.0)
    # Cycles are priced against the bank's energy: twice the bank, half
    # the cost per MWh.
    assert bess_cycle_cost(1e-4, p, 400.0) == pytest.approx(12.5)
    with_om = BatteryDegParams(invest=8e7, om_rate=3.5)
    assert bess_cycle_cost(0.0, with_om, 200.0) == pytest.approx(3.5)


def test_damage_alignment_errors():
    soc = TimeSeries(0.0, 60.0, np.array([0.5, 0.6]))
    temp = TimeSeries(0.0, 60.0, np.array([25.0]))
    with pytest.raises(Exception):
        battery_damage(soc, temp, P)
