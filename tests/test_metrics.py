import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hessmpc.metrics import (
    DeviceLedger, TariffConfig, _hour_runs, economic_benefit, minute_fluctuation_reduction,
    rms_smoothing_rate, round_trip_efficiency, smoothing_rate,
)
from hessmpc.timeseries import TimeSeries
from oracles import sample_hours, tou_gain


def _ts(values, dt=1.0):
    return TimeSeries(0.0, dt, np.asarray(values, dtype=np.float64))


def test_smoothing_rate_endpoints():
    orig = _ts([10.0, -5.0, 20.0])
    assert smoothing_rate(orig, _ts([0.0, 0.0, 0.0])) == pytest.approx(1.0)
    assert smoothing_rate(orig, orig) == pytest.approx(0.0)


def test_smoothing_rate_reference_ratio():
    orig = _ts(np.full(100, 10.0))        # |sum| = 1000
    resid = _ts(np.full(100, 0.26))       # |sum| = 26
    assert smoothing_rate(orig, resid) == pytest.approx(0.974)


def test_smoothing_rate_can_be_negative():
    orig = _ts([1.0, 1.0])
    resid = _ts([3.0, -3.0])
    assert smoothing_rate(orig, resid) < 0.0


def test_smoothing_rate_zero_denominator_flag():
    val = smoothing_rate(_ts([0.0, 0.0]), _ts([0.0, 0.0]))
    assert np.isnan(val)


def test_rms_variant_differs():
    orig = _ts([10.0, 0.0, 0.0, 0.0])
    resid = _ts([2.5, 2.5, 2.5, 2.5])
    assert smoothing_rate(orig, resid) == pytest.approx(0.0)
    assert rms_smoothing_rate(orig, resid) == pytest.approx(1.0 - 2.5 / 5.0)


def test_minute_fluctuation_reduction_cases():
    n = 600
    orig = _ts(np.sin(np.arange(n) / 40.0) * 10.0)
    const = _ts(np.full(n, 3.0))
    assert minute_fluctuation_reduction(orig, const) == pytest.approx(1.0)
    assert minute_fluctuation_reduction(orig, orig) == pytest.approx(0.0)


def test_minute_fluctuation_hand_case():
    # Five minutes at one-second sampling; minute means are explicit.
    mins_orig = np.array([10.0, 30.0, 20.0, 40.0, 10.0])
    mins_res = np.array([1.0, 2.0, 1.0, 3.0, 2.0])
    orig = _ts(np.repeat(mins_orig, 60))
    res = _ts(np.repeat(mins_res, 60))
    expected = 1.0 - np.abs(np.diff(mins_res)).sum() / np.abs(np.diff(mins_orig)).sum()
    assert minute_fluctuation_reduction(orig, res) == pytest.approx(expected)


def test_round_trip_single_device_full_cycle():
    led = DeviceLedger(charged_mwh=100.0, discharged_mwh=0.9025 * 100.0,
                       initial_energy=50.0, final_energy=50.0,
                       eta_c=0.95, eta_d=0.95)
    assert round_trip_efficiency({"bess": led}) == pytest.approx(0.9025)


def test_round_trip_no_dispatch_flag():
    led = DeviceLedger()
    assert np.isnan(round_trip_efficiency({"idle": led}))


def test_round_trip_drift_correction():
    # Charged 100, stored 95, never discharged: the drift is valued at the
    # discharge efficiency, so the metric still shows the round trip.
    led = DeviceLedger(charged_mwh=100.0, discharged_mwh=0.0,
                       initial_energy=50.0, final_energy=145.0,
                       eta_c=0.95, eta_d=0.95)
    assert round_trip_efficiency({"bess": led}) == pytest.approx(0.9025)
    # Net draw-down of the initial stock counts as absorbed-equivalent.
    led2 = DeviceLedger(charged_mwh=0.0, discharged_mwh=0.95 * 95.0,
                        initial_energy=145.0, final_energy=50.0,
                        eta_c=0.95, eta_d=0.95)
    assert round_trip_efficiency({"bess": led2}) == pytest.approx(0.9025)


def test_round_trip_never_exceeds_best_device():
    rng = np.random.default_rng(3)
    for _ in range(50):
        ledgers = {}
        best = 0.0
        for k in range(3):
            ec = float(rng.uniform(0.6, 1.0))
            ed = float(rng.uniform(0.6, 1.0))
            stored = float(rng.uniform(0.0, 100.0)) * ec
            returned = stored * ed
            ledgers[f"d{k}"] = DeviceLedger(
                charged_mwh=stored / ec, discharged_mwh=returned,
                initial_energy=10.0, final_energy=10.0, eta_c=ec, eta_d=ed)
            best = max(best, ec * ed)
        eta = round_trip_efficiency(ledgers)
        assert eta <= best + 1e-12


def test_tariff_coverage_validation():
    # The tariff's schedule rule lives in config.validate.
    from hessmpc.config import EngineConfig, validate
    for schedule, message in (([((0.0, 12.0), 100.0)], "tou_schedule must cover 24 h"),
                              ([((0.0, 13.0), 100.0), ((12.0, 24.0), 200.0)],
                               "tou_schedule ranges overlap")):
        cfg = EngineConfig(tariff=TariffConfig(tou_schedule=schedule, capacity_rate=0.0))
        assert [(f.path, f.message) for f in validate(cfg)] == [
            ("tariff.tou_schedule", message)]


def test_benefit_zero_when_nothing_changes():
    orig = _ts(np.full(7200, 50.0))
    out = economic_benefit(orig, orig, 0.0, TariffConfig())
    assert out["total"] == pytest.approx(0.0)
    assert out["tou"] == pytest.approx(0.0)
    assert out["capacity"] == pytest.approx(0.0)


def test_benefit_flat_tariff_arithmetic():
    flat = TariffConfig(tou_schedule=[((0.0, 24.0), 100.0)], capacity_rate=0.0)
    orig = _ts(np.full(7200, 20.0))          # 2 h at 1 s
    smoothed = _ts(np.full(7200, 10.0))      # shaved 10 MW
    out = economic_benefit(orig, smoothed, 500.0, flat)
    assert out["tou"] == pytest.approx(100.0 * 10.0 * 2.0)
    assert out["capacity"] == pytest.approx(0.0)
    assert out["total"] == pytest.approx(2000.0 - 500.0)


def test_benefit_capacity_term():
    tariff = TariffConfig(tou_schedule=[((0.0, 24.0), 0.0)], capacity_rate=1000.0)
    orig = _ts(np.concatenate([np.full(100, 200.0), np.full(100, 100.0)]))
    smoothed = _ts(np.concatenate([np.full(100, 150.0), np.full(100, 100.0)]))
    out = economic_benefit(orig, smoothed, 0.0, tariff)
    assert out["capacity"] == pytest.approx(50_000.0)


def test_benefit_decomposition_exact():
    rng = np.random.default_rng(1)
    orig = _ts(rng.uniform(0, 100, 86400))
    smoothed = _ts(orig.values * 0.1)
    out = economic_benefit(orig, smoothed, 123.0, TariffConfig())
    assert out["total"] == pytest.approx(
        out["tou"] + out["capacity"] - out["dispatch_cost"])


def _run_hours(ts):
    """The hour of every sample, expanded from the hour runs."""
    hours = np.full(len(ts), -1, dtype=np.intp)
    for lo, hi, hour in _hour_runs(ts):
        assert lo < hi and (hours[lo:hi] == -1).all()
        hours[lo:hi] = hour
    return hours


@st.composite
def _tou_grids(draw):
    """Grids of whole and fractional steps, starts on and off the hour,
    negative ones and starts a rounding step off midnight, runs from one
    sample to a few days, with partial first and last hours."""
    dt = draw(st.one_of(
        st.sampled_from([1.0, 0.1, 0.25, 7.5, 60.0, 900.0, 3600.0, 5000.0, 86400.0]),
        st.floats(0.05, 5000.0)))
    start = draw(st.one_of(
        st.sampled_from([0.0, -1e-13, 1e-13, -86400.0, 86400.0 - 1e-11, -3600.5, 1.7e9]),
        st.integers(-3 * 86400, 3 * 86400).map(float),
        st.floats(-1e6, 1e6)))
    n = draw(st.integers(1, min(20000, int(3 * 86400 / dt) + 2)))
    return start, dt, n


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_tou_grids(), st.integers(0, 2**32 - 1))
# Times near 2**52 s round to whole seconds, coarser than dt, so the guessed
# end of an hour misses and the bisection finds it.
@example((2.0**52, 0.1, 20000), 0)
@example((-(2.0**52) + 1000.0, 0.37, 20000), 1)
def test_tou_matches_per_sample_gather_bit_for_bit(grid, seed):
    start, dt, n = grid
    rng = np.random.default_rng(seed)
    orig = TimeSeries(start, dt, rng.normal(0.0, 50.0, n))
    smooth = TimeSeries(start, dt, rng.normal(0.0, 5.0, n))
    assert _run_hours(orig).tobytes() == sample_hours(orig).tobytes()
    got = economic_benefit(orig, smooth, 0.0, TariffConfig())["tou"]
    want = tou_gain(orig, smooth, TariffConfig())
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_tou_sample_a_rounding_step_below_midnight_is_in_hour_23():
    # (-1e-13) % 86400 rounds to 86400.0, whose floor hour is 24; the
    # sample lies in the last hour of the day before.
    orig = TimeSeries(-1e-13, 1.0, np.ones(3))
    assert list(_hour_runs(orig)) == [(0, 1, 23), (1, 3, 0)]
    tariff = TariffConfig()
    got = economic_benefit(orig, TimeSeries(-1e-13, 1.0, np.zeros(3)), 0.0, tariff)["tou"]
    assert got == (300.0 + 250.0 + 250.0) * (1.0 / 3600.0)
