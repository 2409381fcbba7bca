import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter
from scipy.special import ndtr as scipy_ndtr

import goldens
import oracles
from hessmpc.scenario import (
    _DRAW_CHUNKS, _LOCKSTEP_MIN, ARCHETYPES, ScenarioConfig, _ar1, _interp_blocks, _recurrence,
    make_forecast, ndtr, realized_accuracy, synthesize, window_mean,
)
from hessmpc.timeseries import BLOCK, resample


def test_determinism():
    cfg = ScenarioConfig(seed=42, duration_days=1.0)
    a = synthesize(cfg)
    b = synthesize(ScenarioConfig(seed=42, duration_days=1.0))
    assert np.array_equal(a.values, b.values)
    c = synthesize(ScenarioConfig(seed=43, duration_days=1.0))
    assert not np.array_equal(a.values, c.values)


def test_archetypes_all_generate():
    for arch in ARCHETYPES:
        ts = synthesize(ScenarioConfig(seed=1, duration_days=0.5, archetype=arch))
        assert len(ts) == 43200
        assert np.all(np.isfinite(ts.values))


def test_extreme_calm_window_zeroes_renewables():
    cfg = ScenarioConfig(seed=5, duration_days=2.0, archetype="extreme_calm",
                         calm_window_days=(0.5, 1.5))
    ts = synthesize(cfg)
    inside = ts.values[43200:129600]
    load_only = synthesize(ScenarioConfig(
        seed=5, duration_days=2.0, archetype="extreme_calm",
        calm_window_days=(0.0, 2.0)))
    # Inside the window net load equals pure load: strictly positive here.
    assert np.all(inside > 0.0)
    assert np.allclose(inside, load_only.values[43200:129600])


def test_oversupply_mean_negative_across_seeds():
    negatives = 0
    n_seeds = 20
    for seed in range(n_seeds):
        ts = synthesize(ScenarioConfig(seed=seed, duration_days=3.0,
                                       archetype="oversupply"))
        if ts.values.mean() < 0.0:
            negatives += 1
    assert negatives >= 0.95 * n_seeds


def test_forecast_accuracy_exact_at_one():
    ts = synthesize(ScenarioConfig(seed=2, duration_days=0.5))
    f = make_forecast(ts, 60.0, 1.0, seed=9)
    agg = resample(ts, 60.0)
    assert np.array_equal(f.values, agg.values)


def test_forecast_accuracy_calibration():
    ts = synthesize(ScenarioConfig(seed=3, duration_days=2.0))
    for acc in (0.95, 0.9, 0.8, 0.7):
        f = make_forecast(ts, 60.0, acc, seed=31)
        assert realized_accuracy(ts, f) == pytest.approx(acc, abs=1e-9)


def test_forecast_accuracy_across_seeds():
    # Across many seeds the realized accuracy stays within +-1.5 % of the
    # request for the four reference levels.
    ts = synthesize(ScenarioConfig(seed=8, duration_days=1.0))
    for acc in (0.95, 0.9, 0.8, 0.7):
        for seed in range(50):
            f = make_forecast(ts, 900.0, acc, seed=seed)
            assert abs(realized_accuracy(ts, f) - acc) <= 0.015


def test_forecast_deterministic_per_seed():
    ts = synthesize(ScenarioConfig(seed=2, duration_days=0.5))
    f1 = make_forecast(ts, 60.0, 0.9, seed=7)
    f2 = make_forecast(ts, 60.0, 0.9, seed=7)
    assert np.array_equal(f1.values, f2.values)


def test_forecast_error_zero_mean():
    ts = synthesize(ScenarioConfig(seed=2, duration_days=1.0))
    f = make_forecast(ts, 60.0, 0.8, seed=5)
    agg = resample(ts, 60.0)
    err = f.values - agg.values
    assert abs(err.mean()) < 1e-9


def test_degenerate_all_zero_actuals():
    from hessmpc.timeseries import TimeSeries
    zero = TimeSeries(0.0, 1.0, np.zeros(600))
    f = make_forecast(zero, 60.0, 0.9, seed=1)
    assert np.all(f.values == 0.0)


def test_invalid_accuracy_rejected():
    ts = synthesize(ScenarioConfig(seed=0, duration_days=0.5))
    with pytest.raises(ValueError):
        make_forecast(ts, 60.0, 0.0, seed=1)
    # The scenario section's value rules live in config.validate; the
    # accuracy mapping names every layer.
    from hessmpc.config import EngineConfig, validate
    for scenario, path in ((ScenarioConfig(forecast_accuracy={"L1": 1.2, "L2": 0.9, "L3": 0.9}),
                            "scenario.forecast_accuracy.L1"),
                           (ScenarioConfig(archetype="bogus"), "scenario.archetype")):
        assert [f.path for f in validate(EngineConfig(scenario=scenario))] == [path]


def test_scenario_digests_match_golden():
    # Actuals and forecasts of every archetype, bit for bit; the golden was
    # recorded while the synthesizer still ran scipy's lfilter and ndtr.
    assert goldens.compute_scenario_digests() == goldens.load("scenario_digests.json")


#: Zero and the AR(1) coefficients the synthesizer and the forecasts use.
_PHIS = (0.0, 0.7, 0.8, 0.9, 0.92, 0.97)
_SPECIALS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
             1e300, -1e300, 1.7e300)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    # Both sides of the cutover to the lockstep passes, and chunk-edge
    # lengths (k*k +- 1) of the sequential loop and of the lockstep.
    n=st.one_of(st.sampled_from([0, 1, 2, 3, _LOCKSTEP_MIN - 1, _LOCKSTEP_MIN,
                                 _LOCKSTEP_MIN + 1]),
                st.integers(1, 100).flatmap(lambda k: st.sampled_from([k * k - 1, k * k, k * k + 1]))),
    phi=st.one_of(st.sampled_from(_PHIS), st.floats(0.0, 1.0, exclude_max=True)),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([1.0, 1e300, 1e-300, 1e-310, 1e-320]),
    zero_share=st.sampled_from([0.0, 0.3, 1.0]),
    specials=st.lists(st.tuples(st.integers(0, 5000), st.sampled_from(_SPECIALS)), max_size=12),
)
def test_recurrence_matches_lfilter(n, phi, seed, scale, zero_share, specials):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) * scale
    # Runs of signed zeros take the recurrence through its zero cases.
    zeros = rng.random(n) < zero_share
    x[zeros] = np.where(rng.random(int(zeros.sum())) < 0.5, 0.0, -0.0)
    for i, v in specials:
        if i < n:
            x[i] = v
    got = _recurrence(x, phi)
    assert got.dtype == np.float64 and got.shape == (n,)
    # The rule itself: the sequential float loop.
    want, y = [], 0.0
    for v in x.tolist():
        y = v + phi * y
        want.append(y)
    assert got.tobytes() == np.array(want).tobytes()
    # lfilter's transposed direct form adds a zero b1 * x[k-1] to
    # phi * y[k-1]. Where that product underflows to a zero, the sign of the
    # sum can differ from the loop's (n=4095, phi=2.76e-297, seed 0, zero
    # share 0.3); everywhere else lfilter gives the loop's bits.
    prod = phi * got[:-1]
    if phi == 0.0 or not np.any((prod == 0.0) & (got[:-1] != 0.0)):
        assert got.tobytes() == lfilter([1.0], [1.0, -phi], x).tobytes()


@pytest.mark.parametrize("n", [_LOCKSTEP_MIN - 1, _LOCKSTEP_MIN, 10_007, 1_036_800])
def test_recurrence_leaves_input_unchanged(n):
    # The lockstep returns a view of its own transposed buffer and never
    # writes into x, which callers may reuse.
    x = np.random.default_rng(n).standard_normal(n)
    before = x.tobytes()
    for phi in (0.0, 0.8, 0.97):
        y = _recurrence(x, phi)
        assert x.tobytes() == before
        assert not np.shares_memory(x, y)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(
    # The cutover to the lockstep, chunk-edge lengths (k*k - 1 and k*k fill
    # every chunk, k*k + 1 leaves a partial last one), and chunk counts
    # below, at and past one draw group.
    n=st.one_of(
        st.sampled_from([_LOCKSTEP_MIN - 1, _LOCKSTEP_MIN, _LOCKSTEP_MIN + 1]),
        st.integers(56, 140).flatmap(lambda k: st.sampled_from([k * k - 1, k * k, k * k + 1])),
        st.integers(_LOCKSTEP_MIN, 40_000)),
    phi=st.sampled_from(_PHIS[1:]),
    seed=st.integers(0, 2**32 - 1),
)
def test_ar1_draws_the_normals_of_one_call(n, phi, seed):
    # _ar1 draws a long series' normals group by group straight into the
    # lockstep's layout; the series is that of one draw, scaled and run
    # through the recurrence, and the generator ends in the same state.
    rng = np.random.default_rng(seed)
    got = _ar1(rng, n, phi)
    ref = np.random.default_rng(seed)
    want = _recurrence(ref.standard_normal(n) * np.sqrt(1.0 - phi * phi), phi)
    assert got.dtype == np.float64 and got.shape == (n,)
    assert got.tobytes() == want.tobytes()
    assert rng.standard_normal(3).tobytes() == ref.standard_normal(3).tobytes()


def test_ar1_long_draw_spans_many_draw_groups():
    # The synthesizer's one-second draws: a 12-day series is 1,019 chunks,
    # 16 draw groups, the last one partial.
    n = 12 * 86400
    assert n // math.isqrt(n) > 15 * _DRAW_CHUNKS
    for phi in (0.7, 0.8, 0.9):
        got = _ar1(np.random.default_rng(7), n, phi)
        white = np.random.default_rng(7).standard_normal(n) * np.sqrt(1.0 - phi * phi)
        assert got.tobytes() == _recurrence(white, phi).tobytes()


#: Full-length float64 arrays that synthesize may hold at once. Its peak is
#: the load's one-second AR draw: wind and PV, and the lockstep's transposed
#: input, into which the normals are drawn, and output, four arrays; the
#: fifth is margin for the block temporaries. Whole-array expressions on the
#: one-second series take 8 (9 for balanced).
_SYNTH_ARRAY_BUDGET = 5


@pytest.mark.parametrize("archetype", ARCHETYPES)
def test_synthesize_peak_memory_budget(archetype):
    days = 12.0   # 1,036,800 samples, a 2-day run plus the 240 h pad
    n = int(days * 86400)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        ts = synthesize(ScenarioConfig(seed=1, duration_days=days, archetype=archetype))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(ts) == n
    assert peak <= _SYNTH_ARRAY_BUDGET * 8 * n, f"peak {peak / (8 * n):.2f} arrays"


def _edges():
    """ndtr's branch edges: |a| = 1 (ndtr), sqrt(2) (erf/erfc), 8*sqrt(2)
    (erfc's two fits) and the underflow to subnormals and to zero past
    |a| = 37.5, with a few neighbours on each side."""
    out = [0.0, -0.0, math.inf, -math.inf, math.nan]
    for edge in (1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0), 37.5,
                 math.sqrt(2.0 * 7.09782712893383996843e2)):
        v = edge
        for _ in range(4):
            v = math.nextafter(v, 0.0)
        for _ in range(9):
            out += [v, -v]
            v = math.nextafter(v, math.inf)
    return np.array(out + list(np.linspace(-39.0, -36.0, 3001)))


def test_ndtr_matches_scipy_bit_for_bit():
    rng = np.random.default_rng(20240611)
    a = np.concatenate([_edges(), rng.standard_normal(50_000) * 2.0,
                        rng.uniform(-40.0, 40.0, 50_000)])
    got = np.array([ndtr(v) for v in a.tolist()])
    want = scipy_ndtr(a)
    bad = np.nonzero(got.view(np.int64) != want.view(np.int64))[0]
    assert a[bad[:5]].tolist() == []


def _trailing_mean_reference(x, window):
    """The filter baseline's trailing mean that window_mean replaced."""
    c = np.concatenate([[0.0], np.cumsum(x)])
    out = np.empty_like(x)
    n = x.size
    w = min(window, n)
    head = np.arange(1, w + 1, dtype=np.float64)
    out[:w] = c[1 : w + 1] / head
    if n > w:
        out[w:] = (c[w + 1 :] - c[1 : n - w + 1]) / w
    return out


def _centered_mean_reference(x, window):
    """The balanced archetype's centered mean that window_mean replaced,
    in one block."""
    n = x.size
    half = min(window, n) // 2
    c = np.empty(n + 1)
    c[0] = 0.0
    np.cumsum(x, out=c[1:])
    k = np.arange(n)
    left = np.clip(k - half, 0, n)
    right = np.clip(k + half + 1, 0, n)
    return (c[right] - c[left]) / (right - left)


@pytest.mark.parametrize("n", [1, 7, 3600, 3 * BLOCK + 17])
@pytest.mark.parametrize("window", [1, 60, 901, 4 * BLOCK])
def test_window_mean_matches_the_formulas_it_replaced(n, window):
    # The filter's trailing means and the balanced archetype's de-meaning
    # call window_mean as below; their reports stay the same only if it
    # gives the old kernels' bits.
    x = np.random.default_rng(n).standard_normal(n) * 50.0 + 20.0
    x[::5] = 0.0
    x[1::7] = -0.0
    trailing = window_mean(x, window - 1, 0)
    assert trailing.tobytes() == _trailing_mean_reference(x, window).tobytes()
    half = min(window, n) // 2
    centered = window_mean(x, half, half)
    assert centered.tobytes() == _centered_mean_reference(x, window).tobytes()


#: Knot values at the edges of the interpolation's arithmetic: signed zeros
#: (a knot second must keep -0.0), subnormals, and magnitudes whose
#: differences and products stay finite or overflow.
_KNOTS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
          1e300, -1e300, 1.0, -1.0)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    step=st.sampled_from([1, 60, 600, 3600]),
    # Whole steps and the seconds of a partial last one (0 leaves the last
    # step whole); 0 whole steps is a series under one step.
    whole=st.one_of(st.integers(0, 3), st.integers(0, 200), st.just(BLOCK + 1)),
    part=st.one_of(st.just(0), st.just(1), st.integers(0, 3599)),
    extra=st.integers(1, 3),
    knots=st.lists(st.one_of(st.sampled_from(_KNOTS), st.floats(allow_nan=False,
                                                                allow_infinity=False),
                             st.floats(-100.0, 100.0)), min_size=1, max_size=40),
    seed=st.integers(0, 2**32 - 1),
)
def test_interp_blocks_match_np_interp_bit_for_bit(step, whole, part, extra, knots, seed):
    # The synthesizer's per-second interpolation is np.interp's own formula
    # over whole steps; every second must carry np.interp's bits.
    whole = min(whole, 300_000 // step)
    n = whole * step + part % step
    if n == 0:
        n = 1
    size = -(-n // step) + extra       # the knots reach past the last second
    rng = np.random.default_rng(seed)
    coarse = rng.choice(np.array(knots, dtype=np.float64), size)
    coarse[: len(knots)] = knots[:size]
    want = np.interp(np.arange(n, dtype=np.float64), np.arange(size) * float(step), coarse)
    got = np.empty(n)
    end = 0
    # Knots near the float range overflow the slope (inf, and inf * 0 at the
    # knot seconds, which take the knot itself), as in np.interp's C loop.
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, hi, vals in _interp_blocks(coarse, float(step), n):
            # One row per whole step; only the last row may run past n.
            assert lo == end and lo % step == 0 and vals.shape[1] == step
            assert hi - lo <= vals.size <= BLOCK and vals.size - (hi - lo) < step
            got[lo:hi] = vals.reshape(-1)[: hi - lo]
            end = hi
    assert end == n
    assert got.tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    n=st.one_of(st.sampled_from([1, 2, 3, 7]), st.integers(1, 400),
                st.sampled_from([BLOCK - 1, BLOCK, 2 * BLOCK + 5])),
    # Window halves of 0, inside the series, at its length and wider.
    before=st.one_of(st.just(0), st.integers(0, 40), st.integers(0, 5 * BLOCK)),
    after=st.one_of(st.just(0), st.integers(0, 40), st.integers(0, 5 * BLOCK)),
    seed=st.integers(0, 2**32 - 1),
)
def test_window_mean_matches_the_gather_form_bit_for_bit(n, before, after, seed):
    # Whole windows come from two slices of the prefix sums, the cut edges
    # from the index gather; both must give the gather form's bits.
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) * 50.0 + 20.0
    x[rng.random(n) < 0.2] = -0.0
    for b, a in ((before, after), (after, before), (min(before, n), n), (n, 0), (n + 1, n + 1)):
        got = window_mean(x, b, a)
        assert got.tobytes() == oracles.window_mean(x, b, a).tobytes(), (b, a)
