"""Synthetic net-load scenarios and forecast-error injection.

The generator composes three 1-second component processes — Weibull-driven
wind with a fast turbulence band, a clear-sky photovoltaic envelope under a
slow cloud-transmission process, and a three-shift industrial load — and
returns their net load (load minus renewables). Four archetypes rescale the
components: renewable oversupply, an extreme calm with renewables forced to
zero inside a window, an approximately balanced month, and a sustained
deficit. Everything is deterministic in (config, seed).

Forecasts are built by aggregating the actuals to the layer granularity and
adding persistent (AR(1)) zero-mean noise scaled so that the normalized MAE
matches the requested accuracy exactly on the generated series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .timeseries import BLOCK, TimeSeries, resample

ARCHETYPES = ("oversupply", "extreme_calm", "balanced", "deficit")

# Component scale factors per archetype: (wind, pv, load).
_ARCHETYPE_SCALES = {
    "oversupply": (1.15, 1.15, 0.60),
    "extreme_calm": (0.9, 0.9, 1.0),
    "balanced": (0.80, 0.90, 1.0),
    "deficit": (0.32, 0.45, 1.25),
}


@dataclass
class ScenarioConfig:
    seed: int = 0
    duration_days: float = 7.0
    wind_capacity: float = 425.0
    pv_capacity: float = 375.0
    load_peak: float = 200.0
    archetype: str = "balanced"
    forecast_accuracy: dict[str, float] = field(
        default_factory=lambda: {"L1": 0.9, "L2": 0.9, "L3": 0.9}
    )
    calm_window_days: tuple[float, float] | None = None
    # Mild surplus of the balanced archetype, MW. Storage round trips are
    # lossy, so an energy-balance window that the plant can actually hold
    # must fund those losses; zero starves the stores over a week.
    balanced_surplus_mw: float = 18.0


def _ar1(rng: np.random.Generator, n: int, phi: float) -> np.ndarray:
    """Unit-variance AR(1) series of length n: the recurrence of n standard
    normals times ``sqrt(1 - phi**2)``. A long series draws its normals
    straight into the lockstep's layout, ``_DRAW_CHUNKS`` chunks per call;
    the generator's stream does not depend on how the draw is split, so the
    normals are those of one call."""
    scale = np.sqrt(1.0 - phi * phi)
    if n < _LOCKSTEP_MIN:
        return _recurrence(rng.standard_normal(n) * scale, phi)
    xt, full, rest = _chunk_layout(n)
    length = xt.shape[0]
    for lo in range(0, full, _DRAW_CHUNKS):
        hi = min(lo + _DRAW_CHUNKS, full)
        xt.T[lo:hi] = rng.standard_normal((hi - lo, length)) * scale
    if rest:
        xt[:rest, full] = rng.standard_normal(rest) * scale
    return _lockstep(xt, n, phi)


#: Series shorter than this run the sequential loop itself: below it the
#: loop beats the lockstep passes at every phi the synthesizer uses (they
#: meet near here at phi 0.7; at 0.97 the loop is still 7x faster).
_LOCKSTEP_MIN = 4096

#: Chunks of the lockstep layout that _ar1 draws per generator call.
_DRAW_CHUNKS = 64


def _recurrence(x: np.ndarray, phi: float) -> np.ndarray:
    """``y[k] = x[k] + phi * y[k-1]`` from ``y[-1] = 0``, bit for bit as the
    sequential float loop (and as ``scipy.signal.lfilter([1], [1, -phi], x)``
    for ``0 <= phi < 1``, except for signed zeros: lfilter's can differ on
    ``-0.0`` inputs with a negative ``phi``, and where ``phi * y[k-1]``
    underflows to zero).

    A series shorter than ``_LOCKSTEP_MIN`` runs that loop on Python floats;
    a longer one is copied into the layout of :func:`_chunk_layout` and runs
    :func:`_lockstep`. ``x`` is not written.
    """
    n = x.size
    if n < _LOCKSTEP_MIN:
        y = []
        acc = 0.0
        for v in x.tolist():
            acc = v + phi * acc
            y.append(acc)
        return np.array(y, dtype=np.float64)
    xt, full, rest = _chunk_layout(n)
    length = xt.shape[0]
    xt.T[:full] = x[: full * length].reshape(full, length)
    if rest:
        xt[:rest, full] = x[full * length :]
    return _lockstep(xt, n, phi)


def _chunk_layout(n: int) -> tuple[np.ndarray, int, int]:
    """Zeros in the lockstep's layout for a series of length n: about
    ``isqrt(n)`` chunks, transposed so that row k holds step k of every
    chunk. Returns the array, the number of full chunks, and the length of
    the last, zero-padded chunk (0 when every chunk is full)."""
    length = -(-n // math.isqrt(n))
    full, rest = divmod(n, length)
    return np.zeros((length, full + (rest > 0))), full, rest


def _lockstep(xt: np.ndarray, n: int, phi: float) -> np.ndarray:
    """The recurrence of the first n values of the chunk-major series that
    ``xt`` (the layout of :func:`_chunk_layout`) holds.

    All chunks advance in lockstep with separate IEEE multiply and add (no
    fused multiply-add). Each chunk starts from its predecessor's end value
    of the previous pass, and passes repeat until every start equals that
    end bit for bit. By induction from chunk 0, which starts from the true
    zero, every chunk has then run from its true start, so the result is the
    sequential recurrence. The worst case takes one pass per chunk; with
    ``phi < 1`` a start error decays as ``phi**chunk_len``, and a series of
    a million samples converges in two. A pass after the first stops at the
    first row that repeats the previous pass's bit for bit (row 128 to 417
    of 1,019 on the synthesizer's million-sample draws), where the start
    check is already met. The result is a view of ``xt``'s buffer, which it
    overwrites, so at most two arrays of the series' length are alive.
    """
    yt = np.empty_like(xt)
    tmp = np.empty(xt.shape[1])
    starts = np.zeros(xt.shape[1])
    repeated = _lockstep_pass(xt, yt, starts, phi, tmp, confirm=False)
    while not repeated and yt[-1, :-1].tobytes() != starts[1:].tobytes():
        starts = np.concatenate(([0.0], yt[-1, :-1]))
        repeated = _lockstep_pass(xt, yt, starts, phi, tmp, confirm=True)
    # Chunk-major order is the series; xt's buffer holds at least n values.
    out = xt.reshape(yt.shape[::-1])
    out[...] = yt.T
    return out.reshape(-1)[:n]


def _lockstep_pass(xt, yt, starts, phi, tmp, confirm: bool) -> bool:
    """One lockstep pass of every chunk of ``xt`` from ``starts`` into ``yt``.

    With ``confirm``, ``yt`` holds the previous pass, and the pass stops at
    the first row that equals that pass's row bit for bit: every later row
    and end value would repeat too, so the rest of ``yt`` is already this
    pass's result. Returns whether it stopped there. The first pass
    computes straight into each row of ``yt``, a confirm pass into ``tmp``.
    """
    s = starts
    for x_row, y_row in zip(xt, yt):
        out = tmp if confirm else y_row
        np.multiply(s, phi, out=out)
        np.add(x_row, out, out=out)
        if confirm:
            if tmp.tobytes() == y_row.tobytes():
                return True
            y_row[...] = tmp
        s = y_row
    return False


# Normal CDF by the cephes ndtr/erf/erfc algorithm (Stephen L. Moshier,
# Cephes Math Library), in the form scipy.special.ndtr evaluates it, so that
# each value matches scipy's to the bit. Scalar Python floats and math.exp
# keep libm's exp; numpy's SIMD exp may round differently.
_SQRT1_2 = 0.70710678118654752440
_MAXLOG = 7.09782712893383996843e2
_ERFC_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2,
)
_ERFC_Q = (
    1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)
_ERFC_R = (
    5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
    6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0,
)
_ERFC_S = (
    1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
    1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0,
)
_ERF_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4,
)
_ERF_U = (
    1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
    2.26290000613890934246e4, 4.92673942608635921086e4,
)


def _polevl(x: float, coef: tuple) -> float:
    """Horner's rule; a leading coefficient of 1.0 makes it cephes' p1evl
    (``1.0 * x`` is exact)."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _erf(x: float) -> float:
    if x < 0.0:
        return -_erf(-x)
    if x > 1.0:
        return 1.0 - _erfc(x)
    z = x * x
    return x * _polevl(z, _ERF_T) / _polevl(z, _ERF_U)


def _erfc(a: float) -> float:
    x = abs(a)
    if x < 1.0:
        return 1.0 - _erf(a)
    z = -a * a
    if z >= -_MAXLOG:
        z = math.exp(z)
        if x < 8.0:
            y = (z * _polevl(x, _ERFC_P)) / _polevl(x, _ERFC_Q)
        else:
            y = (z * _polevl(x, _ERFC_R)) / _polevl(x, _ERFC_S)
        if a < 0.0:
            y = 2.0 - y
        if y != 0.0:
            return y
    return 2.0 if a < 0.0 else 0.0


def ndtr(a: float) -> float:
    """Standard normal CDF of one float, bit for bit as scipy.special.ndtr."""
    if math.isnan(a):
        return math.nan
    x = a * _SQRT1_2
    z = abs(x)
    if z < _SQRT1_2:
        return 0.5 + 0.5 * _erf(x)
    y = 0.5 * _erfc(z)
    return 1.0 - y if x > 0.0 else y


def _interp_blocks(coarse: np.ndarray, step_s: float, n_seconds: int):
    """``coarse``, one value per ``step_s`` (whole seconds) from t = 0 and
    past the last second, interpolated at every second as ``(lo, hi,
    values)`` blocks of at most ``BLOCK`` seconds: ``values[i, r]``, one row
    per step, is second ``lo + i * step_s + r``, up to ``hi``; the blocks
    share one buffer. Its bits are np.interp's, by np.interp's own
    arithmetic: ``slope[j] * r + coarse[j]`` for r >= 1, with its precomputed
    ``slope = (coarse[j+1] - coarse[j]) / step_s`` and ``t - t_j = r`` exact;
    ``coarse[j]`` itself at a knot (``slope * 0 + coarse`` loses a -0.0)."""
    step, steps = int(step_s), -(-n_seconds // int(step_s))
    slope = (coarse[1:] - coarse[:-1]) / step_s
    r = np.arange(step, dtype=np.float64)
    rows = max(BLOCK // step, 1)
    buf = np.empty((rows, step))
    for j in range(0, steps, rows):
        knots = coarse[j : min(j + rows, steps), None]
        vals = np.multiply(slope[j : j + len(knots), None], r, out=buf[: len(knots)])
        vals += knots
        vals[:, :1] = knots
        yield j * step, min((j + rows) * step, n_seconds), vals


# The component generators keep their one-second arrays few: each draws its
# one-second AR noise first and then works on it in place, and every factor
# that needs no draw is applied in blocks or per day. Each product and sum
# keeps the operands and the left-to-right grouping of its formula (IEEE *
# and + commute, but do not associate), so the bits are those of the
# formula.

def _wind_power(rng: np.random.Generator, n_seconds: int, capacity: float) -> np.ndarray:
    n_hours = n_seconds // 3600 + 2
    z = _ar1(rng, n_hours, phi=0.92)
    quantile = np.array([ndtr(v) for v in z.tolist()])
    # Weibull speeds (shape 2, scale 8.5 m/s), persistent through the AR chain.
    speeds = 8.5 * np.sqrt(-np.log(np.clip(1.0 - quantile, 1e-12, 1.0)))
    # v = speed * (1 + 0.06 * gust), clipped at zero.
    v = _ar1(rng, n_seconds, phi=0.9)
    v *= 0.06
    v += 1.0
    for lo, hi, speed in _interp_blocks(speeds, 3600.0, n_seconds):
        v[lo:hi] *= speed.reshape(-1)[: hi - lo]
    np.clip(v, 0.0, None, out=v)
    v_in, v_rated, v_out = 3.0, 12.0, 25.0
    cut_out = v > v_out
    # capacity * clip((v - v_in) / (v_rated - v_in), 0, 1) ** 3, zero past cut-out.
    v -= v_in
    v /= v_rated - v_in
    np.clip(v, 0.0, 1.0, out=v)
    v **= 3
    v[cut_out] = 0.0
    v *= capacity
    return v


def _pv_power(rng: np.random.Generator, n_seconds: int, capacity: float) -> np.ndarray:
    n_coarse = n_seconds // 600 + 2
    cloud = _ar1(rng, n_coarse, phi=0.97)
    transmission = 0.25 + 0.75 / (1.0 + np.exp(-1.2 * cloud - 0.8))
    # clip(trans * (1 + 0.04 * flicker), 0, 1)
    sky = _ar1(rng, n_seconds, phi=0.7)
    sky *= 0.04
    sky += 1.0
    for lo, hi, trans in _interp_blocks(transmission, 600.0, n_seconds):
        sky[lo:hi] *= trans.reshape(-1)[: hi - lo]
    np.clip(sky, 0.0, 1.0, out=sky)
    # The envelope repeats daily: t % 86400 is exact, so one day tiles it.
    day_frac = np.arange(min(n_seconds, 86400), dtype=np.float64) / 86400.0
    daylight = np.clip(np.sin(np.pi * (day_frac - 0.25) / 0.5), 0.0, None)
    # (capacity * clear_sky) * sky, one day at a time.
    clear = daylight**1.3
    clear *= capacity
    for lo in range(0, n_seconds, 86400):
        day = sky[lo : lo + 86400]
        day *= clear[: day.size]
    return sky


def _load_power(rng: np.random.Generator, n_seconds: int, peak: float) -> np.ndarray:
    z = _ar1(rng, n_seconds // 3600 + 2, 0.9)
    fast = _ar1(rng, n_seconds, phi=0.8)
    fast *= 0.01
    fast += 1.0
    # Shift and weekday factors are constant within each hour, so they are
    # evaluated hourly and held: load = (hourly * slow) * fast, where slow is
    # 1 + 0.05 * z interpolated to each second, folded into fast per block.
    t = np.arange(-(-n_seconds // 3600), dtype=np.float64) * 3600.0
    hour = (t % 86400.0) / 3600.0
    day = np.floor(t / 86400.0)
    shift = np.where(hour < 6.0, 0.72, np.where(hour < 14.0, 1.0, np.where(hour < 22.0, 0.9, 0.72)))
    weekly = np.where((day % 7) >= 5, 0.85, 1.0)
    hourly = peak * 0.9 * shift * weekly
    for lo, hi, slow in _interp_blocks(z, 3600.0, n_seconds):
        slow *= 0.05
        slow += 1.0
        slow *= hourly[lo // 3600 : lo // 3600 + len(slow), None]
        fast[lo:hi] *= slow.reshape(-1)[: hi - lo]
    return fast


def calm_window(duration_days: float) -> tuple[float, float]:
    """Default extreme-calm window, days: 0.25 to 0.65 of the duration."""
    return duration_days * 0.25, duration_days * 0.65


def synthesize(config: ScenarioConfig) -> TimeSeries:
    """Generate the 1-second net-load actuals for a scenario."""
    n_seconds = int(round(config.duration_days * 86400.0))
    rng = np.random.default_rng(config.seed)
    wind_scale, pv_scale, load_scale = _ARCHETYPE_SCALES[config.archetype]
    wind = _wind_power(rng, n_seconds, config.wind_capacity * wind_scale)
    pv = _pv_power(rng, n_seconds, config.pv_capacity * pv_scale)
    net = _load_power(rng, n_seconds, config.load_peak * load_scale)
    if config.archetype == "extreme_calm":
        window = config.calm_window_days or calm_window(config.duration_days)
        start = int(round(window[0] * 86400.0))
        stop = int(round(window[1] * 86400.0))
        wind[start:stop] = 0.0
        pv[start:stop] = 0.0
    # net = (load - wind) - pv, each component freed once folded in.
    net -= wind
    del wind
    net -= pv
    del pv
    if config.archetype == "balanced":
        # An energy-balance window by construction: intra-day structure and
        # hourly swings stay, but multi-day energy trends (which no finite
        # store can absorb) are removed, and a small surplus funds the
        # storage round-trip losses.
        half = min(36 * 3600, n_seconds) // 2
        net -= window_mean(net, half, half)
        net -= net.mean() + config.balanced_surplus_mw
    return TimeSeries(0.0, 1.0, net)


def window_mean(x: np.ndarray, before: int, after: int) -> np.ndarray:
    """Mean of ``x[k - before : k + after + 1]`` at each k, the window cut
    to the series; O(n) via prefix sums c. Where the window is whole, k in
    ``[before, n - after)``, the means are one subtract and one divide of two
    slices of c; only the cut edges take the index arithmetic, in blocks.
    ``window_mean(x, w - 1, 0)`` is the trailing mean over w samples,
    ``window_mean(x, h, h)`` the centered one over 2h + 1."""
    n, w = x.size, before + after + 1
    c = np.empty(n + 1)
    c[0] = 0.0
    np.cumsum(x, out=c[1:])
    out = np.empty(n)
    lo = min(before, n)
    hi = max(n - after, lo)
    np.subtract(c[w : w + hi - lo], c[: hi - lo], out=out[lo:hi])
    out[lo:hi] /= float(w)
    for start, stop in ((0, lo), (hi, n)):
        for b in range(start, stop, BLOCK):
            k = np.arange(b, min(b + BLOCK, stop))
            left = np.clip(k - before, 0, n)
            right = np.clip(k + after + 1, 0, n)
            out[b : b + k.size] = (c[right] - c[left]) / (right - left)
    return out


def make_forecast(
    actuals: TimeSeries, granularity_s: float, accuracy: float, seed: int
) -> TimeSeries:
    """Forecast at ``granularity_s`` whose normalized MAE is 1 - accuracy.

    The error process is AR(1) with coefficient 0.8 at the forecast step
    (persistent errors stress the layered dispatch hardest), demeaned and
    scaled so that mean(|error|) / mean(|actual|) equals 1 - accuracy
    exactly on this series. An all-zero actual series is degenerate and
    returned unchanged. ``actuals`` may already be the block means at
    ``granularity_s`` (see :func:`block_means`).
    """
    if not 0.0 < accuracy <= 1.0:
        raise ValueError("accuracy must lie in (0, 1]")
    agg = block_means(actuals, granularity_s)
    if accuracy == 1.0:
        return agg
    scale = float(np.abs(agg.values).mean())
    if scale == 0.0:
        return agg
    rng = np.random.default_rng(seed)
    noise = _ar1(rng, len(agg), phi=0.8)
    noise -= noise.mean()
    mae = float(np.abs(noise).mean())
    if mae == 0.0:
        return agg
    noise *= (1.0 - accuracy) * scale / mae
    return TimeSeries(agg.start_epoch, agg.dt, agg.values + noise)


def block_means(actuals: TimeSeries, step_s: float) -> TimeSeries:
    """The actuals' means over blocks of ``step_s`` seconds
    (:func:`~hessmpc.timeseries.resample`); a series already at that step is
    returned as it is."""
    return actuals if actuals.dt == step_s else resample(actuals, step_s)


def realized_accuracy(actuals: TimeSeries, forecast: TimeSeries) -> float:
    """1 - normalized MAE of a forecast against the actuals' block means at
    its step; ``actuals`` may already be those means."""
    agg = block_means(actuals, forecast.dt)
    scale = float(np.abs(agg.values).mean())
    if scale == 0.0:
        return float("nan")
    return 1.0 - float(np.abs(forecast.values - agg.values).mean()) / scale
