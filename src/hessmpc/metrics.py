"""Evaluation metrics: smoothing rates, round-trip efficiency, tariff benefit.

The smoothing rate is the declared |.|-energy ratio (an RMS variant is
exposed for sensitivity); minute-level fluctuation reduction compares first
differences of one-minute means. Round-trip efficiency is ledger-based with
the net SOC drift of every device valued at its own efficiencies, so short
runs do not bias the number. The two-part-tariff benefit combines the
time-of-use energy saving, the capacity-charge saving on the peak, and the
accumulated dispatch cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AlignmentError
from .timeseries import TimeSeries, resample


@dataclass
class TariffConfig:
    """Two-part tariff: time-of-use schedule plus a capacity charge.

    tou_schedule entries are ((hour_start, hour_end), price) with half-open
    ranges of whole hours covering 24 h without overlap; prices in
    currency/MWh and capacity_rate in currency/MW.
    """

    tou_schedule: list[tuple[tuple[float, float], float]] = field(
        default_factory=lambda: [
            ((0.0, 7.0), 250.0),
            ((7.0, 11.0), 600.0),
            ((11.0, 17.0), 400.0),
            ((17.0, 21.0), 700.0),
            ((21.0, 24.0), 300.0),
        ]
    )
    capacity_rate: float = 10000.0

    def hourly_prices(self) -> np.ndarray:
        """Price per whole hour of day (currency/MWh)."""
        prices = np.zeros(24)
        for (h0, h1), price in self.tou_schedule:
            prices[int(h0) : int(h1)] = price
        return prices


@dataclass
class DeviceLedger:
    """Grid-side energy accounting for one device over a run.

    For the chemical chain the efficiencies are the full grid-to-store and
    store-to-grid path factors so that SOC-drift valuation stays consistent
    across the hydrogen-to-methanol transfer.
    """

    charged_mwh: float = 0.0
    discharged_mwh: float = 0.0
    initial_energy: float = 0.0
    final_energy: float = 0.0
    eta_c: float = 1.0
    eta_d: float = 1.0


@dataclass
class SimulationReport:
    """Everything one run produces: traces, ledgers, stats, metric blocks."""

    controller: str
    seed: int
    original_netload: TimeSeries
    smoothed_netload: TimeSeries
    layer_outputs: dict[str, TimeSeries]
    soc_traces: dict[str, TimeSeries]
    ledgers: dict[str, DeviceLedger]
    dispatch_cost: dict[str, float]
    solver_stats: dict[str, dict]
    events: dict[str, int]
    metrics: dict[str, float] = field(default_factory=dict)
    economics: dict[str, float] = field(default_factory=dict)
    band_traces: dict[str, TimeSeries] = field(default_factory=dict)


def _check_aligned(a: TimeSeries, b: TimeSeries) -> None:
    if a.dt != b.dt or len(a) != len(b):
        raise AlignmentError(
            f"series differ: dt {a.dt} vs {b.dt}, len {len(a)} vs {len(b)}"
        )


def smoothing_rate(original: TimeSeries, residual: TimeSeries) -> float:
    """1 - sum|residual| / sum|original|; NaN when the original is all zero.

    Values below zero are possible when the controller amplifies the signal
    and are reported as-is.
    """
    _check_aligned(original, residual)
    denom = float(np.abs(original.values).sum())
    if denom == 0.0:
        return float("nan")
    return 1.0 - float(np.abs(residual.values).sum()) / denom


def rms_smoothing_rate(original: TimeSeries, residual: TimeSeries) -> float:
    """RMS-based alternative of :func:`smoothing_rate`."""
    _check_aligned(original, residual)
    denom = float(np.sqrt((original.values**2).mean()))
    if denom == 0.0:
        return float("nan")
    return 1.0 - float(np.sqrt((residual.values**2).mean())) / denom


def minute_fluctuation_reduction(original: TimeSeries, residual: TimeSeries) -> float:
    """1 - ratio of summed |first differences| of one-minute means."""
    _check_aligned(original, residual)
    if original.dt > 60.0:
        raise AlignmentError("series must be sampled at one minute or finer")
    orig_min = resample(original, 60.0).values
    res_min = resample(residual, 60.0).values
    denom = float(np.abs(np.diff(orig_min)).sum())
    if denom == 0.0:
        return float("nan")
    return 1.0 - float(np.abs(np.diff(res_min)).sum()) / denom


def round_trip_efficiency(ledgers: dict[str, DeviceLedger]) -> float:
    """Grid energy delivered over grid energy absorbed, drift-corrected.

    A device that ends the run with more stored energy than it started gets
    that surplus credited at its discharge efficiency; one that ends lower
    is charged for the draw-down at its charge efficiency. Returns NaN when
    nothing was absorbed.
    """
    delivered = 0.0
    absorbed = 0.0
    for led in ledgers.values():
        drift = led.final_energy - led.initial_energy
        delivered += led.discharged_mwh + max(drift, 0.0) * led.eta_d
        absorbed += led.charged_mwh + max(-drift, 0.0) / led.eta_c
    if absorbed <= 0.0:
        return float("nan")
    return delivered / absorbed


def _hour_key(start: float, dt: float, k: int) -> float:
    """``day * 24 + hour`` of sample k of a grid, from the floor-mod formula
    ``divmod(start + dt * k, 86400)`` and ``// 3600`` on Python floats (the
    IEEE operations of numpy's ``%`` and ``//``). A time one rounding step
    below midnight leaves the remainder 86400.0; it lies in hour 23."""
    day, sec = divmod(start + dt * k, 86400.0)
    return day * 24.0 + min(sec // 3600.0, 23.0)


def _hour_runs(ts: TimeSeries):
    """``(lo, hi, hour of day)`` of each run of samples of ``ts`` in one
    hour, in order.

    The key of :func:`_hour_key` never falls as k grows (for times below
    2**53 s): each step of the formula is monotone within a day, and the day
    grows. So a run ends at the first sample with another key, which is
    guessed from the time left in the hour, checked at the guess and the
    sample before it, and found by bisection when the guess misses.
    """
    start, dt, n = float(ts.start_epoch), float(ts.dt), len(ts)
    lo = 0
    while lo < n:
        key = _hour_key(start, dt, lo)
        ahead = ((key + 1.0) * 3600.0 - (start + dt * lo)) / dt
        guess = lo + max(1, math.ceil(ahead)) if ahead < n - lo else n
        # The run is [lo, b): samples lo to a share the key, b is past it.
        a, b = lo, n
        for k in (guess - 1, guess):
            if a < k < b:
                if _hour_key(start, dt, k) == key:
                    a = k
                else:
                    b = k
        while b - a > 1:
            mid = (a + b) // 2
            if _hour_key(start, dt, mid) == key:
                a = mid
            else:
                b = mid
        yield lo, b, int(key) % 24
        lo = b


def economic_benefit(
    original: TimeSeries,
    smoothed: TimeSeries,
    dispatch_cost: float,
    tariff: TariffConfig,
) -> dict[str, float]:
    """Two-part-tariff benefit and its three components.

    Returns a dict with ``tou``, ``capacity``, ``dispatch_cost`` and their
    combination ``total = tou + capacity - dispatch_cost``. Sample k is
    priced at the hour of day ``(start + dt * k) % 86400 // 3600``; a time
    one rounding step below midnight counts in hour 23.
    """
    _check_aligned(original, smoothed)
    prices = tariff.hourly_prices().tolist()
    # (original - smoothed) * price of the sample's hour in one buffer, one
    # multiply per run of samples in one hour; the sum runs over the buffer.
    gain = original.values - smoothed.values
    for lo, hi, hour in _hour_runs(original):
        gain[lo:hi] *= prices[hour]
    tou = float(gain.sum() * (original.dt / 3600.0))
    capacity = tariff.capacity_rate * (
        float(original.values.max()) - float(smoothed.values.max())
    )
    total = tou + capacity - dispatch_cost
    return {
        "tou": tou,
        "capacity": capacity,
        "dispatch_cost": dispatch_cost,
        "total": total,
    }
