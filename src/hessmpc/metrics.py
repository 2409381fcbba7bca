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

from dataclasses import dataclass, field

import numpy as np

from .errors import AlignmentError
from .timeseries import BLOCK, TimeSeries, resample


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


def _hour_of_day(ts: TimeSeries, lo: int, hi: int) -> np.ndarray:
    """Whole hour of day of samples lo to hi of ``ts``, as indices."""
    t = ts.start_epoch + ts.dt * np.arange(lo, hi)
    t %= 86400.0
    t //= 3600.0
    return t.astype(np.intp)


def economic_benefit(
    original: TimeSeries,
    smoothed: TimeSeries,
    dispatch_cost: float,
    tariff: TariffConfig,
) -> dict[str, float]:
    """Two-part-tariff benefit and its three components.

    Returns a dict with ``tou``, ``capacity``, ``dispatch_cost`` and their
    combination ``total = tou + capacity - dispatch_cost``.
    """
    _check_aligned(original, smoothed)
    prices = tariff.hourly_prices()
    # (original - smoothed) * price of the sample's hour in one buffer, the
    # hour index built per block; the sum runs over the whole buffer.
    gain = original.values - smoothed.values
    for lo in range(0, gain.size, BLOCK):
        hi = min(lo + BLOCK, gain.size)
        gain[lo:hi] *= prices[_hour_of_day(original, lo, hi)]
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
