"""Uniformly sampled power trajectories and the resampling rules used everywhere.

A ``TimeSeries`` is the single carrier for net-load actuals and layer
forecasts: a start epoch, a fixed step, and a float64 value array in MW.
Resampling only coarsens: a block mean, which preserves the energy integral
up to float rounding.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AlignmentError, GapError, ParseError

CSV_HEADER = "epoch_s,power_mw"
#: Samples per block of the passes over one-second series that would
#: otherwise build full-length temporaries (grids, index arrays, products).
BLOCK = 65536
# Rows per write in write_csv: bounds the text held in memory on long traces.
# A block's prefixes, value strings and text take about 200 bytes a row on a
# three-file grid.
CSV_BLOCK_ROWS = 16384


@dataclass
class TimeSeries:
    """Uniform power series in MW.

    Parameters
    ----------
    start_epoch : float
        Epoch of the first sample, seconds; finite.
    dt : float
        Sample step in seconds, finite and > 0.
    values : ndarray
        Power samples in MW; stored as a contiguous float64 array.
    """

    start_epoch: float
    dt: float
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=np.float64)
        if not (math.isfinite(self.start_epoch) and math.isfinite(self.dt)):
            raise ValueError(
                f"start_epoch and dt must be finite, got {self.start_epoch}, {self.dt}"
            )
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.values.ndim != 1:
            raise ValueError("values must be one-dimensional")
        if self.values.size and not np.all(np.isfinite(self.values)):
            raise ValueError("values must be finite")

    def __len__(self) -> int:
        return self.values.size


def resample(ts: TimeSeries, new_dt: float) -> TimeSeries:
    """Downsample to ``new_dt`` seconds, a whole multiple of ``ts.dt``
    (one included) into which the length divides evenly: the block means,
    which preserve the energy integral. A finer step raises AlignmentError.
    """
    if new_dt <= 0:
        raise ValueError("new_dt must be positive")
    ratio = new_dt / ts.dt
    factor = int(round(ratio))
    if factor < 1 or abs(ratio - factor) > 1e-9:
        raise AlignmentError(
            f"new_dt {new_dt} is not a whole multiple of dt {ts.dt}"
        )
    if ts.values.size % factor:
        raise AlignmentError(
            f"series length {ts.values.size} not divisible by {factor}"
        )
    vals = ts.values.reshape(-1, factor).mean(axis=1)
    return TimeSeries(ts.start_epoch, new_dt, vals)


def ingest_csv(path) -> TimeSeries:
    """Load a ``epoch_s,power_mw`` CSV into a TimeSeries.

    The contract is strict: UTF-8, LF endings, the exact header, uniform dt
    inferred from the first two rows, strictly monotone timestamps. A CR, a
    blank row, a padded field, a field with an underscore (which ``float``
    would read as a digit separator), a ``nan`` or ``inf`` field or another
    malformed row raises :class:`ParseError` with the line number. A step
    off dt by more than 1e-6 * max(dt, 1) s (a decimal step such as 0.1 s
    does not subtract exactly) raises :class:`GapError` with the offending
    timestamp. Sample k lies at ``start + k * dt``, start the first epoch.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header = fh.readline().removesuffix("\n")
        if header != CSV_HEADER:
            raise ParseError(f"expected header '{CSV_HEADER}', got {header!r}", line=1)
        epochs: list[float] = []
        powers: list[float] = []
        for lineno, raw in enumerate(fh, start=2):
            line = raw.removesuffix("\n")
            if "\r" in line:
                raise ParseError("CR in row; rows end with LF alone", line=lineno)
            if not line:
                raise ParseError("blank row", line=lineno)
            parts = line.split(",")
            if len(parts) != 2:
                raise ParseError(f"expected 2 fields, got {len(parts)}", line=lineno)
            if any(part != part.strip() for part in parts):
                raise ParseError(f"padded field in {line!r}", line=lineno)
            if "_" in line:
                # float() reads "1_0" as 10.0; a field is a plain number.
                raise ParseError(f"underscore in {line!r}", line=lineno)
            try:
                epoch, power = float(parts[0]), float(parts[1])
            except ValueError as exc:
                raise ParseError(str(exc), line=lineno) from exc
            if not (math.isfinite(epoch) and math.isfinite(power)):
                raise ParseError(f"non-finite field in '{line}'", line=lineno)
            epochs.append(epoch)
            powers.append(power)

    if not epochs:
        raise ParseError("file contains a header but no samples", line=1)
    if len(epochs) == 1:
        return TimeSeries(epochs[0], 1.0, np.array(powers))

    ep = np.asarray(epochs)
    dt = epochs[1] - epochs[0]
    if dt <= 0:
        raise GapError("timestamps not strictly increasing", epoch_s=ep[1])
    if not math.isfinite(dt):
        raise GapError("step between the first two timestamps overflows", epoch_s=ep[1])
    steps = np.diff(ep)
    bad = np.nonzero(np.abs(steps - dt) > 1e-6 * max(dt, 1.0))[0]
    if bad.size:
        raise GapError(
            f"step {steps[bad[0]]:g}s differs from inferred dt {dt:g}s",
            epoch_s=ep[bad[0] + 1],
        )
    return TimeSeries(ep[0], dt, np.array(powers))


def write_csv(files: dict) -> None:
    """Write series that share one time grid, one file each, using the same
    contract :func:`ingest_csv` reads.

    ``files`` maps a path to its TimeSeries; every series must have the same
    ``start_epoch``, ``dt`` and length, or ``ValueError`` is raised before
    any file is opened. Epochs are written as ``f"{e:.0f}"`` and values as
    the shortest round-trip ``repr``. The files are written together, in
    blocks of ``CSV_BLOCK_ROWS`` rows: each block's epochs are formatted
    once, as ``"epoch,"`` prefixes, and each file writes that block as one
    ``"".join`` over its row cells ``[prefix, value, "\\n"]``.
    """
    series = list(files.values())
    if not series:
        return
    first = series[0]
    grid = (first.start_epoch, first.dt, len(first))
    for path, ts in files.items():
        if (ts.start_epoch, ts.dt, len(ts)) != grid:
            raise ValueError(
                f"{path}: grid (start {ts.start_epoch}, dt {ts.dt}, {len(ts)} "
                f"samples) differs from (start {grid[0]}, dt {grid[1]}, {grid[2]} samples)"
            )
    start, dt, n = grid
    with contextlib.ExitStack() as stack:
        handles = [stack.enter_context(open(path, "w", encoding="utf-8", newline="\n"))
                   for path in files]
        for fh in handles:
            fh.write(CSV_HEADER + "\n")
        for lo in range(0, n, CSV_BLOCK_ROWS):
            hi = min(lo + CSV_BLOCK_ROWS, n)
            e = start + dt * np.arange(lo, hi)
            # For an integral float below 2**53, the decimal form of int(e)
            # equals f"{e:.0f}" and is cheaper to build (ROADMAP item 4 has the
            # timing). The one exception, -0.0 ("0" against "-0"), cannot
            # occur: with dt > 0, start + dt * k rounds an exact zero to +0.0.
            if np.all(np.abs(e) < 2.0**53) and np.array_equal(e, np.trunc(e)):
                ints = e.astype(np.int64).tolist()
                prefixes = ("%d,\n" * len(ints) % tuple(ints)).split("\n")[:-1]
            else:
                prefixes = list(map("{:.0f},".format, e.tolist()))
            for fh, ts in zip(handles, series):
                fh.write(_rows(prefixes, ts.values[lo:hi]))


def _rows(prefixes: list, values: np.ndarray) -> str:
    """One block of CSV rows, ``prefix + repr(value) + "\\n"`` each.

    The cell list is built fresh for each call and dies on return, before
    the caller encodes and writes the text: a list reused across files, or
    one still alive during the write, adds a block of strings to the peak.
    """
    cells = ["\n"] * (3 * values.size)
    cells[0::3] = prefixes
    cells[1::3] = map(repr, values.tolist())
    return "".join(cells)
