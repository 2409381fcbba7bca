import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hessmpc import timeseries
from hessmpc.errors import AlignmentError, GapError, ParseError
from hessmpc.timeseries import TimeSeries, ingest_csv, resample, write_csv


def test_resample_identity():
    ts = TimeSeries(0.0, 60.0, np.array([1.0, 2.0, 3.0]))
    out = resample(ts, 60.0)
    assert np.array_equal(out.values, ts.values)


def test_downsample_mean():
    ts = TimeSeries(0.0, 1.0, np.array([0.0, 10.0]))
    out = resample(ts, 2.0)
    assert out.values.tolist() == [5.0]
    assert out.dt == 2.0


def test_energy_preserved_on_downsample():
    rng = np.random.default_rng(0)
    ts = TimeSeries(0.0, 1.0, rng.normal(50.0, 20.0, 3600))
    for dt in (2.0, 60.0, 900.0):
        down = resample(ts, dt)
        assert down.values.sum() * dt == pytest.approx(ts.values.sum() * ts.dt, rel=1e-9)


def test_incompatible_step_rejected():
    ts = TimeSeries(0.0, 60.0, np.ones(10))
    with pytest.raises(AlignmentError):
        resample(ts, 90.0)
    # Resampling only coarsens: a finer step is no whole multiple either.
    for finer in (30.0, 1.0, 59.0):
        with pytest.raises(AlignmentError):
            resample(ts, finer)
    with pytest.raises(AlignmentError):
        resample(TimeSeries(0.0, 1.0, np.ones(7)), 2.0)


def test_csv_round_trip(tmp_path):
    ts = TimeSeries(100.0, 1.0, np.array([1.25, -3.5, 0.0]))
    path = tmp_path / "series.csv"
    write_csv({path: ts})
    back = ingest_csv(path)
    assert back.dt == 1.0
    assert back.start_epoch == 100.0
    assert np.array_equal(back.values, ts.values)


def _write_csv_per_row(path, ts):
    """The writer's reference: one formatted line per sample."""
    epochs = ts.start_epoch + ts.dt * np.arange(ts.values.size)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("epoch_s,power_mw\n")
        for e, v in zip(epochs.tolist(), ts.values.tolist()):
            fh.write(f"{e:.0f},{v!r}\n")


_starts = st.one_of(
    st.integers(-10**12, 10**12).map(float),
    st.just(-0.0),
    st.integers(-10**9, 10**9).map(lambda k: k + 0.5),
    st.integers(2**53 - 600, 2**70).map(float),
    st.integers(-2**70, -2**53).map(float),
    st.floats(-1e18, 1e18),
)
_values = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     -1e-310, 1e-5, -1e-5, 1e16, -1e16]),
    st.floats(1e-6, 1e-4) | st.floats(-1e-4, -1e-6),
    st.floats(1e15, 1e17) | st.floats(-1e17, -1e15),
    st.floats(allow_nan=False, allow_infinity=False),
)


def _tables(n_files):
    """(n_files, rows): each row holds one value per file."""
    rows = st.tuples(*[_values] * n_files)
    return st.tuples(st.just(n_files), st.one_of(
        st.just([]), st.lists(rows, min_size=1, max_size=1), st.lists(rows, max_size=500)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    start=_starts,
    dt=st.sampled_from([1.0, 0.5, 60.0, 3600.0]),
    table=st.integers(1, 3).flatmap(_tables),
    block_rows=st.sampled_from([1, 7, 64, timeseries.CSV_BLOCK_ROWS]),
)
def test_write_csv_matches_per_row_writer(tmp_path_factory, start, dt, table, block_rows):
    n_files, rows = table
    series = [TimeSeries(start, dt, np.array([row[j] for row in rows], dtype=np.float64))
              for j in range(n_files)]
    out = tmp_path_factory.mktemp("csv")
    # Small blocks split the rows over several writes.
    with mock.patch.object(timeseries, "CSV_BLOCK_ROWS", block_rows):
        write_csv({out / f"bulk{j}.csv": ts for j, ts in enumerate(series)})
    epochs = start + dt * np.arange(len(rows))
    exact = float(start).is_integer() and dt >= 1.0 and np.all(np.abs(epochs) < 2.0**53)
    for j, ts in enumerate(series):
        bulk = out / f"bulk{j}.csv"
        _write_csv_per_row(out / f"rows{j}.csv", ts)
        assert bulk.read_bytes() == (out / f"rows{j}.csv").read_bytes()

        if not rows:
            with pytest.raises(ParseError):
                ingest_csv(bulk)
            continue
        try:
            back = ingest_csv(bulk)
        except GapError:
            # Rounding to whole seconds makes the written step uneven for
            # fractional epochs and for epochs past 2**53.
            assert not exact
        else:
            assert back.values.tobytes() == ts.values.tobytes()
            if exact:
                assert back.start_epoch == start
                assert back.dt == (dt if len(rows) > 1 else 1.0)


@pytest.mark.parametrize("start", [-100_003.0, -(2.0**31) - 9, 2.0**31 - 5, 2.0**40 + 1.0])
@pytest.mark.parametrize("dt", [1.0, 60.0])
def test_write_csv_integral_epochs_match_per_row_writer(tmp_path, start, dt):
    # Whole-second epochs take the "%d" prefix branch: negative epochs,
    # epochs past 32 bits and a short last block (17 rows in blocks of 7).
    ts = TimeSeries(start, dt, np.linspace(-3.0, 4.0, 17))
    with mock.patch.object(timeseries, "CSV_BLOCK_ROWS", 7):
        write_csv({tmp_path / "bulk.csv": ts})
    _write_csv_per_row(tmp_path / "rows.csv", ts)
    assert (tmp_path / "bulk.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


@pytest.mark.parametrize("other", [
    TimeSeries(1.0, 1.0, np.ones(4)), TimeSeries(0.0, 60.0, np.ones(4)),
    TimeSeries(0.0, 1.0, np.ones(5)),
])
def test_write_csv_rejects_mismatched_grid(tmp_path, other):
    files = {tmp_path / "a.csv": TimeSeries(0.0, 1.0, np.ones(4)), tmp_path / "b.csv": other}
    with pytest.raises(ValueError, match="grid"):
        write_csv(files)
    assert list(tmp_path.iterdir()) == []


def test_write_csv_memory_is_bounded_per_block(tmp_path):
    # Three files over 6 blocks peak no higher than over 2: the writer holds
    # one block of text at a time, not a whole run's epochs or rows.
    rng = np.random.default_rng(0)

    def peak(blocks):
        n = blocks * timeseries.CSV_BLOCK_ROWS
        files = {tmp_path / f"{blocks}_{j}.csv": TimeSeries(0.0, 1.0, rng.normal(40.0, 15.0, n))
                 for j in range(3)}
        tracemalloc.start()
        try:
            write_csv(files)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # Smaller blocks keep the traced run short; the ratio does not depend on them.
    with mock.patch.object(timeseries, "CSV_BLOCK_ROWS", 4096):
        small, large = peak(2), peak(6)
    assert large <= 1.1 * small, (small, large)


def test_csv_gap_detected(tmp_path):
    path = tmp_path / "gap.csv"
    path.write_text("epoch_s,power_mw\n0,1.0\n1,2.0\n3,3.0\n")
    with pytest.raises(GapError):
        ingest_csv(path)


def test_csv_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("epoch_s,power_mw\n")
    with pytest.raises(ParseError):
        ingest_csv(path)


def test_csv_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,mw\n0,1\n")
    with pytest.raises(ParseError) as exc:
        ingest_csv(path)
    assert exc.value.line == 1


def test_csv_bad_row_reports_line(tmp_path):
    path = tmp_path / "bad2.csv"
    path.write_text("epoch_s,power_mw\n0,1.0\n1,not_a_number\n")
    with pytest.raises(ParseError) as exc:
        ingest_csv(path)
    assert exc.value.line == 3


@pytest.mark.parametrize("text, line, message", [
    ("epoch_s,power_mw\r\n0,1.0\n", 1, "expected header"),
    ("epoch_s,power_mw\n0,1.0\r\n1,2.0\r\n", 2, "CR in row"),
    ("epoch_s,power_mw\n0,1.0\n1,2.0\r", 3, "CR in row"),
])
def test_csv_cr_reports_line(tmp_path, text, line, message):
    path = tmp_path / "crlf.csv"
    path.write_bytes(text.encode("utf-8"))
    with pytest.raises(ParseError, match=message) as exc:
        ingest_csv(path)
    assert exc.value.line == line


@pytest.mark.parametrize("rows, line", [("\n0,1.0\n", 2), ("0,1.0\n\n1,2.0\n", 3),
                                        ("0,1.0\n1,2.0\n\n", 4)])
def test_csv_blank_row_reports_line(tmp_path, rows, line):
    path = tmp_path / "blank.csv"
    path.write_text("epoch_s,power_mw\n" + rows)
    with pytest.raises(ParseError, match="blank row") as exc:
        ingest_csv(path)
    assert exc.value.line == line


@pytest.mark.parametrize("row", ["  1 , 3.5 ", "1, 3.5", "1,3.5 ", " 1,3.5", "1\t,3.5"])
def test_csv_padded_field_reports_line(tmp_path, row):
    path = tmp_path / "padded.csv"
    path.write_text(f"epoch_s,power_mw\n0,1.0\n{row}\n2,2.0\n")
    with pytest.raises(ParseError, match="padded field") as exc:
        ingest_csv(path)
    assert exc.value.line == 3


@pytest.mark.parametrize("rows, line", [("0,1_0\n1,2.0\n", 2), ("0,1.0\n1_0,2.0\n", 3),
                                        ("0,1.0\n1,2.0\n2,1e1_0\n", 4)])
def test_csv_underscore_field_reports_line(tmp_path, rows, line):
    # float() takes "1_0" as 10.0; a field is a plain number.
    path = tmp_path / "underscore.csv"
    path.write_text("epoch_s,power_mw\n" + rows)
    with pytest.raises(ParseError, match="underscore") as exc:
        ingest_csv(path)
    assert exc.value.line == line


def test_csv_decimal_step_within_tolerance(tmp_path):
    # 0.1 s steps do not subtract exactly; the 1e-6 * max(dt, 1) s
    # tolerance accepts them, and sample k lies at start + k * dt.
    path = tmp_path / "decimal.csv"
    path.write_text("epoch_s,power_mw\n" + "".join(f"{0.1 * k!r},{k}.0\n" for k in range(50)))
    ts = ingest_csv(path)
    assert (ts.start_epoch, ts.dt, len(ts)) == (0.0, 0.1, 50)
    assert ts.values.tolist() == [float(k) for k in range(50)]


def test_nonfinite_rejected():
    with pytest.raises(ValueError):
        TimeSeries(0.0, 1.0, np.array([1.0, np.nan]))


@pytest.mark.parametrize("start, dt", [
    (np.nan, 1.0), (np.inf, 1.0), (-np.inf, 1.0), (0.0, np.nan), (0.0, np.inf),
])
def test_nonfinite_start_or_step_rejected(start, dt):
    with pytest.raises(ValueError, match="finite"):
        TimeSeries(start, dt, np.ones(3))


@pytest.mark.parametrize("rows, line", [
    ("nan,1.0\nnan,2.0\nnan,3.0\n", 2),
    ("0,1.0\ninf,2.0\n", 3),
    ("0,1.0\n1,nan\n", 3),
    ("0,-inf\n", 2),
])
def test_csv_nonfinite_field_reports_line(tmp_path, rows, line):
    path = tmp_path / "nonfinite.csv"
    path.write_text("epoch_s,power_mw\n" + rows)
    with pytest.raises(ParseError) as exc:
        ingest_csv(path)
    assert exc.value.line == line


def test_csv_step_overflow_is_a_gap(tmp_path):
    path = tmp_path / "overflow.csv"
    path.write_text("epoch_s,power_mw\n-1e308,1.0\n1e308,2.0\n")
    with pytest.raises(GapError, match="overflows"):
        ingest_csv(path)
