import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hessmpc.devices import EssState, saturate_block
from hessmpc.vic import DT_H, VicParams, close_residual

P = VicParams(k_pf=15.0, k_p=120.0, k_d=25.0)


def _fess(standby=0.0):
    return EssState(envelope=(0.1, 1.9), power_cap=60.0, eta_c=0.95, eta_d=0.95,
                    standby_loss=standby)


def _saturate(p, energy=1.0, standby=0.0):
    """One request as a one-sample block from energy (MWh): (realized power,
    energy after)."""
    (got,), e, _ = saturate_block([p], energy, *_fess(standby).saturate_args(DT_H), DT_H)
    return got, e


def test_saturate_within_limits():
    p, e = _saturate(-10.0)
    assert p == -10.0
    assert e == pytest.approx(1.0 + 10.0 * 0.95 * DT_H)
    p, e = _saturate(10.0)
    assert p == 10.0
    assert e == pytest.approx(1.0 - 10.0 * DT_H / 0.95)


def test_saturate_power_cap():
    assert _saturate(-200.0)[0] == -60.0
    assert _saturate(200.0)[0] == 60.0


def test_saturate_empty_discharge_is_zero():
    p, e = _saturate(30.0, energy=0.1)
    assert p == 0.0
    assert e == 0.1


def test_saturate_envelope_rate_limit():
    # Nearly full: one second of max charge would overflow.
    p, e = _saturate(-60.0, energy=1.8999999)
    assert -60.0 < p < 0.0
    assert e == pytest.approx(1.9, abs=1e-12)


def test_saturate_standby_applies_at_zero_request():
    p, e = _saturate(0.0, energy=1.0, standby=0.05)
    assert p == 0.0
    assert e == pytest.approx(1.0 - 0.05 / 3600.0)
    # The drain stops at the lower envelope.
    p, e = _saturate(0.0, energy=0.1, standby=0.05)
    assert e == 0.1


def _close(rs, params=P, energy=1.0):
    return close_residual(rs, energy, None, params, _fess())


def test_command_baseline_at_zero_residual():
    inject, e, df = _close([0.0] * 5)
    assert inject == [0.0] * 5 and df == 0.0


def test_command_droop_term():
    # A steady residual inside the caps is shared k_p : k_pf (8:1) between
    # the flywheel and the grid from the first second on; the grid's part
    # is the frequency deviation times k_pf.
    r = 9.0
    inject, e, df = _close([r] * 60)
    share = P.k_p / (P.k_p + P.k_pf)
    assert inject == pytest.approx([share * r] * 60, rel=1e-12)
    assert df == pytest.approx((r - share * r) / P.k_pf)
    assert share == pytest.approx(8.0 / 9.0)


def test_command_derivative_term():
    # A step from a settled zero residual to r adds the inertia response in
    # the first second: (k_p + k_d) / (k_pf + k_p + k_d) of r, against
    # k_p / (k_pf + k_p) once settled.
    r = 15.0
    inject, _, _ = _close([0.0, r] + [r] * 58)
    assert inject[1] == pytest.approx(r * (P.k_p + P.k_d) / (P.k_pf + P.k_p + P.k_d))
    assert inject[1] > inject[-1]
    assert inject[-1] == pytest.approx(r * P.k_p / (P.k_pf + P.k_p))


def test_command_linearity():
    rs = [7.0, 3.0, -2.0, 0.5]
    base, _, _ = _close(rs)
    for alpha in (0.5, 2.0, -1.5):
        scaled, _, _ = _close([alpha * r for r in rs])
        assert scaled == pytest.approx([alpha * p for p in base])


def test_command_sign_correctness():
    # A positive residual (unserved load) discharges the flywheel.
    rng = np.random.default_rng(0)
    for _ in range(100):
        params = VicParams(k_pf=float(rng.uniform(1, 50)),
                           k_p=float(rng.uniform(1, 200)),
                           k_d=float(rng.uniform(1, 50)))
        r = float(rng.uniform(0.1, 50.0))
        inject, e, _ = _close([r] * 3, params)
        assert all(p > 0.0 for p in inject)
        assert e < 1.0


def test_close_residual_continues_from_state():
    # Closing a minute in two halves equals closing it at once.
    rs = [3.0, -5.0, 12.0, 0.5, -40.0, 80.0]
    whole = close_residual(rs, 1.0, None, P, _fess(standby=0.05))
    a, e, df = close_residual(rs[:3], 1.0, None, P, _fess(standby=0.05))
    b, e, df = close_residual(rs[3:], e, df, P, _fess(standby=0.05))
    assert (a + b, e, df) == whole
    assert whole[0][-1] == 60.0          # saturated at the power cap


# Values at the edges of float64: signed zeros, the smallest subnormal and
# the smallest normal, each signed.
_TINY = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308]


def _bits(*values):
    return struct.pack(f"{len(values)}d", *values)


@st.composite
def _blocks(draw):
    """A store, a block of requests (or residual samples) reaching both
    power caps and both envelope edges, and the law's state."""
    lo = draw(st.sampled_from([0.0, 0.1, 5.0]))
    hi = lo + draw(st.sampled_from([1e-6, 0.01, 1.8, 50.0]))
    cap = draw(st.sampled_from([0.0, 5e-324, 0.5, 60.0]))
    energy = draw(st.one_of(st.sampled_from([lo, hi]), st.floats(lo, hi)))
    store = EssState(
        envelope=(lo, hi), power_cap=cap,
        eta_c=draw(st.sampled_from([1.0, 0.95, 0.6])),
        eta_d=draw(st.sampled_from([1.0, 0.9, 0.6])),
        self_discharge=draw(st.sampled_from([0.0, 5e-324, 1e-3, 0.3])),
        standby_loss=draw(st.sampled_from([0.0, 5e-324, 0.05, 50.0])),
    )
    sample = st.one_of(st.sampled_from(_TINY + [cap, -cap]), st.floats(-1e-300, 1e-300),
                       st.floats(-200.0, 200.0), st.floats(-200.0, 200.0).map(lambda x: x / 3.0))
    values = draw(st.lists(sample, min_size=1, max_size=70))
    df_prev = draw(st.one_of(st.none(), st.sampled_from(_TINY), st.floats(-10.0, 10.0)))
    params = VicParams(k_pf=draw(st.floats(1.0, 50.0)), k_p=draw(st.floats(1.0, 200.0)),
                       k_d=draw(st.sampled_from([0.0, 25.0])))
    return store, energy, values, df_prev, params


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_blocks())
def test_block_kernel_matches_per_sample_oracle(case):
    # The block kernel is the per-sample clip in one loop: the flywheel law
    # and plain (filter) requests give the oracle's bytes, outputs, end
    # energy and deviation alike, signed zeros included.
    store, energy, values, df_prev, params = case
    got, e, df = close_residual(values, energy, df_prev, params, store)
    want, e_want, df_want = oracles.close_residual(values, energy, df_prev, params, store)
    assert _bits(*got, e, df) == _bits(*want, e_want, df_want)

    got, e, df = saturate_block(values, energy, *store.saturate_args(DT_H), DT_H)
    e_want = energy
    want = []
    for p in values:
        p, e_want = oracles.saturate(e_want, p, *store.saturate_args(DT_H), DT_H)
        want.append(p)
    assert df is None
    assert _bits(*got, e) == _bits(*want, e_want)
