import numpy as np
import pytest

from hessmpc.devices import EssState, saturate
from hessmpc.vic import DT_H, VicParams, close_residual

P = VicParams(k_pf=15.0, k_p=120.0, k_d=25.0)


def _fess(energy=1.0, standby=0.0):
    return EssState(energy=energy, envelope=(0.1, 1.9), power_cap=60.0,
                    eta_c=0.95, eta_d=0.95, standby_loss=standby)


def _saturate(p, st):
    return saturate(st.energy, p, *st.saturate_args(DT_H), DT_H)


def test_saturate_within_limits():
    p, e = _saturate(-10.0, _fess())
    assert p == -10.0
    assert e == pytest.approx(1.0 + 10.0 * 0.95 * DT_H)
    p, e = _saturate(10.0, _fess())
    assert p == 10.0
    assert e == pytest.approx(1.0 - 10.0 * DT_H / 0.95)


def test_saturate_power_cap():
    assert _saturate(-200.0, _fess())[0] == -60.0
    assert _saturate(200.0, _fess())[0] == 60.0


def test_saturate_empty_discharge_is_zero():
    p, e = _saturate(30.0, _fess(energy=0.1))
    assert p == 0.0
    assert e == 0.1


def test_saturate_envelope_rate_limit():
    # Nearly full: one second of max charge would overflow.
    p, e = _saturate(-60.0, _fess(energy=1.8999999))
    assert -60.0 < p < 0.0
    assert e == pytest.approx(1.9, abs=1e-12)


def test_saturate_standby_applies_at_zero_request():
    p, e = _saturate(0.0, _fess(energy=1.0, standby=0.05))
    assert p == 0.0
    assert e == pytest.approx(1.0 - 0.05 / 3600.0)
    # The drain stops at the lower envelope.
    p, e = _saturate(0.0, _fess(energy=0.1, standby=0.05))
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
