import numpy as np
import pytest

from hessmpc.devices import EssState, ess_step, saturate_block
from hessmpc.errors import EnvelopeViolation, ExclusivityViolation


def _store(**kw):
    base = dict(envelope=(0.0, 200.0), power_cap=50.0, eta_c=1.0, eta_d=1.0)
    base.update(kw)
    return EssState(**base)


def test_charge_arithmetic():
    assert ess_step(_store(eta_c=0.95), 100.0, 10.0, 0.0, 1.0) == pytest.approx(109.5)


def test_idle_identity():
    assert ess_step(_store(), 100.0, 0.0, 0.0, 1.0) == 100.0


def test_reference_discharge_values():
    # 0.95/0.95 battery, 19 MW discharged for one hour from 100 MWh.
    out = ess_step(_store(eta_c=0.95, eta_d=0.95), 100.0, 0.0, 19.0, 1.0)
    assert out == pytest.approx(100.0 - 19.0 / 0.95)
    assert out == pytest.approx(80.0)


def test_exclusivity_enforced():
    with pytest.raises(ExclusivityViolation):
        ess_step(_store(), 100.0, 1.0, 1.0, 1.0)


def test_envelope_violation_is_error():
    with pytest.raises(EnvelopeViolation):
        ess_step(_store(), 199.0, 10.0, 0.0, 1.0)
    with pytest.raises(EnvelopeViolation):
        ess_step(_store(), 1.0, 0.0, 10.0, 1.0)


def test_power_cap_enforced():
    with pytest.raises(EnvelopeViolation):
        ess_step(_store(), 100.0, 51.0, 0.0, 0.01)


def test_run_start_energy_is_checked_against_the_envelope():
    st = _store(envelope=(20.0, 180.0))
    assert st.energy_at(0.0) == 20.0
    assert st.energy_at(0.25) == 20.0 + 0.25 * 160.0
    assert st.energy_at(1.0) == 180.0
    for frac in (-0.01, 1.01):
        with pytest.raises(ValueError, match="outside envelope"):
            st.energy_at(frac)


def test_energy_ledger_conservation():
    # Lossless device: final energy equals initial plus net dispatched.
    rng = np.random.default_rng(7)
    st = _store()
    e = 100.0
    net = 0.0
    for _ in range(500):
        p = float(rng.uniform(-20.0, 20.0))
        room_c = (st.envelope[1] - e) / 0.01
        room_d = (e - st.envelope[0]) / 0.01
        if p >= 0.0:
            p = min(p, room_d, st.power_cap)
            e = ess_step(st, e, 0.0, p, 0.01)
            net -= p * 0.01
        else:
            p = max(p, -room_c, -st.power_cap)
            e = ess_step(st, e, -p, 0.0, 0.01)
            net += -p * 0.01
    assert e == pytest.approx(100.0 + net, rel=1e-12, abs=1e-9)


def test_round_trip_efficiency_product():
    st = _store(eta_c=0.9, eta_d=0.8)
    charged_grid = 20.0
    e2 = ess_step(st, 100.0, charged_grid, 0.0, 1.0)
    stored = e2 - 100.0
    assert stored == pytest.approx(charged_grid * 0.9)
    # Discharge back to the initial energy.
    p_d = stored * 0.8
    assert ess_step(st, e2, 0.0, p_d, 1.0) == pytest.approx(100.0)
    assert p_d / charged_grid == pytest.approx(0.9 * 0.8)


def test_standby_stops_at_floor():
    st = _store(envelope=(0.0, 10.0), standby_loss=100.0)
    out = ess_step(st, 0.005, 0.0, 0.0, 1.0)
    assert out == 0.0
    assert ess_step(st, out, 0.0, 0.0, 1.0) == 0.0
    # The leak stops there too, alone or with the standby drain.
    for standby in (0.0, 1.0):
        leaky = _store(envelope=(20.0, 180.0), self_discharge=0.5, standby_loss=standby)
        assert ess_step(leaky, 20.001, 0.0, 0.0, 0.25) == 20.0


def test_self_discharge_applied():
    st = _store(self_discharge=0.01)
    assert ess_step(st, 100.0, 0.0, 0.0, 1.0) == pytest.approx(99.0)
    # The leak is a fraction per hour: sixty one-minute steps leak as much.
    e = 100.0
    for _ in range(60):
        e = ess_step(st, e, 0.0, 0.0, 1.0 / 60.0)
    assert e == pytest.approx(99.0)


@pytest.mark.parametrize("energy", [20.0, 20.001, 100.0])
def test_saturate_loses_what_ess_step_loses(energy):
    # The clipping form and the planned step apply the same losses.
    st = _store(envelope=(20.0, 180.0), self_discharge=0.3, standby_loss=2.0)
    for dt_h in (1.0 / 3600.0, 1.0 / 60.0, 0.25):
        assert saturate_block([0.0], energy, *st.saturate_args(dt_h), dt_h) == \
            ([0.0], ess_step(st, energy, 0.0, 0.0, dt_h), None)
