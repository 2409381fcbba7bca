import dataclasses

import numpy as np
import pytest

from hessmpc.devices import EssState, ess_step, saturate_block
from hessmpc.errors import EnvelopeViolation, ExclusivityViolation


def _state(**kw):
    base = dict(energy=100.0, envelope=(0.0, 200.0), power_cap=50.0,
                eta_c=1.0, eta_d=1.0)
    base.update(kw)
    return EssState(**base)


def test_charge_arithmetic():
    st = _state(eta_c=0.95)
    out = ess_step(st, 10.0, 0.0, 1.0)
    assert out.energy == pytest.approx(109.5)


def test_idle_identity():
    st = _state()
    out = ess_step(st, 0.0, 0.0, 1.0)
    assert out.energy == st.energy


def test_reference_discharge_values():
    # 0.95/0.95 battery, 19 MW discharged for one hour from 100 MWh.
    st = _state(eta_c=0.95, eta_d=0.95)
    out = ess_step(st, 0.0, 19.0, 1.0)
    assert out.energy == pytest.approx(100.0 - 19.0 / 0.95)
    assert out.energy == pytest.approx(80.0)


def test_exclusivity_enforced():
    with pytest.raises(ExclusivityViolation):
        ess_step(_state(), 1.0, 1.0, 1.0)


def test_envelope_violation_is_error():
    st = _state(energy=199.0)
    with pytest.raises(EnvelopeViolation):
        ess_step(st, 10.0, 0.0, 1.0)
    st2 = _state(energy=1.0)
    with pytest.raises(EnvelopeViolation):
        ess_step(st2, 0.0, 10.0, 1.0)


def test_power_cap_enforced():
    with pytest.raises(EnvelopeViolation):
        ess_step(_state(), 51.0, 0.0, 0.01)


def test_energy_ledger_conservation():
    # Lossless device: final energy equals initial plus net dispatched.
    rng = np.random.default_rng(7)
    st = _state(energy=100.0)
    net = 0.0
    for _ in range(500):
        p = float(rng.uniform(-20.0, 20.0))
        room_c = (st.envelope[1] - st.energy) / 0.01
        room_d = (st.energy - st.envelope[0]) / 0.01
        if p >= 0.0:
            p = min(p, room_d, st.power_cap)
            st = ess_step(st, 0.0, p, 0.01)
            net -= p * 0.01
        else:
            p = max(p, -room_c, -st.power_cap)
            st = ess_step(st, -p, 0.0, 0.01)
            net += -p * 0.01
    assert st.energy == pytest.approx(100.0 + net, rel=1e-12, abs=1e-9)


def test_round_trip_efficiency_product():
    st = _state(energy=100.0, eta_c=0.9, eta_d=0.8)
    charged_grid = 20.0
    st2 = ess_step(st, charged_grid, 0.0, 1.0)
    stored = st2.energy - st.energy
    assert stored == pytest.approx(charged_grid * 0.9)
    # Discharge back to the initial energy.
    p_d = stored * 0.8
    st3 = ess_step(st2, 0.0, p_d, 1.0)
    assert st3.energy == pytest.approx(st.energy)
    assert p_d / charged_grid == pytest.approx(0.9 * 0.8)


def test_standby_stops_at_floor():
    st = _state(energy=0.005, envelope=(0.0, 10.0), standby_loss=100.0)
    out = ess_step(st, 0.0, 0.0, 1.0)
    assert out.energy == 0.0
    again = ess_step(out, 0.0, 0.0, 1.0)
    assert again.energy == 0.0
    # The leak stops there too, alone or with the standby drain.
    for standby in (0.0, 1.0):
        leaky = _state(energy=20.001, envelope=(20.0, 180.0), self_discharge=0.5,
                       standby_loss=standby)
        assert ess_step(leaky, 0.0, 0.0, 0.25).energy == 20.0


def test_self_discharge_applied():
    st = _state(self_discharge=0.01)
    out = ess_step(st, 0.0, 0.0, 1.0)
    assert out.energy == pytest.approx(99.0)
    # The leak is a fraction per hour: sixty one-minute steps leak as much.
    for _ in range(60):
        st = ess_step(st, 0.0, 0.0, 1.0 / 60.0)
    assert st.energy == pytest.approx(99.0)


@pytest.mark.parametrize("energy", [20.0, 20.001, 100.0])
def test_saturate_loses_what_ess_step_loses(energy):
    # The clipping form and the planned step apply the same losses.
    st = _state(energy=energy, envelope=(20.0, 180.0), self_discharge=0.3, standby_loss=2.0)
    for dt_h in (1.0 / 3600.0, 1.0 / 60.0, 0.25):
        assert saturate_block([0.0], energy, *st.saturate_args(dt_h), dt_h) == \
            ([0.0], ess_step(st, 0.0, 0.0, dt_h).energy, None)


def test_step_keeps_every_static_field():
    # ess_step builds the new state field by field; every field but the
    # energy must come through, also after a chain of steps.
    st = _state(energy=120.0, envelope=(10.0, 190.0), power_cap=40.0,
                eta_c=0.9, eta_d=0.8, self_discharge=0.001, standby_loss=0.5)
    out = st
    for p_c, p_d in ((10.0, 0.0), (0.0, 30.0), (0.0, 0.0)):
        out = ess_step(out, p_c, p_d, 0.5)
        assert out == dataclasses.replace(st, energy=out.energy)
    for name in ("envelope", "power_cap", "eta_c", "eta_d", "self_discharge",
                 "standby_loss"):
        assert getattr(out, name) == getattr(st, name), name
    assert out.energy != st.energy
    with pytest.raises(ExclusivityViolation):
        ess_step(out, 1.0, 1.0, 0.5)
    with pytest.raises(EnvelopeViolation):
        ess_step(out, 0.0, 40.0, 10.0)
    with pytest.raises(EnvelopeViolation):
        ess_step(out, 41.0, 0.0, 0.01)
