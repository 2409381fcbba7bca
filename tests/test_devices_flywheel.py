import warnings

import pytest

from hessmpc.devices import FessParams, fess_lcoe, fess_standby_loss


def test_standby_zero_coefficients():
    p = FessParams(windage_coeff=0.0, bearing_coeff=0.0, bop_power=0.0)
    assert fess_standby_loss(p) == 0.0


def test_standby_windage_only():
    p = FessParams(windage_coeff=1e-6, bearing_coeff=0.0, bop_power=0.0,
                   rated_speed=1000.0)
    assert fess_standby_loss(p) == pytest.approx(1e-3)


def test_standby_bop_only():
    p = FessParams(windage_coeff=0.0, bearing_coeff=0.0, bop_power=5e4)
    assert fess_standby_loss(p) == pytest.approx(0.05)


def test_lcoe_undecayed_undiscounted():
    p = FessParams(invest=1000.0, om_cost_per_cycle=0.0, lifetime_cycles=1000,
                   decay_factor=0.0, discount_rate=0.0,
                   energy_envelope=(0.0, 1.0))
    assert fess_lcoe(p) == pytest.approx(1.0)


def test_lcoe_decay_summation_oracle():
    n_life = 1000
    beta = 0.0005
    p = FessParams(invest=1000.0, om_cost_per_cycle=0.0, lifetime_cycles=n_life,
                   decay_factor=beta, discount_rate=0.0,
                   energy_envelope=(0.0, 1.0))
    denom = sum(1.0 - beta * n for n in range(1, n_life + 1))
    assert fess_lcoe(p) == pytest.approx(1000.0 / denom)


def test_lcoe_single_cycle_discounted():
    p = FessParams(invest=0.0, om_cost_per_cycle=2.0, lifetime_cycles=1,
                   decay_factor=0.0, discount_rate=1.0,
                   energy_envelope=(0.0, 4.0))
    # cost = 0 + 2/2 = 1; energy = 4/2 = 2
    assert fess_lcoe(p) == pytest.approx(0.5)


def test_lcoe_overflowed_discount_is_silent():
    # (1 + r) ** n overflows to inf past about 1,000 cycles at r = 1: those
    # cycles discount to 0, without a warning on a valid config.
    p = FessParams(invest=1000.0, om_cost_per_cycle=2.0, lifetime_cycles=2000,
                   decay_factor=0.0, discount_rate=1.0, energy_envelope=(0.0, 4.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = fess_lcoe(p)
    # Both sums are geometric series that reach their limits in floats:
    # cost 1000 + 2 * 1 and energy 4 * 1.
    assert got == pytest.approx(1002.0 / 4.0)


def test_lcoe_rejects_decayed_out_life():
    # The flywheel section's value rules live in config.validate.
    from hessmpc.config import EngineConfig, validate
    cfg = EngineConfig(fess=FessParams(decay_factor=1e-3, lifetime_cycles=2000))
    assert [f.path for f in validate(cfg)] == ["fess.decay_factor"]
