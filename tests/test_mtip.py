import numpy as np
import pytest

from hessmpc.devices import EssState
from hessmpc.errors import AlignmentError
from hessmpc.mtip import (
    MicroContext, adaptive_bounds, brute_force_band_oracle,
    fluctuation_potentials, marginal_cost, micro_fluctuation, physical_bounds,
    psi,
)
from hessmpc.timeseries import TimeSeries


def _ctx(xi, parent=10.0, energy=500.0, envelope=(0.0, 1000.0),
         eta_c=1.0, eta_d=1.0, dt_child_h=0.25):
    xi = np.asarray(xi, dtype=np.float64)
    st = EssState(energy=energy, envelope=envelope, power_cap=1e9,
                  eta_c=eta_c, eta_d=eta_d)
    micro = TimeSeries(0.0, dt_child_h * 3600.0, xi + parent)
    return MicroContext(micro, parent, st, dt_child_h, dt_child_h * xi.size)


def test_micro_fluctuation_examples():
    ctx = _ctx(np.zeros(4), parent=50.0)
    assert np.allclose(micro_fluctuation(ctx), 0.0)
    ctx2 = _ctx(np.array([10.0, -10.0, 10.0, -10.0]), parent=50.0)
    assert np.allclose(micro_fluctuation(ctx2), [10.0, -10.0, 10.0, -10.0])
    assert micro_fluctuation(ctx2).mean() == pytest.approx(0.0)


def test_micro_context_alignment():
    st = EssState(energy=1.0, envelope=(0.0, 2.0), power_cap=10.0, eta_c=1.0, eta_d=1.0)
    with pytest.raises(AlignmentError):
        MicroContext(TimeSeries(0.0, 900.0, np.zeros(3)), 0.0, st, 0.25, 1.0)


def test_psi_examples():
    assert psi(0.0, 0.9, 0.9) == 0.0
    assert psi(83.0, 0.9, 0.83) == pytest.approx(100.0)
    assert psi(-100.0, 0.83, 0.9) == pytest.approx(-83.0)


def test_psi_magnitude_properties():
    rng = np.random.default_rng(1)
    for _ in range(200):
        x = float(rng.normal(0, 50))
        ec = float(rng.uniform(0.3, 1.0))
        ed = float(rng.uniform(0.3, 1.0))
        v = psi(x, ec, ed)
        if x >= 0:
            assert abs(v) >= abs(x) - 1e-12
        else:
            assert abs(v) <= abs(x) + 1e-12
    # monotone increasing
    xs = np.linspace(-20, 20, 101)
    vals = [psi(float(x), 0.8, 0.7) for x in xs]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_potentials_prefix_sums():
    pp, pm = fluctuation_potentials(np.zeros(5), 0.9, 0.9, 1.0)
    assert np.allclose(pp, 0.0) and np.allclose(pm, 0.0)
    pp, pm = fluctuation_potentials(np.array([10.0, -10.0]), 0.9, 0.9, 1.0)
    assert np.allclose(pp, [10.0, 1.9])
    assert np.allclose(pm, [12.345679012345679, 2.345679012345679])
    pp1, pm1 = fluctuation_potentials(np.array([3.0, -4.0, 1.0]), 1.0, 1.0, 1.0)
    assert np.allclose(pp1, np.cumsum([3.0, -4.0, 1.0]))
    assert np.allclose(pm1, pp1)


def test_physical_bounds_zero_fluctuation():
    ctx = _ctx(np.zeros(4), energy=500.0, envelope=(0.0, 1000.0))
    lo, hi = physical_bounds(ctx)
    assert hi == pytest.approx(500.0)
    assert lo == pytest.approx(-500.0)


def test_virtual_capacity_at_floor():
    # Empty store with early surplus still admits a positive baseline.
    xi = np.array([-40.0, 10.0, 10.0, 10.0])
    ctx = _ctx(xi, energy=0.0, envelope=(0.0, 1000.0), eta_c=0.9, eta_d=0.9)
    _, hi = physical_bounds(ctx)
    assert hi > 0.0
    assert brute_force_band_oracle(ctx, hi - 1e-6)
    assert not brute_force_band_oracle(ctx, hi + 1.0)


def test_virtual_capacity_at_ceiling():
    xi = np.array([40.0, -10.0, -10.0, -10.0])
    ctx = _ctx(xi, energy=1000.0, envelope=(0.0, 1000.0), eta_c=0.9, eta_d=0.9)
    lo, _ = physical_bounds(ctx)
    assert lo < 0.0
    assert brute_force_band_oracle(ctx, lo + 1e-6)
    assert not brute_force_band_oracle(ctx, lo - 1.0)


def test_bounds_match_oracle_bisection():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(150):
        j = int(rng.integers(2, 97))
        dt = float(rng.choice([1.0 / 3600.0, 1.0 / 60.0, 0.25]))
        cap = float(rng.uniform(1.0, 100.0))
        ctx = _ctx(
            rng.normal(0.0, rng.uniform(0.1, 30.0), j),
            energy=float(rng.uniform(0.0, cap)), envelope=(0.0, cap),
            eta_c=float(rng.uniform(0.5, 1.0)), eta_d=float(rng.uniform(0.5, 1.0)),
            dt_child_h=dt,
        )
        lo, hi = physical_bounds(ctx)
        if lo > hi:
            mid = 0.5 * (lo + hi)
            assert not brute_force_band_oracle(ctx, mid)
            continue
        span = max(abs(lo), abs(hi), 1.0)
        a, b = 0.5 * (lo + hi), hi + 4 * span + 1
        for _ in range(70):
            m = 0.5 * (a + b)
            if brute_force_band_oracle(ctx, m):
                a = m
            else:
                b = m
        worst = max(worst, abs(a - hi))
        a, b = lo - 4 * span - 1, 0.5 * (lo + hi)
        for _ in range(70):
            m = 0.5 * (a + b)
            if brute_force_band_oracle(ctx, m):
                b = m
            else:
                a = m
        worst = max(worst, abs(b - lo))
    assert worst < 1e-6


def test_marginal_cost_aggregation():
    class Spec:
        def __init__(self, cw, cv, row):
            self.cost_weight = cw
            self.cost_vec = np.array(cv)
            self.output_row = np.array(row)

    assert marginal_cost(Spec(1.0, [0.0, 0.0], [-1, 1])) == 0.0
    assert marginal_cost(Spec(1.0, [20.0, 20.0], [-1, 1])) == pytest.approx(20.0)
    assert marginal_cost(Spec(2.0, [20.0, 20.0], [-1, 1])) == pytest.approx(40.0)
    # Zero-output actuators are excluded from the aggregate.
    assert marginal_cost(Spec(1.0, [10.0, 20.0, 99.0, 30.0], [-1, 1, 0, 1])) \
        == pytest.approx(20.0)


def test_gamma_sigmoid_midpoint_and_limits():
    b = adaptive_bounds((-100.0, 100.0), 1.0, 1.0, 5.0, 1.0, 2.0)
    assert b.gamma == pytest.approx(0.5)
    b2 = adaptive_bounds((-100.0, 100.0), 2.0, 1.0, 5.0, 1.0, 2.0)
    assert b2.gamma == pytest.approx(1.0 / (1.0 + np.exp(-5.0)))
    assert b2.r_upper == pytest.approx(b2.gamma * 100.0 + (1 - b2.gamma) * 2.0)
    b3 = adaptive_bounds((-100.0, 100.0), 1e-9, 1.0, 5.0, 1.0, 2.0)
    assert b3.gamma == pytest.approx(1.0 / (1.0 + np.exp(5.0)), rel=1e-6)


def test_gamma_monotone_in_ratio():
    gammas = [
        adaptive_bounds((-10.0, 10.0), r, 1.0, 5.0, 1.0, 2.0).gamma
        for r in (0.2, 0.5, 1.0, 2.0, 5.0)
    ]
    assert all(b > a for a, b in zip(gammas, gammas[1:]))
    assert all(0.0 < g < 1.0 for g in gammas)


def test_band_nesting_limits():
    phy = (-73.0, 41.0)
    # Gamma forced to 1: exactly the physical band.
    wide = adaptive_bounds(phy, 1e6, 1.0, 5.0, 1.0, 2.0)
    assert wide.r_lower == pytest.approx(phy[0], rel=1e-6)
    assert wide.r_upper == pytest.approx(phy[1], rel=1e-6)
    # Gamma forced to ~0 (steep sigmoid below threshold): exactly +-eps_db
    # after float collapse.
    tight = adaptive_bounds(phy, 0.5, 1.0, 1e4, 1.0, 2.0)
    assert tight.gamma < 1e-300
    assert tight.r_lower == -2.0
    assert tight.r_upper == 2.0


def test_crossed_band_clamps_to_midpoint():
    b = adaptive_bounds((50.0, -50.0), 1e6, 1.0, 5.0, 1.0, 2.0)
    assert b.clamped
    assert b.r_lower == b.r_upper
    with pytest.raises(ValueError):
        adaptive_bounds((0.0, 1.0), 1.0, 0.0, 5.0, 1.0, 2.0)


def test_oracle_trivial_cases():
    ctx = _ctx(np.zeros(4), energy=500.0)
    assert brute_force_band_oracle(ctx, 0.0)


def test_paper_form_bounds_conservative():
    from hessmpc.mtip import paper_form_bounds

    rng = np.random.default_rng(55)
    for _ in range(200):
        j = int(rng.integers(2, 40))
        ctx = _ctx(
            rng.normal(0.0, rng.uniform(0.1, 20.0), j),
            energy=float(rng.uniform(10.0, 90.0)), envelope=(0.0, 100.0),
            eta_c=float(rng.uniform(0.6, 1.0)), eta_d=float(rng.uniform(0.6, 1.0)),
            dt_child_h=1.0 / 60.0,
        )
        lo_exact, hi_exact = physical_bounds(ctx)
        lo_paper, hi_paper = paper_form_bounds(ctx)
        # The potential-based closed form never claims more capability than
        # the exact inversion on the discharge side.
        assert hi_paper <= hi_exact + 1e-9
    # And it coincides exactly when the fluctuation vanishes.
    ctx0 = _ctx(np.zeros(6), energy=40.0, envelope=(0.0, 100.0),
                eta_c=0.85, eta_d=0.8, dt_child_h=0.25)
    assert paper_form_bounds(ctx0) == pytest.approx(physical_bounds(ctx0))
