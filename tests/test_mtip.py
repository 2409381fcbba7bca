import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hessmpc.devices import EssState
from hessmpc.mtip import (
    MAX_STEPS, MtipBounds, _prefix_row_sums, adaptive_bounds, blend_gamma, flat_bounds,
    marginal_cost, physical_bounds, psi,
)
from oracles import brute_force_band_oracle, fluctuation_potentials, paper_form_bounds


def _band(xi, energy=500.0, envelope=(0.0, 1000.0), eta_c=1.0, eta_d=1.0,
          dt_child_h=0.25):
    """(xi, child store, child energy, micro step) arguments of the band
    functions."""
    store = EssState(envelope=envelope, power_cap=1e9, eta_c=eta_c, eta_d=eta_d)
    return np.asarray(xi, dtype=np.float64), store, energy, dt_child_h


def test_psi_examples():
    assert psi(0.0, 0.9, 0.9) == 0.0
    assert psi(83.0, 0.9, 0.83) == pytest.approx(100.0)
    assert psi(-100.0, 0.83, 0.9) == pytest.approx(-83.0)
    # Elementwise on arrays, with p = 0 on the discharge side.
    assert psi(np.array([83.0, 0.0, -100.0]), 0.83, 0.83).tolist() == [
        83.0 / 0.83, 0.0, -100.0 * 0.83]


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
    args = _band(np.zeros(4), energy=500.0, envelope=(0.0, 1000.0))
    lo, hi = physical_bounds(*args)
    assert hi == pytest.approx(500.0)
    assert lo == pytest.approx(-500.0)


def test_virtual_capacity_at_floor():
    # Empty store with early surplus still admits a positive baseline.
    xi = np.array([-40.0, 10.0, 10.0, 10.0])
    args = _band(xi, energy=0.0, envelope=(0.0, 1000.0), eta_c=0.9, eta_d=0.9)
    _, hi = physical_bounds(*args)
    assert hi > 0.0
    assert brute_force_band_oracle(*args, hi - 1e-6)
    assert not brute_force_band_oracle(*args, hi + 1.0)


def test_virtual_capacity_at_ceiling():
    xi = np.array([40.0, -10.0, -10.0, -10.0])
    args = _band(xi, energy=1000.0, envelope=(0.0, 1000.0), eta_c=0.9, eta_d=0.9)
    lo, _ = physical_bounds(*args)
    assert lo < 0.0
    assert brute_force_band_oracle(*args, lo + 1e-6)
    assert not brute_force_band_oracle(*args, lo - 1.0)


def oracle_gap(xi, store, energy, dt_h):
    """Largest distance (MW) between the edges of ``physical_bounds`` and
    the oracle's admissible set, found by 70-step bisection outward from
    the band midpoint; None for a crossed band, whose midpoint the oracle
    must refuse."""
    lo, hi = physical_bounds(xi, store, energy, dt_h)

    def admissible(r):
        return brute_force_band_oracle(xi, store, energy, dt_h, r)

    if lo > hi:
        assert not admissible(0.5 * (lo + hi))
        return None
    span = max(abs(lo), abs(hi), 1.0)
    a, b = 0.5 * (lo + hi), hi + 4 * span + 1
    for _ in range(70):
        m = 0.5 * (a + b)
        if admissible(m):
            a = m
        else:
            b = m
    gap = abs(a - hi)
    a, b = lo - 4 * span - 1, 0.5 * (lo + hi)
    for _ in range(70):
        m = 0.5 * (a + b)
        if admissible(m):
            b = m
        else:
            a = m
    return max(gap, abs(b - lo))


def test_bounds_match_oracle_bisection():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(150):
        j = int(rng.integers(2, 97))
        dt = float(rng.choice([1.0 / 3600.0, 1.0 / 60.0, 0.25]))
        cap = float(rng.uniform(1.0, 100.0))
        gap = oracle_gap(*_band(
            rng.normal(0.0, rng.uniform(0.1, 30.0), j),
            energy=float(rng.uniform(0.0, cap)), envelope=(0.0, cap),
            eta_c=float(rng.uniform(0.5, 1.0)), eta_d=float(rng.uniform(0.5, 1.0)),
            dt_child_h=dt,
        ))
        worst = max(worst, gap or 0.0)
    assert worst < 1e-6


@st.composite
def _band_cases(draw):
    """Child states with the energy at the floor, at the ceiling or inside
    the envelope; fluctuations that are all zero or drawn (narrow envelopes
    under large swings give crossed bands)."""
    n = draw(st.integers(1, 24))
    e_lo = draw(st.floats(0.0, 50.0))
    width = draw(st.one_of(st.sampled_from([1e-3, 0.05]), st.floats(0.5, 100.0)))
    e_hi = e_lo + width
    energy = draw(st.one_of(st.sampled_from([e_lo, e_hi]), st.floats(e_lo, e_hi)))
    scale = draw(st.floats(0.1, 30.0))
    xi = draw(st.one_of(
        st.just([0.0] * n),
        st.lists(st.floats(-scale, scale), min_size=n, max_size=n),
    ))
    return _band(
        xi, energy=energy, envelope=(e_lo, e_hi),
        eta_c=draw(st.floats(0.5, 1.0)), eta_d=draw(st.floats(0.5, 1.0)),
        dt_child_h=draw(st.sampled_from([1.0 / 3600.0, 1.0 / 60.0, 0.25])),
    )


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_band_cases())
def test_physical_bounds_match_oracle_property(args):
    gap = oracle_gap(*args)
    assert gap is None or gap < 1e-6


def test_property_cases_reach_edges_and_crossed_bands():
    # The strategy above must draw each case the property is about.
    seen = set()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_band_cases())
    def record(args):
        xi, store, energy, dt_h = args
        lo, hi = physical_bounds(xi, store, energy, dt_h)
        seen.add("crossed" if lo > hi else "banded")
        seen.add("zero" if not xi.any() else "fluctuating")
        if energy == store.envelope[0]:
            seen.add("floor")
        if energy == store.envelope[1]:
            seen.add("ceiling")

    record()
    assert seen == {"crossed", "banded", "zero", "fluctuating", "floor", "ceiling"}


def _reference_invert(bs, gs, eta_c, eta_d, target):
    j = bs.size
    if target >= gs[-1]:
        return float(bs[-1] + (target - gs[-1]) * eta_d / j)
    if target <= gs[0]:
        return float(bs[0] - (gs[0] - target) / (j * eta_c))
    k = int(np.searchsorted(gs, target, side="right"))
    slope = k / eta_d + (j - k) * eta_c
    return float(bs[k - 1] + (target - gs[k - 1]) / slope)


def _reference_physical_bounds(xi, store, energy, dt_h):
    """physical_bounds with its own j x j flow matrix and stable argsort for
    every prefix j: the per-prefix form the shared flow matrix must match
    bit for bit."""
    eta_c, eta_d = store.eta_c, store.eta_d
    if not np.any(xi):
        return flat_bounds(store, energy, dt_h, xi.size)
    lo_env, hi_env = store.envelope
    k_floor = (energy - lo_env) / dt_h
    k_ceil = (energy - hi_env) / dt_h
    r_hi = np.inf
    r_lo = -np.inf
    for jj in range(1, xi.size + 1):
        breaks = -xi[:jj]
        flow_at = psi(breaks[:, None] + xi[None, :jj], eta_c, eta_d).sum(axis=1)
        order = np.argsort(breaks, kind="stable")
        bs, gs = breaks[order], flow_at[order]
        r_hi = min(r_hi, _reference_invert(bs, gs, eta_c, eta_d, k_floor))
        r_lo = max(r_lo, _reference_invert(bs, gs, eta_c, eta_d, k_ceil))
    return float(r_lo), float(r_hi)


@st.composite
def _bit_cases(draw):
    """Band arguments with repeated and signed-zero fluctuation entries,
    the energy at either envelope edge or inside, and any efficiencies in
    (0, 1]; n covers the L1 (4) and L2 (15) band lengths, every length up to
    60 (L3's band, over the seconds of a minute, is the layer table's
    longest) and the limit of 128."""
    n = draw(st.one_of(st.sampled_from([4, 15, 60, MAX_STEPS]), st.integers(1, 60)))
    pool = draw(st.lists(st.floats(-30.0, 30.0), min_size=1, max_size=3))
    entry = st.one_of(st.sampled_from(pool + [0.0, -0.0]), st.floats(-30.0, 30.0))
    xi = draw(st.lists(entry, min_size=n, max_size=n))
    e_lo = draw(st.floats(0.0, 50.0))
    e_hi = e_lo + draw(st.one_of(st.sampled_from([1e-3, 0.05]), st.floats(0.5, 100.0)))
    eff = st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True))
    return _band(
        xi, energy=draw(st.one_of(st.sampled_from([e_lo, e_hi]), st.floats(e_lo, e_hi))),
        envelope=(e_lo, e_hi), eta_c=draw(eff), eta_d=draw(eff),
        dt_child_h=draw(st.sampled_from([1.0 / 3600.0, 1.0 / 60.0, 0.25])),
    )


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(_bit_cases())
def test_physical_bounds_match_per_prefix_reference_bit_for_bit(args):
    # Efficiencies near zero overflow the flows to inf on both sides alike.
    got = np.array(physical_bounds(*args))
    want = np.array(_reference_physical_bounds(*args))
    assert got.tobytes() == want.tobytes(), (got, want)


@pytest.mark.parametrize("xi", [np.linspace(-1.0, 1.0, MAX_STEPS + 1),
                                np.zeros(MAX_STEPS + 1)])
def test_physical_bounds_past_the_limit_raises(xi):
    with pytest.raises(ValueError, match=f"at most {MAX_STEPS} micro steps"):
        physical_bounds(*_band(xi))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(1, MAX_STEPS), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_prefix_row_sums_match_numpy_row_sums_bit_for_bit(n, rows, seed):
    # Mixed magnitudes make every summation order round differently;
    # signed zeros check the sum of an all -0.0 prefix.
    rng = np.random.default_rng(seed)
    flow = rng.normal(0.0, 1.0, (rows, n)) * 10.0 ** rng.integers(-8, 8, (rows, n))
    flow[rng.random((rows, n)) < 0.2] = -0.0
    flow[0, : rng.integers(0, n + 1)] = -0.0
    sums = _prefix_row_sums(flow)
    for j in range(1, n + 1):
        assert sums[:, j - 1].tobytes() == flow[:, :j].sum(axis=1).tobytes(), j


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


def _blend(phy, lambda_upper, lambda_lower, kappa, chi_th, eps_db):
    return adaptive_bounds(phy, blend_gamma(lambda_upper, lambda_lower, kappa, chi_th), eps_db)


def _blend_per_band(phy, lambda_upper, lambda_lower, kappa, chi_th, eps_db):
    """The blend with the sigmoid evaluated inline, as one expression per
    band: the reference the split into blend_gamma and adaptive_bounds must
    reproduce bit for bit."""
    ratio = lambda_upper / lambda_lower
    gamma = 1.0 / (1.0 + np.exp(min(-kappa * (ratio - chi_th), 700.0)))
    r_hi = gamma * phy[1] + (1.0 - gamma) * eps_db
    r_lo = gamma * phy[0] - (1.0 - gamma) * eps_db
    return float(r_lo), float(r_hi), float(gamma)


def test_gamma_sigmoid_midpoint_and_limits():
    b = _blend((-100.0, 100.0), 1.0, 1.0, 5.0, 1.0, 2.0)
    assert b.gamma == pytest.approx(0.5)
    b2 = _blend((-100.0, 100.0), 2.0, 1.0, 5.0, 1.0, 2.0)
    assert b2.gamma == pytest.approx(1.0 / (1.0 + np.exp(-5.0)))
    assert b2.r_upper == pytest.approx(b2.gamma * 100.0 + (1 - b2.gamma) * 2.0)
    b3 = _blend((-100.0, 100.0), 1e-9, 1.0, 5.0, 1.0, 2.0)
    assert b3.gamma == pytest.approx(1.0 / (1.0 + np.exp(5.0)), rel=1e-6)


def test_gamma_monotone_in_ratio():
    gammas = [
        _blend((-10.0, 10.0), r, 1.0, 5.0, 1.0, 2.0).gamma
        for r in (0.2, 0.5, 1.0, 2.0, 5.0)
    ]
    assert all(b > a for a, b in zip(gammas, gammas[1:]))
    assert all(0.0 < g < 1.0 for g in gammas)


def test_band_nesting_limits():
    phy = (-73.0, 41.0)
    # Gamma forced to 1: exactly the physical band.
    wide = _blend(phy, 1e6, 1.0, 5.0, 1.0, 2.0)
    assert wide.r_lower == pytest.approx(phy[0], rel=1e-6)
    assert wide.r_upper == pytest.approx(phy[1], rel=1e-6)
    # Gamma forced to ~0 (steep sigmoid below threshold): exactly +-eps_db
    # after float collapse.
    tight = _blend(phy, 0.5, 1.0, 1e4, 1.0, 2.0)
    assert tight.gamma < 1e-300
    assert tight.r_lower == -2.0
    assert tight.r_upper == 2.0


def test_crossed_physical_band_raises():
    # Even a blend that would come out ordered (gamma 0.5, eps_db 2) refuses
    # a crossed physical band; the engine collapses those before blending.
    for ratio in (1e6, 1.0):
        with pytest.raises(ValueError, match="crossed"):
            _blend((1.0, 0.5), ratio, 1.0, 5.0, 1.0, 2.0)
    with pytest.raises(ValueError, match="crossed"):
        _blend((0.0, np.nan), 1.0, 1.0, 5.0, 1.0, 2.0)
    with pytest.raises(ValueError):
        _blend((0.0, 1.0), 1.0, 0.0, 5.0, 1.0, 2.0)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.floats(-1e4, 1e4), st.floats(0.0, 1e4), st.floats(-1e3, 1e3),
    st.floats(1e-6, 1e3), st.floats(0.0, 100.0), st.floats(0.0, 50.0),
)
def test_blend_of_ordered_band_stays_ordered(lo, width, lam_up, lam_lo, kappa, eps_db):
    # Every rounding step of the blend is monotone, so an ordered physical
    # band and a non-negative deadband never give a crossed band.
    hi = lo + width
    b = _blend((lo, hi), lam_up, lam_lo, kappa, 1.0, eps_db)
    assert b.r_lower <= b.r_upper
    assert 0.0 <= b.gamma <= 1.0


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(
    st.floats(-1e4, 1e4), st.floats(0.0, 1e4),
    st.one_of(st.sampled_from([0.0, 1.0, 20.0, 1e6]), st.floats(-1e3, 1e3)),
    st.one_of(st.sampled_from([1.0, 20.0, 5e-3]), st.floats(1e-6, 1e3)),
    st.one_of(st.sampled_from([0.0, 5.0, 1e4]), st.floats(0.0, 1e4)),
    st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 10.0)),
    st.one_of(st.sampled_from([0.0, 2.0]), st.floats(0.0, 50.0)),
)
def test_blend_matches_per_band_formula_bit_for_bit(lo, width, lam_up, lam_lo, kappa,
                                                    chi_th, eps_db):
    # The engine computes gamma once per layer and blends every band with it;
    # band edges and gamma must keep the bits of the inline formula, signed
    # zeros included.
    phy = (lo, lo + width)
    b = _blend(phy, lam_up, lam_lo, kappa, chi_th, eps_db)
    got = struct.pack("<3d", b.r_lower, b.r_upper, b.gamma)
    assert got == struct.pack("<3d", *_blend_per_band(phy, lam_up, lam_lo, kappa, chi_th, eps_db))


def test_mtip_bounds_must_be_ordered():
    assert MtipBounds(-1.0, -1.0, 0.5).r_lower == -1.0
    assert MtipBounds(-np.inf, np.inf, 1.0).r_upper == np.inf
    for lo, hi in ((1.0, 0.0), (np.nan, 1.0), (0.0, np.nan)):
        with pytest.raises(ValueError, match="crossed or not a number"):
            MtipBounds(lo, hi, 0.5)


def test_oracle_trivial_cases():
    args = _band(np.zeros(4), energy=500.0)
    assert brute_force_band_oracle(*args, 0.0)


def test_paper_form_bounds_conservative():
    rng = np.random.default_rng(55)
    for _ in range(200):
        j = int(rng.integers(2, 40))
        args = _band(
            rng.normal(0.0, rng.uniform(0.1, 20.0), j),
            energy=float(rng.uniform(10.0, 90.0)), envelope=(0.0, 100.0),
            eta_c=float(rng.uniform(0.6, 1.0)), eta_d=float(rng.uniform(0.6, 1.0)),
            dt_child_h=1.0 / 60.0,
        )
        lo_exact, hi_exact = physical_bounds(*args)
        lo_paper, hi_paper = paper_form_bounds(*args)
        # The potential-based closed form never claims more capability than
        # the exact inversion on the discharge side.
        assert hi_paper <= hi_exact + 1e-9
    # And it coincides exactly when the fluctuation vanishes.
    args0 = _band(np.zeros(6), energy=40.0, envelope=(0.0, 100.0),
                eta_c=0.85, eta_d=0.8, dt_child_h=0.25)
    assert paper_form_bounds(*args0) == pytest.approx(physical_bounds(*args0))
