import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import goldens
import oracles
from hessmpc.mpc import LayerSpec, build_layer_problem
from hessmpc.qp import (
    INFEASIBLE, OPTIMAL, StepStructure, _objective_from_structure, _solve_priced,
    _solve_steps, solve_qp,
)
from oracles import QpProblem, dense_problem, read_solve, solve_dense, validate


def projected_gradient_box(h, f, lo, hi, tol=1e-8, max_iter=200_000):
    """Independent oracle: projected gradient with fixed 1/L step."""
    lam = np.linalg.eigvalsh(h).max()
    step = 1.0 / max(lam, 1e-12)
    x = np.clip(np.zeros(f.size), lo, hi)
    for _ in range(max_iter):
        g = h @ x + f
        x_new = np.clip(x - step * g, lo, hi)
        if np.abs(x_new - x).max() < tol:
            return x_new, True
        x = x_new
    return x, False


def _random_psd_problem(rng, n):
    a = rng.normal(size=(n, n))
    h = a.T @ a + np.diag(rng.uniform(0.1, 1.0, n))
    f = rng.normal(scale=5.0, size=n)
    lo = rng.uniform(-3.0, 0.0, n)
    hi = lo + rng.uniform(0.5, 4.0, n)
    return QpProblem(hessian=h, f=f, var_lower=lo, var_upper=hi)


def _layer(q, c_y, price, rhat, lo, hi, band_lo=None, band_hi=None):
    """A layer problem and its (N, nu) boxes; bounds given per input are
    held across the steps, and absent bands are +-inf."""
    rhat = np.asarray(rhat, dtype=np.float64)
    c_y = np.asarray(c_y, dtype=np.float64)
    n, nu = rhat.size, c_y.size
    problem = StepStructure(
        c_y=c_y, q=q, rhat=rhat, price=np.asarray(price, dtype=np.float64),
        band_lo=np.full(n, -np.inf) if band_lo is None else np.asarray(band_lo, dtype=np.float64),
        band_hi=np.full(n, np.inf) if band_hi is None else np.asarray(band_hi, dtype=np.float64),
    )
    box = [np.broadcast_to(np.asarray(b, dtype=np.float64), (n, nu)).copy() for b in (lo, hi)]
    return problem, *box


def test_unconstrained_closed_form():
    p = QpProblem(hessian=2.0 * np.eye(2), f=np.array([-2.0, -2.0]),
                  var_lower=np.full(2, -np.inf), var_upper=np.full(2, np.inf))
    s = solve_dense(p)
    assert s.status == OPTIMAL
    assert np.allclose(s.u_star, [1.0, 1.0])
    assert s.objective == pytest.approx(-2.0)


def test_degenerate_box():
    p = QpProblem(hessian=2.0 * np.eye(2), f=np.array([-2.0, -2.0]),
                  var_lower=np.zeros(2), var_upper=np.zeros(2))
    s = solve_dense(p)
    assert s.status == OPTIMAL
    assert np.allclose(s.u_star, 0.0)


@pytest.mark.parametrize("band, status", [
    (None, OPTIMAL), ((-10.0, 50.0), OPTIMAL), ((50.0, 60.0), INFEASIBLE),
])
def test_dense_oracle_eliminates_fixed_inputs(band, status):
    # Every input of the four-input row boxed to [0, 0]: u = 0 is the only
    # point, feasible unless the band excludes the forecast. Regularizing
    # the rank-one Hessian over the fixed inputs made the dense method call
    # the unbanded problem infeasible.
    kw = {} if band is None else {"band_lo": [band[0]], "band_hi": [band[1]]}
    layer = _layer(0.09, [-1.0, 1.0, 0.0, 1.0], [0.89, -0.7, 0.11, 0.37], [46.0],
                   0.0, 0.0, **kw)
    s = solve_dense(dense_problem(*layer))
    assert s.status == status
    if status == OPTIMAL:
        assert s.u_star.tobytes() == np.zeros(4).tobytes()
        assert s.objective == pytest.approx(0.09 * 46.0 ** 2)


def test_dense_oracle_keeps_free_inputs_beside_fixed_ones():
    # One input pinned at 2, the other free: the free one alone tracks.
    p = QpProblem(hessian=np.array([[2.0, 1.0], [1.0, 2.0]]), f=np.array([-2.0, -6.0]),
                  var_lower=np.array([2.0, -10.0]), var_upper=np.array([2.0, 10.0]))
    s = solve_dense(p, 1e-8, 500)
    assert s.status == OPTIMAL
    assert s.u_star[0] == 2.0
    # 2 u1 + 1 * 2 - 6 = 0
    assert s.u_star[1] == pytest.approx(2.0)
    assert s.objective == pytest.approx(0.5 * (8.0 + 8.0 + 8.0) - 4.0 - 12.0)


def test_solver_matches_projected_gradient_oracle():
    rng = np.random.default_rng(2024)
    for trial in range(120):
        n = int(rng.integers(2, 7))
        p = _random_psd_problem(rng, n)
        ref, converged = projected_gradient_box(
            p.hessian, p.f, p.var_lower, p.var_upper)
        assert converged
        s = solve_dense(p)
        assert s.status == OPTIMAL, trial
        assert np.abs(s.u_star - ref).max() < 1e-5, trial


def test_optimum_beats_random_feasible_points():
    rng = np.random.default_rng(5)
    p = _random_psd_problem(rng, 5)
    s = solve_dense(p)
    h, f = p.hessian, p.f
    for _ in range(1000):
        x = rng.uniform(p.var_lower, p.var_upper)
        obj = 0.5 * x @ h @ x + f @ x
        assert s.objective <= obj + 1e-9


def test_scaling_invariance():
    rng = np.random.default_rng(11)
    p = _random_psd_problem(rng, 4)
    s1 = solve_dense(p)
    p2 = QpProblem(hessian=7.0 * p.hessian, f=7.0 * p.f, var_lower=p.var_lower,
                   var_upper=p.var_upper)
    s2 = solve_dense(p2)
    assert np.abs(s1.u_star - s2.u_star).max() < 1e-6


def test_determinism_bitwise():
    rng = np.random.default_rng(3)
    p = _random_psd_problem(rng, 6)
    s1 = solve_dense(p)
    p_again = QpProblem(hessian=p.hessian.copy(), f=p.f.copy(),
                        var_lower=p.var_lower.copy(), var_upper=p.var_upper.copy())
    s2 = solve_dense(p_again)
    assert np.array_equal(s1.u_star, s2.u_star)
    assert s1.objective == s2.objective


def test_tracking_assembly_rank_one_block():
    c_y = np.array([-1.0, 1.0, 0.0, 1.0])
    p = dense_problem(*_layer(1.0, c_y, np.zeros(4), [10.0], 0.0, 100.0))
    h = p.hessian
    assert np.allclose(h, 2.0 * np.outer(c_y, c_y))
    assert np.linalg.matrix_rank(h) == 1
    assert np.linalg.eigvalsh(h).min() >= -1e-12
    validate(p)


def test_tracking_assembly_kronecker_blocks():
    c_y = np.array([-1.0, 1.0])
    q = 0.27
    h = dense_problem(*_layer(q, c_y, np.zeros(2), [10.0, -4.0], 0.0, 50.0)).hessian
    block = 2.0 * q * np.outer(c_y, c_y)
    assert np.allclose(h[:2, :2], block)
    assert np.allclose(h[2:, 2:], block)
    assert np.allclose(h[:2, 2:], 0.0)


def test_pure_tracking_linear_term():
    q = 2.0
    rv = np.array([3.0, -1.0])
    p = dense_problem(*_layer(q, [1.0], [0.0], rv, 0.0, 10.0))
    assert np.allclose(p.f, -2.0 * q * rv)


def test_cost_term_added_to_linear():
    # The price row is the cost vector scaled by the cost weight and the step
    # length, and it adds to the tracking term of the linear part.
    spec = LayerSpec(layer_id="L", dt_h=0.25, horizon=1, tracking_weight=1.0,
                     cost_weight=0.5, cost_vec=[4.0], output_row=[1.0], u_max=[10.0])
    problem = build_layer_problem(spec, [3.0])
    assert problem.price.tolist() == [0.5 * 4.0 * 0.25]
    p = dense_problem(problem, [[0.0]], [[10.0]])
    assert np.allclose(p.f, -2.0 * 3.0 + 0.5 * 4.0 * 0.25)


def test_band_infeasibility_detected():
    layer = _layer(1.0, [1.0], [0.0], [50.0], 0.0, 10.0, band_lo=[-1.0], band_hi=[1.0])
    assert solve_qp(*layer).status == INFEASIBLE
    # Same problem through the dense oracle.
    assert solve_dense(dense_problem(*layer)).status == INFEASIBLE


def test_separable_matches_active_set_on_layer_problems():
    rng = np.random.default_rng(77)
    for trial in range(40):
        n = int(rng.integers(1, 9))
        c_y = np.array([-1.0, 1.0])
        q = float(rng.uniform(0.05, 2.0))
        cost = rng.uniform(0.0, 1.0, 2)
        rv = rng.normal(0.0, 40.0, n)
        caps = rng.uniform(5.0, 80.0, (n, 2))
        band_lo = np.full(n, -np.inf)
        band_hi = np.full(n, np.inf)
        if trial % 3 == 0:
            band_lo[0] = -abs(rng.normal(0, 10))
            band_hi[0] = abs(rng.normal(0, 10))
        layer = _layer(q, c_y, cost * 0.5, rv, 0.0, caps, band_lo, band_hi)
        s_fast = solve_qp(*layer)
        s_ref = solve_dense(dense_problem(*layer))
        if s_fast.status == INFEASIBLE:
            assert s_ref.status == INFEASIBLE, trial
            continue
        assert s_ref.status == OPTIMAL
        assert np.abs(s_fast.u_star - s_ref.u_star).max() < 1e-5, trial
        assert s_fast.objective == pytest.approx(s_ref.objective, abs=1e-5)


def test_four_actuator_separable_matches_active_set():
    rng = np.random.default_rng(123)
    c_y = np.array([-1.0, 1.0, 0.0, 1.0])
    for trial in range(25):
        n = int(rng.integers(1, 6))
        q = 0.27
        cost = rng.uniform(0.1, 1.0, 4)
        rv = rng.normal(0.0, 60.0, n)
        caps = rng.uniform(10.0, 120.0, (n, 4))
        lo = np.zeros((n, 4))
        lo[:, 2] = rng.uniform(0.0, 5.0, n)   # conversion floors
        layer = _layer(q, c_y, cost, rv, lo, caps)
        s_fast = solve_qp(*layer)
        s_ref = solve_dense(dense_problem(*layer))
        assert s_ref.status == OPTIMAL
        assert np.abs(s_fast.u_star - s_ref.u_star).max() < 2e-5, trial


def test_coupling_row_matches_active_set():
    # A full-horizon row that binds the steps before k_end: the solver plans
    # those steps with the row, and the steps from k_end on apart without
    # it. The objective of each block must match the dense oracle's, which
    # solves the whole problem at once.
    rng = np.random.default_rng(9)
    c_y = np.array([-1.0, 1.0])
    pattern = np.array([0.9, -1.0 / 0.9]) * 0.25
    free_blocks = 0
    for trial in range(30):
        n = int(rng.integers(2, 7))
        k_end = int(rng.integers(1, n + 1))
        q = float(rng.uniform(0.1, 1.0))
        cost = rng.uniform(0.05, 0.8, 2)
        rv = rng.normal(0.0, 30.0, n)
        caps = rng.uniform(10.0, 60.0, (n, 2))
        b_max = float((np.where(pattern > 0, caps[:k_end], 0.0) * pattern).sum())
        b = float(rng.uniform(-0.2, 0.4)) * b_max
        layer = _layer(q, c_y, cost * 0.25, rv, 0.0, caps)
        head, tail = oracles.split_steps(*layer, k_end)
        s_head = solve_qp(*head, terminal=(pattern, b))
        s_ref = solve_dense(dense_problem(*layer, terminal=(pattern, k_end, b)))
        assert s_ref.status == OPTIMAL
        u_ref = s_ref.u_star.reshape(n, 2)
        u_head = s_head.u_star.reshape(k_end, 2)
        assert abs(float((u_head @ pattern).sum()) - b) < 1e-5
        want = _objective_from_structure(head[0], u_ref[:k_end])
        assert s_head.objective == pytest.approx(want, rel=1e-6, abs=1e-6), trial
        if k_end < n:
            s_tail = solve_qp(*tail)
            want = _objective_from_structure(tail[0], u_ref[k_end:])
            assert s_tail.objective == pytest.approx(want, rel=1e-6, abs=1e-6), trial
            assert s_head.objective + s_tail.objective == \
                pytest.approx(s_ref.objective, rel=1e-6, abs=1e-6), trial
        free_blocks += k_end < n
    assert free_blocks >= 15


def test_coupling_row_slack_reported():
    layer = _layer(1.0, [-1.0, 1.0], [0.1, 0.1], np.zeros(3), 0.0, 10.0)
    # Target beyond what the box can ever store.
    s = solve_qp(*layer, terminal=(np.array([0.9, -1.0 / 0.9]), 100.0))
    assert s.coupling_slack > 0.0


def test_terminal_row_refuses_band_rows():
    # The dual's reach and slack are computed on the box alone, so a banded
    # problem cannot take the terminal-row path.
    layer = _layer(1.0, [-1.0, 1.0], [0.1, 0.1], np.zeros(3), 0.0, 10.0,
                   band_lo=[-1.0, -np.inf, -np.inf], band_hi=[1.0, np.inf, np.inf])
    with pytest.raises(ValueError, match="band rows"):
        solve_qp(*layer, terminal=(np.array([0.9, -1.0 / 0.9]), 1.0))


def test_min_norm_tiebreak_on_singular_hessian():
    # Zero cost, rank-1 tracking: any (u_c, u_d) with u_d - u_c = y is
    # optimal; both paths must return the no-simultaneous-dispatch point.
    layer = _layer(1.0, [-1.0, 1.0], np.zeros(2), [5.0], 0.0, 50.0)
    s_fast = solve_qp(*layer)
    s_ref = solve_dense(dense_problem(*layer))
    assert np.allclose(s_fast.u_star, [0.0, 5.0], atol=1e-9)
    assert np.allclose(s_ref.u_star, [0.0, 5.0], atol=1e-5)
    assert s_ref.regularized


def test_validate_rejects_asymmetric():
    h = np.array([[1.0, 0.2], [0.0, 1.0]])
    p = QpProblem(hessian=h, f=np.zeros(2), var_lower=np.zeros(2), var_upper=np.ones(2))
    with pytest.raises(ValueError):
        validate(p)


@pytest.mark.parametrize("terminal", [None, (np.array([0.95, -1.0 / 0.9]), -0.0)],
                         ids=["no_terminal", "terminal"])
def test_dump_problem_round_trips_bit_for_bit(terminal):
    # Every block of a solve trace line reads back with its bits: signed
    # zeros, subnormal-scale values, the band on the first step and the
    # terminal row; written again, it gives the same line. A non-finite
    # value is no standard JSON and raises.
    from hessmpc.engine import _solve_line
    from hessmpc.mpc import LayerDecision
    from hessmpc.mtip import MtipBounds

    spec = LayerSpec(layer_id="L3", dt_h=1.0 / 60.0, horizon=3, tracking_weight=0.1 + 0.2,
                     cost_weight=1.0, cost_vec=np.array([1.0 / 3.0, 0.0]),
                     output_row=np.array([-1.0, 1.0]), u_max=np.array([50.0, 50.0]))
    fc = np.array([-0.0, 2.5e-300, 7.0])
    band = MtipBounds(-1.0, -0.0, 0.5)
    lo = np.array([[-0.0, 0.0]] * 3)
    hi = np.array([[50.0, 1e-7]] * 3)
    dec = LayerDecision(u_applied=(0.0, 1.0 / 7.0), output=1.0 / 7.0, cost=0.0, solution=None)
    line = _solve_line(spec, 60.0, fc, lo, hi, band, terminal, dec)
    st2, lo2, hi2, terminal2 = read_solve(line)
    st = build_layer_problem(spec, fc, band)
    for name in ("c_y", "rhat", "price", "band_lo", "band_hi"):
        assert getattr(st2, name).tobytes() == getattr(st, name).tobytes(), name
    assert st2.q == st.q
    assert lo2.tobytes() == lo.tobytes() and hi2.tobytes() == hi.tobytes()
    if terminal is None:
        assert terminal2 is None
    else:
        assert terminal2[0].tobytes() == terminal[0].tobytes()
        assert terminal2[1] == terminal[1]
        assert math.copysign(1.0, terminal2[1]) == -1.0
    band2 = MtipBounds(st2.band_lo[0], st2.band_hi[0], band.gamma)
    assert _solve_line(spec, 60.0, st2.rhat, lo2, hi2, band2, terminal2, dec) == line
    with pytest.raises(ValueError):
        _solve_line(spec, 60.0, fc, lo, np.full((3, 2), np.inf), band, terminal, dec)


def test_fill_order_solve_matches_golden():
    # Bytes of the solution and of the chosen outputs, signs of zeros
    # included, on draws that make candidate outputs tie with their bounds.
    gold = goldens.load("fill_order.json")
    fresh = goldens.compute_fill_order()
    assert sorted(fresh) == sorted(gold)
    for name, want in gold.items():
        assert fresh[name] == want, name


def test_coupled_solver_matches_golden():
    # Every trial dual of the terminal-row search goes through the fill-order
    # solve, so any change in its arithmetic shows up here: in the solution
    # bytes, the iteration count or the warm-start dual left behind.
    gold = goldens.load("coupled_solver.json")
    fresh = goldens.compute_coupled_solver()
    assert sorted(fresh) == sorted(gold)
    for name, want in gold.items():
        assert fresh[name] == want, name


@st.composite
def _step_problems(draw):
    """One stacked layer problem: the two-input store row or the four-input
    hydrogen row, prices of either sign, floors up to the cap and an optional
    band on the first step. Caps are often exactly zero, so steps at an
    envelope edge (no charge room, or no discharge room) and steps without
    any room are common."""
    four = draw(st.booleans())
    c_y = np.array([-1.0, 1.0, 0.0, 1.0]) if four else np.array([-1.0, 1.0])
    nu = c_y.size
    n = draw(st.integers(1, 6))
    q = draw(st.floats(0.05, 2.0))
    price = draw(st.lists(st.floats(-1.0, 1.0), min_size=nu, max_size=nu))
    rhat = draw(st.lists(st.floats(-80.0, 80.0), min_size=n, max_size=n))
    room = st.one_of(st.just(0.0), st.floats(0.0, 60.0))
    hi = np.array(draw(st.lists(room, min_size=n * nu, max_size=n * nu))).reshape(n, nu)
    lo = np.zeros((n, nu))
    if four:
        lo[:, 2] = hi[:, 2] * np.array(
            draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=n, max_size=n)))
    band_lo = np.full(n, -np.inf)
    band_hi = np.full(n, np.inf)
    if draw(st.booleans()):
        band_lo[0] = draw(st.floats(-40.0, 0.0))
        band_hi[0] = band_lo[0] + draw(st.floats(0.0, 40.0))
    return _layer(q, c_y, price, rhat, lo, hi, band_lo, band_hi)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_step_problems())
def test_fill_order_solve_matches_active_set_oracle(layer):
    st_, lo, hi = layer
    u, _, feasible = _solve_steps(st_, lo, hi)
    ref = solve_dense(dense_problem(st_, lo, hi))
    if not feasible:
        assert ref.status != OPTIMAL
        return
    assert np.all(u >= lo) and np.all(u <= hi)
    resid = st_.rhat - u @ st_.c_y
    assert np.all(resid >= st_.band_lo - 1e-6) and np.all(resid <= st_.band_hi + 1e-6)
    # The fill-order solve is exact; the dense oracle is regularized and, on
    # the four-input row, sometimes stops short or declares a feasible
    # problem infeasible. So the feasible point above must be at least as
    # good as any optimum the oracle reports, to the coupling test's
    # tolerance.
    if ref.status == OPTIMAL:
        assert _objective_from_structure(st_, u) <= ref.objective + max(1e-6, 1e-6 * abs(ref.objective))


#: Terminal-row coefficients (eta_c and -1/eta_d over a step, and their
#: like) and inert zeros.
_ROW_COEFFS = (0.0, 0.2125, -0.2941176470588235, 0.9, -1.1111111111111112, -1.0, 1.0)


def _duals_near_crossings(data, st_):
    """A terminal-row pattern and trial duals for st_, many of them near a
    zero crossing of a shifted price, where the base flips, the fill moves
    reorder and a fill direction can lose all its room."""
    nu = st_.nu
    a0 = np.array(data.draw(st.lists(st.sampled_from(_ROW_COEFFS), min_size=nu, max_size=nu)))
    crossings = [-st_.price[k] / a0[k] for k in range(nu) if a0[k] != 0.0]
    near = st.tuples(st.sampled_from(crossings or [0.0]),
                     st.sampled_from([0.0, -1e-9, 1e-9, -0.05, 0.05]))
    mus = data.draw(st.lists(st.one_of(near.map(sum), st.floats(-5.0, 5.0)),
                             min_size=1, max_size=12))
    return a0, mus


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(layer=_step_problems(), data=st.data())
def test_shared_plan_store_matches_fresh_solves(layer, data):
    # The coupled solve prices every trial at price + mu * pattern and keeps
    # one plan store for all of them. Duals near each zero crossing of a
    # shifted price flip the base and reorder the fill moves; a shared store
    # must still give the bytes of a fresh solve per dual.
    st_, lo, hi = layer
    a0, mus = _duals_near_crossings(data, st_)
    price0 = st_.price
    plans: dict = {}
    for mu in mus:
        got = _solve_priced(st_, lo, hi, price0 + mu * a0, lo.any(), plans)
        want = _solve_steps(dataclasses.replace(st_, price=price0 + mu * a0), lo, hi)
        assert got[0].tobytes() == want[0].tobytes(), mu
        assert got[1].tobytes() == want[1].tobytes(), mu
        assert got[2] == want[2]
    assert len(plans) <= len(mus)


def _signed_zeros(data, layer):
    """When drawn, layer with whole-numbered forecasts, boxes and band edges,
    so that candidate outputs tie with their bounds, many of them zeros of
    either sign."""
    if not data.draw(st.booleans()):
        return layer
    st_, lo, hi = layer

    def whole(x):
        pick = data.draw(st.lists(st.sampled_from((None, 0.0, -0.0)),
                                  min_size=x.size, max_size=x.size))
        return np.array([w if v is None else v
                         for v, w in zip(pick, np.round(x).ravel().tolist())]).reshape(x.shape)

    band_lo, band_hi, lo, hi = (whole(x) for x in (st_.band_lo, st_.band_hi, lo, hi))
    st_ = dataclasses.replace(st_, rhat=whole(st_.rhat), band_lo=np.fmin(band_lo, band_hi),
                              band_hi=band_hi)
    return st_, np.where(lo > hi, hi, lo), hi


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(layer=_step_problems(), data=st.data())
def test_fill_order_scan_matches_reference_bytes(layer, data):
    # The package's scan leaves out fill directions without room and reads
    # its plan's precomputed layout; the reference scans every move of both
    # directions with np.clip. Signs of zeros included, u and y must agree
    # at every trial dual, with one plan store across the trials.
    st_, lo, hi = _signed_zeros(data, layer)
    a0, mus = _duals_near_crossings(data, st_)
    plans: dict = {}
    for mu in mus:
        price = st_.price + mu * a0
        got = _solve_priced(st_, lo, hi, price.tolist(), lo.any(), plans)
        want = oracles.solve_priced(st_, lo, hi, price)
        assert got[0].tobytes() == want[0].tobytes(), mu
        assert got[1].tobytes() == want[1].tobytes(), mu
        assert got[2] == want[2]
