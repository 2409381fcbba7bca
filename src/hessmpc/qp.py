"""The layer problems and their solvers.

Every control layer solves the same shape of problem over its horizon
(:class:`StepStructure`): a per-step tracking penalty
``q * (rhat_i - c_y . u_i)^2``, one linear price row shared by every step,
per-step input boxes and optional residual-band rows. :func:`solve_qp`
solves it on that step structure, with no dense form:

* without a terminal row the steps separate, and each is solved in closed
  form, vectorized across steps;
* the periodic-SOC baseline adds one terminal equality, given as
  ``(pattern, k_end, target)``: ``pattern . u_i`` summed over the steps
  before k_end equals target. The steps from k_end on solve once on their
  own; the others are met through bisection on the scalar dual of that row,
  warm started from the dual the previous solve hands on. Each trial dual
  is a closed-form step solve at the price row shifted by the dual times
  the pattern; the part of that solve which depends on the prices only
  through their signs and the order of the fill moves (the fill plan) is
  built once per solve and shared by its trials.

:func:`dense_problem` writes the same problem in dense standard form
(``H = 2 C' (I x Q) C``, a linear term, boxes and constraint rows). Only
``debug_qp_dump`` and the tests use it; :func:`solve_dense`, a dual
active-set method on that form with fixed inputs substituted out first, is
the tests' oracle.

All paths are deterministic: identical problems yield bit-identical
solutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

OPTIMAL = "optimal"
MAX_ITER = "max_iter"
INFEASIBLE = "infeasible"

_DROP_TOL = 1e-12


@dataclass
class StepStructure:
    """One layer problem, separable by step.

    c_y maps one step's inputs to its grid output; rhat is the residual
    forecast per step; price the linear price per input, shared by every
    step (already scaled by the cost weight and the step length);
    band_lo/band_hi bound the post-dispatch residual per step (+-inf where
    absent). norm_power selects the tracking penalty exponent (2, or 3 for
    the flagged literal-cubic variant, which has no dense form).
    """

    c_y: np.ndarray
    q: float
    rhat: np.ndarray
    price: np.ndarray         # (nu,)
    band_lo: np.ndarray       # (N,)
    band_hi: np.ndarray       # (N,)
    norm_power: int = 2

    @property
    def n_steps(self) -> int:
        return self.rhat.size

    @property
    def nu(self) -> int:
        return self.c_y.size

    def take(self, steps: slice) -> StepStructure:
        """The same problem on a slice of its steps."""
        return StepStructure(self.c_y, self.q, self.rhat[steps], self.price,
                             self.band_lo[steps], self.band_hi[steps], self.norm_power)


@dataclass
class QpProblem:
    """A QP in dense standard form: minimize ``0.5 x'Hx + f.x +
    objective_const`` over ``var_lower <= x <= var_upper`` and
    ``lo <= g.x <= hi`` for each ``(g, lo, hi)`` of ``rows``."""

    hessian: np.ndarray
    f: np.ndarray
    var_lower: np.ndarray
    var_upper: np.ndarray
    rows: list[tuple[np.ndarray, float, float]] = field(default_factory=list)
    objective_const: float = 0.0

    def __post_init__(self):
        self.hessian = np.asarray(self.hessian, dtype=np.float64)
        self.f = np.asarray(self.f, dtype=np.float64)
        self.var_lower = np.asarray(self.var_lower, dtype=np.float64)
        self.var_upper = np.asarray(self.var_upper, dtype=np.float64)
        n = self.f.size
        if self.var_lower.size != n or self.var_upper.size != n:
            raise ValueError("bound vectors must match the variable count")
        if np.any(self.var_lower > self.var_upper + 1e-12):
            raise ValueError("var_lower must not exceed var_upper")

    @property
    def n(self) -> int:
        return self.f.size

    def ineq_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Dense (G, lower, upper) of the constraint rows."""
        if not self.rows:
            return np.zeros((0, self.n)), np.zeros(0), np.zeros(0)
        g, lo, hi = zip(*self.rows)
        return np.vstack(g), np.array(lo), np.array(hi)

    def validate(self, tol_sym: float = 1e-10, tol_psd: float = 1e-8) -> None:
        """Assert symmetry and positive semidefiniteness of the Hessian."""
        h = self.hessian
        asym = np.abs(h - h.T).max() if h.size else 0.0
        if asym > tol_sym:
            raise ValueError(f"Hessian asymmetry {asym} exceeds {tol_sym}")
        if h.size:
            w = np.linalg.eigvalsh(h)
            scale = max(np.abs(w).max(), 1.0)
            if w.min() < -tol_psd * scale:
                raise ValueError(f"Hessian indefinite: min eigenvalue {w.min()}")


@dataclass
class QpSolution:
    """mu_hint is the terminal-row dual to warm start the next solve from:
    the refined bracket's midpoint, else the hint this solve was given."""

    u_star: np.ndarray
    objective: float
    status: str
    kkt_residual: float
    iterations: int
    regularized: bool = False
    coupling_slack: float = 0.0
    mu_hint: float | None = None


def dense_problem(st: StepStructure, lo, hi, terminal=None) -> QpProblem:
    """``st`` within the per-step boxes lo/hi (one row per step) in dense
    standard form: band rows first, then the row of ``terminal`` (see
    :func:`solve_qp`), if given, as an equality."""
    if st.norm_power != 2:
        raise ValueError("dense form only exists for the quadratic penalty")
    n, nu = st.n_steps, st.nu
    h = np.zeros((n * nu, n * nu))
    block = 2.0 * st.q * np.outer(st.c_y, st.c_y)
    for i in range(n):
        h[i * nu : (i + 1) * nu, i * nu : (i + 1) * nu] = block
    rows = []
    for i in np.flatnonzero(np.isfinite(st.band_lo) | np.isfinite(st.band_hi)):
        g = np.zeros(n * nu)
        g[i * nu : (i + 1) * nu] = st.c_y
        # residual band: rhat - c_y.u in [blo, bhi] maps to
        # c_y.u in [rhat - bhi, rhat - blo]
        rows.append((g, st.rhat[i] - st.band_hi[i], st.rhat[i] - st.band_lo[i]))
    if terminal is not None:
        pattern, k_end, target = terminal
        a = np.zeros(n * nu)
        a[: k_end * nu] = np.tile(pattern, k_end)
        rows.append((a, target, target))
    return QpProblem(
        hessian=h,
        f=(-2.0 * st.q * st.rhat[:, None] * st.c_y[None, :] + st.price).ravel(),
        var_lower=np.asarray(lo, dtype=np.float64).ravel(),
        var_upper=np.asarray(hi, dtype=np.float64).ravel(),
        rows=rows,
        objective_const=st.q * float(st.rhat @ st.rhat),
    )


# ----------------------------------------------------------------------
# Separable closed-form path
# ----------------------------------------------------------------------

def charge_discharge_form(c_y, price, has_floor: bool) -> bool:
    """True when the charge/discharge closed form applies: one charge and
    one discharge input (output row +-1), no input floor, non-negative
    prices. c_y and price are arrays or lists."""
    return bool(
        len(c_y) == 2
        and c_y[0] * c_y[1] == -1.0
        and abs(c_y[0]) == 1.0
        and price[0] >= 0.0
        and price[1] >= 0.0
        and not has_floor
    )


def _np_max(a: float, b: float) -> float:
    # np.maximum's pick on ties (the second argument), which decides the
    # sign of a zero result; Python's max picks the first.
    return a if a > b else b


def _np_min(a: float, b: float) -> float:
    return a if a < b else b


def charge_discharge_step(
    q: float,
    norm_power: int,
    g_d: float,
    g_c: float,
    rhat: float,
    cap_d: float,
    cap_c: float,
    band_lo: float = -np.inf,
    band_hi: float = np.inf,
) -> tuple[float, float] | None:
    """One step of :func:`_solve_charge_discharge` in scalar form.

    g_d/g_c are the step prices of the discharge and charge inputs, cap_d/
    cap_c their caps and band_lo/band_hi the residual band. Returns the
    (discharge, charge) move, or None when the band window misses the
    achievable output range. Every operation matches the vectorized path
    element for element, so both give bit-identical moves.
    """
    if norm_power == 2:
        shift_d = g_d / (2.0 * q)
        shift_c = g_c / (2.0 * q)
    else:
        shift_d = math.sqrt(g_d / (3.0 * q))
        shift_c = math.sqrt(g_c / (3.0 * q))
    y_up = _np_min(_np_max(rhat - shift_d, 0.0), cap_d)
    y_dn = _np_max(_np_min(rhat + shift_c, 0.0), -cap_c)
    d_up = rhat - y_up
    d_dn = rhat - y_dn
    if norm_power == 2:
        f_up = q * d_up * d_up + g_d * y_up
        f_dn = q * d_dn * d_dn - g_c * y_dn
    else:
        # An array power, so the same pow kernel runs as in the stacked path.
        cubes = np.abs(np.array((d_up, d_dn))) ** 3
        f_up = q * cubes[0] + g_d * y_up
        f_dn = q * cubes[1] - g_c * y_dn
    y = y_up if f_up <= f_dn else y_dn
    y_lo = _np_max(-cap_c, rhat - band_hi)
    y_hi = _np_min(cap_d, rhat - band_lo)
    if y_lo > y_hi + 1e-9:
        return None
    y = _np_min(_np_max(y, y_lo), y_hi)
    return _np_max(y, 0.0), _np_max(-y, 0.0)


def _cd_plan(st: StepStructure, hi: np.ndarray) -> tuple | None:
    """Price-free part of :func:`_solve_charge_discharge`: the discharge
    and charge columns, their caps and the band window on y; None when the
    window misses the achievable output range."""
    i_d = 0 if st.c_y[0] > 0 else 1
    i_c = 1 - i_d
    cap_d = hi[:, i_d]
    cap_c = hi[:, i_c]
    y_lo = np.maximum(-cap_c, st.rhat - st.band_hi)
    y_hi = np.minimum(cap_d, st.rhat - st.band_lo)
    if np.any(y_lo > y_hi + 1e-9):
        return None
    return i_d, i_c, cap_d, cap_c, y_lo, y_hi


def _solve_charge_discharge(st: StepStructure, plan: tuple, price: np.ndarray):
    """Specialized path for one charge / one discharge input with zero
    floors and non-negative prices (every L2/L3 solve)."""
    i_d, i_c, cap_d, cap_c, y_lo, y_hi = plan
    q = st.q
    rhat = st.rhat
    g_d, g_c = price[i_d], price[i_c]
    if st.norm_power == 2:
        shift_d = g_d / (2.0 * q)
        shift_c = g_c / (2.0 * q)
    else:
        shift_d = np.sqrt(g_d / (3.0 * q))
        shift_c = np.sqrt(g_c / (3.0 * q))

    y_up = np.minimum(np.maximum(rhat - shift_d, 0.0), cap_d)
    y_dn = np.maximum(np.minimum(rhat + shift_c, 0.0), -cap_c)
    d_up = rhat - y_up
    d_dn = rhat - y_dn
    if st.norm_power == 2:
        f_up = q * d_up * d_up + g_d * y_up
        f_dn = q * d_dn * d_dn - g_c * y_dn
    else:
        f_up = q * np.abs(d_up) ** 3 + g_d * y_up
        f_dn = q * np.abs(d_dn) ** 3 - g_c * y_dn
    y_star = np.where(f_up <= f_dn, y_up, y_dn)
    # Objective is convex in y, so clipping the global argmin into the
    # band window yields the constrained argmin.
    y_star = np.minimum(np.maximum(y_star, y_lo), y_hi)
    u = np.empty((st.n_steps, 2))
    u[:, i_d] = np.maximum(y_star, 0.0)
    u[:, i_c] = np.maximum(-y_star, 0.0)
    return u, y_star, True


def _fill_order(c_y: np.ndarray, price: np.ndarray) -> list[tuple]:
    """Moves away from the cost-minimal base, raising moves first, each
    direction cheapest first.

    A move raises (side 0) or lowers (side 1) one input, with a scalar
    price per unit |dy|, a per-step capacity in y units and the input
    change per unit dy. Every input with a nonzero output coefficient gives
    one move that raises y and one that lowers it. Only zero-capacity moves
    can carry a negative rate (base is cost-minimal), so the piecewise cost
    is convex. Each move is (rate, input, du per dy, side, dy per du).
    """
    fill: tuple[list, list] = ([], [])                     # raise y, lower y
    for k, (ck, pk) in enumerate(zip(c_y.tolist(), price.tolist())):
        if ck == 0.0:
            continue
        for side, u_dir in enumerate((1.0, -1.0)):
            move = (u_dir * pk / abs(ck), k, u_dir / abs(ck), side, abs(ck))
            fill[0 if u_dir * ck > 0.0 else 1].append(move)
    # Ties by input, then by direction.
    return [mv for way in fill for mv in sorted(way, key=lambda mv: mv[:3])]


@dataclass
class _FillPlan:
    """The price-free part of a fill-order solve. It depends on the price
    only through the set of negatively priced inputs (the base) and the
    order of the fill moves, so every price with the same two shares it."""

    base: np.ndarray      # (N, nu) cost-minimal configuration
    y_base: np.ndarray    # (N,)
    who: tuple            # input of each move, in fill order
    du: np.ndarray        # (2, m, 1) input change per unit dy
    caps: np.ndarray      # (2, m, N) move capacity in y units
    prev: np.ndarray      # (2, m, N) fill at each move's start
    seg: np.ndarray       # (2, 2, m, N) (lower, upper) x side
    window: np.ndarray    # (2, 2m, N) band window on y
    cand0: np.ndarray     # (N,) clipped base


def _fill_plan(st: StepStructure, lo: np.ndarray, hi: np.ndarray,
               negative: np.ndarray, moves: list[tuple]) -> _FillPlan | None:
    """The fill plan of base ``negative`` and fill order ``moves``; None
    when the band window misses the achievable output range."""
    n, nu = st.n_steps, st.nu
    # Cost-minimal base configuration: saturate negatively priced inputs.
    base = np.where(negative, hi, lo)                      # (N, nu)
    y_base = base @ st.c_y                                 # (N,)
    m = len(moves) // 2                                    # moves per direction
    nm = 2 * m
    _, who, du, side, scale = zip(*moves) if moves else ((),) * 5
    rooms = np.empty((2, nu, n))                           # room to raise, to lower
    np.subtract(hi.T, base.T, out=rooms[0])
    np.subtract(base.T, lo.T, out=rooms[1])
    caps = (rooms.reshape(2 * nu, n)[[sd * nu + k for sd, k in zip(side, who)]]
            * np.array(scale)[:, None]).reshape(2, m, n)
    edges = np.cumsum(caps, axis=1)                        # fill at each move's end
    prev = np.zeros((2, m, n))                             # ... and at its start
    prev[:, 1:] = edges[:, :-1]
    y_max = y_base + (edges[0, -1] if m else 0.0)
    y_min = y_base - (edges[1, -1] if m else 0.0)

    # Residual band maps to a window on y.
    y_lo = np.maximum(y_min, st.rhat - st.band_hi)
    y_hi = np.minimum(y_max, st.rhat - st.band_lo)
    if np.any(y_lo > y_hi + 1e-9):
        return None
    seg = np.empty((2, 2, m, n))
    np.add(y_base, prev[0], out=seg[0, 0])
    np.add(y_base, edges[0], out=seg[1, 0])
    np.subtract(y_base, edges[1], out=seg[0, 1])
    np.subtract(y_base, prev[1], out=seg[1, 1])
    window = np.empty((2, nm, n))
    window[0] = y_lo
    window[1] = y_hi
    return _FillPlan(
        base, y_base, who, np.array(du).reshape(2, m, 1), caps, prev, seg, window,
        np.clip(y_base, y_lo, y_hi),
    )


def _solve_priced(st: StepStructure, lo: np.ndarray, hi: np.ndarray,
                  price: np.ndarray, has_floor: bool,
                  plans: dict) -> tuple[np.ndarray, np.ndarray, bool]:
    """Closed-form per-step minimization at one price vector shared by all
    steps, vectorized across steps.

    has_floor is ``lo.any()``. plans caches the price-free part of the
    solve for (st, lo, hi): a caller that solves the same steps at many
    prices passes one dict to every call, so each plan is built once.
    """
    if charge_discharge_form(st.c_y, price, has_floor):
        key = "charge_discharge"
        if key not in plans:
            plans[key] = _cd_plan(st, hi)
    else:
        moves = _fill_order(st.c_y, price)
        negative = price < 0.0
        key = (negative.tobytes(), tuple(2 * k + side for _, k, _, side, _ in moves))
        if key not in plans:
            plans[key] = _fill_plan(st, lo, hi, negative, moves)
    plan = plans[key]
    if plan is None:
        return np.zeros((st.n_steps, st.nu)), np.zeros(st.n_steps), False
    if key == "charge_discharge":
        return _solve_charge_discharge(st, plan, price)
    return _fill_solve(st, lo, hi, plan, moves)


def _fill_solve(st: StepStructure, lo: np.ndarray, hi: np.ndarray,
                plan: _FillPlan, moves: list[tuple]) -> tuple[np.ndarray, np.ndarray, bool]:
    """The fill-order solve at the prices whose moves are ``moves``."""
    n = st.n_steps
    q = st.q
    pw = st.norm_power
    rhat = st.rhat
    y_base, caps, prev = plan.y_base, plan.caps, plan.prev
    nm = len(moves)
    m = nm // 2
    rate = [mv[0] for mv in moves]
    rates = np.array(rate).reshape(2, m)

    # Candidate outputs, one row each, in scan order: the clipped base and
    # the stationary point of each raising then each lowering move's
    # segment, clipped to the window (an optimal window edge is the clipped
    # point of the segment that holds it). numpy's clip runs a separate
    # kernel, with the opposite signed-zero tie rule, when both bounds are
    # constant across the elements it clips. Every clip here has a bound
    # that varies across them, as the one-row clips of a per-candidate scan
    # have, so the zero signs of the results are the same.
    cand = np.empty((nm + 1, n))
    cand[0] = plan.cand0
    if pw == 2:
        shift = rates / (2.0 * q)
    else:
        shift = np.array([np.sqrt(max(r, 0.0) / (3.0 * q)) for r in rate]).reshape(2, m)
    target = np.empty((2, m, n))
    np.subtract(rhat, shift[0][:, None], out=target[0])
    np.add(rhat, shift[1][:, None], out=target[1])
    seg, window = plan.seg, plan.window
    np.clip(np.clip(target, seg[0], seg[1]).reshape(nm, n), window[0], window[1],
            out=cand[1:])

    # Objective of every candidate: tracking plus the fill-order cost, summed
    # one move at a time from zero.
    d = rhat - cand
    obj = q * d * d if pw == 2 else q * np.abs(d) ** 3
    dev = cand - y_base
    beyond = np.empty((2, nm + 1, 1, n))                   # past base, up and down
    np.maximum(dev, 0.0, out=beyond[0, :, 0])
    np.maximum(-dev, 0.0, out=beyond[1, :, 0])
    spent = np.clip(beyond - prev[:, None], 0.0, caps[:, None]) * rates[:, None, :, None]
    fill_cost = np.zeros((nm + 1, n))
    for j in range(nm):
        fill_cost += spent[j // m, :, j % m]
    obj += fill_cost
    # The first minimum per step is the pick of a strict-< scan in row order,
    # which never moves to a NaN objective and never leaves the first row's.
    np.fmin(obj[1:], np.inf, out=obj[1:])
    best_y = cand[obj.T.argmin(axis=1), np.arange(n)]

    # Decompose best_y back into inputs by walking the fill order.
    u = plan.base.copy()
    need = np.empty((2, 1, n))
    np.maximum(best_y - y_base, 0.0, out=need[0, 0])
    np.maximum(y_base - best_y, 0.0, out=need[1, 0])
    amt = (np.clip(need - prev, 0.0, caps) * plan.du).reshape(nm, n)
    for j, k in enumerate(plan.who):
        u[:, k] += amt[j]
    np.clip(u, lo, hi, out=u)
    return u, best_y, True


def _solve_steps(
    st: StepStructure,
    lo: np.ndarray,
    hi: np.ndarray,
    extra_cost: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, bool]:
    """Closed-form per-step minimization of one problem.

    lo/hi are (N, nu). extra_cost, (nu,), shifts the price row. Returns
    (U as (N, nu), y per step, feasible flag); infeasible means a banded
    step's output window misses the achievable output range.
    """
    price = st.price if extra_cost is None else st.price + extra_cost
    return _solve_priced(st, lo, hi, price, lo.any(), {})


def _objective_from_structure(st: StepStructure, u: np.ndarray) -> float:
    y = u @ st.c_y
    d = st.rhat - y
    track = st.q * float((d * d).sum()) if st.norm_power == 2 else \
        st.q * float((np.abs(d) ** 3).sum())
    return track + float((st.price * u).sum())


# ----------------------------------------------------------------------
# Terminal row: scalar dual bisection
# ----------------------------------------------------------------------

def _solve_with_terminal(st: StepStructure, lo: np.ndarray, hi: np.ndarray,
                         pattern: np.ndarray, k_end: int, b: float, tol: float,
                         max_iter: int, mu_hint) -> QpSolution:
    if np.isfinite(st.band_lo).any() or np.isfinite(st.band_hi).any():
        raise ValueError("the terminal row does not combine with band rows")
    # Without band rows every step is feasible. The steps from k_end on do
    # not enter the row, so they decouple from the dual and solve once.
    u_full = np.empty((st.n_steps, st.nu))
    if k_end < st.n_steps:
        u_full[k_end:] = _solve_steps(st.take(slice(k_end, None)), lo[k_end:], hi[k_end:])[0]
    st_t = st.take(slice(k_end))
    lo_t, hi_t = lo[:k_end], hi[:k_end]
    a_t = np.tile(pattern, (k_end, 1))

    # Achievable range of the row under the box alone; a target outside it
    # is met at the nearest boundary with the gap reported as slack.
    hi_cfg = np.where(a_t > 0, hi_t, lo_t)
    lo_cfg = np.where(a_t > 0, lo_t, hi_t)
    h_max = float((hi_cfg * a_t).sum())
    h_min = float((lo_cfg * a_t).sum())
    span = max(abs(h_max), abs(h_min), 1.0)
    if b >= h_max - 1e-12 * span:
        u_t = hi_cfg
        slack = b - h_max
        it = 1
        h = h_max
    elif b <= h_min + 1e-12 * span:
        u_t = lo_cfg
        slack = b - h_min
        it = 1
        h = h_min
    else:
        slack = 0.0
        # Every trial solves the steps before k_end at the price row
        # price + mu * pattern. A fill plan depends on that price only
        # through its signs and its move order, so the trials of this solve
        # share one plan store and build each plan once.
        has_floor = lo_t.any()
        plans: dict = {}

        def inner(mu: float) -> tuple[np.ndarray, float]:
            u = _solve_priced(st_t, lo_t, hi_t, st.price + mu * pattern, has_floor, plans)[0]
            return u, float((a_t * u).sum())

        start = mu_hint if mu_hint is not None and np.isfinite(mu_hint) else 0.0
        u_t, h = inner(start)
        it = 1
        # The dual only needs to be resolved until the terminal-energy
        # mismatch is negligible, not to machine precision in mu.
        h_tol = max(tol, 1e-7 * span)
        if abs(h - b) > h_tol:
            width = max(1.0, abs(start))
            if h > b:
                mu_lo, h_lo = start, h
                mu_hi = start + width
                while it < max_iter:
                    u_t, h = inner(mu_hi)
                    it += 1
                    if h <= b:
                        h_hi = h
                        break
                    mu_lo, h_lo = mu_hi, h
                    mu_hi = mu_hi + (mu_hi - start + width) * 3.0
                else:
                    h_hi = h
            else:
                mu_hi, h_hi = start, h
                mu_lo = start - width
                while it < max_iter:
                    u_t, h = inner(mu_lo)
                    it += 1
                    if h >= b:
                        h_lo = h
                        break
                    mu_hi, h_hi = mu_lo, h
                    mu_lo = mu_lo - (start - mu_lo + width) * 3.0
                else:
                    h_lo = h
            # Illinois false position on the monotone piecewise-linear dual.
            side = 0
            while it < max_iter and abs(h - b) > h_tol and \
                    mu_hi - mu_lo > 1e-12 * max(1.0, abs(mu_hi), abs(mu_lo)):
                denom = h_hi - h_lo
                if denom >= 0.0:
                    mu_new = 0.5 * (mu_lo + mu_hi)
                else:
                    mu_new = (mu_lo * (h_hi - b) - mu_hi * (h_lo - b)) / denom
                    if not mu_lo < mu_new < mu_hi:
                        mu_new = 0.5 * (mu_lo + mu_hi)
                u_t, h = inner(mu_new)
                it += 1
                if h > b:
                    mu_lo, h_lo = mu_new, h
                    if side == -1:
                        h_hi = 0.5 * (h_hi - b) + b
                    side = -1
                else:
                    mu_hi, h_hi = mu_new, h
                    if side == 1:
                        h_lo = 0.5 * (h_lo - b) + b
                    side = 1
            if abs(h - b) > h_tol:
                # The dual response jumps where a mu-modified price changes
                # sign; both bracket endpoints minimize the same Lagrangian,
                # so the convex combination meeting the row exactly is
                # primal-optimal.
                u_lo_sol, h_lo2 = inner(mu_lo)
                u_hi_sol, h_hi2 = inner(mu_hi)
                it += 2
                if h_lo2 > h_hi2 + 1e-15:
                    theta = min(max((b - h_hi2) / (h_lo2 - h_hi2), 0.0), 1.0)
                    u_t = theta * u_lo_sol + (1.0 - theta) * u_hi_sol
                    h = theta * h_lo2 + (1.0 - theta) * h_hi2
                else:
                    u_t, h = u_hi_sol, h_hi2
            mu_hint = 0.5 * (mu_lo + mu_hi)

    u_full[:k_end] = u_t
    obj = _objective_from_structure(st, u_full)
    return QpSolution(
        u_star=u_full.ravel(), objective=obj,
        status=OPTIMAL if it < max_iter else MAX_ITER,
        kkt_residual=abs(h - (b - slack)), iterations=it,
        coupling_slack=slack, mu_hint=mu_hint,
    )


# ----------------------------------------------------------------------
# Generic dense dual active-set method
# ----------------------------------------------------------------------

def _constraint_rows(p: QpProblem) -> tuple[np.ndarray, np.ndarray]:
    """All constraints as c.x >= b rows (boxes first, then G rows)."""
    n = p.n
    rows: list[np.ndarray] = []
    rhs: list[float] = []
    eye = np.eye(n)
    for k in range(n):
        if np.isfinite(p.var_lower[k]):
            rows.append(eye[k]); rhs.append(p.var_lower[k])
        if np.isfinite(p.var_upper[k]):
            rows.append(-eye[k]); rhs.append(-p.var_upper[k])
    g, glo, ghi = p.ineq_rows()
    for i in range(g.shape[0]):
        if np.isfinite(glo[i]):
            rows.append(g[i]); rhs.append(glo[i])
        if np.isfinite(ghi[i]):
            rows.append(-g[i]); rhs.append(-ghi[i])
    if not rows:
        return np.zeros((0, n)), np.zeros(0)
    return np.vstack(rows), np.array(rhs)


def _solve_without_fixed(p: QpProblem, fixed: np.ndarray, tol: float,
                         max_iter: int) -> QpSolution:
    """Solve p with its fixed inputs (lo == hi) substituted out, then put
    them back. The regularization of a singular Hessian otherwise acts on
    inputs that cannot move, and can stop the dual method short of, or
    outside, a box of zero width."""
    free = ~fixed
    x = p.var_lower.copy()
    xf = x[fixed]
    h = p.hessian
    g, glo, ghi = p.ineq_rows()
    shift = g[:, fixed] @ xf
    g_free = g[:, free]
    live = np.abs(g_free).sum(axis=1) > 0.0
    # Rows without a free input hold or fail on the fixed inputs alone.
    feas_tol = max(tol, 1e-10)
    s, d_lo, d_hi = shift[~live], glo[~live], ghi[~live]
    if np.any(s - d_lo < -feas_tol * (1.0 + np.abs(d_lo))) or \
            np.any(d_hi - s < -feas_tol * (1.0 + np.abs(d_hi))):
        return QpSolution(u_star=x, objective=np.inf, status=INFEASIBLE,
                          kkt_residual=np.inf, iterations=0)
    status, kkt, iters, regularized = OPTIMAL, 0.0, 0, False
    if free.any():
        reduced = QpProblem(
            hessian=h[np.ix_(free, free)],
            f=p.f[free] + h[np.ix_(free, fixed)] @ xf,
            var_lower=p.var_lower[free], var_upper=p.var_upper[free],
            rows=[(g_free[i], glo[i] - shift[i], ghi[i] - shift[i])
                  for i in np.flatnonzero(live)],
        )
        sol = solve_dense(reduced, tol, max_iter)
        x[free] = sol.u_star
        status, kkt, iters, regularized = (
            sol.status, sol.kkt_residual, sol.iterations, sol.regularized)
    obj = np.inf if status == INFEASIBLE else \
        0.5 * float(x @ h @ x) + float(p.f @ x) + p.objective_const
    return QpSolution(u_star=x, objective=obj, status=status, kkt_residual=kkt,
                      iterations=iters, regularized=regularized)


def solve_dense(p: QpProblem, tol: float = 1e-8, max_iter: int | None = None) -> QpSolution:
    """Dual active-set method on the dense form, with fixed inputs (lower
    == upper) substituted out first: the tests' oracle for the step solves.
    A singular Hessian is regularized, and the solution says so."""
    # Imported here: no controller's run reaches the dense method, so a run
    # never pays for loading scipy.linalg.
    from scipy.linalg import cho_factor, cho_solve

    if max_iter is None:
        max_iter = 50 * (p.n + 10) + 200
    fixed = (p.var_lower == p.var_upper) & np.isfinite(p.var_lower)
    if fixed.any():
        return _solve_without_fixed(p, fixed, tol, max_iter)
    h = p.hessian.copy()
    n = p.n
    regularized = False
    w_min = float(np.linalg.eigvalsh(h).min()) if n else 0.0
    if w_min < 1e-10:
        h[np.diag_indices(n)] += 1e-9 * max(np.trace(h) / max(n, 1), 1.0)
        regularized = True
    chol = cho_factor(h)
    c_all, b_all = _constraint_rows(p)
    m = c_all.shape[0]

    x = cho_solve(chol, -p.f)
    active: list[int] = []
    mult: list[float] = []
    accepted: set[int] = set()
    iters = 0
    status = OPTIMAL
    feas_tol = max(tol, 1e-10)
    # Violations are judged relative to each row's right-hand-side scale so
    # float noise after large interior excursions cannot masquerade as
    # infeasibility.
    viol_scale = 1.0 + np.abs(b_all) if m else np.ones(0)

    while True:
        iters += 1
        if iters > max_iter:
            status = MAX_ITER
            break
        if m:
            s = (c_all @ x - b_all) / viol_scale
            if accepted:
                s = s.copy()
                s[list(accepted)] = 0.0
            pidx = int(np.argmin(s))
            viol = float(s[pidx])
        else:
            viol = 0.0
            pidx = -1
        if viol >= -feas_tol:
            break
        cp = c_all[pidx]
        u_p = 0.0
        infeasible = False
        while True:
            iters += 1
            if iters > max_iter:
                status = MAX_ITER
                break
            gi_cp = cho_solve(chol, cp)
            if active:
                ca = c_all[active]
                gi_ca = cho_solve(chol, ca.T)
                mgram = ca @ gi_ca
                rhsv = ca @ gi_cp
                try:
                    r = np.linalg.solve(mgram, rhsv)
                except np.linalg.LinAlgError:
                    r = np.linalg.lstsq(mgram, rhsv, rcond=None)[0]
                z = gi_cp - gi_ca @ r
            else:
                r = np.zeros(0)
                z = gi_cp
            t1 = np.inf
            k1 = -1
            for j in range(len(active)):
                if r[j] > _DROP_TOL:
                    ratio = mult[j] / r[j]
                    if ratio < t1:
                        t1 = ratio
                        k1 = j
            denom = float(z @ cp)
            if denom > _DROP_TOL:
                t2 = -(float(cp @ x) - b_all[pidx]) / denom
            else:
                t2 = np.inf
            t = min(t1, t2)
            if not np.isfinite(t):
                s_p = (float(cp @ x) - b_all[pidx]) / viol_scale[pidx]
                if s_p >= -1e-5:
                    # Dead end on a noise-level violation: accept the row as
                    # satisfied instead of declaring infeasibility.
                    accepted.add(pidx)
                    break
                infeasible = True
                break
            if np.isinf(t2):
                for j in range(len(active)):
                    mult[j] -= t * r[j]
                u_p += t
                active.pop(k1)
                mult.pop(k1)
                continue
            x = x + t * z
            for j in range(len(active)):
                mult[j] -= t * r[j]
            u_p += t
            if t == t2:
                active.append(pidx)
                mult.append(u_p)
                break
            active.pop(k1)
            mult.pop(k1)
        if infeasible:
            return QpSolution(
                u_star=x, objective=np.inf, status=INFEASIBLE,
                kkt_residual=np.inf, iterations=iters,
                regularized=regularized,
            )
        if status == MAX_ITER:
            break

    grad = h @ x + p.f
    if active:
        grad = grad - c_all[active].T @ np.array(mult)
    stat_res = float(np.abs(grad).max()) if n else 0.0
    feas_res = 0.0
    if m:
        feas_res = max(0.0, float(-(c_all @ x - b_all).min()))
    kkt = max(stat_res, feas_res)
    obj = 0.5 * float(x @ p.hessian @ x) + float(p.f @ x) + p.objective_const
    return QpSolution(
        u_star=x, objective=obj, status=status, kkt_residual=kkt,
        iterations=iters, regularized=regularized,
    )


def solve_qp(st: StepStructure, lo: np.ndarray, hi: np.ndarray, terminal=None,
             mu_hint: float | None = None, tol: float = 1e-8,
             max_iter: int | None = None) -> QpSolution:
    """Solve the layer problem ``st`` within the per-step boxes lo/hi, each
    (N, nu); ``u_star`` is the stacked input vector.

    Without ``terminal`` the steps separate and each is solved in closed
    form. terminal = (pattern, k_end, target) adds the equality
    ``sum(pattern . u_i for i < k_end) == target`` (no band rows allowed),
    met through its scalar dual warm started from ``mu_hint``, which never
    changes the solution; a target beyond the box's reach is met at the
    nearest boundary and the gap reported as ``coupling_slack``.
    """
    if terminal is None:
        u, _, feasible = _solve_steps(st, lo, hi)
        if not feasible:
            return QpSolution(
                u_star=np.zeros(u.size), objective=np.inf, status=INFEASIBLE,
                kkt_residual=np.inf, iterations=0,
            )
        return QpSolution(
            u_star=u.ravel(), objective=_objective_from_structure(st, u),
            status=OPTIMAL, kkt_residual=0.0, iterations=st.n_steps,
        )
    if max_iter is None:
        max_iter = 50 * (st.n_steps * st.nu + 10) + 200
    pattern, k_end, target = terminal
    return _solve_with_terminal(st, lo, hi, np.asarray(pattern, dtype=np.float64),
                                k_end, target, tol, max_iter, mu_hint)


def dump_problem(p: QpProblem, path) -> None:
    """Write the dense blocks as plain text matrices (debug interface)."""
    g, glo, ghi = p.ineq_rows()
    blocks = [
        ("H", np.atleast_2d(p.hessian)),
        ("f", p.f[None, :]),
        ("var_lower", p.var_lower[None, :]),
        ("var_upper", p.var_upper[None, :]),
        ("G", g if g.size else np.zeros((0, p.n))),
        ("ineq_lower", glo[None, :] if glo.size else np.zeros((1, 0))),
        ("ineq_upper", ghi[None, :] if ghi.size else np.zeros((1, 0))),
    ]
    with open(path, "w", encoding="utf-8") as fh:
        for name, mat in blocks:
            fh.write(f"# {name} {mat.shape[0]} {mat.shape[1]}\n")
            for row in mat:
                fh.write(" ".join(repr(float(v)) for v in row) + "\n")
