"""Reference implementations the tests check the package against.

Nothing in the package calls them, and only they need scipy.

* :class:`QpProblem`, the dense standard form, which :func:`dense_problem`
  builds from a layer problem's step structure, :func:`write_dense` writes
  as text matrices and :func:`validate` checks the Hessian of;
  :func:`read_solve` reads back the problem of one ``solves.jsonl`` line;
* :func:`split_steps`, which cuts a full-horizon problem at the step its
  terminal row stops binding, so that the solver plans only the steps
  before it, as the periodic-SOC baseline does;
* :func:`solve_dense`, a dual active-set method on the dense standard form,
  with fixed inputs substituted out first;
* :func:`brute_force_band_oracle`, which simulates a child store under a
  constant baseline, and :func:`paper_form_bounds`, the paper's closed-form
  band estimate from :func:`fluctuation_potentials`, both checked against
  :func:`hessmpc.mtip.physical_bounds`;
* :func:`solve_priced`, a reference fill-order solve that scans every move
  with ``np.clip``, which :func:`hessmpc.qp._solve_priced` must match byte
  for byte;
* :func:`saturate`, the clip of one power request by a store, and
  :func:`close_residual`, the flywheel law run one :func:`saturate` call per
  sample, which :func:`hessmpc.devices.storage.saturate_block` must match
  byte for byte;
* :func:`sample_hours` and :func:`tou_gain`, the time-of-use hour and
  saving taken with one price gather per sample, which
  :func:`hessmpc.metrics.economic_benefit` must match byte for byte;
* :func:`rainflow_cycles`, the rainflow walk on numpy scalars, which
  :func:`hessmpc.devices.battery.rainflow_cycles` must match byte for byte;
* :func:`window_mean`, the windowed mean with the clipped index gather at
  every sample, which :func:`hessmpc.scenario.window_mean` must match byte
  for byte.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

import numpy as np

from hessmpc.devices.storage import EssState, lose
from hessmpc.qp import (
    INFEASIBLE, MAX_ITER, OPTIMAL, QpSolution, StepStructure,
    _charge_discharge_steps, charge_discharge_form,
)
from hessmpc.timeseries import BLOCK
from hessmpc.vic import DT_H, VicParams

_DROP_TOL = 1e-12


# ----------------------------------------------------------------------
# Dense standard form
# ----------------------------------------------------------------------

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


def dense_problem(st: StepStructure, lo, hi, terminal=None) -> QpProblem:
    """``st`` within the per-step boxes lo/hi (one row per step) in dense
    standard form, ``H = 2 C' (I x Q) C``: band rows first, then, if given,
    the row of ``terminal = (pattern, k_end, target)`` as an equality:
    ``pattern . u_i`` summed over the steps before k_end equals target."""
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


def write_dense(p: QpProblem, path) -> None:
    """Write the dense blocks as plain text matrices."""
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


def read_solve(line: str) -> tuple[StepStructure, np.ndarray, np.ndarray, tuple | None]:
    """The problem one ``solves.jsonl`` line holds, as ``(st, lo, hi,
    terminal)``: the band, when one was offered, binds the first step, and
    terminal is None without a terminal row."""
    rec = json.loads(line)
    rhat = np.array(rec["rhat"], dtype=np.float64)
    band_lo = np.full(rhat.size, -np.inf)
    band_hi = np.full(rhat.size, np.inf)
    if rec["band"] is not None:
        band_lo[0], band_hi[0] = rec["band"]
    st = StepStructure(
        c_y=np.array(rec["c_y"], dtype=np.float64), q=rec["q"], rhat=rhat,
        price=np.array(rec["price"], dtype=np.float64), band_lo=band_lo, band_hi=band_hi,
    )
    terminal = None
    if rec["terminal"] is not None:
        pattern, target = rec["terminal"]
        terminal = (np.array(pattern, dtype=np.float64), target)
    lo, hi = (np.array(rec[key], dtype=np.float64) for key in ("var_lower", "var_upper"))
    return st, lo, hi, terminal


def split_steps(st: StepStructure, lo, hi, k: int) -> tuple[tuple, tuple]:
    """``(st, lo, hi)`` of the steps before k, and of the steps from k on."""
    return tuple(
        (dataclasses.replace(st, rhat=st.rhat[part], band_lo=st.band_lo[part],
                             band_hi=st.band_hi[part]), lo[part], hi[part])
        for part in (slice(k), slice(k, None))
    )


def validate(p: QpProblem, tol_sym: float = 1e-10, tol_psd: float = 1e-8) -> None:
    """Assert symmetry and positive semidefiniteness of the Hessian."""
    h = p.hessian
    asym = np.abs(h - h.T).max() if h.size else 0.0
    if asym > tol_sym:
        raise ValueError(f"Hessian asymmetry {asym} exceeds {tol_sym}")
    if h.size:
        w = np.linalg.eigvalsh(h)
        scale = max(np.abs(w).max(), 1.0)
        if w.min() < -tol_psd * scale:
            raise ValueError(f"Hessian indefinite: min eigenvalue {w.min()}")


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


@dataclass
class DenseSolution(QpSolution):
    """A :func:`solve_dense` result; ``regularized`` says that a singular
    Hessian was regularized."""

    regularized: bool = False


def _solve_without_fixed(p: QpProblem, fixed: np.ndarray, tol: float,
                         max_iter: int) -> DenseSolution:
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
        return DenseSolution(u_star=x, objective=np.inf, status=INFEASIBLE,
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
    return DenseSolution(u_star=x, objective=obj, status=status, kkt_residual=kkt,
                         iterations=iters, regularized=regularized)


def solve_dense(p: QpProblem, tol: float = 1e-8, max_iter: int | None = None) -> DenseSolution:
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
            return DenseSolution(
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
    return DenseSolution(
        u_star=x, objective=obj, status=status, kkt_residual=kkt,
        iterations=iters, regularized=regularized,
    )


# ----------------------------------------------------------------------
# MTIP band oracles
# ----------------------------------------------------------------------

def fluctuation_potentials(
    xi: np.ndarray, eta_c: float, eta_d: float, dt_h: float
) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative signed fluctuation energies (phi+, phi-) in MWh.

    The plus potential discounts charging-side fluctuation by the round-trip
    efficiency; the minus potential inflates discharging-side fluctuation by
    it.
    """
    rt = eta_c * eta_d
    phi_plus = np.where(xi >= 0.0, xi, xi * rt)
    phi_minus = np.where(xi >= 0.0, xi / rt, xi)
    return np.cumsum(phi_plus) * dt_h, np.cumsum(phi_minus) * dt_h


def paper_form_bounds(
    xi: np.ndarray, store: EssState, energy: float, dt_h: float
) -> tuple[float, float]:
    """Closed-form band estimate built from the fluctuation potentials.

    Exact whenever the corrected flow keeps one sign inside every prefix and
    conservative otherwise (never wider than the exact inversion on the
    upper side, nor below it on the lower side); exposed for comparison
    against :func:`physical_bounds`.
    """
    lo_env, hi_env = store.envelope
    phi_plus, phi_minus = fluctuation_potentials(xi, store.eta_c, store.eta_d, dt_h)
    j = np.arange(1, xi.size + 1) * dt_h
    r_hi = float(np.min(((energy - lo_env) * store.eta_d - phi_plus) / j))
    r_lo = float(np.max(((energy - hi_env) / store.eta_c - phi_minus) / j))
    return r_lo, r_hi


def brute_force_band_oracle(
    xi: np.ndarray, store: EssState, energy: float, dt_h: float, r_candidate: float
) -> bool:
    """Simulate the child trajectory from energy (MWh) under a constant
    baseline; True if the envelope holds at every micro step. Keeps its own flow expression, so it
    stays independent of :func:`psi`."""
    flows = np.where(
        r_candidate + xi >= 0.0,
        (r_candidate + xi) / store.eta_d,
        (r_candidate + xi) * store.eta_c,
    )
    traj = energy - np.cumsum(flows) * dt_h
    lo, hi = store.envelope
    # Guard only against accumulated float rounding; anything larger is a
    # genuine violation (the bound inversion is checked against this oracle
    # at the 1e-6 MW level).
    tol = 1e-12 * max(1.0, abs(hi), abs(lo), abs(energy))
    return bool(np.all(traj >= lo - tol) and np.all(traj <= hi + tol))


# ----------------------------------------------------------------------
# Reference fill-order solve
# ----------------------------------------------------------------------
# The fill-order solve that scans every move of both directions, whatever
# their capacity, with np.clip throughout and the price-free arrays laid out
# per direction. hessmpc.qp's solve must give its u and y byte for byte.

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


def solve_priced(st: StepStructure, lo: np.ndarray, hi: np.ndarray,
                 price) -> tuple[np.ndarray, np.ndarray, bool]:
    """Closed-form per-step minimization at one price vector shared by all
    steps, with a fresh fill plan: the package's single-store step rule on
    each step, else the reference fill-order solve."""
    price = np.asarray(price, dtype=np.float64)
    if charge_discharge_form(st.c_y, price, lo.any()):
        solved = _charge_discharge_steps(st, hi, price)
    else:
        moves = _fill_order(st.c_y, price)
        plan = _fill_plan(st, lo, hi, price < 0.0, moves)
        solved = None if plan is None else _fill_solve(st, lo, hi, plan, moves)
    if solved is None:
        return np.zeros((st.n_steps, st.nu)), np.zeros(st.n_steps), False
    return solved


def _fill_solve(st: StepStructure, lo: np.ndarray, hi: np.ndarray,
                plan: _FillPlan, moves: list[tuple]) -> tuple[np.ndarray, np.ndarray, bool]:
    """The fill-order solve at the prices whose moves are ``moves``."""
    n = st.n_steps
    q = st.q
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
    shift = rates / (2.0 * q)
    target = np.empty((2, m, n))
    np.subtract(rhat, shift[0][:, None], out=target[0])
    np.add(rhat, shift[1][:, None], out=target[1])
    seg, window = plan.seg, plan.window
    np.clip(np.clip(target, seg[0], seg[1]).reshape(nm, n), window[0], window[1],
            out=cand[1:])

    # Objective of every candidate: tracking plus the fill-order cost, summed
    # one move at a time from zero.
    d = rhat - cand
    obj = q * d * d
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


# ----------------------------------------------------------------------
# Per-sample store clip
# ----------------------------------------------------------------------

def saturate(
    e: float,
    p: float,
    lo: float,
    hi: float,
    cap: float,
    eta_c: float,
    eta_d: float,
    keep: float,
    standby_e: float,
    dt_h: float,
) -> tuple[float, float]:
    """Clip a discharge-positive power request to what the store can deliver.

    The losses of :func:`lose` (the leak's keep fraction and the standby
    drain of standby_e MWh) come first, then the power cap, then the
    envelope: a discharge may not draw the store below lo within the dt_h
    step, a charge may not lift it above hi. Returns the realized power in
    MW (discharge-positive) and the energy after the step in MWh.
    Saturation is silent; callers compare the result with the request.
    """
    # Runs once per simulated second: skip the call for a lossless store.
    if keep < 1.0 or standby_e > 0.0:
        e = lose(e, lo, keep, standby_e)
    if p >= 0.0:
        avail = (e - lo) * eta_d / dt_h
        if p > cap:
            p = cap
        if p > avail:
            p = avail
        return p, e - p * dt_h / eta_d
    room = (hi - e) / (eta_c * dt_h)
    if p < -cap:
        p = -cap
    if p < -room:
        p = -room
    return p, e + (-p) * eta_c * dt_h


def close_residual(
    residual: list[float],
    energy: float,
    df_prev: float | None,
    params: VicParams,
    store: EssState,
) -> tuple[list[float], float, float]:
    """Run the flywheel law over one-second residual samples (MW), one
    :func:`saturate` call per sample.

    energy is the flywheel energy (MWh) before the first sample and df_prev
    the equivalent frequency deviation (Hz) after the previous sample; None
    starts the law at the steady-state deviation r / (k_pf + k_p) of the
    first sample. store supplies the envelope, power cap, efficiencies and
    losses. Returns the realized injections (MW, discharge-positive),
    the energy after the last sample and the deviation after it.
    """
    k_pf = params.k_pf
    beta = params.k_p + params.k_d
    denom = k_pf + beta
    kpf_kd = k_pf * params.k_d
    lo, hi, cap, eta_c, eta_d, keep, standby_e = store.saturate_args(DT_H)
    if df_prev is None:
        df_prev = residual[0] / (k_pf + params.k_p)
    out = []
    for r in residual:
        p, energy = saturate(
            energy, (beta * r - kpf_kd * df_prev) / denom,
            lo, hi, cap, eta_c, eta_d, keep, standby_e, DT_H,
        )
        df_prev = (r - p) / k_pf
        out.append(p)
    return out, energy, df_prev


# ----------------------------------------------------------------------
# Per-sample tariff hours
# ----------------------------------------------------------------------

def sample_hours(ts) -> np.ndarray:
    """Hour of day of every sample of ``ts``: ``(start + dt * k) % 86400 //
    3600`` over the whole grid in numpy. A time one rounding step below
    midnight gives 24 there; it lies in hour 23."""
    t = ts.start_epoch + ts.dt * np.arange(len(ts))
    t %= 86400.0
    t //= 3600.0
    return np.minimum(t.astype(np.intp), 23)


def tou_gain(original, smoothed, tariff) -> float:
    """The ``tou`` entry of economic_benefit, each sample priced by a gather
    of its own hour's price."""
    gain = (original.values - smoothed.values) * tariff.hourly_prices()[sample_hours(original)]
    return float(gain.sum() * (original.dt / 3600.0))


# ----------------------------------------------------------------------
# Rainflow on numpy scalars
# ----------------------------------------------------------------------

def rainflow_cycles(values) -> list[tuple]:
    """ASTM-style rainflow extraction indexing the float64 array itself:
    ``(count, depth, mean, i_start, i_end)`` per cycle or half cycle."""
    x = np.asarray(values, dtype=np.float64)
    if x.size < 2:
        return []
    idx = [0]
    for i in range(1, x.size - 1):
        if (x[i] - x[idx[-1]]) != 0.0 and (x[i] - x[idx[-1]]) * (x[i + 1] - x[i]) <= 0.0:
            idx.append(i)
    if x[x.size - 1] != x[idx[-1]]:
        idx.append(x.size - 1)
    elif len(idx) == 1:
        return []
    cycles = []
    stack = []
    for i in idx:
        stack.append(i)
        while len(stack) >= 3:
            a, b, c = stack[-3], stack[-2], stack[-1]
            range_ab = abs(x[b] - x[a])
            if range_ab > abs(x[c] - x[b]):
                break
            if range_ab > 0.0:
                cycles.append((0.5 if len(stack) == 3 else 1.0, range_ab,
                               (x[a] + x[b]) / 2.0, a, b))
            if len(stack) == 3:
                stack.pop(-3)
            else:
                stack.pop(-2)
                stack.pop(-2)
    for a, b in zip(stack, stack[1:]):
        if abs(x[b] - x[a]) > 0.0:
            cycles.append((0.5, abs(x[b] - x[a]), (x[a] + x[b]) / 2.0, a, b))
    return cycles


# ----------------------------------------------------------------------
# Windowed means by index gather
# ----------------------------------------------------------------------

def window_mean(x: np.ndarray, before: int, after: int) -> np.ndarray:
    """Mean of ``x[k - before : k + after + 1]`` at each k, the window cut
    to the series; O(n) via prefix sums, the window's index arithmetic in
    blocks. ``window_mean(x, w - 1, 0)`` is the trailing mean over w
    samples, ``window_mean(x, h, h)`` the centered one over 2h + 1."""
    n = x.size
    c = np.empty(n + 1)
    c[0] = 0.0
    np.cumsum(x, out=c[1:])
    out = np.empty(n)
    for start in range(0, n, BLOCK):
        k = np.arange(start, min(start + BLOCK, n))
        left = np.clip(k - before, 0, n)
        right = np.clip(k + after + 1, 0, n)
        out[start : start + k.size] = (c[right] - c[left]) / (right - left)
    return out
