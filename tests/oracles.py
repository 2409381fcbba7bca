"""Reference implementations the tests check the package against.

Nothing in the package calls them, and only they need scipy.

* :func:`solve_dense`, a dual active-set method on the dense standard form
  of :func:`hessmpc.qp.dense_problem`, with fixed inputs substituted out
  first, and :func:`validate`, which checks that form's Hessian;
* :func:`brute_force_band_oracle`, which simulates a child store under a
  constant baseline, and :func:`paper_form_bounds`, the paper's closed-form
  band estimate from :func:`fluctuation_potentials`, both checked against
  :func:`hessmpc.mtip.physical_bounds`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hessmpc.devices.storage import EssState
from hessmpc.qp import INFEASIBLE, MAX_ITER, OPTIMAL, QpProblem, QpSolution

_DROP_TOL = 1e-12


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


def paper_form_bounds(xi: np.ndarray, store: EssState, dt_h: float) -> tuple[float, float]:
    """Closed-form band estimate built from the fluctuation potentials.

    Exact whenever the corrected flow keeps one sign inside every prefix and
    conservative otherwise (never wider than the exact inversion on the
    upper side, nor below it on the lower side); exposed for comparison
    against :func:`physical_bounds`.
    """
    lo_env, hi_env = store.envelope
    phi_plus, phi_minus = fluctuation_potentials(xi, store.eta_c, store.eta_d, dt_h)
    j = np.arange(1, xi.size + 1) * dt_h
    r_hi = float(np.min(((store.energy - lo_env) * store.eta_d - phi_plus) / j))
    r_lo = float(np.max(((store.energy - hi_env) / store.eta_c - phi_minus) / j))
    return r_lo, r_hi


def brute_force_band_oracle(
    xi: np.ndarray, store: EssState, dt_h: float, r_candidate: float
) -> bool:
    """Simulate the child trajectory under a constant baseline; True if the
    envelope holds at every micro step. Keeps its own flow expression, so it
    stays independent of :func:`psi`."""
    flows = np.where(
        r_candidate + xi >= 0.0,
        (r_candidate + xi) / store.eta_d,
        (r_candidate + xi) * store.eta_c,
    )
    traj = store.energy - np.cumsum(flows) * dt_h
    lo, hi = store.envelope
    # Guard only against accumulated float rounding; anything larger is a
    # genuine violation (the bound inversion is checked against this oracle
    # at the 1e-6 MW level).
    tol = 1e-12 * max(1.0, abs(hi), abs(lo), abs(store.energy))
    return bool(np.all(traj >= lo - tol) and np.all(traj <= hi + tol))
