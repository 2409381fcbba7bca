"""The layer problems and their solvers.

Every control layer solves the same shape of problem over its horizon
(:class:`StepStructure`): a per-step quadratic tracking penalty
``q * (rhat_i - c_y . u_i)^2``, one linear price row shared by every step,
per-step input boxes and optional residual-band rows. :func:`solve_qp`
solves it on that step structure, with no dense form:

* without a terminal row the steps separate, and each is solved in closed
  form: a single store (one charge and one discharge input) runs the scalar
  step rule :func:`charge_discharge_step` of the explicit law on each step,
  other rows the fill-order solve, vectorized across steps;
* the periodic-SOC baseline adds one terminal equality, given as
  ``(pattern, target)``: ``pattern . u_i`` summed over every step equals
  target. It is met through bisection on the scalar dual of that row,
  warm started from the dual the previous solve hands on. Each trial dual
  is a closed-form step solve at the price row shifted by the dual times
  the pattern.

A fill-order solve is split in two. Its fill plan depends on the prices only
through their signs and the order of the fill moves, so a coupled solve
builds each plan once and shares it among its trials. The plan holds the
cost-minimal base and its output, the capacity and starting fill of each
move, the segment and output-window bounds of each candidate row, and the
sign of each fill direction, all in the layout the scan reads; a direction
without room at any step is left out. A trial computes what depends on the
move rates: one target row per move, the candidates clipped to their
segments and the window, their tracking plus fill costs, the first best per
step, and the inputs of the fills at that candidate.

The dense standard form, and the tests' dense oracle for it, live in
``tests/oracles.py``.

All paths are deterministic: identical problems yield bit-identical
solutions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

try:  # the clip ufunc itself, without np.clip's Python wrappers
    from numpy._core.umath import clip as _clip
except ImportError:  # numpy < 2
    from numpy.core.umath import clip as _clip

OPTIMAL = "optimal"
MAX_ITER = "max_iter"
INFEASIBLE = "infeasible"


@dataclass
class StepStructure:
    """One layer problem, separable by step.

    c_y maps one step's inputs to its grid output; rhat is the residual
    forecast per step; price the linear price per input, shared by every
    step (already scaled by the cost weight and the step length);
    band_lo/band_hi bound the post-dispatch residual per step (+-inf where
    absent); q weighs the quadratic tracking penalty.
    """

    c_y: np.ndarray
    q: float
    rhat: np.ndarray
    price: np.ndarray         # (nu,)
    band_lo: np.ndarray       # (N,)
    band_hi: np.ndarray       # (N,)

    @property
    def n_steps(self) -> int:
        return self.rhat.size

    @property
    def nu(self) -> int:
        return self.c_y.size


@dataclass
class QpSolution:
    """mu_hint is the terminal-row dual to warm start the next solve from:
    the refined bracket's midpoint, else the hint this solve was given."""

    u_star: np.ndarray
    objective: float
    status: str
    kkt_residual: float
    iterations: int
    coupling_slack: float = 0.0
    mu_hint: float | None = None


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


def charge_discharge_step(
    q: float,
    g_d: float,
    g_c: float,
    rhat: float,
    cap_d: float,
    cap_c: float,
    band_lo: float,
    band_hi: float,
) -> tuple[float, float, float] | None:
    """One step of a single store: one discharge and one charge input
    (output row +-1), no input floor, non-negative prices.

    g_d/g_c are the step prices of the discharge and charge inputs, cap_d/
    cap_c their caps and band_lo/band_hi the residual band. Returns the
    (discharge, charge, output) move, or None when the band window misses
    the achievable output range. The output is returned as computed, not
    rebuilt from the two inputs, which would lose the sign of a zero.
    """
    # Clips pick the second operand on ties, as np.maximum does (Python's
    # max picks the first); that decides the sign of a zero result.
    y_up = rhat - g_d / (2.0 * q)
    y_up = y_up if y_up > 0.0 else 0.0
    y_up = y_up if y_up < cap_d else cap_d
    y_dn = rhat + g_c / (2.0 * q)
    y_dn = y_dn if y_dn < 0.0 else 0.0
    y_dn = y_dn if y_dn > -cap_c else -cap_c
    d_up = rhat - y_up
    d_dn = rhat - y_dn
    f_up = q * d_up * d_up + g_d * y_up
    f_dn = q * d_dn * d_dn - g_c * y_dn
    y = y_up if f_up <= f_dn else y_dn
    # The objective is convex in y, so clipping the global argmin into the
    # band window yields the constrained argmin.
    y_lo = rhat - band_hi
    y_lo = -cap_c if -cap_c > y_lo else y_lo
    y_hi = rhat - band_lo
    y_hi = cap_d if cap_d < y_hi else y_hi
    if y_lo > y_hi + 1e-9:
        return None
    y = y if y > y_lo else y_lo
    y = y if y < y_hi else y_hi
    return y if y > 0.0 else 0.0, -y if -y > 0.0 else 0.0, y


def _fill_order(c_y, price) -> list[tuple]:
    """Moves away from the cost-minimal base, raising moves first, each
    direction cheapest first. c_y and price are sequences of floats.

    A move raises (side 0) or lowers (side 1) one input, with a scalar
    price per unit |dy|, a per-step capacity in y units and the input
    change per unit dy. Every input with a nonzero output coefficient gives
    one move that raises y and one that lowers it. Only zero-capacity moves
    can carry a negative rate (base is cost-minimal), so the piecewise cost
    is convex. Each move is (rate, input, du per dy, side, dy per du).
    """
    up: list = []                                          # moves that raise y
    down: list = []                                        # ... and lower it
    for k, (ck, pk) in enumerate(zip(c_y, price)):
        if ck == 0.0:
            continue
        a = abs(ck)
        more, less = (up, down) if ck > 0.0 else (down, up)   # by raising, lowering u_k
        more.append((pk / a, k, 1.0 / a, 0, a))
        less.append((-pk / a, k, -1.0 / a, 1, a))
    # Ties by input, then by direction; no two moves tie on both.
    up.sort()
    down.sort()
    return up + down


#: Fill direction signs, +1 raising y and -1 lowering it.
_SIGNS = np.array([1.0, -1.0]).reshape(2, 1, 1)


@dataclass
class _FillPlan:
    """The price-free part of a fill-order solve, in the layout the scan
    reads. It depends on the price only through the set of negatively
    priced inputs (the base) and the order of the fill moves, so every price
    with the same two shares it.

    The scan keeps only the directions (raising or lowering y) with some
    capacity, at least one: S directions of m moves each, R = S * m moves.
    A direction without capacity at any step has candidates equal in value
    to the clipped base, which comes first in the scan, so none of them can
    win. Its moves would add zeros to inputs that sit at a bound of the box,
    and where such an input ends at that bound's value, the final clip to
    the box gives it the bound's own bits, the sign of a zero included.
    """

    kept: slice           # the kept moves among the fill order's
    who: list             # (R,) input of each kept move
    toward: list          # (R,) -1.0 raising, +1.0 lowering: its target's side of rhat
    base: np.ndarray      # (N, nu) cost-minimal configuration
    sign: np.ndarray      # (S, 1, 1) +1 raising, -1 lowering
    y_signed: np.ndarray  # (S, 1, N) sign * output at base
    du: np.ndarray        # (S, m, 1) input change per unit dy
    prev: np.ndarray      # (S, m, 1, N) fill at each move's start
    caps: np.ndarray      # (S, m, R+1, N) move capacity in y units, per candidate
    seg_lo: np.ndarray    # (R, N) each move's segment on y
    seg_hi: np.ndarray    # (R, N)
    win_lo: np.ndarray    # (R, N) band window on y, one row per move
    win_hi: np.ndarray    # (R, N)
    cand0: np.ndarray     # (N,) clipped base
    steps: np.ndarray     # (N,) step index


def _fill_plan(st: StepStructure, lo: np.ndarray, hi: np.ndarray,
               negative, moves: list[tuple]) -> _FillPlan | None:
    """The fill plan of base ``negative`` (a flag per input) and fill order
    ``moves``; None when the band window misses the achievable output
    range."""
    n, nu = st.n_steps, st.nu
    # Cost-minimal base configuration: saturate negatively priced inputs.
    base = np.where(negative, hi, lo)                      # (N, nu)
    y_base = base @ st.c_y                                 # (N,)
    m = len(moves) // 2                                    # moves per direction
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
    seg = np.empty((2, 2, m, n))                           # (lower, upper) x direction
    np.add(y_base, prev[0], out=seg[0, 0])
    np.add(y_base, edges[0], out=seg[1, 0])
    np.subtract(y_base, edges[1], out=seg[0, 1])
    np.subtract(y_base, prev[1], out=seg[1, 1])

    du = np.array(du).reshape(2, m, 1)
    # The directions with room, or the raising one when neither has any, so
    # that the inputs still take the fills at the pick (a NaN one included).
    room = caps.any(axis=(1, 2)).tolist()
    sides = slice(0 if room[0] or not room[1] else 1, 2 if room[1] else 1)
    kept = slice(sides.start * m, sides.stop * m)
    r = kept.stop - kept.start
    seg = seg[:, sides].reshape(2, r, n)
    window = np.empty((2, r, n))
    window[0] = y_lo
    window[1] = y_hi
    sign = _SIGNS[sides]
    return _FillPlan(
        kept, list(who[kept]), [-1.0 if j < m else 1.0 for j in range(2 * m)][kept],
        base, sign, sign * y_base, du[sides], prev[sides, :, None],
        # Caps as large as the fills, so that their clip runs the kernel for
        # per-element bounds (see _fill_solve), and runs it without broadcasting.
        np.repeat(caps[sides, :, None], r + 1, axis=2),
        seg[0], seg[1], window[0], window[1], _clip(y_base, y_lo, y_hi), np.arange(n),
    )


def _charge_discharge_steps(st: StepStructure, hi: np.ndarray,
                            price) -> tuple[np.ndarray, np.ndarray, bool] | None:
    """:func:`charge_discharge_step` on each step; None when a step's band
    window misses its achievable output range."""
    i_d = 0 if st.c_y[0] > 0 else 1
    g_d, g_c = float(price[i_d]), float(price[1 - i_d])
    moves = [charge_discharge_step(st.q, g_d, g_c, *step)
             for step in zip(st.rhat.tolist(), hi[:, i_d].tolist(), hi[:, 1 - i_d].tolist(),
                             st.band_lo.tolist(), st.band_hi.tolist())]
    if None in moves:
        return None
    dcy = np.array(moves).reshape(st.n_steps, 3)
    u = np.empty((st.n_steps, 2))
    u[:, i_d] = dcy[:, 0]
    u[:, 1 - i_d] = dcy[:, 1]
    return u, dcy[:, 2], True


def _solve_priced(st: StepStructure, lo: np.ndarray, hi: np.ndarray,
                  price, has_floor: bool,
                  plans: dict) -> tuple[np.ndarray, np.ndarray, bool]:
    """Closed-form per-step minimization at one price vector (a sequence of
    floats) shared by all steps: the single-store step rule on each step,
    else the fill-order solve, vectorized across steps.

    has_floor is ``lo.any()``. plans caches the price-free part of a
    fill-order solve for (st, lo, hi): a caller that solves the same steps
    at many prices passes one dict to every call, so each plan is built
    once.
    """
    c_y = st.c_y.tolist()
    if charge_discharge_form(c_y, price, has_floor):
        solved = _charge_discharge_steps(st, hi, price)
    else:
        moves = _fill_order(c_y, price)
        negative = tuple(p < 0.0 for p in price)
        key = (negative, tuple(2 * k + side for _, k, _, side, _ in moves))
        if key not in plans:
            plans[key] = _fill_plan(st, lo, hi, negative, moves)
        plan = plans[key]
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
    rate = [mv[0] for mv in moves[plan.kept]]
    rows = len(rate)

    # Candidate outputs, one row each, in scan order: the clipped base and
    # the stationary point of each kept raising then lowering move's
    # segment, clipped to the window (an optimal window edge is the clipped
    # point of the segment that holds it). A raising move's target lies
    # below rhat, a lowering move's above. numpy's clip runs a separate
    # kernel, with the opposite signed-zero tie rule, when both bounds are
    # constant across the elements it clips. Both clips here take bounds as
    # large as the candidates, as the one-row clips of a per-candidate scan
    # do, so the zero signs of the results are the same.
    toward = [g * r / (2.0 * q) for g, r in zip(plan.toward, rate)]
    cand = np.empty((rows + 1, n))
    cand[0] = plan.cand0
    moved = cand[1:]
    np.add.outer(toward, rhat, out=moved)
    _clip(moved, plan.seg_lo, plan.seg_hi, out=moved)
    _clip(moved, plan.win_lo, plan.win_hi, out=moved)

    # Objective of every candidate: tracking plus the fill-order cost, summed
    # one move at a time from zero.
    d = rhat - cand
    obj = q * d * d
    beyond = np.maximum(cand * plan.sign - plan.y_signed, 0.0)   # past base, (S, R+1, N)
    fill = _clip(beyond[:, None] - plan.prev, 0.0, plan.caps)     # of each move, (S, m, R+1, N)
    spent = fill * np.array(rate).reshape(plan.du.shape + (1,))
    obj += sum(spent.reshape(rows, rows + 1, n), 0.0)
    # The first minimum per step is the pick of a strict-< scan in row order,
    # which never moves to a NaN objective and never leaves the first row's.
    np.fmin(obj[1:], np.inf, out=obj[1:])
    best = obj.argmin(axis=0)
    best_y = cand[best, plan.steps]

    # Decompose best_y back into inputs by walking the fill order: the fill
    # of each move at best_y is its fill at the chosen candidate, above.
    amt = fill[:, :, best, plan.steps] * plan.du
    u = plan.base.copy()
    for k, part in zip(plan.who, amt.reshape(rows, n)):
        u[:, k] += part
    _clip(u, lo, hi, out=u)
    return u, best_y, True


def _solve_steps(st: StepStructure, lo: np.ndarray,
                 hi: np.ndarray) -> tuple[np.ndarray, np.ndarray, bool]:
    """Closed-form per-step minimization of one problem.

    lo/hi are (N, nu). Returns (U as (N, nu), y per step, feasible flag);
    infeasible means a banded step's output window misses the achievable
    output range.
    """
    return _solve_priced(st, lo, hi, st.price.tolist(), lo.any(), {})


def _objective_from_structure(st: StepStructure, u: np.ndarray) -> float:
    d = st.rhat - u @ st.c_y
    return st.q * float((d * d).sum()) + float((st.price * u).sum())


# ----------------------------------------------------------------------
# Terminal row: scalar dual bisection
# ----------------------------------------------------------------------

def _solve_with_terminal(st: StepStructure, lo: np.ndarray, hi: np.ndarray,
                         pattern: np.ndarray, b: float, mu_hint) -> QpSolution:
    max_iter = 50 * (st.n_steps * st.nu + 10) + 200
    if np.isfinite(st.band_lo).any() or np.isfinite(st.band_hi).any():
        raise ValueError("the terminal row does not combine with band rows")

    # Without band rows every step is feasible. Achievable range of the row
    # under the box alone; a target outside it is met at the nearest
    # boundary with the gap reported as slack.
    raises = pattern > 0
    hi_cfg = np.where(raises, hi, lo)
    lo_cfg = np.where(raises, lo, hi)
    h_max = float((hi_cfg * pattern).sum())
    h_min = float((lo_cfg * pattern).sum())
    span = max(abs(h_max), abs(h_min), 1.0)
    edge = 1e-12 * span
    it = 1
    if b >= h_max - edge or b <= h_min + edge:
        u, h = (hi_cfg, h_max) if b >= h_max - edge else (lo_cfg, h_min)
        slack = b - h
    else:
        slack = 0.0
        # Every trial solves the steps at the price row price + mu * pattern.
        # A fill plan depends on that price only through its signs and its
        # move order, so the trials of this solve share one plan store and
        # build each plan once.
        has_floor = lo.any()
        plans: dict = {}
        price_row = list(zip(st.price.tolist(), pattern.tolist()))
        trials = {}   # (u, h) at each trial dual

        def inner(mu: float) -> tuple[np.ndarray, float]:
            price = [p + mu * a for p, a in price_row]
            u = _solve_priced(st, lo, hi, price, has_floor, plans)[0]
            trials[mu] = u, float((pattern * u).sum())
            return trials[mu]

        start = mu_hint if mu_hint is not None and np.isfinite(mu_hint) else 0.0
        u, h = inner(start)
        # The dual only needs to be resolved until the terminal-energy
        # mismatch is negligible, not to machine precision in mu.
        h_tol = 1e-7 * span
        if abs(h - b) > h_tol:
            width = max(1.0, abs(start))
            if h > b:
                mu_lo, h_lo = start, h
                mu_hi = start + width
                while it < max_iter:
                    u, h = inner(mu_hi)
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
                    u, h = inner(mu_lo)
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
                u, h = inner(mu_new)
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
                # sign; both bracket ends minimize the same Lagrangian, so
                # the convex combination meeting the row exactly is
                # primal-optimal. Both ends were tried, unless the bracket
                # growth ran out of iterations; they count as two more.
                (u_lo, h_lo), (u_hi, h_hi) = (trials[mu] if mu in trials else inner(mu)
                                              for mu in (mu_lo, mu_hi))
                it += 2
                if h_lo > h_hi + 1e-15:
                    theta = min(max((b - h_hi) / (h_lo - h_hi), 0.0), 1.0)
                    u = theta * u_lo + (1.0 - theta) * u_hi
                    h = theta * h_lo + (1.0 - theta) * h_hi
                else:
                    u, h = u_hi, h_hi
            mu_hint = 0.5 * (mu_lo + mu_hi)

    return QpSolution(
        u_star=u.ravel(), objective=_objective_from_structure(st, u),
        status=OPTIMAL if it < max_iter else MAX_ITER,
        kkt_residual=abs(h - (b - slack)), iterations=it,
        coupling_slack=slack, mu_hint=mu_hint,
    )


def solve_qp(st: StepStructure, lo: np.ndarray, hi: np.ndarray, terminal=None,
             mu_hint: float | None = None) -> QpSolution:
    """Solve the layer problem ``st`` within the per-step boxes lo/hi, each
    (N, nu); ``u_star`` is the stacked input vector.

    Without ``terminal`` the steps separate and each is solved in closed
    form. terminal = (pattern, target) adds the equality
    ``sum(pattern . u_i over all steps) == target`` (no band rows allowed),
    met through its scalar dual warm started from ``mu_hint``. The start
    changes the solution only within the row's tolerance, 1e-7 times the
    larger magnitude of the row's reachable extremes (at least 1), so
    another hint can change its bits. A target beyond the box's reach is
    met at the nearest boundary and the gap reported as ``coupling_slack``.
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
    pattern, target = terminal
    return _solve_with_terminal(st, lo, hi, np.asarray(pattern, dtype=np.float64),
                                target, mu_hint)

