"""Resonance parameter extraction by damped nonlinear least squares.

The dip model (see transmission.s21_power) is fit to a measured power-ratio
trace over (f_r, Q_L, Q_e, phi).  Internally Q_L and Q_e are parameterized as
logs to keep them positive without constraints.  The optimizer is
Gauss-Newton with multiplicative damping (x10 on a rejected step, /10 on a
cost decrease) and analytic residual derivatives.  A trial step is rejected
when its cost rises, is not finite, or its Q exponents overflow.  A trial
point costs only its residual: the Jacobian and the normal equations are
evaluated at the start point and at accepted points alone (Moré 1978).
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConvergenceFailure, NonPhysicalFit, NoResonance
from .transmission import internal_q, notch_response

MAX_ITERATIONS = 200
STEP_TOL = 1e-8       # relative parameter step
COST_TOL = 1e-12      # relative cost decrease
DAMPING_START = 1e-3
PHI_LIMIT = math.pi / 2 - 1e-9  # the model is undefined at |phi| = pi/2


@dataclass
class InitialGuess:
    f_r: float
    q_l: float
    q_e: float
    phi: float = 0.0
    at_edge: bool = False  # dip sits at the span boundary; low confidence


@dataclass
class FitResult:
    f_r: float
    q_l: float
    q_e: float
    q_i: float
    phi: float
    f_r_err: float
    q_l_err: float
    q_e_err: float
    phi_err: float
    rms_residual: float
    n_iterations: int
    converged: bool


def _baseline_and_noise(y):
    # Robust to a dip anywhere in the span (including the edges): baseline
    # from the upper quantile, noise floor from successive differences.
    # Partial sorts at the needed order statistics, with the arithmetic of
    # np.percentile(y, 80) (linear method) and np.median, bit for bit.
    pos = (y.size - 1) * 0.8
    k = math.floor(pos)
    w = pos - k
    part = np.partition(y, (k, k + 1))
    a, b = float(part[k]), float(part[k + 1])
    baseline = b - (b - a) * (1 - w) if w >= 0.5 else a + (b - a) * w

    diffs = np.abs(np.diff(y))
    m = diffs.size // 2
    if diffs.size % 2:
        median = float(np.partition(diffs, m)[m])
    else:
        part = np.partition(diffs, (m - 1, m))
        median = (float(part[m - 1]) + float(part[m])) / 2
    noise = 1.4826 * median / math.sqrt(2.0)
    return baseline, noise


def initial_guess(trace):
    """Heuristic starting point: dip position, half-depth width, dip depth.

    Raises NoResonance when the dip does not stand out from the noise floor.
    """
    f = trace.frequencies
    y = trace.power_ratio
    if len(y) < 16:
        raise NoResonance("trace too short for a guess (< 16 points)")

    baseline, noise_floor = _baseline_and_noise(y)
    imin = int(np.argmin(y))
    depth = baseline - y[imin]
    if depth < 3.0 * max(noise_floor, 1e-12):
        raise NoResonance("dip depth below 3x the noise floor")

    at_edge = imin < 2 or imin > len(y) - 3
    f_r = float(f[imin])

    # Full width at half depth: the first point at or above half depth on
    # either side of the minimum, interpolated against its inner neighbour.
    half_level = baseline - depth / 2.0
    left = right = None
    above = np.flatnonzero(y[:imin] >= half_level)
    if above.size:
        j = above[-1]
        frac = (half_level - y[j + 1]) / (y[j] - y[j + 1])
        left = f[j + 1] + frac * (f[j] - f[j + 1])
    above = np.flatnonzero(y[imin + 1:] >= half_level)
    if above.size:
        j = imin + 1 + above[0]
        frac = (half_level - y[j - 1]) / (y[j] - y[j - 1])
        right = f[j - 1] + frac * (f[j] - f[j - 1])
    if left is not None and right is not None:
        width = right - left
    elif left is not None:
        width = 2.0 * (f_r - left)
    elif right is not None:
        width = 2.0 * (right - f_r)
    else:
        width = (f[-1] - f[0]) / 2.0
    width = max(width, (f[-1] - f[0]) / (len(f) - 1))

    q_l = f_r / width
    if not q_l > 0:
        raise NoResonance("dip too wide for its frequency (Q_L underflows)")
    min_ratio = min(max(y[imin] / baseline, 0.0), 1.0 - 1e-9)
    q_e = q_l / (1.0 - math.sqrt(min_ratio))
    return InitialGuess(f_r=f_r, q_l=q_l, q_e=q_e, phi=0.0, at_edge=at_edge)


def _residual(theta, f, y):
    """Residuals r = model - data for theta = (f_r, ln Q_L, ln Q_e, phi), and
    the lineshape terms (Q_L, response, t, denom) that _jacobian reuses."""
    f_r, lql, lqe, phi = theta
    q_l = math.exp(lql)
    resp, t, denom = notch_response(f, f_r, q_l, math.exp(lqe), phi)
    return resp.real**2 + resp.imag**2 - y, (q_l, resp, t, denom)


def _jacobian(theta, f, terms):
    """d r / d theta at the point whose _residual returned terms."""
    q_l, resp, t, denom = terms
    f_r = theta[0]
    # dS/dp = -2 Re[conj(resp) * dt/dp]
    # denom - 1.0 is 2i Q_L x exactly (the real part of denom is 1.0).
    dt_dfr = t * (2j * q_l / denom) * (f / (f_r * f_r))
    dt_dlql = t * (1.0 - (denom - 1.0) / denom)

    # dt/d ln Q_e = -t and dt/d phi = i t share conj(resp) * t; complex
    # multiplication is symmetric in sign, so both columns keep their bits.
    rc = np.conj(resp)
    rct = rc * t
    jac = np.empty((f.size, 4))
    np.multiply((rc * dt_dfr).real, -2.0, out=jac[:, 0])
    np.multiply((rc * dt_dlql).real, -2.0, out=jac[:, 1])
    np.multiply(rct.real, 2.0, out=jac[:, 2])
    np.multiply(rct.imag, 2.0, out=jac[:, 3])
    return jac


def _normal_equations(jac, r):
    """Gradient J^T r, Gauss-Newton matrix J^T J, and the damping matrix: the
    diagonal of J^T J with its non-positive entries raised to 1e-30."""
    h = jac.T @ jac
    diag = np.diag(h).copy()
    diag[diag <= 0] = 1e-30
    return jac.T @ r, h, np.diag(diag)


def fit_resonance(trace, guess: Optional[InitialGuess] = None):
    """Fit the dip model to a trace; returns a FitResult.

    Raises NoResonance (no usable dip), ConvergenceFailure (iteration budget
    exhausted; carries best-so-far), or NonPhysicalFit (Q_L >= Q_e at the
    optimum).
    """
    if guess is None:
        guess = initial_guess(trace)

    f = trace.frequencies
    y = trace.power_ratio
    theta = np.array([guess.f_r, math.log(guess.q_l), math.log(guess.q_e), guess.phi])

    r, terms = _residual(theta, f, y)
    # jac stays bound until the next one exists: freed early, its 200 kB (at
    # 6401 points) went back to the system and faulted in again each step.
    jac = _jacobian(theta, f, terms)
    g, h, damping = _normal_equations(jac, r)
    cost = float(r @ r)
    lam = DAMPING_START
    converged = False
    n_iter = 0

    for n_iter in range(1, MAX_ITERATIONS + 1):
        try:
            step = np.linalg.solve(h + lam * damping, -g)
        except np.linalg.LinAlgError:
            lam *= 10.0
            continue

        theta_new = theta + step
        # Keep phi inside its domain; the model is undefined beyond +-pi/2.
        theta_new[3] = min(max(theta_new[3], -PHI_LIMIT), PHI_LIMIT)
        try:  # a trial may overflow; quietly, as its non-finite cost is rejected below
            with np.errstate(over="ignore", invalid="ignore"):
                r_new, terms = _residual(theta_new, f, y)
                cost_new = float(r_new @ r_new)
        except ArithmeticError:  # ln Q_L or ln Q_e stepped past the float range
            lam *= 10.0
            continue

        # A non-finite trial cost fails this test and is rejected like a rise.
        if cost_new <= cost:
            rel_step = max(
                abs(step[0]) / theta[0], abs(step[1]), abs(step[2]), abs(step[3])
            )
            rel_drop = (cost - cost_new) / max(cost, 1e-300)
            theta, r, cost = theta_new, r_new, cost_new
            jac = _jacobian(theta, f, terms)
            g, h, damping = _normal_equations(jac, r)
            lam = max(lam / 10.0, 1e-15)
            if rel_step < STEP_TOL or rel_drop < COST_TOL:
                converged = True
                break
        else:
            lam *= 10.0

    f_r = float(theta[0])
    q_l = math.exp(theta[1])
    q_e = math.exp(theta[2])
    phi = float(theta[3])

    # Parameter standard errors from the local quadratic model, assuming
    # independent homoscedastic noise (indicative only).
    dof = max(f.size - 4, 1)
    sigma2 = cost / dof
    try:
        cov = sigma2 * np.linalg.pinv(h)
        errs = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    except np.linalg.LinAlgError:
        errs = np.full(4, float("nan"))

    def build(conv):
        q_i = internal_q(q_l, q_e) if q_l < q_e else float("inf")
        return FitResult(
            f_r=f_r,
            q_l=q_l,
            q_e=q_e,
            q_i=q_i,
            phi=phi,
            f_r_err=float(errs[0]),
            q_l_err=q_l * float(errs[1]),
            q_e_err=q_e * float(errs[2]),
            phi_err=float(errs[3]),
            rms_residual=math.sqrt(cost / f.size),
            n_iterations=n_iter,
            converged=conv,
        )

    if not converged:
        raise ConvergenceFailure(
            f"no convergence in {MAX_ITERATIONS} iterations", best=build(False)
        )
    if q_l >= q_e:
        raise NonPhysicalFit(
            f"fit landed at Q_L = {q_l:.4g} >= Q_e = {q_e:.4g}"
        )
    if not f[0] <= f_r <= f[-1]:
        raise ConvergenceFailure(
            "fitted f_r outside the trace span", best=build(False)
        )
    return build(True)


@dataclass
class PowerSeriesEntry:
    p_in_dbm: float
    result: Optional[FitResult]
    error: Optional[str]


def fit_power_series(traces):
    """Fit each trace, ordered by input power; failures are recorded per
    entry instead of aborting the batch."""
    entries = []
    for tr in sorted(traces, key=lambda t: t.p_in_dbm):
        try:
            entries.append(PowerSeriesEntry(tr.p_in_dbm, fit_resonance(tr), None))
        except (NoResonance, NonPhysicalFit, ConvergenceFailure) as exc:
            entries.append(PowerSeriesEntry(tr.p_in_dbm, None, type(exc).__name__))
    return entries
