"""Resonance parameter extraction by damped nonlinear least squares.

The dip model (see transmission.notch_response) is fit to a measured
power-ratio trace over theta = (f_r, ln Q_L, ln Q_e, phi); the logs keep Q_L
and Q_e positive without constraints.  The optimizer is Gauss-Newton with
multiplicative damping (x10 on a rejected step, /10 on a cost decrease) and
analytic residual derivatives.  A trial step is rejected when its cost rises,
is not finite, or its Q exponents overflow.  A trial point costs only its
residual: the Jacobian and the normal equations are evaluated at the start
point and at accepted points alone (Moré 1978).  The damped and undamped 4x4
solves are an unrolled Cholesky factorisation on Python floats; a pivot that
is not positive is a failed solve, a rejected trial or an unmet offset test.

Three rules stop a fit, and FitResult.stop names the one that did: an
accepted step below STEP_TOL relative ("step"), a relative cost decrease
below COST_TOL ("cost"), and, at the start point and every accepted point,
the relative-offset criterion of Bates & Watts (Technometrics 23, 179
(1981)) ("offset").  With g = J^T r, h = J^T J and q = g^T h^-1 g, the part
of the residual r^T r in the tangent plane, from one undamped solve, it
stops once the remaining improvement is negligible against the noise:

    (q / p) / ((r^T r - q) / (n - p)) <= OFFSET_TOL**2,   p = 4 parameters

An exhausted iteration budget is "budget".  The undamped solve matters: a
damped step shrinks where damping is heavy, so a runaway fit would look
converged.

The Jacobian columns reuse the residual's u, D and m (see transmission),
with dS/du = -2(a sin phi + u m)/D:

    dS/d f_r = dS/du (-(u + 2 Q_L)/f_r)     dS/d ln Q_e = -(m + a**2/D)
    dS/d ln Q_L = u dS/du - dS/d ln Q_e    dS/d phi = 2a (sin phi - u cos phi)/D

A fit writes its point-sized arrays into one workspace of its own, reused
across its iterations and freed with the fit.
"""

import math
from collections import namedtuple
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConvergenceFailure, NonPhysicalFit, NoResonance
from .transmission import internal_q, notch_response

MAX_ITERATIONS = 200
STEP_TOL = 1e-8       # relative parameter step
COST_TOL = 1e-12      # relative cost decrease
OFFSET_TOL = 1e-3     # Bates-Watts relative offset
DAMPING_START = 1e-3
MIN_POINTS = 16       # the shortest trace initial_guess accepts
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
    stop: str  # the rule that ended the iterations: offset, step, cost or budget


def _baseline_and_noise(y):
    # Robust to a dip anywhere in the span (including the edges): baseline
    # from the upper quantile, noise floor from successive differences.
    # Partial sorts at the needed order statistics, with the arithmetic of
    # np.percentile(y, 80) (linear method) and np.median, bit for bit.  One
    # kth per partition (two kths take numpy's slower path); the neighbouring
    # order statistic is the min of the part above or the max of the part
    # below, the same value.
    pos = (y.size - 1) * 0.8
    k = math.floor(pos)
    w = pos - k
    part = np.partition(y, k)
    a, b = float(part[k]), float(part[k + 1:].min())
    baseline = b - (b - a) * (1 - w) if w >= 0.5 else a + (b - a) * w

    diffs = np.abs(np.diff(y))
    m = diffs.size // 2
    part = np.partition(diffs, m)
    median = float(part[m])
    if not diffs.size % 2:
        median = (float(part[:m].max()) + median) / 2
    noise = 1.4826 * median / math.sqrt(2.0)
    return baseline, noise


def initial_guess(trace):
    """Heuristic starting point: dip position, half-depth width, dip depth.

    Raises NoResonance when the dip does not stand out from the noise floor.
    """
    f = trace.frequencies
    y = trace.power_ratio
    if len(y) < MIN_POINTS:
        raise NoResonance(f"trace too short for a guess (< {MIN_POINTS} points)")

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


# A fit's point-sized arrays, nine float64 rows: the residual, u, D, m, a
# scratch row and the Jacobian's four columns.
_Workspace = namedtuple("_Workspace", "r u d m scratch jac")


def _workspace(n):
    """A workspace of n-point rows, laid out as one fresh (9, n) array."""
    rows = np.empty((9, n))
    return _Workspace(*rows[:5], rows[5:].T)


def _residual(theta, f, y, ws=None):
    """Residuals r = model - data for theta = (f_r, ln Q_L, ln Q_e, phi), and
    the lineshape terms (Q_L, u, D, m) that _jacobian reuses.  They are
    written into ws, or into fresh arrays without one."""
    ws = ws or _workspace(f.size)
    f_r, lql, lqe, phi = theta
    q_l = math.exp(lql)
    r, u, d, m = notch_response(f, f_r, q_l, math.exp(lqe), phi, out=(ws.r, ws.u, ws.d, ws.m))
    r -= y
    return r, (q_l, u, d, m)


def _jacobian(theta, f, terms, ws=None):
    """d r / d theta at the point whose _residual returned terms, by the
    module docstring's closed forms, into ws or into fresh arrays."""
    ws = ws or _workspace(f.size)
    q_l, u, d, m = terms
    f_r, _, lqe, phi = theta
    a = q_l / math.exp(lqe)
    a_sin, a_cos = a * math.sin(phi), a * math.cos(phi)
    jac = ws.jac
    p = np.multiply(u, m, out=ws.scratch)  # p = -(dS/du)/2
    p += a_sin
    p /= d
    col = np.add(u, 2.0 * q_l, out=jac[:, 0])  # f_r
    col *= p
    col *= 2.0 / f_r
    col = np.divide(-a * a, d, out=jac[:, 2])  # ln Q_e
    col -= m
    col = np.multiply(u, p, out=jac[:, 1])  # ln Q_L
    col *= -2.0
    col -= jac[:, 2]
    col = np.multiply(u, -2.0 * a_cos, out=jac[:, 3])  # phi
    col += 2.0 * a_sin
    col /= d
    return jac


def _normal_equations(jac, r):
    """The Gauss-Newton matrix h = J^T J and the gradient g = J^T r."""
    return jac.T @ jac, jac.T @ r


def _solve(h, g, lam=0.0):
    """Solve (h + lam D) x = g, D being h's diagonal with its non-positive
    entries raised to 1e-30, by an unrolled Cholesky factorisation L L^T of
    h's upper triangle on Python floats.  Returns x and q = z.z with
    z = L^-1 g, or None when a pivot is not > 0 (NaN included)."""
    (a00, a01, a02, a03), (_, a11, a12, a13), (_, _, a22, a23), (_, _, _, a33) = h.tolist()
    g0, g1, g2, g3 = g.tolist()
    p = a00 + lam * (a00 if a00 > 0 else 1e-30)
    if not p > 0:
        return None
    l00 = math.sqrt(p)
    l10, l20, l30 = a01 / l00, a02 / l00, a03 / l00
    p = a11 + lam * (a11 if a11 > 0 else 1e-30) - l10 * l10
    if not p > 0:
        return None
    l11 = math.sqrt(p)
    l21, l31 = (a12 - l20 * l10) / l11, (a13 - l30 * l10) / l11
    p = a22 + lam * (a22 if a22 > 0 else 1e-30) - l20 * l20 - l21 * l21
    if not p > 0:
        return None
    l22 = math.sqrt(p)
    l32 = (a23 - l30 * l20 - l31 * l21) / l22
    p = a33 + lam * (a33 if a33 > 0 else 1e-30) - l30 * l30 - l31 * l31 - l32 * l32
    if not p > 0:
        return None
    l33 = math.sqrt(p)
    z0 = g0 / l00  # L z = g, then L^T x = z
    z1 = (g1 - l10 * z0) / l11
    z2 = (g2 - l20 * z0 - l21 * z1) / l22
    z3 = (g3 - l30 * z0 - l31 * z1 - l32 * z2) / l33
    x3 = z3 / l33
    x2 = (z2 - l32 * x3) / l22
    x1 = (z1 - l21 * x2 - l31 * x3) / l11
    x0 = (z0 - l10 * x1 - l20 * x2 - l30 * x3) / l00
    return (x0, x1, x2, x3), z0 * z0 + z1 * z1 + z2 * z2 + z3 * z3


def _offset_small(h, g, cost, n):
    """The relative-offset test at the current point (module docstring).  An
    undamped solve that fails, or a q outside [0, cost), is not converged."""
    solved = _solve(h, g)
    if solved is None:
        return False
    q = solved[1]
    return 0.0 <= q < cost < math.inf and (q / 4) / ((cost - q) / (n - 4)) <= OFFSET_TOL**2


def fit_resonance(trace):
    """Fit the dip model to a trace; returns a FitResult.

    Raises NoResonance (no usable dip), ConvergenceFailure (iteration budget
    exhausted; carries best-so-far), or NonPhysicalFit (Q_L >= Q_e at the
    optimum).
    """
    guess = initial_guess(trace)

    f = trace.frequencies
    y = trace.power_ratio
    theta = (guess.f_r, math.log(guess.q_l), math.log(guess.q_e), guess.phi)

    # One set of buffers: a trial overwrites the current point's spent terms.
    ws = _workspace(f.size)
    r, terms = _residual(theta, f, y, ws)
    jac = _jacobian(theta, f, terms, ws)
    h, g = _normal_equations(jac, r)
    cost = float(r @ r)
    lam = DAMPING_START
    n_iter = 0
    stop = "offset" if _offset_small(h, g, cost, f.size) else None

    while stop is None and n_iter < MAX_ITERATIONS:
        n_iter += 1
        solved = _solve(h, g, lam)
        if solved is None:
            lam *= 10.0
            continue
        x = solved[0]  # the step is -x

        # Keep phi inside its domain; the model is undefined beyond +-pi/2.
        theta_new = (theta[0] - x[0], theta[1] - x[1], theta[2] - x[2],
                     min(max(theta[3] - x[3], -PHI_LIMIT), PHI_LIMIT))
        try:  # a trial may overflow; quietly, as its non-finite cost is rejected below
            with np.errstate(over="ignore", invalid="ignore"):
                r_new, terms = _residual(theta_new, f, y, ws)
                cost_new = float(r_new @ r_new)
        except ArithmeticError:  # ln Q_L or ln Q_e stepped past the float range
            lam *= 10.0
            continue

        # A non-finite trial cost fails this test and is rejected like a rise.
        if cost_new <= cost:
            rel_step = max(
                abs(x[0]) / theta[0], abs(x[1]), abs(x[2]), abs(x[3])
            )
            rel_drop = (cost - cost_new) / max(cost, 1e-300)
            theta, r, cost = theta_new, r_new, cost_new
            jac = _jacobian(theta, f, terms, ws)
            h, g = _normal_equations(jac, r)
            lam = max(lam / 10.0, 1e-15)
            if rel_step < STEP_TOL:
                stop = "step"
            elif rel_drop < COST_TOL:
                stop = "cost"
            elif _offset_small(h, g, cost, f.size):
                stop = "offset"
        else:
            lam *= 10.0

    f_r, q_l, q_e, phi = theta[0], math.exp(theta[1]), math.exp(theta[2]), theta[3]

    # Parameter standard errors from the local quadratic model, assuming
    # independent homoscedastic noise (indicative only): the diagonal of
    # sigma2 h^+, the pseudo-inverse V S^-1 U^T from h's SVD with singular
    # values up to 1e-15 of the largest dropped, as np.linalg.pinv does.
    sigma2 = cost / max(f.size - 4, 1)
    try:
        u, s, vt = (a.tolist() for a in np.linalg.svd(h, full_matrices=False))
        inv = [1.0 / x if x > 1e-15 * s[0] else 0.0 for x in s]
        errs = [math.sqrt(max(sigma2 * sum(vt[k][i] * (inv[k] * u[i][k]) for k in range(4)), 0.0))
                for i in range(4)]
    except np.linalg.LinAlgError:
        errs = [float("nan")] * 4

    result = FitResult(
        f_r=f_r,
        q_l=q_l,
        q_e=q_e,
        q_i=internal_q(q_l, q_e) if q_l < q_e else float("inf"),
        phi=phi,
        f_r_err=errs[0],
        q_l_err=q_l * errs[1],
        q_e_err=q_e * errs[2],
        phi_err=errs[3],
        rms_residual=math.sqrt(cost / f.size),
        n_iterations=n_iter,
        converged=stop is not None,
        stop=stop or "budget",
    )
    if not result.converged:
        raise ConvergenceFailure(
            f"no convergence in {MAX_ITERATIONS} iterations", best=result
        )
    if q_l >= q_e:
        raise NonPhysicalFit(
            f"fit landed at Q_L = {q_l:.4g} >= Q_e = {q_e:.4g}"
        )
    if not f[0] <= f_r <= f[-1]:
        raise ConvergenceFailure(
            "fitted f_r outside the trace span", best=replace(result, converged=False)
        )
    return result
