"""Resonance parameter extraction by damped nonlinear least squares.

The dip model (see transmission.notch_response) is fit to a measured
power-ratio trace over theta = (f_r, ln Q_L, ln Q_e, phi); the logs keep Q_L
and Q_e positive without constraints.  The optimizer is Gauss-Newton with
multiplicative damping (x10 on a rejected step, /10 on a cost decrease) and
analytic residual derivatives.  A trial step is rejected when its cost rises,
is not finite, or its Q exponents overflow.  A trial point costs only its
residual: the normal equations are evaluated at the start point and at
accepted points alone (Moré 1978).  The 4x4 algebra is an unrolled Cholesky
factorisation on Python floats and substitutions with its factor.  Each
point the fit stands on, the start and each accepted point, is factored
once, undamped; that factor's forward substitution serves the point's offset
test and, at the last point, the standard errors.  A damped step factors its
own h + lam D, and a forward and a back substitution give the step.  A pivot
that is not positive fails a factorisation: a damped one raises the damping
x10, an undamped one is an unmet offset test and, at the last point, a
refused fit or NaN standard errors.

A fit reaches its verdict before it pays for standard errors: one that
converged to a Q_L outside (0, Q_e), or where h is not positive definite (a
flat model whose overflowing Q_e/Q_L leaves J^T J zero, which a zero step
"converges" on), raises NonPhysicalFit, which carries no result, and
computes none.  Every other fit, returned or carried as a
ConvergenceFailure's best, computes them once, in _standard_errors:
diag(h^-1), entry k being |L^-1 e_k|^2 from the final point's h = L L^T, or
NaN, on a best out of budget, when h is not positive definite.  Cholesky's
error on a graded h grows about as eps / share, share being the least ratio
of a pivot l_kk**2 to its diagonal entry h_kk, whatever h's own condition
number (Demmel & Veselić, SIAM J. Matrix Anal. Appl. 13, 1204 (1992)), down
to a share of about 16 eps; below it a factor may still come back, its error
bounded only by 16 eps cond(h_s), h_s being h scaled to a unit diagonal.  On
criterion-4 fits the diagonal was within 1.2e-13 relative of the exact
inverse at shares above 1e-2 (every device-regime fit) and 5e-9 at 1.5e-8,
and the standard errors within 2% above 1e-14 and 15% at 3e-16.

Three rules stop a fit, and FitResult.stop names the one that did: an
accepted step below STEP_TOL relative ("step"), a relative cost decrease
below COST_TOL ("cost"), and, at the start point and every accepted point,
the relative-offset criterion of Bates & Watts (Technometrics 23, 179
(1981)) ("offset").  With g = J^T r, h = J^T J and q = g^T h^-1 g, the part
of the residual r^T r in the tangent plane, from the point's undamped factor,
it stops once the remaining improvement is negligible against the noise:

    (q / p) / ((r^T r - q) / (n - p)) <= OFFSET_TOL**2,   p = 4 parameters

An exhausted iteration budget is "budget".  The undamped solve matters: a
damped step shrinks where damping is heavy, so a runaway fit would look
converged.

The normal equations are built on four rows, B = (W**2, u**2 W**2, uW, uW**2),
from the residual's u and W = 1/D (see transmission), and divide no array.
With alpha = a (a - 2 cos phi) and beta = -2a sin phi, S - 1 = alpha W +
beta uW, and W = W**2 + u**2 W**2, so each Jacobian column is a combination
of B's rows with four Python-float coefficients, J^T = C B:

    dS/du = W**2 (beta (1 - u**2) - 2 alpha u)
          = beta W**2 - beta u**2 W**2 - 2 alpha uW**2
    u dS/du = -2 alpha u**2 W**2 - beta uW + 2 beta uW**2
    dS/d f_r = -(u dS/du + 2 Q_L dS/du) / f_r
    dS/d ln Q_e = 2a W ((cos phi - a) + sin phi u)
                = 2a (cos phi - a) (W**2 + u**2 W**2) - beta uW
    dS/d ln Q_L = u dS/du - dS/d ln Q_e
                = 2a ((a - cos phi) W**2 + cos phi u**2 W**2) + 2 beta uW**2
    dS/d phi = 2a (sin phi (W**2 + u**2 W**2) - cos phi uW)

Apart from u dS/du's -beta uW + 2 beta uW**2 = beta uW**2 (1 - u**2), these
are each column's own terms, W**k times a polynomial in u, so C cancels
terms only where the column itself has a zero.  B holds W**2 and u**2 W**2,
not their sum W with one of them: W - W**2 cancels to u**2 W**2 near u = 0,
and W - u**2 W**2 to W**2 far out.
h = C (B B^T) C^T and g = C (B r): four array products form B, one matrix
product and one matrix-vector product reduce it, and the rest is 4x4
arithmetic on Python floats; no n-by-4 Jacobian is formed.

A fit starts from initial_guess's point: the dip's f_r, Q_L from the
half-depth width, Q_e from the depth and phi = 0.  Given a lineshape it
already knows (`start`, the last reading's in a tune session), it starts from
that instead, with the start's f_r only inside the window of half the
guessed linewidth, f_r / (2 Q_L) of the guess, around the guessed dip, and
the guessed f_r outside it.  It keeps that fit only when it converged, is
physical and its f_r lies in the window; otherwise it fits again from the
guess, exactly as without a start.

A fit writes its point-sized arrays into one workspace of its own, reused
across its iterations and freed with the fit: _residual writes a point's r, u
and W there, and _normal reads them back when the fit stands on that point.
"""

import math
from collections import namedtuple
from dataclasses import dataclass

from ._lazy import numpy as np
from .errors import ConvergenceFailure, FitFailure, NonPhysicalFit, NoResonance
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
    """A fit's parameters, their standard errors and how it ended.  A fit
    that converged has a positive definite J^T J at its point; only a
    ConvergenceFailure's best, out of budget, may carry NaN *_err fields."""

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


def median(x):
    """np.median of a non-empty 1-D array, bit for bit, from one partial sort
    (np.median's own would load numpy.ma).  One kth per partition (two kths
    take numpy's slower path); the lower middle value of an even count is the
    max of the part below, the same value."""
    return _median_in_place(x.copy())


def _median_in_place(x):
    # median(x), partially sorting the scratch array x itself.
    m = x.size // 2
    x.partition(m)
    mid = float(x[m])
    return mid if x.size % 2 else (float(x[:m].max()) + mid) / 2


def _baseline_and_noise(y):
    # Robust to a dip anywhere in the span (including the edges): baseline
    # from the upper quantile, noise floor from successive differences.
    # A partial sort at the 80th-percentile order statistic, with the
    # arithmetic of np.percentile(y, 80) (linear method) bit for bit; its
    # upper neighbour is the min of the part above.
    pos = (y.size - 1) * 0.8
    k = math.floor(pos)
    w = pos - k
    part = np.partition(y, k)
    a, b = float(part[k]), float(part[k + 1:].min())
    baseline = b - (b - a) * (1 - w) if w >= 0.5 else a + (b - a) * w
    steps = np.subtract(y[1:], y[:-1])  # np.diff(y)'s own ufunc call
    noise = 1.4826 * _median_in_place(np.abs(steps, out=steps)) / math.sqrt(2.0)
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
    imin = int(y.argmin())
    y_min = y.item(imin)
    depth = baseline - y_min
    if depth < 3.0 * max(noise_floor, 1e-12):
        raise NoResonance("dip depth below 3x the noise floor")

    at_edge = imin < 2 or imin > len(y) - 3
    f_r = f.item(imin)

    # Full width at half depth: the first point at or above half depth on
    # either side of the minimum, interpolated against its inner neighbour,
    # in Python floats (numpy scalars would do the same IEEE operations).
    half_level = baseline - depth / 2.0
    above = (y[:imin] >= half_level).nonzero()[0]
    left = _crossing(f, y, half_level, above.item(-1), 1) if above.size else None
    above = (y[imin + 1:] >= half_level).nonzero()[0]
    right = _crossing(f, y, half_level, imin + 1 + above.item(0), -1) if above.size else None
    if left is not None and right is not None:
        width = right - left
    elif left is not None:
        width = 2.0 * (f_r - left)
    else:  # one side crosses: the points at or above the baseline are above half depth
        width = 2.0 * (right - f_r)
    width = max(width, (f.item(-1) - f.item(0)) / (len(f) - 1))

    q_l = f_r / width
    if not q_l > 0:
        raise NoResonance("dip too wide for its frequency (Q_L underflows)")
    min_ratio = min(max(y_min / baseline, 0.0), 1.0 - 1e-9)
    q_e = q_l / (1.0 - math.sqrt(min_ratio))
    return InitialGuess(f_r=f_r, q_l=q_l, q_e=q_e, phi=0.0, at_edge=at_edge)


def _crossing(f, y, level, j, inward):
    # Where y crosses level between the point j and its inner neighbour j + inward.
    k = j + inward
    frac = (level - y.item(k)) / (y.item(j) - y.item(k))
    return f.item(k) + frac * (f.item(j) - f.item(k))


# A fit's point-sized arrays, seven float64 rows: the residual, u, W and the
# basis B = (W**2, u**2 W**2, uW, uW**2) of the normal equations.
_Workspace = namedtuple("_Workspace", "r u w basis")


def _workspace(n):
    """A workspace of n-point rows, laid out as one fresh (7, n) array."""
    rows = np.empty((7, n))
    return _Workspace(rows[0], rows[1], rows[2], rows[3:])


def _residual(theta, f, y, ws):
    """Residuals r = model - data for theta = (f_r, ln Q_L, ln Q_e, phi),
    written with the lineshape's u and W into the workspace ws; returns r,
    which is ws.r."""
    f_r, lql, lqe, phi = theta
    r = notch_response(f, f_r, math.exp(lql), math.exp(lqe), phi, out=ws[:3])[0]
    r -= y
    return r


def _normal(theta, ws):
    """h = J^T J, as its upper triangle by rows (h00, h01, h02, h03, h11, h12,
    h13, h22, h23, h33), and g = J^T r, Python floats, at theta, whose
    _residual wrote r, u and W into the workspace ws: C (B B^T) C^T and
    C (B r) by the module docstring's closed forms, B written into ws."""
    f_r, lql, lqe, phi = theta
    q_l = math.exp(lql)  # _residual's Q_L, the same bits
    a = q_l / math.exp(lqe)
    cos = math.cos(phi)
    alpha, beta = a * (a - 2.0 * cos), -2.0 * a * math.sin(phi)
    r, u, w, basis = ws
    np.multiply(w, w, out=basis[0])
    np.multiply(u, w, out=basis[2])
    np.multiply(basis[2], basis[2], out=basis[1])
    np.multiply(basis[2], w, out=basis[3])
    (g00, g01, g02, g03), (_, g11, g12, g13), (_, _, g22, g23), (_, _, _, g33) = (
        basis @ basis.T).tolist()
    b0, b1, b2, b3 = (basis @ r).tolist()
    # C's rows on (W**2, u**2 W**2, uW, uW**2): f_r (c), ln Q_L (l, no uW
    # term), and ln Q_e (e) and phi (p), each with one coefficient on
    # W = W**2 + u**2 W**2 and one on uW.
    two_q = 2.0 * q_l
    c0, c1 = -two_q * beta / f_r, (2.0 * alpha + two_q * beta) / f_r
    c2, c3 = beta / f_r, (2.0 * two_q * alpha - 2.0 * beta) / f_r
    l0, l1, l3 = 2.0 * a * (a - cos), 2.0 * a * cos, 2.0 * beta
    e0, e2 = -l0, -beta
    p0, p2 = -beta, -2.0 * a * cos
    # (B B^T) times each row of C, then each row of C times those; e and p
    # meet B B^T's rows through their sums on W, s_k.
    c_0 = g00 * c0 + g01 * c1 + g02 * c2 + g03 * c3
    c_1 = g01 * c0 + g11 * c1 + g12 * c2 + g13 * c3
    c_2 = g02 * c0 + g12 * c1 + g22 * c2 + g23 * c3
    c_3 = g03 * c0 + g13 * c1 + g23 * c2 + g33 * c3
    l_0 = g00 * l0 + g01 * l1 + g03 * l3
    l_1 = g01 * l0 + g11 * l1 + g13 * l3
    l_2 = g02 * l0 + g12 * l1 + g23 * l3
    l_3 = g03 * l0 + g13 * l1 + g33 * l3
    s0, s1, s2, s3 = g00 + g01, g01 + g11, g02 + g12, g03 + g13
    e_0, e_1 = s0 * e0 + g02 * e2, s1 * e0 + g12 * e2
    e_2, e_3 = s2 * e0 + g22 * e2, s3 * e0 + g23 * e2
    p_0, p_1 = s0 * p0 + g02 * p2, s1 * p0 + g12 * p2
    p_2, p_3 = s2 * p0 + g22 * p2, s3 * p0 + g23 * p2
    h = (c0 * c_0 + c1 * c_1 + c2 * c_2 + c3 * c_3, c0 * l_0 + c1 * l_1 + c2 * l_2 + c3 * l_3,
         c0 * e_0 + c1 * e_1 + c2 * e_2 + c3 * e_3, c0 * p_0 + c1 * p_1 + c2 * p_2 + c3 * p_3,
         l0 * l_0 + l1 * l_1 + l3 * l_3, l0 * e_0 + l1 * e_1 + l3 * e_3,
         l0 * p_0 + l1 * p_1 + l3 * p_3,
         e0 * (e_0 + e_1) + e2 * e_2, e0 * (p_0 + p_1) + e2 * p_2, p0 * (p_0 + p_1) + p2 * p_2)
    g = (c0 * b0 + c1 * b1 + c2 * b2 + c3 * b3, l0 * b0 + l1 * b1 + l3 * b3,
         e0 * (b0 + b1) + e2 * b2, p0 * (b0 + b1) + p2 * b2)
    return h, g


def _cholesky(h, lam=0.0):
    """The factor L of h + lam D = L L^T, D being h's diagonal with its
    non-positive entries raised to 1e-30, by an unrolled Cholesky
    factorisation on Python floats of h given as _normal gives it, its upper
    triangle by rows: L's lower triangle by rows, (l00, l10, l11, l20, l21,
    l22, l30, l31, l32, l33), or None when a pivot is not > 0 (NaN included)."""
    a00, a01, a02, a03, a11, a12, a13, a22, a23, a33 = h
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
    return l00, l10, l11, l20, l21, l22, l30, l31, l32, math.sqrt(p)


def _forward(l, g):
    """z with L z = g, by forward substitution, for _cholesky's factor l and
    g four Python floats; z.z is g^T h^-1 g for h = L L^T."""
    l00, l10, l11, l20, l21, l22, l30, l31, l32, l33 = l
    g0, g1, g2, g3 = g
    z0 = g0 / l00
    z1 = (g1 - l10 * z0) / l11
    z2 = (g2 - l20 * z0 - l21 * z1) / l22
    z3 = (g3 - l30 * z0 - l31 * z1 - l32 * z2) / l33
    return z0, z1, z2, z3


def _solve(l, g):
    """x with L L^T x = g, for _cholesky's factor l and g four Python floats."""
    l00, l10, l11, l20, l21, l22, l30, l31, l32, l33 = l
    z0, z1, z2, z3 = _forward(l, g)  # L z = g, then L^T x = z
    x3 = z3 / l33
    x2 = (z2 - l32 * x3) / l22
    x1 = (z1 - l21 * x2 - l31 * x3) / l11
    x0 = (z0 - l10 * x1 - l20 * x2 - l30 * x3) / l00
    return x0, x1, x2, x3


def _standard_errors(l, sigma2):
    """The standard errors of theta at the point h = L L^T factored as l,
    from the local quadratic model, assuming independent noise of variance
    sigma2 (indicative only): the square roots of sigma2 diag(h^-1), entry k
    being |L^-1 e_k|^2, or NaN for all four when l is None, h not being
    positive definite (module docstring)."""
    if l is None:
        return [float("nan")] * 4
    units = (1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0), (0.0, 0.0, 0.0, 1.0)
    return [math.sqrt(sigma2 * (z0 * z0 + z1 * z1 + z2 * z2 + z3 * z3))
            for z0, z1, z2, z3 in (_forward(l, e) for e in units)]


def _offset_small(l, g, cost, n):
    """The relative-offset test at a point with J^T J factored as l and
    J^T r = g (module docstring).  A point whose factor is None, or a q
    outside [0, cost), is not converged."""
    if l is None:
        return False
    z0, z1, z2, z3 = _forward(l, g)
    q = z0 * z0 + z1 * z1 + z2 * z2 + z3 * z3
    return 0.0 <= q < cost < math.inf and (q / 4) / ((cost - q) / (n - 4)) <= OFFSET_TOL**2


def fit_resonance(trace, start=None):
    """Fit the dip model to a trace; returns a FitResult.

    start: an InitialGuess of a lineshape already known, such as the last
    fit's on the same resonator, or None.  The fit then starts from it
    instead of initial_guess's point, taking its f_r only when that lies
    within the window, half the guessed linewidth around the guessed dip,
    and keeps its result only when that converged, is physical and lies in
    the window; otherwise it fits again from the guess, as without start.

    Raises a FitFailure: NoResonance (no usable dip), NonPhysicalFit
    (converged to Q_L >= Q_e or Q_L <= 0, or where J^T J is not positive
    definite), or ConvergenceFailure (budget exhausted or f_r outside the
    span; carries the best-so-far result).
    """
    guess = initial_guess(trace)
    f = trace.frequencies
    y = trace.power_ratio
    if start is not None:
        window = guess.f_r / (2.0 * guess.q_l)
        f_r = start.f_r if abs(start.f_r - guess.f_r) <= window else guess.f_r
        try:
            result = _fit(f, y, (f_r, math.log(start.q_l), math.log(start.q_e), start.phi))
            if abs(result.f_r - guess.f_r) <= window:
                return result
        except FitFailure:
            pass
    return _fit(f, y, (guess.f_r, math.log(guess.q_l), math.log(guess.q_e), guess.phi))


def _fit(f, y, theta):
    """The damped Gauss-Newton fit from theta = (f_r, ln Q_L, ln Q_e, phi)
    and its FitResult, raising as fit_resonance does."""
    # One set of buffers: a trial overwrites the current point's spent terms.
    ws = _workspace(f.size)
    r = _residual(theta, f, y, ws)
    h, g = _normal(theta, ws)
    l = _cholesky(h)  # the one undamped factor of each point the fit stands on
    cost = float(r @ r)
    lam = DAMPING_START
    n_iter = 0
    stop = "offset" if _offset_small(l, g, cost, f.size) else None

    while stop is None and n_iter < MAX_ITERATIONS:
        n_iter += 1
        damped = _cholesky(h, lam)
        if damped is None:
            lam *= 10.0
            continue
        x = _solve(damped, g)  # the step is -x

        # Keep phi inside its domain; the model is undefined beyond +-pi/2.
        theta_new = (theta[0] - x[0], theta[1] - x[1], theta[2] - x[2],
                     min(max(theta[3] - x[3], -PHI_LIMIT), PHI_LIMIT))
        try:  # a trial may overflow; quietly, as its non-finite cost is rejected below
            with np.errstate(over="ignore", invalid="ignore"):
                r = _residual(theta_new, f, y, ws)
                cost_new = float(r @ r)
        except ArithmeticError:  # ln Q_L or ln Q_e stepped past the float range
            lam *= 10.0
            continue

        # A non-finite trial cost fails this test and is rejected like a rise.
        if cost_new <= cost:
            rel_step = max(
                abs(x[0]) / theta[0], abs(x[1]), abs(x[2]), abs(x[3])
            )
            rel_drop = (cost - cost_new) / max(cost, 1e-300)
            theta, cost = theta_new, cost_new
            h, g = _normal(theta, ws)
            l = _cholesky(h)
            lam = max(lam / 10.0, 1e-15)
            if rel_step < STEP_TOL:
                stop = "step"
            elif rel_drop < COST_TOL:
                stop = "cost"
            elif _offset_small(l, g, cost, f.size):
                stop = "offset"
        else:
            lam *= 10.0

    f_r, q_l, q_e, phi = theta[0], math.exp(theta[1]), math.exp(theta[2]), theta[3]
    converged = stop is not None
    if converged and not 0 < q_l < q_e:  # Q_L underflows to 0 on a trace far off the model's baseline
        raise NonPhysicalFit(f"fit landed at Q_L = {q_l:.4g} outside (0, Q_e = {q_e:.4g})")
    if converged and l is None:  # a flat model, as when Q_e/Q_L overflows: J^T J is zero
        raise NonPhysicalFit(f"fit stopped on {stop} where J^T J is not positive definite")
    errs = _standard_errors(l, cost / (f.size - 4))
    result = FitResult(
        f_r=f_r,
        q_l=q_l,
        q_e=q_e,
        q_i=internal_q(q_l, q_e) if 0 < q_l < q_e else float("inf"),
        phi=phi,
        f_r_err=errs[0],
        q_l_err=q_l * errs[1],
        q_e_err=q_e * errs[2],
        phi_err=errs[3],
        rms_residual=math.sqrt(cost / f.size),
        n_iterations=n_iter,
        converged=converged and bool(f[0] <= f_r <= f[-1]),
        stop=stop or "budget",
    )
    if not result.converged:
        raise ConvergenceFailure(
            "fitted f_r outside the trace span" if converged
            else f"no convergence in {MAX_ITERATIONS} iterations", best=result
        )
    return result
