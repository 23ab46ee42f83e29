"""Per-user calibration: body parameters, sensor angle biases, online RLS.

The step-length model (`gaitlab.core`) is linear in the body parameters:

    D = h . w,   h = [sin(a_f) - sin(a_b),
                      sin(a_f - b_f) + sin(b_b - a_b),
                      1],
                 w = [l1, l2, d5]

so the offline fit against reference step lengths is a bounded-variable
linear least squares problem (each parameter is constrained within 10% of
its hand-measured nominal), solved exactly by bounded-variable least
squares (BVLS; Stark & Parker, Computational Statistics 10, 1995). The
module's own active-set BVLS (`_box_step`) solves it, and the bias fit's
steps below, so calibration needs numpy alone, not scipy.

Angle biases are fitted second, holding the parameters fixed: one additive
offset per event angle, each constrained within 10% of the magnitude of
that angle's observed mean, minimized by bounded Gauss-Newton: each step
solves the linearised problem on the box by bounded-variable least squares
(Lawson & Hanson, Solving Least Squares Problems, 1974; BVLS again). The
residual is a closed-form sum of sines, so the Jacobian is exact rather
than a finite difference. The objective's valley is long and shallow,
which a general trust-region solver crosses slowly: on a 256-user
synthetic cohort scipy's trust-region reflective solver, even at 1e-14
tolerances, stopped with a relative projected gradient
||P(J'r)||_inf / (||J|| ||r||) of up to 6.9e-3 (median 5.3e-4), where
this iteration reaches at most 4.5e-8 (median 4.5e-10). The fitted
bias is the correction to ADD to measured angles (equivalently, fitted
mean angle minus observed mean angle), so injecting a +2 degree sensor
error on an angle is recovered as a -2 degree bias.

The online path is a recursive least squares update with a forgetting
factor, warm-started at the nominal parameters. An innovation that is large
against its predicted spread resets the covariance (Goodwin & Sin 1984), so
the estimate follows a parameter jump instead of averaging it with old data.

The unknowns number three or four, so numpy's per-call overhead, not the
arithmetic, dominates their small updates. The solver and the RLS update
keep every matrix product in numpy (its BLAS kernels may fuse
multiply-adds, which Python cannot reproduce) and do the exactly rounded
elementwise operations around them on Python floats, in numpy's order, so
each result equals the all-numpy form's bit for bit. The products go
through `ndarray.dot`, not `@`: for float64 operands both call the same
BLAS routine (ddot, dgemv or dgemm), so the bits are the same, but `dot`'s
dispatch costs about half as much on operands this small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    EventAngles, StaticParams, StepMeasurement, _components, angle_matrix, step_features
)
from .errors import CalibrationError, GaitInputError

PARAM_BOX_FRACTION = 0.10
BIAS_BOX_FRACTION = 0.10
BIAS_MAX_NFEV = 2000
TRAIN_FRACTION = 0.7

DEFAULT_RLS_LAMBDA = 0.98
DEFAULT_RLS_P0 = 1000.0
# RLS resets P when e^2 > this * (lambda + h'Ph): a 3 cm innovation once the
# estimate has settled (h'Ph near 0).
RLS_RESET_INNOVATION_CM2 = 9.0

# Unit parameters: the model's components at these are the features, since
# each multiply by 1.0 is exact.
UNIT = StaticParams(1.0, 1.0, 1.0)


@dataclass(frozen=True)
class ReferenceStep:
    """Externally measured length of one step."""

    index: int
    length_cm: float

    def __post_init__(self):
        if not (math.isfinite(self.length_cm) and self.length_cm > 0):
            raise GaitInputError(
                f"reference step {self.index}: length must be > 0, "
                f"got {self.length_cm!r}"
            )


@dataclass(frozen=True)
class FeatureVector:
    """The two angle features of one step; the third feature, d5's, is always 1."""

    h1: float
    h2: float

    def as_array(self) -> np.ndarray:
        return np.array((self.h1, self.h2, 1.0))


def feature_vector(angles: EventAngles) -> FeatureVector:
    """Linear-model features of one step; h . (l1, l2, d5) equals the model."""
    # Scalar on purpose: a one-row step_features call costs several times more.
    d1, d2, d3, d4, _ = _components(UNIT, angles)
    return FeatureVector(d2 + d3, d1 + d4)


def feature_matrix(steps: Sequence[StepMeasurement]) -> np.ndarray:
    """(N, 3) features of the steps; row i dotted with (l1, l2, d5) is step i's length."""
    return step_features(angle_matrix(steps))


@dataclass(frozen=True)
class AngleBias:
    """Additive per-angle corrections (degrees): corrected = measured + bias."""

    alpha_f_deg: float = 0.0
    alpha_b_deg: float = 0.0
    beta_f_deg: float = 0.0
    beta_b_deg: float = 0.0

    def as_array(self) -> np.ndarray:
        return np.array(
            [self.alpha_f_deg, self.beta_f_deg, self.alpha_b_deg, self.beta_b_deg]
        )


@dataclass(frozen=True)
class CalibrationResult:
    params: StaticParams
    sse_before_cm2: float
    sse_after_cm2: float
    degenerate: bool = False


def _check_paired(steps, refs) -> None:
    if len(steps) != len(refs):
        raise GaitInputError(
            f"step/reference count mismatch: {len(steps)} steps vs {len(refs)} refs"
        )


def batch_fit_params(
    steps: Sequence[StepMeasurement],
    refs: Sequence[ReferenceStep],
    nominal: StaticParams,
) -> CalibrationResult:
    """Box-constrained least squares over (l1, l2, d5).

    Globally optimal: the model is linear in the parameters, and BVLS
    (`_box_step`, on the offset from the nominal) solves the bounded
    problem exactly. The reported SSE never exceeds the nominal's: where
    the fit does not lower it, the nominal parameters are returned. A
    rank-deficient feature matrix (e.g. all steps identical) returns the
    nominal parameters with `degenerate` set instead of an arbitrary fit.
    """
    _check_paired(steps, refs)
    if len(steps) < 3:
        raise GaitInputError(f"need >= 3 steps to fit 3 parameters, got {len(steps)}")

    H = feature_matrix(steps)
    y = np.array([r.length_cm for r in refs])
    w_nom = np.array(nominal.as_tuple())
    lo = (1.0 - PARAM_BOX_FRACTION) * w_nom
    hi = (1.0 + PARAM_BOX_FRACTION) * w_nom

    r_nom = H.dot(w_nom) - y
    sse_before = float(np.sum(r_nom ** 2))

    if np.linalg.matrix_rank(H, tol=1e-8) < 3:
        return CalibrationResult(
            params=nominal,
            sse_before_cm2=sse_before,
            sse_after_cm2=sse_before,
            degenerate=True,
        )

    w = np.clip(w_nom + _box_step(H, r_nom, lo - w_nom, hi - w_nom), lo, hi)
    sse_after = float(np.sum((y - H.dot(w)) ** 2))
    if sse_after < sse_before:
        return CalibrationResult(
            params=StaticParams(*w.tolist()), sse_before_cm2=sse_before, sse_after_cm2=sse_after
        )
    # The nominal is already optimal in the box: the fit can differ from it
    # only by rounding, which may raise the SSE.
    return CalibrationResult(params=nominal, sse_before_cm2=sse_before, sse_after_cm2=sse_before)


def _bias_problem(A: np.ndarray, y: np.ndarray, w: np.ndarray, free: np.ndarray):
    """Residuals and their exact Jacobian over the `free` angle biases.

    r(b) = y - step_features(A + b) @ w, with b in degrees and the other
    biases held at 0. With k = pi/180, a = radians(A + b),
    cf = l2 cos(af - bf) and cb = l2 cos(bb - ab), the columns of dr/db in
    A's order [alpha_f, beta_f, alpha_b, beta_b] are -k(l1 cos af + cf),
    k cf, k(l1 cos ab + cb) and -k cb; only the free ones are returned.
    """
    full = np.zeros(4)
    k = math.pi / 180.0
    l1, l2 = w[0], w[1]
    # a @ args is the cosines' arguments [af, ab, af - bf, bb - ab], and
    # their cosines @ cols the free columns of dr/db.
    args = np.array([[1, 0, 1, 0], [0, 0, -1, 0], [0, 1, 0, -1], [0, 0, 0, 1]], dtype=float)
    cols = np.array([[-l1, 0, 0, 0], [0, 0, l1, 0], [-l2, l2, 0, 0], [0, 0, l2, -l2]])
    cols = k * cols[:, free]

    def residuals(b: np.ndarray) -> np.ndarray:
        full[free] = b
        return y - step_features(A + full).dot(w)

    def jacobian(b: np.ndarray) -> np.ndarray:
        full[free] = b
        return np.cos(np.radians(A + full).dot(args)).dot(cols)

    return residuals, jacobian


def _box_step(J: np.ndarray, r: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The d minimising ||r + J d|| over lo <= d <= hi, where lo <= 0 <= hi.

    Bounded-variable least squares by active set (Stark & Parker 1995)
    from d = 0, with every variable whose bound is 0 held on it. Each
    free-set solve is `lstsq`, so a rank-deficient J gets the minimum-norm
    solve instead of an error. A held variable is freed only while the
    gradient pushes it into the box by more than 1e-12 ||J|| ||r||, well
    above rounding, and the loop is capped all the same: d stays feasible
    throughout, and the caller's step halving guards the cost.

    The products with J's m rows run in numpy; the bookkeeping on the n
    unknowns (at most four) runs on Python floats, which round each
    elementwise operation as numpy does.
    """
    n = len(lo)
    lo, hi = lo.tolist(), hi.tolist()
    d = [0.0] * n
    held = [a == 0.0 or b == 0.0 for a, b in zip(lo, hi)]
    # np.linalg.norm's own sum for ord=None, without its dispatch.
    Jk = J.ravel(order="K")
    tol = 1e-12 * math.sqrt(Jk.dot(Jk)) * math.sqrt(r.dot(r))
    for _ in range(4 * n):
        free = [i for i in range(n) if not held[i]]
        z = list(d)
        if free:
            fixed = [i for i in range(n) if held[i]]
            rhs = -(r + J[:, fixed].dot(np.array([d[i] for i in fixed])))
            for i, v in zip(free, np.linalg.lstsq(J[:, free], rhs, rcond=None)[0].tolist()):
                z[i] = v
        out = [i for i in free if z[i] < lo[i] or z[i] > hi[i]]
        if out:
            # Walk from d towards z up to the first bound crossed; hold it there.
            edge = {i: lo[i] if z[i] < lo[i] else hi[i] for i in out}
            frac = {i: (edge[i] - d[i]) / (z[i] - d[i]) for i in out}
            t = min(1.0, *frac.values())  # never past z
            d = [di + t * (zi - di) for di, zi in zip(d, z)]
            for i in out:
                if frac[i] <= t:
                    d[i] = edge[i]
                    held[i] = True
            continue
        d = z
        if not any(held):
            break
        g = J.T.dot(r + J.dot(np.array(d))).tolist()
        pull = [
            (-g[i] if d[i] <= lo[i] else g[i] if d[i] >= hi[i] else 0.0) if held[i] else 0.0
            for i in range(n)
        ]
        i = max(range(n), key=pull.__getitem__)  # the first maximum, as np.argmax
        if pull[i] <= tol:
            break
        held[i] = False
    return np.array(d)


def _fit_box(residuals, jacobian, lo: np.ndarray, hi: np.ndarray, max_nfev: int) -> np.ndarray:
    """Bounded Gauss-Newton from b = 0: the least-squares b in [lo, hi].

    Each step solves the linearised problem on the box (`_box_step`), then
    halves until the cost does not rise, so it never ends above its value
    at b = 0. It stops once a step moves b by at most 1e-14 (1 + max|b|),
    or cuts the cost by at most 1e-14 of it, or the linearised problem
    predicts no larger cut (checked before the step costs a residual
    evaluation), or after `max_nfev` residual evaluations. It returns the
    best b found.
    """
    b = np.zeros(len(lo))
    r = residuals(b)
    cost = r.dot(r)
    nfev = 1
    while nfev < max_nfev:
        J = jacobian(b)
        d = _box_step(J, r, lo - b, hi - b)
        Jd = J.dot(d)
        if -(2.0 * r.dot(Jd) + Jd.dot(Jd)) <= 1e-14 * cost:
            return b
        while True:
            trial = np.clip(b + d, lo, hi)
            if np.max(np.abs(trial - b)) <= 1e-14 * (1.0 + np.max(np.abs(b))):
                return b
            r_trial = residuals(trial)
            nfev += 1
            cost_trial = r_trial.dot(r_trial)
            if cost_trial <= cost:
                break
            if nfev >= max_nfev:
                return b
            d *= 0.5
        if cost - cost_trial <= 1e-14 * cost:
            return trial
        b, r, cost = trial, r_trial, cost_trial
    return b


def batch_fit_biases(
    steps: Sequence[StepMeasurement],
    refs: Sequence[ReferenceStep],
    params: StaticParams,
) -> AngleBias:
    """Fit additive per-angle corrections with the parameters held fixed.

    Each angle's correction is constrained within 10% of the magnitude of
    its observed mean. An angle whose mean is exactly 0 (a straight knee
    at every event, say) has no room, so its correction stays 0 and only
    the others are fitted. Solved by bounded Gauss-Newton from zero bias
    (`_fit_box`) on the residuals and their analytic Jacobian
    (`_bias_problem`); the model is genuinely nonlinear in the angles. The
    training SSE never ends above its value at zero bias. The objective
    can hold more than one local minimum, on different bounds of the box,
    and the fit returns the one its path reaches, as any local solver
    does. Needs at least one step per angle bias.
    """
    _check_paired(steps, refs)
    if len(steps) < 4:
        raise GaitInputError(f"need >= 4 steps to fit 4 angle biases, got {len(steps)}")
    A = angle_matrix(steps)
    w = np.array(params.as_tuple())
    y = np.array([r.length_cm for r in refs])
    if np.all(A.std(axis=0) < 1e-9):
        raise CalibrationError(
            "angle columns are constant; bias regression is degenerate"
        )
    mean = A.mean(axis=0)
    half_width = BIAS_BOX_FRACTION * np.abs(mean)
    free = np.flatnonzero(half_width > 0)
    if len(free) == 0:
        return AngleBias()
    # The box is +-half_width, rounded through the mean on purpose: the
    # objective's valley is so shallow that moving the bounds by that
    # rounding moved the fitted bias by up to 1.6e-5 deg on a synthetic
    # cohort. The four sensitivity directions are heavily collinear (each
    # bias moves every step length by a nearly constant amount).
    m, hw = mean[free], half_width[free]
    lo = (m - hw) - m
    hi = (m + hw) - m
    bias = np.zeros(4)
    bias[free] = _fit_box(*_bias_problem(A, y, w, free), lo, hi, BIAS_MAX_NFEV)

    return AngleBias(
        alpha_f_deg=float(bias[0]),
        beta_f_deg=float(bias[1]),
        alpha_b_deg=float(bias[2]),
        beta_b_deg=float(bias[3]),
    )


@dataclass
class RlsState:
    """Recursive least squares state over w = (l1, l2, d5)."""

    w: np.ndarray
    P: np.ndarray
    lam: float
    p0_scale: float  # a reset restores P = p0_scale * I
    n_updates: int = 0
    n_resets: int = 0


def rls_init(
    nominal: StaticParams,
    p0_scale: float = DEFAULT_RLS_P0,
    lam: float = DEFAULT_RLS_LAMBDA,
) -> RlsState:
    """Warm-start at the nominal parameters with covariance p0_scale * I."""
    if not (math.isfinite(p0_scale) and p0_scale > 0):
        raise GaitInputError(f"p0_scale must be finite and > 0, got {p0_scale}")
    if not (0.9 < lam <= 1.0):
        raise GaitInputError(f"forgetting factor must be in (0.9, 1], got {lam}")
    return RlsState(
        w=np.array(nominal.as_tuple(), dtype=float),
        P=p0_scale * np.eye(3),
        lam=float(lam),
        p0_scale=float(p0_scale),
    )


def rls_update(state: RlsState, h: FeatureVector, d_ref_cm: float) -> RlsState:
    """One forgetting-factor RLS step; a large innovation resets P first."""
    h1, h2 = h.h1, h.h2
    if not (math.isfinite(h1) and math.isfinite(h2) and math.isfinite(d_ref_cm)):
        raise GaitInputError("non-finite RLS inputs")
    hv = np.array((h1, h2, 1.0))
    P, lam = state.P, state.lam
    # The three products in numpy, the rest on Python floats (module docstring).
    e = d_ref_cm - float(hv.dot(state.w))
    Ph = P.dot(hv)
    spread = lam + float(hv.dot(Ph))
    reset = e * e > RLS_RESET_INNOVATION_CM2 * spread
    if reset:
        P = state.p0_scale * np.eye(3)
        Ph = P.dot(hv)
        spread = lam + float(hv.dot(Ph))
    p0, p1, p2 = Ph.tolist()
    g0, g1, g2 = p0 / spread, p1 / spread, p2 / spread
    w0, w1, w2 = state.w.tolist()
    w_new = np.array([w0 + g0 * e, w1 + g1 * e, w2 + g2 * e])
    # (P - gain Ph') / lam, then its symmetric part against roundoff.
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = P.tolist()
    a00, a01, a02 = (a00 - g0 * p0) / lam, (a01 - g0 * p1) / lam, (a02 - g0 * p2) / lam
    a10, a11, a12 = (a10 - g1 * p0) / lam, (a11 - g1 * p1) / lam, (a12 - g1 * p2) / lam
    a20, a21, a22 = (a20 - g2 * p0) / lam, (a21 - g2 * p1) / lam, (a22 - g2 * p2) / lam
    s01, s02, s12 = 0.5 * (a01 + a10), 0.5 * (a02 + a20), 0.5 * (a12 + a21)
    P_new = np.array((
        0.5 * (a00 + a00), s01, s02,
        s01, 0.5 * (a11 + a11), s12,
        s02, s12, 0.5 * (a22 + a22),
    )).reshape(3, 3)
    return RlsState(w_new, P_new, lam, state.p0_scale, state.n_updates + 1, state.n_resets + reset)


def mape_percent(estimated: np.ndarray, reference: np.ndarray) -> float:
    """Mean absolute percentage error of paired estimates; NaN when there are none.

    A zero or non-finite reference, or a non-finite estimate, raises
    `GaitInputError` rather than returning inf or NaN.
    """
    est, ref = np.asarray(estimated, float), np.asarray(reference, float)
    if est.shape != ref.shape:
        raise GaitInputError(f"estimates {est.shape} and references {ref.shape} differ in shape")
    if len(est) == 0:
        return float("nan")
    if not (np.isfinite(ref).all() and (ref != 0.0).all()):
        raise GaitInputError("references must be finite and non-zero")
    if not np.isfinite(est).all():
        raise GaitInputError("estimates must be finite")
    return float(np.mean(np.abs(est - ref) / np.abs(ref)) * 100.0)


def split_train_test(n: int) -> tuple[slice, slice]:
    """Deterministic time-ordered split: the first 70% of steps train."""
    cut = int(math.floor(n * TRAIN_FRACTION))
    return slice(0, cut), slice(cut, n)
