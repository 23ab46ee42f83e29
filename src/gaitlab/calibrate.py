"""Per-user calibration: body parameters, sensor angle biases, online RLS.

The step-length model (`gaitlab.core`) is linear in the body parameters:

    D = h . w,   h = [sin(a_f) - sin(a_b),
                      sin(a_f - b_f) + sin(b_b - a_b),
                      1],
                 w = [l1, l2, d5]

so the offline fit against reference step lengths is a bounded-variable
linear least squares problem (each parameter is constrained within 10% of
its hand-measured nominal), solved exactly by bounded-variable least
squares (BVLS; Stark & Parker, Computational Statistics 10, 1995).

Angle biases are fitted second, holding the parameters fixed: one additive
offset per event angle, each constrained within 10% of the magnitude of
that angle's observed mean, minimized by bounded trust-region least
squares. The fitted bias is the correction to ADD to measured angles (equivalently,
fitted mean angle minus observed mean angle), so injecting a +2 degree
sensor error on an angle is recovered as a -2 degree bias.

The online path is a recursive least squares update with a forgetting
factor, warm-started at the nominal parameters. An innovation that is large
against its predicted spread resets the covariance (Goodwin & Sin 1984), so
the estimate follows a parameter jump instead of averaging it with old data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import least_squares, lsq_linear

from .core import (
    EventAngles, Side, StaticParams, StepMeasurement, angle_matrix, step_features, step_length
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

_UNIT_PARAMS = StaticParams(1.0, 1.0, 1.0)


@dataclass(frozen=True)
class ReferenceStep:
    """Externally measured length of one step."""

    index: int
    length_cm: float
    side: Side | None = None

    def __post_init__(self):
        if not (math.isfinite(self.length_cm) and self.length_cm > 0):
            raise GaitInputError(
                f"reference step {self.index}: length must be > 0, "
                f"got {self.length_cm!r}"
            )


@dataclass(frozen=True)
class FeatureVector:
    h1: float
    h2: float
    h3: float = 1.0

    def as_array(self) -> np.ndarray:
        return np.array([self.h1, self.h2, self.h3])


def feature_vector(angles: EventAngles) -> FeatureVector:
    """Linear-model features of one step; h . (l1, l2, d5) equals the model."""
    # Scalar on purpose: a one-row step_features call costs several times more.
    d = step_length(_UNIT_PARAMS, angles)
    return FeatureVector(h1=d.d2 + d.d3, h2=d.d1 + d.d4)


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
    bias: AngleBias | None
    sse_before_cm2: float
    sse_after_cm2: float
    iterations: int
    degenerate: bool = False
    notes: tuple[str, ...] = ()


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
    solves the bounded problem exactly. A rank-deficient feature matrix
    (e.g. all steps identical) returns the nominal parameters with a
    degeneracy note instead of an arbitrary fit.
    """
    _check_paired(steps, refs)
    if len(steps) < 3:
        raise GaitInputError(f"need >= 3 steps to fit 3 parameters, got {len(steps)}")

    H = feature_matrix(steps)
    y = np.array([r.length_cm for r in refs])
    w_nom = np.array(nominal.as_tuple())
    lo = (1.0 - PARAM_BOX_FRACTION) * w_nom
    hi = (1.0 + PARAM_BOX_FRACTION) * w_nom

    sse_before = float(np.sum((y - H @ w_nom) ** 2))

    if np.linalg.matrix_rank(H, tol=1e-8) < 3:
        return CalibrationResult(
            params=nominal,
            bias=None,
            sse_before_cm2=sse_before,
            sse_after_cm2=sse_before,
            iterations=0,
            degenerate=True,
            notes=("feature matrix is rank deficient; keeping nominal parameters",),
        )

    fit = lsq_linear(H, y, bounds=(lo, hi), method="bvls")
    w = np.clip(fit.x, lo, hi)
    return CalibrationResult(
        params=StaticParams(*w),
        bias=None,
        sse_before_cm2=sse_before,
        sse_after_cm2=float(np.sum((y - H @ w) ** 2)),
        iterations=int(fit.nit),
        degenerate=False,
    )


def batch_fit_biases(
    steps: Sequence[StepMeasurement],
    refs: Sequence[ReferenceStep],
    params: StaticParams,
) -> AngleBias:
    """Fit additive per-angle corrections with the parameters held fixed.

    Each angle's correction is constrained within 10% of the magnitude of
    its observed mean. An angle whose mean is exactly 0 (a straight knee
    at every event, say) has no room, so its correction stays 0 and only
    the others are fitted. Solved by bounded trust-region least squares on
    the residuals; the model is genuinely nonlinear in the angles.
    """
    _check_paired(steps, refs)
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
    # objective's valley (below) is so shallow that moving a bound by one
    # ulp moves the fitted bias by up to 3e-3 deg.
    m, hw = mean[free], half_width[free]
    lo = (m - hw) - m
    hi = (m + hw) - m

    full = np.zeros(4)

    def residuals(b: np.ndarray) -> np.ndarray:
        full[free] = b
        return y - step_features(A + full) @ w

    # The four sensitivity directions are heavily collinear (each bias moves
    # every step length by a nearly constant amount), so the objective has a
    # long shallow valley, which the bounded trust-region solve handles.
    fit = least_squares(
        residuals,
        np.zeros(len(hw)),
        bounds=(lo, hi),
        method="trf",
        xtol=1e-14,
        ftol=1e-14,
        gtol=1e-14,
        max_nfev=BIAS_MAX_NFEV,
    )
    bias = np.zeros(4)
    bias[free] = np.clip(fit.x, lo, hi)

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

    def params(self) -> StaticParams:
        return StaticParams(*self.w)


def rls_init(
    nominal: StaticParams,
    p0_scale: float = DEFAULT_RLS_P0,
    lam: float = DEFAULT_RLS_LAMBDA,
) -> RlsState:
    """Warm-start at the nominal parameters with covariance p0_scale * I."""
    if not p0_scale > 0:
        raise GaitInputError(f"p0_scale must be > 0, got {p0_scale}")
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
    hv = h.as_array()
    if not (np.all(np.isfinite(hv)) and math.isfinite(d_ref_cm)):
        raise GaitInputError("non-finite RLS inputs")
    P, lam, w = state.P, state.lam, state.w
    e = d_ref_cm - hv @ w
    Ph = P @ hv
    spread = lam + hv @ Ph
    reset = bool(e * e > RLS_RESET_INNOVATION_CM2 * spread)
    if reset:
        P = state.p0_scale * np.eye(3)
        Ph = P @ hv
        spread = lam + hv @ Ph
    gain = Ph / spread
    w_new = w + gain * e
    P_new = (P - np.outer(gain, Ph)) / lam
    P_new = 0.5 * (P_new + P_new.T)  # keep symmetric against roundoff
    return RlsState(w_new, P_new, lam, state.p0_scale, state.n_updates + 1, state.n_resets + reset)


def mape_percent(estimated: np.ndarray, reference: np.ndarray) -> float:
    est, ref = np.asarray(estimated, float), np.asarray(reference, float)
    if len(est) == 0:
        return float("nan")
    return float(np.mean(np.abs(est - ref) / np.abs(ref)) * 100.0)


def rmse(estimated: np.ndarray, reference: np.ndarray) -> float:
    est, ref = np.asarray(estimated, float), np.asarray(reference, float)
    if len(est) == 0:
        return float("nan")
    return float(np.sqrt(np.mean((est - ref) ** 2)))


def split_train_test(n: int) -> tuple[slice, slice]:
    """Deterministic time-ordered split: the first 70% of steps train."""
    cut = int(math.floor(n * TRAIN_FRACTION))
    return slice(0, cut), slice(cut, n)
