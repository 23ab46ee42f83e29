import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaitlab import calibrate
from gaitlab.calibrate import (
    BIAS_BOX_FRACTION,
    BIAS_MAX_NFEV,
    DEFAULT_RLS_P0,
    PARAM_BOX_FRACTION,
    RLS_RESET_INNOVATION_CM2,
    AngleBias,
    FeatureVector,
    ReferenceStep,
    RlsState,
    _bias_problem,
    _box_step,
    batch_fit_biases,
    batch_fit_params,
    feature_matrix,
    feature_vector,
    mape_percent,
    rls_init,
    rls_update,
    split_train_test,
)
from gaitlab.core import (
    EventAngles, StaticParams, StepMeasurement, angle_matrix, attach_lengths, step_features,
    step_length
)
from gaitlab.errors import CalibrationError, GaitInputError

NOMINAL = StaticParams(30.0, 45.0, 14.0)


def step_from_angles(i, angles, side=None):
    return StepMeasurement(
        index=i,
        front_side=side or ("L" if i % 2 == 0 else "R"),
        angles=angles,
        t_front_event=0.5 * i,
        t_back_event=0.5 * i + 0.1,
    )


def random_steps(rng, n):
    steps = []
    for i in range(n):
        angles = EventAngles(
            alpha_f=rng.uniform(20, 35),
            beta_f=rng.uniform(5, 15),
            alpha_b=rng.uniform(-15, -5),
            beta_b=rng.uniform(10, 20),
        )
        steps.append(step_from_angles(i, angles))
    return steps


def model_lengths(params, steps):
    return np.array([step_length(params, s.angles).total for s in steps])


def refs_from(lengths):
    return [ReferenceStep(i, float(l)) for i, l in enumerate(lengths)]


class TestFeatureVector:
    def test_zero_angles(self):
        h = feature_vector(EventAngles(0, 0, 0, 0))
        assert (h.h1, h.h2) == (0.0, 0.0)
        assert h.as_array().tolist() == [0.0, 0.0, 1.0]

    def test_worked_example(self):
        h = feature_vector(EventAngles(30.0, 10.0, -10.0, 15.0))
        assert h.h1 == pytest.approx(0.6736481776669304, abs=1e-9)
        assert h.h2 == pytest.approx(0.7646384050520515, abs=1e-9)
        assert h.as_array().tolist() == [h.h1, h.h2, 1.0]

    def test_inner_product_reproduces_model(self):
        h = feature_vector(EventAngles(30.0, 10.0, -10.0, 15.0))
        total = float(h.as_array() @ np.array(NOMINAL.as_tuple()))
        assert total == pytest.approx(68.62, abs=0.01)

    def test_linearity_identity_random_draws(self):
        rng = np.random.default_rng(0)
        w = np.array(NOMINAL.as_tuple())
        steps = []
        for i in range(1000):
            angles = EventAngles(*rng.uniform(-60, 60, size=4))
            lhs = step_length(NOMINAL, angles).total
            rhs = float(feature_vector(angles).as_array() @ w)
            assert abs(lhs - rhs) < 1e-12
            steps.append(step_from_angles(i, angles))
        # The vectorised kernel against the scalar reference.
        rows = feature_matrix(steps) @ w
        assert np.all(np.abs(rows - model_lengths(NOMINAL, steps)) < 1e-12)

    def test_bit_identical_to_step_length(self):
        # feature_vector's sums, and those of the step_length breakdown at
        # unit parameters, are the model's operations restated here, bit for
        # bit: math.sin on math.radians of each angle, in the model's order.
        unit = StaticParams(1.0, 1.0, 1.0)
        sin, rad = math.sin, math.radians
        for a in np.random.default_rng(23).uniform(-90, 90, size=(20_000, 4)).tolist():
            af, bf, ab, bb = map(rad, a)
            want = (sin(af) + sin(-ab), sin(af - bf) + sin(bb - ab))
            angles = EventAngles(*a)
            h, d = feature_vector(angles), step_length(unit, angles)
            assert (h.h1, h.h2) == want
            assert (d.d2 + d.d3, d.d1 + d.d4) == want

    def test_features_bounded(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            h = feature_vector(EventAngles(*rng.uniform(-90, 90, size=4)))
            assert abs(h.h1) <= 2.0 and abs(h.h2) <= 2.0


class TestBatchFitParams:
    def test_exact_data_returns_nominal(self):
        rng = np.random.default_rng(2)
        steps = random_steps(rng, 40)
        refs = refs_from(model_lengths(NOMINAL, steps))
        result = batch_fit_params(steps, refs, NOMINAL)
        assert result.params.as_tuple() == pytest.approx(NOMINAL.as_tuple(), abs=1e-9)
        assert result.sse_after_cm2 == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize(
        "true",
        [StaticParams(31.0, 43.0, 13.0), StaticParams(34.5, 43.0, 13.0)],
        ids=["interior", "l1_above_box"],
    )
    def test_recovers_interior_truth_vs_grid_oracle(self, true):
        rng = np.random.default_rng(3)
        steps = random_steps(rng, 100)
        y = model_lengths(true, steps) + rng.normal(0, 1.0, 100)
        refs = refs_from(y)
        result = batch_fit_params(steps, refs, NOMINAL)

        got = np.array(result.params.as_tuple())
        nom = np.array(NOMINAL.as_tuple())
        assert np.all(got >= (1 - PARAM_BOX_FRACTION) * nom - 1e-12)
        assert np.all(got <= (1 + PARAM_BOX_FRACTION) * nom + 1e-12)
        if true.l1_cm > (1 + PARAM_BOX_FRACTION) * NOMINAL.l1_cm:
            # l1 ends on its upper face.
            assert got[0] == pytest.approx((1 + PARAM_BOX_FRACTION) * nom[0], abs=1e-9)
        else:
            # Within 2% of the truth.
            assert np.all(np.abs(got - true.as_tuple()) / np.array(true.as_tuple()) < 0.02)

        # Brute-force box search at 0.1 cm resolution as the oracle: the
        # exact solver must do at least as well as the best grid point.
        H = feature_matrix(steps)
        axes = [np.arange(0.9 * v, 1.1 * v + 1e-9, 0.1) for v in nom]
        G = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
        sse = ((y[None, :] - G @ H.T) ** 2).sum(axis=1)
        oracle_sse = float(sse.min())
        assert result.sse_after_cm2 <= oracle_sse + 1e-9
        oracle = G[int(np.argmin(sse))]
        # Both land in the same region of the box.
        assert np.all(np.abs(got - oracle) <= 0.5)

    def test_interior_solution_matches_lstsq(self):
        rng = np.random.default_rng(4)
        true = StaticParams(30.5, 44.0, 14.5)  # well inside the box
        steps = random_steps(rng, 80)
        y = model_lengths(true, steps) + rng.normal(0, 0.2, 80)
        refs = refs_from(y)
        result = batch_fit_params(steps, refs, NOMINAL)
        H = feature_matrix(steps)
        unconstrained, *_ = np.linalg.lstsq(H, y, rcond=None)
        assert np.all(np.abs(np.array(result.params.as_tuple()) - unconstrained) < 1e-6)

    def test_sse_never_worse_than_nominal(self):
        rng = np.random.default_rng(5)
        for trial in range(10):
            steps = random_steps(rng, 30)
            y = model_lengths(NOMINAL, steps) + rng.normal(0, 3.0, 30)
            result = batch_fit_params(steps, refs_from(y), NOMINAL)
            assert result.sse_after_cm2 <= result.sse_before_cm2 + 1e-9

    def test_optimal_nominal_keeps_its_sse(self):
        """References at the nominal plus noise orthogonal to the features:
        the nominal is the least-squares optimum, and a fit that differs
        from it by rounding alone could report a higher SSE. The nominal
        is returned instead, with its own SSE."""
        rng = np.random.default_rng(19)
        w = np.array(NOMINAL.as_tuple())
        for _ in range(300):
            steps = random_steps(rng, 30)
            H = feature_matrix(steps)
            noise = rng.normal(0, 2.0, 30)
            noise -= H @ np.linalg.lstsq(H, noise, rcond=None)[0]
            result = batch_fit_params(steps, refs_from(H @ w + noise), NOMINAL)
            if result.params != NOMINAL:
                assert result.sse_after_cm2 < result.sse_before_cm2
            else:
                assert result.sse_after_cm2 == result.sse_before_cm2
            assert not result.degenerate

    def test_fitted_params_are_python_floats(self):
        rng = np.random.default_rng(3)
        steps = random_steps(rng, 100)
        y = model_lengths(StaticParams(31.0, 43.0, 13.0), steps) + rng.normal(0, 1.0, 100)
        result = batch_fit_params(steps, refs_from(y), NOMINAL)
        assert result.params != NOMINAL
        assert [type(v) for v in result.params.as_tuple()] == [float] * 3
        assert "np.float64(" not in repr(result.params)

    def test_box_compliance_with_out_of_box_truth(self):
        rng = np.random.default_rng(6)
        far = StaticParams(40.0, 55.0, 20.0)  # all beyond +10%
        steps = random_steps(rng, 60)
        refs = refs_from(model_lengths(far, steps))
        result = batch_fit_params(steps, refs, NOMINAL)
        got = np.array(result.params.as_tuple())
        nom = np.array(NOMINAL.as_tuple())
        assert np.all(got >= 0.9 * nom - 1e-12)
        assert np.all(got <= 1.1 * nom + 1e-12)

    def test_rank_deficient_returns_nominal(self):
        angles = EventAngles(25.0, 10.0, -8.0, 14.0)
        steps = [step_from_angles(i, angles) for i in range(20)]
        refs = refs_from(np.full(20, 60.0))
        result = batch_fit_params(steps, refs, NOMINAL)
        assert result.degenerate
        assert result.params == NOMINAL

    def test_count_mismatch_rejected(self):
        rng = np.random.default_rng(7)
        steps = random_steps(rng, 10)
        with pytest.raises(GaitInputError):
            batch_fit_params(steps, refs_from(np.full(9, 60.0)), NOMINAL)

    def test_too_few_steps_rejected(self):
        rng = np.random.default_rng(8)
        steps = random_steps(rng, 2)
        with pytest.raises(GaitInputError):
            batch_fit_params(steps, refs_from([60.0, 61.0]), NOMINAL)


def biased_steps_and_refs(rng, n, injected: AngleBias, params=NOMINAL,
                          beta_f_mean=25.0, beta_b_mean=18.0):
    """Steps whose measured angles carry a known additive error; the
    references are the lengths at the TRUE angles."""
    steps, lengths = [], []
    for i in range(n):
        true = EventAngles(
            alpha_f=rng.uniform(22, 34),
            beta_f=rng.uniform(beta_f_mean - 4, beta_f_mean + 4),
            alpha_b=rng.uniform(-14, -6),
            beta_b=rng.uniform(beta_b_mean - 4, beta_b_mean + 4),
        )
        lengths.append(step_length(params, true).total)
        measured = EventAngles(
            alpha_f=true.alpha_f - injected.alpha_f_deg,
            beta_f=true.beta_f - injected.beta_f_deg,
            alpha_b=true.alpha_b - injected.alpha_b_deg,
            beta_b=true.beta_b - injected.beta_b_deg,
        )
        steps.append(step_from_angles(i, measured))
    return steps, refs_from(lengths)


class TestBatchFitBiases:
    def test_unbiased_data_zero_biases(self):
        rng = np.random.default_rng(9)
        steps, refs = biased_steps_and_refs(rng, 60, AngleBias())
        bias = batch_fit_biases(steps, refs, NOMINAL)
        assert np.all(np.abs(bias.as_array()) < 1e-6)

    def test_recovers_injected_bias(self):
        # A +2 deg sensor error on beta_f must come back as a -2 deg
        # correction (and conversely the correction cancels the error).
        rng = np.random.default_rng(10)
        injected = AngleBias(beta_f_deg=-2.0)  # correction worth -2 deg
        steps, refs = biased_steps_and_refs(rng, 80, injected)
        bias = batch_fit_biases(steps, refs, NOMINAL)
        assert bias.beta_f_deg == pytest.approx(-2.0, abs=0.2)

    def test_recovers_multiple_biases(self):
        rng = np.random.default_rng(11)
        injected = AngleBias(
            alpha_f_deg=-2.0, alpha_b_deg=0.8, beta_f_deg=1.5, beta_b_deg=-1.0
        )
        steps, refs = biased_steps_and_refs(rng, 120, injected)
        bias = batch_fit_biases(steps, refs, NOMINAL)
        assert np.all(np.abs(bias.as_array() - injected.as_array()) < 0.2)

    def test_zero_mean_residual_after_correction(self):
        rng = np.random.default_rng(12)
        injected = AngleBias(alpha_f_deg=-1.5, beta_b_deg=1.0)
        steps, refs = biased_steps_and_refs(rng, 100, injected)
        bias = batch_fit_biases(steps, refs, NOMINAL)
        # corrected - true = -injected + fitted, averaged per angle
        residual = bias.as_array() - injected.as_array()
        assert np.all(np.abs(residual) < 0.1)

    def test_zero_mean_angle_held_at_zero(self):
        # A straight knee at heel strike: beta_f is 0 at every step, so its
        # box has no width. alpha_f reads 1.5 deg high.
        rng = np.random.default_rng(13)
        steps, lengths = [], []
        for i in range(60):
            true = EventAngles(
                alpha_f=rng.uniform(22, 34),
                beta_f=0.0,
                alpha_b=rng.uniform(-14, -6),
                beta_b=rng.uniform(14, 22),
            )
            lengths.append(step_length(NOMINAL, true).total)
            steps.append(step_from_angles(i, replace(true, alpha_f=true.alpha_f + 1.5)))
        refs = refs_from(lengths)
        bias = batch_fit_biases(steps, refs, NOMINAL)
        assert bias.beta_f_deg == 0.0

        def sse(b):
            fitted = [s.length_cm for s in attach_lengths(steps, NOMINAL, b)]
            return float(np.sum((np.array(fitted) - lengths) ** 2))

        assert sse(bias) <= sse(AngleBias())

    def test_constant_angles_degenerate(self):
        angles = EventAngles(25.0, 10.0, -8.0, 14.0)
        steps = [step_from_angles(i, angles) for i in range(30)]
        refs = refs_from(np.full(30, 60.0))
        with pytest.raises(CalibrationError):
            batch_fit_biases(steps, refs, NOMINAL)

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_too_few_steps_rejected(self, n):
        # Four biases need at least four steps; zero steps must not reach
        # numpy's empty-slice reductions.
        steps, refs = biased_steps_and_refs(np.random.default_rng(5), n, AngleBias(alpha_f_deg=1.0))
        with pytest.raises(GaitInputError):
            batch_fit_biases(steps, refs, NOMINAL)

    @pytest.mark.parametrize("beta_f_zero", [False, True], ids=["all_free", "beta_f_zero_width"])
    def test_jacobian_matches_central_difference(self, beta_f_zero):
        """The analytic Jacobian against a central difference (step 1e-6
        deg, rtol 1e-6) at random points inside the box; a zero-mean
        beta_f has a zero-width box, so its column is left out."""
        rng = np.random.default_rng(21)
        steps, refs = biased_steps_and_refs(rng, 40, AngleBias(alpha_f_deg=-1.0, beta_b_deg=0.5))
        A = angle_matrix(steps)
        if beta_f_zero:
            A[:, 1] = 0.0
        y = np.array([r.length_cm for r in refs])
        hw = BIAS_BOX_FRACTION * np.abs(A.mean(axis=0))
        free = np.flatnonzero(hw > 0)
        assert len(free) == (3 if beta_f_zero else 4)
        residuals, jacobian = _bias_problem(A, y, np.array(NOMINAL.as_tuple()), free)
        step = 1e-6
        for _ in range(5):
            b = rng.uniform(-hw[free], hw[free])
            J = jacobian(b)
            assert J.shape == (len(steps), len(free))
            fd = np.empty_like(J)
            for j in range(len(free)):
                e = np.zeros(len(free))
                e[j] = step
                fd[:, j] = (residuals(b + e) - residuals(b - e)) / (2 * step)
            np.testing.assert_allclose(J, fd, rtol=1e-6)

    @pytest.mark.parametrize("seed, n, injected", [
        (9, 60, AngleBias()),
        (10, 80, AngleBias(beta_f_deg=-2.0)),
        (11, 120, AngleBias(alpha_f_deg=-2.0, alpha_b_deg=0.8, beta_f_deg=1.5, beta_b_deg=-1.0)),
        (12, 100, AngleBias(alpha_f_deg=-1.5, beta_b_deg=1.0)),
    ], ids=["seed9", "seed10", "seed11", "seed12"])
    @pytest.mark.parametrize("noise_cm", [0.0, 1.0], ids=["exact", "noisy"])
    def test_matches_finite_difference_oracle(self, seed, n, injected, noise_cm):
        """The analytic-Jacobian fit against the same problem solved with
        scipy's 2-point finite-difference Jacobian. The solver takes a
        different path, so the bits differ: the bias must agree within
        2e-3 deg (a one-ulp move of a bound moves it up to 3e-3 deg), and
        the training SSE must be <= the oracle's x (1 + 1e-12). Exact
        references take both fits to the SSE of rounding alone, so the SSE
        of residuals one ulp of max|y| each is allowed on top; with 1 cm
        reference noise that allowance is negligible."""
        from scipy.optimize import least_squares

        rng = np.random.default_rng(seed)
        steps, refs = biased_steps_and_refs(rng, n, injected)
        A = angle_matrix(steps)
        w = np.array(NOMINAL.as_tuple())
        y = np.array([r.length_cm for r in refs]) + rng.normal(0.0, noise_cm, n)
        refs = refs_from(y)
        mean = A.mean(axis=0)
        half_width = BIAS_BOX_FRACTION * np.abs(mean)
        free = np.flatnonzero(half_width > 0)
        m, hw = mean[free], half_width[free]
        lo, hi = (m - hw) - m, (m + hw) - m
        full = np.zeros(4)

        def residuals(b):
            full[free] = b
            return y - step_features(A + full) @ w

        fit = least_squares(
            residuals, np.zeros(len(hw)), bounds=(lo, hi), method="trf",
            xtol=1e-14, ftol=1e-14, gtol=1e-14, max_nfev=BIAS_MAX_NFEV,
        )
        oracle = np.zeros(4)
        oracle[free] = np.clip(fit.x, lo, hi)

        got = batch_fit_biases(steps, refs, NOMINAL).as_array()
        assert np.all(np.abs(got - oracle) <= 2e-3)

        def sse(bias):
            return float(np.sum((y - step_features(A + bias) @ w) ** 2))

        rounding = len(y) * (np.finfo(float).eps * np.max(np.abs(y))) ** 2
        assert sse(got) <= sse(oracle) * (1 + 1e-12) + rounding


def bias_box(A):
    """The free columns and bounds `batch_fit_biases` fits the biases of A in."""
    mean = A.mean(axis=0)
    half_width = BIAS_BOX_FRACTION * np.abs(mean)
    free = np.flatnonzero(half_width > 0)
    m, hw = mean[free], half_width[free]
    return free, (m - hw) - m, (m + hw) - m


def training_sse(A, y, w, bias):
    return float(np.sum((y - step_features(A + bias) @ w) ** 2))


class TestBiasSolver:
    """The bounded Gauss-Newton behind `batch_fit_biases`."""

    def test_reaches_the_optimum_on_a_cohort(self):
        """64 synthetic users, each fitted on its training split after its
        parameter fit. Every bias lies in its box; its training SSE is at
        most that of scipy's trust-region fit (analytic Jacobian, 1e-14
        tolerances) x (1 + 1e-12), plus the rounding allowance of
        `test_matches_finite_difference_oracle`; and its relative projected
        gradient ||P(J'r)||_inf / (||J|| ||r||) is at most 1e-6, a
        first-order optimality that scipy's fit misses. Both fits are
        local, and where a user's objective has two minima they may reach
        different ones; on none of these 64 users does scipy's reach the
        lower one. Some of them (user 48, say) need a full step halved, and
        without the halving their gradient check fails."""
        from scipy.optimize import least_squares

        from gaitbench.synth import make_cohort

        for user in make_cohort(5353, 64, 80):
            train, _ = split_train_test(len(user.steps))
            steps, refs = user.steps[train], user.refs[train]
            params = batch_fit_params(steps, refs, user.nominal).params
            got = batch_fit_biases(steps, refs, params).as_array()

            A = angle_matrix(steps)
            y = np.array([r.length_cm for r in refs])
            w = np.array(params.as_tuple())
            free, lo, hi = bias_box(A)
            residuals, jacobian = _bias_problem(A, y, w, free)
            fit = least_squares(
                residuals, np.zeros(len(free)), jac=jacobian, bounds=(lo, hi), method="trf",
                xtol=1e-14, ftol=1e-14, gtol=1e-14, max_nfev=BIAS_MAX_NFEV,
            )
            oracle = np.zeros(4)
            oracle[free] = np.clip(fit.x, lo, hi)

            b = got[free]
            assert np.all((lo <= b) & (b <= hi))
            rounding = len(y) * (np.finfo(float).eps * np.max(np.abs(y))) ** 2
            assert training_sse(A, y, w, got) <= (
                training_sse(A, y, w, oracle) * (1 + 1e-12) + rounding
            )
            r, J = residuals(b), jacobian(b)
            g = J.T @ r
            g[((b <= lo) & (g > 0)) | ((b >= hi) & (g < 0))] = 0.0
            assert np.max(np.abs(g)) <= 1e-6 * np.linalg.norm(J) * np.linalg.norm(r)

    def test_rank_deficient_jacobian(self):
        """Only alpha_f varies: beta_f, alpha_b and beta_b are constant and
        non-zero, so the alpha_b and beta_b columns of the Jacobian are
        both constant and J has rank 3 of 4."""
        rng = np.random.default_rng(31)
        steps, lengths = [], []
        for i in range(40):
            true = EventAngles(rng.uniform(22, 34), 10.0, -8.0, 14.0)
            lengths.append(step_length(NOMINAL, true).total + rng.normal(0.0, 1.0))
            measured = replace(true, alpha_f=true.alpha_f + 1.0, beta_b=15.0)
            steps.append(step_from_angles(i, measured))
        A = angle_matrix(steps)
        y = np.array(lengths)
        w = np.array(NOMINAL.as_tuple())
        free, lo, hi = bias_box(A)
        _, jacobian = _bias_problem(A, y, w, free)
        assert np.linalg.matrix_rank(jacobian(np.zeros(4))) == 3

        got = batch_fit_biases(steps, refs_from(lengths), NOMINAL).as_array()
        assert np.all((lo <= got) & (got <= hi))
        assert training_sse(A, y, w, got) <= training_sse(A, y, w, np.zeros(4))

    def test_box_step_matches_bvls(self):
        """The linearised step against scipy's BVLS on random box problems
        of one to four columns, some with a repeated column (rank
        deficient) and some with a bound at 0, as after a bias reaches its
        bound: the step is feasible and its cost no higher."""
        from scipy.optimize import lsq_linear

        rng = np.random.default_rng(41)
        for k in range(120):
            n = 1 + k % 4
            J = rng.normal(size=(30, n))
            if n > 1 and k % 3 == 0:
                J[:, -1] = J[:, 0]
            r = rng.normal(size=30) * 10.0
            lo, hi = -rng.uniform(0.0, 2.0, n), rng.uniform(0.0, 2.0, n)
            if k % 5 == 0:
                (lo if k % 2 else hi)[0] = 0.0
            d = _box_step(J, r, lo, hi)
            assert np.all((lo <= d) & (d <= hi))
            want = lsq_linear(J, -r, bounds=(lo, hi), method="bvls").x
            cost = np.sum((r + J @ d) ** 2)
            assert cost <= np.sum((r + J @ want) ** 2) * (1 + 1e-12) + 1e-9

    def test_box_step_bit_identical_to_numpy_oracle(self):
        """`_box_step` against its numpy form on the problems of
        `test_box_step_matches_bvls`, rank-deficient and zero-bound cases
        included."""
        rng = np.random.default_rng(41)
        for k in range(120):
            n = 1 + k % 4
            J = rng.normal(size=(30, n))
            if n > 1 and k % 3 == 0:
                J[:, -1] = J[:, 0]
            r = rng.normal(size=30) * 10.0
            lo, hi = -rng.uniform(0.0, 2.0, n), rng.uniform(0.0, 2.0, n)
            if k % 5 == 0:
                (lo if k % 2 else hi)[0] = 0.0
            assert _box_step(J, r, lo, hi).tobytes() == box_step_oracle(J, r, lo, hi).tobytes()

    def test_box_step_bit_identical_on_a_cohort(self, monkeypatch):
        """Every box problem met while fitting 32 users' parameters and
        biases: `_box_step` returns the numpy form's bits."""
        from gaitbench.synth import make_cohort

        problems = []

        def recorded(*args):
            problems.append(args)
            return _box_step(*args)

        monkeypatch.setattr(calibrate, "_box_step", recorded)
        for user in make_cohort(4646, 32, 80):
            train, _ = split_train_test(len(user.steps))
            steps, refs = user.steps[train], user.refs[train]
            batch_fit_biases(steps, refs, batch_fit_params(steps, refs, user.nominal).params)
        assert len(problems) > 64
        for J, r, lo, hi in problems:
            assert _box_step(J, r, lo, hi).tobytes() == box_step_oracle(J, r, lo, hi).tobytes()

    def test_bias_problem_bit_identical_on_a_cohort(self, monkeypatch):
        """Every residual and Jacobian evaluated while fitting 32 users'
        parameters and biases, and every feature matrix behind them, give
        the bits of their `@` and `column_stack` forms."""
        from gaitbench.synth import make_cohort

        problems = []

        def recorded(A, y, w, free):
            residuals, jacobian = _bias_problem(A, y, w, free)
            points = []
            problems.append((A, y, w, free, points))

            def recording(fn, kind):
                def call(b):
                    points.append((kind, b.copy()))
                    return fn(b)

                return call

            return recording(residuals, "r"), recording(jacobian, "J")

        monkeypatch.setattr(calibrate, "_bias_problem", recorded)
        for user in make_cohort(4646, 32, 80):
            train, _ = split_train_test(len(user.steps))
            steps, refs = user.steps[train], user.refs[train]
            assert feature_matrix(steps).tobytes() == step_features_oracle(
                angle_matrix(steps)
            ).tobytes()
            batch_fit_biases(steps, refs, batch_fit_params(steps, refs, user.nominal).params)
        assert len(problems) == 32
        kinds = []
        for A, y, w, free, points in problems:
            residuals, jacobian = _bias_problem(A, y, w, free)
            for kind, b in points:
                kinds.append(kind)
                full = np.zeros(4)
                full[free] = b
                assert step_features(A + full).tobytes() == step_features_oracle(
                    A + full
                ).tobytes()
                want = bias_problem_oracle(A, y, w, free, b)
                got = residuals(b) if kind == "r" else jacobian(b)
                assert got.tobytes() == want[kind].tobytes()
        assert kinds.count("r") > 64 and kinds.count("J") > 64

    @pytest.mark.parametrize("cap", [1, 3])
    def test_evaluation_cap(self, monkeypatch, cap):
        """`BIAS_MAX_NFEV` bounds the residual evaluations; a capped fit is
        still feasible and no worse than zero bias, and a cap of 1 (the
        evaluation at zero alone) returns zero bias."""
        rng = np.random.default_rng(11)
        injected = AngleBias(alpha_f_deg=-2.0, alpha_b_deg=0.8, beta_f_deg=1.5, beta_b_deg=-1.0)
        steps, refs = biased_steps_and_refs(rng, 120, injected)
        y = np.array([r.length_cm for r in refs]) + rng.normal(0.0, 1.0, len(refs))
        problem, calls = calibrate._bias_problem, []

        def counted(*args):
            residuals, jacobian = problem(*args)

            def counting(b):
                calls.append(1)
                return residuals(b)

            return counting, jacobian

        monkeypatch.setattr(calibrate, "_bias_problem", counted)
        monkeypatch.setattr(calibrate, "BIAS_MAX_NFEV", cap)
        got = batch_fit_biases(steps, refs_from(y), NOMINAL).as_array()
        assert 1 <= len(calls) <= cap
        A = angle_matrix(steps)
        w = np.array(NOMINAL.as_tuple())
        _, lo, hi = bias_box(A)
        assert np.all((lo <= got) & (got <= hi))
        assert training_sse(A, y, w, got) <= training_sse(A, y, w, np.zeros(4))
        if cap == 1:
            assert np.all(got == 0.0)


def step_features_oracle(angles_deg):
    """`core.step_features` as first written, through `column_stack`."""
    a = np.radians(angles_deg)
    af, bf, ab, bb = a[:, 0], a[:, 1], a[:, 2], a[:, 3]
    return np.column_stack(
        [np.sin(af) - np.sin(ab), np.sin(af - bf) + np.sin(bb - ab), np.ones(len(a))]
    )


def bias_problem_oracle(A, y, w, free, b):
    """`_bias_problem`'s residuals ("r") and Jacobian ("J") at the free
    biases b, in their `@` form."""
    full = np.zeros(4)
    full[free] = b
    l1, l2 = w[0], w[1]
    args = np.array([[1, 0, 1, 0], [0, 0, -1, 0], [0, 1, 0, -1], [0, 0, 0, 1]], dtype=float)
    cols = np.array([[-l1, 0, 0, 0], [0, 0, l1, 0], [-l2, l2, 0, 0], [0, 0, l2, -l2]])
    cols = math.pi / 180.0 * cols[:, free]
    return {
        "r": y - step_features_oracle(A + full) @ w,
        "J": np.cos(np.radians(A + full) @ args) @ cols,
    }


def box_step_oracle(J, r, lo, hi):
    """`_box_step` as first written, in numpy throughout: the reference its
    scalar bookkeeping must match bit for bit."""
    n = len(lo)
    d = np.zeros(n)
    held = (lo == 0.0) | (hi == 0.0)
    for _ in range(4 * n):
        free = ~held
        z = d.copy()
        if free.any():
            z[free] = np.linalg.lstsq(J[:, free], -(r + J[:, held] @ d[held]), rcond=None)[0]
        out = free & ((z < lo) | (z > hi))
        if out.any():
            edge = np.where(z < lo, lo, hi)
            frac = np.ones(n)
            frac[out] = (edge[out] - d[out]) / (z[out] - d[out])
            t = frac.min()
            d += t * (z - d)
            hit = out & (frac <= t)
            d[hit] = edge[hit]
            held |= hit
            continue
        d = z
        if not held.any():
            break
        g = J.T @ (r + J @ d)
        pull = np.where(d <= lo, -g, np.where(d >= hi, g, 0.0)) * held
        i = int(np.argmax(pull))
        if pull[i] <= 1e-12 * np.linalg.norm(J) * np.linalg.norm(r):
            break
        held[i] = False
    return d


def rls_update_oracle(state, h, d_ref_cm):
    """`rls_update` as first written, in numpy throughout: the reference
    the scalar checks and the broadcast outer product must match bit for bit."""
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


# (h1, h2, innovation in cm against the nominal parameters) per update.
rls_steps = st.lists(
    st.tuples(
        st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(-40.0, 40.0)
    ),
    min_size=1,
    max_size=40,
)


class TestRls:
    def features(self, rng, n):
        return [
            feature_vector(
                EventAngles(
                    rng.uniform(20, 35),
                    rng.uniform(5, 15),
                    rng.uniform(-15, -5),
                    rng.uniform(10, 20),
                )
            )
            for _ in range(n)
        ]

    def test_init_state(self):
        state = rls_init(NOMINAL, p0_scale=1000.0, lam=1.0)
        assert np.allclose(state.w, [30, 45, 14])
        assert np.allclose(state.P, 1000.0 * np.eye(3))
        assert (state.p0_scale, state.n_updates, state.n_resets) == (1000.0, 0, 0)

    def test_invalid_lambda_rejected(self):
        with pytest.raises(GaitInputError):
            rls_init(NOMINAL, lam=0.5)
        with pytest.raises(GaitInputError):
            rls_init(NOMINAL, lam=1.1)
        with pytest.raises(GaitInputError):
            rls_init(NOMINAL, p0_scale=0.0)

    @pytest.mark.parametrize("p0_scale", [math.inf, math.nan])
    def test_non_finite_p0_scale_rejected(self, p0_scale):
        # inf * I would put NaN off the diagonal and so in every weight.
        with pytest.raises(GaitInputError, match="p0_scale"):
            rls_init(NOMINAL, p0_scale=p0_scale)

    def test_zero_innovation_leaves_w(self):
        rng = np.random.default_rng(13)
        state = rls_init(NOMINAL, lam=1.0)
        h = self.features(rng, 1)[0]
        d = float(h.as_array() @ state.w)
        new = rls_update(state, h, d)
        assert np.allclose(new.w, state.w, atol=1e-12)
        # P shrinks along h.
        hv = h.as_array()
        assert hv @ new.P @ hv < hv @ state.P @ hv

    def test_converges_within_five_steps(self):
        rng = np.random.default_rng(14)
        true_w = np.array([30.0, 45.0, 14.0])
        state = rls_init(StaticParams(27.0, 40.0, 12.0), p0_scale=1000.0, lam=1.0)
        feats = self.features(rng, 5)
        for h in feats:
            state = rls_update(state, h, float(h.as_array() @ true_w))
        assert np.linalg.norm(state.w - true_w) / np.linalg.norm(true_w) < 0.01
        # Oracle: closed-form least squares on the same five samples
        # recovers the truth exactly; RLS differs from it only through the
        # finite initial covariance.
        H = np.array([h.as_array() for h in feats])
        y = H @ true_w
        w_ls, *_ = np.linalg.lstsq(H, y, rcond=None)
        assert np.allclose(w_ls, true_w, atol=1e-9)
        assert np.linalg.norm(state.w - w_ls) / np.linalg.norm(w_ls) < 0.01

    def test_matches_batch_ls_with_unit_lambda(self):
        rng = np.random.default_rng(15)
        true_w = np.array([31.0, 43.0, 13.0])
        feats = self.features(rng, 60)
        H = np.array([h.as_array() for h in feats])
        y = H @ true_w
        state = rls_init(NOMINAL, p0_scale=1e6, lam=1.0)
        for h, d in zip(feats, y):
            state = rls_update(state, h, float(d))
        w_ls, *_ = np.linalg.lstsq(H, y, rcond=None)
        assert np.all(np.abs(state.w - w_ls) < 1e-4)

    def test_forgetting_tracks_parameter_jump(self):
        rng = np.random.default_rng(16)
        w_a = np.array([30.0, 45.0, 14.0])
        w_b = np.array([27.0, 41.0, 15.0])
        state = rls_init(StaticParams(*w_a), p0_scale=1000.0, lam=0.98)
        for h in self.features(rng, 40):
            state = rls_update(state, h, float(h.as_array() @ w_a))
        for h in self.features(rng, 20):
            state = rls_update(state, h, float(h.as_array() @ w_b))
        assert np.linalg.norm(state.w - w_b) / np.linalg.norm(w_b) < 0.01

    def test_large_innovation_resets_covariance(self):
        rng = np.random.default_rng(18)
        true_w = np.array([31.0, 44.0, 13.5])
        state = rls_init(NOMINAL)
        for h in self.features(rng, 30):
            state = rls_update(state, h, float(h.as_array() @ true_w))
        assert state.n_resets == 0
        h = self.features(rng, 1)[0]
        d = float(h.as_array() @ true_w)
        # A 1 cm surprise keeps the covariance; a 10 cm one resets it first,
        # so the step equals an update from a fresh covariance.
        assert rls_update(state, h, d + 1.0).n_resets == 0
        got = rls_update(state, h, d + 10.0)
        fresh = rls_update(replace(state, P=DEFAULT_RLS_P0 * np.eye(3)), h, d + 10.0)
        assert got.n_resets == 1 and got.n_updates == state.n_updates + 1
        assert np.array_equal(got.w, fresh.w) and np.array_equal(got.P, fresh.P)

    def test_covariance_stays_positive_definite(self):
        rng = np.random.default_rng(17)
        state = rls_init(NOMINAL, p0_scale=1000.0, lam=0.98)
        true_w = np.array([31.0, 44.0, 13.5])
        for h in self.features(rng, 300):
            d = float(h.as_array() @ true_w) + rng.normal(0, 1.0)
            state = rls_update(state, h, d)
            eigs = np.linalg.eigvalsh(state.P)
            assert eigs.min() > 1e-12
            assert np.allclose(state.P, state.P.T)

    @pytest.mark.parametrize("h, d_ref", [
        (FeatureVector(float("nan"), 0.0), 60.0),
        (FeatureVector(0.5, float("inf")), 60.0),
        (FeatureVector(0.5, 0.7), float("nan")),
    ], ids=["nan_h1", "inf_h2", "nan_ref"])
    def test_non_finite_inputs_rejected(self, h, d_ref):
        state = rls_init(NOMINAL)
        with pytest.raises(GaitInputError):
            rls_update(state, h, d_ref)

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(rls_steps)
    @example([(0.6, 0.7, 0.5)] * 10 + [(0.6, 0.7, 30.0)])  # settles, then resets
    def test_bit_identical_to_numpy_oracle(self, updates):
        w_nom = np.array(NOMINAL.as_tuple())
        got = want = rls_init(NOMINAL)
        for h1, h2, innovation in updates:
            h = FeatureVector(h1, h2)
            d_ref = float(h.as_array() @ w_nom) + innovation
            got, want = rls_update(got, h, d_ref), rls_update_oracle(want, h, d_ref)
            assert np.array_equal(got.w, want.w) and np.array_equal(got.P, want.P)
            assert (got.n_updates, got.n_resets) == (want.n_updates, want.n_resets)

    def test_bit_identical_to_numpy_oracle_on_a_cohort(self):
        """Each user's whole RLS pass over its 80 real feature vectors, from
        the nominal parameters, shifted users (every second) included."""
        from gaitbench.synth import make_cohort

        resets = []
        for user in make_cohort(4646, 32, 80):
            got = want = rls_init(user.nominal)
            for step, ref in zip(user.steps, user.refs):
                h = feature_vector(step.angles)
                got = rls_update(got, h, ref.length_cm)
                want = rls_update_oracle(want, h, ref.length_cm)
                assert got.w.tobytes() == want.w.tobytes()
                assert got.P.tobytes() == want.P.tobytes()
                assert (got.n_updates, got.n_resets) == (want.n_updates, want.n_resets)
            resets.append(got.n_resets)
        assert all(resets[1::2])  # every shifted user's pass resets P


def _operands(left, right):
    """Random operand pairs of `left` . `right` shapes, each a function of
    (n, k), for n in 1..80 and k in 1..4."""
    def draw(rng, n, k):
        a = rng.normal(size=left(n, k)) * rng.uniform(0.1, 100.0)
        return a, rng.normal(size=right(n, k)) * rng.uniform(0.1, 100.0)

    return draw


def _transposed(rng, n, k):
    J = rng.normal(size=(n, k)) * rng.uniform(0.1, 100.0)
    assert J.T.flags.f_contiguous
    return J.T, rng.normal(size=n)


# The products `calibrate` takes with ndarray.dot, by call site and shape.
DOT_SITES = {
    "rls_update: hv . w, hv . Ph": _operands(lambda n, k: 3, lambda n, k: 3),
    "rls_update: P . hv": _operands(lambda n, k: (3, 3), lambda n, k: 3),
    "batch_fit_params: H . w; _bias_problem: features . w": _operands(
        lambda n, k: (n, 3), lambda n, k: 3
    ),
    "_bias_problem: radians . args": _operands(lambda n, k: (n, 4), lambda n, k: (4, 4)),
    "_bias_problem: cosines . cols": _operands(lambda n, k: (n, 4), lambda n, k: (4, k)),
    "_fit_box, _box_step: J . d": _operands(lambda n, k: (n, k), lambda n, k: k),
    "_box_step: J[:, fixed] . d[fixed], none to three fixed": _operands(
        lambda n, k: (n, k - 1), lambda n, k: k - 1
    ),
    "_box_step: J.T . (r + J d)": _transposed,
    # n * k: the raveled Jacobian's norm too.
    "_fit_box: r . r, r . Jd, Jd . Jd; _box_step: the norms": _operands(
        lambda n, k: n * k, lambda n, k: n * k
    ),
}


@pytest.mark.parametrize("site", list(DOT_SITES))
def test_dot_gives_matmuls_bits(site):
    """`calibrate` takes its small products with `ndarray.dot`, which costs
    about half of `@`'s dispatch; both send float64 operands to the same
    BLAS routine. A numpy or BLAS that splits the two fails here, at the
    call site's name."""
    rng = np.random.default_rng(sorted(DOT_SITES).index(site))
    for n in range(1, 81):
        for k in range(1, 5):
            for _ in range(4):
                a, b = DOT_SITES[site](rng, n, k)
                assert np.asarray(a.dot(b)).tobytes() == np.asarray(a @ b).tobytes(), (n, k)


class TestMetricsHelpers:
    def test_mape(self):
        assert mape_percent([55.0, 66.0], [50.0, 60.0]) == pytest.approx(10.0)

    @pytest.mark.parametrize("reference", [[1.0], [1.0, 2.0, 3.0], [[1.0], [2.0]]])
    def test_mape_rejects_unpaired_inputs(self, reference):
        # Broadcasting would pair one reference with every estimate.
        with pytest.raises(GaitInputError, match="shape"):
            mape_percent([1.0, 2.0], reference)

    @pytest.mark.parametrize(
        "estimated, reference, match",
        [
            ([1.0, 2.0], [0.0, 2.0], "references"),
            ([1.0, 2.0], [-0.0, 2.0], "references"),
            ([1.0, 2.0], [np.nan, 2.0], "references"),
            ([1.0, 2.0], [np.inf, 2.0], "references"),
            ([np.nan, 2.0], [1.0, 2.0], "estimates"),
            ([1.0, -np.inf], [1.0, 2.0], "estimates"),
        ],
    )
    def test_mape_rejects_what_would_give_inf_or_nan(self, estimated, reference, match):
        with pytest.raises(GaitInputError, match=match):
            mape_percent(estimated, reference)

    def test_mape_of_nothing_is_nan(self):
        assert math.isnan(mape_percent([], []))

    def test_split(self):
        train, test = split_train_test(10)
        assert (train.stop, test.start, test.stop) == (7, 7, 10)
        train, test = split_train_test(101)
        assert train.stop == 70
