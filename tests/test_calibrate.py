import math
from dataclasses import replace

import numpy as np
import pytest

from gaitlab.calibrate import (
    DEFAULT_RLS_P0,
    PARAM_BOX_FRACTION,
    AngleBias,
    FeatureVector,
    ReferenceStep,
    batch_fit_biases,
    batch_fit_params,
    feature_matrix,
    feature_vector,
    mape_percent,
    rls_init,
    rls_update,
    rmse,
    split_train_test,
)
from gaitlab.core import (
    EventAngles, StaticParams, StepMeasurement, attach_lengths, step_length
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
        assert (h.h1, h.h2, h.h3) == (0.0, 0.0, 1.0)

    def test_worked_example(self):
        h = feature_vector(EventAngles(30.0, 10.0, -10.0, 15.0))
        assert h.h1 == pytest.approx(0.6736481776669304, abs=1e-9)
        assert h.h2 == pytest.approx(0.7646384050520515, abs=1e-9)
        assert h.h3 == 1.0

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

    def test_non_finite_inputs_rejected(self):
        state = rls_init(NOMINAL)
        with pytest.raises(GaitInputError):
            rls_update(state, FeatureVector(float("nan"), 0.0), 60.0)


class TestMetricsHelpers:
    def test_mape(self):
        assert mape_percent([55.0, 66.0], [50.0, 60.0]) == pytest.approx(10.0)

    def test_rmse(self):
        assert rmse([53.0, 64.0], [50.0, 60.0]) == pytest.approx(math.sqrt(12.5))

    def test_split(self):
        train, test = split_train_test(10)
        assert (train.stop, test.start, test.stop) == (7, 7, 10)
        train, test = split_train_test(101)
        assert train.stop == 70
