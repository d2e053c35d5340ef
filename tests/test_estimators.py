"""Kalman-family estimators: prediction/update algebra, covariance
matching, and the filter-equality properties."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from rtahs.aero import heave_jacobian
from rtahs.cases import nonlinear_heave_deriv, nonlinear_heave_model
from rtahs.dynamics import DofId, ModalParams, build_state_space
from rtahs.estimators import (
    PSD_FLOOR,
    AdaptiveConfig,
    FilterNumericalError,
    FilterState,
    NoiseStats,
    TransitionModel,
    aekf_step,
    ekf_step,
    floor_spd,
    forgetting_weight,
    linear_transition_model,
    numeric_jacobian,
    predict,
    update,
)

CASE1 = ModalParams(DofId.HEAVE, inertia=182.178, damping_ratio=0.005, circ_freq=17.64)


def identity_model(n=2, m=1):
    return TransitionModel(
        propagate=lambda x, u: x.copy(),
        jac_transition=lambda x, u: np.eye(n),
        H=np.eye(m, n),
    )


def make_state(x, P, q_var=0.0, r_var=1.0, n_obs=1):
    x = np.asarray(x, dtype=float)
    return FilterState(
        x=x,
        P=np.asarray(P, dtype=float),
        noise=NoiseStats.diagonal(len(x), n_obs, q_var=q_var, r_var=r_var),
        k=0,
    )


class TestPredict:
    def test_identity_dynamics_fixed_point(self):
        fs = make_state([0.3, -0.1], np.diag([2.0, 3.0]), q_var=0.0)
        x_prior, P_prior, _ = predict(fs, np.zeros(1), identity_model())
        assert_allclose(x_prior, fs.x)
        assert_allclose(P_prior, fs.P)

    def test_linear_model_matches_zoh_map(self):
        ssm = build_state_space([CASE1], dt=1e-3)
        model = linear_transition_model(ssm)
        fs = make_state([0.01, 0.0], np.eye(2) * 1e-10, q_var=0.0)
        x_prior, _, _ = predict(fs, np.zeros(1), model)
        assert np.max(np.abs(x_prior - ssm.Phi @ fs.x)) <= 1e-12

    def test_additive_covariance(self):
        sigma2 = 0.7
        fs = make_state([0.0, 0.0], np.diag([1.0, 2.0]), q_var=sigma2)
        _, P_prior, _ = predict(fs, np.zeros(1), identity_model())
        assert_allclose(P_prior, np.diag([1.0 + sigma2, 2.0 + sigma2]))

    def test_process_mean_enters_prediction(self):
        fs = make_state([1.0, 1.0], np.eye(2))
        noise = NoiseStats(
            q=np.array([0.5, -0.5]), Q=np.zeros((2, 2)), r=np.zeros(1), R=np.eye(1)
        )
        fs = FilterState(x=fs.x, P=fs.P, noise=noise, k=0)
        x_prior, _, _ = predict(fs, np.zeros(1), identity_model())
        assert_allclose(x_prior, [1.5, 0.5])

    def test_nonfinite_raises_with_step(self):
        model = TransitionModel(
            propagate=lambda x, u: x * np.nan,
            jac_transition=lambda x, u: np.eye(1),
            H=np.eye(1),
        )
        fs = make_state([1.0], np.eye(1))
        with pytest.raises(FilterNumericalError) as err:
            predict(fs, np.zeros(1), model)
        assert err.value.step == 1


class TestUpdate:
    def test_scalar_hand_values(self):
        # P=1, H=1, R=1: gain 1/2, posterior covariance 1/2.
        model = identity_model(n=1, m=1)
        noise = NoiseStats.diagonal(1, 1, q_var=0.0, r_var=1.0)
        out = update(FilterState(np.zeros(1), np.eye(1), noise), np.array([1.0]), model)
        assert out.x[0] == pytest.approx(0.5, abs=1e-15)  # K * z = 0.5
        assert out.P[0, 0] == pytest.approx(0.5, abs=1e-15)

    def test_huge_r_ignores_measurement(self):
        model = identity_model(n=2, m=1)
        noise = NoiseStats.diagonal(2, 1, q_var=0.0, r_var=1e12)
        x_prior = np.array([0.25, -0.5])
        out = update(FilterState(x_prior, np.eye(2), noise), np.array([100.0]), model)
        assert np.max(np.abs(out.x - x_prior)) / np.max(np.abs(x_prior)) <= 1e-6

    def test_floor_r_trusts_measurement(self):
        model = identity_model(n=2, m=1)
        noise = NoiseStats.diagonal(2, 1, q_var=0.0, r_var=PSD_FLOOR)
        out = update(FilterState(np.array([0.25, -0.5]), np.eye(2), noise), np.array([3.0]), model)
        assert abs(out.x[0] - 3.0) / 3.0 <= 1e-6

    def test_singular_innovation_covariance_raises(self):
        model = identity_model(n=1, m=1)
        noise = NoiseStats(
            q=np.zeros(1), Q=np.zeros((1, 1)), r=np.zeros(1), R=np.zeros((1, 1))
        )
        with pytest.raises(FilterNumericalError):
            update(FilterState(np.zeros(1), np.zeros((1, 1)), noise), np.array([1.0]), model)

    def test_measurement_mean_subtracted(self):
        model = identity_model(n=1, m=1)
        noise = NoiseStats(
            q=np.zeros(1), Q=np.zeros((1, 1)), r=np.array([0.2]), R=np.eye(1) * PSD_FLOOR
        )
        out = update(FilterState(np.zeros(1), np.eye(1), noise), np.array([1.2]), model)
        assert out.x[0] == pytest.approx(1.0, rel=1e-6)

    @settings(max_examples=100, deadline=None)
    @given(
        p11=st.floats(1e-12, 1e6),
        p22=st.floats(1e-12, 1e6),
        rho=st.floats(-0.99, 0.99),
        r=st.floats(0.0, 1e6),
    )
    def test_scalar_gain_bounds(self, p11, p22, rho, r):
        # For displacement observation the displacement gain lies in [0, 1].
        cov = rho * math.sqrt(p11 * p22)
        P = np.array([[p11, cov], [cov, p22]])
        model = identity_model(n=2, m=1)
        noise = NoiseStats.diagonal(2, 1, q_var=0.0, r_var=r)
        out = update(FilterState(np.zeros(2), P, noise), np.array([1.0]), model)
        gain = out.x[0]  # x_prior = 0, so posterior = K * z with z = 1
        assert -1e-12 <= gain <= 1.0 + 1e-12

    def test_posterior_psd(self):
        rng = np.random.default_rng(7)
        model = identity_model(n=2, m=1)
        for _ in range(200):
            A = rng.normal(size=(2, 2))
            P = A @ A.T + 1e-9 * np.eye(2)
            noise = NoiseStats.diagonal(2, 1, q_var=0.0, r_var=abs(rng.normal()))
            out = update(FilterState(rng.normal(size=2), P, noise), rng.normal(size=1), model)
            assert np.linalg.eigvalsh(out.P)[0] >= PSD_FLOOR - 1e-15


class TestForgettingWeight:
    def test_first_step_full_weight(self):
        for b in (0.5, 0.9, 0.96, 0.995):
            assert forgetting_weight(b, 1) == pytest.approx(1.0, abs=1e-15)

    def test_reference_second_step(self):
        assert abs(forgetting_weight(0.96, 2) - 0.5102) <= 1e-4

    def test_limit(self):
        assert forgetting_weight(0.96, 10**6) == pytest.approx(0.04, abs=1e-12)

    def test_strictly_decreasing(self):
        b = 0.96
        ws = [forgetting_weight(b, k) for k in range(1, 200)]
        assert all(w1 - w2 > 0 for w1, w2 in zip(ws[:-1], ws[1:]))
        assert all(w > 1 - b for w in ws)

    def test_invalid_step(self):
        with pytest.raises(ValueError):
            forgetting_weight(0.96, 0)


class TestFilterSteps:
    def _linear_setup(self, q_var=1e-5, r_var=1e-5):
        ssm = build_state_space([CASE1], dt=1e-3)
        model = linear_transition_model(ssm)
        fs = FilterState(
            x=np.array([0.01, 0.0]),
            P=np.eye(2) * 1e-10,
            noise=NoiseStats.diagonal(2, 1, q_var=q_var, r_var=r_var),
            k=0,
        )
        return model, fs

    def test_ekf_equals_kf_on_linear_model(self):
        model, fs = self._linear_setup()
        rng = np.random.default_rng(0)
        fk, fe = fs, fs
        for _ in range(50):
            u = rng.normal(size=1)
            z = rng.normal(0.01, 0.001, size=1)
            # the Kalman filter step: generic predict and update
            x_prior, P_prior, _ = predict(fk, u, model)
            fk = update(FilterState(x_prior, P_prior, fk.noise, fk.k + 1), z, model)
            fe = ekf_step(fe, u, z, model)
        assert np.max(np.abs(fk.x - fe.x)) <= 1e-12
        assert np.max(np.abs(fk.P - fe.P)) <= 1e-12

    def test_aekf_with_adaptation_disabled_equals_ekf(self):
        model, fs = self._linear_setup()
        cfg = AdaptiveConfig(enabled=False)
        rng = np.random.default_rng(1)
        fa, fe = fs, fs
        for _ in range(50):
            u = rng.normal(size=1)
            z = rng.normal(0.01, 0.001, size=1)
            fa = aekf_step(fa, u, z, model, cfg)
            fe = ekf_step(fe, u, z, model)
        assert np.array_equal(fa.x, fe.x)
        assert np.array_equal(fa.P, fe.P)

    def test_aekf_adapts_noise_statistics(self):
        model, fs = self._linear_setup(q_var=1e-8, r_var=1e-8)
        cfg = AdaptiveConfig(forgetting_factor=0.96)
        rng = np.random.default_rng(2)
        f = fs
        for _ in range(100):
            z = np.array([0.01 + rng.normal(0, 1e-3)])
            f = aekf_step(f, np.zeros(1), z, model, cfg)
        assert f.k == 100
        assert not np.array_equal(f.noise.R, fs.noise.R)
        assert np.linalg.eigvalsh(f.noise.Q)[0] >= PSD_FLOOR - 1e-15
        assert np.linalg.eigvalsh(f.noise.R)[0] >= PSD_FLOOR - 1e-15

    def test_q_update_forms_agree_for_linear_propagation_without_mean(self):
        # With q = 0 the two increment forms differ only by the input
        # contribution Gamma u; with u = 0 they coincide.
        model, fs = self._linear_setup(q_var=1e-8, r_var=1e-8)
        rng = np.random.default_rng(3)
        fa = fb = fs
        for _ in range(30):
            z = np.array([rng.normal(0.01, 1e-3)])
            fa = aekf_step(fa, np.zeros(1), z, model, AdaptiveConfig(q_update_form="linearized"))
            fb = aekf_step(fb, np.zeros(1), z, model, AdaptiveConfig(q_update_form="residual"))
        assert_allclose(fa.noise.q, fb.noise.q, atol=1e-15)

    def test_static_system_converges_to_sample_mean(self):
        # Static state observed in white noise: the filter with no
        # process noise reproduces the running sample mean, whose error
        # shrinks as 1/sqrt(k).
        model = identity_model(n=1, m=1)
        x_true = 0.7
        rng = np.random.default_rng(42)
        sigma = 0.5
        n = 10_000
        zs = x_true + sigma * rng.standard_normal(n)
        noise = NoiseStats.diagonal(1, 1, q_var=0.0, r_var=sigma**2)
        fs = FilterState(x=np.zeros(1), P=np.eye(1) * 1e12, noise=noise, k=0)
        errs = {}
        for k in range(n):
            fs = ekf_step(fs, np.zeros(1), np.array([zs[k]]), model)
            if k + 1 in (100, 10_000):
                sample_mean = zs[: k + 1].mean()
                assert fs.x[0] == pytest.approx(sample_mean, rel=1e-6)
                errs[k + 1] = abs(fs.x[0] - x_true)
        assert errs[10_000] <= 5 * sigma / math.sqrt(10_000)
        # an order of magnitude more data shrinks the error roughly 10x
        assert errs[10_000] < errs[100]

    def test_scalar_kernel_matches_generic_path(self):
        # The fused single-DOF step must reproduce the generic
        # predict/update composition to rounding accuracy, nonlinear
        # model included.
        from rtahs.estimators import _update_core

        for model_kind in ("linear", "nonlinear"):
            if model_kind == "linear":
                model, fs = self._linear_setup(q_var=1e-6, r_var=1e-7)
            else:
                model = nonlinear_heave_model(182.178, 17.64, 0.175, 1e-3)
                fs = FilterState(
                    x=np.array([0.01, 0.0]),
                    P=np.eye(2) * 1e-10,
                    noise=NoiseStats.diagonal(2, 1, q_var=1e-8, r_var=1e-8),
                )
            rng = np.random.default_rng(17)
            f_fast = f_ref = fs
            for _ in range(300):
                u = rng.normal(size=1)
                z = rng.normal(0.01, 1e-3, size=1)
                f_fast = ekf_step(f_fast, u, z, model)
                x_prior, P_prior, _ = predict(f_ref, u, model)
                x_post, P_post, _, _ = _update_core(
                    x_prior, P_prior, z, model, f_ref.noise
                )
                f_ref = FilterState(x=x_post, P=P_post, noise=f_ref.noise, k=f_ref.k + 1)
                assert_allclose(f_fast.x, f_ref.x, rtol=1e-12, atol=1e-15)
                assert_allclose(f_fast.P, f_ref.P, rtol=1e-10, atol=1e-18)

    def test_whole_loop_determinism(self):
        model, fs = self._linear_setup()
        def run():
            rng = np.random.default_rng(9)
            f = fs
            out = []
            for _ in range(200):
                u = rng.normal(size=1)
                z = rng.normal(size=1)
                f = aekf_step(f, u, z, model)
                out.append(f.x.copy())
            return np.array(out)

        assert np.array_equal(run(), run())


class TestCovarianceFloor:
    def test_floor_spd_clamps(self):
        M = np.array([[1.0, 0.0], [0.0, -0.5]])
        out = floor_spd(M, 1e-12)
        w = np.linalg.eigvalsh(out)
        assert w[0] >= 1e-12 - 1e-18
        assert out[0, 0] == pytest.approx(1.0)

    def test_floor_spd_preserves_valid(self):
        M = np.array([[2.0, 0.3], [0.3, 1.0]])
        assert_allclose(floor_spd(M, 1e-12), M)

    def test_floor_spd_matches_eigh_reference(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 4):
            for _ in range(100):
                A = rng.normal(size=(n, n))
                M = 0.5 * (A + A.T)
                out = floor_spd(M, 1e-6)
                w, V = np.linalg.eigh(0.5 * (M + M.T))
                ref = (V * np.maximum(w, 1e-6)) @ V.T
                assert_allclose(out, ref, atol=1e-12)


class TestNumericJacobian:
    def test_linear_map(self):
        A = np.array([[1.0, 2.0], [3.0, -4.0]])
        J = numeric_jacobian(lambda x: A @ x, np.array([0.3, -0.7]))
        assert np.max(np.abs(J - A)) <= 1e-8

    def test_square_map(self):
        J = numeric_jacobian(lambda x: x**2, np.array([3.0]))
        assert abs(J[0, 0] - 6.0) <= 1e-5

    def test_case2_dynamics_numeric_vs_analytic(self):
        m, om0, D = 182.178, 17.64, 0.175
        rng = np.random.default_rng(5)
        for _ in range(25):
            x = np.array([rng.uniform(0.002, 0.05), rng.uniform(-0.5, 0.5)])
            J_num = numeric_jacobian(lambda s: nonlinear_heave_deriv(s, 0.0, m, om0, D), x)
            J_ana = np.array([[0.0, 1.0], heave_jacobian(om0, D)(*x)])
            scale = np.maximum(np.abs(J_ana), 1.0)
            assert np.max(np.abs(J_num - J_ana) / scale) <= 1e-5

    def test_discrete_jacobian_consistent_with_numeric(self):
        # The analytic transition Jacobian freezes the continuous
        # Jacobian over the step, so it matches the differentiated
        # sub-stepped map only to O(dt^2).
        model = nonlinear_heave_model(182.178, 17.64, 0.175, 1e-3, jacobian="analytic")
        model_num = nonlinear_heave_model(182.178, 17.64, 0.175, 1e-3, jacobian="numeric")
        x = np.array([0.02, 0.1])
        u = np.array([0.5])
        A_ana = model.jac_transition(x, u)
        A_num = model_num.jac_transition(x, u)
        assert np.max(np.abs(A_ana - A_num)) <= 5e-4

    def test_nonfinite_sample_raises(self):
        with pytest.raises(FilterNumericalError):
            numeric_jacobian(lambda x: np.array([math.inf]) * x, np.array([1.0]))


def test_adaptive_config_validation():
    with pytest.raises(ValueError):
        AdaptiveConfig(forgetting_factor=1.0)
    with pytest.raises(ValueError):
        AdaptiveConfig(forgetting_factor=0.0)
    with pytest.raises(ValueError):
        AdaptiveConfig(q_update_form="other")
