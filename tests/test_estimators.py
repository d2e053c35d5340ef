"""Kalman-family estimators: prediction/update algebra, covariance
matching, and the filter-equality properties."""

import itertools
import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from finite_difference import numeric_jacobian
from rtahs import cosim, estimators
from rtahs.aero import heave_acceleration, heave_jacobian
from rtahs.cases import FilterSettings, nonlinear_heave_model
from rtahs.config import load_config
from rtahs.dynamics import DofId, ModalParams, build_state_space
from rtahs.estimators import (
    PSD_FLOOR,
    FilterNumericalError,
    FilterState,
    NoiseStats,
    TransitionModel,
    aekf_step,
    ekf_step,
    floor_spd,
    forgetting_weight,
    linear_transition_model,
    predict,
    update,
)
from rtahs.harness import run_loop

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

    @pytest.mark.parametrize("step", [ekf_step, aekf_step])
    def test_nonfinite_rk4_propagation_raises_with_step(self, step):
        # the RK4 kernel of the nonlinear model raises IntegrationError,
        # which both the fused and the generic step report as the filter's
        model = nonlinear_heave_model(182.178, 17.64, 0.175, 1e-3)
        fs = replace(make_state([0.01, 0.0], np.eye(2) * 1e-10), k=4)
        with pytest.raises(FilterNumericalError, match="non-finite prediction") as err:
            step(fs, np.array([np.inf]), np.zeros(1), model)
        assert err.value.step == 5


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

    def test_aekf_adapts_noise_statistics(self):
        model, fs = self._linear_setup(q_var=1e-8, r_var=1e-8)
        rng = np.random.default_rng(2)
        f = fs
        for _ in range(100):
            z = np.array([0.01 + rng.normal(0, 1e-3)])
            f = aekf_step(f, np.zeros(1), z, model, 0.96)
        assert f.k == 100
        assert not np.array_equal(f.noise.R, fs.noise.R)
        assert np.linalg.eigvalsh(f.noise.Q)[0] >= PSD_FLOOR - 1e-15
        assert np.linalg.eigvalsh(f.noise.R)[0] >= PSD_FLOOR - 1e-15

    def test_aekf_process_mean_stays_zero_on_its_own_forced_propagation(self):
        # Measurements that are the model's own noiseless propagation
        # under a force leave nothing to correct, so the process-noise
        # mean must stay at zero; a residual that left out the input
        # term Gamma u would integrate the force into it.
        model, fs = self._linear_setup(q_var=1e-8, r_var=1e-8)
        rng = np.random.default_rng(3)
        x, f = fs.x, fs
        for _ in range(50):
            u = rng.normal(size=1)
            x = model.propagate(x, u)
            f = aekf_step(f, u, model.H @ x, model, 0.96)
            assert np.array_equal(f.x, x)
            assert not np.any(f.noise.q), f.k

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
                x_post, P_post, _, _, _ = _update_core(
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


def reference_floor(M, floor=PSD_FLOOR):
    """The eigenvalue floor written plainly: the 2x2 closed form on numpy
    scalars with np.outer, and np.linalg.eigh for larger matrices."""
    M = 0.5 * (M + M.T)
    n = M.shape[0]
    if n == 1:
        return M if M[0, 0] >= floor else np.array([[floor]])
    if n == 2:
        a, b, c = M[0, 0], M[0, 1], M[1, 1]
        mean = 0.5 * (a + c)
        disc = np.hypot(0.5 * (a - c), b)
        if mean - disc >= floor:
            return M
        hi = max(mean + disc, floor)
        if abs(b) < 1e-300:
            return np.array([[max(a, floor), 0.0], [0.0, max(c, floor)]])
        v = np.array([b, (mean - disc) - a])
        v /= np.hypot(v[0], v[1])
        w = np.array([-v[1], v[0]])
        out = floor * np.outer(v, v) + hi * np.outer(w, w)
        return 0.5 * (out + out.T)
    w, V = np.linalg.eigh(M)
    if w[0] >= floor:
        return M
    out = (V * np.maximum(w, floor)) @ V.T
    return 0.5 * (out + out.T)


def textbook_aekf_step(fs, u, z, m, forgetting_factor, clamps):
    """One adaptive EKF step as the plain composition of its formulas:
    A P A' and H P H' formed where each equation needs them, outer
    products by np.outer, floors by :func:`reference_floor`.  ``clamps``
    counts the steps at which each floor changed its input.  With
    ``forgetting_factor=None`` it is the EKF step: no covariance
    matching, the noise statistics stay."""
    n = fs.noise
    A = m.jac_transition(fs.x, u)
    x_prior = m.propagate(fs.x, u) + n.q
    P_prior = A @ fs.P @ A.T + n.Q
    P_prior = 0.5 * (P_prior + P_prior.T)
    H = m.H
    S = H @ P_prior @ H.T + n.R
    if len(S) == 1:
        S_inv = np.array([[1.0 / S[0, 0]]])
    else:
        det = S[0, 0] * S[1, 1] - S[0, 1] * S[1, 0]
        S_inv = np.array([[S[1, 1], -S[0, 1]], [-S[1, 0], S[0, 0]]]) / det
    K = P_prior @ H.T @ S_inv
    innovation = z - H @ x_prior - n.r
    x_post = x_prior + K @ innovation

    def floored(name, M):
        out = reference_floor(M)
        clamps[name] += not np.array_equal(out, 0.5 * (M + M.T))
        return out

    P_post = floored("P", (np.eye(len(x_prior)) - K @ H) @ P_prior)
    if forgetting_factor is None:
        return FilterState(x=x_post, P=P_post, noise=n, k=fs.k + 1)
    b = forgetting_factor
    d = (1.0 - b) / (1.0 - b ** (fs.k + 1))
    dx = x_post - (x_prior - n.q)
    Ke = K @ innovation
    Q = floored("Q", (1.0 - d) * n.Q + d * (np.outer(Ke, Ke) + P_post - A @ fs.P @ A.T))
    R = floored(
        "R",
        (1.0 - d) * n.R + d * (np.outer(innovation, innovation) - H @ P_prior @ H.T),
    )
    noise = NoiseStats(
        q=(1.0 - d) * n.q + d * dx, Q=Q, r=(1.0 - d) * n.r + d * (innovation + n.r), R=R
    )
    return FilterState(x=x_post, P=P_post, noise=noise, k=fs.k + 1)


def numpy_scalar_sdof_step(fs, u, z, m):
    """The fused single-DOF EKF step in its numpy-scalar form: every
    matrix entry indexed out of its array and the algebra done on
    np.float64 scalars, in the order of the fused step; the floor is
    :func:`reference_floor`."""
    n = fs.noise
    x_prop = m.propagate(fs.x, u)
    xp1 = float(x_prop[0]) + n.q[0]
    xp2 = float(x_prop[1]) + n.q[1]
    A = m.jac_transition(fs.x, u)
    a11, a12, a21, a22 = A[0, 0], A[0, 1], A[1, 0], A[1, 1]
    P, Q, H = fs.P, n.Q, m.H
    p11, p12, p22 = P[0, 0], 0.5 * (P[0, 1] + P[1, 0]), P[1, 1]
    t11 = a11 * p11 + a12 * p12
    t12 = a11 * p12 + a12 * p22
    t21 = a21 * p11 + a22 * p12
    t22 = a21 * p12 + a22 * p22
    pp11 = t11 * a11 + t12 * a12 + Q[0, 0]
    pp22 = t21 * a21 + t22 * a22 + Q[1, 1]
    pp12 = 0.5 * ((t11 * a21 + t12 * a22) + (t21 * a11 + t22 * a12)) + 0.5 * (
        Q[0, 1] + Q[1, 0]
    )
    h1, h2 = H[0, 0], H[0, 1]
    ph1 = pp11 * h1 + pp12 * h2
    ph2 = pp12 * h1 + pp22 * h2
    s = h1 * ph1 + h2 * ph2 + n.R[0, 0]
    g1, g2 = ph1 / s, ph2 / s
    inn = float(z[0]) - (h1 * xp1 + h2 * xp2) - n.r[0]
    q11 = pp11 - g1 * ph1
    q22 = pp22 - g2 * ph2
    q12 = pp12 - 0.5 * (g1 * ph2 + g2 * ph1)
    P_post = reference_floor(np.array([[q11, q12], [q12, q22]]))
    x_post = np.array([xp1 + g1 * inn, xp2 + g2 * inn])
    return FilterState(x=x_post, P=P_post, noise=n, k=fs.k + 1)


class TestSdofBitIdentity:
    @pytest.mark.parametrize("case", ["case1-linear", "case1-nonlinear"])
    def test_loop_equals_numpy_scalar_form(self, monkeypatch, case):
        # Record every ekf_step of a 2-s in-process run of the shipped
        # config (kf for case1-linear, ekf for case1-nonlinear), then
        # fold the numpy-scalar form of the fused step over the recorded
        # inputs: each step's x and P must match bit for bit.
        path = Path(__file__).resolve().parents[1] / "configs" / f"{case}.yaml"
        cfg = replace(load_config(path), mode="in-process", t_end=2.0)
        steps = []

        def recording_step(fs, u, z, m):
            out = ekf_step(fs, u, z, m)
            steps.append((fs, u, z, m, out))
            return out

        monkeypatch.setattr(cosim, "ekf_step", recording_step)
        run_loop(cfg)
        assert len(steps) == cfg.n_samples - 1
        ref = steps[0][0]
        for _, u, z, m, out in steps:
            assert m.H.shape == (1, 2)
            ref = numpy_scalar_sdof_step(ref, u, z, m)
            assert ref.k == out.k
            assert np.array_equal(ref.x, out.x), f"step {out.k}: x differs"
            assert np.array_equal(ref.P, out.P), f"step {out.k}: P differs"


class TestAekfBitIdentity:
    def test_case2dof_loop_equals_textbook_composition(self, monkeypatch):
        # Record every aekf_step of a 2-s in-process run of the shipped
        # case2dof config, then fold the textbook step over the recorded
        # inputs: each step's x, P, q, Q, r and R must match bit for bit.
        path = Path(__file__).resolve().parents[1] / "configs" / "case2dof.yaml"
        cfg = replace(load_config(path), mode="in-process", t_end=2.0)
        steps = []

        def recording_step(fs, u, z, m, forgetting_factor):
            out = aekf_step(fs, u, z, m, forgetting_factor)
            steps.append((fs, u, z, m, forgetting_factor, out))
            return out

        monkeypatch.setattr(cosim, "aekf_step", recording_step)
        run_loop(cfg)
        assert len(steps) == cfg.n_samples - 1
        clamps = {"P": 0, "Q": 0, "R": 0}
        ref = steps[0][0]
        for fs, u, z, m, forgetting_factor, out in steps:
            ref = textbook_aekf_step(ref, u, z, m, forgetting_factor, clamps)
            assert ref.k == out.k
            for name, a, b in (
                ("x", ref.x, out.x),
                ("P", ref.P, out.P),
                ("q", ref.noise.q, out.noise.q),
                ("Q", ref.noise.Q, out.noise.Q),
                ("r", ref.noise.r, out.noise.r),
                ("R", ref.noise.R, out.noise.R),
            ):
                assert np.array_equal(a, b), f"step {out.k}: {name} differs"
        # both branches of every floor ran
        assert all(0 < c < len(steps) for c in clamps.values()), clamps

    @pytest.mark.parametrize(
        "case, estimator, clamped",
        [
            # the generic ekf_step with 2 observations; P never reaches its floor
            ("case2dof", "kf", {"P": 0, "Q": 0, "R": 0}),
            # 1 observation: a 1x1 S and R, and 2x2 P and Q floors
            ("case1-linear", "aekf", None),
        ],
    )
    def test_generic_loop_equals_textbook_composition(self, monkeypatch, case, estimator, clamped):
        # Record every step of a 2-s in-process run of the shipped config
        # with the given estimator, then fold the textbook step over the
        # recorded inputs: each step's x, P, q, Q, r and R must match bit
        # for bit.
        path = Path(__file__).resolve().parents[1] / "configs" / f"{case}.yaml"
        cfg = replace(load_config(path), mode="in-process", t_end=2.0, estimator=estimator)
        steps = []
        name = "aekf_step" if estimator == "aekf" else "ekf_step"
        step = getattr(cosim, name)

        def recording_step(fs, u, z, m, **kwargs):
            out = step(fs, u, z, m, **kwargs)
            steps.append((fs, u, z, m, kwargs.get("forgetting_factor"), out))
            return out

        monkeypatch.setattr(cosim, name, recording_step)
        run_loop(cfg)
        assert len(steps) == cfg.n_samples - 1
        clamps = {"P": 0, "Q": 0, "R": 0}
        ref = steps[0][0]
        for fs, u, z, m, forgetting_factor, out in steps:
            ref = textbook_aekf_step(ref, u, z, m, forgetting_factor, clamps)
            assert ref.k == out.k
            for name, a, b in (
                ("x", ref.x, out.x),
                ("P", ref.P, out.P),
                ("q", ref.noise.q, out.noise.q),
                ("Q", ref.noise.Q, out.noise.Q),
                ("r", ref.noise.r, out.noise.r),
                ("R", ref.noise.R, out.noise.R),
            ):
                assert np.array_equal(a, b), f"step {out.k}: {name} differs"
        if clamped is None:
            # both branches of every floor ran
            assert all(0 < c < len(steps) for c in clamps.values()), clamps
        else:
            assert clamps == clamped

    # A 4-state step decomposes P in the update (call 1) and the adapted
    # Q in the covariance matching (call 2).
    @pytest.mark.parametrize("failing_call", [1, 2])
    def test_nonconvergent_eigendecomposition_raises_with_step(
        self, monkeypatch, failing_call
    ):
        kernel = estimators.eigh_lo
        calls = []

        # the gufunc reports a LAPACK failure as NaN eigenvalues and vectors
        def eigh_stub(M, signature):
            calls.append(M)
            if len(calls) == failing_call:
                return np.full(len(M), np.nan), np.full(M.shape, np.nan)
            return kernel(M, signature=signature)

        monkeypatch.setattr(estimators, "eigh_lo", eigh_stub)
        fs = replace(make_state(np.zeros(4), np.eye(4), q_var=1e-6, n_obs=2), k=6)
        with pytest.raises(FilterNumericalError, match="did not converge") as err:
            aekf_step(fs, np.zeros(2), np.ones(2), identity_model(n=4, m=2))
        assert err.value.step == 7
        assert len(calls) == failing_call


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

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(1, 6),
        gram=st.booleans(),
        scale=st.sampled_from([1e-9, 1e-5, 1e-2]),
        floor=st.sampled_from([PSD_FLOOR, 1e-6]),
        entries=st.lists(st.floats(-1.0, 1.0), min_size=36, max_size=36),
    )
    # a zero-trace (indefinite) matrix, clamped, and a rank-one Gram
    # matrix lifted above the floor, passed through
    @example(n=4, gram=False, scale=1e-2, floor=PSD_FLOOR, entries=[1.0, -1.0] * 18)
    @example(n=4, gram=True, scale=1e-2, floor=PSD_FLOOR, entries=[0.5] * 36)
    # the same two in 2x2: the pass-through, and a diagonal indefinite
    # matrix (off-diagonal below 1e-300) clamped entry by entry
    @example(n=2, gram=True, scale=1e-2, floor=PSD_FLOOR, entries=[0.5] * 36)
    @example(n=2, gram=False, scale=1e-2, floor=PSD_FLOOR, entries=[-1.0, 0.5, -0.5, 1.0] * 9)
    def test_floor_spd_properties(self, n, gram, scale, floor, entries):
        B = scale * np.array(entries[: n * n]).reshape(n, n)
        M = B @ B.T + 2.0 * floor * np.eye(n) if gram else 0.5 * (B + B.T)
        out = floor_spd(M, floor)
        assert np.array_equal(out, out.T)
        assert np.linalg.eigvalsh(out)[0] >= floor - 1e-15
        assert np.array_equal(out, reference_floor(M, floor))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_floor_spd_raises_on_non_finite_entry(self, n, bad):
        # on the diagonal and off it (in 1x1 both are the one entry)
        for i, j in ((0, 0), (n - 1, 0)):
            M = np.eye(n)
            M[i, j] = bad
            with np.errstate(invalid="ignore", divide="ignore"):
                with pytest.raises(FilterNumericalError):
                    floor_spd(M)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_floor_spd_4x4_raises_at_every_position_without_a_warning(self, bad):
        # eigh_lo on such a matrix puts the NaN eigenvalues of a deflated
        # block anywhere and may warn first, so the floor checks the
        # entries before it decomposes
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for i, j in itertools.product(range(4), repeat=2):
                M = np.eye(4)
                M[i, j] = bad
                with pytest.raises(FilterNumericalError, match="non-finite covariance"):
                    floor_spd(M)


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
        acc = heave_acceleration(m, om0, D)
        rng = np.random.default_rng(5)
        for _ in range(25):
            x = np.array([rng.uniform(0.002, 0.05), rng.uniform(-0.5, 0.5)])
            J_num = numeric_jacobian(lambda s: np.array([s[1], acc(s[0], s[1], 0.0)]), x)
            J_ana = np.array([[0.0, 1.0], heave_jacobian(om0, D)(*x)])
            scale = np.maximum(np.abs(J_ana), 1.0)
            assert np.max(np.abs(J_num - J_ana) / scale) <= 1e-5

    def test_discrete_jacobian_consistent_with_numeric(self):
        # The analytic transition Jacobian freezes the continuous
        # Jacobian over the step, so it matches the differentiated
        # sub-stepped map only to O(dt^2).
        model = nonlinear_heave_model(182.178, 17.64, 0.175, 1e-3)
        x = np.array([0.02, 0.1])
        u = np.array([0.5])
        A_ana = model.jac_transition(x, u)
        A_num = numeric_jacobian(lambda xx: model.propagate(xx, u), x)
        assert np.max(np.abs(A_ana - A_num)) <= 5e-4

    def test_nonfinite_sample_raises(self):
        with pytest.raises(FilterNumericalError):
            numeric_jacobian(lambda x: np.array([math.inf]) * x, np.array([1.0]))


def test_adaptive_config_validation():
    with pytest.raises(ValueError):
        FilterSettings(forgetting_factor=1.0)
    with pytest.raises(ValueError):
        FilterSettings(forgetting_factor=0.0)
