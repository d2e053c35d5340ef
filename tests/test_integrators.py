"""Oracle integrators: the Newmark-beta step matrix, RK4 and the simulate
driver."""

import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm

from rtahs.cases import case_stepper, default_config, linear_state_matrix
from rtahs.dynamics import DofId, ModalParams, assemble_matrices, build_state_space
from rtahs.harness import run_oracle
from rtahs.integrators import (
    LinearStepper,
    TimeSeries,
    newmark_matrix,
    rk4_scalar_2nd,
    rk4_step,
    simulate,
)


def sdof_mats(m=1.0, c=0.0, k=1.0):
    dofs = (DofId.HEAVE,)
    from rtahs.dynamics import StructuralMatrices

    return StructuralMatrices(
        dofs=dofs, M=np.array([[m]]), C=np.array([[c]]), K=np.array([[k]])
    )


def newmark_run(mats, x, v, dt, n_steps):
    """Free response of ``n_steps`` Newmark steps; yields each state."""
    T = newmark_matrix(mats, dt)
    y = np.array([x, v])
    for _ in range(n_steps):
        y = T @ y
        yield y[0], y[1]


class TestNewmark:
    def test_zero_everything_stays_zero(self):
        for x, v in newmark_run(sdof_mats(), 0.0, 0.0, 0.01, 100):
            pass
        assert x == 0.0 and v == 0.0

    def test_undamped_amplitude_conservation(self):
        # Average acceleration conserves the discrete energy, so the
        # energy amplitude sqrt(x^2 + v^2/omega^2) stays put.
        mats = sdof_mats(m=1.0, c=0.0, k=1.0)
        worst = 0.0
        for x, v in newmark_run(mats, 1.0, 0.0, 0.01, 10_000):
            worst = max(worst, abs(math.hypot(x, v) - 1.0))
        assert worst <= 1e-6

    def test_damped_log_decrement(self):
        # Free decay of the reference single-DOF system: the measured
        # log-decrement over 10 cycles must match the analytic value.
        m, xi, om = 182.178, 0.005, 17.64
        p = ModalParams(DofId.HEAVE, m, xi, om)
        mats = assemble_matrices([p])
        dt = 1e-3
        x0 = 0.01
        n_steps = int(12 * 2 * math.pi / om / dt)
        xs = [x0] + [x for x, _ in newmark_run(mats, x0, 0.0, dt, n_steps)]
        xs = np.array(xs)
        peaks = []
        for i in range(1, len(xs) - 1):
            if xs[i] > xs[i - 1] and xs[i] >= xs[i + 1] and xs[i] > 0:
                peaks.append(xs[i])
        assert len(peaks) >= 11
        delta = math.log(peaks[0] / peaks[10]) / 10.0
        expected = 2 * math.pi * xi / math.sqrt(1 - xi**2)
        assert abs(delta - expected) / expected <= 0.01

    def test_invalid_dt(self):
        with pytest.raises(ValueError):
            newmark_matrix(sdof_mats(), 0.0)


class TestRk4:
    def test_zero_derivative(self):
        y = rk4_step(lambda t, y: np.zeros(1), np.array([3.0]), 0.0, 0.1)
        assert y[0] == 3.0

    def test_exponential_decay_reference(self):
        y = rk4_step(lambda t, y: -y, np.array([1.0]), 0.0, 0.1)
        assert abs(y[0] - 0.90483742) <= 1e-7

    def test_order_four_convergence(self):
        # Global error at t=1 for y' = -y shrinks 16x per dt halving.
        def global_error(dt):
            y = np.array([1.0])
            n = round(1.0 / dt)
            for k in range(n):
                y = rk4_step(lambda t, y: -y, y, k * dt, dt)
            return abs(y[0] - math.exp(-1.0))

        e1 = global_error(0.02)
        e2 = global_error(0.01)
        assert 14.0 <= e1 / e2 <= 18.0

    def test_matches_zoh_map_within_dt4(self):
        # One RK4 step on the linearized reference system agrees with
        # the exact zero-order-hold transition to local O(dt^5).
        p = ModalParams(DofId.HEAVE, 182.178, 0.005, 17.64)
        ssm = build_state_space([p], dt=1e-3)
        y0 = np.array([0.01, 0.05])
        y_rk4 = rk4_step(lambda t, y: ssm.A @ y, y0, 0.0, 1e-3)
        y_exact = ssm.Phi @ y0
        assert np.max(np.abs(y_rk4 - y_exact)) <= 1e-9

    def test_scalar_kernel_matches_generic(self):
        def acc(t, h, v):
            return -4.0 * h - 0.3 * v + math.sin(t)

        def deriv(t, y):
            return np.array([y[1], acc(t, y[0], y[1])])

        h, v = 0.4, -0.2
        y = np.array([h, v])
        for k in range(50):
            h, v = rk4_scalar_2nd(acc, h, v, k * 0.01, 0.01)
            y = rk4_step(deriv, y, k * 0.01, 0.01)
        assert_allclose([h, v], y, rtol=1e-14, atol=1e-16)

    def test_nonfinite_derivative_raises(self):
        from rtahs.integrators import IntegrationError

        with pytest.raises(IntegrationError):
            rk4_step(lambda t, y: y * np.inf, np.array([1.0]), 0.0, 0.1)


def oscillator(dt):
    """Undamped unit oscillator at rest as a one-RK4-step matrix, with
    no force."""
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    T = rk4_step(lambda t, y: A @ y, np.eye(2), 0.0, dt)
    return LinearStepper(T, np.zeros((1, 2)), dt, [0.0], [0.0])


class TestSimulate:
    def test_zero_force_zero_init(self):
        out = simulate(oscillator(0.01), ("heave",), t_end=1.0)
        assert len(out) == 101
        assert np.all(out.channel("x_heave") == 0.0)
        assert np.all(out.channel("f_heave") == 0.0)

    def test_case1_convergent_envelope_decays(self):
        out = run_oracle(default_config("case1-linear", t_end=20.0))
        x = out.channel("x_heave")
        early = np.max(np.abs(x[: len(x) // 4]))
        late = np.max(np.abs(x[-len(x) // 4 :]))
        assert late < 0.8 * early
        assert not out.truncated

    def test_case1_divergent_envelope_grows(self):
        cfg = default_config("case1-linear", t_end=20.0)
        out = run_oracle(replace(cfg, aero=replace(cfg.aero, Y1=11.966)))
        x = out.channel("x_heave")
        early = np.max(np.abs(x[: len(x) // 4]))
        late = np.max(np.abs(x[-len(x) // 4 :]))
        assert late > 1.2 * early

    def test_divergence_truncation(self):
        cfg = default_config("case1-linear", t_end=20.0)
        out = run_oracle(replace(cfg, aero=replace(cfg.aero, Y1=400.0)))
        assert out.truncated
        assert out.truncated_step is not None
        # samples after the truncation step hold the last state
        x = out.channel("x_heave")
        assert np.all(x[out.truncated_step :] == x[out.truncated_step])

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_nonfinite_state_truncates_instead_of_raising(self):
        # overflows within a few steps
        stepper = LinearStepper(1e300 * np.eye(2), np.zeros((1, 2)), 1.0, [1.0], [0.0])
        out = simulate(stepper, ("heave",), t_end=10.0)
        assert out.truncated
        x = out.channel("x_heave")
        assert np.isfinite(x).all()
        # the failed step holds the last finite sample
        assert np.all(x[out.truncated_step :] == x[out.truncated_step - 1])

    def test_bit_reproducibility(self):
        cfg = default_config("case1-nonlinear")
        a = simulate(case_stepper(cfg), ("heave",), t_end=2.0)
        b = simulate(case_stepper(cfg), ("heave",), t_end=2.0)
        assert np.array_equal(a.channel("x_heave"), b.channel("x_heave"))
        assert np.array_equal(a.channel("f_heave"), b.channel("f_heave"))

    def test_sample_count(self):
        out = simulate(oscillator(0.25), ("heave",), t_end=1.0)
        assert len(out) == 5
        assert_allclose(out.t, [0.0, 0.25, 0.5, 0.75, 1.0])


def independent_state_matrix(cfg):
    """Continuous state matrix on [x; v] of a linear case, written out
    from the configuration's numbers without the program's assembly."""
    modal = sorted(cfg.modal, key=lambda p: p.dof)
    m = np.array([p.inertia for p in modal])
    w = np.array([p.circ_freq for p in modal])
    c = 2.0 * m * np.array([p.damping_ratio for p in modal]) * w
    if cfg.case == "case1-linear":
        a = cfg.aero
        q = 0.5 * a.rho * a.U**2 * 2.0 * a.D
        E_d = np.array([[cfg.span * q * a.Y1 / a.U]])
        E_s = np.array([[cfg.span * q * a.Y2 / a.U]])
    else:
        E_d, E_s = cfg.coupling.E_d, cfg.coupling.E_s
    n = len(m)
    return np.block(
        [[np.zeros((n, n)), np.eye(n)],
         [(E_s - np.diag(m * w * w)) / m[:, None], (E_d - np.diag(c)) / m[:, None]]]
    )


class TestLinearCases:
    """The matrix stepper of each linear case against the exact solution
    of the case's continuous system."""

    T_END = 10.0

    def exact(self, cfg):
        n = cfg.n_dofs
        phi = expm(independent_state_matrix(cfg) * cfg.dt)
        y = np.concatenate((cfg.x0_disp, cfg.x0_vel))
        out = np.empty((cfg.n_samples, n))
        for k in range(cfg.n_samples):
            out[k] = y[:n]
            y = phi @ y
        return out

    @staticmethod
    def normalized_rms(ref, test):
        return np.sqrt(np.mean((ref - test) ** 2)) / np.sqrt(np.mean(ref**2))

    @pytest.mark.parametrize("case", ["case1-linear", "case2dof"])
    def test_state_matrix_is_the_case_system(self, case):
        cfg = default_config(case)
        assert_allclose(linear_state_matrix(cfg), independent_state_matrix(cfg), rtol=1e-13)

    def test_case2dof_oracle_is_rk4_accurate(self):
        cfg = default_config("case2dof", t_end=self.T_END)
        exact, oracle = self.exact(cfg), run_oracle(cfg)
        for i, d in enumerate(cfg.dofs):
            assert self.normalized_rms(exact[:, i], oracle.channel(f"x_{d.label}")) <= 1e-6

    def test_case1_linear_oracle_lags_by_newmark_phase_error(self):
        # Average-acceleration Newmark elongates the period by (w dt)^2 / 12
        # of a period, so by t the phase lags w t (w dt)^2 / 12 at the
        # frequency w of the system with the force folded in.
        cfg = default_config("case1-linear", t_end=self.T_END)
        w = math.sqrt(-independent_state_matrix(cfg)[1, 0])
        bound = w * self.T_END * (w * cfg.dt) ** 2 / 12.0
        err = self.normalized_rms(self.exact(cfg)[:, 0], run_oracle(cfg).channel("x_heave"))
        assert err <= bound

    def test_case2dof_force_is_the_coupled_self_excited_force(self):
        # F acts on y = [x; v]: force = E_d v + E_s x.
        cfg = default_config("case2dof")
        stepper = case_stepper(cfg)
        rng = np.random.default_rng(3)
        x, v = rng.standard_normal(2), rng.standard_normal(2)
        expected = cfg.coupling.E_d @ v + cfg.coupling.E_s @ x
        assert_allclose(stepper.force_at(0.0, x, v), expected, rtol=1e-13, atol=1e-15)
        stepper.x[:], stepper.v[:] = x, v
        assert_allclose(stepper.force(), expected, rtol=1e-13, atol=1e-15)


def test_timeseries_validation():
    with pytest.raises(ValueError):
        TimeSeries(dt=0.1, t=np.arange(3.0), data={"x": np.zeros(2)})
    with pytest.raises(ValueError):
        TimeSeries(dt=0.1, t=np.array([0.0, 0.1, 0.15]), data={"x": np.zeros(3)})
    with pytest.raises(ValueError):
        TimeSeries(dt=0.1, t=np.array([0.0, 0.1, 0.05]), data={"x": np.zeros(3)})
