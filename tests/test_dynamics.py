"""Structural matrices and state-space discretization."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from rtahs.config import load_config
from rtahs.dynamics import (
    ConfigurationError,
    DofId,
    ModalParams,
    assemble_matrices,
    build_state_space,
    discretize_zoh,
)

CASE1 = ModalParams(DofId.HEAVE, inertia=182.178, damping_ratio=0.005, circ_freq=17.64)


def series_expm(M: np.ndarray, terms: int = 20) -> np.ndarray:
    """Independent truncated-series reference for the matrix exponential."""
    out = np.eye(M.shape[0])
    term = np.eye(M.shape[0])
    for k in range(1, terms + 1):
        term = term @ M / k
        out = out + term
    return out


class TestAssembleMatrices:
    def test_reference_stiffness(self):
        mats = assemble_matrices([CASE1])
        assert abs(mats.K[0, 0] - 56688.3) <= 0.1

    def test_reference_damping(self):
        mats = assemble_matrices([CASE1])
        assert abs(mats.C[0, 0] - 32.136) <= 1e-3

    def test_zero_damping_ratio(self):
        p = ModalParams(DofId.HEAVE, inertia=10.0, damping_ratio=0.0, circ_freq=5.0)
        assert assemble_matrices([p]).C[0, 0] == 0.0

    def test_canonical_ordering_is_permutation_invariant(self):
        params = [
            ModalParams(DofId.TORSION, 0.4, 0.003, 14.0),
            ModalParams(DofId.HEAVE, 9.0, 0.003, 5.0),
            ModalParams(DofId.TRANSVERSE, 9.0, 0.004, 7.0),
        ]
        a = assemble_matrices(params)
        b = assemble_matrices(list(reversed(params)))
        assert a.dofs == b.dofs == (DofId.HEAVE, DofId.TRANSVERSE, DofId.TORSION)
        assert_allclose(a.M, b.M)
        assert_allclose(a.C, b.C)
        assert_allclose(a.K, b.K)

    def test_duplicate_dof_rejected(self):
        with pytest.raises(ConfigurationError):
            assemble_matrices([CASE1, CASE1])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            assemble_matrices([])

    def test_invalid_modal_params(self):
        with pytest.raises(ValueError):
            ModalParams(DofId.HEAVE, inertia=-1.0, damping_ratio=0.1, circ_freq=1.0)
        with pytest.raises(ValueError):
            ModalParams(DofId.HEAVE, inertia=1.0, damping_ratio=0.1, circ_freq=0.0)
        with pytest.raises(ValueError):
            ModalParams(DofId.HEAVE, inertia=1.0, damping_ratio=-0.1, circ_freq=1.0)

    def test_assembled_matrices_nonnegative_diagonal(self):
        mats = assemble_matrices(
            [CASE1, ModalParams(DofId.TORSION, 0.4, 0.0, 14.556)]
        )
        assert np.all(np.diag(mats.M) > 0)
        assert np.all(np.diag(mats.C) >= 0)
        assert np.all(np.diag(mats.K) >= 0)
        for M in (mats.M, mats.C, mats.K):
            assert_allclose(M, np.diag(np.diag(M)))


class TestBuildStateSpace:
    def test_observation_matrix_single_dof(self):
        ssm = build_state_space([CASE1], dt=1e-3)
        assert_allclose(ssm.H, [[1.0, 0.0]])

    def test_observation_selects_displacements(self):
        ssm = build_state_space(
            [CASE1, ModalParams(DofId.TORSION, 0.4, 0.003, 14.556)], dt=1e-3
        )
        assert_allclose(ssm.H, [[1, 0, 0, 0], [0, 0, 1, 0]])

    def test_phi_matches_series_reference(self):
        ssm = build_state_space([CASE1], dt=1e-3)
        ref = series_expm(ssm.A * 1e-3)
        assert np.max(np.abs(ssm.Phi - ref)) <= 1e-12

    def test_phi_tends_to_identity(self):
        ssm = build_state_space([CASE1], dt=1e-10)
        assert_allclose(ssm.Phi, np.eye(2), atol=1e-6)

    def test_gamma_matches_augmented_series(self):
        ssm = build_state_space([CASE1], dt=1e-3)
        blk = np.zeros((3, 3))
        blk[:2, :2] = ssm.A
        blk[:2, 2:] = ssm.B
        ref = series_expm(blk * 1e-3)
        assert np.max(np.abs(ssm.Gamma - ref[:2, 2:])) <= 1e-12

    def test_block_structure(self):
        ssm = build_state_space([CASE1], dt=1e-3)
        om, xi, m = CASE1.circ_freq, CASE1.damping_ratio, CASE1.inertia
        assert_allclose(ssm.A, [[0, 1], [-(om**2), -2 * xi * om]])
        assert_allclose(ssm.B, [[0], [1 / m]])

    def test_invalid_dt(self):
        with pytest.raises(ValueError):
            build_state_space([CASE1], dt=0.0)

    def test_stable_eigenvalues(self):
        ssm = build_state_space(
            [CASE1, ModalParams(DofId.TRANSVERSE, 50.0, 0.0, 3.0)], dt=1e-3
        )
        assert np.max(np.linalg.eigvals(ssm.A).real) <= 1e-12

    @settings(max_examples=50, deadline=None)
    @given(
        inertia=st.floats(1e-3, 1e4),
        xi=st.floats(0.0, 0.5),
        omega=st.floats(1e-2, 1e3),
    )
    def test_eigenvalues_never_unstable(self, inertia, xi, omega):
        ssm = build_state_space(
            [ModalParams(DofId.HEAVE, inertia, xi, omega)], dt=1e-3
        )
        assert np.max(np.linalg.eigvals(ssm.A).real) <= 1e-9 * omega

    def test_undamped_map_preserves_energy(self):
        p = ModalParams(DofId.HEAVE, inertia=1.0, damping_ratio=0.0, circ_freq=17.64)
        ssm = build_state_space([p], dt=1e-3)
        om2 = p.circ_freq**2

        def energy(x):
            return 0.5 * (x[1] ** 2 + om2 * x[0] ** 2)

        x = np.array([0.01, 0.0])
        e0 = energy(x)
        for _ in range(10_000):
            x = ssm.Phi @ x
        assert abs(energy(x) - e0) / e0 <= 1e-9


def test_discretize_zoh_double_integrator():
    # x'' = u has the closed-form discrete map [[1, dt], [0, 1]],
    # Gamma = [dt^2/2, dt].
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    B = np.array([[0.0], [1.0]])
    dt = 0.5
    Phi, Gamma = discretize_zoh(A, B, dt)
    assert_allclose(Phi, [[1.0, dt], [0.0, 1.0]], atol=1e-15)
    assert_allclose(Gamma, [[dt**2 / 2.0], [dt]], atol=1e-15)


# discretize_zoh against scipy's expm of the same augmented block: every
# entry within 100 float64 eps of scipy's, scaled by the 1-norm of the
# exponential.
ZOH_TOL = 100 * np.finfo(float).eps
# The 1-norm above which a degree-13 Pade approximant needs squaring.
THETA_13 = 5.371920351148152


def assert_zoh_matches_expm(A, B, dt):
    expm = pytest.importorskip("scipy.linalg").expm
    n = A.shape[0]
    blk = np.zeros((n + B.shape[1],) * 2)
    blk[:n, :n] = A
    blk[:n, n:] = B
    ref = expm(blk * dt)
    Phi, Gamma = discretize_zoh(A, B, dt)
    tol = ZOH_TOL * np.abs(ref).sum(axis=0).max()
    assert np.max(np.abs(Phi - ref[:n, :n])) <= tol
    assert np.max(np.abs(Gamma - ref[:n, n:])) <= tol


@pytest.mark.parametrize("case", ["case1-linear", "case1-nonlinear", "case2dof"])
def test_discretize_zoh_matches_expm_on_shipped_configs(case):
    cfg = load_config(Path(__file__).resolve().parent.parent / "configs" / f"{case}.yaml")
    ssm = build_state_space(cfg.modal, cfg.dt)
    assert_zoh_matches_expm(ssm.A, ssm.B, ssm.dt)


@pytest.mark.parametrize("seed", range(20))
def test_discretize_zoh_matches_expm_when_squaring(seed):
    # Random stable blocks sampled at 1-10 ms whose A dt has a 1-norm of
    # 6-600, past the squaring threshold: uncoupled modal oscillators up
    # to about 2.4 rad per sample, and dense A = S - (G G' + I) with S
    # skew, whose symmetric part is negative definite.
    rng = np.random.default_rng(seed)
    n_dofs = int(rng.integers(1, 4))
    n = 2 * n_dofs
    dt = rng.uniform(1e-3, 1e-2)
    if seed % 2:
        A = np.zeros((n, n))
        for j in range(0, n, 2):
            om2, xi = rng.uniform(6.0, 600.0) / dt, rng.uniform(0.0, 0.5)
            A[j, j + 1], A[j + 1, j], A[j + 1, j + 1] = 1.0, -om2, -2.0 * xi * np.sqrt(om2)
    else:
        S = rng.normal(size=(n, n))
        G = rng.normal(size=(n, n))
        A = (S - S.T) - (G @ G.T + np.eye(n))
        A *= rng.uniform(6.0, 600.0) / dt / np.abs(A).sum(axis=0).max()
    B = rng.normal(size=(n, n_dofs))
    assert np.abs(A * dt).sum(axis=0).max() > THETA_13
    assert_zoh_matches_expm(A, B, dt)
