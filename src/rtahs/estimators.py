"""State estimators for the numerical substructure: Kalman filter,
extended Kalman filter, and the adaptive extended Kalman filter whose
innovation-driven covariance matching re-estimates the process and
measurement noise statistics online.

All steps are pure functions over immutable value objects; a filter
trajectory is a fold of ``*_step`` over the measurement stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.linalg._umath_linalg import eigh_lo

from .integrators import IntegrationError

# Eigenvalue floor applied to every covariance matrix after the update
# and matching recursions, whose subtraction terms can otherwise produce
# indefinite matrices.
PSD_FLOOR = 1e-12

DEFAULT_FORGETTING_FACTOR = 0.96


class FilterNumericalError(RuntimeError):
    """Non-finite or degenerate quantity inside a filter step."""

    def __init__(self, message: str, step: Optional[int] = None):
        super().__init__(message if step is None else f"step {step}: {message}")
        self.step = step


def symmetrize(M: np.ndarray) -> np.ndarray:
    S = M + M.T
    S *= 0.5
    return S


def _eye(n: int) -> np.ndarray:
    # Shared read-only identities; callers must not mutate.
    I = _EYE_CACHE.get(n)
    if I is None:
        I = np.eye(n)
        I.setflags(write=False)
        _EYE_CACHE[n] = I
    return I


_EYE_CACHE: dict[int, np.ndarray] = {}


def floor_spd(M: np.ndarray, floor: float = PSD_FLOOR) -> np.ndarray:
    """Symmetrize and clamp eigenvalues of M from below.

    1x1 and 2x2 matrices take the closed forms of :func:`_floor_rows`.
    Larger ones are decomposed by numpy's ``eigh_lo`` gufunc, the LAPACK
    ``dsyevd`` kernel behind ``np.linalg.eigh``, called directly to skip
    that wrapper's error-state handling (same eigenpairs bit for bit).
    A NaN or infinite entry raises FilterNumericalError before the
    kernel runs, since the kernel may leave the NaNs of such a matrix
    anywhere among the eigenvalues.  The kernel fills the eigenvalues of
    a decomposition that fails to converge with NaN, which raises too.
    """
    if len(M) <= 2:
        return _floor_rows(M.tolist(), floor)
    # any inf/nan entry poisons the sum
    if not math.isfinite(np.add.reduce(M, None)):
        raise FilterNumericalError("non-finite covariance")
    M = symmetrize(M)
    w, V = eigh_lo(M, signature="d->dd")
    if math.isnan(w[0]):
        raise FilterNumericalError("eigendecomposition did not converge")
    if w[0] >= floor:
        return M
    np.maximum(w, floor, out=w)
    return symmetrize((V * w).dot(V.T))


def _floor_rows(rows: list[list[float]], floor: float) -> np.ndarray:
    """:func:`floor_spd` of a matrix given as nested lists of floats.

    A 1x1 or 2x2 matrix is floored in Python floats, by the arithmetic of
    the array version in its order, with one array built at the end:
    the same bits.  ``np.hypot`` stays because ``math.hypot`` rounds
    differently.  A NaN or infinite entry raises FilterNumericalError.
    """
    if len(rows) > 2:
        return floor_spd(np.array(rows), floor)
    if len(rows) == 1:
        ((a,),) = rows
        if not math.isfinite(a):
            raise FilterNumericalError("non-finite covariance")
        return np.array([[max(a, floor)]])
    (a, b01), (b10, c) = rows
    b = 0.5 * (b01 + b10)
    mean = 0.5 * (a + c)
    disc = float(np.hypot(0.5 * (a - c), b))
    lo = mean - disc
    if lo >= floor:
        return np.array([[a, b], [b, c]])
    if not math.isfinite(lo):  # a NaN or infinite entry makes lo NaN or -inf
        raise FilterNumericalError("non-finite covariance")
    hi = max(mean + disc, floor)
    if abs(b) < 1e-300:
        return np.array([[max(a, floor), 0.0], [0.0, max(c, floor)]])
    # floor v v' + hi w w' for the unit eigenvector v of the smaller
    # eigenvalue and w = (-v1, v0): symmetric term by term
    norm = float(np.hypot(b, lo - a))
    v0, v1 = b / norm, (lo - a) / norm
    vv, vw, ww = v0 * v0, v0 * v1, v1 * v1
    off = floor * vw - hi * vw
    return np.array([[floor * vv + hi * ww, off], [off, floor * ww + hi * vv]])


def _inv_small(S: list[list[float]]) -> np.ndarray:
    """Inverse of an innovation covariance given as nested lists of
    floats, in closed form up to 2x2; raises on singularity."""
    if len(S) > 2:
        try:
            return np.linalg.inv(S)
        except np.linalg.LinAlgError as exc:
            raise FilterNumericalError(f"singular innovation covariance: {exc}") from exc
    if len(S) == 1:
        ((det,),) = S
    else:
        (s00, s01), (s10, s11) = S
        det = s00 * s11 - s01 * s10
    if det == 0.0 or not math.isfinite(det):
        raise FilterNumericalError("singular innovation covariance")
    if len(S) == 1:
        return np.array([[1.0 / det]])
    return np.array([[s11 / det, -s01 / det], [-s10 / det, s00 / det]])


@dataclass(frozen=True)
class NoiseStats:
    """First and second moments of the process (q, Q) and measurement
    (r, R) noises carried by a filter."""

    q: np.ndarray
    Q: np.ndarray
    r: np.ndarray
    R: np.ndarray

    @staticmethod
    def diagonal(n_states: int, n_obs: int, q_var: float, r_var: float) -> "NoiseStats":
        """Zero means and diagonal covariances."""
        return NoiseStats(
            q=np.zeros(n_states),
            Q=np.eye(n_states) * q_var,
            r=np.zeros(n_obs),
            R=np.eye(n_obs) * r_var,
        )


@dataclass(frozen=True)
class FilterState:
    """Posterior estimate after k measurement updates."""

    x: np.ndarray
    P: np.ndarray
    noise: NoiseStats
    k: int = 0


@dataclass(frozen=True)
class TransitionModel:
    """One-step transition map with its Jacobian, and the observation.

    ``propagate(x, u)`` advances the state over one sampling interval
    under a zero-order-hold input (it may raise :class:`IntegrationError`
    on a non-finite state); ``jac_transition(x, u)`` is the Jacobian of
    that discrete map.  The filter observes ``H @ x`` through the
    constant matrix ``H``; both noises enter additively.
    """

    propagate: Callable[[np.ndarray, np.ndarray], np.ndarray]
    jac_transition: Callable[[np.ndarray, np.ndarray], np.ndarray]
    H: np.ndarray


def linear_transition_model(ssm) -> TransitionModel:
    """Transition model for a linear state-space system (constant
    Jacobian equal to the discrete Phi)."""
    Phi, Gamma = ssm.Phi, ssm.Gamma

    def propagate(x, u):
        return Phi.dot(x) + Gamma.dot(u)

    return TransitionModel(propagate=propagate, jac_transition=lambda x, u: Phi, H=ssm.H)


def forgetting_weight(b: float, k: int) -> float:
    """Exponential-forgetting weight d_k = (1-b)/(1-b^k) for step k >= 1."""
    if k < 1:
        raise ValueError("step index must be >= 1")
    return (1.0 - b) / (1.0 - b**k)


def predict(
    fs: FilterState, u: np.ndarray, m: TransitionModel
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Prediction half-step.

    Returns (x_prior, P_prior, APA) where x_prior includes the current
    process-noise mean, APA = A P A' is left unsymmetrized for
    covariance matching, and P_prior = APA + Q, symmetrized.
    """
    if not (isinstance(u, np.ndarray) and u.ndim == 1):
        u = np.atleast_1d(np.asarray(u, dtype=float))
    try:
        x_prior = np.asarray(m.propagate(fs.x, u), dtype=float) + fs.noise.q
    except IntegrationError as exc:
        raise FilterNumericalError("non-finite prediction", step=fs.k + 1) from exc
    A_k = np.asarray(m.jac_transition(fs.x, u), dtype=float)
    APA = A_k.dot(fs.P).dot(A_k.T)
    P_prior = symmetrize(APA + fs.noise.Q)
    # any inf/nan entry poisons the sums, so two reductions cover the check
    if not math.isfinite(np.add.reduce(x_prior) + np.add.reduce(P_prior, None)):
        raise FilterNumericalError("non-finite prediction", step=fs.k + 1)
    return x_prior, P_prior, APA


def _update_core(
    x_prior: np.ndarray,
    P_prior: np.ndarray,
    z: np.ndarray,
    m: TransitionModel,
    noise: NoiseStats,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, list[list[float]]]:
    """Measurement update; returns (x_post, P_post, Ke, innovation, HPH)
    with Ke = K @ innovation and HPH = H P_prior H', the predicted
    measurement covariance, as nested lists of floats.  S = HPH + R is
    inverted in floats; ``ndarray.dot`` calls the BLAS kernels of ``@``
    (same bits) for about half its dispatch cost."""
    if not (isinstance(z, np.ndarray) and z.ndim == 1):
        z = np.atleast_1d(np.asarray(z, dtype=float))
    H = m.H
    HPH = H.dot(P_prior).dot(H.T)
    K = P_prior.dot(H.T).dot(_inv_small((HPH + noise.R).tolist()))
    innovation = z - H.dot(x_prior) - noise.r
    Ke = K.dot(innovation)
    x_post = x_prior + Ke
    P_post = floor_spd((_eye(len(x_prior)) - K.dot(H)).dot(P_prior))
    if not math.isfinite(np.add.reduce(x_post)):
        raise FilterNumericalError("non-finite posterior state")
    return x_post, P_post, Ke, innovation, HPH.tolist()


def update(fs: FilterState, z: np.ndarray, m: TransitionModel) -> FilterState:
    """Fuse a measurement into the current state without propagating it
    (the initial sample of a session, taken at t0); the step count
    stays."""
    x_post, P_post, *_ = _update_core(fs.x, symmetrize(fs.P), z, m, fs.noise)
    return FilterState(x=x_post, P=P_post, noise=fs.noise, k=fs.k)


def covariance_match(
    prev: FilterState,
    APA: np.ndarray,
    HPH: list[list[float]],
    x_prior: np.ndarray,
    new_x: np.ndarray,
    new_P: np.ndarray,
    innovation: np.ndarray,
    Ke: np.ndarray,
    forgetting_factor: float,
) -> NoiseStats:
    """Innovation-based recursive re-estimation of the noise statistics.

    Exponential forgetting with weight d_k blends the previous moments
    with single-step estimates: the process mean from the posterior
    less the step's own propagation, x_post - (x_prior - q_prev), the
    process covariance from the gain-weighted innovation outer product
    Ke Ke' plus the covariance decrease, the measurement mean from the
    raw pre-fit residual, and the measurement covariance from the
    innovation outer product minus the predicted part.  APA, HPH and
    Ke = K @ innovation are the products already formed by
    :func:`predict` and :func:`_update_core`.  Both covariance estimates
    are symmetrized and eigenvalue-floored; the vector recursions and
    the measurement covariance run in Python floats.
    """
    k = prev.k + 1
    d = forgetting_weight(forgetting_factor, k)
    c = 1.0 - d
    n = prev.noise

    xs = zip(new_x.tolist(), x_prior.tolist(), n.q.tolist())
    q_new = np.array([c * q + d * (x - (xp - q)) for x, xp, q in xs])

    Q_new = floor_spd(c * n.Q + d * (Ke[:, None] * Ke + new_P - APA))

    # e + r is the raw pre-fit residual z - h(x_prior), i.e. the
    # innovation e before the measurement-mean correction.
    e = innovation.tolist()
    r_new = np.array([c * r + d * (ei + r) for ei, r in zip(e, n.r.tolist())])

    R_rows = [
        [c * Rij + d * (ei * ej - HPHij) for ej, Rij, HPHij in zip(e, Ri, HPHi)]
        for ei, Ri, HPHi in zip(e, n.R.tolist(), HPH)
    ]
    return NoiseStats(q=q_new, Q=Q_new, r=r_new, R=_floor_rows(R_rows, PSD_FLOOR))


def _sdof_scalar_step(
    fs: FilterState, u: np.ndarray, z, m: TransitionModel
) -> FilterState:
    """Fused predict+update for the 2-state / scalar-displacement-
    observation shape of the single-DOF loops: the same algebra as
    predict + _update_core in plain Python floats, in the same order
    (50k-step real-time loops live on this path).  Each input array is
    read once with ``tolist``: the propagated state, A, P, Q, H, R and
    the noise means q and r."""
    n = fs.noise
    try:
        x_prop = m.propagate(fs.x, u)
    except IntegrationError as exc:
        raise FilterNumericalError("non-finite prediction", step=fs.k + 1) from exc
    (xq1, xq2), (q1, q2) = x_prop.tolist(), n.q.tolist()
    xp1, xp2 = xq1 + q1, xq2 + q2
    (a11, a12), (a21, a22) = m.jac_transition(fs.x, u).tolist()
    (p11, p12), (p21, p22) = fs.P.tolist()
    p12 = 0.5 * (p12 + p21)
    (Q11, Q12), (Q21, Q22) = n.Q.tolist()
    # symmetrized A P A' + Q
    t11 = a11 * p11 + a12 * p12
    t12 = a11 * p12 + a12 * p22
    t21 = a21 * p11 + a22 * p12
    t22 = a21 * p12 + a22 * p22
    pp11 = t11 * a11 + t12 * a12 + Q11
    pp22 = t21 * a21 + t22 * a22 + Q22
    pp12 = 0.5 * ((t11 * a21 + t12 * a22) + (t21 * a11 + t22 * a12)) + 0.5 * (Q12 + Q21)
    ((h1, h2),), ((R,),), (r,) = m.H.tolist(), n.R.tolist(), n.r.tolist()
    ph1 = pp11 * h1 + pp12 * h2
    ph2 = pp12 * h1 + pp22 * h2
    s = h1 * ph1 + h2 * ph2 + R
    if s == 0.0 or not math.isfinite(s):
        raise FilterNumericalError("singular innovation covariance", step=fs.k + 1)
    g1 = ph1 / s
    g2 = ph2 / s
    inn = float(z[0]) - (h1 * xp1 + h2 * xp2) - r
    x1 = xp1 + g1 * inn
    x2 = xp2 + g2 * inn
    if not math.isfinite(x1 + x2):
        raise FilterNumericalError("non-finite state", step=fs.k + 1)
    q11 = pp11 - g1 * ph1
    q22 = pp22 - g2 * ph2
    q12 = pp12 - 0.5 * (g1 * ph2 + g2 * ph1)
    # eigenvalue floor, closed form for the symmetric 2x2
    mean = 0.5 * (q11 + q22)
    disc = math.hypot(0.5 * (q11 - q22), q12)
    rows = [[q11, q12], [q12, q22]]
    P_post = np.array(rows) if mean - disc >= PSD_FLOOR else _floor_rows(rows, PSD_FLOOR)
    return FilterState(x=np.array([x1, x2]), P=P_post, noise=fs.noise, k=fs.k + 1)


def ekf_step(
    fs: FilterState, u: np.ndarray, z: np.ndarray, m: TransitionModel
) -> FilterState:
    """Extended Kalman filter step: predict through the (possibly
    nonlinear) transition map, then update with the measurement."""
    if m.H.shape == (1, 2):
        if not (isinstance(u, np.ndarray) and u.ndim == 1):
            u = np.atleast_1d(np.asarray(u, dtype=float))
        return _sdof_scalar_step(fs, u, z, m)
    x_prior, P_prior, _ = predict(fs, u, m)
    try:
        x_post, P_post, *_ = _update_core(x_prior, P_prior, z, m, fs.noise)
    except FilterNumericalError as exc:
        raise FilterNumericalError(str(exc), step=fs.k + 1) from exc
    return FilterState(x=x_post, P=P_post, noise=fs.noise, k=fs.k + 1)


def aekf_step(
    fs: FilterState,
    u: np.ndarray,
    z: np.ndarray,
    m: TransitionModel,
    forgetting_factor: float = DEFAULT_FORGETTING_FACTOR,
) -> FilterState:
    """Adaptive EKF step: EKF predict/update followed by covariance
    matching of the noise statistics."""
    x_prior, P_prior, APA = predict(fs, u, m)
    try:
        x_post, P_post, Ke, innovation, HPH = _update_core(x_prior, P_prior, z, m, fs.noise)
        noise = covariance_match(
            fs, APA, HPH, x_prior, x_post, P_post, innovation, Ke, forgetting_factor
        )
    except FilterNumericalError as exc:
        raise FilterNumericalError(str(exc), step=fs.k + 1) from exc
    return FilterState(x=x_post, P=P_post, noise=noise, k=fs.k + 1)
