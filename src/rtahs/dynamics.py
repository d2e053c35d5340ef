"""Structural dynamics core: modal parameters, M/C/K assembly and the
continuous/discrete state-space model shared by the estimators and the
oracle integrators.

All quantities are strict SI: kg/m (or kg.m^2/m for torsion), rad/s,
N, m, rad.  Degrees of freedom are kept in the fixed canonical order
heave < transverse < torsion; absent DOFs are removed from every matrix
rather than zero-padded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from typing import Sequence

import numpy as np


class ConfigurationError(ValueError):
    """A configuration value that breaks a rule, raised by the
    ``__post_init__`` of the value type that holds the rule, or a config
    file in the wrong format (:mod:`rtahs.config`)."""


class DofId(IntEnum):
    """Section-model degrees of freedom, in canonical matrix order."""

    HEAVE = 0
    TRANSVERSE = 1
    TORSION = 2

    @property
    def label(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class ModalParams:
    """Effective single-mode parameters of one suspended DOF.

    ``inertia`` is mass per unit length for heave/transverse and mass
    moment of inertia per unit length for torsion; it already aggregates
    every contribution of the oscillatory system (model, suspension,
    still-air added mass).
    """

    dof: DofId
    inertia: float
    damping_ratio: float
    circ_freq: float

    def __post_init__(self):
        if not self.inertia > 0:
            raise ConfigurationError(f"inertia must be positive, got {self.inertia}")
        if not self.circ_freq > 0:
            raise ConfigurationError(f"circ_freq must be positive, got {self.circ_freq}")
        if self.damping_ratio < 0:
            raise ConfigurationError(f"damping_ratio must be >= 0, got {self.damping_ratio}")

    @property
    def damping_coeff(self) -> float:
        """Viscous damping coefficient 2*m*xi*omega."""
        return 2.0 * self.inertia * self.damping_ratio * self.circ_freq

    @property
    def stiffness(self) -> float:
        """Modal stiffness m*omega^2."""
        return self.inertia * self.circ_freq**2


@dataclass(frozen=True)
class StructuralMatrices:
    """Diagonal mass, damping and stiffness matrices in canonical DOF order."""

    dofs: tuple[DofId, ...]
    M: np.ndarray
    C: np.ndarray
    K: np.ndarray

    @property
    def n(self) -> int:
        return len(self.dofs)


@dataclass(frozen=True)
class StateSpaceModel:
    """Continuous model ``x_dot = A x + B u`` with displacement observation
    ``y = H x`` and its exact one-step zero-order-hold discrete map
    ``x_{k+1} = Phi x_k + Gamma u_k``.

    The state stacks (displacement, velocity) pairs per DOF in canonical
    order; inputs are the per-DOF generalized forces.
    """

    dofs: tuple[DofId, ...]
    A: np.ndarray
    B: np.ndarray
    H: np.ndarray
    dt: float
    Phi: np.ndarray
    Gamma: np.ndarray


def assemble_matrices(params: Sequence[ModalParams]) -> StructuralMatrices:
    """Assemble diagonal M, C, K from per-DOF modal parameters.

    The input order is irrelevant; output rows/columns follow the
    canonical DOF order.  Raises :class:`ConfigurationError` on duplicate
    DOF entries and ``ValueError`` on an empty list.
    """
    if not params:
        raise ValueError("params must be non-empty")
    seen = set()
    for p in params:
        if p.dof in seen:
            raise ConfigurationError(f"duplicate DOF entry: {p.dof.label}")
        seen.add(p.dof)
    ordered = sorted(params, key=lambda p: p.dof)
    dofs = tuple(p.dof for p in ordered)
    M = np.diag([p.inertia for p in ordered]).astype(float)
    C = np.diag([p.damping_coeff for p in ordered]).astype(float)
    K = np.diag([p.stiffness for p in ordered]).astype(float)
    return StructuralMatrices(dofs=dofs, M=M, C=C, K=K)


def build_state_space(params: Sequence[ModalParams], dt: float) -> StateSpaceModel:
    """Build the continuous state-space model and its ZOH discretization.

    Per-DOF blocks are ``[[0, 1], [-omega^2, -2 xi omega]]``: the restoring
    term enters with a negative sign so that each undriven oscillator is
    stable (eigenvalues with non-positive real part) for xi >= 0.

    Phi and Gamma come from the matrix exponential of the augmented
    ``[[A, B], [0, 0]]`` block, which is exact for the linear model.
    """
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    mats = assemble_matrices(params)
    ordered = sorted(params, key=lambda p: p.dof)
    n = len(ordered)
    A = np.zeros((2 * n, 2 * n))
    B = np.zeros((2 * n, n))
    H = np.zeros((n, 2 * n))
    for i, p in enumerate(ordered):
        j = 2 * i
        A[j, j + 1] = 1.0
        A[j + 1, j] = -p.circ_freq**2
        A[j + 1, j + 1] = -2.0 * p.damping_ratio * p.circ_freq
        B[j + 1, i] = 1.0 / p.inertia
        H[i, j] = 1.0
    Phi, Gamma = discretize_zoh(A, B, dt)
    return StateSpaceModel(
        dofs=mats.dofs, A=A, B=B, H=H, dt=dt, Phi=Phi, Gamma=Gamma
    )


def discretize_zoh(A: np.ndarray, B: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact zero-order-hold discretization of ``x_dot = A x + B u``:
    Phi and Gamma are the blocks of ``expm([[A, B], [0, 0]] dt)``, taken
    by :func:`_expm`."""
    n = A.shape[0]
    m = B.shape[1]
    blk = np.zeros((n + m, n + m))
    blk[:n, :n] = A
    blk[:n, n:] = B
    e = _expm(blk * dt)
    return e[:n, :n].copy(), e[:n, n:].copy()


# Coefficients b_0..b_13 of the [13/13] Pade approximant of exp, and the
# size of X up to which it is exact to double precision (Higham, SIAM J.
# Matrix Anal. Appl. 26(4), 2005, eq. 2.7 and Table 2.3).
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152


def _expm(X: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring of the [13/13] Pade
    approximant.  The scaling 2^-s is set by ``min(max(d6, d8), max(d8,
    d10))`` with ``dk = |X^k|_1^(1/k)`` (Al-Mohy & Higham, SIAM J. Matrix
    Anal. Appl. 31(3), 2009), not by ``|X|_1``, which over-scales a
    lightly damped oscillator block and loses accuracy in the squarings."""
    X2 = X @ X
    X4 = X2 @ X2
    X6 = X4 @ X2
    d6, d8, d10 = (
        np.abs(P).sum(axis=0).max() ** (1.0 / k) for P, k in ((X6, 6), (X4 @ X4, 8), (X4 @ X6, 10))
    )
    eta = min(max(d6, d8), max(d8, d10))
    s = math.ceil(math.log2(eta / _THETA13)) if eta > _THETA13 else 0
    X, X2, X4, X6 = X / 2.0**s, X2 / 4.0**s, X4 / 16.0**s, X6 / 64.0**s
    b = _PADE13
    I = np.eye(X.shape[0])
    U = X @ (X6 @ (b[13] * X6 + b[11] * X4 + b[9] * X2) + b[7] * X6 + b[5] * X4 + b[3] * X2 + b[1] * I)
    V = X6 @ (b[12] * X6 + b[10] * X4 + b[8] * X2) + b[6] * X6 + b[4] * X4 + b[2] * X2 + b[0] * I
    E = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        E = E @ E
    return E
