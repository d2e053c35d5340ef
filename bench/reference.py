"""Reference trajectories computed apart from the program under test.

Every function here takes plain numbers read from a case configuration
and integrates the case's equations of motion with its own code:

* the linear cases by the exact matrix exponential of the free
  response (``scipy.linalg.expm``), the vortex force of case1-linear
  and the E_d/E_s self-excited force of case2dof folded into the
  state matrix;
* the nonlinear case by ``scipy.integrate.solve_ivp`` at tight
  tolerance on this module's own transcription of the
  amplitude-dependent damping/frequency law and the saturating vortex
  force.

None of them calls into ``rtahs``; the program's oracle is checked
against these, not the other way round.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm


def linear_free_response(A: np.ndarray, y0, n_samples: int, dt: float) -> np.ndarray:
    """Samples ``y(k dt) = expm(A k dt) y0`` for k < n_samples, stepped
    by the exact one-interval transition ``expm(A dt)``."""
    phi = expm(np.asarray(A, float) * dt)
    out = np.empty((n_samples, len(y0)))
    y = np.asarray(y0, float)
    for k in range(n_samples):
        out[k] = y
        y = phi @ y
    return out


def sdof_vortex_state_matrix(
    inertia, damping_ratio, circ_freq, rho, U, D, Y1, Y2, span
) -> np.ndarray:
    """State matrix of ``m x'' + c x' + k x = span q (Y1 x'/U + Y2 x/U)``
    with ``q = rho U^2 (2D) / 2``, state ``[x, x']``."""
    q = 0.5 * rho * U * U * (2.0 * D)
    c = 2.0 * inertia * damping_ratio * circ_freq - span * q * Y1 / U
    k = inertia * circ_freq * circ_freq - span * q * Y2 / U
    return np.array([[0.0, 1.0], [-k / inertia, -c / inertia]])


def coupled_state_matrix(inertia, damping_ratio, circ_freq, E_d, E_s) -> np.ndarray:
    """State matrix of ``M x'' + C x' + K x = E_d x' + E_s x`` for the
    heave-torsion pair, state ``[h, alpha, h', alpha']``."""
    m = np.asarray(inertia, float)
    c = 2.0 * m * np.asarray(damping_ratio, float) * np.asarray(circ_freq, float)
    k = m * np.asarray(circ_freq, float) ** 2
    n = len(m)
    gx = (np.asarray(E_s, float) - np.diag(k)) / m[:, None]
    gv = (np.asarray(E_d, float) - np.diag(c)) / m[:, None]
    return np.block([[np.zeros((n, n)), np.eye(n)], [gx, gv]])


def amplitude_law_response(
    inertia,
    circ_freq,
    rho,
    U,
    D,
    Y1,
    Y2,
    eps,
    CL_tilde,
    omega_vs,
    psi,
    span,
    x0,
    v0,
    n_samples: int,
    dt: float,
) -> np.ndarray:
    """Heave response of the amplitude-dependent oscillator

        h'' = F(t, h, h') / m - 2 xi(a) w(a) h' - w(a)^2 h,
        a = sqrt(h^2 + (h'/w0)^2),  s = max(2a/D, 1e-3),
        xi(a) = 1.247e-4/s + 3.65e-3 + 1.264e-2 s,
        w(a) = max(w0 (1 - a/(5D)), 0.01 w0),
        F = span q (Y1 (1 - eps h^2/D^2) h'/U + Y2 h/D + CL/2 sin(w_vs t + psi)),

    by an eighth-order Runge-Kutta with relative tolerance 1e-12."""
    q = 0.5 * rho * U * U * (2.0 * D)

    def rhs(t, y):
        h, v = y
        a = math.sqrt(h * h + (v / circ_freq) ** 2)
        s = max(2.0 * a / D, 1e-3)
        xi = 1.247e-4 / s + 3.65e-3 + 1.264e-2 * s
        w = max(circ_freq * (1.0 - a / (5.0 * D)), 0.01 * circ_freq)
        force = span * q * (
            Y1 * (1.0 - eps * h * h / (D * D)) * v / U
            + Y2 * h / D
            + 0.5 * CL_tilde * math.sin(omega_vs * t + psi)
        )
        return (v, force / inertia - 2.0 * xi * w * v - w * w * h)

    t = dt * np.arange(n_samples)
    sol = solve_ivp(
        rhs, (0.0, t[-1]), (x0, v0), method="DOP853", rtol=1e-12, atol=1e-15, t_eval=t
    )
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol.y.T


def normalized_rms(reference: np.ndarray, test: np.ndarray) -> float:
    """RMS of ``reference - test`` over the RMS of ``reference``."""
    reference = np.asarray(reference, float)
    err = reference - np.asarray(test, float)
    return float(np.sqrt(np.mean(err * err)) / np.sqrt(np.mean(reference * reference)))


def newmark_phase_bound(circ_freq: float, dt: float, t_end: float) -> float:
    """Phase lag (rad) that the average-acceleration Newmark scheme builds
    up by ``t_end``: its period elongation is ``(w dt)^2 / 12`` of a
    period.  Bounds the normalized RMS error of a decaying oscillation
    lagging by that phase."""
    return circ_freq * t_end * (circ_freq * dt) ** 2 / 12.0
