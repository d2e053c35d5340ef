"""Aerodynamic force models and amplitude-dependent structural
nonlinearities driving the validation loops.

Two vortex-induced force models are implemented exactly as used by their
respective reference runs: the linear model normalizes the displacement
term by wind speed, the nonlinear model by section height.  Both return
force per unit span (N/m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import ConfigurationError

# Lower clamp on the normalized amplitude 2a/D: keeps the hyperbolic
# damping term finite at rest without affecting lock-in amplitudes.
AMPLITUDE_RATIO_FLOOR = 1e-3

# Lower clamp on the softened frequency as a fraction of omega0: prevents
# a degenerate oscillator if a divergent run overshoots a = 5D.
FREQUENCY_FLOOR_RATIO = 0.01

# Damping law xi(s) = XI_INV / s + XI_CONST + XI_LIN * s in the normalized
# amplitude s = 2a/D.
XI_INV, XI_CONST, XI_LIN = 1.247e-4, 3.65e-3, 1.264e-2


@dataclass(frozen=True)
class AeroParams:
    """Wind, geometry and aeroelastic coefficients for the heave force models.

    rho: air density (kg/m^3); U: wind speed (m/s); D: section height (m);
    Y1, Y2, eps: dimensionless aeroelastic coefficients; CL_tilde:
    vortex-shedding force amplitude; omega_vs: vortex-shedding circular
    frequency (rad/s); psi: shedding phase (rad).
    """

    rho: float
    U: float
    D: float
    Y1: float = 0.0
    Y2: float = 0.0
    eps: float = 0.0
    CL_tilde: float = 0.0
    omega_vs: float = 0.0
    psi: float = 0.0

    def __post_init__(self):
        if not self.rho > 0:
            raise ConfigurationError(f"rho must be positive, got {self.rho}")
        if not self.U > 0:
            raise ConfigurationError(f"U must be positive, got {self.U}")
        if not self.D > 0:
            raise ConfigurationError(f"D must be positive, got {self.D}")

    @property
    def dyn_pressure_2d(self) -> float:
        """Reference force scale 0.5 * rho * U^2 * (2D), N/m."""
        return 0.5 * self.rho * self.U**2 * (2.0 * self.D)


def linear_se_force(h: float, h_dot: float, p: AeroParams) -> float:
    """Linear vortex-induced vertical force per unit span.

    Both the velocity and displacement terms are normalized by wind
    speed, so the force is jointly linear in (h, h_dot) and scales
    linearly with U.
    """
    return p.dyn_pressure_2d * (p.Y1 * h_dot / p.U + p.Y2 * h / p.U)


def vortex_force(p: AeroParams, span: float = 1.0):
    """Nonlinear vortex-induced force on ``span`` of section, as a kernel
    ``force(t, h, v)``.

    The velocity term saturates quadratically in displacement (even in
    h), the displacement term is normalized by section height, and a
    sinusoidal vortex-shedding component of amplitude CL_tilde/2 is
    superposed.  Unchecked: the truth and the oracle run it at every RK4
    stage.
    """
    q2d = p.dyn_pressure_2d
    Y1, Y2, eps, U, D = p.Y1, p.Y2, p.eps, p.U, p.D
    cl_half = 0.5 * p.CL_tilde
    omega_vs, psi = p.omega_vs, p.psi
    sin = math.sin

    def force(t: float, h: float, v: float) -> float:
        return span * q2d * (
            Y1 * (1.0 - eps * h * h / (D * D)) * v / U
            + Y2 * h / D
            + cl_half * sin(omega_vs * t + psi)
        )

    return force


def heave_acceleration(inertia: float, omega0: float, D: float):
    """Acceleration kernel ``acc(h, v, u)`` of the amplitude-dependent
    heave oscillator under the force u: u/m - 2 xi om v - om^2 h.

    This is the one home of the amplitude law, taken at the
    instantaneous amplitude a = hypot(h, v/omega0): xi(a) = XI_INV/s +
    XI_CONST + XI_LIN*s with s = 2a/D clamped from below at
    AMPLITUDE_RATIO_FLOOR, and om(a) = omega0 * (1 - a/(5D)) clamped from
    below at FREQUENCY_FLOOR_RATIO * omega0.  ``acc(h, v, u, law=True)``
    returns (a, s, xi, om) instead of the acceleration.  Unchecked: the
    truth, the oracle and the filter run it at every RK4 stage.
    """
    s_floor = AMPLITUDE_RATIO_FLOOR
    om_floor = FREQUENCY_FLOOR_RATIO * omega0
    five_D = 5.0 * D
    hypot = math.hypot

    def acc(h: float, v: float, u: float, law: bool = False):
        a = hypot(h, v / omega0)
        s = 2.0 * a / D
        if s < s_floor:
            s = s_floor
        om = omega0 * (1.0 - a / five_D)
        if om < om_floor:
            om = om_floor
        xi = XI_INV / s + XI_CONST + XI_LIN * s
        if law:
            return a, s, xi, om
        return u / inertia - 2.0 * xi * om * v - om * om * h

    return acc


def heave_jacobian(omega0: float, D: float):
    """Continuous Jacobian of :func:`heave_acceleration` as a kernel
    ``jac(h, v)`` returning its second row (d acc/dh, d acc/dv); the
    first row is [0, 1].  The law's slopes are zero inside its clamps."""
    acc = heave_acceleration(1.0, omega0, D)
    om_floor = FREQUENCY_FLOOR_RATIO * omega0

    def jac(h: float, v: float) -> tuple[float, float]:
        a, s, xi, om = acc(h, v, 0.0, law=True)
        if s == AMPLITUDE_RATIO_FLOOR:
            dxi_da = 0.0
        else:
            dxi_da = (-XI_INV / (s * s) + XI_LIN) * (2.0 / D)
        dom_da = 0.0 if om == om_floor else -omega0 / (5.0 * D)
        if a > 0.0:
            da_dh = h / a
            da_dv = v / (omega0 * omega0 * a)
        else:
            da_dh = da_dv = 0.0
        # d/da of (2 xi om v + om^2 h)
        g = 2.0 * (dxi_da * om + xi * dom_da) * v + 2.0 * om * dom_da * h
        return -g * da_dh - om * om, -g * da_dv - 2.0 * xi * om

    return jac


@dataclass(frozen=True)
class CoupledSeMatrices:
    """Linear surrogate for the coupled heave-torsion self-excited forces.

    E_d maps [h_dot, alpha_dot] and E_s maps [h, alpha] to
    [lift, moment] per unit span; together they can emulate
    flutter-derivative behavior without a flow solver.
    """

    E_d: np.ndarray
    E_s: np.ndarray

    def __post_init__(self):
        E_d = np.asarray(self.E_d, dtype=float)
        E_s = np.asarray(self.E_s, dtype=float)
        if E_d.shape != (2, 2) or E_s.shape != (2, 2):
            raise ConfigurationError("E_d and E_s must be 2x2")
        if not (np.isfinite(E_d).all() and np.isfinite(E_s).all()):
            raise ConfigurationError("E_d and E_s must be finite")
        object.__setattr__(self, "E_d", E_d)
        object.__setattr__(self, "E_s", E_s)

