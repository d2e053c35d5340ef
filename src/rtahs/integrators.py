"""Oracle time integrators: the Newmark-beta step matrix and the classical
fixed-step RK4 kernels, the steppers built on them (one precomputed
matrix step for linear time-invariant cases, scalar RK4 for the
nonlinear one), the ``simulate`` driver producing uniformly sampled
time series, and ``dof_series``, the channel layout of every trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .dynamics import StructuralMatrices


# Newmark average-acceleration parameters (unconditionally stable).
GAMMA, BETA = 0.5, 0.25


class IntegrationError(RuntimeError):
    """Non-finite state or derivative encountered while stepping."""


@dataclass
class TimeSeries:
    """Uniformly sampled named channels over a common time grid.

    ``data`` maps channel name to a 1-D array; all channels share the
    length of ``t``.  ``truncated_step`` records where a run was cut
    short by the divergence guard, if it was.
    """

    dt: float
    t: np.ndarray
    data: dict[str, np.ndarray]
    truncated_step: Optional[int] = None

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        if len(self.t) >= 2:
            steps = np.diff(self.t)
            if not np.all(steps > 0):
                raise ValueError("time grid must be strictly increasing")
            if not np.allclose(steps, self.dt, rtol=1e-9, atol=1e-12 * max(self.dt, 1.0)):
                raise ValueError("time grid must be uniform with spacing dt")
        for name, col in self.data.items():
            col = np.asarray(col, dtype=float)
            if col.shape != self.t.shape:
                raise ValueError(f"channel {name!r} length mismatch")
            self.data[name] = col

    @property
    def truncated(self) -> bool:
        return self.truncated_step is not None

    @property
    def channels(self) -> list[str]:
        return list(self.data.keys())

    def __len__(self) -> int:
        return len(self.t)

    def channel(self, name: str) -> np.ndarray:
        return self.data[name]


def newmark_matrix(mats: StructuralMatrices, dt: float) -> np.ndarray:
    """One Newmark-beta step (parameters GAMMA and BETA) of the free
    system as the matrix T of ``[x; v] <- T [x; v]``.

    Each column of the identity on ``[x; v]`` is one initial state, with
    the acceleration that the equation of motion gives it; Newmark
    satisfies that equation at every step, so stepping the state alone
    loses nothing.
    """
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    n = mats.n
    M, C, K = mats.M, mats.C, mats.K
    identity = np.eye(2 * n)
    x, v = identity[:n], identity[n:]
    acc = np.linalg.solve(M, -C @ v - K @ x)
    a0 = 1.0 / (BETA * dt * dt)
    a1 = GAMMA / (BETA * dt)
    a2 = 1.0 / (BETA * dt)
    a3 = 1.0 / (2.0 * BETA) - 1.0
    a4 = GAMMA / BETA - 1.0
    a5 = dt / 2.0 * (GAMMA / BETA - 2.0)
    f_eff = M @ (a0 * x + a2 * v + a3 * acc) + C @ (a1 * x + a4 * v + a5 * acc)
    x_new = np.linalg.inv(K + a0 * M + a1 * C) @ f_eff
    acc_new = a0 * (x_new - x) - a2 * v - a3 * acc
    v_new = v + dt * (1.0 - GAMMA) * acc + GAMMA * dt * acc_new
    return np.vstack((x_new, v_new))


def rk4_step(
    deriv: Callable[[float, np.ndarray], np.ndarray],
    y: np.ndarray,
    t: float,
    dt: float,
) -> np.ndarray:
    """Classical fourth-order Runge-Kutta update of y' = deriv(t, y)."""
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    y = np.asarray(y, dtype=float)
    k1 = np.asarray(deriv(t, y))
    k2 = np.asarray(deriv(t + 0.5 * dt, y + 0.5 * dt * k1))
    k3 = np.asarray(deriv(t + 0.5 * dt, y + 0.5 * dt * k2))
    k4 = np.asarray(deriv(t + dt, y + dt * k3))
    out = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.isfinite(out).all():
        raise IntegrationError(f"non-finite RK4 derivative output at t={t}")
    return out


def rk4_scalar_2nd(
    acc: Callable[[float, float, float], float],
    h: float,
    v: float,
    t: float,
    dt: float,
) -> tuple[float, float]:
    """Classical RK4 update of a scalar second-order ODE h'' = acc(t, h, h').

    Pure-float specialization of :func:`rk4_step` for single-DOF runs;
    used by both the oracle driver and the surrogate truth generator so
    the two trace identical floating-point trajectories, and by the
    filter model of the nonlinear case.
    """
    k1h = v
    k1v = acc(t, h, v)
    th = t + 0.5 * dt
    k2h = v + 0.5 * dt * k1v
    k2v = acc(th, h + 0.5 * dt * k1h, k2h)
    k3h = v + 0.5 * dt * k2v
    k3v = acc(th, h + 0.5 * dt * k2h, k3h)
    k4h = v + dt * k3v
    k4v = acc(t + dt, h + dt * k3h, k4h)
    h_new = h + dt / 6.0 * (k1h + 2.0 * k2h + 2.0 * k3h + k4h)
    v_new = v + dt / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    if not (math.isfinite(h_new) and math.isfinite(v_new)):
        raise IntegrationError(f"non-finite RK4 state at t={t}")
    return h_new, v_new


class Stepper:
    """Fixed-step integrator of one case's governing equations.

    Holds the state (``x``, ``v``) and the step count ``k``;
    :meth:`advance` moves one ``dt``.  The clock is the step count: step
    k starts at ``k * dt`` and its end state is stamped ``k * dt + dt``.
    The oracle samples a stepper with :func:`simulate`; the surrogate
    session reads it as its truth through :meth:`outputs`.  Subclasses
    supply ``_step(t)``, which raises :class:`IntegrationError` on a
    non-finite state and leaves the state untouched, and the applied
    force: ``force()`` now and ``force_at(t, x, v)`` for any motion.
    """

    def __init__(self, dt: float, x0, v0):
        if not dt > 0:
            raise ValueError(f"dt must be positive, got {dt}")
        self.dt = dt
        self.k = 0
        self.t = 0.0
        self.x = np.asarray(x0, float).copy()
        self.v = np.asarray(v0, float).copy()

    def advance(self) -> None:
        t = self.k * self.dt
        self._step(t)
        self.k += 1
        self.t = t + self.dt

    def peak(self) -> float:
        """Largest displacement magnitude of the current state."""
        return float(np.max(np.abs(self.x)))

    def record(self, k: int, xs: np.ndarray, vs: np.ndarray, fs: np.ndarray) -> None:
        """Write the current state and force into row k of the samples."""
        xs[k], vs[k], fs[k] = self.x, self.v, self.force()

    def outputs(self) -> tuple[np.ndarray, np.ndarray]:
        """(force, displacement) arrays, as the surrogate session reads them."""
        return self.force(), self.x.copy()

    def receive_command(self, disp: np.ndarray) -> None:
        """Commands do not act on an integrated truth, which follows its
        own dynamics."""


class LinearStepper(Stepper):
    """Linear time-invariant dynamics as one precomputed step ``y <- T y``
    of the stacked state ``y = [x; v]``, with the applied force ``F y``.
    ``x`` and ``v`` are views of ``y``."""

    def __init__(self, T, F, dt: float, x0, v0):
        super().__init__(dt, x0, v0)
        n = len(self.x)
        self.T, self.F = np.asarray(T, float), np.asarray(F, float)
        self.y = np.concatenate((self.x, self.v))
        self.x, self.v = self.y[:n], self.y[n:]

    def _step(self, t: float) -> None:
        y = self.T @ self.y
        if not np.isfinite(y).all():
            raise IntegrationError(f"non-finite state at t={t}")
        self.y[:] = y

    def force(self) -> np.ndarray:
        return self.F @ self.y

    def force_at(self, t: float, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        return self.F @ np.concatenate((x, v))


class ScalarRk4Stepper(Stepper):
    """Single-DOF RK4 over float closures ``acc(t, h, v)`` and
    ``force(t, h, v)``; ``x``, ``v`` and the force are floats."""

    def __init__(self, acc, force, dt: float, x0, v0):
        super().__init__(dt, x0, v0)
        self._acc, self._force = acc, force
        self.x = float(self.x[0])
        self.v = float(self.v[0])

    def _step(self, t: float) -> None:
        self.x, self.v = rk4_scalar_2nd(self._acc, self.x, self.v, t, self.dt)

    def force_at(self, t, x, v):
        return np.array([self._force(t, x[0], v[0])])

    def peak(self) -> float:
        return abs(self.x)

    def record(self, k: int, xs: np.ndarray, vs: np.ndarray, fs: np.ndarray) -> None:
        xs[k, 0], vs[k, 0], fs[k, 0] = self.x, self.v, self._force(self.t, self.x, self.v)

    def outputs(self) -> tuple[np.ndarray, np.ndarray]:
        return np.array([self._force(self.t, self.x, self.v)]), np.array([self.x])


def sample_count(t_end: float, dt: float) -> int:
    """Samples of the grid 0, dt, ..., t_end: floor(t_end/dt) + 1."""
    return int(math.floor(t_end / dt + 1e-9)) + 1


def simulate(
    stepper: Stepper,
    labels: tuple[str, ...],
    t_end: float,
    limit: Optional[float] = None,
) -> TimeSeries:
    """Sample a fresh stepper on its fixed grid from t = 0.

    Produces :func:`sample_count` samples of the state and the applied
    force, laid out by :func:`dof_series`.  Divergent
    runs are truncated and the truncation step is flagged on the
    returned series: a step whose state turns non-finite holds the last
    finite sample from there on, and a step whose largest |x_i| exceeds
    ``limit`` keeps its sample and holds it after that.
    """
    if not t_end > 0:
        raise ValueError(f"t_end must be positive, got {t_end}")
    dt = stepper.dt
    n_samp = sample_count(t_end, dt)
    xs = np.zeros((n_samp, len(labels)))
    vs = np.zeros((n_samp, len(labels)))
    fs = np.zeros((n_samp, len(labels)))
    stepper.record(0, xs, vs, fs)
    truncated_step = None
    for k in range(1, n_samp):
        try:
            stepper.advance()
        except IntegrationError:
            # hold the last finite sample; divergence is data, not an error
            truncated_step, held = k, k
            break
        stepper.record(k, xs, vs, fs)
        if limit is not None and stepper.peak() > limit:
            truncated_step, held = k, k + 1
            break
    if truncated_step is not None:
        xs[held:], vs[held:], fs[held:] = xs[held - 1], vs[held - 1], fs[held - 1]
    return dof_series(dt, labels, xs, vs, fs, truncated_step)


def dof_series(
    dt: float,
    labels: tuple[str, ...],
    xs: np.ndarray,
    vs: np.ndarray,
    fs: np.ndarray,
    truncated_step: Optional[int] = None,
) -> TimeSeries:
    """The channel layout of every trajectory: ``x_<dof>``, ``xdot_<dof>``
    and ``f_<dof>`` per DOF, from column i of the sample arrays (one row
    per sample on the grid 0, dt, ...).  The columns are views."""
    data: dict[str, np.ndarray] = {}
    for i, lab in enumerate(labels):
        data[f"x_{lab}"] = xs[:, i]
        data[f"xdot_{lab}"] = vs[:, i]
        data[f"f_{lab}"] = fs[:, i]
    return TimeSeries(dt=dt, t=dt * np.arange(len(xs)), data=data, truncated_step=truncated_step)
