"""Validation-case definitions: configuration objects, the one stepper
per case that both the oracle and the surrogate truth run, and the
transition models for the estimators.

Three cases are shipped:

* ``case1-linear``    single-DOF heave with the linear vortex force,
  Kalman filter against a Newmark oracle;
* ``case1-nonlinear`` single-DOF heave with the saturating vortex force
  and amplitude-dependent damping/frequency, extended Kalman filter
  against an RK4 oracle;
* ``case2dof``        coupled heave-torsion section model driven by the
  linear self-excited force surrogate, adaptive EKF over the UDP loop
  against an RK4 oracle of the same coupled system.

The single-DOF cases carry a ``span`` factor aggregating the per-unit-
length aerodynamic force onto the lumped oscillator inertia; with the
default 1.8 m span the linear case sits at 73% of critical aerodynamic
damping for Y1 = 6.5 (decaying) and 133% for Y1 = 11.966 (growing),
reproducing the intended stability split of the reference runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .aero import (
    AeroParams,
    CoupledSeMatrices,
    heave_acceleration,
    heave_jacobian,
    linear_se_force,
    vortex_force,
)
from .dynamics import (
    ConfigurationError,
    DofId,
    ModalParams,
    StructuralMatrices,
    assemble_matrices,
    build_state_space,
)
from .estimators import (
    DEFAULT_FORGETTING_FACTOR,
    FilterState,
    NoiseStats,
    TransitionModel,
    linear_transition_model,
)
from .integrators import (
    LinearStepper,
    ScalarRk4Stepper,
    Stepper,
    newmark_matrix,
    rk4_scalar_2nd,
    rk4_step,
    sample_count,
)

CASE_IDS = ("case1-linear", "case1-nonlinear", "case2dof")
ESTIMATORS = ("kf", "ekf", "aekf")
MODES = ("in-process", "udp")

# Divergence guard: runs are truncated once |x| exceeds this many section
# heights (intentionally divergent runs are data, not errors).
DISPLACEMENT_LIMIT_HEIGHTS = 1e3

# Largest cosim.timeout, in seconds: select() holds its timeout in int64
# nanoseconds and overflows past about 9.2e9 s.
TIMEOUT_MAX = 1e9

# Coupled-force surrogate matrices frozen from a pre-study sweep of the
# default two-DOF structure (see tests): "convergent" damps both modes,
# "divergent" destabilizes the torsional branch the way a supercritical
# reduced velocity would.
COUPLING_CONVERGENT = CoupledSeMatrices(
    E_d=np.array([[-0.9, 0.2], [0.02, -0.05]]),
    E_s=np.array([[0.0, 1.2], [0.08, 2.0]]),
)
COUPLING_DIVERGENT = CoupledSeMatrices(
    E_d=np.array([[-0.6, 0.8], [0.05, 0.08]]),
    E_s=np.array([[0.0, 2.5], [0.25, 6.0]]),
)


@dataclass(frozen=True)
class FilterSettings:
    """Initial filter statistics and the forgetting factor of the
    ``aekf`` estimator.  The adapted noise means start from zero."""

    p0: float = 1e-10
    process_var: float = 1e-8
    meas_var: float = 1e-8
    forgetting_factor: float = DEFAULT_FORGETTING_FACTOR

    def __post_init__(self):
        for name in ("p0", "process_var"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigurationError(f"{name} must be finite and >= 0, got {value}")
        # A positive R keeps the innovation covariance H P H' + R invertible.
        if not (math.isfinite(self.meas_var) and self.meas_var > 0):
            raise ConfigurationError(f"meas_var must be finite and > 0, got {self.meas_var}")
        # Step k of the covariance matching weighs (1-b)/(1-b^k).
        if not 0.0 < self.forgetting_factor < 1.0:
            raise ConfigurationError(
                f"forgetting_factor must be in (0, 1), got {self.forgetting_factor}"
            )


@dataclass(frozen=True)
class SurrogateSettings:
    """Measurement-path configuration of the surrogate physical side."""

    kind: str = "integrator"  # or "echo"
    disp_noise_std: float = 1e-5
    force_noise_std: float = 1e-4
    delay_tau: float = 0.0

    def __post_init__(self):
        if self.kind not in ("integrator", "echo"):
            raise ConfigurationError(f"unknown surrogate kind {self.kind!r}")
        for name in ("disp_noise_std", "force_noise_std", "delay_tau"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigurationError(f"{name} must be finite and >= 0, got {value}")


@dataclass(frozen=True)
class CosimSettings:
    """Lockstep transport: ``timeout`` (at most :data:`TIMEOUT_MAX`) caps
    the retransmission timeout and ``(max_retries + 1) * timeout`` is the
    silence budget of one exchange."""

    timeout: float = 0.1
    max_retries: int = 3
    loss_rate: float = 0.0

    def __post_init__(self):
        if not 0 < self.timeout <= TIMEOUT_MAX:
            raise ConfigurationError(f"timeout must be in (0, {TIMEOUT_MAX:g}], got {self.timeout}")
        if self.max_retries < 0:
            raise ConfigurationError(f"max_retries must be >= 0, got {self.max_retries}")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ConfigurationError(f"loss_rate must be in [0, 1), got {self.loss_rate}")


@dataclass(frozen=True)
class CaseConfig:
    """Fully resolved description of one validation run."""

    case: str
    estimator: str
    modal: tuple[ModalParams, ...]
    aero: AeroParams
    dt: float = 1e-3
    t_end: float = 50.0
    seed: int = 0
    mode: str = "in-process"
    span: float = 1.0
    x0_disp: tuple[float, ...] = (0.01,)
    x0_vel: tuple[float, ...] = (0.0,)
    x_hat0: Optional[tuple[float, ...]] = None  # None means "start at truth"
    coupling: Optional[CoupledSeMatrices] = None
    filter: FilterSettings = FilterSettings()
    surrogate: SurrogateSettings = SurrogateSettings()
    cosim: CosimSettings = CosimSettings()

    def __post_init__(self):
        if self.case not in CASE_IDS:
            raise ConfigurationError(f"case must be one of {CASE_IDS}, got {self.case!r}")
        if self.estimator not in ESTIMATORS:
            raise ConfigurationError(f"unknown estimator {self.estimator!r}")
        if self.mode not in MODES:
            raise ConfigurationError(f"unknown mode {self.mode!r}")
        want = ("heave", "torsion") if self.case == "case2dof" else ("heave",)
        got = tuple(d.label for d in self.dofs)
        if got != want:
            raise ConfigurationError(
                f"case {self.case} takes exactly the DOFs {', '.join(want)}, "
                f"got {', '.join(got) or 'none'}"
            )
        if self.case == "case2dof" and self.coupling is None:
            raise ConfigurationError("case2dof requires coupling matrices")
        if not self.dt > 0:
            raise ConfigurationError("dt must be positive")
        if not self.t_end > self.dt:
            raise ConfigurationError("t_end must exceed dt")
        # n_samples + 1 is the seq of the SHUTDOWN frame, a uint32 on the wire
        if not self.t_end / self.dt < 2**32 - 2:
            raise ConfigurationError(f"t_end must be finite and < (2**32 - 2) dt, got {self.t_end}")
        if not self.surrogate.delay_tau <= self.t_end:
            raise ConfigurationError(f"delay_tau {self.surrogate.delay_tau} exceeds t_end")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")
        n = len(self.modal)
        if len(self.x0_disp) != n or len(self.x0_vel) != n:
            raise ConfigurationError("initial conditions must cover every active DOF")
        if self.x_hat0 is not None and len(self.x_hat0) != 2 * n:
            raise ConfigurationError(f"x_hat0 must have {2 * n} entries, got {len(self.x_hat0)}")

    @property
    def dofs(self) -> tuple[DofId, ...]:
        return tuple(sorted(p.dof for p in self.modal))

    @property
    def n_dofs(self) -> int:
        return len(self.modal)

    @property
    def n_samples(self) -> int:
        return sample_count(self.t_end, self.dt)


def _case1_modal() -> tuple[ModalParams, ...]:
    return (ModalParams(DofId.HEAVE, inertia=182.178, damping_ratio=0.005, circ_freq=17.64),)


def _case1_aero(Y1: float = 6.5) -> AeroParams:
    return AeroParams(
        rho=1.25,
        U=9.1,
        D=0.175,
        Y1=Y1,
        Y2=-2.194,
        eps=0.5,
        CL_tilde=-0.022,
        omega_vs=0.4477,
        psi=-0.0128,
    )


def _case2dof_modal() -> tuple[ModalParams, ...]:
    return (
        ModalParams(
            DofId.HEAVE, inertia=9.096, damping_ratio=0.003, circ_freq=2.0 * math.pi * 0.8333
        ),
        ModalParams(
            DofId.TORSION, inertia=0.3952, damping_ratio=0.003, circ_freq=2.0 * math.pi * 2.3166
        ),
    )


def default_config(case: str, estimator: Optional[str] = None, **overrides) -> CaseConfig:
    """Resolved configuration for one of the shipped cases; keyword
    overrides replace individual fields.  ``CaseConfig`` rejects any
    other case."""
    if case != "case2dof":
        linear = case == "case1-linear"
        var = 1e-5 if linear else 1e-8
        cfg = CaseConfig(
            case=case,
            estimator=("kf" if linear else "ekf") if estimator is None else estimator,
            modal=_case1_modal(),
            aero=_case1_aero(),
            t_end=50.0,
            span=1.8,
            x0_disp=(0.01,),
            x0_vel=(0.0,),
            filter=FilterSettings(p0=1e-10, process_var=var, meas_var=var),
        )
    else:
        cfg = CaseConfig(
            case=case,
            estimator="aekf" if estimator is None else estimator,
            modal=_case2dof_modal(),
            aero=_case1_aero(),  # geometry only; forces come from the coupling matrices
            t_end=20.0,
            span=1.0,
            x0_disp=(0.005, 0.01),
            x0_vel=(0.0, 0.0),
            coupling=COUPLING_CONVERGENT,
            filter=FilterSettings(p0=1e-10, process_var=1e-8, meas_var=1e-8),
        )
    return replace(cfg, **overrides)


# ---------------------------------------------------------------------------
# Command-driven surrogate generator (the integrated truth is the case's
# stepper)
# ---------------------------------------------------------------------------


class EchoGenerator:
    """Command-driven generator: the reported displacement is the applied
    command, the force is evaluated on the commanded motion (velocity by
    backward difference)."""

    def __init__(
        self,
        force_eval: Callable[[float, np.ndarray, np.ndarray], np.ndarray],
        dt: float,
        n_dofs: int,
        x0: Optional[np.ndarray] = None,
    ):
        self.force_eval = force_eval
        self.dt = dt
        self.n = n_dofs
        self.cmd = np.zeros(n_dofs) if x0 is None else np.asarray(x0, float).copy()
        self.prev_cmd = self.cmd.copy()
        self.t = 0.0

    def outputs(self) -> tuple[np.ndarray, np.ndarray]:
        vel = (self.cmd - self.prev_cmd) / self.dt if self.t > 0 else np.zeros(self.n)
        return self.force_eval(self.t, self.cmd, vel), self.cmd.copy()

    def receive_command(self, disp: np.ndarray) -> None:
        self.prev_cmd = self.cmd
        self.cmd = np.asarray(disp, float).copy()

    def advance(self) -> None:
        self.t += self.dt


# ---------------------------------------------------------------------------
# Case wiring: the linear systems, the case stepper, generators
# ---------------------------------------------------------------------------


def _linear_system(cfg: CaseConfig) -> tuple[StructuralMatrices, np.ndarray, np.ndarray]:
    """Structural matrices of a linear case and the matrices (E_d, E_s)
    of its self-excited force ``E_d v + E_s x``: the one home of that
    force for the truth, the oracle and the echo surrogate."""
    mats = assemble_matrices(cfg.modal)
    if cfg.case == "case1-linear":
        a, span = cfg.aero, cfg.span
        E_d = np.array([[span * linear_se_force(0.0, 1.0, a)]])
        E_s = np.array([[span * linear_se_force(1.0, 0.0, a)]])
        return mats, E_d, E_s
    if cfg.case == "case2dof":
        return mats, cfg.coupling.E_d, cfg.coupling.E_s
    raise ValueError(f"case {cfg.case!r} is not linear")


def linear_state_matrix(cfg: CaseConfig) -> np.ndarray:
    """Continuous state matrix of a linear case on y = [x; v]:
    [[0, I], [M^-1 (E_s - K), M^-1 (E_d - C)]]."""
    mats, E_d, E_s = _linear_system(cfg)
    n = mats.n
    M_inv = np.linalg.inv(mats.M)
    return np.block(
        [[np.zeros((n, n)), np.eye(n)], [M_inv @ (E_s - mats.K), M_inv @ (E_d - mats.C)]]
    )


def _case1_nonlinear_scalar(cfg: CaseConfig):
    """Float closures (acc, force) for the amplitude-dependent heave
    system driven by the saturating vortex force."""
    p = cfg.modal[0]
    force_s = vortex_force(cfg.aero, cfg.span)
    acc_u = heave_acceleration(p.inertia, p.circ_freq, cfg.aero.D)

    def acc_s(t: float, h: float, v: float) -> float:
        return acc_u(h, v, force_s(t, h, v))

    return acc_s, force_s


def case_stepper(cfg: CaseConfig) -> Stepper:
    """The one integrator of a case's dynamics at its initial state, which
    the oracle samples and the surrogate truth steps.  The nonlinear case
    runs scalar RK4.  A linear case is one matrix step on [x; v]:
    :func:`newmark_matrix` of the folded matrices (M, C - E_d, K - E_s)
    for case1-linear, and one RK4 step of :func:`linear_state_matrix`
    applied to the identity columns of [x; v] for case2dof."""
    x0 = np.asarray(cfg.x0_disp, float)
    v0 = np.asarray(cfg.x0_vel, float)
    if cfg.case == "case1-nonlinear":
        acc_s, force_s = _case1_nonlinear_scalar(cfg)
        return ScalarRk4Stepper(acc_s, force_s, cfg.dt, x0, v0)
    mats, E_d, E_s = _linear_system(cfg)
    if cfg.case == "case1-linear":
        T = newmark_matrix(replace(mats, C=mats.C - E_d, K=mats.K - E_s), cfg.dt)
    else:
        A = linear_state_matrix(cfg)
        T = rk4_step(lambda t, y: A @ y, np.eye(2 * mats.n), 0.0, cfg.dt)
    return LinearStepper(T, np.hstack((E_s, E_d)), cfg.dt, x0, v0)


def truth_generator(cfg: CaseConfig):
    """Fresh surrogate generator: the case stepper itself, or the echo
    generator on the stepper's force law."""
    stepper = case_stepper(cfg)
    if cfg.surrogate.kind == "echo":
        return EchoGenerator(stepper.force_at, cfg.dt, cfg.n_dofs, x0=cfg.x0_disp)
    return stepper


# ---------------------------------------------------------------------------
# Filter transition models
# ---------------------------------------------------------------------------


def nonlinear_heave_model(inertia: float, omega0: float, D: float, dt: float) -> TransitionModel:
    """Transition model for the amplitude-dependent heave oscillator:
    RK4 propagation in four sub-steps under a held force input, the
    analytic transition Jacobian, observation of the displacement.
    ``propagate`` raises :class:`IntegrationError` on a non-finite
    state."""
    substeps = 4
    h_sub = dt / substeps
    _acc = heave_acceleration(inertia, omega0, D)

    def propagate(x: np.ndarray, u: np.ndarray) -> np.ndarray:
        (h, v), (uu,) = x.tolist(), u.tolist()
        acc = lambda t, h, v: _acc(h, v, uu)
        for _ in range(substeps):
            h, v = rk4_scalar_2nd(acc, h, v, 0.0, h_sub)
        return np.array([h, v])

    jac = heave_jacobian(omega0, D)

    def jac_transition(x, u):
        j21, j22 = jac(*x.tolist())
        # exp([[0, dt], [j21*dt, j22*dt]]) to fourth order, elementwise.
        b = j21 * dt
        c = j22 * dt
        m2_11 = dt * b
        m2_12 = dt * c
        m2_21 = c * b
        m2_22 = dt * b + c * c
        m3_11 = m2_12 * b
        m3_12 = m2_11 * dt + m2_12 * c
        m3_21 = m2_22 * b
        m3_22 = m2_21 * dt + m2_22 * c
        m4_11 = m2_11 * m2_11 + m2_12 * m2_21
        m4_12 = m2_11 * m2_12 + m2_12 * m2_22
        m4_21 = m2_21 * m2_11 + m2_22 * m2_21
        m4_22 = m2_21 * m2_12 + m2_22 * m2_22
        return np.array(
            [
                [
                    1.0 + m2_11 / 2.0 + m3_11 / 6.0 + m4_11 / 24.0,
                    dt + m2_12 / 2.0 + m3_12 / 6.0 + m4_12 / 24.0,
                ],
                [
                    b + m2_21 / 2.0 + m3_21 / 6.0 + m4_21 / 24.0,
                    1.0 + c + m2_22 / 2.0 + m3_22 / 6.0 + m4_22 / 24.0,
                ],
            ]
        )

    return TransitionModel(
        propagate=propagate, jac_transition=jac_transition, H=np.array([[1.0, 0.0]])
    )


def filter_model(cfg: CaseConfig) -> TransitionModel:
    """Transition model the configured estimator runs on.

    The Kalman filter always uses the constant-parameter linear
    structural model; the EKF uses the amplitude-dependent model for the
    nonlinear case.  Either way the model is driven by the measured
    force, never by the aero force law itself.
    """
    if cfg.case == "case1-nonlinear" and cfg.estimator in ("ekf", "aekf"):
        p = cfg.modal[0]
        return nonlinear_heave_model(p.inertia, p.circ_freq, cfg.aero.D, cfg.dt)
    ssm = build_state_space(cfg.modal, cfg.dt)
    return linear_transition_model(ssm)


def initial_filter_state(cfg: CaseConfig, model: TransitionModel) -> FilterState:
    m, n = model.H.shape
    noise = NoiseStats.diagonal(n, m, q_var=cfg.filter.process_var, r_var=cfg.filter.meas_var)
    if cfg.x_hat0 is None:
        x0 = np.zeros(n)
        x0[0::2] = cfg.x0_disp
        x0[1::2] = cfg.x0_vel
    else:
        x0 = np.asarray(cfg.x_hat0, dtype=float)
    return FilterState(x=x0, P=np.eye(n) * cfg.filter.p0, noise=noise, k=0)

