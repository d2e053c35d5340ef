"""Real-time aeroelastic hybrid simulation engine.

A numerical substructure (Kalman-family state estimators over the
elastic-support dynamics) coupled in lockstep to a surrogate physical
substructure (aerodynamic force generator), either in-process or over a
versioned UDP wire protocol, with oracle integrators and a CLI harness
for the shipped validation cases and the time-delay study.
"""

from .aero import (
    AeroParams,
    CoupledSeMatrices,
    linear_se_force,
)
from .cases import CaseConfig, default_config
from .config import ConfigFileError, config_from_dict, load_config
from .cosim import (
    EstimatorSession,
    LossInjector,
    SessionError,
    SurrogateSession,
    run_in_process,
    run_udp_pair,
)
from .dynamics import (
    ConfigurationError,
    DofId,
    ModalParams,
    StructuralMatrices,
    assemble_matrices,
    build_state_space,
    discretize_zoh,
)
from .estimators import (
    FilterNumericalError,
    FilterState,
    NoiseStats,
    TransitionModel,
    aekf_step,
    ekf_step,
    linear_transition_model,
    predict,
    update,
)
from .harness import run_case, run_delay_study
from .integrators import (
    IntegrationError,
    TimeSeries,
    rk4_step,
    simulate,
)
from .metrics import ComparisonMetrics, classify_envelope, compare_series
from .wire import (
    Frame,
    FrameDecodeError,
    FrameEncodeError,
    Handshake,
    MsgType,
    decode_frame,
    encode_frame,
)

__version__ = "0.1.0"
