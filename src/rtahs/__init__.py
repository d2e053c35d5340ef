"""Real-time aeroelastic hybrid simulation engine.

A numerical substructure (Kalman-family state estimators over the
elastic-support dynamics) coupled in lockstep to a surrogate physical
substructure (aerodynamic force generator), either in-process or over a
versioned UDP wire protocol, with oracle integrators and a CLI harness
for the shipped validation cases and the time-delay study.

The package exports the library entry points only; everything else is
imported from its module (``rtahs.cosim``, ``rtahs.metrics``, ...).
"""

from .cases import default_config
from .config import load_config
from .harness import run_case, run_delay_study

__version__ = "0.1.0"
