"""Loss modelling and optimal provisioning under Bonus-Malus cyber insurance.

Subpackage map:
    severity   -- truncated g-and-h / log-normal single-event loss models
    compound   -- annual aggregate-loss distributions via tilted FFT
    contract   -- Bonus-Malus contract, mitigation menu, yearly dynamics
    solver     -- finite-horizon dynamic programming for provisioning
    simulate   -- forward Monte Carlo validation of solved policies
    config     -- experiment configuration (JSON) and defaults
    sweep      -- premium sweeps and CSV emission
    cli        -- command-line entry points
    errors     -- exception types (a severity law out of its domain: DomainError)
"""

from .errors import ConfigError, CyberProvError, DomainError, NumericalInstability
from .severity import LognormalParams, SeverityParams

__all__ = [
    "ConfigError",
    "CyberProvError",
    "DomainError",
    "NumericalInstability",
    "LognormalParams",
    "SeverityParams",
]

__version__ = "0.1.0"
