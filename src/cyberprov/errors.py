"""Exception types shared across the package."""


class CyberProvError(Exception):
    """Base class for all package-specific errors."""


class DomainError(CyberProvError):
    """An argument lies outside the mathematical domain of an operation; a
    severity constructor raises it for any law its methods cannot answer."""


class NumericalInstability(CyberProvError):
    """A numerical routine produced values outside its guaranteed bounds.

    Raised by the aggregate-loss transform when probabilities come out
    materially negative or total mass drifts from one, which signals a
    misconfigured grid or tilting parameter rather than roundoff.
    """


class ConfigError(CyberProvError):
    """An experiment configuration failed validation.

    The message names the offending field so callers can surface
    field-level diagnostics.
    """
