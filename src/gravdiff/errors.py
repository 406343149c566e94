"""Exception types raised by the toolkit.

Every toolkit error derives from GravdiffError. :func:`gravdiff.cli.main` is
the one place that maps exceptions to the CLI's exit codes.
"""


class GravdiffError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(GravdiffError):
    """Malformed or incomplete configuration input."""


class StabilityError(GravdiffError):
    """Trap configuration has no stable linearized dynamics."""


class StepSizeError(GravdiffError):
    """Integration step too coarse for the fastest timescale."""


class NonPhysicalInputError(GravdiffError):
    """State violates the uncertainty relation beyond tolerance."""


class SymmetryError(GravdiffError):
    """Operation requires an exchange-symmetric configuration."""


class PSDError(GravdiffError):
    """Matrix expected to be positive semidefinite is not."""


class DomainError(GravdiffError, ValueError):
    """Input outside the mathematical domain of the formula; a ValueError too,
    so that callers' ``except ValueError`` keeps catching it."""


class SeedError(GravdiffError):
    """Invalid ensemble/seed configuration."""


class ProtocolError(GravdiffError):
    """Measurement-protocol timing constraint violated."""
