"""Exception types raised by the toolkit, and the one range rule.

Every toolkit error derives from GravdiffError. :func:`gravdiff.cli.main` is
the one place that maps exceptions to the CLI's exit codes. :func:`require`
is the single producer of range refusals ("m1 must be positive and finite,
got -1.0"); their first word is the field that :func:`gravdiff.config._build`
maps to a config key. :func:`power` refuses, by name, a square or cube of a
finite value that leaves the float range.
"""

import math


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


def require(name: str, value: float, low: float = 0.0, *, strict: bool = True,
            error: type[Exception] = DomainError) -> None:
    """``error`` unless ``value`` is finite and above ``low`` (at or above it
    when not ``strict``), with a message that opens with ``name``."""
    if not (low < value if strict else low <= value) or not value < math.inf:
        if low == 0.0:
            bound = "positive" if strict else "non-negative"
        else:
            bound = f"{'>' if strict else '>='} {low:g}"
        raise error(f"{name} must be {bound} and finite, got {value!r}")


def power(name: str, value: float, n: int, nonzero: bool = False) -> float:
    """float(value)**n, or DomainError naming ``name`` when it overflows a
    float or, where ``nonzero`` (a divisor), underflows to 0. The float turns
    a numpy scalar's overflow warning into the OverflowError caught here."""
    try:
        result = float(value)**n
    except OverflowError:
        result = None
    if result is None or nonzero and result == 0.0:
        raise DomainError(f"{name}**{n} is out of floating-point range for {name} = {value:g}")
    return result
