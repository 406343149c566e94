"""No-entanglement bounds on the diffusion matrix.

Requiring that the two-mode ground state does not entangle at short times
yields a one-parameter family of necessary conditions on the dimensionless
diffusion matrix gamma_bar (one per relative phase alpha of the probe
direction). Taking the phase that maximizes the interaction side gives the
trace condition; positive semidefiniteness of gamma_bar then weakens it to a
plain trace bound, whose dimensional form can be minimized over trap
frequencies to give the frequency-free final bound

    gamma_11 + m^2 w^2 gamma_33 >= G m^2 / (hbar d^3)     (equal masses).

The chain, in the package's naming:

    alpha_bound(alpha)  family of conditions, one per alpha
    strongest_bound     alpha = pi/2 member (maximized interaction side)
    weak_bound          trace-only consequence (PSD weakening)
    dimensional_bound   weak_bound rewritten on the SI gamma entries
    final_bound         frequency-minimized, equal-mass form

Note: the printed dimensional form omits the factor m^2 required for
dimensional consistency with the final bound; the default here restores it
and ``paper_literal=True`` reproduces the printed expression for comparison.

Margins are reported as lhs - rhs with lhs the diffusion side, so
``satisfied`` means margin >= -tol with a relative tolerance on the scale of
the bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SymmetryError, require
from .model import (
    DiffusionMatrix,
    LinearizedSystem,
    PhysicalSetup,
    _symmetric,
    dimensionless_coupling,
)

__all__ = [
    "BoundReport",
    "alpha_bound",
    "strongest_bound",
    "weak_bound",
    "dimensional_bound",
    "final_bound",
    "minimal_diffusion",
    "com_reduction",
]

MARGIN_RTOL = 1e-9

# Relative tolerances of the equal-mass test and of com_reduction's range check.
EQUAL_MASS_RTOL = 1e-9
COM_RTOL = 1e-9


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one bound evaluation; margin = lhs - rhs."""

    bound_id: str
    lhs: float
    rhs: float
    margin: float
    satisfied: bool

    def to_dict(self) -> dict:
        """The fields by name, as a shallow copy."""
        return dict(vars(self))


def _report(bound_id: str, lhs: float, rhs: float) -> BoundReport:
    margin = lhs - rhs
    scale = max(abs(lhs), abs(rhs))
    return BoundReport(
        bound_id=bound_id,
        lhs=float(lhs),
        rhs=float(rhs),
        margin=float(margin),
        satisfied=bool(margin >= -MARGIN_RTOL * scale),
    )


def _as_matrix(gamma_bar) -> np.ndarray:
    g = gamma_bar.matrix if isinstance(gamma_bar, DiffusionMatrix) else np.asarray(gamma_bar, dtype=float)
    if g.shape != (4, 4):
        raise DomainError(f"expected a 4x4 matrix, got shape {g.shape}")
    return g


def alpha_bound(gamma_bar, sys: LinearizedSystem, alpha: float) -> BoundReport:
    """Phase-resolved ground-state separability condition.

    lhs = Tr[gamma_bar] + 2 (gb_12 - gb_34) cos a - 2 (gb_14 + gb_23) sin a,
    rhs = 2 Kbar sin a, with Kbar the dimensionless coupling. Each alpha in
    [0, 2 pi) gives a necessary condition.
    """
    g = _as_matrix(gamma_bar)
    kbar = dimensionless_coupling(sys)
    lhs = (
        np.trace(g)
        + 2.0 * (g[0, 1] - g[2, 3]) * np.cos(alpha)
        - 2.0 * (g[0, 3] + g[1, 2]) * np.sin(alpha)
    )
    rhs = 2.0 * kbar * np.sin(alpha)
    return _report("alpha", lhs, rhs)


def strongest_bound(gamma_bar, sys: LinearizedSystem) -> BoundReport:
    """Trace condition at the interaction-maximizing phase alpha = pi/2:

    Tr[gamma_bar] - 2 (gb_14 + gb_23) >= 2 Kbar.
    """
    g = _as_matrix(gamma_bar)
    kbar = dimensionless_coupling(sys)
    lhs = np.trace(g) - 2.0 * (g[0, 3] + g[1, 2])
    return _report("trace", lhs, 2.0 * kbar)


def weak_bound(gamma_bar, sys: LinearizedSystem) -> BoundReport:
    """PSD-weakened trace bound Tr[gamma_bar] >= Kbar."""
    g = _as_matrix(gamma_bar)
    kbar = dimensionless_coupling(sys)
    return _report("weak-trace", np.trace(g), kbar)


def _require_equal_masses(m1: float, m2: float) -> float:
    if abs(m1 - m2) > EQUAL_MASS_RTOL * max(m1, m2):
        raise SymmetryError(f"equal masses required: m1 = {m1!r}, m2 = {m2!r}")
    return 0.5 * (m1 + m2)


def dimensional_bound(gamma: DiffusionMatrix, sys: LinearizedSystem,
                      paper_literal: bool = False) -> BoundReport:
    """Weak trace bound on the SI diffusion entries (equal masses):

    O2 g11 + O1 g22 + m^2 O1 O2 (O1 g33 + O2 g44) >= (2 G m^2 / hbar d^3)
    sqrt(O1 O2), written here with rhs = (K / hbar) sqrt(O1 O2).

    ``paper_literal`` drops the m^2 factor on the momentum part, reproducing
    the dimensionally inconsistent printed expression.
    """
    g = gamma.matrix
    m = _require_equal_masses(sys.m1, sys.m2)
    O1, O2 = sys.Omega1, sys.Omega2
    mom_factor = 1.0 if paper_literal else m**2
    lhs = O2 * g[0, 0] + O1 * g[1, 1] + mom_factor * O1 * O2 * (O1 * g[2, 2] + O2 * g[3, 3])
    rhs = (sys.K / sys.hbar) * np.sqrt(O1 * O2)
    bound_id = "dimensional-literal" if paper_literal else "dimensional"
    return _report(bound_id, lhs, rhs)


def final_bound(gamma: DiffusionMatrix, setup: PhysicalSetup, omega: float) -> BoundReport:
    """Frequency-free bound g11 + m^2 w^2 g33 >= G m^2 / (hbar d^3).

    Valid for equal masses and exchange-symmetric gamma (g11 = g22,
    g33 = g44); SymmetryError otherwise. ``omega`` is the frequency at which
    the frequency-independent diffusion is being probed.
    """
    require("omega", omega)
    m = _require_equal_masses(setup.m1, setup.m2)
    g = gamma.matrix
    scale = max(abs(g[0, 0]), abs(g[1, 1]), 1e-300)
    if abs(g[0, 0] - g[1, 1]) > 1e-9 * scale:
        raise SymmetryError("exchange symmetry required: gamma11 != gamma22")
    scale_p = max(abs(g[2, 2]), abs(g[3, 3]), 1e-300)
    if abs(g[2, 2] - g[3, 3]) > 1e-9 * scale_p:
        raise SymmetryError("exchange symmetry required: gamma33 != gamma44")
    lhs = g[0, 0] + m**2 * omega**2 * g[2, 2]
    rhs = setup.G * m**2 / (setup.hbar * setup.d**3)
    return _report("final", lhs, rhs)


def minimal_diffusion(setup: PhysicalSetup, mode: str,
                      omega: float | None = None) -> DiffusionMatrix:
    """Exchange-symmetric diffusion matrix saturating the final bound.

    Modes:

    * ``"position-only"``: gamma = diag(g, g, 0, 0) with
      g = G m^2 / (hbar d^3). Saturates the final bound at every frequency.
    * ``"momentum-only"``: gamma = diag(0, 0, gp, gp) with
      gp = G / (hbar d^3 omega^2); saturates the final bound at ``omega``.
    * ``"mixed"``: splits the budget evenly between position and momentum at
      ``omega`` and adds the maximal anti-correlated x-p cross terms allowed
      by positivity (gamma_14 = gamma_23 = -g11/(m omega), PSD boundary).
      This is the allocation that also sits exactly on the dynamical
      separability boundary of the trace condition at Omega = omega: the
      diagonal allocations saturate only the weakened trace bound, which is a
      factor 2 inside the entangling region of the phase-resolved family.

    All three saturate g11 + m^2 omega^2 g33 = G m^2 / (hbar d^3).
    """
    m = _require_equal_masses(setup.m1, setup.m2)
    budget = setup.G * m**2 / (setup.hbar * setup.d**3)
    if mode in ("momentum-only", "mixed"):
        if omega is None:
            raise DomainError(f"{mode} allocation requires a positive omega")
        require("omega", omega)
    g = np.zeros((4, 4))
    if mode == "position-only":
        g[0, 0] = g[1, 1] = budget
    elif mode == "momentum-only":
        g[2, 2] = g[3, 3] = budget / (m**2 * omega**2)
    elif mode == "mixed":
        g11 = 0.5 * budget
        g[0, 0] = g[1, 1] = g11
        g[2, 2] = g[3, 3] = g11 / (m**2 * omega**2)
        g[0, 3] = g[3, 0] = g[1, 2] = g[2, 1] = -g11 / (m * omega)
    else:
        raise DomainError(f"unknown mode {mode!r}; expected position-only, momentum-only "
                          "or mixed")
    return DiffusionMatrix(g)


def com_reduction(Gamma) -> float:
    """Center-of-mass position-diffusion coefficient of an N x N position
    block Gamma (of a phase-space matrix, its upper-left block). Returns

        gamma_CM = sum_ij Gamma_ij,

    which lies in [0, 2 Tr] for a PSD two-body block; negative off-diagonals
    can cancel the center-of-mass noise entirely. Raises PSDError when the
    block fails the matrix rule of :mod:`gravdiff.model` as a PSD matrix and
    DomainError when the sum leaves the two-body range.
    """
    # u * s is the block's symmetric part; on u nothing overflows
    u, s = _symmetric(Gamma, "position block", psd=True)
    gamma_cm, upper = float(u.sum()), 2.0 * float(np.trace(u))
    tol = COM_RTOL * max(float(np.linalg.norm(u)), upper)
    if gamma_cm < -tol or gamma_cm > upper + tol:
        raise DomainError(
            f"gamma_CM = {gamma_cm * s:.6e} outside the two-body range [0, {upper * s:.6e}]"
        )
    return min(max(gamma_cm, 0.0), upper) * s
