"""Covariance-matrix evolution, uncertainty relation and PPT separability.

Every state here is dimensionless (see :class:`gravdiff.model.GaussianState`).
The covariance matrix obeys the linear matrix ODE

    dV/dt = J Hbar V - V Hbar J - J gamma_bar J
          = A V + V A^T + D,   A = J Hbar,   D = J gamma_bar J^T,

with D positive semidefinite whenever gamma_bar is. Physicality is the matrix
inequality V + (i/2) J >= 0; separability of the 1x1-mode split is certified
by V + (i/2) L J L >= 0 with the partial reflection L = diag(1, 1, 1, -1).
A negative minimum eigenvalue of the PPT matrix certifies entanglement; a
non-negative one certifies separability for two single modes.

The equation is linear-Gaussian, so each sampling step is exact:
V <- Phi V Phi^T + Q and <c> <- Phi <c>, with (Phi, Q) from
:func:`gravdiff.model.propagator`. The sampling step only sets how finely the
trajectory and its eigenvalue diagnostics are resolved, not its accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonPhysicalInputError, StepSizeError
from .model import (
    DiffusionMatrix,
    GaussianState,
    LinearizedSystem,
    propagator,
    symplectic_form,
    to_dimensionless,
)

__all__ = [
    "ppt_reflector",
    "uncertainty_valid",
    "ppt_separable",
    "EvolutionResult",
    "evolve_covariance",
    "evolve_covariance_dimensionless",
    "entanglement_onset",
]

# Absolute eigenvalue tolerance in dimensionless units.
EIG_TOL = 1e-10

# Each step is exact, but a coarse sampling grid can step over a transient
# PPT dip; reject anything coarser than 1% of the fastest period.
MAX_STEP_FRACTION = 0.01


def ppt_reflector(mode: int = 2) -> np.ndarray:
    """Partial phase-space reflection for the requested mode.

    Mode 2 (the printed convention) flips p2: diag(1, 1, 1, -1). Reflecting
    mode 1 instead flips p1 and leads to the same PPT spectrum.
    """
    if mode == 2:
        return np.diag([1.0, 1.0, 1.0, -1.0])
    if mode == 1:
        return np.diag([1.0, 1.0, -1.0, 1.0])
    raise ValueError(f"mode must be 1 or 2, got {mode}")


def _min_eig_hermitian(V: np.ndarray, X: np.ndarray) -> float:
    """Minimum eigenvalue of the Hermitian matrix V + (i/2) X."""
    return float(np.linalg.eigvalsh(V + 0.5j * X).min())


def uncertainty_valid(state: GaussianState, tol: float = EIG_TOL) -> tuple[bool, float]:
    """Check V + (i/2) J >= 0; returns (valid, min eigenvalue)."""
    min_eig = _min_eig_hermitian(state.V, symplectic_form())
    return bool(min_eig >= -tol), min_eig


def ppt_separable(state: GaussianState, tol: float = EIG_TOL,
                  mode: int = 2) -> tuple[bool, float]:
    """Minimum eigenvalue of V + (i/2) L J L and the separability flag.

    A negative eigenvalue certifies entanglement; a non-negative one is
    reported as PPT-separable, which is necessary and sufficient for a
    1x1-mode Gaussian split.
    """
    L = ppt_reflector(mode)
    J = symplectic_form()
    min_eig = _min_eig_hermitian(state.V, L @ J @ L)
    return bool(min_eig >= -tol), min_eig


@dataclass(frozen=True)
class EvolutionResult:
    """Sampled covariance trajectory: dimensionless V (n, 4, 4), mean (n, 4)
    and the two eigenvalue diagnostics, all along ``times``."""

    times: np.ndarray
    V: np.ndarray
    mean: np.ndarray
    ppt_min_eig: np.ndarray
    unc_min_eig: np.ndarray

    def __post_init__(self):
        n = len(self.times)
        if not (len(self.V) == len(self.mean) == len(self.ppt_min_eig)
                == len(self.unc_min_eig) == n):
            raise ValueError("times, V, mean and eigenvalue tracks must have equal length")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")

    @property
    def states(self) -> tuple[GaussianState, ...]:
        """Per-sample GaussianState view of ``mean`` and ``V``, built on access."""
        return tuple(GaussianState(m, V) for m, V in zip(self.mean, self.V))

    def first_ppt_violation(self, tol: float = 1e-8):
        """Index of the first time ppt_min_eig < -tol, or None."""
        hits = np.nonzero(self.ppt_min_eig < -tol)[0]
        return int(hits[0]) if hits.size else None

    def csv_rows(self) -> np.ndarray:
        """(n, 13) table matching CSV_HEADER: t, V11..V44 (upper triangle), ppt, unc."""
        i, j = np.triu_indices(4)
        return np.column_stack((self.times, self.V[:, i, j], self.ppt_min_eig, self.unc_min_eig))

    CSV_HEADER = (
        "t", "V11", "V12", "V13", "V14", "V22", "V23", "V24",
        "V33", "V34", "V44", "ppt_min_eig", "unc_min_eig",
    )


def _check_span(name: str, t_end: float, dt: float) -> None:
    """StepSizeError unless dt is positive and finite and the time span
    t_end, called ``name`` in the message, is non-negative and finite."""
    if not 0.0 < dt < np.inf:
        raise StepSizeError(f"dt must be positive and finite, got {dt}")
    if not 0.0 <= t_end < np.inf:
        raise StepSizeError(f"{name} must be non-negative and finite, got {t_end}")


def evolve_covariance_dimensionless(
    V0: np.ndarray,
    Hbar: np.ndarray,
    gamma_bar: np.ndarray,
    t_end: float,
    dt: float,
    mean0: np.ndarray | None = None,
) -> EvolutionResult:
    """Propagate V and the mean exactly, sampled every ``dt`` up to ``t_end``.

    All inputs are in dimensionless units. Raises StepSizeError when dt is
    not positive and finite or exceeds 1% of the fastest oscillation period,
    or when t_end is negative or not finite, and NonPhysicalInputError when
    V0 violates the uncertainty relation by more than 1e-8.
    """
    _check_span("t_end", t_end, dt)
    Omegas = np.diagonal(Hbar)[2:]
    max_dt = MAX_STEP_FRACTION * 2.0 * np.pi / np.max(np.abs(Omegas))
    if dt > max_dt:
        raise StepSizeError(
            f"dt = {dt:.3e} exceeds {MAX_STEP_FRACTION} * (2 pi / max Omega) = {max_dt:.3e}"
        )

    V0 = 0.5 * (np.array(V0, dtype=float) + np.array(V0, dtype=float).T)
    J = symplectic_form()
    L = ppt_reflector(2)
    unc0 = _min_eig_hermitian(V0, J)
    if unc0 < -1e-8:
        raise NonPhysicalInputError(
            f"initial covariance violates the uncertainty relation: "
            f"min eig(V + iJ/2) = {unc0:.3e}"
        )

    A, D = J @ Hbar, J @ gamma_bar @ J.T
    Phi, Q = propagator(A, D, dt)

    n_steps = int(np.ceil(t_end / dt - 1e-12))
    times = np.zeros(n_steps + 1)
    V = np.empty((n_steps + 1, 4, 4))
    mean = np.empty((n_steps + 1, 4))
    V[0] = V0
    mean[0] = 0.0 if mean0 is None else np.array(mean0, dtype=float).reshape(4)
    t = 0.0
    for i in range(1, n_steps + 1):
        h = min(dt, t_end - t)
        if h != dt:
            Phi, Q = propagator(A, D, h)
        V[i] = Phi @ V[i - 1] @ Phi.T + Q
        mean[i] = Phi @ mean[i - 1]
        t += h
        times[i] = t
    V = 0.5 * (V + V.transpose(0, 2, 1))

    return EvolutionResult(
        times=times, V=V, mean=mean,
        ppt_min_eig=np.linalg.eigvalsh(V + 0.5j * (L @ J @ L))[:, 0],
        unc_min_eig=np.linalg.eigvalsh(V + 0.5j * J)[:, 0],
    )


def evolve_covariance(
    V0: GaussianState,
    sys: LinearizedSystem,
    gamma: DiffusionMatrix,
    t_end: float,
    dt: float,
) -> EvolutionResult:
    """Typed front end: converts (sys, gamma) to dimensionless form and evolves."""
    Hbar, gamma_bar = to_dimensionless(sys, gamma)
    return evolve_covariance_dimensionless(
        V0.V, Hbar, gamma_bar, t_end, dt, mean0=V0.mean
    )


def entanglement_onset(
    V0: GaussianState,
    sys: LinearizedSystem,
    gamma: DiffusionMatrix,
    t_max: float,
    dt: float,
    tol: float = 1e-8,
):
    """First time the PPT minimum eigenvalue drops below -tol, or None.

    Scans the trajectory on the coarse grid, then refines the bracketing step
    by bisection to a resolution of dt/100; each probe propagates exactly from
    the last separable grid point. Returns the bracket midpoint. Raises
    StepSizeError as :func:`evolve_covariance_dimensionless` does, naming
    t_max.
    """
    _check_span("t_max", t_max, dt)
    Hbar, gamma_bar = to_dimensionless(sys, gamma)
    res = evolve_covariance_dimensionless(V0.V, Hbar, gamma_bar, t_max, dt, mean0=V0.mean)
    idx = res.first_ppt_violation(tol)
    if idx is None:
        return None
    if idx == 0:
        return 0.0

    # Bracket [t_lo, t_hi] with separable at t_lo, entangled at t_hi.
    t_lo = t_start = float(res.times[idx - 1])
    t_hi = float(res.times[idx])
    V_start = res.V[idx - 1]
    J = symplectic_form()
    A, D = J @ Hbar, J @ gamma_bar @ J.T
    L = ppt_reflector(2)
    LJL = L @ J @ L

    while t_hi - t_lo > dt / 100.0:
        t_mid = 0.5 * (t_lo + t_hi)
        Phi, Q = propagator(A, D, t_mid - t_start)
        if _min_eig_hermitian(Phi @ V_start @ Phi.T + Q, LJL) < -tol:
            t_hi = t_mid
        else:
            t_lo = t_mid
    return 0.5 * (t_lo + t_hi)
