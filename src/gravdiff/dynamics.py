"""Covariance-matrix evolution, uncertainty relation and PPT separability.

Every state here is dimensionless (see :class:`gravdiff.model.GaussianState`).
The covariance matrix obeys the linear matrix ODE

    dV/dt = J Hbar V - V Hbar J - J gamma_bar J
          = A V + V A^T + D,   A = J Hbar,   D = J gamma_bar J^T,

the eta = 0, hbar = 1 case of :func:`gravdiff.model.drift_diffusion`, with D
positive semidefinite whenever gamma_bar is. Physicality is the matrix
inequality V + (i/2) J >= 0; separability of the 1x1-mode split is certified
by V + (i/2) L J L >= 0 with the partial reflection L = diag(1, 1, 1, -1).
A negative minimum eigenvalue of the PPT matrix certifies entanglement; a
non-negative one certifies separability for two single modes.

The equation is linear-Gaussian, so each sample is one exact propagation from
t = 0, V(t) = Phi(t) V0 Phi(t)^T + Q(t) and <c>(t) = Phi(t) <c>(0), with
(Phi, Q) from :func:`gravdiff.model.propagator`: no sample depends on the last,
and the sampling step only sets how finely the trajectory is resolved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonPhysicalInputError, StepSizeError, require
from .manifest import ColumnTable
from .model import (
    DiffusionMatrix,
    GaussianState,
    LinearizedSystem,
    drift_diffusion,
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

# Samples propagated and eigen-checked per block: bounds the stacked
# exponentials and Hermitian copies to one block whatever the run's length.
_EIG_BLOCK = 1024

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
    raise DomainError(f"mode must be 1 or 2, got {mode}")


# J and the PPT form L J L of the printed convention (mode 2).
_J = symplectic_form()
_LJL = ppt_reflector(2) @ _J @ ppt_reflector(2)
_J.setflags(write=False)
_LJL.setflags(write=False)


def _min_eig_hermitian(V: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Minimum eigenvalue of the Hermitian matrix V + (i/2) X, for one V or
    for each of a stack of them."""
    return np.linalg.eigvalsh(V + 0.5j * X)[..., 0]


def uncertainty_valid(state: GaussianState, tol: float = EIG_TOL) -> tuple[bool, float]:
    """Check V + (i/2) J >= 0; returns (valid, min eigenvalue)."""
    min_eig = float(_min_eig_hermitian(state.V, _J))
    return bool(min_eig >= -tol), min_eig


def ppt_separable(state: GaussianState, tol: float = EIG_TOL) -> tuple[bool, float]:
    """Minimum eigenvalue of V + (i/2) L J L and the separability flag, with
    L the printed convention's reflection (mode 2; mode 1 gives the same
    spectrum).

    A negative eigenvalue certifies entanglement; a non-negative one is
    reported as PPT-separable, which is necessary and sufficient for a
    1x1-mode Gaussian split.
    """
    min_eig = float(_min_eig_hermitian(state.V, _LJL))
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
            raise DomainError("times, V, mean and eigenvalue tracks must have equal length")
        if np.any(np.diff(self.times) <= 0):
            raise DomainError("times must be strictly increasing")

    @property
    def states(self) -> tuple[GaussianState, ...]:
        """Per-sample GaussianState view of ``mean`` and ``V``, built on access."""
        return tuple(GaussianState(m, V) for m, V in zip(self.mean, self.V))

    def first_ppt_violation(self, tol: float = 1e-8):
        """Index of the first time ppt_min_eig < -tol, or None."""
        hits = np.nonzero(self.ppt_min_eig < -tol)[0]
        return int(hits[0]) if hits.size else None

    def csv_rows(self) -> ColumnTable:
        """(n, 13) table matching CSV_HEADER, stacked per row slice: t,
        V11..V44 (upper triangle), ppt, unc."""
        upper = [self.V[:, i, j] for i, j in zip(*np.triu_indices(4))]
        return ColumnTable(self.times, *upper, self.ppt_min_eig, self.unc_min_eig)

    CSV_HEADER = (
        "t", "V11", "V12", "V13", "V14", "V22", "V23", "V24",
        "V33", "V34", "V44", "ppt_min_eig", "unc_min_eig",
    )


def evolve_covariance_dimensionless(
    V0: np.ndarray,
    Hbar: np.ndarray,
    gamma_bar: np.ndarray,
    t_end: float,
    dt: float,
    mean0: np.ndarray | None = None,
) -> EvolutionResult:
    """Propagate V and the mean exactly, sampled every ``dt`` up to ``t_end``.

    Sample k is at exactly k dt, the last at ``t_end`` (a remainder below
    1e-12 dt is dropped), and is one exact propagation of (V0, mean0) from
    t = 0; each block of samples is one stacked propagator call. All inputs
    are in dimensionless units. Raises StepSizeError when dt is not positive
    and finite or exceeds 1% of the fastest oscillation period, or when t_end
    is negative or not finite, and NonPhysicalInputError when V0 violates the
    uncertainty relation by more than 1e-8.
    """
    require("dt", dt, error=StepSizeError)
    require("t_end", t_end, strict=False, error=StepSizeError)
    Omegas = np.diagonal(Hbar)[2:]
    max_dt = MAX_STEP_FRACTION * 2.0 * np.pi / np.max(np.abs(Omegas))
    if dt > max_dt:
        raise StepSizeError(
            f"dt = {dt:.3e} exceeds {MAX_STEP_FRACTION} * (2 pi / max Omega) = {max_dt:.3e}"
        )

    V0 = 0.5 * (np.array(V0, dtype=float) + np.array(V0, dtype=float).T)
    unc0 = _min_eig_hermitian(V0, _J)
    if unc0 < -1e-8:
        raise NonPhysicalInputError(
            f"initial covariance violates the uncertainty relation: "
            f"min eig(V + iJ/2) = {unc0:.3e}"
        )

    A, D = drift_diffusion(Hbar, gamma_bar)
    n = int(np.ceil(t_end / dt - 1e-12))
    times = np.minimum(np.arange(n + 1) * dt, t_end)
    mean0 = np.zeros(4) if mean0 is None else np.array(mean0, dtype=float).reshape(4)
    V = np.empty((n + 1, 4, 4))
    mean = np.empty((n + 1, 4))
    ppt, unc = np.empty((2, n + 1))
    for start in range(0, n + 1, _EIG_BLOCK):
        cut = slice(start, start + _EIG_BLOCK)
        Phi, Q = propagator(A, D, times[cut])
        Vk = Phi @ V0 @ Phi.transpose(0, 2, 1) + Q
        V[cut] = 0.5 * (Vk + Vk.transpose(0, 2, 1))
        mean[cut] = Phi @ mean0
        ppt[cut] = _min_eig_hermitian(V[cut], _LJL)
        unc[cut] = _min_eig_hermitian(V[cut], _J)

    return EvolutionResult(times=times, V=V, mean=mean, ppt_min_eig=ppt, unc_min_eig=unc)


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
    by bisection to a resolution of dt/100; each probe, like each sample, is
    one exact propagation of the start state from t = 0. Returns the bracket
    midpoint. Raises StepSizeError as :func:`evolve_covariance_dimensionless`
    does, naming t_max.
    """
    require("dt", dt, error=StepSizeError)
    require("t_max", t_max, strict=False, error=StepSizeError)
    Hbar, gamma_bar = to_dimensionless(sys, gamma)
    res = evolve_covariance_dimensionless(V0.V, Hbar, gamma_bar, t_max, dt, mean0=V0.mean)
    idx = res.first_ppt_violation(tol)
    if idx is None:
        return None
    if idx == 0:
        return 0.0

    # Bracket [t_lo, t_hi] with separable at t_lo, entangled at t_hi.
    t_lo = float(res.times[idx - 1])
    t_hi = float(res.times[idx])
    A, D = drift_diffusion(Hbar, gamma_bar)

    while t_hi - t_lo > dt / 100.0:
        t_mid = 0.5 * (t_lo + t_hi)
        Phi, Q = propagator(A, D, t_mid)
        if _min_eig_hermitian(Phi @ res.V[0] @ Phi.T + Q, _LJL) < -tol:
            t_hi = t_mid
        else:
            t_lo = t_mid
    return 0.5 * (t_lo + t_hi)
