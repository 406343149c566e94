"""Displacement-noise spectra from one resolvent.

All spectra are two-sided densities over angular frequency (Wiener-Khinchin
convention): the position variance is the integral of S_xx(w) dw / (2 pi),
and a white force of intensity I (E[f(t) f(t')] = I d(t-t')) has the flat
spectrum S_ff(w) = I. The quantum thermal force density used here is

    S_xi(w) = hbar eta m w [1 + coth(hbar w / 2 kB T)],

which reduces to the classical white intensity 2 eta m kB T for
kB T >> hbar w. (The time domain correlation as printed elsewhere lacks the
factor w; this form is the one consistent with the spectrum and with the
classical limit.)

Both models are linear Langevin systems with the damped drift A and noise
rate D = hbar^2 J gamma J^T of :func:`gravdiff.model.langevin_drift` and
:func:`~gravdiff.model.langevin_diffusion`, plus S_xi on each mobile body's
momentum. Their spectrum is the resolvent form (C. W. Gardiner, Handbook of
Stochastic Methods, sec. 4.4)

    S(w) = (-i w - A)^{-1} D(w) (i w - A^T)^{-1},

evaluated on each additive part of D for the component breakdown. The
closed forms of both models serve the test suite as oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .model import (
    DiffusionMatrix,
    LinearizedSystem,
    PhysicalSetup,
    langevin_diffusion,
    langevin_drift,
)

__all__ = [
    "NoiseSpectrum",
    "thermal_force_density",
    "dns_fixed_source",
    "dns_symmetric_pair",
    "gravitational_frequency",
]

SPECTRUM_CONVENTION = "two-sided angular-frequency density, var = int S dw / 2pi"


@dataclass(frozen=True)
class NoiseSpectrum:
    """Sampled S_xx(w) [m^2 s] with its additive component breakdown.

    Component fields are None for estimator outputs (Monte Carlo) where no
    decomposition exists; when present they sum to S_total pointwise.
    """

    omega: np.ndarray
    S_total: np.ndarray
    S_grav_position: np.ndarray | None = None
    S_grav_momentum: np.ndarray | None = None
    S_thermal: np.ndarray | None = None
    S_cross: np.ndarray | None = None
    convention: str = SPECTRUM_CONVENTION
    zero_frequency_substituted: bool = False

    def __post_init__(self):
        for name in ("omega", "S_total", "S_grav_position", "S_grav_momentum",
                     "S_thermal", "S_cross"):
            val = getattr(self, name)
            if val is not None:
                arr = np.asarray(val, dtype=float)
                arr.setflags(write=False)
                object.__setattr__(self, name, arr)

    @property
    def has_components(self) -> bool:
        return self.S_grav_position is not None

    def csv_rows(self) -> np.ndarray:
        """(n, 6) table matching CSV_HEADER; absent components read zero."""
        parts = (self.S_grav_position, self.S_grav_momentum, self.S_thermal, self.S_cross)
        if not self.has_components:
            parts = [np.zeros_like(self.S_total)] * 4
        return np.column_stack((self.omega, self.S_total, *parts))

    CSV_HEADER = ("omega_rad_s", "S_total", "S_grav_pos", "S_grav_mom",
                  "S_thermal", "S_cross")


def _coth_term(omega: np.ndarray, setup: PhysicalSetup, m: float) -> tuple[np.ndarray, bool]:
    """(eta m w / hbar)(1 + coth(hbar w / 2 kB T)) with safe limits.

    T = 0 gives the vacuum value (eta m / hbar) * (w + |w|); w = 0 entries
    are replaced by the finite classical-limit value 2 eta m kB T / hbar^2
    and flagged.
    """
    w = np.asarray(omega, dtype=float)
    pref = setup.eta * m / setup.hbar
    substituted = False
    if setup.T == 0.0:
        vals = pref * (w + np.abs(w))
        return vals, substituted
    x = setup.hbar * w / (2.0 * setup.kB * setup.T)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = pref * w * (1.0 + 1.0 / np.tanh(x))
    zero = (w == 0.0)
    if np.any(zero):
        vals = np.where(zero, 2.0 * setup.eta * m * setup.kB * setup.T / setup.hbar**2, vals)
        substituted = True
    return vals, substituted


def thermal_force_density(omega, setup: PhysicalSetup) -> np.ndarray:
    """Two-sided thermal force density S_xi(w) = hbar eta m w [1 + coth(...)] [N^2 s]."""
    vals, _ = _coth_term(omega, setup, setup.m1)
    return setup.hbar**2 * vals


def _resolvent_spectrum(setup: PhysicalSetup, sys: LinearizedSystem, gamma: DiffusionMatrix,
                        omega_grid, partner_fixed: bool) -> NoiseSpectrum:
    """S_x1x1(w) = Re[r D(w) r^H] with r = row 0 of (-i w - A)^{-1}, per part of D."""
    w = np.atleast_1d(np.asarray(omega_grid, dtype=float))
    A = langevin_drift(setup, sys, partner_fixed)
    n = len(A)
    e0 = np.zeros((len(w), n, 1))
    e0[:, 0] = 1.0
    try:
        # r^T solves (-i w - A)^T r^T = e0
        r = np.linalg.solve((-1j * w)[:, None, None] * np.eye(n) - A.T, e0)[..., 0]
    except np.linalg.LinAlgError:
        raise DomainError("spectrum diverges: an undamped resonance lies on the grid") from None

    g = gamma.matrix
    diag = np.diag(g)
    parts = np.stack([
        langevin_diffusion(setup, part, partner_fixed)
        for part in (np.diag(diag * [1.0, 1.0, 0.0, 0.0]),   # position diffusion
                     np.diag(diag * [0.0, 0.0, 1.0, 1.0]),   # momentum diffusion
                     g - np.diag(diag))                      # every cross entry
    ])
    S_gp, S_gm, S_cr = np.real(np.sum((r @ parts) * r.conj(), axis=-1))

    # Thermal force on each mobile body's momentum, with that body's mass.
    masses = (setup.m1,) if partner_fixed else (setup.m1, setup.m2)
    S_th = np.zeros_like(w)
    for j, m in enumerate(masses):
        kernel, substituted = _coth_term(w, setup, m)
        S_th += setup.hbar**2 * np.abs(r[:, len(masses) + j]) ** 2 * kernel
    return NoiseSpectrum(
        omega=w,
        S_total=S_gp + S_gm + S_th + S_cr,
        S_grav_position=S_gp,
        S_grav_momentum=S_gm,
        S_thermal=S_th,
        S_cross=S_cr,
        zero_frequency_substituted=substituted,
    )


def dns_fixed_source(setup: PhysicalSetup, sys: LinearizedSystem,
                     gamma: DiffusionMatrix, omega_grid) -> NoiseSpectrum:
    """Displacement-noise spectrum of oscillator 1 with the partner mass held fixed.

    The monitored oscillator is mode 1: frequency sys.Omega1, mass m1; the
    fixed partner contributes the spring K and the noise entries g11, g33,
    g13 of ``gamma``. Thermal damping eta and temperature come from ``setup``.
    """
    return _resolvent_spectrum(setup, sys, gamma, omega_grid, partner_fixed=True)


def dns_symmetric_pair(setup: PhysicalSetup, sys: LinearizedSystem,
                       gamma: DiffusionMatrix, omega_grid) -> NoiseSpectrum:
    """Displacement-noise spectrum of oscillator 1 with both masses mobile.

    Holds for any masses, frequencies and PSD ``gamma``; both bodies share
    eta and T, and each feels the thermal force of its own mass.
    """
    return _resolvent_spectrum(setup, sys, gamma, omega_grid, partner_fixed=False)


def gravitational_frequency(rho: float, G: float) -> float:
    """Gravitational frequency scale w_G = sqrt(G rho) [s^-1] of a material."""
    if rho <= 0:
        raise DomainError("density must be positive")
    return float(np.sqrt(G * rho))

