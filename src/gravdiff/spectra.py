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
rate D = hbar^2 J gamma J^T of :func:`gravdiff.model.langevin_model`, the
builder the sampler reads too, plus S_xi on each momentum that
:func:`gravdiff.model.mobile_momenta` names, with that body's mass. Their
spectrum is the resolvent form (C. W. Gardiner, Handbook of Stochastic
Methods, sec. 4.4)

    S(w) = (-i w - A)^{-1} D(w) (i w - A^T)^{-1},

evaluated on each additive part of D, built as one stack, for the component
breakdown. The closed forms of both models serve the test suite as oracles.

Only r(w) = row 0 of (-i w - A)^{-1} is needed, and D is real symmetric, so
S = Re r D Re r^T + Im r D Im r^T in real arithmetic. Over the positions and
momenta of one or two bodies, A = [[0, A_xp], [A_px, A_pp]] with A_xp = M^-1
and A_pp = -eta diagonal and A_px = -K_x. For s = -i w and d = s - diag(A_pp),
the Schur complement of s - A over the positions, Z = s - A_xp diag(1/d) A_px,
times d_i on row i is W = diag(s d) - A_xp A_px = M^-1 chi^-1, chi the
mechanical susceptibility (P. R. Saulson, Phys. Rev. D 42:2437, 1990): 1x1 or
2x2, a rate squared whatever the masses, finite at an undamped body's w = 0.
Then r = [x d, x A_xp], x = row 0 of W^-1 from its adjugate, elementwise over
w, in time units of the least 2^e > |w| (e >= 0), exactly, so s d fits. Where
|det W| <= 4 n eps (n the state size) times the first-order rounding bound of
det W from its terms' magnitudes, |s d_i| and |(A_xp A_px)_ij|, -i w - A is
singular to working precision and the call raises DomainError ("spectrum
diverges: an undamped resonance lies on the grid").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, require
from .model import (
    DiffusionMatrix,
    LinearizedSystem,
    PhysicalSetup,
    _view,
    langevin_model,
    mobile_momenta,
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
    zero_frequency_substituted: bool = False

    def __post_init__(self):
        for name in ("omega", "S_total", "S_grav_position", "S_grav_momentum",
                     "S_thermal", "S_cross"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _view(getattr(self, name)))

    @property
    def has_components(self) -> bool:
        return self.S_grav_position is not None

    def csv_columns(self) -> tuple[np.ndarray, ...]:
        """The 6 columns of CSV_HEADER; absent components read zero."""
        parts = (self.S_grav_position, self.S_grav_momentum, self.S_thermal, self.S_cross)
        if not self.has_components:
            parts = [np.broadcast_to(0.0, self.S_total.shape)] * 4
        return (self.omega, self.S_total, *parts)

    CSV_HEADER = ("omega_rad_s", "S_total", "S_grav_pos", "S_grav_mom",
                  "S_thermal", "S_cross")
    convention = SPECTRUM_CONVENTION            # the preamble of every spectrum CSV


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


def _grid(omega) -> np.ndarray:
    """``omega`` as a float array, refused unless every entry is finite."""
    w = np.asarray(omega, dtype=float)
    if not np.isfinite(w).all():
        raise DomainError("omega_grid must be finite")
    return w


def thermal_force_density(omega, setup: PhysicalSetup) -> np.ndarray:
    """Two-sided thermal force density S_xi(w) = hbar eta m w [1 + coth(...)] [N^2 s]."""
    vals, _ = _coth_term(_grid(omega), setup, setup.m1)
    return setup.hbar**2 * vals


# Frequencies solved per block: bounds the resolvent rows and the
# quadratic forms' temporaries to one block whatever the grid's length.
_FREQ_BLOCK = 1024


def _resolvent_rows(A: np.ndarray, w: np.ndarray) -> np.ndarray:
    """[Re r | Im r], (n, 2 len(w)): the columns of the real parts of
    r = row 0 of (-i w - A)^-1 = [x d, x A_xp], one per frequency, then of
    the imaginary parts (see the module docstring)."""
    k = len(A) // 2
    a_xp, A_px, a_pp = np.diag(A[:k, k:]), A[k:, :k], np.diag(A[k:, k:])
    t = np.exp2(-np.maximum(np.frexp(w)[1], 0))     # the time unit 2^e: |w t| < 1
    s = -1j * w * t
    d = s - a_pp[:, None] * t                       # (k, len(w)): s - A_pp
    sd = s * d
    spring = (a_xp[:, None] * A_px)[..., None] * t * t     # A_xp A_px in those units
    eye = np.eye(k)[..., None]
    W = eye * sd[:, None] - spring                  # elementwise: no sum over k
    size = eye * np.abs(sd)[:, None] + np.abs(spring)     # its terms' magnitudes
    if k == 1:
        det, adj, bound = W[0, 0], np.ones((1, len(w))), size[0, 0]
    else:
        det = W[0, 0] * W[1, 1] - W[0, 1] * W[1, 0]
        adj = np.stack([W[1, 1], -W[0, 1]])
        bound = size[0, 0] * size[1, 1] + size[0, 1] * size[1, 0]
    # det W zero to within its rounding: see the module docstring
    if (np.abs(det) <= 4 * len(A) * np.finfo(float).eps * bound).any():
        raise DomainError("spectrum diverges: an undamped resonance lies on the grid")
    x = adj / det
    r = t * np.concatenate([x * d, x * a_xp[:, None] * t])
    return np.concatenate((r.real, r.imag), axis=1)


def _resolvent_spectrum(setup: PhysicalSetup, sys: LinearizedSystem, gamma: DiffusionMatrix,
                        omega_grid, partner_fixed: bool) -> NoiseSpectrum:
    """S_x1x1(w) = Re r D(w) Re r^T + Im r D(w) Im r^T with r = row 0 of
    (-i w - A)^{-1}, per part of D."""
    w = np.atleast_1d(_grid(omega_grid))
    g = gamma.matrix
    diag = np.diag(g)
    A, parts = langevin_model(setup, sys, np.stack([
        np.diag(diag * [1.0, 1.0, 0.0, 0.0]),   # position diffusion
        np.diag(diag * [0.0, 0.0, 1.0, 1.0]),   # momentum diffusion
        g - np.diag(diag),                      # every cross entry
    ]), partner_fixed)
    n = len(A)
    # The thermal part is hbar^2 k(w) sum_i m_i |r_i|^2, k the kernel per unit mass.
    masses = np.zeros((n, n))
    for i, m in mobile_momenta(setup, partner_fixed):
        masses[i, i] = m
    forms = np.concatenate([parts, masses[None]])

    S_total, S_gp, S_gm, S_th, S_cr = np.empty((5, len(w)))
    substituted = False
    for start in range(0, len(w), _FREQ_BLOCK):
        cut = slice(start, start + _FREQ_BLOCK)
        wb = w[cut]
        r = _resolvent_rows(A, wb)
        quad = ((forms.reshape(-1, n) @ r).reshape(len(forms), n, -1) * r).sum(axis=1)
        S_gp[cut], S_gm[cut], S_cr[cut], weight = quad[:, :len(wb)] + quad[:, len(wb):]
        kernel, substituted_here = _coth_term(wb, setup, 1.0)
        substituted |= substituted_here
        S_th[cut] = setup.hbar**2 * weight * kernel
        S_total[cut] = S_gp[cut] + S_gm[cut] + S_th[cut] + S_cr[cut]
    return NoiseSpectrum(
        omega=w,
        S_total=S_total,
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
    require("rho", rho)
    return float(np.sqrt(G * rho))

