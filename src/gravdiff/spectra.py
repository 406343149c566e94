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
S = Re r D Re r^T + Im r D Im r^T in real arithmetic. Each call takes A^T to
dimensionless units by the exact power-of-two diagonal t nearest to the
ratios of :func:`gravdiff.model.quadrature_scales` (hbar cancels) and reads
it in Hessenberg form h (A. J. Laub, IEEE TAC 26:407, 1981) by interleaving
each body's position and momentum, (x1, p1, x2, p2): a body's position moves
with its own momentum alone and no momentum drives another, so nothing lies
below h's subdiagonal and no entry is rounded. Then r^T = t P y, P the
interleaving, where (-i w - h) y = e0 is solved for a block of frequencies
at a time by n - 1 eliminations with partial pivoting between adjacent rows
and back substitution: O(n^2) work per frequency and no LAPACK call.

Singular pivots: a pivot no larger than 4 n eps (||h||_1 + |w|), eps the
float64 machine epsilon, is within the rounding of the elimination of zero,
so -i w - A is singular to working precision there and the call raises
DomainError ("spectrum diverges: an undamped resonance lies on the grid").
Because h is in dimensionless units, the rule does not depend on the units
of the state: a lighter mass does not widen it.
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


def thermal_force_density(omega, setup: PhysicalSetup) -> np.ndarray:
    """Two-sided thermal force density S_xi(w) = hbar eta m w [1 + coth(...)] [N^2 s]."""
    vals, _ = _coth_term(omega, setup, setup.m1)
    return setup.hbar**2 * vals


# Frequencies solved per block: bounds the shifted solves' rows and the
# quadratic forms' temporaries to one block whatever the grid's length.
_FREQ_BLOCK = 1024


def _reduce(A: np.ndarray, sys: LinearizedSystem,
            partner_fixed: bool) -> tuple[np.ndarray, np.ndarray]:
    """(h, lift) with h upper Hessenberg and row 0 of (-i w - A)^-1 equal to
    lift (-i w - h)^-1 e0 at every w, for A the :func:`langevin_model` drift
    of ``sys``. For s its state's quadrature scales without hbar and t the
    powers of two nearest to s0 / s, t^-1 A^T t is A^T in dimensionless units,
    exactly, and upper Hessenberg in the order (x1, p1, x2, p2): x_j moves
    with p_j alone and no momentum drives another. So h is it permuted, and
    lift that permutation scaled by t; t = 1 where t or an entry of h would
    leave the normal float range (m Omega near its ends)."""
    # log2 s = -+ log2(m Omega) / 2: in logs, no product m Omega can overflow
    half = 0.5 * (np.log2([sys.m1, sys.m2]) + np.log2([sys.Omega1, sys.Omega2]))
    log_s = np.concatenate([-half, half])[::2 if partner_fixed else 1]
    e = np.round(log_s[0] - log_s).astype(int)
    moved = np.frexp(A.T)[1] + e - e[:, None]   # an entry's exponent in h
    if np.abs(e).max() > 1000 or ((A.T != 0) & ((moved > 1024) | (moved < -1021))).any():
        e[:] = 0
    order = np.arange(len(A)).reshape(2, -1).T.ravel()
    return np.ldexp(A.T, e - e[:, None])[np.ix_(order, order)], np.diag(np.exp2(e))[:, order]


def _require_pivots(size: np.ndarray, tol: np.ndarray) -> None:
    if (size <= tol).any():
        raise DomainError("spectrum diverges: an undamped resonance lies on the grid")


def _resolvent_rows(h: np.ndarray, lift: np.ndarray, w: np.ndarray) -> np.ndarray:
    """[Re r | Im r], an (n, 2 len(w)) array of the real parts' columns, one
    per frequency, then the imaginary parts', for r = lift y and
    y = (-i w - h)^-1 e0, h upper Hessenberg:
    n - 1 eliminations with partial pivoting between adjacent rows, each
    vectorized over w, then back substitution."""
    n, size = len(h), len(w)
    s = -1j * w
    # A pivot within rounding of zero: see the module docstring.
    tol = 4 * n * np.finfo(float).eps * (np.abs(h).sum(axis=0).max() + np.abs(w))
    tol_max = tol.max()
    carried = np.empty((n, size), complex)          # row k from column k on
    carried[:] = -h[0, :, None]
    carried[0] += s
    b = 1.0                                         # its right-hand side
    upper = []
    for k in range(n - 1):
        below = np.empty((n - k, size), complex)    # row k + 1 from column k on; rhs 0
        below[:] = -h[k + 1, k:, None]
        below[1] += s
        sub, lead = abs(h[k + 1, k]), np.abs(carried[0])
        if sub <= tol_max:
            _require_pivots(np.maximum(lead, sub), tol)
        swap = sub > lead
        p, o = np.where(swap, below, carried), np.where(swap, carried, below)
        bp, bo = np.where(swap, 0.0, b), np.where(swap, b, 0.0)
        m = o[0] / p[0]
        carried, b = o[1:] - m * p[1:], bo - m * bp
        upper.append((p, bp))
    _require_pivots(np.abs(carried[0]), tol)
    y = np.empty((n, size), complex)
    y[-1] = b / carried[0]
    for k in range(n - 2, -1, -1):
        p, bp = upper[k]
        y[k] = (bp - (p[1:] * y[k + 1:]).sum(axis=0)) / p[0]
    return lift @ np.concatenate((y.real, y.imag), axis=1)


def _resolvent_spectrum(setup: PhysicalSetup, sys: LinearizedSystem, gamma: DiffusionMatrix,
                        omega_grid, partner_fixed: bool) -> NoiseSpectrum:
    """S_x1x1(w) = Re r D(w) Re r^T + Im r D(w) Im r^T with r = row 0 of
    (-i w - A)^{-1}, per part of D."""
    w = np.atleast_1d(np.asarray(omega_grid, dtype=float))
    if not np.isfinite(w).all():
        raise DomainError("omega_grid must be finite")
    g = gamma.matrix
    diag = np.diag(g)
    A, parts = langevin_model(setup, sys, np.stack([
        np.diag(diag * [1.0, 1.0, 0.0, 0.0]),   # position diffusion
        np.diag(diag * [0.0, 0.0, 1.0, 1.0]),   # momentum diffusion
        g - np.diag(diag),                      # every cross entry
    ]), partner_fixed)
    n = len(A)
    h, lift = _reduce(A, sys, partner_fixed)
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
        r = _resolvent_rows(h, lift, wb)
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

