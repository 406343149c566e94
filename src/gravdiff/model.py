"""Physical setup, linearization and the matrices everything else consumes.

Conventions used throughout the package (documented once, here):

* Quadrature ordering is ``c = (x1, x2, p1, p2)``. Every 4x4 matrix in the
  package (H, J, gamma, V, drift, diffusion) uses this ordering. With the
  partner fixed, mode 1 is the one-mode case over ``(x1, p1)`` of
  :attr:`LinearizedSystem.H_fixed`, the one place the partner's spring enters.
* Setups, H, gamma and the Langevin drift and diffusion are in SI units.
  Gaussian states are in the dimensionless quadratures
  ``xbar_j = sqrt(m_j Omega_j / hbar) x_j``, ``pbar_j = p_j / sqrt(m_j hbar
  Omega_j)``, the only form the uncertainty and PPT checks read;
  :func:`to_dimensionless` carries (H, gamma) there. Its hbar is the setup's:
  :class:`LinearizedSystem` carries ``PhysicalSetup.hbar``, so hbar is
  chosen in one place and no conversion takes it again.
* The quadratic Hamiltonian is the symmetric coefficient matrix H with
  ``H_total = 1/2 c^T H c``, derived by :class:`LinearizedSystem` from its
  parameters and stored nowhere else; the symplectic form J satisfies
  ``[c_i, c_j] = i*hbar*J_ij`` in SI units and ``i*J_ij`` in dimensionless
  units.
* One read-only rule: an array shared between calls or validated (H, gamma,
  a state's moments, module-level forms, cached tables) is an immutable copy,
  :func:`_readonly`; a fresh output holds read-only views, :func:`_view`,
  that its owner may make writeable.
* One matrix rule: a matrix that must be symmetric (gamma, a state's V, the
  dimensionless (Hbar, gamma_bar, V0) that an evolution takes, the position
  block of :func:`gravdiff.bounds.com_reduction`) is finite, symmetric to
  1e-12 of its norm and, where it must be PSD, has no eigenvalue below
  -PSD_RTOL times its norm, checked at any scale by :func:`_symmetric`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .constants import G_NEWTON, HBAR, KB
from .errors import DomainError, PSDError, StabilityError, power, require

__all__ = [
    "PhysicalSetup",
    "check_constants",
    "LinearizedSystem",
    "DiffusionMatrix",
    "GaussianState",
    "symplectic_form",
    "linearize",
    "pendulum_system",
    "drift_diffusion",
    "langevin_model",
    "mobile_momenta",
    "propagator",
    "quadrature_scales",
    "to_dimensionless",
    "dimensionless_coupling",
    "ground_state",
]

# Relative PSD tolerance: eigenvalue >= -PSD_RTOL * ||gamma|| counts as PSD.
# Boundary matrices built in finite precision sit exactly on the cone edge.
PSD_RTOL = 1e-10


def symplectic_form() -> np.ndarray:
    """4x4 symplectic form J = [[0, I2], [-I2, 0]] in (x1, x2, p1, p2) order."""
    return np.eye(4, k=2) - np.eye(4, k=-2)


def _readonly(a: np.ndarray) -> np.ndarray:
    """A contiguous copy of a, of its dtype, backed by immutable bytes."""
    return np.frombuffer(a.tobytes(), dtype=a.dtype).reshape(a.shape)


def _view(a) -> np.ndarray:
    """A read-only float view of a, copied only to convert it to float."""
    out = np.asarray(a, dtype=float).view()
    out.setflags(write=False)
    return out


def _symmetric(M, name: str, psd: bool = False, n: int | None = None) -> tuple[np.ndarray, float]:
    """(u, s): the symmetric part of the square (n x n) matrix M is u * s, for
    s the power of two at or below max |M_ij| (1 for M = 0) and u in floats.
    u is exact (bar entries 300 decades below the largest) and its norm can
    neither overflow nor underflow. M must be finite and, on u (so at any
    scale), symmetric to |u - u^T| <= 1e-12 ||u|| entry by entry and, where
    psd, have no eigenvalue below -PSD_RTOL ||u||: PSDError if psd, else
    DomainError."""
    error = PSDError if psd else DomainError
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape != (n or len(M), len(M)):
        raise DomainError(f"{name} must be {f'{n}x{n}' if n else 'square'}, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise error(f"{name} must be finite")
    peak = float(np.abs(M).max(initial=0.0))
    s = math.ldexp(1.0, math.frexp(peak)[1] - 1) if peak > 0 else 1.0
    u = M / s
    norm = float(np.linalg.norm(u))
    if float(np.abs(u - u.T).max(initial=0.0)) > 1e-12 * norm:
        raise error(f"{name} must be symmetric")
    u = 0.5 * (u + u.T)
    if psd and norm > 0:
        min_eig = float(np.linalg.eigvalsh(u)[0])
        if min_eig < -PSD_RTOL * norm:
            raise PSDError(f"{name} is not PSD: min eigenvalue {min_eig * s:.3e} "
                           f"< -{PSD_RTOL:.0e} * ||{name}||")
    return u, s


def check_constants(**constants: float) -> None:
    """DomainError unless each given constant (G, hbar or kB) is finite, G
    non-negative (0 switches gravity off) and hbar and kB positive."""
    for name, value in constants.items():
        require(name, value, strict=name != "G")


@dataclass(frozen=True)
class PhysicalSetup:
    """Raw experimental dials: masses, traps, separation, environment.

    Masses in kg, angular frequencies in rad/s, separation in m, temperature
    in K, momentum damping rate eta in 1/s. G, hbar, kB default to the CODATA
    values in :mod:`gravdiff.constants`; G may be 0 (no gravity), hbar and kB
    must be positive. Every dial must be finite; DomainError otherwise.
    """

    m1: float
    m2: float
    omega1: float
    omega2: float
    d: float
    T: float = 0.0
    eta: float = 0.0
    G: float = G_NEWTON
    hbar: float = HBAR
    kB: float = KB

    def __post_init__(self):
        for name in ("m1", "m2", "omega1", "omega2", "d", "T", "eta"):
            require(name, getattr(self, name), strict=name not in ("T", "eta"))
        check_constants(G=self.G, hbar=self.hbar, kB=self.kB)

    @property
    def coupling(self) -> float:
        """Bilinear gravitational spring constant K = 2 G m1 m2 / d^3 [N/m];
        DomainError when it leaves the float range."""
        K = 2.0 * self.G * self.m1 * self.m2 / power("d", self.d, 3, nonzero=True)
        if K == math.inf:
            raise DomainError(f"K = 2 G m1 m2 / d**3 is out of floating-point range for "
                              f"m1 = {self.m1:g}, m2 = {self.m2:g}, d = {self.d:g}")
        return K

    def renormalized_frequencies(self) -> tuple[float, float]:
        """(Omega1, Omega2) with Omega_i^2 = omega_i^2 - 2 G m_j / d^3 (j != i).

        Raises StabilityError when a squared frequency is non-positive.
        """
        d3 = power("d", self.d, 3, nonzero=True)
        Omegas = []
        for i, omega, m_j in ((1, self.omega1, self.m2), (2, self.omega2, self.m1)):
            pull = 2.0 * self.G * m_j / d3
            omega_sq = power(f"omega{i}", omega, 2)
            if omega_sq - pull <= 0.0:
                raise StabilityError(f"oscillator {i} unstable: omega{i}^2 = {omega_sq:.6e} <= "
                                     f"2 G m{3 - i} / d^3 = {pull:.6e}")
            Omegas.append(math.sqrt(omega_sq - pull))
        return tuple(Omegas)


@dataclass(frozen=True)
class LinearizedSystem:
    """Quadratic model around equilibrium: frequencies, coupling and masses.

    ``equilibrium_shift`` carries the constant-force offsets (a1, a2) [m]
    absorbed when removing the terms linear in the coordinates. ``hbar`` is
    the setup's and sets the dimensionless quadratures. The fields are the
    independent parameters; :attr:`H` and :attr:`H_fixed` are derived from them.
    """

    Omega1: float
    Omega2: float
    K: float
    m1: float
    m2: float
    equilibrium_shift: tuple[float, float]
    hbar: float

    @functools.cached_property
    def H(self) -> np.ndarray:
        """Read-only symmetric 4x4 coefficient matrix of the quadratic form
        over (x1, x2, p1, p2): oscillators m_i Omega_i^2 coupled by the
        bilinear spring K."""
        H = np.diag([self.m1 * power("Omega1", self.Omega1, 2),
                     self.m2 * power("Omega2", self.Omega2, 2),
                     1.0 / self.m1, 1.0 / self.m2])
        H[0, 1] = H[1, 0] = self.K
        return _readonly(H)

    @functools.cached_property
    def H_fixed(self) -> np.ndarray:
        """Read-only 2x2 form over (x1, p1) with the partner held fixed, its
        spring K added to x1's restoring force: diag(m1 Omega1^2 + K, 1/m1)."""
        k = self.m1 * power("Omega1", self.Omega1, 2) + self.K
        return _readonly(np.diag([k, 1.0 / self.m1]))

    def min_period(self) -> float:
        return 2.0 * np.pi / max(self.Omega1, self.Omega2)


@dataclass(frozen=True)
class DiffusionMatrix:
    """Real symmetric PSD 4x4 diffusion matrix over (x1, x2, p1, p2).

    SI units per entry: position-position block [m^-2 s^-1], momentum-momentum
    block [s kg^-2 m^-2], position-momentum cross entries [kg^-1 m^-2],
    consistent with a double-commutator generator weighted by gamma_ij.
    """

    gamma: np.ndarray

    def __post_init__(self):
        u, s = _symmetric(self.gamma, "gamma", psd=True, n=4)
        object.__setattr__(self, "gamma", _readonly(u * s))

    @classmethod
    def zero(cls) -> "DiffusionMatrix":
        return cls(np.zeros((4, 4)))

    def scaled(self, factor: float) -> "DiffusionMatrix":
        require("factor", factor, strict=False)
        return DiffusionMatrix(factor * self.gamma)

    @property
    def matrix(self) -> np.ndarray:
        return self.gamma


@dataclass(frozen=True)
class GaussianState:
    """First and second moments of the four dimensionless quadratures.

    ``V_ij = <{dc_i, dc_j}>/2`` is the symmetrized covariance matrix; the
    uncertainty relation reads ``V + (i/2) J >= 0``. An SI state (mean m, V)
    of the system ``sys`` enters as ``GaussianState(m / s, V / outer(s, s))``
    with ``s = quadrature_scales(sys)``.
    """

    mean: np.ndarray
    V: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float).reshape(4)
        if not np.isfinite(mean).all():
            raise DomainError("mean must be finite")
        u, s = _symmetric(self.V, "V", n=4)
        object.__setattr__(self, "mean", _readonly(mean))
        object.__setattr__(self, "V", _readonly(u * s))


def ground_state() -> GaussianState:
    """Dimensionless two-mode ground state: zero mean, V = I/2."""
    return GaussianState(np.zeros(4), 0.5 * np.eye(4))


def linearize(setup: PhysicalSetup) -> LinearizedSystem:
    """Expand the Newtonian pair potential to second order around equilibrium.

    Returns the renormalized frequencies Omega_i, the bilinear coupling
    K = 2 G m1 m2 / d^3, the 4x4 quadratic-form matrix H and the equilibrium
    shifts (a1, a2) that remove the residual constant-force terms (the two
    linear conditions ``m_i Omega_i^2 a_i - K a_j - K d/2 = 0``). The shifts
    are reported, not silently dropped.

    Raises StabilityError if a renormalized frequency is imaginary or if the
    coupled position block is not positive definite (no stable equilibrium).
    """
    Om1, Om2 = setup.renormalized_frequencies()
    K = setup.coupling
    m1, m2 = setup.m1, setup.m2

    # x-block of H must be positive definite for the coupled system to have a
    # stable equilibrium; Omega_i^2 > 0 alone does not guarantee it.
    K_sq = power("K", K, 2)
    det_x = (m1 * Om1**2) * (m2 * Om2**2) - K_sq
    if det_x <= 0.0:
        raise StabilityError(
            f"coupled system unstable: m1*Omega1^2 * m2*Omega2^2 = "
            f"{(m1 * Om1**2) * (m2 * Om2**2):.6e} <= K^2 = {K_sq:.6e}"
        )

    if K == 0.0:
        a1 = a2 = 0.0
    else:
        rhs = 0.5 * K * setup.d
        a1 = rhs * (m2 * Om2**2 + K) / det_x
        a2 = rhs * (m1 * Om1**2 + K) / det_x

    return LinearizedSystem(Omega1=Om1, Omega2=Om2, K=K, m1=m1, m2=m2,
                            equilibrium_shift=(float(a1), float(a2)), hbar=setup.hbar)


def pendulum_system(setup: PhysicalSetup, Omega: float) -> LinearizedSystem:
    """Linear system with the resonance frequency taken as given.

    Used when Omega is the measured pendulum frequency rather than the
    output of the trap linearization (the two-trap renormalization does not
    apply to a torsion mode). DomainError unless Omega is positive and finite.
    """
    require("Omega", Omega)
    return LinearizedSystem(Omega1=Omega, Omega2=Omega, K=setup.coupling, m1=setup.m1,
                            m2=setup.m2, equilibrium_shift=(0.0, 0.0), hbar=setup.hbar)


def drift_diffusion(H: np.ndarray, gamma: np.ndarray, eta: float = 0.0,
                    hbar: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """(A, D) = (J H - eta P, hbar^2 J gamma J^T) for n modes, J sized from H, P
    on the momenta; one D per part of a ``gamma`` stack: where J meets H and gamma."""
    n = len(H) // 2
    J = np.eye(2 * n, k=n) - np.eye(2 * n, k=-n)
    A = J @ H - np.diag([0.0] * n + [eta] * n)
    return A, hbar**2 * (J @ np.asarray(gamma, dtype=float) @ J.T)


def langevin_model(setup: PhysicalSetup, sys: LinearizedSystem, gamma: np.ndarray,
                   partner_fixed: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """SI (A, D) of the Langevin dynamics dz = A z dt + noise: :func:`drift_diffusion`
    of H with the setup's eta and hbar, for a 4x4 ``gamma`` or a stack of parts.
    Partner held fixed: the one-mode model over (x1, p1) of
    :attr:`LinearizedSystem.H_fixed` and gamma's (x1, p1) block, so
    A = [[0, 1/m1], [-(m1 Omega1^2 + K), -eta]]. The bath damps and drives
    :func:`mobile_momenta`."""
    if partner_fixed:                            # gamma[..., ::2, ::2]: its (x1, p1) block
        return drift_diffusion(sys.H_fixed, np.asarray(gamma, dtype=float)[..., ::2, ::2],
                               setup.eta, setup.hbar)
    return drift_diffusion(sys.H, gamma, setup.eta, setup.hbar)


def mobile_momenta(setup: PhysicalSetup, partner_fixed: bool = False) -> list[tuple[int, float]]:
    """(index in the :func:`langevin_model` state, mass) per mobile body's momentum."""
    masses = (setup.m1,) if partner_fixed else (setup.m1, setup.m2)
    return [(len(masses) + j, m) for j, m in enumerate(masses)]


def propagator(A: np.ndarray, D: np.ndarray, h) -> tuple[np.ndarray, np.ndarray]:
    """Exact step of length h for d<c>/dt = A <c> and dV/dt = A V + V A^T + D,
    or a stack of them for an array h, each bit for bit its scalar call's.

    Returns Phi = e^{A h} and Q = int_0^h e^{A s} D e^{A^T s} ds, so that
    <c>(t + h) = Phi <c>(t) and V(t + h) = Phi V(t) Phi^T + Q. Both come from
    one block exponential (C. Van Loan, IEEE TAC 23:395, 1978):
    exp([[-A, D], [0, A^T]] h) = [[., Phi^-1 Q], [0, Phi^T]].

    Accuracy domain: Q is read off the block Phi^-1 Q, which carries
    e^{eta h} for a momentum damping rate eta, so Q loses digits as eta h
    grows. Against 60-digit arithmetic on 2x2 blocks with eta from 0.1 to 20
    Omega, Phi is good to 1e-13 relative up to eta h = 25, and Q to 3e-13 up
    to eta h = 10 and 5e-11 up to 15; overdamped blocks are the worst case,
    with Q off by 3e-9 at eta h = 18.8 and 6e-7 at 25. ``simulate`` and
    ``reheating_run`` keep eta h <= 0.1.
    """
    n = len(A)
    # Q is linear in D, so D enters the block scaled by a power of two (exact)
    # to the size of A: the squarings then follow the drift, not the noise
    # units. Unscaled, a D 1e24 times A took 73 squarings and lost 1e-10 of
    # Phi and Q.
    k = _norm_exponent(D) - _norm_exponent(A)
    block = np.block([[-A, np.ldexp(D, -k)], [np.zeros((n, n)), A.T]])
    E = _expm(block * np.asarray(h, dtype=float)[..., None, None])
    Phi = E[..., n:, n:].swapaxes(-1, -2).copy()
    Q = np.ldexp(Phi @ E[..., :n, n:], k)
    return Phi, 0.5 * (Q + Q.swapaxes(-1, -2))


def _norm_exponent(M: np.ndarray) -> np.ndarray:
    """e with 2^(e-1) <= ||M||_1 < 2^e, or 0 for M = 0; one per matrix of a stack."""
    return np.frexp(np.abs(M).sum(axis=-2).max(axis=-1))[1]


def _expm(X: np.ndarray) -> np.ndarray:
    """e^X by scaling and squaring, s per matrix of a stack: X / 2^s has 1-norm
    at most 1/2, where the degree-16 Taylor polynomial is exact to below 1e-19
    relative; it is evaluated by Horner's rule and squared s times."""
    s = np.maximum(0, _norm_exponent(X) + 1)[..., None, None]
    X = np.ldexp(X, -s)
    eye = np.eye(X.shape[-1])
    E = eye
    for k in range(16, 0, -1):
        E = eye + X @ E / k
    for j in range(s.max()):
        E = np.where(s > j, E @ E, E)
    return E


def quadrature_scales(sys: LinearizedSystem) -> np.ndarray:
    """Scale factors s with c_SI = s * c_dimensionless, per quadrature.

    s = (sqrt(hbar/(m1 Omega1)), sqrt(hbar/(m2 Omega2)),
         sqrt(m1 hbar Omega1),   sqrt(m2 hbar Omega2)), hbar = sys.hbar.
    """
    hbar = sys.hbar
    return np.array([
        np.sqrt(hbar / (sys.m1 * sys.Omega1)),
        np.sqrt(hbar / (sys.m2 * sys.Omega2)),
        np.sqrt(sys.m1 * hbar * sys.Omega1),
        np.sqrt(sys.m2 * hbar * sys.Omega2),
    ])


def dimensionless_coupling(sys: LinearizedSystem) -> float:
    """K / (sqrt(m1 m2) sqrt(Omega1 Omega2)), the x1-x2 entry of
    :func:`to_dimensionless`'s Hbar [rad/s] in closed form."""
    return sys.K / (np.sqrt(sys.m1 * sys.m2) * np.sqrt(sys.Omega1 * sys.Omega2))


def to_dimensionless(sys: LinearizedSystem,
                     gamma: DiffusionMatrix) -> tuple[np.ndarray, np.ndarray]:
    """(Hbar, gamma_bar): (H, gamma) in the dimensionless quadratures.

    Hbar_ij = H_ij s_i s_j / hbar [rad/s], s the :func:`quadrature_scales`:
    the Omega_i on its diagonal, :func:`dimensionless_coupling` at x1-x2.
    gamma_bar_ij = gamma_ij s_i s_j (all entries acquire units of 1/s), e.g.
    the position block is multiplied by hbar/(m Omega) and the momentum block
    by m hbar Omega; cross terms pick up the geometric mean.
    """
    s = quadrature_scales(sys)
    outer = np.outer(s, s)
    return (sys.H * outer) / sys.hbar, gamma.matrix * outer

