"""Physical setup, linearization and the matrices everything else consumes.

Conventions used throughout the package (documented once, here):

* Quadrature ordering is ``c = (x1, x2, p1, p2)``. Every 4x4 matrix in the
  package (H, J, gamma, V, drift, diffusion) uses this ordering.
* Setups, H, gamma and the Langevin drift and diffusion are in SI units.
  Gaussian states are in the dimensionless quadratures
  ``xbar_j = sqrt(m_j Omega_j / hbar) x_j``, ``pbar_j = p_j / sqrt(m_j hbar
  Omega_j)``, the only form the uncertainty and PPT checks read;
  :func:`to_dimensionless` carries (H, gamma) there. Its hbar is the setup's:
  :class:`LinearizedSystem` carries ``PhysicalSetup.hbar``, so hbar is
  chosen in one place and no conversion takes it again.
* The quadratic Hamiltonian is stored as the symmetric coefficient matrix H
  with ``H_total = 1/2 c^T H c``; the symplectic form J satisfies
  ``[c_i, c_j] = i*hbar*J_ij`` in SI units and ``i*J_ij`` in dimensionless
  units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import G_NEWTON, HBAR, KB
from .errors import PSDError, StabilityError

__all__ = [
    "PhysicalSetup",
    "LinearizedSystem",
    "DiffusionMatrix",
    "GaussianState",
    "symplectic_form",
    "linearize",
    "pendulum_system",
    "langevin_drift",
    "langevin_diffusion",
    "propagator",
    "quadrature_scales",
    "to_dimensionless",
    "dimensionless_hamiltonian",
    "dimensionless_coupling",
    "ground_state",
]

# Relative PSD tolerance: eigenvalue >= -PSD_RTOL * ||gamma|| counts as PSD.
# Boundary matrices built in finite precision sit exactly on the cone edge.
PSD_RTOL = 1e-10

# Quadratures (x1, p1) of the monitored body, the state when the partner is fixed.
MONITORED = (0, 2)


def symplectic_form() -> np.ndarray:
    """4x4 symplectic form J = [[0, I2], [-I2, 0]] in (x1, x2, p1, p2) order."""
    J = np.zeros((4, 4))
    J[0, 2] = J[1, 3] = 1.0
    J[2, 0] = J[3, 1] = -1.0
    return J


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class PhysicalSetup:
    """Raw experimental dials: masses, traps, separation, environment.

    Masses in kg, angular frequencies in rad/s, separation in m, temperature
    in K, momentum damping rate eta in 1/s. G, hbar, kB default to the CODATA
    values in :mod:`gravdiff.constants`; G may be 0 (no gravity), hbar and kB
    must be positive.
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
        for name in ("m1", "m2", "omega1", "omega2", "d"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)!r}")
        if self.T < 0.0 or self.eta < 0.0:
            raise ValueError("T and eta must be non-negative")
        if not 0.0 <= self.G < math.inf:
            raise ValueError(f"G must be non-negative and finite, got {self.G!r}")
        for name in ("hbar", "kB"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)!r}")

    @property
    def coupling(self) -> float:
        """Bilinear gravitational spring constant K = 2 G m1 m2 / d^3 [N/m]."""
        return 2.0 * self.G * self.m1 * self.m2 / self.d**3

    def renormalized_frequencies(self) -> tuple[float, float]:
        """(Omega1, Omega2) with Omega_i^2 = omega_i^2 - 2 G m_j / d^3 (j != i).

        Raises StabilityError when a squared frequency is non-positive.
        """
        g1 = 2.0 * self.G * self.m2 / self.d**3
        g2 = 2.0 * self.G * self.m1 / self.d**3
        Om1_sq = self.omega1**2 - g1
        Om2_sq = self.omega2**2 - g2
        if Om1_sq <= 0.0:
            raise StabilityError(
                f"oscillator 1 unstable: omega1^2 = {self.omega1**2:.6e} <= "
                f"2 G m2 / d^3 = {g1:.6e}"
            )
        if Om2_sq <= 0.0:
            raise StabilityError(
                f"oscillator 2 unstable: omega2^2 = {self.omega2**2:.6e} <= "
                f"2 G m1 / d^3 = {g2:.6e}"
            )
        return float(np.sqrt(Om1_sq)), float(np.sqrt(Om2_sq))


@dataclass(frozen=True)
class LinearizedSystem:
    """Quadratic model around equilibrium: frequencies, coupling, H and J.

    ``H`` is the symmetric 4x4 coefficient matrix of the quadratic form over
    (x1, x2, p1, p2); ``equilibrium_shift`` carries the constant-force offsets
    (a1, a2) [m] absorbed when removing the terms linear in the coordinates.
    ``hbar`` is the setup's and sets the dimensionless quadratures.
    """

    Omega1: float
    Omega2: float
    K: float
    m1: float
    m2: float
    H: np.ndarray
    J: np.ndarray
    equilibrium_shift: tuple[float, float]
    hbar: float

    def __post_init__(self):
        object.__setattr__(self, "H", _readonly(self.H))
        object.__setattr__(self, "J", _readonly(self.J))

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
        g = np.array(self.gamma, dtype=float)
        if g.shape != (4, 4):
            raise ValueError(f"gamma must be 4x4, got shape {g.shape}")
        if not np.allclose(g, g.T, rtol=0.0, atol=1e-12 * max(1.0, np.linalg.norm(g))):
            raise PSDError("gamma must be symmetric")
        g = 0.5 * (g + g.T)
        scale = np.linalg.norm(g)
        min_eig = float(np.linalg.eigvalsh(g).min()) if scale > 0 else 0.0
        if min_eig < -PSD_RTOL * scale:
            raise PSDError(
                f"gamma is not PSD: min eigenvalue {min_eig:.3e} < -{PSD_RTOL:.0e} * ||gamma||"
            )
        object.__setattr__(self, "gamma", _readonly(g))

    @classmethod
    def zero(cls) -> "DiffusionMatrix":
        return cls(np.zeros((4, 4)))

    def scaled(self, factor: float) -> "DiffusionMatrix":
        if factor < 0:
            raise ValueError("scale factor must be non-negative")
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
        mean = np.array(self.mean, dtype=float).reshape(4)
        V = np.array(self.V, dtype=float)
        if V.shape != (4, 4):
            raise ValueError(f"V must be 4x4, got shape {V.shape}")
        if not np.allclose(V, V.T, rtol=0.0, atol=1e-10 * max(1.0, np.linalg.norm(V))):
            raise ValueError("covariance matrix must be symmetric")
        object.__setattr__(self, "mean", _readonly(mean))
        object.__setattr__(self, "V", _readonly(0.5 * (V + V.T)))


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
    det_x = (m1 * Om1**2) * (m2 * Om2**2) - K**2
    if det_x <= 0.0:
        raise StabilityError(
            f"coupled system unstable: m1*Omega1^2 * m2*Omega2^2 = "
            f"{(m1 * Om1**2) * (m2 * Om2**2):.6e} <= K^2 = {K**2:.6e}"
        )

    if K == 0.0:
        a1 = a2 = 0.0
    else:
        rhs = 0.5 * K * setup.d
        a1 = rhs * (m2 * Om2**2 + K) / det_x
        a2 = rhs * (m1 * Om1**2 + K) / det_x

    return LinearizedSystem(
        Omega1=Om1, Omega2=Om2, K=K, m1=m1, m2=m2, H=_quadratic_form(m1, m2, Om1, Om2, K),
        J=symplectic_form(), equilibrium_shift=(float(a1), float(a2)), hbar=setup.hbar,
    )


def _quadratic_form(m1: float, m2: float, Om1: float, Om2: float, K: float) -> np.ndarray:
    """H of two oscillators m_i Omega_i^2 coupled by the bilinear spring K."""
    H = np.zeros((4, 4))
    H[0, 0] = m1 * Om1**2
    H[1, 1] = m2 * Om2**2
    H[0, 1] = H[1, 0] = K
    H[2, 2] = 1.0 / m1
    H[3, 3] = 1.0 / m2
    return H


def pendulum_system(setup: PhysicalSetup, Omega: float) -> LinearizedSystem:
    """Linear system with the resonance frequency taken as given.

    Used when Omega is the measured pendulum frequency rather than the
    output of the trap linearization (the two-trap renormalization does not
    apply to a torsion mode).
    """
    K = setup.coupling
    return LinearizedSystem(
        Omega1=Omega, Omega2=Omega, K=K, m1=setup.m1, m2=setup.m2,
        H=_quadratic_form(setup.m1, setup.m2, Omega, Omega, K),
        J=symplectic_form(), equilibrium_shift=(0.0, 0.0), hbar=setup.hbar,
    )


def langevin_drift(setup: PhysicalSetup, sys: LinearizedSystem,
                   partner_fixed: bool = False) -> np.ndarray:
    """Damped drift generator A of the Langevin dynamics dz = A z dt + noise.

    Both bodies mobile: A = J H - eta diag(0, 0, 1, 1) over (x1, x2, p1, p2).
    Partner held fixed: the (x1, p1) block of the same form, with the
    partner's spring K added to x1's restoring force (m1 Omega1^2 + K), i.e.
    A = [[0, 1/m1], [-(m1 Omega1^2 + K), -eta]].
    """
    H = np.array(sys.H)
    if partner_fixed:
        H[0, 0] += sys.K
    A = sys.J @ H - setup.eta * np.diag([0.0, 0.0, 1.0, 1.0])
    return A[np.ix_(MONITORED, MONITORED)] if partner_fixed else A


def langevin_diffusion(setup: PhysicalSetup, gamma: np.ndarray,
                       partner_fixed: bool = False) -> np.ndarray:
    """Gravitational noise rate D = hbar^2 J gamma J^T of the Langevin dynamics.

    ``gamma`` is a 4x4 array over (x1, x2, p1, p2): the matrix of a
    :class:`DiffusionMatrix` or any additive part of it. Position diffusion
    kicks the momenta and vice versa. With the partner fixed, D is the
    (x1, p1) block.
    """
    J = symplectic_form()
    D = setup.hbar**2 * (J @ np.asarray(gamma, dtype=float) @ J.T)
    return D[np.ix_(MONITORED, MONITORED)] if partner_fixed else D


def propagator(A: np.ndarray, D: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact step of length h for d<c>/dt = A <c> and dV/dt = A V + V A^T + D.

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
    E = _expm(np.block([[-A, np.ldexp(D, -k)], [np.zeros((n, n)), A.T]]) * h)
    Phi = E[n:, n:].T.copy()
    Q = np.ldexp(Phi @ E[:n, n:], k)
    return Phi, 0.5 * (Q + Q.T)


def _norm_exponent(M: np.ndarray) -> int:
    """e with 2^(e-1) <= ||M||_1 < 2^e, or 0 for M = 0."""
    return math.frexp(np.abs(M).sum(axis=0).max())[1]


def _expm(X: np.ndarray) -> np.ndarray:
    """e^X by scaling and squaring: X / 2^s has 1-norm at most 1/2, where the
    degree-16 Taylor polynomial is exact to below 1e-19 relative; it is
    evaluated by Horner's rule and squared s times."""
    s = max(0, _norm_exponent(X) + 1)
    X = X / 2.0**s
    eye = np.eye(len(X))
    E = eye
    for k in range(16, 0, -1):
        E = eye + X @ E / k
    for _ in range(s):
        E = E @ E
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


def dimensionless_hamiltonian(sys: LinearizedSystem) -> np.ndarray:
    """Hbar matrix (units rad/s): Hbar_ij = H_ij s_i s_j / hbar.

    Diagonal entries are the Omega_i; the x1-x2 entry is the dimensionless
    coupling K / (sqrt(m1 m2) sqrt(Omega1 Omega2)).
    """
    s = quadrature_scales(sys)
    return (sys.H * np.outer(s, s)) / sys.hbar


def dimensionless_coupling(sys: LinearizedSystem) -> float:
    """K / (sqrt(m1 m2) sqrt(Omega1 Omega2)), the x1-x2 entry of Hbar [rad/s]."""
    return sys.K / (np.sqrt(sys.m1 * sys.m2) * np.sqrt(sys.Omega1 * sys.Omega2))


def to_dimensionless(sys: LinearizedSystem,
                     gamma: DiffusionMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Rescale (H, gamma) to the dimensionless quadratures.

    gamma_bar_ij = gamma_ij s_i s_j (all entries acquire units of 1/s), e.g.
    the position block is multiplied by hbar/(m Omega) and the momentum block
    by m hbar Omega; cross terms pick up the geometric mean.
    """
    s = quadrature_scales(sys)
    Hbar = dimensionless_hamiltonian(sys)
    gamma_bar = gamma.matrix * np.outer(s, s)
    return Hbar, gamma_bar

