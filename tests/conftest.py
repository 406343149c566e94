import numpy as np
import pytest
from scipy.linalg import expm

from gravdiff.errors import DomainError, PSDError
from gravdiff.model import DiffusionMatrix, PhysicalSetup, dimensionless_coupling, linearize


def random_psd(rng, n=4, scale=1.0):
    """Random PSD matrix G G^T with controlled scale."""
    G = rng.standard_normal((n, n))
    return scale * (G @ G.T)


def random_psd_batch(rng, count, n=4, scale=1.0):
    """(count, n, n) stack of PSD matrices."""
    G = rng.standard_normal((count, n, n))
    return scale * np.einsum("bij,bkj->bik", G, G)


def trace_condition_oracle(g, sys):
    """(lhs, rhs) of the trace condition in closed form, the paper's
    Tr[gamma_bar] - 2 (gb_14 + gb_23) >= 2 Kbar: the oracle of
    gravdiff.bounds.strongest_bound, which evaluates the alpha family's one
    formula at alpha = pi/2 instead."""
    return np.trace(g) - 2.0 * (g[0, 3] + g[1, 2]), 2.0 * dimensionless_coupling(sys)


def assert_immutable(arr):
    """No array along arr's base chain can be written or made writeable."""
    with pytest.raises(ValueError, match="read-only"):
        arr.flat[0] = arr.flat[0]
    while isinstance(arr, np.ndarray):
        with pytest.raises(ValueError):
            arr.setflags(write=True)
        arr = arr.base


# The one matrix rule (gravdiff.model._symmetric), checked through each caller
# by the two helpers below: ``check`` runs a caller on a 4x4 matrix, and
# ``psd`` says whether that caller requires it to be PSD.
SCALE_EXPONENTS = [-600, -300, 0, 150, 600]


def assert_matrix_rule_at_huge_entries(check, psd):
    """||M|| overflows past about 1e154: the checks must not go blind there,
    and a symmetric PSD matrix passes without an overflow (warnings fail)."""
    g = np.zeros((4, 4))
    g[0, 0] = g[1, 1] = 1e300
    g[0, 1] = g[1, 0] = -1e301
    if psd:
        with pytest.raises(PSDError, match="not PSD"):
            check(g)
    asym = np.diag([1e300, 1e300, 1.0, 1.0])
    asym[0, 1] = 1e299
    with pytest.raises(PSDError if psd else DomainError, match="must be symmetric"):
        check(asym)
    check(np.diag([1e300, 1e300, 1e-300, 0.0]))
    check(1e300 * np.eye(4))


def assert_matrix_rule_at_scale(rng, check, exponent, psd):
    """The tolerances are relative, so a power-of-two rescaling keeps each
    verdict; at 2**600 ||M|| overflows, at 2**-600 its square underflows. The
    eigenvalues keep com_reduction's sum within its two-body range."""
    Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    def scaled(min_eig, asym=0.0):
        g = Q @ np.diag([1.0, 0.75, 0.5, min_eig]) @ Q.T
        g[0, 1] += asym * np.linalg.norm(g)
        return np.ldexp(g, exponent)
    check(scaled(-1e-11))
    check(scaled(0.1, asym=0.5e-12))
    if psd:
        with pytest.raises(PSDError, match="not PSD"):
            check(scaled(-1e-9))
    with pytest.raises(PSDError if psd else DomainError, match="must be symmetric"):
        check(scaled(0.1, asym=2e-12))


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


@pytest.fixture
def lab_setup():
    """Stable symmetric bench-scale pair: 1 kg masses, 1 rad/s traps, 10 cm apart."""
    return PhysicalSetup(m1=1.0, m2=1.0, omega1=1.0, omega2=1.0, d=0.1)


@pytest.fixture
def lab_system(lab_setup):
    return linearize(lab_setup)


def strong_coupling_setup(kbar_over_omega=0.3, omega=1.0, m=1.0):
    """Equal-mass setup with sizable dimensionless coupling for dynamics tests.

    Chooses d so that K/(m Omega^2) hits the requested ratio after
    renormalization: K = c*m*Omega^2 with Omega^2 = omega^2 - K/m gives
    K = c*m*omega^2/(1+c).
    """
    from gravdiff.constants import G_NEWTON
    c = kbar_over_omega
    K = c * m * omega**2 / (1.0 + c)
    d = (2.0 * G_NEWTON * m * m / K) ** (1.0 / 3.0)
    return PhysicalSetup(m1=m, m2=m, omega1=omega, omega2=omega, d=d)


def make_diffusion(entries):
    """DiffusionMatrix from a {(i, j): value} dict, symmetric completion."""
    g = np.zeros((4, 4))
    for (i, j), v in entries.items():
        g[i, j] = v
        g[j, i] = v
    return DiffusionMatrix(g)


def lyapunov_oracle(A, D, V0, t, n_nodes=2001):
    """Independent solution of dV/dt = AV + VA^T + D.

    Matrix exponentials plus fine Simpson quadrature; shares no code with the
    block-exponential propagator or the Monte Carlo sampler it is used to check.
    """
    if n_nodes % 2 == 0:
        n_nodes += 1
    s = np.linspace(0.0, t, n_nodes)
    fs = np.empty((n_nodes, *np.shape(D)))
    for i, si in enumerate(s):
        E = expm(A * si)
        fs[i] = E @ D @ E.T
    h = s[1] - s[0]
    weights = np.ones(n_nodes)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    integral = (h / 3.0) * np.einsum("i,ijk->jk", weights, fs)
    Et = expm(A * t)
    return Et @ V0 @ Et.T + integral


def _coth_bracket(setup, w):
    """(eta m1 w / hbar)(1 + coth(hbar w / 2 kB T)), w = 0 at its classical limit."""
    w = np.asarray(w, dtype=float)
    pref = setup.eta * setup.m1 / setup.hbar
    if setup.T == 0.0:
        return pref * (w + np.abs(w))
    x = setup.hbar * w / (2.0 * setup.kB * setup.T)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = pref * w * (1.0 + 1.0 / np.tanh(x))
    return np.where(w == 0.0, 2.0 * setup.eta * setup.m1 * setup.kB * setup.T / setup.hbar**2,
                    vals)


def fixed_source_oracle(setup, sys, gamma, w):
    """Closed-form fixed-source components (S_grav_position, S_grav_momentum,
    S_thermal, S_cross):

        S_xx(w) = hbar^2 / |m (O^2 - w^2 - i eta w) + K|^2
                  * [g11 + m^2 (w^2 + eta^2) g33 - 2 m eta g13
                     + (eta m w / hbar)(1 + coth(hbar w / 2 kB T))].
    """
    w = np.asarray(w, dtype=float)
    m, eta, Om, K = setup.m1, setup.eta, sys.Omega1, sys.K
    g = gamma.matrix
    pref = setup.hbar**2 / np.abs(m * (Om**2 - w**2 - 1j * eta * w) + K) ** 2
    return (pref * g[0, 0],
            pref * (m**2 * w**2 * g[2, 2] + m**2 * eta**2 * g[2, 2]),
            pref * _coth_bracket(setup, w),
            pref * (-2.0 * m * eta * g[0, 2]))


def symmetric_pair_oracle(setup, sys, gamma, w):
    """Closed-form components of the exchange-symmetric mobile pair.

    Valid for equal masses and frequencies and exchange-symmetric gamma. The
    response splits into the direct and cross channels of
    A_x(w) = chi(w) [[m D(w), -K], [-K, m D(w)]] with D(w) = O^2 - w^2 - i eta w
    and chi(w) = (m^2 D(w)^2 - K^2)^{-1}; S_cross carries the direct x-p terms
    plus the interference line between the two channels.
    """
    w = np.asarray(w, dtype=float)
    m, eta, hb = setup.m1, setup.eta, setup.hbar
    Om, K = 0.5 * (sys.Omega1 + sys.Omega2), sys.K
    g = gamma.matrix
    D = Om**2 - w**2 - 1j * eta * w
    chi = 1.0 / (m**2 * D**2 - K**2)
    A11 = chi * m * D
    A12 = -chi * K
    P11 = np.abs(A11) ** 2
    P12 = np.abs(A12) ** 2
    S_gp = hb**2 * (P11 * g[0, 0] + P12 * g[1, 1])
    S_gm = hb**2 * (eta**2 + w**2) * m**2 * (P11 * g[2, 2] + P12 * g[3, 3])
    S_th = hb**2 * (P11 + P12) * _coth_bracket(setup, w)
    interference = 2.0 * hb**2 * np.real(
        A11 * np.conj(A12) * (
            g[0, 1]
            - (eta - 1j * w) * m * g[1, 2]
            - (eta + 1j * w) * m * g[0, 3]
            + (eta**2 + w**2) * m**2 * g[2, 3]
        )
    )
    S_cr = hb**2 * (-2.0 * eta * m) * (P11 * g[0, 2] + P12 * g[1, 3]) + interference
    return S_gp, S_gm, S_th, S_cr


def ou_loop_oracle(setup, sys, noise, n_traj, dt, duration, init="stationary",
                   stream_offset=0):
    """Step-by-step reference for :func:`gravdiff.montecarlo.simulate`.

    A plain Python loop z <- Phi z + C u over the same per-stream draws:
    2 normals for a sampled initial state, then 2 per step. It shares the
    model pieces (Phi, Q, V0) with the sampler but not its blocked
    propagator. Returns the (x, p) arrays, one row per trajectory.
    """
    from gravdiff.model import propagator
    from gravdiff.montecarlo import _monitored_model, _noise_factor, stationary_covariance
    n_steps = int(round(duration / dt))
    Phi, Q = propagator(*_monitored_model(setup, sys, noise), dt)
    C = _noise_factor(Q)
    V0 = np.zeros((2, 2))
    if init == "stationary" and setup.eta > 0:
        V0 = stationary_covariance(setup, sys, noise)
    x = np.empty((n_traj, n_steps + 1))
    p = np.empty_like(x)
    for k in range(n_traj):
        rng = noise.stream(stream_offset + k)
        z = np.zeros(2) if isinstance(init, str) else np.array(init, dtype=float)
        if np.any(V0):
            z = z + _noise_factor(V0) @ rng.standard_normal(2)
        x[k, 0], p[k, 0] = z
        for j in range(n_steps):
            u = rng.standard_normal(2) if np.any(C) else np.zeros(2)
            z = Phi @ z + C @ u
            x[k, j + 1], p[k, j + 1] = z
    return x, p


def onset_oracle(V0, sys, gamma, t_max, dt):
    """Reference for :func:`gravdiff.dynamics.entanglement_onset`: the whole
    sampled track from :func:`evolve_covariance_dimensionless`, then the
    same bisection of the first violating step to dt/100. Returns it with the
    index of the first violating sample (None when there is none); a scan
    that stops early must return the same onset bit for bit."""
    from gravdiff.dynamics import ONSET_TOL, _LJL, _min_eig_hermitian, evolve_covariance_dimensionless
    from gravdiff.model import drift_diffusion, propagator, to_dimensionless
    Hbar, gamma_bar = to_dimensionless(sys, gamma)
    res = evolve_covariance_dimensionless(V0.V, Hbar, gamma_bar, t_max, dt, mean0=V0.mean)
    idx = res.first_ppt_violation()
    if not idx:
        return (None if idx is None else 0.0), idx
    t_lo, t_hi = float(res.times[idx - 1]), float(res.times[idx])
    A, D = drift_diffusion(Hbar, gamma_bar)
    while t_hi - t_lo > dt / 100.0:
        t_mid = 0.5 * (t_lo + t_hi)
        Phi, Q = propagator(A, D, t_mid)
        if _min_eig_hermitian(Phi @ res.V[0] @ Phi.T + Q, _LJL) < -ONSET_TOL:
            t_hi = t_mid
        else:
            t_lo = t_mid
    return 0.5 * (t_lo + t_hi), idx
