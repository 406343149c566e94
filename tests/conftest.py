import numpy as np
import pytest
from scipy.linalg import expm

from gravdiff.model import DiffusionMatrix, PhysicalSetup, linearize


def random_psd(rng, n=4, scale=1.0):
    """Random PSD matrix G G^T with controlled scale."""
    G = rng.standard_normal((n, n))
    return scale * (G @ G.T)


def random_psd_batch(rng, count, n=4, scale=1.0):
    """(count, n, n) stack of PSD matrices."""
    G = rng.standard_normal((count, n, n))
    return scale * np.einsum("bij,bkj->bik", G, G)


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
    model pieces (Phi, Q, V0) with the sampler but not its banded
    solve. Returns the (x, p) arrays, one row per trajectory.
    """
    from gravdiff.model import langevin_drift, propagator
    from gravdiff.montecarlo import _noise_factor, diffusion_2x2, stationary_covariance
    n_steps = int(round(duration / dt))
    A = langevin_drift(setup, sys, partner_fixed=True)
    Phi, Q = propagator(A, diffusion_2x2(setup, noise), dt)
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
