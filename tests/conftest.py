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
