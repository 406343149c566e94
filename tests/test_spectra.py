"""Resolvent spectra: closed-form oracles, limits, resonance forms,
positivity, the Lyapunov variance, the gravitational frequency scale."""

import dataclasses

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import solve_continuous_lyapunov

from gravdiff import spectra
from gravdiff.errors import DomainError
from gravdiff.model import (
    DiffusionMatrix,
    PhysicalSetup,
    langevin_model,
    linearize,
)
from gravdiff.montecarlo import NoiseModel, effective_frequency, stationary_covariance
from gravdiff.spectra import (
    dns_fixed_source,
    dns_symmetric_pair,
    gravitational_frequency,
    thermal_force_density,
)

from conftest import (
    fixed_source_oracle,
    make_diffusion,
    random_psd_batch,
    strong_coupling_setup,
    symmetric_pair_oracle,
)

COMPONENTS = ("S_grav_position", "S_grav_momentum", "S_thermal", "S_cross")

# Independent evaluation of sqrt(G rho) for osmium.
OMEGA_G_OSMIUM = 0.0012281660311211997


def damped_setup(eta=0.01, T=300.0, kbar=0.2, omega=1.0):
    base = strong_coupling_setup(kbar_over_omega=kbar, omega=omega)
    return dataclasses.replace(base, eta=eta, T=T)


def symmetric_gamma(rng, scale):
    """Random PSD gamma with exchange symmetry (g11=g22 etc.)."""
    X = rng.standard_normal((4, 2))
    g = scale * (X @ X.T)
    # symmetrize under particle exchange (1<->2, 3<->4)
    P = np.zeros((4, 4))
    P[0, 1] = P[1, 0] = P[2, 3] = P[3, 2] = 1.0
    return DiffusionMatrix(0.5 * (g + P @ g @ P))


def asymmetric_setup(eta=0.01, T=300.0):
    """Unequal masses (m2 = 2.5 m1) and trap frequencies (omega2 = 1.3)."""
    return dataclasses.replace(damped_setup(eta=eta, T=T), m2=2.5, omega2=1.3)


def worst_component_error(spec, oracle):
    """Largest |component - oracle| / S_total over the grid and components."""
    return max(float(np.max(np.abs(getattr(spec, name) - ref) / spec.S_total))
               for name, ref in zip(COMPONENTS, oracle))


def closed_form_resonance(setup, sys, gamma):
    """Independent on-resonance value: hbar^2/(K^2 + m^2 eta^2 O^2) * bracket."""
    m, eta, hb = setup.m1, setup.eta, setup.hbar
    Om, K = sys.Omega1, sys.K
    g = gamma.matrix
    coth = 1.0 / np.tanh(hb * Om / (2 * setup.kB * setup.T))
    bracket = (
        g[0, 0] + m**2 * Om**2 * g[2, 2]
        + (eta * m * Om / hb) * (1.0 + coth)
        + m**2 * eta**2 * g[2, 2]
        - 2 * m * eta * g[0, 2]
    )
    return hb**2 / (K**2 + m**2 * eta**2 * Om**2) * bracket


class TestFixedSource:
    def test_components_sum_to_total(self, rng):
        gamma = DiffusionMatrix(random_psd_batch(rng, 1, scale=1e60)[0])
        w = np.linspace(0.1, 3.0, 500)
        for setup, dns in ((damped_setup(), dns_fixed_source),
                           (damped_setup(), dns_symmetric_pair),
                           (asymmetric_setup(), dns_symmetric_pair)):
            spec = dns(setup, linearize(setup), gamma, w)
            total = (spec.S_grav_position + spec.S_grav_momentum
                     + spec.S_thermal + spec.S_cross)
            assert np.allclose(spec.S_total, total, rtol=1e-12, atol=0.0)

    def test_matches_closed_form_oracle(self, rng):
        setup = damped_setup(eta=0.01, T=150.0, kbar=0.25)
        sys = linearize(setup)
        w = np.linspace(-3.0, 3.0, 2049)  # includes w = 0
        for g in random_psd_batch(rng, 25, scale=1e58):
            gamma = DiffusionMatrix(g)
            spec = dns_fixed_source(setup, sys, gamma, w)
            assert worst_component_error(spec, fixed_source_oracle(setup, sys, gamma, w)) <= 1e-12

    def test_zero_noise_zero_temperature_leaves_vacuum_term(self):
        setup = damped_setup(eta=0.02, T=0.0)
        sys = linearize(setup)
        w = np.array([-1.5, -0.5, 0.5, 1.5])
        spec = dns_fixed_source(setup, sys, DiffusionMatrix.zero(), w)
        assert np.all(spec.S_grav_position == 0.0)
        assert np.all(spec.S_grav_momentum == 0.0)
        assert np.all(spec.S_cross == 0.0)
        # vacuum emission side only: 1 + coth -> 2 for w > 0, 0 for w < 0
        m, eta, hb = setup.m1, setup.eta, setup.hbar
        for wi, si in zip(w, spec.S_total):
            pref = hb**2 / np.abs(m * (sys.Omega1**2 - wi**2 - 1j * eta * wi) + sys.K) ** 2
            expected = pref * (eta * m * wi / hb) * 2.0 if wi > 0 else 0.0
            assert si == pytest.approx(expected, rel=1e-12, abs=1e-300)

    def test_resonance_prefactor(self):
        setup = damped_setup(eta=0.005)
        sys = linearize(setup)
        g11 = 1e55
        gamma = make_diffusion({(0, 0): g11, (1, 1): g11})
        spec = dns_fixed_source(setup, sys, gamma, np.array([sys.Omega1]))
        m, hb = setup.m1, setup.hbar
        pref = hb**2 / (sys.K**2 + m**2 * setup.eta**2 * sys.Omega1**2)
        assert spec.S_grav_position[0] == pytest.approx(pref * g11, rel=1e-12, abs=0.0)

    def test_positive_for_psd_gamma(self, rng):
        setup = damped_setup()
        sys = linearize(setup)
        w = np.linspace(-3.0, 3.0, 301)
        w = w[w != 0.0]
        for g in random_psd_batch(rng, 50, scale=1e60):
            spec = dns_fixed_source(setup, sys, DiffusionMatrix(g), w)
            assert np.all(spec.S_total >= -1e-12 * spec.S_total.max())

    def test_classical_limit_of_thermal_term(self):
        setup = damped_setup(eta=0.01, T=300.0)
        sys = linearize(setup)
        w = np.linspace(0.01, 2.0, 200)
        assert np.all(setup.hbar * w / (2 * setup.kB * setup.T) < 0.01)
        spec = dns_fixed_source(setup, sys, DiffusionMatrix.zero(), w)
        m, eta, hb = setup.m1, setup.eta, setup.hbar
        pref = hb**2 / np.abs(m * (sys.Omega1**2 - w**2 - 1j * eta * w) + sys.K) ** 2
        classical = pref * 2 * eta * m * setup.kB * setup.T / hb**2
        assert np.allclose(spec.S_thermal, classical, rtol=0.01, atol=0.0)

    def test_zero_frequency_substitution(self):
        setup = damped_setup(eta=0.01, T=10.0)
        sys = linearize(setup)
        spec = dns_fixed_source(setup, sys, DiffusionMatrix.zero(), np.array([0.0, 1.0]))
        assert spec.zero_frequency_substituted
        m, eta, hb = setup.m1, setup.eta, setup.hbar
        pref = hb**2 / (m * sys.Omega1**2 + sys.K) ** 2
        expected = pref * 2 * eta * m * setup.kB * setup.T / hb**2
        assert spec.S_total[0] == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_resonance_dominates_wings_at_high_q(self):
        # Q = Omega/eta = 1e3, negligible coupling
        setup = PhysicalSetup(m1=1.0, m2=1.0, omega1=1.0, omega2=1.0, d=1.0,
                              eta=1e-3, T=300.0)
        sys = linearize(setup)
        gamma = make_diffusion({(0, 0): 1e40, (1, 1): 1e40})
        spec = dns_fixed_source(setup, sys, gamma,
                                np.array([sys.Omega1, 1.1 * sys.Omega1]))
        assert spec.S_total[0] >= 100.0 * spec.S_total[1]

    def test_thermal_force_density_classical_white(self):
        setup = damped_setup(eta=0.02, T=250.0)
        w = np.linspace(0.05, 1.0, 50)
        S = thermal_force_density(w, setup)
        assert np.allclose(S, 2 * setup.eta * setup.m1 * setup.kB * setup.T, rtol=1e-3, atol=0.0)

    def test_variance_matches_sampler_stationary_covariance(self, rng):
        # the spectra and the sampler build the monitored oscillator in
        # different modules: int S_total dw / 2 pi is the sampler's
        # stationary V_xx, with a white thermal force as kB T >> hbar Omega
        for _ in range(6):
            setup = damped_setup(eta=10 ** rng.uniform(-2.0, -0.5), T=rng.uniform(1.0, 300.0),
                                 kbar=rng.uniform(0.0, 0.3))
            sys = linearize(setup)
            gamma = DiffusionMatrix(random_psd_batch(rng, 1, scale=10 ** rng.uniform(44, 50))[0])
            om = effective_frequency(sys)
            assert setup.hbar * om < 1e-9 * setup.kB * setup.T

            def f(wi):  # S(w) + S(-w): the w < 0 half folded onto w > 0
                return dns_fixed_source(setup, sys, gamma, np.array([wi, -wi])).S_total.sum()
            peak = quad(f, 0.0, 3.0 * om, points=[om], limit=400, epsabs=0.0, epsrel=1e-12)[0]
            tail = quad(f, 3.0 * om, np.inf, limit=400, epsabs=0.0, epsrel=1e-12)[0]
            V = stationary_covariance(setup, sys, NoiseModel.from_setup(setup, gamma, seed=1))
            assert (peak + tail) / (2.0 * np.pi) == pytest.approx(V[0, 0], rel=1e-8, abs=0.0)


class TestSymmetricPair:
    def test_decoupled_matches_fixed_source(self, rng):
        base = dataclasses.replace(
            PhysicalSetup(m1=1.0, m2=1.0, omega1=1.2, omega2=1.2, d=0.5, G=0.0),
            eta=0.01, T=200.0)
        w = np.linspace(0.2, 2.5, 300)
        # an exchange-symmetric pair, then unequal masses and frequencies with
        # a gamma that correlates the two bodies without exchange symmetry
        for setup, gamma in ((base, symmetric_gamma(rng, 1e60)),
                             (dataclasses.replace(base, m2=3.0, omega2=0.7),
                              DiffusionMatrix(random_psd_batch(rng, 1, scale=1e60)[0]))):
            sys = linearize(setup)
            assert sys.K == 0.0
            pair = dns_symmetric_pair(setup, sys, gamma, w)
            fixed = dns_fixed_source(setup, sys, gamma, w)
            assert np.allclose(pair.S_total, fixed.S_total, rtol=1e-12, atol=0.0)

    def test_matches_closed_form_oracle(self, rng):
        setup = damped_setup(eta=0.01, T=150.0, kbar=0.25)
        sys = linearize(setup)
        w = np.linspace(-3.0, 3.0, 2049)
        for _ in range(25):
            gamma = symmetric_gamma(rng, 1e58)
            spec = dns_symmetric_pair(setup, sys, gamma, w)
            assert worst_component_error(
                spec, symmetric_pair_oracle(setup, sys, gamma, w)) <= 1e-12

    def test_asymmetric_pair_matches_lyapunov(self, rng):
        # int S_x1x1 dw / 2 pi is the stationary V_x1x1 of dz = A z dt + noise:
        # the gravitational parts with rate D_grav and, classically
        # (hbar w << kB T), the thermal part with white momentum noise
        # 2 eta m_j kB T on each body.
        setup = asymmetric_setup(eta=0.05)
        sys = linearize(setup)
        assert sys.Omega1 != sys.Omega2
        gamma = DiffusionMatrix(random_psd_batch(rng, 1, scale=1e58)[0])
        A, D_grav = langevin_model(setup, sys, gamma.matrix)
        modes = np.unique(np.abs(np.linalg.eigvals(A).imag))
        top = 3.0 * modes.max()

        def variance(component):
            def f(wi):  # S(w) + S(-w): the w < 0 half folded onto w > 0
                return component(dns_symmetric_pair(setup, sys, gamma, np.array([wi, -wi]))).sum()
            peaks = quad(f, 0.0, top, points=modes, limit=400, epsabs=0.0, epsrel=1e-12)[0]
            tail = quad(f, top, np.inf, limit=400, epsabs=0.0, epsrel=1e-12)[0]
            return (peaks + tail) / (2.0 * np.pi)

        assert variance(lambda s: s.S_grav_position + s.S_grav_momentum + s.S_cross) == \
            pytest.approx(solve_continuous_lyapunov(A, -D_grav)[0, 0], rel=1e-8, abs=0.0)
        kT = setup.kB * setup.T
        D_th = np.diag([0.0, 0.0, 2 * setup.eta * setup.m1 * kT, 2 * setup.eta * setup.m2 * kT])
        assert variance(lambda s: s.S_thermal) == \
            pytest.approx(solve_continuous_lyapunov(A, -D_th)[0, 0], rel=1e-8, abs=0.0)

    def test_undamped_resonance_on_grid_raises(self):
        setup = PhysicalSetup(m1=1.0, m2=1.0, omega1=1.0, omega2=1.0, d=0.5, G=0.0, T=1.0)
        sys = linearize(setup)
        for dns in (dns_fixed_source, dns_symmetric_pair):
            with pytest.raises(DomainError, match="undamped resonance"):
                dns(setup, sys, DiffusionMatrix.zero(), np.array([0.5, 1.0]))

    def test_resonance_matches_closed_form(self, rng):
        setup = damped_setup(eta=0.01, T=150.0, kbar=0.25)
        sys = linearize(setup)
        for _ in range(20):
            gamma = symmetric_gamma(rng, 1e58)
            spec = dns_symmetric_pair(setup, sys, gamma, np.array([sys.Omega1]))
            assert spec.S_total[0] == pytest.approx(
                closed_form_resonance(setup, sys, gamma), rel=1e-12, abs=0.0)

    def test_interference_vanishes_on_resonance_only(self, rng):
        setup = damped_setup(eta=0.01, T=150.0, kbar=0.25)
        sys = linearize(setup)
        gamma = symmetric_gamma(rng, 1e58)
        g = gamma.matrix
        on = dns_symmetric_pair(setup, sys, gamma, np.array([sys.Omega1]))
        direct_cross = (
            -2 * setup.eta * setup.m1 * setup.hbar**2
            * self_channel_weights(setup, sys, sys.Omega1) @ np.array([g[0, 2], g[1, 3]])
        )
        assert on.S_cross[0] == pytest.approx(direct_cross, rel=1e-10, abs=0.0)
        off = dns_symmetric_pair(setup, sys, gamma, np.array([0.8 * sys.Omega1]))
        direct_off = (
            -2 * setup.eta * setup.m1 * setup.hbar**2
            * self_channel_weights(setup, sys, 0.8 * sys.Omega1) @ np.array([g[0, 2], g[1, 3]])
        )
        assert abs(off.S_cross[0] - direct_off) > abs(direct_off) * 1e-6

    def test_even_in_frequency_classically(self, rng):
        w = np.linspace(0.1, 2.0, 64)
        for setup, gamma in ((damped_setup(eta=0.01, T=5000.0, kbar=0.25),
                              symmetric_gamma(rng, 1e58)),
                             (asymmetric_setup(eta=0.01, T=5000.0),
                              DiffusionMatrix(random_psd_batch(rng, 1, scale=1e58)[0]))):
            sys = linearize(setup)
            plus = dns_symmetric_pair(setup, sys, gamma, w)
            minus = dns_symmetric_pair(setup, sys, gamma, -w)
            assert np.allclose(plus.S_total, minus.S_total, rtol=1e-8, atol=0.0)


@pytest.mark.parametrize("dns", [dns_fixed_source, dns_symmetric_pair])
def test_caller_grid_stays_writeable(rng, dns):
    # the spectrum's omega is a read-only view; the caller's grid is not frozen
    setup = damped_setup()
    gamma = DiffusionMatrix(random_psd_batch(rng, 1, scale=1e60)[0])
    w = np.linspace(0.1, 3.0, 64)
    before = w.copy()
    spec = dns(setup, linearize(setup), gamma, w)
    assert np.array_equal(w, before) and np.array_equal(spec.omega, before)
    w[0] = 2.0
    assert w[0] == 2.0
    with pytest.raises(ValueError, match="read-only"):
        spec.omega[0] = 2.0


def self_channel_weights(setup, sys, w):
    """|A11|^2, |A12|^2 of the pair susceptibility at frequency w."""
    m, eta = setup.m1, setup.eta
    D = sys.Omega1**2 - w**2 - 1j * eta * w
    chi = 1.0 / (m**2 * D**2 - sys.K**2)
    return np.array([abs(chi * m * D) ** 2, abs(chi * sys.K) ** 2])


def lapack_rows(A, w):
    """Row 0 of (-i w - A)^{-1} at each w, one LAPACK solve per frequency."""
    n = len(A)
    e0 = np.zeros((len(w), n, 1))
    e0[:, 0] = 1.0
    return np.linalg.solve((-1j * w)[:, None, None] * np.eye(n) - A.T, e0)[..., 0]


def shifted_rows(A, w):
    """The same rows from one Hessenberg reduction and O(n^2) shifted solves."""
    h, lift = spectra._reduce(A)
    r = spectra._resolvent_rows(h, lift, w)
    return (r[:, :len(w)] + 1j * r[:, len(w):]).T


def worst_row_error(A, w):
    """Largest per-frequency |r - r_lapack|_max / |r_lapack|_2."""
    ref = lapack_rows(A, w)
    return float(np.max(np.abs(shifted_rows(A, w) - ref).max(axis=1)
                        / np.linalg.norm(ref, axis=1)))


def lab_pair(rng, kbar_over_omega, eta_over_omega, m1=None):
    """(setup, system): masses over 18 decades and traps over eight, unequal
    bodies, with G set so that K / (sqrt(m1 m2) Omega1 Omega2) is the given
    ratio (G = 0 at ratio 0) and eta = eta_over_omega Omega1, at 300 K."""
    m1 = 10 ** rng.uniform(-15.0, 3.0) if m1 is None else m1
    m2, Om1 = m1 * rng.uniform(1.0, 3.0), 10 ** rng.uniform(-3.0, 5.0)
    Om2, d = Om1 * rng.uniform(0.5, 2.0), 10 ** rng.uniform(-2.0, 0.0)
    K = kbar_over_omega * np.sqrt(m1 * m2) * Om1 * Om2
    setup = PhysicalSetup(m1=m1, m2=m2, omega1=np.sqrt(Om1**2 + K / m1),
                          omega2=np.sqrt(Om2**2 + K / m2), d=d, G=K * d**3 / (2 * m1 * m2),
                          T=300.0, eta=eta_over_omega * Om1)
    return setup, linearize(setup)


class TestShiftedSolves:
    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_random_stable_drifts_match_lapack(self, rng, n):
        # the shifted solves on any stable upper-Hessenberg h, not only on the
        # interleaved Langevin drifts
        w = np.linspace(-4.0, 4.0, 257)
        for _ in range(50):
            M = np.triu(rng.standard_normal((n, n)), -1)
            h = M - (np.linalg.eigvals(M).real.max() + rng.uniform(0.1, 1.0)) * np.eye(n)
            r = spectra._resolvent_rows(h, np.eye(n), w)
            ref = lapack_rows(h.T, w)                   # (-i w - h)^-1 e0
            err = np.abs((r[:, :len(w)] + 1j * r[:, len(w):]).T - ref).max(axis=1)
            assert np.max(err / np.linalg.norm(ref, axis=1)) < 1e-12

    @pytest.mark.parametrize("setup", [
        # critically damped: A is defective, one double eigenvalue per body
        PhysicalSetup(m1=1.0, m2=1.0, omega1=1.0, omega2=1.0, d=0.5, G=0.0, eta=2.0),
        PhysicalSetup(m1=1.0, m2=1.0, omega1=1.0, omega2=1.0, d=0.5, eta=2.0),
        # overdamped: real eigenvalues
        PhysicalSetup(m1=1.0, m2=2.0, omega1=1.0, omega2=1.5, d=0.5, eta=10.0),
        # a levitated pair: 1/m and m Omega^2 twenty decades apart
        PhysicalSetup(m1=1e-15, m2=1e-15, omega1=1e5, omega2=1e5, d=1e-5, eta=1e-2),
    ], ids=["critical-decoupled", "critical", "overdamped", "light"])
    @pytest.mark.parametrize("partner_fixed", [True, False])
    def test_damping_regimes_and_units_match_lapack(self, setup, partner_fixed):
        sys = linearize(setup)
        A, _ = langevin_model(setup, sys, np.zeros((4, 4)), partner_fixed)
        w = np.linspace(-3.0, 3.0, 1001) * sys.Omega1
        assert worst_row_error(A, w) < 1e-12

    @pytest.mark.parametrize("partner_fixed", [True, False])
    def test_langevin_drift_reduces_exactly(self, partner_fixed):
        # in the order (x1, p1, x2, p2) the balanced drift is upper Hessenberg
        # as it stands: h is a permutation of it, without rounding
        rng = np.random.default_rng(31)
        cases = [lab_pair(rng, rng.uniform(0.0, 0.5), 10 ** rng.uniform(-10.0, 0.0))
                 for _ in range(40)]
        cases += [lab_pair(rng, 0.0, 0.1), lab_pair(rng, 0.3, 0.0),   # G = 0; eta = 0
                  lab_pair(rng, 0.0, 2.0), lab_pair(rng, 0.3, 10.0),  # critical; overdamped
                  lab_pair(rng, 0.3, 0.1, m1=1e-15)]
        order = [0, 1] if partner_fixed else [0, 2, 1, 3]
        perm = np.eye(len(order))[:, order]
        for setup, sys in cases:
            A, _ = langevin_model(setup, sys, np.zeros((4, 4)), partner_fixed)
            balanced, t = spectra._balance(A.T)
            h, lift = spectra._reduce(A)
            assert not np.tril(h, -2).any()
            assert np.array_equal(h, perm.T @ balanced @ perm)
            assert np.array_equal(lift, (t / t[0])[:, None] * perm)

    @staticmethod
    def random_resonances(eta_over_omega, count=40):
        """(setup, system) pairs over 18 decades of mass and eight of
        frequency, decoupled (G = 0) so that Omega1 is an eigenfrequency."""
        rng = np.random.default_rng(11)
        for _ in range(count):
            m, om = 10.0 ** rng.uniform(-15.0, 3.0), 10.0 ** rng.uniform(-3.0, 5.0)
            setup = PhysicalSetup(m1=m, m2=m * rng.uniform(1.0, 3.0), omega1=om,
                                  omega2=om * rng.uniform(0.5, 2.0), d=0.5, G=0.0, T=1.0,
                                  eta=eta_over_omega * om)
            yield setup, linearize(setup)

    def test_undamped_resonance_within_rounding_raises(self):
        # the computed last pivot at Omega1 is rounding, not an exact zero
        for setup, sys in self.random_resonances(0.0):
            for dns in (dns_fixed_source, dns_symmetric_pair):
                with pytest.raises(DomainError, match="undamped resonance"):
                    dns(setup, sys, DiffusionMatrix.zero(), np.array([sys.Omega1]))

    @pytest.mark.parametrize("partner_fixed", [True, False])
    def test_high_q_resonance_on_grid_is_solved(self, partner_fixed):
        # Q = 1e10 exactly on resonance: conditioned at about 1e10, not singular
        for setup, sys in self.random_resonances(1e-10):
            A, _ = langevin_model(setup, sys, np.zeros((4, 4)), partner_fixed)
            assert worst_row_error(A, np.array([sys.Omega1])) < 1e-4


class TestVarianceAgainstHamiltonian:
    def test_thermal_variance_is_gibbs(self):
        # Thermal noise only, classically: int S_total dw / 2 pi is the
        # Gibbs V_x1x1, kB T (H^-1)_00 with both bodies mobile and
        # kB T / H_fixed[0, 0] with the partner fixed. The trapezoid on
        # w = Omega1 tan(theta) is a periodic rule, exact to rounding here.
        rng = np.random.default_rng(12)
        theta = np.linspace(-np.pi / 2, np.pi / 2, 40001)[1:-1]
        for _ in range(12):
            Q = 10 ** rng.uniform(np.log10(2.0), np.log10(200.0))
            setup, sys = lab_pair(rng, rng.uniform(0.0, 0.5), 1.0 / Q)
            w = sys.Omega1 * np.tan(theta)
            dw = sys.Omega1 * (theta[1] - theta[0]) / np.cos(theta) ** 2
            kT = setup.kB * setup.T
            for dns, gibbs in ((dns_symmetric_pair, kT * np.linalg.inv(sys.H)[0, 0]),
                               (dns_fixed_source, kT / sys.H_fixed[0, 0])):
                S = dns(setup, sys, DiffusionMatrix.zero(), w).S_total
                assert (S * dw).sum() / (2 * np.pi) == pytest.approx(gibbs, rel=1e-9, abs=0.0)


class TestDetectionCondition:
    def test_omega_g_value(self):
        assert gravitational_frequency(2.26e4, 6.67430e-11) == pytest.approx(
            OMEGA_G_OSMIUM, rel=1e-12)

    def test_margin_is_radius_invariant(self):
        """The detection margin of a PhysicalSetup depends on its size only
        through rho: 10x the radius (1000x the mass) at fixed density, bath
        and damping leaves it unchanged."""
        from gravdiff.constants import HBAR, KB, OSMIUM_DENSITY
        from gravdiff.feasibility import FeasibilityParams, feasibility_report

        Omega, T = 2 * np.pi * 1e-4, 0.01
        m = 4 * np.pi / 3 * OSMIUM_DENSITY * 0.03**3
        # eta chosen so eta * n_T is half the gravitational rate pi w_G^2 / (12 Omega)
        eta = 0.5 * np.pi * OMEGA_G_OSMIUM**2 / (12 * Omega) * HBAR * Omega / (KB * T)
        base = PhysicalSetup(m1=m, m2=m, omega1=Omega, omega2=Omega, d=0.06,
                             eta=eta, T=T)
        big = dataclasses.replace(base, m1=base.m1 * 1000.0, m2=base.m2 * 1000.0)

        def margin(setup):
            R = (3 * setup.m1 / (4 * np.pi * OSMIUM_DENSITY)) ** (1 / 3)
            p = FeasibilityParams(Omega=setup.omega1, rho=OSMIUM_DENSITY, R=R,
                                  beta=1.0, T=setup.T, Q=setup.omega1 / setup.eta)
            return feasibility_report(p).margin_conservative

        assert margin(base) > 0
        assert margin(base) == pytest.approx(margin(big), rel=1e-12)
