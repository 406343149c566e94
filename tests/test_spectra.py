"""Resolvent spectra: closed-form oracles, limits, resonance forms,
positivity, the Lyapunov variance, the gravitational frequency scale."""

import dataclasses

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import solve_continuous_lyapunov

from gravdiff.errors import DomainError
from gravdiff.model import (
    DiffusionMatrix,
    PhysicalSetup,
    langevin_diffusion,
    langevin_drift,
    linearize,
)
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
        A = langevin_drift(setup, sys)
        modes = np.unique(np.abs(np.linalg.eigvals(A).imag))
        top = 3.0 * modes.max()

        def variance(component):
            def f(wi):  # S(w) + S(-w): the w < 0 half folded onto w > 0
                return component(dns_symmetric_pair(setup, sys, gamma, np.array([wi, -wi]))).sum()
            peaks = quad(f, 0.0, top, points=modes, limit=400, epsabs=0.0, epsrel=1e-12)[0]
            tail = quad(f, top, np.inf, limit=400, epsabs=0.0, epsrel=1e-12)[0]
            return (peaks + tail) / (2.0 * np.pi)

        D_grav = langevin_diffusion(setup, gamma.matrix)
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


def self_channel_weights(setup, sys, w):
    """|A11|^2, |A12|^2 of the pair susceptibility at frequency w."""
    m, eta = setup.m1, setup.eta
    D = sys.Omega1**2 - w**2 - 1j * eta * w
    chi = 1.0 / (m**2 * D**2 - sys.K**2)
    return np.array([abs(chi * m * D) ** 2, abs(chi * sys.K) ** 2])


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
