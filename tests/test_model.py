"""Linearization, matrix construction and unit conversions."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from gravdiff.constants import G_NEWTON, HBAR
from gravdiff.errors import PSDError, StabilityError
from gravdiff.model import (
    DiffusionMatrix,
    GaussianState,
    LinearizedSystem,
    PhysicalSetup,
    dimensionless_coupling,
    ground_state,
    langevin_model,
    linearize,
    pendulum_system,
    propagator,
    quadrature_scales,
    symplectic_form,
    to_dimensionless,
)

from conftest import (
    SCALE_EXPONENTS,
    assert_immutable,
    assert_matrix_rule_at_huge_entries,
    assert_matrix_rule_at_scale,
    make_diffusion,
    random_psd_batch,
)

# Frozen by an independent one-line evaluation of 2 G m^2 / d^3 with
# G = 6.67430e-11, m = 2.55 kg, d = 0.06 m.
K_255_006 = 4.018484791666667e-06


class TestLinearize:
    def test_no_gravity_is_identity(self):
        setup = PhysicalSetup(m1=1.0, m2=2.0, omega1=3.0, omega2=4.0, d=0.5, G=0.0)
        sys = linearize(setup)
        assert sys.K == 0.0
        assert sys.Omega1 == pytest.approx(3.0, rel=1e-15)
        assert sys.Omega2 == pytest.approx(4.0, rel=1e-15)
        assert sys.equilibrium_shift == (0.0, 0.0)

    def test_coupling_value(self):
        setup = PhysicalSetup(m1=2.55, m2=2.55, omega1=1.0, omega2=1.0, d=0.06)
        sys = linearize(setup)
        assert sys.K == pytest.approx(K_255_006, rel=1e-12)

    def test_equal_mass_reduction(self):
        setup = PhysicalSetup(m1=2.55, m2=2.55, omega1=1.0, omega2=1.0, d=0.06)
        sys = linearize(setup)
        expected = np.sqrt(1.0 - sys.K / 2.55)
        assert sys.Omega1 == pytest.approx(expected, rel=1e-14)
        assert sys.Omega2 == pytest.approx(expected, rel=1e-14)
        # quadratic-form coefficients of the symmetric Hamiltonian
        assert sys.H[0, 0] == pytest.approx(2.55 * expected**2, rel=1e-14)
        assert sys.H[0, 1] == pytest.approx(sys.K, rel=1e-14)
        assert sys.H[2, 2] == pytest.approx(1 / 2.55, rel=1e-14)

    def test_equilibrium_shift_solves_linear_conditions(self):
        setup = PhysicalSetup(m1=1.0, m2=3.0, omega1=0.7, omega2=1.3, d=0.2)
        sys = linearize(setup)
        a1, a2 = sys.equilibrium_shift
        K, d = sys.K, setup.d
        tol = 1e-12 * K * d
        assert setup.m1 * sys.Omega1**2 * a1 - K * a2 - K * d / 2 == pytest.approx(0.0, abs=tol)
        assert setup.m2 * sys.Omega2**2 * a2 - K * a1 - K * d / 2 == pytest.approx(0.0, abs=tol)

    def test_equilibrium_shift_closed_form(self):
        # independent closed form: a1 = (d/2) / (m1 w1^2 (1/K - 1/(m1 w1^2) - 1/(m2 w2^2)))
        setup = PhysicalSetup(m1=1.0, m2=3.0, omega1=0.7, omega2=1.3, d=0.2)
        sys = linearize(setup)
        K = sys.K
        s1 = setup.m1 * setup.omega1**2
        s2 = setup.m2 * setup.omega2**2
        a1_expected = (setup.d / 2) / (s1 * (1 / K - 1 / s1 - 1 / s2))
        a2_expected = (setup.d / 2) / (s2 * (1 / K - 1 / s1 - 1 / s2))
        assert sys.equilibrium_shift[0] == pytest.approx(a1_expected, rel=1e-10)
        assert sys.equilibrium_shift[1] == pytest.approx(a2_expected, rel=1e-10)

    def test_unstable_trap_raises_and_names_oscillator(self):
        setup = PhysicalSetup(m1=2.55, m2=2.55, omega1=1e-3, omega2=1.0, d=0.06)
        with pytest.raises(StabilityError, match="oscillator 1"):
            linearize(setup)

    def test_coupled_instability_detected(self):
        # Omega_i^2 > 0 but the x-block loses positive definiteness
        setup = PhysicalSetup(m1=2.55, m2=2.55, omega1=1.6e-3, omega2=1.6e-3, d=0.06)
        with pytest.raises(StabilityError, match="coupled"):
            linearize(setup)

    @pytest.mark.parametrize("Omega", [0.0, -1.0, float("inf"), float("nan")])
    def test_pendulum_system_rejects_bad_omega(self, lab_setup, Omega):
        with pytest.raises(ValueError, match="Omega must be positive and finite"):
            pendulum_system(lab_setup, Omega)

    @settings(max_examples=50, deadline=None)
    @given(s=st.floats(min_value=0.01, max_value=100.0))
    def test_coupling_scale_covariance(self, s):
        base = PhysicalSetup(m1=1.0, m2=2.0, omega1=5.0, omega2=5.0, d=0.3)
        scaled = PhysicalSetup(m1=s * 1.0, m2=s * 2.0, omega1=5.0 * s, omega2=5.0 * s, d=0.3)
        assert scaled.coupling == pytest.approx(s**2 * base.coupling, rel=1e-12)

    def test_energy_expectation_matches_direct_form(self, rng):
        setup = PhysicalSetup(m1=1.0, m2=3.0, omega1=0.7, omega2=1.3, d=0.2)
        sys = linearize(setup)
        for _ in range(10):
            mu = rng.standard_normal(4)
            V = random_psd_batch(rng, 1)[0]
            second = V + np.outer(mu, mu)  # <c_i c_j> (symmetrized)
            direct = (
                second[2, 2] / (2 * setup.m1)
                + second[3, 3] / (2 * setup.m2)
                + 0.5 * setup.m1 * sys.Omega1**2 * second[0, 0]
                + 0.5 * setup.m2 * sys.Omega2**2 * second[1, 1]
                + sys.K * second[0, 1]
            )
            quadratic = 0.5 * np.trace(sys.H @ V) + 0.5 * mu @ sys.H @ mu
            assert quadratic == pytest.approx(direct, rel=1e-12)


class TestPhysicalSetupDomain:
    """Every dial is finite: a NaN or infinite one would reach the sampler
    and the spectra as NaN outputs with no error."""

    BASE = dict(m1=1.0, m2=2.0, omega1=3.0, omega2=4.0, d=0.5, T=300.0, eta=0.1)

    @pytest.mark.parametrize("name", ["m1", "m2", "omega1", "omega2", "d"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, 0.0, -1.0])
    def test_positive_dials_are_finite(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be positive"):
            PhysicalSetup(**{**self.BASE, name: value})

    @pytest.mark.parametrize("name", ["T", "eta"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -1.0])
    def test_environment_dials_are_finite(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be non-negative and finite, got "):
            PhysicalSetup(**{**self.BASE, name: value})

    def test_zero_temperature_and_damping_are_accepted(self):
        setup = PhysicalSetup(**{**self.BASE, "T": 0.0, "eta": 0.0})
        assert setup.T == setup.eta == 0.0


class TestLinearizedSystemParameters:
    """The system stores its independent parameters only; H follows them."""

    def test_fields_are_the_parameters(self):
        assert [f.name for f in dataclasses.fields(LinearizedSystem)] == [
            "Omega1", "Omega2", "K", "m1", "m2", "equilibrium_shift", "hbar"]

    def test_replaced_coupling_reaches_h_and_drift(self, lab_setup, lab_system):
        assert lab_system.H[0, 1] == lab_system.K > 0.0
        bare = dataclasses.replace(lab_system, K=0.0)
        assert bare.H[0, 1] == bare.H[1, 0] == 0.0
        np.testing.assert_array_equal(np.diag(bare.H), np.diag(lab_system.H))
        A, _ = langevin_model(lab_setup, bare, np.zeros((4, 4)))
        assert A[2, 1] == A[3, 0] == 0.0      # no force of one body on the other

    def test_h_is_read_only(self, lab_system):
        with pytest.raises(ValueError):
            lab_system.H[0, 1] = 0.0

    def test_equal_and_hashable(self, lab_setup):
        a, b = linearize(lab_setup), linearize(lab_setup)
        assert a == b
        assert hash(a) == hash(b)
        assert a != dataclasses.replace(a, K=0.0)


class TestDriftMatrix:
    def test_uncoupled_is_block_decoupled(self):
        setup = PhysicalSetup(m1=1.0, m2=2.0, omega1=3.0, omega2=4.0, d=0.5, G=0.0)
        A, _ = langevin_model(setup, linearize(setup), np.zeros((4, 4)))
        # no cross-oscillator entries
        assert A[0, 1] == A[1, 0] == A[2, 3] == A[3, 2] == 0.0
        assert A[0, 3] == A[3, 0] == A[1, 2] == A[2, 1] == 0.0

    def test_eigenvalues_are_normal_mode_pairs(self, lab_setup):
        sys = linearize(lab_setup)
        A, _ = langevin_model(lab_setup, sys, np.zeros((4, 4)))
        eigs = np.linalg.eigvals(A)
        m = lab_setup.m1
        w_plus = np.sqrt(sys.Omega1**2 + sys.K / m)
        w_minus = np.sqrt(sys.Omega1**2 - sys.K / m)
        expected = np.sort([-w_plus, -w_minus, w_minus, w_plus])
        assert np.allclose(eigs.real, 0.0, atol=1e-12)
        assert np.allclose(np.sort(eigs.imag), expected, rtol=1e-10, atol=1e-12)

    def test_trace_free(self, lab_setup, lab_system):
        A, _ = langevin_model(lab_setup, lab_system, np.zeros((4, 4)))
        assert np.trace(A) == pytest.approx(0.0, abs=1e-15)


class TestSymplecticForm:
    def test_structure(self):
        J = symplectic_form()
        assert np.allclose(J @ J, -np.eye(4))
        assert np.allclose(J.T, -J)


def scipy_propagator(A, D, h):
    """Van Loan's block formula on scipy.linalg.expm (Pade, a different
    exponential algorithm): the oracle for model.propagator."""
    n = len(A)
    E = expm(np.block([[-A, D], [np.zeros((n, n)), A.T]]) * h)
    Phi = E[n:, n:].T
    Q = Phi @ E[:n, n:]
    return Phi, 0.5 * (Q + Q.T)


def damped_block(Omega, eta):
    """Drift of one unit-mass oscillator with momentum damping eta."""
    return np.array([[0.0, 1.0], [-Omega**2, -eta]])


class TestPropagator:
    RTOL = 5e-12

    def assert_matches_oracle(self, A, D, h):
        Phi, Q = propagator(A, D, h)
        Phi_ref, Q_ref = scipy_propagator(A, D, h)
        assert np.abs(Phi - Phi_ref).max() <= self.RTOL * np.abs(Phi_ref).max()
        assert np.abs(Q - Q_ref).max() <= self.RTOL * np.abs(Q_ref).max()

    @pytest.mark.parametrize("periods", [1e-4, 1e-2, 0.37, 1.0, 10.0])
    def test_undamped_pair(self, rng, periods):
        # Unequal frequencies, Kbar/Omega = 0.3, a random PSD gamma_bar.
        Hbar = np.diag([1.0, 1.3, 1.0, 1.3])
        Hbar[0, 1] = Hbar[1, 0] = 0.3
        J = symplectic_form()
        for gamma_bar in random_psd_batch(rng, 3, scale=0.05):
            self.assert_matches_oracle(J @ Hbar, J @ gamma_bar @ J.T,
                                       periods * 2.0 * np.pi / 1.3)

    @pytest.mark.parametrize("eta_h", [1e-4, 1e-2, 0.1])
    @pytest.mark.parametrize("eta", [
        0.01,                    # underdamped, quality factor 100
        0.5,                     # underdamped, quality factor 2
        2.0 * (1.0 + 1e-7),      # near-critical: nearly defective drift
        10.0,                    # overdamped
    ])
    def test_damped_block(self, rng, eta, eta_h):
        # eta h <= 0.1 is the range reheating_run and simulate admit.
        for D in random_psd_batch(rng, 3, n=2):
            self.assert_matches_oracle(damped_block(1.0, eta), D, eta_h / eta)

    @pytest.mark.parametrize("scale", [1e-30, 1e24])
    def test_diffusion_scale_moves_only_q(self, rng, scale):
        # Phi does not depend on D and Q is linear in it, however far the
        # noise units sit from the drift's (gamma = 1e59 in SI units is
        # gamma_bar ~ 1e24 for a 1-kg, 1-Hz pair).
        A = damped_block(2.0 * np.pi, 0.1)
        for D in random_psd_batch(rng, 3, n=2):
            Phi, Q = propagator(A, D, 0.002)
            Phi_s, Q_s = propagator(A, scale * D, 0.002)
            assert np.abs(Phi_s - Phi).max() <= self.RTOL * np.abs(Phi).max()
            assert np.abs(Q_s / scale - Q).max() <= self.RTOL * np.abs(Q).max()

    @pytest.mark.parametrize("A,h", [
        (symplectic_form() @ np.diag([1.0, 1.3, 1.0, 1.3]), 20.0),
        (damped_block(1.0, 0.5), 0.2),
    ])
    def test_zero_diffusion(self, A, h):
        Phi, Q = propagator(A, np.zeros_like(A), h)
        Phi_ref, _ = scipy_propagator(A, np.zeros_like(A), h)
        assert np.abs(Phi - Phi_ref).max() <= self.RTOL * np.abs(Phi_ref).max()
        assert not np.any(Q)

    @pytest.mark.parametrize("n", [2, 4])
    def test_stacked_steps_equal_scalar_calls(self, rng, n):
        # h = 0 and steps over five decades: each matrix of the stack takes
        # its own number of squarings, so a sample's bits cannot depend on
        # the other steps it is stacked with.
        A = damped_block(1.3, 0.2) if n == 2 else symplectic_form() @ np.diag([1.0, 1.3, 1.0, 1.3])
        D = random_psd_batch(rng, 1, n=n)[0]
        hs = np.array([0.0, 3e-4, 2e-3, 0.05, 0.7, 9.0, 31.0])
        assert len(set(np.frexp(np.abs(A).sum(axis=0).max() * hs)[1])) > 4
        Phis, Qs = propagator(A, D, hs)
        assert Phis.shape == Qs.shape == (len(hs), n, n)
        for h, Phi_k, Q_k in zip(hs, Phis, Qs):
            Phi, Q = propagator(A, D, h)
            assert np.array_equal(Phi_k, Phi)
            assert np.array_equal(Q_k, Q)


class TestDiffusionMatrix:
    def test_rejects_negative(self):
        g = np.diag([1.0, 1.0, 1.0, -1.0])
        with pytest.raises(PSDError):
            DiffusionMatrix(g)

    def test_rejects_asymmetric(self):
        g = np.eye(4)
        g[0, 1] = 0.5
        with pytest.raises(PSDError):
            DiffusionMatrix(g)

    def test_rejects_indefinite_with_huge_entries(self):
        assert_matrix_rule_at_huge_entries(DiffusionMatrix, psd=True)

    @pytest.mark.parametrize("exponent", SCALE_EXPONENTS)
    def test_verdicts_do_not_depend_on_scale(self, rng, exponent):
        assert_matrix_rule_at_scale(rng, DiffusionMatrix, exponent, psd=True)

    def test_accepts_boundary(self):
        # rank-deficient PSD matrix, exactly on the cone boundary
        v = np.array([1.0, 0.0, 0.0, -1.0])
        DiffusionMatrix(np.outer(v, v))

    def test_psd_implies_offdiagonal_bound(self, rng):
        gs = random_psd_batch(rng, 100_000)
        diag = np.einsum("bii->bi", gs)
        pair_cap = 0.5 * (diag[:, :, None] + diag[:, None, :])
        assert np.all(np.abs(gs) <= pair_cap + 1e-12 * np.abs(gs).max())

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_psd_offdiagonal_bound_hypothesis(self, seed):
        g = random_psd_batch(np.random.default_rng(seed), 1)[0]
        diag = np.diag(g)
        cap = 0.5 * (diag[:, None] + diag[None, :])
        assert np.all(np.abs(g) <= cap + 1e-12 * max(1.0, np.abs(g).max()))


class TestDimensionless:
    def test_hamiltonian_structure(self, lab_setup):
        sys = linearize(lab_setup)
        Hbar, _ = to_dimensionless(sys, DiffusionMatrix.zero())
        assert Hbar[0, 0] == pytest.approx(sys.Omega1, rel=1e-12)
        assert Hbar[1, 1] == pytest.approx(sys.Omega2, rel=1e-12)
        assert Hbar[2, 2] == pytest.approx(sys.Omega1, rel=1e-12)
        assert Hbar[3, 3] == pytest.approx(sys.Omega2, rel=1e-12)
        kbar = sys.K / (np.sqrt(sys.m1 * sys.m2) * np.sqrt(sys.Omega1 * sys.Omega2))
        assert Hbar[0, 1] == pytest.approx(kbar, rel=1e-12)

    def test_closed_form_coupling_is_hbar_entry(self, rng):
        # the bound chain's closed form and the one dimensionless view agree
        # on seeded trap and pendulum systems over 18 decades of mass
        for _ in range(500):
            m1, m2 = 10 ** rng.uniform(-15.0, 3.0, 2)
            Om1, Om2 = 10 ** rng.uniform(-3.0, 5.0, 2)
            d = 10 ** rng.uniform(-2.0, 0.0)
            K = rng.uniform(0.0, 0.5) * np.sqrt(m1 * m2) * Om1 * Om2
            setup = PhysicalSetup(m1=m1, m2=m2, omega1=np.sqrt(Om1**2 + K / m1),
                                  omega2=np.sqrt(Om2**2 + K / m2), d=d,
                                  G=K * d**3 / (2 * m1 * m2))
            for sys in (linearize(setup), pendulum_system(setup, 10 ** rng.uniform(-3.0, 5.0))):
                Hbar, _ = to_dimensionless(sys, DiffusionMatrix.zero())
                assert dimensionless_coupling(sys) == pytest.approx(Hbar[0, 1], rel=1e-15,
                                                                    abs=0.0)

    def test_position_diffusion_block_scaling(self, lab_system):
        g = 3.7e5
        gamma = make_diffusion({(0, 0): g, (1, 1): g})
        _, gamma_bar = to_dimensionless(lab_system, gamma)
        m = lab_system.m1
        assert gamma_bar[0, 0] == pytest.approx(g * HBAR / (m * lab_system.Omega1), rel=1e-12)
        assert gamma_bar[1, 1] == pytest.approx(g * HBAR / (m * lab_system.Omega2), rel=1e-12)
        assert np.all(gamma_bar[2:, 2:] == 0.0)

    def test_scales_are_zero_point_units(self, lab_system):
        s = quadrature_scales(lab_system)
        m, Om = lab_system.m1, lab_system.Omega1
        assert s[0] == pytest.approx(np.sqrt(HBAR / (m * Om)), rel=1e-14)
        assert s[2] == pytest.approx(np.sqrt(m * HBAR * Om), rel=1e-14)

    def test_normal_modes_invariant_under_rescaling(self):
        # the transform is a symplectic congruence, so the first-moment
        # generator keeps its spectrum; catches unequal-mass scaling slips
        setup = PhysicalSetup(m1=1.0, m2=3.0, omega1=0.7, omega2=1.3, d=0.2)
        sys = linearize(setup)
        A_si, _ = langevin_model(setup, sys, np.zeros((4, 4)))
        A_dimless = symplectic_form() @ to_dimensionless(sys, DiffusionMatrix.zero())[0]
        e1 = np.sort(np.linalg.eigvals(A_si).imag)
        e2 = np.sort(np.linalg.eigvals(A_dimless).imag)
        assert np.allclose(e1, e2, rtol=1e-10, atol=1e-14)


class TestGaussianState:
    def test_ground_state(self):
        g = ground_state()
        assert np.allclose(g.V, 0.5 * np.eye(4))
        assert np.all(g.mean == 0.0)

    def test_rejects_asymmetric_covariance(self):
        V = np.eye(4)
        V[0, 1] = 0.3
        with pytest.raises(ValueError):
            GaussianState(np.zeros(4), V)

    def test_rejects_indefinite_with_huge_entries(self):
        # V need not be PSD: the uncertainty check reads it
        assert_matrix_rule_at_huge_entries(lambda V: GaussianState(np.zeros(4), V), psd=False)

    @pytest.mark.parametrize("exponent", SCALE_EXPONENTS)
    def test_verdicts_do_not_depend_on_scale(self, rng, exponent):
        assert_matrix_rule_at_scale(rng, lambda V: GaussianState(np.zeros(4), V), exponent,
                                    psd=False)


def test_no_runtime_path_loads_scipy():
    # scipy is a test-only dependency: importing the package and every path,
    # sampling, Welch estimation, reheating and the CLI simulate and reheat
    # commands included, must not load it.
    import gravdiff
    env = dict(os.environ, PYTHONPATH=str(Path(gravdiff.__file__).parents[1]))
    code = ("import sys, tempfile\n"
            "from pathlib import Path\n"
            "from gravdiff import bounds, cli, dynamics, feasibility, model, montecarlo, spectra\n"
            "setup = model.PhysicalSetup(m1=1.0, m2=1.0, omega1=1.0, omega2=1.0, d=0.1,\n"
            "                            eta=0.1, T=300.0)\n"
            "sys_lin = model.linearize(setup)\n"
            "gamma = bounds.minimal_diffusion(setup, 'mixed', omega=sys_lin.Omega1)\n"
            "bounds.final_bound(gamma, setup, sys_lin.Omega1)\n"
            "bounds.dimensional_bound(gamma, sys_lin)\n"
            "_, gamma_bar = model.to_dimensionless(sys_lin, gamma)\n"
            "bounds.strongest_bound(gamma_bar, sys_lin)\n"
            "bounds.weak_bound(gamma_bar, sys_lin)\n"
            "period = sys_lin.min_period()\n"
            "dynamics.evolve_covariance(model.ground_state(), sys_lin, gamma, period,\n"
            "                           period / 200)\n"
            "dynamics.entanglement_onset(model.ground_state(), sys_lin,\n"
            "                            model.DiffusionMatrix.zero(), period, period / 200)\n"
            "spectra.dns_fixed_source(setup, sys_lin, gamma, [0.5, 1.0, 2.0])\n"
            "feasibility.feasibility_report(feasibility.REFERENCE_PENDULUM)\n"
            "noise = montecarlo.NoiseModel.from_setup(setup, gamma, seed=1)\n"
            "montecarlo.stationary_covariance(setup, sys_lin, noise)\n"
            "ens = montecarlo.simulate(setup, sys_lin, noise, n_traj=2, dt=0.05, duration=300.0)\n"
            "montecarlo.welch_spectrum(ens, segment_len=1024)\n"
            "montecarlo.reheating_run(setup, sys_lin, noise, n_cycles=8, cycle_time=0.1)\n"
            "with tempfile.TemporaryDirectory() as out:\n"
            "    assert cli.main(['bound', '--table1', '--out', out]) == 0\n"
            "    cfg = Path(out) / 'pair.cfg'\n"
            "    cfg.write_text('m1_kg = 1.0\\nomega1_rad_s = 6.0\\nd_m = 0.1\\n'\n"
            "                   'T_K = 300.0\\neta_per_s = 0.1\\ngamma11 = 1e-3\\n')\n"
            "    for cmd, flags in (('simulate', ['--traj', '2', '--duration', '20',\n"
            "                                     '--welch-segment', '256']),\n"
            "                       ('reheat', ['--cycles', '8', '--cycle-time', '0.5'])):\n"
            "        argv = [cmd, '--config', str(cfg), '--seed', '3', *flags,\n"
            "                '--out', str(Path(out) / cmd)]\n"
            "        assert cli.main(argv) == 0, cmd\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip().splitlines()[-1] == "[]"


def test_import_loads_no_thread_pool():
    # concurrent.futures pulls in logging; only a threaded Monte Carlo run
    # may load it, not importing the package or its command-line front end.
    import gravdiff
    env = dict(os.environ, PYTHONPATH=str(Path(gravdiff.__file__).parents[1]))
    code = ("import sys\n"
            "import gravdiff.cli\n"
            "print(sorted(m for m in ('concurrent.futures', 'logging', 'queue')\n"
            "             if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_import_loads_no_output_layer():
    # the compute modules hand gravdiff.manifest plain columns and import
    # nothing from it: only the command-line front end loads the writers
    import gravdiff
    env = dict(os.environ, PYTHONPATH=str(Path(gravdiff.__file__).parents[1]))
    code = ("import sys\n"
            "import gravdiff\n"
            "print(sorted(m for m in ('gravdiff.manifest', 'gravdiff.ryu', 'hashlib', 'json')\n"
            "             if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_import_loads_no_scipy_signal_or_optimize():
    # scipy is a test-only dependency: importing the command-line front end,
    # a threaded run with its Welch estimate, both closed-form spectra and a
    # CSV write load no scipy module at all
    import gravdiff
    env = dict(os.environ, PYTHONPATH=str(Path(gravdiff.__file__).parents[1]))
    code = ("import sys, tempfile\n"
            "from pathlib import Path\n"
            "import numpy as np\n"
            "import gravdiff.cli\n"
            "from gravdiff import manifest, model, montecarlo as mc, spectra\n"
            "mc._workers = lambda n_jobs, job_samples: min(2, n_jobs)  # any CPU count\n"
            "setup = model.PhysicalSetup(m1=1.0, m2=1.0, omega1=1.0, omega2=1.0, d=0.1,\n"
            "                            eta=0.1, T=300.0)\n"
            "sys_lin = model.linearize(setup)\n"
            "gamma = model.DiffusionMatrix(1e-3 * np.eye(4))\n"
            "noise = mc.NoiseModel.from_setup(setup, gamma, seed=1)\n"
            "ens = mc.simulate(setup, sys_lin, noise, n_traj=2, dt=0.05, duration=20.0)\n"
            "welch = mc.welch_spectrum(ens, segment_len=128)\n"
            "for dns in (spectra.dns_fixed_source, spectra.dns_symmetric_pair):\n"
            "    dns(setup, sys_lin, gamma, [0.5, 1.0, 2.0])\n"
            "with tempfile.TemporaryDirectory() as out:\n"
            "    manifest.write_csv(Path(out) / 'welch.csv', ('omega', 'S'),\n"
            "                       (welch.omega, welch.S_total))\n"
            "assert 'concurrent.futures' in sys.modules  # the run was threaded\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_shared_and_validated_arrays_are_immutable():
    # every array the read-only rule of gravdiff.model makes immutable:
    # cached, module-level or validated
    from gravdiff import dynamics, montecarlo, ryu
    sys_lin = linearize(PhysicalSetup(m1=1.0, m2=2.0, omega1=1.0, omega2=1.5, d=0.1))
    state = GaussianState(np.arange(4.0), 0.5 * np.eye(4))
    A, D = np.array([[0.0, 1.0], [-1.0, -0.1]]), np.diag([0.0, 0.2])
    C, levels = montecarlo._sampler_kernels(A.tobytes(), D.tobytes(), 0.01)
    window, _, omega = montecarlo._welch_constants(100, 0.01)
    arrays = [sys_lin.H, sys_lin.H_fixed, DiffusionMatrix(np.eye(4)).gamma, state.mean, state.V,
              dynamics._J, dynamics._LJL, C, *levels, window, omega,
              ryu._exponent_table(), ryu._pow10(), ryu._digit_pairs(), ryu._words(),
              *ryu._layouts(), ryu._kept()]
    for arr in arrays:
        assert arr.flags.c_contiguous
        assert_immutable(arr)


def test_validated_gamma_cannot_be_made_non_psd():
    g = DiffusionMatrix(np.eye(4))
    with pytest.raises(ValueError):
        g.gamma.setflags(write=True)
    with pytest.raises(ValueError):
        g.gamma[0, 0] = -5.0
    assert np.array_equal(g.gamma, np.eye(4))
