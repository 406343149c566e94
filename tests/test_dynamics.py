"""Covariance evolution, uncertainty relation and PPT checks.

The integrator is cross-checked against an independent Lyapunov-form oracle

    V(t) = e^{At} V0 e^{A^T t} + int_0^t e^{As} D e^{A^T s} ds

evaluated by matrix exponentials and fine Simpson quadrature, a code path
sharing nothing with the block-exponential propagator.
"""

import numpy as np
import pytest
from scipy.linalg import expm

from gravdiff.bounds import dimensional_bound, minimal_diffusion
from gravdiff.constants import HBAR
from gravdiff.errors import NonPhysicalInputError, StepSizeError
from gravdiff import dynamics
from gravdiff.dynamics import (
    EvolutionResult,
    entanglement_onset,
    evolve_covariance,
    evolve_covariance_dimensionless,
    ppt_reflector,
    ppt_separable,
    uncertainty_valid,
)
from gravdiff.model import (
    DiffusionMatrix,
    GaussianState,
    PhysicalSetup,
    ground_state,
    linearize,
    symplectic_form,
    to_dimensionless,
)

from conftest import (
    lyapunov_oracle,
    make_diffusion,
    onset_oracle,
    random_psd_batch,
    strong_coupling_setup,
)

# Frozen analytic value: the partially transposed two-mode squeezed state at
# r = 0.5 has smallest symplectic eigenvalue e^{-2r}/2, so the PPT matrix's
# minimum eigenvalue is e^{-1}/2 - 1/2 (independent script, also re-derived
# numerically below).
TMSV_R05_PPT_MIN = -0.31606027941427883


def symmetric_dimensionless(kbar=0.3, omega=1.0):
    """(Hbar, Kbar) for a symmetric pair with the given coupling ratio."""
    H = np.diag([omega, omega, omega, omega]).astype(float)
    H[0, 1] = H[1, 0] = kbar * omega
    return H, kbar * omega


def tmsv_covariance(r):
    """Two-mode squeezed covariance in (x1, x2, p1, p2) ordering, hbar = 1."""
    c, s = np.cosh(2 * r), np.sinh(2 * r)
    V = np.zeros((4, 4))
    V[0, 0] = V[1, 1] = V[2, 2] = V[3, 3] = 0.5 * c
    V[0, 1] = V[1, 0] = 0.5 * s
    V[2, 3] = V[3, 2] = -0.5 * s
    return V


class TestUncertainty:
    def test_ground_state_saturates(self):
        ok, eig = uncertainty_valid(ground_state())
        assert ok
        assert eig == pytest.approx(0.0, abs=1e-14)

    def test_thermal_like(self):
        ok, eig = uncertainty_valid(GaussianState(np.zeros(4), np.eye(4)))
        assert ok
        assert eig == pytest.approx(0.5, rel=1e-12)

    def test_sub_heisenberg_invalid(self):
        ok, eig = uncertainty_valid(GaussianState(np.zeros(4), 0.25 * np.eye(4)))
        assert not ok
        assert eig == pytest.approx(-0.25, rel=1e-12)


class TestPPT:
    def test_product_ground_state_separable(self):
        ok, eig = ppt_separable(ground_state())
        assert ok
        assert eig == pytest.approx(0.0, abs=1e-14)

    def test_two_mode_squeezed_entangled(self):
        state = GaussianState(np.zeros(4), tmsv_covariance(0.5))
        ok, eig = ppt_separable(state)
        assert not ok
        assert eig == pytest.approx(TMSV_R05_PPT_MIN, rel=1e-12)

    def test_thermal_identity_separable(self):
        ok, _ = ppt_separable(GaussianState(np.zeros(4), np.eye(4)))
        assert ok

    def test_reflecting_either_mode_is_equivalent(self, rng):
        J = symplectic_form()
        for _ in range(50):
            V = 0.5 * np.eye(4) + random_psd_batch(rng, 1)[0]
            L1, L2 = np.diag([1.0, 1.0, -1.0, 1.0]), ppt_reflector()
            e1 = np.linalg.eigvalsh(V + 0.5j * (L1 @ J @ L1)).min()
            e2 = np.linalg.eigvalsh(V + 0.5j * (L2 @ J @ L2)).min()
            assert e1 == pytest.approx(e2, rel=1e-12, abs=1e-14)

    def test_reflected_state_form_is_equivalent(self, rng):
        # L V L + (i/2) J and V + (i/2) L J L have identical spectra
        J = symplectic_form()
        L = ppt_reflector()
        for _ in range(50):
            V = 0.5 * np.eye(4) + random_psd_batch(rng, 1)[0]
            e1 = np.linalg.eigvalsh(L @ V @ L + 0.5j * J)
            e2 = np.linalg.eigvalsh(V + 0.5j * (L @ J @ L))
            assert np.allclose(e1, e2, rtol=1e-12, atol=1e-14)


class TestEvolve:
    def test_ground_state_stationary_without_noise_or_coupling(self):
        Hbar = np.diag([1.0, 1.0, 1.0, 1.0])
        res = evolve_covariance_dimensionless(
            0.5 * np.eye(4), Hbar, np.zeros((4, 4)), t_end=20.0, dt=0.01
        )
        for state in res.states:
            assert np.allclose(state.V, 0.5 * np.eye(4), atol=1e-12)

    def test_tracks_are_read_only_views(self):
        res = evolve_covariance_dimensionless(
            0.5 * np.eye(4), np.eye(4), np.zeros((4, 4)), t_end=1.0, dt=0.01
        )
        tracks = (res.times, res.V, res.mean, res.ppt_min_eig, res.unc_min_eig)
        for track in tracks:
            with pytest.raises(ValueError, match="read-only"):
                track.flat[0] = 1.0
        # a fresh track is the caller's own: it may make it writeable again
        res.ppt_min_eig.setflags(write=True)
        res.ppt_min_eig[0] = 1.0
        assert res.ppt_min_eig[0] == 1.0
        # a caller's array is viewed, not copied, and stays writeable
        times = np.arange(3.0)
        ours = EvolutionResult(times, np.zeros((3, 4, 4)), np.zeros((3, 4)), np.zeros(3),
                               np.zeros(3))
        assert np.shares_memory(times, ours.times)
        times[0] = -1.0
        assert ours.times[0] == -1.0

    def test_coupling_without_diffusion_entangles_quickly(self):
        Hbar, _ = symmetric_dimensionless(kbar=0.3)
        res = evolve_covariance_dimensionless(
            0.5 * np.eye(4), Hbar, np.zeros((4, 4)), t_end=2 * np.pi, dt=0.01
        )
        assert res.first_ppt_violation() is not None
        assert res.times[res.first_ppt_violation()] < 0.25 * 2 * np.pi

    def test_position_diffusion_matches_lyapunov_block(self):
        # K = 0: mode 1 decouples; oracle runs on its 2x2 (x1, p1) block.
        om, gbar = 1.0, 0.05
        Hbar = np.diag([om, om, om, om])
        gamma_bar = np.diag([gbar, gbar, 0.0, 0.0])
        t_end, dt = 7.3, 0.005
        res = evolve_covariance_dimensionless(0.5 * np.eye(4), Hbar, gamma_bar, t_end, dt)
        A1 = np.array([[0.0, om], [-om, 0.0]])
        D1 = np.array([[0.0, 0.0], [0.0, gbar]])
        V_oracle = lyapunov_oracle(A1, D1, 0.5 * np.eye(2), res.times[-1])
        V_block = res.states[-1].V[np.ix_([0, 2], [0, 2])]
        assert np.allclose(V_block, V_oracle, rtol=1e-8, atol=1e-10)
        # position variance grows under momentum kicks... position diffusion
        # feeds x through the p-block rotation either way
        assert res.states[-1].V[0, 0] > 0.5

    def test_full_4x4_matches_lyapunov(self, rng):
        Hbar, _ = symmetric_dimensionless(kbar=0.25)
        gamma_bar = random_psd_batch(rng, 1, scale=0.01)[0]
        t_end, dt = 5.0, 0.005
        res = evolve_covariance_dimensionless(0.5 * np.eye(4), Hbar, gamma_bar, t_end, dt)
        J = symplectic_form()
        A = J @ Hbar
        D = J @ gamma_bar @ J.T
        V_oracle = lyapunov_oracle(A, D, 0.5 * np.eye(4), t_end)
        assert np.allclose(res.states[-1].V, V_oracle, rtol=1e-8, atol=1e-10)

    def test_exact_at_coarse_step(self):
        # Each step is the exact linear-Gaussian map, so a coarse grid lands
        # on the oracle to rounding.
        Hbar, _ = symmetric_dimensionless(kbar=0.25)
        gamma_bar = np.diag([0.03, 0.03, 0.01, 0.01])
        t_end = 4.0
        J = symplectic_form()
        A = J @ Hbar
        D = J @ gamma_bar @ J.T
        V_exact = lyapunov_oracle(A, D, 0.5 * np.eye(4), t_end, n_nodes=4001)
        res = evolve_covariance_dimensionless(0.5 * np.eye(4), Hbar, gamma_bar, t_end, 0.05)
        assert np.abs(res.V[-1] - V_exact).max() <= 1e-12

    def test_symmetry_preserved(self, rng):
        Hbar, _ = symmetric_dimensionless(kbar=0.2)
        gamma_bar = random_psd_batch(rng, 1, scale=0.1)[0]
        res = evolve_covariance_dimensionless(0.5 * np.eye(4), Hbar, gamma_bar, 10.0, 0.01)
        for st in res.states:
            assert np.linalg.norm(st.V - st.V.T) <= 1e-12 * max(np.linalg.norm(st.V), 1.0)

    def test_physicality_preserved_smoke(self, rng):
        # full randomized suite lives in the acceptance tests
        for _ in range(20):
            om1, om2 = rng.uniform(0.5, 2.0, size=2)
            kbar = 0.8 * min(om1, om2) * rng.uniform(0.1, 1.0)
            Hbar = np.diag([om1, om2, om1, om2])
            Hbar[0, 1] = Hbar[1, 0] = kbar
            gamma_bar = random_psd_batch(rng, 1, scale=0.05)[0]
            V0 = 0.5 * np.eye(4) + random_psd_batch(rng, 1, scale=0.3)[0]
            res = evolve_covariance_dimensionless(V0, Hbar, gamma_bar, 12.0, 0.01)
            assert res.unc_min_eig.min() >= -1e-8

    def test_mean_follows_drift(self):
        Hbar = np.diag([1.0, 1.0, 1.0, 1.0])
        mean0 = np.array([1.0, 0.0, 0.0, 0.0])
        res = evolve_covariance_dimensionless(
            0.5 * np.eye(4), Hbar, np.zeros((4, 4)), 2 * np.pi, 0.005, mean0=mean0
        )
        # one full period of a unit-frequency oscillator returns the mean
        assert np.allclose(res.states[-1].mean, mean0, atol=1e-9)
        quarter = len(res.times) // 4
        assert res.states[quarter].mean[2] == pytest.approx(-1.0, abs=1e-6)

    def test_long_run_matches_closed_form_rotation(self):
        # Uncoupled modes without diffusion rotate phase space: (x, p) of
        # mode j turns by Omega_j t. Over 50 periods of mode 1 (10,001
        # samples) a sample is one propagation from t = 0, so rounding does
        # not build up with the sample's index.
        Omega = np.array([1.0, np.sqrt(2.0)])
        Hbar = np.diag(np.tile(Omega, 2))
        V0 = np.diag([0.5 * np.exp(-1.0), 0.5 * np.exp(0.6), 0.5 * np.exp(1.0), 0.5 * np.exp(-0.6)])
        mean0 = np.array([0.3, -0.7, 1.1, 0.4])
        period = 2.0 * np.pi
        res = evolve_covariance_dimensionless(
            V0, Hbar, np.zeros((4, 4)), 50 * period, period / 200, mean0=mean0
        )
        assert len(res.times) == 10_001
        c = np.cos(np.outer(res.times, Omega))
        s = np.sin(np.outer(res.times, Omega))
        Phi = np.zeros((len(res.times), 4, 4))
        for j in range(2):
            Phi[:, j, j] = Phi[:, 2 + j, 2 + j] = c[:, j]
            Phi[:, j, 2 + j] = s[:, j]
            Phi[:, 2 + j, j] = -s[:, j]
        V_exact = Phi @ V0 @ Phi.transpose(0, 2, 1)
        mean_exact = Phi @ mean0
        assert np.abs(res.V - V_exact).max() <= 1e-12 * np.abs(V_exact).max()
        assert np.abs(res.mean - mean_exact).max() <= 1e-12 * np.abs(mean_exact).max()

    def test_times_are_exact_multiples_ending_at_t_end(self):
        Hbar = np.diag([1.0, 1.3, 1.0, 1.3])
        dt, t_end = 0.01, 12.3456
        res = evolve_covariance_dimensionless(0.5 * np.eye(4), Hbar, np.zeros((4, 4)), t_end, dt)
        n = len(res.times) - 1
        assert n == 1235
        assert np.array_equal(res.times[:-1], np.arange(n) * dt)
        assert res.times[-1] == t_end

    def test_step_size_error(self):
        Hbar = np.diag([1.0, 1.0, 1.0, 1.0])
        with pytest.raises(StepSizeError):
            evolve_covariance_dimensionless(0.5 * np.eye(4), Hbar, np.zeros((4, 4)), 1.0, 0.2)

    @pytest.mark.parametrize("t_end,dt", [
        (1.0, np.nan), (1.0, -np.inf), (np.nan, 0.01), (np.inf, 0.01), (-1.0, 0.01),
    ])
    def test_bad_span_raises_step_size_error(self, t_end, dt):
        Hbar = np.diag([1.0, 1.0, 1.0, 1.0])
        with pytest.raises(StepSizeError):
            evolve_covariance_dimensionless(0.5 * np.eye(4), Hbar, np.zeros((4, 4)), t_end, dt)

    def test_nonphysical_input_rejected(self):
        Hbar = np.diag([1.0, 1.0, 1.0, 1.0])
        with pytest.raises(NonPhysicalInputError):
            evolve_covariance_dimensionless(0.25 * np.eye(4), Hbar, np.zeros((4, 4)), 1.0, 0.01)

    def test_wrapper_runs_on_physical_setup(self):
        setup = strong_coupling_setup(kbar_over_omega=0.2)
        sys = linearize(setup)
        gamma = make_diffusion({(0, 0): sys.K / HBAR, (1, 1): sys.K / HBAR})
        period = sys.min_period()
        res = evolve_covariance(ground_state(), sys, gamma, 2 * period, period / 400)
        assert res.unc_min_eig.min() >= -1e-8

    def test_state_as_built_runs_through_both_front_ends(self):
        # GaussianState(mean, V) is dimensionless: no flag, no conversion step
        setup = strong_coupling_setup(kbar_over_omega=0.3)
        sys = linearize(setup)
        period = sys.min_period()
        zero = DiffusionMatrix.zero()
        mean0 = np.array([0.3, 0.0, 0.0, -0.2])
        state = GaussianState(mean0, 0.5 * np.eye(4))
        res = evolve_covariance(state, sys, zero, period, period / 200)
        ref = evolve_covariance(ground_state(), sys, zero, period, period / 200)
        assert np.array_equal(res.mean[0], mean0)
        assert np.array_equal(res.V, ref.V)
        onset = entanglement_onset(state, sys, zero, 2 * period, period / 200)
        assert onset == entanglement_onset(ground_state(), sys, zero, 2 * period, period / 200)
        assert 0.0 < onset <= period

    def test_natural_units_setup_uses_its_hbar(self):
        # hbar = 1 with unit masses and traps: the dimensionless view, the
        # evolution and the SI bound all take the setup's hbar, so the
        # bound-saturating matrix stays separable and sits on the bound
        setup = PhysicalSetup(m1=1.0, m2=1.0, omega1=1.0, omega2=1.0, d=2.0, G=0.01, hbar=1.0)
        sys = linearize(setup)
        gamma = minimal_diffusion(setup, "mixed", omega=sys.Omega1)
        _, gamma_bar = to_dimensionless(sys, gamma)
        s = np.sqrt([1.0 / sys.Omega1, 1.0 / sys.Omega2, sys.Omega1, sys.Omega2])
        assert np.allclose(gamma_bar, gamma.matrix * np.outer(s, s), rtol=1e-12, atol=0.0)
        period = sys.min_period()
        res = evolve_covariance(ground_state(), sys, gamma, 3 * period, period / 1000)
        assert res.ppt_min_eig.min() >= -1e-8
        rep = dimensional_bound(gamma, sys)
        assert rep.satisfied
        assert rep.margin == pytest.approx(0.0, abs=1e-9 * rep.rhs)


class TestShortTimeExpansion:
    """d/dt of the PPT quadratic form at t = 0 against its closed form."""

    def test_probe_family_annihilates_static_term(self, rng):
        J = symplectic_form()
        L = ppt_reflector()
        M0 = 0.5 * np.eye(4) + 0.5j * (L @ J @ L)
        for _ in range(200):
            a, b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            z = np.array([a, -b, 1j * a, 1j * b])
            assert abs(np.conj(z) @ M0 @ z) < 1e-12

    def test_derivative_matches_closed_form(self, rng):
        for _ in range(200):
            om = rng.uniform(0.5, 2.0)
            kbar = rng.uniform(0.0, 0.8) * om
            Hbar, _ = symmetric_dimensionless(kbar=kbar / om, omega=om)
            g = random_psd_batch(rng, 1, scale=0.1)[0]
            J = symplectic_form()
            A = J @ Hbar
            D = J @ g @ J.T
            Mdot = A @ (0.5 * np.eye(4)) + (0.5 * np.eye(4)) @ A.T + D

            a, b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            z = np.array([a, -b, 1j * a, 1j * b])
            numeric = float(np.real(np.conj(z) @ Mdot @ z))

            alpha = np.angle(a) - np.angle(b)
            ra, rb = abs(a), abs(b)
            closed = (
                (g[0, 0] + g[2, 2]) * ra**2
                + (g[1, 1] + g[3, 3]) * rb**2
                + 2 * ra * rb * (
                    (g[0, 1] - g[2, 3]) * np.cos(alpha)
                    - (g[0, 3] + g[1, 2] + kbar) * np.sin(alpha)
                )
            )
            assert numeric == pytest.approx(closed, rel=1e-10, abs=1e-12)
            assert np.sign(round(numeric, 12)) == np.sign(round(closed, 12))


class TestOnset:
    def test_uncoupled_never_entangles(self):
        setup = strong_coupling_setup(kbar_over_omega=0.3)
        sys = linearize(setup)
        # remove the coupling but keep the trap: zero-gravity variant
        free = PhysicalSetup(m1=setup.m1, m2=setup.m2, omega1=setup.omega1,
                             omega2=setup.omega2, d=setup.d, G=0.0)
        sys0 = linearize(free)
        period = sys0.min_period()
        onset = entanglement_onset(ground_state(), sys0, DiffusionMatrix.zero(),
                                   3 * period, period / 200)
        assert onset is None

    def test_bare_coupling_entangles_within_one_period(self):
        setup = strong_coupling_setup(kbar_over_omega=0.3)
        sys = linearize(setup)
        period = sys.min_period()
        onset = entanglement_onset(ground_state(), sys, DiffusionMatrix.zero(),
                                   2 * period, period / 200)
        assert onset is not None
        assert onset <= period

    def test_entangled_start_onset_is_zero(self):
        # a two-mode squeezed start already violates PPT at t = 0
        sys = linearize(strong_coupling_setup(kbar_over_omega=0.3))
        period = sys.min_period()
        state = GaussianState(np.zeros(4), tmsv_covariance(0.5))
        onset = entanglement_onset(state, sys, DiffusionMatrix.zero(), period, period / 200)
        assert onset == 0.0

    def test_trace_saturating_diffusion_prevents_onset(self):
        # gamma_bar = diag(Kbar, Kbar, 0, 0) sits exactly on the trace bound
        setup = strong_coupling_setup(kbar_over_omega=0.3)
        sys = linearize(setup)
        g11 = sys.K / HBAR
        gamma = make_diffusion({(0, 0): g11, (1, 1): g11})
        period = sys.min_period()
        onset = entanglement_onset(ground_state(), sys, gamma, 4 * period, period / 400)
        assert onset is None

    @pytest.mark.parametrize("t_max,dt", [
        (1.0, np.nan), (1.0, -np.inf), (np.nan, 0.01), (np.inf, 0.01), (-1.0, 0.01),
    ])
    def test_bad_span_raises_step_size_error(self, lab_system, t_max, dt):
        with pytest.raises(StepSizeError, match="t_max" if np.isfinite(dt) else "dt"):
            entanglement_onset(ground_state(), lab_system, DiffusionMatrix.zero(), t_max, dt)

    def test_onset_resolution(self):
        setup = strong_coupling_setup(kbar_over_omega=0.3)
        sys = linearize(setup)
        period = sys.min_period()
        dt = period / 200
        onset = entanglement_onset(ground_state(), sys, DiffusionMatrix.zero(), period, dt)
        fine = entanglement_onset(ground_state(), sys, DiffusionMatrix.zero(), period, dt / 16)
        assert onset == pytest.approx(fine, abs=dt / 10)

    @pytest.mark.parametrize("scale", [0.0, 0.99, 1.0])
    def test_matches_full_track_oracle_on_workload_triple(self, scale):
        # the onset workload: gamma = 0, 0.99x and 1x the mixed saturating
        # allocation, over 3 periods at P/1000
        setup = strong_coupling_setup(kbar_over_omega=0.3)
        sys = linearize(setup)
        gamma = minimal_diffusion(setup, "mixed", omega=sys.Omega1).scaled(scale)
        period = sys.min_period()
        args = (ground_state(), sys, gamma, 3 * period, period / 1000)
        expected, idx = onset_oracle(*args)
        assert (idx is None) == (scale == 1.0)
        assert entanglement_onset(*args) == expected

    def test_matches_full_track_oracle_past_first_block(self):
        # a warm start delays the first violating sample past the first
        # block of samples the scan propagates and checks
        sys = linearize(strong_coupling_setup(kbar_over_omega=0.3))
        period = sys.min_period()
        args = (GaussianState(np.zeros(4), 0.6 * np.eye(4)), sys, DiffusionMatrix.zero(),
                period / 2, period / 10_000)
        expected, idx = onset_oracle(*args)
        assert idx > dynamics._EIG_BLOCK
        assert entanglement_onset(*args) == expected

    def test_late_onset_within_resolution(self):
        # A warm start delays the onset past the first grid step, so the
        # bisection must move both ends of the bracket; the oracle is the
        # noise-free closed form V(t) = e^{At} V0 e^{A^T t}.
        setup = strong_coupling_setup(kbar_over_omega=0.3)
        sys = linearize(setup)
        period = sys.min_period()
        dt = period / 200
        V0 = 0.52 * np.eye(4)
        onset = entanglement_onset(GaussianState(np.zeros(4), V0),
                                   sys, DiffusionMatrix.zero(), period, dt)
        Hbar, _ = to_dimensionless(sys, DiffusionMatrix.zero())
        J = symplectic_form()
        A = J @ Hbar
        L = ppt_reflector()

        def ppt(t):
            E = expm(A * t)
            return np.linalg.eigvalsh(E @ V0 @ E.T + 0.5j * (L @ J @ L)).min()

        assert onset > 2 * dt
        assert ppt(onset - dt / 100) >= -1e-8
        assert ppt(onset + dt / 100) < -1e-8
