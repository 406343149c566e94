"""Langevin sampler, Welch estimator, reheating protocol and the rescale map.

Stochastic checks run with fixed seeds; tolerances are 3 sigma of the
relevant estimator unless stated otherwise.
"""

import dataclasses

import numpy as np
import pytest

from gravdiff.constants import HBAR, KB
from gravdiff.errors import ConfigError, ProtocolError, SeedError, StabilityError
from gravdiff.model import (
    DiffusionMatrix,
    PhysicalSetup,
    langevin_drift,
    linearize,
    pendulum_system,
    propagator,
    to_dimensionless,
)
from gravdiff.montecarlo import (
    NoiseModel,
    TrajectoryEnsemble,
    desk_rescale,
    diffusion_2x2,
    effective_frequency,
    phonon_heating_rate,
    read_raw_trajectories,
    reheating_run,
    simulate,
    stationary_covariance,
    welch_spectrum,
    write_raw_trajectories,
    _noise_factor,
)

from conftest import lyapunov_oracle, make_diffusion, ou_loop_oracle, strong_coupling_setup


def desk_pair(Q=10.0, T=300.0, kbar=0.2, omega=2 * np.pi):
    base = strong_coupling_setup(kbar_over_omega=kbar, omega=omega)
    return dataclasses.replace(base, eta=omega / Q, T=T)


def zero_noise(seed=1):
    return NoiseModel(gamma=DiffusionMatrix.zero(), thermal_intensity=0.0, seed=seed)


class TestNoiseModel:
    def test_factor_reproduces_gamma(self, rng):
        from conftest import random_psd_batch
        g = random_psd_batch(rng, 1, scale=3.0)[0]
        L = _noise_factor(g)
        assert np.allclose(L @ L.T, g, rtol=1e-12, atol=1e-12 * np.linalg.norm(g))
        # positive definite: the plain Cholesky factor, bit for bit
        assert np.array_equal(L, np.linalg.cholesky(g))

    def test_factor_handles_boundary_matrix(self):
        v = np.array([1.0, 0.0, 0.0, -1.0])
        g = np.outer(v, v)
        L = _noise_factor(g)
        assert np.allclose(L @ L.T, g, atol=1e-12 * np.linalg.norm(g))

    def test_thermal_intensity_from_setup(self):
        setup = desk_pair()
        nm = NoiseModel.from_setup(setup, DiffusionMatrix.zero(), seed=3)
        assert nm.thermal_intensity == pytest.approx(
            2 * setup.eta * setup.m1 * KB * setup.T, rel=1e-12, abs=0.0)

    def test_factor_projects_indefinite_matrix_within_tolerance(self):
        # PSD within PSD_RTOL, but too negative for a jittered Cholesky
        Q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((4, 4)))
        g = Q @ np.diag([1.0, 0.5, 0.2, -5e-11]) @ Q.T
        L = _noise_factor(g)
        assert np.allclose(L @ L.T, g, rtol=0.0, atol=1e-10 * np.linalg.norm(g))
        # the sampler runs on such a gamma
        setup = desk_pair()
        noise = NoiseModel(gamma=DiffusionMatrix(g), thermal_intensity=0.0, seed=7)
        ens = simulate(setup, linearize(setup), noise, n_traj=4, dt=0.005, duration=1.0)
        assert np.all(np.isfinite(ens.x)) and np.all(np.isfinite(ens.p))

    def test_seed_type_checked(self):
        with pytest.raises(SeedError):
            NoiseModel(gamma=DiffusionMatrix.zero(), thermal_intensity=0.0, seed=1.5)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_out_of_range(self, seed):
        with pytest.raises(SeedError, match="2\\*\\*64"):
            NoiseModel(gamma=DiffusionMatrix.zero(), thermal_intensity=0.0, seed=seed)


class TestStationaryCovariance:
    def test_matches_lyapunov_solver(self, rng):
        # scipy's Bartels-Stewart solver is the oracle on well-conditioned
        # drifts: Q from 0.2 (eta = 31 s^-1) to 1000, mixed noise scales.
        from scipy.linalg import solve_continuous_lyapunov
        from conftest import random_psd_batch
        for _ in range(100):
            setup = desk_pair(Q=10 ** rng.uniform(-0.7, 3.0), T=rng.uniform(0.0, 300.0),
                              kbar=rng.uniform(0.0, 0.3))
            sys = linearize(setup)
            gamma = DiffusionMatrix(random_psd_batch(rng, 1, scale=10 ** rng.uniform(40, 62))[0])
            noise = NoiseModel.from_setup(setup, gamma, seed=1)
            V = stationary_covariance(setup, sys, noise)
            V_ref = solve_continuous_lyapunov(langevin_drift(setup, sys, partner_fixed=True), -diffusion_2x2(setup, noise))
            assert np.abs(V - V_ref).max() <= 1e-12 * np.abs(V_ref).max()

    def test_table1_pendulum_positive_definite(self):
        # eta = pi * 1e-14 s^-1 against Omega = 6.3e-4 rad/s: a general
        # Lyapunov solver returns a negative-definite V here.
        from gravdiff.bounds import minimal_diffusion
        from gravdiff.feasibility import REFERENCE_PENDULUM as p
        setup = PhysicalSetup(m1=p.m, m2=p.m, omega1=p.Omega, omega2=p.Omega, d=p.d,
                              T=p.T, eta=p.eta)
        sys = pendulum_system(setup, p.Omega)
        noise = NoiseModel.from_setup(setup, minimal_diffusion(setup, "position-only"), seed=1)
        V = stationary_covariance(setup, sys, noise)
        A, D = langevin_drift(setup, sys, partner_fixed=True), diffusion_2x2(setup, noise)
        assert np.all(np.linalg.eigvalsh(V) > 0.0)
        assert np.linalg.norm(A @ V + V @ A.T + D) <= 1e-12 * np.linalg.norm(D)
        # thermal equipartition dominates: V_pp = m kB T
        assert V[1, 1] == pytest.approx(p.m * KB * p.T, rel=1e-6)

    def test_no_noise_and_no_damping(self):
        setup = desk_pair()
        sys = linearize(setup)
        assert np.array_equal(stationary_covariance(setup, sys, zero_noise()), np.zeros((2, 2)))
        undamped = dataclasses.replace(setup, eta=0.0)
        noise = NoiseModel(gamma=make_diffusion({(0, 0): 1e60}), thermal_intensity=0.0, seed=1)
        with pytest.raises(StabilityError):
            stationary_covariance(undamped, sys, noise)


class TestSimulateDeterministic:
    def test_matches_underdamped_analytic_solution(self):
        setup = desk_pair(Q=100.0, T=0.0)
        sys = linearize(setup)
        m = setup.m1
        om_e = effective_frequency(sys)
        eta = setup.eta
        x0 = 1e-6
        period = 2 * np.pi / om_e
        ens = simulate(setup, sys, zero_noise(), n_traj=1, dt=period / 200,
                       duration=5 * period, init=(x0, 0.0))
        t = ens.times
        w_d = np.sqrt(om_e**2 - eta**2 / 4)
        envelope = np.exp(-eta * t / 2)
        x_exact = envelope * (x0 * np.cos(w_d * t) + (eta * x0 / 2) / w_d * np.sin(w_d * t))
        assert np.max(np.abs(ens.x[0] - x_exact)) <= 1e-6 * x0

    def test_rest_stays_at_rest(self):
        # x is the deviation from the shifted equilibrium: no static force acts
        setup = desk_pair(Q=5.0, T=0.0)
        sys = linearize(setup)
        ens = simulate(setup, sys, zero_noise(), n_traj=1, dt=0.002,
                       duration=10.0, init=(0.0, 0.0))
        assert np.max(np.abs(ens.x[0])) == 0.0


class TestSimulateStatistics:
    def test_thermal_equipartition(self):
        setup = dataclasses.replace(
            PhysicalSetup(m1=1.0, m2=1.0, omega1=2 * np.pi, omega2=2 * np.pi,
                          d=0.5, G=0.0),
            eta=2 * np.pi / 10.0, T=300.0)
        sys = linearize(setup)
        assert sys.K == 0.0
        noise = NoiseModel.from_setup(setup, DiffusionMatrix.zero(), seed=42)
        ens = simulate(setup, sys, noise, n_traj=64, dt=0.004, duration=95.0)
        per_traj = (ens.x**2).mean(axis=1)
        est = per_traj.mean()
        sigma = per_traj.std(ddof=1) / np.sqrt(ens.n_traj)
        expected = KB * setup.T / (setup.m1 * sys.Omega1**2)
        assert abs(est - expected) <= 3 * sigma
        assert sigma / expected < 0.05

    def test_position_diffusion_steady_state(self):
        setup = desk_pair(Q=10.0, T=0.0, kbar=0.15)
        sys = linearize(setup)
        g11 = 1e60
        gamma = make_diffusion({(0, 0): g11, (1, 1): g11})
        noise = NoiseModel.from_setup(setup, gamma, seed=99)
        ens = simulate(setup, sys, noise, n_traj=64, dt=0.004, duration=95.0)
        per_traj = (ens.x**2).mean(axis=1)
        est = per_traj.mean()
        sigma = per_traj.std(ddof=1) / np.sqrt(ens.n_traj)
        m, om_e, eta = setup.m1, effective_frequency(sys), setup.eta
        closed_form = HBAR**2 * g11 / (2 * m**2 * om_e**2 * eta)
        lyap = stationary_covariance(setup, sys, noise)[0, 0]
        assert closed_form == pytest.approx(lyap, rel=1e-12, abs=0.0)
        assert abs(est - closed_form) <= 3 * sigma

    def test_moments_match_drift_augmented_ode(self):
        from scipy.linalg import expm
        setup = desk_pair(Q=8.0, T=120.0, kbar=0.25)
        sys = linearize(setup)
        gamma = make_diffusion({(0, 0): 3e59, (1, 1): 3e59, (2, 2): 1e-11, (3, 3): 1e-11})
        noise = NoiseModel.from_setup(setup, gamma, seed=11)
        x0, p0 = 2e-5, 0.0
        t_end = 2.0
        ens = simulate(setup, sys, noise, n_traj=512, dt=0.002, duration=t_end,
                       init=(x0, p0))
        A = langevin_drift(setup, sys, partner_fixed=True)
        D = diffusion_2x2(setup, noise)
        mean_oracle = expm(A * t_end) @ np.array([x0, p0])
        V_oracle = lyapunov_oracle(A, D, np.zeros((2, 2)), t_end)
        xf, pf = ens.x[:, -1], ens.p[:, -1]
        n = ens.n_traj
        for est, sig, target in (
            (xf.mean(), xf.std(ddof=1) / np.sqrt(n), mean_oracle[0]),
            (pf.mean(), pf.std(ddof=1) / np.sqrt(n), mean_oracle[1]),
            (xf.var(ddof=1), xf.var(ddof=1) * np.sqrt(2.0 / n), V_oracle[0, 0]),
            (pf.var(ddof=1), pf.var(ddof=1) * np.sqrt(2.0 / n), V_oracle[1, 1]),
        ):
            assert abs(est - target) <= 3 * max(sig, 1e-300)

    def test_one_step_covariance_is_exact(self):
        # from a fixed start, step 1 has exactly the propagator's covariance Q;
        # an Euler-Maruyama step would leave var x at 0 for thermal noise
        setup = desk_pair(Q=10.0, T=300.0)
        sys = linearize(setup)
        noise = NoiseModel.from_setup(setup, DiffusionMatrix.zero(), seed=8)
        dt = 0.004
        ens = simulate(setup, sys, noise, n_traj=20000, dt=dt, duration=dt,
                       init=(0.0, 0.0))
        _, Q = propagator(langevin_drift(setup, sys, partner_fixed=True), diffusion_2x2(setup, noise), dt)
        z = np.stack([ens.x[:, 1], ens.p[:, 1]])
        n = z.shape[1]
        S = z @ z.T / n
        for i, j in ((0, 0), (0, 1), (1, 1)):
            sigma = np.sqrt((Q[i, i] * Q[j, j] + Q[i, j] ** 2) / n)
            assert abs(S[i, j] - Q[i, j]) <= 3 * sigma

    def test_weak_convergence_in_dt(self):
        setup = dataclasses.replace(
            PhysicalSetup(m1=1.0, m2=1.0, omega1=2 * np.pi, omega2=2 * np.pi,
                          d=0.5, G=0.0),
            eta=2 * np.pi / 5.0, T=400.0)
        sys = linearize(setup)
        noise = NoiseModel.from_setup(setup, DiffusionMatrix.zero(), seed=77)
        expected = KB * setup.T / (setup.m1 * sys.Omega1**2)
        ests = []
        for dt in (0.006, 0.003):
            ens = simulate(setup, sys, noise, n_traj=512, dt=dt, duration=160.0)
            ests.append((ens.x**2).mean())
        assert abs(ests[0] - ests[1]) / expected < 0.01

    def test_reproducible_and_order_independent(self):
        setup = desk_pair(Q=10.0, T=250.0)
        sys = linearize(setup)
        gamma = make_diffusion({(0, 0): 1e59, (1, 1): 1e59})
        noise = NoiseModel.from_setup(setup, gamma, seed=2024)
        a = simulate(setup, sys, noise, n_traj=6, dt=0.005, duration=3.0)
        b = simulate(setup, sys, noise, n_traj=6, dt=0.005, duration=3.0)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.p, b.p)
        # the first rows of a larger ensemble are bit-identical: stream k
        # depends only on (seed, k)
        big = simulate(setup, sys, noise, n_traj=9, dt=0.005, duration=3.0)
        assert np.array_equal(big.x[:6], a.x)
        # a shorter run is the prefix of a longer one
        short = simulate(setup, sys, noise, n_traj=2, dt=0.005, duration=6144 * 0.005)
        long = simulate(setup, sys, noise, n_traj=2, dt=0.005, duration=10240 * 0.005)
        n = short.x.shape[1]
        assert n == 6145 and long.x.shape[1] == 10241
        assert np.array_equal(long.x[:, :n], short.x)
        assert np.array_equal(long.p[:, :n], short.p)

    def test_rest_init(self):
        setup = desk_pair(Q=10.0, T=150.0)
        sys = linearize(setup)
        noise = NoiseModel.from_setup(setup, DiffusionMatrix.zero(), seed=6)
        ens = simulate(setup, sys, noise, n_traj=4, dt=0.005, duration=1.0,
                       init="rest")
        assert np.all(ens.x[:, 0] == 0.0) and np.all(ens.p[:, 0] == 0.0)

    def test_guardrails(self):
        setup = desk_pair()
        sys = linearize(setup)
        with pytest.raises(SeedError):
            simulate(setup, sys, zero_noise(), n_traj=0, dt=0.001, duration=1.0)
        with pytest.raises(StabilityError):
            simulate(setup, sys, zero_noise(), n_traj=1, dt=0.5, duration=1.0)
        with pytest.raises(ValueError):
            simulate(setup, sys, zero_noise(), n_traj=1, dt=0.001, duration=1.0,
                     init="warm")


def near_critical_case():
    """eta = 2 Omega_eff (1 + 1e-6): Phi has a nearly double eigenvalue."""
    base = dataclasses.replace(strong_coupling_setup(kbar_over_omega=0.2, omega=2 * np.pi),
                               T=250.0)
    om_e = effective_frequency(linearize(base))
    setup = dataclasses.replace(base, eta=2.0 * om_e * (1.0 + 1e-6))
    dt = 0.005 / setup.eta
    return setup, dict(dt=dt, duration=2000 * dt)


# Each case gives (setup, simulate keyword arguments); every dt respects
# 0.01 min(2 pi/Omega, 1/eta).
LOOP_ORACLE_CASES = {
    "underdamped": lambda: (desk_pair(Q=10.0, T=250.0), dict(dt=0.005, duration=3.0)),
    "overdamped": lambda: (desk_pair(Q=0.2, T=250.0),
                           dict(dt=3e-4, duration=1.5, stream_offset=5)),
    "near_critical": near_critical_case,
    "rest_init": lambda: (desk_pair(Q=10.0, T=250.0),
                          dict(dt=0.005, duration=3.0, init="rest")),
    "tuple_init": lambda: (desk_pair(Q=10.0, T=250.0),
                           dict(dt=0.005, duration=3.0, init=(2e-6, -1e-6))),
    "one_step": lambda: (desk_pair(Q=10.0, T=250.0),
                         dict(dt=0.005, duration=0.005, init=(2e-6, 0.0))),
    "past_two_blocks": lambda: (desk_pair(Q=10.0, T=250.0),
                                dict(dt=0.005, duration=10240 * 0.005)),
}


class TestSimulateMatchesLoopOracle:
    """The banded AR(2) solve reproduces the step-by-step recursion on the
    same draws, to rounding."""

    @pytest.mark.parametrize("case", sorted(LOOP_ORACLE_CASES))
    def test_matches_step_loop(self, case):
        setup, kwargs = LOOP_ORACLE_CASES[case]()
        sys = linearize(setup)
        if case == "overdamped":
            assert setup.eta > 2.0 * effective_frequency(sys)
        gamma = make_diffusion({(0, 0): 1e59, (1, 1): 1e59, (2, 2): 1e-12, (3, 3): 1e-12})
        noise = NoiseModel.from_setup(setup, gamma, seed=4242)
        ens = simulate(setup, sys, noise, n_traj=3, **kwargs)
        x_ref, p_ref = ou_loop_oracle(setup, sys, noise, 3, **kwargs)
        n_steps = ens.x.shape[1] - 1
        if case == "one_step":
            assert n_steps == 1
        if case == "past_two_blocks":
            assert n_steps == 10240
        if case == "underdamped":
            assert n_steps == 600
        for got, ref in ((ens.x, x_ref), (ens.p, p_ref)):
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))


class TestSimulateWorkMemory:
    """The whole run is one banded solve; work memory is one trajectory's."""

    def run(self, n_traj, n_steps=4000):
        setup = desk_pair(Q=10.0, T=250.0)
        sys = linearize(setup)
        gamma = make_diffusion({(0, 0): 1e59, (1, 1): 1e59})
        noise = NoiseModel.from_setup(setup, gamma, seed=99)
        return simulate(setup, sys, noise, n_traj=n_traj, dt=0.005,
                        duration=n_steps * 0.005)

    def test_one_banded_solve_per_call(self, monkeypatch):
        import scipy.linalg.lapack as lapack
        shapes = []
        real = lapack.dtbtrs

        def counting(ab, b, *args, **kwargs):
            shapes.append(b.shape)
            return real(ab, b, *args, **kwargs)

        monkeypatch.setattr(lapack, "dtbtrs", counting)
        self.run(n_traj=5, n_steps=10240)
        assert shapes == [(10241, 10)]

    def test_work_memory_independent_of_ensemble_width(self):
        import tracemalloc

        def work_bytes(n_traj):
            self.run(n_traj)                     # imports and caches first
            tracemalloc.start()
            try:
                ens = self.run(n_traj)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak - (ens.x.nbytes + ens.p.nbytes + ens.times.nbytes)

        narrow, wide = work_bytes(1), work_bytes(32)
        # one trajectory's draws, one temporary row and the 3-row band are
        # about 6 doubles per step (192 kB here); work arrays that grew with
        # the ensemble would add about 160 kB per extra trajectory
        assert narrow < 400_000
        assert abs(wide - narrow) <= 16_384


class TestWelch:
    def white_ensemble(self, intensity, dt=0.01, n_traj=100, n_samples=12800, seed=5):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n_traj, n_samples)) * np.sqrt(intensity / dt)
        return TrajectoryEnsemble(
            n_traj=n_traj, dt=dt, duration=(n_samples - 1) * dt,
            times=np.arange(n_samples) * dt, x=x, p=np.zeros_like(x),
            seeds=tuple(range(n_traj)), master_seed=seed,
        )

    def test_white_noise_calibration(self):
        intensity = 0.37
        ens = self.white_ensemble(intensity)
        spec = welch_spectrum(ens, segment_len=256, overlap=0.5)
        n_segments = ens.n_traj * ((ens.x.shape[1] - 256) // 128 + 1)
        assert n_segments >= 100
        assert np.allclose(spec.S_total, intensity, rtol=0.05)
        assert spec.S_total.mean() == pytest.approx(intensity, rel=0.01)

    def test_parseval_style_normalization(self):
        # integral of S dw / 2pi approximates the sample variance
        ens = self.white_ensemble(0.2)
        spec = welch_spectrum(ens, segment_len=512, overlap=0.5)
        dw = spec.omega[1] - spec.omega[0]
        var_spec = spec.S_total.sum() * dw / (2 * np.pi)
        assert var_spec == pytest.approx(ens.x.var(), rel=0.02)

    def test_thermal_oscillator_matches_analytic_at_resonance(self):
        from gravdiff.spectra import dns_fixed_source
        setup = dataclasses.replace(
            PhysicalSetup(m1=1.0, m2=1.0, omega1=2 * np.pi, omega2=2 * np.pi,
                          d=0.5, G=0.0),
            eta=2 * np.pi / 40.0, T=300.0)
        sys = linearize(setup)
        noise = NoiseModel.from_setup(setup, DiffusionMatrix.zero(), seed=31416)
        dt = 1.0 / 128.0
        ens = simulate(setup, sys, noise, n_traj=128, dt=dt, duration=640.0)
        nperseg = 32768
        spec = welch_spectrum(ens, segment_len=nperseg, overlap=0.5)
        analytic = dns_fixed_source(setup, sys, DiffusionMatrix.zero(), spec.omega)
        band = np.abs(spec.omega - sys.Omega1) <= 3 * (2 * np.pi / (nperseg * dt))
        ratio = spec.S_total[band].mean() / analytic.S_total[band].mean()
        assert abs(ratio - 1.0) < 0.10

    @pytest.mark.parametrize("n_traj", [1, 5])
    @pytest.mark.parametrize("n_samples,segment_len,overlap", [
        *[(1000, L, ov) for L in (256, 255, 3, 2) for ov in (0.0, 0.5, 0.75)],
        (1000, 1000, 0.5), (1001, 1001, 0.0),
    ])
    def test_matches_scipy_welch(self, n_traj, n_samples, segment_len, overlap):
        # scipy.signal.welch is the oracle; the package itself never loads it
        from scipy.signal import lfilter, welch
        dt = 0.01
        white = np.random.default_rng(17).standard_normal((n_traj, n_samples))
        x = lfilter([1.0], [1.0, -0.95], white, axis=-1)   # red AR(1) input
        ens = TrajectoryEnsemble(
            n_traj=n_traj, dt=dt, duration=(n_samples - 1) * dt,
            times=np.arange(n_samples) * dt, x=x, p=np.zeros_like(x),
            seeds=tuple(range(n_traj)), master_seed=17,
        )
        spec = welch_spectrum(ens, segment_len=segment_len, overlap=overlap)
        f, Pxx = welch(x, fs=1.0 / dt, window="hann", nperseg=segment_len,
                       noverlap=int(overlap * segment_len), detrend=False,
                       return_onesided=False, scaling="density", axis=-1)
        order = np.argsort(f)
        omega_ref, S_ref = 2.0 * np.pi * f[order], Pxx.mean(axis=0)[order]
        assert spec.omega.shape == omega_ref.shape == (segment_len,)
        assert np.max(np.abs(spec.omega - omega_ref)) <= 1e-12 * np.max(np.abs(omega_ref))
        assert np.max(np.abs(spec.S_total - S_ref)) <= 1e-12 * np.max(S_ref)

    def test_segmentation_errors(self):
        ens = self.white_ensemble(1.0, n_samples=1000)
        with pytest.raises(ConfigError):
            welch_spectrum(ens, segment_len=2000)
        with pytest.raises(ConfigError):
            welch_spectrum(ens, segment_len=100, overlap=1.0)
        # the periodic Hann window of one sample is zero: the estimate would be NaN
        with pytest.raises(ConfigError, match="segment_len must be in \\[2, 1000\\]"):
            welch_spectrum(ens, segment_len=1)

    def test_ensemble_reduction_is_associative(self):
        # averaging batch spectra equals the full-ensemble spectrum exactly,
        # so scheduling cannot change the result
        setup = desk_pair(Q=10.0, T=250.0)
        sys = linearize(setup)
        noise = NoiseModel.from_setup(setup, DiffusionMatrix.zero(), seed=314)
        full = simulate(setup, sys, noise, n_traj=8, dt=0.005, duration=6.0)
        spec_full = welch_spectrum(full, segment_len=256, overlap=0.5)
        parts = []
        for off in (0, 4):
            ens = simulate(setup, sys, noise, n_traj=4, dt=0.005, duration=6.0,
                           stream_offset=off)
            parts.append(welch_spectrum(ens, segment_len=256, overlap=0.5).S_total)
        assert np.allclose(0.5 * (parts[0] + parts[1]), spec_full.S_total,
                           rtol=1e-12, atol=0.0)


class TestReheat:
    def protocol_setup(self, Q=2000.0, n_T=160.0):
        omega = 2 * np.pi
        T = n_T * HBAR * omega / KB
        base = strong_coupling_setup(kbar_over_omega=0.05, omega=omega)
        return dataclasses.replace(base, eta=omega / Q, T=T)

    def test_zero_noise_rate_is_zero(self):
        setup = self.protocol_setup()
        sys = linearize(setup)
        res = reheating_run(setup, sys, zero_noise(seed=8), n_cycles=400,
                            cycle_time=2.0, detector_noise_N=0.0)
        assert abs(res.Gamma_hat) <= 3 * res.stderr

    def test_recovers_injected_rate(self):
        setup = self.protocol_setup()
        sys = linearize(setup)
        noise = NoiseModel.from_setup(setup, DiffusionMatrix.zero(), seed=12)
        gamma_true = phonon_heating_rate(setup, sys, noise)
        # cycle sized for about one quantum of heating
        tau = 1.0 / gamma_true
        res = reheating_run(setup, sys, noise, n_cycles=3000, cycle_time=tau,
                            detector_noise_N=1.0)
        assert abs(res.Gamma_hat - gamma_true) <= 3 * res.stderr
        assert res.rel_err < 0.1

    def test_cycle_time_guard(self):
        setup = self.protocol_setup(Q=100.0)
        sys = linearize(setup)
        with pytest.raises(ProtocolError):
            reheating_run(setup, sys, zero_noise(), n_cycles=10,
                          cycle_time=0.2 / setup.eta)

    @pytest.mark.parametrize("detector_noise", [-5.0, float("nan"), float("inf")])
    def test_detector_noise_guard(self, detector_noise):
        setup = self.protocol_setup()
        with pytest.raises(ValueError, match="detector_noise_N"):
            reheating_run(setup, linearize(setup), zero_noise(), n_cycles=10,
                          cycle_time=1.0, detector_noise_N=detector_noise)

    def test_gravitational_rate_cross_check(self):
        # phonon rate of the bound-saturating position noise equals the
        # design-calculus rate G m / (2 d^3 Omega) for beta-spheres
        from gravdiff.bounds import minimal_diffusion
        from gravdiff.feasibility import FeasibilityParams, gravitational_heating_rate
        params = FeasibilityParams(Omega=2 * np.pi * 1e-4, rho=2.26e4, R=0.03)
        setup = PhysicalSetup(m1=params.m, m2=params.m, omega1=params.Omega,
                              omega2=params.Omega, d=params.d)
        gamma = minimal_diffusion(setup, "position-only")
        noise = NoiseModel(gamma=gamma, thermal_intensity=0.0, seed=0)
        # pendulum-frequency system (resonance given, not renormalized)
        sys = pendulum_system(setup, params.Omega)
        # remove the coupling contribution to the effective frequency for the
        # comparison: the design formula is written at the bare resonance
        sys_bare = dataclasses.replace(sys, K=0.0)
        assert phonon_heating_rate(setup, sys_bare, noise) == pytest.approx(
            gravitational_heating_rate(params), rel=1e-10)


class TestRescale:
    def test_dimensionless_invariants_preserved(self, rng):
        from conftest import random_psd_batch
        setup = dataclasses.replace(
            strong_coupling_setup(kbar_over_omega=0.3, omega=2 * np.pi * 1e-4),
            eta=2 * np.pi * 1e-4 / 1e6, T=0.01)
        gamma = DiffusionMatrix(np.diag([1e20, 1e20, 1e-25, 1e-25]))
        s = 1e4
        new_setup, new_gamma = desk_rescale(setup, gamma, s)
        sys_old = linearize(setup)
        sys_new = linearize(new_setup)
        assert sys_new.Omega1 == pytest.approx(s * sys_old.Omega1, rel=1e-9)
        assert sys_new.K == pytest.approx(s**2 * sys_old.K, rel=1e-9)
        # occupation number and quality factor unchanged
        assert new_setup.kB * new_setup.T / (new_setup.hbar * sys_new.Omega1) == pytest.approx(
            setup.kB * setup.T / (setup.hbar * sys_old.Omega1), rel=1e-9)
        assert sys_new.Omega1 / new_setup.eta == pytest.approx(
            sys_old.Omega1 / setup.eta, rel=1e-12)
        # gamma_bar / Omega is the dimensionless diffusion strength
        _, gb_old = to_dimensionless(sys_old, gamma)
        _, gb_new = to_dimensionless(sys_new, new_gamma)
        assert np.allclose(gb_new / sys_new.Omega1, gb_old / sys_old.Omega1, rtol=1e-9)

    def test_heating_rate_per_cycle_invariant(self):
        setup = dataclasses.replace(
            strong_coupling_setup(kbar_over_omega=0.1, omega=2 * np.pi * 1e-3),
            eta=1e-9, T=0.02)
        gamma = DiffusionMatrix(np.diag([1e18, 1e18, 0.0, 0.0]))
        sys_old = linearize(setup)
        new_setup, new_gamma = desk_rescale(setup, gamma, 1e3)
        sys_new = linearize(new_setup)
        g_old = phonon_heating_rate(setup, sys_old, NoiseModel.from_setup(setup, gamma, 0))
        g_new = phonon_heating_rate(new_setup, sys_new,
                                    NoiseModel.from_setup(new_setup, new_gamma, 0))
        assert g_new / sys_new.Omega1 == pytest.approx(g_old / sys_old.Omega1, rel=1e-9)


class TestRawRecord:
    def test_round_trip(self, tmp_path):
        setup = desk_pair(Q=10.0, T=100.0)
        sys = linearize(setup)
        noise = NoiseModel.from_setup(setup, DiffusionMatrix.zero(), seed=5)
        ens = simulate(setup, sys, noise, n_traj=3, dt=0.005, duration=1.0)
        path = tmp_path / "traj.bin"
        write_raw_trajectories(path, ens)
        back = read_raw_trajectories(path)
        assert back.n_traj == ens.n_traj
        assert back.dt == ens.dt
        assert np.array_equal(back.x, ens.x)
        assert np.array_equal(back.p, ens.p)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ConfigError):
            read_raw_trajectories(path)
