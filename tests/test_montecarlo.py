"""Langevin sampler, Welch estimator, reheating protocol and the rescale map.

Stochastic checks run with fixed seeds; tolerances are 3 sigma of the
relevant estimator unless stated otherwise.
"""

import dataclasses
import os
import struct
import threading
import tracemalloc

import numpy as np
import pytest

from gravdiff import montecarlo
from gravdiff.constants import HBAR, KB
from gravdiff.errors import ConfigError, ProtocolError, SeedError, StabilityError
from gravdiff.manifest import read_raw_trajectories, write_raw_trajectories
from gravdiff.model import (
    DiffusionMatrix,
    PhysicalSetup,
    langevin_model,
    linearize,
    pendulum_system,
    propagator,
    to_dimensionless,
)
from gravdiff.montecarlo import (
    NoiseModel,
    TrajectoryEnsemble,
    desk_rescale,
    effective_frequency,
    phonon_heating_rate,
    reheating_run,
    simulate,
    stationary_covariance,
    step_limit,
    welch_spectrum,
    _BLOCK_STEPS,
    _CHUNK_BLOCKS,
    _DOMAIN_CYCLE,
    _chunk_buffers,
    _levels,
    _monitored_model,
    _noise_factor,
    _propagate,
)

from conftest import (assert_immutable, lyapunov_oracle, make_diffusion, ou_loop_oracle,
                      strong_coupling_setup)


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

    def test_thermal_intensity_keeps_its_product_order(self):
        setup = desk_pair(T=273.16)
        nm = NoiseModel.from_setup(setup, DiffusionMatrix.zero(), seed=3)
        assert nm.thermal_intensity == 2.0 * setup.eta * setup.m1 * KB * setup.T

    @pytest.mark.parametrize("eta,T", [(1.7e308, 0.0), (0.0, 1e300), (0.0, 0.0)])
    def test_thermal_intensity_is_exactly_zero_without_bath(self, eta, T):
        # 2 eta overflows to inf at eta = 1.7e308, and inf * 0 would be NaN
        setup = dataclasses.replace(desk_pair(), eta=eta, T=T)
        with np.errstate(all="raise"):
            nm = NoiseModel.from_setup(setup, DiffusionMatrix.zero(), seed=3)
        assert nm.thermal_intensity == 0.0

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

    @pytest.mark.parametrize("intensity", [np.nan, np.inf, -1.0])
    def test_thermal_intensity_is_finite_and_non_negative(self, intensity):
        with pytest.raises(ValueError, match="thermal_intensity must be non-negative"):
            NoiseModel(gamma=DiffusionMatrix.zero(), thermal_intensity=intensity, seed=1)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_out_of_range(self, seed):
        with pytest.raises(SeedError, match="2\\*\\*64"):
            NoiseModel(gamma=DiffusionMatrix.zero(), thermal_intensity=0.0, seed=seed)


def sfc64_child(seed, k):
    """Child k of the master seed's SeedSequence, on SFC64."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(k,))))


class TestStreamMap:
    """The seed-to-stream map: trajectory streams are SFC64 on SeedSequence
    children, reheating cycle streams counter-based Philox."""

    @pytest.mark.parametrize("seed", [0, 7, 2**32 + 1, 2**64 - 1])
    @pytest.mark.parametrize("k", [0, 1, 63, 2**32 + 3])
    def test_trajectory_stream_is_a_seed_sequence_child(self, seed, k):
        noise = zero_noise(seed=seed)
        assert np.array_equal(noise.stream(k).standard_normal(8),
                              sfc64_child(seed, k).standard_normal(8))

    def test_list_entropy_aliases_are_distinct_streams(self):
        # SeedSequence([s, k]) hashes one run of 32-bit words, so these two
        # (seed, index) pairs would share a stream under list entropy
        (s1, k1), (s2, k2) = (5, 7 * 2**32 + 9), (9 * 2**32 + 5, 7)

        def listed(s, k):
            return np.random.Generator(np.random.SFC64(np.random.SeedSequence([s, k])))

        assert np.array_equal(listed(s1, k1).standard_normal(4), listed(s2, k2).standard_normal(4))
        assert not np.array_equal(zero_noise(seed=s1).stream(k1).standard_normal(4),
                                  zero_noise(seed=s2).stream(k2).standard_normal(4))

    @pytest.mark.parametrize("seed", [0, 12, 2**63 - 1])
    @pytest.mark.parametrize("i", [0, 1, 4095])
    def test_cycle_stream_is_keyed_philox(self, seed, i):
        philox = np.random.Generator(np.random.Philox(key=[seed, _DOMAIN_CYCLE | i]))
        assert np.array_equal(zero_noise(seed=seed).stream(i, domain=_DOMAIN_CYCLE)
                              .standard_normal(3), philox.standard_normal(3))

    def test_cycle_streams_of_seeds_past_2_63_are_distinct(self):
        # a list key of such a seed passes through float64: seeds 2**63 and
        # 2**63 + 1 shared a key, and cycles 0 to 8 of each shared one stream
        firsts = []
        for seed in (2**63, 2**63 + 1, 2**64 - 1):
            for i in (0, 1):
                gen = zero_noise(seed=seed).stream(i, domain=_DOMAIN_CYCLE)
                key = gen.bit_generator.state["state"]["key"]
                assert [int(w) for w in key] == [seed, _DOMAIN_CYCLE | i]
                firsts.append(gen.standard_normal())
        assert len(set(firsts)) == len(firsts)

    def test_simulate_draws_each_trajectory_from_its_child(self):
        # 2 normals for the stationary start, then 2 per step; the start is
        # L0 u for the noise factor L0 of the stationary covariance
        setup = desk_pair(Q=10.0, T=250.0)
        sys = linearize(setup)
        noise = NoiseModel.from_setup(setup, DiffusionMatrix.zero(), seed=99)
        ens = simulate(setup, sys, noise, n_traj=3, dt=0.005, duration=0.05, stream_offset=4)
        L0 = _noise_factor(stationary_covariance(setup, sys, noise))
        for k in range(3):
            start = L0 @ sfc64_child(99, 4 + k).standard_normal(2)
            assert np.allclose((ens.x[k, 0], ens.p[k, 0]), start, rtol=1e-13, atol=0.0)

    def test_reheating_outputs_are_those_of_its_philox_streams(self):
        # recorded before the trajectory streams moved to SFC64; a changed
        # cycle stream would move both by far more than rounding
        setup = TestReheat().protocol_setup()
        noise = NoiseModel.from_setup(setup, DiffusionMatrix.zero(), seed=12)
        res = reheating_run(setup, linearize(setup), noise, n_cycles=64, cycle_time=2.0,
                            detector_noise_N=1.0)
        assert res.Gamma_hat == pytest.approx(0.5394571293365544, rel=1e-12, abs=0.0)
        assert res.stderr == pytest.approx(0.10510474865114317, rel=1e-12, abs=0.0)


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
            A, D = _monitored_model(setup, sys, noise)
            V_ref = solve_continuous_lyapunov(A, -D)
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
        A, D = _monitored_model(setup, sys, noise)
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
        A, D = _monitored_model(setup, sys, noise)
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
        _, Q = propagator(*_monitored_model(setup, sys, noise), dt)
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
        # a shorter run is the prefix of a longer one, also when the two end
        # on either side of a chunk boundary of the blocked propagator
        chunk = _CHUNK_BLOCKS * _BLOCK_STEPS
        for n_short, n_long in ((6144, 10240), (chunk - 1, chunk + 1)):
            short = simulate(setup, sys, noise, n_traj=2, dt=0.005, duration=n_short * 0.005)
            long = simulate(setup, sys, noise, n_traj=2, dt=0.005, duration=n_long * 0.005)
            n = short.x.shape[1]
            assert n == n_short + 1 and long.x.shape[1] == n_long + 1
            assert np.array_equal(long.x[:, :n], short.x)
            assert np.array_equal(long.p[:, :n], short.p)

    def test_rest_init(self):
        setup = desk_pair(Q=10.0, T=150.0)
        sys = linearize(setup)
        noise = NoiseModel.from_setup(setup, DiffusionMatrix.zero(), seed=6)
        ens = simulate(setup, sys, noise, n_traj=4, dt=0.005, duration=1.0,
                       init=(0.0, 0.0))
        assert np.all(ens.x[:, 0] == 0.0) and np.all(ens.p[:, 0] == 0.0)

    def test_guardrails(self):
        setup = desk_pair()
        sys = linearize(setup)
        with pytest.raises(SeedError):
            simulate(setup, sys, zero_noise(), n_traj=0, dt=0.001, duration=1.0)
        with pytest.raises(SeedError, match="stream_offset"):
            simulate(setup, sys, zero_noise(), n_traj=1, dt=0.001, duration=1.0,
                     stream_offset=-1)
        with pytest.raises(StabilityError):
            simulate(setup, sys, zero_noise(), n_traj=1, dt=0.5, duration=1.0)
        with pytest.raises(ValueError):
            simulate(setup, sys, zero_noise(), n_traj=1, dt=0.001, duration=1.0,
                     init="warm")

    @pytest.mark.parametrize("value", [-1.0, 0.0, float("nan"), float("inf")])
    @pytest.mark.parametrize("name", ["dt", "duration"])
    def test_bad_time_argument(self, name, value):
        setup = desk_pair()
        times = {"dt": 0.001, "duration": 1.0, name: value}
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            simulate(setup, linearize(setup), zero_noise(), n_traj=1, **times)

    @pytest.mark.parametrize("init", [(float("nan"), 0.0), (float("inf"), 0.0),
                                      (0.0, float("-inf"))])
    def test_non_finite_init_pair(self, init):
        setup = desk_pair()
        with pytest.raises(ValueError, match="init must be finite"):
            simulate(setup, linearize(setup), zero_noise(), n_traj=1, dt=0.001,
                     duration=1.0, init=init)

    def test_step_limit_halved_is_the_cli_default(self, rng):
        # 0.005 * 2 pi / Omega_eff and 0.005 / eta, as the CLI wrote them
        for _ in range(200):
            setup = desk_pair(Q=10 ** rng.uniform(-1.0, 4.0), omega=10 ** rng.uniform(-4.0, 4.0))
            sys = linearize(setup)
            default = min(0.005 * 2.0 * np.pi / effective_frequency(sys), 0.005 / setup.eta)
            assert 0.5 * step_limit(setup, sys) == default


def random_lab_pairs(rng, n):
    """n stable pairs with unequal masses, traps and separations, and a
    gravitational constant large enough that K moves the partner-fixed
    frequency by up to about half, each with a bath (eta, T)."""
    pairs = []
    while len(pairs) < n:
        m1, m2 = 10 ** rng.uniform(-3.0, 2.0, 2)
        omega1, omega2 = 10 ** rng.uniform(-1.0, 3.0, 2)
        setup = PhysicalSetup(m1=m1, m2=m2, omega1=omega1, omega2=omega2,
                              d=10 ** rng.uniform(-2.0, 0.0), G=10 ** rng.uniform(-11.0, 3.0),
                              T=rng.uniform(1.0, 300.0), eta=omega1 * 10 ** rng.uniform(-6.0, 0.0))
        try:
            pairs.append((setup, linearize(setup)))
        except StabilityError:
            pass
    return pairs


def table1_pendulum():
    from gravdiff.feasibility import REFERENCE_PENDULUM as p
    setup = PhysicalSetup(m1=p.m, m2=p.m, omega1=p.Omega, omega2=p.Omega, d=p.d,
                          T=p.T, eta=p.eta)
    return setup, pendulum_system(setup, p.Omega)


class TestPartnerFixedForm:
    """The partner-fixed oscillator's frequency, step limit, energy form and
    stationary state are all read off the drift of its one (A, D) builder."""

    def test_effective_frequency_is_the_drifts_frequency(self):
        zero = np.zeros((4, 4))
        for setup, sys in random_lab_pairs(np.random.default_rng(29), 1000) + [table1_pendulum()]:
            A, _ = langevin_model(setup, sys, zero, partner_fixed=True)
            assert effective_frequency(sys) == np.sqrt(-A[1, 0] * A[0, 1])

    def test_doubled_spring_moves_every_derived_quantity(self):
        setup = desk_pair(Q=100.0, kbar=0.2)
        noise = NoiseModel.from_setup(setup, make_diffusion({(0, 0): 1e3, (2, 2): 1e-40}), seed=1)
        sys = linearize(setup)
        stiffer = dataclasses.replace(sys, K=2.0 * sys.K)
        for s in (sys, stiffer):
            A, D = _monitored_model(setup, s, noise)
            om = np.sqrt(-A[1, 0] * A[0, 1])
            W = 0.5 * np.diag([-A[1, 0], A[0, 1]])
            assert effective_frequency(s) == om
            assert step_limit(setup, s) == min(0.01 * 2.0 * np.pi / om, 0.01 / setup.eta)
            assert phonon_heating_rate(setup, s, noise) == pytest.approx(
                np.trace(W @ D) / (setup.hbar * om), rel=1e-14, abs=0.0)
        assert effective_frequency(stiffer) > effective_frequency(sys)
        assert step_limit(setup, stiffer) < step_limit(setup, sys)
        assert phonon_heating_rate(setup, stiffer, noise) != phonon_heating_rate(setup, sys, noise)

    def test_thermal_stationary_state_is_gibbs(self):
        # kB T H^-1 with H = diag(m1 Omega1^2 + K, 1/m1): the classical Gibbs
        # state of the monitored oscillator, at any damping.
        for setup, sys in random_lab_pairs(np.random.default_rng(12), 200) + [table1_pendulum()]:
            assert sys.K != 0.0
            V = stationary_covariance(setup, sys, NoiseModel.from_setup(
                setup, DiffusionMatrix.zero(), seed=1))
            kT = setup.kB * setup.T
            gibbs = np.diag([kT / (sys.m1 * sys.Omega1**2 + sys.K), kT * sys.m1])
            # per entry, in units of sqrt(V_ii V_jj)
            scale = np.sqrt(np.outer(np.diag(gibbs), np.diag(gibbs)))
            assert (np.abs(V - gibbs) / scale).max() <= 1e-12

    @pytest.mark.parametrize("Omega,k", [(1e-320, 0.0), (2.2227587494850775e-162, 5e-324),
                                         (1e-157, 1e-314)])
    def test_flat_spring_is_refused_by_every_reader(self, Omega, k):
        # m1 Omega1^2 + K = H_fixed[0, 0] underflows to 0, or to the least
        # subnormal, whose half is 0: no energy form, so no period, ground
        # state or stationary state, the same refusal whichever call reads it.
        # A subnormal k whose half is positive still has no ground state: its
        # width 0.25 hbar Omega_eff (k / 2)^-1 overflows.
        setup = PhysicalSetup(m1=1.0, m2=5e-324, omega1=2 * np.pi, omega2=2 * np.pi,
                              d=0.1, T=300.0, eta=0.2 * np.pi)
        sys = pendulum_system(setup, Omega)
        assert sys.H_fixed[0, 0] == k
        noise = NoiseModel.from_setup(setup, make_diffusion({(0, 0): 1e59, (1, 1): 1e59}), seed=1)
        message = (f"monitored spring H_fixed[0, 0] = m1 Omega1^2 + K = {k:.6e} "
                   "gives no ground state")
        calls = (lambda: simulate(setup, sys, noise, n_traj=1, dt=0.01, duration=1.0),
                 lambda: phonon_heating_rate(setup, sys, noise),
                 lambda: stationary_covariance(setup, sys, noise),
                 lambda: reheating_run(setup, sys, noise, n_cycles=2, cycle_time=0.01),
                 lambda: effective_frequency(sys))
        for call in calls:
            with pytest.raises(StabilityError) as excinfo:
                call()
            assert str(excinfo.value) == message


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
                          dict(dt=0.005, duration=3.0, init=(0.0, 0.0))),
    "tuple_init": lambda: (desk_pair(Q=10.0, T=250.0),
                           dict(dt=0.005, duration=3.0, init=(2e-6, -1e-6))),
    "one_step": lambda: (desk_pair(Q=10.0, T=250.0),
                         dict(dt=0.005, duration=0.005, init=(2e-6, 0.0))),
    "past_two_blocks": lambda: (desk_pair(Q=10.0, T=250.0),
                                dict(dt=0.005, duration=10240 * 0.005)),
    # run lengths that straddle the block and chunk edges of the propagator
    "block_minus_one": lambda: (desk_pair(Q=10.0, T=250.0),
                                dict(dt=0.005, duration=(_BLOCK_STEPS - 1) * 0.005)),
    "block_plus_one": lambda: (desk_pair(Q=10.0, T=250.0),
                               dict(dt=0.005, duration=(_BLOCK_STEPS + 1) * 0.005)),
    "chunk_plus_one": lambda: (desk_pair(Q=10.0, T=250.0),
                               dict(dt=0.005,
                                    duration=(_CHUNK_BLOCKS * _BLOCK_STEPS + 1) * 0.005)),
    # three chunk-to-chunk hand-offs, then a one-step tail
    "three_chunks_plus_one": lambda: (desk_pair(Q=10.0, T=250.0),
                                      dict(dt=0.005,
                                           duration=(3 * _CHUNK_BLOCKS * _BLOCK_STEPS + 1) * 0.005)),
}


class TestSimulateMatchesLoopOracle:
    """The blocked propagator reproduces the step-by-step recursion on the
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
        if case == "chunk_plus_one":
            assert n_steps == _CHUNK_BLOCKS * _BLOCK_STEPS + 1
        if case == "three_chunks_plus_one":
            assert n_steps == 3 * _CHUNK_BLOCKS * _BLOCK_STEPS + 1
        for got, ref in ((ens.x, x_ref), (ens.p, p_ref)):
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n,m", [(4, 4), (3, 2), (1, 1)])
    def test_any_dimension(self, rng, n, m):
        # Phi and C of any shape: a stable n-dimensional drift with m draws
        # per step, over a run one step past a chunk edge
        A = rng.standard_normal((n, n))
        A -= (np.max(np.linalg.eigvals(A).real) + 0.5) * np.eye(n)
        X = rng.standard_normal((n, n))
        Phi, Q = propagator(A, X @ X.T, 0.01)
        C = np.linalg.cholesky(Q)[:, :m]
        n_steps = _CHUNK_BLOCKS * _BLOCK_STEPS + 1
        z = np.empty((n, n_steps + 1))
        z[:, 0] = rng.standard_normal(n)
        levels = _levels(Phi, C)
        work = _chunk_buffers(levels, n)
        _propagate(levels, work, np.random.default_rng(7).standard_normal, z)
        again = np.empty_like(z)
        again[:, 0] = z[:, 0]
        _propagate(levels, work, np.random.default_rng(7).standard_normal, again)   # reused buffers
        assert np.array_equal(again, z)
        ref = z.copy()
        u = np.random.default_rng(7).standard_normal((n_steps, m))
        for j, u_j in enumerate(u):
            ref[:, j + 1] = Phi @ ref[:, j] + C @ u_j
        assert np.max(np.abs(z - ref)) <= 1e-10 * np.max(np.abs(ref))


def force_workers(monkeypatch, n_threads):
    """Run every ensemble on n_threads threads (fewer for fewer jobs),
    whatever the CPUs and the run length."""
    monkeypatch.setattr(montecarlo, "_workers", lambda n_jobs, job_samples: min(n_threads, n_jobs))


class TestSimulateWorkMemory:
    """Work memory is one chunk's buffers per thread, for any ensemble width
    and run length."""

    def run(self, n_traj, n_steps=4000):
        setup = desk_pair(Q=10.0, T=250.0)
        sys = linearize(setup)
        gamma = make_diffusion({(0, 0): 1e59, (1, 1): 1e59})
        noise = NoiseModel.from_setup(setup, gamma, seed=99)
        return simulate(setup, sys, noise, n_traj=n_traj, dt=0.005,
                        duration=n_steps * 0.005)

    def work_bytes(self, n_traj, n_steps=4000):
        import tracemalloc

        self.run(n_traj, n_steps)                # imports and caches first
        tracemalloc.start()
        try:
            ens = self.run(n_traj, n_steps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - (ens.x.nbytes + ens.p.nbytes + ens.times.nbytes)

    def test_work_memory_independent_of_ensemble_width(self, monkeypatch):
        # each thread's chunk buffers (a chunk's draws, the rows of the three
        # kernel products and a last chunk that overhangs the output) come to
        # about 220 kB, all built before the threads start; buffers kept per
        # trajectory would add as much per extra trajectory
        for n_threads in (1, 2, 3):
            force_workers(monkeypatch, n_threads)
            # both widths fill the 2W jobs in flight, whose futures and
            # copied contexts would otherwise count against the narrow run
            narrow, wide = self.work_bytes(2 * n_threads + 1), self.work_bytes(32)
            assert narrow < 400_000 * n_threads
            assert abs(wide - narrow) <= 16_384

    def test_work_memory_independent_of_run_length(self):
        # one trajectory over 4 and 64 chunks: draws kept for the whole run
        # would add 16 B per step, about 3.9 MB over the 60 extra chunks
        chunk = _CHUNK_BLOCKS * _BLOCK_STEPS
        short, long = self.work_bytes(1, 4 * chunk), self.work_bytes(1, 64 * chunk)
        assert short < 400_000
        assert abs(long - short) <= 16_384


class TestWorkerCount:
    """Trajectories run on threads, and no output depends on their number."""

    def ensemble(self, n_traj, stream_offset=0):
        setup = desk_pair(Q=10.0, T=250.0)
        sys = linearize(setup)
        gamma = make_diffusion({(0, 0): 1e59, (1, 1): 1e59, (0, 1): 3e58})
        noise = NoiseModel.from_setup(setup, gamma, seed=2024)
        return simulate(setup, sys, noise, n_traj=n_traj, dt=0.005,
                        duration=5000 * 0.005, stream_offset=stream_offset)

    @pytest.mark.parametrize("n_traj", [1, 5])
    def test_outputs_bit_identical_for_any_thread_count(self, monkeypatch, n_traj):
        runs = []
        for n_threads in (1, 2, 3):
            force_workers(monkeypatch, n_threads)
            ens = self.ensemble(n_traj)
            runs.append((ens.x, ens.p, welch_spectrum(ens, segment_len=1024).S_total))
        for run in runs[1:]:
            for a, b in zip(run, runs[0]):
                assert np.array_equal(a, b)

    def test_batches_on_threads_repeat_one_serial_run(self, monkeypatch):
        force_workers(monkeypatch, 1)
        whole = self.ensemble(5)
        force_workers(monkeypatch, 2)
        first, rest = self.ensemble(3), self.ensemble(2, stream_offset=3)
        assert np.array_equal(np.vstack([first.x, rest.x]), whole.x)
        assert np.array_equal(np.vstack([first.p, rest.p]), whole.p)

    def test_worker_count(self):
        try:
            cpus = len(os.sched_getaffinity(0))
        except AttributeError:
            cpus = os.cpu_count() or 1
        long_run = montecarlo._THREADED_SAMPLES
        assert montecarlo._workers(64, long_run) == min(cpus, 64)
        assert montecarlo._workers(1, long_run) == 1
        assert montecarlo._workers(64, long_run - 1) == 1

    @pytest.mark.parametrize("n_threads", [1, 2, 3])
    def test_in_order_yields_in_order_with_bounded_lookahead(self, monkeypatch, n_threads):
        force_workers(monkeypatch, n_threads)
        started, yielded, ahead = set(), [], []

        def job(k):
            started.add(k)
            return k

        for k in montecarlo._in_order(lambda: job, 40, 1):
            ahead.append(len(started) - len(yielded))   # k and the jobs after it
            yielded.append(k)
        assert yielded == list(range(40))
        assert max(ahead) <= 2 * n_threads + 1

    def test_thread_error_reaches_the_caller(self, monkeypatch):
        force_workers(monkeypatch, 3)
        before = threading.active_count()

        def job(k):
            if k == 7:
                raise ValueError("job 7")
            return k

        with pytest.raises(ValueError, match="job 7"):
            list(montecarlo._in_order(lambda: job, 40, 1))
        assert threading.active_count() == before

    def test_closing_early_stops_every_thread(self, monkeypatch):
        force_workers(monkeypatch, 3)
        before = threading.active_count()
        started = []

        def job(k):
            started.append(k)
            return k

        results = montecarlo._in_order(lambda: job, 40, 1)
        assert next(results) == 0
        results.close()
        assert threading.active_count() == before
        assert len(started) <= 2 * 3 + 1

    def test_threads_keep_the_callers_errstate(self, monkeypatch):
        force_workers(monkeypatch, 2)
        x = np.full((4, 256), 1e200)
        ens = TrajectoryEnsemble(n_traj=4, dt=0.01, duration=2.55, times=np.arange(256) * 0.01,
                                 x=x, p=np.zeros_like(x), seeds=(0, 1, 2, 3), master_seed=0)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            welch_spectrum(ens, segment_len=64)


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

    @staticmethod
    def reference_welch(ens, L, overlap):
        """Welch with the window and grid built on every call."""
        hop = L - int(overlap * L)
        n_seg = (ens.x.shape[1] - L) // hop + 1
        window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(L) / L)
        power = np.zeros(L // 2 + 1)
        for x in ens.x:
            X = np.fft.rfft(np.lib.stride_tricks.sliding_window_view(x, L)[::hop] * window,
                            axis=-1)
            power += (X.real**2 + X.imag**2).sum(axis=0)
        power *= ens.dt / (window * window).sum() / (n_seg * ens.n_traj)
        S = np.concatenate([power[1:L // 2 + 1][::-1], power[:(L + 1) // 2]])
        return 2.0 * np.pi * np.fft.fftshift(np.fft.fftfreq(L, ens.dt)), S

    def test_same_bits_as_per_call_window_and_grid(self):
        # alternating lengths and steps: a stale cached window or grid would show
        cases = [(L, ov, n_traj, dt)
                 for dt in (0.01, 1.0 / 128.0)
                 for L in (256, 255, 1000, 7)
                 for ov in (0.0, 0.5)
                 for n_traj in (1, 3)]
        for L, ov, n_traj, dt in cases + cases[::-1]:
            ens = self.white_ensemble(1.3, dt=dt, n_traj=n_traj, n_samples=2000, seed=L)
            spec = welch_spectrum(ens, segment_len=L, overlap=ov)
            omega, S = self.reference_welch(ens, L, ov)
            assert np.array_equal(spec.S_total, S), (L, ov, n_traj, dt)
            assert np.array_equal(spec.omega, omega), (L, ov, n_traj, dt)

    def test_outputs_read_only_and_cache_unchangeable(self):
        ens = self.white_ensemble(1.0, n_traj=2, n_samples=1000)
        first = welch_spectrum(ens, segment_len=100)
        omega, S = first.omega.copy(), first.S_total.copy()
        for arr in (first.omega, first.S_total):
            with pytest.raises(ValueError):
                arr[0] = 1.0
        # the grid is shared with later calls: no array along its base chain
        # can be made writeable
        assert_immutable(first.omega)
        first.S_total.setflags(write=True)     # a fresh array, the caller's own
        first.S_total[:] = 0.0
        again = welch_spectrum(ens, segment_len=100)
        assert np.array_equal(again.omega, omega) and np.array_equal(again.S_total, S)

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

    def test_draws_allocated_before_any_stream(self, monkeypatch):
        # a cycle count past numpy's largest array fails at once
        def no_stream(*args, **kwargs):
            raise AssertionError("a cycle stream was created before the draws were allocated")

        monkeypatch.setattr(NoiseModel, "stream", no_stream)
        setup = self.protocol_setup()
        with pytest.raises(ValueError):
            reheating_run(setup, linearize(setup), zero_noise(), n_cycles=10**19, cycle_time=1.0)

    @pytest.mark.parametrize("cycle_time", [-1.0, 0.0, float("nan"), float("inf")])
    def test_bad_cycle_time(self, cycle_time):
        setup = self.protocol_setup()
        with pytest.raises(ValueError, match="cycle_time must be positive and finite"):
            reheating_run(setup, linearize(setup), zero_noise(), n_cycles=10,
                          cycle_time=cycle_time)

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


class TestTrajectoryEnsemble:
    def test_freezes_a_view_not_the_callers_arrays(self):
        times, x, p = np.arange(4.0), np.zeros((2, 4)), np.ones((2, 4))
        ens = TrajectoryEnsemble(n_traj=2, dt=1.0, duration=3.0, times=times, x=x, p=p,
                                 seeds=(0, 1), master_seed=0)
        for caller, held in ((times, ens.times), (x, ens.x), (p, ens.p)):
            assert np.shares_memory(caller, held)   # no copy
            caller.flat[0] = 7.0
            assert held.flat[0] == 7.0
            with pytest.raises(ValueError, match="read-only"):
                held.flat[0] = 1.0


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

    def test_read_holds_one_copy(self, tmp_path):
        # 16 trajectories of 65,537 samples: a 16.8 MB record
        n_traj, n_samples, dt = 16, 65537, 0.01
        rng = np.random.default_rng(3)
        ens = TrajectoryEnsemble(n_traj=n_traj, dt=dt, duration=(n_samples - 1) * dt,
                                 times=np.arange(n_samples) * dt,
                                 x=rng.standard_normal((n_traj, n_samples)),
                                 p=rng.standard_normal((n_traj, n_samples)),
                                 seeds=tuple(range(n_traj)), master_seed=3)
        path = tmp_path / "traj.bin"
        write_raw_trajectories(path, ens)
        tracemalloc.start()
        try:
            back = read_raw_trajectories(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= path.stat().st_size + 2**20
        for got, want in ((back.times, ens.times), (back.x, ens.x), (back.p, ens.p)):
            assert np.array_equal(got, want)
        assert_immutable(back.x)
        assert_immutable(back.p)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ConfigError):
            read_raw_trajectories(path)

    @pytest.mark.parametrize("mangle,message", [
        pytest.param(lambda b: b[:4] + (2).to_bytes(4, "little") + b[8:], "version 2",
                     id="other-version"),
        pytest.param(lambda b: b[:-8], "sample bytes", id="one-value-short"),
        pytest.param(lambda b: b[:-1], "sample bytes", id="one-byte-short"),
        pytest.param(lambda b: b + b"\x00", "sample bytes", id="one-byte-long"),
        pytest.param(lambda b: b[:48], "sample bytes", id="header-only"),
        pytest.param(lambda b: b[:20], "header", id="cut-header"),
        # the header's dt (bytes 24-32) or duration (32-40) out of its domain
        *(pytest.param(lambda b, at=at, v=v: b[:at] + struct.pack("<d", v) + b[at + 8:],
                       f"{name} must be", id=f"{name}={v}")
          for name, at, values in (("dt", 24, (np.nan, np.inf, 0.0, -1.0)),
                                   ("duration", 32, (np.nan, np.inf, -1.0)))
          for v in values),
    ])
    def test_rejects_other_version_or_cut_record(self, tmp_path, mangle, message):
        setup = desk_pair(Q=10.0, T=100.0)
        noise = NoiseModel.from_setup(setup, DiffusionMatrix.zero(), seed=5)
        ens = simulate(setup, linearize(setup), noise, n_traj=2, dt=0.005, duration=0.1)
        path = tmp_path / "traj.bin"
        write_raw_trajectories(path, ens)
        path.write_bytes(mangle(path.read_bytes()))
        with pytest.raises(ConfigError, match=message):
            read_raw_trajectories(path)
