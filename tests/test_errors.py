"""The one range rule: errors.require refuses what is not finite or not
above its bound, with the error type asked for and a message that opens
with the field's name; and every public call that reaches a require site
refuses NaN, +inf and a value below its bound that way, instead of
returning NaN or inf. Then the refusals by name of derived powers out of
range and of non-finite grids, phases and bound sides, and the one matrix
rule, the same way."""

import dataclasses
import math
import struct

import numpy as np
import pytest

from gravdiff.bounds import (alpha_bound, com_reduction, final_bound, minimal_diffusion,
                             strongest_bound, weak_bound)
from gravdiff.constants import G_NEWTON
from gravdiff.dynamics import (entanglement_onset, evolve_covariance,
                               evolve_covariance_dimensionless)
from gravdiff.errors import (ConfigError, DomainError, PSDError, SeedError, StepSizeError,
                             require)
from gravdiff.feasibility import REFERENCE_PENDULUM, required_integration_time
from gravdiff.model import (DiffusionMatrix, GaussianState, PhysicalSetup, check_constants,
                            ground_state, linearize, pendulum_system, to_dimensionless)
from gravdiff.manifest import read_raw_trajectories, write_raw_trajectories
from gravdiff.montecarlo import (NoiseModel, TrajectoryEnsemble, desk_rescale,
                                 effective_frequency, reheating_run, simulate)
from gravdiff.spectra import dns_fixed_source, dns_symmetric_pair, gravitational_frequency

FORMS = [(0.0, True, "positive"), (0.0, False, "non-negative"),
         (1.0, False, ">= 1"), (1.0, True, "> 1")]


@pytest.mark.parametrize("low,strict,bound", FORMS)
@pytest.mark.parametrize("error", [DomainError, ConfigError, StepSizeError])
def test_refuses_non_finite_and_below_bound(low, strict, bound, error):
    below = [low - 1.0, math.nextafter(low, -math.inf), -math.inf]
    for value in [math.nan, math.inf, *below, *([low] if strict else [])]:
        with pytest.raises(error) as info:
            require("beta", value, low, strict=strict, error=error)
        assert str(info.value) == f"beta must be {bound} and finite, got {value!r}"


@pytest.mark.parametrize("low,strict,bound", FORMS)
def test_accepts_finite_values_above_bound(low, strict, bound):
    above = [math.nextafter(low, math.inf), low + 1.0, 1e308]
    for value in [*above, *([] if strict else [low])]:
        assert require("x", value, low, strict=strict) is None


def test_default_is_positive_domain_error():
    with pytest.raises(DomainError, match=r"^m1 must be positive and finite, got 0\.0$"):
        require("m1", 0.0)
    with pytest.raises(ValueError):
        require("m1", -1.0)


# --------------------------------------------------------- the library's calls
# Every public call that reaches a require site, with the name it refuses
# under, its bound (low, strict) and its error type. Each call takes the
# value under test and a scratch directory.

def _pair():
    setup = PhysicalSetup(m1=1.0, m2=1.0, omega1=2 * math.pi, omega2=2 * math.pi, d=0.1,
                          T=300.0, eta=0.2 * math.pi)
    return setup, linearize(setup), DiffusionMatrix.zero()


def _evolve_dimensionless(dt=1e-3, t_end=0.01):
    _, sys, gamma = _pair()
    Hbar, gamma_bar = to_dimensionless(sys, gamma)
    return evolve_covariance_dimensionless(0.5 * np.eye(4), Hbar, gamma_bar, t_end, dt)


def _evolve(dt=1e-3, t_end=0.01):
    _, sys, gamma = _pair()
    return evolve_covariance(ground_state(), sys, gamma, t_end, dt)


def _onset(dt=1e-3, t_max=0.01):
    _, sys, gamma = _pair()
    return entanglement_onset(ground_state(), sys, gamma, t_max, dt)


def _simulate(dt=1e-3, duration=0.01):
    setup, sys, gamma = _pair()
    return simulate(setup, sys, NoiseModel.from_setup(setup, gamma, seed=1), 1, dt, duration)


def _reheat(cycle_time=0.01, detector_noise_N=1.0):
    setup, sys, gamma = _pair()
    return reheating_run(setup, sys, NoiseModel.from_setup(setup, gamma, seed=1), 2,
                         cycle_time, detector_noise_N=detector_noise_N)


def _raw_record(tmp, dt=1e-3, duration=1e-3):
    ens = TrajectoryEnsemble(n_traj=1, dt=dt, duration=duration, times=np.zeros(2),
                             x=np.zeros((1, 2)), p=np.zeros((1, 2)), seeds=(0,), master_seed=1)
    path = tmp / "raw.bin"
    write_raw_trajectories(path, ens)
    return read_raw_trajectories(path)


def _setup_with(**field):
    return PhysicalSetup(**{**dict(m1=1.0, m2=1.0, omega1=1.0, omega2=1.0, d=0.1), **field})


POSITIVE, NON_NEGATIVE, AT_LEAST_1 = (0.0, True), (0.0, False), (1.0, False)

CALLS = {
    "final_bound": ("omega", POSITIVE, DomainError,
                    lambda v, tmp: final_bound(_pair()[2], _pair()[0], v)),
    "minimal_diffusion_momentum": ("omega", POSITIVE, DomainError,
                                   lambda v, tmp: minimal_diffusion(_pair()[0], "momentum-only", v)),
    "minimal_diffusion_mixed": ("omega", POSITIVE, DomainError,
                                lambda v, tmp: minimal_diffusion(_pair()[0], "mixed", v)),
    "gravitational_frequency": ("rho", POSITIVE, DomainError,
                                lambda v, tmp: gravitational_frequency(v, G_NEWTON)),
    "required_integration_time": ("Gamma_total", POSITIVE, DomainError,
                                  lambda v, tmp: required_integration_time(REFERENCE_PENDULUM, v)),
    "desk_rescale": ("scale", POSITIVE, DomainError,
                     lambda v, tmp: desk_rescale(_pair()[0], _pair()[2], v)),
    "DiffusionMatrix.scaled": ("factor", NON_NEGATIVE, DomainError,
                               lambda v, tmp: DiffusionMatrix(np.eye(4)).scaled(v)),
    "pendulum_system": ("Omega", POSITIVE, DomainError,
                        lambda v, tmp: pendulum_system(_pair()[0], v)),
    "NoiseModel": ("thermal_intensity", NON_NEGATIVE, DomainError,
                   lambda v, tmp: NoiseModel(DiffusionMatrix.zero(), v, seed=1)),
    "evolve_dimensionless_dt": ("dt", POSITIVE, StepSizeError,
                                lambda v, tmp: _evolve_dimensionless(dt=v)),
    "evolve_dimensionless_t_end": ("t_end", NON_NEGATIVE, StepSizeError,
                                   lambda v, tmp: _evolve_dimensionless(t_end=v)),
    "evolve_dt": ("dt", POSITIVE, StepSizeError, lambda v, tmp: _evolve(dt=v)),
    "evolve_t_end": ("t_end", NON_NEGATIVE, StepSizeError, lambda v, tmp: _evolve(t_end=v)),
    "entanglement_onset_dt": ("dt", POSITIVE, StepSizeError, lambda v, tmp: _onset(dt=v)),
    "entanglement_onset_t_max": ("t_max", NON_NEGATIVE, StepSizeError,
                                 lambda v, tmp: _onset(t_max=v)),
    "simulate_dt": ("dt", POSITIVE, DomainError, lambda v, tmp: _simulate(dt=v)),
    "simulate_duration": ("duration", POSITIVE, DomainError,
                          lambda v, tmp: _simulate(duration=v)),
    "reheating_run_cycle_time": ("cycle_time", POSITIVE, DomainError,
                                 lambda v, tmp: _reheat(cycle_time=v)),
    "reheating_run_detector_noise": ("detector_noise_N", NON_NEGATIVE, DomainError,
                                     lambda v, tmp: _reheat(detector_noise_N=v)),
    "read_raw_trajectories_dt": ("record dt", POSITIVE, ConfigError,
                                 lambda v, tmp: _raw_record(tmp, dt=v)),
    "read_raw_trajectories_duration": ("record duration", NON_NEGATIVE, ConfigError,
                                       lambda v, tmp: _raw_record(tmp, duration=v)),
    **{f"check_constants_{name}": (name, bound, DomainError,
                                   lambda v, tmp, name=name: check_constants(**{name: v}))
       for name, bound in (("G", NON_NEGATIVE), ("hbar", POSITIVE), ("kB", POSITIVE))},
    **{f"PhysicalSetup_{name}": (name, bound, DomainError,
                                 lambda v, tmp, name=name: _setup_with(**{name: v}))
       for name, bound in (("m1", POSITIVE), ("m2", POSITIVE), ("omega1", POSITIVE),
                           ("omega2", POSITIVE), ("d", POSITIVE), ("T", NON_NEGATIVE),
                           ("eta", NON_NEGATIVE), ("G", NON_NEGATIVE), ("hbar", POSITIVE),
                           ("kB", POSITIVE))},
    **{f"FeasibilityParams_{name}": (name, bound, DomainError,
                                     lambda v, tmp, name=name: dataclasses.replace(
                                         REFERENCE_PENDULUM, **{name: v}))
       for name, bound in (("Omega", POSITIVE), ("rho", POSITIVE), ("R", POSITIVE),
                           ("beta", AT_LEAST_1), ("T", POSITIVE), ("Q", POSITIVE),
                           ("N", NON_NEGATIVE), ("G", NON_NEGATIVE), ("hbar", POSITIVE),
                           ("kB", POSITIVE))},
}


@pytest.mark.parametrize("call", sorted(CALLS))
def test_library_call_refuses_non_finite_and_below_bound(call, tmp_path):
    name, (low, strict), error, run = CALLS[call]
    bound = {POSITIVE: "positive", NON_NEGATIVE: "non-negative", AT_LEAST_1: ">= 1"}[(low, strict)]
    for value in (math.nan, math.inf, low - 0.5):
        with pytest.raises(error) as info:
            run(value, tmp_path)
        assert type(info.value) is error
        assert str(info.value).startswith(f"{name} must be {bound} and finite, got ")


# ------------------------------------------------ empty or inconsistent ensembles
# Neither an ensemble without trajectories nor a record of one reaches the
# Welch estimator (whose average over trajectories divided by zero), and a
# record's header must agree with itself.

def _read_record(tmp, n_traj, n_samples, dt, duration):
    path = tmp / "raw.bin"
    path.write_bytes(b"GDMC" + struct.pack("<IQQddQ", 1, n_traj, n_samples, dt, duration, 1)
                     + bytes(16 * n_traj * n_samples))
    return read_raw_trajectories(path)


EMPTY_OR_INCONSISTENT = {
    "TrajectoryEnsemble_no_trajectory": (
        SeedError, "ensemble must contain at least one trajectory",
        lambda tmp: TrajectoryEnsemble(n_traj=0, dt=0.01, duration=20.47,
                                       times=0.01 * np.arange(2048), x=np.zeros((0, 2048)),
                                       p=np.zeros((0, 2048)), seeds=(), master_seed=1)),
    "read_raw_trajectories_no_trajectory": (
        ConfigError, "record holds 0 trajectories of 2048 samples",
        lambda tmp: _read_record(tmp, 0, 2048, 0.01, 2047 * 0.01)),
    "read_raw_trajectories_one_sample": (
        ConfigError, "record holds 1 trajectories of 1 samples",
        lambda tmp: _read_record(tmp, 1, 1, 0.01, 0.0)),
    "read_raw_trajectories_inconsistent_duration": (
        ConfigError, "record duration 5.0 is not (n_samples - 1) dt = 0.02",
        lambda tmp: _read_record(tmp, 1, 3, 0.01, 5.0)),
}


@pytest.mark.parametrize("case", sorted(EMPTY_OR_INCONSISTENT))
def test_empty_or_inconsistent_ensemble_refused(case, tmp_path):
    error, message, run = EMPTY_OR_INCONSISTENT[case]
    with pytest.raises(error) as info:
        run(tmp_path)
    assert type(info.value) is error
    assert str(info.value).startswith(message)


# -------------------------------------------------- refused by name, not NaN
# A finite dial whose square or cube leaves the float range (or, for d^3, a
# divisor, underflows to 0) is refused by name where the power is formed,
# not with a bare OverflowError or ZeroDivisionError; a non-finite grid or
# phase is refused before any solve, cos or sin, and a chain member whose
# lhs or rhs is not finite is refused, not reported as violated.

def _huge_pendulum(Omega=1e300):
    setup, _, gamma = _pair()
    return setup, pendulum_system(setup, Omega), gamma


def _with_entry(index, value):
    g = np.eye(4)
    g[index] = value
    return g


HUGE_OMEGA = "Omega1**2 is out of floating-point range for Omega1 = 1e+300"
TINY_D = "d**3 is out of floating-point range for d = 1e-200"

REFUSED_BY_NAME = {
    "linearize_omega1_squared": (
        "omega1**2 is out of floating-point range for omega1 = 1e+200",
        lambda: linearize(_setup_with(omega1=1e200))),
    "pendulum_H": (HUGE_OMEGA, lambda: _huge_pendulum()[1].H),
    "pendulum_H_fixed": (HUGE_OMEGA, lambda: _huge_pendulum()[1].H_fixed),
    "pendulum_H_numpy_Omega": (HUGE_OMEGA, lambda: _huge_pendulum(np.float64(1e300))[1].H),
    "dns_fixed_source_huge_Omega": (HUGE_OMEGA, lambda: dns_fixed_source(*_huge_pendulum(), [1.0])),
    "dns_symmetric_pair_huge_Omega": (HUGE_OMEGA,
                                      lambda: dns_symmetric_pair(*_huge_pendulum(), [1.0])),
    "effective_frequency_huge_Omega": (HUGE_OMEGA, lambda: effective_frequency(_huge_pendulum()[1])),
    "coupling_tiny_d": (TINY_D, lambda: _setup_with(d=1e-200).coupling),
    "linearize_tiny_d": (TINY_D, lambda: linearize(_setup_with(d=1e-200))),
    "minimal_diffusion_tiny_d": (TINY_D,
                                 lambda: minimal_diffusion(_setup_with(d=1e-200), "position-only")),
    # d^3 subnormal, or a mass product that overflows: the quotient K is inf
    "coupling_subnormal_d": (
        "K = 2 G m1 m2 / d**3 is out of floating-point range for m1 = 1, m2 = 1, d = 1e-107",
        lambda: _setup_with(d=1e-107).coupling),
    "pendulum_subnormal_d": (
        "K = 2 G m1 m2 / d**3 is out of floating-point range for m1 = 1, m2 = 1, d = 1e-107",
        lambda: pendulum_system(_setup_with(d=1e-107), 1.0)),
    "linearize_mass_product": (
        "K = 2 G m1 m2 / d**3 is out of floating-point range for m1 = 1e+200, m2 = 1e+200, d = 1",
        lambda: linearize(_setup_with(m1=1e200, m2=1e200, omega1=1e100, omega2=1e100, d=1.0))),
    # hbar d^3 underflows to 0 (d = 1e-100), or G m^2 / (hbar d^3) overflows (m = 1e150)
    **{f"{name}_budget_{label}": (
        f"G m**2 / (hbar d**3) is out of floating-point range for m = {m:g}, hbar = ",
        lambda run=run, m=m, d=d: run(_setup_with(m1=m, m2=m, d=d)))
       for name, run in (
           ("final_bound", lambda setup: final_bound(DiffusionMatrix.zero(), setup, 1.0)),
           ("minimal_diffusion", lambda setup: minimal_diffusion(setup, "position-only")))
       for label, m, d in (("underflow", 1.0, 1e-100), ("overflow", 1e150, 1.0))},
    **{f"{spectrum.__name__}_{label}": ("omega_grid must be finite",
                                        lambda spectrum=spectrum, grid=grid: spectrum(*_pair(), grid))
       for spectrum in (dns_fixed_source, dns_symmetric_pair)
       for label, grid in (("nan", [math.nan, 1.0]), ("inf", [math.inf]), ("-inf", [-math.inf]))},
    **{f"alpha_bound_alpha_{alpha}": (f"alpha must be finite, got {alpha!r}",
                                      lambda alpha=alpha: alpha_bound(np.eye(4), _pair()[1], alpha))
       for alpha in (math.nan, math.inf, -math.inf)},
    "alpha_bound_nan_gamma_bar": (
        "gamma_bar and Kbar must give a finite alpha bound, got lhs = nan",
        lambda: alpha_bound(_with_entry((0, 1), math.nan), _pair()[1], 0.3)),
    "strongest_bound_nan_gamma_bar": (
        "gamma_bar and Kbar must give a finite trace bound, got lhs = nan",
        lambda: strongest_bound(_with_entry((0, 3), math.nan), _pair()[1])),
    "weak_bound_infinite_gamma_bar": (
        "gamma_bar and Kbar must give a finite weak-trace bound, got lhs = inf",
        lambda: weak_bound(_with_entry((2, 2), math.inf), _pair()[1])),
}


@pytest.mark.parametrize("case", sorted(REFUSED_BY_NAME))
def test_refused_by_name(case):
    message, run = REFUSED_BY_NAME[case]
    with pytest.raises(DomainError) as info:
        run()
    assert type(info.value) is DomainError
    assert str(info.value).startswith(message)


# ------------------------------------------------------------ the matrix rule
# Each caller of the one matrix rule (gravdiff.model._symmetric) refuses a
# matrix that is not finite, not symmetric to 1e-12 of its norm at any scale,
# or, where PSD is required, not PSD, with a GravdiffError that names it. A
# symmetric one at 1e300 passes without an overflow warning (warnings fail).

def _evolve_with(V0=None, Hbar=(), gamma_bar=()):
    """Evolve _pair's system from V0 (default the ground state) with the
    given (index, value) entries set in its Hbar and gamma_bar."""
    _, sys, gamma = _pair()
    matrices = [np.array(a) for a in to_dimensionless(sys, gamma)]
    for M, entries in zip(matrices, (Hbar, gamma_bar)):
        for index, value in entries:
            M[index] = value
    V0 = 0.5 * np.eye(4) if V0 is None else V0
    return evolve_covariance_dimensionless(V0, *matrices, 0.01, 1e-3)


def _near_psd(front_end):
    """Run a typed evolution front end on a gamma that passes the matrix rule
    in SI units (min eigenvalue -5e-11 against a norm of sqrt(2)) but not in
    the quadratures of m = 1e-15 kg at Omega = 1e5 rad/s, where its
    position block is 1e-24 and its momentum block 1e-44 of its SI size."""
    setup = PhysicalSetup(m1=1e-15, m2=1e-15, omega1=1e5, omega2=1e5, d=1e-5, eta=1e-2)
    gamma = DiffusionMatrix(np.diag([-5e-11, 0.0, 1.0, 1.0]))
    return front_end(ground_state(), linearize(setup), gamma, 1e-7, 1e-8)


MATRIX_RULE = {
    "com_reduction_asymmetric_at_1e200": (
        PSDError, "position block must be symmetric",
        lambda: com_reduction([[1e200, 1e199], [0.0, 1e200]])),
    "com_reduction_infinite": (
        PSDError, "position block must be finite",
        lambda: com_reduction([[np.inf, 0.0], [0.0, 1.0]])),
    "GaussianState_infinite_V": (
        DomainError, "V must be finite",
        lambda: GaussianState(np.zeros(4), np.diag([np.inf, 1.0, 1.0, 1.0]))),
    "GaussianState_nan_mean": (
        DomainError, "mean must be finite",
        lambda: GaussianState([np.nan, 0.0, 0.0, 0.0], np.eye(4))),
    # only off-diagonal entry (0, 1) = 0.3: evolved to unc_min_eig -0.258
    "evolve_dimensionless_Hbar_asymmetric": (
        DomainError, "Hbar must be symmetric",
        lambda: _evolve_with(Hbar=[((0, 1), 0.3), ((1, 0), 0.0)])),
    "evolve_dimensionless_gamma_bar_not_psd": (
        PSDError, "gamma_bar is not PSD", lambda: _evolve_with(gamma_bar=[((0, 0), -1.0)])),
    "evolve_gamma_not_psd_in_quadratures": (
        PSDError, "gamma is not PSD in the dimensionless quadratures: gamma_bar is not PSD",
        lambda: _near_psd(evolve_covariance)),
    "onset_gamma_not_psd_in_quadratures": (
        PSDError, "gamma is not PSD in the dimensionless quadratures: gamma_bar is not PSD",
        lambda: _near_psd(entanglement_onset)),
    "evolve_dimensionless_Hbar_nan": (
        DomainError, "Hbar must be finite", lambda: _evolve_with(Hbar=[((0, 0), np.nan)])),
    "evolve_dimensionless_V0_nan": (
        DomainError, "V0 must be finite", lambda: _evolve_with(V0=np.full((4, 4), np.nan))),
}


@pytest.mark.parametrize("case", sorted(MATRIX_RULE))
def test_matrix_rule_refusals(case):
    error, message, run = MATRIX_RULE[case]
    with pytest.raises(error) as info:
        run()
    assert type(info.value) is error
    assert str(info.value).startswith(message)


def test_matrix_rule_holds_at_huge_scale():
    huge = 1e300 * np.eye(4)
    assert com_reduction(huge[:2, :2]) == 2e300
    assert np.array_equal(GaussianState(np.zeros(4), huge).V, huge)
