"""The one range rule: errors.require refuses what is not finite or not
above its bound, with the error type asked for and a message that opens
with the field's name; and every public call that reaches a require site
refuses NaN, +inf and a value below its bound that way, instead of
returning NaN or inf."""

import dataclasses
import math
import struct

import numpy as np
import pytest

from gravdiff.bounds import final_bound, minimal_diffusion
from gravdiff.constants import G_NEWTON
from gravdiff.dynamics import (entanglement_onset, evolve_covariance,
                               evolve_covariance_dimensionless)
from gravdiff.errors import ConfigError, DomainError, SeedError, StepSizeError, require
from gravdiff.feasibility import REFERENCE_PENDULUM, required_integration_time
from gravdiff.model import (DiffusionMatrix, PhysicalSetup, check_constants, ground_state,
                            linearize, pendulum_system, to_dimensionless)
from gravdiff.manifest import read_raw_trajectories, write_raw_trajectories
from gravdiff.montecarlo import NoiseModel, TrajectoryEnsemble, desk_rescale, reheating_run, simulate
from gravdiff.spectra import gravitational_frequency

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
