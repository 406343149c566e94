"""Time-domain Monte Carlo of the monitored oscillator's Langevin dynamics.

The monitored mass (mode 1) obeys, after removing the static force through
the equilibrium shift,

    dx = (p/m) dt + hbar dW3
    dp = (-(m Omega^2 + K) x - eta p) dt + dXi - hbar dW1,

where (dW1..dW4) are correlated increments with E[dW_i dW_j] = gamma_ij dt
and dXi is classical white thermal noise of intensity 2 eta m kB T. The
gravitational and thermal noises are independent. ``keep_static_force=True``
retains the constant -K d term instead (the mean then settles at the shifted
equilibrium).

Integration is exact (exact Ornstein-Uhlenbeck updating, D. T. Gillespie,
PRE 54:2084, 1996): the pair (Phi, Q) from :func:`gravdiff.model.propagator`
is the drift exponential and the covariance that one step of length dt adds,
so each step is z <- z* + Phi (z - z*) + C u with C C^T = Q and u two
standard normals. The sampled chain has the continuous process's transition
law at every admissible step, with no step-size bias in any moment.

The recursion runs without a per-step Python loop. By Cayley-Hamilton,
Phi^2 = tr(Phi) Phi - det(Phi) I, so each coordinate of the deviation z - z*
obeys the AR(2) recursion

    z[k+2] - tr(Phi) z[k+1] + det(Phi) z[k] = C u[k+1] + (Phi - tr(Phi) I) C u[k],

a unit lower-triangular banded system of bandwidth 2. A whole run is one
LAPACK ``dtbtrs`` solve over all 2 n_traj columns, in place in the output
array, whose first two rows per column are the initial state and the exact
first step. Each trajectory's stream is drawn into one reused buffer, so the
work memory beyond the output (those draws, one temporary row and the band)
does not grow with the ensemble. The forcing is built by elementwise
arithmetic, so a row does not depend on the ensemble width or on the run
length. The draws and their order are those of the step-by-step recursion;
only rounding differs from it (about 1e-12 relative).

scipy is imported only where it is used: ``simulate`` imports LAPACK's
``dtbtrs`` when called, so importing the package and every path that does
not sample loads no scipy module. The stationary covariance that starts a
run has a closed form (:func:`stationary_covariance`).

Seeding is counter-based: stream k of master seed s is Philox(key=[s, k]),
so trajectories are reproducible and order-independent regardless of how the
ensemble is scheduled. Per stream, the draw order is: for ``simulate``,
2 normals for the initial condition (when sampled), then 2 normals per step;
for ``reheating_run``, 2 normals for the end-of-cycle state, then 1 for the
readout.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, ProtocolError, SeedError, StabilityError
from .model import (
    DiffusionMatrix,
    LinearizedSystem,
    PhysicalSetup,
    langevin_diffusion,
    langevin_drift,
    propagator,
)
from .spectra import NoiseSpectrum

__all__ = [
    "NoiseModel",
    "TrajectoryEnsemble",
    "simulate",
    "welch_segments",
    "welch_spectrum",
    "ReheatResult",
    "reheating_run",
    "desk_rescale",
    "effective_frequency",
    "phonon_heating_rate",
    "drift_2x2",
    "diffusion_2x2",
    "stationary_covariance",
    "write_raw_trajectories",
    "read_raw_trajectories",
]

_RAW_MAGIC = b"GDMC"
_RAW_VERSION = 1

# Stream-id domains keep trajectory and protocol streams disjoint under one
# master seed.
_DOMAIN_TRAJECTORY = 0
_DOMAIN_CYCLE = 1 << 56

def _noise_factor(V: np.ndarray) -> np.ndarray:
    """L with L L^T = V: the Cholesky factor when V is positive definite.

    A singular or slightly indefinite V (PSD within rounding or within the
    DiffusionMatrix tolerance) is projected onto the PSD cone by clipping its
    negative eigenvalues to zero; L is then the eigen-factor U sqrt(lambda) of
    the projection.
    """
    try:
        return np.linalg.cholesky(V)
    except np.linalg.LinAlgError:
        lam, U = np.linalg.eigh(V)
        return U * np.sqrt(np.clip(lam, 0.0, None))


@dataclass(frozen=True)
class NoiseModel:
    """Gravitational diffusion plus classical-limit thermal noise, seeded.

    ``thermal_intensity`` is the white force intensity 2 eta m kB T [N^2 s];
    the exact colored quantum kernel is available only through the analytic
    spectra.
    """

    gamma: DiffusionMatrix
    thermal_intensity: float
    seed: int

    def __post_init__(self):
        if self.thermal_intensity < 0:
            raise ValueError("thermal_intensity must be non-negative")
        if not isinstance(self.seed, (int, np.integer)):
            raise SeedError(f"seed must be an integer, got {type(self.seed).__name__}")
        seed = int(self.seed)
        if not 0 <= seed < 2**64:
            raise SeedError(f"seed must be in [0, 2**64), got {seed}")
        object.__setattr__(self, "seed", seed)

    @classmethod
    def from_setup(cls, setup: PhysicalSetup, gamma: DiffusionMatrix, seed: int) -> "NoiseModel":
        return cls(gamma=gamma,
                   thermal_intensity=2.0 * setup.eta * setup.m1 * setup.kB * setup.T,
                   seed=seed)

    def stream(self, index: int, domain: int = _DOMAIN_TRAJECTORY) -> np.random.Generator:
        """Counter-based per-stream generator: Philox keyed by (seed, id)."""
        return np.random.Generator(np.random.Philox(key=[self.seed, domain | index]))


@dataclass(frozen=True)
class TrajectoryEnsemble:
    """Monitored-oscillator sample paths, one row per trajectory."""

    n_traj: int
    dt: float
    duration: float
    times: np.ndarray
    x: np.ndarray
    p: np.ndarray
    seeds: tuple[int, ...]
    master_seed: int

    def __post_init__(self):
        for name in ("times", "x", "p"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.x.shape != (self.n_traj, len(self.times)):
            raise ValueError("x must have shape (n_traj, n_samples)")
        if self.p.shape != self.x.shape:
            raise ValueError("p must match x in shape")


def effective_frequency(sys: LinearizedSystem) -> float:
    """Oscillation frequency of mode 1 with the partner held fixed:
    sqrt(Omega1^2 + K/m1)."""
    return float(np.sqrt(sys.Omega1**2 + sys.K / sys.m1))


def drift_2x2(setup: PhysicalSetup, sys: LinearizedSystem) -> np.ndarray:
    """Damped drift generator of (x, p) for the monitored oscillator."""
    return langevin_drift(setup, sys, partner_fixed=True)


def diffusion_2x2(setup: PhysicalSetup, noise: NoiseModel) -> np.ndarray:
    """Noise covariance rate D of (x, p): the drift-augmented covariance ODE
    dV/dt = A V + V A^T + D is the moment oracle for the sampler."""
    D = langevin_diffusion(setup, noise.gamma.matrix, partner_fixed=True)
    D[1, 1] += noise.thermal_intensity
    return D


def stationary_covariance(setup: PhysicalSetup, sys: LinearizedSystem,
                          noise: NoiseModel) -> np.ndarray:
    """Steady-state covariance of (x, p); requires eta > 0 when noise is on.

    A V + V A^T + D = 0 is solved in closed form for A = [[0, a], [-b, -eta]]:
    V_xp = -D_xx/(2a), V_pp = (D_pp - 2 b V_xp)/(2 eta) and
    V_xx = (a V_pp - eta V_xp + D_xp)/b. This stays exact at the Table-1
    pendulum's eta = 5e-11 Omega, where a general Lyapunov solver loses V.
    """
    A = drift_2x2(setup, sys)
    D = diffusion_2x2(setup, noise)
    if np.linalg.norm(D) == 0.0:
        return np.zeros((2, 2))
    if setup.eta <= 0.0:
        raise StabilityError("no stationary state: eta = 0 with non-zero noise")
    a, b, eta = A[0, 1], -A[1, 0], -A[1, 1]
    V_xp = -D[0, 0] / (2.0 * a)
    V_pp = (D[1, 1] - 2.0 * b * V_xp) / (2.0 * eta)
    V_xx = (a * V_pp - eta * V_xp + D[0, 1]) / b
    return np.array([[V_xx, V_xp], [V_xp, V_pp]])


def simulate(
    setup: PhysicalSetup,
    sys: LinearizedSystem,
    noise: NoiseModel,
    n_traj: int,
    dt: float,
    duration: float,
    init="stationary",
    keep_static_force: bool = False,
    stream_offset: int = 0,
) -> TrajectoryEnsemble:
    """Sample an ensemble of monitored-oscillator paths exactly at spacing dt.

    Parameters
    ----------
    init : "stationary", "rest" or (x0, p0)
        "stationary" samples each trajectory's initial (x, p) from the
        steady-state covariance (falls back to rest when there is no noise);
        a pair starts every trajectory deterministically there.
    keep_static_force : bool
        Retain the constant -K d force instead of absorbing it into the
        equilibrium shift; the mean then relaxes to x = -K d/(m Omega^2 + K).
    stream_offset : int
        Index of the first trajectory stream. Trajectory k of this run is
        stream ``stream_offset + k`` of the master seed, so a big ensemble
        produced in batches is bit-identical to one single run: batching and
        scheduling cannot change results.

    Raises StabilityError when dt exceeds 1% of the fastest timescale
    min(2 pi / Omega_eff, 1/eta) and SeedError for an empty ensemble.
    """
    if n_traj <= 0:
        raise SeedError("ensemble must contain at least one trajectory")
    if dt <= 0 or duration <= 0:
        raise ValueError("dt and duration must be positive")
    om_eff = effective_frequency(sys)
    limit = 0.01 * (2.0 * np.pi / om_eff)
    if setup.eta > 0:
        limit = min(limit, 0.01 / setup.eta)
    if dt > limit * (1.0 + 1e-12):
        raise StabilityError(f"dt = {dt:.3e} exceeds 0.01 * min(2 pi/Omega, 1/eta) = {limit:.3e}")

    n_steps = int(round(duration / dt))
    if n_steps < 1:
        raise ValueError("duration shorter than one step")

    A = drift_2x2(setup, sys)
    Phi, Q = propagator(A, diffusion_2x2(setup, noise), dt)

    if keep_static_force:
        # Fixed point of dz/dt = A z + (0, -K d): propagate deviations exactly.
        b = np.array([0.0, -sys.K * setup.d])
        z_star = -np.linalg.solve(A, b)
    else:
        z_star = np.zeros(2)

    V0 = np.zeros((2, 2))
    if isinstance(init, str):
        if init == "stationary":
            if setup.eta > 0:
                V0 = stationary_covariance(setup, sys, noise)
        elif init != "rest":
            raise ValueError(f"unknown init mode {init!r}")
        z0 = z_star
    else:
        x0, p0 = init
        z0 = np.array([float(x0), float(p0)])

    from scipy.linalg.lapack import dtbtrs

    C = _noise_factor(Q)
    L0 = _noise_factor(V0) if np.any(V0) else None
    n_init = 0 if L0 is None else 2
    n_draws = n_init + (2 * n_steps if np.any(C) else 0)
    # AR(2) form of z[k+1] = Phi z[k] + C u[k] (see the module docstring). In
    # each column, row 0 is z[0], row 1 is Phi z[0] + C u[0] (so A[1, 0] = 0)
    # and row k >= 2 is C u[k-1] + MC u[k-2]; z[0] enters row 2 through the
    # band's A[2, 0] = det.
    tr = Phi[0, 0] + Phi[1, 1]
    det = Phi[0, 0] * Phi[1, 1] - Phi[0, 1] * Phi[1, 0]
    MC = (Phi - tr * np.eye(2)) @ C
    band = np.empty((3, n_steps + 1), order="F")
    band[0], band[1], band[2] = 1.0, -tr, det
    band[1, 0] = 0.0
    # zs[:, k, j] is the deviation z - z* of trajectory k at step j, so
    # zs[0] and zs[1] are contiguous (n_traj, n_steps + 1) arrays of x and p.
    zs = np.empty((2, n_traj, n_steps + 1))
    draws = np.zeros(n_init + 2 * n_steps)
    u0, u1 = draws[n_init::2], draws[n_init + 1::2]
    tmp = np.empty(n_steps)
    for k in range(n_traj):
        if n_draws:
            noise.stream(stream_offset + k).standard_normal(out=draws[:n_draws])
        z = zs[:, k, 0]
        z[:] = z0 - z_star
        if L0 is not None:
            z += L0[:, 0] * draws[0] + L0[:, 1] * draws[1]
        # Elementwise products with scalar coefficients, into reused buffers:
        # no BLAS kernel that depends on the ensemble width, so every row is
        # bit-identical for any n_traj and any run length.
        for i in range(2):
            r = zs[i, k, 1:]
            np.multiply(u0, C[i, 0], out=r)
            np.multiply(u1, C[i, 1], out=tmp)
            r += tmp
            np.multiply(u0[:-1], MC[i, 0], out=tmp[1:])
            r[1:] += tmp[1:]
            np.multiply(u1[:-1], MC[i, 1], out=tmp[1:])
            r[1:] += tmp[1:]
            r[0] += Phi[i, 0] * z[0] + Phi[i, 1] * z[1]
    # The rows of zs are the columns of its Fortran-ordered transpose: one
    # unit lower-triangular banded solve for all of them, in place.
    sol, _ = dtbtrs(band, zs.reshape(2 * n_traj, n_steps + 1).T,
                    uplo="L", diag="U", overwrite_b=1)
    zs = sol.T.reshape(2, n_traj, n_steps + 1)
    if keep_static_force:
        zs += z_star[:, None, None]

    times = np.arange(n_steps + 1) * dt
    return TrajectoryEnsemble(
        n_traj=n_traj, dt=dt, duration=n_steps * dt, times=times, x=zs[0], p=zs[1],
        seeds=tuple(range(stream_offset, stream_offset + n_traj)),
        master_seed=noise.seed,
    )


def welch_segments(n_samples: int, segment_len: int, overlap: float) -> tuple[int, int]:
    """(segments per trajectory, hop between segment starts) of the Welch
    segmentation; ConfigError if ``segment_len`` is outside [2, n_samples] (a
    one-sample periodic Hann window is zero) or ``overlap`` outside [0, 1)."""
    if not (2 <= segment_len <= n_samples):
        raise ConfigError(
            f"segment_len must be in [2, {n_samples}], got {segment_len}"
        )
    if not (0.0 <= overlap < 1.0):
        raise ConfigError(f"overlap must be in [0, 1), got {overlap}")
    hop = segment_len - int(overlap * segment_len)
    return (n_samples - segment_len) // hop + 1, hop


def welch_spectrum(ens: TrajectoryEnsemble, segment_len: int,
                   overlap: float = 0.5) -> NoiseSpectrum:
    """Hann-windowed, overlap- and ensemble-averaged two-sided periodogram.

    Normalized so a white input of intensity sigma^2 (sample variance
    sigma^2/dt) estimates a flat density sigma^2 in the angular two-sided
    convention of :mod:`gravdiff.spectra`. Returns the spectrum on the
    fft-ordered grid sorted by increasing omega. Segments start every
    ``segment_len - int(overlap * segment_len)`` samples, are not detrended
    and are transformed one trajectory at a time, so the working memory is
    that of one trajectory's segments.
    """
    n_seg, hop = welch_segments(ens.x.shape[1], segment_len, overlap)
    L = segment_len
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(L) / L)   # periodic Hann
    power = np.zeros(L // 2 + 1)
    for x in ens.x:
        X = np.fft.rfft(sliding_window_view(x, L)[::hop] * window, axis=-1)
        power += (X.real**2 + X.imag**2).sum(axis=0)
    power *= ens.dt / (window * window).sum() / (n_seg * ens.n_traj)
    # A real input has S(-omega) = S(omega): mirror the non-negative bins.
    S = np.concatenate([power[1:L // 2 + 1][::-1], power[:(L + 1) // 2]])
    omega = 2.0 * np.pi * np.fft.fftshift(np.fft.fftfreq(L, ens.dt))
    return NoiseSpectrum(omega=omega, S_total=S)


@dataclass(frozen=True)
class ReheatResult:
    """Heating-rate estimate from repeated prepare/evolve/measure cycles."""

    Gamma_hat: float
    rel_err: float
    stderr: float
    n_cycles: int
    cycle_time: float

    def __iter__(self):
        return iter((self.Gamma_hat, self.rel_err))


def reheating_run(
    setup: PhysicalSetup,
    sys: LinearizedSystem,
    noise: NoiseModel,
    n_cycles: int,
    cycle_time: float,
    detector_noise_N: float = 1.0,
) -> ReheatResult:
    """Estimate the phonon heating rate by dark reheating cycles.

    Each cycle prepares the oscillator near its ground state (the ground-state
    phase-space distribution), lets it evolve without measurement for
    ``cycle_time``, and reads the energy out once with additive detector noise
    of ``detector_noise_N`` quanta. The end-of-cycle state is drawn directly
    from its exact law N(0, Phi V_g Phi^T + Q) for the ground-state
    covariance V_g and the propagator (Phi, Q) over one cycle. The growth slope
    Gamma_hat = <n_hat>/cycle_time estimates the total heating rate; the
    quoted relative error is the standard error of that mean across cycles.

    Requires cycle_time < 0.1 / eta so damping does not bend the growth.
    """
    if n_cycles < 2:
        raise SeedError("need at least two cycles to estimate a rate")
    if not 0.0 <= detector_noise_N < np.inf:
        raise ValueError(f"detector_noise_N must be non-negative and finite, got {detector_noise_N}")
    if setup.eta > 0 and cycle_time >= 0.1 / setup.eta:
        raise ProtocolError(
            f"cycle_time = {cycle_time:.3e} s is not << 1/eta = {1.0 / setup.eta:.3e} s"
        )
    om_eff = effective_frequency(sys)
    m = setup.m1
    hb = setup.hbar
    Phi, Q = propagator(drift_2x2(setup, sys), diffusion_2x2(setup, noise), cycle_time)
    V_g = np.diag([hb / (2.0 * m * om_eff), m * hb * om_eff / 2.0])
    C = _noise_factor(Phi @ V_g @ Phi.T + Q)

    u = np.stack([noise.stream(i, domain=_DOMAIN_CYCLE).standard_normal(3)
                  for i in range(n_cycles)])
    z = u[:, :2] @ C.T
    energy = z[:, 1] ** 2 / (2.0 * m) + 0.5 * m * om_eff**2 * z[:, 0] ** 2
    n_hat = energy / (hb * om_eff) - 0.5
    if detector_noise_N > 0:
        n_hat = n_hat + detector_noise_N * u[:, 2]

    gamma_hat = float(n_hat.mean() / cycle_time)
    stderr = float(n_hat.std(ddof=1) / np.sqrt(n_cycles) / cycle_time)
    rel_err = stderr / abs(gamma_hat) if gamma_hat != 0.0 else float("inf")
    return ReheatResult(Gamma_hat=gamma_hat, rel_err=rel_err, stderr=stderr,
                        n_cycles=n_cycles, cycle_time=cycle_time)


def phonon_heating_rate(setup: PhysicalSetup, sys: LinearizedSystem,
                        noise: NoiseModel) -> float:
    """Injected phonon heating rate of the monitored oscillator [1/s].

    Gamma = (D_pp / 2m + m Omega_eff^2 D_xx / 2) / (hbar Omega_eff), the
    small-time energy growth of the sampler divided by the quantum.
    """
    D = diffusion_2x2(setup, noise)
    om_eff = effective_frequency(sys)
    m = setup.m1
    dE_dt = D[1, 1] / (2.0 * m) + 0.5 * m * om_eff**2 * D[0, 0]
    return float(dE_dt / (setup.hbar * om_eff))


def desk_rescale(setup: PhysicalSetup, gamma: DiffusionMatrix,
                 scale: float) -> tuple[PhysicalSetup, DiffusionMatrix]:
    """Map a setup to a faster clock while preserving its dimensionless form.

    All rates scale by ``scale`` (omega, eta), the temperature follows so the
    occupation number kB T / (hbar Omega) is unchanged, and the separation
    shrinks as d / scale^(2/3) so the coupling K picks up the same scale^2 as
    m omega^2. Diffusion entries transform per block: position-position by
    scale^2, cross terms by scale, momentum-momentum unchanged, which keeps
    every dimensionless ratio gamma_bar / Omega fixed. Direct simulation at
    sub-millihertz frequencies over days of model time is impractical; this
    map moves validation runs to desk timescales exactly.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    s = float(scale)
    new_setup = PhysicalSetup(
        m1=setup.m1, m2=setup.m2,
        omega1=setup.omega1 * s, omega2=setup.omega2 * s,
        d=setup.d / s ** (2.0 / 3.0),
        T=setup.T * s, eta=setup.eta * s,
        G=setup.G, hbar=setup.hbar, kB=setup.kB,
    )
    block = np.ones((4, 4))
    block[:2, :2] = s**2
    block[:2, 2:] = s
    block[2:, :2] = s
    return new_setup, DiffusionMatrix(gamma.matrix * block)


def write_raw_trajectories(path, ens: TrajectoryEnsemble) -> None:
    """Dump the ensemble to the documented little-endian binary record.

    Layout: magic ``GDMC`` (4 bytes), version uint32, n_traj uint64,
    n_samples uint64, dt float64, duration float64, master_seed uint64, then
    for each trajectory its x samples followed by its p samples, float64.
    """
    n_samples = ens.x.shape[1]
    header = _RAW_MAGIC + struct.pack(
        "<IQQddQ", _RAW_VERSION, ens.n_traj, n_samples, ens.dt, ens.duration,
        ens.master_seed,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        for i in range(ens.n_traj):
            fh.write(np.ascontiguousarray(ens.x[i], dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(ens.p[i], dtype="<f8").tobytes())


def read_raw_trajectories(path) -> TrajectoryEnsemble:
    """Read a record written by :func:`write_raw_trajectories`."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _RAW_MAGIC:
            raise ConfigError(f"not a trajectory record (magic {magic!r})")
        version, n_traj, n_samples, dt, duration, master_seed = struct.unpack(
            "<IQQddQ", fh.read(4 + 8 + 8 + 8 + 8 + 8)
        )
        if version != _RAW_VERSION:
            raise ConfigError(f"unsupported record version {version}")
        data = np.frombuffer(fh.read(), dtype="<f8")
    expected = 2 * n_traj * n_samples
    if data.size != expected:
        raise ConfigError(f"truncated record: {data.size} values, expected {expected}")
    data = data.reshape(n_traj, 2, n_samples)
    return TrajectoryEnsemble(
        n_traj=n_traj, dt=dt, duration=duration,
        times=np.arange(n_samples) * dt,
        x=data[:, 0, :].copy(), p=data[:, 1, :].copy(),
        seeds=tuple(range(n_traj)), master_seed=master_seed,
    )
