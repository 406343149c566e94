"""Time-domain Monte Carlo of the monitored oscillator's Langevin dynamics.

The monitored mass (mode 1) obeys dz = A z dt + dN over z = (x, p): the
partner-fixed drift A and gravitational noise rate D of
:func:`gravdiff.model.langevin_model`, which the spectra read too, plus
classical white thermal noise of intensity 2 eta m kB T, independent of the
gravitational noise, on the momentum :func:`~gravdiff.model.mobile_momenta`
names; its frequency, energy form and quantum are read off the same form,
:attr:`~gravdiff.model.LinearizedSystem.H_fixed`. x is the deviation from the
equilibrium shifted by the static force, so a trajectory started at rest
without noise stays at rest.

Integration is exact (exact Ornstein-Uhlenbeck updating, D. T. Gillespie,
PRE 54:2084, 1996): the pair (Phi, Q) from :func:`gravdiff.model.propagator`
is the drift exponential and the covariance that one step of length dt adds,
so each step is z <- Phi z + C u with C C^T = Q and u two
standard normals. The sampled chain has the continuous process's transition
law at every admissible step, with no step-size bias in any moment.

The run is propagated in blocks of B = 16 steps, with no per-step Python
loop and no linear solve. From a block's start state s, the state after
step j of the block is

    z = sum_{i <= j} Phi^(j-i) C u[i] + Phi^(j+1) s,

so a block's B states are one product of its 2B draws and s with a fixed
kernel: lower block-Toeplitz in the entries Phi^(j-i) C, plus the rows
Phi^(j+1). The block starts obey s[b+1] = Phi^B s[b] + e[b], where e[b] is
the noise part of block b's last state: the same recursion with (Phi^B, I)
in place of (Phi, C), and the starts of its superblocks of B blocks obey it
once more with (Phi^(B^2), I). The run goes by in chunks of B^3 = 4096
steps, one flat loop with no recursion: a chunk's draws give its 256 block
ends and, by the second kernel, its 16 superblock ends; the third kernel
gives the superblock starts from the chunk's start, the second the block
starts and the first the states. Each chunk starts from the last state of
the one before. Nothing in this is specific to two dimensions: the kernels
are built for any Phi and noise factor C.

The trajectories are independent, so they run on the standard library's
thread pool (``concurrent.futures.ThreadPoolExecutor``) with one thread per
CPU in the process's affinity mask (restrict it with ``taskset`` to use
fewer), at most one per trajectory; runs shorter than four chunks stay on
the calling thread. Each running job draws its trajectory's stream one
chunk at a time into one of W reused buffer sets, one per thread, and
propagates it into its row of the output, so the work memory beyond the
output (per thread: a chunk's draws, the rows of the three kernel products
and a last chunk that overhangs the output, about 0.2 MB) grows with
neither the ensemble nor the run length.
Every matrix product has a fixed shape, the draws past the end of the run
being zero: a BLAS product's rounding can depend on its shape, and with
fixed shapes each state depends only on the draws before it, so a row is
bit-identical for any ensemble width, run length and thread count. The
draws and their order are those of the step-by-step recursion; only
rounding differs from it (about 1e-14 relative). The sampler needs numpy
only; the stationary covariance that starts a run has a closed form
(:func:`stationary_covariance`).

Every stream is a pure function of the master seed s and its index, so
trajectories are reproducible and order-independent regardless of how the
ensemble is batched or scheduled. Trajectory k is an SFC64 generator seeded
by child k of s's ``SeedSequence`` (``SeedSequence(s, spawn_key=(k,))``,
NumPy NEP 19); it draws normals 1.3-1.6 times faster than Philox, and the
draws are most of a one-trajectory run. Reheating cycle i keeps the
counter-based Philox keyed by the 64-bit words [s, 2**56 | i] (J. K. Salmon
et al., SC'11): a cycle draws only 3 normals, so building its generator is
most of its cost, and a Philox key is cheaper to build than a
``SeedSequence``. Per stream, the draw order is: for ``simulate``, 2 normals
for the initial condition (when sampled), then 2 normals per step; for
``reheating_run``, 2 normals for the end-of-cycle state, then 1 for the
readout.

This module writes no file: an ensemble's raw binary record (``simulate
--raw``) is written and read by :mod:`gravdiff.manifest`.
"""

from __future__ import annotations

import collections
import contextvars
import functools
import math
import os
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, DomainError, ProtocolError, SeedError, StabilityError, require
from .model import (
    DiffusionMatrix,
    LinearizedSystem,
    PhysicalSetup,
    _readonly,
    _view,
    langevin_model,
    mobile_momenta,
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
    "step_limit",
    "phonon_heating_rate",
    "stationary_covariance",
]

# Stream-id domains keep trajectory and protocol streams disjoint under one
# master seed.
_DOMAIN_TRAJECTORY = 0
_DOMAIN_CYCLE = 1 << 56

# Blocked propagation (see the module docstring): steps per block, and blocks
# per chunk, B^2 for the three levels of B. Together they fix the shape of
# every BLAS call.
_BLOCK_STEPS = 16
_CHUNK_BLOCKS = _BLOCK_STEPS ** 2

# Welch constants kept for this many (segment length, step) pairs, and
# sampler kernels for this many (A, D, step) models.
_WELCH_CACHE = 4
_KERNEL_CACHE = 4

# Trajectories shorter than this many samples are simulated and transformed
# on the calling thread: below about four chunks a job is too short for a
# thread to pay for its hand-offs.
_THREADED_SAMPLES = 4 * _CHUNK_BLOCKS * _BLOCK_STEPS


def _workers(n_jobs: int, job_samples: int) -> int:
    """Threads for n_jobs independent jobs of job_samples samples each: the
    CPUs in this process's affinity mask (``os.cpu_count()`` where there is
    none), at most n_jobs, and 1 for jobs shorter than _THREADED_SAMPLES."""
    if job_samples < _THREADED_SAMPLES:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:                       # no affinity masks here
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, n_jobs))


def _in_order(make_job, n_jobs: int, job_samples: int):
    """Yield job(0), ..., job(n_jobs - 1) in that order.

    The jobs run on a thread pool of W = :func:`_workers` (n_jobs,
    job_samples) threads. The W ``make_job()`` buffer sets are built here
    before any job is submitted; each running job takes one set and puts it
    back, so no two running jobs share buffers. Each job runs in a copy of
    the caller's context, so numpy's errstate holds there too. At most 2 W
    jobs are submitted ahead of the one yielded last, which bounds the
    results held. A job's exception is raised here when its result is due.
    With W = 1 the jobs run inline and no thread is started.
    """
    n_threads = _workers(n_jobs, job_samples)
    if n_threads == 1:
        yield from map(make_job(), range(n_jobs))
        return
    # Imported here, not at module level: concurrent.futures pulls in
    # logging, 8-9 ms of imports on a 2-vCPU x86 host (-X importtime), which
    # importing gravdiff and every inline run should not pay.
    import queue
    from concurrent.futures import ThreadPoolExecutor

    free = queue.SimpleQueue()                   # buffer sets not in use
    for _ in range(n_threads):
        free.put(make_job())

    def run(k):
        job = free.get()
        try:
            return job(k)
        finally:
            free.put(job)

    with ThreadPoolExecutor(n_threads) as pool:
        pending = collections.deque()
        try:
            for k in range(n_jobs):
                if len(pending) == 2 * n_threads:
                    yield pending.popleft().result()
                pending.append(pool.submit(contextvars.copy_context().run, run, k))
            while pending:
                yield pending.popleft().result()
        finally:
            for future in pending:
                future.cancel()


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


def _block_operators(Phi: np.ndarray, C: np.ndarray):
    """(K, F) of the blocked propagator of z[k+1] = Phi z[k] + C u[k].

    For a state of dimension n and m draws per step, a block of B steps from
    the start state s has states sum_{i <= j} Phi^(j-i) C u[i] + Phi^(j+1) s,
    j < B. K[r] is the (B m + n, B) kernel of component r: row i m + c of
    column j holds (Phi^(j-i) C)[r, c] for i <= j and 0 above, and row B m + c
    holds Phi^(j+1)[r, c]; so a block's draws followed by its start state,
    times K[r], give component r of its B states. F = Phi^B.
    """
    n, m = C.shape
    B = _BLOCK_STEPS
    powers = np.eye(n)[None]
    while len(powers) <= B:                      # powers[k] = Phi^k, by doubling
        powers = np.concatenate([powers, powers @ (powers[-1] @ Phi)])
    lag = np.arange(B) - np.arange(B)[:, None]   # lag[i, j] = j - i
    noise = (powers[:B] @ C)[np.maximum(lag, 0)] * (lag >= 0)[:, :, None, None]
    K = np.concatenate([noise.transpose(2, 0, 3, 1).reshape(n, B * m, B),
                        powers[1:B + 1].transpose(1, 2, 0)], axis=1)
    return K, powers[B]


def _levels(Phi: np.ndarray, C: np.ndarray) -> list:
    """The three kernels of :func:`_propagate` for z[k+1] = Phi z[k] + C u[k]:
    :func:`_block_operators` of (Phi, C), (Phi^B, I) and (Phi^(B^2), I),
    which step through a block's steps, a superblock's blocks and a chunk's
    superblocks."""
    kernels = []
    for _ in range(3):
        K, Phi = _block_operators(Phi, C)
        kernels.append(K)
        C = np.eye(len(Phi))
    return kernels


@functools.lru_cache(maxsize=_KERNEL_CACHE)
def _sampler_kernels(A: bytes, D: bytes, dt: float) -> tuple[np.ndarray, tuple]:
    """(C, levels) of :func:`simulate` for the 2 x 2 model (A, D), given by
    its bytes, at step dt: the noise factor C C^T = Q of the step's
    :func:`~gravdiff.model.propagator` (Phi, Q) and :func:`_levels` of
    (Phi, C)."""
    Phi, Q = propagator(np.frombuffer(A).reshape(2, 2), np.frombuffer(D).reshape(2, 2), dt)
    C = _noise_factor(Q)
    return _readonly(C), tuple(_readonly(K) for K in _levels(Phi, C))


def _chunk_buffers(levels, n: int) -> tuple:
    """The buffers of :func:`_propagate` for an n-dimensional state, whatever
    the run length: a chunk's draws and, per level, the rows of its kernel
    product (draws, then start states), the noise ends of those rows and the
    states it gives, start first. Level 0's states hold a last chunk that
    overhangs z."""
    R = _CHUNK_BLOCKS
    levels_work = []
    for K in levels:
        levels_work.append((np.empty((R, K.shape[1])), np.empty((R, n)),
                            np.empty((n, R * _BLOCK_STEPS + 1))))
        R //= _BLOCK_STEPS
    return np.empty(_CHUNK_BLOCKS * (levels[0].shape[1] - n)), levels_work


def _propagate(levels, work, normals, z: np.ndarray) -> None:
    """Fill z[:, 1:] by z[:, j + 1] = Phi z[:, j] + C u[j] from z[:, 0].

    ``levels`` is :func:`_levels` of (Phi, C) and ``work`` its
    :func:`_chunk_buffers`. ``normals(out=a)`` fills a with the next draws
    u, m per step in step order; None stands for draws that are all zero.
    The run goes by in chunks of _CHUNK_BLOCKS blocks, each started from the
    last state of the one before. A chunk's draws, zero-padded past the end
    of the run, give the noise ends of its blocks, which give those of its
    superblocks. ``levels[2]`` then gives the superblock starts from the
    chunk's start, ``levels[1]`` the block starts and ``levels[0]`` the
    states.
    """
    draws, levels_work = work
    n, n_steps = z.shape[0], z.shape[1] - 1
    span = _CHUNK_BLOCKS * _BLOCK_STEPS
    per_step = 0 if normals is None else len(draws) // span
    for a in range(0, n_steps, span):
        used = per_step * min(span, n_steps - a)
        if used:
            normals(out=draws[:used])
        draws[used:] = 0.0
        level_draws = draws.reshape(_CHUNK_BLOCKS, -1)
        for level, (rows, level_ends, _) in enumerate(levels_work):
            rows[:, :-n] = level_draws
            if level < 2:                        # the noise ends are the next level's draws
                np.matmul(level_draws, levels[level][:, :-n, -1].T, out=level_ends)
                level_draws = level_ends.reshape(-1, _BLOCK_STEPS * n)
        starts = z[:, a:a + 1]
        for level in (2, 1, 0):
            rows, _, states = levels_work[level]
            if level:
                states[:, 0] = z[:, a]
            elif a + span <= n_steps:
                states = z[:, a:a + span + 1]
            rows[:, -n:] = starts[:, :len(rows)].T
            np.matmul(rows, levels[level], out=states[:, 1:].reshape(n, len(rows), -1))
            starts = states
    if n_steps % span:                           # the last chunk overhangs z
        z[:, a + 1:] = states[:, 1:n_steps - a + 1]


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
        require("thermal_intensity", self.thermal_intensity, strict=False)
        if not isinstance(self.seed, (int, np.integer)):
            raise SeedError(f"seed must be an integer, got {type(self.seed).__name__}")
        seed = int(self.seed)
        if not 0 <= seed < 2**64:
            raise SeedError(f"seed must be in [0, 2**64), got {seed}")
        object.__setattr__(self, "seed", seed)

    @classmethod
    def from_setup(cls, setup: PhysicalSetup, gamma: DiffusionMatrix, seed: int) -> "NoiseModel":
        """The setup's bath as a NoiseModel: intensity exactly 0 when T or
        eta is 0 (else 2 eta m1 kB T, multiplied left to right), and
        DomainError when its finite factors multiply past the floating-point
        range."""
        if setup.T == 0.0 or setup.eta == 0.0:
            return cls(gamma=gamma, thermal_intensity=0.0, seed=seed)
        intensity = 2.0 * setup.eta * setup.m1 * setup.kB * setup.T
        if not intensity < np.inf:
            raise DomainError(f"thermal intensity 2 eta m1 kB T overflows: eta = {setup.eta!r}, "
                              f"m1 = {setup.m1!r}, kB = {setup.kB!r}, T = {setup.T!r}")
        return cls(gamma=gamma, thermal_intensity=intensity, seed=seed)

    def stream(self, index: int, domain: int = _DOMAIN_TRAJECTORY) -> np.random.Generator:
        """Generator of stream ``index`` (>= 0) in ``domain``.

        A trajectory stream is SFC64 seeded by child ``index`` of the master
        seed's SeedSequence. Other domains are counter-based: Philox keyed
        by the two 64-bit words (seed, domain | index). Entropy
        [seed, index] would not do for the trajectories: SeedSequence hashes
        a list entropy as one run of 32-bit words, so (5, 7 * 2**32 + 9) and
        (9 * 2**32 + 5, 7) would give the same stream. The Philox key is
        built as uint64: a plain list of a seed from 2**63 on goes through
        float64 and loses its low bits, and those of the stream id with it.
        """
        if domain == _DOMAIN_TRAJECTORY:
            return np.random.Generator(np.random.SFC64(
                np.random.SeedSequence(self.seed, spawn_key=(index,))))
        key = np.array([self.seed, domain | index], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class TrajectoryEnsemble:
    """Monitored-oscillator sample paths, one row per trajectory; an ensemble
    with no trajectory is a SeedError, as in :func:`simulate`."""

    n_traj: int
    dt: float
    duration: float
    times: np.ndarray
    x: np.ndarray
    p: np.ndarray
    seeds: tuple[int, ...]
    master_seed: int

    def __post_init__(self):
        if self.n_traj < 1:
            raise SeedError("ensemble must contain at least one trajectory")
        for name in ("times", "x", "p"):
            object.__setattr__(self, name, _view(getattr(self, name)))
        if self.x.shape != (self.n_traj, len(self.times)):
            raise DomainError("x must have shape (n_traj, n_samples)")
        if self.p.shape != self.x.shape:
            raise DomainError("p must match x in shape")


def effective_frequency(sys: LinearizedSystem) -> float:
    """Frequency Omega_eff of mode 1 with the partner held fixed: sqrt(k / m) of
    its form :attr:`~gravdiff.model.LinearizedSystem.H_fixed` = diag(k, 1/m), which
    is sqrt(-A[1, 0] A[0, 1]) of that model's drift A bit for bit. As the one
    reader of that spring, it refuses (StabilityError) an underflowed k whose
    energy form k / 2 is not positive, or whose ground-state width
    0.25 hbar Omega_eff (k / 2)^-1, formed as :func:`reheating_run` forms it,
    is not finite."""
    k, inv_m = (float(h) for h in np.diag(sys.H_fixed))
    if 0.5 * k > 0.0:
        omega = math.sqrt(k * inv_m)
        if math.isfinite(0.25 * sys.hbar * omega * (1.0 / (0.5 * k))):
            return omega
    raise StabilityError(f"monitored spring H_fixed[0, 0] = m1 Omega1^2 + K = "
                         f"{k:.6e} gives no ground state")


def _monitored_model(setup: PhysicalSetup, sys: LinearizedSystem,
                     noise: NoiseModel) -> tuple[np.ndarray, np.ndarray]:
    """(A, D) of (x, p) with the white thermal force: dV/dt = A V + V A^T + D
    is the moment oracle for the sampler."""
    A, D = langevin_model(setup, sys, noise.gamma.matrix, partner_fixed=True)
    for i, _ in mobile_momenta(setup, partner_fixed=True):
        D[i, i] += noise.thermal_intensity
    return A, D


def step_limit(setup: PhysicalSetup, sys: LinearizedSystem) -> float:
    """The sampler's largest step [s]: 1% of the fastest timescale,
    0.01 * min(2 pi / Omega_eff, 1/eta)."""
    limit = 0.01 * 2.0 * np.pi / effective_frequency(sys)
    if setup.eta > 0:
        limit = min(limit, 0.01 / setup.eta)
    return limit


def stationary_covariance(setup: PhysicalSetup, sys: LinearizedSystem,
                          noise: NoiseModel) -> np.ndarray:
    """Steady-state covariance of (x, p); requires eta > 0 when noise is on.

    A V + V A^T + D = 0 is solved in closed form for A = [[0, a], [-b, -eta]]:
    V_xp = -D_xx/(2a), V_pp = (D_pp - 2 b V_xp)/(2 eta) and
    V_xx = (a V_pp - eta V_xp + D_xp)/b. This stays exact at the Table-1
    pendulum's eta = 5e-11 Omega, where a general Lyapunov solver loses V.
    StabilityError for a spring :func:`effective_frequency` refuses.
    """
    effective_frequency(sys)
    return _stationary(*_monitored_model(setup, sys, noise))


def _stationary(A: np.ndarray, D: np.ndarray) -> np.ndarray:
    """:func:`stationary_covariance` of the model (A, D), damped at eta = -A[1, 1]."""
    if np.linalg.norm(D) == 0.0:
        return np.zeros((2, 2))
    a, b, eta = A[0, 1], -A[1, 0], -A[1, 1]
    if eta <= 0.0:
        raise StabilityError("no stationary state: eta = 0 with non-zero noise")
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
    stream_offset: int = 0,
) -> TrajectoryEnsemble:
    """Sample an ensemble of monitored-oscillator paths exactly at spacing dt.

    Parameters
    ----------
    init : "stationary" or (x0, p0)
        "stationary" samples each trajectory's initial (x, p) from the
        steady-state covariance (falls back to rest, (0.0, 0.0), when eta = 0
        or there is no noise); a pair starts every trajectory there.
    stream_offset : int
        Index of the first trajectory stream. Trajectory k of this run is
        stream ``stream_offset + k`` of the master seed, so a big ensemble
        produced in batches is bit-identical to one single run: batching and
        scheduling cannot change results.

    Raises DomainError unless dt and duration are positive and finite and
    ``init`` is "stationary" or a finite pair, StabilityError when dt exceeds
    :func:`step_limit` or :func:`effective_frequency` refuses the spring, and
    SeedError for an empty ensemble or a negative ``stream_offset``.
    """
    if n_traj <= 0:
        raise SeedError("ensemble must contain at least one trajectory")
    if stream_offset < 0:
        raise SeedError(f"stream_offset must be non-negative, got {stream_offset}")
    require("dt", dt)
    require("duration", duration)
    limit = step_limit(setup, sys)
    if dt > limit * (1.0 + 1e-12):
        raise StabilityError(f"dt = {dt:.3e} exceeds 0.01 * min(2 pi/Omega_eff, 1/eta) = {limit:.3e}")

    n_steps = int(round(duration / dt))
    if n_steps < 1:
        raise DomainError("duration shorter than one step")

    stationary = False
    z0 = np.zeros(2)
    if isinstance(init, str):
        if init != "stationary":
            raise DomainError(f"init must be 'stationary' or an (x0, p0) pair, got {init!r}")
        stationary = setup.eta > 0
    else:
        x0, p0 = init
        z0 = np.array([float(x0), float(p0)])
        if not np.isfinite(z0).all():
            raise DomainError(f"init must be finite, got {init!r}")

    A, D = _monitored_model(setup, sys, noise)
    V0 = _stationary(A, D) if stationary else np.zeros((2, 2))
    C, levels = _sampler_kernels(A.tobytes(), D.tobytes(), float(dt))
    L0 = _noise_factor(V0) if np.any(V0) else None
    noisy = bool(np.any(C))
    # zs[:, k, j] is the state z of trajectory k at step j, so
    # zs[0] and zs[1] are contiguous (n_traj, n_steps + 1) arrays of x and p.
    zs = np.empty((2, n_traj, n_steps + 1))
    times = np.arange(n_steps + 1, dtype=float)
    times *= dt                                  # in place: no integer temporary

    def worker_job():
        # One worker's chunk buffers, the same size for any run length.
        work = _chunk_buffers(levels, 2)

        def trajectory(k):
            z = zs[:, k]
            z[:, 0] = z0
            stream = noise.stream(stream_offset + k) if noisy or L0 is not None else None
            if L0 is not None:
                u0 = stream.standard_normal(2)
                z[:, 0] += L0[:, 0] * u0[0] + L0[:, 1] * u0[1]
            _propagate(levels, work, stream.standard_normal if noisy else None, z)
        return trajectory

    for _ in _in_order(worker_job, n_traj, n_steps + 1):
        pass

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


@functools.lru_cache(maxsize=_WELCH_CACHE)
def _welch_constants(L: int, dt: float) -> tuple[np.ndarray, float, np.ndarray]:
    """(window, sum of its squares, grid) of :func:`welch_spectrum`: the
    periodic Hann window of length L and the angular grid sorted by
    increasing omega, 2 pi k / (L dt) for k = -floor(L/2) ... ceil(L/2) - 1.
    The grid is evaluated as 2 pi fftshift(fftfreq(L, dt)) evaluates it,
    2 pi (k (1 / (L dt))), so it has the same bits."""
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(L) / L)
    omega = 2.0 * np.pi * (np.arange(-(L // 2), (L + 1) // 2) * (1.0 / (L * dt)))
    return _readonly(window), float((window * window).sum()), _readonly(omega)


def welch_spectrum(ens: TrajectoryEnsemble, segment_len: int,
                   overlap: float = 0.5) -> NoiseSpectrum:
    """Hann-windowed, overlap- and ensemble-averaged two-sided periodogram.

    Normalized so a white input of intensity sigma^2 (sample variance
    sigma^2/dt) estimates a flat density sigma^2 in the angular two-sided
    convention of :mod:`gravdiff.spectra`. Returns the spectrum on the
    fft-ordered grid sorted by increasing omega. Segments start every
    ``segment_len - int(overlap * segment_len)`` samples and are not
    detrended. Each trajectory's periodogram is computed on the thread pool
    that :func:`simulate` would use, with at most two per thread submitted
    ahead of the one added, so at most two per thread waiting. The
    periodograms are added up in trajectory order, so the result is
    bit-identical for any thread count, and the working memory is that of a
    few trajectories' segments per thread.

    The window, its power sum and the grid are built once per segment length
    and step, on first use, and kept for the 4 most recent (segment length,
    step) pairs: at most 4 x 16 L bytes for segments of at most L samples.
    """
    n_seg, hop = welch_segments(ens.x.shape[1], segment_len, overlap)
    L = segment_len
    window, window_power, omega = _welch_constants(L, ens.dt)

    def worker_job():
        # One thread's windowed segments; their powers reuse the buffer.
        segments = np.empty((n_seg, L))

        def periodogram(k):
            np.multiply(sliding_window_view(ens.x[k], L)[::hop], window, out=segments)
            X = np.fft.rfft(segments, axis=-1)
            np.square(X.real, out=X.real)
            np.square(X.imag, out=X.imag)
            powers = segments.ravel()[:X.size].reshape(X.shape)
            return np.add(X.real, X.imag, out=powers).sum(axis=0)
        return periodogram

    power = np.zeros(L // 2 + 1)
    for pk in _in_order(worker_job, ens.n_traj, ens.x.shape[1]):
        power += pk
    power *= ens.dt / window_power / (n_seg * ens.n_traj)
    # A real input has S(-omega) = S(omega): mirror the non-negative bins.
    S = np.concatenate([power[1:L // 2 + 1][::-1], power[:(L + 1) // 2]])
    return NoiseSpectrum(omega=omega, S_total=S)


@dataclass(frozen=True)
class ReheatResult:
    """Heating-rate estimate from repeated prepare/evolve/measure cycles."""

    Gamma_hat: float
    rel_err: float
    stderr: float
    n_cycles: int
    cycle_time: float


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

    Requires 0 < cycle_time < 0.1 / eta so damping does not bend the growth,
    and a monitored spring that :func:`effective_frequency` accepts
    (StabilityError otherwise).
    """
    if n_cycles < 2:
        raise SeedError("need at least two cycles to estimate a rate")
    require("detector_noise_N", detector_noise_N, strict=False)
    require("cycle_time", cycle_time)
    if setup.eta > 0 and cycle_time >= 0.1 / setup.eta:
        raise ProtocolError(
            f"cycle_time = {cycle_time:.3e} s is not << 1/eta = {1.0 / setup.eta:.3e} s"
        )
    W, quantum = 0.5 * sys.H_fixed, setup.hbar * effective_frequency(sys)
    Phi, Q = propagator(*_monitored_model(setup, sys, noise), cycle_time)
    # W is diagonal: its inverse is the reciprocal of each entry, exactly
    V_g = 0.25 * quantum * np.diag(1.0 / np.diag(W))
    C = _noise_factor(Phi @ V_g @ Phi.T + Q)

    u = np.empty((n_cycles, 3))
    for i in range(n_cycles):
        noise.stream(i, domain=_DOMAIN_CYCLE).standard_normal(out=u[i])
    z = u[:, :2] @ C.T
    n_hat = ((z @ W) * z).sum(axis=1) / quantum - 0.5
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

    Gamma = tr(W D) / (hbar Omega_eff) for the energy form W = H_fixed / 2,
    the small-time energy growth of the sampler divided by the quantum.
    """
    W, quantum = 0.5 * sys.H_fixed, setup.hbar * effective_frequency(sys)
    return float(np.trace(W @ _monitored_model(setup, sys, noise)[1]) / quantum)


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
    require("scale", scale)
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
