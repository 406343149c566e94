"""The benchmark's four workloads: seeded input generators, timed rounds and
output checks.

Every workload runs as one closed-loop client: one process, one thread, each
call issued after the previous one returned. Its inputs are built once from
the seed, and every round repeats the same fixed amount of work on them, so
round times compare across seeds and runs. Calls go through module
attributes (``dynamics.evolve_covariance_dimensionless``, ...) so that the
tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import shutil
from pathlib import Path
from time import perf_counter

import numpy as np

from gravdiff import bounds, cli, constants, dynamics, feasibility, model, montecarlo, spectra

import hostspeed
import stats

# Tolerances of the paper's acceptance criteria (tests/test_acceptance.py).
UNC_TOL = 1e-8            # criterion 6: min eig(V + iJ/2) >= -1e-8
CHAIN_GAP = 1e-10         # criterion 4: |alpha(pi/2) margin - trace margin|
RES_TOL, WING_TOL = 0.10, 0.20   # criterion 5a
PULL_MAX = 5.0            # reheating: mean Gamma_hat within 5 standard errors

SEP_EVOLVE = 48           # criterion-6 setups per round
SEP_CHAIN = 4000          # PSD matrices through the bound chain per round
FREQ_LO, FREQ_HI = 0.5, 2.0

LANG_DT = 1.0 / 128.0
LANG_WIDTH = 64
LANG_BATCHES = 7
LANG_DURATION = 512.0     # s per wide trajectory: 3 Welch segments each
LANG_SEGMENT = 32768      # 256 s: bin 1/256 Hz against a 0.01 Hz linewidth
LANG_NARROW_DURATION = 256.0   # one narrow run after each wide batch
KERNEL_OVERSAMPLE = 8
KERNEL_HALF_BINS = 64
BAND = (0.4, 1.6)         # oracle band around the resonance, in units of f_eff

REHEAT_CYCLES = (32, 64, 128, 320)
REHEAT_RUNS = 64          # per round, equal counts of each cycle number

LIGHT_COMMANDS = ("linearize", "bound", "spectrum", "feasibility", "sweep")


def workload_rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def pair_setup(kbar_over_omega: float, omega: float = 1.0, m: float = 1.0) -> model.PhysicalSetup:
    """Equal-mass pair whose renormalized coupling is K = c m Omega^2."""
    c = kbar_over_omega
    K = c * m * omega**2 / (1.0 + c)
    d = (2.0 * constants.G_NEWTON * m * m / K) ** (1.0 / 3.0)
    return model.PhysicalSetup(m1=m, m2=m, omega1=omega, omega2=omega, d=d)


# ----------------------------------------------------------------- recording

class Recorder:
    """Times the calls of one client and counts attempts and failures.

    Durations are normalized for host speed (see ``hostspeed``) when the run
    finishes; ``view(raw=True)`` switches ``latency`` and ``round_s`` to the
    raw wall-clock values.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.calibrator = hostspeed.Calibrator()
        self.calls: list[tuple[str, float, float]] = []   # (kind, start, end)
        self.round_ends: list[int] = []
        self.units: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.latency: dict[str, list[float]] = {}
        self.round_s: list[float] = []
        self._views = {}

    def op(self, kind: str, fn):
        """Run one timed operation; returns its result, or None if it raised."""
        self.attempted += 1
        self.calibrator.sample()
        if self.tracer is not None:
            self.tracer.begin_op(kind)
        t0 = perf_counter()
        try:
            out = fn()
        except Exception as exc:  # the run goes on and reports the failure
            self._fail(f"{kind}: raised {type(exc).__name__}: {exc}")
            return None
        self.calls.append((kind, t0, perf_counter()))
        return out

    def add_units(self, kind: str, n: float) -> None:
        self.units[kind] = self.units.get(kind, 0.0) + n

    def check(self, kind: str, problems: list[str]) -> None:
        """Record the verdict on an operation already counted by ``op``."""
        if problems:
            self._fail(f"{kind}: " + "; ".join(problems))

    def round_check(self, kind: str, problems: list[str]) -> None:
        """A check over a whole round counts as one more operation."""
        self.attempted += 1
        self.check(kind, problems)

    def end_round(self) -> None:
        self.round_ends.append(len(self.calls))

    def finish(self) -> None:
        """Convert the recorded calls into normalized and raw durations."""
        self.calibrator.sample(force=True)
        start = np.array([c[1] for c in self.calls])
        raw = np.array([c[2] for c in self.calls]) - start
        scaled = raw * self.calibrator.scale(start + 0.5 * raw)
        for name, durations in (("normalized", scaled), ("raw", raw)):
            latency: dict[str, list[float]] = {}
            for (kind, _, _), d in zip(self.calls, durations):
                latency.setdefault(kind, []).append(float(d))
            bounds_ = [0, *self.round_ends]
            rounds = [float(durations[a:b].sum()) for a, b in zip(bounds_, bounds_[1:])]
            self._views[name] = (latency, rounds)
        self.view(raw=False)

    def view(self, raw: bool) -> None:
        self.latency, self.round_s = self._views["raw" if raw else "normalized"]

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(message)

    def total(self, *kinds: str) -> float:
        return sum(sum(self.latency.get(k, ())) for k in kinds)

    def rate(self, units_kind: str, *kinds: str) -> float:
        return self.units.get(units_kind, 0.0) / self.total(*kinds)

    def calls_per_s(self, *kinds: str) -> float:
        return sum(len(self.latency.get(k, ())) for k in kinds) / self.total(*kinds)

    def pooled(self, *kinds: str) -> list[float]:
        return [x for k in kinds for x in self.latency.get(k, ())]


def geometric_mean_p50(rec: Recorder, kinds) -> float:
    """Geometric mean over call kinds of each kind's median latency [s]."""
    return math.exp(sum(math.log(stats.median(rec.latency[k])) for k in kinds) / len(kinds))


def latency_summary(values: list[float]) -> dict:
    """p50 and tail in ms with the sample count."""
    out = {"p50_ms": 1e3 * stats.median(values), "n": len(values)}
    t = stats.tail(values)
    if t is not None:
        out["tail_pct"], out["tail_ms"] = t[0], 1e3 * t[1]
    return out


# --------------------------------------------------------------- separability

def ratio_quantile(survival: float) -> float:
    """Quantile of max/min for two frequencies drawn uniformly on [lo, hi].

    P(ratio > t) = (hi - t lo)^2 / (t (hi - lo)^2) for t in [1, hi/lo].
    """
    a, b, width2 = FREQ_LO, FREQ_HI, (FREQ_HI - FREQ_LO) ** 2
    p = 2.0 * a * b + survival * width2
    return (p - math.sqrt(p * p - 4.0 * a * a * b * b)) / (2.0 * a * a)


@dataclasses.dataclass
class EvolveCase:
    V0: np.ndarray
    Hbar: np.ndarray
    gamma_bar: np.ndarray
    t_end: float
    dt: float


def separability_inputs(seed: int) -> dict:
    """Criterion 6's random setups, criterion 3's onset triple and criterion 4's
    PSD draws.

    The frequency ratio, which fixes the step count of an evolution, takes
    stratified quantiles of its distribution under criterion 6's generator, so
    every round has the same number of steps; the rest is drawn at random.
    """
    rng = workload_rng(seed, 1)
    ratios = [ratio_quantile(1.0 - (i + 0.5) / SEP_EVOLVE) for i in range(SEP_EVOLVE)]
    cases = []
    for r in rng.permutation(ratios):
        # given the ratio, the smaller frequency has density proportional to itself
        lo = math.sqrt(FREQ_LO**2 + rng.uniform() * ((FREQ_HI / r) ** 2 - FREQ_LO**2))
        hi = r * lo
        om1, om2 = (lo, hi) if rng.uniform() < 0.5 else (hi, lo)
        kbar = rng.uniform(0.0, 0.8) * lo
        Hbar = np.diag([om1, om2, om1, om2])
        Hbar[0, 1] = Hbar[1, 0] = kbar
        X = rng.standard_normal((4, 4))
        gamma_bar = rng.uniform(0.0, 0.1) * (X @ X.T)
        Y = rng.standard_normal((4, 4))
        V0 = 0.5 * np.eye(4) + rng.uniform(0.0, 0.5) * (Y @ Y.T)
        cases.append(EvolveCase(V0, Hbar, gamma_bar, 1.2 * 2 * np.pi / lo, 0.008 * 2 * np.pi / hi))

    setup = pair_setup(0.3, omega=rng.uniform(FREQ_LO, FREQ_HI), m=rng.uniform(0.5, 2.0))
    sys_lin = model.linearize(setup)
    mixed = bounds.minimal_diffusion(setup, "mixed", omega=sys_lin.Omega1)
    onset_gammas = (model.DiffusionMatrix.zero(), mixed.scaled(0.99), mixed)
    G = rng.standard_normal((SEP_CHAIN, 4, 4))
    chain = 0.25 * np.einsum("bij,bkj->bik", G, G)
    return {"cases": cases, "sys": sys_lin, "onset_gammas": onset_gammas, "chain": chain}


def check_evolution(times, unc_min_eig, ppt_min_eig, t_end: float, dt: float) -> list[str]:
    problems = []
    if not (np.all(np.isfinite(unc_min_eig)) and np.all(np.isfinite(ppt_min_eig))):
        problems.append("non-finite eigen-diagnostic")
    elif unc_min_eig.min() < -UNC_TOL:
        problems.append(f"unc_min_eig {unc_min_eig.min():.3e} < -{UNC_TOL:g}")
    steps = np.diff(times)
    if times[0] != 0.0 or abs(times[-1] - t_end) > 1e-9 * t_end:
        problems.append(f"time grid ends at {times[-1]!r}, expected {t_end!r}")
    elif steps.min() <= 0 or steps.max() > dt * (1 + 1e-9):
        problems.append("time grid not increasing by at most dt")
    return problems


def check_onsets(onsets) -> list[str]:
    """gamma = 0 and 0.99x saturation entangle; saturation keeps separability."""
    zero, below, saturated = onsets
    problems = []
    if zero is None or below is None:
        problems.append(f"expected an onset for gamma=0 and 0.99x, got {zero!r}, {below!r}")
    if saturated is not None:
        problems.append(f"saturating gamma entangled at {saturated!r}")
    return problems


def check_chain(alpha_rep, trace_rep, weak_rep) -> list[str]:
    problems = []
    gap = abs(alpha_rep.margin - trace_rep.margin)
    if not gap <= CHAIN_GAP:
        problems.append(f"alpha-vs-trace margin gap {gap:.3e}")
    if trace_rep.satisfied and not weak_rep.satisfied:
        problems.append("trace bound satisfied but weak bound violated")
    return problems


class Separability:
    name = "separability"

    def __init__(self, seed: int, workdir: Path):
        self.inputs = separability_inputs(seed)
        self.onset_results = None

    def _evolve(self, rec: Recorder, case: EvolveCase) -> None:
        res = rec.op("evolve", lambda: dynamics.evolve_covariance_dimensionless(
            case.V0, case.Hbar, case.gamma_bar, case.t_end, case.dt))
        if res is not None:
            rec.add_units("evolve", len(res.times))
            rec.check("evolve", check_evolution(res.times, res.unc_min_eig, res.ppt_min_eig,
                                                case.t_end, case.dt))

    def _onsets(self, rec: Recorder, periods: float = 3.0, per_period: int = 1000):
        sys_lin = self.inputs["sys"]
        P = sys_lin.min_period()
        return tuple(rec.op("onset", lambda g=g: dynamics.entanglement_onset(
            model.ground_state(), sys_lin, g, periods * P, P / per_period))
            for g in self.inputs["onset_gammas"])

    def _chain(self, rec: Recorder, g: np.ndarray) -> None:
        sys_lin = self.inputs["sys"]
        reps = rec.op("bound_chain", lambda: (bounds.alpha_bound(g, sys_lin, np.pi / 2),
                                              bounds.strongest_bound(g, sys_lin),
                                              bounds.weak_bound(g, sys_lin)))
        if reps is not None:
            rec.add_units("bound_chain", 1)
            rec.check("bound_chain", check_chain(*reps))

    def warmup(self, rec: Recorder) -> None:
        for case in self.inputs["cases"][:4]:
            self._evolve(rec, case)
        for g in self.inputs["chain"][:200]:
            self._chain(rec, g)
        self._onsets(rec, periods=0.5)

    def round(self, rec: Recorder) -> None:
        for case in self.inputs["cases"]:
            self._evolve(rec, case)
        onsets = self._onsets(rec)
        rec.round_check("onset", check_onsets(onsets))
        for g in self.inputs["chain"]:
            self._chain(rec, g)
        rec.end_round()

    def metrics(self, rec: Recorder):
        evolve = latency_summary(rec.latency["evolve"])
        slots = {
            "rate_per_s": rec.rate("evolve", "evolve"),
            # a dozen calls of ~0.5 s each: the median resists collector pauses
            "rate2_per_s": 1.0 / stats.median(rec.latency["onset"]),
            "op_p50_ms": evolve["p50_ms"],
        }
        named = {
            "evolve_samples_per_s": (slots["rate_per_s"], "1/s"),
            "onset_calls_per_s": (slots["rate2_per_s"], "1/s"),
            "bound_matrices_per_s": (rec.rate("bound_chain", "bound_chain"), "1/s"),
        }
        return slots, named, {"evolve_call": evolve}


# ------------------------------------------------------------ langevin_spectrum

def langevin_inputs(seed: int) -> dict:
    """Criterion 5a physics (1 Hz, Q = 100, 300 K) with gamma sized against the
    thermal bracket; the seed draws the mixing factors and the master seed."""
    rng = workload_rng(seed, 2)
    omega = 2 * np.pi
    setup = dataclasses.replace(pair_setup(0.05, omega=omega), eta=omega / 100.0, T=300.0)
    sys_lin = model.linearize(setup)
    om_eff = montecarlo.effective_frequency(sys_lin)
    bracket = 2 * setup.eta * setup.m1 * constants.KB * setup.T / constants.HBAR**2
    g11 = rng.uniform(1.0, 1.6) * bracket
    g33 = rng.uniform(0.3, 0.7) * g11 / (setup.m1**2 * om_eff**2)
    g13 = rng.uniform(-0.3, 0.3) * math.sqrt(g11 * g33)
    g = np.zeros((4, 4))
    for (i, j), v in {(0, 0): g11, (1, 1): g11, (2, 2): g33, (3, 3): g33,
                      (0, 2): g13, (1, 3): g13}.items():
        g[i, j] = g[j, i] = v
    gamma = model.DiffusionMatrix(g)
    noise = montecarlo.NoiseModel.from_setup(setup, gamma, seed=int(rng.integers(2**63)))
    rows = rng.integers(LANG_WIDTH, size=LANG_BATCHES)
    return {"setup": setup, "sys": sys_lin, "gamma": gamma, "noise": noise,
            "om_eff": om_eff, "narrow_rows": [int(r) for r in rows]}


def window_kernel(segment: int, oversample: int = KERNEL_OVERSAMPLE,
                  half_bins: int = KERNEL_HALF_BINS) -> np.ndarray:
    """Power kernel of the periodic Hann window on a grid ``oversample`` times
    finer than the Welch bins, truncated to +-``half_bins`` bins, unit sum."""
    w = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(segment) / segment)
    power = np.abs(np.fft.fft(w, oversample * segment)) ** 2
    k = half_bins * oversample
    kernel = np.concatenate([power[-k:], power[:k + 1]])
    return kernel / kernel.sum()


def band_bins(f_eff: float, bin_hz: float) -> np.ndarray:
    return np.arange(math.floor(BAND[0] * f_eff / bin_hz), math.ceil(BAND[1] * f_eff / bin_hz) + 1)


def expected_welch(S_fine: np.ndarray, kernel: np.ndarray, oversample: int = KERNEL_OVERSAMPLE):
    """Expectation of the Welch estimate at each bin: the closed form smoothed
    by the window's power kernel. ``S_fine`` runs from half a kernel below the
    first bin to half a kernel above the last, at the oversampled spacing."""
    return np.convolve(S_fine, kernel, mode="valid")[::oversample]


def check_spectrum(omega, S_mc, S_ref, om_eff: float) -> tuple[list[str], dict]:
    """Criterion 5a's tolerances: 3-bin mean on resonance within 10%, each wing
    band (0.5-0.8 and 1.2-1.5 Omega_eff) within 20%."""
    problems = []
    pk = int(np.argmin(np.abs(omega - om_eff)))
    ratios = {"resonance": S_mc[pk - 1:pk + 2].mean() / S_ref[pk - 1:pk + 2].mean()}
    for name, lo, hi in (("low_wing", 0.5, 0.8), ("high_wing", 1.2, 1.5)):
        band = (omega >= lo * om_eff) & (omega <= hi * om_eff)
        ratios[name] = S_mc[band].mean() / S_ref[band].mean()
    if not abs(ratios["resonance"] - 1.0) <= RES_TOL:
        problems.append(f"resonance ratio {ratios['resonance']:.3f}")
    for name in ("low_wing", "high_wing"):
        if not abs(ratios[name] - 1.0) <= WING_TOL:
            problems.append(f"{name} ratio {ratios[name]:.3f}")
    return problems, {k: float(v) for k, v in ratios.items()}


def check_narrow(x, p, wide_x, wide_p, S, S_ref) -> list[str]:
    """A one-trajectory run repeats the wide run's stream to rounding."""
    problems = []
    n = x.shape[-1]
    for name, a, b in (("x", x, wide_x[:n]), ("p", p, wide_p[:n])):
        if not np.max(np.abs(a - b)) <= 1e-9 * np.max(np.abs(b)):
            problems.append(f"{name} differs from the wide run's stream")
    if not (S.shape == S_ref.shape and np.max(np.abs(S - S_ref)) <= 1e-9 * np.max(S_ref)):
        problems.append("spectrum differs from the wide run's stream")
    return problems


class LangevinSpectrum:
    name = "langevin_spectrum"

    def __init__(self, seed: int, workdir: Path):
        self.inputs = langevin_inputs(seed)
        self.kernel = window_kernel(LANG_SEGMENT)
        self.first_pooled = None
        self.ratios = None

    def _simulate_welch(self, rec, kind, width, duration, offset):
        """simulate then welch_spectrum, timed as two calls so that the host
        speed is sampled between them."""
        inp = self.inputs
        ens = rec.op(f"{kind}_simulate", lambda: montecarlo.simulate(
            inp["setup"], inp["sys"], inp["noise"], n_traj=width, dt=LANG_DT,
            duration=duration, stream_offset=offset))
        if ens is None:
            return None
        spec = rec.op(f"{kind}_welch", lambda: montecarlo.welch_spectrum(
            ens, segment_len=LANG_SEGMENT, overlap=0.5))
        if spec is None:
            return None
        rec.add_units(kind, ens.x.size)
        return ens, spec

    def _narrow(self, rec, wide, row):
        """Row ``row`` of the batch ``wide`` again, as a one-trajectory run."""
        out = self._simulate_welch(rec, "narrow", 1, LANG_NARROW_DURATION, wide.seeds[row])
        if out is None:
            return
        ens, spec = out
        n = ens.x.shape[1]
        ref = montecarlo.TrajectoryEnsemble(
            n_traj=1, dt=wide.dt, duration=ens.duration, times=wide.times[:n],
            x=wide.x[row:row + 1, :n], p=wide.p[row:row + 1, :n], seeds=(wide.seeds[row],),
            master_seed=wide.master_seed)
        S_ref = montecarlo.welch_spectrum(ref, segment_len=LANG_SEGMENT).S_total
        rec.check("narrow", check_narrow(ens.x[0], ens.p[0], wide.x[row], wide.p[row],
                                         spec.S_total, S_ref))

    def _oracle(self, rec):
        inp = self.inputs
        f_eff = inp["om_eff"] / (2 * np.pi)
        bin_hz = 1.0 / (LANG_SEGMENT * LANG_DT)
        bins = band_bins(f_eff, bin_hz)
        k = KERNEL_HALF_BINS * KERNEL_OVERSAMPLE
        fine = (np.arange(bins[0] * KERNEL_OVERSAMPLE - k, bins[-1] * KERNEL_OVERSAMPLE + k + 1)
                * bin_hz / KERNEL_OVERSAMPLE)
        spec = rec.op("oracle", lambda: spectra.dns_fixed_source(
            inp["setup"], inp["sys"], inp["gamma"], 2 * np.pi * fine))
        if spec is None:
            return None
        rec.add_units("oracle", fine.size)
        raw = spec.S_total[k:fine.size - k:KERNEL_OVERSAMPLE]
        return 2 * np.pi * bins * bin_hz, raw, expected_welch(spec.S_total, self.kernel)

    def warmup(self, rec: Recorder) -> None:
        inp = self.inputs
        ens = montecarlo.simulate(inp["setup"], inp["sys"], inp["noise"], n_traj=LANG_WIDTH,
                                  dt=LANG_DT, duration=64.0, stream_offset=10**6)
        montecarlo.welch_spectrum(ens, segment_len=4096)
        montecarlo.simulate(inp["setup"], inp["sys"], inp["noise"], n_traj=1, dt=LANG_DT,
                            duration=64.0, stream_offset=10**6)
        self._oracle(Recorder())

    def round(self, rec: Recorder) -> None:
        pooled = None
        for b in range(LANG_BATCHES):
            out = self._simulate_welch(rec, "wide", LANG_WIDTH, LANG_DURATION, LANG_WIDTH * b)
            if out is None:
                continue
            ens, spec = out
            self._narrow(rec, ens, self.inputs["narrow_rows"][b])
            pooled = spec.S_total / LANG_BATCHES + (0.0 if pooled is None else pooled)
            omega = spec.omega
            del ens, out
        oracle = self._oracle(rec)
        problems = []
        if pooled is None or oracle is None:
            problems.append("no spectrum to check")
        else:
            w_bins, raw, expected = oracle
            idx = np.searchsorted(omega, w_bins)
            if not np.allclose(omega[idx], w_bins, rtol=1e-9):
                problems.append("Welch grid does not contain the oracle bins")
            else:
                problems, self.ratios = check_spectrum(w_bins, pooled[idx], expected,
                                                       self.inputs["om_eff"])
                _, raw_ratios = check_spectrum(w_bins, pooled[idx], raw, self.inputs["om_eff"])
                self.ratios["raw_resonance"] = raw_ratios["resonance"]
            if self.first_pooled is None:
                self.first_pooled = pooled
            elif not np.array_equal(pooled, self.first_pooled):
                problems.append("pooled spectrum differs between identical rounds")
        rec.round_check("spectrum", problems)
        rec.end_round()

    def metrics(self, rec: Recorder):
        batches = [a + b for a, b in zip(rec.latency["wide_simulate"], rec.latency["wide_welch"])]
        slots = {
            "rate_per_s": rec.rate("wide", "wide_simulate", "wide_welch"),
            "rate2_per_s": rec.rate("narrow", "narrow_simulate", "narrow_welch"),
            "op_p50_ms": 1e3 * stats.median(batches),
        }
        named = {
            "mc_wide_samples_per_s": (slots["rate_per_s"], "1/s"),
            "mc_narrow_samples_per_s": (slots["rate2_per_s"], "1/s"),
        }
        return slots, named, {"spectrum_ratios": self.ratios}


# ------------------------------------------------------------------ reheating

def reheating_inputs(seed: int) -> dict:
    """Criterion 7's protocol: 1 Hz, Q = 2000, 160 thermal quanta, about one
    quantum of heating per cycle; the seed orders the cycle numbers and draws a
    fresh noise seed for every run."""
    rng = workload_rng(seed, 3)
    omega = 2 * np.pi
    setup = dataclasses.replace(pair_setup(0.05, omega=omega), eta=omega / 2000.0,
                                T=160.0 * constants.HBAR * omega / constants.KB)
    sys_lin = model.linearize(setup)
    zero = model.DiffusionMatrix.zero()
    rate = montecarlo.phonon_heating_rate(
        setup, sys_lin, montecarlo.NoiseModel.from_setup(setup, zero, 0))
    cycles = rng.permutation(np.repeat(REHEAT_CYCLES, REHEAT_RUNS // len(REHEAT_CYCLES)))
    seeds = rng.integers(2**62, size=REHEAT_RUNS)
    return {"setup": setup, "sys": sys_lin, "zero": zero, "rate": rate,
            "cycle_time": math.sqrt(1.25) / rate,
            "runs": [(int(c), int(s)) for c, s in zip(cycles, seeds)]}


def check_reheating(gamma_hats, rate: float) -> tuple[list[str], float]:
    """Pull of the mean rate estimate against the injected rate, in standard errors."""
    g = np.asarray(gamma_hats, dtype=float)
    if g.size < 2 or not np.all(np.isfinite(g)):
        return ["missing or non-finite rate estimates"], float("nan")
    pull = float((g.mean() - rate) / (g.std(ddof=1) / math.sqrt(g.size)))
    return ([] if abs(pull) <= PULL_MAX else [f"mean rate pull {pull:+.2f} sigma"]), pull


class Reheating:
    name = "reheating"

    def __init__(self, seed: int, workdir: Path):
        self.inputs = reheating_inputs(seed)
        self.first = None
        self.pull = None

    def _run(self, rec, n_cycles, seed):
        inp = self.inputs
        kind = f"reheat_{n_cycles}"
        res = rec.op(kind, lambda: montecarlo.reheating_run(
            inp["setup"], inp["sys"], montecarlo.NoiseModel.from_setup(inp["setup"], inp["zero"], seed),
            n_cycles=n_cycles, cycle_time=inp["cycle_time"], detector_noise_N=1.0))
        if res is None:
            return None
        rec.add_units("cycles", n_cycles)
        problems = []
        if res.n_cycles != n_cycles or res.cycle_time != inp["cycle_time"]:
            problems.append("result does not echo its protocol")
        if not (math.isfinite(res.Gamma_hat) and math.isfinite(res.stderr) and res.stderr > 0):
            problems.append("non-finite estimate")
        rec.check(kind, problems)
        return res.Gamma_hat

    def warmup(self, rec: Recorder) -> None:
        for n_cycles, seed in self.inputs["runs"][:8]:
            self._run(rec, n_cycles, seed)

    def round(self, rec: Recorder) -> None:
        ghats = [self._run(rec, c, s) for c, s in self.inputs["runs"]]
        problems = []
        if any(g is None for g in ghats):
            problems.append("a run raised")
        else:
            problems, self.pull = check_reheating(ghats, self.inputs["rate"])
            if self.first is None:
                self.first = ghats
            elif ghats != self.first:
                problems.append("estimates differ between identical rounds")
        rec.round_check("reheat_pull", problems)
        rec.end_round()

    def metrics(self, rec: Recorder):
        kinds = [f"reheat_{c}" for c in REHEAT_CYCLES]
        full = latency_summary(rec.latency["reheat_320"])
        slots = {
            "rate_per_s": rec.rate("cycles", *kinds),
            "rate2_per_s": rec.calls_per_s(*kinds),
            "op_p50_ms": full["p50_ms"],
        }
        named = {
            "reheat_cycles_per_s": (slots["rate_per_s"], "1/s"),
            "reheat_run_p50_ms": (full["p50_ms"], "ms"),
        }
        if "tail_ms" in full:
            named["reheat_run_tail_ms"] = (full["tail_ms"], "ms")
        return slots, named, {"reheat_320_call": full, "pull": self.pull}


# ------------------------------------------------------------------------ cli

def _fmt(x: float) -> str:
    return repr(float(x))


def cli_inputs(seed: int, workdir: Path) -> dict:
    """Two seeded config files (a symmetric trap pair and a torsion pendulum)
    and the argv of one scripted session."""
    rng = workload_rng(seed, 4)
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    m = rng.uniform(0.5, 2.0)
    omega = 2 * np.pi * rng.uniform(0.5, 2.0)
    d = rng.uniform(0.05, 0.2)
    Q = rng.uniform(300.0, 1000.0)
    # exchange-symmetric PSD gamma around the bound budget G m^2 / (hbar d^3)
    X = rng.standard_normal((4, 4))
    g = X @ X.T
    P = np.eye(4)[[1, 0, 3, 2]]
    S = np.diag([1.0, 1.0, 1.0 / (m * omega), 1.0 / (m * omega)])
    budget = constants.G_NEWTON * m**2 / (constants.HBAR * d**3)
    gamma = budget * rng.uniform(0.2, 2.0) / 4.0 * (S @ (0.5 * (g + P @ g @ P)) @ S)
    pair = {"m1_kg": m, "m2_kg": m, "omega1_rad_s": omega, "omega2_rad_s": omega, "d_m": d,
            "T_K": rng.uniform(1.0, 300.0), "eta_per_s": omega / Q}
    for i in range(4):
        for j in range(i, 4):
            pair[f"gamma{i + 1}{j + 1}"] = gamma[i, j]
    ref = feasibility.REFERENCE_PENDULUM
    pend = {"Omega_rad_s": ref.Omega * rng.uniform(0.5, 2.0), "rho_kg_m3": ref.rho * rng.uniform(0.9, 1.1),
            "R_m": ref.R * rng.uniform(0.8, 1.25), "beta": rng.uniform(1.0, 1.5),
            "T_K": ref.T * rng.uniform(0.5, 2.0), "Q": ref.Q * rng.uniform(0.5, 2.0),
            "N_quanta": rng.uniform(0.5, 2.0), "r_fraction": rng.uniform(0.005, 0.05)}
    paths = {}
    for name, cfg in (("pair", pair), ("pendulum", pend)):
        paths[name] = workdir / f"{name}.cfg"
        paths[name].write_text("".join(f"{k} = {_fmt(v)}\n" for k, v in cfg.items()))
    period = 2 * np.pi / omega
    pc, pp = str(paths["pair"]), str(paths["pendulum"])
    sim_seed = str(int(rng.integers(2**62)))
    session = [
        ("linearize", ["--config", pc]),
        ("bound", ["--table1"]),
        ("bound", ["--config", pc]),
        ("spectrum", ["--config", pc, "--grid", "2048", "--model", "fixed"]),
        ("spectrum", ["--config", pc, "--grid", "2048", "--model", "pair"]),
        ("feasibility", ["--config", pp]),
        ("sweep", ["--config", pp, "--param", "Q", "--start", _fmt(pend["Q"] / 10),
                   "--stop", _fmt(pend["Q"] * 10), "--num", "32", "--log"]),
        ("evolve", ["--config", pc, "--periods", "1"]),
        ("simulate", ["--config", pc, "--seed", sim_seed, "--traj", "8",
                      "--duration", _fmt(20 * period), "--welch-segment", "1024", "--raw", "RAW"]),
        ("reheat", ["--config", pc, "--seed", sim_seed, "--cycles", "64",
                    "--cycle-time", _fmt(2 * period)]),
    ]
    return {"configs": paths, "session": session}


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def check_session(out_dirs: list[Path], reference: dict | None) -> tuple[list[str], dict]:
    """Every output hash matches its manifest; outputs repeat those of the
    reference session byte for byte. Returns problems and {name: sha256}."""
    problems, digests = [], {}
    for out in out_dirs:
        manifests = list(out.glob("*.manifest.json"))
        if len(manifests) != 1:
            problems.append(f"{out.name}: {len(manifests)} manifests")
            continue
        for entry in json.loads(manifests[0].read_text())["outputs"]:
            path = Path(entry["path"])
            actual = _sha256(path) if path.is_file() else None
            if actual != entry["sha256"]:
                problems.append(f"{out.name}/{path.name}: sha256 does not match the manifest")
            digests[f"{out.name}/{path.name}"] = actual
    if reference is not None and digests != reference:
        changed = sorted(k for k in set(digests) | set(reference) if digests.get(k) != reference.get(k))
        problems.append(f"outputs differ from the first session: {', '.join(changed)}")
    return problems, digests


class Cli:
    name = "cli"

    def __init__(self, seed: int, workdir: Path):
        self.workdir = Path(workdir)
        self.inputs = cli_inputs(seed, self.workdir / "inputs")
        self.reference = None
        self.sessions = 0

    def session(self, rec: Recorder) -> None:
        self.sessions += 1
        root = self.workdir / f"session{self.sessions}"
        out_dirs = []
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for i, (cmd, args) in enumerate(self.inputs["session"]):
                out = root / f"{i:02d}-{cmd}"
                out_dirs.append(out)
                argv = [cmd, *(str(out / "raw.bin") if a == "RAW" else a for a in args),
                        "--out", str(out)]
                kind = f"cli.{cmd}"
                code = rec.op(kind, lambda: cli.main(argv))
                if code is not None:
                    rec.check(kind, [] if code == 0 else [f"exit code {code}"])
        problems, digests = check_session(out_dirs, self.reference)
        rec.round_check("cli_session", problems)
        if self.reference is None:
            self.reference = digests
        shutil.rmtree(root, ignore_errors=True)

    def warmup(self, rec: Recorder) -> None:
        self.session(rec)

    def round(self, rec: Recorder) -> None:
        self.session(rec)
        rec.end_round()

    def metrics(self, rec: Recorder):
        light = [f"cli.{c}" for c in LIGHT_COMMANDS]
        heavy = ["cli.evolve", "cli.simulate", "cli.reheat"]
        summary = latency_summary(rec.pooled(*light))
        # The pooled median of the light calls sits between two commands'
        # clusters and jumps between them from run to run, so the gated
        # figures are geometric means of per-command medians.
        slots = {
            "rate_per_s": rec.calls_per_s(*light),
            "rate2_per_s": 1.0 / geometric_mean_p50(rec, heavy),
            "op_p50_ms": 1e3 * geometric_mean_p50(rec, light),
        }
        named = {
            "cli_session_s": (stats.median(rec.round_s), "s"),
            "cli_light_p50_ms": (summary["p50_ms"], "ms"),
        }
        if "tail_ms" in summary:
            named["cli_light_tail_ms"] = (summary["tail_ms"], "ms")
        return slots, named, {"light_call": summary}


WORKLOADS = {w.name: w for w in (Separability, LangevinSpectrum, Reheating, Cli)}


def probe_pass(seed: int, workdir: Path, rec: Recorder) -> None:
    """Small calls into every layer, traced separately: they supply the time
    metrics of layers the traced workload itself never calls."""
    Cli(seed, workdir).session(rec)
    sep = Separability(seed, workdir)
    sep._onsets(rec, periods=0.5, per_period=200)
    for g in sep.inputs["chain"][:16]:
        sep._chain(rec, g)
    lang = LangevinSpectrum(seed, workdir)
    inp = lang.inputs
    for width in (1, LANG_WIDTH):
        rec.op("probe_simulate", lambda w=width: montecarlo.simulate(
            inp["setup"], inp["sys"], inp["noise"], n_traj=w, dt=LANG_DT, duration=16.0))
