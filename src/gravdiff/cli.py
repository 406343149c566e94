"""Command-line front end.

Subcommands: linearize, bound, evolve, spectrum, simulate, reheat,
feasibility, sweep. Each run resolves its parameters from a flat key-value
config file (see gravdiff.config for the key table) or the built-in
reference pendulum design (--table1) and hands its outputs to one emit
path, which writes them as CSV/JSON and then a manifest recording the
resolved parameters, the master seed, the tool version, the input hash and
each output's hash.

Exit codes: 0 success, 2 configuration problems (including a run too large
to allocate), 3 numeric/stability problems, 4 I/O problems.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys as _sys
from pathlib import Path

import numpy as np

from . import config as cfgmod
from . import manifest as mani
from .bounds import dimensional_bound, final_bound, minimal_diffusion, strongest_bound, weak_bound
from .dynamics import EvolutionResult, evolve_covariance
from .errors import ConfigError, GravdiffError
from .feasibility import REFERENCE_PENDULUM, feasibility_report
from .model import ground_state, linearize, pendulum_system, to_dimensionless
from .montecarlo import (
    NoiseModel,
    effective_frequency,
    reheating_run,
    simulate,
    welch_segments,
    welch_spectrum,
    write_raw_trajectories,
)
from .spectra import dns_fixed_source, dns_symmetric_pair

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

# The FeasibilityReport.to_dict() keys that ``sweep`` writes, one column each.
SWEEP_COLUMNS = ("m_kg", "omega_G_per_s", "Gamma_G_per_s", "Gamma_th_per_s", "Q_required",
                 "Q_required_relaxed", "t_int_s", "margin_conservative_s2", "margin_relaxed_s2")


def _resolve_inputs(args):
    """(cfg dict, config sha) from --config/--table1."""
    if getattr(args, "table1", False):
        p = REFERENCE_PENDULUM
        cfg = {
            "m1_kg": p.m, "m2_kg": p.m,
            "omega1_rad_s": p.Omega, "omega2_rad_s": p.Omega,
            "d_m": p.d, "eta_per_s": p.eta,
            **cfgmod.pendulum_config(p),
        }
        return cfg, None
    if getattr(args, "config", None) is None:
        raise ConfigError("either --config FILE or --table1 is required")
    path = Path(args.config)
    cfg = cfgmod.load_config(path)
    return cfg, mani.sha256_file(path)


def _spectrum_model(cfg, args):
    """(setup, sys, gamma) for spectrum/simulate/reheat commands."""
    setup = cfgmod.setup_from_config(cfg)
    if "Omega_rad_s" in cfg:
        sys_lin = pendulum_system(setup, cfg["Omega_rad_s"])
    else:
        sys_lin = linearize(setup)
    if getattr(args, "table1", False):
        gamma = minimal_diffusion(setup, "position-only")
    else:
        gamma = cfgmod.gamma_from_config(cfg)
    return setup, sys_lin, gamma


def _require_positive(flag: str, value) -> None:
    """ConfigError naming ``flag`` unless ``value`` is omitted (None) or a
    positive finite number."""
    if value is not None and not 0.0 < value < np.inf:
        raise ConfigError(f"{flag} must be positive and finite, got {value}")


def _require_count(flag: str, value: int, least: int) -> None:
    """ConfigError naming ``flag`` unless ``value`` is at least ``least``."""
    if value < least:
        raise ConfigError(f"{flag} must be at least {least}, got {value}")


def _require_in_memory(n_samples: float, bytes_per_sample: int) -> None:
    """MemoryError (exit 2) for a run whose arrays numpy cannot even shape:
    past the largest index it raises ValueError instead of MemoryError."""
    if n_samples * bytes_per_sample > np.iinfo(np.intp).max:
        raise MemoryError(f"{n_samples:.3g} samples")


def _emit(args, cfg, sha, outputs, seed=None) -> int:
    """Write each ``(path, writer, *data)`` output as ``writer(path, *data)``,
    then ``<command>.manifest.json`` in --out listing every output with its
    sha256. The manifest is written last, so a failed write leaves none.
    """
    manifest = mani.RunManifest(
        command=args.command,
        argv=list(args._argv),
        parameters={k: cfg[k] for k in sorted(cfg)},
        seed=seed,
        config_sha256=sha,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for path, writer, *data in outputs:
        writer(path, *data)
        manifest.add_output(path)
    manifest.write(out / f"{args.command}.manifest.json")
    return EXIT_OK


# ----------------------------------------------------------------- commands

def cmd_linearize(args) -> int:
    cfg, sha = _resolve_inputs(args)
    setup = cfgmod.setup_from_config(cfg)
    sys_lin = linearize(setup)
    payload = {
        "Omega1_rad_s": sys_lin.Omega1,
        "Omega2_rad_s": sys_lin.Omega2,
        "K_N_per_m": sys_lin.K,
        "equilibrium_shift_m": list(sys_lin.equilibrium_shift),
        "H": [[float(v) for v in row] for row in sys_lin.H],
    }
    print(f"Omega1 = {sys_lin.Omega1:.9e} rad/s")
    print(f"Omega2 = {sys_lin.Omega2:.9e} rad/s")
    print(f"K      = {sys_lin.K:.9e} N/m")
    print(f"shift  = ({sys_lin.equilibrium_shift[0]:.9e}, {sys_lin.equilibrium_shift[1]:.9e}) m")
    return _emit(args, cfg, sha, [(Path(args.out) / "linearize.json", mani.write_json, payload)])


def cmd_bound(args) -> int:
    cfg, sha = _resolve_inputs(args)
    setup, sys_lin, gamma = _spectrum_model(cfg, args)
    reports = [final_bound(gamma, setup, sys_lin.Omega1)]
    reports.append(dimensional_bound(gamma, sys_lin, paper_literal=args.paper_literal))
    _, gamma_bar = to_dimensionless(sys_lin, gamma)
    reports.append(strongest_bound(gamma_bar, sys_lin))
    reports.append(weak_bound(gamma_bar, sys_lin))

    final = reports[0]
    print(f"final bound rhs G m^2/(hbar d^3) = {final.rhs:.9e} m^-2 s^-1")
    for rep in reports:
        status = "satisfied" if rep.satisfied else "violated"
        print(f"{rep.bound_id:20s} lhs = {rep.lhs:.6e}  rhs = {rep.rhs:.6e}  "
              f"margin = {rep.margin:+.6e}  [{status}]")
    rows = [{**rep.to_dict(), "inputs_sha256": sha if sha is not None else "table1"}
            for rep in reports]
    return _emit(args, cfg, sha, [(Path(args.out) / "bound.jsonl", mani.write_json_lines, rows)])


def cmd_evolve(args) -> int:
    _require_positive("--periods", args.periods)
    _require_positive("--dt", args.dt)
    cfg, sha = _resolve_inputs(args)
    _, sys_lin, gamma = _spectrum_model(cfg, args)
    period = sys_lin.min_period()
    dt = args.dt if args.dt is not None else 0.002 * period
    t_end = args.periods * period
    _require_in_memory(t_end / dt, 128)  # V: 4x4 float64 per sample
    res = evolve_covariance(ground_state(), sys_lin, gamma, t_end, dt)
    _emit(args, cfg, sha, [(Path(args.out) / "evolve.csv", mani.write_csv,
                            EvolutionResult.CSV_HEADER, res.csv_rows())])
    idx = res.first_ppt_violation()
    if idx is None:
        print(f"ppt_min_eig >= -1e-08 throughout [0, {t_end:.6g}] s")
    else:
        print(f"ppt_min_eig < -1e-08 first at t = {res.times[idx]:.6g} s")
    return EXIT_OK


def cmd_spectrum(args) -> int:
    _require_count("--grid", args.grid, 1)
    cfg, sha = _resolve_inputs(args)
    setup, sys_lin, gamma = _spectrum_model(cfg, args)
    Om = sys_lin.Omega1
    w = np.linspace(0.25 * Om, 2.0 * Om, args.grid)
    if args.model == "fixed":
        spec = dns_fixed_source(setup, sys_lin, gamma, w)
    else:
        spec = dns_symmetric_pair(setup, sys_lin, gamma, w)
    _emit(args, cfg, sha, [(Path(args.out) / "spectrum.csv", mani.write_csv,
                            spec.CSV_HEADER, spec.csv_rows(), spec.convention)])
    peak = int(np.argmax(spec.S_total))
    print(f"{args.grid} rows written; convention: {spec.convention}")
    print(f"peak S = {spec.S_total[peak]:.6e} m^2 s at omega = {spec.omega[peak]:.6e} rad/s")
    return EXIT_OK


def _resolve_seed(args, cfg):
    """--seed wins, then a config 'seed' key, then recorded entropy."""
    if args.seed is not None:
        seed, source = args.seed, "--seed"
    elif "seed" in cfg:
        seed, source = cfg["seed"], "config key 'seed'"
        if seed >= 2**53:  # a config value is a float, so larger seeds were rounded
            raise ConfigError(f"{source} must be below 2**53, got {seed:.17g}; use --seed")
    else:
        return int.from_bytes(os.urandom(8), "little") & (2**63 - 1)
    if not (0 <= seed < 2**64 and seed == int(seed)):
        raise ConfigError(f"{source} must be an integer in [0, 2**64), got {seed!r}")
    return int(seed)


def cmd_simulate(args) -> int:
    _require_count("--traj", args.traj, 1)
    _require_positive("--dt", args.dt)
    _require_positive("--duration", args.duration)
    cfg, sha = _resolve_inputs(args)
    setup, sys_lin, gamma = _spectrum_model(cfg, args)
    seed = _resolve_seed(args, cfg)
    noise = NoiseModel.from_setup(setup, gamma, seed)
    om_eff = effective_frequency(sys_lin)
    dt = args.dt if args.dt is not None else 0.005 * 2.0 * np.pi / om_eff
    duration = args.duration if args.duration is not None else (
        20.0 / setup.eta if setup.eta > 0 else 50.0 * 2.0 * np.pi / om_eff
    )
    # The run's sample count is known before sampling: check everything that
    # depends on it first, so a bad flag costs no ensemble.
    _require_in_memory(duration / dt, 16 * args.traj)  # x and p per trajectory
    n_samples = int(round(duration / dt)) + 1
    if n_samples < 2:
        raise ConfigError(f"--duration {duration:g} s is shorter than one --dt step ({dt:g} s)")
    if args.welch_segment is not None:
        try:
            welch_segments(n_samples, args.welch_segment, args.welch_overlap)
        except ConfigError as exc:
            raise ConfigError(f"--welch-segment/--welch-overlap with {n_samples} samples "
                              f"per trajectory: {exc}") from None
    ens = simulate(setup, sys_lin, noise, args.traj, dt, duration)

    out = Path(args.out)
    stride = max(1, ens.x.shape[1] // 2000)
    summary = np.column_stack((ens.times, ens.x.mean(axis=0), ens.x.var(axis=0),
                               ens.p.mean(axis=0), ens.p.var(axis=0)))[::stride]
    outputs = [(out / "simulate_summary.csv", mani.write_csv,
                ("t", "mean_x", "var_x", "mean_p", "var_p"), summary)]
    if args.welch_segment is not None:
        spec = welch_spectrum(ens, args.welch_segment, args.welch_overlap)
        outputs.append((out / "simulate_spectrum.csv", mani.write_csv,
                        spec.CSV_HEADER, spec.csv_rows(), spec.convention))
    if args.raw is not None:
        outputs.append((args.raw, write_raw_trajectories, ens))
    _emit(args, cfg, sha, outputs, seed=seed)
    print(f"{args.traj} trajectories x {ens.x.shape[1]} samples, seed = {seed}")
    return EXIT_OK


def cmd_reheat(args) -> int:
    _require_count("--cycles", args.cycles, 2)
    _require_positive("--cycle-time", args.cycle_time)
    if not 0.0 <= args.detector_noise < np.inf:
        raise ConfigError(
            f"--detector-noise must be non-negative and finite, got {args.detector_noise}")
    cfg, sha = _resolve_inputs(args)
    setup, sys_lin, gamma = _spectrum_model(cfg, args)
    seed = _resolve_seed(args, cfg)
    noise = NoiseModel.from_setup(setup, gamma, seed)
    res = reheating_run(setup, sys_lin, noise, args.cycles, args.cycle_time,
                        detector_noise_N=args.detector_noise)
    payload = {
        "Gamma_hat_per_s": res.Gamma_hat,
        "rel_err": res.rel_err,
        "stderr_per_s": res.stderr,
        "n_cycles": res.n_cycles,
        "cycle_time_s": res.cycle_time,
    }
    _emit(args, cfg, sha, [(Path(args.out) / "reheat.json", mani.write_json, payload)],
          seed=seed)
    print(f"Gamma_hat = {res.Gamma_hat:.6e} 1/s  rel_err = {res.rel_err:.3f}")
    return EXIT_OK


def cmd_feasibility(args) -> int:
    cfg, sha = _resolve_inputs(args)
    report = feasibility_report(cfgmod.feasibility_from_config(cfg))
    print(report.to_text())
    print(f"verdict: {report.verdict}")
    return _emit(args, cfg, sha, [(Path(args.out) / "feasibility.json", mani.write_json,
                                   report.to_dict())])


def cmd_sweep(args) -> int:
    cfg, sha = _resolve_inputs(args)
    if args.param not in cfgmod.SWEEP_KEYS:
        raise ConfigError(
            f"unknown sweep parameter {args.param!r}; choose from {sorted(cfgmod.SWEEP_KEYS)}"
        )
    if args.values is not None:
        try:
            values = [float(v) for v in args.values.split(",") if v.strip()]
        except ValueError as exc:
            raise ConfigError(f"bad --values list: {exc}") from exc
        if not np.isfinite(values).all():
            raise ConfigError(f"--values must all be finite, got {args.values}")
    else:
        if args.start is None or args.stop is None:
            raise ConfigError("sweep needs --values or --start/--stop")
        _require_count("--num", args.num, 1)
        for flag, value in (("--start", args.start), ("--stop", args.stop)):
            if not (0.0 if args.log else -np.inf) < value < np.inf:
                raise ConfigError(f"{flag} must be finite (and positive with --log), got {value}")
        spacing = np.geomspace if args.log else np.linspace
        values = spacing(args.start, args.stop, args.num).tolist()
    if not values:
        raise ConfigError("empty sweep")

    rows = []
    for v in values:
        rep = feasibility_report(cfgmod.feasibility_from_config({**cfg, args.param: v})).to_dict()
        rows.append((v, *(rep[c] for c in SWEEP_COLUMNS),
                     1.0 if rep["verdict"] == "feasible-in-principle" else 0.0))

    path = Path(args.out) / "sweep.csv"
    header = (args.param, *SWEEP_COLUMNS, "feasible")
    _emit(args, cfg, sha, [(path, mani.write_csv, header, rows)])
    print(f"{len(rows)} sweep points written to {path}")
    return EXIT_OK


# ------------------------------------------------------------------- parser

def _keys_epilog(*groups) -> str:
    keys = []
    for g in groups:
        keys.extend(k for k in g if k not in keys)
    return "config keys read: " + ", ".join(keys)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gravdiff",
        description="Diffusive-gravity toolkit: linearization, separability "
                    "bounds, covariance evolution, noise spectra, Monte Carlo "
                    "and experiment feasibility.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_seed=False):
        p.add_argument("--config", help="flat key-value config file (see gravdiff.config docs)")
        p.add_argument("--table1", action="store_true",
                       help="use the built-in reference pendulum parameter set")
        p.add_argument("--out", default=".", help="output directory (default: .)")
        if needs_seed:
            p.add_argument("--seed", type=int, default=None,
                           help="master seed; omitted -> entropy seed recorded in the manifest")

    p = sub.add_parser("linearize",
                       help="renormalized frequencies, coupling and equilibrium shifts",
                       epilog=_keys_epilog(cfgmod.SETUP_KEYS))
    common(p)

    p = sub.add_parser("bound",
                       help="evaluate the separability-bound chain on the configured gamma",
                       epilog=_keys_epilog(cfgmod.SETUP_KEYS, cfgmod.GAMMA_KEYS, ("Omega_rad_s",)))
    common(p)
    p.add_argument("--paper-literal", action="store_true",
                   help="use the printed (dimensionally inconsistent) form of the dimensional bound")

    p = sub.add_parser("evolve",
                       help="integrate the covariance ODE from the ground state",
                       epilog=_keys_epilog(cfgmod.SETUP_KEYS, cfgmod.GAMMA_KEYS, ("Omega_rad_s",)))
    common(p)
    p.add_argument("--periods", type=float, default=3.0, help="evolution length in oscillator periods")
    p.add_argument("--dt", type=float, default=None, help="sampling step [s] (default: period/500)")

    p = sub.add_parser("spectrum",
                       help="analytic displacement-noise spectrum to CSV",
                       epilog=_keys_epilog(cfgmod.SETUP_KEYS, cfgmod.GAMMA_KEYS, ("Omega_rad_s",)))
    common(p)
    p.add_argument("--grid", type=int, default=1024, help="number of frequency points")
    p.add_argument("--model", choices=("fixed", "pair"), default="fixed",
                   help="fixed partner mass or both masses mobile")

    p = sub.add_parser("simulate", help="Langevin Monte Carlo ensemble",
                       epilog=_keys_epilog(cfgmod.SETUP_KEYS, cfgmod.GAMMA_KEYS,
                                           ("Omega_rad_s", "seed")))
    common(p, needs_seed=True)
    p.add_argument("--traj", type=int, default=64, help="number of trajectories")
    p.add_argument("--dt", type=float, default=None, help="step [s]")
    p.add_argument("--duration", type=float, default=None, help="trajectory length [s]")
    p.add_argument("--welch-segment", type=int, default=None,
                   help="Welch segment length in samples (enables spectrum output)")
    p.add_argument("--welch-overlap", type=float, default=0.5)
    p.add_argument("--raw", default=None, help="also dump raw trajectories to this binary file")

    p = sub.add_parser("reheat", help="reheating-rate measurement protocol",
                       epilog=_keys_epilog(cfgmod.SETUP_KEYS, cfgmod.GAMMA_KEYS,
                                           ("Omega_rad_s", "seed")))
    common(p, needs_seed=True)
    p.add_argument("--cycles", type=int, default=256)
    p.add_argument("--cycle-time", type=float, required=True, help="dark time per cycle [s]")
    p.add_argument("--detector-noise", type=float, default=1.0, help="readout noise [quanta]")

    p = sub.add_parser("feasibility", help="heating-rate budget and verdict",
                       epilog=_keys_epilog(cfgmod.PENDULUM_KEYS))
    common(p)

    p = sub.add_parser("sweep", help="sweep one design parameter of the feasibility report",
                       epilog=_keys_epilog(cfgmod.PENDULUM_KEYS))
    common(p)
    p.add_argument("--param", required=True, help="config key to sweep (e.g. Q, T_K, Omega_rad_s)")
    p.add_argument("--values", default=None, help="comma-separated values")
    p.add_argument("--start", type=float, default=None)
    p.add_argument("--stop", type=float, default=None)
    p.add_argument("--num", type=int, default=16)
    p.add_argument("--log", action="store_true", help="geometric spacing")

    return parser


def replay_manifest(manifest_path, out_dir=None) -> int:
    """Re-run the command recorded in a manifest (optionally into out_dir)."""
    record = mani.load_manifest(manifest_path)
    argv = list(record["argv"])
    if record.get("seed") is not None and "--seed" not in " ".join(argv):
        argv += ["--seed", str(record["seed"])]
    if out_dir is not None:
        if "--out" in argv:
            i = argv.index("--out")
            argv[i + 1] = str(out_dir)
        else:
            argv += ["--out", str(out_dir)]
    return main(argv)


# One parser per process: parse_args leaves it unchanged, so main reuses it.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    if argv is None:
        argv = _sys.argv[1:]
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage, which matches the config exit code
        return int(exc.code) if exc.code else 0
    args._argv = list(argv)
    try:
        # looked up per call, so a replaced cmd_<command> attribute is the one run
        return globals()[f"cmd_{args.command}"](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        # Commands compute before they write, so a failed allocation leaves no output.
        print(f"config error: gravdiff {args.command} is too large to run in memory "
              f"({exc}); shorten the run", file=_sys.stderr)
        return EXIT_CONFIG
    except GravdiffError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"i/o error: {exc}", file=_sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
