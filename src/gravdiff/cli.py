"""Command-line front end.

Subcommands: linearize, bound, evolve, spectrum, simulate, reheat,
feasibility, sweep. The parser checks each flag's own domain as it reads it,
and exactly one of --config (a flat key-value file, see gravdiff.config for
the key table) or --table1 (the built-in Table-1 config) is required. Every
run then takes one path (_run): it resolves the config and, for simulate and
reheat, the master seed; the command's ``cmd_<command>(args, cfg)`` computes
its outputs and report; the outputs are written as CSV/JSON, then a manifest
recording the resolved parameters, the master seed, the tool version, the
input hash and each output's hash; and only then is the report printed.

Exit codes: 0 success, 2 configuration problems (including a flag or config
value out of its domain and a run too large to allocate), 3 numeric/stability
problems (including arithmetic that overflows or divides by zero on finite
but extreme values), 4 I/O problems. :func:`main` maps exceptions to them.
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
from .bounds import dimensional_bound, final_bound, strongest_bound, weak_bound
from .dynamics import ONSET_TOL, EvolutionResult, evolve_covariance
from .errors import ConfigError, GravdiffError
from .feasibility import feasibility_report
from .model import ground_state, linearize, to_dimensionless
from .montecarlo import (
    NoiseModel,
    effective_frequency,
    reheating_run,
    simulate,
    step_limit,
    welch_segments,
    welch_spectrum,
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
    if args.table1:
        return dict(cfgmod.TABLE1_CONFIG), None
    return cfgmod.load_config(Path(args.config))


def _require_in_memory(n_samples: float, bytes_per_sample: int) -> None:
    """MemoryError (exit 2) for a run whose arrays numpy cannot even shape:
    past the largest index it raises ValueError instead of MemoryError."""
    if n_samples * bytes_per_sample > np.iinfo(np.intp).max:
        raise MemoryError(f"{n_samples:.3g} samples")


def _resolve_seed(args, cfg):
    """--seed wins, then a config 'seed' key, then recorded entropy."""
    if args.seed is not None:
        return args.seed
    if "seed" not in cfg:
        return int.from_bytes(os.urandom(8), "little") & (2**63 - 1)
    seed = cfg["seed"]  # a float, so seeds from 2**53 on were rounded
    if not (0 <= seed < 2**53 and seed == int(seed)):
        raise ConfigError(f"config key 'seed' must be an integer in [0, 2**53), got {seed:.17g}; "
                          "larger seeds go to --seed")
    return int(seed)


def _run(args, argv) -> int:
    """Resolve the config (its sha256 into ``args.config_sha256``) and, for a
    command with --seed, the master seed into ``args.seed``; compute with
    ``cmd_<command>(args, cfg)``, looked up per call so a replaced attribute
    is the one run; write each ``(path, writer, *data)`` output it returns as
    ``writer(path, *data)``, then ``<command>.manifest.json`` in --out listing
    every output with the sha256 its writer returned; print its report last.
    So a failed write leaves no manifest and prints no report.
    """
    cfg, args.config_sha256 = _resolve_inputs(args)
    if hasattr(args, "seed"):
        args.seed = _resolve_seed(args, cfg)
    outputs, report = globals()[f"cmd_{args.command}"](args, cfg)
    manifest = mani.RunManifest(command=args.command, argv=list(argv),
                                parameters={k: cfg[k] for k in sorted(cfg)},
                                seed=getattr(args, "seed", None),
                                config_sha256=args.config_sha256)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for path, writer, *data in outputs:
        manifest.add_output(path, writer(path, *data))
    manifest.write(out / f"{args.command}.manifest.json")
    print(report)
    return EXIT_OK


# ----------------------------------------------------------------- commands
# Each computes from the resolved config and returns its outputs, as
# (path, writer, *data), and the report to print once they are written.

def cmd_linearize(args, cfg):
    setup = cfgmod.setup_from_config(cfg)
    sys_lin = linearize(setup)
    payload = {
        "Omega1_rad_s": sys_lin.Omega1,
        "Omega2_rad_s": sys_lin.Omega2,
        "K_N_per_m": sys_lin.K,
        "equilibrium_shift_m": list(sys_lin.equilibrium_shift),
        "H": [[float(v) for v in row] for row in sys_lin.H],
    }
    report = (f"Omega1 = {sys_lin.Omega1:.9e} rad/s\n"
              f"Omega2 = {sys_lin.Omega2:.9e} rad/s\n"
              f"K      = {sys_lin.K:.9e} N/m\n"
              f"shift  = ({sys_lin.equilibrium_shift[0]:.9e}, "
              f"{sys_lin.equilibrium_shift[1]:.9e}) m")
    return [(Path(args.out) / "linearize.json", mani.write_json, payload)], report


def cmd_bound(args, cfg):
    setup, sys_lin, gamma = cfgmod.system_from_config(cfg)
    reports = [final_bound(gamma, setup, sys_lin.Omega1)]
    reports.append(dimensional_bound(gamma, sys_lin, paper_literal=args.paper_literal))
    _, gamma_bar = to_dimensionless(sys_lin, gamma)
    reports.append(strongest_bound(gamma_bar, sys_lin))
    reports.append(weak_bound(gamma_bar, sys_lin))

    lines = [f"final bound rhs G m^2/(hbar d^3) = {reports[0].rhs:.9e} m^-2 s^-1"]
    for rep in reports:
        status = "satisfied" if rep.satisfied else "violated"
        lines.append(f"{rep.bound_id:20s} lhs = {rep.lhs:.6e}  rhs = {rep.rhs:.6e}  "
                     f"margin = {rep.margin:+.6e}  [{status}]")
    rows = [{**rep.to_dict(), "inputs_sha256": args.config_sha256 or "table1"} for rep in reports]
    return [(Path(args.out) / "bound.jsonl", mani.write_json_lines, rows)], "\n".join(lines)


def cmd_evolve(args, cfg):
    _, sys_lin, gamma = cfgmod.system_from_config(cfg)
    period = sys_lin.min_period()
    dt = args.dt if args.dt is not None else 0.002 * period
    t_end = args.periods * period
    _require_in_memory(t_end / dt, 128)  # V: 4x4 float64 per sample
    res = evolve_covariance(ground_state(), sys_lin, gamma, t_end, dt)
    idx = res.first_ppt_violation()
    report = (f"ppt_min_eig >= {-ONSET_TOL:g} throughout [0, {t_end:.6g}] s" if idx is None
              else f"ppt_min_eig < {-ONSET_TOL:g} first at t = {res.times[idx]:.6g} s")
    return [(Path(args.out) / "evolve.csv", mani.write_csv,
             EvolutionResult.CSV_HEADER, res.csv_columns())], report


def cmd_spectrum(args, cfg):
    setup, sys_lin, gamma = cfgmod.system_from_config(cfg)
    Om = sys_lin.Omega1
    w = np.linspace(0.25 * Om, 2.0 * Om, args.grid)
    if args.model == "fixed":
        spec = dns_fixed_source(setup, sys_lin, gamma, w)
    else:
        spec = dns_symmetric_pair(setup, sys_lin, gamma, w)
    peak = int(np.argmax(spec.S_total))
    report = (f"{args.grid} rows written; convention: {spec.convention}\n"
              f"peak S = {spec.S_total[peak]:.6e} m^2 s at omega = {spec.omega[peak]:.6e} rad/s")
    return [(Path(args.out) / "spectrum.csv", mani.write_csv,
             spec.CSV_HEADER, spec.csv_columns(), spec.convention)], report


# Kept samples summarized per block of about this many: bounds the mean and
# variance temporaries to one block whatever the run's length.
_SUMMARY_BLOCK = 512


def _ensemble_summary(ens) -> np.ndarray:
    """Rows t, mean_x, var_x, mean_p, var_p (across trajectories): the summary
    CSV's columns at every ``n_samples // 2000``-th sample (every sample of a
    shorter run)."""
    stride = max(1, ens.x.shape[1] // 2000)
    times = ens.times[::stride]
    x, p = ens.x[:, ::stride], ens.p[:, ::stride]
    table = np.empty((5, len(times)))
    table[0] = times
    # Balanced blocks keep at least two samples each (for a block size of 4
    # or more): numpy sums a one-column block pairwise instead of trajectory
    # by trajectory, which rounds apart from the whole-ensemble reduction.
    n_blocks = -(-len(times) // _SUMMARY_BLOCK)
    edges = [len(times) * i // n_blocks for i in range(n_blocks + 1)]
    for lo, hi in zip(edges, edges[1:]):
        table[1:, lo:hi] = (x[:, lo:hi].mean(axis=0), x[:, lo:hi].var(axis=0),
                            p[:, lo:hi].mean(axis=0), p[:, lo:hi].var(axis=0))
    return table


def cmd_simulate(args, cfg):
    setup, sys_lin, gamma = cfgmod.system_from_config(cfg)
    noise = NoiseModel.from_setup(setup, gamma, args.seed)
    om_eff = effective_frequency(sys_lin)
    dt = args.dt if args.dt is not None else 0.5 * step_limit(setup, sys_lin)
    duration = args.duration if args.duration is not None else (
        20.0 / setup.eta if setup.eta > 0 else 50.0 * 2.0 * np.pi / om_eff
    )
    # The run's sample count is known before sampling: check everything that
    # depends on it first, so a bad flag costs no ensemble.
    if args.welch_overlap is not None and args.welch_segment is None:
        raise ConfigError("--welch-overlap needs --welch-segment, which enables the spectrum")
    overlap = 0.5 if args.welch_overlap is None else args.welch_overlap
    _require_in_memory(duration / dt, 16 * args.traj)  # x and p per trajectory
    n_samples = int(round(duration / dt)) + 1
    if n_samples < 2:
        raise ConfigError(f"--duration {duration:g} s is shorter than one --dt step ({dt:g} s)")
    if args.welch_segment is not None:
        try:
            welch_segments(n_samples, args.welch_segment, overlap)
        except ConfigError as exc:
            raise ConfigError(f"--welch-segment/--welch-overlap with {n_samples} samples "
                              f"per trajectory: {exc}") from None
    ens = simulate(setup, sys_lin, noise, args.traj, dt, duration)

    out = Path(args.out)
    outputs = [(out / "simulate_summary.csv", mani.write_csv,
                ("t", "mean_x", "var_x", "mean_p", "var_p"), _ensemble_summary(ens))]
    if args.welch_segment is not None:
        spec = welch_spectrum(ens, args.welch_segment, overlap)
        outputs.append((out / "simulate_spectrum.csv", mani.write_csv,
                        spec.CSV_HEADER, spec.csv_columns(), spec.convention))
    if args.raw is not None:
        outputs.append((args.raw, mani.write_raw_trajectories, ens))
    return outputs, f"{args.traj} trajectories x {ens.x.shape[1]} samples, seed = {args.seed}"


def cmd_reheat(args, cfg):
    setup, sys_lin, gamma = cfgmod.system_from_config(cfg)
    noise = NoiseModel.from_setup(setup, gamma, args.seed)
    res = reheating_run(setup, sys_lin, noise, args.cycles, args.cycle_time,
                        detector_noise_N=args.detector_noise)
    payload = {
        "Gamma_hat_per_s": res.Gamma_hat,
        "rel_err": res.rel_err,
        "stderr_per_s": res.stderr,
        "n_cycles": res.n_cycles,
        "cycle_time_s": res.cycle_time,
    }
    return ([(Path(args.out) / "reheat.json", mani.write_json, payload)],
            f"Gamma_hat = {res.Gamma_hat:.6e} 1/s  rel_err = {res.rel_err:.3f}")


def cmd_feasibility(args, cfg):
    report = feasibility_report(cfgmod.feasibility_from_config(cfg))
    return ([(Path(args.out) / "feasibility.json", mani.write_json, report.to_dict())],
            f"{report.to_text()}\nverdict: {report.verdict}")


def cmd_sweep(args, cfg):
    values = args.values
    if values is None:
        if args.start is None or args.stop is None:
            raise ConfigError("sweep needs --values or --start/--stop")
        for flag, value in (("--start", args.start), ("--stop", args.stop)):
            if args.log and value <= 0.0:
                raise ConfigError(f"{flag} must be positive with --log, got {value}")
        spacing = np.geomspace if args.log else np.linspace
        values = spacing(args.start, args.stop, args.num).tolist()

    reps = [feasibility_report(cfgmod.feasibility_from_config({**cfg, args.param: v})).to_dict()
            for v in values]
    columns = (values, *([rep[c] for rep in reps] for c in SWEEP_COLUMNS),
               [1.0 if rep["verdict"] == "feasible-in-principle" else 0.0 for rep in reps])

    path = Path(args.out) / "sweep.csv"
    header = (args.param, *SWEEP_COLUMNS, "feasible")
    return [(path, mani.write_csv, header, columns)], f"{len(values)} sweep points written to {path}"


# ------------------------------------------------------------------- parser

def _flag(convert, ok, domain):
    """argparse ``type=``: ``convert(text)``, refused (exit 2, naming the
    flag) unless it converts and ``ok`` holds for the value."""
    def parse(text):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {domain}, got {text!r}")
    return parse


def _count(least, item_bytes=8):
    """A count of at least ``least`` whose items of ``item_bytes`` fit in
    numpy's largest array."""
    most = np.iinfo(np.intp).max // item_bytes
    return _flag(int, lambda n: least <= n <= most, f"an integer in [{least}, {most}]")


_POSITIVE = _flag(float, lambda v: 0.0 < v < np.inf, "positive and finite")
_NON_NEGATIVE = _flag(float, lambda v: 0.0 <= v < np.inf, "non-negative and finite")
_SEED = _flag(int, lambda v: 0 <= v < 2**64, "an integer in [0, 2**64)")
_FINITE = _flag(float, np.isfinite, "finite")
_VALUES = _flag(lambda text: [float(v) for v in text.split(",") if v.strip()],
                lambda vs: len(vs) > 0 and np.isfinite(vs).all(),
                "a non-empty comma-separated list of finite numbers")


def _keys_epilog(keys) -> str:
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
        inputs = p.add_mutually_exclusive_group(required=True)
        inputs.add_argument("--config",
                            help="flat key-value config file (see gravdiff.config docs)")
        inputs.add_argument("--table1", action="store_true",
                            help="use the built-in Table-1 config (gravdiff.config.TABLE1_CONFIG)")
        p.add_argument("--out", default=".", help="output directory (default: .)")
        if needs_seed:
            p.add_argument("--seed", type=_SEED, default=None,
                           help="master seed; omitted -> entropy seed recorded in the manifest")

    p = sub.add_parser("linearize",
                       help="renormalized frequencies, coupling and equilibrium shifts",
                       epilog=_keys_epilog(cfgmod.SETUP_KEYS))
    common(p)

    p = sub.add_parser("bound",
                       help="evaluate the separability-bound chain on the configured gamma",
                       epilog=_keys_epilog(cfgmod.SYSTEM_KEYS))
    common(p)
    p.add_argument("--paper-literal", action="store_true",
                   help="use the printed (dimensionally inconsistent) form of the dimensional bound")

    p = sub.add_parser("evolve",
                       help="propagate the covariance exactly from the ground state",
                       epilog=_keys_epilog(cfgmod.SYSTEM_KEYS))
    common(p)
    p.add_argument("--periods", type=_POSITIVE, default=3.0,
                   help="evolution length in oscillator periods")
    p.add_argument("--dt", type=_POSITIVE, default=None,
                   help="sampling step [s] (default: period/500)")

    p = sub.add_parser("spectrum",
                       help="analytic displacement-noise spectrum to CSV",
                       epilog=_keys_epilog(cfgmod.SYSTEM_KEYS))
    common(p)
    p.add_argument("--grid", type=_count(1), default=1024, help="number of frequency points")
    p.add_argument("--model", choices=("fixed", "pair"), default="fixed",
                   help="fixed partner mass or both masses mobile")

    p = sub.add_parser("simulate", help="Langevin Monte Carlo ensemble",
                       epilog=_keys_epilog(cfgmod.SYSTEM_KEYS + ("seed",)))
    common(p, needs_seed=True)
    p.add_argument("--traj", type=_count(1), default=64, help="number of trajectories")
    p.add_argument("--dt", type=_POSITIVE, default=None,
                   help="step [s] (default: 0.005 * min(2 pi/Omega_eff, 1/eta))")
    p.add_argument("--duration", type=_POSITIVE, default=None,
                   help="trajectory length [s] (default: 20/eta, or 50 periods of "
                        "Omega_eff when eta = 0)")
    p.add_argument("--welch-segment", type=_count(2), default=None,
                   help="Welch segment length in samples (enables spectrum output)")
    p.add_argument("--welch-overlap", type=float, default=None)
    p.add_argument("--raw", default=None, help="also dump raw trajectories to this binary file")

    p = sub.add_parser("reheat", help="reheating-rate measurement protocol",
                       epilog=_keys_epilog(cfgmod.SYSTEM_KEYS + ("seed",)))
    common(p, needs_seed=True)
    p.add_argument("--cycles", type=_count(2, item_bytes=24), default=256)  # 3 normals per cycle
    p.add_argument("--cycle-time", type=_POSITIVE, required=True, help="dark time per cycle [s]")
    p.add_argument("--detector-noise", type=_NON_NEGATIVE, default=1.0,
                   help="readout noise [quanta]")

    p = sub.add_parser("feasibility", help="heating-rate budget and verdict",
                       epilog=_keys_epilog(cfgmod.PENDULUM_KEYS))
    common(p)

    p = sub.add_parser("sweep", help="sweep one design parameter of the feasibility report",
                       epilog=_keys_epilog(cfgmod.PENDULUM_KEYS))
    common(p)
    p.add_argument("--param", required=True, choices=cfgmod.SWEEP_KEYS, help="design dial to sweep")
    p.add_argument("--values", type=_VALUES, default=None, help="comma-separated values")
    p.add_argument("--start", type=_FINITE, default=None)
    p.add_argument("--stop", type=_FINITE, default=None)
    p.add_argument("--num", type=_count(1), default=16)
    p.add_argument("--log", action="store_true", help="geometric spacing")

    return parser


def replay_manifest(manifest_path, out_dir=None) -> int:
    """Re-run a manifest's command, optionally into out_dir (its --raw file too).

    The command's own parser reads the recorded argv; the seed, --out and --raw
    are appended, and the parser keeps an option's last value. A manifest from
    another release, or a config whose sha256 is not the recorded one, exits 2
    before anything runs."""
    try:
        record = mani.load_manifest(manifest_path)
        argv = list(record["argv"])
        version = record.get("version")
        if version != mani.tool_version():
            print(f"config error: {manifest_path} was recorded by gravdiff {version}, "
                  f"not by this gravdiff {mani.tool_version()}", file=_sys.stderr)
            return EXIT_CONFIG
        args = _parser().parse_args(argv)
        sha = record.get("config_sha256")
        found = cfgmod.load_config(args.config)[1] if sha and args.config else sha
    except SystemExit as exc:                        # argparse has printed why
        return int(exc.code) if exc.code else 0
    except (ConfigError, OSError, ValueError, KeyError, TypeError) as exc:
        # an unreadable manifest or config, as main reports an unreadable config
        print(f"config error: cannot replay {manifest_path}: {exc!r}", file=_sys.stderr)
        return EXIT_CONFIG
    if found != sha:
        print(f"config error: {args.config} has sha256 {found}, but {manifest_path} "
              f"recorded {sha}", file=_sys.stderr)
        return EXIT_CONFIG
    if record.get("seed") is not None and getattr(args, "seed", None) is None:
        argv += ["--seed", str(record["seed"])]
    if out_dir is not None:
        argv += ["--out", str(out_dir)]
        raw = getattr(args, "raw", None)
        if raw is not None:
            argv += ["--raw", str(Path(out_dir) / Path(raw).name)]
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
    try:
        # Floating-point overflow, division by zero and invalid operations
        # raise, so extreme inputs end in exit 3 instead of a traceback or NaN.
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return _run(args, argv)
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
    except ArithmeticError as exc:
        print(f"error: arithmetic out of floating-point range ({exc})", file=_sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"i/o error: {exc}", file=_sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
