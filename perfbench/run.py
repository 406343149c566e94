"""gravdiff benchmark: paper workloads, end-to-end metrics and traced layer costs.

    python3 perfbench/run.py --workload separability --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload cli --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --compare parent.jsonl change.jsonl

Run from the repository root; gravdiff is imported from ``src/``. The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, the per-layer metrics with ``--trace 1``. ``--out FILE``
appends the full record (environment, named metrics, tails) as a JSON line,
which ``--compare`` reads. Scratch files live in ``.perfbench/`` and are
removed at exit, except the span files of traced runs.
"""

from __future__ import annotations

import os

from envinfo import BLAS_THREAD_VARS

# One client, one thread: pin BLAS before numpy loads, here and in children.
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 60


def _clock() -> float:
    # CLOCK_MONOTONIC is system-wide, so parent and child timestamps compare.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _import_gravdiff():
    """Import gravdiff from this checkout's ``src/``, never from elsewhere."""
    sys.path.insert(0, str(ROOT / "src"))
    import gravdiff
    if not Path(gravdiff.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"gravdiff resolved to {gravdiff.__file__}, outside {ROOT / 'src'}")


# ------------------------------------------------------------------ set-up

def setup_probe(args) -> int:
    """Child process: import gravdiff, build the workload's inputs, report."""
    t0 = _clock()
    _import_gravdiff()
    import workloads
    t1 = _clock()
    scratch = Path(tempfile.mkdtemp(dir=args.scratch))
    try:
        workloads.WORKLOADS[args.workload](args.seed, scratch)
        t2 = _clock()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps({"ready": t2, "import_s": t1 - t0, "inputs_s": t2 - t1}))
    return 0


def _importtime(stderr: str, module: str) -> float | None:
    """Cumulative seconds of ``module`` in ``-X importtime`` output."""
    for line in stderr.splitlines():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) == 3 and parts[2] == module:
            return int(re.sub(r"\D", "", parts[1])) * 1e-6
    return None


def measure_setup(args, scratch: Path, importtime: bool) -> dict:
    """Fresh interpreters up to the first timed call, median of several.

    Set-up is mostly file reads and imports, which the host-speed kernel
    does not track, so it is reported raw."""
    from stats import median

    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed), "--scratch", str(scratch)]
    totals, inputs = [], []
    for _ in range(SETUP_REPEATS):
        start = _clock()
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
                             cwd=ROOT, check=True)
        rep = json.loads(out.stdout.strip().splitlines()[-1])
        totals.append(rep["ready"] - start)
        inputs.append(rep["inputs_s"])
    result = {"setup_s": median(totals), "setup.inputs_s": median(inputs)}
    if importtime:
        out = subprocess.run([sys.executable, "-X", "importtime", *cmd[1:]], capture_output=True,
                             text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT, check=True)
        result["setup.import_gravdiff_s"] = _importtime(out.stderr, "gravdiff")
        result["setup.import_scipy_signal_s"] = _importtime(out.stderr, "scipy.signal")
    return result


# ------------------------------------------------------------------- runs

def end_to_end(args, wl, setup: dict):
    from workloads import Recorder
    import stats

    wl.warmup(Recorder())
    rec = Recorder()
    # Whole rounds until --seconds have passed; a round that would end past
    # 1.5 x --seconds is not started, so long rounds do not double the run.
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        wl.round(rec)
        now = time.perf_counter()
        if now - start >= args.seconds or now + (now - t0) - start > 1.5 * args.seconds:
            break
    rec.finish()
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    views = {}
    for raw in (True, False):
        rec.view(raw)
        slots, named, extra = wl.metrics(rec)
        slots.update({"setup_s": setup["setup_s"], "peak_rss_mb": peak,
                      "round_s": stats.median(rec.round_s)})
        views[raw] = slots
    named.update({"setup_s": (setup["setup_s"], "s"), "peak_rss_mb": (peak, "MB"),
                  "failed_frac": (rec.failed / rec.attempted, "1")})
    extra.update(rounds=len(rec.round_s), raw=views[True])
    return rec, slots, named, extra


def traced(args, wl, setup: dict, scratch: Path):
    import tracing
    import workloads

    wl.warmup(workloads.Recorder())
    untraced = workloads.Recorder()
    wl.round(untraced)
    untraced.finish()

    tracer = tracing.Tracer()
    rec = workloads.Recorder(tracer)
    with tracer.installed():
        tracer.begin_op("inputs")
        wl_traced = workloads.WORKLOADS[args.workload](args.seed, scratch / "traced")
        wl_traced.round(rec)
    rec.finish()
    probe = tracing.Tracer()
    with probe.installed():
        workloads.probe_pass(args.seed, scratch / "probe", workloads.Recorder(probe))

    setup = dict(setup, **{"trace.overhead_frac": rec.round_s[0] / untraced.round_s[0] - 1.0})
    metrics, from_probe = tracing.combine(tracing.layer_values(tracer),
                                          tracing.layer_values(probe), setup)
    spans = ROOT / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write_spans(spans)
    rec.attempted += untraced.attempted
    rec.failed += untraced.failed
    rec.messages += untraced.messages
    return rec, metrics, {"from_probe": from_probe, "spans": str(spans.relative_to(ROOT))}


def run(args) -> int:
    try:
        _import_gravdiff()
    except ImportError as exc:
        print(f"perfbench: cannot import gravdiff from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 3
    import envinfo
    import workloads

    work = ROOT / ".perfbench"
    work.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=work))
    try:
        env = envinfo.environment(ROOT)
        env["loadavg_1min_start"] = envinfo.loadavg_1min()
        setup = measure_setup(args, scratch, importtime=bool(args.trace))
        wl = workloads.WORKLOADS[args.workload](args.seed, scratch / "run")
        if args.trace:
            rec, metrics, extra = traced(args, wl, setup, scratch)
            named = {}
        else:
            rec, slots, named, extra = end_to_end(args, wl, setup)
            spec = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
            metrics = {m["name"]: {"value": float(slots[m["name"]]), "unit": m["unit"]}
                       for m in spec}
        env["loadavg_1min_end"] = envinfo.loadavg_1min()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={rec.attempted} failed={rec.failed}")
    for name, (value, unit) in named.items():
        print(f"  {name:28s} {value:.6g} {unit}")
    if not args.trace:
        print("  " + json.dumps(extra, default=float))
    else:
        print(f"  per-layer time metrics measured on the probe pass: {', '.join(extra['from_probe'])}")
        print(f"  spans written to {extra['spans']}")
    for message in rec.messages:
        print(f"  FAILED {message}")
    print("  env " + json.dumps(env))

    result = {"correct": rec.failed == 0, "attempted": rec.attempted, "failed": rec.failed,
              "metrics": metrics}
    if args.out:
        record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                      seconds=args.seconds, env=env, extra=extra,
                      named={k: {"value": v, "unit": u} for k, (v, u) in named.items()})
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, default=float) + "\n")
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("separability", "langevin_spectrum",
                                               "reheating", "cli"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full result record to this JSON-lines file")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "CHANGE"),
                        help="compare two JSON-lines result files written with --out")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--scratch", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.compare:
        import compare
        return compare.main(*args.compare, ROOT / "BENCHMARK.json")
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        return setup_probe(args)
    return run(args)


if __name__ == "__main__":
    raise SystemExit(main())
