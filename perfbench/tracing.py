"""Span tracing of gravdiff's layers from outside the package.

``Tracer.installed()`` replaces every public function of each gravdiff module
with a timing wrapper at every place the function object is bound (its own
module, the package namespace and each module that imported it), and patches
a few class methods. Spans stay in memory as (name, start, end, parent,
operation id, error) and are written out when the run ends. Calls that happen
thousands of times per operation (float formatting, generator creation and
normal draws) are only counted and timed in aggregate.

A span's self time is its duration minus the time its child spans cover;
``RunManifest``'s ``tool_version`` default factory is bound when the class is
defined, so it is timed through the enclosing ``RunManifest`` constructor.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import math
import os
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("model", "dynamics", "bounds", "spectra", "montecarlo", "feasibility",
          "config", "manifest", "cli")
CLI_COMMANDS = ("linearize", "bound", "evolve", "spectrum", "simulate", "reheat",
                "feasibility", "sweep")

# Called once per CSV value or per cycle stream: aggregated, not stored as spans.
AGGREGATE_ONLY = {"manifest.format_float", "montecarlo.stream"}

NAME, START, END, PARENT, OP, ERROR, SELF, INFO = range(8)


def _evolve_info(args, kwargs, out):
    states = sum(s.V.nbytes + s.mean.nbytes for s in out.states)
    arrays = out.times.nbytes + out.ppt_min_eig.nbytes + out.unc_min_eig.nbytes
    return {"samples": len(out.times), "bytes": states + arrays}


def _simulate_info(args, kwargs, out):
    return {"samples": out.x.size, "width": out.n_traj, "bytes": out.x.nbytes + out.p.nbytes}


def _file_bytes(args, kwargs, out):
    return {"bytes": os.path.getsize(args[0])}


EXTRACT = {
    "dynamics.evolve_covariance_dimensionless": _evolve_info,
    "montecarlo.simulate": _simulate_info,
    "montecarlo.welch_spectrum": lambda a, k, out: {"samples": a[0].x.size},
    "spectra.dns_fixed_source": lambda a, k, out: {"points": int(np.size(out.omega))},
    "spectra.dns_symmetric_pair": lambda a, k, out: {"points": int(np.size(out.omega))},
    "montecarlo.reheating_run": lambda a, k, out: {"cycles": out.n_cycles},
    "manifest.write_csv": _file_bytes,
    "manifest.write_json": _file_bytes,
    "manifest.write_json_lines": _file_bytes,
    "manifest.sha256_file": _file_bytes,
}


class _CountingGenerator:
    """Forwards to a numpy Generator and counts the normals drawn through it."""

    __slots__ = ("_gen", "_tracer", "_domain")

    def __init__(self, gen, tracer, domain):
        self._gen = gen
        self._tracer = tracer
        self._domain = domain

    def standard_normal(self, size=None, *args, **kwargs):
        t0 = perf_counter()
        out = self._gen.standard_normal(size, *args, **kwargs)
        self._tracer._draw(self._domain, size, perf_counter() - t0)
        return out

    def __getattr__(self, name):
        return getattr(self._gen, name)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.agg = defaultdict(lambda: [0, 0.0])       # name -> [calls, seconds]
        self.op_kinds: list[str] = []
        self.streams = defaultdict(int)                # domain > 0 -> count
        self.normals = defaultdict(int)                # domain > 0 -> count
        self.draw_s = 0.0
        self.cycle_steps = 0
        self._stack: list[list] = []                   # [span index or None, child seconds]
        self._op = -1

    # ---------------------------------------------------------- recording
    def begin_op(self, kind: str) -> None:
        self.op_kinds.append(kind)
        self._op = len(self.op_kinds) - 1

    def _parent(self):
        for idx, _ in reversed(self._stack):
            if idx is not None:
                return idx
        return -1

    def call(self, name, fn, args, kwargs):
        aggregate = name in AGGREGATE_ONLY
        idx = None
        if not aggregate:
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._parent(), self._op, False, 0.0, None])
        frame = [idx, 0.0]
        self._stack.append(frame)
        t0 = perf_counter()
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            self._close(name, frame, t0, perf_counter(), error=True)
            raise
        t1 = perf_counter()
        info = EXTRACT[name](args, kwargs, out) if name in EXTRACT else None
        self._close(name, frame, t0, t1, info=info)
        return out

    def _close(self, name, frame, t0, t1, error=False, info=None):
        self._stack.pop()
        dur = t1 - t0
        if self._stack:
            self._stack[-1][1] += dur
        idx = frame[0]
        if idx is None:
            a = self.agg[name]
            a[0] += 1
            a[1] += dur
            return
        span = self.spans[idx]
        span[START], span[END], span[ERROR] = t0, t1, error
        span[SELF] = dur - frame[1]
        span[INFO] = info

    def _draw(self, domain, size, seconds):
        shape = () if size is None else tuple(size) if isinstance(size, tuple) else (size,)
        self.normals[domain > 0] += math.prod(shape)
        self.draw_s += seconds
        if self._stack:
            self._stack[-1][1] += seconds
        if domain > 0 and len(shape) == 2:
            # reheating_run draws (n_steps, 5) per cycle stream
            self.cycle_steps += shape[0]

    # ----------------------------------------------------------- patching
    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs)
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch gravdiff for the duration of the block, then restore it."""
        import gravdiff
        from gravdiff import manifest, model, montecarlo

        mods = [sys.modules[f"gravdiff.{layer}"] for layer in LAYERS]
        namespaces = [gravdiff, *mods, *(m for n, m in sys.modules.items()
                                          if n.startswith("gravdiff.") and m not in mods)]
        undo = []
        for layer, mod in zip(LAYERS, mods):
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is fn:
                            undo.append((ns, key, fn))
                            setattr(ns, key, wrapper)

        for cls, meth, name in ((model.DiffusionMatrix, "__init__", "model.DiffusionMatrix"),
                                (manifest.RunManifest, "__init__", "manifest.RunManifest"),
                                (manifest.RunManifest, "write", "manifest.RunManifest.write")):
            orig = cls.__dict__[meth]
            undo.append((cls, meth, orig))
            setattr(cls, meth, self._wrap(name, orig))

        orig_stream = montecarlo.NoiseModel.__dict__["stream"]
        tracer = self

        @functools.wraps(orig_stream)
        def stream(noise, index, *args, **kwargs):
            domain = args[0] if args else kwargs.get("domain", 0)
            tracer.streams[domain > 0] += 1
            gen = tracer.call("montecarlo.stream", orig_stream, (noise, index, *args), kwargs)
            return _CountingGenerator(gen, tracer, domain)

        undo.append((montecarlo.NoiseModel, "stream", orig_stream))
        montecarlo.NoiseModel.stream = stream
        try:
            yield self
        finally:
            for ns, key, orig in reversed(undo):
                setattr(ns, key, orig)

    # ------------------------------------------------------------- output
    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"op_kinds": self.op_kinds}) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s[:SELF]) + "\n")


# ------------------------------------------------------------ layer metrics

def _named(tracer, name):
    return [s for s in tracer.spans if s[NAME] == name]


def _dur(spans):
    return sum(s[END] - s[START] for s in spans)


def _info(spans, key):
    return sum(s[INFO][key] for s in spans)


def _self(spans):
    return sum(s[SELF] for s in spans) if spans else None


def _per(num, den, scale):
    return num / den * scale if den else None


# (name, unit, better, kind). "count" metrics come from the workload alone,
# so a layer the workload never calls reads 0. "time" metrics of such a layer
# come from the probe pass instead (see ``combine``). "setup" metrics come from
# the set-up probes and the untraced round.
PER_LAYER = [
    ("model.linearize.calls", "count", "higher", "count"),
    ("model.linearize.us_per_call", "us", "lower", "time"),
    ("model.DiffusionMatrix.us_per_call", "us", "lower", "time"),
    ("model.to_dimensionless.us_per_call", "us", "lower", "time"),
    ("dynamics.evolve.calls", "count", "higher", "count"),
    ("dynamics.evolve.samples", "count", "higher", "count"),
    ("dynamics.evolve.us_per_sample", "us", "lower", "time"),
    ("dynamics.evolve.self_s", "s", "lower", "time"),
    ("dynamics.evolve.result_bytes_per_sample", "B", "lower", "time"),
    ("dynamics.onset.calls", "count", "higher", "count"),
    ("dynamics.onset.ms_per_call", "ms", "lower", "time"),
    ("dynamics.onset.self_s", "s", "lower", "time"),
    ("bounds.chain.matrices", "count", "higher", "count"),
    ("bounds.chain.us_per_matrix", "us", "lower", "time"),
    ("bounds.minimal_diffusion.us_per_call", "us", "lower", "time"),
    ("spectra.dns_fixed_source.points", "count", "higher", "count"),
    ("spectra.dns_fixed_source.ns_per_point", "ns", "lower", "time"),
    ("spectra.dns_symmetric_pair.ns_per_point", "ns", "lower", "time"),
    ("montecarlo.simulate.samples", "count", "higher", "count"),
    ("montecarlo.simulate.wide.ns_per_sample", "ns", "lower", "time"),
    ("montecarlo.simulate.narrow.ns_per_sample", "ns", "lower", "time"),
    ("montecarlo.simulate.self_s", "s", "lower", "time"),
    ("montecarlo.welch.ns_per_sample", "ns", "lower", "time"),
    ("montecarlo.welch.self_s", "s", "lower", "time"),
    ("montecarlo.rng.normals_per_sample", "count", "lower", "time"),
    ("montecarlo.rng.ns_per_normal", "ns", "lower", "time"),
    ("montecarlo.stream.creates", "count", "lower", "count"),
    ("montecarlo.stream.us_per_create", "us", "lower", "time"),
    ("montecarlo.reheating_run.calls", "count", "higher", "count"),
    ("montecarlo.reheating_run.us_per_cycle", "us", "lower", "time"),
    ("montecarlo.reheating_run.steps_per_cycle", "count", "lower", "time"),
    ("montecarlo.ensemble_bytes", "B", "lower", "count"),
    ("feasibility.report.calls", "count", "higher", "count"),
    ("feasibility.report.us_per_call", "us", "lower", "time"),
    ("config.load.us_per_call", "us", "lower", "time"),
    ("config.setup.us_per_call", "us", "lower", "time"),
    ("manifest.write.calls", "count", "higher", "count"),
    ("manifest.write.ms_per_call", "ms", "lower", "time"),
    ("manifest.bytes_written", "B", "lower", "count"),
    ("manifest.sha256.bytes", "B", "lower", "count"),
    ("manifest.sha256.MB_per_s", "MB/s", "higher", "time"),
    ("manifest.tool_version.us_per_call", "us", "lower", "time"),
    *((f"cli.{c}.{m}", "ms", "lower", "time")
      for c in CLI_COMMANDS for m in ("ms_per_call", "self_ms")),
    ("setup.import_gravdiff_s", "s", "lower", "setup"),
    ("setup.import_scipy_signal_s", "s", "lower", "setup"),
    ("setup.inputs_s", "s", "lower", "setup"),
    *((f"{layer}.errors", "count", "lower", "count") for layer in LAYERS),
    ("trace.overhead_frac", "ratio", "lower", "setup"),
]

CHAIN_FUNCS = ("bounds.alpha_bound", "bounds.strongest_bound", "bounds.weak_bound")
SETUP_FUNCS = ("config.setup_from_config", "config.gamma_from_config",
               "config.feasibility_from_config")
WRITERS = ("manifest.write_csv", "manifest.write_json", "manifest.write_json_lines")


def layer_values(tr: Tracer) -> dict:
    """Every per-layer metric measurable from one tracer; None = not exercised."""
    v = {}

    def mean_us(name, scale=1e6):
        spans = _named(tr, name)
        return _per(_dur(spans), len(spans), scale)

    v["model.linearize.calls"] = len(_named(tr, "model.linearize"))
    v["model.linearize.us_per_call"] = mean_us("model.linearize")
    v["model.DiffusionMatrix.us_per_call"] = mean_us("model.DiffusionMatrix")
    v["model.to_dimensionless.us_per_call"] = mean_us("model.to_dimensionless")

    ev = _named(tr, "dynamics.evolve_covariance_dimensionless")
    ok = [s for s in ev if s[INFO]]
    samples = _info(ok, "samples")
    v["dynamics.evolve.calls"] = len(ev)
    v["dynamics.evolve.samples"] = samples
    v["dynamics.evolve.us_per_sample"] = _per(_dur(ok), samples, 1e6)
    v["dynamics.evolve.self_s"] = _self(ev)
    v["dynamics.evolve.result_bytes_per_sample"] = _per(_info(ok, "bytes"), samples, 1)

    on = _named(tr, "dynamics.entanglement_onset")
    v["dynamics.onset.calls"] = len(on)
    v["dynamics.onset.ms_per_call"] = _per(_dur(on), len(on), 1e3)
    v["dynamics.onset.self_s"] = _self(on)

    chain_ops = {i for i, k in enumerate(tr.op_kinds) if k == "bound_chain"}
    chain = [s for s in tr.spans if s[NAME] in CHAIN_FUNCS and s[OP] in chain_ops]
    v["bounds.chain.matrices"] = len(chain_ops)
    v["bounds.chain.us_per_matrix"] = _per(_dur(chain), len(chain_ops), 1e6)
    v["bounds.minimal_diffusion.us_per_call"] = mean_us("bounds.minimal_diffusion")

    for fn in ("dns_fixed_source", "dns_symmetric_pair"):
        spans = [s for s in _named(tr, f"spectra.{fn}") if s[INFO]]
        points = _info(spans, "points")
        if fn == "dns_fixed_source":
            v["spectra.dns_fixed_source.points"] = points
        v[f"spectra.{fn}.ns_per_point"] = _per(_dur(spans), points, 1e9)

    sim = _named(tr, "montecarlo.simulate")
    ok = [s for s in sim if s[INFO]]
    sim_samples = _info(ok, "samples")
    wide = [s for s in ok if s[INFO]["width"] > 1]
    narrow = [s for s in ok if s[INFO]["width"] == 1]
    v["montecarlo.simulate.samples"] = sim_samples
    v["montecarlo.simulate.wide.ns_per_sample"] = _per(_dur(wide), _info(wide, "samples"), 1e9)
    v["montecarlo.simulate.narrow.ns_per_sample"] = _per(_dur(narrow), _info(narrow, "samples"), 1e9)
    v["montecarlo.simulate.self_s"] = _self(sim)
    v["montecarlo.ensemble_bytes"] = max((s[INFO]["bytes"] for s in ok), default=0)

    we = [s for s in _named(tr, "montecarlo.welch_spectrum") if s[INFO]]
    v["montecarlo.welch.ns_per_sample"] = _per(_dur(we), _info(we, "samples"), 1e9)
    v["montecarlo.welch.self_s"] = _self(we)

    v["montecarlo.rng.normals_per_sample"] = _per(tr.normals[False], sim_samples, 1)
    v["montecarlo.rng.ns_per_normal"] = _per(tr.draw_s, sum(tr.normals.values()), 1e9)
    creates, create_s = tr.agg["montecarlo.stream"]
    v["montecarlo.stream.creates"] = creates
    v["montecarlo.stream.us_per_create"] = _per(create_s, creates, 1e6)

    rh = [s for s in _named(tr, "montecarlo.reheating_run") if s[INFO]]
    v["montecarlo.reheating_run.calls"] = len(_named(tr, "montecarlo.reheating_run"))
    v["montecarlo.reheating_run.us_per_cycle"] = _per(_dur(rh), _info(rh, "cycles"), 1e6)
    v["montecarlo.reheating_run.steps_per_cycle"] = _per(tr.cycle_steps, tr.streams[True], 1) \
        if rh else None

    fe = _named(tr, "feasibility.feasibility_report")
    v["feasibility.report.calls"] = len(fe)
    v["feasibility.report.us_per_call"] = _per(_dur(fe), len(fe), 1e6)

    v["config.load.us_per_call"] = mean_us("config.load_config")
    cs = [s for s in tr.spans if s[NAME] in SETUP_FUNCS]
    v["config.setup.us_per_call"] = _per(_dur(cs), len(cs), 1e6)

    mw = _named(tr, "manifest.RunManifest.write")
    v["manifest.write.calls"] = len(mw)
    v["manifest.write.ms_per_call"] = _per(_dur(mw), len(mw), 1e3)
    manifest_writes = {i for i, s in enumerate(tr.spans) if s[NAME] == "manifest.RunManifest.write"}
    outputs = [s for s in tr.spans if s[NAME] in WRITERS and s[INFO]
               and s[PARENT] not in manifest_writes]
    v["manifest.bytes_written"] = _info(outputs, "bytes")
    sh = [s for s in _named(tr, "manifest.sha256_file") if s[INFO]]
    sh_bytes = _info(sh, "bytes")
    v["manifest.sha256.bytes"] = sh_bytes
    v["manifest.sha256.MB_per_s"] = _per(sh_bytes, _dur(sh), 1e-6) if sh_bytes else None
    v["manifest.tool_version.us_per_call"] = mean_us("manifest.RunManifest")

    for c in CLI_COMMANDS:
        spans = _named(tr, f"cli.cmd_{c}")
        v[f"cli.{c}.ms_per_call"] = _per(_dur(spans), len(spans), 1e3)
        v[f"cli.{c}.self_ms"] = _per(sum(s[SELF] for s in spans), len(spans), 1e3)

    for layer in LAYERS:
        v[f"{layer}.errors"] = sum(1 for s in tr.spans
                                   if s[ERROR] and s[NAME].split(".", 1)[0] == layer)
    return v


def combine(workload: dict, probe: dict, setup: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics for the result line, and the names taken from the probe."""
    out, from_probe = {}, []
    for name, unit, _, kind in PER_LAYER:
        if kind == "setup":
            value = setup[name]
        else:
            value = workload.get(name)
            if value is None:
                value = probe.get(name)
                from_probe.append(name)
        out[name] = {"value": float(value if value is not None else 0.0), "unit": unit}
    return out, from_probe
