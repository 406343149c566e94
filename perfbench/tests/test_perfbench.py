"""Tests of the benchmark itself: generators, output checks, statistics, tracing.

Run from the repository root with ``python -m pytest perfbench/tests -q``.
"""

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import compare  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from gravdiff import cli, dynamics, model  # noqa: E402


# ---------------------------------------------------------------- generators

def _arrays(inputs):
    return [c.V0 for c in inputs["cases"]] + [c.Hbar for c in inputs["cases"]] + [inputs["chain"]]


def test_separability_inputs_repeat_per_seed_and_differ_across_seeds():
    a, b, c = wl.separability_inputs(1), wl.separability_inputs(1), wl.separability_inputs(2)
    assert all(np.array_equal(x, y) for x, y in zip(_arrays(a), _arrays(b)))
    assert not np.array_equal(a["chain"], c["chain"])
    assert a["sys"].Omega1 != c["sys"].Omega1


def test_separability_rounds_have_the_same_step_count_for_every_seed():
    def steps(seed):
        return sum(np.ceil(c.t_end / c.dt) for c in wl.separability_inputs(seed)["cases"])
    counts = [steps(s) for s in (1, 2, 3)]
    assert max(counts) - min(counts) <= wl.SEP_EVOLVE


def test_ratio_quantiles_span_the_criterion_range():
    assert wl.ratio_quantile(1.0) == pytest.approx(1.0)
    assert wl.ratio_quantile(0.0) == pytest.approx(wl.FREQ_HI / wl.FREQ_LO)
    # the median of max/min for two uniform draws on [0.5, 2], by sampling
    rng = np.random.default_rng(0)
    w = rng.uniform(0.5, 2.0, size=(200_000, 2))
    sampled = np.median(w.max(axis=1) / w.min(axis=1))
    assert wl.ratio_quantile(0.5) == pytest.approx(sampled, rel=5e-3)


def test_langevin_and_reheating_inputs_repeat_per_seed_and_differ_across_seeds():
    a, b, c = wl.langevin_inputs(1), wl.langevin_inputs(1), wl.langevin_inputs(2)
    assert a["noise"].seed == b["noise"].seed != c["noise"].seed
    assert np.array_equal(a["gamma"].matrix, b["gamma"].matrix)
    assert not np.array_equal(a["gamma"].matrix, c["gamma"].matrix)
    r1, r2, r3 = wl.reheating_inputs(1), wl.reheating_inputs(1), wl.reheating_inputs(2)
    assert r1["runs"] == r2["runs"] != r3["runs"]
    assert sorted(c for c, _ in r1["runs"]) == sorted(c for c, _ in r3["runs"])


def test_cli_inputs_repeat_per_seed_and_differ_across_seeds(tmp_path):
    texts = []
    for i, seed in enumerate((1, 1, 2)):
        inp = wl.cli_inputs(seed, tmp_path / str(i))
        texts.append(inp["configs"]["pair"].read_text() + inp["configs"]["pendulum"].read_text())
    assert texts[0] == texts[1] != texts[2]


# -------------------------------------------------- checks reject bad output

def test_evolution_check_rejects_a_negative_eigenvalue():
    times = np.linspace(0.0, 1.0, 11)
    good = np.zeros(11)
    assert wl.check_evolution(times, good, good, 1.0, 0.1) == []
    bad = good.copy()
    bad[5] = -1e-6
    assert wl.check_evolution(times, bad, good, 1.0, 0.1)
    assert wl.check_evolution(times[:-1], good[:-1], good[:-1], 1.0, 0.1)


def test_onset_check_needs_found_found_none():
    assert wl.check_onsets((0.1, 0.2, None)) == []
    assert wl.check_onsets((0.1, 0.2, 0.3))
    assert wl.check_onsets((None, 0.2, None))


def test_chain_check_rejects_a_margin_gap_and_a_broken_implication():
    rep = lambda margin, ok: SimpleNamespace(margin=margin, satisfied=ok)  # noqa: E731
    assert wl.check_chain(rep(1.0, True), rep(1.0, True), rep(2.0, True)) == []
    assert wl.check_chain(rep(1.0 + 1e-9, True), rep(1.0, True), rep(2.0, True))
    assert wl.check_chain(rep(1.0, True), rep(1.0, True), rep(-1.0, False))


def _lorentzian():
    omega = np.linspace(0.4, 1.6, 601) * 2 * np.pi
    om0 = 2 * np.pi
    return omega, om0, 1.0 / ((omega - om0) ** 2 + 0.01)


def test_spectrum_check_rejects_a_welch_spectrum_scaled_by_one_and_a_half():
    omega, om0, S = _lorentzian()
    assert wl.check_spectrum(omega, S, S, om0)[0] == []
    problems, ratios = wl.check_spectrum(omega, 1.5 * S, S, om0)
    assert problems and ratios["resonance"] == pytest.approx(1.5)
    wings = S.copy()
    wings[omega < 0.8 * om0] *= 1.3
    assert wl.check_spectrum(omega, wings, S, om0)[0]


def test_window_expectation_keeps_a_flat_spectrum_flat():
    kernel = wl.window_kernel(1024, half_bins=8)
    assert kernel.sum() == pytest.approx(1.0)
    assert np.allclose(kernel, kernel[::-1])
    bins = 20
    fine = np.full(bins * wl.KERNEL_OVERSAMPLE + 2 * 8 * wl.KERNEL_OVERSAMPLE + 1, 3.0)
    expected = wl.expected_welch(fine, kernel)
    assert expected.shape == (bins + 1,)
    assert np.allclose(expected, 3.0)


def test_narrow_check_rejects_a_different_path_or_spectrum():
    rng = np.random.default_rng(3)
    x, p, S = rng.standard_normal(100), rng.standard_normal(100), rng.uniform(1, 2, 50)
    wide_x = np.concatenate([x, rng.standard_normal(20)])
    wide_p = np.concatenate([p, rng.standard_normal(20)])
    assert wl.check_narrow(x, p, wide_x, wide_p, S, S) == []
    assert wl.check_narrow(x + 1e-6, p, wide_x, wide_p, S, S)
    assert wl.check_narrow(x, p, wide_x, wide_p, 1.5 * S, S)


def test_reheating_check_rejects_a_biased_mean_rate():
    rng = np.random.default_rng(5)
    ghats = rng.normal(2.0, 0.4, size=64)
    assert wl.check_reheating(ghats, 2.0)[0] == []
    assert wl.check_reheating(1.5 * ghats, 2.0)[0]
    assert wl.check_reheating([np.nan, 2.0], 2.0)[0]


def test_cli_session_passes_and_a_tampered_output_fails(tmp_path):
    workload = wl.Cli(7, tmp_path)
    rec = wl.Recorder()
    workload.session(rec)
    workload.session(rec)
    assert rec.failed == 0, rec.messages
    assert rec.attempted == 2 * (len(workload.inputs["session"]) + 1)

    out = tmp_path / "lin"
    assert cli.main(["linearize", "--config", str(workload.inputs["configs"]["pair"]),
                     "--out", str(out)]) == 0
    problems, digests = wl.check_session([out], None)
    assert problems == []
    assert wl.check_session([out], {k: "0" * 64 for k in digests})[0]
    (out / "linearize.json").write_text("{}\n")
    assert wl.check_session([out], None)[0]


# ------------------------------------------------------------- statistics

def test_tail_picks_the_highest_percentile_with_ten_samples_beyond():
    assert stats.tail_index(10) is None
    assert stats.tail_index(11) == 0
    assert stats.tail_index(100) == 89
    values = list(range(1000, 0, -1))
    pct, value, n = stats.tail(values)
    assert (pct, value, n) == (99.0, 990.0, 1000)
    assert sum(v > value for v in values) == 10
    assert stats.tail(range(10)) is None


def test_compare_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(base, [104.0, 105.0, 103.0, 104.5, 103.5], "lower", 0.1)[1] == "within bound"
    assert compare.verdict(base, [130.0, 131.0, 129.0, 130.5, 129.5], "lower", 0.1)[1] == "worse"
    assert compare.verdict(base, [130.0, 131.0, 129.0, 130.5, 129.5], "higher", 0.1)[1] == "within bound"
    noisy = [60.0, 100.0, 140.0, 80.0, 120.0]
    assert compare.verdict(base, noisy, "lower", 0.1)[1] == "unresolved"
    assert compare.verdict(noisy, [10.0, 11.0, 12.0, 13.0, 14.0], "lower", 0.1)[1] == "better"


# ---------------------------------------------------------------- tracing

def test_tracer_wraps_every_import_site_and_restores_them():
    orig = dynamics.evolve_covariance_dimensionless
    sys_lin = model.linearize(wl.pair_setup(0.3))
    P = sys_lin.min_period()
    state, zero = model.ground_state(), model.DiffusionMatrix.zero()
    tracer = tracing.Tracer()
    with tracer.installed():
        assert cli.evolve_covariance is dynamics.evolve_covariance
        assert dynamics.evolve_covariance.__wrapped__.__module__ == "gravdiff.dynamics"
        tracer.begin_op("evolve")
        cli.evolve_covariance(state, sys_lin, zero, P, P / 200)
    assert dynamics.evolve_covariance_dimensionless is orig
    names = [s[tracing.NAME] for s in tracer.spans]
    assert names[0] == "dynamics.evolve_covariance"
    outer = tracer.spans[0]
    children = [s for s in tracer.spans if s[tracing.PARENT] == 0]
    assert {s[tracing.NAME] for s in children} >= {"model.to_dimensionless",
                                                   "dynamics.evolve_covariance_dimensionless"}
    child_time = sum(s[tracing.END] - s[tracing.START] for s in children)
    assert outer[tracing.SELF] == pytest.approx(outer[tracing.END] - outer[tracing.START] - child_time,
                                                abs=1e-4)
    values = tracing.layer_values(tracer)
    assert values["dynamics.evolve.samples"] == 201
    assert values["montecarlo.simulate.samples"] == 0
    assert values["montecarlo.simulate.wide.ns_per_sample"] is None


def test_benchmark_json_lists_what_the_runs_report():
    spec = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [m[0] for m in tracing.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    slots = {m["name"] for m in spec["end_to_end"]} - {"setup_s", "peak_rss_mb", "round_s"}
    rec = wl.Recorder()
    rec.calls = [("evolve", 0.0, 1.0), ("onset", 1.0, 2.0)]
    rec.units = {"evolve": 10, "bound_chain": 1}
    rec.latency = {"evolve": [1.0], "onset": [1.0], "bound_chain": [1.0]}
    assert set(wl.Separability.metrics(None, rec)[0]) == slots
