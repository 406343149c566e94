"""The CLI's bulk outputs run in fixed-size blocks.

``write_csv`` formats rows, the resolvent spectrum solves frequencies, the
simulate summary reduces samples and the covariance evolution checks
eigenvalues one block at a time. Each gives the same bits as one-shot
evaluation, across every block edge, and its work memory does not grow with
the row, grid or sample count.
"""

import tracemalloc

import numpy as np
import pytest

from gravdiff import cli, dynamics, manifest, spectra
from gravdiff.errors import DomainError
from gravdiff.manifest import write_csv
from gravdiff.model import PhysicalSetup, linearize
from gravdiff.montecarlo import TrajectoryEnsemble
from gravdiff.spectra import dns_fixed_source, dns_symmetric_pair

from conftest import make_diffusion


def traced_peak(fn):
    """(result, peak bytes traced while ``fn`` runs a second time)."""
    fn()                                     # imports and caches first
    tracemalloc.start()
    try:
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


def one_shot_csv(header, table, preamble=None):
    """Today's reference: every value as repr(float(v)), joined at once."""
    lines = (["# " + preamble] if preamble else []) + [",".join(header)]
    lines += [",".join(repr(float(v)) for v in row) for row in table]
    return ("\n".join(lines) + "\n").encode()


def ensemble(n_traj, n_samples, seed=3):
    rng = np.random.default_rng(seed)
    x, p = 1e-9 * rng.standard_normal((2, n_traj, n_samples)) + 1e-6
    return TrajectoryEnsemble(n_traj=n_traj, dt=0.01, duration=(n_samples - 1) * 0.01,
                              times=0.01 * np.arange(n_samples), x=x, p=p,
                              seeds=tuple(range(n_traj)), master_seed=seed)


B_CSV = manifest._CSV_BLOCK_ROWS
B_FREQ = spectra._FREQ_BLOCK


class TestStreamedCsv:
    @pytest.mark.parametrize("n", [B_CSV - 1, B_CSV, B_CSV + 1, 2 * B_CSV + 1])
    def test_bytes_match_one_shot_formatting(self, tmp_path, n):
        rng = np.random.default_rng(n)
        table = rng.standard_normal((n, 3)) * 10.0 ** rng.integers(-300, 300, (n, 3))
        table[n // 2] = (-0.0, 5e-324, 2.0**53 + 2)
        write_csv(tmp_path / "a.csv", ("a", "b", "c"), table.T, preamble="units")
        write_csv(tmp_path / "r.csv", ("a", "b", "c"), table.T.tolist())
        assert (tmp_path / "a.csv").read_bytes() == one_shot_csv("abc", table, "units")
        assert (tmp_path / "r.csv").read_bytes() == one_shot_csv("abc", table)

    @pytest.mark.parametrize("preamble,lead", [(None, 1), ("units", 2)])
    def test_non_finite_in_later_block_names_line_writes_nothing(self, tmp_path,
                                                                  preamble, lead):
        table = np.ones((2 * B_CSV + 1, 2))
        table[B_CSV + 3, 1] = np.nan
        table[2 * B_CSV, 0] = np.inf
        with pytest.raises(DomainError, match=f"non-finite CSV line {lead + B_CSV + 4} of c.csv"):
            write_csv(tmp_path / "c.csv", ("a", "b"), table.T, preamble=preamble)
        assert not (tmp_path / "c.csv").exists()

    def test_work_memory_independent_of_rows(self, tmp_path):
        def work_bytes(n):
            table = np.random.default_rng(1).standard_normal((6, n))
            return traced_peak(lambda: write_csv(tmp_path / "w.csv", "abcdef", table))[1]

        # two full blocks bound the work memory (one formatted while the
        # other's text is written): the balanced blocks of any longer table
        # are no larger; a one-shot writer holds the whole table's Python
        # floats and text (7.9 MB more at 20 B_CSV, measured)
        full = work_bytes(2 * (manifest._CSV_BLOCK_VALUES // 6))
        assert full < 2_000_000
        for n in (2 * B_CSV, 20 * B_CSV):
            assert work_bytes(n) <= full + 65_536

    def test_wide_table_work_memory_independent_of_rows(self, tmp_path):
        # evolve's 13 columns: blocks hold a bounded number of values, not rows
        def work_bytes(n):
            table = np.random.default_rng(1).standard_normal((13, n))
            return traced_peak(lambda: write_csv(tmp_path / "w.csv", "abcdefghijklm", table))[1]

        full = work_bytes(2 * (manifest._CSV_BLOCK_VALUES // 13))
        assert full < 2_000_000
        for n in (2 * B_CSV, 20 * B_CSV):
            assert work_bytes(n) <= full + 65_536

    @pytest.mark.parametrize("n,width,calls", [
        (2048, 6, 3),                        # the spectrum's default grid
        (2001, 5, 2),                        # simulate's summary at 2000 steps
        (32, 11, 1),                         # the sweep table
        (0, 3, 0),
        (1, 9000, 1),                        # wider than a block: one row each
        (3, 9000, 3),
        (5 * B_CSV + 1, 2, 6),               # held by the row bound
    ])
    def test_balanced_blocks_one_formatting_call_each(self, tmp_path, monkeypatch,
                                                      n, width, calls):
        rows, repr_lines = [], manifest.repr_lines

        def counting(block):
            rows.append(len(block))
            return repr_lines(block)

        monkeypatch.setattr(manifest, "repr_lines", counting)
        table = np.random.default_rng(n).standard_normal((n, width))
        header = [f"c{i}" for i in range(width)]
        write_csv(tmp_path / "b.csv", header, table.T)
        assert len(rows) == calls and sum(rows) == n
        assert max(rows, default=0) - min(rows, default=0) <= 1
        assert max(rows, default=0) <= max(1, min(B_CSV, manifest._CSV_BLOCK_VALUES // width))
        assert (tmp_path / "b.csv").read_bytes() == one_shot_csv(header, table)

    def test_spectrum_command_work_memory_independent_of_grid(self, tmp_path):
        cfg = tmp_path / "pair.cfg"
        cfg.write_text("m1_kg = 1.0\nm2_kg = 1.0\nomega1_rad_s = 6.283185307179586\n"
                       "omega2_rad_s = 6.283185307179586\nd_m = 0.1\nT_K = 300.0\n"
                       "eta_per_s = 0.6283185307179586\ngamma11 = 1e59\ngamma22 = 1e59\n")

        def work_bytes(n):
            argv = ["spectrum", "--config", str(cfg), "--grid", str(n), "--out", str(tmp_path)]
            code, peak = traced_peak(lambda: cli.main(argv))
            assert code == 0
            return peak - 6 * 8 * n                  # the grid and its five spectrum columns

        # Both CSVs span many write blocks, each hashed as it is written.
        small, large = work_bytes(16 * B_CSV), work_bytes(40 * B_CSV)
        # one block of the resolvent and of the CSV; stacking the whole
        # (n, 6) table before writing holds 48 B per frequency more
        assert abs(large - small) <= 65_536


class TestBlockedResolvent:
    def model(self):
        setup = PhysicalSetup(m1=1.0, m2=2.0, omega1=2 * np.pi, omega2=3.0, d=0.1,
                              T=250.0, eta=0.6)
        sys = linearize(setup)
        gamma = make_diffusion({(0, 0): 1e59, (1, 1): 2e59, (0, 2): 1e40, (2, 2): 1e21})
        return setup, sys, gamma

    @pytest.mark.parametrize("dns", [dns_fixed_source, dns_symmetric_pair])
    def test_same_bits_across_block_edges(self, monkeypatch, dns):
        setup, sys, gamma = self.model()
        # w = 0 opens the second block: its substitution must be reported
        w = np.linspace(-1.0, 1.0, 2 * B_FREQ + 1) * 2.0 * sys.Omega1
        blocked = dns(setup, sys, gamma, w)
        monkeypatch.setattr(spectra, "_FREQ_BLOCK", len(w))
        whole = dns(setup, sys, gamma, w)
        assert w[B_FREQ] == 0.0 and blocked.zero_frequency_substituted
        for name in ("S_total", "S_grav_position", "S_grav_momentum", "S_thermal", "S_cross"):
            assert np.array_equal(getattr(blocked, name), getattr(whole, name)), name

    @pytest.mark.parametrize("dns", [dns_fixed_source, dns_symmetric_pair])
    @pytest.mark.parametrize("n", [B_FREQ + 1, 2 * B_FREQ + 1])
    def test_grid_equals_its_per_block_calls(self, dns, n):
        setup, sys, gamma = self.model()
        w = np.linspace(0.25, 2.0, n) * sys.Omega1
        whole = dns(setup, sys, gamma, w)
        for start in range(0, n, B_FREQ):
            cut = slice(start, start + B_FREQ)
            block = dns(setup, sys, gamma, w[cut])
            for name in ("S_total", "S_grav_position", "S_grav_momentum", "S_thermal", "S_cross"):
                assert np.array_equal(getattr(block, name), getattr(whole, name)[cut]), name

    def test_work_memory_independent_of_grid(self):
        setup, sys, gamma = self.model()

        def work_bytes(n):
            w = np.linspace(0.25, 2.0, n) * sys.Omega1
            _, peak = traced_peak(lambda: dns_fixed_source(setup, sys, gamma, w))
            return peak - 5 * w.nbytes           # S_total and its four components

        small, large = work_bytes(2 * B_FREQ), work_bytes(20 * B_FREQ)
        # one block's solve and quadratic forms; a one-shot solve holds the
        # whole grid's (4.1 MB more for the large one, measured)
        assert small < 2_000_000
        assert abs(large - small) <= 65_536


class TestBlockedSummary:
    @pytest.mark.parametrize("n_traj,n_samples,block", [
        (9, 1025, 512), (9, 5, 4), (16, 6001, 5), (64, 2 * 512 + 1, 512), (1, 300, 7),
    ])
    def test_same_bits_as_one_shot(self, monkeypatch, n_traj, n_samples, block):
        ens = ensemble(n_traj, n_samples)
        monkeypatch.setattr(cli, "_SUMMARY_BLOCK", block)
        stride = max(1, n_samples // 2000)
        expected = np.stack((ens.times, ens.x.mean(axis=0), ens.x.var(axis=0),
                             ens.p.mean(axis=0), ens.p.var(axis=0)))[:, ::stride]
        assert np.array_equal(cli._ensemble_summary(ens), expected)

    def test_work_memory_independent_of_samples(self):
        def work_bytes(n_samples):
            ens = ensemble(16, n_samples)
            table, peak = traced_peak(lambda: cli._ensemble_summary(ens))
            return peak - table.nbytes

        short, long = work_bytes(4_001), work_bytes(40_001)
        # one block of kept samples per trajectory; a full-ensemble variance
        # holds the whole run's deviations (6.0 MB more for the long one, measured)
        assert short < 1_000_000
        assert abs(long - short) <= 32_768


class TestBlockedEigenTrack:
    def test_same_bits_across_block_edges(self, monkeypatch):
        Hbar = np.diag([1.0, 1.3, 1.0, 1.3])
        Hbar[0, 1] = Hbar[1, 0] = 0.2
        gamma_bar = 0.01 * np.eye(4)
        V0 = 0.5 * np.eye(4)

        def run():
            return dynamics.evolve_covariance_dimensionless(V0, Hbar, gamma_bar, 20.0, 0.02)

        whole = run()
        for block in (7, 333):
            monkeypatch.setattr(dynamics, "_EIG_BLOCK", block)
            blocked = run()
            for name in ("V", "ppt_min_eig", "unc_min_eig"):
                assert np.array_equal(getattr(blocked, name), getattr(whole, name)), name
