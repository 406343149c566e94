"""Config parsing, subcommand behavior, exit codes, manifests, determinism."""

import builtins
import dataclasses
import hashlib
import io
import json
import math
import tempfile
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gravdiff import cli
from gravdiff import config as cfgmod
from gravdiff.bounds import minimal_diffusion
from gravdiff.config import gamma_from_config, parse_config, setup_from_config
from gravdiff.errors import ConfigError, DomainError
from gravdiff.feasibility import REFERENCE_PENDULUM, feasibility_report
from gravdiff.manifest import (load_manifest, read_raw_trajectories, write_csv, write_json,
                               write_json_lines)
from gravdiff.model import PhysicalSetup, linearize, pendulum_system
from gravdiff.montecarlo import ReheatResult, effective_frequency

from conftest import fixed_source_oracle, symmetric_pair_oracle


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# Independent evaluation of G m^2 / (hbar d^3) for the reference pendulum
# (m = (4 pi/3) * 2.26e4 * 0.03^3 kg, d = 0.06 m).
TABLE1_FINAL_RHS = 1.9142446276544732e+28

STABLE_PAIR = """
# bench-scale stable pair
m1_kg = 1.0
m2_kg = 1.0
omega1_rad_s = 6.283185307179586
omega2_rad_s = 6.283185307179586
d_m = 0.1
T_K = 300.0
eta_per_s = 0.6283185307179586
gamma11 = 1e59
gamma22 = 1e59
"""


PENDULUM = """
Omega_rad_s = 6.28e-4
rho_kg_m3 = 2.26e4
R_m = 0.03
beta = 1.2
T_K = 1.0
Q = 1e6
N_quanta = 0.7
r_fraction = 0.02
"""


@pytest.fixture
def stable_config(tmp_path):
    path = tmp_path / "pair.cfg"
    path.write_text(STABLE_PAIR)
    return path


@pytest.fixture
def pendulum_config(tmp_path):
    path = tmp_path / "pendulum.cfg"
    path.write_text(PENDULUM)
    return path


class TestConfigParsing:
    def test_comments_and_blank_lines(self):
        cfg = parse_config("a = 1.0\n\n# comment\nb = 2e3  ; trailing\n")
        assert cfg == {"a": 1.0, "b": 2000.0}

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("a = 1\na = 2\n")

    def test_bad_value_names_line(self):
        with pytest.raises(ConfigError, match="<config>:2"):
            parse_config("a = 1\nb = two\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
    def test_non_finite_value_names_line(self, value):
        with pytest.raises(ConfigError, match="<config>:2: value for 'T_K' is not finite"):
            parse_config(f"a = 1\nT_K = {value}\n")

    def test_missing_key_named(self):
        with pytest.raises(ConfigError, match="d_m"):
            setup_from_config({"m1_kg": 1.0, "omega1_rad_s": 1.0})

    def test_gamma_assembly(self):
        g = gamma_from_config({"gamma11": 2.0, "gamma22": 2.0, "gamma12": -1.0}).matrix
        assert g[0, 0] == 2.0 and g[0, 1] == -1.0 and g[1, 0] == -1.0
        assert np.all(g[2:, :] == 0.0)

    def test_registry_keys_documented(self):
        # the module docstring's key table covers the registry
        for key in cfgmod.KNOWN_KEYS - set(cfgmod.GAMMA_KEYS):
            assert key in cfgmod.__doc__, key

    @pytest.mark.parametrize("builder,key", [
        *(("system", key) for key in cfgmod.SETUP_KEYS + ("Omega_rad_s",)),
        *(("feasibility", key) for key in cfgmod.PENDULUM_KEYS),
    ])
    def test_out_of_domain_value_opens_with_its_key(self, builder, key):
        # -1 is outside every field's domain; the builders name the key, not the field
        base = parse_config(STABLE_PAIR if builder == "system" else PENDULUM)
        with pytest.raises(ConfigError, match=f"^{key}: "):
            getattr(cfgmod, f"{builder}_from_config")({**base, key: -1.0})

    def test_q_sets_eta(self):
        setup = setup_from_config(
            {"m1_kg": 1.0, "omega1_rad_s": 2.0, "d_m": 0.1, "Q": 100.0})
        assert setup.eta == pytest.approx(0.02)

    def test_q_whose_eta_overflows_is_named(self):
        # the config holds no eta_per_s: the key at fault is Q
        with pytest.raises(ConfigError, match="^Q: "):
            setup_from_config({"m1_kg": 1.0, "omega1_rad_s": 1.0, "d_m": 0.1, "Q": 1e-320})


class TestExitCodes:
    def test_missing_key_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("m1_kg = 1.0\nomega1_rad_s = 1.0\n")
        rc = cli.main(["linearize", "--config", str(path), "--out", str(tmp_path)])
        assert rc == 2
        assert "d_m" in capsys.readouterr().err

    def test_unstable_setup_exit_3(self, tmp_path, capsys):
        path = tmp_path / "unstable.cfg"
        path.write_text("m1_kg = 2.55\nomega1_rad_s = 1e-4\nd_m = 0.06\n")
        rc = cli.main(["linearize", "--config", str(path), "--out", str(tmp_path)])
        assert rc == 3
        assert "unstable" in capsys.readouterr().err

    def test_non_finite_config_exit_2(self, tmp_path, capsys):
        path = tmp_path / "nan.cfg"
        path.write_text(STABLE_PAIR.replace("T_K = 300.0", "T_K = nan"))
        rc = cli.main(["simulate", "--config", str(path), "--seed", "1", "--traj", "2",
                       "--dt", "0.005", "--duration", "1.0", "--out", str(tmp_path)])
        assert rc == 2
        assert "T_K" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("key,value", [
        ("Q", "0"), ("Q", "-100"), ("Q", "1e-320"), ("hbar_Js", "0"), ("hbar_Js", "-1.05e-34"),
        ("kB_J_K", "0"), ("G_m3_kg_s2", "-6.6743e-11"),
    ])
    @pytest.mark.parametrize("argv", [
        ["linearize"], ["evolve"], ["spectrum"],
        ["simulate", "--seed", "1", "--traj", "2", "--dt", "0.005", "--duration", "1.0"],
        ["reheat", "--seed", "1", "--cycles", "8", "--cycle-time", "0.1"],
    ])
    def test_bad_constant_or_q_exit_2_writes_nothing(self, tmp_path, capsys, argv, key, value):
        # without eta_per_s, Q sets eta = omega1 / Q
        path = tmp_path / "bad.cfg"
        path.write_text(STABLE_PAIR.replace("eta_per_s", "# eta_per_s") + f"{key} = {value}\n")
        out = tmp_path / "out"
        rc = cli.main(argv + ["--config", str(path), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert {"Q": "Q", "hbar_Js": "hbar", "kB_J_K": "kB", "G_m3_kg_s2": "G"}[key] in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["simulate", "--seed", "1", "--traj", "2", "--dt", "0.005", "--duration", "1.0"],
        ["reheat", "--seed", "1", "--cycles", "10", "--cycle-time", "1e-320"],
    ])
    def test_overflowing_thermal_intensity_exit_3_writes_nothing(self, tmp_path, capsys, argv):
        # 2 eta m1 kB T overflows from finite config values
        path = tmp_path / "big.cfg"
        path.write_text(STABLE_PAIR.replace("eta_per_s = 0.6283185307179586", "eta_per_s = 1.7e308"))
        out = tmp_path / "out"
        assert cli.main(argv + ["--config", str(path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: thermal intensity") and "Traceback" not in err
        assert not out.exists()

    def test_underflowing_monitored_spring_exit_3_writes_nothing(self, tmp_path, capsys):
        # m1 Omega1^2 + K = H_fixed[0, 0] underflows to 0: no ground state
        path = tmp_path / "flat.cfg"
        path.write_text(STABLE_PAIR.replace("m2_kg = 1.0", "m2_kg = 5e-324")
                        + "Omega_rad_s = 1e-320\n")
        out = tmp_path / "out"
        argv = ["reheat", "--seed", "1", "--cycles", "2", "--cycle-time", "0.01"]
        assert cli.main(argv + ["--config", str(path), "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.err == ("error: monitored spring H_fixed[0, 0] = m1 Omega1^2 + K = "
                                "0.000000e+00 gives no ground state\n")
        assert captured.out == ""
        assert not out.exists()

    def test_underflowing_monitored_spring_refuses_simulate_too(self, tmp_path, capsys):
        path = tmp_path / "flat.cfg"
        path.write_text(STABLE_PAIR.replace("m2_kg = 1.0", "m2_kg = 5e-324")
                        + "Omega_rad_s = 1e-320\n")
        out = tmp_path / "out"
        argv = ["simulate", "--seed", "1", "--traj", "1", "--duration", "1"]
        assert cli.main(argv + ["--config", str(path), "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.err == ("error: monitored spring H_fixed[0, 0] = m1 Omega1^2 + K = "
                                "0.000000e+00 gives no ground state\n")
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("base,key,value,argv", [
        ("pair", "Omega_rad_s", -1.0, ["spectrum"]),
        ("pair", "Omega_rad_s", -1.0, ["reheat", "--seed", "1", "--cycle-time", "0.1"]),
        ("pair", "Omega_rad_s", 0.0, ["evolve"]),
        ("pendulum", "R_m", -1.0, ["feasibility"]),
        ("pendulum", "beta", 0.5, ["feasibility"]),
        ("pendulum", "r_fraction", 2.0, ["sweep", "--param", "Q", "--values", "1e9"]),
        ("pair", "gamma12", 1.0, ["bound"]),
        ("pair", "gamma12", 1.0, ["spectrum"]),
        *(("pair", key, value, ["linearize"]) for key, value in (
            ("m1_kg", -1.0), ("m2_kg", 0.0), ("omega1_rad_s", -1.0), ("omega2_rad_s", 0.0),
            ("d_m", -0.1), ("T_K", -1.0), ("eta_per_s", -0.5))),
        ("pendulum", "N_quanta", -1.0, ["feasibility"]),
        ("pendulum", "T_K", 0.0, ["feasibility"]),
    ])
    def test_value_out_of_domain_exit_2_names_key(self, tmp_path, capsys, base, key, value, argv):
        cfg = {k: v for k, v in parse_config(PENDULUM if base == "pendulum" else STABLE_PAIR).items()
               if not k.startswith("gamma")}
        path = tmp_path / "bad.cfg"
        path.write_text("".join(f"{k} = {v!r}\n" for k, v in {**cfg, key: value}.items()))
        out = tmp_path / "out"
        rc = cli.main(argv + ["--config", str(path), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"config error: {key}: ")
        assert not out.exists()

    KEYS = sorted(set(cfgmod.SETUP_KEYS) | set(cfgmod.GAMMA_KEYS) | set(cfgmod.PENDULUM_KEYS))

    @pytest.mark.parametrize("argv", [["linearize"], ["bound"], ["spectrum", "--grid", "8"],
                                      ["feasibility"]])
    def test_extreme_values_end_in_documented_exit(self, tmp_path, capsys, argv):
        # Each key at 0, -1, 1e-300 and 1e300 on top of a valid config: no
        # exception (numpy's floating-point warnings included) escapes main.
        base = parse_config(PENDULUM if argv[0] == "feasibility" else STABLE_PAIR)
        path = tmp_path / "extreme.cfg"
        codes = {}
        for key in self.KEYS:
            for value in (0.0, -1.0, 1e-300, 1e300):
                path.write_text("".join(f"{k} = {v!r}\n" for k, v in {**base, key: value}.items()))
                codes[key, value] = cli.main(argv + ["--config", str(path),
                                                     "--out", str(tmp_path / "out")])
        capsys.readouterr()
        assert {case: rc for case, rc in codes.items() if rc not in (0, 2, 3)} == {}
        if argv[0] != "feasibility":
            # d**3 underflows to 0 or overflows: Python's ZeroDivisionError/OverflowError
            assert codes["d_m", 1e-300] == codes["d_m", 1e300] == 3

    @pytest.mark.parametrize("argv,flag", [
        (["spectrum", "--grid", "10000000000000000000"], "--grid"),
        (["sweep", "--param", "Q", "--start", "1e9", "--stop", "1e10",
          "--num", "10000000000000000000"], "--num"),
        (["reheat", "--seed", "1", "--cycle-time", "1", "--cycles", "10000000000000000000"],
         "--cycles"),
    ])
    def test_count_beyond_largest_array_exit_2(self, tmp_path, capsys, monkeypatch, argv, flag):
        def must_not_run(*args, **kwargs):
            raise AssertionError("reheating_run ran before --cycles was checked")

        monkeypatch.setattr(cli, "reheating_run", must_not_run)
        out = tmp_path / "out"
        rc = cli.main(argv + ["--table1", "--out", str(out)])
        assert rc == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_no_input_exit_2(self, tmp_path):
        assert cli.main(["linearize", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("command,flags", [
        ("linearize", []), ("bound", []), ("evolve", []), ("spectrum", []),
        ("simulate", ["--seed", "1"]), ("reheat", ["--seed", "1", "--cycle-time", "0.1"]),
        ("feasibility", []), ("sweep", ["--param", "Q", "--values", "1e8"]),
    ])
    @pytest.mark.parametrize("inputs", ["both", "neither"])
    def test_config_and_table1_exclusive_and_required(self, tmp_path, capsys, command, flags,
                                                      inputs):
        # the parser refuses: the config (which would exit 2) is never read
        config = tmp_path / "negative_mass.cfg"
        config.write_text("m1_kg = -1\nomega1_rad_s = 1\nd_m = 0.1\n")
        out = tmp_path / "out"
        given = ["--table1", "--config", str(config)] if inputs == "both" else []
        assert cli.main([command, *given, *flags, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert ("not allowed with argument" if inputs == "both"
                else "one of the arguments --config --table1 is required") in err
        assert not out.exists()

    def test_config_not_utf8_exit_2_names_file(self, tmp_path, capsys):
        path = tmp_path / "latin1.cfg"
        path.write_bytes(STABLE_PAIR.replace("# bench-scale", "# caf\u00e9 bench-scale")
                         .encode("latin-1"))
        out = tmp_path / "out"
        rc = cli.main(["linearize", "--config", str(path), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {path}: config is not UTF-8")
        assert not out.exists()

    def test_config_with_byte_order_mark_reads_as_without(self, tmp_path, stable_config):
        path = tmp_path / "bom.cfg"
        path.write_bytes(b"\xef\xbb\xbf" + stable_config.read_bytes())
        assert cfgmod.load_config(path)[0] == cfgmod.load_config(stable_config)[0]
        assert cli.main(["linearize", "--config", str(path), "--out", str(tmp_path / "bom")]) == 0
        assert cli.main(["linearize", "--config", str(stable_config),
                         "--out", str(tmp_path / "plain")]) == 0
        assert ((tmp_path / "bom" / "linearize.json").read_bytes()
                == (tmp_path / "plain" / "linearize.json").read_bytes())

    def test_unknown_key_exit_2_names_closest(self, tmp_path, capsys):
        path = tmp_path / "typo.cfg"
        path.write_text(STABLE_PAIR.replace("eta_per_s", "eta_per_sec"))
        out = tmp_path / "out"
        rc = cli.main(["reheat", "--config", str(path), "--seed", "9", "--cycles", "8",
                       "--cycle-time", "0.1", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "'eta_per_sec'" in err and "'eta_per_s'" in err
        assert not out.exists()

    @pytest.mark.parametrize("command,flag,value", [
        ("simulate", "--dt", "-1"),
        ("simulate", "--duration", "-5"),
        ("simulate", "--dt", "nan"),
        ("evolve", "--periods", "-1"),
        ("evolve", "--dt", "nan"),
    ])
    def test_nonpositive_flag_exit_2(self, stable_config, tmp_path, capsys,
                                     command, flag, value):
        out = tmp_path / "out"
        rc = cli.main([command, "--config", str(stable_config), flag, value,
                       "--out", str(out)] + (["--seed", "1"] if command == "simulate" else []))
        assert rc == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--welch-segment", "0"],
                                       ["--welch-segment", "64", "--welch-overlap", "1.5"]])
    def test_bad_welch_flags_write_nothing(self, stable_config, tmp_path, flags):
        out = tmp_path / "out"
        out.mkdir()
        rc = cli.main(["simulate", "--config", str(stable_config), "--seed", "1",
                       "--traj", "2", "--dt", "0.005", "--duration", "2.0",
                       "--out", str(out)] + flags)
        assert rc == 2
        assert not list(out.iterdir())

    @pytest.mark.parametrize("flags", [
        ["--traj", "0"],
        ["--welch-segment", "402"],          # 2 s at 5 ms is 401 samples
        ["--welch-segment", "64", "--welch-overlap", "-0.5"],
        ["--duration", "0.002"],             # shorter than one step
        ["--welch-segment", "1"],            # a one-sample Hann window is zero
        ["--welch-overlap", "0.7"],          # no segment: there is no spectrum to overlap
    ])
    def test_simulate_flags_checked_before_sampling(self, stable_config, tmp_path, capsys,
                                                    monkeypatch, flags):
        def must_not_run(*args, **kwargs):
            raise AssertionError("simulate ran before its flags were checked")

        monkeypatch.setattr(cli, "simulate", must_not_run)
        out = tmp_path / "out"
        rc = cli.main(["simulate", "--config", str(stable_config), "--seed", "1",
                       "--traj", "2", "--dt", "0.005", "--duration", "2.0",
                       "--out", str(out)] + flags)
        assert rc == 2
        assert flags[0] in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["evolve", "--periods", "1e13"],
        ["simulate", "--seed", "1", "--traj", "1", "--duration", "1e15"],
        # past numpy's largest array index: ValueError, not MemoryError
        ["evolve", "--periods", "1e20"],
        ["simulate", "--seed", "1", "--traj", "1", "--duration", "1e20"],
    ])
    def test_out_of_memory_exit_2_writes_nothing(self, stable_config, tmp_path, capsys, argv):
        # Each run needs exabytes for its first array, so it fails at once.
        out = tmp_path / "out"
        rc = cli.main(argv + ["--config", str(stable_config), "--out", str(out)])
        assert rc == 2
        assert f"gravdiff {argv[0]} is too large" in capsys.readouterr().err
        assert not out.exists()

    def test_io_failure_exit_4(self, stable_config, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        rc = cli.main(["linearize", "--config", str(stable_config),
                       "--out", str(blocker / "sub")])
        assert rc == 4


class TestHelpDocumentsConfigKeys:
    @pytest.mark.parametrize("command,keys", [
        ("linearize", ["m1_kg", "omega1_rad_s", "d_m", "eta_per_s"]),
        ("bound", ["gamma11", "gamma34", "d_m"]),
        ("spectrum", ["gamma13", "T_K", "Omega_rad_s"]),
        ("simulate", ["gamma11", "eta_per_s"]),
        ("feasibility", ["rho_kg_m3", "R_m", "beta", "N_quanta", "r_fraction"]),
        ("sweep", ["Omega_rad_s", "Q"]),
    ])
    def test_keys_listed(self, command, keys, capsys):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args([command, "--help"])
        text = capsys.readouterr().out
        for key in keys:
            assert key in text


class TestLinearizeCommand:
    def test_prints_and_writes(self, stable_config, tmp_path, capsys):
        out = tmp_path / "out"
        rc = cli.main(["linearize", "--config", str(stable_config), "--out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "Omega1" in text and "K " in text
        payload = json.loads((out / "linearize.json").read_text())
        assert payload["K_N_per_m"] == pytest.approx(2 * 6.6743e-11 / 0.001, rel=1e-6)
        manifest = load_manifest(out / "linearize.manifest.json")
        assert manifest["command"] == "linearize"
        assert len(manifest["outputs"]) == 1


class TestBoundCommand:
    def test_table1_prints_final_rhs(self, tmp_path, capsys):
        rc = cli.main(["bound", "--table1", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert f"{TABLE1_FINAL_RHS:.9e}" in out
        lines = (tmp_path / "bound.jsonl").read_text().strip().splitlines()
        reports = [json.loads(l) for l in lines]
        ids = {r["bound_id"] for r in reports}
        assert {"final", "dimensional", "trace", "weak-trace"} <= ids
        final = next(r for r in reports if r["bound_id"] == "final")
        assert final["rhs"] == pytest.approx(TABLE1_FINAL_RHS, rel=1e-12)
        # reference gamma saturates the final bound
        assert final["satisfied"]
        assert final["margin"] == pytest.approx(0.0, abs=1e-9 * final["rhs"])

    def test_table1_manifest_records_diffusion_run(self, tmp_path):
        # the position-only allocation at the final bound, as the run used it
        assert cli.main(["bound", "--table1", "--out", str(tmp_path)]) == 0
        params = load_manifest(tmp_path / "bound.manifest.json")["parameters"]
        assert params["gamma11"] == params["gamma22"] == pytest.approx(TABLE1_FINAL_RHS,
                                                                      rel=1e-12)
        gamma = gamma_from_config(params)
        assert np.array_equal(gamma.matrix, minimal_diffusion(setup_from_config(params),
                                                              "position-only").matrix)

    def test_paper_literal_flag(self, tmp_path):
        rc = cli.main(["bound", "--table1", "--paper-literal", "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "bound.jsonl").read_text().strip().splitlines()
        ids = {json.loads(l)["bound_id"] for l in lines}
        assert "dimensional-literal" in ids


class TestEvolveCommand:
    def test_csv_schema(self, stable_config, tmp_path):
        rc = cli.main(["evolve", "--config", str(stable_config), "--out", str(tmp_path),
                       "--periods", "1"])
        assert rc == 0
        lines = (tmp_path / "evolve.csv").read_text().splitlines()
        assert lines[0] == "t,V11,V12,V13,V14,V22,V23,V24,V33,V34,V44,ppt_min_eig,unc_min_eig"
        assert len(lines[1].split(",")) == 13
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == 0.0
        assert first[1] == 0.5  # ground-state V11


class TestSpectrumCommand:
    @staticmethod
    def assert_matches_oracle(path, oracle, setup, sys_lin, gamma):
        """Every CSV component within 1e-12 of the closed form, relative to S_total."""
        data = np.loadtxt(path, delimiter=",", skiprows=2)
        for column, expected in zip(data[:, 2:].T, oracle(setup, sys_lin, gamma, data[:, 0])):
            assert np.max(np.abs(column - expected) / data[:, 1]) <= 1e-12

    def test_table1_grid_rows(self, tmp_path):
        rc = cli.main(["spectrum", "--table1", "--grid", "2048", "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "spectrum.csv").read_text().splitlines()
        assert lines[0].startswith("# two-sided")  # convention recorded in-file
        assert lines[1].startswith("omega_rad_s,S_total")
        assert len(lines) == 2050  # preamble + header + 2048 data rows
        p = REFERENCE_PENDULUM
        setup = PhysicalSetup(m1=p.m, m2=p.m, omega1=p.Omega, omega2=p.Omega, d=p.d,
                              T=p.T, eta=p.eta)
        self.assert_matches_oracle(tmp_path / "spectrum.csv", fixed_source_oracle, setup,
                                   pendulum_system(setup, p.Omega),
                                   minimal_diffusion(setup, "position-only"))

    def test_pair_model(self, stable_config, tmp_path):
        rc = cli.main(["spectrum", "--config", str(stable_config), "--model", "pair",
                       "--grid", "64", "--out", str(tmp_path)])
        assert rc == 0
        assert len((tmp_path / "spectrum.csv").read_text().splitlines()) == 66
        cfg = parse_config(STABLE_PAIR)
        setup = setup_from_config(cfg)
        self.assert_matches_oracle(tmp_path / "spectrum.csv", symmetric_pair_oracle, setup,
                                   linearize(setup), gamma_from_config(cfg))

    @pytest.mark.parametrize("grid", ["0", "-3"])
    def test_empty_grid_exit_2(self, tmp_path, capsys, grid):
        rc = cli.main(["spectrum", "--table1", "--grid", grid, "--out", str(tmp_path)])
        assert rc == 2
        assert "--grid" in capsys.readouterr().err
        assert not (tmp_path / "spectrum.csv").exists()

    @pytest.mark.parametrize("model", ["fixed", "pair"])
    def test_undamped_resonance_on_grid_exit_3_writes_nothing(self, tmp_path, capsys, model):
        # undamped and decoupled: linspace(0.25, 2, 8) holds omega = Omega1 = 1 exactly
        path = tmp_path / "undamped.cfg"
        path.write_text("m1_kg = 1\nomega1_rad_s = 1\nd_m = 0.1\nG_m3_kg_s2 = 0\n")
        out = tmp_path / "out"
        rc = cli.main(["spectrum", "--config", str(path), "--grid", "8", "--model", model,
                       "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.err == "error: spectrum diverges: an undamped resonance lies on the grid\n"
        assert captured.out == ""
        assert not out.exists()


class TestSimulateCommand:
    def test_deterministic_outputs(self, stable_config, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        args = ["simulate", "--config", str(stable_config), "--seed", "42",
                "--traj", "8", "--dt", "0.005", "--duration", "4.0"]
        assert cli.main(args + ["--out", str(out1)]) == 0
        assert cli.main(args + ["--out", str(out2)]) == 0
        h1 = sha256_file(out1 / "simulate_summary.csv")
        h2 = sha256_file(out2 / "simulate_summary.csv")
        assert h1 == h2

    def test_default_dt_within_sampler_limit_at_low_q(self, tmp_path):
        # Q = 2: the 1/eta timescale is the shorter one, and the default step
        # 0.005 * 2 pi/Omega_eff would exceed the sampler's 0.01/eta
        cfg = tmp_path / "lowq.cfg"
        cfg.write_text(STABLE_PAIR.replace("eta_per_s", "# eta_per_s") + "Q = 2\n")
        rc = cli.main(["simulate", "--config", str(cfg), "--seed", "1", "--traj", "2",
                       "--duration", "1.0", "--out", str(tmp_path)])
        assert rc == 0
        times = np.loadtxt(tmp_path / "simulate_summary.csv", delimiter=",", skiprows=1)[:, 0]
        assert times[1] == 0.005 / (6.283185307179586 / 2)

    def test_default_duration_without_damping_is_50_periods(self, tmp_path, capsys):
        # eta = 0: 20/eta is unbounded, so the run lasts 50 periods of Omega_eff
        text = STABLE_PAIR.replace("eta_per_s", "# eta_per_s")
        cfg = tmp_path / "undamped.cfg"
        cfg.write_text(text)
        raw = tmp_path / "raw.bin"
        rc = cli.main(["simulate", "--config", str(cfg), "--seed", "1", "--traj", "1",
                       "--raw", str(raw), "--out", str(tmp_path)])
        assert rc == 0
        assert "1 trajectories x 10001 samples" in capsys.readouterr().out
        period = 2.0 * np.pi / effective_frequency(linearize(setup_from_config(parse_config(text))))
        assert read_raw_trajectories(raw).duration == pytest.approx(50.0 * period, rel=1e-12)

    def test_seed_recorded_when_omitted(self, stable_config, tmp_path):
        rc = cli.main(["simulate", "--config", str(stable_config), "--traj", "2",
                       "--dt", "0.005", "--duration", "1.0", "--out", str(tmp_path)])
        assert rc == 0
        manifest = load_manifest(tmp_path / "simulate.manifest.json")
        assert isinstance(manifest["seed"], int)

    def test_seed_from_config_key(self, tmp_path):
        cfg = tmp_path / "seeded.cfg"
        cfg.write_text(STABLE_PAIR + "seed = 1234\n")
        rc = cli.main(["simulate", "--config", str(cfg), "--traj", "2",
                       "--dt", "0.005", "--duration", "1.0", "--out", str(tmp_path)])
        assert rc == 0
        manifest = load_manifest(tmp_path / "simulate.manifest.json")
        assert manifest["seed"] == 1234

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_flag_out_of_range_exit_2(self, stable_config, tmp_path, capsys, seed):
        rc = cli.main(["simulate", "--config", str(stable_config), "--seed", seed,
                       "--traj", "2", "--dt", "0.005", "--duration", "1.0",
                       "--out", str(tmp_path)])
        assert rc == 2
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "simulate.manifest.json").exists()

    @pytest.mark.parametrize("seed", ["-1", "1.8446744073709552e19", "2.5", "nan"])
    def test_config_seed_out_of_range_exit_2(self, tmp_path, capsys, seed):
        cfg = tmp_path / "seeded.cfg"
        cfg.write_text(STABLE_PAIR + f"seed = {seed}\n")
        rc = cli.main(["simulate", "--config", str(cfg), "--traj", "2",
                       "--dt", "0.005", "--duration", "1.0", "--out", str(tmp_path)])
        assert rc == 2
        assert "seed" in capsys.readouterr().err
        assert not (tmp_path / "simulate.manifest.json").exists()

    def test_config_seed_at_or_above_2_53_exit_2(self, tmp_path, capsys):
        # a config value is a float: 2**60 + 1 would run as 2**60
        cfg = tmp_path / "seeded.cfg"
        cfg.write_text(STABLE_PAIR + "seed = 1152921504606846977\n")
        out = tmp_path / "out"
        rc = cli.main(["simulate", "--config", str(cfg), "--traj", "2",
                       "--dt", "0.005", "--duration", "1.0", "--out", str(out)])
        assert rc == 2
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()
        cfg.write_text(STABLE_PAIR + f"seed = {2**53 - 1}\n")
        rc = cli.main(["simulate", "--config", str(cfg), "--traj", "2",
                       "--dt", "0.005", "--duration", "1.0", "--out", str(out)])
        assert rc == 0
        assert load_manifest(out / "simulate.manifest.json")["seed"] == 2**53 - 1

    def test_manifest_replay_reproduces_hashes(self, stable_config, tmp_path):
        out1 = tmp_path / "first"
        rc = cli.main(["simulate", "--config", str(stable_config), "--traj", "4",
                       "--dt", "0.005", "--duration", "2.0", "--out", str(out1),
                       "--welch-segment", "128"])
        assert rc == 0
        manifest_path = out1 / "simulate.manifest.json"
        out2 = tmp_path / "second"
        assert cli.replay_manifest(manifest_path, out_dir=out2) == 0
        first = load_manifest(manifest_path)
        second = load_manifest(out2 / "simulate.manifest.json")
        h1 = {o["path"].split("/")[-1]: o["sha256"] for o in first["outputs"]}
        h2 = {o["path"].split("/")[-1]: o["sha256"] for o in second["outputs"]}
        assert h1 == h2

    @pytest.mark.parametrize("joined", [False, True])
    def test_replay_writes_raw_file_into_new_directory(self, stable_config, tmp_path, joined):
        out1, out2 = tmp_path / "first", tmp_path / "second"
        raw1 = out1 / "raw.bin"
        raw_flag = [f"--raw={raw1}"] if joined else ["--raw", str(raw1)]
        rc = cli.main(["simulate", "--config", str(stable_config), "--seed", "3",
                       "--traj", "2", "--duration", "2", *raw_flag, "--out", str(out1)])
        assert rc == 0
        raw_bytes, raw_mtime = raw1.read_bytes(), raw1.stat().st_mtime_ns
        assert cli.replay_manifest(out1 / "simulate.manifest.json", out_dir=out2) == 0
        assert (out2 / "raw.bin").read_bytes() == raw_bytes
        assert raw1.read_bytes() == raw_bytes
        assert raw1.stat().st_mtime_ns == raw_mtime
        first = load_manifest(out1 / "simulate.manifest.json")["outputs"]
        second = load_manifest(out2 / "simulate.manifest.json")["outputs"]
        assert [Path(o["path"]).parent for o in second] == [out2] * len(second)
        assert ({Path(o["path"]).name: o["sha256"] for o in second}
                == {Path(o["path"]).name: o["sha256"] for o in first})

    @pytest.mark.parametrize("joined", [False, True])
    def test_replay_resolves_abbreviated_raw_and_out(self, stable_config, tmp_path, joined):
        # the parser expands --ra to --raw and --ou to --out
        out1, out2 = tmp_path / "first", tmp_path / "second"
        raw1 = out1 / "raw.bin"
        flags = ([f"--ra={raw1}", f"--ou={out1}"] if joined
                 else ["--ra", str(raw1), "--ou", str(out1)])
        rc = cli.main(["simulate", "--config", str(stable_config), "--se", "3",
                       "--traj", "2", "--duration", "2", *flags])
        assert rc == 0
        before = {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in out1.iterdir()}
        assert cli.replay_manifest(out1 / "simulate.manifest.json", out_dir=out2) == 0
        assert {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in out1.iterdir()} == before
        assert (out2 / "raw.bin").read_bytes() == raw1.read_bytes()
        second = load_manifest(out2 / "simulate.manifest.json")
        assert second["seed"] == 3
        assert [Path(o["path"]).parent for o in second["outputs"]] == [out2] * len(second["outputs"])

    def test_replay_refuses_an_edited_config(self, pendulum_config, tmp_path, capsys):
        out1, out2 = tmp_path / "first", tmp_path / "second"
        assert cli.main(["feasibility", "--config", str(pendulum_config), "--out", str(out1)]) == 0
        recorded = load_manifest(out1 / "feasibility.manifest.json")["config_sha256"]
        pendulum_config.write_text(PENDULUM.replace("T_K = 1.0", "T_K = 2.0"))
        capsys.readouterr()
        assert cli.replay_manifest(out1 / "feasibility.manifest.json", out_dir=out2) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert str(pendulum_config) in err
        assert recorded in err and sha256_file(pendulum_config) in err
        assert not out2.exists()

    def test_replay_refuses_a_manifest_from_another_release(self, stable_config, tmp_path,
                                                             capsys):
        import gravdiff

        out1, out2 = tmp_path / "first", tmp_path / "second"
        assert cli.main(["simulate", "--config", str(stable_config), "--seed", "3", "--traj", "2",
                         "--duration", "2", "--out", str(out1)]) == 0
        path = out1 / "simulate.manifest.json"
        path.write_text(json.dumps({**load_manifest(path), "version": "0.1.0"}))
        capsys.readouterr()
        assert cli.replay_manifest(path, out_dir=out2) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: ")
        assert "0.1.0" in captured.err and gravdiff.__version__ in captured.err
        assert captured.out == ""
        assert not out2.exists()

    @pytest.mark.parametrize("text", [
        None,                                             # no manifest
        "not json",
        '{"command": "bound"}',                           # no argv
        '{"argv": ["bound", "--no-such-flag"]}',
        '{"argv": ["bound", "--config", "missing.cfg"], "config_sha256": "00"}',
    ])
    def test_replay_of_a_broken_manifest_exits_2(self, tmp_path, monkeypatch, capsys, text):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "bound.manifest.json"
        if text is not None:
            path.write_text(text)
        assert cli.replay_manifest(path, out_dir=tmp_path / "again") == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "again").exists()

    def test_no_option_name_is_a_prefix_of_another(self):
        # an abbreviated option in a recorded argv has one reading, which
        # holds while no option's name is a prefix of another one's
        commands = cli.build_parser()._subparsers._group_actions[0].choices
        for command, parser in commands.items():
            names = [n for n in parser._option_string_actions if n.startswith("--")]
            assert not [(a, b) for a in names for b in names if a != b and b.startswith(a)], command

    def test_replay_keeps_entropy_seed_when_out_path_contains_flag_name(self, stable_config,
                                                                        tmp_path):
        out1 = tmp_path / "out--seed"
        rc = cli.main(["reheat", "--config", str(stable_config), "--cycles", "8",
                       "--cycle-time", "0.1", "--out", str(out1)])
        assert rc == 0
        out2 = tmp_path / "replayed"
        assert cli.replay_manifest(out1 / "reheat.manifest.json", out_dir=out2) == 0
        first = load_manifest(out1 / "reheat.manifest.json")
        second = load_manifest(out2 / "reheat.manifest.json")
        assert second["seed"] == first["seed"]
        assert [o["sha256"] for o in second["outputs"]] == [o["sha256"] for o in first["outputs"]]

    def test_raw_dump(self, stable_config, tmp_path):
        raw = tmp_path / "raw.bin"
        rc = cli.main(["simulate", "--config", str(stable_config), "--seed", "7",
                       "--traj", "2", "--dt", "0.005", "--duration", "1.0",
                       "--out", str(tmp_path), "--raw", str(raw)])
        assert rc == 0
        ens = read_raw_trajectories(raw)
        assert ens.n_traj == 2


class TestReheatCommand:
    def test_runs_and_reports(self, tmp_path, capsys):
        cfg = tmp_path / "r.cfg"
        cfg.write_text(
            "m1_kg = 1.0\nomega1_rad_s = 6.283185307179586\nd_m = 0.1\n"
            "T_K = 200.0\nQ = 2000.0\n"
        )
        rc = cli.main(["reheat", "--config", str(cfg), "--seed", "9",
                       "--cycles", "64", "--cycle-time", "1.0", "--out", str(tmp_path)])
        assert rc == 0
        payload = json.loads((tmp_path / "reheat.json").read_text())
        assert payload["n_cycles"] == 64
        assert "Gamma_hat" in capsys.readouterr().out

    @pytest.mark.parametrize("cycle_time", ["-1", "0", "nan"])
    def test_nonpositive_cycle_time_exit_2(self, tmp_path, capsys, cycle_time):
        rc = cli.main(["reheat", "--table1", "--seed", "9", "--cycles", "8",
                       "--cycle-time", cycle_time, "--out", str(tmp_path)])
        assert rc == 2
        assert "--cycle-time" in capsys.readouterr().err
        assert not (tmp_path / "reheat.json").exists()

    @pytest.mark.parametrize("flag,value", [
        ("--detector-noise", "-5"),
        ("--detector-noise", "nan"),
        ("--detector-noise", "inf"),
        ("--cycles", "1"),
        ("--cycles", "0"),
    ])
    def test_bad_flag_exit_2_before_running(self, tmp_path, capsys, monkeypatch, flag, value):
        def must_not_run(*args, **kwargs):
            raise AssertionError("reheating_run ran before its flags were checked")

        monkeypatch.setattr(cli, "reheating_run", must_not_run)
        rc = cli.main(["reheat", "--table1", "--seed", "9", "--cycles", "8",
                       "--cycle-time", "1.0", flag, value, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_non_finite_result_exit_3(self, tmp_path, capsys, monkeypatch):
        nan_result = ReheatResult(Gamma_hat=float("nan"), rel_err=float("nan"),
                                  stderr=float("nan"), n_cycles=8, cycle_time=1.0)
        monkeypatch.setattr(cli, "reheating_run", lambda *a, **k: nan_result)
        rc = cli.main(["reheat", "--table1", "--seed", "9", "--cycles", "8",
                       "--cycle-time", "1.0", "--out", str(tmp_path)])
        assert rc == 3
        assert "non-finite" in capsys.readouterr().err
        assert not (tmp_path / "reheat.json").exists()


class TestFeasibilityCommand:
    def test_table1_config_is_reference_pendulum(self):
        cfg, sha = cli._resolve_inputs(types.SimpleNamespace(table1=True))
        assert sha is None
        assert cfgmod.feasibility_from_config(cfg) == REFERENCE_PENDULUM

    def test_table1_config_read_only_and_copied(self):
        with pytest.raises(TypeError):
            cfgmod.TABLE1_CONFIG["Q"] = 1.0
        cfg, _ = cli._resolve_inputs(types.SimpleNamespace(table1=True))
        cfg["Q"] = 1.0
        assert cfgmod.TABLE1_CONFIG["Q"] == REFERENCE_PENDULUM.Q

    def test_table1_verdict(self, tmp_path, capsys):
        rc = cli.main(["feasibility", "--table1", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "verdict: feasible-in-principle" in out
        payload = json.loads((tmp_path / "feasibility.json").read_text())
        assert payload["m_kg"] == pytest.approx(2.556, rel=1e-3)

    def test_config_route(self, tmp_path):
        cfg = tmp_path / "f.cfg"
        cfg.write_text(
            "Omega_rad_s = 6.28e-4\nrho_kg_m3 = 2.26e4\nR_m = 0.03\n"
            "T_K = 1.0\nQ = 1e6\n"
        )
        rc = cli.main(["feasibility", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 0
        payload = json.loads((tmp_path / "feasibility.json").read_text())
        assert payload["verdict"] == "infeasible"


    def test_overflowing_radius_config_exit_3(self, pendulum_config, tmp_path, capsys):
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(PENDULUM.replace("R_m = 0.03", "R_m = 1e200"))
        rc = cli.main(["feasibility", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 3
        assert "floating-point range" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("cmd", ["feasibility", "sweep"])
    @pytest.mark.parametrize("key,value", [("G_m3_kg_s2", "-6.6e-11"),
                                           ("G_m3_kg_s2", "0"),
                                           ("hbar_Js", "-1.05e-34"),
                                           ("kB_J_K", "-1.38e-23")])
    def test_bad_constant_config_exit_2_writes_nothing(self, tmp_path, capsys, cmd, key, value):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(PENDULUM + f"{key} = {value}\n")
        out = tmp_path / "out"
        flags = ["--param", "Q", "--values", "1e9,1e10"] if cmd == "sweep" else []
        rc = cli.main([cmd, "--config", str(cfg), *flags, "--out", str(out)])
        assert rc == 2
        assert key in capsys.readouterr().err
        assert not out.exists()


class TestSweepCommand:
    def test_values_and_repeatability(self, tmp_path):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        base = ["sweep", "--table1", "--param", "Q",
                "--values", "1e8,1e9,1e10,1e11,2.1e10"]
        assert cli.main(base + ["--out", str(out1)]) == 0
        assert cli.main(base + ["--out", str(out2)]) == 0
        assert sha256_file(out1 / "sweep.csv") == sha256_file(out2 / "sweep.csv")
        lines = (out1 / "sweep.csv").read_text().splitlines()
        assert len(lines) == 6

    def test_range_sweep(self, tmp_path):
        rc = cli.main(["sweep", "--table1", "--param", "T_K", "--start", "0.001",
                       "--stop", "1.0", "--num", "7", "--log", "--out", str(tmp_path)])
        assert rc == 0
        assert len((tmp_path / "sweep.csv").read_text().splitlines()) == 8

    def test_unknown_param_exit_2(self, tmp_path):
        rc = cli.main(["sweep", "--table1", "--param", "bogus", "--values", "1",
                       "--out", str(tmp_path)])
        assert rc == 2

    @pytest.mark.parametrize("flags,named", [
        (["--values", "inf"], "--values"),
        (["--values", "1e9,nan"], "--values"),
        (["--start", "1", "--stop", "10", "--num", "-1"], "--num"),
        (["--start", "1", "--stop", "10", "--num", "0"], "--num"),
        (["--start", "0", "--stop", "10", "--log"], "--start"),
        (["--start", "1", "--stop", "-10", "--log"], "--stop"),
        (["--start", "1", "--stop", "inf"], "--stop"),
        (["--start", "nan", "--stop", "10"], "--start"),
    ])
    def test_bad_flag_exit_2_writes_nothing(self, tmp_path, capsys, flags, named):
        out = tmp_path / "out"
        rc = cli.main(["sweep", "--table1", "--param", "Q", *flags, "--out", str(out)])
        assert rc == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags,named", [
        ([], "--values"),
        (["--start", "1"], "--stop"),
        (["--values", ","], "--values"),
        (["--values", " , ,"], "--values"),
    ])
    def test_no_sweep_values_exit_2_writes_nothing(self, tmp_path, capsys, monkeypatch,
                                                   flags, named):
        def must_not_run(*args, **kwargs):
            raise AssertionError("feasibility_report ran without sweep values")

        monkeypatch.setattr(cli, "feasibility_report", must_not_run)
        out = tmp_path / "out"
        rc = cli.main(["sweep", "--table1", "--param", "Q", *flags, "--out", str(out)])
        assert rc == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_radius_exit_3(self, tmp_path, capsys):
        # (4 pi/3) rho R^3 overflows a float: a numeric error, not a traceback
        out = tmp_path / "out"
        rc = cli.main(["sweep", "--table1", "--param", "R_m", "--values", "0.03,1e200",
                       "--out", str(out)])
        assert rc == 3
        assert "floating-point range" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_row_exit_3_writes_nothing(self, tmp_path, capsys):
        rc = cli.main(["sweep", "--table1", "--param", "T_K", "--values", "1e308",
                       "--out", str(tmp_path)])
        assert rc == 3
        # Gamma_th overflows to inf, which the integration time refuses
        assert capsys.readouterr().err == ("error: Gamma_total must be positive and finite, "
                                           "got inf\n")
        assert not (tmp_path / "sweep.csv").exists()
        assert not (tmp_path / "sweep.manifest.json").exists()

    # The test's own key -> FeasibilityParams field map, independent of config.
    FIELDS = {"Omega_rad_s": "Omega", "rho_kg_m3": "rho", "R_m": "R", "beta": "beta",
              "T_K": "T", "Q": "Q", "N_quanta": "N", "r_fraction": "r"}

    def test_sweepable_keys(self):
        assert set(cfgmod.SWEEP_KEYS) == set(self.FIELDS)

    @pytest.mark.parametrize("key", cfgmod.SWEEP_KEYS)
    def test_row_matches_replaced_params(self, pendulum_config, tmp_path, key):
        base = cfgmod.feasibility_from_config(parse_config(PENDULUM))
        v = 1.25 * getattr(base, self.FIELDS[key])
        rc = cli.main(["sweep", "--config", str(pendulum_config), "--param", key,
                       "--values", repr(v), "--out", str(tmp_path)])
        assert rc == 0
        header, row = (tmp_path / "sweep.csv").read_text().splitlines()
        assert header.split(",")[0] == key
        rep = feasibility_report(dataclasses.replace(base, **{self.FIELDS[key]: v}))
        assert [float(x) for x in row.split(",")] == [
            v, rep.m, rep.omega_G, rep.Gamma_G, rep.Gamma_th, rep.Q_required,
            rep.Q_required_relaxed, rep.t_int, rep.margin_conservative, rep.margin_relaxed,
            1.0 if rep.verdict == "feasible-in-principle" else 0.0]


class TestEmitContract:
    # Flags per subcommand; feasibility and sweep read the pendulum config.
    CASES = {
        "linearize": [],
        "bound": ["--paper-literal"],
        "evolve": ["--periods", "0.2"],
        "spectrum": ["--grid", "16", "--model", "pair"],
        "simulate": ["--seed", "3", "--traj", "2", "--dt", "0.005", "--duration", "2.0",
                     "--welch-segment", "128", "--raw", "RAW"],
        "reheat": ["--seed", "4", "--cycles", "8", "--cycle-time", "0.1"],
        "feasibility": [],
        "sweep": ["--param", "Q", "--values", "1e8,1e9"],
    }

    def test_every_subcommand_covered(self):
        assert {n for n in vars(cli) if n.startswith("cmd_")} == {f"cmd_{c}" for c in self.CASES}

    @pytest.mark.parametrize("command", sorted(CASES))
    def test_manifest_lists_every_output(self, stable_config, pendulum_config, tmp_path,
                                         command):
        out = tmp_path / "out"
        config = pendulum_config if command in ("feasibility", "sweep") else stable_config
        flags = [str(out / "raw.bin") if a == "RAW" else a for a in self.CASES[command]]
        assert cli.main([command, "--config", str(config), *flags, "--out", str(out)]) == 0
        manifests = sorted(out.glob("*.manifest.json"))
        assert manifests == [out / f"{command}.manifest.json"]
        listed = {Path(o["path"]): o["sha256"] for o in load_manifest(manifests[0])["outputs"]}
        assert set(listed) == set(out.iterdir()) - set(manifests)
        for path, digest in listed.items():
            assert sha256_file(path) == digest

    @pytest.mark.parametrize("command", sorted(CASES))
    def test_failed_write_prints_no_report(self, stable_config, pendulum_config, tmp_path,
                                           capsys, command):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        out = blocker / "out"
        config = pendulum_config if command in ("feasibility", "sweep") else stable_config
        flags = [str(out / "raw.bin") if a == "RAW" else a for a in self.CASES[command]]
        assert cli.main([command, "--config", str(config), *flags, "--out", str(out)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("i/o error: ")
        assert not list(tmp_path.rglob("*.manifest.json"))

    @pytest.mark.parametrize("command", sorted(CASES))
    def test_outputs_hashed_as_written(self, stable_config, pendulum_config, tmp_path,
                                       monkeypatch, command):
        # the writers hash the bytes they write: no output is read back
        out = tmp_path / "out"
        config = pendulum_config if command in ("feasibility", "sweep") else stable_config
        flags = [str(out / "raw.bin") if a == "RAW" else a for a in self.CASES[command]]
        opened = []
        real_open = io.open

        def spy(file, mode="r", *args, **kwargs):
            opened.append((Path(file), mode))
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", spy)
        monkeypatch.setattr(io, "open", spy)
        assert cli.main([command, "--config", str(config), *flags, "--out", str(out)]) == 0
        monkeypatch.undo()
        reads = [path for path, mode in opened if "r" in mode and path.parent == out]
        assert reads == []
        outputs = load_manifest(out / f"{command}.manifest.json")["outputs"]
        assert {Path(o["path"]) for o in outputs} <= {path for path, mode in opened if "w" in mode}
        for o in outputs:
            assert hashlib.sha256(Path(o["path"]).read_bytes()).hexdigest() == o["sha256"]

    @pytest.mark.parametrize("command", sorted(CASES))
    def test_config_read_once_and_hashed_as_parsed(self, stable_config, pendulum_config,
                                                   tmp_path, monkeypatch, command):
        out = tmp_path / "out"
        config = pendulum_config if command in ("feasibility", "sweep") else stable_config
        flags = [str(out / "raw.bin") if a == "RAW" else a for a in self.CASES[command]]
        opened = []
        real_open = io.open

        def spy(file, *args, **kwargs):
            opened.append(Path(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", spy)
        monkeypatch.setattr(io, "open", spy)
        assert cli.main([command, "--config", str(config), *flags, "--out", str(out)]) == 0
        monkeypatch.undo()
        assert opened.count(config) == 1
        recorded = load_manifest(out / f"{command}.manifest.json")["config_sha256"]
        assert recorded == hashlib.sha256(config.read_bytes()).hexdigest()


class TestStrictJson:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_refused(self, tmp_path, value):
        with pytest.raises(DomainError, match="non-finite"):
            write_json(tmp_path / "a.json", {"x": value})
        with pytest.raises(DomainError, match="non-finite"):
            write_json_lines(tmp_path / "b.jsonl", [{"x": 1.0}, {"x": value}])
        assert not (tmp_path / "a.json").exists()
        assert not (tmp_path / "b.jsonl").exists()

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_csv_refused(self, tmp_path, value):
        with pytest.raises(DomainError, match="non-finite"):
            write_csv(tmp_path / "c.csv", ("a", "b"), [(1.0, 3.0), (2.0, value)])
        with pytest.raises(DomainError, match="non-finite"):
            write_csv(tmp_path / "d.csv", ("a",), [(np.float64(value),)], preamble="units")
        assert not (tmp_path / "c.csv").exists()
        assert not (tmp_path / "d.csv").exists()


def read_repr_csv(path):
    """(header, table) of a CLI CSV whose every field is repr-exact."""
    lines = [l for l in Path(path).read_text().splitlines() if not l.startswith("#")]
    fields = [line.split(",") for line in lines[1:]]
    for row in fields:
        for f in row:
            assert f == repr(float(f)), f
    return lines[0].split(","), np.array(fields, dtype=float)


def assert_bits_equal(actual, expected):
    expected = np.ascontiguousarray(expected, dtype=float)
    assert actual.shape == expected.shape
    assert np.array_equal(actual.view(np.uint64), expected.view(np.uint64))


class TestColumnarCsv:
    def test_spectrum_csv_bits(self, stable_config, tmp_path):
        from gravdiff.spectra import dns_fixed_source, dns_symmetric_pair

        cfg = parse_config(STABLE_PAIR)
        setup = setup_from_config(cfg)
        sys_lin, gamma = linearize(setup), gamma_from_config(cfg)
        w = np.linspace(0.25 * sys_lin.Omega1, 2.0 * sys_lin.Omega1, 33)
        for model, dns in (("fixed", dns_fixed_source), ("pair", dns_symmetric_pair)):
            out = tmp_path / model
            assert cli.main(["spectrum", "--config", str(stable_config), "--grid", "33",
                             "--model", model, "--out", str(out)]) == 0
            header, table = read_repr_csv(out / "spectrum.csv")
            spec = dns(setup, sys_lin, gamma, w)
            assert tuple(header) == spec.CSV_HEADER
            assert_bits_equal(table, np.column_stack((
                spec.omega, spec.S_total, spec.S_grav_position, spec.S_grav_momentum,
                spec.S_thermal, spec.S_cross)))

    def test_evolve_csv_bits(self, stable_config, tmp_path):
        from gravdiff.dynamics import evolve_covariance
        from gravdiff.model import ground_state

        assert cli.main(["evolve", "--config", str(stable_config), "--periods", "0.5",
                         "--out", str(tmp_path)]) == 0
        _, table = read_repr_csv(tmp_path / "evolve.csv")
        cfg = parse_config(STABLE_PAIR)
        setup = setup_from_config(cfg)
        sys_lin = linearize(setup)
        period = sys_lin.min_period()
        res = evolve_covariance(ground_state(), sys_lin, gamma_from_config(cfg),
                                0.5 * period, 0.002 * period)
        upper = [res.V[:, i, j] for i in range(4) for j in range(i, 4)]
        assert_bits_equal(table, np.column_stack((res.times, *upper, res.ppt_min_eig,
                                                  res.unc_min_eig)))

    def test_simulate_csv_bits(self, stable_config, tmp_path):
        from gravdiff.montecarlo import NoiseModel, simulate, welch_spectrum

        # 5001 samples: the summary keeps every second one
        assert cli.main(["simulate", "--config", str(stable_config), "--seed", "8",
                         "--traj", "2", "--dt", "0.005", "--duration", "25.0",
                         "--welch-segment", "256", "--out", str(tmp_path)]) == 0
        cfg = parse_config(STABLE_PAIR)
        setup = setup_from_config(cfg)
        ens = simulate(setup, linearize(setup),
                       NoiseModel.from_setup(setup, gamma_from_config(cfg), 8), 2, 0.005, 25.0)
        _, table = read_repr_csv(tmp_path / "simulate_summary.csv")
        assert_bits_equal(table, np.column_stack((
            ens.times[::2], ens.x.mean(axis=0)[::2], ens.x.var(axis=0)[::2],
            ens.p.mean(axis=0)[::2], ens.p.var(axis=0)[::2])))
        _, table = read_repr_csv(tmp_path / "simulate_spectrum.csv")
        spec = welch_spectrum(ens, 256, 0.5)
        zero = np.zeros_like(spec.S_total)
        assert_bits_equal(table, np.column_stack((spec.omega, spec.S_total, *[zero] * 4)))

    def test_sweep_csv_bits(self, pendulum_config, tmp_path):
        assert cli.main(["sweep", "--config", str(pendulum_config), "--param", "T_K",
                         "--start", "0.01", "--stop", "3", "--num", "9", "--log",
                         "--out", str(tmp_path)]) == 0
        _, table = read_repr_csv(tmp_path / "sweep.csv")
        base = cfgmod.feasibility_from_config(parse_config(PENDULUM))
        rows = []
        for v in np.geomspace(0.01, 3.0, 9).tolist():
            rep = feasibility_report(dataclasses.replace(base, T=v))
            rows.append((v, rep.m, rep.omega_G, rep.Gamma_G, rep.Gamma_th, rep.Q_required,
                         rep.Q_required_relaxed, rep.t_int, rep.margin_conservative,
                         rep.margin_relaxed, float(rep.verdict == "feasible-in-principle")))
        assert_bits_equal(table, rows)

    @pytest.mark.parametrize("preamble,first_line", [(None, 2), ("units", 3)])
    def test_non_finite_refusal_names_line(self, tmp_path, preamble, first_line):
        columns = [(1.0, 3.0, 5.0, float("inf")), (2.0, 4.0, float("nan"), 0.0)]
        with pytest.raises(DomainError, match=f"non-finite CSV line {first_line + 2} of c.csv"):
            write_csv(tmp_path / "c.csv", ("a", "b"), columns, preamble=preamble)
        assert not (tmp_path / "c.csv").exists()

    def test_column_forms_write_same_bytes(self, tmp_path):
        values = np.array([[0.1, -0.0, 5e-324, 1e16],
                           [2.0**53 + 2, -1.7976931348623157e308, 1 / 3, 123456789.0]])
        header = ("a", "b", "c", "d")
        forms = {"array": values.T,
                 "arrays": tuple(values.T),
                 "lists": [list(c) for c in values.T.tolist()],
                 "float64": [tuple(np.float64(v) for v in c) for c in values.T]}
        for name, columns in forms.items():
            write_csv(tmp_path / f"{name}.csv", header, columns, preamble="p")
        # the per-value repr(float(v)) writer is the reference
        expected = "# p\na,b,c,d\n" + "".join(
            ",".join(repr(float(v)) for v in r) + "\n" for r in values)
        for name in forms:
            assert (tmp_path / f"{name}.csv").read_bytes() == expected.encode()

    def test_width_must_match_header(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "w.csv", ("a", "b"), [(1.0, 4.0), (2.0, 5.0), (3.0, 6.0)])
        with pytest.raises(ValueError):                 # columns of unequal length
            write_csv(tmp_path / "w.csv", ("a", "b"), [(1.0, 4.0), (2.0,)])
        assert not (tmp_path / "w.csv").exists()


class TestParserReuse:
    def test_patched_command_runs_after_first_call(self, stable_config, tmp_path,
                                                   monkeypatch, capsys):
        assert cli.main(["linearize", "--config", str(stable_config),
                         "--out", str(tmp_path / "a")]) == 0
        built = cli._parser.cache_info().misses
        capsys.readouterr()
        seen = []

        def stand_in(args, cfg):
            seen.append(args.command)
            return ([(Path(args.out) / "stand-in.json", write_json, {"m1_kg": cfg["m1_kg"]})],
                    "stand-in report")

        monkeypatch.setattr(cli, "cmd_linearize", stand_in)
        out = tmp_path / "b"
        assert cli.main(["linearize", "--config", str(stable_config), "--out", str(out)]) == 0
        assert cli._parser.cache_info().misses == built
        assert seen == ["linearize"]
        assert capsys.readouterr().out == "stand-in report\n"
        assert sorted(p.name for p in out.iterdir()) == ["linearize.manifest.json",
                                                         "stand-in.json"]
        assert json.loads((out / "stand-in.json").read_text()) == {"m1_kg": 1.0}
        outputs = load_manifest(out / "linearize.manifest.json")["outputs"]
        assert [(Path(o["path"]), o["sha256"]) for o in outputs] == [
            (out / "stand-in.json", sha256_file(out / "stand-in.json"))]

    # Each subcommand once with its defaults and once with other flags, so a
    # value left behind by one call would change the next call's outputs.
    SESSION = [
        ("linearize", "pair", []),
        ("bound", "table1", ["--paper-literal"]),
        ("bound", "pair", []),
        ("evolve", "pair", ["--periods", "0.2", "--dt", "0.01"]),
        ("evolve", "table1", ["--periods", "0.01"]),
        ("spectrum", "pair", ["--grid", "16", "--model", "pair"]),
        ("spectrum", "table1", ["--grid", "8"]),
        ("simulate", "pair", ["--seed", "3", "--traj", "2", "--dt", "0.005",
                              "--duration", "2.0", "--welch-segment", "128", "--raw", "RAW"]),
        ("simulate", "pair", ["--seed", "5", "--traj", "3", "--dt", "0.01",
                              "--duration", "1.0"]),
        ("reheat", "pair", ["--seed", "4", "--cycles", "8", "--cycle-time", "0.1",
                            "--detector-noise", "0"]),
        ("reheat", "table1", ["--seed", "4", "--cycle-time", "100"]),
        ("feasibility", "pendulum", []),
        ("feasibility", "table1", []),
        ("sweep", "pendulum", ["--param", "Q", "--start", "1e5", "--stop", "1e8", "--log"]),
        ("sweep", "table1", ["--param", "beta", "--values", "1,1.5"]),
        ("sweep", "pendulum", ["--param", "T_K", "--start", "0.1", "--stop", "2", "--num", "3"]),
    ]

    def run_session(self, root, configs, capsys, order):
        record = {}
        for i in order:
            command, source, flags = self.SESSION[i]
            out = root / f"{i:02d}"
            inputs = ["--table1"] if source == "table1" else ["--config", str(configs[source])]
            flags = [str(out / "raw.bin") if a == "RAW" else a for a in flags]
            assert cli.main([command, *inputs, *flags, "--out", str(out)]) == 0
            files = {p.name: p.read_bytes() for p in sorted(out.iterdir())
                     if not p.name.endswith(".manifest.json")}
            manifest = load_manifest(out / f"{command}.manifest.json")
            record[i] = (capsys.readouterr().out.replace(str(root), "<out>"), files,
                         manifest["parameters"], manifest["seed"])
        return record

    def test_two_sessions_in_one_process_identical(self, stable_config, pendulum_config,
                                                   tmp_path, capsys):
        # The second session runs in reverse, so each call follows another one.
        configs = {"pair": stable_config, "pendulum": pendulum_config}
        order = range(len(self.SESSION))
        first = self.run_session(tmp_path / "first", configs, capsys, order)
        second = self.run_session(tmp_path / "second", configs, capsys, reversed(order))
        assert first == second
        assert {c for c, _, _ in self.SESSION} == {n[4:] for n in vars(cli)
                                                   if n.startswith("cmd_")}


def test_cli_import_leaves_package_metadata_unloaded():
    import os
    import subprocess
    import sys

    from gravdiff.manifest import tool_version

    src = str(Path(cli.__file__).resolve().parents[1])
    probe = ("import sys; bare = 'importlib.metadata' in sys.modules; import gravdiff.cli; "
             "print(bare, 'importlib.metadata' in sys.modules, "
             "gravdiff.cli.mani.tool_version())")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}).stdout.split()
    assert out == ["False", "False", tool_version()]


def test_manifest_records_package_version(stable_config, tmp_path):
    import gravdiff

    assert cli.main(["linearize", "--config", str(stable_config), "--out", str(tmp_path)]) == 0
    assert load_manifest(tmp_path / "linearize.manifest.json")["version"] == gravdiff.__version__


# Config values of the failure-contract property: signs, zero, subnormals,
# the float range's edges and ordinary values.
EXTREME_VALUES = (0.0, -1.0, 5e-324, 1e-320, 1e-300, 1e-30, 1e30, 1e300, 1.7e308, 0.5, 2.0)
# Each command at a tiny size; feasibility and sweep read the pendulum config.
TINY_RUNS = {
    "linearize": [],
    "bound": [],
    "evolve": ["--periods", "0.01"],
    "spectrum": ["--grid", "4"],
    "simulate": ["--seed", "1", "--traj", "1", "--dt", "0.001", "--duration", "0.004",
                 "--welch-segment", "4", "--raw", "RAW"],
    "reheat": ["--seed", "1", "--cycles", "2", "--cycle-time", "0.01"],
    "feasibility": [],
    "sweep": ["--param", "Q", "--start", "1e6", "--stop", "1e9", "--num", "2"],
}


def _pendulum_command(command):
    return command in ("feasibility", "sweep")


def _extreme_case(command):
    keys = cfgmod.PENDULUM_KEYS if _pendulum_command(command) else cfgmod.SYSTEM_KEYS
    changes = st.dictionaries(st.sampled_from(keys), st.sampled_from(EXTREME_VALUES),
                              min_size=1, max_size=2)
    return st.tuples(st.just(command), changes)


def _all_finite(obj) -> bool:
    if isinstance(obj, float):
        return math.isfinite(obj)
    if isinstance(obj, dict):
        obj = list(obj.values())
    return not isinstance(obj, list) or all(_all_finite(v) for v in obj)


def _written_values_finite(path) -> bool:
    if path.suffix == ".csv":
        return bool(np.isfinite(read_repr_csv(path)[1]).all())
    if path.suffix == ".bin":
        ens = read_raw_trajectories(path)
        return bool(np.isfinite(ens.x).all() and np.isfinite(ens.p).all())
    lines = path.read_text().splitlines() if path.suffix == ".jsonl" else [path.read_text()]
    return all(_all_finite(json.loads(line)) for line in lines)


class TestFailureContract:
    """Every command on a config with one or two extreme values ends in a
    documented exit code without an escaping exception; a run that exits 0
    wrote only finite values, and one that fails left no manifest."""

    @given(st.sampled_from(sorted(TINY_RUNS)).flatmap(_extreme_case))
    @example(("reheat", {"eta_per_s": 1.7e308}))
    @example(("reheat", {"eta_per_s": 1.7e308, "T_K": 0.0}))
    @example(("simulate", {"eta_per_s": 1.7e308, "T_K": 0.0}))
    # Each DomainError site a config reaches (exit 2, naming the key): a
    # positive dial, a non-negative dial, the pendulum's Omega, and the
    # constants through a physical setup and through a design.
    @example(("linearize", {"m1_kg": 0.0}))
    @example(("spectrum", {"T_K": -1.0}))
    @example(("bound", {"Omega_rad_s": 0.0}))
    @example(("evolve", {"G_m3_kg_s2": -1.0}))
    @example(("feasibility", {"hbar_Js": 0.0}))
    # m1 Omega1^2 + K underflows to 0: the monitored spring is refused (exit 3)
    @example(("reheat", {"Omega_rad_s": 1e-320, "m2_kg": 5e-324}))
    @example(("simulate", {"Omega_rad_s": 1e-320, "m2_kg": 5e-324}))
    @settings(derandomize=True, deadline=2000, max_examples=200)
    def test_documented_exit_and_finite_or_no_record(self, case):
        command, changes = case
        base = parse_config(PENDULUM if _pendulum_command(command) else STABLE_PAIR)
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            config, out = root / "extreme.cfg", root / "out"
            config.write_text("".join(f"{k} = {v!r}\n" for k, v in {**base, **changes}.items()))
            flags = [str(out / "raw.bin") if a == "RAW" else a for a in TINY_RUNS[command]]
            rc = cli.main([command, *flags, "--config", str(config), "--out", str(out)])
            assert rc in (0, 2, 3, 4)
            if rc == 0:
                assert all(_written_values_finite(path) for path in out.iterdir())
            else:
                assert not list(root.rglob("*.manifest.json"))
