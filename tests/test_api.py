"""The public namespace: every exported name resolves, and the removed
second forms (SI states, the spectra copy of the detection margin, the
static-force sampler mode, the per-module (A, D) builders, the CLI-only
pendulum config helper, the options no caller set, the second CSV table
forms and file hasher, the second immutable-copy helper, the second
Hbar builder and the spectra's own balancing) stay gone; and the README's
quickstart runs."""

import dataclasses
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import gravdiff
from gravdiff import config
from gravdiff.bounds import com_reduction
from gravdiff.dynamics import (EvolutionResult, entanglement_onset, ppt_reflector, ppt_separable,
                               uncertainty_valid)
from gravdiff.errors import DomainError
from gravdiff.feasibility import FeasibilityReport
from gravdiff.model import DiffusionMatrix, GaussianState, PhysicalSetup, linearize
from gravdiff.montecarlo import NoiseModel, ReheatResult, simulate
from gravdiff.spectra import SPECTRUM_CONVENTION, NoiseSpectrum

MODULES = sorted(f"gravdiff.{m.name}" for m in pkgutil.iter_modules(gravdiff.__path__))

REMOVED = {
    "gravdiff.config": ("pendulum_config",),
    "gravdiff.dynamics": ("_drift_diffusion",),
    # one CSV table form, and the config digest from config.load_config
    "gravdiff.manifest": ("ColumnTable", "sha256_file"),
    # Hbar is formed by to_dimensionless alone
    "gravdiff.model": ("from_dimensionless", "state_to_dimensionless", "state_from_dimensionless",
                       "langevin_drift", "langevin_diffusion", "dimensionless_hamiltonian"),
    # the raw trajectory record moved to gravdiff.manifest; immutable copies
    # come from gravdiff.model._readonly alone
    "gravdiff.montecarlo": ("diffusion_2x2", "write_raw_trajectories", "read_raw_trajectories",
                            "_frozen"),
    # the spectra take x1's resolvent row from the Schur complement over the positions
    "gravdiff.spectra": ("DetectionCondition", "detection_condition", "_balance", "_reduce",
                         "_require_pivots"),
}


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing


@pytest.mark.parametrize("name", sorted(REMOVED))
def test_removed_names_absent(name):
    module = importlib.import_module(name)
    for attr in REMOVED[name]:
        assert not hasattr(module, attr)
        assert not hasattr(gravdiff, attr)
        assert attr not in getattr(module, "__all__", ())


def test_removed_keywords_and_fields_absent():
    assert [f.name for f in dataclasses.fields(GaussianState)] == ["mean", "V"]
    assert "hbar" not in inspect.signature(uncertainty_valid).parameters
    assert "mode" not in inspect.signature(ppt_separable).parameters
    assert "keep_static_force" not in inspect.signature(simulate).parameters
    assert not hasattr(ReheatResult, "__iter__")
    # options no caller set: fixed tolerances, one reflection, one input form,
    # one spectrum convention, one JSON writer
    for call in (uncertainty_valid, ppt_separable, EvolutionResult.first_ppt_violation,
                 entanglement_onset):
        assert "tol" not in inspect.signature(call).parameters
    assert not inspect.signature(ppt_reflector).parameters
    assert list(inspect.signature(com_reduction).parameters) == ["Gamma"]
    assert not hasattr(FeasibilityReport, "to_json")
    assert "convention" not in [f.name for f in dataclasses.fields(NoiseSpectrum)]
    assert NoiseSpectrum.convention == SPECTRUM_CONVENTION
    setup = PhysicalSetup(m1=1.0, m2=1.0, omega1=1.0, omega2=1.0, d=0.1)
    noise = NoiseModel(DiffusionMatrix.zero(), 0.0, seed=1)
    with pytest.raises(DomainError, match="^init must be"):
        simulate(setup, linearize(setup), noise, n_traj=1, dt=0.01, duration=1.0, init="rest")


def test_readme_quickstart_runs(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Python quickstart", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md quickstart", "exec"), {})
    assert "omega_G = sqrt(G rho)" in capsys.readouterr().out


def _listed_keys(first_cells) -> list[str]:
    """Every key named in a key table's first cells; ``gamma11 .. gamma44``
    stands for the ten upper-triangle entries."""
    keys = []
    for cell in first_cells:
        cell = cell.replace("`", "")
        if re.fullmatch(r"gamma11 \.\. gamma44", cell.strip()):
            keys += config.GAMMA_KEYS
        else:
            keys += [k for k in re.split(r"[,\s]+", cell) if k]
    return keys


def test_config_key_tables_list_known_keys():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Config keys", 1)[1].split("\n#", 1)[0]
    rows = [line.split("|")[1] for line in section.splitlines()
            if line.startswith("| `")]
    # the docstring table's body lies between its second and third rules; a
    # row's key cell ends at two spaces, and a continuation line is indented
    body = re.split(r"^=+  =+$", config.__doc__, flags=re.M)[2]
    cells = [re.split(r"\s{2,}", line)[0] for line in body.splitlines()
             if line and not line[0].isspace()]
    for listed in (_listed_keys(rows), _listed_keys(cells)):
        assert len(listed) == len(set(listed))
        assert set(listed) == config.KNOWN_KEYS
