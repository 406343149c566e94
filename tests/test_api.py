"""The public namespace: every exported name resolves, and the removed
second forms (SI states, the spectra copy of the detection margin, the
static-force sampler mode, the per-module (A, D) builders, the CLI-only
pendulum config helper) stay gone."""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import gravdiff
from gravdiff.dynamics import ppt_separable, uncertainty_valid
from gravdiff.model import GaussianState
from gravdiff.montecarlo import ReheatResult, simulate

MODULES = sorted(f"gravdiff.{m.name}" for m in pkgutil.iter_modules(gravdiff.__path__))

REMOVED = {
    "gravdiff.config": ("pendulum_config",),
    "gravdiff.dynamics": ("_drift_diffusion",),
    "gravdiff.model": ("from_dimensionless", "state_to_dimensionless", "state_from_dimensionless",
                       "langevin_drift", "langevin_diffusion"),
    "gravdiff.montecarlo": ("diffusion_2x2",),
    "gravdiff.spectra": ("DetectionCondition", "detection_condition"),
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
        assert attr not in module.__all__


def test_removed_keywords_and_fields_absent():
    assert [f.name for f in dataclasses.fields(GaussianState)] == ["mean", "V"]
    assert "hbar" not in inspect.signature(uncertainty_valid).parameters
    assert "mode" not in inspect.signature(ppt_separable).parameters
    assert "keep_static_force" not in inspect.signature(simulate).parameters
    assert not hasattr(ReheatResult, "__iter__")
