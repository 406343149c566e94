"""Flat key-value configuration files.

The parameter space is flat, so the format is one ``key = value`` pair per
line, ``#`` or ``;`` comments, blank lines ignored. Keys mirror the physical
symbols with a unit suffix. The documented keys:

========================  =====================================================
key                       meaning
========================  =====================================================
m1_kg, m2_kg              masses [kg]
omega1_rad_s, omega2_rad_s  natural trap angular frequencies [rad/s]
d_m                       equilibrium separation [m]
T_K                       bath temperature [K]
eta_per_s                 momentum damping rate [1/s]
Q                         quality factor (feasibility; also sets eta when
                          eta_per_s is absent: eta = Omega/Q)
beta                      separation ratio d/(2R) >= 1
rho_kg_m3                 material density [kg/m^3]
R_m                       sphere radius [m]
Omega_rad_s               resonance angular frequency (feasibility) [rad/s]
N_quanta                  detector noise [quanta]
r_fraction                resolvable thermal-noise fraction
gamma11 .. gamma44        SI diffusion-matrix entries (symmetric completion;
                          units as in gravdiff.model.DiffusionMatrix)
seed                      master seed, below 2**53 (larger seeds: use --seed)
G_m3_kg_s2, hbar_Js, kB_J_K  constant overrides (default CODATA)
========================  =====================================================

Files are UTF-8, with or without a byte-order mark. :data:`KNOWN_KEYS` is
the registry of these keys; :func:`load_config` rejects any other key. One
key -> field table per object maps a config to a :class:`PhysicalSetup`, the
pendulum's :class:`LinearizedSystem` or :class:`FeasibilityParams`, and a
value out of its field's domain is a ConfigError that opens with its key
(``m1_kg: m1 must be positive and finite, got -1.0``), read from the refusal of
:func:`gravdiff.errors.require`, the one range rule.
:data:`TABLE1_CONFIG` is the built-in Table-1 config
(``--table1``): the reference torsion pendulum's pair setup, its design dials
and ``gamma11 = gamma22``, the position-only diffusion at the final bound.
"""

from __future__ import annotations

import difflib
import hashlib
from types import MappingProxyType

import numpy as np

from .bounds import minimal_diffusion
from .errors import ConfigError, DomainError, PSDError, require
from .model import (DiffusionMatrix, LinearizedSystem, PhysicalSetup, linearize,
                    pendulum_system)
from .feasibility import CONSTANT_FIELDS, DIAL_FIELDS, REFERENCE_PENDULUM, FeasibilityParams

__all__ = [
    "KNOWN_KEYS",
    "SETUP_KEYS",
    "GAMMA_KEYS",
    "SYSTEM_KEYS",
    "PENDULUM_KEYS",
    "SWEEP_KEYS",
    "parse_config",
    "load_config",
    "require_keys",
    "setup_from_config",
    "gamma_from_config",
    "system_from_config",
    "feasibility_from_config",
    "TABLE1_CONFIG",
]

# Config key -> field, per object built from a config (see _build).
_SETUP_DIALS = {"m1_kg": "m1", "m2_kg": "m2", "omega1_rad_s": "omega1",
                "omega2_rad_s": "omega2", "d_m": "d", "T_K": "T", "eta_per_s": "eta"}
_SETUP_FIELDS = {**_SETUP_DIALS, **CONSTANT_FIELDS}
_OMEGA_FIELD = {"Omega_rad_s": "Omega"}
_PENDULUM_FIELDS = {**DIAL_FIELDS, **CONSTANT_FIELDS}
# Q sets eta when eta_per_s is absent.
SETUP_KEYS = (*_SETUP_DIALS, "Q", *CONSTANT_FIELDS)
_GAMMA_ENTRIES = [(f"gamma{i + 1}{j + 1}", i, j) for i in range(4) for j in range(i, 4)]
GAMMA_KEYS = tuple(key for key, _, _ in _GAMMA_ENTRIES)
# The keys system_from_config reads.
SYSTEM_KEYS = SETUP_KEYS + GAMMA_KEYS + tuple(_OMEGA_FIELD)
PENDULUM_KEYS = tuple(_PENDULUM_FIELDS)
# The design dials ``gravdiff sweep`` varies.
SWEEP_KEYS = tuple(DIAL_FIELDS)
KNOWN_KEYS = frozenset(SYSTEM_KEYS + PENDULUM_KEYS + ("seed",))


def parse_config(text: str, source: str = "<config>") -> dict[str, float]:
    """Parse flat key-value text into a dict of floats.

    Raises ConfigError with the offending line number on malformed input,
    non-finite values (nan, inf) or duplicate keys.
    """
    out: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].split(";", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"{source}:{lineno}: empty key")
        if key in out:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        try:
            out[key] = float(value)
        except ValueError:
            raise ConfigError(
                f"{source}:{lineno}: value for {key!r} is not a number: {value!r}"
            ) from None
        if not np.isfinite(out[key]):
            raise ConfigError(f"{source}:{lineno}: value for {key!r} is not finite: {value!r}")
    return out


def load_config(path) -> tuple[dict[str, float], str]:
    """(config, sha256 of the file's bytes) from one read of a UTF-8 config
    file, with or without a byte-order mark, so that the digest is that of
    the text parsed; a key outside :data:`KNOWN_KEYS` is a ConfigError that
    names the closest known key."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: config is not UTF-8 text: {exc}") from None
    cfg = parse_config(text, source=str(path))
    for key in cfg:
        if key not in KNOWN_KEYS:
            close = difflib.get_close_matches(key, KNOWN_KEYS, n=1)
            hint = f"; did you mean {close[0]!r}?" if close else ""
            raise ConfigError(f"{path}: unknown config key {key!r}{hint}")
    return cfg, hashlib.sha256(data).hexdigest()


def require_keys(cfg: dict, keys) -> None:
    missing = [k for k in keys if k not in cfg]
    if missing:
        raise ConfigError(f"missing required config key(s): {', '.join(missing)}")


def _build(cls, fields: dict, cfg: dict):
    """``cls`` called with the field of each ``fields`` key that ``cfg``
    holds; a value out of its field's domain is a ConfigError that names its
    key. The domain messages open with the field's name."""
    try:
        return cls(**{field: cfg[key] for key, field in fields.items() if key in cfg})
    except DomainError as exc:
        field = str(exc).split(" ", 1)[0]
        key = next((k for k, f in fields.items() if f == field), field)
        raise ConfigError(f"{key}: {exc}") from None


def setup_from_config(cfg: dict) -> PhysicalSetup:
    """Build a PhysicalSetup; m2/omega2 default to the mode-1 values and
    eta to omega1/Q."""
    require_keys(cfg, ["m1_kg", "omega1_rad_s", "d_m"])
    defaults = {"m2_kg": cfg["m1_kg"], "omega2_rad_s": cfg["omega1_rad_s"]}
    if "Q" in cfg:
        if cfg["Q"] <= 0.0:
            raise ConfigError(f"Q: Q must be positive, got {cfg['Q']!r}")
        defaults["eta_per_s"] = cfg["omega1_rad_s"] / cfg["Q"]
        if "eta_per_s" not in cfg and defaults["eta_per_s"] == np.inf:
            raise ConfigError(f"Q: the damping rate omega1/Q it sets overflows, got Q = {cfg['Q']!r}")
    return _build(PhysicalSetup, _SETUP_FIELDS, {**defaults, **cfg})


def gamma_from_config(cfg: dict) -> DiffusionMatrix:
    """Assemble the SI diffusion matrix from gammaXY keys (missing -> 0); a
    matrix that is not PSD is a ConfigError naming the keys given."""
    g = np.zeros((4, 4))
    for key, i, j in _GAMMA_ENTRIES:
        val = cfg.get(key, 0.0)
        g[i, j] = val
        g[j, i] = val
    try:
        return DiffusionMatrix(g)
    except PSDError as exc:
        keys = ", ".join(key for key in GAMMA_KEYS if key in cfg)
        raise ConfigError(f"{keys}: {exc}") from None


def system_from_config(cfg: dict) -> tuple[PhysicalSetup, LinearizedSystem, DiffusionMatrix]:
    """(setup, system, gamma): the system is the pendulum's when the config
    gives Omega_rad_s (:func:`gravdiff.model.pendulum_system`), otherwise the
    trap linearization."""
    setup = setup_from_config(cfg)
    if "Omega_rad_s" in cfg:
        # Only Omega's refusal is the config's: the coupling's own (d**3) stays numeric.
        _build(lambda Omega: require("Omega", Omega), _OMEGA_FIELD, cfg)
        sys_lin = pendulum_system(setup, cfg["Omega_rad_s"])
    else:
        sys_lin = linearize(setup)
    return setup, sys_lin, gamma_from_config(cfg)


def feasibility_from_config(cfg: dict) -> FeasibilityParams:
    """FeasibilityParams from the pendulum keys; an absent optional key takes
    the field's default, and a value out of its field's domain, or a zero
    G_m3_kg_s2, is a ConfigError that names its key."""
    require_keys(cfg, ["Omega_rad_s", "rho_kg_m3", "R_m"])
    params = _build(FeasibilityParams, _PENDULUM_FIELDS, cfg)
    if params.G == 0.0:
        # FeasibilityParams allows G = 0 as PhysicalSetup does, but the
        # budget divides by the gravitational heating rate.
        raise ConfigError(f"G_m3_kg_s2: G must be positive for a feasibility budget, got {params.G}")
    return params


def _table1_config() -> MappingProxyType:
    p = REFERENCE_PENDULUM
    cfg = {"m1_kg": p.m, "m2_kg": p.m, "omega1_rad_s": p.Omega, "omega2_rad_s": p.Omega,
           "d_m": p.d, "eta_per_s": p.eta,
           **{key: getattr(p, _PENDULUM_FIELDS[key]) for key in SWEEP_KEYS}}
    budget = minimal_diffusion(setup_from_config(cfg), "position-only").matrix[0, 0]
    cfg["gamma11"] = cfg["gamma22"] = float(budget)
    return MappingProxyType(cfg)


# Read-only; each run takes a copy.
TABLE1_CONFIG = _table1_config()
