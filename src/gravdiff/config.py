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

:data:`KNOWN_KEYS` is the registry of these keys; :func:`load_config`
rejects any other key.
"""

from __future__ import annotations

import difflib

import numpy as np

from .constants import G_NEWTON, HBAR, KB
from .errors import ConfigError
from .model import DiffusionMatrix, PhysicalSetup
from .feasibility import FeasibilityParams

__all__ = [
    "KNOWN_KEYS",
    "SETUP_KEYS",
    "GAMMA_KEYS",
    "PENDULUM_KEYS",
    "SWEEP_KEYS",
    "parse_config",
    "load_config",
    "require_keys",
    "setup_from_config",
    "gamma_from_config",
    "feasibility_from_config",
    "pendulum_config",
]

_CONSTANT_KEYS = ("G_m3_kg_s2", "hbar_Js", "kB_J_K")
SETUP_KEYS = ("m1_kg", "m2_kg", "omega1_rad_s", "omega2_rad_s", "d_m",
              "T_K", "eta_per_s", "Q") + _CONSTANT_KEYS
_GAMMA_ENTRIES = [(f"gamma{i + 1}{j + 1}", i, j) for i in range(4) for j in range(i, 4)]
GAMMA_KEYS = tuple(key for key, _, _ in _GAMMA_ENTRIES)
# Pendulum config key -> FeasibilityParams field.
_PENDULUM_FIELDS = {
    "Omega_rad_s": "Omega", "rho_kg_m3": "rho", "R_m": "R", "beta": "beta", "T_K": "T",
    "Q": "Q", "N_quanta": "N", "r_fraction": "r",
    "G_m3_kg_s2": "G", "hbar_Js": "hbar", "kB_J_K": "kB",
}
PENDULUM_KEYS = tuple(_PENDULUM_FIELDS)
# The design dials ``gravdiff sweep`` varies: the pendulum keys but the constants.
SWEEP_KEYS = tuple(k for k in PENDULUM_KEYS if k not in _CONSTANT_KEYS)
KNOWN_KEYS = frozenset(SETUP_KEYS + GAMMA_KEYS + PENDULUM_KEYS + ("seed",))


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


def load_config(path) -> dict[str, float]:
    """Parse a config file; a key outside :data:`KNOWN_KEYS` is a ConfigError
    that names the closest known key."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    cfg = parse_config(text, source=str(path))
    for key in cfg:
        if key not in KNOWN_KEYS:
            close = difflib.get_close_matches(key, KNOWN_KEYS, n=1)
            hint = f"; did you mean {close[0]!r}?" if close else ""
            raise ConfigError(f"{path}: unknown config key {key!r}{hint}")
    return cfg


def require_keys(cfg: dict, keys) -> None:
    missing = [k for k in keys if k not in cfg]
    if missing:
        raise ConfigError(f"missing required config key(s): {', '.join(missing)}")


def _constants(cfg: dict) -> dict:
    return {
        "G": cfg.get("G_m3_kg_s2", G_NEWTON),
        "hbar": cfg.get("hbar_Js", HBAR),
        "kB": cfg.get("kB_J_K", KB),
    }


def setup_from_config(cfg: dict) -> PhysicalSetup:
    """Build a PhysicalSetup; m2/omega2 default to the mode-1 values."""
    require_keys(cfg, ["m1_kg", "omega1_rad_s", "d_m"])
    m1 = cfg["m1_kg"]
    omega1 = cfg["omega1_rad_s"]
    if cfg.get("Q", 1.0) <= 0.0:
        raise ConfigError(f"Q must be positive, got {cfg['Q']!r}")
    eta = cfg.get("eta_per_s")
    if eta is None and "Q" in cfg:
        eta = omega1 / cfg["Q"]
    try:
        return PhysicalSetup(
            m1=m1,
            m2=cfg.get("m2_kg", m1),
            omega1=omega1,
            omega2=cfg.get("omega2_rad_s", omega1),
            d=cfg["d_m"],
            T=cfg.get("T_K", 0.0),
            eta=0.0 if eta is None else eta,
            **_constants(cfg),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def gamma_from_config(cfg: dict) -> DiffusionMatrix:
    """Assemble the SI diffusion matrix from gammaXY keys (missing -> 0)."""
    g = np.zeros((4, 4))
    for key, i, j in _GAMMA_ENTRIES:
        val = cfg.get(key, 0.0)
        g[i, j] = val
        g[j, i] = val
    return DiffusionMatrix(g)


def feasibility_from_config(cfg: dict) -> FeasibilityParams:
    """FeasibilityParams from the pendulum keys; an absent optional key takes
    the field's default."""
    require_keys(cfg, ["Omega_rad_s", "rho_kg_m3", "R_m"])
    return FeasibilityParams(**{field: cfg[key] for key, field in _PENDULUM_FIELDS.items()
                                if key in cfg})


def pendulum_config(params: FeasibilityParams) -> dict[str, float]:
    """The design-dial keys (:data:`SWEEP_KEYS`) of ``params``; with default
    constants, :func:`feasibility_from_config` rebuilds ``params`` from them."""
    return {key: getattr(params, _PENDULUM_FIELDS[key]) for key in SWEEP_KEYS}
