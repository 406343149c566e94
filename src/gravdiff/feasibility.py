"""Experiment-design calculus for the millikelvin torsion-pendulum search.

Works entirely in rates: the gravitational frequency scale of a material of
density rho is w_G = sqrt(G rho), and gravitational diffusion at the
separability bound heats a pendulum of resonance frequency Omega at

    Gamma_G = pi w_G^2 / (12 beta^3 Omega),

where beta = d / (2R) >= 1 is the separation in units of the sphere
diameter. The condition Gamma_th <= Gamma_G (equivalently
(12/pi) beta^3 Omega Gamma_th <= w_G^2) is radius-free and therefore scale
invariant; characterizing the thermal background to a fraction r relaxes it
to Gamma_th <= Gamma_G / r at the cost of integration time
t = N^2 / (r^2 Gamma_total) for a detector of noise N quanta.

All rates are angular [s^-1]; report text adds a parallel "mHz-style" column
(value * 1e3, matching the common loose notation) with a unit note.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import G_NEWTON, HBAR, KB, OSMIUM_DENSITY
from .errors import DomainError, require
from .model import check_constants
from .spectra import gravitational_frequency

__all__ = [
    "DIAL_FIELDS",
    "CONSTANT_FIELDS",
    "FeasibilityParams",
    "FeasibilityReport",
    "REFERENCE_PENDULUM",
    "gravitational_heating_rate",
    "thermal_heating_rate",
    "required_integration_time",
    "feasibility_report",
    "table1_report",
]

# Margin slack for the verdict: the published reference design rounds its
# parameters to one significant figure, which lands within a few percent of
# the exact boundary; a strict inequality would misclassify it.
VERDICT_RTOL = 0.10


def _cube(value: float, name: str) -> float:
    """value**3, or DomainError when a finite dial's cube overflows a float."""
    try:
        return value**3
    except OverflowError:
        raise DomainError(f"{name}**3 is out of floating-point range for {name} = {value:g}") from None


# Config key -> FeasibilityParams field: the design dials, in report order,
# and the constant overrides, which physical setups read too.
DIAL_FIELDS = {"Omega_rad_s": "Omega", "rho_kg_m3": "rho", "R_m": "R", "beta": "beta",
               "T_K": "T", "Q": "Q", "N_quanta": "N", "r_fraction": "r"}
CONSTANT_FIELDS = {"G_m3_kg_s2": "G", "hbar_Js": "hbar", "kB_J_K": "kB"}


@dataclass(frozen=True)
class FeasibilityParams:
    """Design dials of the torsion-pendulum experiment.

    The mass is derived, m = (4 pi / 3) rho R^3, never stored; beta >= 1 is
    the center separation over the sphere diameter; N is the detector noise
    in quanta; r the resolvable fraction of the thermal background.
    """

    Omega: float            # resonance angular frequency [rad/s]
    rho: float              # material density [kg/m^3]
    R: float                # sphere radius [m]
    beta: float = 1.0
    T: float = 0.01         # bath temperature [K]
    Q: float = 2e10         # mechanical quality factor
    N: float = 1.0          # detector noise [quanta]
    r: float = 0.01         # resolvable thermal-noise fraction
    G: float = G_NEWTON
    hbar: float = HBAR
    kB: float = KB

    def __post_init__(self):
        require("beta", self.beta, 1.0, strict=False)
        for name in ("Omega", "rho", "R", "T", "Q"):
            require(name, getattr(self, name))
        require("N", self.N, strict=False)
        if not (0.0 < self.r <= 1.0):
            raise DomainError(f"r must lie in (0, 1], got {self.r}")
        check_constants(G=self.G, hbar=self.hbar, kB=self.kB)

    @property
    def m(self) -> float:
        """Sphere mass (4 pi / 3) rho R^3 [kg]."""
        return (4.0 * math.pi / 3.0) * self.rho * _cube(self.R, "R")

    @property
    def d(self) -> float:
        """Center separation d = 2 R beta [m]."""
        return 2.0 * self.R * self.beta

    @property
    def eta(self) -> float:
        """Damping rate Omega / Q [1/s]."""
        return self.Omega / self.Q

    @property
    def omega_G(self) -> float:
        return gravitational_frequency(self.rho, self.G)


# Reference torsion-pendulum design: 3 cm osmium spheres nearly touching, a
# 0.1 mHz pendulum at 10 mK with Q = 2e10, quantum-limited readout and a 1%
# thermal-noise characterization.
REFERENCE_PENDULUM = FeasibilityParams(
    Omega=2.0 * math.pi * 1e-4,
    rho=OSMIUM_DENSITY,
    R=0.03,
    beta=1.0,
    T=0.01,
    Q=2e10,
    N=1.0,
    r=0.01,
)


def gravitational_heating_rate(params: FeasibilityParams) -> float:
    """Minimum gravitational heating rate Gamma_G = pi w_G^2 / (12 beta^3 Omega)."""
    return math.pi * params.omega_G**2 / (12.0 * _cube(params.beta, "beta") * params.Omega)


def thermal_heating_rate(params: FeasibilityParams) -> float:
    """Thermal background Gamma_th = eta n_T = kB T / (hbar Q)."""
    return params.kB * params.T / (params.hbar * params.Q)


def required_integration_time(params: FeasibilityParams, Gamma_total: float) -> float:
    """t = N^2 / (r^2 Gamma_total), the time to resolve a fraction r.

    With a quantum-limited detector (N = 1) and the thermal background at the
    detection boundary Gamma_th = Gamma_G / r this reduces to 1/(r Gamma_G).
    """
    require("Gamma_total", Gamma_total)
    return params.N**2 / (params.r**2 * Gamma_total)


@dataclass(frozen=True)
class FeasibilityReport:
    """Full design report; rates in angular [s^-1], times in seconds."""

    params: FeasibilityParams
    m: float
    omega_G: float
    Gamma_G: float
    Gamma_th: float
    Q_required: float               # for Gamma_th <= Gamma_G at params.T
    QoverT_required: float          # kB / (hbar Gamma_G) [1/K]
    Q_required_relaxed: float       # with the r-characterization credit
    t_int: float
    margin_conservative: float      # w_G^2 - (12/pi) beta^3 Omega Gamma_th [s^-2]
    margin_relaxed: float           # w_G^2 - r (12/pi) beta^3 Omega Gamma_th [s^-2]
    gap_orders: float               # log10(Q_required_relaxed / Q), > 0 means short
    verdict: str

    def to_dict(self) -> dict:
        d = {
            **{key: getattr(self.params, field) for key, field in DIAL_FIELDS.items()},
            "m_kg": self.m,
            "omega_G_per_s": self.omega_G,
            "omega_G_mHz_style": self.omega_G * 1e3,
            "Gamma_G_per_s": self.Gamma_G,
            "Gamma_G_mHz_style": self.Gamma_G * 1e3,
            "Gamma_th_per_s": self.Gamma_th,
            "Gamma_th_mHz_style": self.Gamma_th * 1e3,
            "Q_required": self.Q_required,
            "QoverT_required_per_K": self.QoverT_required,
            "Q_required_relaxed": self.Q_required_relaxed,
            "t_int_s": self.t_int,
            "t_int_days": self.t_int / 86400.0,
            "margin_conservative_s2": self.margin_conservative,
            "margin_relaxed_s2": self.margin_relaxed,
            "gap_orders_of_magnitude": self.gap_orders,
            "verdict": self.verdict,
        }
        return d

    def to_text(self) -> str:
        rows = [
            ("sphere mass m", f"{self.m:.3g} kg"),
            ("omega_G = sqrt(G rho)", f"{self.omega_G:.4e} 1/s ({self.omega_G * 1e3:.3f} mHz-style)"),
            ("Gamma_G (bound heating)", f"{self.Gamma_G:.4e} 1/s ({self.Gamma_G * 1e3:.3f} mHz-style)"),
            ("Gamma_th (thermal)", f"{self.Gamma_th:.4e} 1/s ({self.Gamma_th * 1e3:.3f} mHz-style)"),
            ("Q/T required", f"{self.QoverT_required:.3e} 1/K"),
            ("Q required at T", f"{self.Q_required:.3e}"),
            ("Q required (r credit)", f"{self.Q_required_relaxed:.3e}"),
            ("Q available", f"{self.params.Q:.3e}"),
            ("integration time", f"{self.t_int:.4e} s ({self.t_int / 86400.0:.2f} days)"),
            ("margin (conservative)", f"{self.margin_conservative:.4e} s^-2"),
            ("margin (r credit)", f"{self.margin_relaxed:.4e} s^-2"),
            ("Q gap", f"{self.gap_orders:+.2f} orders"),
            ("verdict", self.verdict),
        ]
        width = max(len(k) for k, _ in rows)
        lines = [f"{k.ljust(width)}  {v}" for k, v in rows]
        lines.append("note: rates are angular [1/s]; the mHz-style column is value*1e3")
        return "\n".join(lines)


def feasibility_report(params: FeasibilityParams) -> FeasibilityReport:
    """Evaluate the full heating-rate budget and the verdict.

    The verdict is "feasible-in-principle" when the available Q meets the
    r-relaxed requirement within VERDICT_RTOL (slack absorbing the one-digit
    rounding of published design numbers), "infeasible" otherwise.
    """
    try:
        m = params.m
        w_G = params.omega_G
        Gamma_G = gravitational_heating_rate(params)
        Gamma_th = thermal_heating_rate(params)
        QoverT = params.kB / (params.hbar * Gamma_G)
        Q_req = QoverT * params.T
        Q_req_relaxed = Q_req * params.r
        pref = (12.0 / math.pi) * params.beta**3 * params.Omega
        margin_cons = w_G**2 - pref * Gamma_th
        margin_rel = w_G**2 - params.r * pref * Gamma_th
        gap = math.log10(Q_req_relaxed / params.Q)
        # last: an overflowed rate is refused here only if nothing above failed
        t_int = required_integration_time(params, Gamma_th + Gamma_G)
    except DomainError:                         # keeps its own message
        raise
    except (ArithmeticError, ValueError) as exc:
        # Finite dials can overflow R**3 or beta**3 or underflow Gamma_G to zero.
        raise DomainError(f"feasibility budget out of floating-point range: {exc}") from exc
    feasible = params.Q >= Q_req_relaxed * (1.0 - VERDICT_RTOL)
    return FeasibilityReport(
        params=params,
        m=m,
        omega_G=w_G,
        Gamma_G=Gamma_G,
        Gamma_th=Gamma_th,
        Q_required=Q_req,
        QoverT_required=QoverT,
        Q_required_relaxed=Q_req_relaxed,
        t_int=t_int,
        margin_conservative=margin_cons,
        margin_relaxed=margin_rel,
        gap_orders=gap,
        verdict="feasible-in-principle" if feasible else "infeasible",
    )


def table1_report() -> FeasibilityReport:
    """Report for the built-in reference design."""
    return feasibility_report(REFERENCE_PENDULUM)
