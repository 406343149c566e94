"""Heating-rate budgets, integration times and the design report."""

import dataclasses
import math

import numpy as np
import pytest

from gravdiff.constants import HBAR, KB, OSMIUM_DENSITY
from gravdiff.errors import DomainError
from gravdiff.feasibility import (
    REFERENCE_PENDULUM,
    FeasibilityParams,
    feasibility_report,
    gravitational_heating_rate,
    required_integration_time,
    table1_report,
    thermal_heating_rate,
)
from gravdiff.model import PhysicalSetup

# Independent one-line evaluations (see test_spectra for omega_G):
GAMMA_G_REF = 0.0006284965833333332        # pi w_G^2 / (12 * 2pi*1e-4), beta = 1
GAMMA_TH_10MK_2E12 = 0.0006546016960360321  # kB * 0.01 / (hbar * 2e12)
OMEGA_G_OSMIUM = 0.0012281660311211997      # sqrt(G * 2.26e4)


def params(**overrides):
    base = dict(Omega=2 * math.pi * 1e-4, rho=OSMIUM_DENSITY, R=0.03,
                beta=1.0, T=0.01, Q=2e10, N=1.0, r=0.01)
    base.update(overrides)
    return FeasibilityParams(**base)


class TestHeatingRates:
    def test_gravitational_rate_value(self):
        assert gravitational_heating_rate(params()) == pytest.approx(GAMMA_G_REF, rel=1e-12)

    def test_far_spheres_no_heating(self):
        assert gravitational_heating_rate(params(beta=1e6)) < 1e-18 * GAMMA_G_REF * 1e18

    def test_inverse_frequency_scaling(self):
        assert gravitational_heating_rate(params(Omega=2 * math.pi * 2e-4)) == pytest.approx(
            GAMMA_G_REF / 2, rel=1e-12)

    def test_thermal_rate_value(self):
        assert thermal_heating_rate(params(Q=2e12)) == pytest.approx(
            GAMMA_TH_10MK_2E12, rel=1e-12)

    def test_infinite_quality_factor(self):
        assert thermal_heating_rate(params(Q=1e30)) == pytest.approx(0.0, abs=1e-20)

    def test_q_over_t_requirement(self):
        rep = feasibility_report(params())
        assert rep.QoverT_required == pytest.approx(2e14, rel=0.10)
        assert rep.QoverT_required == pytest.approx(KB / (HBAR * GAMMA_G_REF), rel=1e-12)


class TestIntegrationTime:
    def test_two_day_scale_at_reference_point(self):
        rep = feasibility_report(params())
        assert rep.t_int == pytest.approx(2 * 86400.0, rel=0.15)
        # reduces to 1/(r Gamma_G) at the relaxed boundary (within the
        # Gamma_G / Gamma_total correction)
        assert rep.t_int == pytest.approx(1.0 / (0.01 * rep.Gamma_G), rel=0.06)

    def test_quadratic_in_detector_noise(self):
        p1, p2 = params(N=1.0), params(N=2.0)
        assert required_integration_time(p2, 1e-3) == pytest.approx(
            4 * required_integration_time(p1, 1e-3), rel=1e-12)

    def test_unit_fraction(self):
        p = params(r=1.0, N=3.0)
        assert required_integration_time(p, 2e-3) == pytest.approx(9.0 / 2e-3, rel=1e-12)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(DomainError):
            required_integration_time(params(), 0.0)


class TestReport:
    def test_reference_mass(self):
        rep = table1_report()
        assert rep.m == pytest.approx(2.55, rel=0.01)

    def test_reference_requirements(self):
        rep = table1_report()
        assert rep.Q_required == pytest.approx(2e12, rel=0.10)
        assert rep.Q_required_relaxed == pytest.approx(2e10, rel=0.10)
        assert rep.Gamma_G == pytest.approx(0.6e-3, rel=0.10)
        assert rep.omega_G == pytest.approx(1.2281660311211997e-3, rel=1e-12)
        assert rep.omega_G == pytest.approx(1.23e-3, rel=5e-3)
        assert rep.verdict == "feasible-in-principle"

    def test_report_invariants(self):
        rep = feasibility_report(params(Q=3e11, T=0.02, r=0.05, N=1.5))
        p = rep.params
        assert rep.Gamma_th == pytest.approx(KB * p.T / (HBAR * p.Q), rel=1e-12)
        assert rep.t_int == pytest.approx(
            p.N**2 / (p.r**2 * (rep.Gamma_th + rep.Gamma_G)), rel=1e-12)

    def test_current_technology_verdict(self):
        rep = feasibility_report(params(Q=1e6, T=1.0))
        assert rep.verdict == "infeasible"
        assert rep.gap_orders >= 4.0

    def test_scale_invariance_in_radius(self):
        base = feasibility_report(params())
        for s in (0.1, 0.5, 2.0, 10.0):
            scaled = feasibility_report(params(R=0.03 * s))
            assert scaled.margin_conservative == pytest.approx(
                base.margin_conservative, rel=1e-12)
            assert scaled.margin_relaxed == pytest.approx(base.margin_relaxed, rel=1e-12)
            assert scaled.verdict == base.verdict

    def test_margin_threshold(self):
        # Q set so that Gamma_th is 1% below, then 1% above, the bound rate
        below, above = (feasibility_report(params(Q=KB * 0.01 / (HBAR * f * GAMMA_G_REF)))
                        for f in (0.99, 1.01))
        assert below.margin_conservative > 0
        assert above.margin_conservative < 0
        assert below.omega_G == pytest.approx(OMEGA_G_OSMIUM, rel=1e-12)

    def test_margin_monotonicity(self):
        betas = [1.0, 1.5, 2.0, 4.0]
        temps = [0.005, 0.01, 0.05, 0.2]
        rhos = [5e3, 1e4, OSMIUM_DENSITY]
        qs = [1e9, 1e10, 1e11]
        mb = [feasibility_report(params(beta=b)).margin_relaxed for b in betas]
        assert all(a >= b for a, b in zip(mb, mb[1:]))
        mt = [feasibility_report(params(T=t)).margin_relaxed for t in temps]
        assert all(a >= b for a, b in zip(mt, mt[1:]))
        mr = [feasibility_report(params(rho=r)).margin_relaxed for r in rhos]
        assert all(a <= b for a, b in zip(mr, mr[1:]))
        mq = [feasibility_report(params(Q=q)).margin_relaxed for q in qs]
        assert all(a <= b for a, b in zip(mq, mq[1:]))

    def test_agrees_with_detection_condition(self, rng):
        """margin_conservative equals the detection condition written in the
        terms of a PhysicalSetup: Omega = omega1, Gamma = eta n_T with
        n_T = kB T / (hbar Omega)."""
        for _ in range(1000):
            p = params(
                Omega=2 * math.pi * 10 ** rng.uniform(-5, -2),
                rho=10 ** rng.uniform(3, 4.4),
                R=10 ** rng.uniform(-2, 0),
                beta=rng.uniform(1.0, 3.0),
                T=10 ** rng.uniform(-3, 0),
                Q=10 ** rng.uniform(6, 14),
            )
            rep = feasibility_report(p)
            setup = PhysicalSetup(m1=p.m, m2=p.m, omega1=p.Omega, omega2=p.Omega,
                                  d=p.d, T=p.T, eta=p.eta)
            Gamma = setup.eta * setup.kB * setup.T / (setup.hbar * setup.omega1)
            margin = (math.sqrt(setup.G * p.rho) ** 2
                      - (12.0 / math.pi) * p.beta**3 * setup.omega1 * Gamma)
            assert margin == pytest.approx(rep.margin_conservative, rel=1e-9)

    def test_serialization(self):
        rep = table1_report()
        d = rep.to_dict()
        assert d["verdict"] == "feasible-in-principle"
        assert d["omega_G_mHz_style"] == pytest.approx(rep.omega_G * 1e3)
        text = rep.to_text()
        assert "verdict" in text and "mHz-style" in text


class TestValidation:
    def test_beta_below_contact(self):
        with pytest.raises(DomainError):
            params(beta=0.5)

    def test_fraction_range(self):
        with pytest.raises(DomainError):
            params(r=0.0)
        with pytest.raises(DomainError):
            params(r=1.5)

    @pytest.mark.parametrize("field", ["Omega", "rho", "R", "T", "Q", "beta", "N"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_dial(self, field, value):
        with pytest.raises(DomainError, match=f"{field} must be"):
            params(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("G", -6.6e-11), ("G", math.inf), ("G", math.nan),
        ("hbar", -1.05e-34), ("hbar", 0.0), ("hbar", math.nan),
        ("kB", -1.38e-23), ("kB", 0.0), ("kB", math.inf),
    ])
    def test_constants_follow_the_physical_setup_rule(self, field, value):
        # finite G >= 0 and finite positive hbar and kB, as for PhysicalSetup
        with pytest.raises(DomainError, match=f"{field} must be"):
            params(**{field: value})
        with pytest.raises(ValueError, match=f"{field} must be"):
            PhysicalSetup(m1=1.0, m2=1.0, omega1=1.0, omega2=1.0, d=0.1, **{field: value})

    def test_zero_G_allowed(self):
        assert params(G=0.0).G == 0.0

    @pytest.mark.parametrize("overrides", [
        {"R": 1e200},                 # (4 pi/3) rho R^3 overflows
        {"beta": 1e120},              # beta^3 overflows
        {"N": 1e200},                 # N^2 overflows
        {"rho": 1e-320},              # Gamma_G underflows to zero
    ])
    def test_report_out_of_float_range(self, overrides):
        with pytest.raises(DomainError, match="floating-point range"):
            feasibility_report(params(**overrides))

    def test_mass_out_of_float_range(self):
        with pytest.raises(DomainError, match="floating-point range"):
            params(R=1e200).m

    def test_gravitational_rate_out_of_float_range(self):
        with pytest.raises(DomainError, match="floating-point range"):
            gravitational_heating_rate(params(beta=1e120))

    def test_reference_pendulum_frozen_values(self):
        p = REFERENCE_PENDULUM
        assert p.rho == OSMIUM_DENSITY
        assert p.R == 0.03
        assert p.Q == 2e10
        assert p.d == pytest.approx(0.06)
        assert p.eta == pytest.approx(p.Omega / p.Q)
