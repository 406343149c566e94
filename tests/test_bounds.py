"""Separability-bound chain, bound-saturating matrices, center-of-mass sum."""

import re

import numpy as np
import pytest

from gravdiff.bounds import (
    EQUAL_MASS_RTOL,
    alpha_bound,
    com_reduction,
    dimensional_bound,
    final_bound,
    minimal_diffusion,
    strongest_bound,
    weak_bound,
)
from gravdiff.constants import G_NEWTON, HBAR
from gravdiff.errors import DomainError, PSDError, SymmetryError
from gravdiff.model import (
    DiffusionMatrix,
    PhysicalSetup,
    dimensionless_coupling,
    linearize,
    to_dimensionless,
)

from conftest import (
    SCALE_EXPONENTS,
    assert_matrix_rule_at_huge_entries,
    assert_matrix_rule_at_scale,
    random_psd_batch,
    strong_coupling_setup,
    trace_condition_oracle,
)

# Independent one-line evaluation of G m^2 / (hbar d^3), m = 2.55 kg, d = 6 cm.
FINAL_RHS_255_006 = 1.9052684354386962e+28


@pytest.fixture
def coupled_sys():
    return linearize(strong_coupling_setup(kbar_over_omega=0.3))


def margins_over_alpha(gamma_bar, sys, n=10_000):
    alphas = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
    return alphas, np.array([alpha_bound(gamma_bar, sys, a).margin for a in alphas])


class TestAlphaBound:
    def test_zero_alpha_always_satisfied_for_psd(self, coupled_sys, rng):
        for g in random_psd_batch(rng, 200, scale=0.3):
            rep = alpha_bound(g, coupled_sys, 0.0)
            assert rep.rhs == 0.0
            assert rep.satisfied

    def test_zero_diffusion_violated_at_quarter_phase(self, coupled_sys):
        rep = alpha_bound(np.zeros((4, 4)), coupled_sys, np.pi / 2)
        assert not rep.satisfied
        assert rep.rhs == pytest.approx(2 * dimensionless_coupling(coupled_sys), rel=1e-12)

    def test_interaction_maximizing_phase_reproduces_trace_bound(self, coupled_sys, rng):
        # grid search over the interaction side 2 Kbar sin(alpha)
        kbar = dimensionless_coupling(coupled_sys)
        alphas = np.linspace(0.0, 2 * np.pi, 10_000, endpoint=False)
        a_star = alphas[np.argmax(2 * kbar * np.sin(alphas))]
        for g in random_psd_batch(rng, 20, scale=0.2):
            grid_rep = alpha_bound(g, coupled_sys, a_star)
            exact_rep = strongest_bound(g, coupled_sys)
            d_alpha = 2 * np.pi / 10_000
            slack = d_alpha * (2 * abs(g[0, 1] - g[2, 3])
                               + 2 * abs(g[0, 3] + g[1, 2] + kbar)) + 1e-12
            assert abs(grid_rep.margin - exact_rep.margin) <= slack

    def test_analytic_quarter_phase_equals_trace_bound(self, coupled_sys, rng):
        for g in random_psd_batch(rng, 100, scale=0.2):
            a = alpha_bound(g, coupled_sys, np.pi / 2)
            lhs, rhs = trace_condition_oracle(g, coupled_sys)
            assert a.margin == pytest.approx(lhs - rhs, rel=1e-12, abs=1e-15)

    def test_trace_condition_is_closed_form_bit_for_bit(self, coupled_sys, rng):
        # D g D keeps g PSD and spreads its entries over 1e-60 to 1e60
        for g in random_psd_batch(rng, 2000):
            D = np.diag(10.0 ** rng.uniform(-30.0, 30.0, 4))
            g = D @ g @ D
            rep = strongest_bound(g, coupled_sys)
            lhs, rhs = trace_condition_oracle(g, coupled_sys)
            assert (rep.lhs.hex(), rep.rhs.hex()) == (float(lhs).hex(), float(rhs).hex())
            assert rep.bound_id == "trace"
            assert rep.margin == rep.lhs - rep.rhs

    def test_phase_minimized_margin_equals_trace_margin_when_applicable(self, coupled_sys, rng):
        # with gb_12 = gb_34 and gb_14 + gb_23 >= -Kbar the worst phase is
        # exactly pi/2 and the minimized margin coincides with the trace
        # bound; otherwise the phase family is strictly stronger
        kbar = dimensionless_coupling(coupled_sys)
        # congruence by the x<->p block swap plus averaging enforces
        # gb_12 = gb_34 while preserving positivity
        P = np.zeros((4, 4))
        P[0, 2] = P[1, 3] = P[2, 0] = P[3, 1] = 1.0
        checked = 0
        for g in random_psd_batch(rng, 200, scale=0.2):
            g = 0.5 * (g + P @ g @ P.T)
            if g[0, 3] + g[1, 2] < -kbar:
                continue
            checked += 1
            T = np.trace(g)
            Pterm = g[0, 1] - g[2, 3]
            Qterm = g[0, 3] + g[1, 2]
            min_margin = T - 2 * np.sqrt(Pterm**2 + (Qterm + kbar) ** 2)
            s = strongest_bound(g, coupled_sys)
            assert min_margin == pytest.approx(s.margin, rel=1e-10, abs=1e-12)
            # and the analytic minimum bounds the sampled family from below
            alphas = rng.uniform(0.0, 2 * np.pi, size=16)
            for a in alphas:
                assert alpha_bound(g, coupled_sys, a).margin >= min_margin - 1e-12
        assert checked >= 100


class TestTraceBounds:
    def test_diagonal_reduces_to_trace(self, coupled_sys):
        g = np.diag([0.4, 0.3, 0.2, 0.1])
        rep = strongest_bound(g, coupled_sys)
        assert rep.lhs == pytest.approx(1.0, rel=1e-12)
        assert rep.rhs == pytest.approx(2 * dimensionless_coupling(coupled_sys), rel=1e-12)

    def test_trace_implies_weak_bound(self, coupled_sys, rng):
        gs = random_psd_batch(rng, 10_000, scale=0.5)
        for g in gs:
            if strongest_bound(g, coupled_sys).satisfied:
                assert weak_bound(g, coupled_sys).satisfied

    def test_weak_bound_equals_dimensional_bound_up_to_scale(self, rng):
        # same margin in the two unit systems, related by m O1 O2 / hbar
        for _ in range(10):
            omega = rng.uniform(0.5, 3.0)
            setup = strong_coupling_setup(
                kbar_over_omega=rng.uniform(0.05, 0.5), omega=omega, m=rng.uniform(0.5, 4.0)
            )
            sys = linearize(setup)
            gamma = DiffusionMatrix(random_psd_batch(rng, 1, scale=1e2)[0])
            _, gamma_bar = to_dimensionless(sys, gamma)
            m_weak = weak_bound(gamma_bar, sys).margin
            m_dim = dimensional_bound(gamma, sys).margin
            scale = setup.m1 * sys.Omega1 * sys.Omega2 / HBAR
            assert m_weak * scale == pytest.approx(m_dim, rel=1e-12)

    def test_paper_literal_drops_mass_factor(self, coupled_sys, rng):
        gamma = DiffusionMatrix(random_psd_batch(rng, 1, scale=1e2)[0])
        full = dimensional_bound(gamma, coupled_sys)
        literal = dimensional_bound(gamma, coupled_sys, paper_literal=True)
        assert full.bound_id == "dimensional"
        assert literal.bound_id == "dimensional-literal"
        g = gamma.matrix
        O1, O2 = coupled_sys.Omega1, coupled_sys.Omega2
        m = coupled_sys.m1
        restored = O1 * O2 * (O1 * g[2, 2] + O2 * g[3, 3])
        assert full.lhs - literal.lhs == pytest.approx((m**2 - 1.0) * restored, rel=1e-9)


class TestFinalBound:
    def test_rhs_value(self):
        setup = PhysicalSetup(m1=2.55, m2=2.55, omega1=1.0, omega2=1.0, d=0.06)
        rep = final_bound(DiffusionMatrix.zero(), setup, omega=1.0)
        assert rep.rhs == pytest.approx(FINAL_RHS_255_006, rel=1e-12)
        assert not rep.satisfied

    def test_position_only_saturates(self):
        setup = PhysicalSetup(m1=2.55, m2=2.55, omega1=1.0, omega2=1.0, d=0.06)
        gamma = minimal_diffusion(setup, "position-only")
        rep = final_bound(gamma, setup, omega=1.0)
        assert rep.margin == pytest.approx(0.0, abs=1e-9 * rep.rhs)
        assert rep.satisfied

    def test_symmetry_errors(self):
        setup = PhysicalSetup(m1=2.55, m2=2.0, omega1=1.0, omega2=1.0, d=0.06)
        with pytest.raises(SymmetryError):
            final_bound(DiffusionMatrix.zero(), setup, omega=1.0)
        sym = PhysicalSetup(m1=2.0, m2=2.0, omega1=1.0, omega2=1.0, d=0.06)
        g = np.diag([1.0, 2.0, 0.0, 0.0])
        with pytest.raises(SymmetryError):
            final_bound(DiffusionMatrix(g), sym, omega=1.0)

    @pytest.mark.parametrize("scale", [1.0, 1e-305])
    @pytest.mark.parametrize("pair", [(0, 1), (2, 3)])
    def test_exchange_symmetry_is_the_equality_rule(self, scale, pair):
        # one relative rule at every scale: just inside EQUAL_MASS_RTOL passes,
        # just past it is refused, also where both entries lie below 1e-300
        setup = PhysicalSetup(m1=2.0, m2=2.0, omega1=1.0, omega2=1.0, d=0.06)
        for excess, refused in ((0.99, False), (1.01, True)):
            g = np.zeros((4, 4))
            g[pair[0], pair[0]] = scale
            g[pair[1], pair[1]] = scale * (1.0 + excess * EQUAL_MASS_RTOL)
            if not refused:
                final_bound(DiffusionMatrix(g), setup, omega=1.0)
                continue
            i, j = pair[0] + 1, pair[1] + 1
            message = f"exchange symmetry required: gamma{i}{i} != gamma{j}{j}"
            with pytest.raises(SymmetryError, match=f"^{re.escape(message)}$"):
                final_bound(DiffusionMatrix(g), setup, omega=1.0)

    @pytest.mark.parametrize("call", [
        lambda setup: final_bound(DiffusionMatrix.zero(), setup, omega=1.0),
        lambda setup: minimal_diffusion(setup, "position-only"),
        lambda setup: dimensional_bound(DiffusionMatrix.zero(), linearize(setup)),
    ])
    def test_equal_masses_is_the_equality_rule(self, call):
        for excess, refused in ((0.99, False), (1.01, True)):
            m2 = 2.0 * (1.0 + excess * EQUAL_MASS_RTOL)
            setup = PhysicalSetup(m1=2.0, m2=m2, omega1=1.0, omega2=1.0, d=0.06)
            if not refused:
                call(setup)
                continue
            message = f"equal masses required: m1 = 2.0, m2 = {m2!r}"
            with pytest.raises(SymmetryError, match=f"^{re.escape(message)}$"):
                call(setup)

    def test_frequency_sweep_equivalence(self, rng):
        # gamma frequency independent: the dimensional bound over an
        # (Omega1, Omega2) grid holds iff the final bound holds at the grid's
        # extreme frequencies.
        setup = PhysicalSetup(m1=1.0, m2=1.0, omega1=1.0, omega2=1.0, d=0.05)
        budget = setup.G * setup.m1**2 / (setup.hbar * setup.d**3)
        omegas = np.linspace(0.4, 2.5, 15)
        for _ in range(40):
            g11 = rng.uniform(0.0, 1.2) * budget
            g33 = rng.uniform(0.0, 1.2) * budget / (setup.m1**2 * omegas[0] ** 2)
            gamma = DiffusionMatrix(np.diag([g11, g11, g33, g33]))

            grid_ok = True
            for O1 in omegas:
                for O2 in omegas:
                    # dimensional-bound margin with explicit frequencies
                    lhs = O2 * g11 + O1 * g11 + setup.m1**2 * O1 * O2 * (O1 + O2) * g33
                    rhs = 2 * budget * np.sqrt(O1 * O2)
                    if lhs < rhs * (1 - 1e-12):
                        grid_ok = False
            extremes_ok = all(
                final_bound(gamma, setup, omega=w).satisfied
                for w in (omegas[0], omegas[-1])
            )
            assert grid_ok == extremes_ok


class TestMinimalDiffusion:
    def test_position_only_matrix(self):
        setup = PhysicalSetup(m1=2.55, m2=2.55, omega1=1.0, omega2=1.0, d=0.06)
        g = minimal_diffusion(setup, "position-only").matrix
        expected = setup.G * 2.55**2 / (setup.hbar * 0.06**3)
        assert g[0, 0] == pytest.approx(expected, rel=1e-12)
        assert g[1, 1] == pytest.approx(expected, rel=1e-12)
        assert np.all(g[2:, :] == 0.0) and np.all(g[:, 2:] == 0.0)

    def test_momentum_only_matrix(self):
        setup = PhysicalSetup(m1=2.55, m2=2.55, omega1=1.0, omega2=1.0, d=0.06)
        w = 0.7
        g = minimal_diffusion(setup, "momentum-only", omega=w).matrix
        assert g[2, 2] == pytest.approx(setup.G / (setup.hbar * 0.06**3 * w**2), rel=1e-12)
        assert g[0, 0] == 0.0
        rep = final_bound(DiffusionMatrix(g), setup, omega=w)
        assert rep.margin == pytest.approx(0.0, abs=1e-9 * rep.rhs)

    def test_mixed_saturates_both_final_and_trace_bound(self):
        setup = strong_coupling_setup(kbar_over_omega=0.3)
        sys = linearize(setup)
        gamma = minimal_diffusion(setup, "mixed", omega=sys.Omega1)
        rep20 = final_bound(gamma, setup, omega=sys.Omega1)
        assert rep20.margin == pytest.approx(0.0, abs=1e-9 * rep20.rhs)
        _, gamma_bar = to_dimensionless(sys, gamma)
        rep17 = strongest_bound(gamma_bar, sys)
        assert rep17.margin == pytest.approx(0.0, abs=1e-9 * max(rep17.rhs, 1e-300))
        assert rep17.satisfied

    def test_position_only_saturates_weak_bound_at_trap_frequency(self):
        # the diagonal allocation sits on the weakened trace bound, a factor
        # 2 below the full trace condition
        setup = strong_coupling_setup(kbar_over_omega=0.3)
        sys = linearize(setup)
        gamma = minimal_diffusion(setup, "position-only")
        _, gamma_bar = to_dimensionless(sys, gamma)
        repw = weak_bound(gamma_bar, sys)
        assert repw.margin == pytest.approx(0.0, abs=1e-9 * repw.rhs)
        rep17 = strongest_bound(gamma_bar, sys)
        assert rep17.lhs == pytest.approx(0.5 * rep17.rhs, rel=1e-9)

    def test_unknown_mode(self):
        setup = PhysicalSetup(m1=1.0, m2=1.0, omega1=1.0, omega2=1.0, d=0.05)
        with pytest.raises(ValueError):
            minimal_diffusion(setup, "both")
        with pytest.raises(DomainError):
            minimal_diffusion(setup, "momentum-only")


class TestComReduction:
    def test_single_particle(self):
        assert com_reduction(np.array([[2.5]])) == pytest.approx(2.5)

    def test_identity_two_particles(self):
        assert com_reduction(np.eye(2)) == pytest.approx(2.0)

    def test_anticorrelated_cancels(self):
        G = np.array([[1.0, -1.0], [-1.0, 1.0]])
        assert com_reduction(G) == pytest.approx(0.0, abs=1e-12)

    def test_full_phase_space_input(self):
        full = np.diag([1.0, 2.0, 5.0, 5.0])
        assert com_reduction(full[:2, :2]) == pytest.approx(3.0)

    def test_rejects_non_psd(self):
        with pytest.raises(PSDError):
            com_reduction(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_rejects_indefinite_with_huge_entries(self):
        assert_matrix_rule_at_huge_entries(com_reduction, psd=True)

    @pytest.mark.parametrize("exponent", SCALE_EXPONENTS)
    def test_verdicts_do_not_depend_on_scale(self, rng, exponent):
        assert_matrix_rule_at_scale(rng, com_reduction, exponent, psd=True)

    def test_range_over_random_psd(self, rng):
        G = rng.standard_normal((100_000, 2, 2))
        mats = np.einsum("bij,bkj->bik", G, G)
        sums = mats.sum(axis=(1, 2))
        traces = np.einsum("bii->b", mats)
        assert np.all(sums >= -1e-12 * traces)
        assert np.all(sums <= 2.0 * traces + 1e-12 * traces)
