import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ductpml import DuctConfig
from ductpml.duct import axial_wavenumbers, axial_wavenumbers64, cutoff_numbers
from ductpml.errors import ConfigError, DegenerateLayerError
from ductpml.pml import (
    GapBound,
    PmlProfile,
    alpha,
    alpha_prime,
    dtn_gap_bound,
    modal_amplitudes,
    nu_coefficients,
    nu_gap,
    reflection_coefficient,
    sigma,
    sigma_tilde_integral,
    stretch_integral,
    theoretical_decay_constant,
)
from oracles import psi_mode, psi_mode_derivative, stretch_partial


def make_cfg(M=0.3, k=5.0, d=1.0, L=1.0):
    return DuctConfig(d=d, M=M, k=k, x_minus=-1.0, x_plus=1.0, L=L)


def make_profile(cfg, sp=5.0, sm=None):
    return PmlProfile.quadratic(cfg, sp, sm)


class TestSigma:
    def test_zero_inside(self):
        cfg = make_cfg()
        p = make_profile(cfg)
        assert sigma(p, 0.3) == 0.0
        assert sigma(p, -0.999) == 0.0

    def test_quadratic_value(self):
        cfg = make_cfg()
        p = make_profile(cfg, sp=2.0)
        assert sigma(p, cfg.x_plus + 0.5) == pytest.approx(0.5)

    def test_c1_at_interfaces(self):
        cfg = make_cfg()
        p = make_profile(cfg, sp=7.0, sm=3.0)
        eps = 1e-9
        for x in (cfg.x_plus, cfg.x_minus):
            assert sigma(p, x) == 0.0
            assert sigma(p, x + eps) < 1e-16 or sigma(p, x - eps) < 1e-16
            # one-sided slopes vanish (double root)
            assert abs(sigma(p, x + eps) - sigma(p, x - eps)) / eps < 1e-7

    def test_minus_side(self):
        cfg = make_cfg()
        p = make_profile(cfg, sp=1.0, sm=4.0)
        assert sigma(p, cfg.x_minus - 0.5) == pytest.approx(1.0)

    def test_vectorized(self):
        cfg = make_cfg()
        p = make_profile(cfg, sp=2.0)
        x = np.array([0.0, cfg.x_plus + 1.0, cfg.x_minus - 1.0])
        np.testing.assert_allclose(sigma(p, x), [0.0, 2.0, 2.0])


class TestAlpha:
    def test_unity_without_absorption(self):
        cfg = make_cfg()
        p = make_profile(cfg)
        assert alpha(p, 0.0, cfg.omega) == 1.0

    def test_sigma_equal_omega(self):
        cfg = make_cfg(k=1.0)
        p = PmlProfile(sigma_plus=1.0, sigma_minus=1.0, x_plus=1.0, x_minus=-1.0, L=2.0)
        # sigma = omega at offset 1 on the plus side
        val = alpha(p, 2.0, omega=1.0)
        assert val == pytest.approx((1.0 - 1.0j) / 2.0)

    @settings(max_examples=40, deadline=None)
    @given(s=st.floats(0.0, 50.0), omega=st.floats(0.1, 40.0))
    def test_modulus_and_signs(self, s, omega):
        cfg = make_cfg()
        p = make_profile(cfg, sp=1.0)
        x = cfg.x_plus + math.sqrt(s)
        a = alpha(p, x, omega)
        assert abs(a) <= 1.0 + 1e-12
        assert abs(abs(a) - omega / math.hypot(omega, sigma(p, x))) < 1e-12
        if sigma(p, x) > 0:
            assert a.real > 0.0 and a.imag < 0.0

    def test_alpha_prime_matches_finite_difference(self):
        cfg = make_cfg()
        p = make_profile(cfg, sp=3.0)
        x = cfg.x_plus + 0.37
        eps = 1e-6
        fd = (alpha(p, x + eps, cfg.omega) - alpha(p, x - eps, cfg.omega)) / (2 * eps)
        assert alpha_prime(p, x, cfg.omega) == pytest.approx(fd, rel=1e-8)


class TestStretchIntegral:
    def test_no_absorption(self):
        cfg = make_cfg()
        p = make_profile(cfg, sp=0.0, sm=0.0)
        assert stretch_integral(p, "+", 1.0, cfg.omega) == 1.0 + 0.0j

    def test_quadratic_closed_form(self):
        cfg = make_cfg(k=1.0)
        p = PmlProfile(sigma_plus=3.0, sigma_minus=3.0, x_plus=1.0, x_minus=-1.0, L=1.0)
        val = stretch_integral(p, "+", 1.0, omega=1.0)
        assert val == pytest.approx(1.0 + 1.0j)

    def test_imaginary_part_linear_in_strength(self):
        cfg = make_cfg()
        vals = [
            stretch_integral(make_profile(cfg, sp=s), "+", cfg.L, cfg.omega).imag
            for s in (1.0, 2.0, 4.0)
        ]
        assert vals[1] == pytest.approx(2 * vals[0])
        assert vals[2] == pytest.approx(4 * vals[0])

    def test_partial_vectorized(self):
        cfg = make_cfg()
        p = make_profile(cfg, sp=2.0)
        s = np.array([0.0, 0.5, 1.0])
        vals = stretch_partial(p, "+", s, cfg.omega)
        assert vals[0] == 0.0
        assert vals[2] == pytest.approx(1.0 + 1j * 2.0 / (3.0 * cfg.omega))


class TestPsiModes:
    def test_unity_at_interface(self, cfg):
        p = make_profile(cfg)
        for side in "+-":
            x = cfg.x_plus if side == "+" else cfg.x_minus
            pp, pm = psi_mode(1, x, side, p, cfg)
            assert pp == pytest.approx(1.0)
            assert pm == pytest.approx(1.0)

    def test_reduces_to_duct_modes_without_absorption(self, cfg):
        p = make_profile(cfg, sp=0.0, sm=0.0)
        bp, bm = axial_wavenumbers(1, cfg)
        x = cfg.x_plus + 0.4
        pp, pm = psi_mode(1, x, "+", p, cfg)
        assert pp == pytest.approx(cmath.exp(1j * bp * 0.4), rel=1e-12)
        assert pm == pytest.approx(cmath.exp(1j * bm * 0.4), rel=1e-12)

    @pytest.mark.parametrize("side", ["+", "-"])
    @pytest.mark.parametrize("n", [0, 1, 2, 5])
    def test_eigenrelation(self, cfg, side, n):
        # alpha (d/dx1 + i mu) psi = i (beta + mu) psi with the closed-form
        # derivative; residual is pure roundoff
        p = make_profile(cfg, sp=4.0)
        mu = cfg.M * cfg.k / cfg.one_minus_m2
        x = cfg.x_plus + 0.61 if side == "+" else cfg.x_minus - 0.61
        a = alpha(p, x, cfg.omega)
        bp, bm = axial_wavenumbers(n, cfg)
        psis = psi_mode(n, x, side, p, cfg)
        ders = psi_mode_derivative(n, x, side, p, cfg)
        for beta, psi, dpsi in zip((bp, bm), psis, ders):
            resid = a * (dpsi + 1j * mu * psi) - 1j * (beta + mu) * psi
            assert abs(resid) < 1e-12 * max(1.0, abs(psi))


class TestAmplitudes:
    @pytest.mark.parametrize("side", ["+", "-"])
    @pytest.mark.parametrize("n", [0, 1, 3, 7])
    def test_interface_value_one(self, cfg, side, n):
        p = make_profile(cfg)
        cp, cm = modal_amplitudes(n, side, p, cfg)
        assert cp + cm == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("side", ["+", "-"])
    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_dirichlet_at_outer_wall(self, cfg, side, n):
        p = make_profile(cfg)
        cp, cm = modal_amplitudes(n, side, p, cfg)
        x_end = cfg.x_plus + cfg.L if side == "+" else cfg.x_minus - cfg.L
        pp, pm = psi_mode(n, x_end, side, p, cfg)
        assert abs(cp * pp + cm * pm) < 1e-12

    def test_outgoing_dominates_thick_layer(self, cfg):
        p = make_profile(cfg, sp=80.0)
        cp, cm = modal_amplitudes(0, "+", p, cfg)
        assert cp == pytest.approx(1.0, abs=1e-10)
        assert abs(cm) < 1e-10
        # mirrored on the minus side
        cp, cm = modal_amplitudes(0, "-", p, cfg)
        assert cm == pytest.approx(1.0, abs=1e-10)
        assert abs(cp) < 1e-10


class TestNuCoefficients:
    @pytest.mark.parametrize("side", ["+", "-"])
    def test_matches_amplitude_combination(self, cfg, side):
        p = make_profile(cfg)
        for n in range(12):
            bp, bm = axial_wavenumbers(n, cfg)
            cp, cm = modal_amplitudes(n, side, p, cfg)
            nu = nu_coefficients(n, side, p, cfg)
            combo = cp * bp + cm * bm
            assert abs(nu - combo) <= 1e-12 * max(1.0, abs(nu))

    def test_limit_to_exact_wavenumbers(self):
        # thick-layer surrogate: evanescent convergence is absorption-free
        # (rate ~ L), so L itself must grow for the 1e-10 nodal target
        cfg = make_cfg(L=8.0)
        p = make_profile(cfg, sp=500.0)
        for n in range(4):
            bp, bm = axial_wavenumbers(n, cfg)
            assert nu_coefficients(n, "+", p, cfg) == pytest.approx(bp, abs=1e-10)
            assert nu_coefficients(n, "-", p, cfg) == pytest.approx(bm, abs=1e-10)

    def test_evanescent_gap_without_absorption(self):
        cfg = make_cfg(L=1.0)
        p = make_profile(cfg, sp=0.0, sm=0.0)
        k0, n0 = cutoff_numbers(cfg)
        n = n0 + 1
        bp, _ = axial_wavenumbers(n, cfg)
        gap = abs(nu_coefficients(n, "+", p, cfg) - bp)
        rate = 2.0 * cfg.k * cfg.L * math.sqrt(n * n / (k0 * k0) - 1.0) / cfg.one_minus_m2
        # gap ~ |delta| e^{-rate} / |1 - q|
        assert gap == pytest.approx(
            abs(bp - axial_wavenumbers(n, cfg)[1]) * math.exp(-rate), rel=0.2
        )

    def test_degenerate_layer_detected(self):
        # zero absorption and a resonant propagating phase makes 1 - q vanish
        cfg = DuctConfig(d=1.0, M=0.0, k=5.0, x_minus=-1.0, x_plus=1.0, L=2 * math.pi / 10.0)
        p = PmlProfile(sigma_plus=0.0, sigma_minus=0.0, x_plus=1.0, x_minus=-1.0, L=cfg.L)
        with pytest.raises(DegenerateLayerError):
            nu_coefficients(0, "+", p, cfg)  # (b+ - b-) L = 10 L = 2 pi
        with pytest.raises(DegenerateLayerError, match="mode n=0, side '\\+'"):
            nu_gap(np.arange(3)[::-1], "+", p, cfg)  # an array names the degenerate mode


class TestNuGap:
    @pytest.mark.parametrize("side", ["+", "-"])
    def test_array_of_modes_matches_per_mode_calls(self, cfg, side):
        # one array call for all modes; complex division may round differently
        p = make_profile(cfg, sp=5.0, sm=2.0)
        modes = np.arange(40)
        per_mode = [nu_gap(int(n), side, p, cfg) for n in modes]
        np.testing.assert_allclose(nu_gap(modes, side, p, cfg), per_mode, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("side", ["+", "-"])
    def test_is_nu_minus_beta(self, cfg, side):
        p = make_profile(cfg, sp=5.0, sm=2.0)
        for n in range(12):
            beta = axial_wavenumbers64(n, cfg)[0 if side == "+" else 1]
            gap = nu_gap(n, side, p, cfg)
            assert nu_coefficients(n, side, p, cfg) == beta + gap
            assert abs(gap - (nu_coefficients(n, side, p, cfg) - beta)) <= 4e-16 * abs(beta)

    @pytest.mark.parametrize("side", ["+", "-"])
    def test_relative_accuracy_once_nu_equals_beta(self, side):
        # a thick layer on an evanescent mode: nu rounds to beta, while the
        # gap stays |delta| |q|
        cfg = make_cfg(L=6.0)
        p = make_profile(cfg, sp=0.0)
        n = cutoff_numbers(cfg)[1] + 1
        bp, bm = axial_wavenumbers64(n, cfg)
        assert nu_coefficients(n, side, p, cfg) - (bp if side == "+" else bm) == 0.0
        q_abs = reflection_coefficient(n, side, p, cfg)
        assert 0.0 < q_abs < 1e-18
        assert abs(nu_gap(n, side, p, cfg)) == pytest.approx(abs(bp - bm) * q_abs, rel=1e-12)


class TestReflection:
    def test_propagating_closed_form_example(self):
        # M=0, n=0, omega=k=1, absorbed mass sigma_+ L^3/3 = 1 -> e^{-2}
        cfg = DuctConfig(d=1.0, M=0.0, k=1.0, x_minus=-1.0, x_plus=1.0, L=1.0)
        p = PmlProfile(sigma_plus=3.0, sigma_minus=3.0, x_plus=1.0, x_minus=-1.0, L=1.0)
        r = reflection_coefficient(0, "+", p, cfg)
        assert r == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_evanescent_without_absorption(self):
        cfg = make_cfg(L=1.0)
        p = make_profile(cfg, sp=0.0, sm=0.0)
        k0, n0 = cutoff_numbers(cfg)
        n = n0 + 1
        r = reflection_coefficient(n, "+", p, cfg)
        expect = math.exp(
            -2.0 * cfg.k * cfg.L * math.sqrt(n * n / (k0 * k0) - 1.0) / cfg.one_minus_m2
        )
        assert r == pytest.approx(expect, rel=1e-12)

    def test_full_reflection_without_absorption(self):
        cfg = make_cfg(L=1.0)
        p = make_profile(cfg, sp=0.0, sm=0.0)
        assert reflection_coefficient(0, "+", p, cfg) == pytest.approx(1.0)

    def test_sweep_identity_against_closed_forms(self):
        # >= 200 parameter points: |coef ratio| must equal the closed forms
        # to 1e-12 relative (formula identity, not an approximation)
        count = 0
        for M in (0.0, 0.3, 0.6):
            for k in (2.3, 5.0, 9.7):
                for L in (0.5, 1.0, 2.0):
                    cfg = DuctConfig(d=1.0, M=M, k=k, x_minus=-1.0, x_plus=1.0, L=L)
                    k0, _ = cutoff_numbers(cfg)
                    for sp in (0.5, 2.0, 8.0):
                        prof = PmlProfile(
                            sigma_plus=sp, sigma_minus=sp, x_plus=1.0, x_minus=-1.0, L=L
                        )
                        mass = sp * L ** 3 / (3.0 * cfg.omega)
                        for n in range(0, 8):
                            got = reflection_coefficient(n, "+", prof, cfg)
                            ratio = n / k0
                            if ratio < 1.0:
                                expect = math.exp(
                                    -2.0 * k / cfg.one_minus_m2
                                    * math.sqrt(1.0 - ratio ** 2) * mass
                                )
                            else:
                                expect = math.exp(
                                    -2.0 * k * L / cfg.one_minus_m2
                                    * math.sqrt(ratio ** 2 - 1.0)
                                )
                            if expect < 1e-280:
                                continue
                            assert abs(got - expect) <= 1e-12 * expect
                            count += 1
        assert count >= 200


class TestGapBounds:
    def test_measured_below_bound_sweep(self):
        for M in (0.0, 0.3, 0.6):
            for L in (1.0, 2.0, 4.0):
                cfg = DuctConfig(d=1.0, M=M, k=5.0, x_minus=-1.0, x_plus=1.0, L=L)
                prof = PmlProfile(
                    sigma_plus=5.0, sigma_minus=5.0, x_plus=1.0, x_minus=-1.0, L=L
                )
                for n in range(41):
                    for side in "+-":
                        gb = dtn_gap_bound(n, side, prof, cfg)
                        if gb.underflow:
                            assert gb.measured == 0.0
                            continue
                        if gb.applicable:
                            assert gb.measured <= gb.bound * (1 + 1e-12)

    def test_small_layer_not_applicable(self):
        cfg = make_cfg(L=0.2)
        prof = make_profile(cfg, sp=0.5)
        gb = dtn_gap_bound(0, "+", prof, cfg)
        assert not gb.applicable
        assert gb.measured > 0.0

    def test_underflow_flagged(self):
        cfg = make_cfg(L=4.0)
        prof = make_profile(cfg, sp=50.0)
        gb = dtn_gap_bound(38, "+", prof, cfg)
        assert gb.underflow
        assert gb.measured == 0.0 and gb.bound == 0.0

    def test_gap_monotone_in_layer_length(self):
        gaps = []
        for L in (1.0, 1.5, 2.0, 3.0):
            cfg = make_cfg(L=L)
            prof = make_profile(cfg, sp=5.0)
            gaps.append(dtn_gap_bound(2, "+", prof, cfg).measured)
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_dominant_mode_decay_constant(self):
        # log-gap of the dominant (first evanescent) mode against the
        # effective absorbed mass recovers the theoretical constant
        cfg0 = make_cfg()
        _, n0 = cutoff_numbers(cfg0)
        c2 = theoretical_decay_constant(cfg0)
        ts, gaps = [], []
        for L in (1.0, 1.5, 2.0, 2.5, 3.0):
            cfg = make_cfg(L=L)
            prof = make_profile(cfg, sp=5.0)
            gb = dtn_gap_bound(n0 + 1, "+", prof, cfg)
            ts.append(sigma_tilde_integral(prof, "+", L, cfg.omega))
            gaps.append(gb.measured)
        slope = np.polyfit(ts, np.log(gaps), 1)[0]
        assert abs(slope + c2) <= 0.25 * c2


class TestSigmaTilde:
    def test_saturation(self):
        cfg = make_cfg(L=3.0)
        prof = make_profile(cfg, sp=50.0 * cfg.omega)
        # sigma >> omega almost immediately: integral grows like L
        t = sigma_tilde_integral(prof, "+", 3.0, cfg.omega)
        assert t == pytest.approx(3.0, rel=0.1)

    def test_unsaturated_closed_form(self):
        cfg = make_cfg(L=0.5)
        prof = make_profile(cfg, sp=1.0)
        t = sigma_tilde_integral(prof, "+", 0.5, cfg.omega)
        assert t == pytest.approx(1.0 * 0.5 ** 3 / (3.0 * cfg.omega), rel=1e-12)


class TestProfileValidation:
    def test_negative_strength_rejected(self, cfg):
        with pytest.raises(ConfigError):
            PmlProfile(sigma_plus=-1.0, sigma_minus=1.0, x_plus=1.0, x_minus=-1.0, L=1.0)
