import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ductpml import (
    ConfigError,
    CutoffResonanceError,
    DomainError,
    DuctConfig,
    axial_wavenumbers,
    axial_wavenumbers64,
    cutoff_numbers,
    dispersion_table,
    mode_shape,
)
from oracles import dispersion_residual


def make_cfg(d=1.0, M=0.3, k=5.0):
    return DuctConfig(d=d, M=M, k=k, x_minus=-1.0, x_plus=1.0, L=1.0)


class TestConfig:
    def test_omega_filled_from_k(self):
        cfg = make_cfg()
        assert cfg.omega == cfg.k * cfg.c0

    def test_k_filled_from_omega(self):
        cfg = DuctConfig(d=1.0, M=0.0, omega=10.0, c0=2.0, x_minus=-1, x_plus=1, L=1)
        assert cfg.k == 5.0

    def test_inconsistent_k_omega_rejected(self):
        with pytest.raises(ConfigError):
            DuctConfig(d=1.0, M=0.0, k=5.0, omega=7.0, x_minus=-1, x_plus=1, L=1)

    @pytest.mark.parametrize("M", [-0.1, 1.0, 1.2])
    def test_mach_bounds(self, M):
        with pytest.raises(ConfigError):
            make_cfg(M=M)

    def test_domain_ordering(self):
        with pytest.raises(ConfigError):
            DuctConfig(d=1.0, M=0.0, k=1.0, x_minus=1.0, x_plus=-1.0, L=1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", ["d", "M", "x_minus", "x_plus", "L", "k", "omega", "c0"])
    def test_non_finite_field_is_config_error(self, field, value):
        # NaN passed the <= checks (d, L, c0, and omega next to a finite k), and a
        # non-finite d or k escaped as ValueError or OverflowError from int()
        kw = dict(d=1.0, M=0.3, k=5.0, x_minus=-1.0, x_plus=1.0, L=1.0)
        with pytest.raises(ConfigError):
            DuctConfig(**{**kw, field: value})

    def test_omega_that_overflows_is_config_error(self):
        # finite k and c0 whose product omega = k c0 is inf
        with pytest.raises(ConfigError, match="^wavenumber must be positive and finite"):
            DuctConfig(d=1.0, M=0.3, k=1e300, c0=1e10, x_minus=-1.0, x_plus=1.0, L=1.0)

    def test_cutoff_resonance_rejected(self):
        # k = sqrt(1-M^2) * 2*pi/d exactly resonates mode n=2
        M = 0.3
        k_res = math.sqrt(1 - M * M) * 2 * math.pi
        with pytest.raises(ConfigError):
            make_cfg(M=M, k=k_res)
        # slightly off resonance is fine
        make_cfg(M=M, k=k_res * (1 + 1e-4))

    def test_resonance_at_a_high_cutoff_index_names_it(self):
        # exactly on the n = 10^6 resonance; only the indices next to k d / (pi sqrt(1-M^2))
        # are checked
        k_res = math.sqrt(1 - 0.3 ** 2) * 10 ** 6 * math.pi
        with pytest.raises(ConfigError, match=r"cutoff resonance .* at n=1000000; "):
            make_cfg(M=0.3, k=k_res)

    def test_large_wavenumber_constructs(self):
        # k = 1e12 halfway between the resonances n = 10^7 and 10^7 + 1, each 0.5 / 1e7
        # relative away (the guard is 1e-8); a loop over every index would take over a second
        root = math.sqrt(1 - 0.6 ** 2)
        cfg = make_cfg(d=math.pi * root * (1e7 + 0.5) / 1e12, M=0.6, k=1e12)
        assert cfg.k == 1e12

    def test_overflowing_cutoff_index_is_config_error(self):
        # k d overflows: a ConfigError, not OverflowError
        with pytest.raises(ConfigError, match=r"^k=1e\+200 and d=1e\+200 overflow the cutoff index"):
            make_cfg(d=1e200, k=1e200)


class TestModeShape:
    def test_mode0_constant(self):
        assert mode_shape(0, 0.3, 1.0) == pytest.approx(1.0)

    def test_mode1_at_wall(self):
        assert mode_shape(1, 0.0, 1.0) == pytest.approx(math.sqrt(2.0))

    def test_mode2_zero(self):
        assert mode_shape(2, 0.25, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            mode_shape(1, 1.5, 1.0)

    def test_orthonormality_512_point_rule(self):
        # composite midpoint rule with 512 points resolves modes up to 20
        d = 1.0
        x = (np.arange(512) + 0.5) * d / 512
        w = d / 512
        for m in range(21):
            pm = mode_shape(m, x, d)
            for n in range(m, 21):
                pn = mode_shape(n, x, d)
                val = float(np.sum(pm * pn) * w)
                assert val == pytest.approx(1.0 if m == n else 0.0, abs=1e-10)


class TestWavenumbers:
    def test_no_flow_reduces_to_plus_minus_k(self):
        # k = pi exactly resonates mode 1 and is rejected by construction,
        # so evaluate just off resonance: the n = 0 roots are exactly +-k
        k = math.pi * (1 + 2e-8)
        cfg = DuctConfig(d=1.0, M=0.0, k=k, x_minus=-1, x_plus=1, L=1)
        bp, bm = axial_wavenumbers(0, cfg)
        assert bp == pytest.approx(k, rel=1e-14)
        assert bm == pytest.approx(-k, rel=1e-14)

    def test_flow_example(self):
        cfg = DuctConfig(d=math.pi, M=0.5, k=1.0, x_minus=-1, x_plus=1, L=1)
        bp, bm = axial_wavenumbers(0, cfg)
        assert bp == pytest.approx(2.0 / 3.0)
        assert bm == pytest.approx(-2.0)
        assert dispersion_residual(bp, 0, cfg) < 1e-14

    def test_evanescent_example(self):
        k = math.pi * (1 + 2e-8)
        cfg = DuctConfig(d=1.0, M=0.0, k=k, x_minus=-1, x_plus=1, L=1)
        bp, bm = axial_wavenumbers(5, cfg)
        expect = 1j * math.sqrt(25.0 * math.pi ** 2 - k * k)
        assert bp == pytest.approx(expect, rel=1e-12)
        assert bp == pytest.approx(1j * math.pi * math.sqrt(24.0), rel=1e-7)
        assert bm == pytest.approx(-expect, rel=1e-12)
        assert bp.imag > 0.0

    def test_symmetry_at_zero_mach(self):
        cfg = DuctConfig(d=1.0, M=0.0, k=5.0, x_minus=-1, x_plus=1, L=1)
        for n in range(12):
            bp, bm = axial_wavenumbers(n, cfg)
            assert bm == -bp

    def test_resonant_mode_raises(self):
        # choose k barely off the config guard but at a mode cutoff:
        # construct config with k near sqrt(1-M^2)*pi/d resonance for n=1
        M = 0.0
        k = math.pi * (1 + 1e-12)
        with pytest.raises(ConfigError):
            make_cfg(M=M, k=k)

    def test_propagating_ordering(self):
        cfg = make_cfg()
        _, n0 = cutoff_numbers(cfg)
        for n in range(n0 + 1):
            bp, bm = axial_wavenumbers(n, cfg)
            assert bp.imag == 0.0 and bm.imag == 0.0
            assert bp.real > bm.real


class TestArrayWavenumbers:
    @pytest.mark.parametrize("M", [0.0, 0.3, 0.9])
    def test_array_equals_per_mode_calls(self, M):
        # k just above the n = 3 cutoff: modes 0..3 propagate (3 barely),
        # 4.. are evanescent
        k = math.sqrt(1.0 - M * M) * 3.0 * math.pi * (1.0 + 2e-8)
        cfg = make_cfg(M=M, k=k)
        n = np.arange(40)
        bp, bm = axial_wavenumbers(n, cfg)
        assert bp.dtype == np.clongdouble and bp.shape == (40,)
        pairs = [axial_wavenumbers(int(i), cfg) for i in n]
        assert np.array_equal(bp, [p[0] for p in pairs])
        assert np.array_equal(bm, [p[1] for p in pairs])
        assert np.all(bp[:4].imag == 0.0) and np.all(bp[4:].imag > 0.0)
        assert isinstance(pairs[3][0], np.clongdouble)
        bp64, bm64 = axial_wavenumbers64(n, cfg)
        assert bp64.dtype == complex
        assert np.array_equal(bp64, [complex(b) for b in bp])
        assert np.array_equal(bm64, [complex(b) for b in bm])

    @pytest.mark.parametrize("M", [0.0, 0.3, 0.9])
    def test_residual_on_a_block_to_16383(self, M):
        # 1e-12 max(1, k^2) until the terms n^2 pi^2/d^2 round by more than
        # that in extended precision, then a few units of that rounding
        cfg = make_cfg(M=M, k=20.0)
        n = np.arange(16384)
        bp, bm = axial_wavenumbers(n, cfg)
        scale = np.finfo(np.longdouble).eps * (n * math.pi / cfg.d) ** 2
        bound = np.maximum(1e-12 * max(1.0, cfg.k ** 2), 4.0 * scale)
        assert bound[0] == 4e-10
        assert np.all(dispersion_residual(bp, n, cfg) < bound)
        assert np.all(dispersion_residual(bm, n, cfg) < bound)
        # roots rounded to double miss it by orders of magnitude up there
        bp64, _ = axial_wavenumbers64(n, cfg)
        top = slice(-256, None)
        assert np.max(dispersion_residual(bp64[top], n[top], cfg)) > 100.0 * bound[-1]

    def test_array_errors_name_the_mode(self, monkeypatch):
        # configs this close to cutoff are refused at construction; lift
        # that guard to reach the per-mode check (k = pi is mode 1's cutoff)
        monkeypatch.setattr(DuctConfig, "_check_cutoff_resonance", lambda self: None)
        cfg = DuctConfig(d=1.0, M=0.0, k=math.pi, x_minus=-1, x_plus=1, L=1)
        with pytest.raises(CutoffResonanceError, match="n=1 "):
            axial_wavenumbers(np.arange(5), cfg)
        with pytest.raises(CutoffResonanceError, match="n=1 "):
            axial_wavenumbers(1, cfg)
        with pytest.raises(DomainError, match="-2"):
            axial_wavenumbers(np.array([0, 3, -2]), make_cfg())


class TestCutoffNumbers:
    def test_basic(self):
        cfg = DuctConfig(d=1.0, M=0.0, k=math.pi * 1.001, x_minus=-1, x_plus=1, L=1)
        k0, n0 = cutoff_numbers(cfg)
        assert k0 == pytest.approx(1.001)
        assert n0 == 1

    def test_flow_example(self):
        cfg = DuctConfig(d=math.pi, M=0.5, k=1.0, x_minus=-1, x_plus=1, L=1)
        k0, n0 = cutoff_numbers(cfg)
        assert k0 == pytest.approx(1.0 / math.sqrt(0.75))
        assert n0 == 1

    def test_just_below_first_cutoff(self):
        cfg = DuctConfig(d=1.0, M=0.0, k=math.pi * 0.999, x_minus=-1, x_plus=1, L=1)
        k0, n0 = cutoff_numbers(cfg)
        assert 0.0 < k0 < 1.0
        assert n0 == 0

    def test_monotone_in_k_and_mach(self):
        ks = [1.0, 3.0, 5.0, 11.0, 20.0]
        n0s = [cutoff_numbers(make_cfg(M=0.3, k=k))[1] for k in ks]
        assert n0s == sorted(n0s)
        machs = [0.0, 0.2, 0.4, 0.6, 0.8]
        n0s = [cutoff_numbers(make_cfg(M=m, k=7.0))[1] for m in machs]
        assert n0s == sorted(n0s)


class TestResidual:
    def test_roots_have_tiny_residual(self):
        cfg = make_cfg(M=0.3, k=10.0)
        bp, bm = axial_wavenumbers(3, cfg)
        assert dispersion_residual(bp, 3, cfg) < 1e-10
        assert dispersion_residual(bm, 3, cfg) < 1e-10

    def test_nonroot_value(self):
        cfg = DuctConfig(d=1.0, M=0.0, k=1.0, x_minus=-1, x_plus=1, L=1)
        assert dispersion_residual(0.0, 0, cfg) == pytest.approx(1.0)

    @settings(max_examples=60, deadline=None)
    @given(
        M=st.floats(0.0, 0.9),
        k=st.floats(0.5, 30.0),
        d=st.floats(0.3, 3.0),
        n=st.integers(0, 40),
    )
    @example(M=0.9, k=30.0, d=3.0, n=40)  # the far corner: fastest flow, most modes
    @example(M=0.0, k=0.5, d=0.3, n=0)  # the near corner: no flow, the plane wave
    def test_residual_property(self, M, k, d, n):
        try:
            cfg = DuctConfig(d=d, M=M, k=k, x_minus=-1.0, x_plus=1.0, L=1.0)
            bp, bm = axial_wavenumbers(n, cfg)
        except (ConfigError, CutoffResonanceError):
            return
        bound = 1e-12 * max(1.0, k * k)
        assert dispersion_residual(bp, n, cfg) < bound
        assert dispersion_residual(bm, n, cfg) < bound


class TestDispersionTable:
    def test_kinds_and_count(self, cfg):
        table = dispersion_table(cfg, 10)
        assert table.n_max == 10
        assert table.N0 == 1
        assert table.kind[: table.N0 + 1] == ("propagating",) * (table.N0 + 1)
        assert all(k == "evanescent" for k in table.kind[table.N0 + 1 :])
        for n in range(2, 10):
            assert table.beta_plus[n].imag > 0.0
            assert table.beta_minus[n].imag < 0.0
