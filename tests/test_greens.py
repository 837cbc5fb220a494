import cmath
import math
import warnings

import mpmath
import numpy as np
import pytest

from ductpml import DuctConfig
from ductpml import greens as greens_module
from ductpml.duct import _PI_LD, axial_wavenumbers64, mode_shape
from ductpml.errors import DomainError, SingularityError
from ductpml.greens import (
    GreensEvalParams,
    _betas_block,
    _mode_block,
    _strip_integrals,
    greens_kummer,
    kernel_cell_integrals,
    lemma2_exponent_probe,
    log_kernel,
    q_l2_difference,
    rho,
    singular_cell_integral,
    stochastic_solution,
)
from ductpml.noise import (
    ModeBoxSource,
    NoiseRealization,
    build_mesh,
    sample,
)
from ductpml.solver import Grid1D, solve_full
from ductpml.specfun import hankel0
from oracles import (
    _image_y2,
    _images_reflected_value,
    axial_strip_integrals,
    deterministic_solution,
    greens_images,
    greens_modal,
    kernel_l2_over_rect,
    modal_cell_integrals,
    mode_green_1d,
    pde_residual_images,
    phi_free,
)


def make_cfg(M=0.3, k=5.0):
    return DuctConfig(d=1.0, M=M, k=k, x_minus=-1.0, x_plus=1.0, L=1.0)


class TestRho:
    def test_origin(self):
        assert rho((0.0, 0.0), make_cfg(M=0.7)) == 0.0

    def test_axial_offset(self):
        cfg = make_cfg(M=0.5, k=1.1)
        assert rho((1.0, 0.0), cfg) == pytest.approx(4.0 / 3.0)

    def test_no_flow_is_euclidean(self):
        cfg = make_cfg(M=0.0)
        assert rho((0.0, 1.0), cfg) == pytest.approx(1.0)
        assert rho((0.3, -0.4), cfg) == pytest.approx(0.5)

    def test_positively_homogeneous(self):
        cfg = make_cfg()
        v = (0.37, -0.81)
        for s in (0.5, 2.0, 7.3):
            assert rho((s * v[0], s * v[1]), cfg) == pytest.approx(s * rho(v, cfg))


class TestPhiFree:
    def test_no_flow_reduction(self):
        # the kernel normalized so the operator yields +delta: at M = 0 it
        # is -(i/4) H0(k|x-y|) with unit phase factor
        cfg = make_cfg(M=0.0, k=1.0)
        val = phi_free((1.0, 0.0), (0.0, 0.0), cfg)
        assert val == pytest.approx(-0.25j * hankel0(1.0), rel=1e-14)

    def test_phase_factor_vanishes_at_zero_mach(self):
        cfg = make_cfg(M=0.0)
        a = phi_free((0.4, 0.3), (-0.2, 0.6), cfg)
        r = rho((0.6, -0.3), cfg)
        assert a == pytest.approx(-0.25j * hankel0(cfg.k * r), rel=1e-14)

    def test_modulus_with_flow(self):
        cfg = make_cfg(M=0.5, k=1.0)
        val = phi_free((2.0, 0.0), (0.0, 0.0), cfg)
        r = 2.0 / 0.75
        assert abs(val) == pytest.approx(abs(hankel0(cfg.k * r)) / (4.0 * math.sqrt(0.75)))

    def test_coincident_points_rejected(self):
        with pytest.raises(SingularityError):
            phi_free((0.1, 0.2), (0.1, 0.2), make_cfg())

    def test_log_split_is_lipschitz(self):
        # phi_free - log_kernel stays bounded while both parts diverge
        cfg = make_cfg()
        y = (0.0, 0.4)
        vals = []
        for eps in (1e-3, 1e-6, 1e-9):
            x = (eps, 0.4)
            vals.append(phi_free(x, y, cfg) - log_kernel(x, y, cfg))
        assert abs(vals[-1] - vals[-2]) < 1e-6
        assert abs(vals[0]) < 1.0


class TestImages:
    def test_shell_zero_is_source_plus_reflection(self):
        cfg = make_cfg()
        x, y = (0.3, 0.7), (0.0, 0.4)
        head = greens_images(x, y, 0, cfg).value
        expect = phi_free(x, y, cfg) + phi_free(x, (y[0], -y[1]), cfg)
        assert head == pytest.approx(expect, rel=1e-14)

    def test_wall_neumann_lower_wall(self):
        # the image set is symmetric across x2 = 0, so the central difference
        # across the wall vanishes identically
        cfg = make_cfg()
        y = (0.0, 0.4)
        delta = 1e-4
        for x1 in (0.35, 0.8):
            gp = greens_images((x1, delta), y, 200, cfg).value
            gm = greens_images((x1, -delta), y, 200, cfg).value
            g0 = greens_images((x1, 0.0), y, 200, cfg).value
            assert abs(gp - gm) / (2 * delta) < 1e-6 * abs(g0)

    def test_wall_neumann_both_walls_modal(self):
        # the cosine basis continues symmetrically across both walls, so the
        # central difference of the modal formula vanishes there identically
        cfg = make_cfg()
        params = GreensEvalParams()
        y = (0.0, 0.4)
        delta = 1e-4
        for wall in (0.0, cfg.d):
            gp = greens_modal((0.7, wall + delta), y, params, cfg).value
            gm = greens_modal((0.7, wall - delta), y, params, cfg).value
            g0 = greens_modal((0.7, wall), y, params, cfg).value
            assert abs(gp - gm) / (2 * delta) < 1e-6 * abs(g0)

    def test_singularity_guard(self):
        cfg = make_cfg()
        with pytest.raises(SingularityError):
            greens_images((0.0, 0.4), (0.0, 0.4), 4, cfg)


class TestModeGreen1D:
    def test_jump_condition(self):
        cfg = make_cfg()
        y1 = 0.13
        for n in (0, 1, 3, 6):
            bp, bm = axial_wavenumbers64(n, cfg)
            c = mode_green_1d(n, y1, y1, cfg)
            dp = 1j * bp * c
            dm = 1j * bm * c
            assert cfg.one_minus_m2 * (dp - dm) == pytest.approx(1.0, abs=1e-12)

    def test_classical_limit(self):
        cfg = make_cfg(M=0.0)
        k = cfg.k
        for dx in (0.3, -0.7):
            got = mode_green_1d(0, dx, 0.0, cfg)
            assert got == pytest.approx(cmath.exp(1j * k * abs(dx)) / (2j * k), rel=1e-12)

    def test_continuity_at_source(self):
        cfg = make_cfg()
        n = 2
        a = mode_green_1d(n, 0.1 + 1e-13, 0.1, cfg)
        b = mode_green_1d(n, 0.1 - 1e-13, 0.1, cfg)
        assert a == pytest.approx(b, rel=1e-9)

    def test_against_fem_solve_with_narrow_source(self):
        cfg = make_cfg()
        n = 1
        grid = Grid1D(cfg.x_minus, cfg.x_plus, 1024)
        w = 2 * grid.delta
        src = ModeBoxSource(mode=n, x_lo=-w, x_hi=w, amplitude=1.0 / (2 * w))
        sol = solve_full(cfg, src, "dtn", grid, n + 1).values[n]
        nodes = grid.nodes()
        mask = np.abs(nodes) > 0.1
        exact = np.array([mode_green_1d(n, x, 0.0, cfg) for x in nodes[mask]])
        rel = np.max(np.abs(sol[mask] - exact)) / np.max(np.abs(exact))
        assert rel < 1e-3


class TestModalSeries:
    def test_single_mode_limit(self):
        # only the plane mode propagates; at large separation the kernel is
        # dominated by e^{i k |dx|}/(2ik) / d
        k = math.pi / 2.0
        cfg = DuctConfig(d=1.0, M=0.0, k=k, x_minus=-4.0, x_plus=4.0, L=1.0)
        params = GreensEvalParams(n_modes=40)
        dx = 3.0
        got = greens_modal((dx, 0.3), (0.0, 0.6), params, cfg).value
        expect = cmath.exp(1j * k * dx) / (2j * k)
        assert got == pytest.approx(expect, rel=1e-3)

    def test_evanescent_terms_decay_monotonically(self):
        cfg = make_cfg()
        bp, _, c = _betas_block(cfg, 0, 30)
        dx = 0.5
        mags = np.abs(c * np.exp(1j * bp * dx))[3:]
        assert np.all(np.diff(mags) < 0)

    def test_reciprocity_with_flow_reversal(self):
        cfg = make_cfg(M=0.3)
        cfg_rev = make_cfg(M=0.3)  # reverse flow == swap and negate axis
        params = GreensEvalParams()
        x, y = (0.6, 0.27), (-0.1, 0.83)
        a = greens_modal(x, y, params, cfg).value
        # G(x, y; M) = G(y, x; -M): realize -M by mirroring the axial axis
        b = greens_modal((-y[0], y[1]), (-x[0], x[1]), params, cfg_rev).value
        assert a == pytest.approx(b, rel=1e-10)

    def test_gap_guard(self):
        cfg = make_cfg()
        with pytest.raises(DomainError):
            greens_modal((0.1, 0.3), (0.0, 0.6), GreensEvalParams(), cfg)
        with pytest.raises(DomainError):
            greens_modal((0.6, 0.3), (0.0, 0.6), GreensEvalParams(), cfg, gap=0.7)
        assert greens_modal((0.1, 0.3), (0.0, 0.6), GreensEvalParams(), cfg, gap=0.1).value


class TestRepresentationAgreement:
    def test_images_agree_with_modal(self):
        cfg = make_cfg()
        params_mod = GreensEvalParams()
        y = (0.0, 0.4)
        for x in [(0.55, 0.1), (0.7, 0.5), (0.9, 0.9), (-0.6, 0.35), (0.62, 0.75)]:
            gi = greens_images(x, y, 10_000, cfg).value
            gm = greens_modal(x, y, params_mod, cfg).value
            assert abs(gi - gm) / abs(gm) < 1e-4

    @pytest.mark.parametrize("M", [0.0, 0.3])
    def test_pde_residual_second_order(self, M):
        cfg = make_cfg(M=M)
        y = (0.0, 0.4)
        x = (0.65, 0.62)  # |x - y| > 0.3
        deltas = [1 / 64, 1 / 128, 1 / 256]
        resid = [abs(pde_residual_images(x, y, 1500, cfg, d)) for d in deltas]
        order = np.polyfit(np.log(deltas), np.log(resid), 1)[0]
        assert order >= 1.8


class TestDeterministicSolution:
    def test_zero_source(self):
        cfg = make_cfg()
        src = ModeBoxSource(mode=1, x_lo=-0.2, x_hi=0.2, amplitude=0.0)
        assert deterministic_solution(src, (0.5, 0.3), GreensEvalParams(), cfg) == 0.0

    def test_orthogonality_selects_mode(self):
        cfg = make_cfg()
        src = ModeBoxSource(mode=1, x_lo=-0.2, x_hi=0.2, amplitude=1.0)
        params = GreensEvalParams()
        # evaluate at the zero of phi_1
        val = deterministic_solution(src, (0.6, 0.5), params, cfg)
        assert abs(val) < 1e-12

    def test_matches_closed_form_and_solver(self):
        # the adaptive quadrature reproduces the closed-form convolution to
        # machine precision; the finite-element solve tracks both at its
        # discretization accuracy (the L2-rate test lives in test_solver)
        cfg = make_cfg()
        src = ModeBoxSource(mode=1, x_lo=-0.25, x_hi=0.25, amplitude=1.0)
        params = GreensEvalParams()
        grid = Grid1D(cfg.x_minus, cfg.x_plus, 1024)
        sol = solve_full(cfg, src, "dtn", grid, 2).values[1]
        x2 = 0.3
        bp, bm, c = _betas_block(cfg, 1, 2)

        def closed(x1):
            edges = np.array([-0.25, 0.25])
            return axial_strip_integrals(bp, bm, c, edges, x1)[0, 0] * mode_shape(1, x2, cfg.d)

        for x1 in np.linspace(-0.9, 0.9, 13):
            exact = deterministic_solution(src, (x1, x2), params, cfg)
            assert abs(exact - closed(x1)) / abs(closed(x1)) < 1e-10
            j = int(round((x1 - grid.x_start) / grid.delta))
            got = sol[j] * mode_shape(1, x2, cfg.d)
            assert abs(got - exact) / abs(exact) < 5e-3


class TestStochasticSolution:
    def setup_method(self):
        self.cfg = make_cfg()
        self.mesh = build_mesh((-0.5, 0.5, 0.25, 0.75), 0.15, levels=2)
        self.params = GreensEvalParams()

    def test_zero_noise(self):
        r0 = NoiseRealization(
            mesh=self.mesh,
            level=1,
            xi=np.zeros(self.mesh.shape(1)),
            seed=0,
        )
        assert stochastic_solution(r0, (0.9, 0.4), self.params, self.cfg) == 0.0

    def test_linearity_in_noise(self):
        r = sample(self.mesh, 11)
        doubled = NoiseRealization(mesh=self.mesh, level=r.level, xi=2.0 * r.xi, seed=0)
        x = (0.85, 0.42)
        a = stochastic_solution(r, x, self.params, self.cfg)
        b = stochastic_solution(doubled, x, self.params, self.cfg)
        assert b == pytest.approx(2.0 * a, rel=1e-12)

    def test_variance_matches_isometry(self):
        # E|u(x)|^2 equals the discrete isometry sum exactly; the cell
        # integrals are cross-checked against 2D Gauss quadrature of the
        # modal kernel, and the continuum integral of |G|^2 sits within the
        # piecewise-constant projection deficit
        cfg, mesh, params = self.cfg, self.mesh, self.params
        x = (0.9, 0.35)
        x1e, x2e = mesh.edges(mesh.finest_level)
        kernels = kernel_cell_integrals(x, x1e, x2e, params, cfg)
        area = mesh.cell_area(mesh.finest_level)
        # independent oracle for one cell: tensor Gauss of the modal kernel
        from numpy.polynomial.legendre import leggauss

        nodes, wts = leggauss(24)
        j, kk = 1, 2
        y1 = 0.5 * (x1e[j] + x1e[j + 1]) + 0.5 * (x1e[j + 1] - x1e[j]) * nodes
        w1 = 0.5 * (x1e[j + 1] - x1e[j]) * wts
        y2 = 0.5 * (x2e[kk] + x2e[kk + 1]) + 0.5 * (x2e[kk + 1] - x2e[kk]) * nodes
        w2 = 0.5 * (x2e[kk + 1] - x2e[kk]) * wts
        acc = sum(
            ww1 * ww2 * greens_modal(x, (yy1, yy2), params, cfg).value
            for yy1, ww1 in zip(y1, w1)
            for yy2, ww2 in zip(y2, w2)
        )
        assert abs(acc - kernels[j, kk]) / abs(acc) < 1e-10
        target = float(np.sum(np.abs(kernels) ** 2) / area)
        n_seeds = 2000
        xis = np.stack([sample(mesh, s).xi for s in range(n_seeds)])
        u = np.tensordot(xis, kernels / math.sqrt(area), axes=([1, 2], [0, 1]))
        vals = np.abs(u) ** 2
        se = vals.std(ddof=1) / math.sqrt(n_seeds)
        assert abs(vals.mean() - target) < 3.0 * se
        cont = kernel_l2_over_rect(x, mesh.rect, params, cfg)
        assert target < cont
        assert (cont - target) / cont < 0.05

    def test_cell_integrals_warn_at_the_cap(self):
        # tol = 0 sums every block up to the cap, which warns; the capped sum
        # agrees with the converged one
        x = (0.07, 0.52)
        x1e, x2e = self.mesh.edges(self.mesh.finest_level)
        with pytest.warns(RuntimeWarning, match="kernel_cell_integrals reached the 16384-mode"):
            capped = kernel_cell_integrals(x, x1e, x2e, self.params, self.cfg, tol=0.0)
        ref = kernel_cell_integrals(x, x1e, x2e, self.params, self.cfg)
        assert np.max(np.abs(capped - ref)) <= 1e-7 * np.max(np.abs(ref))

    def test_cell_integrals_mode_count(self, monkeypatch):
        # off the x1 edges every cell's remainder decays geometrically: on
        # the 11 x 6 noise mesh of the default forcing rectangle each point
        # sums at most 512 modes (about 2,300 with the strip's n^-3 terms)
        cfg = DuctConfig(d=1.0, M=0.3, k=5.0, x_minus=-1.0, x_plus=1.0, L=2.0)
        mesh = build_mesh((-0.5, 0.5, 0.25, 0.75), math.hypot(1.0, 0.5) / 32, 3)
        assert tuple(mesh.shape(0)) == (11, 6)
        x1e, x2e = mesh.edges(0)
        counted = []
        mode_block = greens_module._mode_block

        def spy(cfg, n_lo, n_hi):
            counted.append(n_hi - n_lo)
            return mode_block(cfg, n_lo, n_hi)

        monkeypatch.setattr(greens_module, "_mode_block", spy)
        for x in [(-0.375, 0.3125), (-0.125, 0.4375), (0.125, 0.5625), (0.375, 0.6875)]:
            counted.clear()
            kernel_cell_integrals(x, x1e, x2e, GreensEvalParams(), cfg)
            assert 0 < sum(counted) <= 512

    def test_point_inside_cell_uses_split(self):
        # the split value must agree with the directly summed modal series
        cfg, mesh = self.cfg, self.mesh
        params = GreensEvalParams()
        x = (0.07, 0.52)
        x1e, x2e = mesh.edges(mesh.finest_level)
        w1, w2 = mesh.cell_size(mesh.finest_level)
        i1 = int((x[0] - mesh.rect[0]) / w1)
        i2 = int((x[1] - mesh.rect[2]) / w2)
        cell = (x1e[i1], x1e[i1 + 1], x2e[i2], x2e[i2 + 1])
        split = singular_cell_integral(x, cell, params, cfg)
        # x's strip sums its non-decaying part in closed form, so tol 2e-13
        # stops after 512 modes, 1.5e-11 of max|K| from the plain
        # 131,072-mode sum
        modal = kernel_cell_integrals(x, x1e, x2e, params, cfg, tol=2e-13)[i1, i2]
        assert abs(split - modal) / abs(modal) < 5e-3
        # and the full response through the split path tracks the pure-modal route
        r = sample(mesh, 7)
        amp = 1.0 / math.sqrt(mesh.cell_area(mesh.finest_level))
        u_split = stochastic_solution(r, x, params, cfg)
        u_modal = complex(
            np.sum(r.xi * amp * kernel_cell_integrals(x, x1e, x2e, params, cfg, tol=2e-13))
        )
        assert abs(u_split - u_modal) / abs(u_modal) < 5e-3


class TestCrossOracles:
    def test_multimode_field_against_convolution(self):
        # assembled finite-element field vs the kernel convolution for a
        # source exciting several modes at once
        cfg = make_cfg()
        from ductpml.solver import assemble_field, omega_b_grid, solve_full

        src = [
            ModeBoxSource(mode=0, x_lo=-0.3, x_hi=0.1, amplitude=1.0),
            ModeBoxSource(mode=1, x_lo=-0.1, x_hi=0.3, amplitude=0.6),
            ModeBoxSource(mode=2, x_lo=-0.2, x_hi=0.2, amplitude=0.4),
        ]
        grid = omega_b_grid(cfg, 1 / 256)
        sol = solve_full(cfg, src, "dtn", grid, 8)
        params = GreensEvalParams()
        for x in [(0.7, 0.35), (-0.75, 0.8), (0.5, 0.0)]:
            exact = deterministic_solution(src, x, params, cfg)
            got = assemble_field(sol, x, cfg)
            assert abs(got - exact) / abs(exact) < 2e-3

    def test_noise_driven_solve_against_stochastic_solution(self):
        # end-to-end: one noise path through the finite-element pipeline vs
        # the analytic per-cell kernel integrals
        cfg = make_cfg()
        from ductpml.solver import assemble_field, omega_b_grid, solve_full

        mesh = build_mesh((-0.5, 0.5, 0.25, 0.75), 0.2, levels=1)
        r = sample(mesh, 21)
        grid = omega_b_grid(cfg, 1 / 256)
        sol = solve_full(cfg, [r], "dtn", grid, 48)
        params = GreensEvalParams()
        for x in [(0.85, 0.4), (-0.8, 0.65)]:
            exact = stochastic_solution(r, x, params, cfg)
            got = assemble_field(sol, x, cfg)
            assert abs(got - exact) / abs(exact) < 2e-3


class TestKernelDifferenceProbe:
    def test_identical_arguments_vanish(self):
        cfg = make_cfg()
        assert q_l2_difference((0.1, 0.4), (0.1, 0.4), cfg) == 0.0

    def test_against_brute_quadrature(self):
        # 2D quadrature of |G(x,y)-G(x,z)|^2 with the image kernel at a
        # moderate separation; the closed-form modal evaluation must agree
        cfg = make_cfg()
        y = (0.05, 0.45)
        z = (0.05 + 0.05 / math.sqrt(2), 0.45 + 0.05 / math.sqrt(2))
        exact = q_l2_difference(y, z, cfg)
        from numpy.polynomial.legendre import leggauss

        nodes, wts = leggauss(40)
        pieces = ((-1.0, 0.0), (0.0, 0.05), (0.05, 0.11), (0.11, 1.0))
        x1 = np.concatenate([0.5 * (ax + bx) + 0.5 * (bx - ax) * nodes for ax, bx in pieces])
        w1 = np.concatenate([0.5 * (bx - ax) * wts for ax, bx in pieces])
        x2 = 0.5 * cfg.d + 0.5 * cfg.d * nodes
        w2 = 0.5 * cfg.d * wts
        acc = 0.0
        # the 160 x 40 grid in row chunks bounds the (points, images) arrays
        for rows in np.array_split(np.arange(x1.size), 8):
            pts = np.meshgrid(x1[rows], x2, indexing="ij")
            gy = greens_images(pts, y, 600, cfg).value
            gz = greens_images(pts, z, 600, cfg).value
            acc += np.sum(np.outer(w1[rows], w2) * np.abs(gy - gz) ** 2)
        assert acc == pytest.approx(exact, rel=2e-2)

    def test_probe_slope_short_range(self):
        cfg = make_cfg()
        y0 = (0.1, 0.45)
        gaps = np.logspace(-2.5, -1, 5)
        pairs = [
            ((y0[0], y0[1]), (y0[0] + g / math.sqrt(2), y0[1] + g / math.sqrt(2)))
            for g in gaps
        ]
        slope, seps, qs = lemma2_exponent_probe(pairs, GreensEvalParams(), cfg)
        assert slope >= 1.8
        assert np.all(np.diff(qs) > 0)

    def test_probe_zero_mach(self):
        cfg = make_cfg(M=0.0)
        y0 = (0.1, 0.45)
        gaps = np.logspace(-2.5, -1, 5)
        pairs = [((y0[0], y0[1]), (y0[0] + g, y0[1])) for g in gaps]
        slope, _, _ = lemma2_exponent_probe(pairs, GreensEvalParams(), cfg)
        assert slope >= 1.8

    def test_needs_two_separations(self):
        cfg = make_cfg()
        with pytest.raises(DomainError):
            lemma2_exponent_probe([((0.1, 0.4), (0.1, 0.4))], GreensEvalParams(), cfg)

    def test_criterion_10_pairs_converge_within_4096_modes(self, monkeypatch):
        # the Kummer split stops every pair in its first 2048-mode pass; a
        # pair reaching the 32768-mode cap would warn, which fails here
        counted = []

        def counting(cfg, n_lo, n_hi):
            counted.append(n_hi - n_lo)
            return _mode_block(cfg, n_lo, n_hi)

        monkeypatch.setattr(greens_module, "_mode_block", counting)
        cfg = make_cfg()
        y0 = (0.1, 0.45)
        for g in np.logspace(-3, -1, 7):
            counted.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                q_l2_difference(y0, (y0[0] + g / math.sqrt(2.0), y0[1] + g / math.sqrt(2.0)), cfg)
            assert 0 < sum(counted) <= 4096

    def test_unconverged_sum_warns_at_the_cap(self):
        with pytest.warns(RuntimeWarning, match="separation 0.0424 reached the 32768-mode cap"):
            q = q_l2_difference((0.1, 0.45), (0.13, 0.48), make_cfg(), tol=0.0)
        assert q > 0.0


class TestPolylogs:
    # z = 1 and next to it, the unit circle at Im mu = +-pi and beyond the
    # reduced range, and inside on both sides of the |z| = 1/2 switch
    MUS = [
        0.0,
        1e-14j,
        -1e-12 + 1e-12j,
        -1e-7,
        math.pi * 1j,
        -math.pi * 1j,
        -1e-3 + math.pi * 1j,
        0.9j * math.pi,
        5.7j,
        -12.0j,
        -0.3 + 2.0j,
        -math.log(2.0) + 1e-15 + 3.0j,
        -math.log(2.0) - 1e-15 - 3.0j,
        -0.7 + 0.1j,
        -2.0 + 1.0j,
        -6.0 - 2.5j,
    ]

    def test_against_mpmath(self):
        got = greens_module._polylogs(self.MUS)
        with mpmath.workdps(30):
            for j, mu in enumerate(self.MUS):
                z = mpmath.exp(mpmath.mpc(mu))
                for i, s in enumerate(range(2, 6)):
                    ref = complex(mpmath.polylog(s, z))
                    assert abs(complex(got[i, j]) - ref) <= 1e-15 * abs(ref), (s, mu)


# ---------------------------------------------------------------------------
# Array-wise oracle paths against one-block-at-a-time loops in complex
# arithmetic on the roots beta_+-
# ---------------------------------------------------------------------------


def _ref_betas_block(cfg, n_lo, n_hi):
    """One root call per block."""
    bp, bm = axial_wavenumbers64(np.arange(n_lo, n_hi), cfg)
    return bp, bm, 1.0 / (1j * cfg.one_minus_m2 * (bp - bm))


def _ref_image_y2(y2, d, n_images):
    shells = [np.array([y2, -y2])]
    for j in range(1, n_images + 1):
        off = 2.0 * d * j
        shells.append(np.array([y2 + off, -y2 + off, y2 - off, -y2 - off]))
    return np.concatenate(shells)


def _ref_segment_products(p_lo, p_hi, c, width):
    """(p_hi - p_lo) / c for p' = c p, trapezoid value for tiny |c width|."""
    small = np.abs(c * width) < 1e-8
    cc = np.where(small, 1.0, c)
    return np.where(small, 0.5 * width * (p_lo + p_hi), (p_hi - p_lo) / cc)


def _ref_asymptote_partial(y2, z2, delta, cfg, n_stop):
    """Long-double sum over 1 <= n < n_stop of the leading whole-line
    asymptote s_n = K [cos^2 n theta_y + cos^2 n theta_z - 2 cos n theta_y
    cos n theta_z cos(mu delta) exp(-x) (1 + x)] / n^3 of the probe's mode
    terms, x = alpha n delta, written out as it stands."""
    ld = np.longdouble
    m2 = 1 - ld(cfg.M) ** 2
    alpha = _PI_LD / (ld(cfg.d) * np.sqrt(m2))
    scale = 1 / (2 * ld(cfg.d) * m2 ** 2 * alpha ** 3)
    cos_md = np.cos(ld(cfg.k) * ld(cfg.M) / m2 * ld(delta))
    total = ld(0.0)
    for lo in range(1, n_stop, 65536):
        n = np.arange(lo, min(lo + 65536, n_stop), dtype=ld)
        cy, cz = (np.cos(n * _PI_LD * ld(v) / ld(cfg.d)) for v in (y2, z2))
        x = alpha * n * ld(delta)
        bracket = cy * cy + cz * cz - 2 * cy * cz * cos_md * np.exp(-x) * (1 + x)
        total += np.sum(bracket / n ** 3)
    return scale * total


def _mp_asymptote_sum(y2, z2, delta, cfg):
    """sum_{n >= 1} s_n (_ref_asymptote_partial) in closed form by mpmath
    polylogs at 30 digits."""
    with mpmath.workdps(30):
        d, m2 = mpmath.mpf(cfg.d), 1 - mpmath.mpf(cfg.M) ** 2
        alpha = mpmath.pi / (d * mpmath.sqrt(m2))
        ad = alpha * mpmath.mpf(delta)
        th_y, th_z = (mpmath.pi * mpmath.mpf(v) / d for v in (y2, z2))

        def re_li(s, w):
            return mpmath.re(mpmath.polylog(s, mpmath.exp(w)))

        cross = sum(
            re_li(3, -ad + 1j * t) + ad * re_li(2, -ad + 1j * t) for t in (th_y - th_z, th_y + th_z)
        )
        diag = mpmath.zeta(3) + (re_li(3, 2j * th_y) + re_li(3, 2j * th_z)) / 2
        mu = mpmath.mpf(cfg.k) * mpmath.mpf(cfg.M) / m2
        return (diag - mpmath.cos(mu * mpmath.mpf(delta)) * cross) / (2 * d * m2 ** 2 * alpha ** 3)


def _ref_q_l2_difference(y, z, cfg, tol=1e-10, cap=32768, extended=False):
    """Roots, sums and stopping test one 256-mode block at a time, up to cap
    modes; the three axial regions in complex exponentials of beta_+-.  The
    modes from where the loop stops on are the asymptotes s_n (leading order
    only): their 30-digit closed-form sum less their long-double partial
    sum, so the tail does not depend on the stop (the terms less s_n decay
    like n^{-5}, n^{-4} relative to Q beyond the 32768-mode cap).

    The mode terms cancel by about 1/gap^2 relative to Q (near a cutoff by
    |c_n|^2 / Q), so in double precision the loop is about 1e-12 off at a gap
    of 1e-3.  extended=True evaluates the same double roots, constants and
    coordinates in long double: mode shapes, exponentials and sums."""
    if y[0] > z[0]:
        y, z = z, y
    real = np.longdouble if extended else float
    cplx = np.clongdouble if extended else complex
    y1, y2, z1, z2, d = (real(v) for v in (y[0], y[1], z[0], z[1], cfg.d))
    pi = _PI_LD if extended else math.pi
    total, n_start, calm = real(0.0), 0, 0
    while n_start < cap:
        n_stop = n_start + 256
        bp, bm, c = (v.astype(cplx) for v in _ref_betas_block(cfg, n_start, n_stop))
        ns = np.arange(n_start, n_stop)
        a, b = (
            np.where(ns == 0, 1.0 / np.sqrt(d), np.sqrt(2.0 / d) * np.cos(ns * pi * x2 / d)) * c
            for x2 in (y2, z2)
        )
        contrib = real(0.0)
        regions = (
            (real(cfg.x_minus), y1, bm, bm),
            (y1, z1, bp, bm),
            (z1, real(cfg.x_plus), bp, bp),
        )
        for lo, hi, beta_y, beta_z in regions:
            if hi <= lo:
                continue
            e_lo = a * np.exp(1j * beta_y * (lo - y1))
            e_hi = a * np.exp(1j * beta_y * (hi - y1))
            f_lo = b * np.exp(1j * beta_z * (lo - z1))
            f_hi = b * np.exp(1j * beta_z * (hi - z1))
            width = hi - lo
            c_e = 1j * beta_y - 1j * np.conj(beta_y)
            c_f = 1j * beta_z - 1j * np.conj(beta_z)
            c_x = 1j * beta_y - 1j * np.conj(beta_z)
            ee = _ref_segment_products(np.abs(e_lo) ** 2, np.abs(e_hi) ** 2, c_e, width)
            ff = _ref_segment_products(np.abs(f_lo) ** 2, np.abs(f_hi) ** 2, c_f, width)
            ef = _ref_segment_products(e_lo * np.conj(f_lo), e_hi * np.conj(f_hi), c_x, width)
            contrib += np.sum(ee.real + ff.real - 2.0 * ef.real)
        total += contrib
        n_start = n_stop
        if abs(contrib) < tol * max(total, 1e-300):
            calm += 1
            if calm >= 2:
                break
        else:
            calm = 0
    delta = z[0] - y[0]
    partial = _ref_asymptote_partial(y[1], z[1], delta, cfg, n_start)
    closed = np.longdouble(mpmath.nstr(_mp_asymptote_sum(y[1], z[1], delta, cfg), 25))
    return float(max(total + real(closed - partial), 0.0))


def _off_cutoff_cfg(M):
    # k a relative 1e-6 above the n = 2 cutoff sqrt(1 - M^2) 2 pi / d
    return make_cfg(M=M, k=math.sqrt(1.0 - M * M) * 2.0 * math.pi * (1.0 + 1e-6))


OFF_CUTOFF_MACHS = [0.0, 0.3, 0.9]
MACHS = [0.0, 0.3, 0.6, 0.9, 0.95]
# Q of two sources: a pair inside the strip range, a wide one, a purely
# transverse one (delta x1 = 0) and a purely axial one
Q_PAIRS = [
    ((0.1, 0.45), (0.13, 0.48)),
    ((0.3, 0.2), (-0.1, 0.6)),
    ((0.0, 0.5), (0.0, 0.55)),
    ((-0.4, 0.3), (0.5, 0.3)),
]
# against the long-double reference loop with its closed-form tail; measured
# at most 3.7e-15 on every case below, near a cutoff and at a gap of 1e-3
# included.  Without the second-order asymptote the gap-1e-3 pair is 5e-11
# off, and without the series branch of _kink_excess the near-cutoff axial
# pair is 5.6e-13 off.
Q_RTOL = 1e-13


def _assert_q_close(y, z, cfg):
    got = q_l2_difference(y, z, cfg)
    assert type(got) is float
    ref = _ref_q_l2_difference(y, z, cfg, extended=True)
    assert abs(got - ref) <= Q_RTOL * ref


class TestArrayWiseMatchesBlockLoops:
    """Every array-wise oracle path against its complex-arithmetic reference:
    the root table and image offsets bit for bit; the factored-root strip
    integrals within 1e-14, the cell integrals against the plain modal sum
    (CELL_RTOL, of max|K|) and Q within Q_RTOL."""

    X1_EDGES = np.linspace(-0.5, 0.5, 12)
    X2_EDGES = np.linspace(0.2, 0.8, 7)
    # left of all strips, on an inner edge, inside the kink strip, on the
    # last edge and right of all strips
    X1S = (-0.9, float(X1_EDGES[4]), 0.07, float(X1_EDGES[-1]), 0.9)
    POINTS = [(0.07, 0.52), (float(X1_EDGES[4]), 0.4), (0.9, 0.35), (-0.8, 0.1)]

    @pytest.mark.parametrize("M", OFF_CUTOFF_MACHS)
    def test_root_table_slices(self, M):
        cfg = _off_cutoff_cfg(M)
        # inside the first piece, straddling the 1024 and 2048 piece edges,
        # and a later block served from an already grown table
        for lo, hi in [(0, 35), (0, 64), (1000, 1100), (1023, 1025), (2040, 2100), (64, 128)]:
            for got, ref in zip(_betas_block(cfg, lo, hi), _ref_betas_block(cfg, lo, hi)):
                assert np.array_equal(got, ref)

    @pytest.mark.parametrize("n_images", [0, 1, 512])
    def test_image_offsets(self, n_images):
        for y2, d in [(0.4, 1.0), (0.0, 1.0), (0.93, 2.5)]:
            assert np.array_equal(_image_y2(y2, d, n_images), _ref_image_y2(y2, d, n_images))

    def _check_strips(self, cfg):
        # a block holding the propagating modes and an evanescent one
        for lo, hi in [(0, 300), (64, 364)]:
            modes = _mode_block(cfg, lo, hi)
            bp, bm, c = _ref_betas_block(cfg, lo, hi)
            for x1 in self.X1S:
                got = modes[0][:, None] * _strip_integrals(modes, self.X1_EDGES, x1)
                ref = axial_strip_integrals(bp, bm, c, self.X1_EDGES, x1)
                assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("M", OFF_CUTOFF_MACHS)
    def test_strip_integrals(self, M):
        self._check_strips(_off_cutoff_cfg(M))

    @pytest.mark.parametrize("M", MACHS)
    def test_strip_integrals_across_mach(self, M):
        self._check_strips(make_cfg(M=M))

    # x1 at least 0.01 from every x1 edge, the first four inside the
    # strips (the last of them with x2 beyond the cells' transverse range)
    # and two outside the mesh, where no strip holds x1
    OFF_EDGE = [(0.07, 0.52), (-0.3, 0.3), (0.2, 0.65), (-0.45, 0.9), POINTS[2], POINTS[3]]
    # worst measured: 7.3e-10 off the edges; on an edge the two strips next
    # to x1 keep their n^-3 terms and the sum stops 3.8e-8 (M = 0.3) to
    # 4.2e-8 (M = 0, k = 5) short
    CELL_RTOL = 2e-9
    ON_EDGE_RTOL = 5e-8

    def _check_cells(self, cfg, n_modes=(0, 100)):
        # the suite turns a RuntimeWarning into an error, so no sum may stop
        # at its cap; n_modes = 100 makes the block edges 100 + 64 j, so some
        # blocks straddle a piece of the root table
        for x, rtol in [(x, self.CELL_RTOL) for x in self.OFF_EDGE] + [
            (self.POINTS[1], self.ON_EDGE_RTOL)
        ]:
            ref = modal_cell_integrals(x, self.X1_EDGES, self.X2_EDGES, cfg)
            for n in n_modes:
                params = GreensEvalParams(n_modes=n)
                got = kernel_cell_integrals(x, self.X1_EDGES, self.X2_EDGES, params, cfg)
                assert np.max(np.abs(got - ref)) <= rtol * np.max(np.abs(ref))

    @pytest.mark.parametrize("M", OFF_CUTOFF_MACHS)
    @pytest.mark.parametrize("n_modes", [0, 100])
    def test_kernel_cell_integrals(self, M, n_modes):
        self._check_cells(_off_cutoff_cfg(M), (n_modes,))

    @pytest.mark.parametrize("M", MACHS)
    def test_kernel_cell_integrals_across_mach(self, M):
        self._check_cells(make_cfg(M=M))

    @pytest.mark.parametrize(
        "M, k", [(0.3, math.pi * (1 + 1e-6)), (0.6, 2 * math.pi * (1 - 1e-6))], ids=["pi", "2pi"]
    )
    def test_kernel_cell_integrals_near_transverse_resonance(self, M, k):
        # k near m pi / d, where the strip's exact non-decaying sum
        # cos(k y_<) cos(k (d - y_>)) / (k sin kd) has a pole
        self._check_cells(make_cfg(M=M, k=k))

    @pytest.mark.parametrize("M", OFF_CUTOFF_MACHS)
    def test_q_l2_difference(self, M):
        for y, z in Q_PAIRS:
            _assert_q_close(y, z, _off_cutoff_cfg(M))

    @pytest.mark.parametrize("M", MACHS)
    def test_q_l2_difference_across_mach(self, M):
        for y, z in Q_PAIRS:
            _assert_q_close(y, z, make_cfg(M=M))

    def test_q_l2_difference_on_criterion_10_pairs(self):
        # q_l2_difference sums 2048 modes here, the reference loop reaches
        # its 32768-mode cap at the five smallest gaps
        cfg = make_cfg()
        y0 = (0.1, 0.45)
        for g in np.logspace(-3, -1, 7):
            z = (y0[0] + g / math.sqrt(2.0), y0[1] + g / math.sqrt(2.0))
            _assert_q_close(y0, z, cfg)

    def test_q_l2_difference_cap_on_smallest_criterion_10_pair(self):
        # the reference's tail does not depend on its cap: the double loop
        # over 262144 modes plus its tail (the plain 262144-mode sum is 9e-8
        # short) agrees with Q to the loop's own roundoff (measured 1.2e-12)
        cfg = make_cfg()
        y0 = (0.1, 0.45)
        z = (y0[0] + 1e-3 / math.sqrt(2.0), y0[1] + 1e-3 / math.sqrt(2.0))
        long_sum = _ref_q_l2_difference(y0, z, cfg, tol=1e-14, cap=262144)
        assert abs(q_l2_difference(y0, z, cfg) - long_sum) <= 1e-11 * long_sum


def _ref_averaged_modal(x, y, cfg, n_modes=16384):
    """Plain modal series, Cesaro mean of its partial sums over the last
    quarter of modes: geometric convergence off the source, the oscillating
    1/n tail averaged out at dx1 = 0 (x2 -+ y2 away from 0 mod 2d)."""
    bp, bm, c = _ref_betas_block(cfg, 0, n_modes)
    dx1 = x[0] - y[0]
    ns = np.arange(n_modes)
    terms = mode_shape(ns, x[1], cfg.d) * mode_shape(ns, y[1], cfg.d) * c
    terms = terms * np.exp(1j * (bp if dx1 >= 0.0 else bm) * dx1)
    return complex(np.mean(np.cumsum(terms)[3 * n_modes // 4 :]))


class TestKummer:
    """The Kummer-accelerated modal kernel against the image series, which
    shares only the free-space kernel with it, at the source's axial position
    and near it, with both points near either wall or mid-duct."""

    DX1S = (0.0, 1e-3, 0.02, 0.1)
    X2S = (0.02, 0.5, 0.98)
    # k = 5 sits 0.5% below the n = 2 cutoff at M = 0.6, where the image
    # series converges slowly: 16384 shells are 1.2e-4 off the plain modal
    # series at dx1 = 0.1, 65536 shells 4.9e-6
    SHELLS = {0.0: 16384, 0.3: 16384, 0.6: 65536, 0.9: 16384}

    def _pairs(self):
        for dx1 in self.DX1S:
            for x2 in self.X2S:
                for y2 in self.X2S:
                    if dx1 > 0.0 or x2 != y2:
                        yield (0.1 + dx1, x2), (0.1, y2)

    @pytest.mark.parametrize("M", sorted(SHELLS))
    def test_against_image_series(self, M):
        cfg = make_cfg(M=M)
        for x, y in self._pairs():
            got = greens_kummer(x, y, GreensEvalParams(), cfg)
            ref = greens_images(x, y, self.SHELLS[M], cfg).value
            assert abs(got - ref) <= 1e-5 * abs(ref), (x, y)

    @pytest.mark.parametrize("M", OFF_CUTOFF_MACHS)
    def test_off_cutoff_against_averaged_modal_series(self, M):
        # a relative 1e-6 above a cutoff the image terms add in phase shell
        # after shell, and 65536 shells are still 0.5 off; the plain modal
        # series is the oracle there
        cfg = _off_cutoff_cfg(M)
        for x, y in self._pairs():
            got = greens_kummer(x, y, GreensEvalParams(), cfg)
            ref = _ref_averaged_modal(x, y, cfg)
            assert abs(got - ref) <= 1e-5 * abs(ref), (x, y)

    @pytest.mark.parametrize("M, k", [(0.0, 5.0), (0.3, 5.0), (0.6, 20.0), (0.9, 7.3), (0.95, 5.0)])
    def test_against_plain_modal_series(self, M, k):
        # from a quarter of the duct width on, the plain modal series
        # converges geometrically and shares only the roots with the Kummer
        # series; measured at most 4.6e-12 apart (M = 0, |dx1| = 0.25)
        cfg = make_cfg(M=M, k=k)
        for dx1 in (0.25, 0.5, 1.0, 1.9, -0.25, -0.5, -1.0, -1.9):
            for x2, y2 in [(0.3, 0.6), (0.02, 0.98), (0.5, 0.5)]:
                x, y = (dx1, x2), (0.0, y2)
                got = greens_kummer(x, y, GreensEvalParams(), cfg)
                ref = greens_modal(x, y, GreensEvalParams(), cfg).value
                assert abs(got - ref) <= 1e-11 * abs(ref), (x, y)

    def test_array_sources_match_scalar_calls(self):
        cfg = make_cfg()
        x = (0.07, 0.52)
        y1, y2 = np.meshgrid([0.0, 0.05, 0.12], [0.45, 0.5, 0.6, 0.7], indexing="ij")
        # tol = 0 sums every block up to the cap, which warns, so the
        # stopping test, which looks at all points of a call at once, cannot
        # make the calls differ
        cap = "greens_kummer reached the 16384-mode cap unconverged"
        with pytest.warns(RuntimeWarning, match=cap):
            got = greens_kummer(x, (y1, y2), GreensEvalParams(), cfg, tol=0.0)
        assert got.shape == y1.shape
        for idx in np.ndindex(y1.shape):
            with pytest.warns(RuntimeWarning, match=cap):
                ref = greens_kummer(x, (y1[idx], y2[idx]), GreensEvalParams(), cfg, tol=0.0)
            assert abs(got[idx] - ref) <= 1e-14 * abs(ref)

    def test_singular_cell_remainder_is_reflected_images(self):
        # the Lipschitz remainder of the cell holding x: the Kummer kernel
        # less its log part is the free-space remainder plus the reflections
        cfg = make_cfg()
        x = (0.1, 0.45)
        y = (np.array([0.02, 0.1, 0.16, 0.1]), np.array([0.41, 0.49, 0.45, 0.03]))
        log_part = log_kernel(x, y, cfg)
        got = greens_kummer(x, y, GreensEvalParams(), cfg) - log_part
        ref = phi_free(x, y, cfg) - log_part + _images_reflected_value(x, y, 16384, cfg)
        assert np.max(np.abs(got - ref)) <= 1e-5 * np.max(np.abs(ref))

    @pytest.mark.parametrize(
        "x, y",
        [
            ((0.1, 0.4), (0.1, 0.4)),  # coincident points
            ((0.1, 0.0), (0.1, 0.0)),  # a source on the wall is its own image
            ((0.1, -0.3), (0.1, 0.3)),  # x at the image across x2 = 0
            ((0.1, 1.7), (0.1, 0.3)),  # x at the image across x2 = d
        ],
    )
    def test_singularity_guard(self, x, y):
        with pytest.raises(SingularityError):
            greens_kummer(x, y, GreensEvalParams(), make_cfg())
        with pytest.raises(SingularityError):
            greens_images(x, y, 4, make_cfg())


class TestRootTable:
    def test_bounded_after_many_configs(self):
        for j in range(20):
            _betas_block(make_cfg(k=5.0 + 0.01 * j), 0, 1500)
        assert len(greens_module._root_tables) <= greens_module._ROOT_TABLE_CONFIGS

    def test_configs_with_different_k_never_share_roots(self):
        a, b = make_cfg(k=5.0), make_cfg(k=5.5)
        for cfg in (a, b, a, b):
            got = _betas_block(cfg, 0, 1100)
            for g, r in zip(got, _ref_betas_block(cfg, 0, 1100)):
                assert np.array_equal(g, r)
        assert not np.array_equal(_betas_block(a, 0, 64)[0], _betas_block(b, 0, 64)[0])

    def test_slices_are_read_only(self):
        bp, _, _ = _betas_block(make_cfg(), 0, 64)
        with pytest.raises(ValueError):
            bp[0] = 0.0
