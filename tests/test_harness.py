import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ductpml import DuctConfig, harness
from ductpml.duct import cutoff_numbers, default_n_modes
from ductpml.errors import ConfigError, DomainError, GridMismatchError, InsufficientDataError
from ductpml.harness import (
    _end_responses,
    _layer_coefficients,
    _layer_gaps,
    _range_gram,
    _range_solve,
    _trapezoid_weights,
    default_forcing_rect,
    default_l_study_source,
    fit_rate,
    run_equivalence_check,
    run_h_study,
    run_L_study,
    run_total_error_study,
)
from ductpml.noise import (
    ModeBoxSource,
    NoiseMesh,
    NoiseRealization,
    realization_levels,
    sample,
)
from ductpml.pml import PmlProfile, nu_gap, theoretical_decay_constant
from ductpml.solver import (
    DTN,
    PML_REDUCED,
    _solve_tridiag,
    default_delta,
    modal_loads,
    mode_matrix,
    omega_b_grid,
    solve_full,
)
from oracles import condition_estimate, l2_error


def make_cfg(L=1.0):
    return DuctConfig(d=1.0, M=0.3, k=5.0, x_minus=-1.0, x_plus=1.0, L=L)


class TestFitRate:
    def test_exact_power(self):
        x = np.array([1.0, 2.0, 4.0, 8.0])
        slope, se = fit_rate(x, x ** 2, None, "loglog")
        assert slope == pytest.approx(2.0, abs=1e-12)
        assert se == pytest.approx(0.0, abs=1e-10)

    def test_exact_exponential(self):
        t = np.array([0.0, 0.5, 1.0, 1.5])
        slope, _ = fit_rate(t, np.exp(-3.0 * t), None, "loglinear")
        assert slope == pytest.approx(-3.0, abs=1e-12)

    def test_noisy_recovery(self):
        rng = np.random.default_rng(5)
        x = np.logspace(0, 1.5, 12)
        y = x ** 2 * np.exp(rng.normal(0, 0.05, x.size))
        se = 0.05 * y
        slope, slope_se = fit_rate(x, y, se, "loglog")
        assert abs(slope - 2.0) < 2.0 * max(slope_se, 0.05)
        assert 1.85 < slope < 2.15

    def test_insufficient_points(self):
        with pytest.raises(InsufficientDataError):
            fit_rate([1.0, 2.0], [1.0, 4.0])

    def test_weights_prefer_accurate_points(self):
        x = np.array([1.0, 2.0, 4.0, 8.0])
        y = x ** 2.0
        y_off = y.copy()
        y_off[0] *= 1.5  # corrupted point with huge stderr
        se = np.array([10.0 * y_off[0], 1e-6 * y[1], 1e-6 * y[2], 1e-6 * y[3]])
        slope, _ = fit_rate(x, y_off, se, "loglog")
        assert slope == pytest.approx(2.0, abs=1e-3)


class TestHStudy:
    def test_small_study_rate(self):
        cfg = make_cfg()
        res = run_h_study(cfg, None, [1 / 4, 1 / 8, 1 / 16], 40, 500)
        assert res.fitted_rate > 1.5
        assert res.error_mean[0] > res.error_mean[-1]
        assert not np.any(res.excluded)

    def test_deterministic_across_threads(self):
        cfg = make_cfg()
        a = run_h_study(cfg, None, [1 / 4, 1 / 8], 12, 3, threads=1)
        b = run_h_study(cfg, None, [1 / 4, 1 / 8], 12, 3, threads=4)
        assert np.array_equal(a.error_mean, b.error_mean)
        assert np.array_equal(a.error_stderr, b.error_stderr)

    def test_seed_changes_results(self):
        cfg = make_cfg()
        a = run_h_study(cfg, None, [1 / 4, 1 / 8], 8, 0)
        b = run_h_study(cfg, None, [1 / 4, 1 / 8], 8, 999)
        assert not np.array_equal(a.error_mean, b.error_mean)

    def test_non_dyadic_levels_rejected(self):
        cfg = make_cfg()
        with pytest.raises(Exception):
            run_h_study(cfg, None, [1 / 4, 1 / 5], 4, 0)

    @pytest.mark.parametrize("ref_refine", [0, -1])
    def test_reference_below_the_finest_level_required(self, ref_refine):
        # 0 compares the finest level with itself, -1 names a missing level
        cfg = make_cfg(L=2.0)
        message = f"ref_refine must be >= 1, got {ref_refine}"
        with pytest.raises(ConfigError, match=message):
            run_h_study(cfg, None, [1 / 4, 1 / 8], 4, 0, ref_refine=ref_refine)
        with pytest.raises(ConfigError, match=message):
            run_total_error_study(cfg, [1 / 4, 1 / 8], [1.0], 5.0, 4, 0, ref_refine=ref_refine)

    def test_rectangle_off_the_grid_is_config_error(self):
        # right of x^+ = 1 the noise loads no node: every error would be 0
        cfg = make_cfg()
        with pytest.raises(ConfigError, match="h study: the forcing rectangle loads no grid node"):
            run_h_study(cfg, None, [1 / 4, 1 / 8], 4, 0, rect=(2.0, 3.0, 0.25, 0.75))


class TestLStudy:
    def test_decay_constant_and_monotonicity(self):
        cfg = make_cfg()
        res = run_L_study(cfg, [0.5, 1.0, 1.5, 2.0], sigma_plus=5.0)
        c2 = theoretical_decay_constant(cfg)
        assert res.theory_rate == pytest.approx(-c2)
        assert abs(res.fitted_rate + c2) <= 0.25 * c2
        assert res.extra["monotone"]
        assert res.passed

    def test_floor_exclusion_and_applicability_flags(self):
        # huge layers drive the difference to roundoff: those points are
        # flagged and never enter the fit; tiny layers carry a
        # not-applicable gap-bound flag
        cfg = make_cfg()
        res = run_L_study(cfg, [0.2, 1.0, 1.5, 2.0, 6.0], sigma_plus=5.0)
        assert bool(res.excluded[-1])
        assert not np.any(res.excluded[:-1])
        flags = res.extra["bound_applicable"]
        assert flags[0] or not flags[0]  # present for every point
        assert len(flags) == 5
        assert all(flags[1:])
        # the L = 0.2 evanescent exponent is 7.27*0.2 = 1.45 > ln 2: applicable;
        # shrink further to see the flag drop
        res2 = run_L_study(cfg, [0.05, 1.0, 1.5, 2.0], sigma_plus=5.0)
        assert not res2.extra["bound_applicable"][0]

    def test_propagating_source_decays_faster(self):
        # a purely propagating source sees the absorption-driven rate, which
        # beats the theoretical worst-case constant in the saturated regime
        # (layer lengths kept short of the roundoff floor)
        cfg = make_cfg()
        src = ModeBoxSource(mode=0, x_lo=-0.5, x_hi=0.5)
        res = run_L_study(cfg, [0.75, 1.0, 1.25], sigma_plus=5.0, source=src)
        c2 = theoretical_decay_constant(cfg)
        assert res.fitted_rate < -c2

    def test_without_absorption_reports_errors_without_a_fit(self):
        # sigma+ = 0 puts every absorbed-mass abscissa at 0: the errors are
        # reported (one direct solve each) with a NaN slope, never a fit
        cfg = DuctConfig(d=1.0, M=0.9, k=40.0, x_minus=-1.0, x_plus=1.0, L=2.0)
        src = [ModeBoxSource(mode=m, x_lo=-0.5, x_hi=0.5) for m in range(12)]
        l_values = [1e-6, 1e-3, 0.05]
        res = run_L_study(cfg, l_values, 0.0, source=src, n_modes=16)
        assert np.all(res.abscissae == 0.0)
        assert np.sum(~res.excluded) >= 3
        assert math.isnan(res.fitted_rate) and math.isnan(res.rate_stderr)
        assert not res.passed
        for L, err in zip(l_values, res.error_mean):
            single = run_L_study(cfg, [L], 0.0, source=src, n_modes=16)
            assert err == single.error_mean[0]


class TestEquivalence:
    def test_order_and_zero_source(self):
        cfg = make_cfg()
        profile = PmlProfile.quadratic(cfg, 5.0)
        res = run_equivalence_check(cfg, profile, deltas=(1 / 32, 1 / 64, 1 / 128), n_modes=4)
        assert res.fitted_rate >= 1.9
        zero = ModeBoxSource(mode=0, x_lo=-0.2, x_hi=0.2, amplitude=0.0)
        res0 = run_equivalence_check(cfg, profile, source=zero, deltas=(1 / 32, 1 / 16, 1 / 8), n_modes=2)
        assert np.all(res0.error_mean == 0.0) or np.all(res0.error_mean < 1e-16)

    def test_strong_absorption_single_evanescent_mode(self):
        # with fierce absorption both solves sit on the exact solution, so
        # their gap is pure discretization noise
        cfg = make_cfg(L=1.0)
        profile = PmlProfile.quadratic(cfg, 200.0)
        src = ModeBoxSource(mode=4, x_lo=-0.2, x_hi=0.2)
        res = run_equivalence_check(cfg, profile, source=src, deltas=(1 / 64,), n_modes=5)
        assert res.error_mean[0] < 1e-6


class TestHStudyExactMean:
    """extra["exact_mean"]: the mean-square error of each level, unsampled."""

    def test_equals_the_sum_over_unit_draws(self):
        # err_lv is a quadratic form in the reference draws xi, so its mean
        # over i.i.d. unit normals is the sum of err_lv(e_c) over the
        # reference cells c; each e_c is coarsened and solved directly here
        cfg = make_cfg(L=2.0)
        n_modes = 4
        res = run_h_study(cfg, None, [1 / 2, 1 / 4], 2, 0, n_modes=n_modes, ref_refine=1)
        mesh = NoiseMesh(rect=default_forcing_rect(cfg), levels=3, base_shape=(2, 2))
        grid = omega_b_grid(cfg, default_delta(cfg))
        n_cells = 8 * 8
        loads = np.zeros((3, n_modes, grid.n_nodes, n_cells), dtype=complex)
        for c in range(n_cells):
            xi = np.zeros(n_cells)
            xi[c] = 1.0
            draw = NoiseRealization(mesh=mesh, level=2, xi=xi.reshape(8, 8), seed=0)
            for lv, r in enumerate(realization_levels(draw)):
                loads[lv, :, :, c] = modal_loads(r, cfg, grid, n_modes)
        total = np.zeros(2)
        for n in range(n_modes):
            matrix = mode_matrix(n, cfg, grid, DTN)
            ref = _solve_tridiag(*matrix, loads[2, n])
            for lv in (0, 1):
                diff2 = np.abs(_solve_tridiag(*matrix, loads[lv, n]) - ref) ** 2
                total[lv] += np.sum(np.trapezoid(diff2, dx=grid.delta, axis=0))
        np.testing.assert_allclose(res.extra["exact_mean"], total, rtol=1e-11, atol=0)

    @pytest.mark.parametrize("M, k", [(0.3, 5.0), (0.9, 7.3)])
    def test_monte_carlo_mean_within_three_standard_errors(self, M, k):
        cfg = DuctConfig(d=1.0, M=M, k=k, x_minus=-1.0, x_plus=1.0, L=2.0)
        res = run_h_study(cfg, None, [1 / 8, 1 / 16, 1 / 32], 200, 2026)
        exact = res.extra["exact_mean"]
        assert np.all(exact > 0.0) and np.all(np.diff(exact) < 0.0)
        assert np.all(np.abs(res.error_mean - exact) < 3.0 * res.error_stderr)


class TestTotalStudy:
    def test_structure(self):
        cfg = make_cfg(L=2.0)
        res = run_total_error_study(
            cfg,
            h_levels=[1 / 4, 1 / 8],
            l_values=[0.5, 2.0],
            sigma_plus=5.0,
            n_samples=24,
            base_seed=42,
        )
        assert res.error_mean.shape == (2, 2)
        # error decreases along both axes (up to MC noise, 3 sigma)
        slack = 3.0 * res.error_stderr
        assert res.error_mean[1, 1] <= res.error_mean[0, 1] + slack[0, 1] + slack[1, 1]
        assert res.error_mean[1, 1] <= res.error_mean[1, 0] + slack[1, 0] + slack[1, 1]
        # large-L column is h-dominated: doubling resolution shrinks it
        assert res.error_mean[1, 1] < res.error_mean[0, 1]

    @pytest.mark.parametrize(
        "h_levels, n_samples, error",
        [
            ([1 / 8, 1 / 16, 1 / 24], 4, GridMismatchError),
            ([1 / 8, 1 / 12, 1 / 16], 4, GridMismatchError),
            ([1 / 8, 1 / 16], 1, ConfigError),
            ([1 / 4, 1 / 4, 1 / 8], 4, ConfigError),  # a repeated diameter
        ],
    )
    def test_rejects_what_the_h_study_rejects(self, h_levels, n_samples, error):
        cfg = make_cfg(L=2.0)
        with pytest.raises(error):
            run_h_study(cfg, None, h_levels, n_samples, 0)
        with pytest.raises(error):
            run_total_error_study(cfg, h_levels, [1.0, 2.0], 5.0, n_samples, 0)

    def test_rectangle_off_the_grid_is_config_error(self):
        # the noise would load no node: the table would hold the layer error alone
        cfg = make_cfg(L=2.0)
        with pytest.raises(ConfigError, match="total study: the forcing rectangle loads no"):
            run_total_error_study(cfg, [1 / 4, 1 / 8], [1.0], 5.0, 4, 0,
                                  rect=(2.0, 3.0, 0.25, 0.75))

    def test_large_l_column_reproduces_h_rates(self):
        cfg = make_cfg(L=4.0)
        h_levels = [1 / 4, 1 / 8, 1 / 16]
        res = run_total_error_study(
            cfg,
            h_levels=h_levels,
            l_values=[4.0],
            sigma_plus=5.0,
            n_samples=60,
            base_seed=7,
        )
        href = run_h_study(cfg, None, h_levels, 60, 7)
        col = res.error_mean[:, 0]
        slope, _ = fit_rate(res.h_values, col, res.error_stderr[:, 0], "loglog")
        assert abs(slope - href.fitted_rate) < 0.35

    def test_small_h_row_reproduces_l_decay(self):
        # at fixed (small) h the row exceeds its noise-refinement floor by a
        # layer term that decays like the squared deterministic layer error
        # of a broadband source; the log-slope doubles the L-study slope
        cfg = make_cfg(L=2.0)
        l_values = [0.6, 0.75, 0.9, 2.0]
        zero = ModeBoxSource(mode=2, x_lo=-0.5, x_hi=0.5, amplitude=0.0)
        res = run_total_error_study(
            cfg,
            h_levels=[1 / 16],
            l_values=l_values,
            sigma_plus=5.0,
            n_samples=60,
            base_seed=11,
            source=zero,
        )
        row = res.error_mean[0, :]
        floor = row[-1]  # L = 2: layer term negligible, refinement floor remains
        excess = row[:3] - floor
        assert np.all(excess > 0) and np.all(np.diff(row) < 0)
        slope_total, _ = fit_rate(res.abscissae_l[:3], excess, None, "loglinear")
        broadband = [
            ModeBoxSource(mode=m, x_lo=-0.5, x_hi=0.5, amplitude=1.0) for m in range(5)
        ]
        lref = run_L_study(cfg, l_values[:3], sigma_plus=5.0, source=broadband)
        assert slope_total == pytest.approx(2.0 * lref.fitted_rate, rel=0.3)


class TestBatchedNoiseSolves:
    """Both noise studies against one solve per (mode, level), built here."""

    H_LEVELS = [1 / 4, 1 / 8]
    N_MODES = 6
    N_SAMPLES = 8
    SEED = 21

    def per_level_loads(self, cfg, grid, rect=None):
        """loads[lv][n]: (n_nodes, n_samples) noise loads of mode n at mesh
        level lv: 0 and 1 for h = 1/4 and 1/8, 3 for the reference two
        dyadic steps finer, each seed's realization projected on its own."""
        rect = default_forcing_rect(cfg) if rect is None else rect
        mesh = NoiseMesh(rect=rect, levels=4, base_shape=(4, 4))
        loads = {lv: [[] for _ in range(self.N_MODES)] for lv in (0, 1, 3)}
        for i in range(self.N_SAMPLES):
            levels = realization_levels(sample(mesh, self.SEED + i))
            for lv in loads:
                rows = modal_loads(levels[lv], cfg, grid, self.N_MODES)
                for n in range(self.N_MODES):
                    loads[lv][n].append(rows[n])
        return {lv: [np.stack(c, axis=1) for c in per_n] for lv, per_n in loads.items()}

    def assert_study_matches(self, run, err2):
        """run(threads) matches the per-seed errors err2 and is thread-invariant."""
        mean = err2.mean(axis=0)
        stderr = err2.std(axis=0, ddof=1) / math.sqrt(self.N_SAMPLES)
        one, two = run(1), run(2)
        np.testing.assert_allclose(one.error_mean, mean, rtol=1e-12, atol=0)
        np.testing.assert_allclose(one.error_stderr, stderr, rtol=1e-12, atol=0)
        assert one.error_mean.tobytes() == two.error_mean.tobytes()
        assert one.error_stderr.tobytes() == two.error_stderr.tobytes()

    def test_h_study_matches_per_level_solves(self):
        cfg = make_cfg(L=2.0)
        grid = omega_b_grid(cfg, default_delta(cfg))
        loads = self.per_level_loads(cfg, grid)
        err2 = np.zeros((self.N_SAMPLES, 2))
        for n in range(self.N_MODES):
            matrix = mode_matrix(n, cfg, grid, DTN)
            ref = _solve_tridiag(*matrix, loads[3][n])
            for j, lv in enumerate((0, 1)):
                diff2 = np.abs(_solve_tridiag(*matrix, loads[lv][n]) - ref) ** 2
                err2[:, j] += np.trapezoid(diff2, dx=grid.delta, axis=0)
        self.assert_study_matches(
            lambda threads: run_h_study(cfg, None, self.H_LEVELS, self.N_SAMPLES,
                                        self.SEED, n_modes=self.N_MODES, threads=threads),
            err2,
        )

    @pytest.mark.parametrize(
        "M, k, rect",
        [
            (0.3, 5.0, (-1.0, 1.0, 0.25, 0.75)),  # the whole interval: every node loaded
            (0.3, 5.0, (0.3025, 0.31, 0.2, 0.6)),  # inside one grid cell: two nodes
            (0.9, 7.3, None),
        ],
        ids=["whole-interval", "one-cell", "M0.9-k7.3"],
    )
    def test_h_study_gram_form_matches_per_level_solves(self, M, k, rect):
        cfg = DuctConfig(d=1.0, M=M, k=k, x_minus=-1.0, x_plus=1.0, L=2.0)
        grid = omega_b_grid(cfg, default_delta(cfg))
        loads = self.per_level_loads(cfg, grid, rect)
        loaded = np.flatnonzero(np.any([np.any(loads[3][n] != 0.0, axis=1)
                                        for n in range(self.N_MODES)], axis=0))
        if rect is not None and rect[:2] == (cfg.x_minus, cfg.x_plus):
            assert loaded.size == grid.n_nodes
        elif rect is not None:
            assert loaded.size == 2 and np.diff(loaded)[0] == 1
        err2 = np.zeros((self.N_SAMPLES, 2))
        for n in range(self.N_MODES):
            matrix = mode_matrix(n, cfg, grid, DTN)
            ref = _solve_tridiag(*matrix, loads[3][n])
            for j, lv in enumerate((0, 1)):
                diff2 = np.abs(_solve_tridiag(*matrix, loads[lv][n]) - ref) ** 2
                err2[:, j] += np.trapezoid(diff2, dx=grid.delta, axis=0)

        def run(threads):
            return run_h_study(cfg, None, self.H_LEVELS, self.N_SAMPLES, self.SEED, rect=rect,
                               n_modes=self.N_MODES, threads=threads)

        self.assert_study_matches(run, err2)
        assert run(1).extra["exact_mean"].tobytes() == run(2).extra["exact_mean"].tobytes()

    def test_total_study_matches_per_level_solves(self):
        cfg = make_cfg(L=2.0)
        l_values = [0.5, 2.0]
        source = default_l_study_source(cfg)
        grid = omega_b_grid(cfg, default_delta(cfg))
        loads = self.per_level_loads(cfg, grid)
        err2 = np.zeros((self.N_SAMPLES, 2, len(l_values)))
        det_rows = modal_loads(source, cfg, grid, self.N_MODES)
        for n in range(self.N_MODES):
            det = det_rows[n][:, None]
            ref = _solve_tridiag(*mode_matrix(n, cfg, grid, DTN), loads[3][n] + det)
            for j_l, L in enumerate(l_values):
                prof = PmlProfile(sigma_plus=5.0, sigma_minus=5.0,
                                  x_plus=cfg.x_plus, x_minus=cfg.x_minus, L=L)
                matrix = mode_matrix(n, make_cfg(L=L), grid, PML_REDUCED, prof)
                for j_h, lv in enumerate((0, 1)):
                    sol = _solve_tridiag(*matrix, loads[lv][n] + det)
                    diff2 = np.abs(sol - ref) ** 2
                    err2[:, j_h, j_l] += np.trapezoid(diff2, dx=grid.delta, axis=0)
        self.assert_study_matches(
            lambda threads: run_total_error_study(
                cfg, self.H_LEVELS, l_values, 5.0, self.N_SAMPLES, self.SEED,
                n_modes=self.N_MODES, threads=threads,
            ),
            err2,
        )

    def test_total_study_asymmetric_sigma_matches_per_level_solves(self):
        # sigma_minus != sigma_plus: the '-' layer must carry its own strength
        cfg = make_cfg(L=2.0)
        l_values = [0.3, 1.0]
        sigma_plus, sigma_minus = 2.0, 40.0
        source = [ModeBoxSource(mode=m, x_lo=-0.5, x_hi=0.5) for m in range(self.N_MODES)]
        grid = omega_b_grid(cfg, default_delta(cfg))
        loads = self.per_level_loads(cfg, grid)
        err2 = np.zeros((self.N_SAMPLES, 2, len(l_values)))
        det_rows = modal_loads(source, cfg, grid, self.N_MODES)
        for n in range(self.N_MODES):
            det = det_rows[n][:, None]
            ref = _solve_tridiag(*mode_matrix(n, cfg, grid, DTN), loads[3][n] + det)
            for j_l, L in enumerate(l_values):
                prof = PmlProfile(sigma_plus=sigma_plus, sigma_minus=sigma_minus,
                                  x_plus=cfg.x_plus, x_minus=cfg.x_minus, L=L)
                matrix = mode_matrix(n, make_cfg(L=L), grid, PML_REDUCED, prof)
                for j_h, lv in enumerate((0, 1)):
                    diff2 = np.abs(_solve_tridiag(*matrix, loads[lv][n] + det) - ref) ** 2
                    err2[:, j_h, j_l] += np.trapezoid(diff2, dx=grid.delta, axis=0)
        def run(threads, sm=sigma_minus):
            return run_total_error_study(
                cfg, self.H_LEVELS, l_values, sigma_plus, self.N_SAMPLES, self.SEED,
                source=source, n_modes=self.N_MODES, threads=threads, sigma_minus=sm,
            )

        self.assert_study_matches(run, err2)
        symmetric = run(1, sm=None)
        assert not np.allclose(symmetric.error_mean, run(1).error_mean, rtol=1e-3)

    def test_total_study_off_centre_rectangle(self):
        # the rectangle touches x^-: R starts at node 0 and only the right
        # side has an exterior; per-level solves and thread counts agree
        cfg = make_cfg(L=2.0)
        rect = (cfg.x_minus, -0.4, 0.25, 0.75)
        l_values = [0.5, 2.0]
        source = default_l_study_source(cfg)
        grid = omega_b_grid(cfg, default_delta(cfg))
        loads = self.per_level_loads(cfg, grid, rect)
        loaded = np.flatnonzero(np.any(loads[3][0] != 0.0, axis=1))
        assert loaded[0] == 0 and loaded[-1] < grid.n_nodes // 2
        err2 = np.zeros((self.N_SAMPLES, 2, len(l_values)))
        det_rows = modal_loads(source, cfg, grid, self.N_MODES)
        for n in range(self.N_MODES):
            det = det_rows[n][:, None]
            ref = _solve_tridiag(*mode_matrix(n, cfg, grid, DTN), loads[3][n] + det)
            for j_l, L in enumerate(l_values):
                prof = PmlProfile.quadratic(make_cfg(L=L), 5.0)
                matrix = mode_matrix(n, make_cfg(L=L), grid, PML_REDUCED, prof)
                for j_h, lv in enumerate((0, 1)):
                    diff2 = np.abs(_solve_tridiag(*matrix, loads[lv][n] + det) - ref) ** 2
                    err2[:, j_h, j_l] += np.trapezoid(diff2, dx=grid.delta, axis=0)
        self.assert_study_matches(
            lambda threads: run_total_error_study(
                cfg, self.H_LEVELS, l_values, 5.0, self.N_SAMPLES, self.SEED, rect=rect,
                n_modes=self.N_MODES, threads=threads,
            ),
            err2,
        )


class TestRangeSolve:
    """The total study's solve on the loaded node range R against full DtN solves."""

    CASES = {
        "M0.3-k5": (0.3, 5.0),
        "M0.6-k20": (0.6, 20.0),
        "M0.9-k7.3": (0.9, 7.3),
        # 1e-6 relative above the cutoff of mode 2
        "near-cutoff": (0.3, math.sqrt(1.0 - 0.3 ** 2) * 2.0 * math.pi * (1.0 + 1e-6)),
    }

    @staticmethod
    def node_range(shape, last):
        return {
            "interior": (last // 4, (3 * last) // 4),
            "left-end": (0, last // 3),
            "right-end": (last // 2, last),
            "whole": (0, last),
        }[shape]

    @staticmethod
    def assert_close(got, want, tol):
        err = np.max(np.abs(got - want), initial=0.0)
        assert err <= tol * np.max(np.abs(want), initial=0.0)

    @pytest.mark.parametrize("shape", ["interior", "left-end", "right-end", "whole"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_full_dtn_solve(self, case, shape):
        # the reference is the full DtN solve refined in extended precision;
        # both it and any float64 solve are within eps * cond of the exact
        # solution, so the bound is 1e-12 unless the mode is that ill-conditioned
        # (only mode 2 near its cutoff, cond about 4e6)
        M, k = self.CASES[case]
        cfg = DuctConfig(d=1.0, M=M, k=k, x_minus=-1.0, x_plus=1.0, L=2.0)
        grid = omega_b_grid(cfg, default_delta(cfg))
        last = grid.n_nodes - 1
        lo, hi = self.node_range(shape, last)
        w = _trapezoid_weights(grid)
        rng = np.random.default_rng(17)
        r = rng.standard_normal((hi - lo + 1, 3))
        loads = np.zeros((grid.n_nodes, 3))
        loads[lo : hi + 1] = r
        det = rng.standard_normal(grid.n_nodes) + 1j * rng.standard_normal(grid.n_nodes)
        ends = np.zeros((grid.n_nodes, 2))
        ends[0, 0] = ends[-1, 1] = 1.0
        for n in range(default_n_modes(cfg)):
            matrix = mode_matrix(n, cfg, grid, DTN)
            tol = max(1e-12, np.finfo(float).eps * condition_estimate(n, cfg, grid))
            b_full = refined_solve(matrix, matrix, loads)
            z_full = refined_solve(matrix, matrix, ends)
            u_full = refined_solve(matrix, matrix, loads + det[:, None])
            b, g_lo, g_hi = _range_solve(n, matrix, lo, hi, r, "test")
            assert g_lo.shape == (lo,) and g_hi.shape == (last - hi,)
            self.assert_close(b, b_full[lo : hi + 1], tol)
            self.assert_close(np.outer(g_lo, b[0]), b_full[:lo], tol)
            self.assert_close(np.outer(g_hi, b[-1]), b_full[hi + 1 :], tol)
            z, y = _end_responses(n, matrix, "test")
            self.assert_close(z, z_full, tol)
            b_norm2, zwb = _range_gram(w, z, lo, hi, b, g_lo, g_hi)
            self.assert_close(b_norm2, w @ np.abs(b_full) ** 2, tol)
            self.assert_close(zwb, z_full.conj().T @ (w[:, None] * b_full), tol)
            self.assert_close(y.T @ (loads + det[:, None]), u_full[[0, -1]], tol)

    @pytest.mark.parametrize("side", ["-", "+"])
    def test_singular_exterior_block_names_mode_side_and_stage(self, side):
        cfg = make_cfg(L=2.0)
        grid = omega_b_grid(cfg, default_delta(cfg))
        sub, diag, sup = mode_matrix(3, cfg, grid, DTN)
        diag = diag.copy()
        # a one-node exterior whose diagonal vanishes; the range itself is regular
        lo, hi = (1, grid.n_nodes - 1) if side == "-" else (0, grid.n_nodes - 2)
        diag[0 if side == "-" else -1] = 0.0
        message = rf"^total study, mode n=3, side \{side}: exterior block"
        with pytest.raises(DomainError, match=message):
            _range_solve(3, (sub, diag, sup), lo, hi, np.ones((hi - lo + 1, 2)), "total study")
        # two exterior nodes with a zero block
        lo, hi = (2, grid.n_nodes - 1) if side == "-" else (0, grid.n_nodes - 3)
        sub, sup = sub.copy(), sup.copy()
        if side == "-":
            diag[:2] = sub[0] = sup[0] = 0.0
        else:
            diag[-2:] = sub[-1] = sup[-1] = 0.0
        with pytest.raises(DomainError, match=message):
            _range_solve(3, (sub, diag, sup), lo, hi, np.ones((hi - lo + 1, 2)), "total study")


def refined_solve(exact, matrix, rhs):
    """Solution of the tridiagonal ``exact`` (sub, diag, sup) for rhs, refined.

    Three steps of refinement: residuals in extended precision with
    ``exact``, corrections by direct solves with ``matrix``.
    """
    sub, diag, sup = (np.asarray(a, dtype=np.clongdouble) for a in exact)
    x = np.zeros(rhs.shape, dtype=np.clongdouble)
    for _ in range(3):
        r = rhs - diag[:, None] * x
        r[:-1] -= sup[:, None] * x[1:]
        r[1:] -= sub[:, None] * x[:-1]
        x += _solve_tridiag(*matrix, r.astype(complex))
    return x


def reduced_oracle(n, cfg, grid, profile, rhs):
    """Direct pml_reduced solve of mode n, refined in extended precision.

    The residual is taken in extended precision with the operator A_dtn +
    i (1 - M^2) diag(-(nu^- - beta^-), nu^+ - beta^+) on the end rows, and
    each correction is a direct solve with ``mode_matrix(..., PML_REDUCED)``.
    Three steps reach the solution of that operator to about 1e-14 even where
    a single float64 solve is off by eps * cond, near a layer resonance.
    """
    sub, diag, sup = (np.asarray(a, dtype=np.clongdouble) for a in mode_matrix(n, cfg, grid, DTN))
    bc = 1j * cfg.one_minus_m2
    diag[0] -= bc * nu_gap(n, "-", profile, cfg)
    diag[-1] += bc * nu_gap(n, "+", profile, cfg)
    return refined_solve((sub, diag, sup), mode_matrix(n, cfg, grid, PML_REDUCED, profile), rhs)


needs_extended_precision = pytest.mark.skipif(
    np.finfo(np.longdouble).eps > 1e-18, reason="long double is not extended precision here"
)


class TestLayerUpdate:
    """The rank-2 update of one DtN solve against direct reduced solves."""

    @needs_extended_precision
    @settings(max_examples=150, deadline=None)
    @given(
        M=st.floats(0.0, 0.95),
        k=st.floats(0.5, 30.0),
        L=st.floats(0.05, 4.0),
        L2=st.floats(0.05, 4.0),
        sigma_plus=st.floats(0.0, 50.0),
        sigma_minus=st.floats(0.0, 50.0),
        dn=st.integers(-2, 2),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_direct_reduced_solves(
        self, M, k, L, L2, sigma_plus, sigma_minus, dn, seed
    ):
        # the study grid: spacing from the base configuration (L = 2), two
        # layer lengths in one stacked call; propagating and evanescent modes alike
        base = DuctConfig(d=1.0, M=M, k=k, x_minus=-1.0, x_plus=1.0, L=2.0)
        k0, n0 = cutoff_numbers(base)
        assume(all(abs(k0 - m) > 1e-6 * k0 for m in range(1, n0 + 3)))  # off cutoff
        n = max(0, n0 + dn)
        grid = omega_b_grid(base, default_delta(base))
        layers = [(c, PmlProfile.quadratic(c, sigma_plus, sigma_minus))
                  for c in (replace(base, L=L), replace(base, L=L2))]
        rng = np.random.default_rng(seed)
        loads = rng.standard_normal((grid.n_nodes, 3)) + 1j * rng.standard_normal((grid.n_nodes, 3))
        matrix = mode_matrix(n, base, grid, DTN)
        u = _solve_tridiag(*matrix, loads)
        z, _ = _end_responses(n, matrix, "test")
        gaps = _layer_gaps(layers, n + 1)[n]
        coeffs = _layer_coefficients(n, layers, gaps, z[[0, -1]], u[[0, -1]], "test")
        assert coeffs.shape == (2, 2, 3)
        for j, ((cfg, profile), c) in enumerate(zip(layers, coeffs)):
            expected = reduced_oracle(n, cfg, grid, profile, loads)
            rel = float(np.max(np.abs(u - z @ c - expected)) / np.max(np.abs(expected)))
            # the update is as accurate as the DtN solve, times the condition
            # of its 2x2 system S_L (at most a few hundred away from resonances)
            d = 1j * cfg.one_minus_m2 * np.array([-nu_gap(n, "-", profile, cfg),
                                                  nu_gap(n, "+", profile, cfg)])
            np.testing.assert_allclose(gaps[j], d, rtol=1e-15)  # the array gap, per mode
            s = np.eye(2) + d[:, None] * z[[0, -1]]
            cond = np.linalg.cond(s / np.max(np.abs(s), axis=1, keepdims=True))
            assert rel <= 1e-11 * max(1.0, cond)

    @staticmethod
    def resonant_layer():
        """(cfg, L*) with the reduced mode-0 operator singular at L = L*.

        With M = 0 and no absorption the reduced operator is real (nu^{+-} =
        +-i k cot(k L)), so det A_L changes sign at a cavity resonance near
        k (2 + 2L) = 4 pi; bisection pins L* to the last bit.
        """
        cfg = DuctConfig(d=1.0, M=0.0, k=5.0, x_minus=-1.0, x_plus=1.0, L=2.0)
        grid = omega_b_grid(cfg, 1 / 20)

        def sign(L):
            c = replace(cfg, L=L)
            sub, diag, sup = mode_matrix(0, c, grid, PML_REDUCED, PmlProfile.quadratic(c, 0.0))
            dense = np.diag(diag.real) + np.diag(sub.real, -1) + np.diag(sup.real, 1)
            return np.linalg.slogdet(dense)[0]

        lo, hi = 0.2, 0.3
        assert sign(lo) != sign(hi)
        while True:
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                return cfg, lo
            if sign(mid) == sign(lo):
                lo = mid
            else:
                hi = mid

    def test_guard_names_mode_sides_length_and_stage(self):
        cfg, L = self.resonant_layer()
        src = ModeBoxSource(mode=0, x_lo=-0.5, x_hi=0.5)
        with pytest.raises(DomainError) as info:
            run_L_study(cfg, [1.0, L], 0.0, source=src, delta=1 / 20, n_modes=3)
        msg = str(info.value)
        assert msg.startswith("L study, mode n=0, side(s) - and +, ")
        assert f"L={L}" in msg and "rank-2 layer update" in msg
        with pytest.raises(DomainError) as info:
            run_total_error_study(cfg, [1 / 4, 1 / 8], [L], 0.0, 4, 0, delta=1 / 20, n_modes=3)
        assert str(info.value).startswith("total study, mode n=0, side(s) - and +, ")
        # a layer a little off the resonance is accepted and matches the direct solves
        off = L * (1.0 + 1e-3)
        res = run_L_study(cfg, [off], 0.0, source=src, delta=1 / 20, n_modes=1)
        grid = omega_b_grid(cfg, 1 / 20)
        cfg_off = replace(cfg, L=off)
        direct = l2_error(
            solve_full(cfg_off, src, PML_REDUCED, grid, 1, PmlProfile.quadratic(cfg_off, 0.0)),
            solve_full(cfg, src, DTN, grid, 1),
        )
        assert res.error_mean[0] == pytest.approx(direct, rel=1e-9)

    def test_singular_dtn_solve_names_the_mode(self, monkeypatch):
        def singular_at_two(n, *args):
            sub, diag, sup = mode_matrix(n, *args)
            return (0 * sub, 0 * diag, 0 * sup) if n == 2 else (sub, diag, sup)

        monkeypatch.setattr(harness, "mode_matrix", singular_at_two)
        cfg = make_cfg(L=2.0)
        with pytest.raises(DomainError, match=r"^h study, mode n=2: singular mode system"):
            run_h_study(cfg, None, [1 / 4, 1 / 8], 4, 0, n_modes=4)
        with pytest.raises(DomainError, match=r"^L study, mode n=2: singular mode system"):
            run_L_study(cfg, [0.5, 1.0], 5.0, n_modes=4)
        with pytest.raises(DomainError, match=r"^total study, mode n=2: singular mode system"):
            run_total_error_study(cfg, [1 / 4, 1 / 8], [1.0], 5.0, 4, 0, n_modes=4)

    @pytest.mark.parametrize("sigma", [0.0, 50.0])
    def test_short_layers_at_high_flow(self, sigma):
        # M = 0.9, k = 40: |beta^-| = 400; layers down to 1e-6 either match
        # the direct per-L solves or raise the guard, never non-finite values
        # (one L per call: without absorption every abscissa is 0, no fit)
        cfg = DuctConfig(d=1.0, M=0.9, k=40.0, x_minus=-1.0, x_plus=1.0, L=2.0)
        src = [ModeBoxSource(mode=m, x_lo=-0.5, x_hi=0.5) for m in range(12)]
        grid = omega_b_grid(cfg, default_delta(cfg))
        dtn = solve_full(cfg, src, DTN, grid, 16)
        for L in (1e-6, 1e-3, 0.05):
            try:
                res = run_L_study(cfg, [L], sigma, source=src, n_modes=16)
            except DomainError as exc:
                assert "rank-2 layer update" in str(exc)
                continue
            assert np.isfinite(res.error_mean[0]) and res.error_mean[0] > 0.0
            cfg_l = replace(cfg, L=L)
            prof = PmlProfile.quadratic(cfg_l, sigma)
            direct = l2_error(solve_full(cfg_l, src, PML_REDUCED, grid, 16, prof), dtn)
            assert res.error_mean[0] == pytest.approx(direct, rel=1e-10)


class TestLStudyOracle:
    """run_L_study against direct per-L reduced solves."""

    CASES = {
        "criterion-9": dict(sigma_plus=5.0, sigma_minus=None, source=None),
        "asymmetric": dict(
            sigma_plus=2.0,
            sigma_minus=30.0,
            source=[ModeBoxSource(mode=m, x_lo=-0.5, x_hi=0.5) for m in range(6)],
        ),
    }
    L_VALUES = [0.5, 1.0, 1.5, 2.0]

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_solve_full_and_l2_error(self, case):
        # direct reduced solve minus direct DtN solve: that difference keeps
        # the absolute roundoff of two separate solves, about 1e-15 of the
        # DtN norm, so entries far below the norm carry it as well
        cfg = make_cfg(L=2.0)
        kw = self.CASES[case]
        res = run_L_study(cfg, self.L_VALUES, kw["sigma_plus"], source=kw["source"],
                          sigma_minus=kw["sigma_minus"])
        source = kw["source"] or default_l_study_source(cfg)
        grid = omega_b_grid(cfg, default_delta(cfg))
        dtn = solve_full(cfg, source, DTN, grid)
        for L, err in zip(self.L_VALUES, res.error_mean):
            cfg_l = replace(cfg, L=L)
            prof = PmlProfile.quadratic(cfg_l, kw["sigma_plus"], kw["sigma_minus"])
            direct = l2_error(solve_full(cfg_l, source, PML_REDUCED, grid, None, prof), dtn)
            assert abs(err - direct) <= 1e-12 * direct + 1e-14 * res.extra["dtn_norm"]

    @needs_extended_precision
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_direct_layer_error_solves(self, case):
        # the layer error e_L = u_L - u solves A_L e_L = -E D_L u[ends]
        # directly, without the cancellation of u_L - u: every entry to 1e-12
        cfg = make_cfg(L=2.0)
        kw = self.CASES[case]
        res = run_L_study(cfg, self.L_VALUES, kw["sigma_plus"], source=kw["source"],
                          sigma_minus=kw["sigma_minus"])
        source = kw["source"] or default_l_study_source(cfg)
        grid = omega_b_grid(cfg, default_delta(cfg))
        w = np.full(grid.n_nodes, grid.delta)
        w[[0, -1]] *= 0.5
        n_modes = cutoff_numbers(cfg)[1] + 30
        loads = modal_loads(source, cfg, grid, n_modes)
        for L, err in zip(self.L_VALUES, res.error_mean):
            cfg_l = replace(cfg, L=L)
            prof = PmlProfile.quadratic(cfg_l, kw["sigma_plus"], kw["sigma_minus"])
            err2 = 0.0
            for n in range(n_modes):
                u = _solve_tridiag(*mode_matrix(n, cfg, grid, DTN), loads[n])
                rhs = np.zeros(grid.n_nodes, dtype=complex)
                bc = 1j * cfg.one_minus_m2
                rhs[0] = bc * nu_gap(n, "-", prof, cfg_l) * u[0]
                rhs[-1] = -bc * nu_gap(n, "+", prof, cfg_l) * u[-1]
                e = reduced_oracle(n, cfg_l, grid, prof, rhs[:, None])[:, 0].astype(complex)
                err2 += float(w @ np.abs(e) ** 2)
            assert err == pytest.approx(math.sqrt(err2), rel=1e-12)
