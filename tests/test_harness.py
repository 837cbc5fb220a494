import math

import numpy as np
import pytest

from ductpml import DuctConfig
from ductpml.errors import ConfigError, GridMismatchError, InsufficientDataError
from ductpml.harness import (
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
    realization_levels,
    sample,
)
from ductpml.pml import PmlProfile, theoretical_decay_constant
from ductpml.solver import (
    DTN,
    PML_REDUCED,
    _solve_tridiag,
    default_delta,
    modal_loads,
    mode_matrix,
    omega_b_grid,
)


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

    def per_level_loads(self, cfg, grid):
        """loads[lv][n]: (n_nodes, n_samples) noise loads of mode n at mesh
        level lv: 0 and 1 for h = 1/4 and 1/8, 3 for the reference two
        dyadic steps finer, each seed's realization projected on its own."""
        mesh = NoiseMesh(rect=default_forcing_rect(cfg), levels=4, base_shape=(4, 4))
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
