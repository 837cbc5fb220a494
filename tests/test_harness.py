import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ductpml import DuctConfig, harness, noise, solver
from ductpml.duct import cutoff_numbers, default_n_modes
from ductpml.errors import ConfigError, DomainError, GridMismatchError, InsufficientDataError
from ductpml.harness import (
    _dtn_responses,
    _layer_coefficients,
    _layer_gaps,
    _level_terms,
    _noise_study,
    _range_solve,
    _trapezoid_weights,
    _gram,
    default_forcing_rect,
    default_l_study_source,
    fit_rate,
    run_equivalence_check,
    run_h_study,
    run_L_study,
    run_total_error_study,
)
from ductpml.noise import (
    ModalFunctionSource,
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
from oracles import condition_estimate, dtn_inverse, l2_error


def make_cfg(L=1.0):
    return DuctConfig(d=1.0, M=0.3, k=5.0, x_minus=-1.0, x_plus=1.0, L=L)


# forcing rectangles outside [x_minus, x_plus] x [0, d] of make_cfg, each with its error
OFF_GRID_RECTS = pytest.mark.parametrize(
    "rect, message",
    [
        ((2.0, 3.0, 0.25, 0.75), "forcing rectangle leaves the computational domain"),
        ((0.5, 1.5, 0.25, 0.75), "forcing rectangle leaves the computational domain"),
        ((-0.5, 0.5, 0.5, 1.5), "forcing rectangle leaves the duct"),
    ],
    ids=["past-x-plus", "across-x-plus", "across-d"],
)


def count_solves(monkeypatch):
    """A list that grows by one entry at every ``_solve_tridiag`` call of the harness:
    the call's number of right-hand-side columns."""
    solves = []
    tridiag = harness._solve_tridiag

    def counted(sub, diag, sup, rhs, **kw):
        solves.append(np.shape(rhs)[1] if np.ndim(rhs) == 2 else 1)
        return tridiag(sub, diag, sup, rhs, **kw)

    monkeypatch.setattr(harness, "_solve_tridiag", counted)
    return solves


def singular_mode(monkeypatch, mode):
    """Patch the harness's ``mode_matrix`` so that the bands of ``mode`` are all zero,
    whether it is built alone or in an array of modes."""

    def singular(n, *args):
        hit = np.reshape(np.equal(n, mode), np.shape(n) + (1,))  # one row per mode
        return tuple(np.where(hit, 0.0, band) for band in mode_matrix(n, *args))

    monkeypatch.setattr(harness, "mode_matrix", singular)


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

    @OFF_GRID_RECTS
    def test_rectangle_off_the_grid_is_config_error(self, rect, message):
        # right of x^+ = 1 the noise loads no node (every error would be 0 or
        # lose the part past x^+); past d the mode shapes are integrated
        # beyond the duct
        with pytest.raises(ConfigError, match=f"^{message}$"):
            run_h_study(make_cfg(), None, [1 / 4, 1 / 8], 4, 0, rect=rect)


class TestLStudy:
    def test_decay_constant_and_monotonicity(self):
        cfg = make_cfg()
        res = run_L_study(cfg, [0.5, 1.0, 1.5, 2.0], sigma_plus=5.0)
        c2 = theoretical_decay_constant(cfg)
        assert res.theory_rate == pytest.approx(-c2)
        assert abs(res.fitted_rate + c2) <= 0.25 * c2
        assert res.extra["monotone"]
        assert res.passed

    def test_monotone_judged_by_layer_length(self):
        # the same lengths in descending order: the same fit and verdict, every
        # output in the order given
        cfg = make_cfg()
        up = run_L_study(cfg, [1.0, 1.5, 2.0, 2.5, 3.0], sigma_plus=5.0)
        down = run_L_study(cfg, [3.0, 2.5, 2.0, 1.5, 1.0], sigma_plus=5.0)
        assert up.extra["monotone"] and up.passed
        assert down.extra["monotone"] and down.passed
        assert down.fitted_rate == pytest.approx(up.fitted_rate, rel=1e-12)
        np.testing.assert_array_equal(down.error_mean, up.error_mean[::-1])
        np.testing.assert_array_equal(down.extra["l_values"], [3.0, 2.5, 2.0, 1.5, 1.0])
        mixed = run_L_study(cfg, [2.0, 1.0, 3.0, 1.5, 2.5], sigma_plus=5.0)
        assert mixed.extra["monotone"] and mixed.passed

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

    def test_source_that_loads_no_mode(self, monkeypatch):
        # amplitude 0 loads no mode: nothing is solved, every error is +0.0 and
        # excluded, the norm is 0 and there is no fit
        solves = count_solves(monkeypatch)
        src = ModeBoxSource(mode=2, x_lo=-0.5, x_hi=0.5, amplitude=0.0)
        res = run_L_study(make_cfg(L=2.0), [0.5, 1.0, 1.5, 2.0], 5.0, source=src)
        assert solves == []
        assert np.all(res.error_mean == 0.0) and not np.any(np.signbit(res.error_mean))
        assert res.error_mean.shape == (4,) and np.all(res.excluded)
        assert res.extra["dtn_norm"] == 0.0 and res.extra["monotone"]
        assert math.isnan(res.fitted_rate) and math.isnan(res.rate_stderr) and not res.passed

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
        profile = PmlProfile(5.0)
        res = run_equivalence_check(cfg, profile, deltas=(1 / 32, 1 / 64, 1 / 128), n_modes=4)
        assert res.fitted_rate >= 1.9
        zero = ModeBoxSource(mode=0, x_lo=-0.2, x_hi=0.2, amplitude=0.0)
        res0 = run_equivalence_check(cfg, profile, source=zero, deltas=(1 / 32, 1 / 16, 1 / 8), n_modes=2)
        assert np.all(res0.error_mean == 0.0) or np.all(res0.error_mean < 1e-16)

    def test_strong_absorption_single_evanescent_mode(self):
        # with fierce absorption both solves sit on the exact solution, so
        # their gap is pure discretization noise
        cfg = make_cfg(L=1.0)
        profile = PmlProfile(200.0)
        src = ModeBoxSource(mode=4, x_lo=-0.2, x_hi=0.2)
        res = run_equivalence_check(cfg, profile, source=src, deltas=(1 / 64,), n_modes=5)
        assert res.error_mean[0] < 1e-6

    def test_source_mode_not_below_n_modes_is_config_error(self):
        # d=1, M=0.6, k=20: N0 = 7, so the default box source is mode 8
        cfg = DuctConfig(d=1.0, M=0.6, k=20.0, x_minus=-1.0, x_plus=1.0, L=1.0)
        assert cutoff_numbers(cfg)[1] == 7
        profile = PmlProfile(20.0)
        with pytest.raises(ConfigError, match=r"^equivalence check: source mode 8 is not in "
                                              r"0 \.\. n_modes - 1 \(n_modes = 8\)"):
            run_equivalence_check(cfg, profile, n_modes=8)

    def test_solves_only_the_loaded_mode(self, monkeypatch):
        # d=1, M=0.6, k=20: 37 modes, the box source loads mode 8 alone; one
        # full-layer and one reduced solve per spacing
        cfg = DuctConfig(d=1.0, M=0.6, k=20.0, x_minus=-1.0, x_plus=1.0, L=1.0)
        solves = []
        tridiag = solver._solve_tridiag
        monkeypatch.setattr(solver, "_solve_tridiag",
                            lambda *args, **kw: solves.append(1) or tridiag(*args, **kw))
        res = run_equivalence_check(cfg, PmlProfile(20.0))
        assert len(solves) == 6
        assert res.passed and np.all(res.error_mean > 0.0)

    def test_default_mode_count_is_default_n_modes(self):
        # the one mode-count default, N0 + 30: a source in mode N0 + 10 is solved
        cfg = make_cfg(L=1.0)
        n0 = cutoff_numbers(cfg)[1]
        src = [default_l_study_source(cfg), ModeBoxSource(mode=n0 + 10, x_lo=-0.3, x_hi=0.1)]
        deltas = (1 / 32, 1 / 64, 1 / 128)
        res = run_equivalence_check(cfg, PmlProfile(5.0), source=src, deltas=deltas)
        ref = run_equivalence_check(cfg, PmlProfile(5.0), source=src, deltas=deltas,
                                    n_modes=default_n_modes(cfg))
        np.testing.assert_array_equal(res.error_mean, ref.error_mean)
        assert res.fitted_rate == ref.fitted_rate and res.passed


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

    @OFF_GRID_RECTS
    def test_rectangle_off_the_grid_is_config_error(self, rect, message):
        # past x^+ the noise would load no node (the table would hold the
        # layer error alone) or lose its part there
        with pytest.raises(ConfigError, match=f"^{message}$"):
            run_total_error_study(make_cfg(L=2.0), [1 / 4, 1 / 8], [1.0], 5.0, 4, 0, rect=rect)

    def test_four_solves_per_mode_on_the_direct_route(self, monkeypatch):
        # 4 samples: every level (8, 16, 32 and 128 segments) is solved by seed, its loads
        # directly; per mode the DtN solve of [det | e_0 | e_N] and one range solve of
        # every level's loads with its two exterior blocks, and no transposed solve
        solves = count_solves(monkeypatch)
        run_total_error_study(make_cfg(L=2.0), [1 / 8, 1 / 16, 1 / 32], [1.0, 2.0], 5.0, 4, 0,
                              n_modes=5)
        assert len(solves) == 4 * 5
        # the default source loads mode N0 + 1 = 2 alone: its DtN solve takes
        # [det | e_0 | e_N], the other four [e_0 | e_N] (the det column only where it
        # loads); each range solve takes 4 load columns of each of the 4 levels, each
        # exterior block one
        assert sum(solves) == 3 + 4 * 2 + 5 * (16 + 2)

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


@pytest.mark.parametrize(
    "run, message",
    [
        (lambda cfg: run_h_study(cfg, None, [], 4, 0), "h study: h_levels"),
        (lambda cfg: run_total_error_study(cfg, [], [1.0], 5.0, 4, 0), "total study: h_levels"),
        (lambda cfg: run_L_study(cfg, [], 5.0), "L study: l_values"),
        (lambda cfg: run_total_error_study(cfg, [1 / 4, 1 / 8], [], 5.0, 4, 0),
         "total study: l_values"),
        (lambda cfg: run_equivalence_check(cfg, PmlProfile(5.0), deltas=[]),
         "equivalence check: deltas"),
    ],
    ids=["h-h_levels", "total-h_levels", "L-l_values", "total-l_values", "equiv-deltas"],
)
def test_empty_input_is_config_error_naming_it(run, message):
    # an empty list used to escape as IndexError or numpy's ValueError, or (the
    # equivalence check) to pass with no data
    with pytest.raises(ConfigError, match=rf"^{message} is empty$"):
        run(make_cfg(L=2.0))


@pytest.mark.parametrize("n_modes", [0, -1])
@pytest.mark.parametrize(
    "run, stage",
    [
        (lambda cfg, n: run_h_study(cfg, None, [1 / 4, 1 / 8], 4, 0, n_modes=n), "h study"),
        (lambda cfg, n: run_total_error_study(cfg, [1 / 4, 1 / 8], [1.0], 5.0, 4, 0, n_modes=n),
         "total study"),
    ],
    ids=["h", "total"],
)
def test_mode_count_below_one_is_config_error_naming_the_stage(run, stage, n_modes):
    # it used to escape as numpy's ValueError from a reshape or an empty array
    with pytest.raises(ConfigError, match=rf"^{stage}: n_modes must be >= 1, got {n_modes}$"):
        run(make_cfg(L=2.0), n_modes)


def test_bad_grid_spacing_is_config_error():
    # the study passes delta to omega_b_grid, which used to build 8 cells for it
    with pytest.raises(ConfigError, match=r"^grid spacing delta must be finite and > 0, got -0.1$"):
        run_L_study(make_cfg(L=2.0), [0.5, 1.0, 1.5], 5.0, delta=-0.1)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "run",
    [lambda cfg, levels: run_h_study(cfg, None, levels, 4, 0),
     lambda cfg, levels: run_total_error_study(cfg, levels, [1.0], 5.0, 4, 0)],
    ids=["h", "total"],
)
def test_non_finite_level_is_config_error(run, value):
    # NaN and inf used to escape as ValueError or OverflowError from int()
    with pytest.raises(ConfigError, match="^relative diameters must be positive and finite"):
        run(make_cfg(L=2.0), [1 / 4, value, 1 / 8])


class TestNoiseSetUp:
    """``_noise_study`` draws nothing; ``_NoiseStudy.segments`` draws the seeds."""

    def set_up(self):
        return _noise_study(make_cfg(L=2.0), [1 / 4, 1 / 8], None, None, 6, 2, "test")

    def test_set_up_draws_nothing(self, monkeypatch):
        made, draws = [], []
        philox, draw = np.random.Philox, noise.BlockSampler.draw
        monkeypatch.setattr(np.random, "Philox",
                            lambda *a, **kw: made.append(1) or philox(*a, **kw))
        monkeypatch.setattr(noise.BlockSampler, "draw",
                            lambda *a, **kw: draws.append(1) or draw(*a, **kw))
        st = self.set_up()
        assert made == [] and draws == []
        assert not hasattr(st, "seg") and not hasattr(st, "n_samples")
        list(st.segments(4, 0, 4))  # the counters do count
        assert made == [1] and draws

    def test_segments_repeat_bytes(self):
        st = self.set_up()
        [(s0, a)], [(_, b)] = st.segments(5, 17, 5), st.segments(5, 17, 5)
        assert s0 == 0 and list(a) == list(b) == st.used + [st.ref_level]
        assert all(a[lv].shape == (6, 5, st.maps[lv].shape[1]) for lv in a)
        assert all(a[lv].tobytes() == b[lv].tobytes() for lv in a)

    def test_chunks_are_whole_blocks_of_the_same_values(self, monkeypatch):
        # blocks of 3 seeds (32 x 32 finest cells): chunks of 4 seeds round up to 2
        # blocks, so 14 seeds are chunks of 6, 6 and 2, each the bytes of one chunk of 14
        monkeypatch.setattr(noise, "BLOCK_BYTES", 3 * 8 * 32 * 32)
        st = self.set_up()
        [(_, every)] = st.segments(14, 17, 14)
        got = [(s0, {lv: v.copy() for lv, v in seg.items()}) for s0, seg in st.segments(14, 17, 4)]
        assert [(s0, seg[st.ref_level].shape[1]) for s0, seg in got] == [(0, 6), (6, 6), (12, 2)]
        for s0, seg in got:
            assert all(v.tobytes() == every[lv][:, s0 : s0 + v.shape[1]].tobytes()
                       for lv, v in seg.items())

    def test_one_seed_is_config_error(self):
        with pytest.raises(ConfigError, match=r"^noise studies need n_samples >= 2$"):
            self.set_up().segments(1, 0, 1)  # on the call, before any draw


def unstreamed_h_study(cfg, h_levels, n_samples, base_seed, rect=None, n_modes=None):
    """The h study with every seed drawn at once on the unit basis of R, as before it was
    streamed: r = L_lv s_lv - L_ref s_ref from the maps, errors r^T Q_n r and traces
    sum(Q_n o L_lv L_lv^T), Q_n = ``_gram`` of I_R.  Returns (mean, stderr, exact)."""
    st = _noise_study(cfg, h_levels, rect, None, n_modes, 2, "test")
    [(_, seg)] = st.segments(n_samples, base_seed, n_samples)
    llt = np.stack([(m @ m.T).ravel() for m in st.maps.values()])
    err2, exact = 0.0, 0.0
    for n in range(st.n_modes):
        q = _gram(n, tuple(b[n] for b in st.bands), st.lo, st.hi, st.w,
                  np.eye(st.hi - st.lo + 1), "test")
        f_ref = st.maps[st.ref_level] @ seg[st.ref_level][n].T
        r = np.stack([st.maps[lv] @ seg[lv][n].T - f_ref for lv in st.used])  # (lv, R, seed)
        err2 = err2 + np.einsum("lis,lis->sl", r, q @ r)
        traces = llt @ q.ravel()
        exact = exact + st.var[-1, n] * traces[-1] - st.var[:-1, n] * traces[:-1]
    mean, stderr, _ = st.moments(err2)
    return mean, stderr, exact


class TestStreamedHStudy:
    """The h study reduced one chunk of seeds at a time, on either basis, against the
    unstreamed unit-basis study."""

    MC_H = DuctConfig(d=1.0, M=0.3, k=5.0, x_minus=-1.0, x_plus=1.0, L=2.0)
    K20 = DuctConfig(d=1.0, M=0.6, k=20.0, x_minus=-1.0, x_plus=1.0, L=1.0)
    M09 = DuctConfig(d=1.0, M=0.9, k=5.0, x_minus=-1.0, x_plus=1.0, L=2.0)
    LEVELS = [1 / 8, 1 / 16, 1 / 32]

    @pytest.fixture(autouse=True)
    def recorded(self, monkeypatch):
        """``self.chunks`` records the seeds of every chunk the studies reduce and
        ``self.bases`` the size m of every basis they take."""
        self.chunks, self.bases = [], []
        segments, h_basis = harness._NoiseStudy.segments, harness._h_basis

        def chunks(st, *args):
            for s0, seg in segments(st, *args):
                self.chunks.append(seg[st.ref_level].shape[1])
                yield s0, seg

        def basis(st, *args):
            x, pt = h_basis(st, *args)
            self.bases.append(x.shape[1])
            return x, pt

        monkeypatch.setattr(harness._NoiseStudy, "segments", chunks)
        monkeypatch.setattr(harness, "_h_basis", basis)

    @staticmethod
    def chunk_bytes(cfg, seeds: int) -> int:
        """CHUNK_BYTES for chunks of ``seeds`` seeds at cfg's default mode count and LEVELS."""
        return seeds * 8 * default_n_modes(cfg) * (8 + 16 + 32 + 128)

    def assert_matches_unstreamed(self, cfg, n_samples, seed):
        """run_h_study at 1 and 2 threads, then ``unstreamed_h_study`` (one chunk)."""
        run = [run_h_study(cfg, None, self.LEVELS, n_samples, seed, threads=t) for t in (1, 2)]
        mean, stderr, exact = unstreamed_h_study(cfg, self.LEVELS, n_samples, seed)
        np.testing.assert_allclose(run[0].error_mean, mean, rtol=1e-12, atol=0)
        np.testing.assert_allclose(run[0].error_stderr, stderr, rtol=1e-12, atol=0)
        np.testing.assert_allclose(run[0].extra["exact_mean"], exact, rtol=1e-13, atol=0)
        for name in ("error_mean", "error_stderr", "excluded"):
            assert getattr(run[0], name).tobytes() == getattr(run[1], name).tobytes()
        assert run[0].extra["exact_mean"].tobytes() == run[1].extra["exact_mean"].tobytes()
        assert run[0].fitted_rate == run[1].fitted_rate

    def test_mc_h_config_in_chunks(self):
        # 200 seeds, the default chunk of 48 (2 MiB over 31 modes and 184 segments, whole
        # blocks of 4): 4 full chunks and a short one, on the unit basis (|R| = 81 < 128)
        self.assert_matches_unstreamed(self.MC_H, 200, 1000)
        assert self.chunks == [48, 48, 48, 48, 8] * 2 + [200] and self.bases == [81] * 2

    @pytest.mark.parametrize("n_samples, chunks", [(8, [8]), (12, [12]), (30, [12, 12, 6])],
                             ids=["below-one-chunk", "one-chunk", "ragged"])
    def test_chunk_boundaries(self, n_samples, chunks, monkeypatch):
        # chunks of 12 seeds, 3 blocks of 4: the last one of 30 seeds is 1.5 blocks
        monkeypatch.setattr(harness, "CHUNK_BYTES", self.chunk_bytes(self.MC_H, 12))
        self.assert_matches_unstreamed(self.MC_H, n_samples, 77)
        assert self.chunks == chunks * 2 + [n_samples]  # the unstreamed study: one chunk

    @pytest.mark.parametrize("cfg, basis", [(K20, 128), (M09, 81)], ids=["k20", "M0.9-k5"])
    def test_other_flows(self, cfg, basis, monkeypatch):
        # k = 20: |R| = 321 nodes, so the reference basis of 128 segments
        monkeypatch.setattr(harness, "CHUNK_BYTES", self.chunk_bytes(cfg, 8))
        self.assert_matches_unstreamed(cfg, 20, 5)
        assert self.chunks == [8, 8, 4] * 2 + [20] and self.bases == [basis] * 2

    @pytest.mark.parametrize("cfg, default", [(MC_H, 81), (K20, 128)], ids=["mc_h", "k20"])
    def test_both_bases_agree(self, cfg, default, monkeypatch):
        results = {}
        h_basis = harness._h_basis
        for reference in (False, True):
            monkeypatch.setattr(harness, "_h_basis", lambda st: h_basis(st, reference))
            results[reference] = run_h_study(cfg, None, self.LEVELS, 24, 3)
        assert sorted(self.bases) == sorted([default, 128 if default != 128 else 321])
        unit, ref = results[False], results[True]
        np.testing.assert_allclose(ref.error_mean, unit.error_mean, rtol=1e-12, atol=0)
        np.testing.assert_allclose(ref.error_stderr, unit.error_stderr, rtol=1e-12, atol=0)
        np.testing.assert_allclose(ref.extra["exact_mean"], unit.extra["exact_mean"],
                                   rtol=1e-12, atol=0)

    def test_memory_does_not_grow_with_the_seeds(self, monkeypatch):
        # blocks of 4 seeds and chunks of 8 at 40 and at 400 seeds: the peak may grow
        # by err2 (seeds, levels) and the few copies of it that the moments take, not
        # by the segment values of every seed (6 modes x 44 segments, 2,112 bytes a seed)
        monkeypatch.setattr(noise, "BLOCK_BYTES", 4 * 8 * 32 * 32)
        monkeypatch.setattr(harness, "CHUNK_BYTES", 8 * 8 * 6 * 44)
        run_h_study(make_cfg(L=2.0), None, [1 / 4, 1 / 8], 40, 9, n_modes=6)  # warm-up
        peaks = []
        for n_samples in (40, 400):
            tracemalloc.start()
            run_h_study(make_cfg(L=2.0), None, [1 / 4, 1 / 8], n_samples, 9, n_modes=6)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        err2_growth = (400 - 40) * 2 * 8
        assert peaks[1] - peaks[0] <= 4 * err2_growth, peaks
        assert self.chunks == [8] * 5 * 2 + [8] * 50


class TestBatchedNoiseSolves:
    """Both noise studies against one solve per (mode, level), built here."""

    H_LEVELS = [1 / 4, 1 / 8]
    N_MODES = 6
    N_SAMPLES = 8
    SEED = 21

    @pytest.fixture(autouse=True)
    def three_blocks(self, monkeypatch):
        """The studies sample their 8 seeds in blocks of 3 (32 x 32 finest cells
        a seed), the last one partial; ``self.blocks`` records the block sizes
        that the sampler draws."""
        monkeypatch.setattr(noise, "BLOCK_BYTES", 3 * 8 * 32 * 32)
        self.blocks = []
        draw = noise.BlockSampler.draw

        def recorded(sampler, seeds):
            self.blocks.append(len(seeds))
            return draw(sampler, seeds)

        monkeypatch.setattr(noise.BlockSampler, "draw", recorded)

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
        self.blocks.clear()
        one, two = run(1), run(2)
        assert self.blocks == [3, 3, 2] * 2
        np.testing.assert_allclose(one.error_mean, mean, rtol=1e-12, atol=0)
        np.testing.assert_allclose(one.error_stderr, stderr, rtol=1e-12, atol=0)
        assert one.error_mean.tobytes() == two.error_mean.tobytes()
        assert one.error_stderr.tobytes() == two.error_stderr.tobytes()

    def test_one_bit_generator_per_study(self, monkeypatch):
        # 8 seeds in 3 blocks: each study re-keys one Philox for all of them
        cfg = make_cfg(L=2.0)
        made = []
        philox = np.random.Philox
        monkeypatch.setattr(np.random, "Philox", lambda *a, **kw: made.append(1) or philox(*a, **kw))
        run_h_study(cfg, None, self.H_LEVELS, self.N_SAMPLES, self.SEED, n_modes=self.N_MODES)
        assert len(made) == 1 and self.blocks == [3, 3, 2]
        run_total_error_study(cfg, self.H_LEVELS, [0.5, 2.0], 5.0, self.N_SAMPLES, self.SEED,
                              n_modes=self.N_MODES)
        assert len(made) == 2 and self.blocks == [3, 3, 2] * 2

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

    def test_total_study_matches_per_level_solves(self, monkeypatch):
        # 8 samples: the reference (32 segments) and level 1 (8) are solved by seed and
        # level 0 (4) by segment, on the default rectangle (81 nodes of R) and on one grid
        # cell (2 nodes)
        cfg = make_cfg(L=2.0)
        l_values = [0.5, 2.0]
        source = default_l_study_source(cfg)
        grid = omega_b_grid(cfg, default_delta(cfg))
        solved = range_solve_loads(monkeypatch)
        for rect, nodes in ((None, 81), ((0.3025, 0.31, 0.2, 0.6), 2)):
            loads = self.per_level_loads(cfg, grid, rect)
            loaded = np.flatnonzero(np.any(loads[3][0] != 0.0, axis=1))
            assert loaded.size == nodes
            err2 = np.zeros((self.N_SAMPLES, 2, len(l_values)))
            det_rows = modal_loads(source, cfg, grid, self.N_MODES)
            for n in range(self.N_MODES):
                det = det_rows[n][:, None]
                ref = _solve_tridiag(*mode_matrix(n, cfg, grid, DTN), loads[3][n] + det)
                for j_l, L in enumerate(l_values):
                    prof = PmlProfile(sigma_plus=5.0, sigma_minus=5.0)
                    matrix = mode_matrix(n, make_cfg(L=L), grid, PML_REDUCED, prof)
                    for j_h, lv in enumerate((0, 1)):
                        sol = _solve_tridiag(*matrix, loads[lv][n] + det)
                        diff2 = np.abs(sol - ref) ** 2
                        err2[:, j_h, j_l] += np.trapezoid(diff2, dx=grid.delta, axis=0)
            solved.clear()
            self.assert_study_matches(
                lambda threads: run_total_error_study(
                    cfg, self.H_LEVELS, l_values, 5.0, self.N_SAMPLES, self.SEED, rect=rect,
                    n_modes=self.N_MODES, threads=threads,
                ),
                err2,
            )
            # one range solve per mode
            assert [f.shape[1] for f in solved] == [8 + 4 + 8] * (2 * self.N_MODES)

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
                prof = PmlProfile(sigma_plus=sigma_plus, sigma_minus=sigma_minus)
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
                prof = PmlProfile(5.0)
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


class TestDtnResponses:
    """The one three-column DtN solve against the closed-form inverse."""

    @pytest.mark.parametrize("M, k", [(0.3, 5.0), (0.6, 20.0), (0.0, 5.0), (0.9, 5.0)])
    def test_u_and_z_match_the_closed_form_inverse(self, M, k):
        # a complex load on every node; both sides within 8 eps cond of the exact
        # inverse, u in the norm of |A^{-1}| |det|
        cfg = DuctConfig(d=1.0, M=M, k=k, x_minus=-1.0, x_plus=1.0, L=2.0)
        grid = omega_b_grid(cfg, default_delta(cfg))
        rng = np.random.default_rng(23)
        det = rng.standard_normal(grid.n_nodes) + 1j * rng.standard_normal(grid.n_nodes)
        for n in range(0, default_n_modes(cfg), 3):
            matrix = mode_matrix(n, cfg, grid, DTN)
            u, z = _dtn_responses(n, matrix, det, "test")
            inverse = dtn_inverse(*matrix)
            tol = 8 * np.finfo(float).eps * condition_estimate(n, cfg, grid)
            assert np.max(np.abs(z - inverse[:, [0, -1]])) <= tol * np.max(np.abs(z))
            assert np.max(np.abs(u - inverse @ det)) <= tol * np.max(np.abs(inverse) @ np.abs(det))

    def test_unloaded_mode_solves_the_end_responses_alone(self, monkeypatch):
        # a zero det: u = 0 without a third column, Z the same bits as with a load
        cfg = make_cfg(L=2.0)
        grid = omega_b_grid(cfg, default_delta(cfg))
        matrix = mode_matrix(3, cfg, grid, DTN)
        _, z_loaded = _dtn_responses(3, matrix, np.ones(grid.n_nodes, dtype=complex), "test")
        solves = count_solves(monkeypatch)
        u, z = _dtn_responses(3, matrix, np.zeros(grid.n_nodes, dtype=complex), "test")
        assert solves == [2]
        assert u.tobytes() == np.zeros(grid.n_nodes, dtype=complex).tobytes()
        assert z.tobytes() == z_loaded.tobytes()


class TestEndRows:
    """The level kernel's end values (A^{-1} f)[ends], taken from its exterior gains, against
    the end rows of the closed-form inverse."""

    @pytest.mark.parametrize("M, k", [(0.3, 5.0), (0.6, 20.0), (0.0, 5.0), (0.9, 5.0)])
    def test_matches_the_closed_form_inverse(self, M, k):
        # every R shape, so both gains and a gain of 1 (lo = 0, hi = N); one level by
        # segment, one by seed.  a = A^{-1} f solved in float64 is within tol = 8 eps cond
        # max(|B| |L| |s|^T) of B f (B R's exact columns), and the rows 0 and N of B f
        # are the ends
        cfg = DuctConfig(d=1.0, M=M, k=k, x_minus=-1.0, x_plus=1.0, L=2.0)
        grid = omega_b_grid(cfg, default_delta(cfg))
        last = grid.n_nodes - 1
        w = _trapezoid_weights(grid)
        for shape in ("interior", "left-end", "right-end", "whole"):
            lo, hi = TestRangeSolve.node_range(shape, last)
            maps, segs, levels = level_loads(hi - lo + 1, (False, True, False), 31)
            for n in range(0, default_n_modes(cfg), 3):
                matrix = mode_matrix(n, cfg, grid, DTN)
                inverse = dtn_inverse(*matrix, cols=np.r_[0, lo : hi + 1, last])
                z, inverse = inverse[:, [0, -1]], inverse[:, 1:-1]
                *_, ends = _level_terms(n, matrix, lo, hi, w, z, levels, "test")
                tol = 8 * np.finfo(float).eps * condition_estimate(n, cfg, grid)
                for j, (m, s) in enumerate(zip(maps[1:], segs[1:])):
                    exact = inverse[[0, -1]] @ (m @ s.T)
                    bound = tol * np.max(np.abs(inverse) @ (np.abs(m) @ np.abs(s).T))
                    got = ends[:, j * len(s) : (j + 1) * len(s)]
                    assert np.max(np.abs(got - exact)) <= bound


class TestRangeSolve:
    """The per-mode norm kernel and its range solve against full DtN solves."""

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
        # one level by segment, f = L s^T (2 segments, 3 seeds), and the reference by seed,
        # f_ref = f - r = [L | r] [s | -I]^T (5 columns)
        m, s = rng.standard_normal((hi - lo + 1, 2)), rng.standard_normal((3, 2))
        f_lv = np.zeros((grid.n_nodes, 3))
        f_lv[lo : hi + 1] = m @ s.T
        levels = [(np.hstack([m, r]), np.hstack([s, -np.eye(3)])), (m, s)]
        for n in range(default_n_modes(cfg)):
            matrix = mode_matrix(n, cfg, grid, DTN)
            tol = max(1e-12, np.finfo(float).eps * condition_estimate(n, cfg, grid))
            b_full = refined_solve(matrix, matrix, loads)
            z_full = refined_solve(matrix, matrix, ends)
            u_full = refined_solve(matrix, matrix, det[:, None])[:, 0]
            b, g_lo, g_hi = _range_solve(n, matrix, lo, hi, r, "test")
            assert g_lo.shape == (lo,) and g_hi.shape == (last - hi,)
            self.assert_close(b, b_full[lo : hi + 1], tol)
            self.assert_close(np.outer(g_lo, b[0]), b_full[:lo], tol)
            self.assert_close(np.outer(g_hi, b[-1]), b_full[hi + 1 :], tol)
            u, z = _dtn_responses(n, matrix, det, "test")
            self.assert_close(z, z_full, tol)
            self.assert_close(u, u_full, tol)
            # the level kernel on r = f - f_ref, f solved by segment and f_ref by seed
            b_norm2, zwb, f_ends = _level_terms(n, matrix, lo, hi, w, z, levels, "test")
            self.assert_close(b_norm2, w @ np.abs(b_full) ** 2, tol)
            self.assert_close(zwb, z_full.conj().T @ (w[:, None] * b_full), tol)
            self.assert_close(f_ends, refined_solve(matrix, matrix, f_lv)[[0, -1]], tol)

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


class TestUnitGram:
    """The h study's Gram kernel and the total study's level kernel, both solved on R alone,
    against the closed-form inverse."""

    @staticmethod
    def assert_gram(M, k, shape, loads):
        # S = A^{-1} X = B X for the real loads X = loads(|R|), B R's columns of the exact
        # inverse: each entry of S solved in float64 is within tol = 8 eps cond max(|B| |X|),
        # so G = Re(S^H W S) is within 2 tol max_j ||s_j||_{W,1}
        cfg = DuctConfig(d=1.0, M=M, k=k, x_minus=-1.0, x_plus=1.0, L=2.0)
        grid = omega_b_grid(cfg, default_delta(cfg))
        last = grid.n_nodes - 1
        lo, hi = TestRangeSolve.node_range(shape, last)
        w = _trapezoid_weights(grid)
        x = loads(hi - lo + 1)
        for n in range(0, default_n_modes(cfg), 3):
            matrix = mode_matrix(n, cfg, grid, DTN)
            b = dtn_inverse(*matrix, cols=np.r_[lo : hi + 1])
            s = b @ x
            g = _gram(n, matrix, lo, hi, w, x, "test")
            tol = (8 * np.finfo(float).eps * condition_estimate(n, cfg, grid)
                   * np.max(np.abs(b) @ np.abs(x)))
            exact_g = (s.conj().T @ (w[:, None] * s)).real
            assert np.max(np.abs(g - exact_g)) <= 2 * tol * np.max(w @ np.abs(s))

    @pytest.mark.parametrize("shape", ["interior", "left-end", "right-end"])
    @pytest.mark.parametrize("M, k", [(0.3, 5.0), (0.6, 20.0), (0.0, 5.0), (0.9, 5.0)])
    def test_matches_the_closed_form_inverse(self, M, k, shape):
        # the unit basis, X = I_R: S is R's columns of the inverse
        self.assert_gram(M, k, shape, np.eye)

    @pytest.mark.parametrize("shape", ["interior", "left-end", "right-end", "whole"])
    @pytest.mark.parametrize("M, k", [(0.3, 5.0), (0.6, 20.0), (0.0, 5.0), (0.9, 5.0)])
    def test_load_basis_matches_the_closed_form_inverse(self, M, k, shape):
        # nonnegative loads, as the reference basis X = L_ref has
        self.assert_gram(M, k, shape, lambda rows: np.random.default_rng(31).random((rows, 9)))

    @staticmethod
    def assert_level_terms(M, k, shape, by_segment, monkeypatch):
        # b = B (f - f_ref), B R's exact columns; each A^{-1} f solved in float64 is within
        # 8 eps cond max(|B| |L| |s|^T) of B f, so b is within tol, that bound of a level's
        # loads plus the reference's: ||b||^2_W within 2 tol max_j ||b_j||_{W,1} and Z^H W b
        # (Z exact) within tol max ||z||_{W,1}
        cfg = DuctConfig(d=1.0, M=M, k=k, x_minus=-1.0, x_plus=1.0, L=2.0)
        grid = omega_b_grid(cfg, default_delta(cfg))
        last = grid.n_nodes - 1
        lo, hi = TestRangeSolve.node_range(shape, last)
        w = _trapezoid_weights(grid)
        maps, segs, levels = level_loads(hi - lo + 1, by_segment, 29)
        # the kernel's one range solve takes a level's map or its loads
        route = np.hstack([m if by_seg else m @ s.T
                           for m, s, by_seg in zip(maps, segs, by_segment)])
        loads = range_solve_loads(monkeypatch)
        f = [m @ s.T for m, s in zip(maps, segs)]
        r = np.hstack([f_lv - f[0] for f_lv in f[1:]])
        abs_f = [np.abs(m) @ np.abs(s).T for m, s in zip(maps, segs)]
        abs_r = np.hstack([a + abs_f[0] for a in abs_f[1:]])
        for n in range(0, default_n_modes(cfg), 3):
            matrix = mode_matrix(n, cfg, grid, DTN)
            inverse = dtn_inverse(*matrix, cols=np.r_[0, lo : hi + 1, last])
            z, b = inverse[:, [0, -1]], inverse[:, 1:-1] @ r
            b_norm2, zwb, _ = _level_terms(n, matrix, lo, hi, w, z, levels, "test")
            assert loads.pop().tobytes() == route.tobytes()
            tol = (8 * np.finfo(float).eps * condition_estimate(n, cfg, grid)
                   * np.max(np.abs(inverse[:, 1:-1]) @ abs_r))
            exact_norm2 = w @ (b.real ** 2 + b.imag ** 2)
            assert np.max(np.abs(b_norm2 - exact_norm2)) <= 2 * tol * np.max(w @ np.abs(b))
            exact_zwb = z.conj().T @ (w[:, None] * b)
            assert np.max(np.abs(zwb - exact_zwb)) <= tol * np.max(w @ np.abs(z))

    @pytest.mark.parametrize("shape", ["interior", "left-end", "right-end"])
    @pytest.mark.parametrize("M, k", [(0.3, 5.0), (0.6, 20.0), (0.0, 5.0), (0.9, 5.0)])
    def test_direct_route_matches_the_closed_form_inverse(self, M, k, shape, monkeypatch):
        # every level solved by seed: the level kernel solves the loads themselves
        self.assert_level_terms(M, k, shape, (False, False, False), monkeypatch)

    @pytest.mark.parametrize("by_segment", [(True, True, True), (True, False, True),
                                            (False, True, True)],
                             ids=["all-segments", "mixed", "reference-by-seed"])
    @pytest.mark.parametrize("shape", ["interior", "left-end", "right-end", "whole"])
    @pytest.mark.parametrize("M, k", [(0.3, 5.0), (0.6, 20.0), (0.0, 5.0), (0.9, 5.0)])
    def test_segment_route_matches_the_closed_form_inverse(self, M, k, shape, by_segment,
                                                          monkeypatch):
        self.assert_level_terms(M, k, shape, by_segment, monkeypatch)


def level_loads(rows: int, by_segment, seed: int, seeds: int = 4):
    """Random levels (L, s) for ``_level_terms`` on ``rows`` nodes, the first the reference:
    maps L (rows, segments) and segment values s (seeds, segments).  Where ``by_segment``
    a level has fewer segments than the 4 seeds (3, 2 and 1), so the kernel solves it by
    segment, else at least as many (6, 4 and 5), so it solves it by seed."""
    rng = np.random.default_rng(seed)
    counts = [(3, 2, 1)[i] if by_seg else (6, 4, 5)[i] for i, by_seg in enumerate(by_segment)]
    maps = [rng.standard_normal((rows, c)) for c in counts]
    segs = [rng.standard_normal((seeds, c)) for c in counts]
    return maps, segs, list(zip(maps, segs))


def range_solve_loads(monkeypatch):
    """A list that grows by one entry at every ``_range_solve`` call of the harness: the
    call's right-hand sides."""
    loads = []
    range_solve = harness._range_solve

    def recorded(n, matrix, lo, hi, rhs, stage):
        loads.append(rhs)
        return range_solve(n, matrix, lo, hi, rhs, stage)

    monkeypatch.setattr(harness, "_range_solve", recorded)
    return loads


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
    # a deeply evanescent mode: c_L near 1e-153, its Gram term 8.3e-311 (subnormal)
    @example(M=0.945, k=20.0, L=4.0, L2=4.0, sigma_plus=1.0, sigma_minus=1.0, dn=1, seed=0)
    # the first subnormal case drawn (k = 1, mode n0): c_L near 1e-158
    @example(M=0.945, k=1.0, L=1.0, L2=1.0, sigma_plus=1.0, sigma_minus=1.0, dn=0, seed=0)
    def test_matches_direct_reduced_solves(
        self, M, k, L, L2, sigma_plus, sigma_minus, dn, seed
    ):
        # the study grid: spacing from the base configuration (L = 2), two
        # layer lengths and a batch of two modes in one call; propagating and
        # evanescent modes alike
        base = DuctConfig(d=1.0, M=M, k=k, x_minus=-1.0, x_plus=1.0, L=2.0)
        k0, n0 = cutoff_numbers(base)
        assume(all(abs(k0 - m) > 1e-6 * k0 for m in range(1, n0 + 4)))  # off cutoff
        modes = [max(0, n0 + dn), max(0, n0 + dn) + 1]
        grid = omega_b_grid(base, default_delta(base))
        cfgs = [replace(base, L=L), replace(base, L=L2)]
        rng = np.random.default_rng(seed)
        loads = rng.standard_normal((grid.n_nodes, 3)) + 1j * rng.standard_normal((grid.n_nodes, 3))
        w = _trapezoid_weights(grid)
        profile = PmlProfile(sigma_plus, sigma_minus)
        gaps = _layer_gaps(cfgs, profile, modes[-1] + 1)[modes]
        # b = u = A_dtn^{-1} loads, three columns, and the terms of each mode from it
        terms = []
        for n in modes:
            matrix = mode_matrix(n, base, grid, DTN)
            _, z = _dtn_responses(n, matrix, np.zeros(grid.n_nodes), "test")
            u, wz = _solve_tridiag(*matrix, loads), w[:, None] * z
            terms.append((w @ np.abs(u) ** 2, wz.conj().T @ u, u[[0, -1]], z[[0, -1]],
                          z.conj().T @ wz))
        layers = list(_layer_coefficients(cfgs, gaps, modes, terms, "test"))
        assert len(layers) == 2
        for j, (cfg, (coeffs, cross, quad)) in enumerate(zip(cfgs, layers)):
            assert coeffs.shape == (2, 2, 3) and cross.shape == quad.shape == (2, 3)
            for i, n in enumerate(modes):
                matrix = mode_matrix(n, base, grid, DTN)
                _, z = _dtn_responses(n, matrix, np.zeros(grid.n_nodes), "test")
                u = _solve_tridiag(*matrix, loads)
                c = coeffs[i]
                # the Gram forms c_L^H (Z^H W Z) c_L and Re(c_L^H Z^H W u) against the
                # W-products of the formed Z c_L, to roundoff of the norms of their
                # terms; a deeply evanescent mode can leave c_L near 1e-158, whose
                # squares are subnormal, where each of the O(n_nodes) products also
                # errs by up to half the smallest subnormal in absolute terms (and
                # 1e-13 * scale underflows to 0)
                zc_norm = np.abs(c.T) @ np.sqrt(w @ np.abs(z) ** 2)
                underflow = 4 * grid.n_nodes * np.finfo(float).smallest_subnormal
                assert np.all(np.abs(quad[i] - w @ np.abs(z @ c) ** 2)
                              <= 1e-13 * zc_norm ** 2 + underflow)
                direct = np.real(w @ ((z @ c).conj() * u))
                scale = zc_norm * np.sqrt(w @ np.abs(u) ** 2)
                assert np.all(np.abs(cross[i] - direct) <= 1e-13 * scale + underflow)
                expected = reduced_oracle(n, cfg, grid, profile, loads)
                rel = float(np.max(np.abs(u - z @ c - expected)) / np.max(np.abs(expected)))
                # the update is as accurate as the DtN solve, times the condition
                # of its 2x2 system S_L (at most a few hundred away from resonances)
                d = 1j * cfg.one_minus_m2 * np.array([-nu_gap(n, "-", profile, cfg),
                                                      nu_gap(n, "+", profile, cfg)])
                np.testing.assert_allclose(gaps[i, j], d, rtol=1e-15)  # the array gap
                s_l = np.eye(2) + d[:, None] * z[[0, -1]]
                cond = np.linalg.cond(s_l / np.max(np.abs(s_l), axis=1, keepdims=True))
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
            sub, diag, sup = mode_matrix(0, c, grid, PML_REDUCED, PmlProfile(0.0))
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
            solve_full(cfg_off, src, PML_REDUCED, grid, 1, PmlProfile(0.0)),
            solve_full(cfg, src, DTN, grid, 1),
        )
        assert res.error_mean[0] == pytest.approx(direct, rel=1e-9)

    def test_singular_dtn_solve_names_the_mode(self, monkeypatch):
        singular_mode(monkeypatch, 2)
        cfg = make_cfg(L=2.0)
        # both routes of the norm kernel solve on R and meet the exterior block first
        with pytest.raises(DomainError, match=r"^h study, mode n=2, side -: exterior block: "
                                              r"singular mode system"):
            run_h_study(cfg, None, [1 / 4, 1 / 8], 4, 0, n_modes=4)
        with pytest.raises(DomainError, match=r"^L study, mode n=2: singular mode system"):
            run_L_study(cfg, [0.5, 1.0], 5.0, n_modes=4)
        with pytest.raises(DomainError, match=r"^total study, mode n=2: singular mode system"):
            run_total_error_study(cfg, [1 / 4, 1 / 8], [1.0], 5.0, 4, 0, n_modes=4)

    @staticmethod
    def make_singular(monkeypatch, cfg, failing):
        """Patch ``_layer_gaps`` so that S_L is exactly singular for each mode of
        failing at its layer indices (on the 1/20 grid): D_L = diag(-1/Z[0, 0], 0),
        so det S_L = 1 + D_L[0, 0] Z[0, 0] vanishes."""
        grid = omega_b_grid(cfg, 1 / 20)
        layer_gaps = harness._layer_gaps

        def singular_gaps(cfgs, profile, n_modes):
            gaps = layer_gaps(cfgs, profile, n_modes)
            for n, js in failing.items():
                matrix = mode_matrix(n, cfg, grid, DTN)
                _, z = _dtn_responses(n, matrix, np.zeros(grid.n_nodes), "test")
                gaps[n, js] = (-1.0 / z[0, 0], 0.0)
            return gaps

        monkeypatch.setattr(harness, "_layer_gaps", singular_gaps)

    def test_guard_names_the_mode_not_its_row(self, monkeypatch):
        # the source loads modes 1 and 3 alone; mode 3 fails the guard at L = 0.75, and
        # mode 0, never solved, would fail it at L = 0.5: the error names mode 3
        cfg = make_cfg(L=2.0)
        src = [ModeBoxSource(mode=m, x_lo=-0.5, x_hi=0.5) for m in (1, 3)]
        self.make_singular(monkeypatch, cfg, {0: (0,), 3: (1,)})
        with pytest.raises(DomainError, match=r"^L study, mode n=3, side\(s\) -, L=0\.75: "
                                              r"rank-2 layer update has condition "):
            run_L_study(cfg, [0.5, 0.75, 1.0], 5.0, source=src, delta=1 / 20, n_modes=5)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_guard_names_the_lowest_mode_and_its_first_length(self, threads, monkeypatch):
        """Modes 1 and 3 fail the guard, each at two layer lengths, mode 3 first; the
        error names mode 1 and its first failing L in both layer studies.  The layer
        update runs once over the solved modes after the per-mode stage (DtN solves
        and norms), so a mode whose DtN solve is singular fails first, even above
        them.  The L study solves only the modes its source loads: here 0 to 4."""
        cfg = make_cfg(L=2.0)
        l_values = [0.5, 0.75, 1.0, 1.25]
        src = [ModeBoxSource(mode=m, x_lo=-0.5, x_hi=0.5) for m in range(5)]
        self.make_singular(monkeypatch, cfg, {3: (0, 2), 1: (1, 3)})
        message = r"mode n=1, side\(s\) -, L=0\.75: rank-2 layer update has condition "
        with pytest.raises(DomainError, match=r"^L study, " + message):
            run_L_study(cfg, l_values, 5.0, source=src, delta=1 / 20, n_modes=5)
        with pytest.raises(DomainError, match=r"^total study, " + message):
            run_total_error_study(cfg, [1 / 4, 1 / 8], l_values, 5.0, 4, 0, delta=1 / 20,
                                  n_modes=5, threads=threads)
        singular_mode(monkeypatch, 4)
        with pytest.raises(DomainError, match=r"^L study, mode n=4: singular mode system"):
            run_L_study(cfg, l_values, 5.0, source=src, delta=1 / 20, n_modes=5)
        with pytest.raises(DomainError, match=r"^total study, mode n=4: singular mode system"):
            run_total_error_study(cfg, [1 / 4, 1 / 8], l_values, 5.0, 4, 0, delta=1 / 20,
                                  n_modes=5, threads=threads)

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
            prof = PmlProfile(sigma)
            direct = l2_error(solve_full(cfg_l, src, PML_REDUCED, grid, 16, prof), dtn)
            assert res.error_mean[0] == pytest.approx(direct, rel=1e-10)


def complex_profile(x):
    """exp(2i x1) cos^2(pi x1) on [-1/2, 1/2]: a complex axial load profile."""
    return np.exp(2j * x) * np.cos(np.pi * x) ** 2 if abs(x) <= 0.5 else 0.0


class TestLStudyOracle:
    """run_L_study against direct per-L reduced solves."""

    CASES = {
        "criterion-9": dict(sigma_plus=5.0, sigma_minus=None, source=None),
        "asymmetric": dict(
            sigma_plus=2.0,
            sigma_minus=30.0,
            source=[ModeBoxSource(mode=m, x_lo=-0.5, x_hi=0.5) for m in range(6)],
        ),
        # a complex load, so a complex DtN solution u
        "complex-load": dict(
            sigma_plus=5.0,
            sigma_minus=None,
            source=ModalFunctionSource(mode=2, x_lo=-0.5, x_hi=0.5, fn=complex_profile),
        ),
        # the same load on the propagating mode 1, the worst-conditioned one
        "complex-load-mode-1": dict(
            sigma_plus=5.0,
            sigma_minus=None,
            source=ModalFunctionSource(mode=1, x_lo=-0.5, x_hi=0.5, fn=complex_profile),
        ),
    }
    L_VALUES = [0.5, 1.0, 1.5, 2.0]

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_solve_full_and_l2_error(self, case):
        # direct reduced solve minus direct DtN solve: that difference keeps
        # the absolute roundoff of two separate solves, up to eps * cond *
        # dtn_norm with cond the largest condition of the loaded modes'
        # matrices, so entries far below the norm carry it as well
        cfg = make_cfg(L=2.0)
        kw = self.CASES[case]
        res = run_L_study(cfg, self.L_VALUES, kw["sigma_plus"], source=kw["source"],
                          sigma_minus=kw["sigma_minus"])
        source = kw["source"] or default_l_study_source(cfg)
        modes = {part.mode for part in (source if isinstance(source, list) else [source])}
        grid = omega_b_grid(cfg, default_delta(cfg))
        dtn = solve_full(cfg, source, DTN, grid)
        zero = replace(dtn, values=np.zeros_like(dtn.values))
        assert res.extra["dtn_norm"] == pytest.approx(l2_error(dtn, zero), rel=1e-13)
        cond_dtn = max(condition_estimate(n, cfg, grid) for n in modes)
        for L, err in zip(self.L_VALUES, res.error_mean):
            cfg_l = replace(cfg, L=L)
            prof = PmlProfile(kw["sigma_plus"], kw["sigma_minus"])
            direct = l2_error(solve_full(cfg_l, source, PML_REDUCED, grid, None, prof), dtn)
            cond = max([cond_dtn] + [condition_estimate(n, cfg_l, grid, PML_REDUCED, prof)
                                     for n in modes])
            roundoff = np.finfo(float).eps * cond * res.extra["dtn_norm"]
            assert abs(err - direct) <= 1e-12 * direct + roundoff

    @pytest.mark.parametrize("case, solves", [("criterion-9", 1), ("asymmetric", 6)])
    def test_one_solve_per_loaded_mode(self, case, solves, monkeypatch):
        # criterion 9's box loads mode 2 of 31, the asymmetric source modes 0 to 5:
        # one three-column DtN solve each, none for the modes left unloaded
        count = count_solves(monkeypatch)
        kw = self.CASES[case]
        run_L_study(make_cfg(L=2.0), self.L_VALUES, kw["sigma_plus"], source=kw["source"],
                    sigma_minus=kw["sigma_minus"])
        assert len(count) == solves

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
            prof = PmlProfile(kw["sigma_plus"], kw["sigma_minus"])
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
