import ctypes
import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import zgtsv as scipy_zgtsv

from ductpml import DuctConfig, solver
from ductpml.duct import axial_wavenumbers64, cutoff_numbers, default_n_modes, mode_shape
from ductpml.errors import ConfigError, DomainError, GridMismatchError
from ductpml.greens import _mode_block, _strip_integrals
from ductpml.noise import (
    ModalFunctionSource,
    ModeBoxSource,
    build_mesh,
    noise_modal_matrix,
    sample,
)
from ductpml.pml import PmlProfile
from ductpml.solver import (
    Grid1D,
    ModalSolution,
    _solve_tridiag,
    assemble_field,
    default_delta,
    modal_loads,
    omega_b_grid,
    omega_full_grid,
    piecewise_load_matrix,
    mode_matrix,
    solve_full,
)
from oracles import (
    banded_solve,
    condition_estimate,
    dtn_inverse,
    l2_error,
    stretched_element_bands,
)


def make_cfg(M=0.3, k=5.0, L=1.0):
    return DuctConfig(d=1.0, M=M, k=k, x_minus=-1.0, x_plus=1.0, L=L)


def grid_for(formulation, cfg, delta):
    """Enlarged-interval grid for the full layer, computational otherwise."""
    if formulation == "pml_full":
        return omega_full_grid(cfg, delta)
    return omega_b_grid(cfg, delta)


def oracle_box_solution(n, cfg, grid, x_lo=-0.25, x_hi=0.25, amp=1.0):
    """Exact single-mode response to a box source via the outgoing kernel."""
    modes = _mode_block(cfg, n, n + 1)
    edges = np.array([x_lo, x_hi])
    return np.array(
        [amp * modes[0][0] * _strip_integrals(modes, edges, x1)[0, 0] for x1 in grid.nodes()]
    )


class Bump:
    """Smooth compactly supported bump with analytic derivatives."""

    def __init__(self, center=0.1, width=0.45):
        self.c = center
        self.w = width

    def _t(self, x):
        return (x - self.c) / self.w

    def value(self, x):
        t = self._t(x)
        if abs(t) >= 1.0:
            return 0.0
        return math.exp(-1.0 / (1.0 - t * t))

    def d1(self, x):
        t = self._t(x)
        if abs(t) >= 1.0:
            return 0.0
        s1 = -2.0 * t / (1.0 - t * t) ** 2
        return self.value(x) * s1 / self.w

    def d2(self, x):
        t = self._t(x)
        if abs(t) >= 1.0:
            return 0.0
        u = 1.0 - t * t
        s1 = -2.0 * t / u ** 2
        s2 = (-2.0 * u - 8.0 * t * t) / u ** 3
        return self.value(x) * (s1 * s1 + s2) / (self.w * self.w)


def manufactured_source(n, cfg, bump):
    """f_n = (1-M^2) p'' + 2ikM p' + (k^2 - n^2 pi^2/d^2) p for p = bump."""
    gamma = cfg.k ** 2 - (n * math.pi / cfg.d) ** 2

    def fn(x):
        return (
            cfg.one_minus_m2 * bump.d2(x)
            + 2j * cfg.k * cfg.M * bump.d1(x)
            + gamma * bump.value(x)
        )

    return ModalFunctionSource(mode=n, fn=fn, x_lo=bump.c - bump.w, x_hi=bump.c + bump.w)


class TestGrid:
    def test_minimum_cells(self):
        with pytest.raises(ConfigError):
            Grid1D(0.0, 1.0, 4)

    def test_default_delta(self):
        cfg = make_cfg()
        assert default_delta(cfg) == pytest.approx(min(1 / 80, 1 / 64))

    @pytest.mark.parametrize("delta", [0.0, -0.1, math.nan, math.inf])
    @pytest.mark.parametrize("builder", [omega_b_grid, omega_full_grid])
    def test_bad_spacing_is_config_error(self, builder, delta):
        # -0.1 and inf used to build 8 cells, 0 to raise ZeroDivisionError, nan numpy's ValueError
        with pytest.raises(ConfigError, match=r"^grid spacing delta must be finite and > 0"):
            builder(make_cfg(), delta)

    def test_full_grid_alignment_required(self):
        cfg = DuctConfig(d=1.0, M=0.0, k=5.0, x_minus=-1.0, x_plus=1.0, L=0.957)
        with pytest.raises(ConfigError):
            omega_full_grid(cfg, 1 / 16)

    def test_default_full_grid_aligns_the_layer(self):
        # default spacing 1/112 gives 224 interior cells, 145.6 per layer;
        # 240 is the first count >= 224 with a whole number (156) per layer
        cfg = DuctConfig(d=1.0, M=0.3, k=7.0, x_minus=-1.0, x_plus=1.0, L=1.3)
        with pytest.raises(ConfigError, match="integer multiple"):
            omega_full_grid(cfg, default_delta(cfg))
        grid = omega_full_grid(cfg)
        assert grid.n_cells == 240 + 2 * 156
        assert (grid.x_start, grid.x_end) == (-2.3, 2.3)
        nodes = grid.nodes()
        assert np.isclose(nodes[156], cfg.x_minus, atol=1e-12)
        assert np.isclose(nodes[156 + 240], cfg.x_plus, atol=1e-12)

    def test_default_full_grid_unchanged_when_already_aligned(self):
        cfg = make_cfg()
        assert omega_full_grid(cfg) == omega_full_grid(cfg, default_delta(cfg))

    def test_default_full_grid_search_is_bounded(self):
        cfg = DuctConfig(d=1.0, M=0.0, k=5.0, x_minus=-1.0, x_plus=1.0, L=math.sqrt(2.0))
        with pytest.raises(ConfigError, match="any interior cell count from 160 to 320"):
            omega_full_grid(cfg)


class Drawn:
    """A stand-in for ``st.data()`` in an ``@example``, which Hypothesis cannot fill:
    ``draw`` returns the given value whatever the strategy."""

    def __init__(self, value):
        self.value = value

    def draw(self, strategy):
        return self.value


class TestLoads:
    def test_piecewise_matrix_total_mass(self):
        grid = Grid1D(-1.0, 1.0, 64)
        breaks = np.array([-0.63, -0.2, 0.44])
        mat = piecewise_load_matrix(grid, breaks)
        # hat functions partition unity: column sums equal segment lengths
        np.testing.assert_allclose(mat.sum(axis=0), np.diff(breaks), atol=1e-14)

    def test_segments_clipped_to_grid(self):
        grid = Grid1D(-1.0, 1.0, 16)
        mat = piecewise_load_matrix(grid, np.array([-2.0, 0.0]))
        assert mat.sum(axis=0)[0] == pytest.approx(1.0)

    @settings(max_examples=150, deadline=None)
    @given(
        x_start=st.floats(-2.0, 1.0),
        length=st.floats(0.25, 4.0),
        n_cells=st.integers(8, 1280),
        data=st.data(),
    )
    # on [-1, 1] with 16 cells: breaks on nodes (both ends among them), a repeated break
    # (an empty segment), and breaks wholly left or right of the grid (no load at all)
    @example(x_start=-1.0, length=2.0, n_cells=16, data=Drawn([-1.0, -0.5, 0.25, 1.0]))
    @example(x_start=-1.0, length=2.0, n_cells=16, data=Drawn([-0.3, 0.1, 0.1, 0.6]))
    @example(x_start=-1.0, length=2.0, n_cells=16, data=Drawn([-3.0, -2.0, -1.25]))
    @example(x_start=-1.0, length=2.0, n_cells=16, data=Drawn([1.5, 3.0]))
    def test_matches_the_double_loop(self, x_start, length, n_cells, data):
        grid = Grid1D(x_start, x_start + length, n_cells)
        nodes = grid.nodes()
        on_node = st.integers(0, n_cells).map(lambda i: nodes[i])
        sub_cell = st.tuples(st.integers(0, n_cells - 1), st.floats(0.0, 1.0)).map(
            lambda t: nodes[t[0]] + t[1] * grid.delta
        )
        anywhere = st.floats(x_start - length, x_start + 2.0 * length)
        breaks = np.sort(
            data.draw(st.lists(st.one_of(on_node, sub_cell, anywhere), min_size=2, max_size=40))
        )
        got = piecewise_load_matrix(grid, breaks)
        want = loop_load_matrix(grid, breaks)
        scale = np.max(np.abs(want), axis=0)
        assert np.all(np.abs(got - want) <= 1e-12 * scale)


def loop_load_matrix(grid, breaks):
    """Segment-to-hat matrix by a double loop over segments and cells."""
    nodes = grid.nodes()
    dx = grid.delta
    out = np.zeros((grid.n_nodes, len(breaks) - 1))
    for j in range(len(breaks) - 1):
        s = max(float(breaks[j]), grid.x_start)
        e = min(float(breaks[j + 1]), grid.x_end)
        if e <= s:
            continue
        ie_lo = min(max(int((s - grid.x_start) / dx), 0), grid.n_cells - 1)
        ie_hi = min(max(int(math.ceil((e - grid.x_start) / dx)) - 1, ie_lo), grid.n_cells - 1)
        for ei in range(ie_lo, ie_hi + 1):
            lo = max(s, nodes[ei])
            hi = min(e, nodes[ei + 1])
            if hi <= lo:
                continue
            width = hi - lo
            out[ei, j] += width * ((nodes[ei + 1] - lo) + (nodes[ei + 1] - hi)) / (2.0 * dx)
            out[ei + 1, j] += width * ((lo - nodes[ei]) + (hi - nodes[ei])) / (2.0 * dx)
    return out


class TestModalLoads:
    def setup_method(self):
        self.cfg = make_cfg()
        self.grid = Grid1D(-1.0, 1.0, 64)

    def test_box_source_fills_one_row(self):
        box = ModeBoxSource(mode=2, x_lo=-0.3, x_hi=0.2, amplitude=3.0)
        loads = modal_loads(box, self.cfg, self.grid, 5)
        column = piecewise_load_matrix(self.grid, np.array([-0.3, 0.2]))[:, 0]
        assert loads.shape == (5, self.grid.n_nodes)
        assert np.array_equal(loads[2], 3.0 * column)
        assert not np.any(np.delete(loads, 2, axis=0))
        # a mode the requested block does not reach is ignored
        assert not np.any(modal_loads(box, self.cfg, self.grid, 2))
        assert not np.any(modal_loads(ModeBoxSource(-1, -0.3, 0.2), self.cfg, self.grid, 5))

    def test_noise_rows_are_segment_loads(self):
        r = sample(build_mesh((-0.5, 0.5, 0.25, 0.75), 0.1, 2), 3)
        breaks, values = noise_modal_matrix(r, 6, self.cfg)
        want = piecewise_load_matrix(self.grid, breaks) @ values.T
        got = modal_loads(r, self.cfg, self.grid, 6)
        np.testing.assert_allclose(got, want.T, rtol=0, atol=1e-13 * np.max(np.abs(want)))

    def test_cubic_function_matches_exact_hat_moments(self):
        # 4-point Gauss is exact for a cubic times a hat when the support
        # ends on nodes; fn must still be called one point at a time
        poly = np.polynomial.Polynomial([1.0, 1.0, -2.0, 1.0])
        x_lo, x_hi = -0.375, 0.25

        def fn(x):
            assert np.ndim(x) == 0
            return poly(x) if x_lo <= x <= x_hi else 0.0

        src = ModalFunctionSource(mode=1, fn=fn, x_lo=x_lo, x_hi=x_hi)
        got = modal_loads(src, self.cfg, self.grid, 3)
        nodes = self.grid.nodes()
        dx = self.grid.delta
        want = np.zeros(self.grid.n_nodes)
        for i in range(self.grid.n_cells):
            a, b = nodes[i], nodes[i + 1]
            if a < x_lo - 1e-12 or b > x_hi + 1e-12:
                continue
            left = (poly * np.polynomial.Polynomial([b, -1.0]) / dx).integ()
            right = (poly * np.polynomial.Polynomial([-a, 1.0]) / dx).integ()
            want[i] += left(b) - left(a)
            want[i + 1] += right(b) - right(a)
        np.testing.assert_allclose(got[1], want, rtol=0, atol=1e-14)
        assert not np.any(got[[0, 2]])

    def test_list_is_the_sum_of_its_members(self):
        members = [
            ModeBoxSource(mode=1, x_lo=-0.1, x_hi=0.1),
            sample(build_mesh((-0.4, 0.4, 0.2, 0.8), 0.3, 1), 0),
            ModalFunctionSource(mode=1, fn=lambda x: math.cos(x), x_lo=-0.5, x_hi=0.5),
        ]
        want = sum(modal_loads(m, self.cfg, self.grid, 4) for m in members)
        for src in (members, tuple(members)):
            got = modal_loads(src, self.cfg, self.grid, 4)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-15 * np.max(np.abs(want)))

    @pytest.mark.parametrize("source", [object(), [ModeBoxSource(0, -0.1, 0.1), "box"]])
    def test_unknown_type_rejected(self, source):
        with pytest.raises(ConfigError, match="unsupported source"):
            modal_loads(source, self.cfg, self.grid, 2)


class TestModeSolves:
    @pytest.mark.parametrize("formulation", ["dtn", "pml_reduced", "pml_full"])
    def test_zero_source_gives_zero(self, formulation):
        cfg = make_cfg()
        grid = grid_for(formulation, cfg, 1 / 64)
        profile = PmlProfile(5.0)
        zero = ModeBoxSource(mode=9, x_lo=-0.1, x_hi=0.1, amplitude=0.0)
        assert np.all(solve_full(cfg, zero, formulation, grid, 2, profile).values[1] == 0.0)

    @pytest.mark.parametrize("n", [0, 1, 2, 4])
    def test_dtn_matches_kernel_oracle(self, n):
        cfg = make_cfg()
        box = ModeBoxSource(mode=n, x_lo=-0.25, x_hi=0.25)
        errs = []
        for cells in (256, 512, 1024):
            grid = Grid1D(cfg.x_minus, cfg.x_plus, cells)
            sol = solve_full(cfg, box, "dtn", grid, n + 1).values[n]
            exact = oracle_box_solution(n, cfg, grid)
            num = np.trapezoid(np.abs(sol - exact) ** 2, dx=grid.delta)
            den = np.trapezoid(np.abs(exact) ** 2, dx=grid.delta)
            errs.append(math.sqrt(num / den))
        assert errs[-1] < 1e-3  # delta = 1/512
        order = np.polyfit(np.log([256, 512, 1024]), np.log(errs), 1)[0]
        assert -order >= 1.9

    def test_outgoing_wave_content(self):
        # right of the source the solution must be outgoing: projecting on
        # exp(-ikx) (the incoming wave at M=0) leaves < 1e-3 relative
        cfg = make_cfg(M=0.0)
        box = ModeBoxSource(mode=0, x_lo=-0.25, x_hi=0.25)
        grid = Grid1D(cfg.x_minus, cfg.x_plus, 1024)
        sol = solve_full(cfg, box, "dtn", grid, 1).values[0]
        nodes = grid.nodes()
        window = (nodes >= 0.4) & (nodes <= 0.9)
        x = nodes[window]
        vals = sol[window]
        # joint least-squares split (the two windowed waves are not
        # orthogonal, so independent projections would cross-talk)
        basis = np.stack([np.exp(1j * cfg.k * x), np.exp(-1j * cfg.k * x)], axis=1)
        coeffs, *_ = np.linalg.lstsq(basis, vals, rcond=None)
        a_out, a_in = coeffs
        assert abs(a_in) / abs(a_out) < 1e-3

    def test_full_layer_dirichlet_ends(self):
        cfg = make_cfg()
        profile = PmlProfile(5.0)
        grid = omega_full_grid(cfg, 1 / 32)
        box = ModeBoxSource(mode=1, x_lo=-0.2, x_hi=0.2)
        sol = solve_full(cfg, box, "pml_full", grid, 2, profile).values[1]
        assert sol[0] == 0.0 and sol[-1] == 0.0

    def test_layer_decay_with_absorption_strength(self):
        cfg = make_cfg()
        peaks = []
        for sp in (1.0, 2.0, 4.0, 8.0):
            profile = PmlProfile(sp)
            grid = omega_full_grid(cfg, 1 / 64)
            box = ModeBoxSource(mode=0, x_lo=-0.2, x_hi=0.2)
            sol = solve_full(cfg, box, "pml_full", grid, 1, profile).values[0]
            nodes = grid.nodes()
            layer = nodes >= cfg.x_plus + 0.5 * cfg.L
            peaks.append(float(np.max(np.abs(sol[layer]))))
        assert all(b < a for a, b in zip(peaks, peaks[1:]))

    def test_evanescent_full_matches_dtn_without_absorption(self):
        # strongly evanescent mode dies before the outer wall, so even a
        # zero-absorption Dirichlet extension reproduces the exact solve
        cfg = make_cfg(L=1.0)
        profile = PmlProfile(0.0, 0.0)
        n = 5
        box = ModeBoxSource(mode=n, x_lo=-0.2, x_hi=0.2)
        gb = omega_b_grid(cfg, 1 / 128)
        gf = omega_full_grid(cfg, 1 / 128)
        dtn = solve_full(cfg, box, "dtn", gb, n + 1).values[n]
        full = solve_full(cfg, box, "pml_full", gf, n + 1, profile).values[n]
        i0 = round((cfg.x_minus - gf.x_start) / gf.delta)
        i1 = round((cfg.x_plus - gf.x_start) / gf.delta)
        rel = np.max(np.abs(full[i0 : i1 + 1] - dtn)) / np.max(np.abs(dtn))
        assert rel < 1e-6

    def test_reduced_approaches_dtn_for_thick_layer(self):
        cfg = make_cfg(L=8.0)
        profile = PmlProfile(500.0)
        grid = omega_b_grid(cfg, 1 / 64)
        box = ModeBoxSource(mode=1, x_lo=-0.2, x_hi=0.2)
        a = solve_full(cfg, box, "dtn", grid, 2).values[1]
        b = solve_full(cfg, box, "pml_reduced", grid, 2, profile).values[1]
        assert np.max(np.abs(a - b)) < 1e-10

    @pytest.mark.parametrize("formulation", ["dtn", "pml_reduced", "pml_full"])
    def test_manufactured_solution_order(self, formulation):
        cfg = make_cfg()
        profile = PmlProfile(5.0)
        bump = Bump()
        n = 1
        src = manufactured_source(n, cfg, bump)
        errs = []
        cells = (128, 256, 512)
        for nc in cells:
            grid = grid_for(formulation, cfg, 2.0 / nc)
            sol = solve_full(cfg, src, formulation, grid, n + 1, profile).values[n]
            nodes = grid.nodes()
            exact = np.array([bump.value(x) for x in nodes])
            errs.append(
                math.sqrt(np.trapezoid(np.abs(sol - exact) ** 2, dx=grid.delta))
            )
        order = np.polyfit(np.log(cells), np.log(errs), 1)[0]
        assert -order >= 1.9

    def test_robin_sign_is_the_outgoing_one(self, monkeypatch):
        # flipping the Robin coefficients to the incoming branch must ruin
        # the kernel-oracle agreement; guards the boundary-term sign
        cfg = make_cfg()
        n = 0
        box = ModeBoxSource(mode=0, x_lo=-0.25, x_hi=0.25)
        grid = Grid1D(cfg.x_minus, cfg.x_plus, 512)
        load = modal_loads(box, cfg, grid, 1)[n]
        good = _solve_tridiag(*mode_matrix(n, cfg, grid, "dtn"), load)
        # the dtn closure with beta^+ and beta^- swapped at the two ends
        monkeypatch.setattr(solver, "axial_wavenumbers64",
                            lambda n, cfg: axial_wavenumbers64(n, cfg)[::-1])
        flipped = _solve_tridiag(*mode_matrix(n, cfg, grid, "dtn"), load)
        exact = oracle_box_solution(n, cfg, grid)
        err_good = np.max(np.abs(good - exact))
        err_flip = np.max(np.abs(flipped - exact))
        assert err_good < 1e-3 * np.max(np.abs(exact))
        assert err_flip > 100 * err_good


class TestSolveFullAndFields:
    @pytest.mark.parametrize("formulation", ["dtn", "pml_reduced", "pml_full"])
    def test_rows_match_single_mode_solves(self, formulation):
        # solve_full builds each noise load matrix once for all modes; every
        # row must still be the solve of the same source with that mode last
        cfg = make_cfg()
        profile = PmlProfile(5.0)
        grid = grid_for(formulation, cfg, 1 / 32)
        mesh = build_mesh((-0.5, 0.5, 0.25, 0.75), 0.2, 2)
        src = [ModeBoxSource(mode=2, x_lo=-0.3, x_hi=0.2), sample(mesh, 5)]
        sol = solve_full(cfg, src, formulation, grid, 6, profile)
        for n in range(6):
            row = solve_full(cfg, src, formulation, grid, n + 1, profile).values[n]
            np.testing.assert_allclose(sol.values[n], row, rtol=1e-12, atol=0.0)

    def test_single_mode_source_decouples(self):
        cfg = make_cfg()
        grid = omega_b_grid(cfg, 1 / 32)
        sol = solve_full(cfg, ModeBoxSource(mode=1, x_lo=-0.2, x_hi=0.2), "dtn", grid, 6)
        energies = np.sum(np.abs(sol.values) ** 2, axis=1)
        assert energies[1] > 0.0
        others = np.delete(energies, 1)
        assert np.max(others) <= 1e-13 * energies[1]

    @pytest.mark.parametrize("formulation", ["dtn", "pml_reduced", "pml_full"])
    def test_solves_only_loaded_modes(self, formulation, monkeypatch):
        # k = 20: 37 modes, one box source; every other row is +0.0, never solved
        cfg = make_cfg(M=0.6, k=20.0)
        grid = grid_for(formulation, cfg, None)
        solves = []
        monkeypatch.setattr(solver, "_solve_tridiag",
                            lambda *args, **kw: solves.append(1) or _solve_tridiag(*args, **kw))
        sol = solve_full(cfg, ModeBoxSource(mode=8, x_lo=-0.2, x_hi=0.3), formulation, grid,
                         profile=PmlProfile(20.0))
        assert len(solves) == 1 and sol.n_modes == 37
        assert np.all(sol.values[8, 1:-1] != 0.0)
        rest = np.delete(sol.values, 8, axis=0).view(float)
        assert np.all(rest == 0.0) and not np.any(np.signbit(rest))

    def test_linearity(self):
        cfg = make_cfg()
        grid = omega_b_grid(cfg, 1 / 32)
        s1 = ModeBoxSource(mode=0, x_lo=-0.3, x_hi=0.0, amplitude=1.0)
        s2 = ModeBoxSource(mode=0, x_lo=0.0, x_hi=0.3, amplitude=2.0)
        a = solve_full(cfg, [s1], "dtn", grid, 2)
        b = solve_full(cfg, [s2], "dtn", grid, 2)
        ab = solve_full(cfg, [s1, s2], "dtn", grid, 2)
        assert np.max(np.abs(ab.values - a.values - b.values)) < 1e-12

    def test_noise_zero_realization(self):
        cfg = make_cfg()
        mesh = build_mesh((-0.5, 0.5, 0.25, 0.75), 0.3, 1)
        from ductpml.noise import NoiseRealization

        r = NoiseRealization(mesh=mesh, level=0, xi=np.zeros(mesh.shape(0)), seed=0)
        grid = omega_b_grid(cfg, 1 / 32)
        sol = solve_full(cfg, [r], "dtn", grid, 4)
        assert np.all(sol.values == 0.0)

    def test_field_assembly_basis_and_interpolation(self):
        cfg = make_cfg()
        grid = omega_b_grid(cfg, 1 / 32)
        sol = solve_full(cfg, ModeBoxSource(mode=2, x_lo=-0.2, x_hi=0.2), "dtn", grid, 4)
        # phi_2 vanishes at x2 = 0.25
        assert abs(assemble_field(sol, (0.5, 0.25), cfg)) < 1e-14
        # at grid nodes the interpolation is exact
        x2 = 0.6
        val = assemble_field(sol, (grid.nodes()[10], x2), cfg)
        expect = sol.values[2, 10] * mode_shape(2, x2, cfg.d)
        assert val == pytest.approx(expect, rel=1e-12)

    def test_field_outside_domain_rejected(self):
        cfg = make_cfg()
        grid = omega_b_grid(cfg, 1 / 32)
        sol = solve_full(cfg, ModeBoxSource(mode=0, x_lo=-0.2, x_hi=0.2), "dtn", grid, 2)
        with pytest.raises(Exception):
            assemble_field(sol, (5.0, 0.5), cfg)

    @pytest.mark.parametrize("formulation", ["dtn", "pml_full", "pml_reduced"])
    def test_field_assembly_in_one_call_equals_per_row_calls(self, formulation):
        # `ductpml solve` assembles its whole (x1, x2) grid in one call
        cfg = make_cfg()
        grid = grid_for(formulation, cfg, 1 / 32)
        profile = PmlProfile(5.0)
        src = [ModeBoxSource(mode=1, x_lo=-0.3, x_hi=0.2), ModeBoxSource(mode=4, x_lo=0.0, x_hi=0.5)]
        sol = solve_full(cfg, src, formulation, grid, 7, profile)
        nodes = sol.grid.nodes()
        x1s = np.concatenate([nodes[::5], 0.5 * (nodes[1::7] + nodes[:-1:7])])
        x2s = np.linspace(0.0, cfg.d, 9)
        pts = np.column_stack((np.repeat(x1s, x2s.size), np.tile(x2s, x1s.size)))
        rows = [assemble_field(sol, [(x1, x2) for x2 in x2s], cfg) for x1 in x1s]
        assert np.array_equal(assemble_field(sol, pts, cfg), np.concatenate(rows))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_field_assembly_equals_one_point_at_a_time(self, seed):
        # points whose x1 and x2 repeat or not, off nodes, at both end nodes and at
        # x2 = 0 and d: each is interpolated and shaped per distinct coordinate
        cfg = make_cfg()
        grid = omega_full_grid(cfg, 1 / 32)
        src = [ModeBoxSource(mode=m, x_lo=0.1 * m - 0.3, x_hi=0.4, amplitude=m + 1) for m in range(5)]
        sol = solve_full(cfg, src, "pml_full", grid, 6, PmlProfile(5.0))
        rng = np.random.default_rng(seed)
        nodes = grid.nodes()
        x1_pool = np.concatenate([nodes[[0, -1, 7]], rng.uniform(grid.x_start, grid.x_end, 5)])
        x2_pool = np.concatenate([[0.0, cfg.d], rng.uniform(0.0, cfg.d, 4)])
        n = 300
        x1 = rng.uniform(grid.x_start, grid.x_end, n)
        x2 = rng.uniform(0.0, cfg.d, n)
        pooled = rng.random((2, n)) < 0.5  # these points take a pool value, so repeat
        x1[pooled[0]] = rng.choice(x1_pool, pooled[0].sum())
        x2[pooled[1]] = rng.choice(x2_pool, pooled[1].sum())
        pts = np.column_stack((x1, x2))
        one_at_a_time = [assemble_field(sol, p, cfg) for p in pts]
        assert all(isinstance(v, complex) for v in one_at_a_time)
        assert np.array_equal(assemble_field(sol, pts, cfg), np.array(one_at_a_time))
        with pytest.raises(DomainError, match="^axial coordinate outside the solution grid$"):
            assemble_field(sol, np.vstack([pts, (grid.x_end + 0.1, 0.5)]), cfg)
        with pytest.raises(DomainError, match="^transverse coordinate outside the duct$"):
            assemble_field(sol, np.vstack([pts, (0.0, cfg.d + 1e-9)]), cfg)

    def test_field_assembly_sums_only_nonzero_rows(self, monkeypatch):
        # modes 1 and 4 loaded of 7: only their shapes are evaluated, and the field is
        # the sum over every row, zero rows included
        cfg = make_cfg()
        grid = omega_b_grid(cfg, 1 / 32)
        src = [ModeBoxSource(mode=1, x_lo=-0.3, x_hi=0.2), ModeBoxSource(mode=4, x_lo=0.0, x_hi=0.5)]
        sol = solve_full(cfg, src, "dtn", grid, 7)
        x1s = np.concatenate([grid.nodes()[::3], grid.nodes()[:-1] + 0.3 * grid.delta])
        pts = np.column_stack((np.repeat(x1s, 5), np.tile(np.linspace(0.0, cfg.d, 5), x1s.size)))
        every_row = sum(
            (np.interp(pts[:, 0], grid.nodes(), row.real)
             + 1j * np.interp(pts[:, 0], grid.nodes(), row.imag)) * mode_shape(n, pts[:, 1], cfg.d)
            for n, row in enumerate(sol.values))
        shapes = []
        monkeypatch.setattr(solver, "mode_shape",
                            lambda n, *args: shapes.extend(np.ravel(n)) or mode_shape(n, *args))
        np.testing.assert_array_equal(assemble_field(sol, pts, cfg), every_row)
        assert shapes == [1, 4]

    def test_parseval_matches_tensor_quadrature(self):
        cfg = make_cfg()
        grid = omega_b_grid(cfg, 1 / 64)
        src = [
            ModeBoxSource(mode=0, x_lo=-0.3, x_hi=0.1, amplitude=1.0),
            ModeBoxSource(mode=1, x_lo=-0.1, x_hi=0.3, amplitude=0.7),
            ModeBoxSource(mode=3, x_lo=-0.2, x_hi=0.2, amplitude=0.4),
        ]
        sol = solve_full(cfg, src, "dtn", grid, 6)
        # Parseval across modes, trapezoid along the axis
        norm = math.sqrt(np.sum(np.trapezoid(np.abs(sol.values) ** 2, dx=grid.delta, axis=1)))
        x1 = np.linspace(cfg.x_minus, cfg.x_plus, 257)
        x2 = np.linspace(0.0, cfg.d, 129)
        xx1, xx2 = np.meshgrid(x1, x2, indexing="ij")
        pts = np.stack([xx1.ravel(), xx2.ravel()], axis=1)
        vals = assemble_field(sol, pts, cfg).reshape(xx1.shape)
        quad = np.trapezoid(np.trapezoid(np.abs(vals) ** 2, x2, axis=1), x1)
        assert math.sqrt(quad) == pytest.approx(norm, rel=1e-3)

    def test_reciprocity_at_zero_mach(self):
        # swap a point-like (narrow box) source and receiver; pairing the
        # solution with the receiver's own load functional makes the exact
        # symmetry of the zero-flow operator visible at machine precision
        cfg = make_cfg(M=0.0)
        grid = omega_b_grid(cfg, 1 / 256)
        w = 2 * grid.delta
        n_modes = 12
        xa, xb = (-0.4, 0.31), (0.5, 0.77)

        def narrow(center, mode):
            return ModeBoxSource(
                mode=mode, x_lo=center - w, x_hi=center + w, amplitude=1.0 / (2 * w)
            )

        def receive(sol, point):
            breaks = np.array([point[0] - w, point[0] + w])
            weights = piecewise_load_matrix(sol.grid, breaks)[:, 0] / (2 * w)
            out = 0.0
            for m in range(sol.n_modes):
                out += (weights @ sol.values[m]) * mode_shape(m, point[1], cfg.d)
            return out

        val_ab = 0.0
        val_ba = 0.0
        for m in range(n_modes):
            sa = solve_full(cfg, narrow(xa[0], m), "dtn", grid, n_modes)
            val_ab += receive(sa, xb) * mode_shape(m, xa[1], cfg.d)
            sb = solve_full(cfg, narrow(xb[0], m), "dtn", grid, n_modes)
            val_ba += receive(sb, xa) * mode_shape(m, xb[1], cfg.d)
        assert abs(val_ab - val_ba) / abs(val_ab) < 1e-6
        # and the interpolated-field version agrees at discretization order
        approx_ab = sum(
            assemble_field(solve_full(cfg, narrow(xa[0], m), "dtn", grid, n_modes), xb, cfg)
            * mode_shape(m, xa[1], cfg.d)
            for m in range(n_modes)
        )
        assert abs(approx_ab - val_ab) / abs(val_ab) < 1e-3


class TestNormsAndErrors:
    def test_triangle_inequality(self):
        cfg = make_cfg()
        grid = omega_b_grid(cfg, 1 / 16)
        rng = np.random.default_rng(0)

        def rand_sol():
            v = rng.normal(size=(3, grid.n_nodes)) + 1j * rng.normal(size=(3, grid.n_nodes))
            return ModalSolution(grid=grid, values=v)

        a, b, c = rand_sol(), rand_sol(), rand_sol()
        assert l2_error(a, c) <= l2_error(a, b) + l2_error(b, c) + 1e-12

    def test_grid_mismatch_rejected(self):
        cfg = make_cfg()
        g1 = omega_b_grid(cfg, 1 / 16)
        g2 = omega_b_grid(cfg, 1 / 32)
        a = ModalSolution(grid=g1, values=np.zeros((2, g1.n_nodes), complex))
        b = ModalSolution(grid=g2, values=np.zeros((2, g2.n_nodes), complex))
        with pytest.raises(GridMismatchError):
            l2_error(a, b)


class TestModeMatrix:
    @pytest.mark.parametrize(
        "formulation, wrong", [("dtn", "full"), ("pml_reduced", "full"), ("pml_full", "b")]
    )
    def test_grid_must_span_the_formulation_interval(self, formulation, wrong):
        cfg = make_cfg()
        profile = PmlProfile(5.0)
        grid = omega_full_grid(cfg, 1 / 16) if wrong == "full" else omega_b_grid(cfg, 1 / 16)
        with pytest.raises(GridMismatchError):
            mode_matrix(1, cfg, grid, formulation, profile)

    def test_pml_formulations_need_a_profile(self):
        cfg = make_cfg()
        with pytest.raises(ConfigError):
            mode_matrix(1, cfg, omega_b_grid(cfg, 1 / 16), "pml_reduced")
        with pytest.raises(ConfigError):
            mode_matrix(1, cfg, omega_b_grid(cfg, 1 / 16), "robin", 0)

    @pytest.mark.parametrize("M", [0.0, 0.3, 0.9])
    def test_constant_coefficient_bands(self, M):
        # the dtn bands less the Robin terms are the closed-form P1 entries;
        # between the layers alpha = 1 and the stretched operator gives the
        # same rows, up to the summation order of the element sums
        cfg = make_cfg(M=M, k=7.3)
        profile = PmlProfile(5.0)
        grid = omega_b_grid(cfg, 1 / 16)
        full = omega_full_grid(cfg, 1 / 16)
        dx, m2, ikm = grid.delta, 1.0 - M * M, 1j * cfg.k * M
        lo = round((cfg.x_minus - full.x_start) / full.delta)  # interface node x^-
        n0 = cutoff_numbers(cfg)[1]
        for n in (0, n0, n0 + 1, n0 + 6):  # propagating, then evanescent
            gamma = cfg.k ** 2 - (n * math.pi / cfg.d) ** 2
            sub, diag, sup = mode_matrix(n, cfg, grid, "dtn")
            bp, bm = axial_wavenumbers64(n, cfg)
            ends = diag[[0, -1]] - 1j * m2 * np.array([-bm, bp])
            inner = -2 * m2 / dx + 2 * gamma * dx / 3
            end = -m2 / dx + gamma * dx / 3
            np.testing.assert_allclose(diag[1:-1], inner, rtol=1e-15)
            np.testing.assert_allclose(ends, [end - ikm, end + ikm], rtol=1e-15)
            np.testing.assert_allclose(sup, m2 / dx + ikm + gamma * dx / 6, rtol=1e-15)
            np.testing.assert_allclose(sub, m2 / dx - ikm + gamma * dx / 6, rtol=1e-15)
            # pml_full drops the outer Dirichlet rows: full node j is row j - 1
            f_sub, f_diag, f_sup = mode_matrix(n, cfg, full, "pml_full", profile)
            cells = slice(lo - 1, lo - 1 + grid.n_cells)
            np.testing.assert_allclose(f_diag[lo : lo + diag.size - 2], diag[1:-1], rtol=1e-15)
            np.testing.assert_allclose(f_sup[cells], sup, rtol=1e-15)
            np.testing.assert_allclose(f_sub[cells], sub, rtol=1e-15)


# the stretched weak form's inputs: sigma^- != sigma^+, L a whole number of 1/16 cells
LAYER_CASES = dict(
    M=st.floats(0.0, 0.95),
    k=st.floats(0.5, 30.0),
    L=st.sampled_from([0.25, 0.5, 1.0, 1.5]),
    sigma_plus=st.floats(0.0, 50.0),
    sigma_minus=st.floats(0.0, 50.0),
)


class TestModeMatrixArrays:
    """mode_matrix over an array of modes: the element oracle and the int call."""

    @staticmethod
    def case(M, k, L, sigma_plus, sigma_minus):
        assume(sigma_minus != sigma_plus)
        root = math.sqrt(1.0 - M * M)
        assume(all(abs(k - root * m * math.pi) > 1e-6 * k for m in range(1, 40)))  # off cutoff
        cfg = make_cfg(M=M, k=k, L=L)
        return cfg, PmlProfile(sigma_plus, sigma_minus), np.arange(cutoff_numbers(cfg)[1] + 4)

    @settings(max_examples=40, deadline=None)
    @given(**LAYER_CASES)
    # strong flow at a low frequency: z's two flow terms nearly cancel
    @example(M=0.945, k=1.0, L=1.0, sigma_plus=5.0, sigma_minus=1.0)
    def test_full_layer_matches_the_element_oracle(self, M, k, L, sigma_plus, sigma_minus):
        cfg, profile, modes = self.case(M, k, L, sigma_plus, sigma_minus)
        grid = omega_full_grid(cfg, 1 / 16)
        bands = mode_matrix(modes, cfg, grid, "pml_full", profile)
        assert all(b.shape == (modes.size, grid.n_nodes - 2 - (i != 1)) for i, b in enumerate(bands))
        for n in modes:
            # entries cancel to 1/20 of their terms at M = 0.95, k = 1: rtol on the terms
            for got, want, scale in zip(bands, *stretched_element_bands(n, cfg, grid, profile)):
                assert np.all(np.abs(got[n] - want) <= 1e-13 * scale)

    @settings(max_examples=40, deadline=None)
    @given(**LAYER_CASES)
    @example(M=0.945, k=1.0, L=1.0, sigma_plus=5.0, sigma_minus=1.0)
    def test_rows_are_the_int_call_bit_for_bit(self, M, k, L, sigma_plus, sigma_minus):
        cfg, profile, modes = self.case(M, k, L, sigma_plus, sigma_minus)
        for formulation in ("dtn", "pml_reduced", "pml_full"):
            grid = grid_for(formulation, cfg, 1 / 16)
            bands = mode_matrix(modes, cfg, grid, formulation, profile)
            for n in modes:
                for got, want in zip(bands, mode_matrix(int(n), cfg, grid, formulation, profile)):
                    assert got[n].tobytes() == want.tobytes()


class TestConditioning:
    @pytest.mark.parametrize("formulation", ["dtn", "pml_reduced", "pml_full"])
    def test_condition_estimate_bounded(self, formulation):
        cfg = make_cfg()
        profile = PmlProfile(5.0)
        _, n0 = cutoff_numbers(cfg)
        grid = grid_for(formulation, cfg, default_delta(cfg))
        for n in (0, n0, n0 + 1, n0 + 10):
            est = condition_estimate(n, cfg, grid, formulation, profile)
            assert est < 1e8


class TestClosedFormInverse:
    """The zgtsv solve of DtN mode matrices against their closed-form inverse, which
    shares no LAPACK code with it."""

    @pytest.mark.parametrize("M, k", [(0.3, 5.0), (0.6, 20.0), (0.0, 5.0), (0.9, 5.0)])
    def test_unit_columns_match_within_eps_cond(self, M, k):
        # every mode, unit loads at both ends, next to them and inside; a backward-
        # stable solve errs by up to eps * cond of max|x|, the closed form by less
        cfg = make_cfg(M=M, k=k, L=2.0)
        grid = omega_b_grid(cfg, default_delta(cfg))
        last = grid.n_nodes - 1
        cols = [0, 1, last // 3, last - 1, last]
        unit = np.zeros((grid.n_nodes, len(cols)))
        unit[cols, range(len(cols))] = 1.0
        for n in range(default_n_modes(cfg)):
            matrix = mode_matrix(n, cfg, grid, "dtn")
            x = _solve_tridiag(*matrix, unit)
            tol = 8 * np.finfo(float).eps * condition_estimate(n, cfg, grid)
            assert np.max(np.abs(x - dtn_inverse(*matrix, cols))) <= tol * np.max(np.abs(x))

    def test_rejects_a_non_constant_interior(self):
        sub, diag, sup = mode_matrix(2, make_cfg(), omega_b_grid(make_cfg(), 1 / 16), "dtn")
        diag = diag.copy()
        diag[5] *= 1.0 + 1e-15
        with pytest.raises(ValueError, match="interior rows are not constant"):
            dtn_inverse(sub, diag, sup)


class TestMirrorReciprocity:
    """Flow reversal: on x_minus = -x_plus with sigma- = sigma+, mirroring the duct
    reverses the flow, so every closure's inverse satisfies (A^{-1})^T = P A^{-1} P, P
    reversing the nodes (the weak form's stiffness and mass are symmetric, its convection
    antisymmetric, and the mirror swaps the two ends)."""

    FLOWS = pytest.mark.parametrize("M, k", [(0.0, 3.0), (0.3, 5.0), (0.6, 20.0), (0.9, 5.3)])

    @staticmethod
    def defect(bands):
        """max |(A^{-1})^T - P A^{-1} P| relative to max |A^{-1}|."""
        inverse = _solve_tridiag(*bands, np.eye(bands[1].size, dtype=complex))
        return np.max(np.abs(inverse.T - inverse[::-1, ::-1])) / np.max(np.abs(inverse))

    @FLOWS
    @pytest.mark.parametrize("formulation", ["dtn", "pml_reduced"])
    def test_robin_closures_within_eps_cond(self, M, k, formulation):
        # every mode: the float64 inverse is within eps * cond of the exact one
        cfg = make_cfg(M=M, k=k)
        profile = PmlProfile(5.0)
        grid = omega_b_grid(cfg, default_delta(cfg))
        for n in range(default_n_modes(cfg)):
            tol = 8 * np.finfo(float).eps * condition_estimate(n, cfg, grid, formulation, profile)
            assert self.defect(mode_matrix(n, cfg, grid, formulation, profile)) <= tol

    @FLOWS
    def test_full_layer_by_its_quadrature_order(self, M, k):
        # the stretched weak form by 2-point Gauss per element: exact without flow, so
        # within eps * cond; with flow the convection's alpha and the mass's alpha' are
        # integrated inexactly, a defect of order delta^4 that falls about 16x per halving
        # (13.5x from delta = 1/32 at M = 0.9)
        cfg = make_cfg(M=M, k=k)
        profile = PmlProfile(5.0)
        for n in (0, 3):
            defects, tols = [], []
            for delta in (1 / 32, 1 / 64, 1 / 128, 1 / 256):
                grid = omega_full_grid(cfg, delta)
                defects.append(self.defect(mode_matrix(n, cfg, grid, "pml_full", profile)))
                tols.append(8 * np.finfo(float).eps
                            * condition_estimate(n, cfg, grid, "pml_full", profile))
            if M == 0.0:
                assert all(d <= tol for d, tol in zip(defects, tols)), (n, defects)
            else:
                ratios = np.array(defects[:-1]) / defects[1:]
                assert np.all(ratios >= 12.0), (n, defects)


class TestTridiagonalSolves:
    """The zgtsv solve against scipy's ``solve_banded`` and against scipy's own zgtsv
    wrapper (a test-only reference), bit for bit."""

    @staticmethod
    def system(n, seed=11):
        # no diagonal dominance, so partial pivoting swaps rows
        rng = np.random.default_rng(seed)
        sub, diag, sup = (rng.standard_normal(m) + 1j * rng.standard_normal(m)
                          for m in (n - 1, n, n - 1))
        return sub, diag, sup

    @pytest.mark.parametrize("n", [1, 2, 3, 641])
    @pytest.mark.parametrize("kind", [float, complex])
    @pytest.mark.parametrize("columns", [None, 3])
    def test_matches_solve_banded_exactly(self, n, kind, columns):
        sub, diag, sup = self.system(n)
        rng = np.random.default_rng(n)
        shape = (n,) if columns is None else (n, columns)
        rhs = rng.standard_normal(shape)
        if kind is complex:
            rhs = rhs + 1j * rng.standard_normal(shape)
        x = _solve_tridiag(sub, diag, sup, rhs)
        assert x.shape == shape
        assert np.array_equal(x, banded_solve(sub, diag, sup, rhs))

    @pytest.mark.parametrize("n", [2, 3, 641])
    @pytest.mark.parametrize("kind", [float, complex])
    @pytest.mark.parametrize("shape", [(), (3,), (1,)], ids=["1d", "3-columns", "1-column"])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_matches_scipy_zgtsv_exactly(self, n, kind, shape, order):
        # the same LAPACK routine through scipy's f2py wrapper: equal bits, shape and
        # memory layout (column-major, as the wrapper returns it)
        sub, diag, sup = self.system(n)
        rng = np.random.default_rng(n + len(shape))
        rhs = rng.standard_normal((n,) + shape)
        if kind is complex:
            rhs = rhs + 1j * rng.standard_normal(rhs.shape)
        rhs = np.asarray(rhs, order=order)
        x = _solve_tridiag(sub, diag, sup, rhs)
        expected, info = scipy_zgtsv(sub, diag, sup, rhs)[3:]
        assert info == 0
        assert x.dtype == expected.dtype and x.strides == expected.strides
        assert np.array_equal(x, expected)

    def test_leaves_the_caller_arrays_unmodified(self):
        # zgtsv overwrites its bands and right-hand side; the solve works on copies
        sub, diag, sup = self.system(641)
        rhs = np.random.default_rng(5).standard_normal((641, 2)) + 0j
        copies = [a.copy() for a in (sub, diag, sup, rhs)]
        _solve_tridiag(sub, diag, sup, rhs)
        for before, after in zip(copies, (sub, diag, sup, rhs)):
            assert np.array_equal(before, after)

    def test_binding_leaves_the_shared_capsule_prototypes_alone(self):
        # the solver builds its own PyCapsule prototypes: ctypes.pythonapi's keep their
        # defaults for every other user in the process
        for name in ("PyCapsule_GetName", "PyCapsule_GetPointer"):
            function = getattr(ctypes.pythonapi, name)
            assert function.restype is ctypes.c_int and function.argtypes is None

    def test_pool_threads_give_the_serial_bits(self):
        # two solves at once on a 2-thread pool (the GIL is released during each)
        systems = [self.system(641, seed) for seed in (1, 2)]
        rhs = [np.random.default_rng(seed).standard_normal((641, 40)) for seed in (3, 4)]
        serial = [_solve_tridiag(*m, r) for m, r in zip(systems, rhs)]
        with ThreadPoolExecutor(max_workers=2) as pool:
            pooled = list(pool.map(lambda mr: _solve_tridiag(*mr[0], mr[1]), zip(systems, rhs)))
        assert all(np.array_equal(a, b) for a, b in zip(serial, pooled))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    @pytest.mark.parametrize("entry", ["sub", "diag", "sup", "rhs"])
    def test_non_finite_system_names_where(self, bad, entry):
        system = dict(zip(("sub", "diag", "sup"), self.system(9)))
        system["rhs"] = np.ones((9, 2), dtype=complex)
        system[entry][4] = bad
        message = r"^total study, mode n=3: non-finite band or right-hand side in mode system$"
        with pytest.raises(DomainError, match=message):
            _solve_tridiag(**system, where="total study, mode n=3")
        with pytest.raises(DomainError, match=r"^non-finite band"):
            _solve_tridiag(**system)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_1x1_system_names_where(self, bad):
        empty = np.zeros(0, dtype=complex)
        for diag, rhs in (([bad], [1.0]), ([2.0], [bad]), ([0.0], [bad])):
            with pytest.raises(DomainError, match=r"^h study, mode n=0: non-finite"):
                _solve_tridiag(empty, np.array(diag, complex), empty, np.array(rhs), "h study, mode n=0")

    def test_zero_pivot_names_where(self):
        sub, diag, sup = self.system(9)
        sub[3] = diag[4] = sup[4] = 0.0  # row 4 vanishes
        where = "total study, mode n=3"
        with pytest.raises(DomainError) as info:
            _solve_tridiag(sub, diag, sup, np.ones((9, 2)), where=where)
        assert str(info.value) == f"{where}: singular mode system: singular matrix"
        empty = np.zeros(0, dtype=complex)
        with pytest.raises(DomainError) as info:
            _solve_tridiag(empty, np.zeros(1, dtype=complex), empty, np.ones(1, dtype=complex), where)
        assert str(info.value) == f"{where}: singular mode system: zero 1x1 system"
