import math

import numpy as np
import pytest

from ductpml import DuctConfig, cli, noise
from ductpml.errors import ConfigError, DomainError
from ductpml.noise import (
    ModalFunctionSource,
    ModeBoxSource,
    NoiseMesh,
    NoiseRealization,
    block_size,
    build_mesh,
    coarsen,
    noise_modal_matrix,
    realization_levels,
    sample,
    transverse_cell_integrals,
)
from ductpml.solver import Grid1D, modal_loads
from oracles import evaluate_wh

RECT = (-0.5, 0.5, 0.25, 0.75)


def unit_square_mesh(levels=3):
    return build_mesh((0.0, 1.0, 0.0, 1.0), finest_h=math.sqrt(2.0) / 8.0, levels=levels)


class TestBuildMesh:
    def test_dyadic_counting_example(self):
        mesh = unit_square_mesh()
        counts = [np.prod(mesh.shape(lv)) for lv in range(3)]
        assert counts == [4, 16, 64]

    def test_cell_areas(self):
        mesh = unit_square_mesh()
        for lv in range(3):
            assert mesh.cell_area(lv) == pytest.approx(1.0 / 4 ** (lv + 1))

    def test_diameter_halves(self):
        mesh = unit_square_mesh()
        d = [mesh.cell_diameter(lv) for lv in range(3)]
        assert d[0] / d[1] == pytest.approx(2.0)
        assert d[1] / d[2] == pytest.approx(2.0)
        assert d[-1] <= math.sqrt(2.0) / 8.0 + 1e-12

    def test_degenerate_rect_rejected(self):
        with pytest.raises(DomainError):
            build_mesh((0.0, 0.0, 0.0, 1.0), 0.1, 1)

    def test_levels_required(self):
        with pytest.raises(ConfigError):
            build_mesh((0.0, 1.0, 0.0, 1.0), 0.1, 0)


class TestSample:
    def test_bit_identical_resample(self):
        mesh = unit_square_mesh()
        a = sample(mesh, 1234)
        b = sample(mesh, 1234)
        assert np.array_equal(a.xi, b.xi)

    def test_distinct_seeds_differ(self):
        mesh = unit_square_mesh()
        assert not np.array_equal(sample(mesh, 0).xi, sample(mesh, 1).xi)

    def test_immutable(self):
        r = sample(unit_square_mesh(), 0)
        with pytest.raises(ValueError):
            r.xi[0, 0] = 7.0

    def test_moment_bounds(self):
        # 4-sigma guards: |mean| < 4/sqrt(N), variance within chi^2 band
        mesh = build_mesh((0.0, 1.0, 0.0, 1.0), math.sqrt(2.0) / 64.0, levels=1)
        r = sample(mesh, 42)
        n = r.xi.size
        assert n == 4096
        assert abs(r.xi.mean()) < 4.0 / math.sqrt(n)
        assert 0.9 < r.xi.var() < 1.1


class TestStreamContract:
    """sample() against the documented stream, rebuilt one cell at a time."""

    @staticmethod
    def expected_field(base_shape, levels, seed):
        bits = levels - 1
        side = 1 << bits
        m1, m2 = base_shape
        out = np.full((m1 * side, m2 * side), np.nan)
        for a1 in range(m1):
            for a2 in range(m2):
                # an explicit uint64 key: a Python list holding a word >= 2**63
                # would be converted through float64 and lose its low bits
                key = np.array([seed & (2**64 - 1), a1 * m2 + a2], dtype=np.uint64)
                gen = np.random.Generator(np.random.Philox(key=key))
                for code, value in enumerate(gen.standard_normal(4**bits)):
                    di = sum(((code >> (2 * b + 1)) & 1) << b for b in range(bits))
                    dj = sum(((code >> (2 * b)) & 1) << b for b in range(bits))
                    out[a1 * side + di, a2 * side + dj] = value
        return out

    @pytest.mark.parametrize(
        "base_shape, levels, seed",
        [
            ((11, 6), 3, 41),  # the CLI's default mesh shape
            ((11, 6), 3, 2**63 + 12345),
            ((3, 2), 1, -1),  # masked to 2**64 - 1
            ((1, 1), 4, 7),
        ],
    )
    def test_matches_per_cell_philox_streams(self, base_shape, levels, seed):
        mesh = NoiseMesh(rect=RECT, levels=levels, base_shape=base_shape)
        xi = sample(mesh, seed).xi
        assert np.array_equal(xi, self.expected_field(base_shape, levels, seed))

    @pytest.mark.parametrize(
        "base_shape, levels, seeds",
        [
            ((3, 2), 3, [3, 4, 5, 6, 7]),  # a non-square coarsest grid
            ((11, 6), 3, [2**64 + 5, 5, -1, 2**64 - 1, 2**63 + 12345]),  # wrapped mod 2^64
            ((1, 1), 4, [7, 8, 9]),
        ],
        ids=["base-3x2", "wrapping-seeds", "one-coarse-cell"],
    )
    def test_blocks_match_coarsened_samples(self, base_shape, levels, seeds, monkeypatch):
        # blocks of two seeds, the last one partial: every level of every seed
        # is bit for bit the repeated coarsening of its own sample
        mesh = NoiseMesh(rect=RECT, levels=levels, base_shape=base_shape)
        n1, n2 = mesh.shape(mesh.finest_level)
        monkeypatch.setattr(noise, "BLOCK_BYTES", 2 * 8 * n1 * n2 + 8)
        step = block_size(mesh)
        assert step == 2 and len(seeds) % step == 1
        every = list(range(levels))
        # a sampler per block, so that no later draw overwrites an earlier one
        blocks = [noise.BlockSampler(mesh, every, step).draw(seeds[i : i + step])
                  for i in range(0, len(seeds), step)]
        for lv in every:
            xi = np.concatenate([block[lv] for block in blocks])
            assert xi.shape == (len(seeds),) + mesh.shape(lv)
            for s, seed in enumerate(seeds):
                assert np.array_equal(xi[s], realization_levels(sample(mesh, seed))[lv].xi)
        if base_shape == (11, 6):  # 2^64 + 5 is seed 5 and -1 is 2^64 - 1
            finest = np.concatenate([block[-1] for block in blocks])
            assert np.array_equal(finest[0], finest[1])
            assert np.array_equal(finest[2], finest[3])

    def test_sampler_reuses_its_buffers_across_blocks(self):
        # full blocks, then a short one in the same buffers: no row of an earlier
        # block may leak into a later one, at any level
        mesh = NoiseMesh(rect=RECT, levels=3, base_shape=(11, 6))
        seeds = [2**64 + 5, 5, -1, 2**64 - 1, 2**63 + 12345]
        every = list(range(mesh.levels))
        sampler = noise.BlockSampler(mesh, every, 2)
        for i in range(0, len(seeds), 2):
            block = seeds[i : i + 2]
            got = sampler.draw(block)
            for lv, xi in zip(every, got):
                assert xi.shape == (len(block),) + mesh.shape(lv)
                for s, seed in enumerate(block):
                    assert np.array_equal(xi[s], realization_levels(sample(mesh, seed))[lv].xi)

    def test_more_seeds_than_the_buffers_hold_raise_before_drawing(self):
        mesh = NoiseMesh(rect=RECT, levels=3, base_shape=(3, 2))
        every = list(range(mesh.levels))
        with pytest.raises(ValueError):
            noise.BlockSampler(mesh, every, 2).draw(range(3))
        # after a full block, the refused draw leaves every buffer as it was
        sampler = noise.BlockSampler(mesh, every, 2)
        got = sampler.draw([5, 6])
        before = [xi.copy() for xi in got] + [sampler._draws.copy()]
        with pytest.raises(ValueError):
            sampler.draw(range(3))
        for old, new in zip(before, got + [sampler._draws]):
            assert np.array_equal(old, new)

    def test_only_the_requested_levels_in_their_order(self):
        mesh = NoiseMesh(rect=RECT, levels=4, base_shape=(2, 3))
        levels = realization_levels(sample(mesh, 11))
        got = noise.BlockSampler(mesh, [3, 0, 1], 1).draw([11])
        assert len(got) == 3
        for xi, lv in zip(got, [3, 0, 1]):
            assert np.array_equal(xi[0], levels[lv].xi)
        with pytest.raises(DomainError):
            noise.BlockSampler(mesh, [4], 1).draw([11])

    def test_only_coarse_levels_in_two_blocks(self):
        # the finest level is coarsened from but never returned
        mesh = NoiseMesh(rect=RECT, levels=4, base_shape=(2, 3))
        seeds = [11, 12, 2**64 - 3]
        sampler = noise.BlockSampler(mesh, [1, 0], 2)
        for block in (seeds[:2], seeds[2:]):
            got = sampler.draw(block)
            assert [xi.shape for xi in got] == [(len(block),) + mesh.shape(lv) for lv in (1, 0)]
            for s, seed in enumerate(block):
                levels = realization_levels(sample(mesh, seed))
                for xi, lv in zip(got, (1, 0)):
                    assert np.array_equal(xi[s], levels[lv].xi)

    def test_block_size_is_a_byte_budget_of_finest_draws(self, monkeypatch):
        mesh = NoiseMesh(rect=RECT, levels=5, base_shape=(8, 8))  # 16,384 finest cells
        assert block_size(mesh) == 4
        monkeypatch.setattr(noise, "BLOCK_BYTES", 1)
        assert block_size(mesh) == 1  # a seed larger than the budget is a block of its own

    @pytest.mark.parametrize("command", ["noise", "solve"])
    def test_cli_outputs_follow_the_streams(self, command, tmp_path, monkeypatch):
        # the CLI's outputs with sample() and with the streams rebuilt per cell
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "[duct]\nd = 1\nM = 0.3\nk = 5\n[pml]\nsigma_plus = 5\nL = 2\n"
            "[source]\ntype = mode_box+noise\nmode = 0\n[run]\nbase_seed = 41\n"
        )

        def stream_sample(mesh, seed):
            xi = self.expected_field(mesh.base_shape, mesh.levels, seed)
            return NoiseRealization(mesh=mesh, level=mesh.finest_level, xi=xi, seed=seed)

        outputs = []
        for name, fn in (("sample", sample), ("streams", stream_sample)):
            monkeypatch.setattr(cli, "sample", fn)
            out = tmp_path / name
            assert cli.dispatch([command, "--config", str(cfg), "--out", str(out)]) == cli.EXIT_OK
            outputs.append({p.name: p.read_bytes() for p in out.iterdir() if p.suffix == ".csv"})
        assert outputs[0] and outputs[0] == outputs[1]


class TestCoarsen:
    def test_constant_children_aggregate(self):
        mesh = unit_square_mesh(levels=2)
        xi = np.full(mesh.shape(1), 3.0)
        r = NoiseRealization(mesh=mesh, level=1, xi=xi, seed=0)
        c = coarsen(r)
        assert np.allclose(c.xi, 6.0)  # 4 children * 3.0 * weight 1/2

    def test_weights_square_to_one(self):
        mesh = unit_square_mesh(levels=2)
        # child weight is sqrt(area ratio) = 1/2; four of them square-sum to 1
        ratio = mesh.cell_area(1) / mesh.cell_area(0)
        assert 4.0 * ratio == pytest.approx(1.0)

    def test_variance_preserved_in_distribution(self):
        mesh = build_mesh((0.0, 1.0, 0.0, 1.0), 0.05, levels=3)
        vals = []
        for s in range(300):
            vals.append(coarsen(sample(mesh, s)).xi.ravel())
        v = np.concatenate(vals)
        assert abs(v.var() - 1.0) < 4.0 * math.sqrt(2.0 / v.size)

    def test_double_coarsen_weights(self):
        mesh = unit_square_mesh(levels=3)
        xi = np.zeros(mesh.shape(2))
        xi[0, 0] = 1.0
        r = NoiseRealization(mesh=mesh, level=2, xi=xi, seed=0)
        cc = coarsen(coarsen(r))
        assert cc.xi[0, 0] == pytest.approx(0.25)  # grandchild weight 1/4

    def test_coarsest_level_refuses(self):
        mesh = unit_square_mesh(levels=1)
        with pytest.raises(DomainError):
            coarsen(sample(mesh, 0))

    def test_levels_helper(self):
        mesh = unit_square_mesh(levels=3)
        levels = realization_levels(sample(mesh, 5))
        assert [r.level for r in levels] == [0, 1, 2]


class TestEvaluateWh:
    def test_outside_support(self):
        mesh = build_mesh(RECT, 0.2, 1)
        r = sample(mesh, 0)
        assert evaluate_wh(r, (2.0, 0.5)) == 0.0
        assert evaluate_wh(r, (0.0, 0.1)) == 0.0

    def test_scaling_by_cell_area(self):
        mesh = NoiseMesh(rect=(0.0, 0.2, 0.0, 0.05), levels=1, base_shape=(2, 1))
        # cell area 0.1 * 0.05 = 0.005... use a 0.01-area mesh instead
        mesh = NoiseMesh(rect=(0.0, 0.2, 0.0, 0.1), levels=1, base_shape=(2, 2))
        xi = np.zeros((2, 2))
        xi[0, 0] = 1.0
        r = NoiseRealization(mesh=mesh, level=0, xi=xi, seed=0)
        assert mesh.cell_area(0) == pytest.approx(0.005)
        assert evaluate_wh(r, (0.01, 0.01)) == pytest.approx(1.0 / math.sqrt(0.005))

    def test_half_open_cells(self):
        mesh = NoiseMesh(rect=(0.0, 1.0, 0.0, 1.0), levels=1, base_shape=(2, 2))
        xi = np.arange(4.0).reshape(2, 2)
        r = NoiseRealization(mesh=mesh, level=0, xi=xi, seed=0)
        # interior shared edge belongs to the cell whose lower edge it is
        assert evaluate_wh(r, (0.5, 0.25)) == pytest.approx(2.0 * 2.0)  # xi[1,0]/sqrt(.25)
        # upper boundary is outside (half-open)
        assert evaluate_wh(r, (1.0, 0.5)) == 0.0

    def test_covariance_same_and_distinct_cells(self):
        # MC over 1e4 seeds: E[Wh(x) Wh(y)] = 1/|K| same cell, 0 otherwise
        mesh = NoiseMesh(rect=(0.0, 0.4, 0.0, 0.1), levels=1, base_shape=(4, 1))
        area = mesh.cell_area(0)
        assert area == pytest.approx(0.01)
        x_same = [(0.02, 0.03), (0.07, 0.08)]
        x_diff = [(0.02, 0.03), (0.22, 0.05)]
        n_seeds = 10_000
        prods_same = np.empty(n_seeds)
        prods_diff = np.empty(n_seeds)
        for s in range(n_seeds):
            r = sample(mesh, s)
            w = evaluate_wh(r, (np.array([0.02, 0.07, 0.22]), np.array([0.03, 0.08, 0.05])))
            prods_same[s] = w[0] * w[1]
            prods_diff[s] = w[0] * w[2]
        se_same = prods_same.std(ddof=1) / math.sqrt(n_seeds)
        se_diff = prods_diff.std(ddof=1) / math.sqrt(n_seeds)
        assert abs(prods_same.mean() - 1.0 / area) < 3.0 * se_same
        assert abs(prods_diff.mean()) < 3.0 * se_diff

    def test_coupling_between_levels(self):
        # E[Wh_coarse(x) Wh_fine(x)] = 1/|K_coarse| under the nested coupling
        mesh = build_mesh((0.0, 0.4, 0.0, 0.4), 0.15, levels=2)
        area_c = mesh.cell_area(0)
        x = (0.11, 0.31)
        n_seeds = 10_000
        prods = np.empty(n_seeds)
        for s in range(n_seeds):
            fine = sample(mesh, s)
            prods[s] = evaluate_wh(coarsen(fine), x) * evaluate_wh(fine, x)
        se = prods.std(ddof=1) / math.sqrt(n_seeds)
        assert abs(prods.mean() - 1.0 / area_c) < 3.0 * se

    def test_isometry_for_test_function(self):
        # Var(sum_i xi_i sqrt(|K_i|) psi_i) = sum_i |K_i| psi_i^2
        mesh = NoiseMesh(rect=(0.0, 1.0, 0.0, 0.5), levels=1, base_shape=(3, 2))
        area = mesh.cell_area(0)
        rng = np.random.default_rng(7)
        psi = rng.normal(size=(3, 2))
        target = float(np.sum(area * psi ** 2))
        n_seeds = 10_000
        vals = np.empty(n_seeds)
        for s in range(n_seeds):
            vals[s] = float(np.sum(sample(mesh, s).xi * math.sqrt(area) * psi))
        var = vals.var(ddof=1)
        se = math.sqrt(2.0 / (n_seeds - 1)) * var
        assert abs(var - target) < 3.0 * se


class TestModalCoefficients:
    def cfg(self):
        return DuctConfig(d=1.0, M=0.3, k=5.0, x_minus=-1.0, x_plus=1.0, L=1.0)

    def grid(self):
        return Grid1D(-1.0, 1.0, 32)

    def test_box_source_excites_single_mode(self):
        cfg = self.cfg()
        src = ModeBoxSource(mode=2, x_lo=-0.2, x_hi=0.2, amplitude=3.0)
        loads = modal_loads(src, cfg, self.grid(), 4)
        assert np.sum(loads[2]).real == pytest.approx(3.0 * 0.4)
        assert not np.any(loads[[0, 1, 3]])

    def test_noise_full_height_cell_mode0(self):
        cfg = self.cfg()
        mesh = NoiseMesh(rect=(-0.2, 0.2, 0.0, 1.0), levels=1, base_shape=(2, 1))
        xi = np.array([[1.5], [-0.5]])
        r = NoiseRealization(mesh=mesh, level=0, xi=xi, seed=0)
        breaks, values = noise_modal_matrix(r, 1, cfg)
        area = mesh.cell_area(0)
        # transverse integral of phi_0 over [0, d] is sqrt(d) = 1
        np.testing.assert_allclose(breaks, [-0.2, 0.0, 0.2])
        assert values[0, 0] == pytest.approx(1.5 / math.sqrt(area))
        assert values[0, 1] == pytest.approx(-0.5 / math.sqrt(area))

    def test_noise_half_height_cell_mode1(self):
        cfg = self.cfg()
        mesh = NoiseMesh(rect=(-0.2, 0.2, 0.0, 0.5), levels=1, base_shape=(1, 1))
        xi = np.array([[2.0]])
        r = NoiseRealization(mesh=mesh, level=0, xi=xi, seed=0)
        _, values = noise_modal_matrix(r, 2, cfg)
        expect = math.sqrt(2.0) * (1.0 / math.pi) * math.sin(math.pi / 2.0)
        area = mesh.cell_area(0)
        assert values[1, 0] == pytest.approx(2.0 / math.sqrt(area) * expect)

    def test_transverse_integrals_match_quadrature(self):
        cfg = self.cfg()
        edges = np.array([0.0, 0.3, 0.55, 1.0])
        t = transverse_cell_integrals(edges, 6, cfg.d)
        from ductpml.duct import mode_shape

        x = np.linspace(0, 1, 20001)
        for n in range(6):
            vals = mode_shape(n, x, 1.0)
            for j in range(3):
                mask = (x >= edges[j]) & (x <= edges[j + 1])
                approx = np.trapezoid(vals[mask], x[mask])
                assert t[n, j] == pytest.approx(approx, abs=1e-7)
        # a block starting at a later mode holds the same rows
        assert np.array_equal(transverse_cell_integrals(edges, 6, cfg.d, 2), t[2:])

    def test_modal_matrix_consistent_with_per_mode(self):
        # the rows of the all-modes matrix do not depend on how many modes
        # are requested
        cfg = self.cfg()
        mesh = build_mesh((-0.4, 0.4, 0.2, 0.8), 0.2, levels=2)
        r = sample(mesh, 3)
        breaks, values = noise_modal_matrix(r, 5, cfg)
        for n in range(5):
            breaks_n, values_n = noise_modal_matrix(r, n + 1, cfg)
            assert np.array_equal(breaks_n, breaks)
            np.testing.assert_allclose(values_n[n], values[n], rtol=1e-13)

    def test_function_source_passthrough(self):
        cfg = self.cfg()
        src = ModalFunctionSource(
            mode=1, fn=lambda x: x * x if abs(x) <= 0.5 else 0.0, x_lo=-0.5, x_hi=0.5
        )
        loads = modal_loads(src, cfg, self.grid(), 2)
        # hats partition unity: the row sums to the integral of fn
        assert np.sum(loads[1]).real == pytest.approx(1.0 / 12.0, rel=1e-12)
        assert not np.any(loads[0])

    def test_mixed_source_list(self):
        cfg = self.cfg()
        mesh = build_mesh((-0.4, 0.4, 0.2, 0.8), 0.3, levels=1)
        box, noise = ModeBoxSource(mode=1, x_lo=-0.1, x_hi=0.1), sample(mesh, 0)
        both = modal_loads([box, noise], cfg, self.grid(), 2)
        parts = modal_loads(box, cfg, self.grid(), 2) + modal_loads(noise, cfg, self.grid(), 2)
        np.testing.assert_allclose(both, parts, rtol=1e-15)
