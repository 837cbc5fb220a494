"""Monte Carlo convergence studies and rate-fitting utilities.

Four error mechanisms are measured at desk scale:

* ``run_h_study``: mean-square distance between solutions driven by one
  white-noise path discretized at nested mesh levels; the coupling through
  a single path is what turns the refinement error into a measurable
  quantity with the expected near-quadratic rate in the cell diameter.
* ``run_L_study``: deterministic distance between the exact-DtN solve and
  the reduced finite-layer solve as the layer grows; decays exponentially
  in the effective absorbed mass (integral of min(1, sigma/omega)).
* ``run_equivalence_check``: full-layer versus reduced solves restricted
  to the computational interval; they discretize the same continuous
  solution, so the gap closes at the discretization order.
* ``run_total_error_study``: the combined (h, L) error table.

Every study builds its per-mode operators in one ``solver.mode_matrix`` call
and solves them by LAPACK's zgtsv (``solver._solve_tridiag``).  The two
noise-driven studies (h and total) share one set-up, ``_noise_study``, that
draws nothing: level validation, noise mesh, grid, mode count, dense load maps,
scaled transverse projections and variances, trapezoid weights and every
mode's DtN bands.  Each study then draws its seeds by ``_NoiseStudy.segments``:
every seed's noise projected onto all modes at every level, sampled in blocks
of seeds by one ``noise.BlockSampler`` with one product per level and block,
and handed over in chunks of whole blocks whose buffers the next chunk reuses.
The h study reduces each chunk as it comes; the total study takes every seed
in one chunk.

Every (level, seed) load lives on the grid nodes under the forcing
rectangle, R = lo..hi.  Per mode, both noise studies need ||b||^2_W of b =
A_n^{-1} r for the real load differences r = L_lv s_lv - L_ref s_ref on R, W
the trapezoid weights, and solve on R alone: left of R, b = g^- b[lo], g^-
from one solve of the load-free exterior block (likewise g^+), so each
exterior adds rank-1 terms.  The h study solves one basis X of loads on R,
S = A_n^{-1} X (``_gram``), for ||b||^2_W = x^T G_n x, G_n = Re(S^H W S), r =
X x (``_h_basis``).  The levels are nested, so L_lv = L_ref E_lv, E_lv
repeating each level segment over its reference children: where the
reference level has fewer segments than R has nodes, X = L_ref and x = E_lv
s_lv - s_ref, else X = I_R and x = r.  x is formed before any product with
G_n, and only G_n and the errors outlive a chunk.  Its exact mean comes from
the same G_n: level noise is the L2 projection of the reference path, so the
cross-covariance of level and reference coordinates is the level covariance
C_lv,n = var_lv,n P_lv P_lv^T (var_lv,n the variance of mode n's segment
values, P_lv = E_lv or L_lv, P_ref = I or L_ref), and E[err_lv] = sum_n
sum(G_n o (C_ref,n - C_lv,n)).  The total study solves every level's loads in
one range solve per mode (``_level_terms``), which takes each level by segment
(L_lv) where it has fewer segments than seeds, else by seed (L_lv s_lv), and
forms b = A_n^{-1} f_lv - A_n^{-1} f_ref before any norm.

The layer studies (L and total) solve only the DtN operator.  The
modified layer needs no interface condition, so the reduced operator of
layer L differs from the DtN one in its two end rows alone: A_L = A_dtn +
E D_L E^T with E = [e_0, e_N] and D_L = i (1 - M^2) diag(-(nu^- - beta^-),
nu^+ - beta^+).  Each L is the rank-2 update u_L = u - Z c_L of the DtN
solution u, with Z = A_dtn^{-1} E and c_L = (I + D_L Z[ends])^{-1} D_L
u[ends]; a numerically singular I + D_L Z[ends] (so is A_L) raises
DomainError naming the lowest such mode, its side(s), its first such L and
the stage.  Per mode, ``_dtn_responses`` solves A_dtn once for [det | e_0 |
e_N], giving u and Z (u = 0 and no det column where det is zero).  The Gram
form ||b - Z c_L||^2_W = ||b||^2_W - 2 Re(c_L^H Z^H W b) + c_L^H (Z^H W Z)
c_L takes ||b||^2_W, Z^H W b, u[ends], Z[ends] and Z^H W Z of each mode;
``_layer_coefficients`` then runs once over the modes, one layer length at a
time, for the guard, c_L and the other two terms.  The L study takes b = u,
all five terms straight from u and Z, in the modes the source loads (the
others add exact zeros).  The total study takes b = u_lv - u_ref in every
mode, ||b||^2_W, Z^H W b and u_lv[ends] = u[ends] + (A_dtn^{-1} f)[ends] for
level noise f, all from ``_level_terms`` (no second solve).
Both build their layers, source and abscissae in ``_layer_set``: one config
per layer length, which carries x^{+-}, L and omega, one ``PmlProfile`` for
every layer and the gaps of every mode.

The noise studies map their per-mode work over a thread pool
(``_map_threads``): every per-mode solve and, in the h study, each chunk's
errors, in the total study the loads, u[ends] and Z^H W Z.  Its zgtsv solves
and BLAS products release the GIL
(``solver._solve_tridiag``), so the modes run in parallel; the 2x2 layer
update, many small numpy calls that would only take turns at the GIL, runs
after the pool, once over all modes.  Every study is a pure function of
(configuration, base_seed): seeds are ``base_seed + sample_index``,
per-seed work is independent, and aggregation runs in a fixed order, so
thread counts can never change any output bit.  Errors keep mode order:
the lowest failing mode raises, and a failure in the per-mode stage of any
mode comes before the layer update's guard.
"""

from __future__ import annotations

import math
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Optional, Sequence

import numpy as np

from .duct import DuctConfig, cutoff_numbers, default_n_modes
from .errors import ConfigError, DomainError, GridMismatchError, InsufficientDataError
from .noise import (
    BlockSampler,
    ModeBoxSource,
    NoiseMesh,
    block_size,
    transverse_cell_integrals,
)
from .pml import (
    PmlProfile,
    dtn_gap_bound,
    nu_gap,
    sigma_tilde_integral,
    theoretical_decay_constant,
)
from .solver import (
    DTN,
    PML_FULL,
    PML_REDUCED,
    Grid1D,
    _solve_tridiag,
    modal_loads,
    mode_matrix,
    omega_b_grid,
    omega_full_grid,
    piecewise_load_matrix,
    solve_full,
)

RATE_PASS_THRESHOLD = 1.8
RATE_STDERR_THRESHOLD = 0.15
DECAY_CONSTANT_RTOL = 0.25
EQUIV_ORDER_THRESHOLD = 1.9
# Largest condition of a row-equilibrated 2x2 layer update S_L that the
# layer studies accept (it costs up to that factor of eps in accuracy);
# past it the reduced operator is numerically singular.
UPDATE_COND_LIMIT = 1e8
# The noise studies' reference level lies this many dyadic steps below the finest
# requested one, and the equivalence check's spacings are these.
DEFAULT_REF_REFINE = 2
DEFAULT_EQUIV_DELTAS = (1 / 128, 1 / 256, 1 / 512)


@dataclass
class StudyResult:
    """Per-point estimates with standard errors plus the fitted rate."""

    kind: str
    abscissae: np.ndarray
    error_mean: np.ndarray
    error_stderr: np.ndarray
    excluded: np.ndarray
    fitted_rate: float
    rate_stderr: float
    theory_rate: float
    passed: bool
    n_samples: int
    base_seed: int
    extra: dict = field(default_factory=dict)


@dataclass
class TotalErrorResult:
    """Mean-square error table over the (cell diameter, layer length) grid."""

    h_values: np.ndarray
    l_values: np.ndarray
    abscissae_l: np.ndarray  # absorbed-mass integrals per layer length
    error_mean: np.ndarray  # (n_h, n_L)
    error_stderr: np.ndarray
    n_samples: int
    base_seed: int


def fit_rate(abscissae, values, std_errors=None, transform: str = "loglog"):
    """Weighted least-squares slope of transformed data.

    ``loglog`` fits ln(value) against ln(abscissa); ``loglinear`` fits
    ln(value) against the raw abscissa.  Weights are the delta-method
    variances (stderr/value)^2 when standard errors are supplied.  Returns
    (slope, slope_stderr).
    """
    x = np.asarray(abscissae, dtype=float)
    v = np.asarray(values, dtype=float)
    if x.size < 3:
        raise InsufficientDataError(f"need >= 3 points to fit, got {x.size}")
    if np.any(v <= 0.0):
        raise InsufficientDataError("values must be positive for a log fit")
    if transform == "loglog":
        x = np.log(x)
    elif transform != "loglinear":
        raise ConfigError(f"unknown transform {transform!r}")
    y = np.log(v)
    if std_errors is not None and np.any(np.asarray(std_errors) > 0.0):
        var = (np.asarray(std_errors, dtype=float) / v) ** 2
        var = np.maximum(var, 1e-300)
        w = 1.0 / var
    else:
        w = np.ones_like(v)
    wsum = np.sum(w)
    xbar = np.sum(w * x) / wsum
    ybar = np.sum(w * y) / wsum
    sxx = np.sum(w * (x - xbar) ** 2)
    if sxx <= 0.0:
        raise InsufficientDataError("degenerate abscissae")
    slope = float(np.sum(w * (x - xbar) * (y - ybar)) / sxx)
    if std_errors is not None and np.any(np.asarray(std_errors) > 0.0):
        slope_stderr = float(math.sqrt(1.0 / sxx))
    else:
        resid = y - (ybar + slope * (x - xbar))
        dof = max(x.size - 2, 1)
        slope_stderr = float(math.sqrt(np.sum(resid ** 2) / dof / sxx))
    return slope, slope_stderr


def _fit_usable(x, values, std_errors, usable, transform: str):
    """``fit_rate`` over the usable points; a NaN slope and stderr when fewer than
    3 remain or their abscissae are all equal (a layer without absorption)."""
    if np.sum(usable) < 3 or np.ptp(x[usable]) == 0.0:
        return float("nan"), float("nan")
    se = None if std_errors is None else std_errors[usable]
    return fit_rate(x[usable], values[usable], se, transform)


# ---------------------------------------------------------------------------
# Monte Carlo set-up shared by the noise-driven studies
# ---------------------------------------------------------------------------


@dataclass
class _NoiseStudy:
    """Mesh, grid, levels, maps and mode bands of one noise-driven study; it draws nothing.

    ``used`` are the mesh levels of the requested diameters (coarsest first) and
    ``ref_level`` the reference level.  Keyed in the order ``used + [ref_level]``,
    ``maps[lv]`` (dense) maps level lv's axial segment values to hat loads on the loaded
    nodes R = lo..hi (never empty) and ``trans[lv]`` = T / sqrt|K| projects its cell
    noise onto the modes (T the transverse cell integrals, |K| the cell area);
    ``var[j, n]`` = sum_j2 T[n, j2]^2 / |K| is the variance of mode n's segment values
    at level j of that order.  ``w`` are the trapezoid weights, ``bands`` the DtN bands.
    """

    mesh: NoiseMesh
    grid: Grid1D
    n_modes: int
    rel: list
    used: list
    ref_level: int
    var: np.ndarray
    lo: int
    hi: int
    maps: dict
    trans: dict
    w: np.ndarray
    bands: tuple

    def segments(self, n_samples: int, base_seed: int, chunk: int):
        """Chunks (s0, seg) of seeds base_seed + s0 .., each seg[lv] (n_modes, seeds, n1) level
        lv's segment values of every mode, seg[lv][n] mode n's contiguous (seed, segment)
        block.  A chunk is ``chunk`` seeds rounded up to whole blocks of one ``BlockSampler``
        (the last one shorter), drawn into buffers that the next chunk overwrites; a chunk
        of n_samples holds every seed.  Under 2 seeds: ConfigError, before any draw."""
        if n_samples < 2:
            raise ConfigError("noise studies need n_samples >= 2")
        step = min(block_size(self.mesh), n_samples)
        chunk = min(-(-chunk // step) * step, n_samples)
        seg = {lv: np.empty((self.n_modes, chunk, m.shape[1])) for lv, m in self.maps.items()}
        sampler = BlockSampler(self.mesh, list(seg), step)

        def chunks():
            for c0 in range(0, n_samples, chunk):
                size = min(chunk, n_samples - c0)
                for s0 in range(0, size, step):
                    seeds = range(base_seed + c0 + s0, base_seed + c0 + min(s0 + step, size))
                    for lv, xi in zip(seg, sampler.draw(seeds)):
                        # one product per level and block, one (seed, segment) run per mode
                        np.matmul(self.trans[lv].T, xi.reshape(-1, xi.shape[2]).T,
                                  out=seg[lv][:, s0 : s0 + len(seeds)].reshape(self.n_modes, -1))
                yield c0, {lv: v[:, :size] for lv, v in seg.items()}

        return chunks()

    def moments(self, err2):
        """Mean and standard error over the seeds (axis 0) of err2, and the cell
        diameters of the used levels."""
        diam = np.array([self.mesh.cell_diameter(lv) for lv in self.used])
        return err2.mean(axis=0), err2.std(axis=0, ddof=1) / math.sqrt(len(err2)), diam


def _noise_study(cfg: DuctConfig, h_levels, rect, delta, n_modes, ref_refine,
                 stage) -> _NoiseStudy:
    """Validate the levels and build everything that does not depend on the seeds.

    ``h_levels`` are cell diameters relative to the forcing-rectangle
    diagonal; they must be finite, distinct, dyadically nested, with a
    coarsest of 1/integer; ``ref_refine`` >= 1 puts the reference level that
    many dyadic steps below the finest of them.  Nothing is drawn.
    """
    if ref_refine < 1:
        raise ConfigError(f"ref_refine must be >= 1, got {ref_refine}")
    rel = sorted(float(h) for h in _nonempty(h_levels, "h_levels", stage))
    if not all(0.0 < r < math.inf for r in rel):
        raise ConfigError(f"relative diameters must be positive and finite, got {h_levels}")
    base = round(1.0 / rel[-1])
    if abs(base * rel[-1] - 1.0) > 1e-9:
        raise ConfigError("coarsest relative diameter must be 1/integer")
    used = []
    for r in reversed(rel):
        lv = math.log2(rel[-1] / r)
        if abs(lv - round(lv)) > 1e-9:
            raise GridMismatchError(f"levels {h_levels} are not dyadically nested")
        lv = int(round(lv))
        if lv in used:
            raise ConfigError(f"relative diameter {r} is repeated in {h_levels}")
        used.append(lv)
    total_levels = used[-1] + 1 + ref_refine
    rect = default_forcing_rect(cfg) if rect is None else check_forcing_rect(cfg, rect)
    mesh = NoiseMesh(rect=rect, levels=total_levels, base_shape=(base, base))
    grid = omega_b_grid(cfg, delta)
    if n_modes is None:
        n_modes = default_n_modes(cfg)
    elif n_modes < 1:
        raise ConfigError(f"{stage}: n_modes must be >= 1, got {n_modes}")
    ref_level = total_levels - 1
    trans, maps, var = {}, {}, []
    for lv in used + [ref_level]:
        x1_edges, x2_edges = mesh.edges(lv)
        t = transverse_cell_integrals(x2_edges, n_modes, cfg.d).T
        var.append(np.sum(t ** 2, axis=0) / mesh.cell_area(lv))
        trans[lv] = t * (1.0 / math.sqrt(mesh.cell_area(lv)))  # xi / sqrt|K|: the cell's noise
        maps[lv] = piecewise_load_matrix(grid, x1_edges)
    rows = np.flatnonzero(np.any([m.any(axis=1) for m in maps.values()], axis=0))
    lo, hi = int(rows[0]), int(rows[-1])
    maps = {lv: m[lo : hi + 1] for lv, m in maps.items()}
    return _NoiseStudy(mesh, grid, n_modes, rel, used, ref_level, np.array(var), lo, hi, maps,
                       trans, _trapezoid_weights(grid),
                       mode_matrix(np.arange(n_modes), cfg, grid, DTN))


def _nonempty(values, name: str, stage: str) -> list:
    """values as a list; an empty one is a ConfigError naming the argument."""
    values = list(values)
    if not values:
        raise ConfigError(f"{stage}: {name} is empty")
    return values


def _map_threads(fn, args, threads: int):
    """Apply fn over args, serial or thread-pooled; output order is fixed."""
    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, args))
    return [fn(a) for a in args]


# ---------------------------------------------------------------------------
# One DtN solve per mode; every layer length is a rank-2 update of it
# ---------------------------------------------------------------------------


# A layer study's config cfg_L per layer length, the one profile of every layer, their
# ``_layer_gaps``, the source's modal loads and each layer's absorbed mass
_LayerSet = namedtuple("_LayerSet", "cfgs profile gaps det abscissae")


def _layer_set(cfg: DuctConfig, grid: Grid1D, n_modes: int, l_values, sigma_plus, sigma_minus,
               source, stage: str) -> _LayerSet:
    """The layers of l_values and source (default ``default_l_study_source``); empty
    l_values, or a modal source outside modes 0 .. n_modes-1, is a ConfigError."""
    cfgs = [replace(cfg, L=float(L)) for L in _nonempty(l_values, "l_values", stage)]
    profile = PmlProfile(sigma_plus, sigma_minus)
    if source is None:
        source = default_l_study_source(cfg)
    _check_source_modes(source, n_modes, stage)
    abscissae = np.array([sigma_tilde_integral(profile, "+", c) for c in cfgs])
    return _LayerSet(cfgs, profile, _layer_gaps(cfgs, profile, n_modes),
                     modal_loads(source, cfg, grid, n_modes), abscissae)


def _check_source_modes(source, n_modes: int, stage: str):
    """A modal source (or list member) outside modes 0 .. n_modes-1 is a ConfigError."""
    for s in source if isinstance(source, (list, tuple)) else [source]:
        if not 0 <= getattr(s, "mode", 0) < n_modes:
            raise ConfigError(f"{stage}: source mode {s.mode} is not in 0 .. n_modes - 1 "
                              f"(n_modes = {n_modes}) and would never be solved")


def _layer_gaps(cfgs, profile: PmlProfile, n_modes: int) -> np.ndarray:
    """D_L = i (1 - M^2) (-(nu^- - beta^-), nu^+ - beta^+) of every mode and layer
    cfg_L, shape (n_modes, n_L, 2): one nu_gap call per (L, side)."""
    n = np.arange(n_modes)
    return np.stack([1j * c.one_minus_m2 * np.stack([-nu_gap(n, "-", profile, c),
                                                     nu_gap(n, "+", profile, c)], axis=1)
                     for c in cfgs], axis=1)


def _layer_coefficients(cfgs, gaps, modes, terms, stage: str):
    """The update of modes (ascending) at once, one layer of cfgs at a time, from gaps, the
    rows of modes in ``_layer_gaps``, and each mode's terms (||b||^2_W, Z^H W b, u[ends],
    Z[ends], Z^H W Z): yields c_L = S_L^{-1} D_L u[ends] (len(modes), 2, columns),
    Re(c_L^H Z^H W b) and ||Z c_L||^2_W = c_L^H (Z^H W Z) c_L (len(modes), columns).

    u_L = u - Z c_L solves A_L = A_dtn + E D_L E^T, E = [e_0, e_N], D_L =
    diag(gaps[i, j]) of the i-th of modes, S_L = I + D_L Z[ends].  S_L is singular
    exactly when A_L is: a row-equilibrated condition above UPDATE_COND_LIMIT
    raises DomainError naming the lowest such mode, its side(s), its first such
    L and the stage, before the first layer is yielded.
    """
    zwb, u_ends, z_ends, gram = (np.stack(t) for t in list(zip(*terms))[1:])
    s = np.eye(2) + gaps[..., None] * z_ends[:, None]  # (modes, n_L, 2, 2)
    cond = np.linalg.cond(s / np.max(np.abs(s), axis=-1, keepdims=True))
    for i, j in np.argwhere(~(cond <= UPDATE_COND_LIMIT))[:1]:  # mode-major order
        sides = [side for side, d_i in zip("-+", gaps[i, j]) if d_i != 0.0]  # the updated ends
        raise DomainError(
            f"{stage}, mode n={modes[i]}, side(s) {' and '.join(sides)}, L={cfgs[j].L}: "
            f"rank-2 layer update has condition {cond[i, j]:.3e} > {UPDATE_COND_LIMIT:.0e}; "
            "the reduced mode operator is numerically singular"
        )
    for j in range(len(cfgs)):  # one layer at a time: c_L of every L at once costs memory
        c = np.linalg.solve(s[:, j], gaps[:, j, :, None] * u_ends)
        yield c, np.sum(c.conj() * zwb, axis=1).real, np.sum(c.conj() * (gram @ c), axis=1).real


def _dtn_responses(n: int, matrix, det, stage: str):
    """One solve of mode n's DtN matrix A, A [u | Z] = [det | e_0 | e_N]: the
    deterministic solution u and the end responses Z = A^{-1} E, E = [e_0, e_N].
    A mode that det leaves unloaded solves [e_0 | e_N] alone and has u = 0."""
    loaded = bool(det.any())
    rhs = np.zeros((det.size, 2 + loaded), dtype=complex)
    rhs[0, -2] = rhs[-1, -1] = 1.0
    if loaded:
        rhs[:, 0] = det
    x = _solve_tridiag(*matrix, rhs, where=f"{stage}, mode n={n}")
    return (x[:, 0] if loaded else np.zeros(det.size, dtype=complex)), x[:, -2:]


def _range_solve(n: int, matrix, lo: int, hi: int, rhs, stage: str):
    """A^{-1} rhs of mode n on nodes lo..hi, for loads that vanish outside them.

    The solution is g_lo b[lo] on nodes 0..lo-1 and g_hi b[hi] on hi+1..N; each
    gain is one solve of its load-free exterior block and corrects a corner
    of lo..hi.  Returns (b on lo..hi, g_lo, g_hi); no exterior, empty gain.
    """
    sub, diag, sup = matrix
    d_r = diag[lo : hi + 1].copy()
    where = f"{stage}, mode n={n}"
    g_lo = g_hi = np.zeros(0, dtype=complex)
    if lo > 0:
        rhs_lo = np.zeros(lo, dtype=complex)
        rhs_lo[-1] = -sup[lo - 1]
        g_lo = _solve_tridiag(sub[: lo - 1], diag[:lo], sup[: lo - 1], rhs_lo,
                              where=f"{where}, side -: exterior block")
        d_r[0] += sub[lo - 1] * g_lo[-1]
    if hi < diag.size - 1:
        rhs_hi = np.zeros(diag.size - 1 - hi, dtype=complex)
        rhs_hi[0] = -sub[hi]
        g_hi = _solve_tridiag(sub[hi + 1 :], diag[hi + 1 :], sup[hi + 1 :], rhs_hi,
                              where=f"{where}, side +: exterior block")
        d_r[-1] += sup[hi] * g_hi[0]
    return _solve_tridiag(sub[lo:hi], d_r, sup[lo:hi], rhs, where=where), g_lo, g_hi


def _exteriors(lo: int, hi: int, w, g_lo, g_hi):
    """(nodes, gain, ||g||^2_W, edge) of each side of lo..hi, left (edge 0) then right (-1)."""
    return [(ext, g, w[ext] @ (g.real ** 2 + g.imag ** 2), edge)
            for ext, g, edge in ((slice(0, lo), g_lo, 0), (slice(hi + 1, None), g_hi, -1))]


def _gram(n: int, matrix, lo: int, hi: int, w, x, stage: str):
    """G = Re(S^H W S) of mode n's S = A^{-1} X for real loads X on lo..hi (columns)."""
    b, g_lo, g_hi = _range_solve(n, matrix, lo, hi, x, stage)
    g = np.vstack([np.sqrt(w[lo : hi + 1])[:, None] * b]
                  + [math.sqrt(c) * b[e][None] for *_, c, e in _exteriors(lo, hi, w, g_lo, g_hi)])
    g = np.vstack([g.real, g.imag])
    return g.T @ g


def _level_terms(n: int, matrix, lo: int, hi: int, w, z, levels, stage: str):
    """||b||^2_W, Z^H W b and (A^{-1} f)[ends] of mode n's b = A^{-1} (f - f_ref), W = diag(w),
    for the real loads f on lo..hi of each level, f_ref the first's, per (level, seed).

    A level is (L, s), L its map on lo..hi and s (seeds, segments) its segment values, f =
    L s^T.  One ``_range_solve`` takes each level by segment (the columns of L) where L has
    fewer columns than s has seeds, else by seed (those of f), so A^{-1} f = x s^T or x,
    and b is formed one level at a time.  Each exterior adds ||g||^2_W and Z^H W g to its
    edge's weights, and (A^{-1} f)[0] = g_lo[0] (A^{-1} f)[lo] (likewise at N; 1 without
    an exterior).
    """
    levels = [(m, s) if m.shape[1] < len(s) else (m @ s.T, None) for m, s in levels]
    x, g_lo, g_hi = _range_solve(n, matrix, lo, hi, np.hstack([m for m, _ in levels]), stage)
    wz = (w[:, None] * z).conj()
    w_r, wz_r = w[lo : hi + 1].copy(), wz[lo : hi + 1].copy()
    for ext, g, c, edge in _exteriors(lo, hi, w, g_lo, g_hi):
        w_r[edge] += c
        wz_r[edge] += wz[ext].T @ g
    gains = np.array([g_lo[0] if g_lo.size else 1.0, g_hi[-1] if g_hi.size else 1.0])
    w2 = np.repeat(w_r, 2)
    # x.T is C-contiguous, (re, im) interleaved: a level's x s^T is one real product
    starts = np.cumsum([m.shape[1] for m, _ in levels])[:-1]
    solved = (cols if s is None else (s @ cols.view(float)).view(complex)  # (seeds, |R|)
              for cols, (_, s) in zip(np.split(x.T, starts), levels))
    a_ref, terms = next(solved), []
    for a in solved:
        b = a - a_ref
        bf = b.view(float)
        terms.append(((bf * bf) @ w2, (b @ wz_r).T, gains[:, None] * a[:, [0, -1]].T))
    return [np.concatenate(t, axis=-1) for t in zip(*terms)]


def _trapezoid_weights(grid: Grid1D) -> np.ndarray:
    w = np.full(grid.n_nodes, grid.delta)
    w[0] = w[-1] = 0.5 * grid.delta
    return w


# Segment values, in bytes, of every mode and level that one chunk of the h study's
# seeds holds: the seeds per chunk trade Python overhead per chunk for memory.
CHUNK_BYTES = 2 * 1024 * 1024


def _h_basis(st: _NoiseStudy, reference: Optional[bool] = None):
    """The h study's basis X, real loads on R, and coordinate maps: pt[lv] (n1_lv, m)
    with L_lv = X pt[lv]^T, so r = L_lv s_lv - L_ref s_ref = X x for x = pt[lv]^T s_lv -
    pt[ref]^T s_ref; pt[ref] is None for the identity.

    The reference basis (the default where n1_ref < |R|) is X = L_ref with pt[lv] =
    E_lv^T, E_lv repeating each level segment over its reference children (the levels
    are nested), so x = E_lv s_lv - s_ref.  The unit basis is X = I_R with pt[lv] = L_lv^T.
    """
    maps = st.maps
    n_ref = maps[st.ref_level].shape[1]
    if reference is None:
        reference = n_ref < st.hi - st.lo + 1
    if not reference:
        return np.eye(st.hi - st.lo + 1), {lv: np.ascontiguousarray(m.T) for lv, m in maps.items()}
    pt = {lv: np.repeat(np.eye(m.shape[1]), n_ref // m.shape[1], axis=1) for lv, m in maps.items()}
    return maps[st.ref_level], {**pt, st.ref_level: None}


def run_h_study(
    cfg: DuctConfig,
    profile: Optional[PmlProfile],
    h_levels: Sequence[float],
    n_samples: int,
    base_seed: int,
    rect=None,
    delta: Optional[float] = None,
    n_modes: Optional[int] = None,
    ref_refine: int = DEFAULT_REF_REFINE,
    threads: int = 0,
) -> StudyResult:
    """Noise-refinement study: mean-square solution distance per mesh level.

    ``h_levels`` are cell diameters relative to the forcing-rectangle
    diagonal (dyadic, e.g. 1/8, 1/16, 1/32).  One finest-level path per
    seed is coarsened to every requested level; the exact-DtN solve driven
    by each level is compared with the solve at the reference level
    (``ref_refine`` >= 1 dyadic steps below the finest requested).  The
    profile argument is accepted for interface symmetry; the study solves
    with the exact nonreflecting closure.

    Every (level, seed) error is ||A_n^{-1} r||^2_W = x^T G_n x of the load
    difference r = L_lv s_lv - L_ref s_ref = X x on the nodes R under the forcing
    rectangle, summed over modes, with G_n = Re(S^H W S) of mode n's solves S =
    A_n^{-1} X (``_gram``) in the basis X of ``_h_basis``: L_ref where the reference
    level has fewer segments than R has nodes, else the unit loads of R.  x is
    formed before any product with G_n.  The seeds are drawn and reduced one chunk
    (CHUNK_BYTES of segment values) at a time; only G_n and the errors outlive a
    chunk.  ``extra["exact_mean"]`` holds the mean-square error of each level without
    sampling, sum_n (var_ref,n tr(P_ref^T G_n P_ref) - var_lv,n tr(P_lv^T G_n P_lv)),
    P = pt^T (L on the unit basis; E_lv and the identity on the reference basis).
    """
    del profile
    st = _noise_study(cfg, h_levels, rect, delta, n_modes, ref_refine, "h study")
    per_seed = 8 * st.n_modes * sum(m.shape[1] for m in st.maps.values())
    chunks = st.segments(n_samples, base_seed, max(1, CHUNK_BYTES // per_seed))
    basis, pt = _h_basis(st)
    m = basis.shape[1]
    # P P^T of every level in maps' order, flat: tr(P^T G P) = sum(G o P P^T)
    ppt = np.stack([(np.eye(m) if p is None else p.T @ p).ravel() for p in pt.values()])

    def mode_gram(n: int):
        g = _gram(n, tuple(b[n] for b in st.bands), st.lo, st.hi, st.w, basis, "h study")
        traces = ppt @ g.ravel()
        return g, st.var[-1, n] * traces[-1] - st.var[:-1, n] * traces[:-1]

    grams, exact = zip(*_map_threads(mode_gram, range(st.n_modes), threads))
    exact_mean = np.sum(np.stack(exact), axis=0)  # (n_used,), summed over the modes

    def chunk_terms(seg, n: int):
        """Mode n's errors (seeds, n_used) of the chunk seg."""
        s_ref = seg[st.ref_level][n]
        x = np.empty((len(st.used), len(s_ref), m))
        for j, lv in enumerate(st.used):
            np.matmul(seg[lv][n], pt[lv], out=x[j])
        x -= s_ref if pt[st.ref_level] is None else s_ref @ pt[st.ref_level]
        xg = x @ grams[n]
        xg *= x
        return xg.sum(axis=2).T

    err2 = np.empty((n_samples, len(st.used)))
    for s0, seg in chunks:
        terms = _map_threads(partial(chunk_terms, seg), range(st.n_modes), threads)
        np.sum(np.stack(terms), axis=0, out=err2[s0 : s0 + len(terms[0])])  # over the modes
    mean, stderr, diam = st.moments(err2)
    excluded = mean < 3.0 * stderr  # indistinguishable from the MC noise floor
    slope, slope_se = _fit_usable(diam, mean, stderr, ~excluded, "loglog")
    passed = (
        np.isfinite(slope)
        and slope >= RATE_PASS_THRESHOLD
        and slope_se < RATE_STDERR_THRESHOLD
    )
    return StudyResult(
        kind="h",
        abscissae=diam,
        error_mean=mean,
        error_stderr=stderr,
        excluded=excluded,
        fitted_rate=slope,
        rate_stderr=slope_se,
        theory_rate=2.0,
        passed=bool(passed),
        n_samples=n_samples,
        base_seed=base_seed,
        extra={"relative_h": np.asarray(st.rel)[::-1], "mesh_levels": st.used,
               "exact_mean": exact_mean},
    )


def default_forcing_rect(cfg: DuctConfig):
    """Centered rectangle covering the middle half of the computational domain."""
    cx = 0.5 * (cfg.x_minus + cfg.x_plus)
    wx = 0.25 * (cfg.x_plus - cfg.x_minus)
    return (cx - wx, cx + wx, 0.25 * cfg.d, 0.75 * cfg.d)


def check_forcing_rect(cfg: DuctConfig, rect) -> tuple:
    """rect (x1_lo, x1_hi, x2_lo, x2_hi) as a tuple; ConfigError unless it has a positive
    area inside [x_minus, x_plus] x [0, d], where noise loads the grid and the modes."""
    rect = tuple(rect)
    if not (rect[0] < rect[1] and rect[2] < rect[3]):
        raise ConfigError(f"degenerate forcing rectangle {rect}")
    if rect[2] < 0.0 or rect[3] > cfg.d:
        raise ConfigError("forcing rectangle leaves the duct")
    if rect[0] < cfg.x_minus or rect[1] > cfg.x_plus:
        raise ConfigError("forcing rectangle leaves the computational domain")
    return rect


def default_l_study_source(cfg: DuctConfig) -> ModeBoxSource:
    """Box source in the first evanescent mode N0 + 1.

    The layer-length error constant is set by that mode once the absorption
    saturates, so exciting it is what makes the fitted decay measurable.
    """
    _, n0 = cutoff_numbers(cfg)
    rect = default_forcing_rect(cfg)
    return ModeBoxSource(mode=n0 + 1, x_lo=rect[0], x_hi=rect[1], amplitude=1.0)


def run_L_study(
    cfg: DuctConfig,
    l_values: Sequence[float],
    sigma_plus: float,
    source=None,
    sigma_minus: Optional[float] = None,
    delta: Optional[float] = None,
    n_modes: Optional[int] = None,
) -> StudyResult:
    """Layer-length study: exact-DtN versus reduced finite-layer solve.

    Both solves share the grid and interior discretization, so their
    distance isolates the layer truncation.  In each mode the source loads (no
    other is solved or guarded), ``_dtn_responses`` and ``_layer_coefficients``
    with b = u, the DtN solution, give the error ||Z c_L||^2_W (u_L = u - Z c_L)
    and ||u||^2_W, each summed over those modes (none: errors 0): the error is the
    discrete |nu - beta| times trace truncation bound, the norm
    ``extra["dtn_norm"]``.  The fit is log(error) against the
    absorbed-mass abscissa; the reference slope is the negative of the
    theoretical decay constant.  Usable abscissae that are all equal (no
    absorption) give no fit: a NaN slope and passed False.  ``passed`` also
    needs the usable errors to fall as L grows, whatever the order of l_values.
    """
    grid = omega_b_grid(cfg, delta)
    n_modes = default_n_modes(cfg) if n_modes is None else n_modes
    lay = _layer_set(cfg, grid, n_modes, l_values, sigma_plus, sigma_minus, source, "L study")
    w = _trapezoid_weights(grid)
    loaded = np.flatnonzero(lay.det.any(axis=1))  # the other modes add exact zeros

    def mode_terms(n: int, matrix):
        # b = u, so u[ends] is b[ends]: one solve, no transposed one
        u, z = _dtn_responses(n, matrix, lay.det[n], "L study")
        b, wz = u[:, None], w[:, None] * z
        return (w @ (b.real ** 2 + b.imag ** 2), wz.conj().T @ b, b[[0, -1]], z[[0, -1]],
                z.conj().T @ wz)

    # each loaded mode with its bands, from one call
    terms = [mode_terms(*a) for a in zip(loaded, zip(*mode_matrix(loaded, cfg, grid, DTN)))]
    dtn_norm = math.sqrt(sum(float(b_norm2[0]) for b_norm2, *_ in terms))
    # summed over the loaded modes in mode order; with none, every error is 0
    layers = terms and _layer_coefficients(lay.cfgs, lay.gaps[loaded], loaded, terms, "L study")
    errors = np.sqrt([sum(q[:, 0]) for *_, q in layers] or np.zeros(len(lay.cfgs)))
    bound_flags = [dtn_gap_bound(default_l_study_source(c).mode, "+", lay.profile, c).applicable
                   for c in lay.cfgs]
    excluded = errors < 1e-12 * max(dtn_norm, 1e-300)  # the roundoff floor
    usable = ~excluded
    c2 = theoretical_decay_constant(cfg)
    slope, slope_se = _fit_usable(lay.abscissae, errors, None, usable, "loglinear")
    l_values = np.array([c.L for c in lay.cfgs])
    by_length = np.argsort(l_values, kind="stable")
    monotone = bool(np.all(np.diff(errors[by_length][usable[by_length]]) < 0.0))
    passed = np.isfinite(slope) and abs(slope + c2) <= DECAY_CONSTANT_RTOL * c2 and monotone
    return StudyResult(
        kind="L",
        abscissae=lay.abscissae,
        error_mean=errors,
        error_stderr=np.zeros_like(errors),
        excluded=excluded,
        fitted_rate=slope,
        rate_stderr=slope_se,
        theory_rate=-c2,
        passed=bool(passed),
        n_samples=1,
        base_seed=0,
        extra={"l_values": l_values,
               "dtn_norm": dtn_norm, "monotone": monotone,
               "bound_applicable": bound_flags},
    )


def run_equivalence_check(
    cfg: DuctConfig,
    profile: PmlProfile,
    source=None,
    deltas: Sequence[float] = DEFAULT_EQUIV_DELTAS,
    n_modes: Optional[int] = None,
) -> StudyResult:
    """Full-layer versus reduced solves on the computational interval.

    Returns the max nodal difference per spacing and the observed
    convergence order (both discretizations approximate the same continuous
    solution to second order, so the difference closes at that order).
    ``n_modes`` defaults to ``default_n_modes`` (N0 + 30); a modal source
    outside modes 0 .. n_modes-1 is a ConfigError; only loaded modes are solved.
    """
    deltas = _nonempty(deltas, "deltas", "equivalence check")
    if source is None:
        source = default_l_study_source(cfg)
    if n_modes is None:
        n_modes = default_n_modes(cfg)
    _check_source_modes(source, n_modes, "equivalence check")
    diffs = []
    for d in deltas:
        gf = omega_full_grid(cfg, d)
        full = solve_full(cfg, source, PML_FULL, gf, n_modes, profile).values
        red = solve_full(cfg, source, PML_REDUCED, omega_b_grid(cfg, d), n_modes, profile).values
        i0 = round((cfg.x_minus - gf.x_start) / gf.delta)  # the node at x^-
        diffs.append(float(np.max(np.abs(full[:, i0 : i0 + red.shape[1]] - red), initial=0.0)))
    diffs = np.asarray(diffs)
    deltas = np.asarray(deltas, dtype=float)
    if diffs.size >= 3 and np.all(diffs > 0.0):
        slope, slope_se = fit_rate(deltas, diffs, None, "loglog")
        passed = slope >= EQUIV_ORDER_THRESHOLD
    else:
        slope, slope_se = float("nan"), float("nan")
        passed = bool(np.all(diffs == 0.0))
    return StudyResult(
        kind="equiv",
        abscissae=deltas,
        error_mean=diffs,
        error_stderr=np.zeros_like(diffs),
        excluded=np.zeros(diffs.size, dtype=bool),
        fitted_rate=slope,
        rate_stderr=slope_se,
        theory_rate=2.0,
        passed=bool(passed),
        n_samples=1,
        base_seed=0,
        extra={},
    )


def run_total_error_study(
    cfg: DuctConfig,
    h_levels: Sequence[float],
    l_values: Sequence[float],
    sigma_plus: float,
    n_samples: int,
    base_seed: int,
    source=None,
    rect=None,
    delta: Optional[float] = None,
    n_modes: Optional[int] = None,
    ref_refine: int = DEFAULT_REF_REFINE,
    threads: int = 0,
    sigma_minus: Optional[float] = None,
) -> TotalErrorResult:
    """Combined noise-refinement and layer-length error table.

    Per seed, the reference is the exact-DtN solve driven by the
    reference-level noise (plus the deterministic source); each table entry
    compares it against the reduced solve with layer L driven by level-h
    noise.  For large L the columns reproduce the refinement study; for the
    finest h the rows reproduce the layer decay.  ``sigma_minus`` defaults
    to ``sigma_plus``.

    Each entry sums, over modes, the three Gram terms of ``_layer_coefficients``
    (see the module docstring) for b = u_lv - u_ref = A_dtn^{-1} (f_lv - f_ref),
    with the real level loads f_lv = L_lv s_lv on the loaded nodes R, and
    u_lv[ends] = u[ends] + (A_dtn^{-1} f_lv)[ends], from one range solve per mode
    (``_level_terms``): at the pinned scale (50 samples) the levels of 8, 16 and
    32 segments by segment, the reference of 128 by seed, 106 columns on 321 nodes.
    """
    st = _noise_study(cfg, h_levels, rect, delta, n_modes, ref_refine, "total study")
    lay = _layer_set(cfg, st.grid, st.n_modes, l_values, sigma_plus, sigma_minus, source,
                     "total study")
    [(_, seg)] = st.segments(n_samples, base_seed, n_samples)  # one chunk: every seed

    def mode_terms(n: int):
        matrix = tuple(b[n] for b in st.bands)
        u, z = _dtn_responses(n, matrix, lay.det[n], "total study")
        levels = [(st.maps[lv], seg[lv][n]) for lv in [st.ref_level] + st.used]
        b_norm2, zwb, ends = _level_terms(n, matrix, st.lo, st.hi, st.w, z, levels, "total study")
        return b_norm2, zwb, u[[0, -1], None] + ends, z[[0, -1]], z.conj().T @ (st.w[:, None] * z)

    terms = _map_threads(mode_terms, range(st.n_modes), threads)
    b_norm2 = np.stack([t[0] for t in terms])
    err2 = np.empty((st.n_modes, len(lay.cfgs), b_norm2.shape[1]))
    layers = _layer_coefficients(lay.cfgs, lay.gaps, range(st.n_modes), terms, "total study")
    for j, (_, cross, quad) in enumerate(layers):
        err2[:, j] = b_norm2 - 2.0 * cross + quad
    per_mode = [e.reshape(len(lay.cfgs), len(st.used), n_samples).T for e in err2]
    mean, stderr, diam = st.moments(np.sum(np.stack(per_mode), axis=0))
    return TotalErrorResult(
        h_values=diam,
        l_values=np.array([c.L for c in lay.cfgs]),
        abscissae_l=lay.abscissae,
        error_mean=mean,
        error_stderr=stderr,
        n_samples=n_samples,
        base_seed=base_seed,
    )
