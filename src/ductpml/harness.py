"""Monte Carlo convergence studies and rate-fitting utilities.

Three error mechanisms are measured at desk scale:

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

Every per-mode operator comes from ``solver.mode_matrix`` and is solved by
LAPACK's zgtsv (``solver._solve_tridiag``).  The two noise-driven studies
(h and total) share one set-up, ``_noise_study``: level validation, noise
mesh, grid, mode count, load tables, and each seed's noise projected onto
all modes at every level.

Every (level, seed) load lives on the grid nodes under the forcing
rectangle, R.  The h study therefore solves each mode once on the unit
loads of R: B = A_n^{-1} E_R gives the real |R| x |R| Gram matrix Q_n =
Re(B^H W B), with W the trapezoid weights, and each seed's error at a
level is the quadratic form r^T Q_n r of its real load difference r =
L_lv s_lv - L_ref s_ref on R.  No solution is formed, and the difference
is taken before the solve, not after.  The same Q_n gives the exact mean:
level noise is the L2 projection of the reference path, so the
cross-covariance of level and reference loads is the level covariance
C_lv,n = var_lv,n L_lv L_lv^T (var_lv,n the variance of mode n's segment
values), and E[err_lv] = sum_n tr(Q_n (C_ref,n - C_lv,n)).

The layer studies (L and total) solve only the DtN operator.  The
modified layer needs no interface condition, so the reduced operator of
layer L differs from the DtN one in its two end rows alone: A_L = A_dtn +
E D_L E^T with E = [e_0, e_N] and D_L = i (1 - M^2) diag(-(nu^- - beta^-),
nu^+ - beta^+).  Each L is the rank-2 update u_L = u - Z c_L of the DtN
solution u, with Z = A_dtn^{-1} E and c_L = (I + D_L Z[ends])^{-1} D_L
u[ends]; all L of a mode are one stacked 2x2 solve.  u_L is never formed:
the trapezoid-weighted error ||b - Z c_L||^2_W is the Gram form ||b||^2_W -
2 Re(c_L^H Z^H W b) + c_L^H (Z^H W Z) c_L, O(columns) per L.  A
numerically singular I + D_L Z[ends] (so is A_L) raises DomainError
naming the mode, side(s), L and stage.

The total study solves b = u_lv - u_ref = A_dtn^{-1} r for the level
differences r alone (the reference and the deterministic source enter only
u_lv[ends] = Y^T (det + L_lv s_lv), Y = A_dtn^{-T} E), on the node range
R = [r0, r1] they load: left of R, b = g^- b[r0], with g^- from one solve
of the load-free block (likewise g^+), and the exterior adds the rank-1
terms |b[r0]|^2 ||g^-||^2_W to ||b||^2_W and (Z_ext^H W g^-) b[r0] to Z^H W b.

Every study is a pure function of (configuration, base_seed): seeds are
``base_seed + sample_index``, per-seed work is independent, and
aggregation runs in a fixed order, so thread counts can never change any
output bit.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np
from scipy.sparse import csr_array

from .duct import DuctConfig, cutoff_numbers, default_n_modes
from .errors import ConfigError, DomainError, GridMismatchError, InsufficientDataError
from .noise import (
    ModeBoxSource,
    NoiseMesh,
    realization_levels,
    sample,
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
    solve_mode,
)

RATE_PASS_THRESHOLD = 1.8
RATE_STDERR_THRESHOLD = 0.15
DECAY_CONSTANT_RTOL = 0.25
EQUIV_ORDER_THRESHOLD = 1.9
# Largest condition of a row-equilibrated 2x2 layer update S_L that the
# layer studies accept (it costs up to that factor of eps in accuracy);
# past it the reduced operator is numerically singular.
UPDATE_COND_LIMIT = 1e8


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


# ---------------------------------------------------------------------------
# Monte Carlo set-up shared by the noise-driven studies
# ---------------------------------------------------------------------------


@dataclass
class _NoiseStudy:
    """Mesh, grid, levels and per-seed segment loads of one noise-driven study.

    ``used`` are the mesh levels of the requested diameters (coarsest
    first) and ``ref_level`` is the reference level; ``seg[lv]`` holds the
    axial segment values of every seed and mode at level lv, shape
    (n_samples, n1, n_modes), ``loadmap[lv]`` maps segments to hat loads,
    and ``var[lv][n]`` = sum_j2 T[n, j2]^2 / |K| is the variance of mode n's
    segment values at level lv (T the transverse cell integrals, |K| the
    cell area).  The studies form the loads L_lv s_lv on the loaded nodes
    R, ``rows`` (never empty).
    """

    mesh: NoiseMesh
    grid: Grid1D
    n_modes: int
    n_samples: int
    rel: list
    used: list
    ref_level: int
    loadmap: dict
    seg: dict
    var: dict
    rows: np.ndarray

    @property
    def all_levels(self) -> list:
        """The used levels, then the reference level: the column-block order."""
        return self.used + [self.ref_level]


def _noise_study(
    cfg: DuctConfig, h_levels, n_samples, base_seed, rect, delta, n_modes, ref_refine, stage
) -> _NoiseStudy:
    """Validate the levels and build everything that does not depend on the mode.

    ``h_levels`` are cell diameters relative to the forcing-rectangle
    diagonal; they must be distinct, dyadically nested, with a coarsest of
    1/integer; ``ref_refine`` >= 1 puts the reference level that many dyadic
    steps below the finest of them.
    """
    if n_samples < 2:
        raise ConfigError("noise studies need n_samples >= 2")
    if ref_refine < 1:
        raise ConfigError(f"ref_refine must be >= 1, got {ref_refine}")
    rel = sorted(float(h) for h in h_levels)
    if rel[0] <= 0.0:
        raise ConfigError("relative diameters must be positive")
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
    if rect is None:
        rect = default_forcing_rect(cfg)
    mesh = NoiseMesh(rect=tuple(rect), levels=total_levels, base_shape=(base, base))
    grid = omega_b_grid(cfg, delta)
    if n_modes is None:
        n_modes = default_n_modes(cfg)
    ref_level = total_levels - 1
    trans = {}
    loadmap = {}
    seg = {}
    var = {}
    for lv in used + [ref_level]:
        x1_edges, x2_edges = mesh.edges(lv)
        trans[lv] = transverse_cell_integrals(x2_edges, n_modes, cfg.d).T
        loadmap[lv] = piecewise_load_matrix(grid, x1_edges)
        seg[lv] = np.empty((n_samples, x1_edges.size - 1, n_modes))
        var[lv] = np.sum(trans[lv] ** 2, axis=0) / mesh.cell_area(lv)
    rows = np.flatnonzero(np.any([m.any(axis=1) for m in loadmap.values()], axis=0))
    if rows.size == 0:
        raise ConfigError(f"{stage}: the forcing rectangle loads no grid node")
    for i in range(n_samples):
        levels = realization_levels(sample(mesh, base_seed + i))
        for lv, t in trans.items():
            amp = 1.0 / math.sqrt(mesh.cell_area(lv))
            np.matmul(levels[lv].xi * amp, t, out=seg[lv][i])
    return _NoiseStudy(
        mesh, grid, n_modes, n_samples, rel, used, ref_level, loadmap, seg, var, rows
    )


def _map_threads(fn, args, threads: int):
    """Apply fn over args, serial or thread-pooled; output order is fixed."""
    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, args))
    return [fn(a) for a in args]


# ---------------------------------------------------------------------------
# One DtN solve per mode; every layer length is a rank-2 update of it
# ---------------------------------------------------------------------------


def _layer_gaps(layers, n_modes: int) -> np.ndarray:
    """D_L = i (1 - M^2) (-(nu^- - beta^-), nu^+ - beta^+) of every mode and layer
    (cfg_L, profile), shape (n_modes, n_L, 2): one nu_gap call per (L, side)."""
    n = np.arange(n_modes)
    return np.stack([1j * c.one_minus_m2 * np.stack([-nu_gap(n, "-", p, c), nu_gap(n, "+", p, c)],
                                                    axis=1) for c, p in layers], axis=1)


def _layer_coefficients(n: int, layers, d, z_ends, u_ends, stage: str):
    """c_L = S_L^{-1} D_L u[ends] of mode n for all layers at once, (n_L, 2, columns).

    u_L = u - Z c_L solves A_L = A_dtn + E D_L E^T, E = [e_0, e_N], D_L =
    diag(d[j]) from ``_layer_gaps``, S_L = I + D_L Z[ends].  S_L is singular
    exactly when A_L is: a row-equilibrated condition above UPDATE_COND_LIMIT
    raises DomainError naming the mode, the side(s), L and the stage.
    """
    s = np.eye(2) + d[:, :, None] * z_ends
    cond = np.linalg.cond(s / np.max(np.abs(s), axis=2, keepdims=True))
    for j in np.flatnonzero(~(cond <= UPDATE_COND_LIMIT))[:1]:
        sides = [side for side, d_i in zip("-+", d[j]) if d_i != 0.0]  # the updated ends
        raise DomainError(
            f"{stage}, mode n={n}, side(s) {' and '.join(sides)}, L={layers[j][0].L}: "
            f"rank-2 layer update has condition {cond[j]:.3e} > {UPDATE_COND_LIMIT:.0e}; "
            "the reduced mode operator is numerically singular"
        )
    return np.linalg.solve(s, d[:, :, None] * u_ends)


def _end_responses(n: int, matrix, stage: str):
    """Z = A^{-1} E and Y = A^{-T} E of mode n, E = [e_0, e_N]: u[ends] = Y^T f for load f."""
    sub, diag, sup = matrix
    ends = np.zeros((diag.size, 2))
    ends[0, 0] = ends[-1, 1] = 1.0
    where = f"{stage}, mode n={n}"
    return (_solve_tridiag(sub, diag, sup, ends, where=where),
            _solve_tridiag(sup, diag, sub, ends, where=where))


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
        rhs_lo = np.r_[np.zeros(lo - 1), -sup[lo - 1]]
        g_lo = _solve_tridiag(sub[: lo - 1], diag[:lo], sup[: lo - 1], rhs_lo,
                              where=f"{where}, side -: exterior block")
        d_r[0] += sub[lo - 1] * g_lo[-1]
    if hi < diag.size - 1:
        rhs_hi = np.r_[-sub[hi], np.zeros(diag.size - 2 - hi)]
        g_hi = _solve_tridiag(sub[hi + 1 :], diag[hi + 1 :], sup[hi + 1 :], rhs_hi,
                              where=f"{where}, side +: exterior block")
        d_r[-1] += sup[hi] * g_hi[0]
    return _solve_tridiag(sub[lo:hi], d_r, sup[lo:hi], rhs, where=where), g_lo, g_hi


def _range_gram(w, z, lo: int, hi: int, b, g_lo, g_hi):
    """||b||^2_W, Z^H W b and Z^H W Z of the solution ``_range_solve`` returns in pieces;
    each exterior adds the rank-1 terms |b_edge|^2 ||g||^2_W and (Z_ext^H W g) b_edge."""
    wz = (w[:, None] * z).conj()  # formed once for Z^H W b and Z^H W Z
    b_norm2 = w[lo : hi + 1] @ (b.real ** 2 + b.imag ** 2)
    zwb = wz[lo : hi + 1].T @ b
    for g, ext, edge in ((g_lo, slice(0, lo), b[0]), (g_hi, slice(hi + 1, None), b[-1])):
        b_norm2 += (w[ext] @ (g.real ** 2 + g.imag ** 2)) * (edge.real ** 2 + edge.imag ** 2)
        zwb += np.outer(wz[ext].T @ g, edge)
    return b_norm2, zwb, wz.T @ z


def _check_source_modes(source, n_modes: int, stage: str):
    """A modal source outside modes 0 .. n_modes-1 would never be solved: ConfigError."""
    for s in source if isinstance(source, (list, tuple)) else [source]:
        if not 0 <= getattr(s, "mode", 0) < n_modes:
            raise ConfigError(f"{stage}: source mode {s.mode} is not in 0 .. n_modes - 1 "
                              f"(n_modes = {n_modes}) and would never be solved")


def _trapezoid_weights(grid: Grid1D) -> np.ndarray:
    w = np.full(grid.n_nodes, grid.delta)
    w[0] = w[-1] = 0.5 * grid.delta
    return w


def run_h_study(
    cfg: DuctConfig,
    profile: Optional[PmlProfile],
    h_levels: Sequence[float],
    n_samples: int,
    base_seed: int,
    rect=None,
    delta: Optional[float] = None,
    n_modes: Optional[int] = None,
    ref_refine: int = 2,
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

    Each mode is solved once, on the unit loads of the nodes R under the
    forcing rectangle, and every (level, seed) error is the quadratic form
    r^T Q_n r of the load difference r = L_lv s_lv - L_ref s_ref on R, with
    Q_n = Re(B^H W B) and B = A_n^{-1} E_R.  ``extra["exact_mean"]`` holds
    the mean-square error of each level without sampling, sum_n
    tr(Q_n (C_ref,n - C_lv,n)) with C_lv,n = var_lv,n L_lv L_lv^T on R.
    """
    del profile
    st = _noise_study(
        cfg, h_levels, n_samples, base_seed, rect, delta, n_modes, ref_refine, "h study"
    )
    levels = st.all_levels
    rows = st.rows
    lmap = np.hstack([st.loadmap[lv] for lv in levels])[rows]
    starts = np.cumsum([0] + [st.loadmap[lv].shape[1] for lv in levels])
    unit = np.zeros((st.grid.n_nodes, rows.size))
    unit[rows, np.arange(rows.size)] = 1.0
    root_w = np.sqrt(_trapezoid_weights(st.grid))[:, None]
    var = np.array([st.var[lv] for lv in levels])  # (n_levels, n_modes)
    h_cols = len(st.used) * n_samples

    def mode_terms(n: int):
        b = root_w * _solve_tridiag(*mode_matrix(n, cfg, st.grid, DTN), unit,
                                    where=f"h study, mode n={n}")
        g = np.vstack([b.real, b.imag])
        q = g.T @ g  # Re(B^H W B)
        loads = [
            lmap[:, starts[j] : starts[j + 1]] @ np.ascontiguousarray(st.seg[lv][:, :, n]).T
            for j, lv in enumerate(levels)
        ]
        # every (level, seed) difference, then L_lv for the exact mean's traces
        r = np.hstack([ld - loads[-1] for ld in loads[:-1]] + [lmap])
        quad = np.sum(r * (q @ r), axis=0)
        traces = np.add.reduceat(quad[h_cols:], starts[:-1])  # tr(Q_n L_lv L_lv^T)
        exact = var[-1, n] * traces[-1] - var[:-1, n] * traces[:-1]
        return quad[:h_cols].reshape(-1, n_samples).T, exact  # (n_samples, n_used)

    per_mode = _map_threads(mode_terms, range(st.n_modes), threads)
    err2 = np.sum(np.stack([e for e, _ in per_mode]), axis=0)  # (n_samples, n_used)
    exact_mean = np.sum(np.stack([x for _, x in per_mode]), axis=0)

    mean = err2.mean(axis=0)
    stderr = err2.std(axis=0, ddof=1) / math.sqrt(n_samples)
    diam = np.array([st.mesh.cell_diameter(lv) for lv in st.used])
    excluded = mean < 3.0 * stderr  # indistinguishable from the MC noise floor
    usable = ~excluded
    if np.sum(usable) >= 3:
        slope, slope_se = fit_rate(diam[usable], mean[usable], stderr[usable], "loglog")
    else:
        slope, slope_se = float("nan"), float("nan")
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
    distance isolates the layer truncation.  Each mode is solved once, with
    the DtN closure, on its load and the two unit end loads; the reduced
    solve of every L is the rank-2 update u_L = u - Z c_L, so the error of
    mode n is the Gram form c_L^H (Z^H W Z) c_L (W the trapezoid weights),
    summed over modes: the discrete |nu - beta| times trace truncation
    bound.  The fit is log(error) against the absorbed-mass abscissa; the
    reference slope is the negative of the theoretical decay constant.
    Usable abscissae that are all equal (no absorption) give no fit: a NaN
    slope and passed False.
    """
    if source is None:
        source = default_l_study_source(cfg)
    grid = omega_b_grid(cfg, delta)
    if n_modes is None:
        n_modes = default_n_modes(cfg)
    _check_source_modes(source, n_modes, "L study")
    cfgs_l = [replace(cfg, L=float(L)) for L in l_values]
    layers = [(c, PmlProfile.quadratic(c, sigma_plus, sigma_minus)) for c in cfgs_l]
    gaps = _layer_gaps(layers, n_modes)
    loads = modal_loads(source, cfg, grid, n_modes)
    w = _trapezoid_weights(grid)

    ends = np.zeros((grid.n_nodes, 2))
    ends[0, 0] = ends[-1, 1] = 1.0
    err2 = np.zeros(len(layers))
    norm2 = 0.0
    for n in range(n_modes):
        rhs = np.column_stack([loads[n], ends])  # one solve on [load | e_0 | e_N]
        sols = _solve_tridiag(*mode_matrix(n, cfg, grid, DTN), rhs, where=f"L study, mode n={n}")
        u, z = sols[:, :1], sols[:, 1:]
        norm2 += float(w @ np.abs(u[:, 0]) ** 2)
        gram = z.conj().T @ (w[:, None] * z)
        c = _layer_coefficients(n, layers, gaps[n], z[[0, -1]], u[[0, -1]], "L study")
        err2 += np.sum(c.conj() * (gram @ c), axis=(1, 2)).real
    errors = np.sqrt(err2)
    dtn_norm = math.sqrt(norm2)

    abscissae = []
    bound_flags = []
    for cfg_l, profile in layers:
        abscissae.append(sigma_tilde_integral(profile, "+", cfg_l.L, cfg.omega))
        _, n0 = cutoff_numbers(cfg_l)
        bound_flags.append(dtn_gap_bound(n0 + 1, "+", profile, cfg_l).applicable)
    abscissae = np.asarray(abscissae)
    floor = 1e-12 * max(dtn_norm, 1e-300)
    excluded = errors < floor
    usable = ~excluded
    c2 = theoretical_decay_constant(cfg)
    # a layer without absorption puts every abscissa at 0: no rate to fit
    if np.sum(usable) >= 3 and np.ptp(abscissae[usable]) > 0.0:
        slope, slope_se = fit_rate(
            abscissae[usable], errors[usable], None, "loglinear"
        )
    else:
        slope, slope_se = float("nan"), float("nan")
    monotone = bool(np.all(np.diff(errors[usable]) < 0.0))
    passed = (
        np.isfinite(slope)
        and abs(slope + c2) <= DECAY_CONSTANT_RTOL * c2
        and monotone
    )
    return StudyResult(
        kind="L",
        abscissae=abscissae,
        error_mean=errors,
        error_stderr=np.zeros_like(errors),
        excluded=excluded,
        fitted_rate=slope,
        rate_stderr=slope_se,
        theory_rate=-c2,
        passed=bool(passed),
        n_samples=1,
        base_seed=0,
        extra={"l_values": np.asarray(list(l_values), dtype=float),
               "dtn_norm": dtn_norm, "monotone": monotone,
               "bound_applicable": bound_flags},
    )


def run_equivalence_check(
    cfg: DuctConfig,
    profile: PmlProfile,
    source=None,
    deltas: Sequence[float] = (1 / 128, 1 / 256, 1 / 512),
    n_modes: Optional[int] = None,
) -> StudyResult:
    """Full-layer versus reduced solves on the computational interval.

    Returns the max nodal difference per spacing and the observed
    convergence order (both discretizations approximate the same continuous
    solution to second order, so the difference closes at that order).
    """
    if source is None:
        source = default_l_study_source(cfg)
    if n_modes is None:
        _, n0 = cutoff_numbers(cfg)
        n_modes = n0 + 5
    diffs = []
    for d in deltas:
        gb = omega_b_grid(cfg, d)
        gf = omega_full_grid(cfg, d)
        worst = 0.0
        for n in range(n_modes):
            full = solve_mode(n, source, cfg, gf, PML_FULL, profile)
            red = solve_mode(n, source, cfg, gb, PML_REDUCED, profile)
            i0 = round((cfg.x_minus - gf.x_start) / gf.delta)
            i1 = round((cfg.x_plus - gf.x_start) / gf.delta)
            worst = max(worst, float(np.max(np.abs(full[i0 : i1 + 1] - red))))
        diffs.append(worst)
    diffs = np.asarray(diffs)
    deltas = np.asarray(list(deltas), dtype=float)
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
    ref_refine: int = 2,
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

    Per mode, b = u_lv - u_ref is solved for the real level differences r =
    L_lv s_lv - L_ref s_ref alone, on the loaded node range R with its
    exterior folded into two gains.  Each entry is the Gram form ||b||^2_W -
    2 Re(c_L^H Z^H W b) + c_L^H (Z^H W Z) c_L, with c_L from the end values
    u_lv[ends] = Y^T (det + L_lv s_lv); see the module docstring.
    """
    if source is None:
        source = default_l_study_source(cfg)
    st = _noise_study(
        cfg, h_levels, n_samples, base_seed, rect, delta, n_modes, ref_refine, "total study"
    )
    _check_source_modes(source, st.n_modes, "total study")
    cfgs_l = [replace(cfg, L=float(L)) for L in l_values]
    layers = [(c, PmlProfile.quadratic(c, sigma_plus, sigma_minus)) for c in cfgs_l]
    gaps = _layer_gaps(layers, st.n_modes)
    det = modal_loads(source, cfg, st.grid, st.n_modes)
    w = _trapezoid_weights(st.grid)
    levels = st.all_levels
    lo, hi = st.rows[0], st.rows[-1]  # R = lo..hi
    lmaps = [csr_array(st.loadmap[lv][lo : hi + 1]) for lv in levels]
    n_used = len(st.used)

    def mode_err2(n: int) -> np.ndarray:
        matrix = mode_matrix(n, cfg, st.grid, DTN)
        z, y = _end_responses(n, matrix, "total study")
        loads = [m @ np.ascontiguousarray(st.seg[lv][:, :, n].T) for m, lv in zip(lmaps, levels)]
        f_lv = np.hstack(loads[:-1])  # (|R|, n_used * n_samples), levels side by side
        b, g_lo, g_hi = _range_solve(n, matrix, lo, hi, f_lv - np.tile(loads[-1], n_used),
                                     "total study")
        b_norm2, zwb, gram = _range_gram(w, z, lo, hi, b, g_lo, g_hi)
        u_ends = (y.T @ det[n])[:, None] + y[lo : hi + 1].T @ f_lv
        c = _layer_coefficients(n, layers, gaps[n], z[[0, -1]], u_ends, "total study")
        cross = np.sum(c.conj() * zwb, axis=1).real
        quad = np.sum(c.conj() * (gram @ c), axis=1).real
        return (b_norm2 - 2.0 * cross + quad).reshape(len(layers), n_used, n_samples).T

    per_mode = _map_threads(mode_err2, range(st.n_modes), threads)
    err2 = np.sum(np.stack(per_mode), axis=0)
    mean = err2.mean(axis=0)
    stderr = err2.std(axis=0, ddof=1) / math.sqrt(n_samples)
    diam = np.array([st.mesh.cell_diameter(lv) for lv in st.used])
    abscissae_l = np.array(
        [sigma_tilde_integral(p, "+", p.L, cfg.omega) for _, p in layers]
    )
    return TotalErrorResult(
        h_values=diam,
        l_values=np.asarray(list(l_values), dtype=float),
        abscissae_l=abscissae_l,
        error_mean=mean,
        error_stderr=stderr,
        n_samples=n_samples,
        base_seed=base_seed,
    )
