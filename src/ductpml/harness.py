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

Every per-mode operator comes from ``solver.mode_matrix``.  The two
noise-driven studies (h and total) share one set-up, ``_noise_study``:
level validation, noise mesh, grid, mode count, load tables, and each
seed's noise projected onto all modes at every level.

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
values), and E[err_lv] = sum_n tr(Q_n (C_ref,n - C_lv,n)).  The total
study solves each mode once with every (level, seed) pair as a
right-hand-side column: at its scale (|R| about half the nodes, few
seeds) the unit-load basis does not pay.

The layer studies (L and total) solve only the DtN operator.  The
modified layer needs no interface condition, so the reduced operator of
layer L differs from the DtN one in its two end rows alone: A_L = A_dtn +
E D_L E^T with E = [e_0, e_N] and D_L = i (1 - M^2) diag(-(nu^- - beta^-),
nu^+ - beta^+).  One solve on [loads | e_0 | e_N] gives the DtN solutions
u and end responses Z, and each L is the rank-2 update u_L = u - Z c_L
with c_L = (I + D_L Z[ends])^{-1} D_L u[ends].  u_L is never formed: the
trapezoid-weighted error ||b - Z c_L||^2_W is the Gram form ||b||^2_W -
2 Re(c_L^H Z^H W b) + c_L^H (Z^H W Z) c_L, O(columns) per L.  A 2x2
system I + D_L Z[ends] that is numerically singular (so is A_L) raises
DomainError naming the mode, side(s), L and stage.

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
    default_delta,
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
    cell area).
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

    @property
    def all_levels(self) -> list:
        """The used levels, then the reference level: the column-block order."""
        return self.used + [self.ref_level]

    def noise_rhs(self, n: int) -> np.ndarray:
        """Hat loads of mode n, one column per (level, seed), levels side by side.

        Columns ``j * n_samples .. (j + 1) * n_samples - 1`` hold level
        ``all_levels[j]``; the shape is (n_nodes, n_levels * n_samples).
        """
        ns = self.n_samples
        out = np.empty((self.grid.n_nodes, len(self.all_levels) * ns), dtype=complex)
        for j, lv in enumerate(self.all_levels):
            seg_n = np.ascontiguousarray(self.seg[lv][:, :, n])  # BLAS needs it dense
            out[:, j * ns : (j + 1) * ns] = self.loadmap[lv] @ seg_n.T
        return out


def _noise_study(
    cfg: DuctConfig, h_levels, n_samples, base_seed, rect, delta, n_modes, ref_refine
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
    grid = omega_b_grid(cfg, delta if delta is not None else default_delta(cfg))
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
    for i in range(n_samples):
        levels = realization_levels(sample(mesh, base_seed + i))
        for lv, t in trans.items():
            amp = 1.0 / math.sqrt(mesh.cell_area(lv))
            np.matmul(levels[lv].xi * amp, t, out=seg[lv][i])
    return _NoiseStudy(mesh, grid, n_modes, n_samples, rel, used, ref_level, loadmap, seg, var)


def _map_threads(fn, args, threads: int):
    """Apply fn over args, serial or thread-pooled; output order is fixed."""
    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, args))
    return [fn(a) for a in args]


# ---------------------------------------------------------------------------
# One DtN solve per mode; every layer length is a rank-2 update of it
# ---------------------------------------------------------------------------


def _dtn_solve(n: int, cfg: DuctConfig, grid: Grid1D, rhs, stage: str):
    """A_dtn^{-1} rhs for mode n; a singular system names the mode and the stage."""
    try:
        return _solve_tridiag(*mode_matrix(n, cfg, grid, DTN), rhs)
    except DomainError as exc:
        raise DomainError(f"{stage}, mode n={n}: {exc}") from exc


def _dtn_solve_with_ends(n: int, cfg: DuctConfig, grid: Grid1D, loads, stage: str):
    """DtN solutions u of mode n for the load columns, and its end responses Z.

    One banded solve on [loads | e_0 | e_N]: Z = A_dtn^{-1} [e_0, e_N] is
    (n_nodes, 2).
    """
    rhs = np.zeros((grid.n_nodes, loads.shape[1] + 2), dtype=complex)
    rhs[:, :-2] = loads
    rhs[0, -2] = rhs[-1, -1] = 1.0
    sols = _dtn_solve(n, cfg, grid, rhs, stage)
    return sols[:, :-2], sols[:, -2:]


def _layer_coefficients(n: int, layers, z_ends, u_ends, stage: str):
    """c_L = S_L^{-1} D_L u[ends] of mode n for every layer (cfg_L, profile).

    The reduced operator is A_L = A_dtn + E D_L E^T with E = [e_0, e_N] and
    D_L = i (1 - M^2) diag(-(nu^- - beta^-), nu^+ - beta^+), so its solution
    is u_L = u - Z c_L with S_L = I + D_L Z[ends].  S_L is singular exactly
    when A_L is: an S_L whose row-equilibrated condition exceeds
    UPDATE_COND_LIMIT raises DomainError naming the mode, the side(s), L and
    the stage.
    """
    out = []
    for cfg_l, profile in layers:
        gaps = [-nu_gap(n, "-", profile, cfg_l), nu_gap(n, "+", profile, cfg_l)]
        d = 1j * cfg_l.one_minus_m2 * np.array(gaps)
        s = np.eye(2) + d[:, None] * z_ends
        cond = np.linalg.cond(s / np.max(np.abs(s), axis=1, keepdims=True))
        if not cond <= UPDATE_COND_LIMIT:
            sides = [side for side, d_i in zip("-+", d) if d_i != 0.0]  # the updated ends
            raise DomainError(
                f"{stage}, mode n={n}, side(s) {' and '.join(sides)}, L={cfg_l.L}: "
                f"rank-2 layer update has condition {cond:.3e} > {UPDATE_COND_LIMIT:.0e}; "
                "the reduced mode operator is numerically singular"
            )
        out.append(np.linalg.solve(s, d[:, None] * u_ends))
    return out


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
    st = _noise_study(cfg, h_levels, n_samples, base_seed, rect, delta, n_modes, ref_refine)
    levels = st.all_levels
    lmap = np.hstack([st.loadmap[lv] for lv in levels])
    rows = np.flatnonzero(lmap.any(axis=1))  # R: the nodes some level loads
    lmap = lmap[rows]
    starts = np.cumsum([0] + [st.loadmap[lv].shape[1] for lv in levels])
    unit = np.zeros((st.grid.n_nodes, rows.size))
    unit[rows, np.arange(rows.size)] = 1.0
    root_w = np.sqrt(_trapezoid_weights(st.grid))[:, None]
    var = np.array([st.var[lv] for lv in levels])  # (n_levels, n_modes)
    h_cols = len(st.used) * n_samples

    def mode_terms(n: int):
        b = root_w * _dtn_solve(n, cfg, st.grid, unit, "h study")
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
    grid = omega_b_grid(cfg, delta if delta is not None else default_delta(cfg))
    if n_modes is None:
        n_modes = default_n_modes(cfg)
    cfgs_l = [replace(cfg, L=float(L)) for L in l_values]
    layers = [(c, PmlProfile.quadratic(c, sigma_plus, sigma_minus)) for c in cfgs_l]
    loads = modal_loads(source, cfg, grid, n_modes)
    w = _trapezoid_weights(grid)

    err2 = np.zeros(len(layers))
    norm2 = 0.0
    for n in range(n_modes):
        u, z = _dtn_solve_with_ends(n, cfg, grid, loads[n][:, None], "L study")
        norm2 += float(w @ np.abs(u[:, 0]) ** 2)
        gram = z.conj().T @ (w[:, None] * z)
        coeffs = _layer_coefficients(n, layers, z[[0, -1]], u[[0, -1]], "L study")
        for j, c in enumerate(coeffs):
            err2[j] += float(np.real(c[:, 0].conj() @ gram @ c[:, 0]))
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

    Each mode is solved once, with the DtN closure, on every (level, seed)
    load and the two unit end loads.  The reduced solve of layer L is the
    rank-2 update u_h - Z c_L, and is never formed: with b = u_h - u_ref,
    the entry is the Gram form ||b||^2_W - 2 Re(c_L^H Z^H W b) +
    c_L^H (Z^H W Z) c_L per column, so each L costs O(columns).
    """
    if source is None:
        source = default_l_study_source(cfg)
    st = _noise_study(cfg, h_levels, n_samples, base_seed, rect, delta, n_modes, ref_refine)
    cfgs_l = [replace(cfg, L=float(L)) for L in l_values]
    layers = [(c, PmlProfile.quadratic(c, sigma_plus, sigma_minus)) for c in cfgs_l]
    det = modal_loads(source, cfg, st.grid, st.n_modes)
    w = _trapezoid_weights(st.grid)

    n_used = len(st.used)
    h_cols = n_used * n_samples  # the used levels' columns; the rest is the reference

    def mode_err2(n: int) -> np.ndarray:
        rhs = st.noise_rhs(n)
        rhs += det[n][:, None]
        u, z = _dtn_solve_with_ends(n, cfg, st.grid, rhs, "total study")
        b = u[:, :h_cols].reshape(-1, n_used, n_samples) - u[:, None, h_cols:]
        b = b.reshape(-1, h_cols)
        wz = w[:, None] * z
        b_norm2 = w @ (b.real ** 2 + b.imag ** 2)
        zwb = wz.conj().T @ b
        gram = z.conj().T @ wz
        coeffs = _layer_coefficients(n, layers, z[[0, -1]], u[[0, -1], :h_cols], "total study")
        out = np.empty((n_samples, n_used, len(layers)))
        for j, c in enumerate(coeffs):
            cross = np.sum(c.conj() * zwb, axis=0).real
            quad = np.sum(c.conj() * (gram @ c), axis=0).real
            out[:, :, j] = (b_norm2 - 2.0 * cross + quad).reshape(n_used, n_samples).T
        return out

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
