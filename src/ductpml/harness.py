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
seed's noise projected onto all modes at every level; their per-mode work
then runs one banded solve per matrix, with every (level, seed) pair as a
right-hand-side column.

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
from .errors import ConfigError, GridMismatchError, InsufficientDataError
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
    l2_error,
    l2_norm_omega_b,
    modal_loads,
    mode_matrix,
    omega_b_grid,
    omega_full_grid,
    piecewise_load_matrix,
    solve_full,
    solve_mode,
)

RATE_PASS_THRESHOLD = 1.8
RATE_STDERR_THRESHOLD = 0.15
DECAY_CONSTANT_RTOL = 0.25
EQUIV_ORDER_THRESHOLD = 1.9


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
    (n_samples, n1, n_modes), and ``loadmap[lv]`` maps segments to hat loads.
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
    1/integer.
    """
    if n_samples < 2:
        raise ConfigError("noise studies need n_samples >= 2")
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
    for lv in used + [ref_level]:
        x1_edges, x2_edges = mesh.edges(lv)
        trans[lv] = transverse_cell_integrals(x2_edges, n_modes, cfg.d).T
        loadmap[lv] = piecewise_load_matrix(grid, x1_edges)
        seg[lv] = np.empty((n_samples, x1_edges.size - 1, n_modes))
    for i in range(n_samples):
        levels = realization_levels(sample(mesh, base_seed + i))
        for lv, t in trans.items():
            amp = 1.0 / math.sqrt(mesh.cell_area(lv))
            np.matmul(levels[lv].xi * amp, t, out=seg[lv][i])
    return _NoiseStudy(mesh, grid, n_modes, n_samples, rel, used, ref_level, loadmap, seg)


def _map_threads(fn, args, threads: int):
    """Apply fn over args, serial or thread-pooled; output order is fixed."""
    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, args))
    return [fn(a) for a in args]


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
    (``ref_refine`` dyadic steps below the finest requested).  The profile
    argument is accepted for interface symmetry; the study solves with the
    exact nonreflecting closure.
    """
    del profile
    st = _noise_study(cfg, h_levels, n_samples, base_seed, rect, delta, n_modes, ref_refine)

    def mode_err2(n: int) -> np.ndarray:
        sols = _solve_tridiag(*mode_matrix(n, cfg, st.grid, DTN), st.noise_rhs(n))
        sols = sols.reshape(st.grid.n_nodes, len(st.all_levels), n_samples)
        diff2 = np.abs(sols[:, :-1] - sols[:, -1:]) ** 2
        return np.trapezoid(diff2, dx=st.grid.delta, axis=0).T  # (n_samples, n_used)

    per_mode = _map_threads(mode_err2, range(st.n_modes), threads)
    err2 = np.sum(np.stack(per_mode), axis=0)  # (n_samples, n_levels_used)

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
        extra={"relative_h": np.asarray(st.rel)[::-1], "mesh_levels": st.used},
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
    distance isolates the layer truncation.  The fit is log(error) against
    the absorbed-mass abscissa; the reference slope is the negative of the
    theoretical decay constant.
    """
    if sigma_minus is None:
        sigma_minus = sigma_plus
    if source is None:
        source = default_l_study_source(cfg)
    grid = omega_b_grid(cfg, delta if delta is not None else default_delta(cfg))
    dtn_sol = solve_full(cfg, source, DTN, grid, n_modes)
    dtn_norm = l2_norm_omega_b(dtn_sol, cfg)

    errors = []
    abscissae = []
    bound_flags = []
    for L in l_values:
        cfg_l = replace(cfg, L=float(L))
        profile = PmlProfile.quadratic(cfg_l, sigma_plus, sigma_minus)
        red_sol = solve_full(cfg_l, source, PML_REDUCED, grid, n_modes, profile)
        errors.append(l2_error(red_sol, dtn_sol))
        abscissae.append(sigma_tilde_integral(profile, "+", float(L), cfg.omega))
        _, n0 = cutoff_numbers(cfg_l)
        bound_flags.append(dtn_gap_bound(n0 + 1, "+", profile, cfg_l).applicable)

    errors = np.asarray(errors)
    abscissae = np.asarray(abscissae)
    floor = 1e-12 * max(dtn_norm, 1e-300)
    excluded = errors < floor
    usable = ~excluded
    c2 = theoretical_decay_constant(cfg)
    if np.sum(usable) >= 3:
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
) -> TotalErrorResult:
    """Combined noise-refinement and layer-length error table.

    Per seed, the reference is the exact-DtN solve driven by the
    reference-level noise (plus the deterministic source); each table entry
    compares it against the reduced solve with layer L driven by level-h
    noise.  For large L the columns reproduce the refinement study; for the
    finest h the rows reproduce the layer decay.
    """
    if source is None:
        source = default_l_study_source(cfg)
    st = _noise_study(cfg, h_levels, n_samples, base_seed, rect, delta, n_modes, ref_refine)
    cfgs_l = [replace(cfg, L=float(L)) for L in l_values]
    profiles = [PmlProfile.quadratic(cfg_l, sigma_plus) for cfg_l in cfgs_l]
    det = modal_loads(source, cfg, st.grid, st.n_modes)

    n_used = len(st.used)
    h_cols = n_used * n_samples  # the used levels' columns; the rest is the reference

    def mode_err2(n: int) -> np.ndarray:
        rhs = st.noise_rhs(n)
        rhs += det[n][:, None]
        ref = _solve_tridiag(*mode_matrix(n, cfg, st.grid, DTN), rhs[:, h_cols:])
        out = np.empty((n_samples, n_used, len(profiles)))
        for j_l, (prof, cfg_l) in enumerate(zip(profiles, cfgs_l)):
            matrix = mode_matrix(n, cfg_l, st.grid, PML_REDUCED, prof)
            sol = _solve_tridiag(*matrix, rhs[:, :h_cols])
            sol = sol.reshape(st.grid.n_nodes, n_used, n_samples)
            diff2 = np.abs(sol - ref[:, None, :]) ** 2
            out[:, :, j_l] = np.trapezoid(diff2, dx=st.grid.delta, axis=0).T
        return out

    per_mode = _map_threads(mode_err2, range(st.n_modes), threads)
    err2 = np.sum(np.stack(per_mode), axis=0)
    mean = err2.mean(axis=0)
    stderr = err2.std(axis=0, ddof=1) / math.sqrt(n_samples)
    diam = np.array([st.mesh.cell_diameter(lv) for lv in st.used])
    abscissae_l = np.array(
        [sigma_tilde_integral(p, "+", p.L, cfg.omega) for p in profiles]
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
