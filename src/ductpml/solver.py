"""Per-mode 1D finite-element solves and 2D field assembly.

Because the layer stretches only x1 and the transverse operator is
diagonal in the cosine basis, the 2D problems reduce exactly to decoupled
complex two-point boundary-value problems per mode:

    (1 - M^2) p_n'' + 2 i k M p_n' + (k^2 - n^2 pi^2 / d^2) p_n = f_n

with one of three closures:
  * ``dtn``: Robin conditions p_n' = i beta_n^{+-} p_n at x^{+-}
    (exact nonreflecting closure),
  * ``pml_full``: the stretched operator on the enlarged interval
    including both layers, Dirichlet at the outer ends,
  * ``pml_reduced``: Robin conditions with the finite-layer coefficients
    nu_n^{+-} in place of beta_n^{+-}.

Discretization is piecewise-linear elements on a uniform grid with the
convection term assembled from the weak form, alpha-weighted terms by
2-point Gauss per element, and a direct banded (tridiagonal) solve.

``mode_matrix`` is the one place that builds a mode operator for any of
the three closures, and ``modal_loads`` the one place that turns a source
(noise realization, modal box or function source, or a list of them) into
every mode's hat loads; ``solve_mode``, ``solve_full`` and the Monte
Carlo studies in ``harness`` all go through them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import solve_banded

from . import pml as pml_mod
from .duct import (
    GAUSS4_NODES,
    GAUSS4_WEIGHTS,
    DuctConfig,
    axial_wavenumbers64,
    default_n_modes,
    mode_shape,
)
from .errors import ConfigError, DomainError, GridMismatchError
from .noise import (
    ModalFunctionSource,
    ModeBoxSource,
    NoiseRealization,
    noise_modal_matrix,
)

DTN = "dtn"
PML_FULL = "pml_full"
PML_REDUCED = "pml_reduced"


@dataclass(frozen=True)
class Grid1D:
    """Uniform axial grid with n_cells elements (n_cells + 1 nodes)."""

    x_start: float
    x_end: float
    n_cells: int

    def __post_init__(self):
        if self.n_cells < 8:
            raise ConfigError(f"grid needs at least 8 cells, got {self.n_cells}")
        if not self.x_start < self.x_end:
            raise ConfigError("grid needs x_start < x_end")

    @property
    def delta(self) -> float:
        return (self.x_end - self.x_start) / self.n_cells

    @property
    def n_nodes(self) -> int:
        return self.n_cells + 1

    def nodes(self) -> np.ndarray:
        return np.linspace(self.x_start, self.x_end, self.n_nodes)


def omega_b_grid(cfg: DuctConfig, delta: float) -> Grid1D:
    """Grid over the computational interval with spacing as close to delta as possible."""
    n = max(8, round((cfg.x_plus - cfg.x_minus) / delta))
    return Grid1D(cfg.x_minus, cfg.x_plus, n)


def omega_full_grid(cfg: DuctConfig, delta: Optional[float] = None) -> Grid1D:
    """Aligned grid over the enlarged interval [x_minus - L, x_plus + L].

    The interface points x^{+-} must land on nodes so that restrictions to
    the computational interval are exact; this requires L to be an integer
    multiple of the spacing.  An explicit delta must meet that as given.
    With delta None the default spacing's interior cell count is raised, by
    at most a factor of two, to the first count that makes L a whole number
    of cells.
    """
    span = cfg.x_plus - cfg.x_minus
    n_b = max(8, round(span / (default_delta(cfg) if delta is None else delta)))
    for n in range(n_b, 2 * n_b + 1 if delta is None else n_b + 1):
        d_actual = span / n
        n_lay = round(cfg.L / d_actual)
        if abs(n_lay * d_actual - cfg.L) <= 1e-9 * max(1.0, cfg.L):
            return Grid1D(cfg.x_minus - cfg.L, cfg.x_plus + cfg.L, n + 2 * n_lay)
    if delta is None:
        raise ConfigError(
            f"layer length {cfg.L} is not a whole number of cells for any interior "
            f"cell count from {n_b} to {2 * n_b}; set a compatible grid delta"
        )
    raise ConfigError(
        f"layer length {cfg.L} is not an integer multiple of the grid "
        f"spacing {span / n_b}; pick a compatible delta"
    )


def default_delta(cfg: DuctConfig) -> float:
    """Default spacing min(1/(16 k), L/64): resolves both the wave and the layer."""
    return min(1.0 / (16.0 * cfg.k), cfg.L / 64.0)


@dataclass
class ModalSolution:
    """Per-mode nodal values; the 2D field is sum_n values[n](x1) phi_n(x2)."""

    grid: Grid1D
    values: np.ndarray  # (n_modes, n_nodes) complex
    formulation: str

    @property
    def n_modes(self) -> int:
        return self.values.shape[0]


# ---------------------------------------------------------------------------
# Loads
# ---------------------------------------------------------------------------


def piecewise_load_matrix(grid: Grid1D, breaks: np.ndarray) -> np.ndarray:
    """Map segment values (constant on [breaks[j], breaks[j+1])) to hat loads.

    Column j holds the exact integrals of every hat function against the
    indicator of segment j; multiplying by segment values gives the load
    vector.  Segments are clipped to the grid.  Every (segment, cell)
    overlap is one entry of flat arrays, so there is no Python loop.
    """
    b = np.asarray(breaks, dtype=float)
    nodes = grid.nodes()
    dx = grid.delta
    last = grid.n_cells - 1
    s = np.maximum(b[:-1], grid.x_start)
    e = np.minimum(b[1:], grid.x_end)
    seg = np.flatnonzero(e > s)
    ie_lo = np.clip(((s[seg] - grid.x_start) / dx).astype(int), 0, last)
    ie_hi = np.ceil((e[seg] - grid.x_start) / dx).astype(int) - 1
    ie_hi = np.minimum(np.maximum(ie_hi, ie_lo), last)
    counts = ie_hi - ie_lo + 1
    col = np.repeat(seg, counts)  # one entry per (segment, overlapped cell)
    cell = np.repeat(ie_lo - np.cumsum(counts) + counts, counts) + np.arange(col.size)
    lo = np.maximum(s[col], nodes[cell])
    hi = np.minimum(e[col], nodes[cell + 1])
    width = np.where(hi > lo, hi - lo, 0.0)
    out = np.zeros((grid.n_nodes, b.size - 1))
    out[cell, col] += width * ((nodes[cell + 1] - lo) + (nodes[cell + 1] - hi)) / (2.0 * dx)
    out[cell + 1, col] += width * ((lo - nodes[cell]) + (hi - nodes[cell])) / (2.0 * dx)
    return out


def _function_loads(src: ModalFunctionSource, grid: Grid1D) -> np.ndarray:
    """Hat loads of fn by 4-point Gauss on the cells around its support."""
    dx = grid.delta
    nodes = grid.nodes()
    lo_cell = max(int((src.x_lo - grid.x_start) / dx) - 1, 0)
    hi_cell = min(int((src.x_hi - grid.x_start) / dx) + 1, grid.n_cells - 1)
    cells = np.arange(lo_cell, hi_cell + 1)
    xa, xb = nodes[cells, None], nodes[cells + 1, None]
    xg = 0.5 * (xa + xb) + 0.5 * dx * GAUSS4_NODES
    wg = 0.5 * dx * GAUSS4_WEIGHTS
    fg = np.asarray([src.fn(x) for x in xg.ravel()], dtype=complex).reshape(xg.shape)
    row = np.zeros(grid.n_nodes, dtype=complex)
    row[cells] += np.sum(wg * fg * (xb - xg) / dx, axis=1)
    row[cells + 1] += np.sum(wg * fg * (xg - xa) / dx, axis=1)
    return row


def modal_loads(source, cfg: DuctConfig, grid: Grid1D, n_modes: int) -> np.ndarray:
    """Hat loads of modes 0 .. n_modes-1 driven by ``source``, (n_modes, n_nodes).

    ``source`` is a NoiseRealization (all modes from one transverse
    projection and one matmul), a ModeBoxSource or ModalFunctionSource
    (its one row; a mode outside 0 .. n_modes-1 is ignored), or a list or tuple of
    these (the sum of its members).
    """
    if isinstance(source, (list, tuple)):
        out = np.zeros((n_modes, grid.n_nodes), dtype=complex)
        for s in source:
            out += modal_loads(s, cfg, grid, n_modes)
        return out
    if isinstance(source, NoiseRealization):
        breaks, vals = noise_modal_matrix(source, n_modes, cfg)
        return (vals @ piecewise_load_matrix(grid, breaks).T).astype(complex)
    if not isinstance(source, (ModeBoxSource, ModalFunctionSource)):
        raise ConfigError(f"unsupported source type {type(source).__name__}")
    out = np.zeros((n_modes, grid.n_nodes), dtype=complex)
    if 0 <= source.mode < n_modes:
        if isinstance(source, ModeBoxSource):
            column = piecewise_load_matrix(grid, np.array([source.x_lo, source.x_hi]))
            out[source.mode] = source.amplitude * column[:, 0]
        else:
            out[source.mode] = _function_loads(source, grid)
    return out


# ---------------------------------------------------------------------------
# Matrix assembly (tridiagonal, stored as (sub, diag, sup))
# ---------------------------------------------------------------------------


def _assemble_interior(n: int, cfg: DuctConfig, grid: Grid1D):
    """Weak form of the constant-coefficient mode operator, no boundary terms.

    Rows are -(1-M^2) * stiffness + 2ikM * convection + gamma * mass with
    gamma = k^2 - n^2 pi^2 / d^2; the convection matrix is the exact
    integral of w_trial' against w_test (skew plus boundary diagonal).
    """
    m2 = cfg.one_minus_m2
    gamma = cfg.k ** 2 - (n * math.pi / cfg.d) ** 2
    conv = 2j * cfg.k * cfg.M
    dx = grid.delta
    nn = grid.n_nodes
    diag = np.empty(nn, dtype=complex)
    diag[:] = -m2 * 2.0 / dx + gamma * 2.0 * dx / 3.0
    diag[0] = -m2 / dx + gamma * dx / 3.0 + conv * (-0.5)
    diag[-1] = -m2 / dx + gamma * dx / 3.0 + conv * 0.5
    sup = np.full(nn - 1, -m2 * (-1.0 / dx) + conv * 0.5 + gamma * dx / 6.0, dtype=complex)
    sub = np.full(nn - 1, -m2 * (-1.0 / dx) + conv * (-0.5) + gamma * dx / 6.0, dtype=complex)
    return sub, diag, sup


def _assemble_pml_interior(n: int, cfg: DuctConfig, profile, grid: Grid1D):
    """Stretched weak form with alpha-dependent coefficients by 2-pt Gauss."""
    m2 = cfg.one_minus_m2
    k = cfg.k
    dx = grid.delta
    nodes = grid.nodes()
    mid = 0.5 * (nodes[:-1] + nodes[1:])
    off = 0.5 * dx / math.sqrt(3.0)
    xg = np.stack([mid - off, mid + off], axis=1)  # (n_cells, 2)
    ag = pml_mod.alpha(profile, xg.ravel(), cfg.omega).reshape(xg.shape)
    apg = pml_mod.alpha_prime(profile, xg.ravel(), cfg.omega).reshape(xg.shape)
    zg = (
        k * k / (m2 * ag)
        - ag * (cfg.M * k) ** 2 / m2
        - (n * math.pi / cfg.d) ** 2 / ag
    )
    wg = 0.5 * dx
    # shape functions at the two Gauss points: N1 = (xb-x)/dx, N2 = (x-xa)/dx
    n1 = np.array([0.5 + 0.5 / math.sqrt(3.0), 0.5 - 0.5 / math.sqrt(3.0)])
    n2 = 1.0 - n1
    s_el = wg * np.sum(ag, axis=1) / (dx * dx)  # common factor of the 2x2 block
    conv = 2j * k * cfg.M
    ikm = 1j * k * cfg.M

    def quad(a_weights, fa, fb):
        # sum over Gauss points of weight * coeff * f_test * f_trial
        return wg * np.sum(a_weights * fa[None, :] * fb[None, :], axis=1)

    nn = grid.n_nodes
    diag = np.zeros(nn, dtype=complex)
    sub = np.zeros(nn - 1, dtype=complex)
    sup = np.zeros(nn - 1, dtype=complex)

    # stiffness: integral alpha * w_trial' * w_test'
    diag[:-1] += -m2 * s_el
    diag[1:] += -m2 * s_el
    sup += m2 * s_el
    sub += m2 * s_el
    # convection: 2ikM * integral alpha * w_trial' * w_test
    c11 = quad(ag, n1, np.full(2, -1.0 / dx))
    c12 = quad(ag, n1, np.full(2, 1.0 / dx))
    c21 = quad(ag, n2, np.full(2, -1.0 / dx))
    c22 = quad(ag, n2, np.full(2, 1.0 / dx))
    diag[:-1] += conv * c11
    diag[1:] += conv * c22
    sup += conv * c12
    sub += conv * c21
    # ikM * integral alpha' * w_trial * w_test  and  mass with coefficient z
    for coeff, gvals in ((ikm, apg), (1.0, zg)):
        m11 = quad(gvals, n1, n1)
        m12 = quad(gvals, n1, n2)
        m22 = quad(gvals, n2, n2)
        diag[:-1] += coeff * m11
        diag[1:] += coeff * m22
        sup += coeff * m12
        sub += coeff * m12
    return sub, diag, sup


def _solve_tridiag(sub, diag, sup, rhs):
    ab = np.zeros((3, diag.size), dtype=complex)
    ab[0, 1:] = sup
    ab[1, :] = diag
    ab[2, :-1] = sub
    try:
        if diag.size == 1 and diag[0] == 0.0:  # solve_banded divides a 1x1 system
            raise np.linalg.LinAlgError("zero 1x1 system")
        return solve_banded((1, 1), ab, rhs)
    except np.linalg.LinAlgError as exc:  # ill-posedness; excluded by the
        raise DomainError(f"singular mode system: {exc}") from exc  # cutoff guard


def _check_span(grid: Grid1D, lo: float, hi: float):
    if (
        abs(grid.x_start - lo) > 1e-9 * max(1.0, abs(lo))
        or abs(grid.x_end - hi) > 1e-9 * max(1.0, abs(hi))
    ):
        raise GridMismatchError(
            f"grid [{grid.x_start}, {grid.x_end}] must span [{lo}, {hi}]"
        )


def _robin_matrix(n: int, cfg: DuctConfig, grid: Grid1D, r_plus, r_minus):
    """Interior operator closed by p' = i r^{+-} p at the two ends."""
    sub, diag, sup = _assemble_interior(n, cfg, grid)
    diag = diag.copy()
    bc = 1j * cfg.one_minus_m2
    diag[-1] += bc * r_plus
    diag[0] -= bc * r_minus
    return sub, diag, sup


def mode_matrix(n: int, cfg: DuctConfig, grid: Grid1D, formulation: str, profile=None):
    """Tridiagonal (sub, diag, sup) of mode n under one of the three closures.

    ``dtn`` and ``pml_reduced`` are Robin closures (coefficients beta^{+-}
    and nu^{+-}) on a grid spanning the computational interval;
    ``pml_full`` is the stretched operator on a grid spanning the enlarged
    interval, with its two Dirichlet rows removed.
    """
    if formulation not in (DTN, PML_FULL, PML_REDUCED):
        raise ConfigError(f"unknown formulation {formulation!r}")
    if formulation != DTN and profile is None:
        raise ConfigError("PML formulations need a profile")
    if formulation == PML_FULL:
        _check_span(grid, cfg.x_minus - cfg.L, cfg.x_plus + cfg.L)
        sub, diag, sup = _assemble_pml_interior(n, cfg, profile, grid)
        return sub[1:-1], diag[1:-1], sup[1:-1]
    _check_span(grid, cfg.x_minus, cfg.x_plus)
    if formulation == DTN:
        r_plus, r_minus = axial_wavenumbers64(n, cfg)
    else:
        r_plus = pml_mod.nu_coefficients(n, "+", profile, cfg)
        r_minus = pml_mod.nu_coefficients(n, "-", profile, cfg)
    return _robin_matrix(n, cfg, grid, r_plus, r_minus)


def _solve_system(matrix, rhs, formulation: str) -> np.ndarray:
    """Nodal solution of ``mode_matrix`` output for load(s) rhs[n_nodes, ...].

    For ``pml_full`` the Dirichlet end values are zero and only the
    interior rows are solved.
    """
    if formulation != PML_FULL:
        return _solve_tridiag(*matrix, rhs)
    out = np.zeros(rhs.shape, dtype=complex)
    out[1:-1] = _solve_tridiag(*matrix, rhs[1:-1])
    return out


def solve_mode(
    n: int, source, cfg: DuctConfig, grid: Grid1D, formulation: str, profile=None
) -> np.ndarray:
    """Nodal values of mode n driven by ``source`` under the given closure.

    ``source`` is anything ``modal_loads`` accepts.
    """
    matrix = mode_matrix(n, cfg, grid, formulation, profile)
    return _solve_system(matrix, modal_loads(source, cfg, grid, n + 1)[n], formulation)


# ---------------------------------------------------------------------------
# Multi-mode driver, field assembly, norms
# ---------------------------------------------------------------------------


def solve_full(
    cfg: DuctConfig,
    source,
    formulation: str,
    grid: Grid1D,
    n_modes: Optional[int] = None,
    profile=None,
) -> ModalSolution:
    """Solve every mode 0 .. n_modes-1 for the combined source.

    ``source`` is anything ``modal_loads`` accepts; every mode's load
    comes from its one call.
    """
    if n_modes is None:
        n_modes = default_n_modes(cfg)
    loads = modal_loads(source, cfg, grid, n_modes)
    values = np.empty((n_modes, grid.n_nodes), dtype=complex)
    for n in range(n_modes):
        matrix = mode_matrix(n, cfg, grid, formulation, profile)
        values[n] = _solve_system(matrix, loads[n], formulation)
    return ModalSolution(grid=grid, values=values, formulation=formulation)


def assemble_field(sol: ModalSolution, points, cfg: DuctConfig) -> np.ndarray:
    """Evaluate sum_n p_n(x1) phi_n(x2) with linear interpolation in x1."""
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    x1, x2 = pts[:, 0], pts[:, 1]
    nodes = sol.grid.nodes()
    eps = 1e-12 * max(1.0, abs(sol.grid.x_end - sol.grid.x_start))
    if np.any(x1 < sol.grid.x_start - eps) or np.any(x1 > sol.grid.x_end + eps):
        raise DomainError("axial coordinate outside the solution grid")
    if np.any(x2 < 0.0) or np.any(x2 > cfg.d):
        raise DomainError("transverse coordinate outside the duct")
    phis = mode_shape(np.arange(sol.n_modes)[:, None], x2, cfg.d)
    out = np.zeros(pts.shape[0], dtype=complex)
    for n in range(sol.n_modes):
        pn = np.interp(x1, nodes, sol.values[n].real) + 1j * np.interp(
            x1, nodes, sol.values[n].imag
        )
        out += pn * phis[n]
    return out[0] if single else out
