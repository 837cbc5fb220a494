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

Discretization is piecewise-linear elements on a uniform grid, one weak form
for every closure (the stretched operator by 2-point Gauss per element, with
alpha = 1 off the layers) and a direct tridiagonal solve by LAPACK's zgtsv,
called through the function pointer that ``scipy.linalg.cython_lapack``
exports, as a ctypes foreign call that releases the GIL while it runs, so
that the studies' thread pool solves modes in parallel.

``mode_matrix`` is the one place that builds mode operators, of one mode
or an array of modes, for any of the three closures, and ``modal_loads`` the
one place that turns a source (noise realization, modal box or function
source, or a list of them) into every mode's hat loads.  ``solve_full``
builds every mode's operator in one call and solves the loaded modes only.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import cython_lapack

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


def _interior_cells(cfg: DuctConfig, delta: Optional[float]) -> int:
    """Cells (at least 8) of the computational interval at the spacing closest to delta
    (None: the default); a delta neither None nor finite and > 0 is a ConfigError."""
    if delta is not None and not (math.isfinite(delta) and delta > 0.0):
        raise ConfigError(f"grid spacing delta must be finite and > 0, got {delta}")
    return max(8, round((cfg.x_plus - cfg.x_minus) / (delta or default_delta(cfg))))


def omega_b_grid(cfg: DuctConfig, delta: Optional[float] = None) -> Grid1D:
    """Grid over the computational interval with spacing as close to delta
    (None: the default spacing) as possible."""
    return Grid1D(cfg.x_minus, cfg.x_plus, _interior_cells(cfg, delta))


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
    n_b = _interior_cells(cfg, delta)
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


# Row g of each table is Gauss point g of an element, with N1 = (xb - x)/dx
# and N2 = (x - xa)/dx.  _N holds (N1, N2); the element tables hold the
# entries (1,1), (2,2), (1,2), (2,1) (test N_i, trial N_j) for a unit
# coefficient at that point.
_G = 0.5 / math.sqrt(3.0)
_N = np.array([[0.5 + _G, 0.5 - _G], [0.5 - _G, 0.5 + _G]])
_STIFF = np.tile([-1.0, -1.0, 1.0, 1.0], (2, 1))  # -N_i' N_j' dx^2
_CONV = _N[:, [0, 1, 0, 1]] * [-1.0, 1.0, 1.0, -1.0]  # N_i N_j' dx
_MASS = _N[:, [0, 1, 0, 1]] * _N[:, [0, 1, 1, 0]]  # N_i N_j


def _assemble_interior(modes: np.ndarray, cfg: DuctConfig, grid: Grid1D, profile=None):
    """Stretched weak form of an array of modes, no boundary terms; alpha = 1 without a
    profile.  Bands (sub, diag, sup) of shape (len(modes), .).

    Rows are -(1-M^2) alpha * stiffness + 2ikM alpha * convection +
    (ikM alpha' + z) * mass with z = k^2/((1-M^2) alpha) - alpha (Mk)^2/(1-M^2)
    - (n pi/d)^2/alpha, by 2-point Gauss (weight dx/2) per element.  With
    alpha = 1 that is exact (products of linear functions) and z = k^2 -
    n^2 pi^2/d^2, the constant-coefficient operator.  Only z depends on the
    mode; the rest is evaluated once for all modes.
    """
    m2 = cfg.one_minus_m2
    dx = grid.delta
    if profile is None:
        a, ap = np.ones((1, 2)), 0.0
    else:
        nodes = grid.nodes()
        xg = 0.5 * (nodes[:-1, None] + nodes[1:, None]) + dx * np.array([-_G, _G])
        a = pml_mod.alpha(profile, xg, cfg)
        ap = pml_mod.alpha_prime(profile, xg, cfg)
    ikm = 1j * cfg.k * cfg.M
    t = (a * a - 1.0) * ((cfg.M * cfg.k) ** 2 / m2)
    free = a @ (m2 / (2.0 * dx) * _STIFF + ikm * _CONV)
    ikm_ap, mass = ikm * ap, 0.5 * dx * _MASS
    bands = np.zeros((3, modes.size, grid.n_nodes), dtype=complex)  # sub, sup: n_cells long
    for i, gamma in enumerate(cfg.k ** 2 - (modes * math.pi / cfg.d) ** 2):
        # z = (gamma - (alpha^2 - 1) (Mk)^2/(1-M^2)) / alpha: exactly gamma at alpha = 1
        el = free + (ikm_ap + (gamma - t) / a) @ mass
        bands[1, i, :-1] += el[:, 0]
        bands[1, i, 1:] += el[:, 1]
        bands[0, i, :-1] += el[:, 3]
        bands[2, i, :-1] += el[:, 2]
    return bands[0, :, :-1], bands[1], bands[2, :, :-1]


def _capsule_function(capsule, *argtypes):
    """The C function a capsule points to, as a ctypes foreign function without a
    result; a ctypes foreign call releases the GIL while it runs."""
    # local prototypes: the shared ctypes.pythonapi functions are left as they are
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    return ctypes.CFUNCTYPE(None, *argtypes)(get_pointer(capsule, get_name(capsule)))


# zgtsv(n, nrhs, dl, d, du, b, ldb, info), every argument by address
_zgtsv = _capsule_function(cython_lapack.__pyx_capi__["zgtsv"], *[ctypes.c_void_p] * 8)


def _solve_tridiag(sub, diag, sup, rhs, where: str = ""):
    """Solve the tridiagonal system for rhs[n, ...] by LAPACK's zgtsv on copies of the
    bands and rhs, with the GIL released; a singular or non-finite one raises
    DomainError, its message prefixed by ``where`` (say, stage and mode).  A 1x1
    system is one division (LAPACK's differs from it in the last bits)."""
    prefix = f"{where}: " if where else ""
    n, rhs = diag.size, np.asarray(rhs)
    if len(sub) != n - 1 or len(sup) != n - 1 or len(rhs) != n:
        raise ValueError(f"bands of {len(sub)}, {n}, {len(sup)} and {len(rhs)} rows")
    # zgtsv overwrites its arrays: dl, d, du, then b (column-major) in one copy
    buf = np.empty(3 * n - 2 + rhs.size, dtype=complex)
    buf[: n - 1], buf[n - 1 : 2 * n - 1], buf[2 * n - 1 : 3 * n - 2] = sub, diag, sup
    x = buf[3 * n - 2 :].reshape(rhs.shape, order="F")
    x[...] = rhs
    if not np.isfinite(buf.view(float)).all():  # both parts; complex isfinite is slower
        raise DomainError(f"{prefix}non-finite band or right-hand side in mode system")
    if n > 1:
        ints = (ctypes.c_int * 3)(n, rhs.size // n, 0)  # n (also ldb), nrhs, info
        p = ctypes.addressof(ctypes.c_char.from_buffer(buf))
        _zgtsv(ints, ctypes.byref(ints, 4), p, p + 16 * (n - 1), p + 16 * (2 * n - 1),
               p + 16 * (3 * n - 2), ints, ctypes.byref(ints, 8))
        singular = ints[2] > 0 and "singular matrix"
    else:
        singular = diag[0] == 0.0 and "zero 1x1 system"
        x = None if singular else rhs / diag[0]
    if singular:  # ill-posedness; excluded by the cutoff guard
        raise DomainError(f"{prefix}singular mode system: {singular}")
    return x


def _check_span(grid: Grid1D, lo: float, hi: float):
    if (
        abs(grid.x_start - lo) > 1e-9 * max(1.0, abs(lo))
        or abs(grid.x_end - hi) > 1e-9 * max(1.0, abs(hi))
    ):
        raise GridMismatchError(
            f"grid [{grid.x_start}, {grid.x_end}] must span [{lo}, {hi}]"
        )


def mode_matrix(n, cfg: DuctConfig, grid: Grid1D, formulation: str, profile=None):
    """Tridiagonal (sub, diag, sup) of mode n under one of the three closures.

    ``n`` is an int or an integer array; an array gives bands of shape
    (len(n), .), row i those of mode n[i], and an int is the one-row case.
    ``dtn`` and ``pml_reduced`` are Robin closures p' = i r^{+-} p at the two
    ends (coefficients beta^{+-} and nu^{+-}) on a grid spanning the
    computational interval; ``pml_full`` is the stretched operator on a grid
    spanning the enlarged interval, with its two Dirichlet rows removed.
    """
    if formulation not in (DTN, PML_FULL, PML_REDUCED):
        raise ConfigError(f"unknown formulation {formulation!r}")
    if formulation != DTN and profile is None:
        raise ConfigError("PML formulations need a profile")
    modes = np.atleast_1d(n)
    if formulation == PML_FULL:
        _check_span(grid, cfg.x_minus - cfg.L, cfg.x_plus + cfg.L)
        bands = [b[:, 1:-1] for b in _assemble_interior(modes, cfg, grid, profile)]
    else:
        _check_span(grid, cfg.x_minus, cfg.x_plus)
        if formulation == DTN:  # bit for bit the roots of each mode alone, int or array
            r_plus, r_minus = axial_wavenumbers64(n, cfg)
        else:
            r_plus, r_minus = (pml_mod.nu_coefficients(modes, s, profile, cfg) for s in "+-")
        bands = _assemble_interior(modes, cfg, grid)
        bc = 1j * cfg.one_minus_m2
        bands[1][:, -1] += bc * r_plus
        bands[1][:, 0] -= bc * r_minus
    return tuple(bands) if np.ndim(n) else tuple(b[0] for b in bands)


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
    """Solve modes 0 .. n_modes-1 for the combined source.

    ``source`` is anything ``modal_loads`` accepts; every mode's load
    comes from its one call.  One ``mode_matrix`` call builds (and checks)
    every mode's operator; a mode whose load is zero on the solved rows is
    left at 0.0 unsolved.  For ``pml_full`` the Dirichlet end values are
    zero and only the interior rows are solved.
    """
    if n_modes is None:
        n_modes = default_n_modes(cfg)
    loads = modal_loads(source, cfg, grid, n_modes)
    values = np.zeros((n_modes, grid.n_nodes), dtype=complex)
    rows = slice(1, -1) if formulation == PML_FULL else slice(None)
    bands = mode_matrix(np.arange(n_modes), cfg, grid, formulation, profile)
    for n in np.flatnonzero(loads[:, rows].any(axis=1)):
        values[n, rows] = _solve_tridiag(*(b[n] for b in bands), loads[n, rows])
    return ModalSolution(grid=grid, values=values)


def assemble_field(sol: ModalSolution, points, cfg: DuctConfig) -> np.ndarray:
    """Evaluate sum_n p_n(x1) phi_n(x2) with linear interpolation in x1.

    Each p_n is interpolated at the distinct x1 of the points and each phi_n
    taken at their distinct x2, then gathered per point; every point's terms
    and their sum over modes are those of evaluating it alone."""
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
    rows = np.flatnonzero(sol.values.any(axis=1))  # a zero row adds nothing
    x1, i1 = np.unique(x1, return_inverse=True)
    x2, i2 = np.unique(x2, return_inverse=True)
    phis = mode_shape(rows[:, None], x2, cfg.d)
    out = np.zeros(pts.shape[0], dtype=complex)
    for row, phi in zip(sol.values[rows], phis):
        out += (np.interp(x1, nodes, row.real) + 1j * np.interp(x1, nodes, row.imag))[i1] * phi[i2]
    return out[0] if single else out
