"""Semi-analytic Green's function of the duct problem and derived oracles.

Two independent representations of the kernel G(x, y) normalized so that
applying the convected operator in x yields +delta(x - y):

* image series: reflections of the free-space convected kernel across the
  rigid walls, sources at transverse positions ``+-y2 + 2 d n``.  The terms
  decay only like n^{-1/2} with oscillation, so partial sums are tail-
  averaged (Cesaro over the last quarter of shells).
* modal series: sum over transverse modes of the 1D outgoing kernels
  ``g_n(x1, y1)``; geometric convergence once the axial separation is
  bounded away from zero.

Sign and phase of the free-space kernel: the convected phase factor is
``exp(-i k M (x1 - y1) / (1 - M^2))`` (the factor k and the minus sign are
forced by annihilating the first-order term of the operator), and the
prefactor is ``-i / (4 sqrt(1 - M^2))`` so that both representations agree
and the solution representations below solve the forced equation with a
plus sign.  The logarithmic part of the kernel is correspondingly
``+ ln(k rho) / (2 pi sqrt(1 - M^2))`` times the phase, with a Lipschitz
remainder.  A centered finite-difference residual of the operator applied
to the image representation is exposed for verification.

The modal oracles work on whole arrays: their roots are slices of one table
per config, and each pass of a mode sum evaluates several blocks of modes
as one array, then adds and tests the block sums one at a time, exactly as
a loop over single blocks would.
"""

from __future__ import annotations

import cmath
import math
import threading
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .duct import (
    GAUSS4_NODES,
    GAUSS4_WEIGHTS,
    DuctConfig,
    axial_wavenumbers64,
    cutoff_numbers,
    default_n_modes,
    mode_shape,
)
from .errors import ConfigError, DomainError, RepresentationError, SingularityError
from .noise import (
    ModalFunctionSource,
    ModeBoxSource,
    NoiseRealization,
    transverse_cell_integrals,
)
from .specfun import hankel0


@dataclass(frozen=True)
class GreensEvalParams:
    """Truncation controls for the two kernel representations.

    n_images counts the reflected shells (shell 0 is the source and its
    first wall reflection); n_modes and min_axial_gap default to
    N0 + 30 and 0.25 d when left at 0.
    """

    n_images: int = 512
    n_modes: int = 0
    min_axial_gap: float = 0.0

    def __post_init__(self):
        if self.n_images < 0:
            raise DomainError("n_images must be >= 0")
        if self.min_axial_gap < 0.0:
            raise DomainError("min_axial_gap must be >= 0")

    def resolve(self, cfg: DuctConfig):
        _, n0 = cutoff_numbers(cfg)
        n_modes = self.n_modes if self.n_modes > 0 else default_n_modes(cfg)
        if n_modes < n0 + 5:
            raise DomainError(f"n_modes must be at least N0+5 = {n0 + 5}")
        gap = self.min_axial_gap if self.min_axial_gap > 0.0 else 0.25 * cfg.d
        return self.n_images, n_modes, gap


@dataclass(frozen=True)
class SeriesValue:
    """Series evaluation plus its convergence indicator."""

    value: complex
    indicator: float


def _root1m2(cfg: DuctConfig) -> float:
    return math.sqrt(cfg.one_minus_m2)


def _mu(cfg: DuctConfig) -> float:
    """Convected phase rate k M / (1 - M^2)."""
    return cfg.k * cfg.M / cfg.one_minus_m2


def rho(x, cfg: DuctConfig):
    """Convected distance sqrt(x1^2 + (1-M^2) x2^2) / (1-M^2) of an offset."""
    v = np.asarray(x, dtype=float)
    x1, x2 = v[..., 0], v[..., 1]
    out = np.sqrt(x1 * x1 + cfg.one_minus_m2 * x2 * x2) / cfg.one_minus_m2
    return float(out) if out.ndim == 0 else out


def phi_free(x, y, cfg: DuctConfig) -> complex:
    """Free-space convected kernel (operator applied in x gives +delta)."""
    dx1 = x[0] - y[0]
    r = rho((dx1, x[1] - y[1]), cfg)
    if cfg.k * r < 1e-12:
        raise SingularityError("free-space kernel evaluated at coincident points")
    pref = -0.25j / _root1m2(cfg)
    return pref * hankel0(cfg.k * r) * cmath.exp(-1j * _mu(cfg) * dx1)


def log_kernel(x, y, cfg: DuctConfig) -> complex:
    """Logarithmic part of the free-space kernel: ln(k rho)/(2 pi sqrt(1-M^2))
    times the convected phase.  The remainder phi_free - log_kernel is
    Lipschitz near coincidence."""
    dx1 = x[0] - y[0]
    r = rho((dx1, x[1] - y[1]), cfg)
    if cfg.k * r < 1e-300:
        raise SingularityError("log kernel at coincident points")
    coeff = 1.0 / (2.0 * math.pi * _root1m2(cfg))
    return coeff * math.log(cfg.k * r) * cmath.exp(-1j * _mu(cfg) * dx1)


def _image_y2(y2: float, d: float, n_images: int) -> np.ndarray:
    """Transverse source images grouped by shell: [y2, -y2], then per shell
    j >= 1 the four entries +-y2 +- 2 d j."""
    off = 2.0 * d * np.arange(1, n_images + 1)
    shells = np.stack([y2 + off, -y2 + off, y2 - off, -y2 - off], axis=1)
    return np.concatenate([[y2, -y2], shells.ravel()])


def _images_shell_sums(x, y, n_images: int, cfg: DuctConfig, include_direct=True):
    """Per-shell sums of the image series (length n_images + 1)."""
    dx1 = x[0] - y[0]
    y2_img = _image_y2(y[1], cfg.d, n_images)
    if not include_direct:
        y2_img = y2_img[1:]
    dx2 = x[1] - y2_img
    r = np.sqrt(dx1 * dx1 + cfg.one_minus_m2 * dx2 * dx2) / cfg.one_minus_m2
    if np.any(cfg.k * r < 1e-12):
        raise SingularityError("image series evaluated at (an image of) the source")
    pref = -0.25j / _root1m2(cfg)
    terms = pref * hankel0(cfg.k * r) * cmath.exp(-1j * _mu(cfg) * dx1)
    n_head = 2 if include_direct else 1
    shell0 = np.sum(terms[:n_head])
    rest = terms[n_head:].reshape(n_images, 4).sum(axis=1) if n_images else np.array([])
    return np.concatenate([[shell0], rest])


def _averaged_tail_value(shell_sums: np.ndarray) -> complex:
    """Cesaro mean of the partial sums over the last quarter of shells."""
    partial = np.cumsum(shell_sums)
    n = partial.size - 1
    if n < 8:
        return complex(partial[-1])
    start = int(math.ceil(0.75 * n))
    return complex(np.mean(partial[start:]))


def greens_images(x, y, params: GreensEvalParams, cfg: DuctConfig) -> SeriesValue:
    """Image-series kernel value with tail averaging.

    The indicator is the magnitude of the last shell (the series converges
    conditionally like n^{-1/2}, so the averaged value is far more accurate
    than the raw partial sum).
    """
    n_images, _, _ = params.resolve(cfg)
    shells = _images_shell_sums(x, y, n_images, cfg)
    return SeriesValue(
        value=_averaged_tail_value(shells), indicator=float(abs(shells[-1]))
    )


def _images_reflected_value(x, y, params: GreensEvalParams, cfg: DuctConfig) -> complex:
    """Image series without the direct source term (smooth near x = y)."""
    n_images, _, _ = params.resolve(cfg)
    shells = _images_shell_sums(x, y, n_images, cfg, include_direct=False)
    return _averaged_tail_value(shells)


def mode_green_1d(n: int, x1: float, y1: float, cfg: DuctConfig) -> complex:
    """Outgoing 1D kernel of the mode operator, derivative jump
    (1 - M^2) [g'] = 1 at y1."""
    bp, bm = axial_wavenumbers64(n, cfg)
    c = 1.0 / (1j * cfg.one_minus_m2 * (bp - bm))
    beta = bp if x1 >= y1 else bm
    return c * cmath.exp(1j * beta * (x1 - y1))


# Root tables (beta_plus, beta_minus, c) of the most recently used configs,
# grown in whole pieces of modes.
_ROOT_PIECE = 1024
_ROOT_TABLE_CONFIGS = 4
_root_tables: dict = {}
_root_lock = threading.Lock()
# Mode blocks that one pass of the cell-integral and kernel-difference sums
# evaluates as one array; bounds the size of their temporaries.
_PASS_BLOCKS = 8


def _betas_block(cfg: DuctConfig, n_lo: int, n_hi: int):
    """Wavenumbers and kernel constants for modes n_lo .. n_hi-1.

    Returns read-only slices (beta_plus, beta_minus, c), c = 1/(i (1-M^2)
    (b+ - b-)), of the root table kept per (d, M, k).  A table grows by
    whole pieces of _ROOT_PIECE modes in one ``axial_wavenumbers64`` call
    (bit-identical to a call per block); the least recently used table is
    dropped beyond _ROOT_TABLE_CONFIGS configs.
    """
    key = tuple(float(v).hex() for v in (cfg.d, cfg.M, cfg.k))
    with _root_lock:
        table = _root_tables.pop(key, (np.empty(0, dtype=complex),) * 3)
        if table[0].size < n_hi:
            n_new = -(-n_hi // _ROOT_PIECE) * _ROOT_PIECE
            bp, bm = axial_wavenumbers64(np.arange(table[0].size, n_new), cfg)
            c = 1.0 / (1j * cfg.one_minus_m2 * (bp - bm))
            table = tuple(np.concatenate(pair) for pair in zip(table, (bp, bm, c)))
            for arr in table:
                arr.flags.writeable = False
        _root_tables[key] = table
        if len(_root_tables) > _ROOT_TABLE_CONFIGS:
            del _root_tables[next(iter(_root_tables))]
    return tuple(arr[n_lo:n_hi] for arr in table)


def greens_modal(x, y, params: GreensEvalParams, cfg: DuctConfig) -> SeriesValue:
    """Modal-series kernel value; needs axial separation >= min_axial_gap.

    Transverse coordinates outside [0, d] use the even continuation of
    the modes across both walls (period 2d), as the image series does.
    The indicator is a geometric bound on the truncated tail.
    """
    _, n_modes, gap = params.resolve(cfg)
    period = 2.0 * cfg.d
    x2, y2 = (abs(t) % period for t in (x[1], y[1]))
    dx1 = x[0] - y[0]
    if abs(dx1) < gap:
        raise RepresentationError(
            f"axial gap {abs(dx1):.3g} below {gap:.3g}; use the image series"
        )
    bp, bm, c = _betas_block(cfg, 0, n_modes)
    beta = bp if dx1 >= 0.0 else bm
    ns = np.arange(n_modes)
    terms = (
        mode_shape(ns, min(x2, period - x2), cfg.d)
        * mode_shape(ns, min(y2, period - y2), cfg.d)
        * c
        * np.exp(1j * beta * dx1)
    )
    mags = np.abs(terms)
    ratio = mags[-1] / mags[-2] if mags[-2] > 0.0 else 0.0
    tail = mags[-1] * ratio / (1.0 - ratio) if 0.0 < ratio < 1.0 else mags[-1]
    return SeriesValue(value=complex(np.sum(terms)), indicator=float(tail))


def greens_value(x, y, params: GreensEvalParams, cfg: DuctConfig):
    """Kernel value by the representation suited to the separation.

    Returns (value, representation) with representation in
    {"modal", "images"}; the modal series is primary whenever the axial gap
    admits it.
    """
    _, _, gap = params.resolve(cfg)
    if abs(x[0] - y[0]) >= gap:
        return greens_modal(x, y, params, cfg).value, "modal"
    return greens_images(x, y, params, cfg).value, "images"


# ---------------------------------------------------------------------------
# Solution representations
# ---------------------------------------------------------------------------


def deterministic_solution(source, x, params: GreensEvalParams, cfg: DuctConfig) -> complex:
    """Convolution of the kernel with a deterministic modal source at point x.

    ``source`` is a ModeBoxSource, a ModalFunctionSource or a list of them;
    sources outside modes 0 .. n_modes-1 are dropped.  Each is integrated against
    g_n by adaptive quadrature (absolute target 1e-8), split at the kernel
    kink x1 = y1, independently of the finite-element loads.
    """
    _, n_modes, _ = params.resolve(cfg)
    total = 0.0j
    for src in source if isinstance(source, (list, tuple)) else [source]:
        if isinstance(src, ModeBoxSource):
            fn = lambda y1, a=src.amplitude: a  # noqa: E731
        elif isinstance(src, ModalFunctionSource):
            fn = src.fn
        else:
            raise ConfigError(f"unsupported deterministic source {type(src).__name__}")
        n = src.mode
        if not 0 <= n < n_modes:
            continue
        lo, hi = src.x_lo, src.x_hi
        pieces = sorted({lo, hi} | ({x[0]} if lo < x[0] < hi else set()))
        mode_val = 0.0j
        for a, b in zip(pieces[:-1], pieces[1:]):
            val, err = quad(
                lambda y1: mode_green_1d(n, x[0], y1, cfg) * fn(y1),
                a,
                b,
                epsabs=1e-8,
                epsrel=1e-10,
                limit=200,
                complex_func=True,
            )
            if abs(err) > 1e-6:
                warnings.warn(
                    f"convolution quadrature for mode {n} reached only "
                    f"{abs(err):.2e} estimated accuracy",
                    stacklevel=2,
                )
            mode_val += val
        total += mode_shape(n, x[1], cfg.d) * mode_val
    return total


def _exp_cell_integrals(beta: np.ndarray, lo, hi, x1: float) -> np.ndarray:
    """Integral over [lo, hi] of exp(i beta (x1 - y)) dy, vectorized in beta.

    Callers pick beta_plus when the strip lies left of x1 and beta_minus
    when it lies right, so both endpoint exponentials decay and nothing
    overflows; tiny |beta (hi - lo)| switches to the sinc series.
    """
    width = hi - lo
    t = 0.5 * beta * width
    small = np.abs(t) < 0.01
    tt = np.where(small, 1.0, beta)
    exact = (np.exp(1j * beta * (x1 - lo)) - np.exp(1j * beta * (x1 - hi))) / (1j * tt)
    mid = 0.5 * (lo + hi)
    series = (
        np.exp(1j * beta * (x1 - mid)) * width * (1.0 - t * t / 6.0 + t ** 4 / 120.0)
    )
    return np.where(small, series, exact)


def _axial_strip_integrals(beta_p, beta_m, c, edges: np.ndarray, x1: float):
    """Integral of g_n over each strip [edges[j], edges[j+1]), all modes.

    Returns an array (n_modes, n_strips); all strips left of x1 take one
    call, all right of it another, and a strip containing x1 is split at
    the kink.
    """
    lo, hi = edges[:-1], edges[1:]
    left = hi <= x1
    right = ~left & (lo >= x1)
    out = np.empty((beta_p.size, lo.size), dtype=complex)
    out[:, left] = _exp_cell_integrals(beta_p[:, None], lo[left], hi[left], x1)
    out[:, right] = _exp_cell_integrals(beta_m[:, None], lo[right], hi[right], x1)
    for j in np.flatnonzero(~(left | right)):
        out[:, j] = _exp_cell_integrals(beta_p, float(lo[j]), x1, x1) + _exp_cell_integrals(
            beta_m, x1, float(hi[j]), x1
        )
    return c[:, None] * out


def stochastic_solution(
    noise: NoiseRealization, x, params: GreensEvalParams, cfg: DuctConfig
) -> complex:
    """Response at x to one realization of the discretized white noise.

    Each cell contributes xi_i / sqrt(|K_i|) times the cell integral of the
    kernel.  Off-source cells use the per-mode closed forms (transverse
    integral of phi_n and piecewise-exponential axial integral of g_n).
    For the cell containing x the kernel is split into its logarithmic part
    (integrated over apex triangles by a Duffy-style radial substitution,
    4x4 Gauss per triangle) and a Lipschitz remainder (4x4 Gauss over the
    cell), so the integrable singularity never meets the quadrature.
    """
    x1_edges, x2_edges = noise.mesh.edges(noise.level)
    amp = 1.0 / math.sqrt(noise.mesh.cell_area(noise.level))
    v = noise.xi * amp
    # locate the containing cell (half-open cells)
    w1, w2 = noise.mesh.cell_size(noise.level)
    rect = noise.mesh.rect
    i1 = int(math.floor((x[0] - rect[0]) / w1))
    i2 = int(math.floor((x[1] - rect[2]) / w2))
    n1, n2 = noise.mesh.shape(noise.level)
    inside = 0 <= i1 < n1 and 0 <= i2 < n2 and rect[0] <= x[0] < rect[1] and rect[2] <= x[1] < rect[3]
    if inside:
        v = v.copy()
        v_cell = v[i1, i2]
        v[i1, i2] = 0.0
    total = _modal_cell_sum(v, x1_edges, x2_edges, x, params, cfg)
    if inside:
        cell = (x1_edges[i1], x1_edges[i1 + 1], x2_edges[i2], x2_edges[i2 + 1])
        total += v_cell * singular_cell_integral(x, cell, params, cfg)
    return total


def kernel_cell_integrals(x, x1_edges, x2_edges, params, cfg, tol=1e-10) -> np.ndarray:
    """Closed-form integrals of G(x, .) over every mesh cell.

    Returns a complex (n1, n2) matrix over the rectangular cells spanned by
    the edge arrays; the transverse factor is analytic and the axial factor
    is piecewise exponential.  The mode sum is extended in blocks until the
    increments are negligible (the cell containing x converges like the
    integrated log singularity, all others geometrically); one pass builds
    the factors of _PASS_BLOCKS blocks.
    """
    _, n_floor, _ = params.resolve(cfg)
    block = 64
    bounds = [0, max(block, n_floor)]
    while bounds[-1] < 16384:
        bounds.append(bounds[-1] + block)
    total = np.zeros((x1_edges.size - 1, x2_edges.size - 1), dtype=complex)
    calm = 0
    for p in range(0, len(bounds) - 1, _PASS_BLOCKS):
        stops = bounds[p : p + _PASS_BLOCKS + 1]
        n_lo, n_hi = stops[0], stops[-1]
        bp, bm, c = _betas_block(cfg, n_lo, n_hi)
        axial = _axial_strip_integrals(bp, bm, c, x1_edges, x[0])
        trans = transverse_cell_integrals(x2_edges, n_hi, cfg.d, n_lo)
        phis = mode_shape(np.arange(n_lo, n_hi), x[1], cfg.d)
        for a, b in zip(stops[:-1], stops[1:]):
            rows = slice(a - n_lo, b - n_lo)
            contrib = np.einsum("n,nj,nk->jk", phis[rows], axial[rows], trans[rows])
            total += contrib
            scale = max(float(np.max(np.abs(total))), 1.0)
            if float(np.max(np.abs(contrib))) < tol * scale:
                calm += 1
                if calm >= 2:
                    return total
            else:
                calm = 0
    return total


def _modal_cell_sum(v, x1_edges, x2_edges, x, params, cfg, tol=1e-10) -> complex:
    """Sum over cells of v[i] * (closed-form modal cell integral of G)."""
    return complex(np.sum(v * kernel_cell_integrals(x, x1_edges, x2_edges, params, cfg, tol)))


def singular_cell_integral(x, cell, params: GreensEvalParams, cfg: DuctConfig) -> complex:
    """Integral of G(x, .) over the rectangular cell containing x.

    Logarithmic part over apex triangles (Duffy substitution, 4x4 Gauss),
    Lipschitz remainder (kernel minus log part) by 4x4 Gauss over the cell.
    """
    a1, b1, a2, b2 = cell
    corners = [(a1, a2), (b1, a2), (b1, b2), (a1, b2)]
    coeff = 1.0 / (2.0 * math.pi * _root1m2(cfg))
    mu = _mu(cfg)
    log_part = 0.0j
    for v1, v2 in zip(corners, corners[1:] + corners[:1]):
        e1 = (v1[0] - x[0], v1[1] - x[1])
        e2 = (v2[0] - x[0], v2[1] - x[1])
        jac = abs(e1[0] * e2[1] - e1[1] * e2[0])
        if jac < 1e-300:
            continue
        s = 0.5 * (1.0 + GAUSS4_NODES)
        t = 0.5 * (1.0 + GAUSS4_NODES)
        ws = 0.5 * GAUSS4_WEIGHTS
        sg, tg = np.meshgrid(s, t, indexing="ij")
        wg = np.outer(ws, ws)
        dir1 = (1.0 - tg) * e1[0] + tg * e2[0]
        dir2 = (1.0 - tg) * e1[1] + tg * e2[1]
        y1 = x[0] + sg * dir1
        y2 = x[1] + sg * dir2
        r = np.sqrt((sg * dir1) ** 2 + cfg.one_minus_m2 * (sg * dir2) ** 2) / cfg.one_minus_m2
        vals = coeff * np.log(cfg.k * r) * np.exp(-1j * mu * (x[0] - y1))
        log_part += np.sum(wg * vals * sg) * jac
    # Lipschitz remainder: (phi_free - log part) + reflected images
    s = 0.5 * (1.0 + GAUSS4_NODES)
    wg1 = 0.5 * GAUSS4_WEIGHTS
    y1g = a1 + (b1 - a1) * s
    y2g = a2 + (b2 - a2) * s
    rem = 0.0j
    for iy1, w1 in zip(y1g, (b1 - a1) * wg1):
        for iy2, w2 in zip(y2g, (b2 - a2) * wg1):
            y = (iy1, iy2)
            smooth = phi_free(x, y, cfg) - log_kernel(x, y, cfg)
            refl = _images_reflected_value(x, y, params, cfg)
            rem += w1 * w2 * (smooth + refl)
    return log_part + rem


# ---------------------------------------------------------------------------
# Kernel-difference probe (mean-square over the computational domain)
# ---------------------------------------------------------------------------


def _segment_products(p_lo, p_hi, c, width):
    """Integral over a segment of endpoint-parametrized exponential products.

    Given endpoint values p(x) = E(x) conj(F(x)) at both segment ends and
    the combined exponent rate c (so p' = c p), returns (p_hi - p_lo)/c,
    falling back to the trapezoid value for |c * width| tiny.
    """
    small = np.abs(c * width) < 1e-8
    cc = np.where(small, 1.0, c)
    exact = (p_hi - p_lo) / cc
    return np.where(small, 0.5 * width * (p_lo + p_hi), exact)


def q_l2_difference(y, z, cfg: DuctConfig, tol: float = 1e-10) -> float:
    """Integral over the computational domain of |G(x, y) - G(x, z)|^2 dx.

    Transverse integration is exact by orthonormality of the modes; axial
    integration uses closed forms of the piecewise-exponential kernels.
    The mode sum is extended in blocks of 256 modes until its tail is
    negligible; one pass sums _PASS_BLOCKS blocks as rows of one array.
    """
    if y[0] > z[0]:
        y, z = z, y
    total = 0.0
    block = 256
    calm = 0
    for n_start in range(0, 32768, _PASS_BLOCKS * block):
        n_stop = n_start + _PASS_BLOCKS * block
        bp, bm, c = _betas_block(cfg, n_start, n_stop)
        ns = np.arange(n_start, n_stop)
        a = mode_shape(ns, y[1], cfg.d) * c
        b = mode_shape(ns, z[1], cfg.d) * c
        sums = np.zeros(_PASS_BLOCKS)
        regions = (
            (cfg.x_minus, y[0], bm, bm),
            (y[0], z[0], bp, bm),
            (z[0], cfg.x_plus, bp, bp),
        )
        for lo, hi, beta_y, beta_z in regions:
            if hi <= lo:
                continue
            e_lo = a * np.exp(1j * beta_y * (lo - y[0]))
            e_hi = a * np.exp(1j * beta_y * (hi - y[0]))
            f_lo = b * np.exp(1j * beta_z * (lo - z[0]))
            f_hi = b * np.exp(1j * beta_z * (hi - z[0]))
            width = hi - lo
            # |E|^2, |F|^2, and -2 Re(E conj F)
            c_e = 1j * beta_y - 1j * np.conj(beta_y)
            c_f = 1j * beta_z - 1j * np.conj(beta_z)
            c_x = 1j * beta_y - 1j * np.conj(beta_z)
            ee = _segment_products(np.abs(e_lo) ** 2, np.abs(e_hi) ** 2, c_e, width)
            ff = _segment_products(np.abs(f_lo) ** 2, np.abs(f_hi) ** 2, c_f, width)
            ef = _segment_products(e_lo * np.conj(f_lo), e_hi * np.conj(f_hi), c_x, width)
            sums += np.sum((ee.real + ff.real - 2.0 * ef.real).reshape(-1, block), axis=1)
        for contrib in sums.tolist():
            total += contrib
            if abs(contrib) < tol * max(total, 1e-300):
                calm += 1
                if calm >= 2:
                    return max(total, 0.0)
            else:
                calm = 0
    return max(total, 0.0)  # squared quantity; clamp roundoff negatives


def lemma2_exponent_probe(pairs, params: GreensEvalParams, cfg: DuctConfig):
    """Fitted log-log slope of the kernel mean-square difference.

    For each pair (y, z) computes Q = integral over the computational
    domain of |G(., y) - G(., z)|^2 and returns (slope, seps, qs) from the
    least-squares line of ln Q against ln |y - z|.
    """
    seps = []
    qs = []
    for y, z in pairs:
        sep = math.hypot(y[0] - z[0], y[1] - z[1])
        if sep == 0.0:
            continue
        seps.append(sep)
        qs.append(q_l2_difference(y, z, cfg))
    if len(seps) < 2:
        raise DomainError("probe needs at least two distinct-separation pairs")
    slope = float(np.polyfit(np.log(seps), np.log(qs), 1)[0])
    return slope, np.asarray(seps), np.asarray(qs)


def kernel_l2_over_rect(x, rect, params: GreensEvalParams, cfg: DuctConfig, order=32) -> float:
    """Integral over the rectangle of |G(x, y)|^2 dy by tensor Gauss.

    Used as the Ito-isometry oracle for the noise-driven response variance;
    x must be modally separated from the rectangle.
    """
    _, n_modes, gap = params.resolve(cfg)
    a1, b1, a2, b2 = rect
    if not (x[0] <= a1 - gap or x[0] >= b1 + gap):
        raise RepresentationError("isometry quadrature point must be separated")
    nodes, weights = np.polynomial.legendre.leggauss(order)
    y1 = 0.5 * (a1 + b1) + 0.5 * (b1 - a1) * nodes
    w1 = 0.5 * (b1 - a1) * weights
    y2 = 0.5 * (a2 + b2) + 0.5 * (b2 - a2) * nodes
    w2 = 0.5 * (b2 - a2) * weights
    bp, bm, c = _betas_block(cfg, 0, n_modes)
    beta = bp if x[0] >= b1 else bm
    ns = np.arange(n_modes)
    phi_x = mode_shape(ns, x[1], cfg.d)
    # kernel values on the tensor grid: sum_n phi_x phi_n(y2) c_n e^{i beta (x1-y1)}
    phase = np.exp(1j * np.outer(beta, x[0] - y1))  # (n, y1)
    phi_y = mode_shape(ns[:, None], y2[None, :], cfg.d)  # (n, y2)
    g = np.einsum("n,nj,nk->jk", phi_x * c, phase, phi_y)
    return float(np.sum(np.outer(w1, w2) * np.abs(g) ** 2))


# ---------------------------------------------------------------------------
# Finite-difference residual of the governing operator on the kernel
# ---------------------------------------------------------------------------


def pde_residual_images(x, y, params: GreensEvalParams, cfg: DuctConfig, delta: float) -> complex:
    """Centered 5-point residual of the convected operator applied to the
    image-series kernel at x (away from the source)."""

    def g(p):
        return greens_images(p, y, params, cfg).value

    c0 = g(x)
    e1p = g((x[0] + delta, x[1]))
    e1m = g((x[0] - delta, x[1]))
    e2p = g((x[0], x[1] + delta))
    e2m = g((x[0], x[1] - delta))
    m2 = cfg.one_minus_m2
    lap1 = (e1p - 2.0 * c0 + e1m) / delta ** 2
    lap2 = (e2p - 2.0 * c0 + e2m) / delta ** 2
    conv = (e1p - e1m) / (2.0 * delta)
    return m2 * lap1 + lap2 + 2j * cfg.k * cfg.M * conv + cfg.k ** 2 * c0
