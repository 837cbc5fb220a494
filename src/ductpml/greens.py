"""Semi-analytic Green's function of the duct problem and derived oracles.

The kernel G(x, y) is normalized so that applying the convected operator in
x yields +delta(x - y).  Its modal series sums over transverse modes the 1D
outgoing kernels g_n(x1, y1), which factor through the roots beta_n^{+-} =
-mu +- i gamma_n, mu = k M / (1 - M^2):

    g_n(x1, y1) = c_n exp(-i mu (x1 - y1)) exp(-gamma_n |x1 - y1|),
    c_n = -1 / (2 (1 - M^2) gamma_n).

Every kernel value comes from the Kummer-accelerated modal series
(``greens_kummer``), which holds at every separation.  Each term less its
large-n asymptote decays like n^{-3}; the subtracted asymptotes sum in
closed form to logarithms that carry the singularity at the source and at
its wall images exactly.  Its difference with the free-space logarithm
(``log_kernel``) is the Lipschitz remainder of the cell that holds x.

The plain modal series and the image series (reflections of the free-space
kernel across the rigid walls) are kept outside the package as independent
test oracles.

Sign and phase of the free-space kernel: the convected phase factor is
``exp(-i mu (x1 - y1))`` (the factor k and the minus sign in mu x1 are forced
by annihilating the first-order term of the operator) and the prefactor is
``-i / (4 sqrt(1 - M^2))``, so that every representation agrees and the
solution representations below solve the forced equation with a plus sign.
Its logarithmic part is ``+ ln(k rho) / (2 pi sqrt(1 - M^2))`` times the
phase.

The cell integrals take one exponential of the rates gamma_n +- i mu per
(mode, edge), every segment integral is one helper's (1 - exp(-kappa w)) /
kappa, and the strip that holds x sums its non-decaying part in closed
form.  The kernel-difference probe writes each mode's term in gamma_n and
the phase exp(-i mu delta) shared by all modes, as squares that do not
cancel at small separations; a pass without propagating modes runs it on
real arrays.  It sums the terms less their two-term large-n asymptotes and
adds the asymptotes back in closed form, as polylogarithms.  Roots are
slices of one table per config; a pass evaluates several blocks of modes as
one array, then adds and tests the block sums one at a time.
"""

from __future__ import annotations

import math
import threading
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import zeta

from .duct import (
    GAUSS4_NODES,
    GAUSS4_WEIGHTS,
    _PI_LD,
    DuctConfig,
    axial_wavenumbers64,
    cutoff_numbers,
    default_n_modes,
    mode_shape,
)
from .errors import ConfigError, DomainError, SingularityError
from .noise import NoiseRealization, transverse_cell_integrals


@dataclass(frozen=True)
class GreensEvalParams:
    """Truncation control of the modal series: the least mode count summed,
    N0 + 30 when left at 0."""

    n_modes: int = 0

    def resolve(self, cfg: DuctConfig) -> int:
        """The mode count with its default filled in; at least N0 + 5."""
        _, n0 = cutoff_numbers(cfg)
        n_modes = self.n_modes if self.n_modes > 0 else default_n_modes(cfg)
        if n_modes < n0 + 5:
            raise ConfigError(f"n_modes = {n_modes} must be at least N0+5 = {n0 + 5}")
        return n_modes


def _root1m2(cfg: DuctConfig) -> float:
    return math.sqrt(cfg.one_minus_m2)


def _mu(cfg: DuctConfig) -> float:
    """Convected phase rate k M / (1 - M^2), rounded once from extended
    precision like the roots: exactly -Re beta of every evanescent mode."""
    m2 = 1.0 - np.longdouble(cfg.M) ** 2
    return float(np.longdouble(cfg.k) * cfg.M / m2)


def rho(x, cfg: DuctConfig):
    """Convected distance sqrt(x1^2 + (1-M^2) x2^2) / (1-M^2) of an offset
    (x1, x2); the components may be arrays, which broadcast."""
    x1, x2 = (np.asarray(v, dtype=float) for v in x)
    out = np.sqrt(x1 * x1 + cfg.one_minus_m2 * x2 * x2) / cfg.one_minus_m2
    return float(out) if out.ndim == 0 else out


def _scalar_or_array(val):
    return complex(val) if np.ndim(val) == 0 else val


def _free_offset(x, y, cfg: DuctConfig):
    """Convected distance from the sources y to x and the convected phase;
    the coordinates of y may be arrays, which broadcast."""
    dx1 = x[0] - np.asarray(y[0], dtype=float)
    return rho((dx1, x[1] - np.asarray(y[1], dtype=float)), cfg), np.exp(-1j * _mu(cfg) * dx1)


def log_kernel(x, y, cfg: DuctConfig):
    """Logarithmic part of the free-space kernel: ln(k rho)/(2 pi sqrt(1-M^2))
    times the convected phase.  The kernel less it is Lipschitz near
    coincidence."""
    r, phase = _free_offset(x, y, cfg)
    if np.any(cfg.k * r < 1e-300):
        raise SingularityError("log kernel at coincident points")
    return _scalar_or_array(np.log(cfg.k * r) * phase / (2.0 * math.pi * _root1m2(cfg)))


# Root tables (beta_plus, beta_minus, c) of the most recently used configs,
# grown in whole pieces of modes.
_ROOT_PIECE = 1024
_ROOT_TABLE_CONFIGS = 4
_root_tables: dict = {}
_root_lock = threading.Lock()
# Mode blocks per array pass of the kernel-difference (_PASS_BLOCKS) and the
# cell-integral sums; bounds the size of their temporaries.
_PASS_BLOCKS = 8
_CELL_PASS_BLOCKS = 4


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


def _mode_block(cfg: DuctConfig, n_lo: int, n_hi: int):
    """(c, k_down, k_up) of modes n_lo .. n_hi-1: g_n(x1, y1) = c_n exp(-k
    |x1 - y1|), k = k_down = -i beta_+ = gamma_n + i mu for x1 >= y1, k =
    k_up = i beta_- = gamma_n - i mu upstream."""
    bp, bm, c = _betas_block(cfg, n_lo, n_hi)
    return c, -1j * bp, 1j * bm


def _warn_at_cap(where: str, cap: int, share: float, of: str) -> None:
    """RuntimeWarning that a mode sum stopped at its cap unconverged, with
    the last block's share of the summed quantity."""
    warnings.warn(
        f"{where} reached the {cap}-mode cap unconverged (last block {share:.2g} of {of})",
        RuntimeWarning,
        stacklevel=3,
    )


def _decay(modes, t):
    """exp(-k |t|), shape (modes, distances), for t = x1 - y1: k_down where
    t >= 0, k_up elsewhere."""
    _, k_down, k_up = modes
    t = np.asarray(t, dtype=float)
    return np.exp(-np.where(t >= 0.0, k_down[:, None], k_up[:, None]) * np.abs(t))


def _decay_integral(near, far, kappa, width):
    """Elementwise integral over [0, w] of f with f' = -kappa f, f(0) = near
    and f(w) = far: (near - far) / kappa, which cancels as kappa w -> 0, so
    where |kappa w| < 1/2 it is near (1 - exp(-kappa w)) / kappa by expm1
    (near w where kappa = 0)."""
    kw = kappa * width
    small = np.abs(kw) < 0.5
    out = (near - far) / np.where(small, 1.0, kappa)
    if small.any():
        small = np.broadcast_to(small, out.shape)
        k, w, v = (np.broadcast_to(arr, out.shape)[small] for arr in (kappa, width, near))
        zero = k == 0.0
        out[small] = v * np.where(zero, w, -np.expm1(-k * w) / np.where(zero, 1.0, k))
    return out


def greens_kummer(x, y, params: GreensEvalParams, cfg: DuctConfig, tol: float = 1e-7):
    """Kummer-accelerated modal-series kernel value at any axial separation
    (Linton, J. Eng. Math. 33 (1998) 377-402); arrays of source coordinates
    give an array.

    With dx1 = x1 - y1, alpha = pi / (d sqrt(1 - M^2)) and theta_-+ = pi (x2
    -+ y2) / d, each term c_n exp(-gamma_n |dx1|) phi_n(x2) phi_n(y2) less
    its asymptote c_n^inf exp(-alpha n |dx1|) phi_n(x2) phi_n(y2), c_n^inf =
    -d / (2 n pi sqrt(1 - M^2)) (0 for n = 0), decays like n^{-3} even at
    dx1 = 0, and the asymptotes sum in closed form:

        G = exp(-i mu dx1) [sum_n remainder_n + (ln|1 - exp(-alpha |dx1| +
            i theta_-)| + ln|1 - exp(-alpha |dx1| + i theta_+)|) / (2 pi
            sqrt(1 - M^2))],

    the logarithms holding the singularity at the source and its wall
    images.  The remainder is summed in blocks of 64 modes (the first one
    reaching n_modes; blocks without a propagating mode on real arrays)
    until two block sums in a row fall below tol times the largest value; if
    they do not within 16384 modes a RuntimeWarning gives the last block's
    share.  x2 and y2 outside [0, d] continue evenly across both walls.
    """
    n_floor = params.resolve(cfg)
    y1, y2 = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in y))
    dx1 = x[0] - y1.ravel()
    adx = np.abs(dx1)
    theta = (math.pi / cfg.d) * np.stack([x[1] - y2.ravel(), x[1] + y2.ravel()])
    root = _root1m2(cfg)
    alpha = math.pi / (cfg.d * root)
    # |1 - exp(-alpha |dx1| + i theta)|^2, without cancellation near an image
    dist2 = np.expm1(-alpha * adx) ** 2 + 4.0 * np.exp(-alpha * adx) * np.sin(0.5 * theta) ** 2
    # the free-space kernel's guard: to leading order, the convected
    # distance to the nearest image is sqrt(dist2) d / (pi sqrt(1 - M^2))
    if np.any(cfg.k * cfg.d * np.sqrt(dist2) < 1e-12 * math.pi * root):
        raise SingularityError("kernel evaluated at (an image of) the source")
    total = np.log(dist2[0] * dist2[1]) / (4.0 * math.pi * root) + 0j
    n_lo, n_hi, calm, cap = 0, max(64, n_floor), 0, 16384
    while n_lo < cap:
        c, k_down, k_up = _mode_block(cfg, n_lo, n_hi)
        gamma = 0.5 * (k_down + k_up)
        if not gamma.imag.any():
            gamma, c = gamma.real, c.real
        ns = np.arange(n_lo, n_hi)
        c_inf = -cfg.d / (2.0 * math.pi * root * np.maximum(ns, 1)) * (ns > 0)
        # phi_n(x2) phi_n(y2) = (cos n theta_- + cos n theta_+) / d for n >= 1
        shapes = np.cos(ns[:, None, None] * theta).sum(axis=1) / cfg.d
        if n_lo == 0:
            shapes[0] *= 0.5
        terms = c[:, None] * np.exp(-np.multiply.outer(gamma, adx))
        terms -= c_inf[:, None] * np.exp(-np.multiply.outer(alpha * ns, adx))
        contrib = np.sum(shapes * terms, axis=0)
        total += contrib
        calm = calm + 1 if np.max(np.abs(contrib)) < tol * np.max(np.abs(total)) else 0
        if calm >= 2:
            break
        n_lo, n_hi = n_hi, n_hi + 64
    else:
        share = np.max(np.abs(contrib)) / max(np.max(np.abs(total)), 1e-300)
        _warn_at_cap("greens_kummer", cap, share, "the value")
    return _scalar_or_array((total * np.exp(-1j * _mu(cfg) * dx1)).reshape(y1.shape))


# ---------------------------------------------------------------------------
# Solution representations
# ---------------------------------------------------------------------------


def _strip_integrals(modes, edges: np.ndarray, x1: float):
    """Integral of exp(-k |x1 - y|) over each strip between ascending edges,
    shape (modes, strips).  A strip left of x1 decays from its right edge at
    k_down, one right of x1 from its left edge at k_up; a strip holding x1
    is split at the kink."""
    _, k_down, k_up = modes
    at = _decay(modes, x1 - edges)
    lo, width = edges[:-1], np.diff(edges)
    n_left = int(np.searchsorted(edges[1:], x1, side="right"))  # strips with hi <= x1
    n_kink = int(np.searchsorted(lo, x1, side="left"))  # first strip with lo >= x1
    k_left, k_right = k_down[:, None], k_up[:, None]
    left = _decay_integral(at[:, 1 : n_left + 1], at[:, :n_left], k_left, width[:n_left])
    right = _decay_integral(at[:, n_kink:-1], at[:, n_kink + 1 :], k_right, width[n_kink:])
    kink = [
        _decay_integral(1.0, at[:, j], k_down, x1 - lo[j])
        + _decay_integral(1.0, at[:, j + 1], k_up, edges[j + 1] - x1)
        for j in range(n_left, n_kink)
    ]
    return np.column_stack([left, *kink, right])


def stochastic_solution(
    noise: NoiseRealization, x, params: GreensEvalParams, cfg: DuctConfig
) -> complex:
    """Response at x to one realization of the discretized white noise.

    Each cell contributes xi_i / sqrt(|K_i|) times the cell integral of the
    kernel.  Off-source cells come from kernel_cell_integrals: per-mode
    closed forms (transverse integral of phi_n, piecewise-exponential axial
    integral of g_n) and the closed-form sum of the non-decaying part of x's
    strip.  The cell containing x stays on singular_cell_integral: the
    kernel is split into its logarithmic part (integrated over apex
    triangles by a Duffy-style radial substitution, 4x4 Gauss per triangle)
    and a Lipschitz remainder (4x4 Gauss over the cell), so the integrable
    singularity never meets the quadrature.
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
    total = complex(np.sum(v * kernel_cell_integrals(x, x1_edges, x2_edges, params, cfg)))
    if inside:
        cell = (x1_edges[i1], x1_edges[i1 + 1], x2_edges[i2], x2_edges[i2 + 1])
        total += v_cell * singular_cell_integral(x, cell, params, cfg)
    return total


def _neumann_cell_integrals(x2: float, x2_edges, d: float) -> np.ndarray:
    """sum_n phi_n(x2) T_n / (q^2 + (n pi / d)^2), q = pi / d, over each x2
    cell: the integral over it of the Neumann kernel of -d^2/dy^2 + q^2,
    cosh(q y_<) cosh(q (d - y_>)) / (q sinh(q d)), split at x2."""
    q = math.pi / d
    below = math.cosh(q * (d - x2)) * np.diff(np.sinh(q * np.minimum(x2_edges, x2)))
    above = math.cosh(q * x2) * np.diff(np.sinh(q * (d - np.maximum(x2_edges, x2))))
    return (below - above) / (q * q * math.sinh(math.pi))


def kernel_cell_integrals(x, x1_edges, x2_edges, params, cfg, tol=1e-10) -> np.ndarray:
    """Closed-form integrals of G(x, .) over every mesh cell.

    Returns a complex (n1, n2) matrix over the rectangular cells spanned by
    the edge arrays (x2 edges in [0, d]); the transverse factor is analytic
    and the axial factor is piecewise exponential, one exponential per
    (mode, edge).  In the strip a1 < x1 < b1 mode n's axial term tends to
    c_n (1/k_up + 1/k_down) = 1/(k^2 - (n pi/d)^2), so its cells' terms
    decay only like n^{-3}; they are summed less s_n phi_n(x2) T_n, s_n =
    -1/(q^2 + (n pi/d)^2) with q = pi/d (k would put poles at the transverse
    resonances), and the s_n terms are added back in closed form
    (_neumann_cell_integrals).  Every cell's remainder then decays like
    exp(-alpha n dist(x1, x1 edges)), plus n^{-5} in x's strip; x1 on an
    edge keeps the n^{-3} terms of its two strips.  Blocks of 64 modes are
    added until two in a row fall below tol times max(max|K|, 1), absolute
    while max|K| < 1 (tol 1e-10 is about 3e-8 of max|K| ~ 3e-3 on the 11 x
    6 default noise mesh at M = 0.3, k = 5); if they do not within 16384
    modes a RuntimeWarning gives the last block's share.  One pass builds
    the factors of _CELL_PASS_BLOCKS blocks, and each block's sum is one
    product of its (phi_n(x2) c_n axial) rows with its transverse rows.
    """
    n_floor = params.resolve(cfg)
    block, cap = 64, 16384
    bounds = [0, max(block, n_floor)]
    while bounds[-1] < cap:
        bounds.append(bounds[-1] + block)
    total = np.zeros((x1_edges.size - 1, x2_edges.size - 1), dtype=complex)
    j = int(np.searchsorted(x1_edges, x[0])) - 1  # x1_edges[j] < x1 <= x1_edges[j + 1]
    kink = 0 <= j < total.shape[0] and x[0] < x1_edges[j + 1]
    if kink:
        total[j] = -_neumann_cell_integrals(x[1], x2_edges, cfg.d)
    calm = 0
    for p in range(0, len(bounds) - 1, _CELL_PASS_BLOCKS):
        stops = bounds[p : p + _CELL_PASS_BLOCKS + 1]
        n_lo, n_hi = stops[0], stops[-1]
        modes = _mode_block(cfg, n_lo, n_hi)
        ns = np.arange(n_lo, n_hi)
        phis = mode_shape(ns, x[1], cfg.d)
        axial = _strip_integrals(modes, x1_edges, x[0]) * (phis * modes[0])[:, None]
        if kink:
            axial[:, j] += phis / ((math.pi / cfg.d) ** 2 * (1.0 + ns * ns))  # less s_n phi_n
        trans = transverse_cell_integrals(x2_edges, n_hi, cfg.d, n_lo)
        for a, b in zip(stops[:-1], stops[1:]):
            rows = slice(a - n_lo, b - n_lo)
            contrib = axial[rows].T @ trans[rows]
            total += contrib
            scale = max(float(np.max(np.abs(total))), 1.0)
            if float(np.max(np.abs(contrib))) < tol * scale:
                calm += 1
                if calm >= 2:
                    return total
            else:
                calm = 0
    _warn_at_cap("kernel_cell_integrals", cap, float(np.max(np.abs(contrib))) / scale, "max|K|")
    return total


def singular_cell_integral(x, cell, params: GreensEvalParams, cfg: DuctConfig) -> complex:
    """Integral of G(x, .) over the rectangular cell containing x.

    Logarithmic part over apex triangles (Duffy substitution, 4x4 Gauss),
    Lipschitz remainder (kernel minus log part) by 4x4 Gauss over the cell.
    """
    a1, b1, a2, b2 = cell
    corners = [(a1, a2), (b1, a2), (b1, b2), (a1, b2)]
    s = 0.5 * (1.0 + GAUSS4_NODES)
    w = 0.5 * GAUSS4_WEIGHTS
    sg, tg = np.meshgrid(s, s, indexing="ij")
    log_part = 0.0j
    for v1, v2 in zip(corners, corners[1:] + corners[:1]):
        e1 = (v1[0] - x[0], v1[1] - x[1])
        e2 = (v2[0] - x[0], v2[1] - x[1])
        jac = abs(e1[0] * e2[1] - e1[1] * e2[0])
        if jac >= 1e-300:
            y1 = x[0] + sg * ((1.0 - tg) * e1[0] + tg * e2[0])
            y2 = x[1] + sg * ((1.0 - tg) * e1[1] + tg * e2[1])
            log_part += np.sum(np.outer(w, w) * log_kernel(x, (y1, y2), cfg) * sg) * jac
    # Lipschitz remainder, kernel minus log part, at all 16 Gauss points of
    # the cell as one array
    y1, y2 = np.meshgrid(a1 + (b1 - a1) * s, a2 + (b2 - a2) * s, indexing="ij")
    y = (y1.ravel(), y2.ravel())
    smooth = greens_kummer(x, y, params, cfg) - log_kernel(x, y, cfg)
    wts = np.outer((b1 - a1) * w, (b2 - a2) * w).ravel()
    return log_part + complex(np.sum(wts * smooth))


# ---------------------------------------------------------------------------
# Kernel-difference probe (mean-square over the computational domain)
# ---------------------------------------------------------------------------


# sinh(x)/x - 1 = s P(s) with s = x^2: P's coefficients 1/(2j+3)!, highest
# first, enough for double precision where |s| < 1
_SINHC_M1 = [1.0 / math.factorial(2 * j + 3) for j in reversed(range(10))]


def _kink_excess(gamma, delta: float, i_delta):
    """X = exp(-g delta) delta (sinh(g delta) / (g delta) - sin(eta delta) /
    (eta delta)) >= 0 per mode, gamma = g + i eta with g eta = 0, given
    i_delta = I(delta).  As I(delta) - delta exp(-g delta) sinc(eta delta) it
    cancels where |gamma delta| < 1; there the series in (gamma delta)^2,
    whose value has the sign of (gamma delta)^2, is used."""
    g, eta = np.real(gamma) * delta, np.imag(gamma) * delta
    decay = delta * np.exp(-g)
    out = i_delta - decay * np.sinc(eta / math.pi)
    s = g * g - eta * eta
    small = np.abs(s) < 1.0
    if small.any():
        s = s[small]
        out[small] = decay[small] * np.abs(s * np.polyval(_SINHC_M1, s))
    return out


# 1 - exp(-x) (1 + x) = x^2 P(x): P's coefficients (-1)^j (j - 1) / j!,
# highest first, enough for double precision where x < 1
_EXP1_M1 = [(-1) ** j * (j - 1) / math.factorial(j) for j in reversed(range(2, 22))]
# Li_s(exp(mu)), s = 2 .. 5: series length and the log series' coefficients
# zeta(s - j) / j! (0 for zeta(1), whose place the log term takes)
_LI_TERMS = 72
_LI_ORDERS = np.arange(2, 6)
_LI_COEFFS = np.nan_to_num(zeta(_LI_ORDERS[:, None] - np.arange(_LI_TERMS)), posinf=0.0).astype(
    np.longdouble
) / np.cumprod(np.maximum(np.arange(_LI_TERMS), 1), dtype=np.longdouble)


def _polylogs(mu):
    """Li_s(exp(mu)) for s = 2 .. 5 (rows) at complex mu with Re mu <= 0, in
    long double: the power series sum_k exp(k mu) / k^s where |exp(mu)| <=
    1/2, elsewhere, with Im mu reduced to (-pi, pi], the log series sum_j
    zeta(s - j) mu^j / j! whose j = s - 1 term is mu^(s-1) (H_(s-1) -
    ln(-mu)) / (s-1)! (0 at mu = 0, where Li_s(1) = zeta(s))."""
    mu = np.asarray(mu, dtype=np.clongdouble)
    mu = mu.real + 1j * (_PI_LD - np.remainder(_PI_LD - mu.imag, 2 * _PI_LD))
    k = np.arange(1, _LI_TERMS, dtype=np.longdouble)
    powers = np.cumprod(np.broadcast_to(np.exp(mu), (k.size, mu.size)), axis=0)
    power = (powers / k[:, None] ** _LI_ORDERS[:, None, None]).sum(axis=1)
    mu_j = np.cumprod(np.concatenate([np.ones((1, mu.size)), [mu] * k.size]), axis=0)
    log_term = mu_j[_LI_ORDERS - 1] / np.cumprod(k[:4])[:, None]  # (s-1)!, then H_(s-1)
    log_term *= np.cumsum(1.0 / k[:4])[:, None] - np.log(np.where(mu == 0, 1.0, -mu))
    return np.where(mu.real <= -math.log(2.0), power, _LI_COEFFS @ mu_j + log_term)


def _asymptote_sums(y2, z2, ad, mu_delta, d):
    """Sums over n >= 1 of F_n / n^3, F_n / n^5 and 2 cy cz exp(-x) / n^3
    (q_l2_difference): with theta_+- = theta_y +- theta_z, the sum of F_n /
    n^s is Re of Li_s(1) + (Li_s(e^{2i theta_y}) + Li_s(e^{2i theta_z})) / 2
    - cos(mu delta) sum_+- (Li_s(e^{i theta_+-} - ad) + ad Li_{s-1}(...)).
    In long double: the first two cancel from O(1) to O(Q / K)."""
    th_y, th_z = (np.longdouble(v) * _PI_LD / np.longdouble(d) for v in (y2, z2))
    ad = np.longdouble(ad)
    mus = [0.0, 2j * th_y, 2j * th_z, 1j * (th_y - th_z) - ad, 1j * (th_y + th_z) - ad]
    li = _polylogs(mus).real
    cos_md = np.cos(np.longdouble(mu_delta))

    def f_sum(s):
        cross = li[s - 2, 3:].sum() + ad * li[s - 3, 3:].sum()
        return li[s - 2, 0] + 0.5 * (li[s - 2, 1] + li[s - 2, 2]) - cos_md * cross

    return float(f_sum(3)), float(f_sum(5)), float(li[1, 3:].sum())


def q_l2_difference(y, z, cfg: DuctConfig, tol: float = 1e-10) -> float:
    """Integral over the computational domain of |G(x, y) - G(x, z)|^2 dx.

    Transverse integration is exact by orthonormality of the modes.  With
    y1 <= z1, p = y1 - x_minus, delta = z1 - y1, q = x_plus - z1, a, b =
    phi_n(y2) c_n, phi_n(z2) c_n, D = exp(-gamma_n delta) and w = exp(-i mu
    delta), mode n contributes in closed form

        t_n = |a - b D conj(w)|^2 I(p) + |a D w - b|^2 I(q)
              + |a - b conj(w)|^2 I(delta) + 2 Re(a conj(b) w) X,

    I(t) the integral of |exp(-gamma_n s)|^2 over [0, t] and X that of the
    kink region beyond its first term (_kink_excess).  The differences are
    formed without cancellation (a - b as a product of sines, D - 1 by
    expm1, w - 1 by a half-angle sine), so the terms stay accurate relative
    to Q as delta -> 0.

    The terms decay like n^{-3}, so the sum is Kummer-split: Q = t_0 +
    sum_{n >= 1} (t_n - s_n) + sum_{n >= 1} s_n.  On the whole line t_n =
    F(gamma_n) / (2 d (1 - M^2)^2 gamma_n^3), F(g) = cy^2 + cz^2 - 2 cy cz
    cos(mu delta) exp(-g delta) (1 + g delta) with cy, cz = cos(n pi y2 / d),
    cos(n pi z2 / d); s_n is its expansion to second order in gamma_n -
    alpha n = -kappa^2 / (2 alpha n) + ..., alpha = pi / (d sqrt(1 - M^2)),
    kappa = k / (1 - M^2):

        s_n = K [F_n (1 + 3 c / n^2) - 2 c cy cz cos(mu delta) (alpha
              delta)^2 exp(-x)] / n^3,

    K = 1 / (2 d (1 - M^2)^2 alpha^3), c = kappa^2 / (2 alpha^2), x = alpha n
    delta, F_n = F(alpha n) formed as (cy - cz)^2 + 2 cy cz (2 sin^2(mu delta
    / 2) + cos(mu delta) (1 - exp(-x) (1 + x))).  t_n - s_n decays like
    n^{-7} (the finite domain adds terms in exp(-2 gamma_n min(p, q))); the
    s_n sum in closed form by polylogarithms (_asymptote_sums).  The
    remainder is summed in passes of _PASS_BLOCKS blocks of 256 modes, each
    pass one array, until two blocks in a row fall below tol times Q; the
    pass that meets the test is kept whole.  If none does within 32768 modes
    a RuntimeWarning names the separation and the last block's share of Q.
    """
    if y[0] > z[0]:
        y, z = z, y
    p = max(y[0] - cfg.x_minus, 0.0)
    delta = z[0] - y[0]
    q = max(cfg.x_plus - z[0], 0.0)
    mu_delta = _mu(cfg) * delta
    w = complex(math.cos(mu_delta), -math.sin(mu_delta))
    w_m1 = complex(-2.0 * math.sin(0.5 * mu_delta) ** 2, -math.sin(mu_delta))  # w - 1
    widths = np.array([p, q, delta])
    alpha = math.pi / (cfg.d * _root1m2(cfg))
    ad = alpha * delta
    scale = 1.0 / (2.0 * cfg.d * cfg.one_minus_m2 ** 2 * alpha ** 3)  # K
    c2 = 0.5 * (cfg.k / (cfg.one_minus_m2 * alpha)) ** 2
    f3, f5, cross3 = _asymptote_sums(y[1], z[1], ad, mu_delta, cfg.d)
    tail = float(scale * (f3 + c2 * (3.0 * f5 - w.real * ad * ad * cross3)))
    total, block, cap = 0.0, 256, 32768
    calm, settled = 0, False
    for n_start in range(0, cap, _PASS_BLOCKS * block):
        n_stop = n_start + _PASS_BLOCKS * block
        c, k_down, k_up = _mode_block(cfg, n_start, n_stop)
        gamma = 0.5 * (k_down + k_up)
        if not gamma.imag.any():
            gamma, c = gamma.real, c.real
        ns = np.arange(n_start, n_stop)
        # phi_n(y2), phi_n(z2) = norm_n (cc -+ ss) and their difference
        # -2 norm_n ss, from the half sum and half difference of the angles
        theta = ns * (0.5 * math.pi / cfg.d)
        half_sum, half_dif = theta * (y[1] + z[1]), theta * (y[1] - z[1])
        cc = np.cos(half_sum) * np.cos(half_dif)
        ss = np.sin(half_sum) * np.sin(half_dif)
        norm = c * np.where(ns == 0, 1.0 / math.sqrt(cfg.d), math.sqrt(2.0 / cfg.d))
        a, b, a_b = norm * (cc - ss), norm * (cc + ss), -2.0 * norm * ss
        d_m1 = np.expm1(-gamma * delta)  # D - 1
        up = a_b - b * (d_m1 * w.conjugate() + w_m1.conjugate())
        down = a_b + a * (d_m1 * w + w_m1)
        mid = a_b - b * w_m1.conjugate()
        rate = 2.0 * np.real(gamma)  # |exp(-gamma s)|^2 = exp(-rate s)
        far = np.exp(-np.multiply.outer(rate, widths))
        i_p, i_q, i_d = _decay_integral(1.0, far, rate[:, None], widths).T
        terms = (
            (up.real ** 2 + up.imag ** 2) * i_p
            + (down.real ** 2 + down.imag ** 2) * i_q
            + (mid.real ** 2 + mid.imag ** 2) * i_d
            + 2.0 * (a * np.conj(b) * w).real * _kink_excess(gamma, delta, i_d)
        )
        # less the asymptotes s_n (none for n = 0)
        x = ad * ns
        decay = np.exp(-x)
        e1 = -np.expm1(-x) - x * decay  # 1 - exp(-x) (1 + x), by its series where x < 1
        e1[x < 1.0] = x[x < 1.0] ** 2 * np.polyval(_EXP1_M1, x[x < 1.0])
        cyz = (cc - ss) * (cc + ss)
        f_n = 4.0 * ss * ss + 2.0 * cyz * (w.real * e1 - w_m1.real)
        inv_n2 = (ns > 0) / np.maximum(ns, 1) ** 2
        terms -= scale * inv_n2 / np.maximum(ns, 1) * (
            f_n * (1.0 + 3.0 * c2 * inv_n2) - 2.0 * c2 * w.real * ad * ad * cyz * decay
        )
        for contrib in terms.reshape(-1, block).sum(axis=1).tolist():
            total += contrib
            calm = calm + 1 if abs(contrib) < tol * max(total + tail, 1e-300) else 0
            settled = settled or calm >= 2
        if settled:
            return max(total + tail, 0.0)
    _warn_at_cap(
        f"q_l2_difference: separation {math.hypot(delta, z[1] - y[1]):.3g}",
        cap,
        abs(contrib) / max(total + tail, 1e-300),
        "Q",
    )
    return max(total + tail, 0.0)  # squared quantity; clamp roundoff negatives


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
