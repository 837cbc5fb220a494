"""Independent oracles for the roots in ``ductpml.duct``, the kernels in
``ductpml.greens``, the noise in ``ductpml.noise``, the layer in
``ductpml.pml`` and the solves in ``ductpml.solver``.

Dispersion residual: the axial dispersion relation evaluated at a root in
extended precision.

Plain modal series: the kernel as the sum of the modes' outgoing 1D
kernels, which converges geometrically away from the source's axial
position.  It shares only the roots with the Kummer series in
``ductpml.greens``.  Its cell integrals are the plain sum of 65,536 modes
(within 5.6e-13 of max|K| of 131,072 on the tests' meshes), each strip's
axial integral written in the complex exponentials of the roots; they share
the roots and the transverse cell integrals with
``ductpml.greens.kernel_cell_integrals``, but neither its exponential
factoring, its closed-form part nor its stopping test.

Image series: reflections of the free-space convected kernel ``phi_free``
(the Hankel function H0 of the convected distance, ``ductpml.specfun``)
across the rigid walls, sources at transverse positions ``+-y2 + 2 d n``.
The terms decay only like n^{-1/2} with oscillation, so partial sums are
tail-averaged (Cesaro over the last quarter of shells).  The series shares
nothing with the modal sums in ``ductpml.greens`` but the free-space kernel,
so it cross-checks them; a centered finite-difference residual of the
operator applied to it checks the kernel's normalization.

Noise field: the piecewise-constant white-noise field of a realization at
given points.

Solution quadratures: the 1D outgoing mode kernel in complex exponentials,
its adaptive-quadrature convolution with a deterministic modal source, and
the tensor-Gauss L2 norm of the kernel over a rectangle (the Ito-isometry
oracle of the noise response).

Layer solutions: the per-mode solutions psi_n^{+-} of the stretched
operator in one layer, in closed form through the partial stretch
integral s + i sigma_{+-} s^3 / (3 omega) (geometry and omega from the
DuctConfig, the layer factor q written out here, not taken from
``ductpml.pml``), and their derivatives; with the two-point amplitudes of the
unit-trace layer solution they check the Robin coefficients nu_n and the
eigenrelation alpha (d/dx1 + i mu) psi = i (beta + mu) psi.

Stretched weak form: the full-layer bands of one mode assembled element by
element by 2-point Gauss, with sigma, sigma', alpha = 1 / (1 + i sigma/omega)
and alpha' = -i (sigma'/omega) alpha^2 written out here (not taken from
``ductpml.pml``) and z in the form k^2/((1-M^2) alpha) - alpha (Mk)^2/(1-M^2)
- (n pi/d)^2/alpha.

Solver norms: the Parseval/trapezoid L2 distance of two modal solutions
on one grid, and a 1-norm condition estimate of an assembled mode matrix
(sparse LU and ``onenormest``).

Closed-form DtN inverse: the columns of a DtN mode matrix's inverse as
combinations of its discrete waves lambda^i (constant interior rows, two
Robin corners), with four coefficients per column by Cramer's rule; it
shares no LAPACK code with the zgtsv solve.

Tridiagonal reference: scipy's ``solve_banded`` on the (3, n) banded
packing of (sub, diag, sup), the solve the package made before it called
LAPACK's zgtsv directly.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.integrate import quad
from scipy.linalg import solve_banded

from ductpml.duct import _PI_LD, DuctConfig, axial_wavenumbers64, mode_shape
from ductpml.errors import (
    ConfigError,
    DegenerateLayerError,
    DomainError,
    GridMismatchError,
    SingularityError,
)
from ductpml.greens import (
    GreensEvalParams,
    _betas_block,
    _free_offset,
    _root1m2,
    _scalar_or_array,
)
from ductpml.noise import (
    ModalFunctionSource,
    ModeBoxSource,
    NoiseRealization,
    transverse_cell_integrals,
)
from ductpml.pml import PmlProfile, alpha
from ductpml.solver import DTN, Grid1D, ModalSolution, mode_matrix
from ductpml.specfun import hankel0


def dispersion_residual(beta, n, cfg: DuctConfig):
    """|-(1-M^2) beta^2 - 2 k M beta + k^2 - n^2 pi^2 / d^2|.

    Evaluated in extended precision so the reported value reflects the
    root's accuracy rather than cancellation noise of the evaluation.
    Scalars give a float; arrays broadcast and give an array.
    """
    k = np.longdouble(cfg.k)
    m2 = 1.0 - np.longdouble(cfg.M) ** 2
    b = np.clongdouble(beta)
    val = -m2 * b * b - 2.0 * k * cfg.M * b + k * k - (n * _PI_LD / np.longdouble(cfg.d)) ** 2
    out = abs(val)
    return out if np.ndim(out) else float(out)


@dataclass(frozen=True)
class SeriesValue:
    """Series evaluation plus its convergence indicator."""

    value: complex
    indicator: float


def greens_modal(x, y, params: GreensEvalParams, cfg: DuctConfig, gap=None) -> SeriesValue:
    """Plain modal-series kernel value; needs an axial separation of at
    least gap (default a quarter of the duct width), else DomainError.

    Transverse coordinates outside [0, d] use the even continuation of
    the modes across both walls (period 2d), as the Kummer series does.
    The indicator is a geometric bound on the truncated tail.
    """
    n_modes = params.resolve(cfg)
    gap = 0.25 * cfg.d if gap is None else gap
    period = 2.0 * cfg.d
    x2, y2 = (abs(t) % period for t in (x[1], y[1]))
    dx1 = x[0] - y[0]
    if abs(dx1) < gap:
        raise DomainError(f"axial gap {abs(dx1):.3g} below {gap:.3g}; use the Kummer series")
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


def _exp_cell_integrals(beta, lo, hi, x1):
    """Integral over [lo, hi] of exp(i beta (x1 - y)) dy; beta_plus for a
    strip left of x1, beta_minus right of it; sinc series for tiny |beta w|."""
    width = hi - lo
    t = 0.5 * beta * width
    small = np.abs(t) < 0.01
    out = (np.exp(1j * beta * (x1 - lo)) - np.exp(1j * beta * (x1 - hi))) / (
        1j * np.where(small, 1.0, beta)
    )
    b, t = beta[small], t[small]
    series = width * (1.0 - t * t / 6.0 + t ** 4 / 120.0)
    out[small] = np.exp(1j * b * (x1 - 0.5 * (lo + hi))) * series
    return out


def axial_strip_integrals(beta_p, beta_m, c, edges, x1):
    """Integral of g_n over each strip: one call per strip (two for the kink)."""
    out = np.zeros((beta_p.size, edges.size - 1), dtype=complex)
    for j in range(edges.size - 1):
        lo, hi = float(edges[j]), float(edges[j + 1])
        if hi <= x1:
            out[:, j] = _exp_cell_integrals(beta_p, lo, hi, x1)
        elif lo >= x1:
            out[:, j] = _exp_cell_integrals(beta_m, lo, hi, x1)
        else:
            out[:, j] = _exp_cell_integrals(beta_p, lo, x1, x1) + _exp_cell_integrals(
                beta_m, x1, hi, x1
            )
    return c[:, None] * out


def modal_cell_integrals(x, x1_edges, x2_edges, cfg: DuctConfig, n_modes=65536):
    """Integrals of G(x, .) over every mesh cell as the plain sum of modes 0
    .. n_modes - 1 of phi_n(x2) (axial integral of g_n) T_n, with no
    stopping test, added 8192 modes at a time.  Its terms decay like n^{-3}
    in the strips next to x1."""
    total = np.zeros((x1_edges.size - 1, x2_edges.size - 1), dtype=complex)
    for lo in range(0, n_modes, 8192):
        ns = np.arange(lo, min(lo + 8192, n_modes))
        bp, bm = axial_wavenumbers64(ns, cfg)
        c = 1.0 / (1j * cfg.one_minus_m2 * (bp - bm))
        axial = axial_strip_integrals(bp, bm, c, x1_edges, x[0])
        trans = transverse_cell_integrals(x2_edges, ns[-1] + 1, cfg.d, lo)
        total += (axial * mode_shape(ns, x[1], cfg.d)[:, None]).T @ trans
    return total


def phi_free(x, y, cfg: DuctConfig):
    """Free-space convected kernel (operator applied in x gives +delta);
    arrays of source coordinates give an array."""
    r, phase = _free_offset(x, y, cfg)
    if np.any(cfg.k * r < 1e-12):
        raise SingularityError("free-space kernel evaluated at (an image of) the source")
    return _scalar_or_array(-0.25j / _root1m2(cfg) * hankel0(cfg.k * r) * phase)


def _image_y2(y2, d: float, n_images: int) -> np.ndarray:
    """Transverse source images grouped by shell: [y2, -y2], then per shell
    j >= 1 the four entries +-y2 +- 2 d j; one row per entry of an array y2."""
    off = 2.0 * d * np.arange(1, n_images + 1)
    y2 = np.asarray(y2, dtype=float)[..., None]
    shells = np.stack([y2 + off, -y2 + off, y2 - off, -y2 - off], axis=-1)
    return np.concatenate([y2, -y2, shells.reshape(*y2.shape[:-1], -1)], axis=-1)


def _images_shell_sums(x, y, n_images: int, cfg: DuctConfig, include_direct=True):
    """Per-shell sums of the image series, shape (..., n_images + 1) for
    source coordinates y or target coordinates x of shape (...), the other
    one point."""
    y2_img = _image_y2(y[1], cfg.d, n_images)
    if not include_direct:
        y2_img = y2_img[..., 1:]
    x = tuple(np.asarray(v, dtype=float)[..., None] for v in x)
    terms = phi_free(x, (np.asarray(y[0], dtype=float)[..., None], y2_img), cfg)
    n_head = 2 if include_direct else 1
    shell0 = np.sum(terms[..., :n_head], axis=-1, keepdims=True)
    rest = terms[..., n_head:].reshape(*terms.shape[:-1], n_images, 4).sum(axis=-1)
    return np.concatenate([shell0, rest], axis=-1)


def _averaged_tail_value(shell_sums: np.ndarray):
    """Cesaro mean of the partial sums over the last quarter of shells, per
    row of shell sums."""
    partial = np.cumsum(shell_sums, axis=-1)
    n = partial.shape[-1] - 1
    if n < 8:
        return _scalar_or_array(partial[..., -1])
    start = int(math.ceil(0.75 * n))
    return _scalar_or_array(np.mean(partial[..., start:], axis=-1))


def greens_images(x, y, n_images: int, cfg: DuctConfig) -> SeriesValue:
    """Image-series kernel value with tail averaging over n_images shells
    (shell 0 is the source and its first wall reflection); arrays of target
    coordinates x give arrays.

    The indicator is the magnitude of the last shell (the series converges
    conditionally like n^{-1/2}, so the averaged value is far more accurate
    than the raw partial sum).
    """
    shells = _images_shell_sums(x, y, n_images, cfg)
    last = np.abs(shells[..., -1])
    return SeriesValue(
        value=_averaged_tail_value(shells), indicator=float(last) if last.ndim == 0 else last
    )


def _images_reflected_value(x, y, n_images: int, cfg: DuctConfig):
    """Image series without the direct source term (smooth near x = y);
    ``y`` may hold arrays of source coordinates."""
    shells = _images_shell_sums(x, y, n_images, cfg, include_direct=False)
    return _averaged_tail_value(shells)


def pde_residual_images(x, y, n_images: int, cfg: DuctConfig, delta: float) -> complex:
    """Centered 5-point residual of the convected operator applied to the
    image-series kernel at x (away from the source)."""

    def g(p):
        return greens_images(p, y, n_images, cfg).value

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


def mode_green_1d(n: int, x1: float, y1: float, cfg: DuctConfig) -> complex:
    """Outgoing 1D kernel of the mode operator, derivative jump
    (1 - M^2) [g'] = 1 at y1."""
    bp, bm = axial_wavenumbers64(n, cfg)
    c = 1.0 / (1j * cfg.one_minus_m2 * (bp - bm))
    beta = bp if x1 >= y1 else bm
    return c * cmath.exp(1j * beta * (x1 - y1))


def deterministic_solution(source, x, params: GreensEvalParams, cfg: DuctConfig) -> complex:
    """Convolution of the kernel with a deterministic modal source at point x.

    ``source`` is a ModeBoxSource, a ModalFunctionSource or a list of them;
    sources outside modes 0 .. n_modes-1 are dropped.  Each is integrated against
    g_n by adaptive quadrature (absolute target 1e-8), split at the kernel
    kink x1 = y1, independently of the finite-element loads.
    """
    n_modes = params.resolve(cfg)
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


def kernel_l2_over_rect(x, rect, params: GreensEvalParams, cfg: DuctConfig, order=32) -> float:
    """Integral over the rectangle of |G(x, y)|^2 dy by tensor Gauss.

    Used as the Ito-isometry oracle for the noise-driven response variance;
    x must lie a quarter of the duct width or more axially from the
    rectangle, where the plain modal series converges.
    """
    n_modes, gap = params.resolve(cfg), 0.25 * cfg.d
    a1, b1, a2, b2 = rect
    if not (x[0] <= a1 - gap or x[0] >= b1 + gap):
        raise DomainError("isometry quadrature point must be separated")
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


def evaluate_wh(r: NoiseRealization, x):
    """Piecewise-constant noise field xi_i / sqrt(|K_i|) at point(s) x.

    Cells are half-open ([lo, hi) in both axes), so points on the upper or
    right mesh boundary evaluate to 0 like any outside point.
    """
    x1, x2 = x
    scalar = np.ndim(x1) == 0 and np.ndim(x2) == 0
    x1 = np.atleast_1d(np.asarray(x1, dtype=float))
    x2 = np.atleast_1d(np.asarray(x2, dtype=float))
    x1_lo, x1_hi, x2_lo, x2_hi = r.mesh.rect
    w1, w2 = r.mesh.cell_size(r.level)
    i1 = np.floor((x1 - x1_lo) / w1).astype(int)
    i2 = np.floor((x2 - x2_lo) / w2).astype(int)
    n1, n2 = r.mesh.shape(r.level)
    inside = (i1 >= 0) & (i1 < n1) & (i2 >= 0) & (i2 < n2)
    inside &= (x1 >= x1_lo) & (x1 < x1_hi) & (x2 >= x2_lo) & (x2 < x2_hi)
    out = np.zeros_like(x1)
    amp = 1.0 / math.sqrt(r.mesh.cell_area(r.level))
    out[inside] = r.xi[i1[inside], i2[inside]] * amp
    return float(out[0]) if scalar else out


def modal_amplitudes(n: int, side: str, profile: PmlProfile, cfg: DuctConfig):
    """Coefficients (on psi_plus, psi_minus) of the unit-trace layer solution.

    The pair solves the two-point conditions: value 1 at the interface and 0
    at the outer Dirichlet wall.  With q = exp(i (beta_plus - beta_minus) (L +
    i sigma L^3 / (3 omega))) it is (1, -q) / (1 - q) on the '+' side, the
    weight on the branch decaying rightward, and (-q, 1) / (1 - q) on the '-'
    side.  Raises DegenerateLayerError when the interpolation denominator
    1 - q vanishes numerically.
    """
    bp, bm = axial_wavenumbers64(n, cfg)
    q = cmath.exp(1j * (bp - bm) * stretch_partial(profile, side, cfg.L, cfg))
    den = 1.0 - q
    if abs(den) < 1e-14:
        raise DegenerateLayerError(f"|1-q|={abs(den):.3e} for mode n={n}, side {side!r}")
    if side == "+":
        return 1.0 / den, -q / den
    return -q / den, 1.0 / den


def stretch_partial(profile: PmlProfile, side: str, s, cfg: DuctConfig):
    """Integral of 1/alpha = 1 + i sigma/omega over layer offsets [0, s]
    (vectorized in s): s + i sigma_{+-} s^3 / (3 omega)."""
    if side not in ("+", "-"):
        raise DomainError(f"side must be '+' or '-', got {side!r}")
    strength = profile.sigma_plus if side == "+" else profile.sigma_minus
    s = np.asarray(s, dtype=float)
    out = s + 1j * strength * s ** 3 / (3.0 * cfg.omega)
    return out if out.ndim else complex(out)


def psi_mode(n: int, x1, side: str, profile: PmlProfile, cfg: DuctConfig):
    """Per-mode layer solutions (psi_plus, psi_minus) at axial position x1.

    Both equal 1 at the interface; with sigma == 0 they reduce to the plain
    duct modes exp(i beta^{+-} (x1 - interface)).
    """
    bp, bm = axial_wavenumbers64(n, cfg)
    mu = cfg.M * cfg.k / cfg.one_minus_m2
    x1a = np.asarray(x1, dtype=float)
    off = (x1a - cfg.x_plus) if side == "+" else (cfg.x_minus - x1a)
    if np.any(off < -1e-12) or np.any(off > cfg.L + 1e-12):
        raise DomainError("x1 outside the layer on the requested side")
    sgn = 1.0 if side == "+" else -1.0
    stretch = sgn * stretch_partial(profile, side, np.maximum(off, 0.0), cfg)
    dx = sgn * off
    psi_p = np.exp(-1j * mu * dx + 1j * (bp + mu) * stretch)
    psi_m = np.exp(-1j * mu * dx + 1j * (bm + mu) * stretch)
    if np.ndim(x1) == 0:
        return complex(psi_p), complex(psi_m)
    return psi_p, psi_m


def psi_mode_derivative(n: int, x1, side: str, profile: PmlProfile, cfg: DuctConfig):
    """Closed-form d/dx1 of (psi_plus, psi_minus); used by eigenrelation checks."""
    bp, bm = axial_wavenumbers64(n, cfg)
    mu = cfg.M * cfg.k / cfg.one_minus_m2
    a = alpha(profile, x1, cfg)
    psi_p, psi_m = psi_mode(n, x1, side, profile, cfg)
    dp = psi_p * (-1j * mu + 1j * (bp + mu) / a)
    dm = psi_m * (-1j * mu + 1j * (bm + mu) / a)
    return dp, dm


def stretched_element_bands(n: int, cfg: DuctConfig, grid: Grid1D, profile: PmlProfile):
    """(sub, diag, sup) of mode n's full-layer operator, its Dirichlet rows removed,
    and the same bands assembled from the magnitudes of their terms: the scale
    against which the rounding of each entry is measured.

    Each element [xa, xb] adds, at its two Gauss points x (weight dx/2), the
    entries -(1-M^2) alpha N_i' N_j' + 2ikM alpha N_i N_j' + (ikM alpha' + z)
    N_i N_j for test function N_i and trial function N_j.
    """
    m2, omega, mk = cfg.one_minus_m2, cfg.omega, cfg.M * cfg.k
    dx = grid.delta
    nodes = grid.nodes()
    # bands[0] sub, [1] diag, [2] sup; entry (i, j) of element e lands on band 1 + j - i,
    # at index e + i for the diagonal and e otherwise
    bands = np.zeros((3, grid.n_nodes), dtype=complex)
    scales = np.zeros((3, grid.n_nodes))
    for e in range(grid.n_cells):
        xa, xb = nodes[e], nodes[e + 1]
        for g in (-1.0, 1.0):
            x = 0.5 * (xa + xb) + g * dx / (2.0 * math.sqrt(3.0))
            if x > cfg.x_plus:
                sig = profile.sigma_plus * (x - cfg.x_plus) ** 2
                dsig = 2.0 * profile.sigma_plus * (x - cfg.x_plus)
            elif x < cfg.x_minus:
                sig = profile.sigma_minus * (cfg.x_minus - x) ** 2
                dsig = -2.0 * profile.sigma_minus * (cfg.x_minus - x)
            else:
                sig = dsig = 0.0
            a = 1.0 / (1.0 + 1j * sig / omega)
            da = -1j * dsig / omega * a * a
            z_terms = (cfg.k ** 2 / (m2 * a), -a * mk * mk / m2, -(n * math.pi / cfg.d) ** 2 / a)
            shape = ((xb - x) / dx, (x - xa) / dx)
            slope = (-1.0 / dx, 1.0 / dx)
            for i in (0, 1):
                for j in (0, 1):
                    terms = (-m2 * a * slope[i] * slope[j], 2j * mk * a * shape[i] * slope[j],
                             1j * mk * da * shape[i] * shape[j],
                             sum(z_terms) * shape[i] * shape[j])
                    size = (sum(abs(t) for t in terms[:3])
                            + sum(abs(t) for t in z_terms) * shape[i] * shape[j])
                    at = (1 + j - i, e + i if i == j else e)
                    bands[at] += 0.5 * dx * sum(terms)
                    scales[at] += 0.5 * dx * size
    rows = (slice(1, grid.n_cells - 1), slice(1, grid.n_nodes - 1), slice(1, grid.n_cells - 1))
    return (tuple(b[r] for b, r in zip(bands, rows)),
            tuple(c[r] for c, r in zip(scales, rows)))


def l2_error(a: ModalSolution, b: ModalSolution) -> float:
    """Parseval/trapezoid norm of (a - b); operands must share grid and modes."""
    if a.grid != b.grid:
        raise GridMismatchError(f"grids differ: {a.grid} vs {b.grid}")
    if a.values.shape != b.values.shape:
        raise GridMismatchError(
            f"mode counts differ: {a.values.shape} vs {b.values.shape}"
        )
    diff = np.abs(a.values - b.values) ** 2
    return math.sqrt(float(np.sum(np.trapezoid(diff, dx=a.grid.delta, axis=1))))


def condition_estimate(
    n: int,
    cfg: DuctConfig,
    grid: Grid1D,
    formulation: str = DTN,
    profile=None,
) -> float:
    """1-norm condition estimate of the assembled mode matrix."""
    sub, diag, sup = mode_matrix(n, cfg, grid, formulation, profile)
    mat = sp.diags([sub, diag, sup], offsets=[-1, 0, 1], format="csc")
    lu = spla.splu(mat)
    inv_op = spla.LinearOperator(
        mat.shape,
        matvec=lambda v: lu.solve(v.astype(complex)),
        rmatvec=lambda v: lu.solve(v.astype(complex), trans="T"),
        dtype=complex,
    )
    norm_a = spla.norm(mat, 1)
    norm_inv = spla.onenormest(inv_op)
    return float(norm_a * norm_inv)


def banded_solve(sub, diag, sup, rhs) -> np.ndarray:
    """A^{-1} rhs by ``solve_banded`` for the tridiagonal A = (sub, diag, sup); rhs
    is taken complex, as LAPACK's zgtsv takes it (the 1x1 case divides in place)."""
    ab = np.zeros((3, diag.size), dtype=complex)
    ab[0, 1:] = sup
    ab[1, :] = diag
    ab[2, :-1] = sub
    return solve_banded((1, 1), ab, np.asarray(rhs, dtype=complex))


def _det(rows):
    """Determinant of a square matrix given as a list of rows of broadcastable
    entries (arrays stack one matrix per element), by Laplace expansion along
    the first row."""
    if len(rows) == 1:
        return rows[0][0]
    return sum((-1) ** k * rows[0][k] * _det([r[:k] + r[k + 1 :] for r in rows[1:]])
               for k in range(len(rows)))


def dtn_inverse(sub, diag, sup, cols=None) -> np.ndarray:
    """Columns ``cols`` (default all) of A^{-1} for a DtN mode matrix A = (sub, diag,
    sup), in closed form, without LAPACK.

    A's interior rows are constant (a, b, c) and only its two corner diagonals
    d_0, d_N differ, so column j is a combination of the discrete waves lambda^i,
    the roots of c lambda^2 + b lambda + a = 0 with |lambda_1| <= |lambda_2|.  In
    the scaled basis x_i = A lambda_1^i + B lambda_2^(i-j) on 0..j and x_i = C
    lambda_1^(i-j) + D lambda_2^(i-N) on j..N no power grows past 1.  The four
    coefficients solve, by Cramer's rule, the continuity of the two at j, row j
    of A x = e_j and rows 0 and N (B = 0 when j = 0, C = 0 when j = N, where
    those rows are row j).
    """
    sub, diag, sup = (np.asarray(band, dtype=complex) for band in (sub, diag, sup))
    if np.ptp(sub) != 0 or np.ptp(sup) != 0 or np.ptp(diag[1:-1]) != 0:
        raise ValueError("interior rows are not constant")
    a, b, c, d_0, d_n = sub[0], diag[1], sup[0], diag[0], diag[-1]
    last = diag.size - 1
    j = np.arange(diag.size) if cols is None else np.asarray(cols)
    root = np.sqrt(b * b - 4.0 * a * c)
    q = -0.5 * (b + root if abs(b + root) >= abs(b - root) else b - root)
    lam1, lam2 = sorted([q / c, a / q], key=abs)

    def power(lam, e):  # lam^e for integer e of any sign
        return lam ** np.asarray(e, dtype=float)

    zero, one = np.zeros(j.shape, dtype=complex), np.ones(j.shape, dtype=complex)
    left, right = j >= 1, j <= last - 1  # row 0, row N is another row than j
    d_j = np.where(j == 0, d_0, np.where(j == last, d_n, b))
    rows = [  # unknowns (A, B, C, D); right-hand side (0, 1, 0, 0)
        [power(lam1, j), one, -one, -power(lam2, j - last)],  # continuity at j
        [left * a * power(lam1, j - 1) + d_j * power(lam1, j), left * a / lam2 + d_j,
         right * c * lam1, right * c * power(lam2, j + 1 - last)],  # row j
        [np.where(left, d_0 + c * lam1, 0),
         np.where(left, d_0 * power(lam2, -j) + c * power(lam2, 1 - j), 1), zero, zero],  # row 0
        [zero, zero,
         np.where(right, a * power(lam1, last - 1 - j) + d_n * power(lam1, last - j), 1),
         np.where(right, a / lam2 + d_n, 0)],  # row N
    ]
    det = _det(rows)
    coef = [_det([r[:k] + [e] + r[k + 1 :] for r, e in zip(rows, [zero, one, zero, zero])]) / det
            for k in range(4)]
    i = np.arange(diag.size)[:, None]
    # each basis is used on its own side of j, its exponents clipped to 0 on the other
    on_left = coef[0] * power(lam1, i) + coef[1] * power(lam2, np.minimum(i - j, 0))
    on_right = coef[2] * power(lam1, np.maximum(i - j, 0)) + coef[3] * power(lam2, i - last)
    return np.where(i <= j, on_left, on_right)
