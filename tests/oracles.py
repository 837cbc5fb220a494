"""Independent oracles for the kernel representations in ``ductpml.greens``.

Image series: reflections of the free-space convected kernel ``phi_free``
across the rigid walls, sources at transverse positions ``+-y2 + 2 d n``.
The terms decay only like n^{-1/2} with oscillation, so partial sums are
tail-averaged (Cesaro over the last quarter of shells).  The series shares
nothing with the modal sums in ``ductpml.greens`` but the free-space kernel,
so it cross-checks them; a centered finite-difference residual of the
operator applied to it checks the kernel's normalization.

Solution quadratures: the 1D outgoing mode kernel in complex exponentials,
its adaptive-quadrature convolution with a deterministic modal source, and
the tensor-Gauss L2 norm of the kernel over a rectangle (the Ito-isometry
oracle of the noise response).
"""

from __future__ import annotations

import cmath
import math
import warnings

import numpy as np
from scipy.integrate import quad

from ductpml.duct import DuctConfig, axial_wavenumbers64, mode_shape
from ductpml.errors import ConfigError, RepresentationError
from ductpml.greens import (
    GreensEvalParams,
    SeriesValue,
    _betas_block,
    _scalar_or_array,
    phi_free,
)
from ductpml.noise import ModalFunctionSource, ModeBoxSource


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
    n_modes, _ = params.resolve(cfg)
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
    x must be modally separated from the rectangle.
    """
    n_modes, gap = params.resolve(cfg)
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
