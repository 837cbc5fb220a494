"""Image-series kernel: an oracle for the modal representations.

Reflections of the free-space convected kernel ``phi_free`` across the rigid
walls, sources at transverse positions ``+-y2 + 2 d n``.  The terms decay
only like n^{-1/2} with oscillation, so partial sums are tail-averaged
(Cesaro over the last quarter of shells).  The series shares nothing with
the modal sums in ``ductpml.greens`` but the free-space kernel, so it
cross-checks them; a centered finite-difference residual of the operator
applied to it checks the kernel's normalization.
"""

from __future__ import annotations

import math

import numpy as np

from ductpml.duct import DuctConfig
from ductpml.greens import SeriesValue, _scalar_or_array, phi_free


def _image_y2(y2, d: float, n_images: int) -> np.ndarray:
    """Transverse source images grouped by shell: [y2, -y2], then per shell
    j >= 1 the four entries +-y2 +- 2 d j; one row per entry of an array y2."""
    off = 2.0 * d * np.arange(1, n_images + 1)
    y2 = np.asarray(y2, dtype=float)[..., None]
    shells = np.stack([y2 + off, -y2 + off, y2 - off, -y2 - off], axis=-1)
    return np.concatenate([y2, -y2, shells.reshape(*y2.shape[:-1], -1)], axis=-1)


def _images_shell_sums(x, y, n_images: int, cfg: DuctConfig, include_direct=True):
    """Per-shell sums of the image series, shape (..., n_images + 1) for
    source coordinates y of shape (...)."""
    y2_img = _image_y2(y[1], cfg.d, n_images)
    if not include_direct:
        y2_img = y2_img[..., 1:]
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
    (shell 0 is the source and its first wall reflection).

    The indicator is the magnitude of the last shell (the series converges
    conditionally like n^{-1/2}, so the averaged value is far more accurate
    than the raw partial sum).
    """
    shells = _images_shell_sums(x, y, n_images, cfg)
    return SeriesValue(
        value=_averaged_tail_value(shells), indicator=float(abs(shells[-1]))
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
