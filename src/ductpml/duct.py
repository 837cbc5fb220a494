"""Duct geometry, uniform-flow parameters, transverse modes, and axial dispersion.

The duct occupies ``{(x1, x2): x1 in R, 0 < x2 < d}`` with rigid walls
(homogeneous Neumann condition).  A uniform subsonic mean flow of Mach
number ``M`` runs along ``x1``.  Time-harmonic pressure fields separate
into cosine transverse modes ``phi_n`` and axial waves ``exp(i beta x1)``
whose wavenumbers solve the convected dispersion quadratic

    -(1 - M^2) beta^2 - 2 k M beta + k^2 = n^2 pi^2 / d^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, CutoffResonanceError, DomainError

# Relative distance (in units of k) kept from the cutoff-resonance set
# k = sqrt(1 - M^2) n pi / d.  Boundary-coefficient denominators degenerate
# there, so construction refuses near-resonant configs outright.
TOL_CUTOFF = 1e-8

# 4-point Gauss-Legendre rule on [-1, 1] (load and cell-integral quadratures)
GAUSS4_NODES = np.array(
    [-0.8611363115940526, -0.3399810435848563, 0.3399810435848563, 0.8611363115940526]
)
GAUSS4_WEIGHTS = np.array(
    [0.3478548451374538, 0.6521451548625461, 0.6521451548625461, 0.3478548451374538]
)

PROPAGATING = "propagating"
EVANESCENT = "evanescent"


@dataclass(frozen=True)
class DuctConfig:
    """Physical setup of the duct problem.

    Attributes:
        d: duct height (> 0).
        M: Mach number of the uniform flow, 0 <= M < 1.
        k: wavenumber.  Exactly one of ``k``/``omega`` may be omitted; the
            other is filled from ``k = omega / c0``.
        omega: angular frequency.
        c0: sound speed (default 1.0).
        x_minus, x_plus: axial endpoints of the computational domain.
        L: absorbing-layer length (> 0).
    """

    d: float
    M: float
    x_minus: float
    x_plus: float
    L: float
    k: float = 0.0
    omega: float = 0.0
    c0: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.M < 1.0:
            raise ConfigError(f"Mach number must satisfy 0 <= M < 1, got M={self.M}")
        # every check is written so that NaN fails it
        if not 0.0 < self.d < math.inf:
            raise ConfigError(f"duct height must be positive and finite, got d={self.d}")
        if not 0.0 < self.L < math.inf:
            raise ConfigError(f"layer length must be positive and finite, got L={self.L}")
        if not -math.inf < self.x_minus < self.x_plus < math.inf:
            raise ConfigError(
                f"domain endpoints must be finite with x_minus < x_plus, "
                f"got ({self.x_minus}, {self.x_plus})"
            )
        if not 0.0 < self.c0 < math.inf:
            raise ConfigError(f"sound speed must be positive and finite, got c0={self.c0}")
        k, omega = self.k, self.omega
        if k == 0.0 and omega == 0.0:
            raise ConfigError("one of k or omega must be given (nonzero)")
        if k == 0.0:
            k = omega / self.c0
        elif omega == 0.0:
            omega = k * self.c0
        elif not abs(k - omega / self.c0) <= 1e-12 * abs(k):
            raise ConfigError(
                f"inconsistent frequency data: k={k} but omega/c0={omega / self.c0}"
            )
        if not (0.0 < k < math.inf and omega < math.inf):
            raise ConfigError(f"wavenumber must be positive and finite, got k={k}, omega={omega}")
        object.__setattr__(self, "k", float(k))
        object.__setattr__(self, "omega", float(omega))
        self._check_cutoff_resonance()

    def _check_cutoff_resonance(self):
        # |k - sqrt(1-M^2) n pi/d| <= TOL_CUTOFF k is |x - n| <= TOL_CUTOFF x, x = k d /
        # (pi sqrt(1-M^2)); if any n is that close, the one nearest x is: check the two next to x
        root = math.sqrt(1.0 - self.M * self.M)
        x = self.k * self.d / (math.pi * root)
        if not x < math.inf:
            raise ConfigError(f"k={self.k} and d={self.d} overflow the cutoff index "
                              "k d/(pi sqrt(1-M^2))")
        for n in range(max(1, math.floor(x)), math.floor(x) + 2):
            if abs(self.k - root * n * math.pi / self.d) <= TOL_CUTOFF * self.k:
                raise ConfigError(
                    f"k={self.k} is within {TOL_CUTOFF:g}*k of the cutoff resonance "
                    f"sqrt(1-M^2)*n*pi/d at n={n}; boundary coefficients degenerate there"
                )

    @property
    def one_minus_m2(self) -> float:
        return 1.0 - self.M * self.M


@dataclass(frozen=True)
class DispersionTable:
    """Axial wavenumbers ``beta_n^{+-}`` for modes ``n = 0 .. n_max - 1``."""

    n_max: int
    beta_plus: np.ndarray
    beta_minus: np.ndarray
    kind: tuple
    K0: float
    N0: int

    def __post_init__(self):
        if self.n_max < 1:
            raise ConfigError("dispersion table needs at least one mode")


def mode_shape(n, x2, d: float):
    """Orthonormal transverse mode phi_n(x2) on (0, d).

    phi_0 = 1/sqrt(d) and phi_n = sqrt(2/d) cos(n pi x2 / d) for n >= 1.
    ``n`` and ``x2`` may be scalars or arrays and broadcast against each
    other; values of x2 outside [0, d] raise DomainError.
    """
    na = np.asarray(n)
    if np.any(na < 0):
        raise DomainError(f"mode index must be >= 0, got {n}")
    x2a = np.asarray(x2, dtype=float)
    if np.any(x2a < 0.0) or np.any(x2a > d):
        raise DomainError(f"transverse coordinate outside [0, {d}]")
    out = np.where(
        na == 0, 1.0 / math.sqrt(d), math.sqrt(2.0 / d) * np.cos(na * math.pi * x2a / d)
    )
    return out if out.ndim else float(out)


def cutoff_numbers(cfg: DuctConfig):
    """Return (K0, N0) with K0 = k d / (pi sqrt(1 - M^2)) and N0 = floor(K0)."""
    k0 = cfg.k * cfg.d / (math.pi * math.sqrt(cfg.one_minus_m2))
    return k0, int(math.floor(k0))


def default_n_modes(cfg: DuctConfig) -> int:
    """Default mode count N0 + 30: every propagating mode plus an evanescent tail."""
    return cutoff_numbers(cfg)[1] + 30


def axial_wavenumbers(n, cfg: DuctConfig):
    """Both roots (beta_plus, beta_minus) of the dispersion quadratic for mode n.

    The branch is decided by the sign of the discriminant
    ``k^2 - (1 - M^2) n^2 pi^2 / d^2``: positive gives two real (propagating)
    roots with beta_plus > beta_minus, negative gives the conjugate-like
    evanescent pair with Im(beta_plus) > 0.  A discriminant within the
    cutoff tolerance of zero raises CutoffResonanceError.

    ``n`` may be an int or an integer array; an array gives arrays of roots,
    each element bit-identical to the call for that mode alone.  Errors
    name the offending mode.

    Roots are computed and returned in the platform's extended precision:
    the residual contract (1e-12 * max(1, k^2)) sits below double-precision
    quantization once n^2 pi^2 / d^2 >> k^2, so the extra mantissa bits are
    load-bearing, not cosmetic.  The contract holds until the terms
    n^2 pi^2 / d^2 themselves round by more than that in extended
    precision; past there (n near 16000 for d = 1, k = 20) the residual is
    a few units of that rounding, about 4 eps * n^2 pi^2 / d^2.
    """
    na = np.asarray(n)
    if na.min(initial=0) < 0:
        raise DomainError(f"mode index must be >= 0, got {na.min()}")
    k = np.longdouble(cfg.k)
    m2 = 1.0 - np.longdouble(cfg.M) ** 2
    disc = k * k - m2 * (na * _PI_LD / np.longdouble(cfg.d)) ** 2
    at_cutoff = abs(disc) <= (TOL_CUTOFF * cfg.k) ** 2
    if at_cutoff.any():
        bad = np.argmax(at_cutoff)
        raise CutoffResonanceError(
            f"mode n={na.flat[bad]} is numerically at cutoff "
            f"(discriminant {float(disc.flat[bad]):.3e})"
        )
    # sqrt|disc| is real for propagating modes and imaginary for evanescent
    # ones; selecting by multiplying with 1 or 0 keeps every sign of zero
    root = np.sqrt(abs(disc))
    re = root * (disc > 0.0)
    im = root * (disc < 0.0)
    a = -k * cfg.M
    return (a + re) / m2 + 1j * (im / m2), (a - re) / m2 + 1j * ((0.0 - im) / m2)


# pi to long-double precision (float64 pi plus its leading correction)
_PI_LD = np.longdouble(math.pi) + np.longdouble(1.2246467991473532e-16)


def axial_wavenumbers64(n, cfg: DuctConfig):
    """Plain double-precision view of the axial wavenumber pair (int or array n)."""
    bp, bm = axial_wavenumbers(n, cfg)
    if bp.ndim:
        return bp.astype(complex), bm.astype(complex)
    return complex(bp), complex(bm)


def dispersion_table(cfg: DuctConfig, n_max: int) -> DispersionTable:
    """Tabulate beta_n^{+-} and mode kinds for n = 0 .. n_max - 1."""
    k0, n0 = cutoff_numbers(cfg)
    bp, bm = axial_wavenumbers(np.arange(n_max), cfg)
    kinds = tuple(PROPAGATING if b.imag == 0.0 else EVANESCENT for b in bp)
    return DispersionTable(n_max=n_max, beta_plus=bp, beta_minus=bm, kind=kinds, K0=k0, N0=n0)
