"""Modified absorbing layer for the convected duct problem.

The layer stretches the convected axial derivative,
``D = d/dx1 + i M k / (1 - M^2)  ->  alpha(x1) D`` with
``alpha = -i omega / (-i omega + sigma)``.  Because alpha == 1 wherever
sigma == 0, the layer attaches to the computational domain without any
jump condition, and it damps every outgoing mode (including inverse
upstream ones) instead of amplifying them.

The layer is fixed by the interfaces x^{+-}, the length L and the frequency
omega, all read from the DuctConfig, and by the two absorption strengths of
``PmlProfile``.  This module owns the quadratic profile sigma and
``_layer_mode``, the one routine that computes each mode's layer factor q
(the per-mode layer solution, 1 at the interface and 0 at the outer
Dirichlet wall, is written through it) and rejects a vanishing 1 - q.  From
q come the finite-layer Robin coefficients nu_n^{+-} (which converge to
beta_n^{+-} exponentially in the absorbed mass), their gaps nu_n - beta_n
free of cancellation, the modal reflection magnitudes and the a-priori gap
bounds |beta - nu| used by the layer-length studies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .duct import DuctConfig, axial_wavenumbers64, cutoff_numbers
from .errors import ConfigError, DegenerateLayerError, DomainError

# |1 - e^{iz}| >= e^{-Im z}/2 needs e^{-Im z} >= 2; below that absorbed mass
# the a-priori gap bound is reported as not applicable.
GAP_BOUND_MIN_EXPONENT = math.log(2.0)

# e^{-x} underflows to subnormal garbage near 745; report 0 with a flag.
UNDERFLOW_EXPONENT = 700.0


@dataclass(frozen=True)
class PmlProfile:
    """Absorption strengths of the two layers; the geometry is the DuctConfig's.

    The profile is one-sided quadratic,
    ``sigma = sigma_plus (x1 - x_plus)^2`` for ``x1 > x_plus`` and mirrored
    with ``sigma_minus`` (default ``sigma_plus``) on the left, which vanishes
    together with its derivative at the interfaces.
    """

    sigma_plus: float
    sigma_minus: Optional[float] = None

    def __post_init__(self):
        if self.sigma_minus is None:
            object.__setattr__(self, "sigma_minus", self.sigma_plus)
        if not (0.0 <= self.sigma_plus < math.inf and 0.0 <= self.sigma_minus < math.inf):
            raise ConfigError("quadratic strengths must be finite and >= 0, got "
                              f"sigma_plus={self.sigma_plus}, sigma_minus={self.sigma_minus}")


def _check_side(side: str):
    if side not in ("+", "-"):
        raise DomainError(f"side must be '+' or '-', got {side!r}")


def _quadratic(profile: PmlProfile, x1: np.ndarray, cfg: DuctConfig):
    """(sigma, sigma') of the quadratic profile on an array x1; zero on [x_minus, x_plus]."""
    out, slope = np.zeros_like(x1), np.zeros_like(x1)
    right, left = x1 > cfg.x_plus, x1 < cfg.x_minus
    s = x1[right] - cfg.x_plus
    out[right], slope[right] = profile.sigma_plus * s * s, 2.0 * profile.sigma_plus * s
    s = cfg.x_minus - x1[left]
    out[left], slope[left] = profile.sigma_minus * s * s, -2.0 * profile.sigma_minus * s
    return out, slope


def sigma(profile: PmlProfile, x1, cfg: DuctConfig):
    """Piecewise absorption strength; zero on (x_minus, x_plus)."""
    out = _quadratic(profile, np.atleast_1d(np.asarray(x1, dtype=float)), cfg)[0]
    return float(out[0]) if np.ndim(x1) == 0 else out


def alpha(profile: PmlProfile, x1, cfg: DuctConfig):
    """Complex stretch alpha = -i omega / (-i omega + sigma(x1)), taken as
    1 / (1 + i sigma/omega) so that it is exactly 1 where sigma = 0."""
    s = np.asarray(sigma(profile, x1, cfg), dtype=float)
    out = 1.0 / (1.0 + 1j * s / cfg.omega)
    return out if out.ndim else complex(out)


def alpha_prime(profile: PmlProfile, x1, cfg: DuctConfig):
    """d alpha / d x1, using sigma' of the quadratic."""
    s, slope = _quadratic(profile, np.atleast_1d(np.asarray(x1, dtype=float)), cfg)
    out = 1j * cfg.omega * slope / (-1j * cfg.omega + s) ** 2
    return complex(out[0]) if np.ndim(x1) == 0 else out


def stretch_integral(profile: PmlProfile, side: str, cfg: DuctConfig) -> complex:
    """Full-layer integral of 1/alpha over offsets [0, L].

    1/alpha = 1 + i sigma/omega, so the value is L + i * (absorbed mass)/omega,
    whose imaginary part is sigma_{+-} L^3 / (3 omega).
    """
    _check_side(side)
    coeff = profile.sigma_plus if side == "+" else profile.sigma_minus
    # numpy's cube of a 0-d array, which rounds differently from float ** 3 for some L
    mass = float(coeff * np.asarray(cfg.L, dtype=float) ** 3 / 3.0)
    return complex(cfg.L, mass / cfg.omega)


def _layer_mode(n, side: str, profile: PmlProfile, cfg: DuctConfig):
    """(beta_plus, beta_minus, stretch integral, q) of mode n (int or array) on one side.

    q = exp(i (beta_plus - beta_minus) * stretch_integral); |q| <= 1.  The
    roots are computed once here for every layer quantity of the mode, and a
    numerically vanishing denominator 1 - q raises DegenerateLayerError.
    """
    bp, bm = axial_wavenumbers64(n, cfg)
    stretch = stretch_integral(profile, side, cfg)
    q = np.exp(1j * (bp - bm) * stretch)
    den = np.abs(1.0 - q)
    if np.any(den < 1e-14):
        i = np.argmin(den)
        raise DegenerateLayerError(f"layer denominator |1-q|={den.flat[i]:.3e} "
                                   f"for mode n={np.ravel(n)[i]}, side {side!r}")
    return bp, bm, stretch, q if q.ndim else complex(q)


def nu_coefficients(n, side: str, profile: PmlProfile, cfg: DuctConfig):
    """Finite-layer Robin coefficient nu_n for the requested side (int or array n).

    Closed form: nu_plus = beta_plus - (beta_plus - beta_minus) / (1 - 1/q)
    and mirrored for the minus side; algebraically this equals the
    combination coef_plus*beta_plus + coef_minus*beta_minus with the layer
    solution's amplitudes (1/(1-q), -q/(1-q) on the '+' side, swapped on
    the '-' side), which tests verify to 1e-12.  As the absorbed mass grows, q -> 0 and
    nu -> beta exponentially.
    """
    beta = axial_wavenumbers64(n, cfg)[0 if side == "+" else 1]
    return beta + nu_gap(n, side, profile, cfg)


def nu_gap(n, side: str, profile: PmlProfile, cfg: DuctConfig):
    """nu_n - beta_n on the requested side, without cancellation (int or array n).

    Equals +-(beta_plus - beta_minus) q / (1 - q) ('+' and '-' sides): the
    only difference between the finite-layer and the exact-DtN closure.
    Forming it as nu - beta would lose |beta| * eps of absolute accuracy,
    which is most of it once the layer has absorbed the mode.
    """
    bp, bm, _, q = _layer_mode(n, side, profile, cfg)
    gap = (bp - bm) * q / (1.0 - q)
    return gap if side == "+" else -gap


def reflection_coefficient(n: int, side: str, profile: PmlProfile, cfg: DuctConfig) -> float:
    """Magnitude ratio of the reflected to the outgoing layer amplitude.

    Equals |q| = exp(-Im((beta_plus - beta_minus) * stretch_integral)):
    absorption-driven for propagating modes, pure exp(-2 k L sqrt(n^2/K0^2 - 1)
    / (1 - M^2)) for evanescent ones.  Underflows to 0.0 for extreme decay.
    Raises DegenerateLayerError where 1 - q vanishes numerically, as the
    layer coefficients do.
    """
    return abs(_layer_mode(n, side, profile, cfg)[3])


@dataclass(frozen=True)
class GapBound:
    """Measured |beta - nu| against its a-priori exponential bound."""

    measured: float
    bound: float
    applicable: bool
    underflow: bool
    exponent: float  # absorbed-mass exponent E = Im((beta_plus-beta_minus) * I)


def dtn_gap_bound(n: int, side: str, profile: PmlProfile, cfg: DuctConfig) -> GapBound:
    """Gap |beta_n - nu_n| and the bound 2 |beta_plus - beta_minus| e^{-E}.

    E = Im((beta_plus - beta_minus) * stretch_integral) is the decay
    exponent: (2k/(1-M^2)) sqrt(1 - n^2/K0^2) * absorbed-mass/omega for
    propagating modes and (2kL/(1-M^2)) sqrt(n^2/K0^2 - 1) for evanescent
    ones.  The bound applies once E >= ln 2; values below e^{-700} are
    reported as 0 with the underflow flag set.
    """
    bp, bm, stretch, q = _layer_mode(n, side, profile, cfg)  # |q| = e^{-exponent}
    delta = bp - bm
    exponent = (delta * stretch).imag
    applicable = exponent >= GAP_BOUND_MIN_EXPONENT
    if exponent > UNDERFLOW_EXPONENT:
        return GapBound(0.0, 0.0, applicable, True, exponent)
    measured = abs(delta) * abs(q) / abs(1.0 - q)
    bound = 2.0 * abs(delta) * abs(q)
    return GapBound(measured, bound, applicable, False, exponent)


def sigma_tilde_integral(profile: PmlProfile, side: str, cfg: DuctConfig) -> float:
    """Integral over [0, L] of min(1, sigma/omega); the decay abscissa.

    The saturation point is s* = sqrt(omega/coeff), and the integral is
    closed-form on both sides of it.
    """
    _check_side(side)
    L, omega = cfg.L, cfg.omega
    coeff = profile.sigma_plus if side == "+" else profile.sigma_minus
    if coeff <= 0.0:
        return 0.0
    s_star = math.sqrt(omega / coeff)
    if L <= s_star:
        return coeff * L ** 3 / (3.0 * omega)
    return coeff * s_star ** 3 / (3.0 * omega) + (L - s_star)


def theoretical_decay_constant(cfg: DuctConfig) -> float:
    """C2 = (2k/(1-M^2)) * min(1, sqrt((N0+1)^2/K0^2 - 1))."""
    k0, n0 = cutoff_numbers(cfg)
    gap = math.sqrt((n0 + 1) ** 2 / (k0 * k0) - 1.0)
    return 2.0 * cfg.k / cfg.one_minus_m2 * min(1.0, gap)
