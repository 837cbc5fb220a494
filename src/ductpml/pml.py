"""Modified absorbing layer for the convected duct problem.

The layer stretches the convected axial derivative,
``D = d/dx1 + i M k / (1 - M^2)  ->  alpha(x1) D`` with
``alpha = -i omega / (-i omega + sigma)``.  Because alpha == 1 wherever
sigma == 0, the layer attaches to the computational domain without any
jump condition, and it damps every outgoing mode (including inverse
upstream ones) instead of amplifying them.

This module owns the quadratic absorption profile sigma, the two-point
amplitudes of the per-mode layer solutions that enforce value 1 at the
interface and 0 at the outer Dirichlet wall, the finite-layer
Robin coefficients nu_n^{+-} (which converge to beta_n^{+-} exponentially
in the absorbed mass) and their gaps nu_n - beta_n free of cancellation,
the resulting modal reflection magnitudes, and the a-priori gap bounds
|beta - nu| used by the layer-length studies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    """Absorption strength sigma(x1) outside (x_minus, x_plus).

    The profile is one-sided quadratic,
    ``sigma = sigma_plus (x1 - x_plus)^2`` for ``x1 > x_plus`` and mirrored
    with ``sigma_minus`` on the left, which vanishes together with its
    derivative at the interfaces.
    """

    sigma_plus: float
    sigma_minus: float
    x_plus: float
    x_minus: float
    L: float

    def __post_init__(self):
        if self.L <= 0.0:
            raise ConfigError(f"layer length must be positive, got {self.L}")
        if self.sigma_plus < 0.0 or self.sigma_minus < 0.0:
            raise ConfigError("quadratic strengths must be >= 0")

    @classmethod
    def quadratic(cls, cfg: DuctConfig, sigma_plus: float, sigma_minus=None):
        if sigma_minus is None:
            sigma_minus = sigma_plus
        return cls(
            sigma_plus=sigma_plus,
            sigma_minus=sigma_minus,
            x_plus=cfg.x_plus,
            x_minus=cfg.x_minus,
            L=cfg.L,
        )

    def _offset_sigma(self, s, side: str):
        """sigma at layer offset s >= 0 measured from the interface."""
        s = np.asarray(s, dtype=float)
        coeff = self.sigma_plus if side == "+" else self.sigma_minus
        return coeff * s * s

    def _offset_sigma_mass(self, s, side: str):
        """Integral of sigma over layer offsets [0, s]."""
        s = np.asarray(s, dtype=float)
        coeff = self.sigma_plus if side == "+" else self.sigma_minus
        return coeff * s ** 3 / 3.0


def _check_side(side: str):
    if side not in ("+", "-"):
        raise DomainError(f"side must be '+' or '-', got {side!r}")


def sigma(profile: PmlProfile, x1):
    """Piecewise absorption strength; zero on (x_minus, x_plus)."""
    scalar = np.ndim(x1) == 0
    x1 = np.atleast_1d(np.asarray(x1, dtype=float))
    out = np.zeros_like(x1)
    right = x1 > profile.x_plus
    left = x1 < profile.x_minus
    if np.any(right):
        out[right] = profile._offset_sigma(x1[right] - profile.x_plus, "+")
    if np.any(left):
        out[left] = profile._offset_sigma(profile.x_minus - x1[left], "-")
    return float(out[0]) if scalar else out


def alpha(profile: PmlProfile, x1, omega: float):
    """Complex stretch alpha = -i omega / (-i omega + sigma(x1))."""
    if omega <= 0.0:
        raise DomainError(f"omega must be positive, got {omega}")
    s = np.asarray(sigma(profile, x1), dtype=float)
    out = -1j * omega / (-1j * omega + s)
    return out if out.ndim else complex(out)


def alpha_prime(profile: PmlProfile, x1, omega: float):
    """d alpha / d x1, using sigma' of the quadratic."""
    scalar = np.ndim(x1) == 0
    x1a = np.atleast_1d(np.asarray(x1, dtype=float))
    s = np.asarray(sigma(profile, x1a), dtype=float)
    sp = np.zeros_like(x1a)
    right = x1a > profile.x_plus
    left = x1a < profile.x_minus
    sp[right] = 2.0 * profile.sigma_plus * (x1a[right] - profile.x_plus)
    sp[left] = -2.0 * profile.sigma_minus * (profile.x_minus - x1a[left])
    out = 1j * omega * sp / (-1j * omega + s) ** 2
    return complex(out[0]) if scalar else out


def stretch_integral(profile: PmlProfile, side: str, L: float, omega: float) -> complex:
    """Full-layer integral of 1/alpha over offsets [0, L].

    1/alpha = 1 + i sigma/omega, so the value is L + i * (absorbed mass)/omega,
    whose imaginary part is sigma_{+-} L^3 / (3 omega).
    """
    _check_side(side)
    if L <= 0.0:
        raise DomainError(f"layer length must be positive, got {L}")
    if omega <= 0.0:
        raise DomainError(f"omega must be positive, got {omega}")
    mass = float(profile._offset_sigma_mass(L, side))
    return complex(L, mass / omega)


def _layer_mode(n: int, side: str, profile: PmlProfile, cfg: DuctConfig):
    """(beta_plus, beta_minus, stretch integral, q) of mode n (int or array) on one side.

    q = exp(i (beta_plus - beta_minus) * stretch_integral); |q| <= 1.  The
    roots are computed once here for every layer quantity of the mode.
    """
    _check_side(side)
    bp, bm = axial_wavenumbers64(n, cfg)
    stretch = stretch_integral(profile, side, profile.L, cfg.omega)
    q = np.exp(1j * (bp - bm) * stretch)
    return bp, bm, stretch, q if q.ndim else complex(q)


def _q_factor(n: int, side: str, profile: PmlProfile, cfg: DuctConfig):
    """(beta_plus, beta_minus, q, 1 - q) of mode n on one side.

    Raises DegenerateLayerError when the interpolation denominator 1 - q
    vanishes numerically.
    """
    bp, bm, _, q = _layer_mode(n, side, profile, cfg)
    den = 1.0 - q
    if np.any(np.abs(den) < 1e-14):
        i = np.argmin(np.abs(den))
        raise DegenerateLayerError(f"layer denominator |1-q|={np.abs(den).flat[i]:.3e} "
                                   f"for mode n={np.ravel(n)[i]}, side {side!r}")
    return bp, bm, q, den


def modal_amplitudes(n: int, side: str, profile: PmlProfile, cfg: DuctConfig):
    """Coefficients (on psi_plus, psi_minus) of the unit-trace layer solution.

    The pair solves the two-point conditions: value 1 at the interface and 0
    at the outer Dirichlet wall.  On the '+' side the weight sits on the
    branch decaying rightward; on the '-' side on the branch decaying
    leftward.  Raises DegenerateLayerError when the interpolation
    denominator vanishes numerically.
    """
    _, _, q, den = _q_factor(n, side, profile, cfg)
    if side == "+":
        return 1.0 / den, -q / den
    return -q / den, 1.0 / den


def nu_coefficients(n: int, side: str, profile: PmlProfile, cfg: DuctConfig) -> complex:
    """Finite-layer Robin coefficient nu_n for the requested side.

    Closed form: nu_plus = beta_plus - (beta_plus - beta_minus) / (1 - 1/q)
    and mirrored for the minus side; algebraically this equals the
    amplitude-weighted combination coef_plus*beta_plus + coef_minus*beta_minus,
    which tests verify to 1e-12.  As the absorbed mass grows, q -> 0 and
    nu -> beta exponentially.
    """
    beta, gap = _beta_and_gap(n, side, profile, cfg)
    return beta + gap


def nu_gap(n, side: str, profile: PmlProfile, cfg: DuctConfig):
    """nu_n - beta_n on the requested side, without cancellation (int or array n).

    Equals +-(beta_plus - beta_minus) q / (1 - q) ('+' and '-' sides): the
    only difference between the finite-layer and the exact-DtN closure.
    Forming it as nu - beta would lose |beta| * eps of absolute accuracy,
    which is most of it once the layer has absorbed the mode.
    """
    return _beta_and_gap(n, side, profile, cfg)[1]


def _beta_and_gap(n: int, side: str, profile: PmlProfile, cfg: DuctConfig):
    """(beta_n, nu_n - beta_n) on the requested side."""
    bp, bm, q, den = _q_factor(n, side, profile, cfg)
    gap = (bp - bm) * q / den
    if side == "+":
        return bp, gap
    return bm, -gap


def reflection_coefficient(n: int, side: str, profile: PmlProfile, cfg: DuctConfig) -> float:
    """Magnitude ratio of the reflected to the outgoing layer amplitude.

    Equals |q| = exp(-Im((beta_plus - beta_minus) * stretch_integral)):
    absorption-driven for propagating modes, pure exp(-2 k L sqrt(n^2/K0^2 - 1)
    / (1 - M^2)) for evanescent ones.  Underflows to 0.0 for extreme decay.
    """
    coef_plus, coef_minus = modal_amplitudes(n, side, profile, cfg)
    if side == "+":
        return abs(coef_minus / coef_plus)
    return abs(coef_plus / coef_minus)


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
    den = abs(1.0 - q)
    if den < 1e-300:
        raise DegenerateLayerError(f"degenerate layer for mode n={n}, side {side!r}")
    measured = abs(delta) * abs(q) / den
    bound = 2.0 * abs(delta) * abs(q)
    return GapBound(measured, bound, applicable, False, exponent)


def sigma_tilde_integral(profile: PmlProfile, side: str, L: float, omega: float) -> float:
    """Integral over [0, L] of min(1, sigma/omega); the decay abscissa.

    The saturation point is s* = sqrt(omega/coeff), and the integral is
    closed-form on both sides of it.
    """
    _check_side(side)
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
