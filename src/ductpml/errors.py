"""Exception hierarchy shared across the package.

Exit-code categories used by the CLI: configuration problems map to 2,
numerical/degeneracy problems to 3, and I/O problems to 4 (plain OSError).
"""


class DuctpmlError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(DuctpmlError):
    """Invalid configuration value, violated invariant, or parse failure."""


class DomainError(DuctpmlError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class CutoffResonanceError(DuctpmlError):
    """Wavenumber sits (numerically) on a transverse cutoff resonance."""


class DegenerateLayerError(DuctpmlError):
    """Absorbing-layer coefficient denominator is numerically zero."""


class SingularityError(DuctpmlError):
    """Kernel evaluated at (or too close to) a singular point."""


class GridMismatchError(DuctpmlError):
    """Operands live on incompatible grids or mode counts."""


class InsufficientDataError(DuctpmlError):
    """Too few usable data points for a requested fit."""
