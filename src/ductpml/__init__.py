"""Convected Helmholtz duct solver with a modified absorbing layer.

Subpackages:
    duct     geometry, transverse modes, axial dispersion
    specfun  Hankel function H0 (scipy J0/Y0); only the image-series test oracle calls it
    greens   Kummer-series kernel, cell integrals and the kernel-difference probe
    noise    discretized spatial white noise on a nested mesh
    pml      absorption profile, layer modes, Robin coefficients, bounds
    solver   per-mode hat loads, 1D finite-element solves, field assembly
    harness  Monte Carlo convergence studies and rate fitting
    cli      configuration parsing, subcommands, CSV emission
"""

from .duct import (
    DispersionTable,
    DuctConfig,
    axial_wavenumbers,
    axial_wavenumbers64,
    cutoff_numbers,
    dispersion_table,
    mode_shape,
)
from .errors import (
    ConfigError,
    CutoffResonanceError,
    DegenerateLayerError,
    DomainError,
    DuctpmlError,
    GridMismatchError,
    InsufficientDataError,
    SingularityError,
)
from .noise import (
    ModalFunctionSource,
    ModeBoxSource,
    NoiseMesh,
    NoiseRealization,
    build_mesh,
    sample,
)
from .pml import PmlProfile
from .solver import Grid1D, ModalSolution, modal_loads, solve_full

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
