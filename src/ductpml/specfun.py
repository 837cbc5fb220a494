"""Hankel function of the first kind and order zero for real arguments.

``hankel0(z) = J0(z) + i Y0(z)`` from ``scipy.special.j0``/``y0``, with an
explicit accuracy contract: absolute error <= 1e-10 for arguments in
(0, 1e4], tested against a 64-digit mpmath oracle.  Arguments z <= 0 (the
logarithmic singularity and beyond) raise DomainError instead of scipy's
silent nan/-inf.
"""

from __future__ import annotations

import numpy as np
from scipy.special import j0, y0

from .errors import DomainError


def hankel0(z):
    """H_0^(1)(z) for real z > 0; scalars in give a complex scalar out."""
    z_arr = np.asarray(z, dtype=float)
    if np.any(z_arr <= 0.0):
        raise DomainError("hankel functions require z > 0 (log singularity at 0)")
    out = j0(z_arr) + 1j * y0(z_arr)
    return out if out.ndim else complex(out)
