"""Discretized spatial white noise on a nested rectangular mesh.

The forcing rectangle is split into congruent half-open cells; each cell
carries an i.i.d. standard normal draw ``xi_i`` and the piecewise-constant
field is ``Wdot_h(x) = xi_i / sqrt(|K_i|)`` on cell ``K_i``.  The mesh is
dyadically nested across refinement levels so that coarsening a fine
realization (summing children with weight sqrt(|child|/|parent|) = 1/2)
yields the coarse-level noise driven by the *same* underlying path; that
coupling is what makes the refinement studies measure a convergent error.

Sampling is counter-based: the draws for the subtree below each coarsest
cell come from an independent Philox stream keyed by (seed, coarse cell
index), laid out in Morton (bit-interleaved) order.  The result depends
only on (seed, mesh) - never on evaluation order or thread count.
A ``BlockSampler`` owns one re-keyed bit generator and the arrays of one
block of seeds, and draws block after block into them.  It coarsens in the
stream's Morton order, where the 4 children of a cell are contiguous
(``_coarsen_morton``, the one coarsening sum), and puts only the requested
levels in row-major order.  A Monte Carlo study builds one sampler of
``block_size`` seeds (BLOCK_BYTES of finest-level draws) and draws all its
seeds through it; ``sample`` is the one-seed, finest-level block of a
sampler of its own, and ``realization_levels`` runs a given path through
the coarsening stage of one.

The deterministic modal sources live here too.  A realization reaches the
mode problems through ``noise_modal_matrix`` (its segment values for every
mode at once); ``solver.modal_loads`` turns any source into hat loads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .duct import DuctConfig
from .errors import ConfigError, DomainError

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class NoiseMesh:
    """Nested dyadic rectangular mesh over the forcing support.

    rect is (x1_lo, x1_hi, x2_lo, x2_hi); level 0 is the coarsest grid of
    base_shape cells and each level quarters the cells of the previous one.
    """

    rect: tuple
    levels: int
    base_shape: tuple

    def __post_init__(self):
        x1_lo, x1_hi, x2_lo, x2_hi = self.rect
        if not (x1_lo < x1_hi and x2_lo < x2_hi):
            raise DomainError(f"degenerate mesh rectangle {self.rect}")
        if self.levels < 1:
            raise ConfigError("mesh needs at least one level")
        if min(self.base_shape) < 1:
            raise ConfigError("coarsest grid must have at least one cell per axis")

    @property
    def finest_level(self) -> int:
        return self.levels - 1

    def shape(self, level: int):
        self._check_level(level)
        return (self.base_shape[0] << level, self.base_shape[1] << level)

    def cell_size(self, level: int):
        n1, n2 = self.shape(level)
        x1_lo, x1_hi, x2_lo, x2_hi = self.rect
        return ((x1_hi - x1_lo) / n1, (x2_hi - x2_lo) / n2)

    def cell_area(self, level: int) -> float:
        w1, w2 = self.cell_size(level)
        return w1 * w2

    def cell_diameter(self, level: int) -> float:
        w1, w2 = self.cell_size(level)
        return math.hypot(w1, w2)

    def edges(self, level: int):
        n1, n2 = self.shape(level)
        x1_lo, x1_hi, x2_lo, x2_hi = self.rect
        return np.linspace(x1_lo, x1_hi, n1 + 1), np.linspace(x2_lo, x2_hi, n2 + 1)

    def _check_level(self, level: int):
        if not 0 <= level < self.levels:
            raise DomainError(f"level {level} outside 0..{self.levels - 1}")


@dataclass(frozen=True)
class NoiseRealization:
    """One noise path restricted to a mesh level; xi has shape(level)."""

    mesh: NoiseMesh
    level: int
    xi: np.ndarray
    seed: int

    def __post_init__(self):
        if self.xi.shape != self.mesh.shape(self.level):
            raise ConfigError(
                f"xi shape {self.xi.shape} does not match level {self.level}"
            )
        self.xi.setflags(write=False)


def build_mesh(rect, finest_h: float, levels: int) -> NoiseMesh:
    """Mesh whose finest-level cell diagonal is at most finest_h.

    Cell counts per axis are the smallest multiples of 2^(levels-1) that keep
    each finest side below finest_h/sqrt(2); the per-level diameter then
    halves exactly from one level to the next.
    """
    if finest_h <= 0.0:
        raise DomainError(f"finest_h must be positive, got {finest_h}")
    if levels < 1:
        raise ConfigError(f"levels must be >= 1, got {levels}")
    x1_lo, x1_hi, x2_lo, x2_hi = rect
    if not (x1_lo < x1_hi and x2_lo < x2_hi):
        raise DomainError(f"degenerate mesh rectangle {rect}")
    scale = 1 << (levels - 1)
    base = []
    for length in (x1_hi - x1_lo, x2_hi - x2_lo):
        n_fine = max(1, math.ceil(math.sqrt(2.0) * length / finest_h - 1e-12))
        base.append(max(1, math.ceil(n_fine / scale - 1e-12)))
    return NoiseMesh(rect=tuple(map(float, rect)), levels=levels, base_shape=tuple(base))


# Finest-level draws, in bytes, that one ``BlockSampler`` block holds: the
# seeds per block (``block_size``) trade Python overhead per seed for memory.
BLOCK_BYTES = 512 * 1024


def block_size(mesh: NoiseMesh) -> int:
    """Seeds per ``BlockSampler`` block: BLOCK_BYTES of finest-level draws, at least 1."""
    n1, n2 = mesh.shape(mesh.finest_level)
    return max(1, BLOCK_BYTES // (8 * n1 * n2))


def _morton_order(bits: int, m1: int, m2: int) -> np.ndarray:
    """Flat position, among one seed's Morton-ordered values, of every cell (in
    row-major order) of the level ``bits`` steps below an (m1, m2) coarsest grid.

    The values of coarse cell t = a1 * m2 + a2 fill the t-th run of 4^bits;
    within it, position c is the Morton code, whose odd bits give the fine row
    offset and even bits the fine column offset inside that cell.
    """
    code = np.arange(1 << (2 * bits))
    di = np.zeros_like(code)
    dj = np.zeros_like(code)
    for b in range(bits):
        di |= ((code >> (2 * b + 1)) & 1) << b
        dj |= ((code >> (2 * b)) & 1) << b
    a1, a2 = np.divmod(np.arange(m1 * m2), m2)
    rows = (a1[:, None] << bits) + di
    cols = (a2[:, None] << bits) + dj
    order = np.empty(m1 * m2 << (2 * bits), dtype=np.intp)
    order[(rows * (m2 << bits) + cols).ravel()] = np.arange(order.size)
    return order


def _coarsen_morton(xi, out):
    """Parents, in ``out``, of the Morton-ordered values xi (..., cells), whose every 4
    contiguous values are one parent's children c_ij (code 2 i + j, i the row offset):
    0.5 * (((c00 + c10) + c01) + c11), formed in place.

    The weight 1/2 = sqrt(|child| / |parent|) makes the parents the exact cell
    integrals of the same white-noise path, unit variance preserved."""
    c = xi.reshape(xi.shape[:-1] + (-1, 4))
    total = np.add(c[..., 0], c[..., 2], out=out)
    total += c[..., 1]
    total += c[..., 3]
    total *= 0.5
    return total


class BlockSampler:
    """Draws blocks of up to ``size`` seeds at the given mesh levels into buffers
    it owns: one re-keyed Philox stream, every block array and its row views, made once.

    ``draw(seeds)`` returns xi of every seed at each level, (len(seeds),
    *mesh.shape(lv)) per level in ``levels`` order; more than ``size`` seeds
    raise ValueError before anything is drawn.  The arrays are views of the
    sampler's buffers: the next ``draw`` overwrites them, so copy what must
    outlive it.

    Coarse cell t = a1 * m2 + a2 draws its subtree from a Philox stream keyed
    (seed mod 2^64, t).  The one bit generator is re-keyed by assigning the
    state of a fresh generator (counter 0, empty buffer) with that key, which
    is bit-identical to constructing a new one.  The draws stay in Morton order
    and are coarsened there (``_coarsen_morton``) down to the coarsest level
    asked for; each level asked for is then put in row-major order by one
    ``take`` (``_levels``, the stage after the draw loop).
    """

    def __init__(self, mesh: NoiseMesh, levels, size: int):
        self.levels = list(levels)
        for lv in self.levels:  # every level checked before drawing
            mesh.shape(lv)
        bits, (m1, m2) = mesh.finest_level, mesh.base_shape
        self._key = [0, 0]  # re-keyed in place by ``draw``
        self._bitgen = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
        self._gen = np.random.Generator(self._bitgen)
        # the state setter reads every word; Python ints read faster than numpy scalars
        fresh = self._bitgen.state
        fresh["state"] = {"counter": fresh["state"]["counter"].tolist(), "key": self._key}
        fresh["buffer"] = fresh["buffer"].tolist()
        self._fresh = fresh
        self._draws = np.empty((size, m1 * m2 << (2 * bits)))  # Morton order
        self._subtrees = [list(rows) for rows in self._draws.reshape(size, m1 * m2, -1)]  # views
        # Morton-ordered values per level, finest (the draws) to the coarsest asked for
        self._morton = {lv: np.empty((size, m1 * m2 << (2 * lv))) if lv < bits else self._draws
                        for lv in range(bits, min(self.levels) - 1, -1)}
        # each level asked for: the Morton position of every row-major cell, its rows
        self._order = {lv: _morton_order(lv, m1, m2) for lv in self.levels}
        self._rows = {lv: np.empty((size,) + mesh.shape(lv)) for lv in self.levels}

    def draw(self, seeds) -> list:
        """xi of each of the (at most ``size``) seeds at every level; see the class."""
        n = len(seeds)
        if n > len(self._subtrees):  # before anything is drawn
            raise ValueError(f"{n} seeds, but the sampler's buffers hold {len(self._subtrees)}")
        key, fresh, bitgen, fill = self._key, self._fresh, self._bitgen, self._gen.standard_normal
        for seed, subtrees in zip(seeds, self._subtrees):
            key[0] = int(seed) & _MASK64
            for t, row in enumerate(subtrees):
                key[1] = t
                bitgen.state = fresh
                fill(out=row)
        return self._levels(n)

    def _levels(self, n: int) -> list:
        """The first n seeds' Morton-ordered draws coarsened to every level asked
        for, each returned in row-major order; see the class."""
        fine, *coarse = self._morton.values()
        xi = fine[:n]
        for values in coarse:
            xi = _coarsen_morton(xi, out=values[:n])
        for lv, rows in self._rows.items():
            # every index valid: "clip" spares take a buffer
            np.take(self._morton[lv][:n], self._order[lv], axis=1,
                    out=rows[:n].reshape(n, -1), mode="clip")
        return [self._rows[lv][:n] for lv in self.levels]


def sample(mesh: NoiseMesh, seed: int) -> NoiseRealization:
    """Draw the finest-level realization for the given seed (one ``BlockSampler`` block)."""
    (xi,) = BlockSampler(mesh, [mesh.finest_level], 1).draw([seed])
    return NoiseRealization(mesh=mesh, level=mesh.finest_level, xi=xi[0], seed=int(seed))


def realization_levels(r: NoiseRealization):
    """All levels of r's path, coarsest first, r itself the finest: r.xi put in the
    Morton-ordered draws of a one-seed ``BlockSampler`` and coarsened by its stage."""
    every = range(r.level + 1)
    sampler = BlockSampler(replace(r.mesh, levels=r.level + 1), every, 1)
    sampler._draws[0, sampler._order[r.level]] = r.xi.ravel()
    coarse = sampler._levels(1)[:-1]
    return [NoiseRealization(mesh=r.mesh, level=lv, xi=xi[0], seed=r.seed)
            for lv, xi in zip(every, coarse)] + [r]


# ---------------------------------------------------------------------------
# Sources and the transverse projection of the noise
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModeBoxSource:
    """Deterministic source amplitude * indicator[x_lo, x_hi](x1) * phi_mode(x2)."""

    mode: int
    x_lo: float
    x_hi: float
    amplitude: float = 1.0

    def __post_init__(self):
        if not self.x_lo < self.x_hi:
            raise DomainError("box source needs x_lo < x_hi")


@dataclass(frozen=True)
class ModalFunctionSource:
    """Deterministic source fn(x1) * phi_mode(x2) with fn supported in [x_lo, x_hi]."""

    mode: int
    fn: Callable
    x_lo: float
    x_hi: float


def transverse_cell_integrals(
    x2_edges: np.ndarray, n_modes: int, d: float, n_first: int = 0
) -> np.ndarray:
    """Integrals of phi_n over every [x2_edges[j], x2_edges[j+1]).

    Rows are the modes n_first .. n_modes - 1, all computed at once.
    """
    e = np.asarray(x2_edges, dtype=float)
    rows = np.arange(n_first, n_modes)
    out = np.empty((rows.size, e.size - 1), dtype=float)
    out[rows == 0] = np.diff(e) / math.sqrt(d)
    n = rows[rows > 0][:, None]
    s = np.sin(n * math.pi * e[None, :] / d)
    out[rows > 0] = math.sqrt(2.0 / d) * (d / (math.pi * n)) * np.diff(s, axis=1)
    return out


def noise_modal_matrix(r: NoiseRealization, n_modes: int, cfg: DuctConfig):
    """Axial breakpoints and segment values of f_n for all modes at once.

    Returns (breaks, values) with values[n, j1] = sum_j2 T[n, j2] *
    xi[j1, j2] / sqrt(|K|); the transverse cell integrals T are analytic.
    """
    x1_edges, x2_edges = r.mesh.edges(r.level)
    t = transverse_cell_integrals(x2_edges, n_modes, cfg.d)
    amp = 1.0 / math.sqrt(r.mesh.cell_area(r.level))
    values = (r.xi * amp) @ t.T  # (n1, n_modes)
    return x1_edges, values.T.copy()
