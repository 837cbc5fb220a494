"""Command-line interface: config parsing, subcommand dispatch, CSV output.

Configuration is a strict sectioned key=value text file (sections [duct],
[pml], [source], [grid], [run]); unknown sections or keys are rejected
with the offending line number.  ``_SCHEMA`` gives each key's type (an
enumerated key's choices), default (a function of the parsed config where it
depends on other values) and bound, and ``RunConfig.get`` returns the
configured value or else that default.  ``_check`` applies a key's entry to
the file's values at parse time and to the flags that override them; the
physical invariants are re-validated while building the typed objects.  A
float in CSV output is the text of '%.16e' (17 significant digits, so
downstream analysis is bit-faithful), built column-wise in numpy: its digits
are rint(q) for q = |x| 10^(16 - E) formed in long double.  q is off the
exact value by less than 0.011, which cannot change the rounding unless q
lies within 1/64 of a half-integer; those values, non-finite ones, and every
float on a host whose long double has no 64-bit significand are formatted by
% itself.

Exit codes: 0 success, 2 configuration error, 3 numerical error, 4 I/O
error.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .duct import DuctConfig, default_n_modes, dispersion_table
from .errors import ConfigError, DuctpmlError
from .greens import GreensEvalParams, greens_kummer
from .harness import (
    DEFAULT_EQUIV_DELTAS,
    DEFAULT_REF_REFINE,
    check_forcing_rect,
    default_forcing_rect,
    default_l_study_source,
    run_equivalence_check,
    run_h_study,
    run_L_study,
    run_total_error_study,
)
from .noise import ModeBoxSource, NoiseMesh, build_mesh, sample
from .pml import PmlProfile, dtn_gap_bound, nu_coefficients, reflection_coefficient
from .solver import assemble_field, default_delta, omega_b_grid, omega_full_grid, solve_full

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def _rect(i):
    """Default of forcing-rectangle edge i (x1_lo, x1_hi, x2_lo, x2_hi)."""
    return lambda rc: default_forcing_rect(rc.duct)[i]


def _mid(lo, hi):
    """Default midpoint of two [source] edges."""
    return lambda rc: 0.5 * (rc.get("source", lo) + rc.get("source", hi))


def _finest_h(rc):
    """Default finest noise-cell diameter: the rectangle's diagonal / 32."""
    x1_lo, x1_hi, x2_lo, x2_hi = rc.forcing_rect()
    return math.hypot(x1_hi - x1_lo, x2_hi - x2_lo) / 32.0


# section -> key -> (type, default, bound).  An enumerated key's type is the tuple of
# its choices.  A callable default is evaluated on the parsed RunConfig, and None
# marks a key with no default.  Every number must be finite; the bound _POSITIVE asks
# each entry to be positive too, and an integer n asks for at least n.
_POSITIVE = "positive"
_SCHEMA = {
    "duct": {
        "d": (float, None, None),
        "M": (float, None, None),
        "k": (float, 0.0, None),
        "omega": (float, 0.0, None),
        "c0": (float, 1.0, None),
        "x_minus": (float, -1.0, None),
        "x_plus": (float, 1.0, None),
    },
    "pml": {
        "L": (float, 2.0, None),
        "sigma_plus": (float, 5.0, None),
        "sigma_minus": (float, lambda rc: rc.profile.sigma_minus, None),  # PmlProfile's default
        "shape": (("quadratic",), "quadratic", None),
    },
    "source": {
        "type": (("mode_box", "noise", "mode_box+noise", "none"), "mode_box", None),
        "mode": (int, lambda rc: default_l_study_source(rc.duct).mode, 0),
        "amplitude": (float, 1.0, None),
        "x_lo": (float, lambda rc: rc.get("source", "rect_x1_lo"), None),
        "x_hi": (float, lambda rc: rc.get("source", "rect_x1_hi"), None),
        "y1": (float, _mid("rect_x1_lo", "rect_x1_hi"), None),
        "y2": (float, _mid("rect_x2_lo", "rect_x2_hi"), None),
        "rect_x1_lo": (float, _rect(0), None),
        "rect_x1_hi": (float, _rect(1), None),
        "rect_x2_lo": (float, _rect(2), None),
        "rect_x2_hi": (float, _rect(3), None),
        "finest_h": (float, _finest_h, _POSITIVE),
        "noise_levels": (int, 3, _POSITIVE),
    },
    "grid": {
        "delta": (float, lambda rc: default_delta(rc.duct), _POSITIVE),
        "n_modes": (int, lambda rc: default_n_modes(rc.duct), _POSITIVE),
        "n_x2": (int, 33, _POSITIVE),
        "formulation": (("dtn", "pml_full", "pml_reduced"), "pml_reduced", None),
    },
    "run": {
        "base_seed": (int, 0, None),
        "samples": (int, 100, None),
        "threads": (int, 0, 0),
        "h_levels": ("float_list", (1 / 8, 1 / 16, 1 / 32), _POSITIVE),
        "l_values": ("float_list", (0.5, 1.0, 1.5, 2.0), _POSITIVE),
        "equiv_deltas": ("float_list", DEFAULT_EQUIV_DELTAS, _POSITIVE),
        "ref_refine": (int, DEFAULT_REF_REFINE, 1),
    },
}


@dataclass
class RunConfig:
    """Parsed and validated run configuration."""

    raw: dict = field(default_factory=dict)
    duct: Optional[DuctConfig] = None
    profile: Optional[PmlProfile] = None

    def get(self, section: str, key: str):
        """The configured value of [section] key, else its _SCHEMA default."""
        val = self.raw.get(section, {}).get(key)
        if val is None:
            val = _SCHEMA[section][key][1]
            if callable(val):
                val = val(self)
        return val

    def forcing_rect(self):
        return check_forcing_rect(
            self.duct, [self.get("source", f"rect_x{i}") for i in ("1_lo", "1_hi", "2_lo", "2_hi")]
        )

    def noise_mesh(self) -> NoiseMesh:
        return build_mesh(
            self.forcing_rect(), self.get("source", "finest_h"), self.get("source", "noise_levels")
        )

    def build_source(self, seed: Optional[int] = None):
        """Source list per [source] type; noise uses the given (or run) seed."""
        kind = self.get("source", "type")
        parts = []
        if kind in ("mode_box", "mode_box+noise"):
            mode, n_modes = self.get("source", "mode"), self.get("grid", "n_modes")
            if mode >= n_modes:  # the forced mode would never be solved
                default = "mode" not in self.raw.get("source", {})
                raise ConfigError(
                    f"[source] mode {mode}{' (the default N0 + 1)' if default else ''} "
                    f"must be below [grid] n_modes = {n_modes}"
                )
            box = {k: self.get("source", k) for k in ("x_lo", "x_hi", "amplitude")}
            parts.append(ModeBoxSource(mode=mode, **box))
        if kind in ("noise", "mode_box+noise"):
            seed = self.get("run", "base_seed") if seed is None else seed
            parts.append(sample(self.noise_mesh(), seed))
        return parts


def parse_config(text: str) -> RunConfig:
    """Strict sectioned key=value parser; rejects unknown keys with line numbers."""
    raw: dict = {}
    section = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
            if section not in _SCHEMA:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            raw.setdefault(section, {})
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value, got {stripped!r}")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any section")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        spec = _SCHEMA[section].get(key)
        if spec is None:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in section [{section}]")
        if key in raw[section]:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            raw[section][key] = _convert(value, spec[0])
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    return _build_run_config(raw)


def _convert(value: str, spec):
    if spec in (float, int):
        return spec(value)
    if spec == "float_list":
        items = [s for s in value.split(",") if s.strip()]
        if not items:
            raise ValueError("empty list")
        return [float(s) for s in items]
    return value


def _build_run_config(raw: dict) -> RunConfig:
    duct_raw = raw.get("duct", {})
    for required in ("d", "M"):
        if required not in duct_raw:
            raise ConfigError(f"[duct] section must set {required!r}")
    if "k" not in duct_raw and "omega" not in duct_raw:
        raise ConfigError("[duct] must set k or omega")
    for section, values in raw.items():
        for key, val in values.items():
            _check(section, key, val)
    rc = RunConfig(raw=raw)
    rc.duct = DuctConfig(**{k: rc.get("duct", k) for k in _SCHEMA["duct"]}, L=rc.get("pml", "L"))
    rc.profile = PmlProfile(rc.get("pml", "sigma_plus"), raw.get("pml", {}).get("sigma_minus"))
    rc.forcing_rect()
    return rc


def _check(section: str, key: str, val) -> None:
    """ConfigError unless [section] key admits val: one of its choices, or finite
    numbers within its _SCHEMA bound."""
    kind, _, bound = _SCHEMA[section][key]
    lo = 0.0 if bound == _POSITIVE else -math.inf  # NaN fails both comparisons
    if isinstance(kind, tuple):
        if val not in kind:
            raise ConfigError(f"[{section}] {key} {val!r} is not one of {kind}")
    elif not all(lo < v < math.inf for v in (val if isinstance(val, list) else [val])):
        must = "positive and finite" if bound == _POSITIVE else "finite"
        raise ConfigError(f"[{section}] {key} must be {must}, got {val!r}")
    elif isinstance(bound, int) and val < bound:
        raise ConfigError(f"[{section}] {key} must be >= {bound}, got {val}")


# ---------------------------------------------------------------------------
# CSV helpers
# ---------------------------------------------------------------------------


_CHUNK_ROWS = 4096
_DROP_BYTES = 1 << 17  # a chunk's NULs are dropped this many bytes at a time


def _format_code(x) -> str:
    """% code of one output value: %s str, %d int or bool, %.16e float."""
    if isinstance(x, str):
        return "%s"
    if isinstance(x, (bool, np.bool_, int, np.integer)):
        return "%d"
    return "%.16e"


def _fmt(x) -> str:
    return _format_code(x) % x


# q = |x| 10^(16 - E) is formed in long double; it is off the exact value by
# less than _TIE_BAND only with a 64-bit significand (x87 extended), so
# elsewhere every float takes %
_EXTENDED = np.finfo(np.longdouble).nmant >= 63
_TIE_BAND = 1 / 64  # half-width of the band around q = k + 1/2 that takes %
_POW10_LO = -310  # the power of ten of the first entry of _float_tables()[0]
# A chunk of rows is a matrix of little-endian 8-byte words.  Each column is a
# run of words holding its text, then its separator, then NUL padding; the
# NULs are dropped on write (text holds none).
_FLOAT_WORDS = 4  # up to 24 bytes of text, then the separator


@functools.cache
def _float_tables():
    """The tables of _put_floats, built on its first call (a run that writes
    no float never builds them): 10^n for n = _POW10_LO..344 in long double,
    each correctly rounded (strtold); quad[i], the 4 ASCII digits of
    i = 0000..9999 in a word's low bytes; exponent[i], 'e', a NUL for the
    exponent's sign, then i in 2 or 3 digits."""
    pow10 = np.char.mod("1e%d", np.arange(_POW10_LO, 345)).astype(np.longdouble)
    quad = np.arange(100, dtype=np.uint64)
    quad = quad // 10 + 48 | (quad % 10 + 48) << 8  # 2 digits
    quad = (quad[:, None] | quad << 16).ravel()
    exponent = 101 | np.concatenate([quad[:100] & 0xFFFF0000, (quad[100:1000] & 0xFFFFFF00) << 8])
    return pow10, quad, exponent


def _put_floats(dst, x, sep: int) -> None:
    """Write '%.16e' % v of each float64 v of x (at most 24 bytes) into dst,
    a (rows, _FLOAT_WORDS) word matrix, and the separator byte sep after it.

    E = floor(log10|v|) (moved by one where q falls outside [1e16, 1e17)) and
    q = |v| 10^(16 - E) in long double.  The table entry and the product are
    each rounded once, so q is off the exact value by at most 1e17 2^-63 <
    0.011 < _TIE_BAND; so wherever q is more than _TIE_BAND from a
    half-integer, rint(q) is the correctly rounded 17-digit significand that %
    prints.  Non-finite values and the tie band go through %."""
    fallback = np.ones(len(x), dtype=bool)
    if _EXTENDED:
        pow10, quad, exponent = _float_tables()
        ax = np.abs(x)
        fin = np.isfinite(ax)
        ax[~fin] = 0.0
        nz = ax > 0.0
        e = np.floor(np.log10(np.where(nz, ax, 1.0))).astype(np.int64)
        q = pow10[16 - _POW10_LO - e]
        q *= ax
        off = nz & ((q < 1e16) | (q >= 1e17))
        if off.any():
            e[off] += np.where(q[off] < 1e16, -1, 1)
            q[off] = pow10[16 - _POW10_LO - e[off]] * ax[off]
        d = np.rint(q)
        q -= d
        fallback = ~fin | (np.abs(q, out=q) > 0.5 - _TIE_BAND)
        del q
        d = d.astype(np.uint64)
        carry = d == 10**17
        d[carry] = 10**16
        e[carry] += 1
        # sign, first digit, '.' and digits 1-5; digits 6-13; digits 14-16,
        # 'e', its sign and 2 or 3 digits
        lead, d = np.divmod(d, np.uint64(10**16))
        head, d = np.divmod(d, np.uint64(10**11))
        head, fifth = np.divmod(head, np.uint64(10))
        five = quad[head] | fifth + 48 << 32
        dst[:, 0] = np.signbit(x) * np.uint64(45) | lead + 48 << 8 | 46 << 16 | five << 24
        mid, tail = np.divmod(d, np.uint64(1000))
        dst[:, 1] = quad[mid // 10000] | quad[mid % 10000] << 32
        exp = exponent[np.abs(e)] | np.where(e < 0, 0x2D00, 0x2B00).astype(np.uint64)
        dst[:, 2] = quad[tail] >> 8 | exp << 24
    dst[:, 3] = sep
    rows = np.flatnonzero(fallback)
    if rows.size:
        # one % for all of them; no '%.16e' text has a space to stand for NUL
        text = ("%-24.16e" * rows.size % tuple(x[rows].tolist())).encode().replace(b" ", b"\0")
        dst.view(np.uint8)[rows, :24] = np.frombuffer(text, np.uint8).reshape(-1, 24)


def _text_bytes(c, code):
    """The '%d' or '%s' text of a chunk of a column, one NUL-padded uint8 row
    per value."""
    if code == "%s":
        text = np.char.encode(np.asarray(c, dtype=str), "utf-8")
        return text.view(np.uint8).reshape(len(text), text.itemsize)
    a = np.asarray(c)
    mag = np.abs(a).astype(np.uint64)  # the int64 minimum wraps to its magnitude 2^63
    n = len(str(int(mag.max())))
    out = np.zeros((len(a), n + 1), dtype=np.uint8)
    out[:, 0] = (a < 0) * np.uint8(45)  # '-'
    rest = mag
    for j in range(n, 0, -1):
        rest, digit = np.divmod(rest, np.uint64(10))
        out[:, j] = digit + 48
    for j in range(1, n):  # leading zeros
        out[mag < 10 ** (n - j), j] = 0
    return out


def _write_csv(path: Path, header, columns):
    """Write equal-length columns (arrays or sequences) under one header; each
    column's format code comes from its first element.  Each chunk of
    _CHUNK_ROWS rows is one NUL-padded word matrix, so the transient text
    stays bounded."""
    columns = [c if isinstance(c, np.ndarray) else list(c) for c in columns]
    n_rows = len(columns[0])
    if any(len(c) != n_rows for c in columns):
        raise ValueError(f"columns of lengths {[len(c) for c in columns]} differ")
    codes = [_format_code(c[0]) for c in columns] if n_rows else []
    seps = [44] * (len(columns) - 1) + [10]  # ',' and '\n'
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode("utf-8"))
        for lo in range(0, n_rows, _CHUNK_ROWS):
            chunk = [c[lo : lo + _CHUNK_ROWS] for c in columns]
            text = [None if f == "%.16e" else _text_bytes(c, f) for c, f in zip(chunk, codes)]
            words = [_FLOAT_WORDS if t is None else t.shape[1] // 8 + 1 for t in text]
            buf = np.zeros((len(chunk[0]), sum(words)), dtype="<u8")
            raw = buf.view(np.uint8)
            o = 0
            for c, t, k, sep in zip(chunk, text, words, seps):
                if t is None:
                    _put_floats(buf[:, o : o + k], np.asarray(c, dtype=np.float64), sep)
                else:
                    raw[:, 8 * o : 8 * o + t.shape[1]] = t
                    raw[:, 8 * o + t.shape[1]] = sep
                o += k
            raw = raw.ravel()
            for b in range(0, raw.size, _DROP_BYTES):
                part = raw[b : b + _DROP_BYTES]
                fh.write(part[part != 0])


def _write_summary(path: Path, entries: dict):
    with open(path, "w", encoding="utf-8") as fh:
        for key, val in entries.items():
            fh.write(f"{key}={_fmt(val)}\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_modes(rc: RunConfig, out: Path, args) -> int:
    table = dispersion_table(rc.duct, rc.get("grid", "n_modes"))
    _write_csv(
        out / "modes.csv",
        ["n", "re_beta_plus", "im_beta_plus", "re_beta_minus", "im_beta_minus", "kind"],
        [
            np.arange(table.n_max),
            table.beta_plus.real,
            table.beta_plus.imag,
            table.beta_minus.real,
            table.beta_minus.imag,
            table.kind,
        ],
    )
    return EXIT_OK


def _cmd_greens(rc: RunConfig, out: Path, args) -> int:
    cfg = rc.duct
    y = (rc.get("source", "y1"), rc.get("source", "y2"))
    if not 0.0 <= y[1] <= cfg.d:
        raise ConfigError(f"[source] y2 = {y[1]} lies outside the duct [0, {cfg.d}]")
    params = GreensEvalParams(n_modes=rc.get("grid", "n_modes"))
    try:
        params.resolve(cfg)
    except ConfigError as exc:
        raise ConfigError(f"[grid] {exc}") from exc
    n1 = min(int(round((cfg.x_plus - cfg.x_minus) / rc.get("grid", "delta"))) + 1, 65)
    x1s = np.linspace(cfg.x_minus, cfg.x_plus, n1)
    x2s = np.linspace(0.0, cfg.d, rc.get("grid", "n_x2"))
    rows = []
    for x1 in x1s:
        for x2 in x2s:
            if math.hypot(x1 - y[0], x2 - y[1]) < 1e-9:
                rows.append((x1, x2, float("nan"), float("nan"), "singular"))
                continue
            val = greens_kummer((x1, x2), y, params, cfg)
            rows.append((x1, x2, val.real, val.imag, "kummer"))
    _write_csv(
        out / "greens.csv", ["x1", "x2", "re_g", "im_g", "representation_used"], zip(*rows)
    )
    return EXIT_OK


def _cmd_noise(rc: RunConfig, out: Path, args) -> int:
    mesh = rc.noise_mesh()
    r = sample(mesh, rc.get("run", "base_seed"))
    x1e, x2e = mesh.edges(r.level)
    n1, n2 = mesh.shape(r.level)
    _write_csv(
        out / "noise.csv",
        ["cell_index", "x1_lo", "x1_hi", "x2_lo", "x2_hi", "xi"],
        [
            np.arange(n1 * n2),
            np.repeat(x1e[:-1], n2),
            np.repeat(x1e[1:], n2),
            np.tile(x2e[:-1], n1),
            np.tile(x2e[1:], n1),
            r.xi.ravel(),
        ],
    )
    return EXIT_OK


def _cmd_pml(rc: RunConfig, out: Path, args) -> int:
    cfg, profile = rc.duct, rc.profile
    rows = []
    for n in range(rc.get("grid", "n_modes")):
        nu = nu_coefficients(n, "+", profile, cfg)
        refl = reflection_coefficient(n, "+", profile, cfg)
        gap = dtn_gap_bound(n, "+", profile, cfg)
        rows.append(
            (n, nu.real, nu.imag, refl, gap.measured, gap.bound, gap.applicable)
        )
    _write_csv(
        out / "pml.csv",
        [
            "n",
            "re_nu_plus",
            "im_nu_plus",
            "reflection",
            "measured_gap",
            "bound_gap",
            "bound_applicable",
        ],
        zip(*rows),
    )
    return EXIT_OK


def _cmd_solve(rc: RunConfig, out: Path, args) -> int:
    cfg, formulation = rc.duct, rc.get("grid", "formulation")
    if formulation == "pml_full":
        # without a given delta, the default spacing refined until L is whole cells
        grid = omega_full_grid(cfg, rc.raw.get("grid", {}).get("delta"))
    else:
        grid = omega_b_grid(cfg, rc.get("grid", "delta"))
    source = rc.build_source()
    sol = solve_full(cfg, source, formulation, grid, rc.get("grid", "n_modes"), rc.profile)
    nodes = sol.grid.nodes()
    x1s = nodes[:: max(1, (len(nodes) - 1) // 128)]
    x2s = np.linspace(0.0, cfg.d, rc.get("grid", "n_x2"))
    x1, x2 = (a.ravel() for a in np.meshgrid(x1s, x2s, indexing="ij"))
    p = assemble_field(sol, np.column_stack((x1, x2)), cfg)
    _write_csv(out / "field.csv", ["x1", "x2", "re_p", "im_p"], [x1, x2, p.real, p.imag])
    _write_csv(
        out / "modal.csv",
        ["n", "x1", "re_pn", "im_pn"],
        [
            np.repeat(np.arange(sol.n_modes), len(nodes)),
            np.tile(nodes, sol.n_modes),
            sol.values.real.ravel(),
            sol.values.imag.ravel(),
        ],
    )
    return EXIT_OK


def _study_csv(out: Path, name: str, res) -> None:
    _write_csv(
        out / f"study_{name}.csv",
        ["abscissa", "error_mean", "error_stderr", "excluded_flag"],
        [res.abscissae, res.error_mean, res.error_stderr, res.excluded],
    )
    entries = {
        "fitted_rate": res.fitted_rate,
        "rate_stderr": res.rate_stderr,
        "theory_rate": res.theory_rate,
        "pass": bool(res.passed),
        "n_samples": res.n_samples,
        "base_seed": res.base_seed,
        "n_excluded": int(np.sum(res.excluded)),
    }
    if "bound_applicable" in res.extra:
        entries["bound_applicable"] = ",".join(map(_fmt, res.extra["bound_applicable"]))
    _write_summary(out / f"study_{name}_summary.txt", entries)


def _cmd_study(rc: RunConfig, out: Path, args) -> int:
    cfg, profile, kind = rc.duct, rc.profile, args.kind
    run = {k: rc.get("run", k) for k in _SCHEMA["run"]}
    grid = {"delta": rc.get("grid", "delta"), "n_modes": rc.get("grid", "n_modes")}
    # the two noise studies' shared settings
    noise = dict(grid, rect=rc.forcing_rect(), ref_refine=run["ref_refine"], threads=run["threads"])
    if kind == "h":
        res = run_h_study(
            cfg, profile, run["h_levels"], run["samples"], run["base_seed"], **noise
        )
        _study_csv(out, "h", res)
    elif kind == "L":
        res = run_L_study(
            cfg, run["l_values"], profile.sigma_plus, sigma_minus=profile.sigma_minus, **grid
        )
        _study_csv(out, "L", res)
    elif kind == "equiv":
        res = run_equivalence_check(
            cfg, profile, deltas=run["equiv_deltas"], n_modes=grid["n_modes"]
        )
        _study_csv(out, "equiv", res)
    elif kind == "total":
        res = run_total_error_study(
            cfg, run["h_levels"], run["l_values"], profile.sigma_plus, run["samples"],
            run["base_seed"], sigma_minus=profile.sigma_minus, **noise
        )
        n_h, n_l = len(res.h_values), len(res.l_values)
        _write_csv(
            out / "study_total.csv",
            ["h", "L", "sigma_tilde_integral", "error_mean", "error_stderr"],
            [
                np.repeat(res.h_values, n_l),
                np.tile(res.l_values, n_h),
                np.tile(res.abscissae_l, n_h),
                res.error_mean.ravel(),
                res.error_stderr.ravel(),
            ],
        )
        _write_summary(
            out / "study_total_summary.txt",
            {
                "n_samples": res.n_samples,
                "base_seed": res.base_seed,
                "n_h": len(res.h_values),
                "n_L": len(res.l_values),
            },
        )
    else:  # pragma: no cover - argparse restricts choices
        raise ConfigError(f"unknown study kind {kind!r}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)  # the flags of every subcommand
    common.add_argument("--config", required=True, help="path to the sectioned config file")
    common.add_argument("--out", default="./out", help="output directory (default ./out)")
    common.add_argument("--seed", type=int, default=None, help="override base seed")
    common.add_argument("--samples", type=int, default=None, help="override sample count")
    common.add_argument("--threads", type=int, default=None, help="worker threads (0 or 1: serial)")
    p = argparse.ArgumentParser(
        prog="ductpml",
        description="Convected duct acoustics with a modified absorbing layer",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name in ("modes", "greens", "noise", "pml", "solve"):
        sub.add_parser(name, parents=[common])
    sp = sub.add_parser("study", parents=[common])
    sp.add_argument("kind", choices=["h", "L", "total", "equiv"])
    return p


_COMMANDS = {
    "modes": _cmd_modes,
    "greens": _cmd_greens,
    "noise": _cmd_noise,
    "pml": _cmd_pml,
    "solve": _cmd_solve,
    "study": _cmd_study,
}


def dispatch(argv) -> int:
    """Run one subcommand; returns the exit status (errors are categorized)."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code else EXIT_OK
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"ductpml: cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        rc = parse_config(text)
        _apply_overrides(rc, args)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](rc, out, args)
    except ConfigError as exc:
        print(f"ductpml: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DuctpmlError as exc:
        print(f"ductpml: numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"ductpml: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def _apply_overrides(rc: RunConfig, args) -> None:
    flags = {"base_seed": args.seed, "samples": args.samples, "threads": args.threads}
    for key, val in flags.items():
        if val is not None:
            _check("run", key, val)
            rc.raw.setdefault("run", {})[key] = val


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
