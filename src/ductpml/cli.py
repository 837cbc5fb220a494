"""Command-line interface: config parsing, subcommand dispatch, CSV output.

Configuration is a strict sectioned key=value text file (sections [duct],
[pml], [source], [grid], [run]); unknown sections or keys are rejected
with the offending line number, and all physical invariants are
re-validated while building the typed objects.  Numeric CSV output uses
scientific notation with 17 significant digits so downstream analysis is
bit-faithful.

Exit codes: 0 success, 2 configuration error, 3 numerical error, 4 I/O
error.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .duct import DuctConfig, cutoff_numbers, default_n_modes, dispersion_table
from .errors import ConfigError, DuctpmlError
from .greens import GreensEvalParams, greens_value
from .harness import (
    default_forcing_rect,
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

_SCHEMA = {
    "duct": {
        "d": float,
        "M": float,
        "k": float,
        "omega": float,
        "c0": float,
        "x_minus": float,
        "x_plus": float,
    },
    "pml": {
        "L": float,
        "sigma_plus": float,
        "sigma_minus": float,
        "shape": str,
    },
    "source": {
        "type": str,
        "mode": int,
        "amplitude": float,
        "x_lo": float,
        "x_hi": float,
        "y1": float,
        "y2": float,
        "rect_x1_lo": float,
        "rect_x1_hi": float,
        "rect_x2_lo": float,
        "rect_x2_hi": float,
        "finest_h": float,
        "noise_levels": int,
    },
    "grid": {
        "delta": float,
        "n_modes": int,
        "n_x2": int,
        "formulation": str,
    },
    "run": {
        "base_seed": int,
        "samples": int,
        "threads": int,
        "h_levels": "float_list",
        "l_values": "float_list",
        "equiv_deltas": "float_list",
        "ref_refine": int,
    },
}

_SOURCE_TYPES = ("mode_box", "noise", "mode_box+noise", "none")
_FORMULATIONS = ("dtn", "pml_full", "pml_reduced")
# sizes that must be finite and positive (integers: at least 1)
_POSITIVE_KEYS = {"grid": ("n_modes", "n_x2", "delta"), "source": ("finest_h", "noise_levels")}


@dataclass
class RunConfig:
    """Parsed and validated run configuration."""

    duct: DuctConfig
    profile: PmlProfile
    raw: dict = field(default_factory=dict)

    # ---- derived accessors -------------------------------------------------
    def _get(self, section, key, default=None):
        return self.raw.get(section, {}).get(key, default)

    def forcing_rect(self):
        cfg = self.duct
        default = default_forcing_rect(cfg)
        keys = ("rect_x1_lo", "rect_x1_hi", "rect_x2_lo", "rect_x2_hi")
        rect = tuple(
            float(self._get("source", k, d)) for k, d in zip(keys, default)
        )
        if not (rect[0] < rect[1] and rect[2] < rect[3]):
            raise ConfigError(f"degenerate forcing rectangle {rect}")
        if rect[2] < 0.0 or rect[3] > cfg.d:
            raise ConfigError("forcing rectangle leaves the duct")
        if rect[0] < cfg.x_minus or rect[1] > cfg.x_plus:
            raise ConfigError("forcing rectangle leaves the computational domain")
        return rect

    def noise_mesh(self) -> NoiseMesh:
        rect = self.forcing_rect()
        diag = math.hypot(rect[1] - rect[0], rect[3] - rect[2])
        finest = float(self._get("source", "finest_h", diag / 32.0))
        levels = int(self._get("source", "noise_levels", 3))
        return build_mesh(rect, finest, levels)

    def grid_delta(self) -> float:
        return float(self._get("grid", "delta", default_delta(self.duct)))

    def n_modes(self) -> int:
        return int(self._get("grid", "n_modes", default_n_modes(self.duct)))

    def n_x2(self) -> int:
        return int(self._get("grid", "n_x2", 33))

    def formulation(self) -> str:
        val = str(self._get("grid", "formulation", "pml_reduced"))
        if val not in _FORMULATIONS:
            raise ConfigError(f"formulation must be one of {_FORMULATIONS}, got {val!r}")
        return val

    def base_seed(self) -> int:
        return int(self._get("run", "base_seed", 0))

    def samples(self) -> int:
        return int(self._get("run", "samples", 100))

    def threads(self) -> int:
        return int(self._get("run", "threads", 0))

    def h_levels(self):
        return list(self._get("run", "h_levels", [1 / 8, 1 / 16, 1 / 32]))

    def l_values(self):
        return list(self._get("run", "l_values", [0.5, 1.0, 1.5, 2.0]))

    def equiv_deltas(self):
        return list(self._get("run", "equiv_deltas", [1 / 128, 1 / 256, 1 / 512]))

    def ref_refine(self) -> int:
        return int(self._get("run", "ref_refine", 2))

    def source_point(self):
        rect = self.forcing_rect()
        y1 = float(self._get("source", "y1", 0.5 * (rect[0] + rect[1])))
        y2 = float(self._get("source", "y2", 0.5 * (rect[2] + rect[3])))
        if not 0.0 <= y2 <= self.duct.d:
            raise ConfigError(f"[source] y2 = {y2} lies outside the duct [0, {self.duct.d}]")
        return (y1, y2)

    def build_source(self, seed: Optional[int] = None):
        """Source list per [source] type; noise uses the given (or run) seed."""
        kind = str(self._get("source", "type", "mode_box"))
        if kind not in _SOURCE_TYPES:
            raise ConfigError(f"source type must be one of {_SOURCE_TYPES}, got {kind!r}")
        parts = []
        if kind in ("mode_box", "mode_box+noise"):
            rect = self.forcing_rect()
            mode = self._get("source", "mode")
            default = mode is None
            if default:
                _, n0 = cutoff_numbers(self.duct)
                mode = n0 + 1
            if mode >= self.n_modes():  # the forced mode would never be solved
                raise ConfigError(
                    f"[source] mode {mode}{' (the default N0 + 1)' if default else ''} "
                    f"must be below [grid] n_modes = {self.n_modes()}"
                )
            parts.append(
                ModeBoxSource(
                    mode=mode,
                    x_lo=float(self._get("source", "x_lo", rect[0])),
                    x_hi=float(self._get("source", "x_hi", rect[1])),
                    amplitude=float(self._get("source", "amplitude", 1.0)),
                )
            )
        if kind in ("noise", "mode_box+noise"):
            mesh = self.noise_mesh()
            parts.append(sample(mesh, self.base_seed() if seed is None else seed))
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
            raw[section][key] = _convert(value, spec)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    return _build_run_config(raw)


def _convert(value: str, spec):
    if spec is float:
        return float(value)
    if spec is int:
        return int(value, 10)
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
    for section, keys in _POSITIVE_KEYS.items():
        for key in keys:
            val = raw.get(section, {}).get(key)
            if val is not None and not (math.isfinite(val) and val > 0):
                raise ConfigError(f"[{section}] {key} must be positive and finite, got {val!r}")
    for (section, key), least in {("run", "ref_refine"): 1, ("source", "mode"): 0}.items():
        val = raw.get(section, {}).get(key)
        if val is not None and val < least:
            raise ConfigError(f"[{section}] {key} must be >= {least}, got {val}")
    pml_raw = raw.get("pml", {})
    duct = DuctConfig(
        d=duct_raw["d"],
        M=duct_raw["M"],
        k=duct_raw.get("k", 0.0),
        omega=duct_raw.get("omega", 0.0),
        c0=duct_raw.get("c0", 1.0),
        x_minus=duct_raw.get("x_minus", -1.0),
        x_plus=duct_raw.get("x_plus", 1.0),
        L=pml_raw.get("L", 2.0),
    )
    shape = pml_raw.get("shape", "quadratic")
    if shape != "quadratic":
        raise ConfigError("only the quadratic profile shape is configurable from file")
    sigma_plus = pml_raw.get("sigma_plus", 5.0)
    profile = PmlProfile(
        sigma_plus=sigma_plus,
        sigma_minus=pml_raw.get("sigma_minus", sigma_plus),
        x_plus=duct.x_plus,
        x_minus=duct.x_minus,
        L=duct.L,
    )
    rc = RunConfig(duct=duct, profile=profile, raw=raw)
    rc.forcing_rect()
    rc.formulation()
    if str(rc._get("source", "type", "mode_box")) not in _SOURCE_TYPES:
        raise ConfigError(f"source type must be one of {_SOURCE_TYPES}")
    return rc


def serialize_config(rc: RunConfig) -> str:
    """Round-trip serialization of the raw key=value content."""
    lines = []
    for section in _SCHEMA:
        if section not in rc.raw:
            continue
        lines.append(f"[{section}]")
        for key, val in rc.raw[section].items():
            text = ",".join(map(_fmt, val)) if isinstance(val, list) else _fmt(val)
            lines.append(f"{key} = {text}")
        lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# CSV helpers
# ---------------------------------------------------------------------------


_CHUNK_ROWS = 8192


def _format_code(x) -> str:
    """% code of one output value: %s str, %d int or bool, %.16e float."""
    if isinstance(x, str):
        return "%s"
    if isinstance(x, (bool, np.bool_, int, np.integer)):
        return "%d"
    return "%.16e"


def _fmt(x) -> str:
    return _format_code(x) % x


def _write_csv(path: Path, header, columns):
    """Write equal-length columns (arrays or sequences) under one header; each
    column's format code comes from its first element, and each chunk of
    _CHUNK_ROWS rows is one %, so the transient text stays bounded."""
    columns = [c if isinstance(c, np.ndarray) else list(c) for c in columns]
    n_rows, width = len(columns[0]), len(columns)
    line = ",".join(_format_code(c[0]) for c in columns) + "\n" if n_rows else ""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, n_rows, _CHUNK_ROWS):
            chunk = [c[lo : lo + _CHUNK_ROWS] for c in columns]
            size = len(chunk[0])
            flat = [None] * (size * width)  # a column of another length fails to fill it
            for j, c in enumerate(chunk):
                flat[j::width] = c.tolist() if isinstance(c, np.ndarray) else c
            fh.write(line * size % tuple(flat))


def _write_summary(path: Path, entries: dict):
    with open(path, "w", encoding="utf-8") as fh:
        for key, val in entries.items():
            fh.write(f"{key}={_fmt(val)}\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_modes(rc: RunConfig, out: Path, args) -> int:
    table = dispersion_table(rc.duct, rc.n_modes())
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
    y = rc.source_point()
    params = GreensEvalParams(n_modes=rc.n_modes())
    try:
        params.resolve(cfg)
    except ConfigError as exc:
        raise ConfigError(f"[grid] {exc}") from exc
    delta = rc.grid_delta()
    n1 = min(int(round((cfg.x_plus - cfg.x_minus) / delta)) + 1, 65)
    x1s = np.linspace(cfg.x_minus, cfg.x_plus, n1)
    x2s = np.linspace(0.0, cfg.d, rc.n_x2())
    rows = []
    for x1 in x1s:
        for x2 in x2s:
            if math.hypot(x1 - y[0], x2 - y[1]) < 1e-9:
                rows.append((x1, x2, float("nan"), float("nan"), "singular"))
                continue
            val, rep = greens_value((x1, x2), y, params, cfg)
            rows.append((x1, x2, val.real, val.imag, rep))
    _write_csv(
        out / "greens.csv", ["x1", "x2", "re_g", "im_g", "representation_used"], zip(*rows)
    )
    return EXIT_OK


def _cmd_noise(rc: RunConfig, out: Path, args) -> int:
    mesh = rc.noise_mesh()
    r = sample(mesh, rc.base_seed())
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
    for n in range(rc.n_modes()):
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
    cfg = rc.duct
    formulation = rc.formulation()
    if formulation == "pml_full":
        # without a given delta, the default spacing refined until L is whole cells
        grid = omega_full_grid(cfg, rc._get("grid", "delta"))
    else:
        grid = omega_b_grid(cfg, rc.grid_delta())
    source = rc.build_source()
    sol = solve_full(cfg, source, formulation, grid, rc.n_modes(), rc.profile)
    nodes = sol.grid.nodes()
    x1s = nodes[:: max(1, (len(nodes) - 1) // 128)]
    x2s = np.linspace(0.0, cfg.d, rc.n_x2())
    x1, x2 = (a.ravel() for a in np.meshgrid(x1s, x2s, indexing="ij"))
    p = assemble_field(sol, np.column_stack((x1, x2)), cfg)
    _write_csv(out / "field.csv", ["x1", "x2", "re_p", "im_p"], [x1, x2, p.real, p.imag])
    _write_csv(
        out / "modal.csv",
        ["n", "x1", "re_pn", "im_pn"],
        [
            np.repeat(np.arange(sol.n_modes), len(nodes)),
            [_fmt(x) for x in nodes] * sol.n_modes,  # each node formatted once for all modes
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
    cfg = rc.duct
    kind = args.kind
    if kind == "h":
        res = run_h_study(
            cfg,
            rc.profile,
            rc.h_levels(),
            rc.samples(),
            rc.base_seed(),
            rect=rc.forcing_rect(),
            delta=rc.grid_delta(),
            n_modes=rc.n_modes(),
            ref_refine=rc.ref_refine(),
            threads=rc.threads(),
        )
        _study_csv(out, "h", res)
    elif kind == "L":
        res = run_L_study(
            cfg,
            rc.l_values(),
            rc.profile.sigma_plus,
            sigma_minus=rc.profile.sigma_minus,
            delta=rc.grid_delta(),
            n_modes=rc.n_modes(),
        )
        _study_csv(out, "L", res)
    elif kind == "equiv":
        res = run_equivalence_check(
            cfg, rc.profile, deltas=rc.equiv_deltas(), n_modes=min(rc.n_modes(), 8)
        )
        _study_csv(out, "equiv", res)
    elif kind == "total":
        res = run_total_error_study(
            cfg,
            rc.h_levels(),
            rc.l_values(),
            rc.profile.sigma_plus,
            rc.samples(),
            rc.base_seed(),
            rect=rc.forcing_rect(),
            delta=rc.grid_delta(),
            n_modes=rc.n_modes(),
            ref_refine=rc.ref_refine(),
            threads=rc.threads(),
            sigma_minus=rc.profile.sigma_minus,
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
    p = argparse.ArgumentParser(
        prog="ductpml",
        description="Convected duct acoustics with a modified absorbing layer",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name in ("modes", "greens", "noise", "pml", "solve"):
        sp = sub.add_parser(name)
        _common_flags(sp)
    sp = sub.add_parser("study")
    sp.add_argument("kind", choices=["h", "L", "total", "equiv"])
    _common_flags(sp)
    return p


def _common_flags(sp):
    sp.add_argument("--config", required=True, help="path to the sectioned config file")
    sp.add_argument("--out", default="./out", help="output directory (default ./out)")
    sp.add_argument("--seed", type=int, default=None, help="override base seed")
    sp.add_argument("--samples", type=int, default=None, help="override sample count")
    sp.add_argument("--threads", type=int, default=None, help="worker threads (0 = auto)")


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
    run = rc.raw.setdefault("run", {})
    if args.seed is not None:
        run["base_seed"] = int(args.seed)
    if args.samples is not None:
        run["samples"] = int(args.samples)
    if args.threads is not None:
        run["threads"] = int(args.threads)


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
