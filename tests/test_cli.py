import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ductpml
from ductpml.cli import (
    _CHUNK_ROWS,
    _SCHEMA,
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_NUMERICAL,
    EXIT_OK,
    _fmt,
    _write_csv,
    dispatch,
    parse_config,
)
from ductpml.errors import ConfigError
from ductpml.harness import run_total_error_study

MINIMAL = """\
[duct]
d = 1
M = 0.3
k = 5
[pml]
sigma_plus = 5
L = 2
"""


def serialize_config(rc) -> str:
    """The raw key=value content of a parsed config, as config text."""
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


class TestParseConfig:
    def test_minimal_with_defaults(self):
        rc = parse_config(MINIMAL)
        assert rc.duct.d == 1.0
        assert rc.duct.M == 0.3
        assert rc.duct.k == 5.0
        assert rc.duct.omega == 5.0
        assert rc.duct.x_minus == -1.0 and rc.duct.x_plus == 1.0
        assert rc.profile.sigma_plus == 5.0
        assert rc.profile.sigma_minus == 5.0
        assert rc.duct.L == 2.0
        assert rc.samples() == 100
        assert rc.n_modes() == 31  # N0 + 30

    def test_unknown_key_with_line_number(self):
        bad = MINIMAL + "turbo = 9\n"
        with pytest.raises(ConfigError, match="line 8.*turbo"):
            parse_config(bad)

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config("[warp]\nx = 1\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("[duct]\nd = 1\nd = 2\nM = 0\nk = 5\n")

    def test_malformed_value(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("[duct]\nd = one\nM = 0\nk = 5\n")

    def test_key_outside_section(self):
        with pytest.raises(ConfigError, match="outside"):
            parse_config("d = 1\n")

    def test_supersonic_mach_rejected(self):
        bad = MINIMAL.replace("M = 0.3", "M = 1.2")
        with pytest.raises(ConfigError, match="0 <= M < 1"):
            parse_config(bad)

    def test_cutoff_resonant_k_rejected(self):
        k_res = math.sqrt(1 - 0.09) * 2 * math.pi  # resonates n = 2
        bad = MINIMAL.replace("k = 5", f"k = {k_res!r}")
        with pytest.raises(ConfigError, match="resonance"):
            parse_config(bad)

    def test_comments_and_blanks_ignored(self):
        text = "# heading\n\n" + MINIMAL + "\n# trailing\n"
        rc = parse_config(text)
        assert rc.duct.k == 5.0

    def test_roundtrip(self):
        text = MINIMAL + "[run]\nbase_seed = 3\nh_levels = 0.25,0.125\n"
        rc = parse_config(text)
        again = parse_config(serialize_config(rc))
        assert again.raw == rc.raw

    def test_missing_required(self):
        with pytest.raises(ConfigError, match="must set"):
            parse_config("[duct]\nd = 1\nM = 0\n")


class TestSizeKeys:
    """Grid and noise sizes are checked when the config is parsed."""

    @pytest.mark.parametrize(
        "section, line",
        [
            ("grid", "n_modes = 0"),
            ("grid", "n_modes = -3"),
            ("grid", "n_x2 = 0"),
            ("grid", "delta = 0"),
            ("grid", "delta = -0.1"),
            ("grid", "delta = nan"),
            ("grid", "delta = inf"),
            ("source", "finest_h = -0.1"),
            ("source", "finest_h = 0"),
            ("source", "noise_levels = 0"),
        ],
    )
    @pytest.mark.parametrize("command", [["solve"], ["noise"], ["study", "h"]])
    def test_out_of_range_is_config_error(self, tmp_path, capsys, section, line, command):
        key = line.split(" = ")[0]
        p = tmp_path / "run.cfg"
        p.write_text(MINIMAL + f"[{section}]\n{line}\n")
        out = tmp_path / "out"
        assert dispatch(command + ["--config", str(p), "--out", str(out)]) == EXIT_CONFIG
        assert f"[{section}] {key} must be positive" in capsys.readouterr().err
        assert not out.exists()

    def test_smallest_sizes_run(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text(
            MINIMAL + "[source]\ntype = mode_box+noise\nnoise_levels = 1\nmode = 0\n"
            "[grid]\nn_modes = 1\nn_x2 = 1\ndelta = 0.0625\nformulation = dtn\n"
        )
        out = tmp_path / "out"
        assert dispatch(["solve", "--config", str(p), "--out", str(out)]) == EXIT_OK
        field = (out / "field.csv").read_text().splitlines()
        assert len(field) == 1 + 33  # 33 nodes at x2 = 0
        assert all(r.split(",")[1] == _fmt(0.0) for r in field[1:])
        assert len((out / "modal.csv").read_text().splitlines()) == 1 + 33


class TestDependentKeys:
    """Keys whose range depends on another key: checked before any output."""

    @pytest.mark.parametrize("value", [0, -1])
    @pytest.mark.parametrize("kind", ["h", "total"])
    def test_ref_refine_below_one_is_config_error(self, tmp_path, capsys, kind, value):
        p = tmp_path / "run.cfg"
        p.write_text(
            MINIMAL + "[run]\nsamples = 4\nh_levels = 0.25,0.125\nl_values = 1,2\n"
            f"ref_refine = {value}\n"
        )
        out = tmp_path / "out"
        assert dispatch(["study", kind, "--config", str(p), "--out", str(out)]) == EXIT_CONFIG
        assert f"[run] ref_refine must be >= 1, got {value}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "source, n_modes, message",
        [
            ("mode = 500\n", 4, "[source] mode 500 must be below [grid] n_modes = 4"),
            ("mode = 4\n", 4, "[source] mode 4 must be below [grid] n_modes = 4"),
            ("", 2, "[source] mode 2 (the default N0 + 1) must be below [grid] n_modes = 2"),
            ("type = mode_box+noise\n", 1, "[source] mode 2 (the default N0 + 1)"),
        ],
    )
    def test_source_mode_not_below_n_modes_is_config_error(
        self, tmp_path, capsys, source, n_modes, message
    ):
        p = tmp_path / "run.cfg"
        p.write_text(MINIMAL + f"[source]\n{source}[grid]\nn_modes = {n_modes}\n")
        out = tmp_path / "out"
        assert dispatch(["solve", "--config", str(p), "--out", str(out)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (out / "field.csv").exists()

    @pytest.mark.parametrize("kind, csv", [("L", "study_L.csv"), ("total", "study_total.csv")])
    def test_layer_study_source_mode_not_below_n_modes_is_config_error(
        self, tmp_path, capsys, kind, csv
    ):
        # k=5, M=0.3: the studies' box source sits in mode N0 + 1 = 2
        p = tmp_path / "run.cfg"
        p.write_text(MINIMAL + "[grid]\nn_modes = 2\n[run]\nsamples = 4\n"
                     "h_levels = 0.25,0.125\nl_values = 1,2\n")
        out = tmp_path / "out"
        assert dispatch(["study", kind, "--config", str(p), "--out", str(out)]) == EXIT_CONFIG
        assert "source mode 2 is not in 0 .. n_modes - 1 (n_modes = 2)" in capsys.readouterr().err
        assert not (out / csv).exists()

    @pytest.mark.parametrize("value", [-1, -5])
    def test_negative_source_mode_is_config_error(self, tmp_path, capsys, value):
        p = tmp_path / "run.cfg"
        p.write_text(MINIMAL + f"[source]\nmode = {value}\n[grid]\nn_modes = 4\n")
        out = tmp_path / "out"
        assert dispatch(["solve", "--config", str(p), "--out", str(out)]) == EXIT_CONFIG
        assert f"[source] mode must be >= 0, got {value}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "keys, message",
        [
            ("[grid]\nn_modes = 3\n", "[grid] n_modes = 3 must be at least N0+5 = 6"),
            ("[source]\ny2 = 1.5\n", "[source] y2 = 1.5 lies outside the duct [0, 1.0]"),
            ("[source]\ny2 = 1.3\n", "[source] y2 = 1.3 lies outside the duct [0, 1.0]"),
            ("[source]\ny2 = -0.2\n", "[source] y2 = -0.2 lies outside the duct [0, 1.0]"),
        ],
    )
    def test_greens_settings_are_config_errors(self, tmp_path, capsys, keys, message):
        # k=5, M=0.3: N0 = 1
        p = tmp_path / "run.cfg"
        p.write_text(MINIMAL + keys)
        out = tmp_path / "out"
        assert dispatch(["greens", "--config", str(p), "--out", str(out)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (out / "greens.csv").exists()

    @pytest.mark.parametrize("y2", ["0", "1"])
    def test_greens_source_on_a_wall(self, tmp_path, y2):
        p = tmp_path / "run.cfg"
        p.write_text(MINIMAL + f"[source]\ny2 = {y2}\n[grid]\nn_x2 = 5\ndelta = 0.25\n")
        out = tmp_path / "out"
        assert dispatch(["greens", "--config", str(p), "--out", str(out)]) == EXIT_OK

    def test_last_mode_is_solved(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text(MINIMAL + "[source]\nmode = 3\n[grid]\nn_modes = 4\n")
        out = tmp_path / "out"
        assert dispatch(["solve", "--config", str(p), "--out", str(out)]) == EXIT_OK
        rows = [r.split(",") for r in (out / "field.csv").read_text().splitlines()[1:]]
        assert max(abs(float(r[2])) + abs(float(r[3])) for r in rows) > 0.0


def _old_fmt(x) -> str:
    # the per-value formatter the column writer replaced
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".16e")


def _old_write_csv(path, header, rows):
    # the row-at-a-time writer the column writer replaced: the byte reference
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_old_fmt(v) if not isinstance(v, str) else v for v in row) + "\n")


SPECIAL_FLOATS = [
    math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e308,
    -1e308, 0.1, -1.0 / 3.0, 1.0, 123456789.0,
]


class TestWriteCsv:
    """The column writer's bytes equal the row writer's."""

    @staticmethod
    def _assert_same_bytes(tmp_path, columns):
        header = [f"c{j}" for j in range(len(columns))]
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        _write_csv(new, header, columns)
        _old_write_csv(old, header, zip(*columns))
        assert new.read_bytes() == old.read_bytes()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_tables(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 3000))
        scale = 10.0 ** rng.integers(-300, 300, n)
        columns = [
            np.arange(n),
            rng.standard_normal(n) * scale,
            rng.standard_normal(n).tolist(),  # a list of Python floats
            rng.integers(-(2**62), 2**62, n),
            rng.standard_normal((n, 3))[:, 1],  # a strided view
            (rng.standard_normal(n) + 1j * rng.standard_normal(n)).imag,
        ]
        self._assert_same_bytes(tmp_path, columns)

    def test_special_values(self, tmp_path):
        n = len(SPECIAL_FLOATS)
        floats = np.array(SPECIAL_FLOATS)
        self._assert_same_bytes(
            tmp_path,
            [SPECIAL_FLOATS, floats, floats.astype(np.longdouble), floats[::-1], range(n)],
        )
        for v in SPECIAL_FLOATS:
            assert _fmt(v) == _old_fmt(v)

    def test_bool_int_and_str_columns(self, tmp_path):
        columns = [
            [True, False, True],
            np.array([False, True, True]),
            np.array([7, -3, 0], dtype=np.int64),
            ["propagating", "evanescent", "singular"],
            [0.5, -0.25, 1e-7],
        ]
        self._assert_same_bytes(tmp_path, columns)
        for v in (True, False, np.True_, np.int64(-9), 12, 2.5, np.float64(-0.0)):
            assert _fmt(v) == _old_fmt(v)
        assert _fmt("modal") == "modal"

    def test_zero_rows(self, tmp_path):
        self._assert_same_bytes(tmp_path, [np.zeros(0), [], np.zeros(0, dtype=int)])
        assert (tmp_path / "new.csv").read_text() == "c0,c1,c2\n"

    @pytest.mark.parametrize(
        "n", [_CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1, 2 * _CHUNK_ROWS + 1]
    )
    def test_chunk_edges(self, tmp_path, n):
        rng = np.random.default_rng(n)
        self._assert_same_bytes(tmp_path, [np.arange(n), rng.standard_normal(n), ["s"] * n])

    def test_columns_of_unequal_length_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            _write_csv(tmp_path / "bad.csv", ["a", "b"], [np.zeros(3), np.zeros(2)])


class TestDispatch:
    @pytest.fixture()
    def cfg_file(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text(MINIMAL)
        return p

    def test_missing_config_is_io_error(self, tmp_path):
        status = dispatch(["modes", "--config", str(tmp_path / "nope.cfg")])
        assert status == EXIT_IO

    def test_bad_config_is_config_error(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("[duct]\nd = 1\nM = 2\nk = 5\n")
        assert dispatch(["modes", "--config", str(p)]) == EXIT_CONFIG

    def test_degenerate_layer_is_numerical_error(self, tmp_path):
        # zero absorption with a phase-resonant layer length makes the
        # finite-layer Robin coefficients degenerate at mode 0
        L = 2.0 * math.pi / (2.0 * 5.0 / (1.0 - 0.09))
        p = tmp_path / "res.cfg"
        p.write_text(
            f"[duct]\nd = 1\nM = 0.3\nk = 5\n[pml]\nsigma_plus = 0\nL = {L!r}\n"
            "[source]\nmode = 0\n[grid]\nformulation = pml_reduced\nn_modes = 2\n"
        )
        out = tmp_path / "out"
        status = dispatch(["solve", "--config", str(p), "--out", str(out)])
        assert status == EXIT_NUMERICAL

    def test_full_layer_default_grid_is_valid(self, tmp_path):
        # the default spacing leaves L = 1.3 a fractional number of cells;
        # without a given delta the solve refines the grid instead of failing
        text = (
            "[duct]\nd = 1\nM = 0.3\nk = 7\n[pml]\nsigma_plus = 5\nL = 1.3\n"
            "[grid]\nformulation = pml_full\nn_modes = 4\n"
        )
        p = tmp_path / "full.cfg"
        p.write_text(text)
        out = tmp_path / "out"
        assert dispatch(["solve", "--config", str(p), "--out", str(out)]) == EXIT_OK
        assert (out / "field.csv").read_text().startswith("x1,x2,re_p,im_p\n")
        p.write_text(text + "delta = 0.0089\n")
        assert dispatch(["solve", "--config", str(p), "--out", str(out)]) == EXIT_CONFIG

    @pytest.mark.parametrize("shape, status", [("quadratic", EXIT_OK), ("tabulated", EXIT_CONFIG)])
    def test_profile_shape(self, tmp_path, capsys, shape, status):
        # the layer has one absorption profile; any other shape is refused
        p = tmp_path / "run.cfg"
        p.write_text(MINIMAL + f"shape = {shape}\n[grid]\nn_modes = 4\n")
        out = tmp_path / "out"
        assert dispatch(["solve", "--config", str(p), "--out", str(out)]) == status
        if status == EXIT_CONFIG:
            assert "shape 'tabulated'" in capsys.readouterr().err
            assert not out.exists()

    def test_import_leaves_out_scipy_integrate(self):
        # only the test oracles integrate adaptively; importing
        # scipy.integrate would add to every run's start-up time and memory
        src = str(Path(ductpml.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = (
            "import sys, ductpml.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.integrate')))"
        )
        run = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            check=True,
        )
        assert run.stdout.strip() == "[]"

    def test_modes_csv(self, cfg_file, tmp_path):
        out = tmp_path / "out"
        assert dispatch(["modes", "--config", str(cfg_file), "--out", str(out)]) == EXIT_OK
        lines = (out / "modes.csv").read_text().splitlines()
        assert lines[0] == "n,re_beta_plus,im_beta_plus,re_beta_minus,im_beta_minus,kind"
        assert len(lines) == 32  # header + N0 + 30 modes
        first = lines[1].split(",")
        assert first[-1] == "propagating"
        assert float(first[1]) == pytest.approx(5.0 / 1.3, rel=1e-12)

    def test_pml_csv(self, cfg_file, tmp_path):
        out = tmp_path / "out"
        assert dispatch(["pml", "--config", str(cfg_file), "--out", str(out)]) == EXIT_OK
        lines = (out / "pml.csv").read_text().splitlines()
        assert lines[0].startswith("n,re_nu_plus,im_nu_plus,reflection,measured_gap")
        row0 = lines[1].split(",")
        assert int(row0[0]) == 0
        assert row0[6] in ("0", "1")

    def test_noise_csv_and_seed_override(self, cfg_file, tmp_path):
        out1, out2, out3 = (tmp_path / f"o{i}" for i in range(3))
        for out, seed in ((out1, None), (out2, None), (out3, "123")):
            argv = ["noise", "--config", str(cfg_file), "--out", str(out)]
            if seed:
                argv += ["--seed", seed]
            assert dispatch(argv) == EXIT_OK
        base1 = (out1 / "noise.csv").read_bytes()
        assert base1 == (out2 / "noise.csv").read_bytes()
        assert base1 != (out3 / "noise.csv").read_bytes()
        header = base1.decode().splitlines()[0]
        assert header == "cell_index,x1_lo,x1_hi,x2_lo,x2_hi,xi"

    def test_greens_csv(self, cfg_file, tmp_path):
        out = tmp_path / "out"
        assert dispatch(["greens", "--config", str(cfg_file), "--out", str(out)]) == EXIT_OK
        lines = (out / "greens.csv").read_text().splitlines()
        assert lines[0] == "x1,x2,re_g,im_g,representation_used"
        reps = {line.rsplit(",", 1)[-1] for line in lines[1:]}
        assert "modal" in reps and "kummer" in reps

    def test_solve_outputs(self, cfg_file, tmp_path):
        out = tmp_path / "out"
        assert dispatch(["solve", "--config", str(cfg_file), "--out", str(out)]) == EXIT_OK
        field = (out / "field.csv").read_text().splitlines()
        modal = (out / "modal.csv").read_text().splitlines()
        assert field[0] == "x1,x2,re_p,im_p"
        assert modal[0] == "n,x1,re_pn,im_pn"
        assert len(field) > 100 and len(modal) > 100

    def test_study_equiv_and_summary(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text(
            MINIMAL
            + "[run]\nequiv_deltas = 0.03125,0.015625,0.0078125\n[grid]\nn_modes = 4\n"
        )
        out = tmp_path / "out"
        assert dispatch(["study", "equiv", "--config", str(p), "--out", str(out)]) == EXIT_OK
        summary = dict(
            line.split("=", 1)
            for line in (out / "study_equiv_summary.txt").read_text().splitlines()
        )
        assert summary["pass"] == "1"
        assert float(summary["fitted_rate"]) >= 1.9
        body = (out / "study_equiv.csv").read_text().splitlines()
        assert body[0] == "abscissa,error_mean,error_stderr,excluded_flag"
        assert len(body) == 4

    def test_study_h_thread_invariance(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text(
            MINIMAL + "[run]\nsamples = 10\nh_levels = 0.25,0.125\nbase_seed = 5\n"
        )
        outs = []
        for threads in ("1", "3"):
            out = tmp_path / f"out{threads}"
            assert (
                dispatch(
                    [
                        "study",
                        "h",
                        "--config",
                        str(p),
                        "--out",
                        str(out),
                        "--threads",
                        threads,
                    ]
                )
                == EXIT_OK
            )
            outs.append((out / "study_h.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_study_l_csv(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text(MINIMAL + "[run]\nl_values = 0.5,1,1.5,2\n")
        out = tmp_path / "out"
        assert dispatch(["study", "L", "--config", str(p), "--out", str(out)]) == EXIT_OK
        summary = dict(
            line.split("=", 1)
            for line in (out / "study_L_summary.txt").read_text().splitlines()
        )
        assert summary["pass"] == "1"

    def test_study_l_without_absorption_exits_ok(self, tmp_path):
        # sigma_plus = 0: every abscissa is 0, so no rate is fitted
        p = tmp_path / "run.cfg"
        p.write_text(MINIMAL.replace("sigma_plus = 5", "sigma_plus = 0"))
        out = tmp_path / "out"
        assert dispatch(["study", "L", "--config", str(p), "--out", str(out)]) == EXIT_OK
        summary = dict(
            line.split("=", 1)
            for line in (out / "study_L_summary.txt").read_text().splitlines()
        )
        assert summary["fitted_rate"] == "nan"
        assert summary["pass"] == "0"
        rows = (out / "study_L.csv").read_text().splitlines()[1:]
        assert len(rows) == 4
        assert all(float(r.split(",")[1]) > 0.0 for r in rows)

    def test_study_total_csv(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text(
            MINIMAL + "[run]\nsamples = 6\nh_levels = 0.25,0.125\nl_values = 1,2\n"
        )
        out = tmp_path / "out"
        assert dispatch(["study", "total", "--config", str(p), "--out", str(out)]) == EXIT_OK
        body = (out / "study_total.csv").read_text().splitlines()
        assert body[0] == "h,L,sigma_tilde_integral,error_mean,error_stderr"
        assert len(body) == 5

    def test_study_total_uses_sigma_minus(self, tmp_path):
        run = "[run]\nsamples = 6\nh_levels = 0.25,0.125\nl_values = 0.5,1\n[grid]\nn_modes = 6\n"
        tables = {}
        for sm in ("", "sigma_minus = 5\n", "sigma_minus = 40\n"):
            p = tmp_path / "run.cfg"
            p.write_text(MINIMAL.replace("sigma_plus = 5\n", "sigma_plus = 5\n" + sm) + run)
            out = tmp_path / f"out{len(tables)}"
            assert dispatch(["study", "total", "--config", str(p), "--out", str(out)]) == EXIT_OK
            tables[sm] = (out / "study_total.csv").read_text()
        assert tables[""] == tables["sigma_minus = 5\n"]  # sigma_minus defaults to sigma_plus
        assert tables[""] != tables["sigma_minus = 40\n"]
        rc = parse_config(MINIMAL.replace("sigma_plus = 5\n", "sigma_plus = 5\nsigma_minus = 40\n") + run)
        res = run_total_error_study(
            rc.duct, rc.h_levels(), rc.l_values(), 5.0, rc.samples(), rc.base_seed(),
            rect=rc.forcing_rect(), n_modes=rc.n_modes(), sigma_minus=40.0,
        )
        rows = [line.split(",") for line in tables["sigma_minus = 40\n"].splitlines()[1:]]
        assert [float(r[3]) for r in rows] == list(res.error_mean.ravel())

    @pytest.mark.parametrize(
        "h_levels, samples, expected",
        [
            ("0.125,0.0625,0.041666666666666664", "4", EXIT_NUMERICAL),  # 1/24 not dyadic
            ("0.125,0.08333333333333333,0.0625", "4", EXIT_NUMERICAL),  # 1/12 not dyadic
            ("0.125,0.0625,0.03125", "1", EXIT_CONFIG),  # no standard error from 1 sample
            ("0.125,0.125,0.0625", "4", EXIT_CONFIG),  # a repeated diameter
        ],
    )
    def test_study_total_validates_like_study_h(
        self, tmp_path, capsys, h_levels, samples, expected
    ):
        p = tmp_path / "run.cfg"
        p.write_text(MINIMAL + f"[run]\nh_levels = {h_levels}\nl_values = 1,2\n")
        for kind in ("h", "total"):
            out = tmp_path / kind
            argv = ["study", kind, "--config", str(p), "--out", str(out), "--samples", samples]
            assert dispatch(argv) == expected
            assert capsys.readouterr().err.startswith("ductpml: ")
            assert not any(out.iterdir())

    def test_seventeen_significant_digits(self, cfg_file, tmp_path):
        out = tmp_path / "out"
        dispatch(["modes", "--config", str(cfg_file), "--out", str(out)])
        row = (out / "modes.csv").read_text().splitlines()[1].split(",")
        mantissa = row[1].split("e")[0]
        assert len(mantissa.replace("-", "").replace(".", "")) == 17
