import contextlib
import dataclasses
import io
import json
import math
import os
import re
import tempfile
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import unipark._reprtext
import unipark.cli
import unipark.lyapunov
import unipark.svg
import unipark.verify
from oracles import (
    polyline_reference,
    trajectory_csv_reference,
    trajectory_json_reference,
    verify_report_reference,
)
from unipark.cli import main, write_trajectory
from unipark.controllers import ControllerId, Gains
from unipark.lyapunov import CompositeKind, CompositeOrder
from unipark.simulate import Scenario, _forked_map, integrate, sweep
from unipark.spaces import CartesianState, PolarState
from unipark.svg import SvgPath, render_paths, write_svg


def run(argv):
    return main(argv)


def assert_no_children():
    # Every forked worker has been reaped: none is running or a zombie.
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def read_rows(path: Path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, data


# libac's law divides by zero in the first RK4 step from here at dt 1.
LIBAC_DIVIDES = "1,2.891592653589793,0.7853981633974483"


class TestSimulateCommand:
    def test_writes_artifacts_and_converges(self, tmp_path):
        code = run([
            "simulate", "--controller", "globa", "--gains", "1,1,1,1",
            "--init-cart", "2,2,0", "--t-max", "60", "--out", str(tmp_path),
        ])
        assert code == 0
        header, data = read_rows(tmp_path / "traj_globa.csv")
        assert header == ["t", "x", "y", "theta", "rho", "delta", "gamma", "v", "omega", "V", "metric"]
        assert data[0, 1] == pytest.approx(2.0, abs=1e-12)
        assert data[-1, 10] < 1e-4 * 1.01
        payload = json.loads((tmp_path / "traj_globa.json").read_text())
        assert payload["schema_version"] == 1
        assert payload["termination"] == "converged"
        svg = (tmp_path / "traj_globa.svg").read_text()
        assert svg.startswith("<svg")
        assert "polygon" in svg and "x [m]" in svg
        assert "href" not in svg  # self-contained

    def test_missing_controller_is_usage_error(self, tmp_path):
        assert run(["simulate", "--init-cart", "1,1,0", "--out", str(tmp_path)]) == 2

    def test_unknown_controller(self, tmp_path):
        assert run([
            "simulate", "--controller", "segway", "--init-cart", "1,1,0",
            "--out", str(tmp_path),
        ]) == 2

    def test_frames_agree(self, tmp_path):
        for frame in ("polar", "cartesian"):
            assert run([
                "simulate", "--controller", "genova", "--init-cart", "0,-1,0",
                "--frame", frame, "--t-max", "10", "--tol", "1e-14",
                "--out", str(tmp_path / frame),
            ]) == 0
        _, a = read_rows(tmp_path / "polar" / "traj_genova.csv")
        _, b = read_rows(tmp_path / "cartesian" / "traj_genova.csv")
        n = min(len(a), len(b))
        assert np.abs(a[:n, 1:7] - b[:n, 1:7]).max() < 1e-6

    def test_deterministic_outputs(self, tmp_path):
        for sub in ("a", "b"):
            assert run([
                "simulate", "--controller", "bofo", "--init-polar", "1,0.5,1.2",
                "--t-max", "20", "--out", str(tmp_path / sub),
            ]) == 0
        for name in ("traj_bofo.csv", "traj_bofo.json", "traj_bofo.svg"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps({
            "controller": "genova", "gains": [1, 1, 1],
            "init_polar": [1.0, 0.5, -0.5], "t_max": 30.0,
        }))
        assert run(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o1")]) == 0
        # flag overrides the file's controller
        assert run([
            "simulate", "--config", str(cfg), "--controller", "glofo",
            "--out", str(tmp_path / "o2"),
        ]) == 0
        assert (tmp_path / "o2" / "traj_glofo.csv").exists()

    def test_env_var_overrides_out(self, tmp_path, monkeypatch):
        monkeypatch.setenv("UNIPARK_OUT", str(tmp_path / "envdir"))
        assert run([
            "simulate", "--controller", "genova", "--init-polar", "0.5,0,0",
            "--t-max", "10", "--out", str(tmp_path / "flagdir"),
        ]) == 0
        assert (tmp_path / "envdir" / "traj_genova.csv").exists()
        assert not (tmp_path / "flagdir").exists()


    @pytest.mark.parametrize("fields, flags", [
        ({"gains": {"k9": 1}}, []),
        ({}, ["--gains", "1,x"]),
        ({"composite_order": "zzz"}, []),
        ({"init_cart": [1, 0.5]}, []),
        ({"dt": "abc"}, []),
        ({}, ["--t-max", "nan"]),
        ({}, ["--tol", "nan"]),
        ({"barrier_margin": -5}, []),
        ({}, ["--gains=-1"]),
        ({"init_polar": [1, "nan", 0]}, []),
        ({"dt": True}, []),
        ({"init_polar": [True, 0.5, 0.2]}, []),
        ({"gains": [True, 1, 1, 1]}, []),
        ({"gains": {"k1": True}}, []),
        ({"dt": "0.01", "t_max": 2}, []),
        ({"t_max": "2"}, []),
        ({"tol": "1e-4", "t_max": 2}, []),
        ({"barrier_margin": "1e-9", "t_max": 2}, []),
        ({"dt": 10 ** 400}, []),
        ({"init_polar": ["1", "0.5", "0.2"], "t_max": 2}, []),
        ({"init_cart": [1, "0.5", 0], "t_max": 2}, []),
        ({"gains": ["1", 1, 1], "t_max": 2}, []),
        ({"gains": {"k1": "1"}, "t_max": 2}, []),
        ({"t_max": 0.2, "t_mx": 5}, []),
        ({"t_max": 0.2, "grid_polar": [[1, 0.5, 0.2]]}, []),
        ({"t_max": 0.2, "controllers": ["genova"]}, []),
        ({"t_max": 0.2, "schema_version": 2}, []),
        ({"t_max": 0.2, "schema_version": True}, []),
        ({"t_max": 0.2, "gains": 2}, []),
    ])
    def test_malformed_config_is_usage_error(self, tmp_path, capsys, fields, flags):
        cfg = {"controller": "genova", "init_polar": [1, 0.5, 0.2], **fields}
        if "init_cart" in cfg:
            del cfg["init_polar"]
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(cfg))
        assert run(["simulate", "--config", str(path), *flags, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_unknown_fields_are_named(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"controller": "genova", "init_polar": [1, 0.5, 0.2], "t_max": 0.2,
                                    "t_mx": 5, "controler": "globa"}))
        assert run(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: simulate ") and "'t_mx'" in line and "'controler'" in line

    @pytest.mark.parametrize("command, fields", [
        ("simulate", {"controller": "genova", "init_polar": [1, 0.5, 0.2]}),
        ("sweep", {"controller": "genova", "grid_polar": [[1, 0.5, 0.2]]}),
    ])
    def test_schema_version_one_runs(self, tmp_path, command, fields):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"schema_version": 1, "dt": 0.01, "t_max": 0.2, **fields}))
        assert run([command, "--config", str(path), "--format", "json", "--out", str(tmp_path / "out")]) == 0

    def test_comma_separated_strings_parse(self, tmp_path):
        # A list field may be a comma-separated string, in a config file as
        # on the command line; all three spellings run the same scenario.
        lists = {"gains": [1, 1, 0.1, 1], "init_polar": [1, 0.5, 0.2]}
        strings = {"gains": "1,1,0.1,1", "init_polar": "1,0.5,0.2"}
        for name, fields in (("lists", lists), ("strings", strings), ("flags", {})):
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps({"controller": "genova", "dt": 0.01, "t_max": 2, **fields}))
            flags = ["--gains", "1,1,0.1,1", "--init-polar", "1,0.5,0.2"] if name == "flags" else []
            assert run(["simulate", "--config", str(cfg), *flags, "--format", "csv",
                        "--out", str(tmp_path / name)]) == 0
        want = (tmp_path / "lists" / "traj_genova.csv").read_bytes()
        for name in ("strings", "flags"):
            assert (tmp_path / name / "traj_genova.csv").read_bytes() == want

    @pytest.mark.parametrize("where", ["under_a_file", "file_is_a_directory"])
    def test_unusable_out_is_usage_error(self, tmp_path, capsys, monkeypatch, where):
        (tmp_path / "file").write_text("")
        if where == "under_a_file":
            # The output directory cannot be made, so nothing is integrated.
            out, bad = tmp_path / "file" / "out", tmp_path / "file" / "out"
            monkeypatch.setattr(unipark.cli, "integrate", None)
        else:
            out, bad = tmp_path, tmp_path / "traj_genova.csv"
            bad.mkdir()
        assert run(["simulate", "--controller", "genova", "--init-polar", "1,0,0", "--dt", "0.01",
                    "--t-max", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {str(bad)!r}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("flags", [["--t-max", "1e300", "--dt", "1e-300"], ["--dt", "1e-320"]])
    def test_step_count_overflow_is_usage_error(self, tmp_path, capsys, flags):
        assert run(["simulate", "--controller", "globa", "--init-polar", "1,0,0", *flags,
                    "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: t_max / dt must be finite") and err.count("\n") == 1

    @pytest.mark.parametrize("frame, t_max", [("polar", "18000"), ("cartesian", "72000")])
    def test_overflowing_step_is_numeric(self, tmp_path, capsys, frame, t_max):
        # At dt 900 the state overflows; in the polar chart an RK4 stage
        # raises (math.cos(inf)) before the stepped state can be tested.
        assert run([
            "simulate", "--controller", "globa-cons", "--init-polar", "1,3,2", "--dt", "900",
            "--t-max", t_max, "--frame", frame, "--out", str(tmp_path),
        ]) == 1
        err = capsys.readouterr().err
        assert err.count("run failed") == 1 and "termination numeric" in err
        assert "Traceback" not in err
        assert json.loads((tmp_path / "traj_globa-cons.json").read_text())["termination"] == "numeric"

    def test_stage_error_is_numeric(self, tmp_path, capsys):
        # libac's second RK4 stage lands on delta = pi, where its law divides
        # by zero: the run fails as numeric, without a traceback.
        assert run([
            "simulate", "--controller", "libac", "--init-polar", LIBAC_DIVIDES, "--dt", "1",
            "--t-max", "10", "--out", str(tmp_path),
        ]) == 1
        assert capsys.readouterr().err == "run failed: termination numeric\n"

    @pytest.mark.parametrize("law, dt", [("globa", "109.1"), ("globa", "519.9"), ("globa-interp", "79.87")])
    def test_overflowing_drawing(self, tmp_path, capsys, law, dt):
        # The run ends numeric with coordinates near 1.7e308, whose padded
        # extent overflows: the drawing is laid out in halved coordinates.
        assert run([
            "simulate", "--controller", law, "--init-polar", "1,3,2", "--dt", dt, "--t-max", "21820",
            "--frame", "cartesian", "--out", str(tmp_path),
        ]) == 1
        assert capsys.readouterr().err == "run failed: termination numeric\n"
        cart = np.loadtxt(tmp_path / f"traj_{law}.csv", delimiter=",", skiprows=1, usecols=(1, 2))
        assert np.abs(cart).max() > 1e308
        svg = (tmp_path / f"traj_{law}.svg").read_text()
        assert svg.endswith("</svg>") and not re.search("nan|inf", svg)

    def test_origin_tick_reads_zero(self, tmp_path):
        # The x ticks are 4e307 apart, and stepping to the origin from
        # -1.6e308 leaves about 1e292 of rounding there; its label is still 0.
        assert run([
            "simulate", "--controller", "globa", "--init-polar", "1,3,2", "--dt", "109.1", "--t-max", "21820",
            "--frame", "cartesian", "--out", str(tmp_path),
        ]) == 1
        svg = (tmp_path / "traj_globa.svg").read_text()
        x_labels = re.findall(r'text-anchor="middle" fill="#444">([^<]*)<', svg)
        assert x_labels == ["-1.6e+308", "-1.2e+308", "-8e+307", "-4e+307", "0"]

    @pytest.mark.parametrize("law, frame, code", [
        ("globa-cons", "cartesian", 0), ("globa-cons", "polar", 1), ("globa", "polar", 0),
        ("glofo", "polar", 0), ("globa-interp", "polar", 0),
    ])
    def test_diverging_run_warns_nothing(self, tmp_path, law, frame, code):
        # At dt 900 these runs diverge; their logs overflow to inf or hold
        # values near the float range, and no numpy warning is printed.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run([
                "simulate", "--controller", law, "--init-polar", "1,3,2", "--dt", "900",
                "--t-max", "18000", "--frame", frame, "--out", str(tmp_path),
            ]) == code


def _scenario(kind: str) -> Scenario:
    if kind == "polar":
        return Scenario(controller=ControllerId.BOFO, initial=PolarState(1.2, 0.7, -0.4), dt=0.01)
    if kind == "crossing":  # Cartesian chart; crosses the x-axis in front of and behind the target
        return Scenario(controller=ControllerId.GLOBA, gains=Gains(1.0, 1.0, 0.1, 1.0),
                        initial=CartesianState(2.0, 0.4, 0.0), frame="cartesian", dt=0.05, t_max=120.0)
    if kind == "radial":  # y = -rho sin 0 logs -0.0 in every row
        return Scenario(controller=ControllerId.GENOVA, initial=PolarState(1.5, 0.0, 0.0), dt=0.01)
    if kind == "one_row":  # converged at t = 0
        return Scenario(controller=ControllerId.GENOVA, initial=PolarState(1e-5, 0.0, 0.0))
    assert kind == "long"  # t_max reached after more rows than one chunk
    return Scenario(controller=ControllerId.GENOVA, initial=PolarState(1.2, 0.7, -0.4), dt=1e-3, t_max=6.0)


class TestTrajectoryWriters:
    """The shared writer is byte for byte the per-value CSV and json.dump JSON."""

    def _assert_matches_reference(self, traj, tmp_path):
        write_trajectory(traj, tmp_path / "t.csv", tmp_path / "t.json")
        assert (tmp_path / "t.csv").read_text() == trajectory_csv_reference(traj)
        assert (tmp_path / "t.json").read_text() == trajectory_json_reference(traj)

    @pytest.mark.parametrize("kind", ["polar", "crossing", "radial", "one_row", "long"])
    def test_runs(self, tmp_path, kind):
        traj = integrate(_scenario(kind))
        rows = {"one_row": 1, "long": 6001}.get(kind)
        assert rows is None or len(traj.t) == rows
        assert (kind == "crossing") == bool(traj.crossings)
        y = traj.cartesian[:, 1]
        assert kind != "radial" or (np.signbit(y) & (y == 0.0)).sum() > 900
        assert kind != "long" or len(traj.t) > 20 * unipark.cli._CHUNK_ROWS
        self._assert_matches_reference(traj, tmp_path)

    @pytest.mark.parametrize("chunk_rows", [1, 7, 355])
    def test_chunk_boundaries(self, tmp_path, monkeypatch, chunk_rows):
        # 355 rows: many chunks, a partial last chunk, and exactly one chunk.
        monkeypatch.setattr(unipark.cli, "_CHUNK_ROWS", chunk_rows)
        traj = integrate(_scenario("crossing"))
        assert len(traj.t) == 355
        self._assert_matches_reference(traj, tmp_path)

    def test_non_finite_values(self, tmp_path, monkeypatch):
        traj = integrate(_scenario("polar"))
        V, omega = traj.V.copy(), traj.omega.copy()
        V[[0, 5, -1]] = [math.nan, math.inf, -math.inf]
        omega[[1, 5, 9]] = [-math.inf, math.nan, math.inf]
        traj = dataclasses.replace(traj, V=V, omega=omega)
        monkeypatch.setattr(unipark.cli, "_CHUNK_ROWS", 4)  # finite and non-finite chunks
        self._assert_matches_reference(traj, tmp_path)
        text = (tmp_path / "t.json").read_text()
        assert "NaN" in text and "-Infinity" in text and "nan" not in text
        assert ",nan," in (tmp_path / "t.csv").read_text()

    @pytest.mark.parametrize("fmt", ["csv", "json", "csv,json"])
    def test_each_format_alone(self, tmp_path, monkeypatch, fmt):
        runs = []
        real = unipark.cli.integrate
        monkeypatch.setattr(unipark.cli, "integrate", lambda s: runs.append(real(s)) or runs[-1])
        assert run([
            "simulate", "--controller", "globa", "--gains", "1,1,0.1,1", "--init-cart", "2,0.4,0",
            "--frame", "cartesian", "--dt", "0.05", "--format", fmt, "--out", str(tmp_path),
        ]) == 0
        [traj] = runs
        assert traj.crossings
        wanted = fmt.split(",")
        assert sorted(p.suffix[1:] for p in tmp_path.iterdir()) == sorted(wanted)
        if "csv" in wanted:
            assert (tmp_path / "traj_globa.csv").read_text() == trajectory_csv_reference(traj)
        if "json" in wanted:
            assert (tmp_path / "traj_globa.json").read_text() == trajectory_json_reference(traj)

    def test_polylines(self):
        polar, crossing, one_row, long = (
            integrate(_scenario(k)).cartesian for k in ("polar", "crossing", "one_row", "long")
        )
        chunk = unipark.svg._CHUNK_VERTICES
        assert len(long) > 2 * chunk + 1 and len(long) % chunk  # a partial last chunk
        far = crossing * np.array([-40.0, 25.0, 1.0]) + np.array([3.0, -7.0, 0.0])
        for paths in ([polar], [one_row], [polar, crossing, one_row], [far, polar],
                      [long], [long[:2 * chunk + 1], long[:2 * chunk], polar]):
            svg_paths = [SvgPath(a, label="p") for a in paths]
            drawn = re.findall(r'<polyline points="([^"]*)"', render_paths(svg_paths))
            assert drawn == polyline_reference(svg_paths)

    def test_write_svg_is_render_paths(self, tmp_path):
        long, crossing = (integrate(_scenario(k)).cartesian for k in ("long", "crossing"))
        paths = [SvgPath(long, label="long"), SvgPath(crossing, label="crossing", color="#123456"),
                 SvgPath(long[:2 * unipark.svg._CHUNK_VERTICES], label="long")]
        write_svg(tmp_path / "o.svg", paths)
        assert (tmp_path / "o.svg").read_bytes() == render_paths(paths).encode()

    def test_write_svg_memory_is_bounded(self, tmp_path):
        # The whole polyline formatted at once would hold its text, its
        # 400k floats and their list and tuple: several times the document.
        s = np.linspace(0.0, 40.0, 200_000)
        r = np.exp(-0.05 * s)
        path = SvgPath(np.column_stack((r * np.cos(s), r * np.sin(s), s)))
        out = tmp_path / "big.svg"
        tracemalloc.start()
        try:
            write_svg(out, [path])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < out.stat().st_size


def points_text_reference(screen):
    """The polyline text of one chunk, one Python string per coordinate."""
    return " ".join(["%.2f,%.2f"] * len(screen)) % tuple(screen.ravel().tolist())


class TestPolylineText:
    """The digit-table polyline text is byte for byte the ``%`` formatting."""

    @staticmethod
    def _assert_matches_reference(values):
        screen = np.asarray(values, dtype=float).reshape(-1, 2)
        assert unipark.svg._points_text(screen) == points_text_reference(screen)

    def test_every_tie_and_its_neighbours(self):
        # The ties k/200 are where rint(100 v) and "%.2f" can part.
        ties = np.arange(199_800) / 200.0
        # With the largest float below 999, which "%.2f" writes as 999.00.
        values = np.concatenate((ties, np.nextafter(ties[1:], 0.0), np.nextafter(ties, 999.0),
                                 [np.nextafter(999.0, 0.0)]))
        start = time.perf_counter()
        self._assert_matches_reference(values)
        assert time.perf_counter() - start < 1.0

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(*[st.floats(0.0, 999.0, exclude_max=True)] * 2), min_size=1, max_size=150))
    def test_values_in_range(self, values):
        self._assert_matches_reference(values)

    @pytest.mark.parametrize("odd", [-0.0, math.nan, math.inf, -math.inf, -0.004, -3.0, 999.0, 999.5, 1e300])
    def test_fallback(self, odd):
        self._assert_matches_reference([12.345, 6.0, odd, 0.005, 998.995, 0.0])

    def test_document_across_a_chunk(self, monkeypatch):
        s = np.linspace(0.0, 8.0, unipark.svg._CHUNK_VERTICES + 1)
        paths = [SvgPath(np.column_stack((np.cos(s) - 0.3, np.sin(s), s)), label="ring")]
        drawn = render_paths(paths)
        monkeypatch.setattr(unipark.svg, "_points_text", points_text_reference)
        assert drawn == render_paths(paths)

    @pytest.mark.parametrize("x, y", [(1.7e308, -1.7e308), (-1.7e308, 1.7e308), (1.7e308, 1.7e308)])
    def test_overflowing_extent(self, x, y):
        # Extents of 3.4e308, beyond the largest float, even after halving.
        far = np.array([[x, 0.0, 0.0], [0.0, y, 1.0], [-x, -y, 2.0]])
        svg = render_paths([SvgPath(far, label="far")])
        assert not re.search("nan|inf", svg)
        w, h = map(int, re.match(r'<svg [^>]*width="(\d+)" height="(\d+)"', svg).groups())
        [points] = re.findall(r'<polyline points="([^"]*)"', svg)
        screen = np.array([p.split(",") for p in points.split()], dtype=float)
        assert screen.shape == (3, 2)
        assert (screen >= 0).all() and (screen[:, 0] <= w).all() and (screen[:, 1] <= h).all()


def repr_rows_reference(chunk):
    """The CSV rows of one chunk, one ``repr`` per value."""
    return "".join(",".join(map(repr, row)) + "\n" for row in chunk.tolist())


# Shortest forms of 1 and 17 digits, the layout switches at 1e-4 and 1e16,
# and the ends of the normal range.
REPR_EDGES = [
    0.0, -0.0, 1.0, 5.0, 3e-7, 2e200, 0.1, 0.3, 1.2345678901234567, 1.7976931348623157e308,
    2.2250738585072014e-308, 1e-5, 1e-4, 9999999999999998.0, 1e16, 2.0**53 - 1, 2.0**53, 2.0**53 + 2,
    1e22, 1e23, 1e-99, 1e-100, 1e99, 1e100, 123456.789, 0.00012345678901234567, 1234567890123456.0,
]


class TestReprRows:
    """The numpy digits are byte for byte ``repr``, on every float64."""

    @staticmethod
    def _assert_matches_reference(values, cols, monkeypatch=None):
        values = np.asarray(values, dtype=float)
        chunk = np.append(values, np.ones(-len(values) % cols)).reshape(-1, cols)
        if monkeypatch is not None:  # finite and normal: no value goes through repr
            monkeypatch.setattr(unipark._reprtext, "repr", None, raising=False)
        assert unipark._reprtext.repr_rows(chunk) == repr_rows_reference(chunk)

    def test_edges(self, monkeypatch):
        normal = np.array(REPR_EDGES + [np.nextafter(v, d) for v in (1e-5, 1e-4) for d in (0.0, 1.0)])
        self._assert_matches_reference(np.concatenate([normal, -normal]), 11, monkeypatch)

    @pytest.mark.parametrize("odd", [5e-324, np.nextafter(2.2250738585072014e-308, 0.0), math.nan,
                                     math.inf, -math.inf])
    def test_fallback(self, odd):
        self._assert_matches_reference(REPR_EDGES + [odd], 3)

    def test_random_bit_patterns(self, monkeypatch):
        # 2^20 uniform 64-bit patterns, the non-finite and subnormal ones
        # (about 1 in 1000) left out, in chunks of 2^16 values.
        values = np.random.default_rng(27).integers(0, 2**64, 2**20, dtype=np.uint64, endpoint=False)
        values = values.view(np.float64)
        values = values[np.isfinite(values) & (np.abs(values) >= 2.2250738585072014e-308)]
        values = values[:len(values) // 16 * 16]
        monkeypatch.setattr(unipark._reprtext, "repr", None, raising=False)
        chunks = [values[i:i + 2**16].reshape(-1, 16) for i in range(0, len(values), 2**16)]
        assert sum(c.size for c in chunks) > 10**6
        got = "".join(unipark._reprtext.repr_rows(c) for c in chunks)
        assert got == "".join(repr_rows_reference(c) for c in chunks)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=60), st.integers(1, 11))
    def test_any_float(self, values, cols):
        # Any chunk, and the same chunk with its NaN, infinite and subnormal
        # values set to 1, which takes the numpy digits.
        self._assert_matches_reference(values, cols)
        a = np.array(values)
        self._assert_matches_reference(np.where(np.isfinite(a) & ((np.abs(a) >= 2.2250738585072014e-308)
                                                                   | (a == 0.0)), a, 1.0), cols)


class TestForkedMap:
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_free_worker_takes_the_next_item(self, monkeypatch, cpus):
        # One slow item, then fast ones: those run in the workers left free.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))

        def pid_of(x):
            if x == 0:
                time.sleep(1.0)
            return os.getpid()

        pids = _forked_map(pid_of, list(range(40)))
        assert_no_children()
        assert len(pids) == 40
        if cpus == 1:
            assert set(pids) == {os.getpid()}
        else:
            assert pids[0] not in pids[1:]

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_each_item_once_in_order(self, tmp_path, monkeypatch, cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        log = tmp_path / "calls.txt"

        def square(x):
            # A line per call in a file: the calls of forked workers count too.
            with open(log, "a") as fh:
                fh.write(f"{x}\n")
            return x * x

        items = list(range(57))
        assert _forked_map(square, items) == [x * x for x in items]
        assert_no_children()
        assert sorted(int(line) for line in log.read_text().split()) == items

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_worker_error_stops_the_dealing(self, tmp_path, monkeypatch, cpus):
        # Item 1 is a forked worker's first, and raises: as in the loop
        # [fn(x) for x in items], the items not yet taken are left undone.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        log = tmp_path / "calls.txt"

        def slow(x):
            with open(log, "a") as fh:
                fh.write(f"{x}\n")
            if x == 1:
                raise ValueError("item 1")
            time.sleep(0.01)
            return x

        with pytest.raises(ValueError, match="item 1"):
            _forked_map(slow, list(range(50)))
        assert_no_children()
        calls = log.read_text().split()
        # Only the items the other workers had taken, or took while the
        # failing one waited for the shared index, start after it.
        assert len(calls) - calls.index("1") - 1 < 10

    def test_worker_that_leaves_without_a_result(self, monkeypatch):
        # A forked worker that ends inside fn, through os._exit, writes
        # nothing to its pipe: the call raises once the caller is done.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        caller = os.getpid()

        def leave(x):
            if os.getpid() != caller:
                os._exit(0)
            return x

        with pytest.raises(RuntimeError, match="^a forked worker ended without a result$"):
            _forked_map(leave, list(range(4)))
        assert_no_children()

    def test_caller_holds_one_copy_of_a_worker_result(self, monkeypatch):
        # The caller takes item 0 and a worker item 1, each an 8 MiB array.
        # The worker's pickle is unpickled as it is read, so the caller never
        # holds it whole beside the array built from it.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        tracemalloc.start()
        try:
            out = _forked_map(lambda x: np.full(1 << 20, float(x)), [0, 1])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert_no_children()
        assert [a[0] for a in out] == [0.0, 1.0]
        assert peak <= sum(a.nbytes for a in out) + (1 << 20)

    def test_many_trivial_items(self, monkeypatch):
        # Far more indices than a pipe holds at once (64 KiB) are dealt.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        assert _forked_map(lambda x: -x, range(20_000)) == [-x for x in range(20_000)]
        assert_no_children()


class TestSweepCommand:
    def _config(self, tmp_path, grid):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({
            "controllers": ["barfli", "globa"],
            "gains": [1, 1, 0.1, 1],
            "t_max": 120.0,
            "grid_cart": grid,
        }))
        return cfg

    def test_summary_and_overlay(self, tmp_path):
        cfg = self._config(tmp_path, [[2.0, 0.4, 0.0], [0.0, -2.0, 0.0]])
        assert run(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        summary = json.loads((tmp_path / "out" / "sweep_summary.json").read_text())
        assert set(summary["controllers"]) == {"barfli", "globa"}
        barfli = summary["controllers"]["barfli"]
        globa = summary["controllers"]["globa"]
        assert all(r["front_crossings"] == 0 for r in barfli)
        assert any(r["front_crossings"] > 0 for r in globa)
        assert (tmp_path / "out" / "sweep_overlay.svg").exists()
        assert (tmp_path / "out" / "sweep_summary.txt").exists()

    @pytest.mark.parametrize("field", [{"controller": "globa"}, {"controllers": ["globa", "barfli"]}],
                             ids=lambda f: next(iter(f)))
    def test_controller_flag_overrides_config(self, tmp_path, field):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({**field, "dt": 0.01, "t_max": 1.0, "grid_polar": [[1.0, 0.5, 0.2]]}))
        assert run(["sweep", "--config", str(cfg), "--controller", "bagal", "--format", "json",
                    "--out", str(tmp_path / "out")]) in (0, 1)
        summary = json.loads((tmp_path / "out" / "sweep_summary.json").read_text())
        assert list(summary["controllers"]) == ["bagal"]

    def test_empty_grid_usage_error(self, tmp_path):
        cfg = self._config(tmp_path, [])
        assert run(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("fields", [{"grid_cart": None}, {"grid_polar": 3},
                                        {"controllers": 5, "grid_polar": [[1.0, 0.5, 0.2]]}])
    def test_non_list_field_usage_error(self, tmp_path, capsys, fields):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"controller": "globa", **fields}))
        assert run(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("fields", [{"controllers": [None, "genova"]}, {"controllers": ["genova", False]},
                                        {"controllers": [""]}, {"controller": "genova", "dt": True},
                                        {"controller": "genova", "grid_polar": [[1.0, True, 0.2]]},
                                        {"controller": "genova", "grid_polar": [["1", 0.5, 0.2]]},
                                        {"controller": "genova", "dt": "0.01"},
                                        {"controller": "genova", "gains": ["1", "1", "1"]},
                                        {"controller": "genova", "gains": {"k1": "1"}},
                                        {"controller": "genova", "extra": 1},
                                        {"controller": "genova", "init_polar": [1.0, 0.5, 0.2]},
                                        {"controller": "genova", "controllers": ["globa"]},
                                        {"controller": "genova", "schema_version": 2}, {}])
    def test_wrong_typed_field_usage_error(self, tmp_path, capsys, fields):
        # The last case has no controller at all.
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"t_max": 1.0, "grid_polar": [[1.0, 0.5, 0.2]], **fields}))
        assert run(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "out" / "sweep_summary.json").exists()

    @pytest.mark.parametrize("grid", [{"grid_cart": [[1.0, 0.0, 0.0], [math.nan, 0, 0]]},
                                      {"grid_polar": [[-1.0, 0.5, 0.2]]}])
    def test_invalid_grid_state_usage_error(self, tmp_path, capsys, grid):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"controller": "globa", **grid}))
        assert run(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_unusable_out_is_usage_error(self, tmp_path, capsys, monkeypatch):
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "out"
        monkeypatch.setattr(unipark.cli, "_forked_map", None)  # nothing is integrated
        cfg = self._config(tmp_path, [[2.0, 0.4, 0.0]])
        assert run(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {str(out)!r}: ") and err.count("\n") == 1

    def test_step_count_overflow_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"controller": "globa", "dt": 1e-320, "grid_polar": [[1.0, 0.5, 0.2]] * 2}))
        assert run(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: t_max / dt must be finite") and err.count("\n") == 1
        assert_no_children()

    def test_one_integration_per_point(self, tmp_path, monkeypatch):
        import unipark.simulate

        log = tmp_path / "calls.txt"
        real = unipark.simulate.integrate

        def counting(s):
            # A line per call in a file: the calls of forked workers count too.
            with open(log, "a") as fh:
                fh.write(f"{s.controller.value}\n")
            return real(s)

        # Both import sites are counted, so redrawing a point through the
        # CLI's own integrate would show up as a second call.
        monkeypatch.setattr(unipark.simulate, "integrate", counting)
        monkeypatch.setattr(unipark.cli, "integrate", counting)
        cfg = tmp_path / "sweep.json"
        # (1, 0, 0) sits on barfli's delta barrier, so that point errors and
        # the sweep exits 1.
        cfg.write_text(json.dumps({
            "controllers": ["barfli", "globa"], "dt": 0.01, "t_max": 20.0,
            "grid_cart": [[2.0, 0.4, 0.0], [0.0, -2.0, 0.0], [1.0, 0.0, 0.0]],
        }))
        assert run(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        summary = json.loads((tmp_path / "out" / "sweep_summary.json").read_text())
        ran = [r for recs in summary["controllers"].values() for r in recs if r["error"] is None]
        assert len(ran) == 5
        calls = log.read_text().splitlines()
        assert len(calls) == len(ran)
        svg = (tmp_path / "out" / "sweep_overlay.svg").read_text()
        assert svg.count("<polyline") == len(ran)

    def test_barrier_guard_is_failure(self, tmp_path):
        start = [1.0, 0.5, 0.0]
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({
            "controllers": ["bopa"], "barrier_margin": 3.0, "grid_polar": [start],
        }))
        assert run(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sw")]) == 1
        summary = json.loads((tmp_path / "sw" / "sweep_summary.json").read_text())
        assert summary["controllers"]["bopa"][0]["termination"] == "barrier_guard"
        sim = tmp_path / "sim.json"
        sim.write_text(json.dumps({
            "controller": "bopa", "barrier_margin": 3.0, "init_polar": start,
        }))
        assert run(["simulate", "--config", str(sim), "--out", str(tmp_path / "si")]) == 1

    def test_stage_error_is_numeric(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({
            "controllers": ["libac"], "dt": 1.0, "t_max": 10.0,
            "grid_polar": [[float(v) for v in LIBAC_DIVIDES.split(",")]],
        }))
        assert run(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        summary = json.loads((tmp_path / "out" / "sweep_summary.json").read_text())
        [rec] = summary["controllers"]["libac"]
        assert rec["termination"] == "numeric" and rec["error"] is None
        assert capsys.readouterr().err == ""

    def test_flags_override_config(self, tmp_path, monkeypatch):
        bases = []
        real = unipark.cli.sweep_point

        def spy(base, index, initial):
            bases.append(base)
            return real(base, index, initial)

        monkeypatch.setattr(unipark.cli, "sweep_point", spy)
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({
            "controllers": ["globa"], "gains": [1, 2, 3, 4], "dt": 0.01, "t_max": 0.5, "tol": 0.5,
            "grid_polar": [[1.0, 0.5, 0.2]],
        }))
        assert run(["sweep", "--config", str(cfg), "--dt", "0.02", "--composite", "cross",
                    "--out", str(tmp_path / "out")]) == 0
        assert bases == [Scenario(controller=ControllerId.GLOBA, gains=Gains(1.0, 2.0, 3.0, 4.0), dt=0.02,
                                  t_max=0.5, stop_tol=0.5, composite=CompositeKind.CROSS)]

    def test_diverging_sweep_warns_nothing(self, tmp_path):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({
            "controllers": ["globa-cons", "globa", "glofo", "globa-interp"], "dt": 900.0, "t_max": 18000.0,
            "grid_polar": [[1.0, 3.0, 2.0]],
        }))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        summary = json.loads((tmp_path / "out" / "sweep_summary.json").read_text())["controllers"]
        assert {law: recs[0]["termination"] for law, recs in summary.items()} == {
            "globa-cons": "numeric", "globa": "t_max", "glofo": "t_max", "globa-interp": "t_max"}

    def test_seven_controllers_seven_colours(self, tmp_path):
        names = ["genova", "bolsa", "bopa", "bagal", "glofo", "bofo", "globa"]
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({
            "controllers": names, "dt": 0.01, "t_max": 1.0, "grid_polar": [[1.0, 0.5, 0.2]],
        }))
        assert run(["sweep", "--config", str(cfg), "--format", "svg",
                    "--out", str(tmp_path / "out")]) == 0
        svg = (tmp_path / "out" / "sweep_overlay.svg").read_text()
        strokes = re.findall(r'<polyline [^>]*stroke="([^"]+)"', svg)
        assert len(strokes) == len(set(strokes)) == len(names)

    def test_deterministic(self, tmp_path):
        cfg = self._config(tmp_path, [[0.0, -2.0, 0.0]])
        for sub in ("s1", "s2"):
            assert run(["sweep", "--config", str(cfg), "--out", str(tmp_path / sub)]) == 0
        assert (tmp_path / "s1" / "sweep_summary.json").read_bytes() == (
            tmp_path / "s2" / "sweep_summary.json"
        ).read_bytes()

    def test_outputs_independent_of_worker_count(self, tmp_path, monkeypatch):
        # 2 laws x 4 points: barfli errors on (1, 0, 0), on its delta
        # barrier, and some runs end at t_max, others converge.
        grid = [[2.0, 0.4, 0.0], [0.0, -2.0, 0.0], [1.0, 0.0, 0.0], [8.0, 3.0, 1.0]]
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"controllers": ["barfli", "globa"], "dt": 0.01, "t_max": 15.0,
                                   "grid_cart": grid}))
        base = Scenario(controller=ControllerId.BARFLI, dt=0.01, t_max=15.0)
        outputs, records = [], []
        for cpus in ({0}, {0, 1, 2}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
            out = tmp_path / f"cpus{len(cpus)}"
            assert run(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
            outputs.append([(out / name).read_bytes()
                            for name in ("sweep_summary.json", "sweep_summary.txt", "sweep_overlay.svg")])
            records.append(repr(sweep(base, [CartesianState(*pose) for pose in grid])))
            assert_no_children()
        terminations = [r["termination"] for recs in json.loads(outputs[0][0])["controllers"].values()
                        for r in recs]
        assert {"converged", "t_max", "error"} <= set(terminations)
        assert outputs[0] == outputs[1]
        assert records[0] == records[1]

    def test_deals_slowest_law_first(self, tmp_path, monkeypatch):
        # At gains (1, 1, 0.1, 1) bagal's slowest pole is -0.113, globa's
        # and barfli's -1; libac and globa-cons have no pole formula.
        dealt = []

        def spy(fn, items):
            dealt.extend((base.controller.value, i) for base, i, _ in items)
            return _forked_map(fn, items)

        monkeypatch.setattr(unipark.cli, "_forked_map", spy)
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"controllers": ["globa", "bagal", "libac", "barfli", "globa-cons"],
                                   "gains": [1, 1, 0.1, 1], "dt": 0.01, "t_max": 0.5,
                                   "grid_polar": [[1.0, 0.5, 0.2], [1.5, -0.5, 0.2]]}))
        assert run(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        laws = ["libac", "globa-cons", "bagal", "globa", "barfli"]
        assert dealt == [(law, i) for law in laws for i in range(2)]
        # The results are put back in controller and grid order.
        rows = (tmp_path / "out" / "sweep_summary.txt").read_text().splitlines()[1:]
        assert [row.split()[:2] for row in rows] == [
            [law, str(i)] for law in ("globa", "bagal", "libac", "barfli", "globa-cons") for i in range(2)
        ]

    def test_mixed_sweep_independent_of_worker_count(self, tmp_path, monkeypatch):
        # Dealt libac, bagal, globa; bagal errors on gamma = 3.5, outside S3.
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"controllers": ["globa", "bagal", "libac"], "gains": [1, 1, 0.1, 1],
                                   "dt": 0.01, "t_max": 15.0,
                                   "grid_polar": [[2.0, 0.4, 0.2], [1.0, 0.5, 3.5], [1.5, -1.0, -0.5]]}))
        outputs = []
        for cpus in ({0}, {0, 1}, {0, 1, 2}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
            out = tmp_path / f"cpus{len(cpus)}"
            assert run(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
            outputs.append([(out / name).read_bytes()
                            for name in ("sweep_summary.json", "sweep_summary.txt", "sweep_overlay.svg")])
            assert_no_children()
        errors = [(law, r["index"]) for law, recs in json.loads(outputs[0][0])["controllers"].items()
                  for r in recs if r["error"] is not None]
        assert errors == [("bagal", 1)]
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize("where", ["worker", "caller"])
    def test_failing_point_propagates(self, tmp_path, monkeypatch, where):
        parent = os.getpid()
        real = unipark.cli.sweep_point

        def failing(base, index, initial):
            in_caller = os.getpid() == parent
            if in_caller == (where == "caller"):
                raise RuntimeError(f"failed in the {where}")
            if not in_caller:
                time.sleep(60)  # still busy when the caller fails, so it must be killed
            return real(base, index, initial)

        # Patched before the fork, so the worker inherits the patch.
        monkeypatch.setattr(unipark.cli, "sweep_point", failing)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"controller": "globa", "dt": 0.01, "t_max": 1.0,
                                   "grid_polar": [[1.0, 0.5, 0.2], [1.5, -0.5, 0.2]]}))
        start = time.monotonic()
        with pytest.raises(RuntimeError, match=f"failed in the {where}"):
            run(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert time.monotonic() - start < 30
        assert_no_children()

    @pytest.mark.parametrize("fails", [False, True], ids=["ok", "raises"])
    def test_heap_trimmed_after_sweep(self, tmp_path, monkeypatch, fails):
        calls = []
        monkeypatch.setattr(unipark.cli, "_malloc_trim", lambda: calls.append)
        if fails:
            monkeypatch.setattr(unipark.cli, "_compile_kernels", lambda bases: 1 / 0)
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"controller": "globa", "dt": 0.01, "t_max": 1.0,
                                   "grid_polar": [[1.0, 0.5, 0.2]]}))
        with pytest.raises(ZeroDivisionError) if fails else contextlib.nullcontext():
            run(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert calls == [0]

    def test_no_malloc_trim(self, monkeypatch):
        import ctypes

        def no_libc(name):
            raise OSError("no C library")

        unipark.cli._malloc_trim.cache_clear()
        monkeypatch.setattr(ctypes, "CDLL", no_libc)
        try:
            assert unipark.cli._malloc_trim() is None
        finally:
            unipark.cli._malloc_trim.cache_clear()


class TestGainsCommand:
    def test_passivity_example(self, tmp_path, capsys):
        code = run([
            "gains", "--family", "passivity",
            "--poles=-1,-0.5+0.8660254037844386i,-0.5-0.8660254037844386i",
            "--out", str(tmp_path),
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        g = payload["solutions"][0]["gains"]
        assert (g["k1"], g["k2"]) == pytest.approx((1.0, 1.0))
        assert g["k3"] == pytest.approx(1.0)
        assert payload["solutions"][0]["roundtrip_error"] < 1e-10

    def test_passivity_strict_real_pair_fails(self, tmp_path):
        assert run([
            "gains", "--family", "passivity", "--poles=-1,-1,-1", "--out", str(tmp_path),
        ]) == 1

    def test_passivity_nonstrict_real_pair(self, tmp_path, capsys):
        assert run([
            "gains", "--family", "passivity", "--poles=-1,-1,-1", "--no-strict",
            "--out", str(tmp_path),
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["solutions"][0]["gains"]["k2"] == pytest.approx(2.0)

    def test_backstepping_example(self, tmp_path, capsys):
        assert run([
            "gains", "--family", "backstepping", "--poles=-1,-2,-3",
            "--epsilon", "0.5", "--out", str(tmp_path),
        ]) == 0
        g = json.loads(capsys.readouterr().out)["solutions"][0]["gains"]
        assert (g["k1"], g["k2"], g["k3"], g["k4"]) == pytest.approx((1.0, 1.5, 0.75, 3.5))

    def test_near_conjugate_pair_roundtrip(self, tmp_path, capsys):
        # The pair's real parts differ in the last digits, so sorting both
        # triples by (real, imag) would match each pole with the other's
        # conjugate and report twice Im p2.
        assert run([
            "gains", "--family", "backstepping", "--poles=-2.892140476405755,"
            "-1.2670164437802955-2.950627582869085i,-1.2670164437803082+2.9506275828690556i",
            "--out", str(tmp_path),
        ]) == 0
        [sol] = json.loads(capsys.readouterr().out)["solutions"]
        assert sol["roundtrip_error"] < 1e-12

    def test_forwarding_two_branches(self, tmp_path, capsys):
        assert run([
            "gains", "--family", "forwarding", "--poles=-1,-2,-3", "--out", str(tmp_path),
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["solutions"]) == 2

    @pytest.mark.parametrize("poles, typed", [
        ("1,-2,-3", "1"), ("-1,0.5+1i,0.5-1i", "0.5+1i"), ("-1,-2,0", "0"), ("-1,0+2i,0-2i", "0+2i"),
    ])
    def test_infeasible_pole_is_quoted_as_typed(self, tmp_path, capsys, poles, typed):
        assert run(["gains", "--family", "passivity", f"--poles={poles}", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"infeasible: pole {typed!r} must have a negative real part\n"

    def test_bad_pole_count(self, tmp_path):
        assert run(["gains", "--family", "passivity", "--poles=-1,-2", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("args", [
        ["--poles=-1,nan,-2"],
        ["--poles=nan,-0.5+0.9i,-0.5-0.9i"],
        ["--poles=-1,-0.5+nani,-0.5-nani"],
        ["--poles=-1,-2,inf"],
        ["--poles=-1,-2,-3", "--epsilon", "nan"],
        ["--poles=-1,-2,-3", "--epsilon", "inf"],
    ])
    def test_non_finite_input_is_usage_error(self, tmp_path, capsys, args):
        assert run(["gains", "--family", "backstepping", *args, "--out", str(tmp_path)]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and "must be finite" in line


class TestVerifyCommand:
    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_samples_below_one_is_usage_error(self, tmp_path, capsys, samples):
        assert run(["verify", "--samples", samples, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_unusable_out_is_usage_error(self, tmp_path, capsys, monkeypatch):
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "out"
        monkeypatch.setattr(unipark.cli, "run_all", None)  # no check is run
        assert run(["verify", "--samples", "10", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {str(out)!r}: ") and err.count("\n") == 1

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        assert run(["verify", "--seed", "-1", "--samples", "1", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: seed must be") and err.count("\n") == 1

    @pytest.mark.parametrize("command", [
        ["simulate", "--controller", "globa", "--init-polar=1,0.5,-0.5"],
        ["sweep", "--controller", "globa"],
        ["gains", "--family", "forwarding", "--poles=-1,-2,-3"],
    ], ids=lambda c: c[0])
    def test_seed_only_for_verify(self, tmp_path, capsys, command):
        with pytest.raises(SystemExit) as e:
            run([*command, "--seed", "1", "--out", str(tmp_path)])
        assert e.value.code == 2
        assert "--seed" in capsys.readouterr().err

    def test_small_run_passes(self, tmp_path, capsys):
        code = run(["verify", "--samples", "100", "--seed", "3", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "FAIL" not in out
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert report["all_passed"] is True and report["seed"] == 3
        names = {c["name"] for c in report["checks"]}
        assert {"positive_definiteness", "gradient_fd", "rate_equality",
                "rate_domination", "barrier_blowup", "jacobian_fd",
                "pole_roundtrip", "lemma_grid"} <= names

    def test_lemma_slacks_in_blocks_are_the_whole_grids(self):
        x = np.arange(-20.0, 20.0 + 0.5 * 1e-3, 1e-3)
        assert len(x) % unipark.verify._LEMMA_BLOCK != 0  # a short last block
        want = min(np.min(s) for k in unipark.verify.LEMMA_GAINS
                   for s in unipark.lyapunov.appendix_bounds_slack(float(k), x))
        assert np.float64(unipark.verify.lemma_grid_check().worst).tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", [0, 12345, 935547811])
    def test_report_independent_of_worker_count(self, monkeypatch, seed):
        # One job per law and per pole family, each replaying its stretch of
        # the serial draws, and one for the lemma grid; one process draws
        # them in turn.
        # 2000 samples would not fork, so the threshold is lowered.
        monkeypatch.setattr(unipark.verify, "_FORK_MIN_SAMPLES", 100)
        expected = json.dumps(verify_report_reference(seed, 2000), sort_keys=True)
        for cpus in ({0}, {0, 1}, {0, 1, 2}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
            assert json.dumps(unipark.verify.run_all(seed, 2000), sort_keys=True) == expected
            assert_no_children()

    @pytest.mark.parametrize("where", ["worker", "caller"])
    def test_failing_check_propagates(self, monkeypatch, where):
        # With 2 workers the caller takes the first law, the worker the second.
        parent = os.getpid()
        real = unipark.verify.barrier_blowup_check

        def failing(clf):
            in_caller = os.getpid() == parent
            if in_caller == (where == "caller"):
                raise RuntimeError(f"failed in the {where}")
            if not in_caller:
                time.sleep(60)  # still busy when the caller fails, so it must be killed
            return real(clf)

        # Patched before the fork, so the worker inherits the patch.
        monkeypatch.setattr(unipark.verify, "barrier_blowup_check", failing)
        monkeypatch.setattr(unipark.verify, "_FORK_MIN_SAMPLES", 100)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        start = time.monotonic()
        with pytest.raises(RuntimeError, match=f"failed in the {where}"):
            unipark.verify.run_all(0, 100)
        assert time.monotonic() - start < 30
        assert_no_children()

    def test_forks_from_threshold_on(self, monkeypatch):
        forks = []
        real = os.fork

        def counting_fork():
            forks.append(1)
            return real()

        monkeypatch.setattr(os, "fork", counting_fork)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        threshold = unipark.verify._FORK_MIN_SAMPLES
        unipark.verify.run_all(0, threshold - 1)
        assert forks == []
        unipark.verify.run_all(0, threshold)
        assert forks == [1]
        assert_no_children()


# Junk for any config field: wrong types, non-finite and out-of-range
# numbers, vectors of any length.  No number here is a small positive dt or
# a large t_max, so no drawn run takes long.
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.sampled_from([math.nan, math.inf, -math.inf, -1.0, 0.0, 1e308]),
    st.text(alphabet="ab,-.x", max_size=4),
    st.lists(st.floats(), max_size=4),
    st.dictionaries(st.sampled_from(["k1", "k4", "zz"]), st.floats(-2.0, 2.0), max_size=2),
)
TIMING_JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0]), st.text(alphabet="ab,-.x", max_size=4),
    st.lists(st.floats(0.01, 0.1), max_size=3),
)
LAWS = st.sampled_from([c.value for c in ControllerId])
VECTOR = st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=4)
GAINS = st.one_of(
    st.lists(st.floats(-0.5, 3.0), min_size=0, max_size=6),
    st.dictionaries(st.sampled_from(["k0", "k1", "k2", "k3", "k4", "k9"]), st.floats(-0.5, 3.0), max_size=3),
)
SCENARIO_FIELDS = {
    "schema_version": st.one_of(st.just(1), JUNK),
    "controller": st.one_of(LAWS, JUNK),
    "gains": st.one_of(GAINS, JUNK),
    "init_cart": st.one_of(VECTOR, JUNK),
    "init_polar": st.one_of(VECTOR, JUNK),
    "frame": st.one_of(st.sampled_from(["polar", "cartesian"]), JUNK),
    "dt": st.one_of(st.floats(0.01, 0.1), TIMING_JUNK),
    "t_max": st.one_of(st.floats(0.0, 0.3), TIMING_JUNK),
    "tol": st.one_of(st.floats(0.0, 1.0), JUNK),
    "barrier_margin": st.one_of(st.floats(-0.1, 3.5), JUNK),
    "composite": st.one_of(st.sampled_from([k.value for k in CompositeKind] + ["bogus"]), JUNK),
    "composite_order": st.one_of(st.sampled_from([o.value for o in CompositeOrder]), JUNK),
}
GRID_FIELDS = {
    "controllers": st.one_of(st.lists(st.one_of(LAWS, JUNK), max_size=2), JUNK),
    "grid_cart": st.one_of(st.lists(st.one_of(VECTOR, JUNK), max_size=3), JUNK),
    "grid_polar": st.one_of(st.lists(st.one_of(VECTOR, JUNK), max_size=3), JUNK),
}
SWEEP_FIELDS = {name: v for name, v in {**SCENARIO_FIELDS, **GRID_FIELDS}.items()
                if name not in ("init_cart", "init_polar")}


def _listed(states: st.SearchStrategy) -> st.SearchStrategy:
    """A state as a JSON list of numbers, or as one comma-separated string."""
    return st.one_of(states, states.map(lambda v: ",".join(map(repr, v))))


CART = _listed(st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3).filter(lambda v: v[:2] != [0.0, 0.0]))
POLAR = _listed(st.tuples(st.floats(0.1, 3.0), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)).map(list))
# A value of each field that is well-formed and in its range (a polar start
# may still lie outside a law's state space).
GOOD = {
    "schema_version": st.just(1),
    "controller": LAWS,
    "gains": st.one_of(st.lists(st.floats(0.1, 3.0), min_size=1, max_size=5),
                       st.dictionaries(st.sampled_from(["k0", "k1", "k2", "k3", "k4"]), st.floats(0.1, 3.0))),
    "init_cart": CART,
    "init_polar": POLAR,
    "frame": st.sampled_from(["polar", "cartesian"]),
    "dt": st.floats(0.01, 0.1),
    "t_max": st.floats(0.1, 0.3),
    "tol": st.floats(1e-6, 1.0),
    "barrier_margin": st.floats(0.0, 0.5),
    "composite": st.sampled_from([k.value for k in CompositeKind]),
    "composite_order": st.sampled_from([o.value for o in CompositeOrder]),
    "controllers": st.lists(LAWS, min_size=1, max_size=2),
    "grid_cart": st.lists(CART, min_size=1, max_size=3),
    "grid_polar": st.lists(POLAR, min_size=1, max_size=3),
}


def configs(fields: dict, groups: list[tuple[str, ...]]) -> st.SearchStrategy:
    """A config of any of ``fields``; or one that sets exactly one field of
    each group, and either no other field or all of them, from ``GOOD``, so
    that it usually runs."""
    others = {name: GOOD[name] for name in fields if name not in sum(groups, ())}

    def well_formed(names):
        required = {name: GOOD[name] for name in names}
        return st.one_of(st.fixed_dictionaries(required), st.fixed_dictionaries({**required, **others}))

    return st.one_of(st.fixed_dictionaries({}, optional=fields),
                     st.tuples(*map(st.sampled_from, groups)).flatmap(well_formed))


SIMULATE_CONFIGS = configs(SCENARIO_FIELDS, [("controller",), ("init_cart", "init_polar")])
SWEEP_CONFIGS = configs(SWEEP_FIELDS, [("controller", "controllers"), ("grid_cart", "grid_polar")])
NEAR_MISSES = ["t_mx", "init_polr", "controler", "gridcart", "Dt", "t-max", "unknown_field"]


def unknown_fields(known: dict) -> st.SearchStrategy:
    """Keys that a command does not read, each with junk: near misses of
    field names, the other command's fields, and any short text."""
    names = NEAR_MISSES + [name for name in {**SCENARIO_FIELDS, **GRID_FIELDS} if name not in known]
    keys = st.one_of(st.sampled_from(names), st.text(max_size=5)).filter(lambda k: k not in known)
    return st.dictionaries(keys, JUNK, max_size=2)


def _run_config(command: str, cfg: dict) -> tuple[int, str, dict | None]:
    """Exit code, stderr and the JSON output (the trajectory of simulate,
    the summary of sweep; None if none was written) of ``unipark <command>
    --config`` in-process.  A config without t_max gets --t-max 0.2, so
    every run stays short."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(cfg))
        argv = [command, "--config", str(path), "--out", str(Path(tmp) / "out")]
        if "t_max" not in cfg:
            argv += ["--t-max", "0.2"]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        written = sorted((Path(tmp) / "out").glob("*.json"))
        payload = json.loads(written[0].read_text()) if written else None
    return code, err.getvalue(), payload


class Rejected(Exception):
    """README's config contract makes the config a config error."""


LAW_NAMES = [c.value for c in ControllerId]


def _read_number(value) -> float:
    # "A number ... must be a JSON number, not a string, true or false."
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise Rejected
    return float(value)


def _read_numbers(value, lo: int = 3, hi: int = 3) -> list[float]:
    # A list of JSON numbers, or "one comma-separated string, as its flag is".
    if isinstance(value, str):
        try:
            numbers = [float(part) for part in value.split(",") if part.strip()]
        except ValueError:
            raise Rejected from None
    elif isinstance(value, list):
        numbers = [_read_number(v) for v in value]
    else:
        raise Rejected
    if not lo <= len(numbers) <= hi:
        raise Rejected
    return numbers


def _read_one_of(cfg: dict, a: str, b: str) -> str:
    given = [name for name in (a, b) if name in cfg]
    if len(given) != 1:
        raise Rejected
    return given[0]


def _read_choice(cfg: dict, name: str, default: str, names: list[str]) -> str:
    value = cfg.get(name, default)
    if value not in names:
        raise Rejected
    return value


def _read_scenario(cfg: dict) -> dict:
    """The run's JSON meta that README's table gives the fields both
    commands read, less the controller; t_max is 0.2 when the config sets
    none, as ``_run_config`` passes --t-max 0.2."""
    if "schema_version" in cfg and (type(cfg["schema_version"]) is not int or cfg["schema_version"] != 1):
        raise Rejected
    gains = cfg.get("gains", "1,1,1,1")
    if isinstance(gains, dict):
        if not set(gains) <= {"k0", "k1", "k2", "k3", "k4"}:
            raise Rejected
        for v in gains.values():
            _read_number(v)
    else:
        _read_numbers(gains, 1, 5)
    return {
        "dt": _read_number(cfg.get("dt", 1e-3)),
        "t_max": _read_number(cfg["t_max"]) if "t_max" in cfg else 0.2,
        "stop_tol": _read_number(cfg.get("tol", 1e-4)),
        "barrier_margin": _read_number(cfg.get("barrier_margin", 1e-9)),
        "frame": _read_choice(cfg, "frame", "polar", ["polar", "cartesian"]),
        "composite": _read_choice(cfg, "composite", "add",
                                  ["add", "log", "expm1", "exp-prod", "cross", "cosh", "sqrt"]),
        "composite_order": _read_choice(cfg, "composite_order", "rho-first", ["rho-first", "v-first"]),
    }


def _read_simulate(cfg: dict) -> tuple[dict, str, list[float]]:
    """The JSON meta of the run that a scenario file means, and its initial
    state: the name of the init field that sets it and its three numbers."""
    meta = _read_scenario(cfg)
    meta["controller"] = _read_choice(cfg, "controller", None, LAW_NAMES)
    init = _read_one_of(cfg, "init_cart", "init_polar")
    return meta, init, _read_numbers(cfg[init])


def _read_sweep(cfg: dict) -> tuple[list[str], int]:
    """The controllers that a sweep config runs, in its order, and its number of grid points."""
    _read_scenario(cfg)
    grid = cfg[_read_one_of(cfg, "grid_cart", "grid_polar")]
    if not isinstance(grid, list) or not grid:
        raise Rejected
    for row in grid:
        _read_numbers(row)
    if _read_one_of(cfg, "controller", "controllers") == "controller":
        return [_read_choice(cfg, "controller", None, LAW_NAMES)], len(grid)
    laws = cfg["controllers"]
    if not isinstance(laws, list) or not laws or any(law not in LAW_NAMES for law in laws):
        raise Rejected
    return laws, len(grid)


class TestUsageErrors:
    """A command line that argparse rejects exits 2 with one error line."""

    @pytest.mark.parametrize("argv", [
        ["gains", "--family", "backstepping", "--poles=-1,-2,-3", "--epsilon", "-inf"],
        ["simulate", "--dt", "x"],
        ["sweep", "--frame", "spherical"],
        ["bogus"],
        [],
    ])
    def test_one_line(self, capsys, argv):
        with pytest.raises(SystemExit) as e:
            run(argv)
        assert e.value.code == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ")


class TestConfigFuzz:
    """Any JSON config exits 0, 1 or 2 with a message, never a traceback.  A
    config with a field the command does not read exits 2 and names it.
    Otherwise README's config contract is the oracle: a config it rejects
    exits 2, and a run that ends 0 or 1 ran what the config means."""

    @given(SIMULATE_CONFIGS, unknown_fields(SCENARIO_FIELDS))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_simulate(self, cfg, extra):
        code, err, payload = _run_config("simulate", {**cfg, **extra})
        assert code in (0, 1, 2) and "Traceback" not in err
        if extra:
            assert code == 2 and err.startswith("error: simulate ")
            assert all(repr(name) in err for name in extra)
            return
        try:
            meta, init, numbers = _read_simulate(cfg)
        except Rejected:
            assert code == 2
            return
        if code == 2:
            return  # a value out of its range, or a start outside the law's state space
        assert payload["meta"] == meta
        rho, delta, gamma = payload["data"][0][4:7]
        if init == "init_polar":
            assert [rho, delta, gamma] == numbers
        else:  # the polar state of the pose (x, y, theta)
            x, y, theta = numbers
            assert -rho * math.cos(delta) == pytest.approx(x, abs=1e-9)
            assert -rho * math.sin(delta) == pytest.approx(y, abs=1e-9)
            assert math.remainder(delta - gamma - theta, 2 * math.pi) == pytest.approx(0.0, abs=1e-9)

    @given(SWEEP_CONFIGS, unknown_fields(SWEEP_FIELDS))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_sweep(self, cfg, extra):
        code, err, summary = _run_config("sweep", {**cfg, **extra})
        assert code in (0, 1, 2) and "Traceback" not in err
        if extra:
            assert code == 2 and err.startswith("error: sweep ")
            assert all(repr(name) in err for name in extra)
            return
        try:
            laws, points = _read_sweep(cfg)
        except Rejected:
            assert code == 2
            return
        if code != 2:
            assert sorted(summary["controllers"]) == sorted(set(laws))  # the JSON sorts its keys
            assert all(len(recs) == points for recs in summary["controllers"].values())


class TestFieldTable:
    def test_readme_lists_each_commands_fields(self):
        # README's config table has a row per field: its name, whether
        # simulate and sweep read it, its value, its default and its flag.
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        rows = [[cell.strip() for cell in line.strip("|").split("|")]
                for line in readme.splitlines() if re.match(r"\| `\w+` \| (yes|no) \|", line)]
        for column, command in ((1, "simulate"), (2, "sweep")):
            documented = {row[0].strip("`") for row in rows if row[column] == "yes"}
            assert documented == {name for name, f in unipark.cli.FIELDS.items() if command in f.commands}
        flags = {row[0].strip("`"): row[5] for row in rows}
        assert flags == {name: "none" if f.flag is None else "`--" + name.replace("_", "-") + "`"
                         for name, f in unipark.cli.FIELDS.items()}
