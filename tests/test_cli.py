"""End-to-end checks of the command line front end."""

from __future__ import annotations

import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from importlib.resources import files

import numpy as np
import pytest

from tvcbf import cli
from tvcbf.config import parse_config

FAST_CFG = "[run]\nt_final = 0.5\ndt = 0.01\n"

COMPARE_CFG = (
    "[disturbance]\n"
    "enabled = true\n"
    "noise_amplitude = 0.02\n"
    "channel1 = 0.1 sin 2\n"
    "channel3 = 0.15 sin 1\n"
    "[run]\n"
    "t_final = 1.0\n"
    "dt = 0.005\n"
)


def _write(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _preset_path(name: str) -> str:
    return str(files("tvcbf") / "presets" / name)


def _read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def test_simulate_writes_artifacts(tmp_path):
    cfg = _write(tmp_path, FAST_CFG)
    out = tmp_path / "artifacts"
    code = cli.main(["simulate", "--config", cfg, "--out", str(out)])
    assert code == cli.EXIT_OK
    for name in (
        "trajectory.csv",
        "trajectory.svg",
        "timeseries.svg",
        "metrics.txt",
        "effective.cfg",
    ):
        assert (out / name).is_file(), name

    header, rows = _read_csv(out / "trajectory.csv")
    assert header == [
        "t", "x1", "x2", "x3", "x4", "u1", "u2",
        "d1", "d2", "d3", "d4", "h1", "h2", "branch",
    ]
    assert len(rows) == 51
    numeric = np.array([row[:-1] for row in rows], dtype=float)
    assert np.isfinite(numeric).all()

    metrics = (out / "metrics.txt").read_text(encoding="utf-8")
    assert "mode = srcbf" in metrics
    assert "violation = false" in metrics
    assert "completed = true" in metrics


def test_simulate_stdout_reports_metrics(tmp_path, capsys):
    cfg = _write(tmp_path, FAST_CFG)
    cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert "min_h1 = " in captured.out
    assert "artifacts written to" in captured.out


def test_svg_artifacts_are_wellformed_xml(tmp_path):
    cfg = _write(tmp_path, FAST_CFG)
    out = tmp_path / "o"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    ns = "{http://www.w3.org/2000/svg}"

    plane = ET.fromstring((out / "trajectory.svg").read_text(encoding="utf-8"))
    assert plane.tag == f"{ns}svg"
    # exactly one circle: the obstacle disc
    assert len(plane.findall(f".//{ns}circle")) == 1
    assert len(plane.findall(f".//{ns}polyline")) == 1

    series = ET.fromstring((out / "timeseries.svg").read_text(encoding="utf-8"))
    assert series.findall(f".//{ns}circle") == []
    assert len(series.findall(f".//{ns}polyline")) == 2


def test_overrides_change_run_and_effective_config(tmp_path):
    cfg = _write(tmp_path, FAST_CFG)
    out = tmp_path / "o"
    code = cli.main([
        "simulate", "--config", cfg, "--out", str(out),
        "--controller", "nominal", "--dt", "0.02", "--seed", "7",
    ])
    assert code == cli.EXIT_OK
    _, rows = _read_csv(out / "trajectory.csv")
    assert len(rows) == 26
    assert {row[-1] for row in rows} == {"nominal"}

    echoed = parse_config((out / "effective.cfg").read_text(encoding="utf-8"))
    assert echoed.scenario.mode == "nominal"
    assert echoed.scenario.dt == 0.02
    assert echoed.scenario.seed == 7
    assert echoed.out_dir == str(out)


def test_compare_writes_table_and_per_mode_csvs(tmp_path, capsys):
    cfg = _write(tmp_path, COMPARE_CFG)
    out = tmp_path / "cmp"
    assert cli.main(["compare", "--config", cfg, "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0].split() == [
        "mode", "min_h1", "control_effort", "goal_error", "violation"
    ]

    header, rows = _read_csv(out / "compare.csv")
    assert header == ["mode", "min_h1", "control_effort", "goal_error", "violation"]
    assert [row[0] for row in rows] == ["nominal", "sbcbf", "srcbf"]
    by_mode = {row[0]: row for row in rows}
    # the robust mode must never report a violation
    assert by_mode["srcbf"][4] == "false"
    for mode in ("nominal", "sbcbf", "srcbf"):
        assert (out / f"trajectory_{mode}.csv").is_file()


def test_compare_is_deterministic(tmp_path):
    cfg = _write(tmp_path, COMPARE_CFG)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["compare", "--config", cfg, "--out", str(out_a)]) == 0
    assert cli.main(["compare", "--config", cfg, "--out", str(out_b)]) == 0
    assert (out_a / "compare.csv").read_bytes() == (out_b / "compare.csv").read_bytes()
    assert (
        (out_a / "trajectory_srcbf.csv").read_bytes()
        == (out_b / "trajectory_srcbf.csv").read_bytes()
    )


def test_check_gains_on_presets(capsys):
    # paper_fig1 configures its gains, and those are the ones checked:
    # (2.7, 3.0) leave level 2 negative at the start
    code = cli.main(["check-gains", "--config", _preset_path("paper_fig1.cfg")])
    assert code == cli.EXIT_UNSAFE
    captured = capsys.readouterr()
    assert "suggested_gains = " in captured.out
    assert "configured_gains = 2.7, 3.0" in captured.out
    assert "checked_gains = configured" in captured.out
    assert "robust = true" in captured.out
    rows = [line.split() for line in captured.out.splitlines()[-2:]]
    assert [row[0] for row in rows] == ["1", "2"]
    assert rows[0][2] == "yes" and rows[1][2] == "NO"
    assert float(rows[1][1]) < 0.0
    assert captured.err == (
        "initialization fails at level(s) 2 with the configured gains\n"
    )

    assert cli.main(["check-gains", "--config", _preset_path("triple_demo.cfg")]) == 0
    captured = capsys.readouterr()
    assert "checked_gains = suggested" in captured.out
    level_rows = [
        line for line in captured.out.splitlines()
        if line and line.split()[0] in {"1", "2", "3"}
    ]
    assert len(level_rows) == 3
    assert all(row.endswith("yes") for row in level_rows)


def test_check_gains_unsafe_start(tmp_path, capsys):
    cfg = _write(tmp_path, "[run]\nx0 = 2, 2, 0, 0\n")
    assert cli.main(["check-gains", "--config", cfg]) == cli.EXIT_UNSAFE
    assert "unsafe initialization" in capsys.readouterr().err


def test_config_error_exit_code_and_line(tmp_path, capsys):
    cfg = _write(tmp_path, "[system]\norder = 2\nwheels = 4\n")
    assert cli.main(["simulate", "--config", cfg]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err
    assert "line 3" in err


def test_missing_config_file(tmp_path, capsys):
    missing = str(tmp_path / "nope.cfg")
    assert cli.main(["simulate", "--config", missing]) == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_bad_override_is_a_config_error(tmp_path, capsys):
    cfg = _write(tmp_path, FAST_CFG)
    code = cli.main(["simulate", "--config", cfg, "--dt", "-0.1"])
    assert code == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, override",
    [
        ("[run]\ndt = nan\n", []),
        ("[run]\nt_final = inf\n", []),
        ("[barrier]\nradius = nan\n", []),
        (FAST_CFG, ["--dt", "nan"]),
        (FAST_CFG, ["--t-final", "inf"]),
    ],
)
def test_non_finite_values_are_config_errors(tmp_path, capsys, text, override):
    cfg = _write(tmp_path, text)
    out = str(tmp_path / "o")
    code = cli.main(["simulate", "--config", cfg, "--out", out, *override])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and "finite" in err
    if not override:
        assert "line 2" in err


@pytest.mark.parametrize(
    "text, override",
    [
        ("[run]\nt_final = 10\ndt = 0.3\n", []),
        ("[run]\nt0 = 0.5\nt_final = 1\ndt = 0.2\n", []),
        (FAST_CFG, ["--dt", "0.03"]),
        (FAST_CFG, ["--t-final", "0.505"]),
    ],
)
def test_step_that_misses_t_final_is_a_config_error(tmp_path, capsys, text, override):
    # the grid would stop short of t_final, so the run is refused
    cfg = _write(tmp_path, text)
    out = tmp_path / "o"
    code = cli.main(["simulate", "--config", cfg, "--out", str(out), *override])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    prefix = "config error: dt ("
    if not override:
        # a config that sets dt is pointed at the line that sets it
        line = text[: text.index("dt =")].count("\n") + 1
        prefix = f"config error: line {line}: dt ("
    assert err.startswith(prefix) and "t_final" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "check-gains"])
@pytest.mark.parametrize(
    "text",
    [
        "[gains]\nlevels = 1, 2, 3\n",
        "[barrier]\nsmoothing = 0.2, 0.3, 0.4\n",
        "[gains]\nlevels = -1, 2\n",
        "[barrier]\nsmoothing = -0.2\n",
    ],
)
def test_level_list_of_the_wrong_length_is_a_config_error(
    tmp_path, capsys, command, text
):
    # the order-2 default takes two gains and one or two smoothing
    # constants, each positive
    cfg = _write(tmp_path, text + FAST_CFG)
    out = tmp_path / "o"
    extra = ["--out", str(out)] if command == "simulate" else []
    assert cli.main([command, "--config", cfg, *extra]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: line 2: ")
    assert "Traceback" not in captured.err and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "check-gains"])
@pytest.mark.parametrize(
    "text, detail",
    [
        ("[barrier]\nkind = circle\ncenter = 1, 2, 3, 4, 5\n", "obstacle center"),
        ("[barrier]\nkind = halfplane\nnormal = 1, 0, 0, 0, 1\n", "half-plane normal"),
    ],
)
def test_oracle_reading_past_the_state_is_a_config_error(
    tmp_path, capsys, command, text, detail
):
    # the order-2, 2-axis default has a 4-entry state
    cfg = _write(tmp_path, text + FAST_CFG)
    out = tmp_path / "o"
    extra = ["--out", str(out)] if command == "simulate" else []
    assert cli.main([command, "--config", cfg, *extra]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err == (
        f"config error: line 3: {detail} has 5 entries, state has only 4\n"
    )
    assert captured.out == ""
    assert not out.exists()


def test_unsafe_start_exit_code(tmp_path, capsys):
    cfg = _write(tmp_path, "[run]\nx0 = 2, 2, 0, 0\nt_final = 0.5\n")
    assert cli.main(["simulate", "--config", cfg]) == cli.EXIT_UNSAFE
    assert "unsafe initialization" in capsys.readouterr().err


def test_aborted_run_exit_code(tmp_path, capsys):
    text = (
        "[gains]\nkind = prescribed_time\nterminal_time = 1.0\n"
        "[run]\nt0 = 0.5\nt_final = 2.0\ndt = 0.1\n"
    )
    cfg = _write(tmp_path, text)
    out = tmp_path / "o"
    code = cli.main(["simulate", "--config", cfg, "--out", str(out)])
    assert code == cli.EXIT_RUNTIME
    assert "aborted early" in capsys.readouterr().err
    # partial artifacts are still written
    assert (out / "trajectory.csv").is_file()
    metrics = (out / "metrics.txt").read_text(encoding="utf-8")
    assert "completed = false" in metrics
    assert "annotation = aborted at" in metrics


def test_unknown_subcommand_is_rejected():
    with pytest.raises(SystemExit):
        cli.main(["orbit"])


def test_cli_import_leaves_scipy_unloaded():
    # scipy is a test-only dependency: the power integrals are closed
    # forms, and only the tests' quadrature cross-check imports it
    code = "import sys, tvcbf.cli; print('scipy' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert done.stdout.strip() == "False"
