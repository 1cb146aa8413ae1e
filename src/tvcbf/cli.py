"""Experiment front end.

Three subcommands: ``simulate`` runs one scenario and writes its
artifacts (CSV, two SVG plots, metrics, effective config); ``compare``
runs all three controller modes on the same config and seed and prints
a table; ``check-gains`` reports what the initial-gain rules pick for
the configured start state, and tabulates every level there under the
gains the run uses (the configured ones when ``levels`` is set).

Exit codes: 0 success, 2 config error, 3 simulation/runtime error,
4 safety-initialization failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .barrier import auto_gains
from .config import ExperimentConfig, load_config, render_config
from .errors import ConfigError, TvcbfError, UnsafeInitializationError
from .plots import timeseries_svg, trajectory_svg
from .sim import MODES, Trajectory, build_chain, run_scenario, write_trajectory_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_UNSAFE = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tvcbf",
        description=(
            "Safety-filtered control of integrator chains with "
            "time-varying-gain barrier chains."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one scenario and write artifacts")
    sim.add_argument("--config", required=True, help="path to the experiment config")
    sim.add_argument(
        "--controller", choices=MODES, help="override the configured mode"
    )
    sim.add_argument("--dt", type=float, help="override the step size")
    sim.add_argument("--t-final", type=float, help="override the end time")
    sim.add_argument("--seed", type=int, help="override the noise seed")
    sim.add_argument("--out", help="output directory (default from config)")

    cmp_cmd = sub.add_parser(
        "compare", help="run nominal, sbcbf and srcbf on the same seed"
    )
    cmp_cmd.add_argument("--config", required=True)
    cmp_cmd.add_argument("--out", help="output directory (default from config)")

    chk = sub.add_parser(
        "check-gains", help="report the initial-gain rule for the configured start"
    )
    chk.add_argument("--config", required=True)
    return parser


def _apply_overrides(config: ExperimentConfig, args) -> ExperimentConfig:
    scenario = config.scenario
    updates = {}
    if getattr(args, "controller", None) is not None:
        updates["mode"] = args.controller
    if getattr(args, "dt", None) is not None:
        updates["dt"] = args.dt
    if getattr(args, "t_final", None) is not None:
        updates["t_final"] = args.t_final
    if getattr(args, "seed", None) is not None:
        updates["seed"] = args.seed
    if updates:
        try:
            scenario = replace(scenario, **updates)
        except TvcbfError as exc:
            raise ConfigError(str(exc)) from exc
    out_dir = getattr(args, "out", None) or config.out_dir
    return ExperimentConfig(scenario=scenario, out_dir=out_dir)


def _metrics_lines(trajectory: Trajectory) -> list[str]:
    chain = trajectory.chain
    lines = [
        f"mode = {trajectory.scenario.mode}",
        f"samples = {trajectory.times.shape[0]}",
        f"barrier_gains = {', '.join(repr(g) for g in chain.schedule.levels)}",
        f"disturbance_bound = {chain.disturbance_bound!r}",
        f"min_h1 = {trajectory.min_h1!r}",
        f"violation = {'true' if trajectory.violation else 'false'}",
        f"control_effort = {trajectory.control_effort!r}",
        f"goal_error = {trajectory.goal_error!r}",
        f"completed = {'true' if trajectory.completed else 'false'}",
    ]
    if trajectory.annotation:
        lines.append(f"annotation = {trajectory.annotation}")
    if trajectory.init_warning:
        lines.append(f"init_warning = {trajectory.init_warning}")
    if trajectory.degenerate_gradient:
        lines.append("degenerate_gradient = true")
    return lines


def _write_artifacts(config: ExperimentConfig, trajectory: Trajectory, out: Path):
    out.mkdir(parents=True, exist_ok=True)
    write_trajectory_csv(trajectory, out / "trajectory.csv")
    (out / "trajectory.svg").write_text(trajectory_svg(trajectory), encoding="utf-8")
    (out / "timeseries.svg").write_text(timeseries_svg(trajectory), encoding="utf-8")
    (out / "metrics.txt").write_text(
        "\n".join(_metrics_lines(trajectory)) + "\n", encoding="utf-8"
    )
    (out / "effective.cfg").write_text(render_config(config), encoding="utf-8")


def _cmd_simulate(args) -> int:
    config = _apply_overrides(load_config(args.config), args)
    trajectory = run_scenario(config.scenario)
    out = Path(config.out_dir)
    _write_artifacts(config, trajectory, out)
    for line in _metrics_lines(trajectory):
        print(line)
    print(f"artifacts written to {out}")
    if not trajectory.completed:
        print(f"simulation aborted early: {trajectory.annotation}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


_TABLE_COLUMNS = ("mode", "min_h1", "control_effort", "goal_error", "violation")


def _table_row(trajectory: Trajectory) -> tuple[str, ...]:
    return (
        trajectory.scenario.mode,
        f"{trajectory.min_h1:.6g}",
        f"{trajectory.control_effort:.6g}",
        f"{trajectory.goal_error:.6g}",
        "true" if trajectory.violation else "false",
    )


def _cmd_compare(args) -> int:
    config = _apply_overrides(load_config(args.config), args)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    annotations = []
    for mode in MODES:
        scenario = replace(config.scenario, mode=mode)
        trajectory = run_scenario(scenario)
        write_trajectory_csv(trajectory, out / f"trajectory_{mode}.csv")
        rows.append(_table_row(trajectory))
        if trajectory.annotation:
            annotations.append(f"{mode}: {trajectory.annotation}")
    widths = [
        max(len(col), *(len(row[j]) for row in rows))
        for j, col in enumerate(_TABLE_COLUMNS)
    ]
    header = "  ".join(col.ljust(widths[j]) for j, col in enumerate(_TABLE_COLUMNS))
    print(header)
    print("-" * len(header))
    for row in rows:
        print("  ".join(cell.ljust(widths[j]) for j, cell in enumerate(row)))
    with open(out / "compare.csv", "w", encoding="utf-8") as fh:
        fh.write(",".join(_TABLE_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")
    for note in annotations:
        print(f"note: {note}", file=sys.stderr)
    print(f"artifacts written to {out}")
    return EXIT_OK


def _cmd_check_gains(args) -> int:
    config = load_config(args.config)
    scenario = config.scenario
    template = build_chain(replace(scenario, barrier_gains=(1.0,) * scenario.system.order))
    schedule = auto_gains(
        template,
        scenario.x0,
        scenario.t0,
        margin=scenario.auto_margin,
        last_gain=scenario.last_gain,
    )
    chain = template.with_levels(schedule.levels)
    print(f"mode = {scenario.mode}")
    print(f"robust = {'true' if chain.robust else 'false'}")
    print(f"disturbance_bound = {chain.disturbance_bound!r}")
    print("suggested_gains = " + ", ".join(repr(g) for g in schedule.levels))
    if scenario.barrier_gains is not None:
        print(
            "configured_gains = "
            + ", ".join(repr(g) for g in scenario.barrier_gains)
        )
        # the run uses the configured gains, so those are the ones checked
        chain = template.with_levels(scenario.barrier_gains)
    checked = "suggested" if scenario.barrier_gains is None else "configured"
    print(f"checked_gains = {checked}")
    rows = chain.validate_initialization(scenario.x0, scenario.t0)
    print("level  value          positive")
    for level, value, positive in rows:
        print(f"{level:<5d}  {value:<13.6g}  {'yes' if positive else 'NO'}")
    if all(positive for _, _, positive in rows):
        return EXIT_OK
    failing = ", ".join(str(level) for level, _, ok in rows if not ok)
    print(
        f"initialization fails at level(s) {failing} with the {checked} gains",
        file=sys.stderr,
    )
    return EXIT_UNSAFE


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {
        "simulate": _cmd_simulate,
        "compare": _cmd_compare,
        "check-gains": _cmd_check_gains,
    }[args.command]
    try:
        return handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except UnsafeInitializationError as exc:
        print(f"unsafe initialization: {exc}", file=sys.stderr)
        return EXIT_UNSAFE
    except TvcbfError as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
