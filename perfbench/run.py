"""Benchmark of tvcbf's control loop, end to end and per layer.

Run from the root of a source checkout (the sources are read from src/):

    python3 perfbench/run.py --workload fig1_cli --seed 0 --seconds 20 --trace 0

Workloads: fig1_cli, filter_sweep, poly_lifted (see README.md).  The
run builds the workload from the seed (set-up), repeats whole rounds of
its control decisions for about ``--seconds`` seconds, checks the last
round's outputs, and prints one JSON object as its last line of output:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a
traced run with ``--trace 1``.  Scratch files, the result and the span
trace go to perfbench/_out/.
"""

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

# one thread: keep OpenBLAS from starting a worker per core when numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# cold set-ups timed per untraced run, spread over its timed part
SETUP_PROBES = 4


def cold_setup_s(args, index) -> float:
    """Seconds from starting a fresh interpreter on this script to the end
    of the workload's set-up in it, as its first timed call would begin."""
    argv = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", "0", "--setup-probe", str(index),
    ]
    t0 = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        t1 = time.perf_counter()
        child.stdout.read()
    if line != "ready\n" or child.returncode != 0:
        raise RuntimeError(f"set-up probe exited {child.returncode} after {line!r}")
    return t1 - t0


class Rounds:
    """Segment durations and decision counts of a series of timed rounds.

    A round is cut into segments at the times the workload records in
    ``marks`` during the round; without marks it is one segment.
    """

    def __init__(self):
        self.segments, self.done, self.attempted, self.failed = [], [], 0, 0

    def run(self, workload):
        t0 = time.perf_counter()
        made, bad = workload.round()
        t1 = time.perf_counter()
        self.segments.append(np.diff([t0, *getattr(workload, "marks", ()), t1]))
        self.done.append(made - bad)
        self.attempted += made
        self.failed += bad

    def best_rate(self):
        """Decisions per second when every segment runs at its fastest.

        Every round repeats the same work, so one segment differs between
        rounds only by what the rest of the machine does meanwhile: on a
        shared host other tenants slow whole stretches of rounds by up to
        40%, and a median follows those stretches.  The fastest instance
        of each segment follows the program's own speed (as with timeit's
        minimum); short segments find more such instances than whole
        rounds.
        """
        segments = self.segments
        if len({s.shape for s in segments}) > 1:  # a round ended early
            segments = [s.sum(keepdims=True) for s in segments]
        return min(self.done) / float(np.min(segments, axis=0).sum())


def run_cycles(budget, steps, probes=()):
    """Call the steps in turn, in whole cycles, until another cycle would
    overrun ``budget`` seconds (at least one cycle).  The probes run
    between cycles, spread over the budget: the first before any cycle,
    the k-th once k shares of the budget have passed, and those left
    over after the last cycle."""
    begin, cycles, done = time.perf_counter(), 0, 0
    while True:
        while done < len(probes) and time.perf_counter() - begin >= done * budget / len(probes):
            probes[done]()
            done += 1
        for step in steps:
            step()
        cycles += 1
        if (time.perf_counter() - begin) * (cycles + 1) / cycles > budget:
            break
    for probe in probes[done:]:
        probe()


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def layer_metrics(declared, timed, rounds, derived):
    """The per-layer metrics that BENCHMARK.json declares.  A name in
    ``derived`` takes its value from there; any other is a span and a
    statistic of it (calls, s or self_s), per round of the traced rounds
    summarised in ``timed``."""
    out = {}
    for entry in declared:
        name = entry["name"]
        if name in derived:
            value = derived[name]
        else:
            span, stat = name.rsplit(".", 1)
            calls, total, own = timed[span]
            value = {"calls": calls, "s": total, "self_s": own}[stat] / rounds
        out[name] = metric(value, entry["unit"])
    return out


def ratio(a, b):
    return a / b if b else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # set up the workload, print "ready" and exit: one cold set-up to time
    parser.add_argument("--setup-probe", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    src = HERE.parent / "src"
    if not (src / "tvcbf" / "__init__.py").is_file():
        print(f"perfbench: no tvcbf sources at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import tvcbf.cli  # noqa: F401  (loads every module the workloads use)
    import_s = time.perf_counter() - t0

    out_dir = HERE / "_out"
    if args.setup_probe is None:
        workdir = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    else:
        workdir = out_dir / f"{args.workload}-seed{args.seed}-probe{args.setup_probe}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    tracer = Tracer()
    if args.trace:
        tracer.install()  # set-up spans get run id 0
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
    finally:
        tracer.uninstall()
    if args.setup_probe is not None:
        print("ready", flush=True)
        shutil.rmtree(workdir)
        return 0

    failures, plain = [], Rounds()
    if not args.trace:
        setups = []
        probes = [
            lambda i=i: setups.append(cold_setup_s(args, i)) for i in range(SETUP_PROBES)
        ]
        run_cycles(args.seconds, [lambda: plain.run(workload)], probes)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "decisions_per_s": metric(plain.best_rate(), "1/s"),
            "setup_s": metric(min(setups), "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }
        attempted, failed = plain.attempted, plain.failed
    else:
        # untraced and traced rounds alternate, so that both meet the same
        # load from the rest of the machine; their ratio is the overhead
        traced = Rounds()

        def traced_round():
            tracer.run_id += 1
            tracer.install()
            try:
                traced.run(workload)
            finally:
                tracer.uninstall()

        run_cycles(args.seconds, [lambda: plain.run(workload), traced_round])
        rounds = len(traced.done)
        timed = tracer.summary(range(1, rounds + 1))
        per_round, corrected = workload.output_counts()
        evaluate_calls, _, evaluate_self = timed["barrier.evaluate"]
        filter_calls = timed["qp.apply_filter"][0]
        derived = {
            "setup.import_s": import_s,
            "config.load_config.s": tracer.summary([0])["config.load_config"][1],
            "barrier.evaluate.us_per_call": 1e6 * ratio(evaluate_self, evaluate_calls),
            "barrier.evaluate.useful_ratio": ratio(filter_calls, evaluate_calls),
            "qp.apply_filter.corrected_ratio": ratio(corrected * rounds, filter_calls),
            "trace.overhead_pct": 100.0 * (plain.best_rate() / traced.best_rate() - 1.0),
        }
        declared = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
        metrics = layer_metrics(declared["per_layer"], timed, rounds, derived)
        failures += checks.check_counts(
            {name: timed[name][0] for name in timed},
            {k: v * rounds for k, v in per_round.items()},
        )
        tracer.save(out_dir / f"trace-{args.workload}-seed{args.seed}.npz")
        attempted = plain.attempted + traced.attempted
        failed = plain.failed + traced.failed

    failures = workload.check() + failures
    for line in failures:
        print(f"check failed: {line}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "untraced_segment_s": [s.tolist() for s in plain.segments]}, indent=1) + "\n",
        encoding="utf-8",
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
