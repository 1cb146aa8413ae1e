"""In-memory span tracing around tvcbf's layer boundaries.

The tracer wraps public functions and methods of ``tvcbf`` from outside
the package.  Each call records a span: a name, its start and end
(``time.perf_counter``), the span that was open when it started, and a
run id (0 for set-up, then one id per traced round).  Spans live in flat
arrays while the benchmark runs and are written out once at the end.

Some modules bind a function under their own name at import
(``from .qp import apply_filter`` in ``tvcbf.sim``), so a wrapper is
installed at every binding of the function that the loaded tvcbf modules
hold; otherwise those calls would go uncounted.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

# span name -> the (module or class path, attribute) that defines each
# function the span records
SPANS = {
    "config.load_config": [("config", "load_config")],
    "sim.run_scenario": [("sim", "run_scenario")],
    "sim.build_chain": [("sim", "build_chain")],
    "barrier.auto_gains": [("barrier", "auto_gains")],
    "sim.rk4_step": [("sim", "rk4_step")],
    "sim.state_feedback": [("sim", "state_feedback")],
    "chain.sample_disturbance": [("chain", "sample_disturbance")],
    "chain.dynamics": [("chain.IntegratorChain", "dynamics")],
    "barrier.evaluate": [("barrier.BarrierChain", "evaluate")],
    "barrier.eval_level": [("barrier.BarrierChain", "eval_level")],
    "gains.power_jet": [("gains.GainFunction", "power_jet")],
    "autodiff.lift": [("autodiff", "lift")],
    "autodiff.lift_first": [("autodiff", "lift_first")],
    "qp.apply_filter": [("qp", "apply_filter")],
    "qp.safety_filter": [("qp", "safety_filter")],
    "sim.write_trajectory_csv": [("sim", "write_trajectory_csv")],
    "plots.svg": [("plots", "trajectory_svg"), ("plots", "timeseries_svg")],
}


def _resolve(path: str):
    module, _, cls = path.partition(".")
    obj = importlib.import_module(f"tvcbf.{module}")
    return getattr(obj, cls) if cls else obj


def _bindings(fn):
    """Every (owner, attribute) that holds ``fn``, where an owner is a
    loaded tvcbf module or a class one of them defines."""
    for name, module in list(sys.modules.items()):
        if name != "tvcbf" and not name.startswith("tvcbf."):
            continue
        owners = [module] + [
            value for value in vars(module).values()
            if isinstance(value, type) and value.__module__ == name
        ]
        for owner in owners:
            for attr, value in vars(owner).items():
                if value is fn:
                    yield owner, attr


def rebind(fn, replacement):
    """Put ``replacement`` at every binding of ``fn``; returns what
    ``restore`` needs to undo it."""
    saved = [(owner, attr, fn) for owner, attr in _bindings(fn)]
    for owner, attr, _ in saved:
        setattr(owner, attr, replacement)
    return saved


def restore(saved):
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)


class Tracer:
    """Records nested spans of wrapped calls into flat arrays."""

    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.run = array("i")
        self.run_id = 0
        self._open = [-1]
        self._saved = []  # (owner, attribute, original) while installed

    def _wrap(self, name_index, fn):
        name_of, start, end = self.name_of, self.start, self.end
        parent, run, stack = self.parent, self.run, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(start)
            name_of.append(name_index)
            parent.append(stack[-1])
            run.append(self.run_id)
            end.append(0.0)
            stack.append(span)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[span] = clock()
                stack.pop()

        return traced

    def install(self):
        """Replace every binding of the functions in SPANS by a recording
        wrapper."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, defs in SPANS.items():
            if name not in self.names:
                self.names.append(name)
            index = self.names.index(name)
            for path, attr in defs:
                original = _resolve(path).__dict__[attr]
                self._saved += rebind(original, self._wrap(index, original))

    def uninstall(self):
        restore(self._saved)
        self._saved = []

    def arrays(self):
        """Copies of the span columns as numpy arrays."""
        return {
            "name": np.array(self.name_of, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "parent": np.array(self.parent, dtype=np.int64),
            "run": np.array(self.run, dtype=np.int32),
        }

    def summary(self, runs) -> dict:
        """name -> (calls, total seconds, self seconds) over the given run ids.

        Self time is a span's duration minus the durations of its direct
        children; calls on one thread nest, so the children never overlap.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(
            a["parent"][has_parent], weights=dur[has_parent], minlength=dur.shape[0]
        )
        own = dur - child
        keep = np.isin(a["run"], list(runs))
        out = {}
        for index, name in enumerate(self.names):
            sel = keep & (a["name"] == index)
            out[name] = (
                int(np.count_nonzero(sel)), float(dur[sel].sum()), float(own[sel].sum())
            )
        return out

    def save(self, path):
        a = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), **a)

