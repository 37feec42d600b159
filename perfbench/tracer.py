"""Per-layer spans and counts, recorded around the package's functions.

The package is not edited: :meth:`Tracer.install` wraps every public
function of the six layer modules (plus ``lindblad._expm``, which
``acceptance`` imports across the module boundary) and rebinds the wrapper
in every ``qubitbath`` namespace that binds the function and in the default
arguments of the package's functions (``run_acceptance`` takes
``build_generator`` as one), so calls between modules are caught too.
Spans are kept in memory as a stack; when a span ends its self time
(duration minus the time covered by its child spans) is added to its
function's total, so nothing is written while the program runs.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
import time
from collections import defaultdict

import numpy as np

from checks import CHECK_NAMES

LAYERS = ("operator_space", "lindblad", "analytic", "markovianity", "acceptance", "cli")

_KERNELS = ("analytic.coherence_factor", "analytic.coherence_factor_derivative")
_DETECT = "markovianity.detect_increase_segments"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Spans and counts of one process; :meth:`reset` starts the next operation."""

    def __init__(self):
        self.stack: list[list] = []  # open spans: [qualified name, seconds covered by children]
        self.reset()

    def reset(self):
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.checks: dict[str, tuple[float, float]] = {}

    def install(self):
        """Wrap the layer functions of the already imported package."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"qubitbath.{layer}")
            for name, obj in vars(module).items():
                public = not name.startswith("_") or name == "_expm"
                if public and inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrappers[id(obj)] = self._wrap(f"{layer}.{name}", obj)
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "qubitbath" or mod_name.startswith("qubitbath."):
                for name, obj in list(vars(module).items()):
                    if inspect.isfunction(obj):
                        _rebind_defaults(obj, wrappers)
                    if id(obj) in wrappers:
                        setattr(module, name, wrappers[id(obj)])
        return self

    def _wrap(self, qual, fn):
        hook = _HOOKS.get(qual)
        stack = self.stack
        tracer = self  # reset() replaces the dicts, so look them up per call
        calls = qual + ".calls"
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [qual, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                tracer.self_s[qual] += elapsed - frame[1]
                tracer.counts[calls] += 1
                if stack:
                    stack[-1][1] += elapsed
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return wrapper

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the operation since the last :meth:`reset`."""
        c, s = self.counts, self.self_s
        layer_self = defaultdict(float)
        layer_calls = defaultdict(int)
        for qual, seconds in s.items():
            layer = qual.split(".")[0]
            layer_self[layer] += seconds
            layer_calls[layer] += c[qual + ".calls"]
        out: dict[str, float] = {}
        for qual in _KERNELS:
            out.update({f"{qual}.calls": c[qual + ".calls"], f"{qual}.points": c[qual + ".points"], f"{qual}.self_s": s[qual]})
        out["analytic.scalar_calls"] = c["analytic.scalar_calls"]
        out["analytic.self_s"] = layer_self["analytic"]
        windows = c[_DETECT + ".windows"]
        out.update({f"{_DETECT}.calls": c[_DETECT + ".calls"], f"{_DETECT}.self_s": s[_DETECT], f"{_DETECT}.windows": windows})
        out["markovianity.kernel_calls_per_window"] = c[_DETECT + ".kernel_calls"] / windows if windows else 0.0
        for qual in ("markovianity.blp_numeric", "markovianity.threshold_scan"):
            out.update({f"{qual}.calls": c[qual + ".calls"], f"{qual}.self_s": s[qual]})
        witness = "markovianity.cp_divisibility_witness"
        for key in ("calls", "maps", "skipped"):
            out[f"{witness}.{key}"] = c[f"{witness}.{key}"]
        out[f"{witness}.self_s"] = s[witness]
        out["markovianity.self_s"] = layer_self["markovianity"]
        trajectory = "lindblad.expm_trajectory"
        out.update({f"{trajectory}.calls": c[trajectory + ".calls"], f"{trajectory}.steps": c[trajectory + ".steps"], f"{trajectory}.self_s": s[trajectory]})
        out.update({"lindblad._expm.calls": c["lindblad._expm.calls"], "lindblad._expm.self_s": s["lindblad._expm"]})
        out["lindblad.build_generator.calls"] = c["lindblad.build_generator.calls"]
        out["lindblad.self_s"] = layer_self["lindblad"]
        out["operator_space.calls"] = layer_calls["operator_space"]
        out["operator_space.self_s"] = layer_self["operator_space"]
        writer = "cli.write_records"
        for key in ("calls", "rows", "bytes"):
            out[f"{writer}.{key}"] = c[f"{writer}.{key}"]
        out[f"{writer}.self_s"] = s[writer]
        # the rest of the cli layer: argument parsing and row building
        out["cli.self_s"] = layer_self["cli"] - s[writer]
        out["acceptance.contour_values.self_s"] = s["acceptance.contour_values"]
        out["acceptance.self_s"] = layer_self["acceptance"]
        for name in CHECK_NAMES:
            seconds, budget = self.checks.get(name, (0.0, 0.0))
            out[f"acceptance.{name}.s"] = seconds
            out[f"acceptance.{name}.margin_s"] = budget - seconds
        out["acceptance.max_budget_frac"] = max(
            (seconds / budget for seconds, budget in self.checks.values()), default=0.0
        )
        return out


def _rebind_defaults(fn, wrappers: dict):
    """Point default arguments that hold a wrapped function at its wrapper."""
    if fn.__defaults__:
        fn.__defaults__ = tuple(wrappers.get(id(value), value) for value in fn.__defaults__)
    if fn.__kwdefaults__:
        fn.__kwdefaults__ = {key: wrappers.get(id(value), value) for key, value in fn.__kwdefaults__.items()}


def _kernel_hook(qual):
    points = qual + ".points"

    def hook(tracer, args, kwargs, result):
        counts = tracer.counts
        if isinstance(result, np.ndarray):  # one value per requested time
            counts[points] += result.size
        else:
            counts[points] += 1
            counts["analytic.scalar_calls"] += 1
        # detect_increase_segments reaches the kernel only through unwrapped private helpers
        if tracer.stack and tracer.stack[-1][0] == _DETECT:
            counts[_DETECT + ".kernel_calls"] += 1

    return hook


def _detect_hook(tracer, args, kwargs, result):
    tracer.counts[_DETECT + ".windows"] += len(result)


def _witness_hook(tracer, args, kwargs, result):
    tracer.counts["markovianity.cp_divisibility_witness.maps"] += result.n_subintervals
    tracer.counts["markovianity.cp_divisibility_witness.skipped"] += result.n_skipped


def _trajectory_hook(tracer, args, kwargs, result):
    tracer.counts["lindblad.expm_trajectory.steps"] += _arg(args, kwargs, 2, "grid").num - 1


def _writer_hook(tracer, args, kwargs, result):
    path = _arg(args, kwargs, 0, "path")
    tracer.counts["cli.write_records.rows"] += len(_arg(args, kwargs, 3, "rows"))
    if path is not None:
        tracer.counts["cli.write_records.bytes"] += os.path.getsize(path)


def _acceptance_hook(tracer, args, kwargs, result):
    tracer.checks.update({r.name: (r.seconds, r.budget) for r in result})


_HOOKS = {
    **{qual: _kernel_hook(qual) for qual in _KERNELS},
    _DETECT: _detect_hook,
    "markovianity.cp_divisibility_witness": _witness_hook,
    "lindblad.expm_trajectory": _trajectory_hook,
    "cli.write_records": _writer_hook,
    "acceptance.run_acceptance": _acceptance_hook,
}
