"""Layer tracing from outside the package.

The tracer replaces public functions of ``abicreg`` with timing wrappers
while it is installed and restores them afterwards; nothing under
``src/`` knows about it. Each wrapped call opens a frame on a stack. A
frame that closes adds its duration to its parent's child time, so a
layer's self time is the time its frames were open minus the time their
traced children were open. The layer is the module name, the first part
of each frame name.

Two kinds of target:

* span targets (one call per operation, per selection or per file) keep
  a record (id, parent id, name, start, end, self time) in memory;
* tally targets (one call per kappa or per replicate, a hundred thousand
  per round in a kappa study) only add to per-name totals, so that the
  span list stays small enough to write out.

A target whose module or attribute is missing is skipped; the metrics
built on it are then left out of the report.
"""

import functools
import math
import sys
import time

import numpy as np

# (module, attribute path, kind). Module names are relative to the package.
TARGETS = (
    ("cli", "main", "span"),
    ("problems", "generate_problem", "span"),
    ("problems", "synthesize_observations", "span"),
    ("model", "load_problem", "span"),
    ("model", "save_problem", "span"),
    ("serialize", "dump", "span"),
    ("marginal", "write_sweep_csv", "span"),
    ("marginal", "sweep_objective", "span"),
    ("marginal", "MarginalWorkspace.__init__", "span"),
    ("marginal", "MarginalWorkspace.operators", "tally"),
    ("marginal", "MarginalOperators.quad_form", "tally"),
    ("selection", "select_case1", "span"),
    ("selection", "select_case2", "span"),
    ("selection", "minimize_scalar", "span"),
    ("bias", "replicate_stream", "tally"),
    ("bias", "expected_sigma2_terms", "span"),
    ("bias", "mc_sigma2_study", "span"),
    ("bias", "mc_kappa_study", "span"),
)

SELECT_NAMES = ("selection.select_case1", "selection.select_case2")
KAPPA_STUDY = "bias.mc_kappa_study"


class Tracer:
    """Frames, spans and counters for the calls made while installed."""

    def __init__(self, package):
        self.package = package
        self.spans = []
        self.present = set()
        self._stack = []
        self._patches = []
        self._next_id = 0
        self.reset_totals()

    def reset_totals(self):
        """Start a new accounting period (a setup or a round)."""
        self.time = {}
        self.calls = {}
        self.self_time = {}
        self.counts = {
            "evals_in_select": 0,
            "selections": 0,
            "selections_in_kappa_study": 0,
            "nonfinite_grid_points": 0,
        }
        self._open = {}

    def frame(self, name, tally=False):
        return _Frame(self, name, tally)

    def is_open(self, *names):
        return any(self._open.get(name, 0) for name in names)

    def _enter(self, name, tally):
        self._open[name] = self._open.get(name, 0) + 1
        parent = self._stack[-1][3] if self._stack else None
        if tally:
            scope = parent
        else:
            self._next_id += 1
            scope = self._next_id
        # name, start, child time, enclosing span id, parent span id
        self._stack.append([name, time.perf_counter(), 0.0, scope, parent])

    def _exit(self, tally):
        end = time.perf_counter()
        name, start, child, scope, parent = self._stack.pop()
        self._open[name] -= 1
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        self.time[name] = self.time.get(name, 0.0) + duration
        self.calls[name] = self.calls.get(name, 0) + 1
        layer = name.split(".", 1)[0]
        self.self_time[layer] = self.self_time.get(layer, 0.0) + duration - child
        if not tally:
            self.spans.append((scope, parent, name, start, end, duration - child))

    def install(self):
        """Wrap every target that exists; remember the originals."""
        for module_name, attr_path, kind in TARGETS:
            module = getattr(self.package, module_name, None)
            owner_name, _, attr = attr_path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                continue
            name = f"{module_name}.{attr_path}"
            self.present.add(name)
            wrapper = self._wrap(name, original, kind == "tally")
            self._patch(owner, attr, original, wrapper)
            if not owner_name:
                # modules that imported the function by name hold their own reference
                prefix = self.package.__name__ + "."
                for key, other in list(sys.modules.items()):
                    if (
                        key.startswith(prefix)
                        and other is not owner
                        and getattr(other, attr, None) is original
                    ):
                        self._patch(other, attr, original, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def _wrap(self, name, original, tally):
        tracer = self
        hook = _HOOKS.get(name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            frame_name = name
            if name == "marginal.MarginalOperators.quad_form":
                residual = args[1] if len(args) > 1 else kwargs.get("residual")
                if np.ndim(residual) == 2:
                    frame_name = "marginal.quad_form_batch"
            elif name == "selection.minimize_scalar":
                args = (tracer._timed_objective(args[0]),) + args[1:]
            elif name == "marginal.MarginalWorkspace.operators" and tracer.is_open(*SELECT_NAMES):
                tracer.counts["evals_in_select"] += 1
            with tracer.frame(frame_name, tally=tally):
                result = original(*args, **kwargs)
            if hook is not None:
                result = hook(tracer, result)
            return result

        return wrapper

    def _timed_objective(self, objective):
        def timed(kappa):
            with self.frame("selection.objective", tally=True):
                return objective(kappa)

        return timed


class _Frame:
    __slots__ = ("tracer", "name", "tally")

    def __init__(self, tracer, name, tally):
        self.tracer = tracer
        self.name = name
        self.tally = tally

    def __enter__(self):
        self.tracer._enter(self.name, self.tally)

    def __exit__(self, *exc):
        self.tracer._exit(self.tally)
        return False


class _TimedStream:
    """Generator stand-in that times each draw as stream work."""

    def __init__(self, tracer, rng):
        self._tracer = tracer
        self._rng = rng

    def standard_normal(self, *args, **kwargs):
        with self._tracer.frame("bias.stream_draw", tally=True):
            return self._rng.standard_normal(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


def _after_select(tracer, result):
    tracer.counts["selections"] += 1
    if tracer.is_open(KAPPA_STUDY):
        tracer.counts["selections_in_kappa_study"] += 1
    tracer.counts["nonfinite_grid_points"] += sum(
        1 for _, value in getattr(result, "trace", ()) if not math.isfinite(value)
    )
    return result


def _after_stream(tracer, rng):
    return _TimedStream(tracer, rng)


_HOOKS = {
    "selection.select_case1": _after_select,
    "selection.select_case2": _after_select,
    "bias.replicate_stream": _after_stream,
}


def layer_metrics(tracer, per_round_bytes):
    """Per-layer metrics of one traced round, from the tracer's totals.

    Returns a dict of name -> (value, unit); a metric whose targets were
    not all found is left out.
    """
    t, calls, counts, present = tracer.time, tracer.calls, tracer.counts, tracer.present
    out = {}

    def total(*names):
        return sum(t.get(n, 0.0) for n in names)

    def have(*names):
        return all(n in present for n in names)

    if have("model.load_problem"):
        out["model.load_s"] = (total("model.load_problem"), "s")
    if have("serialize.dump", "marginal.write_sweep_csv"):
        out["serialize.result_write_s"] = (
            total("serialize.dump", "marginal.write_sweep_csv"),
            "s",
        )
    out["serialize.bytes"] = (per_round_bytes, "bytes")
    if have("marginal.MarginalWorkspace.__init__"):
        out["marginal.workspace_s"] = (total("marginal.MarginalWorkspace.__init__"), "s")
    if have("marginal.sweep_objective"):
        out["marginal.sweep_s"] = (total("marginal.sweep_objective"), "s")
    if have("marginal.MarginalOperators.quad_form"):
        out["marginal.batch_quad_s"] = (total("marginal.quad_form_batch"), "s")
    if have(*SELECT_NAMES):
        out["selection.select_s"] = (total(*SELECT_NAMES), "s")
        out["selection.nonfinite_grid_points"] = (counts["nonfinite_grid_points"], "count")
        if have("marginal.MarginalWorkspace.operators"):
            per = counts["evals_in_select"] / counts["selections"] if counts["selections"] else 0
            out["selection.evals"] = (per, "count")
    if have("selection.minimize_scalar"):
        out["selection.optimizer_s"] = (
            total("selection.minimize_scalar") - total("selection.objective"),
            "s",
        )
    if have("bias.replicate_stream"):
        out["bias.streams_s"] = (total("bias.replicate_stream", "bias.stream_draw"), "s")
    if have("bias.expected_sigma2_terms"):
        out["bias.analytic_s"] = (total("bias.expected_sigma2_terms"), "s")
    if have("bias.mc_sigma2_study"):
        out["bias.sigma2_study_s"] = (total("bias.mc_sigma2_study"), "s")
    if have(KAPPA_STUDY):
        out["bias.kappa_study_s"] = (total(KAPPA_STUDY), "s")
        studies = calls.get(KAPPA_STUDY, 0)
        per = counts["selections_in_kappa_study"] / studies if studies else 0
        out["bias.selections"] = (per, "count")
    if have("cli.main"):
        out["cli.self_s"] = (tracer.self_time.get("cli", 0.0), "s")
    return out
