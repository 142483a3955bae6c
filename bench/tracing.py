"""Spans around the public functions of ``splitfp``, recorded from outside.

A :class:`Tracer` replaces each traced function with a wrapper at every
name a ``splitfp`` module binds it to (a module that imports a function by
name looks it up in its own namespace, so wrapping only the defining module
would miss those calls).  Methods are wrapped on their class.  Each call
appends one span: name, parent span, start and end.  Spans live in flat
arrays while a pass runs; :func:`layer_metrics` turns them into per-layer
counts and times, and :meth:`Tracer.save` writes them out.

Self time of a span is its duration minus the time its child spans cover.
"""

import sys
from array import array
from time import perf_counter

import numpy as np

# (layer span name, defining module, attribute).  ``Class.method`` entries
# are wrapped on the class; plain names at every module that binds them.
TARGETS = (
    ("operators.map", "splitfp.operators", "FixedPointMap.__call__"),
    ("operators.power", "splitfp.operators", "power_apply"),
    ("operators.verify", "splitfp.operators", "verify_class"),
    ("rules.eval", "splitfp.rules", "Rational1D.__call__"),
    ("rules.eval", "splitfp.rules", "Piecewise1D.__call__"),
    ("spaces.linear", "splitfp.spaces", "LinearMap.apply"),
    ("spaces.linear", "splitfp.spaces", "LinearMap.apply_adjoint"),
    ("spaces.norm", "splitfp.spaces", "norm"),
    ("projections.project", "splitfp.projections", "project"),
    ("projections.contains", "splitfp.projections", "contains"),
    ("projections.cut", "splitfp.projections", "halfspace_from_distance_dominance"),
    ("solvers.run", "splitfp.solvers", "run"),
    ("solvers.step", "splitfp.solvers", "step_scfpp"),
    ("solvers.step", "splitfp.solvers", "step_scfpp_adaptive"),
    ("solvers.step", "splitfp.solvers", "step_synchronal"),
    ("solvers.step", "splitfp.solvers", "step_sffpep"),
    ("solvers.step", "splitfp.solvers", "step_scfpep"),
    ("solvers.step", "splitfp.solvers", "step_extragradient"),
    ("presets.catalog", "splitfp.presets", "catalog"),
    ("diagnostics.fejer", "splitfp.diagnostics", "fejer_check"),
    ("cli.config", "splitfp.cli", "build_spec_from_config"),
    # config loading as a whole (file read, preset lookup, flags); private,
    # so it is skipped if a later version renames it
    ("cli.config", "splitfp.cli", "_load_run_config"),
    ("cli.csv", "splitfp.cli", "write_trace_csv"),
    ("cli.json", "splitfp.cli", "write_trace_json"),
    ("cli.svg", "splitfp.cli", "write_residual_svg"),
)

# root spans opened by the benchmark around each operation
OP_SPAN = "bench.op"

# per-layer metrics: name -> unit, in the order they are printed
LAYER_METRICS = {
    "operators.map_calls": "count",
    "operators.map_self_s": "s",
    "operators.power_calls": "count",
    "operators.power_s": "s",
    "operators.power_evals_per_call": "evals/call",
    "operators.verify_s": "s",
    "rules.eval_calls": "count",
    "rules.eval_s": "s",
    "spaces.linear_calls": "count",
    "spaces.linear_s": "s",
    "spaces.norm_calls": "count",
    "spaces.norm_s": "s",
    "projections.project_calls": "count",
    "projections.project_s": "s",
    "projections.bodies_per_project": "bodies/call",
    "projections.cut_calls": "count",
    "projections.contains_calls": "count",
    "projections.contains_s": "s",
    "solvers.iterations": "count",
    "solvers.step_self_s": "s",
    "solvers.driver_self_s": "s",
    "presets.catalog_calls": "count",
    "presets.catalog_s": "s",
    "diagnostics.fejer_s": "s",
    "cli.config_s": "s",
    "cli.csv_s": "s",
    "cli.json_s": "s",
    "cli.svg_s": "s",
    "cli.bytes_written": "bytes",
    "trace.overhead_s": "s",
}


class Tracer:
    """Installs span-recording wrappers and keeps the spans of one pass."""

    def __init__(self):
        self.names = [OP_SPAN] + sorted({t[0] for t in TARGETS})
        self._ids = {n: i for i, n in enumerate(self.names)}
        self._restore = []
        self.reset()

    def reset(self):
        """Drop the recorded spans and counters (wrappers stay installed)."""
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.intersection_projects = 0
        self.intersection_bodies = 0

    def span(self, name):
        """Context manager recording one span, used for benchmark operations."""
        return _Span(self, self._ids[name])

    def _open(self, name_id):
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx, t0, t1):
        self._stack.pop()
        self.start[idx] = t0
        self.end[idx] = t1

    def _wrap(self, name, fn):
        name_id = self._ids[name]
        opener, closer = self._open, self._close

        def traced(*args, **kwargs):
            idx = opener(name_id)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                closer(idx, t0, perf_counter())

        if name == "projections.project":
            def traced_project(S, x, _inner=traced):
                bodies = getattr(S, "bodies", None)
                if bodies is not None:
                    self.intersection_projects += 1
                    self.intersection_bodies += len(bodies)
                return _inner(S, x)
            return traced_project
        return traced

    def install(self):
        """Wrap every target at each name the loaded ``splitfp`` modules use."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "splitfp" or n.startswith("splitfp.")) and m is not None]
        for name, module_name, attr in TARGETS:
            home = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original))
                continue
            original = getattr(home, attr, None)
            if original is None:
                continue
            wrapped = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapped)

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore = []

    def arrays(self):
        """The recorded spans as numpy arrays: name id, parent, start, end."""
        return (np.frombuffer(self.name, dtype=np.int32).copy(),
                np.frombuffer(self.parent, dtype=np.int32).copy(),
                np.frombuffer(self.start, dtype=np.float64).copy(),
                np.frombuffer(self.end, dtype=np.float64).copy())

    def save(self, path):
        """Write the spans of the current pass as a compressed ``.npz`` file."""
        name, parent, start, end = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name=name,
                            parent=parent, start=start, end=end)


class _Span:
    def __init__(self, tracer, name_id):
        self.tracer = tracer
        self.name_id = name_id

    def __enter__(self):
        self.idx = self.tracer._open(self.name_id)
        self.t0 = perf_counter()
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.idx, self.t0, perf_counter())
        return False


def layer_metrics(tracer):
    """Per-layer counts and times of the spans recorded since the last reset.

    ``*_calls`` count spans; ``*_s`` of a layer is the time of its outermost
    spans (a span whose parent belongs to the same layer is inside it);
    ``*_self_s`` sums self time over all spans of the layer.
    """
    name, parent, start, end = tracer.arrays()
    ids = {n: i for i, n in enumerate(tracer.names)}
    dur = end - start
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                             minlength=len(name))
    self_time = dur - child_time
    parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)

    def mask(layer):
        return name == ids[layer]

    def calls(layer):
        return int(np.count_nonzero(mask(layer)))

    def outer_calls(layer):
        return int(np.count_nonzero(mask(layer) & (parent_name != ids[layer])))

    def inclusive(layer):
        return float(dur[mask(layer) & (parent_name != ids[layer])].sum())

    def self_s(layer):
        return float(self_time[mask(layer)].sum())

    power_calls = calls("operators.power")
    evals_in_powers = int(np.count_nonzero(
        mask("operators.map") & (parent_name == ids["operators.power"])))
    return {
        "operators.map_calls": calls("operators.map"),
        "operators.map_self_s": self_s("operators.map"),
        "operators.power_calls": power_calls,
        "operators.power_s": inclusive("operators.power"),
        "operators.power_evals_per_call": (
            evals_in_powers / power_calls if power_calls else 0.0),
        "operators.verify_s": inclusive("operators.verify"),
        "rules.eval_calls": outer_calls("rules.eval"),
        "rules.eval_s": inclusive("rules.eval"),
        "spaces.linear_calls": calls("spaces.linear"),
        "spaces.linear_s": inclusive("spaces.linear"),
        "spaces.norm_calls": calls("spaces.norm"),
        "spaces.norm_s": inclusive("spaces.norm"),
        "projections.project_calls": calls("projections.project"),
        "projections.project_s": inclusive("projections.project"),
        "projections.bodies_per_project": (
            tracer.intersection_bodies / tracer.intersection_projects
            if tracer.intersection_projects else 0.0),
        "projections.cut_calls": calls("projections.cut"),
        "projections.contains_calls": calls("projections.contains"),
        "projections.contains_s": inclusive("projections.contains"),
        "solvers.iterations": calls("solvers.step"),
        "solvers.step_self_s": self_s("solvers.step"),
        "solvers.driver_self_s": self_s("solvers.run"),
        "presets.catalog_calls": calls("presets.catalog"),
        "presets.catalog_s": inclusive("presets.catalog"),
        "diagnostics.fejer_s": inclusive("diagnostics.fejer"),
        "cli.config_s": inclusive("cli.config"),
        "cli.csv_s": inclusive("cli.csv"),
        "cli.json_s": inclusive("cli.json"),
        "cli.svg_s": inclusive("cli.svg"),
    }
