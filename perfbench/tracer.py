"""Span tracing of baryopt's layers, installed from outside the package.

The tracer replaces, for the duration of one operation, the functions that
baryopt's modules reach through their own globals (public functions, the
names other modules import, and the RK4 step) and the methods of the loss
families and simplex point types with thin wrappers.  Each call becomes a
span: name, start, end, parent span and one number observed from its result
(bytes returned, inner steps, outer iterations).  Spans stay in flat arrays
in memory; `summary` derives the per-layer metrics from them and `save`
writes them out once the run is over.

A layer is the baryopt module that defines the called function.  A span's
self time is its duration minus the durations of its child spans; calls run
on one thread, so children never overlap.  The wrappers' own cost lands in
the self time of the calling span, which is why the benchmark reports traced
and untraced operation times side by side.
"""

import contextlib
import functools
import importlib
import time
import types
from array import array

import numpy as np

LAYERS = (
    "simplex_geometry",
    "objectives",
    "prox",
    "ppa",
    "flows",
    "landscape",
    "checks",
    "cli",
)
OP_SPAN = "bench.op"

# Private functions worth a span of their own, by module.
_PRIVATE = {"flows": ("_rk4_step",)}
_FAMILY_METHODS = ("values", "jacobian", "hessians")
_POINT_CLASSES = ("SimplexPoint", "HybridPoint")


def _nbytes(result, err):
    return float(result.nbytes) if isinstance(result, np.ndarray) else 0.0


def _inner_steps(result, err):
    if err is not None:
        return float(getattr(err, "iterations", None) or 0)
    return float(result.inner_iterations)


def _outer_iters(result, err):
    return 0.0 if err is not None else float(result.iterations)


# What a span records besides its times, by span name.
_OBSERVERS = {
    "objectives.values": _nbytes,
    "objectives.jacobian": _nbytes,
    "objectives.hessians": _nbytes,
    "prox.prox": _inner_steps,
    "ppa.run_ppa": _outer_iters,
}


class Tracer:
    """Records spans of baryopt calls made while an operation is traced."""

    def __init__(self):
        self.names = [OP_SPAN]
        self._ids = {OP_SPAN: 0}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.extra = array("d")
        self.raised = array("b")
        self._stack = [-1]
        self._wrappers = {}
        self._patches = self._plan_patches()

    # -- recording ---------------------------------------------------------

    def _open(self, nid):
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.extra.append(0.0)
        self.raised.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _intern(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name):
        key = (id(fn), name)
        if key in self._wrappers:
            return self._wrappers[key]
        nid = self._intern(name)
        observe = _OBSERVERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                tracer._close(idx)
                tracer.raised[idx] = 1
                if observe is not None:
                    tracer.extra[idx] = observe(None, err)
                raise
            tracer._close(idx)
            if observe is not None:
                tracer.extra[idx] = observe(result, None)
            return result

        self._wrappers[key] = traced
        return traced

    # -- patching ----------------------------------------------------------

    def _plan_patches(self):
        """List (owner, attribute, original, wrapper) for every traced name."""
        patches = []
        for layer in LAYERS:
            module = importlib.import_module(f"baryopt.{layer}")
            for attr, value in vars(module).items():
                if not isinstance(value, types.FunctionType):
                    continue
                home = value.__module__ or ""
                if not home.startswith("baryopt."):
                    continue
                if attr.startswith("_") and attr not in _PRIVATE.get(layer, ()):
                    continue
                name = f"{home.split('.', 1)[1]}.{value.__name__}"
                patches.append((module, attr, value, self._wrap(value, name)))

        objectives = importlib.import_module("baryopt.objectives")
        for cls in vars(objectives).values():
            if isinstance(cls, type) and issubclass(cls, objectives.ObjectiveFamily):
                for meth in _FAMILY_METHODS:
                    if meth in vars(cls):
                        fn = vars(cls)[meth]
                        patches.append((cls, meth, fn, self._wrap(fn, f"objectives.{meth}")))

        geometry = importlib.import_module("baryopt.simplex_geometry")
        for cls_name in _POINT_CLASSES:
            cls = getattr(geometry, cls_name)
            for attr, value in vars(cls).items():
                name = f"simplex_geometry.{cls_name}.{attr}"
                if attr == "__init__":
                    wrapped = self._wrap(value, f"simplex_geometry.{cls_name}")
                elif isinstance(value, classmethod):
                    wrapped = classmethod(self._wrap(value.__func__, name))
                elif isinstance(value, property):
                    wrapped = property(self._wrap(value.fget, name))
                else:
                    continue
                patches.append((cls, attr, value, wrapped))
        return patches

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def traced_op(self):
        """Patch, record the operation's root span around the body, restore."""
        self.install()
        idx = self._open(0)
        try:
            yield
        finally:
            self._close(idx)
            self.uninstall()

    # -- analysis ----------------------------------------------------------

    def arrays(self):
        """Spans as numpy arrays, with each span's operation id."""
        name = np.array(self.name, dtype=np.int64)
        return {
            "start": np.array(self.start),
            "end": np.array(self.end),
            "name": name,
            "parent": np.array(self.parent, dtype=np.int64),
            "extra": np.array(self.extra),
            "raised": np.array(self.raised, dtype=bool),
            "op": np.cumsum(name == 0) - 1,
        }

    def summary(self):
        """Per-operation layer metrics over every traced operation."""
        sp = self.arrays()
        name, parent = sp["name"], sp["parent"]
        n_ops = int(np.sum(name == 0))
        if n_ops == 0:
            raise RuntimeError("no traced operation to summarize")
        dur = sp["end"] - sp["start"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=name.size)
        self_time = dur - child

        layer_of = np.array([
            LAYERS.index(n.split(".", 1)[0]) if n.split(".", 1)[0] in LAYERS else -1
            for n in self.names
        ])
        layer = layer_of[name]
        parent_layer = np.where(has_parent, layer[np.maximum(parent, 0)], -2)
        entry = layer != parent_layer

        def ids(span_name):
            return self._ids.get(span_name, -1)

        def named(span_name):
            return name == ids(span_name)

        # Spans with a prox.prox span among their ancestors (or being one).
        in_prox = named("prox.prox")
        while True:
            spread = in_prox | (has_parent & in_prox[np.maximum(parent, 0)])
            if np.array_equal(spread, in_prox):
                break
            in_prox = spread

        values_entry = named("objectives.values") & entry
        prox_calls = named("prox.prox")
        under_step = has_parent & (name[np.maximum(parent, 0)] == ids("flows._rk4_step"))
        family_evals = float(np.sum(values_entry & in_prox))
        inner_steps = float(sp["extra"][prox_calls].sum())
        landscape_entry = (layer == LAYERS.index("landscape")) & entry

        def per_op(x):
            return float(x) / n_ops

        def layer_self(name_):
            return per_op(self_time[layer == LAYERS.index(name_)].sum())

        def median(x):
            return float(np.median(x)) if x.size else 0.0

        objective_entry = (layer == LAYERS.index("objectives")) & entry
        return {
            "ppa.outer_iters": per_op(sp["extra"][named("ppa.run_ppa")].sum()),
            "ppa.self_s": layer_self("ppa"),
            "prox.calls": per_op(prox_calls.sum()),
            "prox.s_per_call": median(dur[prox_calls]),
            "prox.self_s": layer_self("prox"),
            "prox.inner_steps": per_op(inner_steps),
            "prox.family_evals": per_op(family_evals),
            "prox.steps_per_eval": inner_steps / family_evals if family_evals else 0.0,
            "prox.inner_failures": per_op((prox_calls & sp["raised"]).sum()),
            "simplex_geometry.calls": per_op(
                ((layer == LAYERS.index("simplex_geometry")) & entry).sum()),
            "simplex_geometry.self_s": layer_self("simplex_geometry"),
            "objectives.values_calls": per_op(values_entry.sum()),
            "objectives.jacobian_calls": per_op((named("objectives.jacobian") & entry).sum()),
            "objectives.hessians_calls": per_op((named("objectives.hessians") & entry).sum()),
            "objectives.self_s": layer_self("objectives"),
            "objectives.bytes_out": per_op(sp["extra"][objective_entry].sum()),
            "flows.rk4_steps": per_op(named("flows._rk4_step").sum()),
            "flows.rhs_evals": per_op((values_entry & under_step).sum()),
            "flows.step_s": per_op(dur[named("flows._rk4_step")].sum()),
            "flows.record_s": per_op(
                dur[named("flows.df_dt_analytic") | named("flows.entropy_rate_analytic")].sum()),
            "cli.self_s": layer_self("cli"),
            "checks.self_s": layer_self("checks"),
            "landscape.calls": per_op(landscape_entry.sum()),
            "landscape.s_per_call": median(dur[landscape_entry]),
        }

    def save(self, path):
        """Write every span, with the name table, to an .npz file."""
        np.savez(path, names=np.array(self.names), **self.arrays())
