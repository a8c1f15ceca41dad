"""Span recorder for the traced benchmark run.

Instrumentation lives entirely in the benchmark: `instrument` wraps each
kkpolar module's public functions (and rebinds the names other modules
imported, such as `rule_alpha` and `nm_polish` in `polarization`) so that
every call opens a frame on one stack.  A frame's self time is its duration
minus the time its child frames cover, so the self times of all layers add
up to the traced wall time.

Frames are kept as spans (call id, span id, parent span id, name, start,
end, self time) in memory and written out at the end, except for the hot
ones, of which a block makes up to millions: signed inner products,
objective evaluations, numerical gradients and the batch screen open frames
that only feed the totals, and polynomial arithmetic, g, g', eval_h and
tangent bases are timed as leaves without a frame.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYERS = ("cli", "polarization", "quadrature", "signed_measure", "polynomials",
          "interpolants", "potentials", "codes", "sphere_opt")

# function name -> group whose outermost frames are timed and counted
GROUPS = {
    "harness.call": "harness",
    "cli.main": "cli",
    "polarization.lower_bound": "bound",
    "polarization.upper_bound_finite": "bound",
    "polarization.upper_bound_s": "bound",
    "polarization.extremize": "extremize",
    "interpolants.build_H2k": "build",
    "interpolants.build_H2k_tilde": "build",
    "interpolants.build_H2k_s": "build",
    "interpolants._interpolate": "build",
    "interpolants.verify_one_sided": "margin",
    "potentials.g": "g",
    "codes.is_kk_design": "design_test",
    "codes.covering_radius_r": "covering",
    "codes.load_code": "load",
    "sphere_opt.nm_polish": "polish",
    "sphere_opt.projected_gradient_descent": "descent",
}

# frames aggregated into totals but not kept as spans
HOT = {"signed_measure.signed_inner_product", "sphere_opt.projected_gradient",
       "polarization._u_batch", "objective"}

# calls timed without a frame (see _leaf), besides the whole polynomials
# layer and the g / g' of every parsed potential
LEAVES = {"potentials.eval_h", "potentials.monomial_2k", "potentials.p_frame",
          "potentials.riesz_sym", "potentials.gaussian_sym", "potentials.arcsine",
          "potentials.negate", "potentials.user_potential",
          "sphere_opt.tangent_basis"}

# sphere_opt entry points whose first argument is the objective
OBJECTIVE_TAKERS = {"nm_polish", "projected_gradient_descent",
                    "projected_gradient", "stationarity_norm"}


class _Frame:
    __slots__ = ("name", "layer", "group", "keep", "sid", "start", "child",
                 "polish")

    def __init__(self, name, layer, group, keep, sid):
        self.name = name
        self.layer = layer
        self.group = group
        self.keep = keep
        self.sid = sid
        self.child = 0.0
        self.polish = None


class Tracer:
    """One stack of open frames plus the totals computed as frames close."""

    def __init__(self):
        self.stack: list[_Frame] = []
        self.spans: list[tuple] = []
        self.call_id = 0
        self.self_s = defaultdict(float)      # layer -> self time
        self.entries = defaultdict(int)       # layer -> entries from another layer
        self.group_s = defaultdict(float)     # group -> outermost-frame time
        self.group_calls = defaultdict(int)
        self.counts = defaultdict(float)      # named counters
        self._depth = defaultdict(int)
        self._kinds: dict[str, tuple] = {}
        self._next_sid = 1
        self.in_leaf = False

    def push(self, name: str, layer: str) -> _Frame:
        if self.in_leaf:
            raise RuntimeError(f"{name} called inside a traced leaf")
        stack = self.stack
        parent = stack[-1] if stack else None
        if parent is None or parent.layer != layer:
            self.entries[layer] += 1
        kind = self._kinds.get(name)
        if kind is None:
            kind = (GROUPS.get(name), name not in HOT)
            self._kinds[name] = kind
        group, keep = kind
        if group is not None:
            self._depth[group] += 1
        if keep:
            sid = self._next_sid
            self._next_sid += 1
        else:
            sid = parent.sid if parent is not None else 0
        frame = _Frame(name, layer, group, keep, sid)
        stack.append(frame)
        frame.start = perf_counter()
        return frame

    def pop(self, frame: _Frame) -> None:
        end = perf_counter()
        stack = self.stack
        stack.pop()
        dur = end - frame.start
        own = dur - frame.child
        self.self_s[frame.layer] += own
        parent = stack[-1] if stack else None
        if parent is not None:
            parent.child += dur
        group = frame.group
        if group is not None:
            self._depth[group] -= 1
            if self._depth[group] == 0:
                self.add_group(group, dur)
        if frame.keep:
            parent_sid = parent.sid if parent is not None else 0
            self.spans.append((self.call_id, frame.sid, parent_sid, frame.name,
                               frame.start, end, own))

    def add_group(self, group: str, duration: float) -> None:
        self.group_s[group] += duration
        self.group_calls[group] += 1

    def close_leaf(self, layer: str, group, duration: float) -> None:
        self.self_s[layer] += duration
        if self.stack:
            self.stack[-1].child += duration
        if group is not None:
            self.add_group(group, duration)

    def count(self, counter: str, amount: float = 1) -> None:
        self.counts[counter] += amount

    @contextmanager
    def span(self, name: str, layer: str):
        frame = self.push(name, layer)
        try:
            yield frame
        finally:
            self.pop(frame)

    def caller_layer(self) -> str | None:
        return self.stack[-1].layer if self.stack else None

    def record_polish(self, value: float) -> None:
        """Attach a polish result to the enclosing extremize or covering
        frame, which judges it against its own final value."""
        for frame in reversed(self.stack):
            if frame.polish is not None:
                frame.polish.append(value)
                return

    def judge_polishes(self, frame: _Frame, final: float) -> None:
        for value in frame.polish:
            self.counts["polish_results"] += 1
            if abs(abs(value) - abs(final)) <= 1e-12 * max(1.0, abs(final)):
                self.counts["useful_polishes"] += 1

    def write(self, path) -> None:
        fields = ["call", "span", "parent", "name", "start", "end", "self_s"]
        with open(path, "w") as handle:
            json.dump({"fields": fields, "spans": self.spans}, handle)


def _plain(tracer: Tracer, fn, name: str, layer: str):
    def wrapper(*args, **kwargs):
        frame = tracer.push(name, layer)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.pop(frame)
    return wrapper


def _leaf(tracer: Tracer, fn, layer: str, group=None, count=None):
    """Time a call that reaches no other traced function without opening a
    frame: its whole duration is its layer's self time.  Calls nested in a
    leaf run untimed, except that a group still gets their duration."""
    def wrapper(*args, **kwargs):
        if count is not None:
            count(args)
        if tracer.in_leaf:
            if group is None:
                return fn(*args, **kwargs)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.add_group(group, perf_counter() - start)
        tracer.in_leaf = True
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = perf_counter() - start
            tracer.in_leaf = False
            tracer.close_leaf(layer, group, duration)
    return wrapper


def _count_poly_eval(tracer: Tracer):
    return lambda args: tracer.count("poly_evals")


def _count_g(tracer: Tracer):
    def count(args):
        u = args[0]
        if np.ndim(u) == 0:
            tracer.counts["g_scalar_calls"] += 1
        else:
            tracer.counts["g_array_calls"] += 1
            tracer.counts["g_points"] += np.size(u)
    return count


def _objective(tracer: Tracer, f, layer: str):
    def wrapper(x):
        tracer.counts["objective_evals"] += 1
        frame = tracer.push("objective", layer)
        try:
            return f(x)
        finally:
            tracer.pop(frame)
    return wrapper


def _sphere_opt(tracer: Tracer, fn, name: str):
    """Objective takers: an objective passed in from another layer is
    counted and timed as work of that layer."""
    polish = name == "sphere_opt.nm_polish"

    def wrapper(f, *args, **kwargs):
        caller = tracer.caller_layer()
        if caller != "sphere_opt":
            f = _objective(tracer, f, caller)
        frame = tracer.push(name, "sphere_opt")
        try:
            result = fn(f, *args, **kwargs)
        finally:
            tracer.pop(frame)
        if polish:
            tracer.record_polish(result[0])
        return result
    return wrapper


def _judged(tracer: Tracer, fn, name: str, layer: str, final):
    """extremize / covering_radius_r: collect the polishes run inside and
    judge each against the call's final value."""
    def wrapper(*args, **kwargs):
        frame = tracer.push(name, layer)
        frame.polish = []
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.pop(frame)
        tracer.judge_polishes(frame, final(result))
        return result
    return wrapper


def _counted(tracer: Tracer, fn, name: str, layer: str, count):
    inner = _plain(tracer, fn, name, layer)

    def wrapper(*args, **kwargs):
        count(args, kwargs)
        return inner(*args, **kwargs)
    return wrapper


def _margin_points(tracer: Tracer, fn):
    signature = inspect.signature(fn)

    def count(args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        tracer.counts["margin_points"] += bound.arguments["grid_size"]
    return count


def _parse_potential(tracer: Tracer, fn):
    """Hand out a copy of the potential whose g and g' are traced leaves;
    the wrappers pass arrays through, so array evaluation keeps working."""
    def wrapper(text):
        frame = tracer.push("potentials.parse_potential", "potentials")
        try:
            pot = fn(text)
        finally:
            tracer.pop(frame)
        return dataclasses.replace(
            pot,
            eval_g=_leaf(tracer, pot.eval_g, "potentials", "g",
                         _count_g(tracer)),
            eval_g_prime=_leaf(tracer, pot.eval_g_prime, "potentials"))
    return wrapper


def _wrap_function(tracer: Tracer, layer: str, attr: str, fn):
    name = f"{layer}.{attr}"
    if layer == "polynomials" or name in LEAVES:
        return _leaf(tracer, fn, layer)
    if name == "potentials.certify_sign":
        return _leaf(tracer, fn, layer, count=lambda args: tracer.count("certify_calls"))
    if layer == "sphere_opt" and attr in OBJECTIVE_TAKERS:
        return _sphere_opt(tracer, fn, name)
    if name == "polarization.extremize":
        return _judged(tracer, fn, name, layer, lambda res: res.value)
    if name == "codes.covering_radius_r":
        return _judged(tracer, fn, name, layer, lambda res: res[0])
    if name == "interpolants.verify_one_sided":
        return _counted(tracer, fn, name, layer, _margin_points(tracer, fn))
    if name == "potentials.parse_potential":
        return _parse_potential(tracer, fn)
    if name == "polarization._u_batch":
        return _counted(tracer, fn, name, layer, lambda args, kwargs: tracer.count(
            "seeds_screened", args[2].shape[0]))
    return _plain(tracer, fn, name, layer)


def _module_targets(module, others):
    """Public functions defined in the module, the private helpers other
    modules imported, and the batch screen, which carries a counter."""
    for attr, obj in vars(module).items():
        if not inspect.isfunction(obj) or obj.__module__ != module.__name__:
            continue
        imported = any(getattr(other, attr, None) is obj for other in others)
        if not attr.startswith("_") or imported or attr == "_u_batch":
            yield attr, obj


def _class_patches(tracer: Tracer, cls, layer: str):
    """Every method of a polynomials class, as a leaf."""
    for attr, raw in list(vars(cls).items()):
        if isinstance(raw, classmethod):
            yield attr, raw, classmethod(_leaf(tracer, raw.__func__, layer))
        elif inspect.isfunction(raw):
            count = _count_poly_eval(tracer) if attr == "__call__" else None
            yield attr, raw, _leaf(tracer, raw, layer, count=count)


@contextmanager
def instrument(tracer: Tracer):
    """Install the wrappers for the duration of the block, then restore
    every original binding."""
    import kkpolar

    modules = {layer: importlib.import_module(f"kkpolar.{layer}")
               for layer in LAYERS}
    everywhere = list(modules.values()) + [kkpolar]
    undo = []
    for layer, module in modules.items():
        others = [m for m in modules.values() if m is not module]
        for attr, fn in list(_module_targets(module, others)):
            wrapped = _wrap_function(tracer, layer, attr, fn)
            for owner in everywhere:
                if getattr(owner, attr, None) is fn:
                    undo.append((owner, attr, fn))
                    setattr(owner, attr, wrapped)
    for cls in (modules["polynomials"].Polynomial,
                modules["polynomials"].GegenbauerFamily):
        for attr, raw, wrapped in list(_class_patches(tracer, cls, "polynomials")):
            undo.append((cls, attr, raw))
            setattr(cls, attr, wrapped)
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, blocks: int) -> dict:
    """Per-layer metrics per block of calls, as (value, unit) pairs."""
    t, c = tracer, tracer.counts
    polishes = c["polish_results"]
    rows = {
        "cli.calls": (t.group_calls["cli"], "count"),
        "cli.self_s": (t.self_s["cli"], "s"),
        "polarization.bound_calls": (t.group_calls["bound"], "count"),
        "polarization.bound_s": (t.group_s["bound"], "s"),
        "polarization.extremize_calls": (t.group_calls["extremize"], "count"),
        "polarization.extremize_s": (t.group_s["extremize"], "s"),
        "polarization.seeds_screened": (c["seeds_screened"], "count"),
        "polarization.self_s": (t.self_s["polarization"], "s"),
        "quadrature.calls": (t.entries["quadrature"], "count"),
        "quadrature.self_s": (t.self_s["quadrature"], "s"),
        "signed_measure.calls": (t.entries["signed_measure"], "count"),
        "signed_measure.self_s": (t.self_s["signed_measure"], "s"),
        "polynomials.evals": (c["poly_evals"], "count"),
        "polynomials.self_s": (t.self_s["polynomials"], "s"),
        "interpolants.build_calls": (t.group_calls["build"], "count"),
        "interpolants.build_s": (t.group_s["build"], "s"),
        "interpolants.margin_s": (t.group_s["margin"], "s"),
        "interpolants.margin_points": (c["margin_points"], "count"),
        "interpolants.self_s": (t.self_s["interpolants"], "s"),
        "potentials.g_scalar_calls": (c["g_scalar_calls"], "count"),
        "potentials.g_array_calls": (c["g_array_calls"], "count"),
        "potentials.g_points": (c["g_points"], "count"),
        "potentials.g_s": (t.group_s["g"], "s"),
        "potentials.certify_calls": (c["certify_calls"], "count"),
        "potentials.self_s": (t.self_s["potentials"], "s"),
        "codes.design_test_s": (t.group_s["design_test"], "s"),
        "codes.covering_calls": (t.group_calls["covering"], "count"),
        "codes.covering_s": (t.group_s["covering"], "s"),
        "codes.load_s": (t.group_s["load"], "s"),
        "codes.self_s": (t.self_s["codes"], "s"),
        "sphere_opt.polish_calls": (t.group_calls["polish"], "count"),
        "sphere_opt.polish_s": (t.group_s["polish"], "s"),
        "sphere_opt.descent_s": (t.group_s["descent"], "s"),
        "sphere_opt.objective_evals": (c["objective_evals"], "count"),
        "sphere_opt.self_s": (t.self_s["sphere_opt"], "s"),
        "harness.self_s": (t.self_s["harness"], "s"),
    }
    out = {name: (value / blocks, unit) for name, (value, unit) in rows.items()}
    out["sphere_opt.useful_polish_ratio"] = (
        c["useful_polishes"] / polishes if polishes else 0.0, "ratio")
    return out
