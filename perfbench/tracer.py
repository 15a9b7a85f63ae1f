"""Span tracer for the benchmark's traced run.

Spans are recorded around calls into the public functions of the
``plugplay`` modules, from outside the package: every module attribute
that refers to a traced function is swapped for a timing wrapper while
the tracer is active.  Patching every module that holds the function,
not only the one that defines it, matters because several modules
from-import what they call (``bass.solve_lyapunov``,
``agent.singular_values``, ...), and a patch of the defining module
alone would miss those calls.

Each span has a name, a start, an end and a parent span.  Spans are
kept in memory and summarised (calls, inclusive seconds, self seconds)
when the traced operation ends; ``save`` writes the raw spans out.
"""

from __future__ import annotations

import functools
import itertools
import os
import sys
import threading
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

# Metric name -> (module, attribute).  A dotted attribute names a method.
TRACED = {
    "sim.validate_scenario": ("sim", "validate_scenario"),
    "sim.run_scenario": ("sim", "run_scenario"),
    "sim.rk4_step": ("sim", "rk4_step"),
    "sim.write_trace_csv": ("sim", "write_trace_csv"),
    "agent.refresh_gains": ("agent", "ControlAgent.refresh_gains"),
    "agent.phi_update": ("agent", "PhiFilter.update"),
    "matlib.solve_lyapunov": ("matlib", "solve_lyapunov"),
    "matlib.singular_values": ("matlib", "singular_values"),
    "matlib.inverse": ("matlib", "inverse"),
    "matlib.spectral_abscissa": ("matlib", "spectral_abscissa"),
    "plant.is_controllable": ("plant", "is_controllable"),
    "bass.bass_solve": ("bass", "bass_solve"),
    "bass.dual_bass_solve": ("bass", "dual_bass_solve"),
    "bass.bass_certificate": ("bass", "bass_certificate"),
    "bass.decay_certificate": ("bass", "decay_certificate"),
    "consensus.bass_rate_params": ("consensus", "bass_rate_params"),
    "consensus.bass_flow_derivative": ("consensus", "bass_flow_derivative"),
    "consensus.dual_flow_derivative": ("consensus", "dual_flow_derivative"),
    "consensus.size_flow_derivative": ("consensus", "size_flow_derivative"),
    "analysis.closed_loop_matrix": ("analysis", "closed_loop_matrix"),
    "analysis.verify_block_bounds": ("analysis", "verify_block_bounds"),
    "suites.check_decay_envelopes": ("suites", "check_decay_envelopes"),
    "suites.check_gain_abscissa": ("suites", "check_gain_abscissa"),
    "suites.propagate_affine": ("suites", "propagate_affine"),
    "suites.random_gain_instance": ("suites", "random_gain_instance"),
    "cli.main": ("cli", "main"),
}

# Lyapunov solves are reported per size class of the n x n unknown.
LYAP_BUCKETS = ((4, "n_le4"), (8, "n_le8"), (16, "n_le16"), (32, "n_le32"), (None, "n_gt32"))

# Reported together, as one call count.
FLOW_DERIVATIVES = (
    "consensus.bass_flow_derivative",
    "consensus.dual_flow_derivative",
    "consensus.size_flow_derivative",
)
# Counts kept by the wrappers besides calls and seconds.
EXTRA_COUNTS = ("agent.phi.samples", "agent.phi.rejected", "plant.is_controllable.false")


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric (name, unit) a traced run reports."""
    out = []
    for name in TRACED:
        if name in FLOW_DERIVATIVES:
            continue
        out += [(f"{name}.calls", "count"), (f"{name}.s", "s")]
        if name == "matlib.solve_lyapunov":
            for _, tag in LYAP_BUCKETS:
                out += [(f"{name}.{tag}.calls", "count"), (f"{name}.{tag}.s", "s")]
    out += [
        ("sim.rhs.calls", "count"),
        ("sim.rhs.s", "s"),
        ("sim.rk4_step.self_s", "s"),
        ("sim.step_glue.s", "s"),
        ("sim.write_trace_csv.bytes", "B"),
        ("consensus.flow_derivative.calls", "count"),
    ]
    out += [(name, "count") for name in EXTRA_COUNTS]
    out += [("trace.spans", "count"), ("trace.overhead_s", "s")]
    return out


def _lyap_bucket(n: int) -> str:
    for top, tag in LYAP_BUCKETS:
        if top is None or n <= top:
            return f"matlib.solve_lyapunov.{tag}"
    raise AssertionError("unreachable")


class Tracer:
    """Records spans around the traced plugplay functions while active.

    Use as a context manager; on exit every patched attribute is
    restored.  Safe for calls from several threads: each thread keeps
    its own span stack, and span rows are appended under a lock.
    """

    def __init__(self):
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._sid = array("q")
        self._nid = array("i")
        self._parent = array("q")
        self._t0 = array("d")
        self._t1 = array("d")
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count()
        self.counts: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
        return self._name_ids[name]

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _call(self, nid: int, fn, args, kwargs):
        stack = self._stack()
        parent = stack[-1] if stack else -1
        sid = next(self._ids)
        stack.append(sid)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            with self._lock:
                self._sid.append(sid)
                self._nid.append(nid)
                self._parent.append(parent)
                self._t0.append(t0)
                self._t1.append(t1)

    def _count(self, key: str, k: int = 1) -> None:
        with self._lock:
            self.counts[key] += k

    def _wrapper(self, name: str, fn):
        if name == "sim.rk4_step":
            return self._rk4_wrapper(fn)
        if name == "agent.phi_update":
            return self._phi_wrapper(fn)
        if name == "matlib.solve_lyapunov":
            return self._lyap_wrapper(fn)
        nid = self._name_id(name)
        after = {
            "plant.is_controllable": self._after_controllable,
            "sim.write_trace_csv": self._after_write,
        }.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = self._call(nid, fn, args, kwargs)
            if after is not None:
                after(args, kwargs, out)
            return out

        return wrapper

    def _rk4_wrapper(self, fn):
        nid = self._name_id("sim.rk4_step")
        rhs_id = self._name_id("sim.rhs")

        @functools.wraps(fn)
        def rk4_step(f, state, t, h):
            def rhs(tt, y):
                return self._call(rhs_id, f, (tt, y), {})

            return self._call(nid, fn, (rhs, state, t, h), {})

        return rk4_step

    def _phi_wrapper(self, fn):
        nid = self._name_id("agent.phi_update")

        @functools.wraps(fn)
        def update(filt, x, t):
            index, held = filt.last_sample_index, filt.held
            out = self._call(nid, fn, (filt, x, t), {})
            if filt.last_sample_index > index:
                self._count("agent.phi.samples")
                if filt.held is held:
                    self._count("agent.phi.rejected")
            return out

        return update

    def _lyap_wrapper(self, fn):
        @functools.wraps(fn)
        def solve_lyapunov(a, q, *args, **kwargs):
            n = int(np.shape(a)[0])
            return self._call(self._name_id(_lyap_bucket(n)), fn, (a, q) + args, kwargs)

        return solve_lyapunov

    def _after_controllable(self, args, kwargs, out):
        if out is False:
            self._count("plant.is_controllable.false")

    def _after_write(self, args, kwargs, out):
        path = args[1] if len(args) > 1 else kwargs["path"]
        self._count("sim.write_trace_csv.bytes", os.path.getsize(path))

    # -- patching ---------------------------------------------------------

    def __enter__(self):
        mods = {k[len("plugplay."):]: m for k, m in sys.modules.items() if k.startswith("plugplay.")}
        for name, (mod_name, attr) in TRACED.items():
            owner = mods[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, meth, self._wrapper(name, getattr(cls, meth)))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrapper(name, orig)
            for mod in mods.values():
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, key, wrapped)
        return self

    def _patch(self, obj, key, new):
        self._patched.append((obj, key, getattr(obj, key)))
        setattr(obj, key, new)

    def __exit__(self, *exc):
        for obj, key, old in reversed(self._patched):
            setattr(obj, key, old)
        self._patched.clear()
        return False

    # -- results ----------------------------------------------------------

    def _spans(self) -> dict[str, np.ndarray]:
        """The recorded spans as arrays, in the order they started."""
        sid = np.frombuffer(self._sid, dtype=np.int64)
        order = np.argsort(sid, kind="stable")
        return {
            "span": sid[order],
            "name": np.frombuffer(self._nid, dtype=np.int32)[order],
            "parent": np.frombuffer(self._parent, dtype=np.int64)[order],
            "start": np.frombuffer(self._t0, dtype=np.float64)[order],
            "end": np.frombuffer(self._t1, dtype=np.float64)[order],
        }

    def summary(self) -> dict[str, float]:
        """calls, inclusive seconds and self seconds per span name."""
        sp = self._spans()
        dur = sp["end"] - sp["start"]
        child = np.zeros(dur.size)
        has_parent = sp["parent"] >= 0
        np.add.at(child, np.searchsorted(sp["span"], sp["parent"][has_parent]), dur[has_parent])
        out: dict[str, float] = {}
        for k, name in enumerate(self._names):
            sel = sp["name"] == k
            out[f"{name}.calls"] = int(sel.sum())
            out[f"{name}.s"] = float(dur[sel].sum())
            out[f"{name}.self_s"] = float((dur[sel] - child[sel]).sum())
        return out

    def save(self, path) -> None:
        """Write the raw spans and the span names to an .npz file."""
        np.savez_compressed(path, names=np.array(self._names), **self._spans())

    @property
    def span_count(self) -> int:
        return len(self._sid)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced operation, all but the overhead."""
    s = tracer.summary()
    get = lambda key: s.get(key, 0)
    lyap = [f"matlib.solve_lyapunov.{tag}" for _, tag in LYAP_BUCKETS]
    derived = {
        "matlib.solve_lyapunov.calls": sum(get(f"{k}.calls") for k in lyap),
        "matlib.solve_lyapunov.s": sum(get(f"{k}.s") for k in lyap),
        # run_scenario time outside the integrator, the gain refresh and
        # the up-front validation: packing, views, events and recording
        "sim.step_glue.s": get("sim.run_scenario.s") - get("sim.rk4_step.s")
        - get("agent.refresh_gains.s") - get("sim.validate_scenario.s"),
        "consensus.flow_derivative.calls": sum(get(f"{n}.calls") for n in FLOW_DERIVATIVES),
        "trace.spans": tracer.span_count,
        **tracer.counts,
    }
    return {
        name: derived.get(name, get(name))
        for name, _ in per_layer_names()
        if name != "trace.overhead_s"
    }
