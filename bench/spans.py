"""Span tracing for the benchmark, recorded from outside the library.

A Tracer keeps spans in memory as columns (name, start, end, parent,
task, count) and writes them out once, at the end of a run.  It
instruments the library in two ways, both undone by ``uninstall``:

* every public function of ``herglotz``, ``deterministic`` and
  ``stochastic`` (their ``__all__``), plus ``cli.main``, is replaced by a
  timing wrapper at every module attribute that refers to it, so a call
  is caught whichever name it is looked up by (``cli.evolve_phi`` as
  well as ``deterministic.evolve_phi``; ``stochastic.derive_path_seed``
  also catches the per-path calls made inside the blocked estimators);
* ``parse_spec`` returns a delegating spec proxy whose ``_bp_field`` and
  ``_value`` calls are the ``herglotz.field`` spans.  The proxy is an
  instance of a subclass of the real spec class, so ``isinstance``
  dispatch keeps working, and it forwards every call to the real spec,
  so the numbers it returns are the same bits.

Self time of a span is its duration minus the durations of its direct
children; busy time is the plain duration.
"""

from __future__ import annotations

import inspect
import time
from array import array

import numpy as np

FIELD = "herglotz.field"

_LAYERS = ("herglotz", "deterministic", "stochastic")


class Tracer:
    """In-memory span recorder with named counters."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_col = array("i")
        self.start_col = array("d")
        self.end_col = array("d")
        self.parent_col = array("i")
        self.task_col = array("i")
        self.count_col = array("q")
        self.counters = {}
        self.task_id = -1
        self._stack = [-1]
        self._patched = []
        self._proxy_types = {}

    # -- recording ---------------------------------------------------------

    def name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid, count=0):
        i = len(self.start_col)
        self.name_col.append(nid)
        self.parent_col.append(self._stack[-1])
        self.task_col.append(self.task_id)
        self.count_col.append(count)
        self.end_col.append(0.0)
        self._stack.append(i)
        self.start_col.append(time.perf_counter())
        return i

    def close(self, i):
        self.end_col[i] = time.perf_counter()
        self._stack.pop()

    def add(self, counter, value):
        self.counters[counter] = self.counters.get(counter, 0) + value

    def __len__(self):
        return len(self.start_col)

    # -- instrumentation ---------------------------------------------------

    def wrap(self, fn, name, on_result=None):
        """Timing wrapper around ``fn`` recording spans named ``name``."""
        nid = self.name_id(name)

        def traced(*args, **kwargs):
            i = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(i)
            if on_result is not None:
                on_result(result)
            return result

        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def spec(self, spec):
        """Delegating proxy of ``spec`` that records field spans."""
        cls = type(spec)
        proxy_type = self._proxy_types.get(cls)
        if proxy_type is None:
            proxy_type = type("Traced" + cls.__name__, (cls,),
                              _proxy_methods(self))
            self._proxy_types[cls] = proxy_type
        proxy = object.__new__(proxy_type)
        proxy.__dict__.update(vars(spec))
        proxy._inner = spec
        return proxy

    def install(self, package):
        """Instrument the ``loewnerkit`` package until ``uninstall``."""
        modules = {name: getattr(package, name) for name in _LAYERS}
        modules["cli"] = package.cli
        wrappers = {}
        for layer in _LAYERS:
            module = modules[layer]
            for attr in module.__all__:
                fn = getattr(module, attr)
                if not inspect.isfunction(fn):
                    continue
                target = fn
                if attr == "parse_spec":
                    def target(*args, _parse=fn, **kwargs):
                        return self.spec(_parse(*args, **kwargs))
                    target.__name__ = fn.__name__
                wrappers[fn] = self.wrap(target, "%s.%s" % (layer, attr),
                                         self._result_hook(attr))
        main = package.cli.main
        wrappers[main] = self.wrap(main, "cli.main")
        for module in [package] + list(modules.values()):
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if value in wrappers:
                    self._patch(module, attr, wrappers[value])
        # the CLI envelope check builds its specs from a private table
        # rather than through parse_spec; proxy those as well
        table = getattr(package.cli, "_BOUND_SPECS", None)
        if isinstance(table, dict):
            for key, factory in list(table.items()):
                self._patch(table, key,
                            lambda factory=factory: self.spec(factory()),
                            item=True)

    def uninstall(self):
        while self._patched:
            target, attr, original, item = self._patched.pop()
            if item:
                target[attr] = original
            else:
                setattr(target, attr, original)

    def _patch(self, target, attr, value, item=False):
        original = target[attr] if item else getattr(target, attr)
        self._patched.append((target, attr, original, item))
        if item:
            target[attr] = value
        else:
            setattr(target, attr, value)

    def _result_hook(self, attr):
        if attr in ("evolve_phi", "evolve_psi"):
            def dp(traj):
                self.add("deterministic.dp_steps", traj.stats["steps"])
                self.add("deterministic.dp_rejections",
                         traj.stats["rejections"])
            return dp
        if attr == "evolve_phi_pathwise":
            return lambda traj: self.add("stochastic.rk4_steps",
                                         traj.stats["steps"])
        if attr == "evolve_psi_sde":
            return lambda traj: self.add("stochastic.sde_projections",
                                         traj.stats["projections"])
        return None

    # -- analysis ----------------------------------------------------------

    def columns(self):
        """Spans as numpy columns: name, start, end, parent, task, count."""
        return {
            "name": np.array(self.name_col, dtype=np.int32),
            "start": np.array(self.start_col, dtype=np.float64),
            "end": np.array(self.end_col, dtype=np.float64),
            "parent": np.array(self.parent_col, dtype=np.int32),
            "task": np.array(self.task_col, dtype=np.int32),
            "count": np.array(self.count_col, dtype=np.int64),
        }

    def summary(self):
        """Per span name: calls, busy seconds, self seconds, count sum."""
        return span_summary(self.columns(), self.names)

    def write(self, path):
        cols = self.columns()
        np.savez(path, names=np.array(self.names), **cols)


def span_summary(cols, names):
    """Aggregate span columns by name.

    Returns {name: {"calls", "busy_s", "self_s", "count"}} where self_s
    subtracts the durations of each span's direct children.
    """
    n_names = len(names)
    name = cols["name"]
    dur = cols["end"] - cols["start"]
    parent = cols["parent"]
    has_parent = parent >= 0
    child_sum = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
    self_t = dur - child_sum
    calls = np.bincount(name, minlength=n_names)
    busy = np.bincount(name, weights=dur, minlength=n_names)
    own = np.bincount(name, weights=self_t, minlength=n_names)
    count = np.bincount(name, weights=cols["count"], minlength=n_names)
    return {names[i]: {"calls": int(calls[i]), "busy_s": float(busy[i]),
                       "self_s": float(own[i]), "count": int(count[i])}
            for i in range(n_names)}


def _proxy_methods(tracer):
    nid = tracer.name_id(FIELD)

    def _bp_field(self, w):
        i = tracer.open(nid, getattr(w, "size", 1))
        try:
            return self._inner._bp_field(w)
        finally:
            tracer.close(i)

    def _value(self, z):
        i = tracer.open(nid, getattr(z, "size", 1))
        try:
            return self._inner._value(z)
        finally:
            tracer.close(i)

    def _taylor(self, n):
        return self._inner._taylor(n)

    return {"_bp_field": _bp_field, "_value": _value, "_taylor": _taylor}
