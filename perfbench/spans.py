"""In-memory span tracer that wraps the public functions of each pvcover layer.

Modules bind each other's functions with `from .x import f`, so wrapping
`x.f` alone would miss every call made through another module's copy of the
name. `Tracer.install` therefore rebinds the name in every loaded `pvcover`
module that holds the original, and `check_complete` fails if any module,
module-level table or class still holds an unwrapped original.

A span is (name, start, end, parent, op): `parent` is the index of the
enclosing traced span or -1, and `op` is the index of the benchmark op that
caused it. Spans live in flat arrays and are written out at the end.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict

# Traced callables by layer. "Graph" is the Graph constructor and
# "ReoptInstance.create" the classmethod; the rest are module functions.
LAYERS = {
    "graph": ("Graph", "induced_subgraph", "apply_patch", "neighbors_of_set",
              "connected_components", "is_va_connected"),
    "kpaths": ("enumerate_k_paths", "has_k_path", "covers_all_k_paths", "find_k_path"),
    "solvers": ("solve_exact", "local_ratio_approx", "greedy_approx", "make_solution"),
    "reopt": ("ReoptInstance.create", "good_family_3pvcp", "construct_f", "construct_sol",
              "wtd_3path", "wtd_kpath"),
    "instances": ("parse_graph", "parse_patch", "parse_solution", "write_solution"),
    "cli": ("main",),
}
SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)


class Tracer:
    """Records spans and return-value counters while installed."""

    def __init__(self):
        self.names = array("H")
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.ops = array("l")
        self.op = -1  # set by the caller before each op
        self.counters = defaultdict(int)
        self._stack = []
        self._restore = []  # (owner, attribute, original value)

    # -- installing -------------------------------------------------------

    def install(self):
        """Wrap every traced callable in every loaded pvcover module."""
        modules = _pvcover_modules()
        for fid, name in enumerate(SPAN_NAMES):
            layer, attr = name.split(".", 1)
            owner = modules[f"pvcover.{layer}"]
            if attr == "Graph":
                cls = owner.Graph
                self._replace(cls, "__init__", self._wrap(fid, cls.__init__))
            elif attr == "ReoptInstance.create":
                cls = owner.ReoptInstance
                fn = cls.__dict__["create"].__func__
                self._replace(cls, "create", classmethod(self._wrap(fid, fn)))
            else:
                original = getattr(owner, attr)
                wrapper = self._wrap(fid, original, _OBSERVERS.get(name))
                for mod in modules.values():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._replace(mod, key, wrapper)

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def check_complete(self):
        """Raise if a pvcover module still holds an unwrapped original.

        Looked at: module globals, the items of module-level dicts, lists and
        tuples (a registry of callables), and the attributes of pvcover classes.
        """
        originals = {id(value) for _, _, value in self._restore}
        missed = set()
        for mod in _pvcover_modules().values():
            for key, value in vars(mod).items():
                held = [value]
                if isinstance(value, dict):
                    held += value.values()
                elif isinstance(value, (list, tuple)):
                    held += value
                elif isinstance(value, type) and value.__module__.startswith("pvcover"):
                    held += vars(value).values()
                if any(id(v) in originals for v in held):
                    missed.add(f"{mod.__name__}.{key}")
        if missed:
            raise RuntimeError(f"unwrapped traced functions remain: {sorted(missed)}")

    def _replace(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap(self, fid, fn, observe=None):
        names, parents, starts, ends, ops = (
            self.names, self.parents, self.starts, self.ends, self.ops)
        stack = self._stack
        counters = self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(fid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(counters, result)
            return result

        return wrapper

    # -- reading ----------------------------------------------------------

    def spans(self):
        """[(name, start, end, parent, op), ...] in start order."""
        return [
            (SPAN_NAMES[f], s, e, p, o)
            for f, s, e, p, o in zip(self.names, self.starts, self.ends, self.parents, self.ops)
        ]


def _pvcover_modules():
    return {
        name: mod for name, mod in sys.modules.items()
        if (name == "pvcover" or name.startswith("pvcover.")) and mod is not None
    }


def _count_family(counters, family):
    counters["reopt.family_members"] += len(family)


def _count_paths(counters, paths):
    counters["kpaths.enumerate_k_paths.paths"] += len(paths)


def _count_true(counters, found):
    counters["kpaths.has_k_path.true"] += bool(found)


def _count_none(counters, path):
    counters["kpaths.find_k_path.none"] += path is None


_OBSERVERS = {
    "reopt.good_family_3pvcp": _count_family,
    "reopt.construct_f": _count_family,
    "kpaths.enumerate_k_paths": _count_paths,
    "kpaths.has_k_path": _count_true,
    "kpaths.find_k_path": _count_none,
}


def span_totals(spans):
    """Per span name: (calls, total seconds, self seconds).

    Self time is a span's duration minus the time covered by its direct
    traced children. One thread runs everything, so children of one span
    never overlap and their durations simply add.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals = {}
    for i, (name, start, end, parent, op) in enumerate(spans):
        calls, total, self_time = totals.get(name, (0, 0.0, 0.0))
        totals[name] = (calls + 1, total + end - start, self_time + end - start - child_time[i])
    return totals
