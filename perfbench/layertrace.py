"""Per-layer tracing of cechtower from outside the package.

``Tracer.install`` replaces every public function of each layer module by a
timing wrapper, in every ``cechtower.*`` module namespace (and module-level
dict) that holds a reference to it, because the package imports names with
``from ... import``.  ``uninstall`` puts the originals back.  Spans are kept
in memory; ``summary`` turns them into the per-layer metrics.

A layer's self time is the duration of its spans minus the time covered by
their child spans.  A function's inclusive time leaves out the tracer's own
``trace.observe`` spans nested in it.  Cache hit ratios come from ``cache_info()`` deltas of
the package's ``lru_cache`` functions, and for ``cohomology`` (memoized on
the complex instance) from (complex, degree) keys seen before.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Optional

# Layer name -> defining module.  Every public function the module defines
# is wrapped; the snf layer is the kernel entry point alone.
LAYER_MODULES = {
    "intlin": "cechtower._intlin",
    "abelian": "cechtower.abelian",
    "cochain": "cechtower.cochain",
    "exactseq": "cechtower.exactseq",
    "tower": "cechtower.tower",
    "liftgerbe": "cechtower.liftgerbe",
    "spectral": "cechtower.spectral",
    "jsonio": "cechtower.jsonio",
    "cli": "cechtower.cli",
}
KERNEL = ("cechtower._kernels", "smith_with_transforms")
# Methods wrapped in addition to module functions: (layer, module, class, names).
METHODS = [("intlin", "cechtower._intlin", "Lattice", ("__init__", "coords_of"))]
# lru_cache functions whose hit ratio is reported: metric name -> (module, attr).
CACHES = {
    "abelian.hom_solver": ("cechtower.abelian", "_hom_solver"),
    "cochain.cech_complex": ("cechtower.cochain", "cech_complex"),
}
PER_DEGREE = range(4)

OBSERVE = "trace.observe"


def public_functions(module) -> dict[str, Callable]:
    """Functions (plain or lru-cached) the module itself defines, by name."""
    out = {}
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if (inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper)) \
                and getattr(obj, "__module__", None) == module.__name__:
            out[name] = obj
    return out


def package_namespaces() -> list[dict]:
    """Every ``cechtower`` module dict and every dict stored in one."""
    spaces = []
    for name, mod in sorted(sys.modules.items()):
        if mod is None or not (name == "cechtower" or name.startswith("cechtower.")):
            continue
        ns = vars(mod)
        spaces.append(ns)
        spaces.extend(v for k, v in ns.items()
                      if isinstance(v, dict) and not k.startswith("__"))
    return spaces


def self_times(spans) -> tuple[dict, dict]:
    """Self time per span name and inclusive time per (name, tag).

    ``spans`` holds ``[name, start, end, parent, tag]`` rows, parent being
    an index into ``spans`` (always below the child's own index) or -1.
    Inclusive time counts only the outermost span of a name, so recursion
    is not counted twice, and leaves out the ``trace.observe`` spans below
    it, so tracer work does not show as work of the traced function.
    """
    child_time = [0.0] * len(spans)
    observed = [0.0] * len(spans)  # trace.observe time below each span
    for i in range(len(spans) - 1, -1, -1):
        name, start, end, parent, _ = spans[i]
        if parent >= 0:
            child_time[parent] += end - start
            observed[parent] += observed[i] + (end - start if name == OBSERVE else 0.0)
    self_by_name: dict[str, float] = defaultdict(float)
    inclusive: dict[tuple, float] = defaultdict(float)
    for i, (name, start, end, parent, tag) in enumerate(spans):
        self_by_name[name] += (end - start) - child_time[i]
        up = parent
        while up >= 0 and spans[up][0] != name:
            up = spans[up][3]
        if up < 0:
            inclusive[(name, tag)] += end - start - observed[i]
    return dict(self_by_name), dict(inclusive)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def _max_bits(rows) -> int:
    return max((abs(v).bit_length() for row in rows for v in row), default=0)


class Tracer:
    """Spans and counters for one worker process; install once."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._cache_start: dict[str, tuple[int, int]] = {}
        self._snf_inputs: set = set()
        self._snf_bits = 0
        self._cohomology_seen: dict[int, tuple[object, set]] = {}

    # -- wrapping -----------------------------------------------------------

    def wrap(self, name: str, fn: Callable,
             tag: Optional[Callable] = None,
             observe: Optional[Callable] = None) -> Callable:
        """A wrapper recording one span per call.

        ``tag(args)`` labels the span (e.g. with a degree); ``observe(args,
        result)`` runs after the call, inside a ``trace.observe`` span so its
        cost is charged to the tracer and not to the caller's layer.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = tracer.spans, tracer._stack
            parent = stack[-1] if stack else -1
            idx = len(spans)
            span = [name, 0.0, 0.0, parent, tag(args) if tag else None]
            spans.append(span)
            stack.append(idx)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if observe is not None:
                obs = [OBSERVE, perf_counter(), 0.0, parent, None]
                spans.append(obs)
                observe(args, result)
                obs[2] = perf_counter()
            return result

        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def _replace_everywhere(self, original: Callable, wrapper: Callable) -> None:
        for ns in package_namespaces():
            for key, value in list(ns.items()):
                if value is original:
                    self._patches.append((ns, key, original))
                    ns[key] = wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        kmod, kname = KERNEL
        kernel = getattr(importlib.import_module(kmod), kname)
        self._replace_everywhere(kernel, self.wrap("snf." + kname, kernel,
                                                   observe=self._observe_snf))
        tags = {"cochain.cohomology": self._cohomology_tag}
        observers = {"tower.tower_classes": self._observe_tower}
        for layer, modname in LAYER_MODULES.items():
            mod = importlib.import_module(modname)
            for fname, fn in public_functions(mod).items():
                name = f"{layer}.{fname}"
                self._replace_everywhere(fn, self.wrap(
                    name, fn, tag=tags.get(name), observe=observers.get(name)))
        for layer, modname, clsname, methods in METHODS:
            cls = getattr(importlib.import_module(modname), clsname)
            for meth in methods:
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self.wrap(f"{layer}.{clsname}.{meth}", original))
        for metric, (modname, attr) in CACHES.items():
            info = getattr(importlib.import_module(modname), attr).cache_info()
            self._cache_start[metric] = (info.hits, info.misses)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patches.clear()

    # -- observers ----------------------------------------------------------

    def _observe_snf(self, args, result) -> None:
        mat = args[0]
        m = len(mat)
        n = len(mat[0]) if m else 0
        self.counts["snf.entries"] += m * n
        self._snf_inputs.add(hash(tuple(map(tuple, mat))))
        self._snf_bits = max(self._snf_bits, _max_bits(mat),
                             *(_max_bits(part) for part in result))

    def _cohomology_tag(self, args) -> int:
        comp, p = args[0], args[1]
        _, seen = self._cohomology_seen.setdefault(id(comp), (comp, set()))
        if p in seen:
            self.counts["cochain.cohomology.hits"] += 1
        seen.add(p)
        return p

    def _observe_tower(self, args, result) -> None:
        self.counts["tower.stages"] += len(result.stages)

    # -- results ------------------------------------------------------------

    def root_time(self) -> float:
        return sum(end - start for _, start, end, parent, _ in self.spans
                   if parent < 0)

    def summary(self) -> dict:
        """Per-layer metrics of everything traced since ``install``."""
        self_by_name, inclusive = self_times(self.spans)
        calls = Counter(span[0] for span in self.spans)
        by_tag: dict[str, float] = defaultdict(float)
        by_name: dict[str, float] = defaultdict(float)
        for (name, tag), t in inclusive.items():
            by_name[name] += t
            if tag is not None:
                by_tag[f"{name}.deg{tag}"] += t
        layer_self: dict[str, float] = defaultdict(float)
        for name, t in self_by_name.items():
            layer_self[layer_of(name)] += t

        def ratio(a, b):
            return a / b if b else 0.0

        snf_calls = calls["snf.smith_with_transforms"]
        out = {f"{layer}.self_s": layer_self[layer]
               for layer in ["snf", *LAYER_MODULES, "trace"]}
        out.update({
            "snf.calls": snf_calls,
            "snf.distinct_ratio": ratio(len(self._snf_inputs), snf_calls),
            "snf.entries": self.counts["snf.entries"],
            "snf.max_entry_bits": self._snf_bits,
            "intlin.solve_calls": calls["intlin.solve_linear"],
            "intlin.lattice_builds": calls["intlin.Lattice.__init__"],
            "intlin.present_calls": calls["intlin.present_quotient"],
            "abelian.hom_invariants.calls": calls["abelian.hom_invariants"],
            "abelian.solve_in_group.calls": calls["abelian.solve_in_group"],
            "cochain.cohomology.calls": calls["cochain.cohomology"],
            "cochain.cohomology.hit_ratio": ratio(
                self.counts["cochain.cohomology.hits"], calls["cochain.cohomology"]),
            "exactseq.connecting.calls": calls["exactseq.connecting"],
            "exactseq.connecting.s": by_name["exactseq.connecting"],
            "exactseq.les.s": by_name["exactseq.long_exact_sequence"],
            "tower.stages": self.counts["tower.stages"],
            "liftgerbe.lift_search.s": by_name["liftgerbe.brute_force_lift"],
            "spectral.filtered_terms.calls": calls["spectral.filtered_terms"],
            "spectral.check_degeneration.s": by_name["spectral.check_degeneration"],
        })
        for p in PER_DEGREE:
            out[f"cochain.cohomology.deg{p}_s"] = by_tag[f"cochain.cohomology.deg{p}"]
        for metric, (modname, attr) in CACHES.items():
            info = getattr(importlib.import_module(modname), attr).cache_info()
            hits0, misses0 = self._cache_start[metric]
            hits, misses = info.hits - hits0, info.misses - misses0
            out[f"{metric}.hit_ratio"] = ratio(hits, hits + misses)
        return out
