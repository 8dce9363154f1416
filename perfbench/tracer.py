"""Per-layer spans recorded from outside the package.

While installed, the tracer replaces every function defined in a package
module (and the __init__ of every class) with a wrapper that times the call,
in each package namespace that holds it, plus numpy's Hermitian eigensolvers.
Nothing in src/ changes. Spans nest: a span's self time is its duration
minus the time of the spans it encloses, summed per layer (module). A
metric key counts only outermost spans, so a recursive or re-entrant call is
not counted twice.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

import numpy as np

LAYERS = ("channels", "linalg", "states", "povm", "readout", "solver", "formats", "cli")

# Every Hermitian eigendecomposition, whichever function provides it.
EIGH_PROVIDERS = ("linalg.eigh_jacobi", "numpy.linalg.eigh", "numpy.linalg.eigvalsh")
STEP_SIZE_PROVIDERS = ("solver._largest_eigenvalue",)
EMIT_SUFFIXES = ("_to_obj", "_to_pairs", ".dumps")


def metric_keys(name: str) -> tuple[str, ...]:
    keys = [name]
    if name in EIGH_PROVIDERS:
        keys.append("linalg.eigh")
    if name in STEP_SIZE_PROVIDERS:
        keys.append("solver.step_size")
    if name.startswith("formats."):
        keys.append("formats.emit" if name.endswith(EMIT_SUFFIXES) else "formats.parse")
    return tuple(keys)


class Tracer:
    def __init__(self, lib):
        self.lib = lib
        self.seconds = defaultdict(float)  # metric key -> outermost span time
        self.calls = defaultdict(int)  # metric key -> outermost span count
        self.self_seconds = defaultdict(float)  # layer -> self time
        self.counts = defaultdict(float)  # solver iterations, cap hits, bytes out
        self._depth = defaultdict(int)
        self._stack = []  # child time accumulated by each open span
        self._default_cap = lib.solver.SolverOptions().max_iterations
        self._hooks = {"solver.mitigate": self._count_solver, "formats.dumps": self._count_bytes}
        self.keys = set()  # every metric key a wrapped function records under
        self._patches = self._plan()

    def _count_solver(self, args, kwargs, result):
        options = args[1] if len(args) > 1 else kwargs.get("options")
        cap = getattr(options, "max_iterations", self._default_cap)
        iterations = getattr(result, "iterations", 0)
        self.counts["solver.iterations"] += iterations
        self.counts["solver.cap_hits"] += iterations >= cap

    def _count_bytes(self, args, kwargs, result):
        self.counts["formats.bytes_out"] += len(result.encode("utf-8"))

    def _wrap(self, name: str, layer: str, fn):
        keys = metric_keys(name)
        self.keys.update(keys)
        hook = self._hooks.get(name)
        depth, stack = self._depth, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer = [k for k in keys if depth[k] == 0]
            for k in keys:
                depth[k] += 1
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                child = stack.pop()
                for k in keys:
                    depth[k] -= 1
                for k in outer:
                    self.seconds[k] += elapsed
                    self.calls[k] += 1
                self.self_seconds[layer] += elapsed - child
                if stack:
                    stack[-1] += elapsed
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def _plan(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every name the tracer replaces."""
        modules = [getattr(self.lib, layer) for layer in LAYERS]
        namespaces = [self.lib.package, *modules]
        plan = []
        for layer, module in zip(LAYERS, modules):
            for attr, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(f"{layer}.{attr}", layer, obj)
                    for ns in namespaces:
                        plan += [(ns, key, obj, wrapped) for key, value in vars(ns).items() if value is obj]
                elif inspect.isclass(obj) and "__init__" in vars(obj):
                    init = vars(obj)["__init__"]
                    plan.append((obj, "__init__", init, self._wrap(f"{layer}.{attr}", layer, init)))
        for attr in ("eigh", "eigvalsh"):
            fn = getattr(np.linalg, attr)
            plan.append((np.linalg, attr, fn, self._wrap(f"numpy.linalg.{attr}", "linalg", fn)))
        return plan

    def install(self) -> None:
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)
