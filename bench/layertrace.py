"""Per-layer spans recorded from the benchmark's side of the library boundary.

``Tracer.install`` replaces each public layer function with a wrapper at
every name it is bound to, in every loaded module: ``eigenfreq`` imports
``cyclic_view``, ``xyz`` and friends by name, and the package namespace
re-exports ``registry``, so patching only the defining module would miss
those calls.  ``ThreeModeModel`` is traced through its ``__init__``, which
covers every way of constructing it.

Each wrapper keeps a span stack: a span's self time is its duration minus
the durations of the spans it directly encloses.  Spans are aggregated as
they close (calls, self seconds, calls that raised) rather than stored.
"""
from __future__ import annotations

import inspect
import sys
from time import perf_counter

from oscpert import threemode

LAYERS = {
    "linalg": ("eigenvalues", "propagator", "matrix_exponential_apply"),
    "eigenfreq": ("matched_path", "estimate_increments", "estimate"),
    "threemode": (
        "cyclic_view",
        "xyz",
        "effective_frequencies",
        "omega_matrix",
        "psi1_infinite",
        "series_block",
        "psi1_analytic",
    ),
    "dyson": ("term", "partial_sum", "convergence_report"),
    "graph": ("laplacian", "decompose", "symmetrizability_certificate", "validate_decomposition"),
    "cli": ("main", "sweep_rows"),
    "benchmarks": ("registry",),
}
MODEL_INIT = "threemode.ThreeModeModel"
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns) + (MODEL_INIT,)

# Expansion order reached by each quadrature entry point, from its arguments.
_DYSON_ORDER = {
    "dyson.term": lambda a: a["order"],
    "dyson.partial_sum": lambda a: a["max_order"],
    "dyson.convergence_report": lambda a: max(a["orders"]),
}


def _bindings():
    """(module, attribute, value) for every global of every loaded module."""
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if isinstance(namespace, dict):
            for attr, value in list(namespace.items()):
                yield module, attr, value


class Tracer:
    """Span bookkeeping for one traced phase; ``install``/``uninstall`` around it."""

    def __init__(self):
        self.stats = {name: [0, 0.0, 0] for name in SPAN_NAMES}  # calls, self_s, failed
        self.stack: list[float] = []  # child-span time of each open span
        self.self_total = 0.0
        self.node_orders = 0  # sum over quadrature calls of (2*steps + 1) * order
        self.state_bytes = 0  # node_orders * dim * 16 (complex128 states written)
        self.edges = 0  # edges of every graph handed to graph.laplacian
        self.op_wall = 0.0  # summed over run_op calls
        self.op_covered = 0.0  # time inside top-level layer spans
        self.reconcile_err = 0.0  # worst |sum of span self times - covered| of one op
        self._patched: list[tuple[object, str, object]] = []
        self._originals: list = []

    def _wrap(self, name: str, fn):
        stats, stack = self.stats[name], self.stack
        hook = self._hook(name, fn)

        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(args, kwargs)
            stack.append(0.0)
            start = perf_counter()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                duration = perf_counter() - start
                own = duration - stack.pop()
                if stack:
                    stack[-1] += duration
                stats[0] += 1
                stats[1] += own
                self.self_total += own
                if not ok:
                    stats[2] += 1

        wrapper.__wrapped__ = fn
        return wrapper

    def _hook(self, name: str, fn):
        if name in _DYSON_ORDER:
            sig = inspect.signature(fn)
            order_of = _DYSON_ORDER[name]

            def count_nodes(args, kwargs):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                a = bound.arguments
                if a["t"] != 0.0:
                    work = (2 * a["steps"] + 1) * order_of(a)
                    self.node_orders += work
                    self.state_bytes += work * a["sys"].dim * 16

            return count_nodes
        if name == "graph.laplacian":

            def count_edges(args, kwargs):
                self.edges += len((args[0] if args else kwargs["g"]).edges)

            return count_edges
        return None

    def install(self) -> None:
        originals = {}
        for mod, fns in LAYERS.items():
            module = sys.modules[f"oscpert.{mod}"]
            for fn in fns:
                orig = getattr(module, fn, None)  # a removed layer reads zero calls
                if orig is not None:
                    originals[id(orig)] = (orig, self._wrap(f"{mod}.{fn}", orig))
        for module, attr, value in _bindings():
            hit = originals.get(id(value))
            if hit is not None and value is hit[0]:
                self._patched.append((module, attr, value))
                setattr(module, attr, hit[1])
        cls = threemode.ThreeModeModel
        self._patched.append((cls, "__init__", cls.__init__))
        cls.__init__ = self._wrap(MODEL_INIT, cls.__init__)
        self._originals = [orig for orig, _ in originals.values()]

    def unbound_names(self) -> list[str]:
        """Module attributes still bound to an unwrapped layer function."""
        ids = {id(f): f for f in self._originals}
        return sorted(
            f"{module.__name__}.{attr}"
            for module, attr, value in _bindings()
            if id(value) in ids and ids[id(value)] is value
        )

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    def run_op(self, op, i: int):
        """Run one operation as the root span.

        The self times of the spans the operation opened must add up to the
        time its top-level spans covered; the rest of its wall time is spent
        in the benchmark's own code around the call.
        """
        self.stack.append(0.0)
        before = self.self_total
        start = perf_counter()
        try:
            return op(i)
        finally:
            self.op_wall += perf_counter() - start
            covered = self.stack.pop()
            self.op_covered += covered
            self.reconcile_err = max(self.reconcile_err, abs(self.self_total - before - covered))
