"""Outside-in tracing of the suq2 modules, installed inside one worker process.

Every public function of the traced modules is replaced, in every suq2
module namespace that binds it, by a wrapper that records a span (name,
start, end, parent).  Functions that return a ``PlaneFamily`` also get the
returned family's evaluator wrapped, because the stencils and the basis
families do their work when they are evaluated, not when they are built.
numpy's ``leggauss`` is wrapped as well, since rebuilding Gauss-Legendre
nodes is a known cost of ``l_function``.

Spans and counters stay in memory; ``Recorder.dump`` returns them for the
worker to hand back to run.py.  Nothing inside ``src/suq2`` is
changed on disk.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

import numpy as np

TRACED_MODULES = ("qcore", "qspecial", "qops", "quadrature", "qinner", "suites", "cli")
LEGGAUSS_SPAN = "numpy.leggauss"


class Recorder:
    """Span store: parallel lists indexed by span id, plus named counters."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.stack = [-1]
        self.counts: Counter = Counter()
        self.keys: dict[str, set] = {}

    def wrap(self, name: str, fn):
        """Return fn wrapped in a span called name."""
        nid = self.name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        clock = time.perf_counter_ns
        span_name, start, end, parent, stack = (
            self.span_name, self.start, self.end, self.parent, self.stack)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            span_name.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
        return traced

    def note_distinct(self, name: str, key) -> None:
        self.keys.setdefault(name, set()).add(key)

    def dump(self) -> dict:
        counts = dict(self.counts)
        for name, keys in self.keys.items():
            counts[name + ".distinct"] = len(keys)
        return {"names": self.names, "span_name": self.span_name, "start": self.start,
                "end": self.end, "parent": self.parent, "counts": counts}


def _array_key(x) -> int:
    arr = np.asarray(x, dtype=complex)
    return hash((arr.shape, arr.tobytes()))


def _counting_decorators(rec: Recorder, suq2) -> dict:
    """Decorators, keyed by span name, that feed the counters.  They are
    applied inside the span, so their small cost is charged to it."""
    counts = rec.counts
    family_type = suq2.qops.PlaneFamily

    def l_function(fn):
        def counted(p, eta, *rest, **kw):
            counts["qspecial.l_function.points"] += int(np.size(eta))
            rec.note_distinct("qspecial.l_function", (p, _array_key(eta)))
            return fn(p, eta, *rest, **kw)
        return counted

    def psi(fn):
        def counted(J, M, N, p, u, v):
            counts["qspecial.psi.points"] += int(np.broadcast(np.asarray(u), np.asarray(v)).size)
            rec.note_distinct("qspecial.psi", (J, M, N, p, _array_key(u), _array_key(v)))
            return fn(J, M, N, p, u, v)
        return counted

    def infinite_product(fn):
        def counted(J, p, eta):
            counts["qspecial.q_infinite_product.points"] += int(np.size(eta))
            return fn(J, p, eta)
        return counted

    def quadrature(name, node_count):
        # levels = integrand evaluations per integral (one per refinement level)
        def decorate(fn):
            def counted(g, *rest, **kw):
                nodes = []

                def integrand(*a):
                    nodes.append(node_count(*a))
                    return g(*a)
                try:
                    return fn(integrand, *rest, **kw)
                finally:
                    counts[name + ".levels"] += len(nodes)
                    counts["quadrature.nodes_evaluated"] += sum(nodes)
                    counts["quadrature.final_level_nodes"] += nodes[-1] if nodes else 0
            return counted
        return decorate

    def inner(fn):
        def counted(*args, **kw):
            result = fn(*args, **kw)
            if result == 0:
                counts["qinner.inner.zero"] += 1
            return result
        return counted

    def family_builder(name):
        def decorate(fn):
            def built(*args, **kw):
                fam = fn(*args, **kw)
                return family_type(rec.wrap(name + ".eval", fam.evaluator), fam.meta)
            return built
        return decorate

    return {
        "qspecial.l_function": l_function,
        "qspecial.psi": psi,
        "qspecial.q_infinite_product": infinite_product,
        "quadrature.radial_integral": quadrature(
            "quadrature.radial_integral", lambda rho: int(np.size(rho))),
        "quadrature.integrate_plane": quadrature(
            "quadrature.integrate_plane", lambda rho, phi: int(np.broadcast(rho, phi).size)),
        "qinner.inner": inner,
        "family": family_builder,
    }


def public_functions(module) -> dict:
    """Module-level public functions defined in module itself."""
    return {attr: obj for attr, obj in vars(module).items()
            if not attr.startswith("_") and inspect.isfunction(obj)
            and obj.__module__ == module.__name__}


def _returns_family(fn) -> bool:
    # qops builds families under `from __future__ import annotations`, so the
    # return annotation is the string "PlaneFamily"
    return fn.__annotations__.get("return") == "PlaneFamily"


def install(suq2) -> Recorder:
    """Wrap every public function of the traced modules; return the recorder."""
    rec = Recorder()
    decorators = _counting_decorators(rec, suq2)
    namespaces = [m for name, m in sys.modules.items()
                  if m is not None and (name == "suq2" or name.startswith("suq2."))]
    for short in TRACED_MODULES:
        module = sys.modules["suq2." + short]
        for attr, fn in public_functions(module).items():
            name = f"{short}.{attr}"
            inner = fn
            if _returns_family(fn):
                inner = decorators["family"](name)(inner)
            elif name in decorators:
                inner = decorators[name](inner)
            wrapped = rec.wrap(name, functools.wraps(fn)(inner))
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is fn:
                        setattr(ns, key, wrapped)
    legendre = np.polynomial.legendre
    legendre.leggauss = rec.wrap(LEGGAUSS_SPAN, legendre.leggauss)
    return rec
