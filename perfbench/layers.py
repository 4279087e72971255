"""Per-layer metrics derived from the spans and counters of a traced batch.

A span's self time is its duration minus the durations of its direct
children; spans of one worker nest strictly (one thread), so the children
never overlap.  Every metric is a total over the batch unless its name says
it is a ratio or a mean.
"""
from __future__ import annotations

import numpy as np

from tracer import LEGGAUSS_SPAN

SUITES = ("matrix", "funceq", "ladder", "casimir", "hermiticity", "gram", "limit")
STENCILS = ("qops.apply_h_plus.eval", "qops.apply_h_minus.eval", "qops.apply_q_h3_power.eval")
CASIMIR = "qops.apply_casimir.eval"
NS = 1e-9

# name -> (unit, better); the order is the order of BENCHMARK.json
PER_LAYER = {
    "qcore.q_number.calls": ("count", "lower"),
    "qcore.q_factorial.calls": ("count", "lower"),
    "qcore.self_s": ("s", "lower"),
    "qspecial.l_function.calls": ("count", "lower"),
    "qspecial.l_function.points": ("count", "lower"),
    "qspecial.l_function.self_s": ("s", "lower"),
    "qspecial.l_function.distinct_ratio": ("ratio", "higher"),
    "qspecial.leggauss.calls": ("count", "lower"),
    "qspecial.q_infinite_product.calls": ("count", "lower"),
    "qspecial.q_infinite_product.points": ("count", "lower"),
    "qspecial.q_infinite_product.self_s": ("s", "lower"),
    "qspecial.q_finite_product.calls": ("count", "lower"),
    "qspecial.q_finite_product.self_s": ("s", "lower"),
    "qspecial.q_integral_exp.calls": ("count", "lower"),
    "qspecial.q_integral_exp.self_s": ("s", "lower"),
    "qspecial.psi.calls": ("count", "lower"),
    "qspecial.psi.points": ("count", "lower"),
    "qspecial.psi.self_s": ("s", "lower"),
    "qspecial.psi.distinct_ratio": ("ratio", "higher"),
    "qspecial.norm_constant.calls": ("count", "lower"),
    "qops.family_evals": ("count", "lower"),
    "qops.stencil.evals": ("count", "lower"),
    "qops.stencil.self_s": ("s", "lower"),
    "qops.psi_per_casimir": ("ratio", "lower"),
    "quadrature.radial_integral.calls": ("count", "lower"),
    "quadrature.radial_integral.self_s": ("s", "lower"),
    "quadrature.radial_integral.levels_mean": ("levels", "lower"),
    "quadrature.integrate_plane.calls": ("count", "lower"),
    "quadrature.integrate_plane.self_s": ("s", "lower"),
    "quadrature.integrate_plane.levels_mean": ("levels", "lower"),
    "quadrature.radial_rule.calls": ("count", "lower"),
    "quadrature.nodes_evaluated": ("count", "lower"),
    "quadrature.node_efficiency": ("ratio", "higher"),
    "qinner.inner.calls": ("count", "lower"),
    "qinner.inner.self_s": ("s", "lower"),
    "qinner.inner.zero_frac": ("ratio", "higher"),
    "qinner.gram.self_s": ("s", "lower"),
    "qinner.adjoint_residual.calls": ("count", "lower"),
    **{f"suites.{s}.wall_s": ("s", "lower") for s in SUITES},
    "suites.cases": ("count", "higher"),
    "suites.cases_failed": ("count", "lower"),
    "cli.main.wall_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.output_bytes": ("B", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
    "op_tail_s": ("s", "lower"),
    "failed_frac": ("ratio", "lower"),
    "headroom_digits": ("digits", "higher"),
}


class Totals:
    """Span statistics summed over the traced operations of a batch."""

    def __init__(self):
        self.calls: dict = {}
        self.self_ns: dict = {}
        self.incl_ns: dict = {}
        self.counts: dict = {}
        self.leggauss_in_qspecial = 0
        self.psi_in_casimir = 0

    def add(self, dump: dict) -> None:
        names = dump["names"]
        name = np.asarray(dump["span_name"], dtype=np.int64)
        parent = np.asarray(dump["parent"], dtype=np.int64)
        dur = np.asarray(dump["end"], dtype=np.int64) - np.asarray(dump["start"], dtype=np.int64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=name.size)
        own = dur - child
        k = len(names)
        for table, values in ((self.calls, np.bincount(name, minlength=k)),
                              (self.self_ns, np.bincount(name, weights=own, minlength=k)),
                              (self.incl_ns, np.bincount(name, weights=dur, minlength=k))):
            for i, n in enumerate(names):
                table[n] = table.get(n, 0) + values[i]
        for key, value in dump["counts"].items():
            self.counts[key] = self.counts.get(key, 0) + value

        ids = {n: i for i, n in enumerate(names)}
        parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)
        qspecial_ids = [i for n, i in ids.items() if n.startswith("qspecial.")]
        if LEGGAUSS_SPAN in ids:
            is_leg = name == ids[LEGGAUSS_SPAN]
            self.leggauss_in_qspecial += int(np.sum(is_leg & np.isin(parent_name, qspecial_ids)))
        if CASIMIR in ids and "qspecial.psi" in ids:
            # spans are numbered in start order, so a parent precedes its children
            inside = np.zeros(name.size, dtype=bool)
            casimir = ids[CASIMIR]
            for i in range(name.size):
                inside[i] = name[i] == casimir or (parent[i] >= 0 and inside[parent[i]])
            self.psi_in_casimir += int(np.sum(inside & (name == ids["qspecial.psi"])))

    def n(self, span: str) -> int:
        return int(self.calls.get(span, 0))

    def self_s(self, *spans: str) -> float:
        return sum(float(self.self_ns.get(s, 0)) for s in spans) * NS

    def incl_s(self, span: str) -> float:
        return float(self.incl_ns.get(span, 0)) * NS

    def prefixed(self, prefix: str) -> list:
        return [s for s in self.calls if s.startswith(prefix)]


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def per_layer(totals: Totals, extra: dict) -> dict:
    """The PER_LAYER table; extra supplies the values the spans cannot
    (cases, output bytes, overhead, tail, failed_frac, headroom)."""
    t, c = totals, totals.counts
    out = {
        "qcore.q_number.calls": t.n("qcore.q_number"),
        "qcore.q_factorial.calls": t.n("qcore.q_factorial"),
        "qcore.self_s": t.self_s(*t.prefixed("qcore.")),
        "qspecial.leggauss.calls": t.leggauss_in_qspecial,
        "qspecial.norm_constant.calls": t.n("qspecial.norm_constant"),
        "qops.family_evals": t.n("qops.psi_family.eval"),
        "qops.stencil.evals": sum(t.n(s) for s in STENCILS),
        "qops.stencil.self_s": t.self_s(*STENCILS),
        "qops.psi_per_casimir": _ratio(t.psi_in_casimir, t.n(CASIMIR)),
        "quadrature.radial_rule.calls": t.n("quadrature.radial_rule"),
        "quadrature.nodes_evaluated": c.get("quadrature.nodes_evaluated", 0),
        "quadrature.node_efficiency": _ratio(c.get("quadrature.final_level_nodes", 0),
                                             c.get("quadrature.nodes_evaluated", 0)),
        "qinner.inner.calls": t.n("qinner.inner"),
        "qinner.inner.self_s": t.self_s("qinner.inner"),
        "qinner.inner.zero_frac": _ratio(c.get("qinner.inner.zero", 0), t.n("qinner.inner")),
        "qinner.gram.self_s": t.self_s("qinner.gram"),
        "qinner.adjoint_residual.calls": t.n("qinner.adjoint_residual"),
        "cli.main.wall_s": t.incl_s("cli.main"),
        "cli.self_s": t.self_s(*t.prefixed("cli.")),
    }
    for fn in ("l_function", "q_infinite_product", "q_finite_product", "q_integral_exp", "psi"):
        span = "qspecial." + fn
        out[span + ".calls"] = t.n(span)
        out[span + ".self_s"] = t.self_s(span)
        if span + ".points" in PER_LAYER:
            out[span + ".points"] = c.get(span + ".points", 0)
        if span + ".distinct_ratio" in PER_LAYER:
            out[span + ".distinct_ratio"] = _ratio(c.get(span + ".distinct", 0), t.n(span))
    for rule in ("radial_integral", "integrate_plane"):
        span = "quadrature." + rule
        out[span + ".calls"] = t.n(span)
        out[span + ".self_s"] = t.self_s(span)
        out[span + ".levels_mean"] = _ratio(c.get(span + ".levels", 0), t.n(span))
    for s in SUITES:
        out[f"suites.{s}.wall_s"] = t.incl_s(f"suites.suite_{s}")
    out.update(extra)
    missing = set(PER_LAYER) - set(out)
    if missing:
        raise KeyError(f"per-layer metrics not derived: {sorted(missing)}")
    return {name: out[name] for name in PER_LAYER}
