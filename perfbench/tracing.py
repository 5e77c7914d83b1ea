"""Spans around the calls into each ``lama`` layer, recorded from outside the package.

``install`` replaces module and class attributes, as the callers look them
up, with wrappers that record a span per call: layer name, start, end, the
index of the enclosing span and, for some layers, a few counts read from the
return value.  Spans stay in memory; the child process writes them out when
the CLI returns.  Nothing under ``src/`` changes and the wrapped functions
return their results untouched, which the benchmark checks by comparing
traced stdout with untraced stdout byte for byte.

``layer_metrics`` turns one process's spans into the per-layer metrics.
A layer's busy time is the summed duration of its outermost spans (a span
nested in one of the same layer is not counted twice); its self time is a
span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import time


class Tracer:
    """Span recorder for one process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1, attrs or None]
        self._stack: list[int] = []

    def wrap(self, owner, attr: str, name: str, attrs_of=None) -> None:
        """Replace ``owner.attr`` with a wrapper that records a ``name`` span per call.

        ``attrs_of(result)`` maps the return value to the span's counts.
        """
        original = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if attrs_of is not None:
                span[4] = attrs_of(result)
            return result

        setattr(owner, attr, traced)


def _solve_attrs(report) -> dict:
    return {
        "iterations": int(report.iterations),
        "converged": report.status == "converged",
        "kkt_residual": float(report.kkt_residual),
    }


def _harness_attrs(rows) -> dict:
    # evaluate_real repeats its split counts on every row; run_simulation
    # repeats each cell's excluded replications once per method.
    if rows and "redraws" in rows[0]:
        return {"excluded": int(rows[0]["excluded"]), "redraws": int(rows[0]["redraws"])}
    cells = {(r["n"], r["M"], r["R2"]): r["excluded_reps"] for r in rows}
    return {"excluded": int(sum(cells.values())), "redraws": 0}


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point the benchmark workloads reach."""
    import lama.cli as cli
    import lama.criteria as crit
    import lama.datasets as ds
    import lama.experiments as xp
    import lama.models as models
    import lama.risk_theory as rt

    wrap = tracer.wrap
    wrap(xp, "solve_simplex_qp", "qp.solve", _solve_attrs)
    wrap(xp, "fit_all", "models.fit_all",
         lambda r: {"candidates": int(r.M), "past_boundary": bool(r.sizes[-1] > r.n)})
    wrap(models.ModelFits, "predict", "models.predict")
    wrap(xp, "order_by_cp", "models.order_by_cp")
    for fn in ("mma_program", "jma_program", "lama_program"):
        wrap(crit, fn, "criteria.program")
    for fn in ("sigma_hat", "xi", "v_out_matrix", "b_in_diag"):
        wrap(crit, fn, "criteria.estimate")
    for fn in ("evaluate_real", "run_simulation"):
        wrap(xp, fn, "experiments.harness", _harness_attrs)
    wrap(xp, "compute_weights", "experiments.compute_weights", lambda r: {"excluded": len(r.excluded)})
    wrap(xp, "relative_losses", "experiments.relative_losses")
    wrap(cli, "risk_surface", "risk_theory.risk_surface", lambda r: {"cells": int(r.n.shape[0])})
    wrap(ds, "load_builtin", "datasets.load")
    for fn in ("simulation_csv", "real_eval_csv"):
        wrap(xp, fn, "cli.write")
    wrap(rt.RiskSurface, "to_csv", "cli.write")


def _percentile(sorted_values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks, as numpy.percentile's default."""
    if not sorted_values:
        return 0.0
    pos = (len(sorted_values) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced process from its spans."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    busy: dict[str, float] = {}
    self_s: dict[str, float] = {}
    attrs: dict[str, list] = {}
    for i, (name, start, end, parent, span_attrs) in enumerate(spans):
        self_s[name] = self_s.get(name, 0.0) + (end - start - covered[i])
        attrs.setdefault(name, []).append(span_attrs)
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            busy[name] = busy.get(name, 0.0) + (end - start)

    def total(name: str, key: str) -> int:
        return sum(a[key] for a in attrs.get(name, ()))

    solves = attrs.get("qp.solve", [])
    solve_ms = sorted(1e3 * (end - start) for name, start, end, _, _ in spans if name == "qp.solve")
    return {
        "qp.calls": len(solves),
        "qp.busy_s": busy.get("qp.solve", 0.0),
        "qp.solve_ms_p50": _percentile(solve_ms, 50),
        "qp.solve_ms_p99": _percentile(solve_ms, 99),
        "qp.iterations": total("qp.solve", "iterations"),
        "qp.iterations_max": max((a["iterations"] for a in solves), default=0),
        "qp.nonconverged": sum(not a["converged"] for a in solves),
        "qp.kkt_residual_max": max((a["kkt_residual"] for a in solves), default=0.0),
        "models.fit_all.calls": len(attrs.get("models.fit_all", ())),
        "models.fit_all.busy_s": busy.get("models.fit_all", 0.0),
        "models.fit_all.candidates": total("models.fit_all", "candidates"),
        "models.fit_all.past_boundary_calls": total("models.fit_all", "past_boundary"),
        "models.predict.busy_s": busy.get("models.predict", 0.0),
        "models.order_by_cp.busy_s": busy.get("models.order_by_cp", 0.0),
        "criteria.program.calls": len(attrs.get("criteria.program", ())),
        "criteria.program.busy_s": busy.get("criteria.program", 0.0),
        "criteria.estimate.busy_s": busy.get("criteria.estimate", 0.0),
        "criteria.excluded_candidates": total("experiments.compute_weights", "excluded"),
        "experiments.self_s": self_s.get("experiments.harness", 0.0),
        "experiments.compute_weights.self_s": self_s.get("experiments.compute_weights", 0.0),
        "experiments.relative_losses.busy_s": busy.get("experiments.relative_losses", 0.0),
        "experiments.excluded_items": total("experiments.harness", "excluded"),
        "experiments.redraws": total("experiments.harness", "redraws"),
        "risk_theory.risk_surface.busy_s": busy.get("risk_theory.risk_surface", 0.0),
        "risk_theory.cells": total("risk_theory.risk_surface", "cells"),
        "datasets.load.busy_s": busy.get("datasets.load", 0.0),
        "cli.write.busy_s": busy.get("cli.write", 0.0),
    }
