"""Span recording for the traced run, and the per-layer metrics built from it.

Inside ``Tracer.rebound()`` the names through which one ``mittleff`` module
calls the next (``dispatch.ml_quad``, ``quadrature.q_sum``, the kernel names
bound in ``quadrature``, ``series``, ``asymptotic`` and ``pade``, ...) point
at span recorders defined here; on exit they point back at the originals.
The program's files are never edited.

A span is (name, start, end, parent span, op id), kept in flat arrays while
the pass runs.  A layer's self time is the time of its spans minus the time
of their direct child spans; the layer is the span name up to its first dot.
Call counts are span counts; the other counts come from small hooks that read
a call's arguments or result after its span has closed.
"""

from __future__ import annotations

import contextlib
import math
import time
from array import array
from collections import defaultdict
from typing import Callable, Iterator

import numpy as np

# per-layer metric name -> unit; the order is the order of the report
LAYER_METRICS = {
    "kernels.reciprocal_gamma.calls": "count",
    "kernels.gamma_real.calls": "count",
    "kernels.cpow.calls": "count",
    "kernels.psi.calls": "count",
    "kernels.self_s": "s",
    "quadrature.q_sum.calls": "count",
    "quadrature.q_sum.self_s": "s",
    "quadrature.nodes": "count",
    "quadrature.pole_split_frac": "fraction",
    "quadrature.ml_quad.self_s": "s",
    "quadrature.origin_accuracy.self_s": "s",
    "contours.rule_builds": "count",
    "contours.self_s": "s",
    "series.calls": "count",
    "series.self_s": "s",
    "series.terms": "count",
    "series.unconverged": "count",
    "asymptotic.calls": "count",
    "asymptotic.self_s": "s",
    "asymptotic.terms": "count",
    "asymptotic.converged_frac": "fraction",
    "dispatch.calls": "count",
    "dispatch.self_s": "s",
    "dispatch.asymp_accept_frac": "fraction",
    "dispatch.reduction_subcalls": "count",
    "pade.assemble.self_s": "s",
    "pade.solve.self_s": "s",
    "pade.partial_fractions.self_s": "s",
    "pade.eval.self_s": "s",
    "pade.fits": "count",
    "pade.fit_failures": "count",
    "cli.self_s": "s",
    "cli.bytes_out": "bytes",
    "trace.overhead_frac": "fraction",
}


class Tracer:
    """Span store for one traced pass.  Not thread-safe: one pass, one thread."""

    def __init__(self) -> None:
        self.span_names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.stack: list[int] = []
        self.op_id = -1
        self.counters: defaultdict[str, int] = defaultdict(int)

    def _span_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.span_names)
            self.span_names.append(name)
        return self._ids[name]

    def wrap(
        self,
        fn: Callable,
        span: str,
        before: Callable | None = None,
        after: Callable | None = None,
    ) -> Callable:
        """``fn`` recorded as a span named ``span``.

        ``before(args)`` runs inside the span before the call; ``after(args,
        result)`` runs once the span has closed.  A call that raises counts
        in ``counters[span + ".raised"]``.
        """
        sid = self._span_id(span)
        raised = span + ".raised"
        names, starts, ends, parents, ops = self.name_id, self.start, self.end, self.parent, self.op
        stack, counters, clock = self.stack, self.counters, time.perf_counter

        def recorder(*args, **kwargs):
            i = len(starts)
            names.append(sid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            if before is not None:
                before(args)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counters[raised] += 1
                raise
            finally:
                ends[i] = clock()
                starts[i] = t0
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return recorder

    @contextlib.contextmanager
    def rebound(self) -> Iterator[None]:
        """Point the program's inter-module names at recorders, then restore them."""
        saved = []
        try:
            for owner, attr, span, before, after in _targets(self):
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, span, before, after))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path) -> None:
        np.savez_compressed(
            path,
            span_names=np.array(self.span_names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op=np.frombuffer(self.op, dtype=np.int64),
        )


def _targets(tracer: Tracer) -> list[tuple]:
    """(owner, attribute, span name, before hook, after hook) for every rebound name."""
    from mittleff import asymptotic, cli, dispatch, kernels, pade, quadrature, series
    from mittleff.quadrature import Method

    c = tracer.counters
    state = {"reduction": False}
    principal_arg = kernels.principal_arg

    def auto_before(args):
        # ml_auto(z, alpha, ...) reduces alpha > 1 to ceil(alpha) sub-evaluations
        state["reduction"] = args[1] > 1.0

    def low_after(args, res):
        c["dispatch.reduction_subcalls"] += state["reduction"]
        c["dispatch.asymp_accepted"] += res.method is Method.ASYMPTOTIC

    def series_after(args, res):
        c["series.terms"] += res.terms_used
        c["series.unconverged"] += not res.converged

    def asymp_after(args, res):
        c["asymptotic.terms"] += res.m
        c["asymptotic.converged"] += res.converged

    def quad_after(args, res):
        # the same test ml_quad applies before splitting off the pole
        c["quadrature.pole_split"] += abs(principal_arg(complex(args[0]))) <= args[1] * math.pi

    def q_sum_after(args, res):
        rule, _, conj_symmetric = args
        c["quadrature.nodes"] += rule.N + 1 if conj_symmetric else 2 * rule.N + 1

    return [
        (dispatch, "ml_auto", "dispatch.ml_auto", auto_before, None),
        (dispatch, "_ml_auto_low", "dispatch.low", None, low_after),
        (dispatch, "ml_series", "series", None, series_after),
        (dispatch, "ml_asymptotic", "asymptotic", None, asymp_after),
        (dispatch, "ml_quad", "quadrature.ml_quad", None, quad_after),
        (dispatch, "build_hyperbolic_rule", "contours", None, None),
        (dispatch, "cpow_principal", "kernels.cpow", None, None),
        (quadrature, "q_sum", "quadrature.q_sum", None, q_sum_after),
        (quadrature, "origin_accuracy", "quadrature.origin_accuracy", None, None),
        (quadrature, "_cpow", "kernels.cpow", None, None),
        (quadrature, "cexp", "kernels.cexp", None, None),
        (quadrature, "principal_arg", "kernels.principal_arg", None, None),
        (quadrature, "psi1", "kernels.psi", None, None),
        (quadrature, "psi2", "kernels.psi", None, None),
        (quadrature, "reciprocal_gamma", "kernels.reciprocal_gamma", None, None),
        (series, "reciprocal_gamma", "kernels.reciprocal_gamma", None, None),
        (asymptotic, "cexp", "kernels.cexp", None, None),
        (asymptotic, "principal_arg", "kernels.principal_arg", None, None),
        (pade, "build_pade", "pade.build", None, None),
        (pade, "assemble_pade_matrix", "pade.assemble", None, None),
        (pade, "solve_fixed_q0", "pade.solve", None, None),
        (pade, "solve_svd_null", "pade.solve", None, None),
        (pade, "solve_lu_homogeneous", "pade.solve", None, None),
        (pade, "partial_fractions", "pade.partial_fractions", None, None),
        (pade, "pade_eval", "pade.eval", None, None),
        (pade.PartialFractionForm, "evaluate_at", "pade.eval", None, None),
        (pade, "reciprocal_gamma", "kernels.reciprocal_gamma", None, None),
        (pade, "gamma_real", "kernels.gamma_real", None, None),
        (cli, "main", "cli", None, None),
        (cli, "ml_quad", "quadrature.ml_quad", None, quad_after),
        (cli, "build_parabolic_rule", "contours", None, None),
        (cli, "build_hyperbolic_rule", "contours", None, None),
    ]


def self_times(name_id, start, end, parent, n_names: int) -> np.ndarray:
    """Self time per span name: span durations minus their direct children's."""
    name_id = np.asarray(name_id, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    dur = np.asarray(end, dtype=np.float64) - np.asarray(start, dtype=np.float64)
    nested = parent >= 0
    child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    return np.bincount(name_id, weights=dur - child, minlength=n_names)


def layer_metrics(tracer: Tracer, time_scale: float) -> dict[str, float]:
    """Every per-layer metric except trace.overhead_frac, from one traced pass.

    Self times are multiplied by ``time_scale`` (see calib.py).  A layer the
    workload never reaches reads 0.
    """
    n = len(tracer.span_names)
    selfs = self_times(tracer.name_id, tracer.start, tracer.end, tracer.parent, n) * time_scale
    calls = np.bincount(np.asarray(tracer.name_id, dtype=np.int64), minlength=n)
    by_name = {name: (float(selfs[i]), int(calls[i])) for i, name in enumerate(tracer.span_names)}
    c = tracer.counters

    def self_s(prefix: str) -> float:
        return sum(s for name, (s, _) in by_name.items() if name == prefix or name.startswith(prefix + "."))

    def count(name: str) -> int:
        return by_name.get(name, (0.0, 0))[1]

    def frac(num: float, den: float) -> float:
        return num / den if den else 0.0

    return {
        "kernels.reciprocal_gamma.calls": count("kernels.reciprocal_gamma"),
        "kernels.gamma_real.calls": count("kernels.gamma_real"),
        "kernels.cpow.calls": count("kernels.cpow"),
        "kernels.psi.calls": count("kernels.psi"),
        "kernels.self_s": self_s("kernels"),
        "quadrature.q_sum.calls": count("quadrature.q_sum"),
        "quadrature.q_sum.self_s": self_s("quadrature.q_sum"),
        "quadrature.nodes": c["quadrature.nodes"],
        "quadrature.pole_split_frac": frac(c["quadrature.pole_split"], count("quadrature.ml_quad")),
        "quadrature.ml_quad.self_s": self_s("quadrature.ml_quad"),
        "quadrature.origin_accuracy.self_s": self_s("quadrature.origin_accuracy"),
        "contours.rule_builds": count("contours"),
        "contours.self_s": self_s("contours"),
        "series.calls": count("series"),
        "series.self_s": self_s("series"),
        "series.terms": c["series.terms"],
        "series.unconverged": c["series.unconverged"],
        "asymptotic.calls": count("asymptotic"),
        "asymptotic.self_s": self_s("asymptotic"),
        "asymptotic.terms": c["asymptotic.terms"],
        "asymptotic.converged_frac": frac(c["asymptotic.converged"], count("asymptotic")),
        "dispatch.calls": count("dispatch.ml_auto"),
        "dispatch.self_s": self_s("dispatch"),
        # only dispatch's binding of ml_asymptotic is rebound, so every
        # asymptotic span is an attempt made by dispatch
        "dispatch.asymp_accept_frac": frac(c["dispatch.asymp_accepted"], count("asymptotic")),
        "dispatch.reduction_subcalls": c["dispatch.reduction_subcalls"],
        "pade.assemble.self_s": self_s("pade.assemble"),
        "pade.solve.self_s": self_s("pade.solve"),
        "pade.partial_fractions.self_s": self_s("pade.partial_fractions"),
        "pade.eval.self_s": self_s("pade.eval"),
        "pade.fits": count("pade.build"),
        "pade.fit_failures": c["pade.build.raised"] + c["pade.partial_fractions.raised"],
        "cli.self_s": self_s("cli"),
        "cli.bytes_out": c["cli.bytes_out"],
    }
