"""Minimization of linear integer expressions by bound bisection.

Pseudo-Boolean totalizers degrade badly when weights are large and
heterogeneous (hardware prices in dollars): the value-labelled nodes
enumerate every distinct partial sum. Cost objectives instead reuse the
bit-blasting encoder — each probe ``expr <= mid`` is one reified
comparator circuit over the already-encoded count variables, and the
optimum is found in ``O(log range)`` solver calls.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SolverStateError
from repro.obs.trace import NULL_TRACER, Tracer
from repro.smt.encoder import IntEncoder
from repro.smt.intervals import bounds_of
from repro.smt.terms import LinExpr


@dataclass
class LinearMinimum:
    """Outcome of :func:`minimize_linexpr`."""

    value: int
    model: dict[int, bool]
    iterations: int


def expr_value(
    expr: LinExpr, encoder: IntEncoder, model: dict[int, bool]
) -> int:
    """Evaluate a linear expression under a SAT model."""
    return expr.evaluate({v: encoder.value_of(v, model) for v in expr.coeffs})


def minimize_linexpr(
    solver,
    encoder: IntEncoder,
    expr: LinExpr,
    freeze: bool = True,
    tolerance: int = 0,
    tracer: Tracer | None = None,
    assumptions: list[int] | None = None,
    freeze_lit: int | None = None,
) -> LinearMinimum | None:
    """Minimize *expr* over the solver's current (hard) formula.

    Returns None when the formula is unsatisfiable. With *freeze*, the
    found bound is asserted as a hard upper bound afterwards, so
    subsequent (lower-priority) objectives cannot degrade it.

    *tolerance* is an absolute gap in the units of *expr*: the bisection
    stops once every value more than *tolerance* below the returned one
    has been refuted, so the result is within *tolerance* of the true
    minimum (exact with the default 0). The probes closest to the
    optimum are the hardest UNSAT instances, and rules-of-thumb
    reasoning rarely needs dollar-exact answers.

    With *assumptions*, every solve (including probes) runs under those
    assumption literals; with *freeze_lit*, freeze clauses are emitted as
    ``freeze_lit -> bound`` so an incremental session can retire them by
    dropping the activation literal instead of mutating the formula.

    With a *tracer*, the whole descent is timed under a ``bisect`` span.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    base = list(assumptions) if assumptions else []
    with tracer.span("bisect"):
        if not solver.solve(base):
            return None
        model = solver.model()
        hi = expr_value(expr, encoder, model)
        lo = bounds_of(expr).lo
        iterations = 1
        while lo + tolerance < hi:
            mid = lo + (hi - lo) // 2
            probe = encoder.reify(expr <= mid)
            iterations += 1
            if solver.solve(base + [probe]):
                model = solver.model()
                hi = expr_value(expr, encoder, model)
            else:
                lo = mid + 1
        if freeze:
            bound = encoder.reify(expr <= hi)
            if freeze_lit is None:
                solver.add_clause([bound])
            else:
                solver.add_clause([-freeze_lit, bound])
            if not solver.solve(base):
                raise SolverStateError("frozen optimum must remain satisfiable")
            model = solver.model()
    return LinearMinimum(value=hi, model=model, iterations=iterations)
