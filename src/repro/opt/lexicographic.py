"""Lexicographic multi-objective optimization.

Implements the ``Optimize(latency > hardware_cost > monitoring)`` pattern
from the paper's Listing 3: objectives are minimized strictly in priority
order — each objective is optimized, its optimum frozen as a hard bound,
and the next objective optimized within that slice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence

from repro.errors import SolverStateError
from repro.logic.pseudo_boolean import GeneralizedTotalizer, PBTerm
from repro.obs.trace import NULL_TRACER, Tracer
from repro.sat.solver import Solver


@dataclass
class LexObjective:
    """One minimization objective: a named weighted sum of literals."""

    name: str
    terms: list[PBTerm]

    def cost(self, model: dict[int, bool]) -> int:
        """Evaluate the objective under a model."""
        return sum(
            t.weight
            for t in self.terms
            if (t.lit > 0) == model.get(abs(t.lit), False)
        )


@dataclass
class LexResult:
    """Outcome of a lexicographic optimization."""

    satisfiable: bool
    model: dict[int, bool] | None = None
    #: Optimal cost per objective, in priority order.
    optima: dict[str, int] = field(default_factory=dict)
    iterations: int = 0


def lexicographic_optimize(
    solver: Solver,
    objectives: Sequence[LexObjective],
    tracer: Tracer | None = None,
    assumptions: list[int] | None = None,
    freeze_lit: int | None = None,
    totalizer_cache: dict | None = None,
) -> LexResult:
    """Minimize *objectives* in priority order over *solver*'s formula.

    The solver is mutated: each objective's optimum is asserted as a hard
    upper bound before the next objective is attacked, so after the call
    the solver's models are exactly the lexicographic optima. With a
    *tracer*, each objective's descent is timed under its own span.

    With *assumptions*, every solve runs under those literals; with
    *freeze_lit*, optimum-freezing clauses are guarded by that activation
    literal (include it in *assumptions*) so an incremental session can
    retire them after the query. *totalizer_cache* maps a terms key to an
    already-built :class:`GeneralizedTotalizer`, letting sessions reuse
    counting circuits across queries on one persistent solver.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    base = list(assumptions) if assumptions else []
    if not solver.solve(base):
        return LexResult(satisfiable=False)
    model = solver.model()
    optima: dict[str, int] = {}
    iterations = 1
    for objective in objectives:
        with tracer.span(f"lex:{objective.name}"):
            model, optimum, probes = _descend(
                solver, objective, model, base, freeze_lit, totalizer_cache
            )
        optima[objective.name] = optimum
        iterations += probes
    return LexResult(True, model, optima, iterations)


def _freeze(solver: Solver, lits: list[int], freeze_lit: int | None) -> None:
    """Assert each literal, optionally guarded by an activation literal."""
    for lit in lits:
        solver.add_clause([lit] if freeze_lit is None else [-freeze_lit, lit])


def _descend(
    solver: Solver,
    objective: LexObjective,
    model: dict[int, bool],
    base: list[int],
    freeze_lit: int | None = None,
    totalizer_cache: dict | None = None,
) -> tuple[dict[int, bool], int, int]:
    """Minimize one objective; return ``(model, optimum, probe_count)``."""
    terms = [t for t in objective.terms if t.weight > 0]
    if any(t.weight < 0 for t in objective.terms):
        raise ValueError(
            f"objective {objective.name!r} has negative weights; "
            "rewrite over negated literals first"
        )
    current = objective.cost(model)
    if not terms:
        return model, 0, 0
    if current == 0:
        # Already optimal; freeze by forbidding every weighted literal,
        # or later objectives could silently degrade this one.
        _freeze(solver, [-t.lit for t in terms], freeze_lit)
        if not solver.solve(base):
            raise SolverStateError("frozen optimum must remain satisfiable")
        return solver.model(), 0, 0
    cap = sum(t.weight for t in terms) + 1
    cache_key = tuple((t.weight, t.lit) for t in terms)
    gte = totalizer_cache.get(cache_key) if totalizer_cache is not None else None
    if gte is None:
        gte = GeneralizedTotalizer(terms, cap=cap, new_var=solver.new_var)
        for clause in gte.clauses:
            solver.add_clause(clause)
        if totalizer_cache is not None:
            totalizer_cache[cache_key] = gte
    # Binary descent between 0 and the incumbent cost.
    lo, hi = 0, current
    probes = 0
    while lo < hi:
        mid = (lo + hi) // 2
        bound_lit = gte.geq_literal(mid + 1)
        assumptions = base if bound_lit is None else base + [-bound_lit]
        probes += 1
        if solver.solve(assumptions):
            model = solver.model()
            hi = objective.cost(model)
        else:
            lo = mid + 1
    # Freeze this objective at its optimum before the next one.
    bound_lit = gte.geq_literal(hi + 1)
    if bound_lit is not None:
        _freeze(solver, [-bound_lit], freeze_lit)
    # Re-establish a model satisfying all frozen bounds.
    if not solver.solve(base):
        raise SolverStateError("frozen optimum must remain satisfiable")
    return solver.model(), hi, probes
