"""Tests for MaxSAT, lexicographic, linear minimization, and enumeration."""

from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.errors import SolverStateError
from repro.logic.pseudo_boolean import PBTerm
from repro.opt import (
    LexObjective,
    MaxSatSolver,
    count_models,
    enumerate_models,
    equivalence_classes,
    lexicographic_optimize,
)
from repro.opt.linear import expr_value, minimize_linexpr
from repro.sat import Solver
from repro.smt import IntEncoder, IntVar, LinExpr
from tests.conftest import random_clauses

ROOT = Path(__file__).resolve().parent.parent


def _brute_min_cost(n, hard, soft):
    best = None
    for bits in itertools.product([False, True], repeat=n):
        if not all(
            any((lit > 0) == bits[abs(lit) - 1] for lit in cl) for cl in hard
        ):
            continue
        cost = sum(
            w
            for cl, w in soft
            if not any((lit > 0) == bits[abs(lit) - 1] for lit in cl)
        )
        best = cost if best is None else min(best, cost)
    return best


class TestMaxSat:
    @pytest.mark.parametrize("strategy", ["linear", "binary"])
    def test_simple_tradeoff(self, strategy):
        m = MaxSatSolver()
        a, b = m.solver.new_vars(2)
        m.add_hard([a, b])
        m.add_soft([-a], weight=1, label="not-a")
        m.add_soft([-b], weight=3, label="not-b")
        result = m.solve(strategy)
        assert result.satisfiable
        assert result.cost == 1
        assert result.violated == ["not-a"]

    @pytest.mark.parametrize("strategy", ["linear", "binary"])
    def test_matches_brute_force(self, strategy):
        rng = random.Random(77)
        for _ in range(60):
            n = rng.randint(2, 6)
            hard = random_clauses(rng, n, rng.randint(0, 4))
            soft = [
                (random_clauses(rng, n, 1)[0], rng.randint(1, 5))
                for _ in range(rng.randint(1, 5))
            ]
            expected = _brute_min_cost(n, hard, soft)
            m = MaxSatSolver()
            m.solver.new_vars(n)
            for clause in hard:
                m.add_hard(clause)
            for clause, weight in soft:
                m.add_soft(clause, weight)
            result = m.solve(strategy)
            if expected is None:
                assert not result.satisfiable
            else:
                assert result.cost == expected

    def test_hard_unsat(self):
        m = MaxSatSolver()
        a = m.solver.new_var()
        m.add_hard([a])
        m.add_hard([-a])
        m.add_soft([a])
        assert not m.solve().satisfiable

    def test_zero_cost_optimum(self):
        m = MaxSatSolver()
        a = m.solver.new_var()
        m.add_soft([a], weight=5)
        result = m.solve()
        assert result.cost == 0
        assert result.violated == []

    def test_frozen_after_solve(self):
        m = MaxSatSolver()
        a = m.solver.new_var()
        m.add_soft([a])
        m.solve()
        with pytest.raises(SolverStateError):
            m.add_hard([a])
        with pytest.raises(SolverStateError):
            m.add_soft([-a])

    def test_invalid_weight(self):
        m = MaxSatSolver()
        a = m.solver.new_var()
        with pytest.raises(ValueError):
            m.add_soft([a], weight=0)

    def test_invalid_strategy(self):
        m = MaxSatSolver()
        m.solver.new_var()
        with pytest.raises(ValueError):
            m.solve("magic")

    def test_total_weight(self):
        m = MaxSatSolver()
        a, b = m.solver.new_vars(2)
        m.add_soft([a], 2)
        m.add_soft([b], 3)
        assert m.total_weight == 5


class TestLexicographic:
    def test_priority_order_matters(self):
        # obj1 wants a false; obj2 wants b false; a<->not b forced.
        s = Solver()
        a, b = s.new_vars(2)
        s.add_clause([a, b])
        s.add_clause([-a, -b])
        result = lexicographic_optimize(
            s,
            [
                LexObjective("first", [PBTerm(1, a)]),
                LexObjective("second", [PBTerm(1, b)]),
            ],
        )
        assert result.optima == {"first": 0, "second": 1}
        assert result.model[b] is True

    def test_zero_cost_objective_frozen(self):
        # Regression: an objective already at 0 must stay at 0.
        s = Solver()
        a, b = s.new_vars(2)
        s.add_clause([a, b])
        result = lexicographic_optimize(
            s,
            [
                LexObjective("keep_a_off", [PBTerm(5, a)]),
                LexObjective("keep_b_off", [PBTerm(1, b)]),
            ],
        )
        assert result.optima == {"keep_a_off": 0, "keep_b_off": 1}

    def test_unsat(self):
        s = Solver()
        a = s.new_var()
        s.add_clause([a])
        s.add_clause([-a])
        result = lexicographic_optimize(s, [LexObjective("o", [PBTerm(1, a)])])
        assert not result.satisfiable

    def test_negative_weight_rejected(self):
        s = Solver()
        a = s.new_var()
        s.add_clause([a, -a])
        with pytest.raises(ValueError):
            lexicographic_optimize(
                s, [LexObjective("bad", [PBTerm(-1, a)])]
            )

    def test_empty_objective(self):
        s = Solver()
        s.new_var()
        result = lexicographic_optimize(s, [LexObjective("empty", [])])
        assert result.optima == {"empty": 0}


class TestLinearMin:
    def test_minimize_simple(self):
        s = Solver()
        encoder = IntEncoder(s)
        x = IntVar("x", 0, 100)
        y = IntVar("y", 0, 100)
        encoder.assert_constraint((x + y) >= 30)
        result = minimize_linexpr(s, encoder, 2 * x + 3 * y)
        assert result is not None
        assert result.value == 60  # all weight on the cheap variable
        values = encoder.values(result.model)
        assert values[x] == 30 and values[y] == 0

    def test_minimize_unsat(self):
        s = Solver()
        encoder = IntEncoder(s)
        x = IntVar("x", 0, 5)
        encoder.assert_constraint(x >= 10)
        assert minimize_linexpr(s, encoder, 1 * x) is None

    def test_freeze_persists(self):
        s = Solver()
        encoder = IntEncoder(s)
        x = IntVar("x", 0, 50)
        encoder.assert_constraint(x >= 7)
        result = minimize_linexpr(s, encoder, 1 * x, freeze=True)
        assert result.value == 7
        # After freezing, larger values are unreachable.
        probe = encoder.reify(x >= 8)
        assert not s.solve([probe])

    def test_tolerance_stops_early(self):
        s = Solver()
        encoder = IntEncoder(s)
        x = IntVar("x", 0, 1000)
        encoder.assert_constraint(x >= 100)
        exact = minimize_linexpr(s, encoder, 1 * x, freeze=False)
        s2 = Solver()
        e2 = IntEncoder(s2)
        y = IntVar("y", 0, 1000)
        e2.assert_constraint(y >= 100)
        loose = minimize_linexpr(s2, e2, 1 * y, freeze=False, tolerance=50)
        assert exact.value == 100
        assert 100 <= loose.value <= 150
        assert loose.iterations <= exact.iterations

    def test_expr_value(self):
        s = Solver()
        encoder = IntEncoder(s)
        x = IntVar("x", 0, 10)
        encoder.assert_constraint(x.eq(4))
        s.solve()
        assert expr_value(3 * x + 2, encoder, s.model()) == 14

    @pytest.mark.parametrize("seed", range(30))
    def test_tolerance_contract(self, seed):
        """The result is within *tolerance* of the brute-force minimum."""
        rng = random.Random(f"linear-tolerance-{seed}")
        variables = [IntVar(f"x{i}", 0, rng.randint(3, 12)) for i in range(3)]
        constraints = [
            sum((rng.randint(0, 4) * v for v in variables), LinExpr())
            >= rng.randint(0, 20)
            for _ in range(2)
        ]
        objective = sum(
            (rng.randint(-3, 9) * v for v in variables), LinExpr()
        )
        tolerance = rng.choice([0, 1, 3, 8, 25])
        feasible = [
            objective.evaluate(env)
            for env in (
                dict(zip(variables, point))
                for point in itertools.product(
                    *(range(v.lo, v.hi + 1) for v in variables)
                )
            )
            if all(c.holds(env) for c in constraints)
        ]
        solver = Solver()
        encoder = IntEncoder(solver)
        for constraint in constraints:
            encoder.assert_constraint(constraint)
        result = minimize_linexpr(
            solver, encoder, objective, freeze=False, tolerance=tolerance
        )
        if not feasible:
            assert result is None
            return
        best = min(feasible)
        assert best <= result.value <= best + tolerance
        assert expr_value(objective, encoder, result.model) == result.value


class _FailsAfter(Solver):
    """A solver that answers UNSAT from its (*n* + 1)-th solve on."""

    def __init__(self, n):
        super().__init__()
        self._left = n

    def solve(self, assumptions=()):
        self._left -= 1
        return self._left >= 0 and super().solve(assumptions)


class TestOptimizerStateErrors:
    """Lost feasibility raises SolverStateError, not a bare assert."""

    def test_linear_freeze(self):
        s = _FailsAfter(1)
        encoder = IntEncoder(s)
        x = IntVar("x", 0, 50)
        encoder.assert_constraint(x >= 7)
        with pytest.raises(SolverStateError, match="frozen optimum"):
            minimize_linexpr(s, encoder, 1 * x, tolerance=100)

    @pytest.mark.parametrize("zero_cost", [True, False])
    def test_lexicographic_freeze(self, zero_cost):
        s = _FailsAfter(1)
        a = s.new_var()
        s.add_clause([-a] if zero_cost else [a])
        with pytest.raises(SolverStateError, match="frozen optimum"):
            lexicographic_optimize(s, [LexObjective("o", [PBTerm(1, a)])])

    def test_raised_under_optimize_flag(self):
        """``python -O`` strips asserts; the typed error must survive."""
        script = textwrap.dedent(
            """
            from repro.errors import SolverStateError
            from repro.opt.linear import minimize_linexpr
            from repro.smt import IntEncoder, IntVar
            from tests.test_opt import _FailsAfter

            assert False, "asserts must be stripped under -O"
            s = _FailsAfter(1)
            encoder = IntEncoder(s)
            x = IntVar("x", 0, 50)
            encoder.assert_constraint(x >= 7)
            try:
                minimize_linexpr(s, encoder, 1 * x, tolerance=100)
            except SolverStateError as exc:
                print("raised:", exc)
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH", "")]
        )
        result = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True, text=True, timeout=120, env=env, cwd=ROOT,
        )
        assert result.returncode == 0, result.stderr[-2000:]
        assert "raised: frozen optimum must remain satisfiable" in result.stdout


class TestEnumeration:
    def test_enumerate_all(self):
        s = Solver()
        a, b = s.new_vars(2)
        s.add_clause([a, b])
        models = list(enumerate_models(s, [a, b]))
        assert len(models) == 3
        assert all(m[a] or m[b] for m in models)

    def test_limit(self):
        s = Solver()
        vs = s.new_vars(4)
        assert count_models(s, vs, limit=5) == 5

    def test_projection_collapses(self):
        s = Solver()
        a, b, c = s.new_vars(3)
        s.add_clause([a])
        assert count_models(s, [a]) == 1  # b, c projected away

    def test_empty_projection(self):
        s = Solver()
        a = s.new_var()
        s.add_clause([a])
        assert count_models(s, []) == 1
        s2 = Solver()
        x = s2.new_var()
        s2.add_clause([x])
        s2.add_clause([-x])
        assert count_models(s2, []) == 0

    def test_equivalence_classes_with_completions(self):
        s = Solver()
        a, b, c = s.new_vars(3)
        s.add_clause([a, b])
        classes = equivalence_classes(s, observed=[a], refinement=[b, c])
        by_sig = {cls.signature[a]: cls.completions for cls in classes}
        assert by_sig == {True: 4, False: 2}

    def test_unsat_yields_no_classes(self):
        s = Solver()
        a = s.new_var()
        s.add_clause([a])
        s.add_clause([-a])
        assert equivalence_classes(s, observed=[a]) == []
