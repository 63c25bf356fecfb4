"""Tests for the bounded-integer SMT layer."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EncodingError, UnboundedIntError
from repro.logic.tseitin import ClauseCollector
from repro.sat import Solver
from repro.smt import IntEncoder, IntVar, LinExpr
from repro.smt.intervals import Interval, bounds_of, trivially


class TestTerms:
    def test_intvar_validation(self):
        with pytest.raises(ValueError):
            IntVar("x", 5, 2)
        with pytest.raises(ValueError):
            IntVar("", 0, 1)
        with pytest.raises(UnboundedIntError):
            IntVar("x", 0.5, 2)  # type: ignore[arg-type]

    def test_linexpr_arithmetic(self):
        x = IntVar("x", 0, 10)
        y = IntVar("y", -5, 5)
        expr = 2 * x - y + 7
        assert expr.coeffs == {x: 2, y: -1}
        assert expr.const == 7
        assert (expr - expr).equals(LinExpr())

    def test_cancellation_removes_var(self):
        x = IntVar("x", 0, 10)
        expr = x - x
        assert expr.coeffs == {}

    def test_scale(self):
        x = IntVar("x", 0, 10)
        assert ((x + 1) * 3).const == 3
        assert ((x + 1) * 0).equals(LinExpr())
        with pytest.raises(TypeError):
            (x + 1) * 1.5  # type: ignore[operator]

    def test_evaluate(self):
        x = IntVar("x", 0, 10)
        y = IntVar("y", 0, 10)
        expr = 3 * x - 2 * y + 1
        assert expr.evaluate({x: 4, y: 5}) == 3

    def test_comparisons_normalize(self):
        x = IntVar("x", 0, 10)
        c = x <= 5
        assert c.op == "<="
        assert c.expr.evaluate({x: 5}) == 0
        c2 = x > 3  # x - 4 >= 0 -> 4 - x <= 0 form
        assert c2.op == "<="
        assert c2.holds({x: 4}) and not c2.holds({x: 3})

    def test_constraint_holds(self):
        x = IntVar("x", 0, 10)
        assert (x >= 2).holds({x: 2})
        assert not (x >= 2).holds({x: 1})
        assert (x.eq(7)).holds({x: 7})
        assert not (x.eq(7)).holds({x: 6})


class TestIntervals:
    def test_interval_arithmetic(self):
        a = Interval(1, 3)
        b = Interval(-2, 5)
        assert a + b == Interval(-1, 8)
        assert a.scale(-2) == Interval(-6, -2)
        assert a.shift(10) == Interval(11, 13)

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            Interval(3, 1)

    def test_bounds_of(self):
        x = IntVar("x", 0, 4)
        y = IntVar("y", -1, 2)
        iv = bounds_of(2 * x - 3 * y + 1)
        assert iv == Interval(2 * 0 - 3 * 2 + 1, 2 * 4 - 3 * -1 + 1)

    def test_trivially(self):
        x = IntVar("x", 0, 4)
        assert trivially(x >= 0) is True
        assert trivially(x <= -1) is False
        assert trivially(x <= 2) is None
        assert trivially((x - x).eq(0)) is True


class TestEncoder:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_reify_matches_semantics(self, data):
        n = data.draw(st.integers(1, 3))
        variables = []
        for i in range(n):
            lo = data.draw(st.integers(-5, 4))
            hi = lo + data.draw(st.integers(0, 7))
            variables.append(IntVar(f"v{i}", lo, hi))
        coeffs = data.draw(
            st.lists(st.integers(-3, 3), min_size=n, max_size=n)
        )
        const = data.draw(st.integers(-8, 8))
        op = data.draw(st.sampled_from(["<=", "=="]))
        expr = LinExpr(dict(zip(variables, coeffs)), const)
        constraint = expr <= 0 if op == "<=" else expr.eq(0)
        solver = Solver()
        encoder = IntEncoder(solver)
        lit = encoder.reify(constraint)
        for v in variables:
            encoder.bits_for(v)
        for values in itertools.product(
            *[range(v.lo, v.hi + 1) for v in variables]
        ):
            env = dict(zip(variables, values))
            assumptions = [lit if constraint.holds(env) else -lit]
            for v, value in env.items():
                bits = encoder.bits_for(v)
                raw = value - v.lo
                assumptions.extend(
                    bit if (raw >> i) & 1 else -bit
                    for i, bit in enumerate(bits)
                )
            assert solver.solve(assumptions), (env, constraint.holds(env))

    def test_assert_constraint_and_extract(self):
        solver = Solver()
        encoder = IntEncoder(solver)
        x = IntVar("x", 0, 100)
        y = IntVar("y", 0, 100)
        encoder.assert_constraint((x + y).eq(37))
        encoder.assert_constraint(x >= 20)
        encoder.assert_constraint(y >= 10)
        assert solver.solve()
        values = encoder.values(solver.model())
        assert values[x] + values[y] == 37
        assert values[x] >= 20 and values[y] >= 10

    def test_guarded_constraint(self):
        solver = Solver()
        encoder = IntEncoder(solver)
        guard = solver.new_var()
        x = IntVar("x", 0, 10)
        encoder.assert_implies(guard, x <= 3)
        encoder.assert_constraint(x >= 5)
        assert solver.solve([-guard])
        assert not solver.solve([guard])

    def test_bind_boolean(self):
        solver = Solver()
        encoder = IntEncoder(solver)
        flag = solver.new_var()
        b = IntVar("b", 0, 1)
        encoder.bind_boolean(b, flag)
        x = IntVar("x", 0, 10)
        encoder.assert_constraint((x + 5 * b) <= 7)
        assert solver.solve([flag])
        assert encoder.value_of(x, solver.model()) <= 2
        assert encoder.value_of(b, solver.model()) == 1

    def test_bind_boolean_rejects_wide_domain(self):
        solver = Solver()
        encoder = IntEncoder(solver)
        with pytest.raises(EncodingError):
            encoder.bind_boolean(IntVar("b", 0, 2), solver.new_var())

    def test_range_constraint_enforced(self):
        solver = Solver()
        encoder = IntEncoder(solver)
        x = IntVar("x", 0, 5)  # needs 3 bits; 6 and 7 must be excluded
        bits = encoder.bits_for(x)
        assert not solver.solve([bits[0], bits[1], bits[2]])  # 7
        assert not solver.solve([-bits[0], bits[1], bits[2]])  # 6
        assert solver.solve([bits[0], -bits[1], bits[2]])  # 5

    def test_negative_domain(self):
        solver = Solver()
        encoder = IntEncoder(solver)
        x = IntVar("x", -7, -3)
        encoder.assert_constraint(x.eq(-5))
        assert solver.solve()
        assert encoder.value_of(x, solver.model()) == -5

    def test_unencoded_var_reads_lo(self):
        solver = Solver()
        encoder = IntEncoder(solver)
        x = IntVar("x", 3, 9)
        solver.new_var()
        solver.solve()
        assert encoder.value_of(x, solver.model()) == 3

    def test_sum_cache_reused(self):
        solver = Solver()
        encoder = IntEncoder(solver)
        x = IntVar("x", 0, 30)
        y = IntVar("y", 0, 30)
        expr = 3 * x + 5 * y
        encoder.reify(expr <= 40)
        vars_before = solver.num_vars
        encoder.reify(expr <= 20)  # same adder tree, new comparator only
        delta = solver.num_vars - vars_before
        assert delta < 30, f"adder tree re-encoded ({delta} new vars)"

    def test_const_bits_rejects_negative(self):
        solver = Solver()
        encoder = IntEncoder(solver)
        with pytest.raises(EncodingError):
            encoder.const_bits(-1)


def _unit_propagate(clauses, assigned):
    """Close *assigned* (a set of literals) under unit propagation.

    Returns the closed literal set, or None when a clause is falsified.
    """
    true = set(assigned)
    changed = True
    while changed:
        changed = False
        for clause in clauses:
            if any(lit in true for lit in clause):
                continue
            open_lits = [lit for lit in clause if -lit not in true]
            if not open_lits:
                return None
            if len(open_lits) == 1:
                true.add(open_lits[0])
                changed = True
    return true


class TestFullAdder:
    """The full adder is exact and propagation-complete."""

    @staticmethod
    def _adder():
        collector = ClauseCollector()
        encoder = IntEncoder(collector)
        a, b, c = (collector.new_var() for _ in range(3))
        s, co = encoder._full_adder(a, b, c)
        return collector.clauses, (a, b, c, s, co)

    def test_truth_table(self):
        clauses, (a, b, c, s, co) = self._adder()
        solver = Solver()
        solver.new_vars(max(abs(lit) for cl in clauses for lit in cl))
        for clause in clauses:
            solver.add_clause(clause)
        for bits in itertools.product((False, True), repeat=3):
            inputs = [v if bit else -v for v, bit in zip((a, b, c), bits)]
            total = sum(bits)
            assert solver.solve(inputs)
            assert solver.value(s) == bool(total & 1), bits
            assert solver.value(co) == (total >= 2), bits
            # No other output pair is consistent with these inputs.
            assert not solver.solve(inputs + [-s if total & 1 else s])
            assert not solver.solve(inputs + [-co if total >= 2 else co])

    def test_propagation_complete(self):
        """Unit propagation derives everything the adder relation forces.

        For each of the 3^5 partial assignments over ``(a, b, c, s, co)``
        the forced literals are computed by enumerating the relation; unit
        propagation on the clauses alone must derive each of them, and
        must hit a conflict exactly when no extension exists.
        """
        clauses, lits = self._adder()
        relation = [
            bits
            for bits in itertools.product((False, True), repeat=5)
            if bits[3] == bool(sum(bits[:3]) & 1)
            and bits[4] == (sum(bits[:3]) >= 2)
        ]
        for partial in itertools.product((None, False, True), repeat=5):
            assigned = {
                v if val else -v
                for v, val in zip(lits, partial)
                if val is not None
            }
            extensions = [
                bits
                for bits in relation
                if all(p is None or p == q for p, q in zip(partial, bits))
            ]
            closed = _unit_propagate(clauses, assigned)
            if not extensions:
                assert closed is None, partial
                continue
            assert closed is not None, partial
            for i, v in enumerate(lits):
                values = {bits[i] for bits in extensions}
                if values == {True}:
                    assert v in closed, (partial, i)
                elif values == {False}:
                    assert -v in closed, (partial, i)

    def test_folded_inputs(self):
        """Constant inputs fold to a half adder; repeated inputs stay exact."""
        solver = Solver()
        encoder = IntEncoder(solver)
        t = encoder._true()
        x, y = solver.new_vars(2)
        pool = (t, -t, x, -x, y)
        for a, b, c in itertools.product(pool, repeat=3):
            s, co = encoder._full_adder(a, b, c)
            for vx, vy in itertools.product((False, True), repeat=2):
                env = {t: True, x: vx, y: vy}
                total = sum(env[abs(v)] == (v > 0) for v in (a, b, c))
                assert solver.solve([x if vx else -x, y if vy else -y])
                assert solver.value(s) == bool(total & 1), (a, b, c, env)
                assert solver.value(co) == (total >= 2), (a, b, c, env)
