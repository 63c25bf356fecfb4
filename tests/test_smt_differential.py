"""Differential fuzzing of the bounded-integer SMT layer.

Random systems of linear constraints over small-domain ``IntVar``s are
bit-blasted through :class:`~repro.smt.IntEncoder` and cross-checked
against exhaustive enumeration of the integer domains. Every SAT answer
is decoded back to integer values and re-checked constraint by
constraint, so the test catches both verdict bugs and model-decoding
bugs in the adder/comparator circuits.

Domains stay tiny (2-3 variables, width <= 5) so the enumeration oracle
is exact and fast; 200 seeded instances cover the coefficient-sign,
offset-sign, and operator space. A second family of 100 instances uses
3-4 variables with coefficients up to 60, so each sum runs through
several layers of live carries in the full adders.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.sat import Solver
from repro.smt import IntEncoder, IntVar, LinExpr

_SEEDS = list(range(200))


def _random_system(rng: random.Random):
    """2-3 bounded IntVars and 1-3 random linear constraints over them."""
    variables = []
    for i in range(rng.randint(2, 3)):
        lo = rng.randint(-3, 3)
        variables.append(IntVar(f"x{i}", lo, lo + rng.randint(1, 4)))
    constraints = []
    for _ in range(rng.randint(1, 3)):
        expr = LinExpr(const=rng.randint(-5, 5))
        for var in rng.sample(variables, rng.randint(1, len(variables))):
            expr = expr + var * rng.choice([-3, -2, -1, 1, 2, 3])
        op = rng.choice(["<=", ">=", "=="])
        if op == "<=":
            constraints.append(expr <= 0)
        elif op == ">=":
            constraints.append(expr >= 0)
        else:
            constraints.append(expr.eq(0))
    return variables, constraints


def _wide_system(rng: random.Random):
    """3-4 bounded IntVars and 1-3 constraints with coefficients up to 60."""
    variables = []
    for i in range(rng.randint(3, 4)):
        lo = rng.randint(-4, 4)
        variables.append(IntVar(f"w{i}", lo, lo + rng.randint(1, 5)))
    # Constants sit near a random witness point, so about half the
    # systems are satisfiable and their decoded models get checked.
    witness = {v: rng.randint(v.lo, v.hi) for v in variables}
    constraints = []
    for _ in range(rng.randint(1, 3)):
        expr = LinExpr()
        for var in rng.sample(variables, rng.randint(2, len(variables))):
            expr = expr + var * rng.choice([-1, 1]) * rng.randint(1, 60)
        op = rng.choice(["<=", ">=", "=="])
        slack = 0 if op == "==" and rng.random() < 0.5 else rng.randint(-40, 40)
        expr = expr + (slack - expr.evaluate(witness))
        if op == "<=":
            constraints.append(expr <= 0)
        elif op == ">=":
            constraints.append(expr >= 0)
        else:
            constraints.append(expr.eq(0))
    return variables, constraints


def _brute_force(variables, constraints) -> bool:
    for point in itertools.product(
        *(range(v.lo, v.hi + 1) for v in variables)
    ):
        values = dict(zip(variables, point))
        if all(c.holds(values) for c in constraints):
            return True
    return False


def _check_against_brute_force(seed, variables, constraints):
    solver = Solver()
    encoder = IntEncoder(solver)
    for constraint in constraints:
        encoder.assert_constraint(constraint)
    got = solver.solve()

    expected = _brute_force(variables, constraints)
    assert got == expected, (
        f"seed={seed} vars={variables} constraints={constraints}"
    )
    if got:
        model = solver.model()
        values = {v: encoder.value_of(v, model) for v in variables}
        for var, value in values.items():
            assert var.lo <= value <= var.hi, f"{var} decoded out of range"
        for constraint in constraints:
            assert constraint.holds(values), (
                f"decoded model violates {constraint} (values={values})"
            )


@pytest.mark.parametrize("seed", _SEEDS)
def test_smt_differential(seed):
    rng = random.Random(f"smt-differential-{seed}")
    _check_against_brute_force(seed, *_random_system(rng))


@pytest.mark.parametrize("seed", range(100))
def test_smt_differential_wide_coefficients(seed):
    rng = random.Random(f"smt-differential-wide-{seed}")
    _check_against_brute_force(seed, *_wide_system(rng))


def test_case_count_meets_floor():
    assert len(_SEEDS) >= 200


@pytest.mark.parametrize("seed", range(20))
def test_reified_constraint_tracks_truth(seed):
    """The reification literal must equal the constraint's truth value.

    Assuming the literal forces a model where the constraint holds;
    assuming its negation forces a violating model (when one exists).
    """
    rng = random.Random(f"smt-reify-{seed}")
    variables, constraints = _random_system(rng)
    constraint = constraints[0]

    solver = Solver()
    encoder = IntEncoder(solver)
    lit = encoder.reify(constraint)

    if solver.solve([lit]):
        values = {v: encoder.value_of(v, solver.model()) for v in variables}
        assert constraint.holds(values)
    if solver.solve([-lit]):
        values = {v: encoder.value_of(v, solver.model()) for v in variables}
        assert not constraint.holds(values)
    # At least one polarity must be realizable over finite domains.
    assert solver.solve([lit]) or solver.solve([-lit])
