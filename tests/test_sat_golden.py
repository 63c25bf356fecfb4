"""Golden trajectories for the solver and preprocessor hot paths.

The CDCL kernel (propagation, conflict analysis, backtracking, watcher
rebuilds, vivification, subsumption) is tuned for CPython speed, and
every such change must leave the search *bit-identical*: the same
verdicts, counters, learnt clauses and watch-list order. These rows were
recorded before the kernel was last rewritten and are never re-recorded
to make a speedup pass.

- A bit-blasted ``IntEncoder`` sum probed with ``<=`` bounds, with a
  short ``inprocess_interval`` and a small learnt-clause limit, so
  vivification, subsumption, ``_reduce_db`` and arena compaction each
  run many times. Each solve pins its counters and a digest of the
  solver's clause database, trail and watcher lists.
- :func:`~repro.sat.preprocess.preprocess_clauses` outputs on seeded
  random and bit-blasted clause sets, with bounded variable elimination
  and in inprocessing mode (``elim_occ_limit=0, max_rounds=2``).
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.sat import Solver
from repro.sat.preprocess import preprocess_clauses
from repro.smt.encoder import IntEncoder
from repro.smt.terms import IntVar, LinExpr


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _solver_state(s: Solver) -> str:
    return _digest((
        list(s._arena.data), s._clauses, s._learnts, s._trail,
        s._watch, s._bwatch,
    ))


def _weighted_sum(seed: int, nvars: int, encoder: IntEncoder):
    """Assert ``sum(w_i * x_i) == 12 * sum(w)``; return the objective."""
    rng = random.Random(seed)
    xs = [IntVar(f"x{i}", 0, 31) for i in range(nvars)]
    weights = [rng.randint(5, 40) for _ in xs]
    costs = [rng.randint(5, 40) for _ in xs]
    encoder.assert_constraint(
        LinExpr(dict(zip(xs, weights))).eq(sum(weights) * 12)
    )
    return xs, LinExpr(dict(zip(xs, costs)))


#: ``(bound, verdict, conflicts, decisions, propagations, inprocessings,
#: vivified_literals, inprocess_subsumed, inprocess_strengthened,
#: deleted_clauses, arena_compactions, minimized_literals, state)`` after
#: each probe ``cost <= bound`` on one incremental solver.
_STRUCTURED_GOLDEN = [
    (900, True, 9, 30, 643, 0, 0, 0, 0, 0, 0, 15, "ab82523c5c08ca84"),
    (600, True, 1764, 3029, 274959, 7, 142, 21, 35, 1587, 21, 3196,
     "da9a325d6af9980d"),
    (500, False, 2455, 3974, 393273, 10, 145, 21, 35, 2196, 28, 4437,
     "f5a6d4fabec8eb0c"),
]


def test_bit_blasted_probe_trajectory_is_unchanged():
    s = Solver(inprocess_interval=200)
    s._max_learnts = 100  # force frequent _reduce_db + compaction
    encoder = IntEncoder(s)
    _, cost = _weighted_sum(1, 6, encoder)
    rows = []
    for bound, *_ in _STRUCTURED_GOLDEN:
        verdict = s.solve([encoder.reify(cost <= bound)])
        st = s.stats
        rows.append((
            bound, verdict, st.conflicts, st.decisions, st.propagations,
            st.inprocessings, st.vivified_literals, st.inprocess_subsumed,
            st.inprocess_strengthened, st.deleted_clauses,
            st.arena_compactions, st.minimized_literals, _solver_state(s),
        ))
    assert rows == _STRUCTURED_GOLDEN


class _Collector:
    """Clause sink for :class:`IntEncoder` (no solver behind it)."""

    def __init__(self) -> None:
        self.num_vars = 0
        self.clauses: list[list[int]] = []

    def new_var(self) -> int:
        self.num_vars += 1
        return self.num_vars

    def add_clause(self, lits) -> None:
        self.clauses.append(list(lits))


def _random_instance(seed: int):
    rng = random.Random(seed)
    n = 60
    clauses = []
    for _ in range(200):
        k = rng.randint(2, 5)
        clauses.append([
            v if rng.random() < 0.5 else -v
            for v in rng.sample(range(1, n + 1), k)
        ])
    return n, clauses, list(range(1, n + 1, 5))


def _encoded_instance(seed: int):
    sink = _Collector()
    encoder = IntEncoder(sink)
    xs, cost = _weighted_sum(seed, 5, encoder)
    sink.add_clause([encoder.reify(cost <= 600)])
    frozen = [b for x in xs for b in encoder.bits_for(x)]
    return sink.num_vars, sink.clauses, frozen


_INSTANCES = {"random": _random_instance, "encoded": _encoded_instance}
_MODES = {"bve": {}, "inprocess": {"elim_occ_limit": 0, "max_rounds": 2}}


def _stats(subsumed, strengthened, eliminated, resolvents, units, rounds):
    return {
        "subsumed": subsumed, "strengthened": strengthened,
        "eliminated_vars": eliminated, "resolvents_added": resolvents,
        "units_derived": units, "rounds": rounds,
    }


#: ``(instance, seed, mode, contradiction, #units, #clauses,
#: #eliminated, stats, digest of (units, clauses, eliminated))``.
_PREPROCESS_GOLDEN = [
    ("random", 0, "bve", False, 0, 189, 1, _stats(5, 15, 1, 0, 0, 2),
     "c26daeaaeef0c690"),
    ("random", 0, "inprocess", False, 0, 194, 0, _stats(5, 15, 0, 0, 0, 2),
     "5bae0e9ae670479a"),
    ("random", 1, "bve", False, 0, 183, 4, _stats(8, 16, 4, 11, 0, 2),
     "be82949c78eb6cf3"),
    ("random", 1, "inprocess", False, 0, 192, 0, _stats(8, 16, 0, 0, 0, 2),
     "da23ca3934d1d581"),
    ("encoded", 0, "bve", False, 53, 2804, 25,
     _stats(162, 146, 25, 195, 52, 3), "27b0882d708a4feb"),
    ("encoded", 0, "inprocess", False, 53, 2858, 0,
     _stats(161, 146, 0, 0, 52, 2), "872a19e3935037ce"),
    ("encoded", 1, "bve", False, 51, 2147, 26,
     _stats(100, 78, 26, 177, 49, 3), "c2128034c1fcfb8c"),
    ("encoded", 1, "inprocess", False, 51, 2198, 0,
     _stats(98, 78, 0, 0, 49, 2), "6e1c7616876c7ad3"),
]


@pytest.mark.parametrize(
    "golden", _PREPROCESS_GOLDEN, ids=lambda g: f"{g[0]}-{g[1]}-{g[2]}"
)
def test_preprocess_output_is_unchanged(golden):
    name, seed, mode = golden[:3]
    n, clauses, frozen = _INSTANCES[name](seed)
    r = preprocess_clauses(n, clauses, frozen, **_MODES[mode])
    assert (
        name, seed, mode, r.contradiction, len(r.units), len(r.clauses),
        len(r.eliminated), r.stats.as_dict(),
        _digest((r.units, r.clauses, r.eliminated)),
    ) == golden
