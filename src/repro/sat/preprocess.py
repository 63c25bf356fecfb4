"""SatELite-style CNF preprocessing (Eén & Biere 2005).

Three equisatisfiability-preserving passes over a clause set, iterated to
a fixpoint and bounded so the pure-Python implementation stays cheap
relative to search:

- **backward subsumption** — a clause deletes every superset clause;
- **self-subsuming resolution** — ``(A ∨ l)`` strengthens ``(A' ∨ ¬l)``
  to ``A'`` whenever ``A ⊆ A'``;
- **bounded variable elimination (BVE)** — a variable whose resolvent
  set is no larger than the clauses it replaces is resolved away
  (pure literals are the zero-resolvent special case).

Variable elimination changes the model set, so every eliminated variable
records the clauses it appeared in; :func:`reconstruct_model` (and the
solver hook :meth:`~repro.sat.solver.Solver.install_elimination`) re-value
eliminated variables from any model of the preprocessed formula, in
reverse elimination order.

**Frozen variables are never eliminated.** Any variable that can appear
in a later ``add_clause``, in solve assumptions (guards, activation
literals), or that the caller needs to read out of models verbatim
(objective/selector variables) must be frozen — the session layer
(:mod:`repro.core.session`) freezes everything named or cached by its
builder and encoder. Eliminated variables are rejected by the solver in
new clauses and assumptions, so a missing freeze fails loudly rather
than silently corrupting answers. Unsat cores stay valid because cores
only name assumption literals, which are always frozen.

Entry points: :func:`preprocess_clauses` for plain clause lists, and
:func:`preprocess_solver` to rebuild a :class:`~repro.sat.Solver` with
the preprocessed database in place.
"""

from __future__ import annotations

import operator
from collections import defaultdict
from dataclasses import dataclass, field
from collections.abc import Iterable, Sequence

from repro.errors import SolverStateError
from repro.sat.solver import Solver

__all__ = [
    "PreprocessResult",
    "PreprocessStats",
    "preprocess_clauses",
    "preprocess_solver",
    "reconstruct_model",
]


@dataclass
class PreprocessStats:
    """Counters for one :func:`preprocess_clauses` run."""

    subsumed: int = 0
    strengthened: int = 0
    eliminated_vars: int = 0
    resolvents_added: int = 0
    units_derived: int = 0
    rounds: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "subsumed": self.subsumed,
            "strengthened": self.strengthened,
            "eliminated_vars": self.eliminated_vars,
            "resolvents_added": self.resolvents_added,
            "units_derived": self.units_derived,
            "rounds": self.rounds,
        }


@dataclass
class PreprocessResult:
    """Outcome of :func:`preprocess_clauses`.

    ``units`` are root-level forced literals, ``clauses`` the surviving
    non-unit clauses, and ``eliminated`` the reconstruction stack of
    ``(var, saved_clauses)`` pairs in elimination order.
    """

    num_vars: int
    units: list[int]
    clauses: list[list[int]]
    eliminated: list[tuple[int, list[list[int]]]]
    contradiction: bool = False
    stats: PreprocessStats = field(default_factory=PreprocessStats)


class _Worker:
    """Occurrence-list state machine for one preprocessing run.

    With a *proof* attached (DRAT :class:`~repro.sat.drat.Proof`), every
    clause mutation is mirrored as proof events: subsumed and satisfied
    clauses get delete lines, strengthened/shrunk clauses get the new
    clause added before the original is deleted (both are RUP steps).
    Bounded variable elimination is **skipped entirely** under a proof —
    BVE is not expressible as RUP steps.
    """

    def __init__(
        self,
        num_vars: int,
        clauses: Iterable[Iterable[int]],
        frozen: frozenset[int],
        elim_occ_limit: int,
        elim_growth: int,
        elim_clause_limit: int,
        proof=None,
    ):
        self.num_vars = num_vars
        self.frozen = frozen
        self.elim_occ_limit = elim_occ_limit
        self.elim_growth = elim_growth
        self.elim_clause_limit = elim_clause_limit
        self.proof = proof
        self.stats = PreprocessStats()
        self.assign: dict[int, bool] = {}
        self.unit_queue: list[int] = []
        self.contradiction = False
        self.eliminated: list[tuple[int, list[list[int]]]] = []
        self.elim_set: set[int] = set()
        #: Clause storage; a slot is None once its clause is removed.
        self.clauses: list[list[int] | None] = []
        #: Literal signature of each clause slot (see :func:`_signature`).
        self.sigs: list[int] = []
        self.occ: dict[int, set[int]] = defaultdict(set)
        self.dirty: list[int] = []  # clause indices awaiting backward pass
        seen: set[frozenset[int]] = set()
        for raw in clauses:
            lits = self._normalize(raw)
            if lits is None:
                continue  # tautology
            if not lits:
                self.contradiction = True
                return
            if len(lits) == 1:
                self.unit_queue.append(lits[0])
                continue
            key = frozenset(lits)
            if key in seen:
                continue
            seen.add(key)
            self._attach(lits)

    @staticmethod
    def _normalize(raw: Iterable[int]) -> list[int] | None:
        """Drop repeated literals (first occurrences kept, in order);
        ``None`` for a tautology."""
        out = list(dict.fromkeys(raw))
        if not set(out).isdisjoint(map(operator.neg, out)):
            return None
        return out

    def _attach(self, lits: list[int]) -> int:
        idx = len(self.clauses)
        self.clauses.append(lits)
        self.sigs.append(_signature(lits))
        occ = self.occ
        for lit in lits:
            occ[lit].add(idx)
        self.dirty.append(idx)
        return idx

    def _detach(self, idx: int) -> None:
        lits = self.clauses[idx]
        if lits is None:
            return
        for lit in lits:
            self.occ[lit].discard(idx)
        self.clauses[idx] = None

    # -- unit propagation ----------------------------------------------------

    def propagate(self) -> None:
        """Exhaustively apply the queued unit literals."""
        while self.unit_queue and not self.contradiction:
            lit = self.unit_queue.pop()
            var = abs(lit)
            value = lit > 0
            prev = self.assign.get(var)
            if prev is not None:
                if prev != value:
                    self.contradiction = True
                continue
            self.assign[var] = value
            # Clauses satisfied by lit disappear; clauses with -lit shrink.
            for idx in list(self.occ[lit]):
                old = self.clauses[idx]
                if old is not None and self.proof is not None:
                    self.proof.delete(old)
                self._detach(idx)
            for idx in list(self.occ[-lit]):
                lits = self.clauses[idx]
                if lits is None:
                    continue
                old = list(lits) if self.proof is not None else None
                lits.remove(-lit)
                self.occ[-lit].discard(idx)
                self.sigs[idx] = _signature(lits)
                if self.proof is not None:
                    self.proof.add(list(lits))
                    self.proof.delete(old)
                if len(lits) == 1:
                    self._detach(idx)
                    self.unit_queue.append(lits[0])
                    self.stats.units_derived += 1
                else:
                    self.dirty.append(idx)

    # -- subsumption & self-subsuming resolution -----------------------------

    def backward_pass(self) -> bool:
        """Use each dirty clause to subsume/strengthen the rest.

        A candidate is only compared literal by literal once the 64-bit
        signatures say it can contain the other clause. Self-subsumption
        on literal ``l`` scans the shorter of ``occ[¬l]`` and the
        occurrence list of the rarest literal of ``C ∖ {l}``, but always
        applies its matches in ``occ[¬l]`` order, so the result does not
        depend on which list was scanned.
        """
        changed = False
        occ = self.occ
        clauses = self.clauses
        sigs = self.sigs
        proof = self.proof
        stats = self.stats

        def occurrences(lit: int) -> int:
            return len(occ[lit])

        while self.dirty and not self.contradiction:
            idx = self.dirty.pop()
            lits = clauses[idx]
            if lits is None:
                continue
            size = len(lits)
            cset = frozenset(lits)
            csig = sigs[idx]
            # Subsumption: candidates must contain C's rarest literal.
            rarest = min(lits, key=occurrences)
            for other in [
                o for o in occ[rarest]
                if not csig & ~sigs[o] and o != idx
            ]:
                dlits = clauses[other]
                if len(dlits) >= size and cset <= set(dlits):
                    if proof is not None:
                        proof.delete(dlits)
                    self._detach(other)
                    stats.subsumed += 1
                    changed = True
            # Self-subsuming resolution: C = (A ∨ l) strengthens any
            # D ⊇ (A ∨ ¬l) by removing ¬l from D. Occurrence counts may
            # have dropped since ``rarest`` was picked; that only makes
            # the scanned list longer than needed, never wrong.
            for lit in lits:
                occ_neg = occ[-lit]
                if not occ_neg:
                    continue
                if lit == rarest:
                    scan = occ[min(
                        (x for x in lits if x != lit), key=occurrences
                    )]
                else:
                    scan = occ[rarest]
                if len(scan) >= len(occ_neg):
                    scan = occ_neg
                # D contains ¬l, and not l (no tautologies), so A ⊆ D
                # iff D shares size - 1 literals with C.
                rsig = csig & ~(1 << (lit & 63)) | 1 << (-lit & 63)
                matches = [
                    o for o in scan
                    if not rsig & ~sigs[o]
                    and o in occ_neg
                    and o != idx
                    and len(clauses[o]) >= size
                    and len(cset.intersection(clauses[o])) == size - 1
                ]
                if len(matches) > 1 and scan is not occ_neg:
                    found = set(matches)
                    matches = [o for o in occ_neg if o in found]
                for other in matches:
                    dlits = clauses[other]
                    old = list(dlits) if proof is not None else None
                    dlits.remove(-lit)
                    occ_neg.discard(other)
                    sigs[other] = _signature(dlits)
                    if proof is not None:
                        proof.add(list(dlits))
                        proof.delete(old)
                    stats.strengthened += 1
                    changed = True
                    if len(dlits) == 1:
                        self._detach(other)
                        self.unit_queue.append(dlits[0])
                        stats.units_derived += 1
                    else:
                        self.dirty.append(other)
            if self.unit_queue:
                self.propagate()
        return changed

    # -- bounded variable elimination ----------------------------------------

    def eliminate_pass(self) -> bool:
        """Resolve away cheap unfrozen variables (one sweep)."""
        changed = False
        for var in range(1, self.num_vars + 1):
            if self.contradiction:
                break
            if (
                var in self.frozen
                or var in self.elim_set
                or var in self.assign
            ):
                continue
            if self._try_eliminate(var):
                changed = True
                self.propagate()
        return changed

    def _try_eliminate(self, var: int) -> bool:
        pos = [i for i in self.occ[var] if self.clauses[i] is not None]
        neg = [i for i in self.occ[-var] if self.clauses[i] is not None]
        total = len(pos) + len(neg)
        if total == 0:
            return False  # never constrained; nothing to record
        if total > self.elim_occ_limit:
            return False
        resolvents: list[list[int]] = []
        seen: set[frozenset[int]] = set()
        for pi in pos:
            plits = self.clauses[pi]
            prest = [l for l in plits if l != var]
            for ni in neg:
                nlits = self.clauses[ni]
                merged = self._resolve(prest, nlits, var)
                if merged is None:
                    continue  # tautological resolvent
                if len(merged) > self.elim_clause_limit:
                    return False  # resolvent too wide: abort this var
                key = frozenset(merged)
                if key in seen:
                    continue
                seen.add(key)
                resolvents.append(merged)
                if len(resolvents) > total + self.elim_growth:
                    return False  # clause count would grow: abort
        saved = [list(self.clauses[i]) for i in pos]
        saved += [list(self.clauses[i]) for i in neg]
        for i in pos + neg:
            self._detach(i)
        self.eliminated.append((var, saved))
        self.elim_set.add(var)
        self.stats.eliminated_vars += 1
        for merged in resolvents:
            if len(merged) == 1:
                self.unit_queue.append(merged[0])
                self.stats.units_derived += 1
            else:
                self._attach(merged)
            self.stats.resolvents_added += 1
        return True

    @staticmethod
    def _resolve(
        prest: list[int], nlits: list[int], var: int
    ) -> list[int] | None:
        out = list(prest)
        present = set(prest)
        for lit in nlits:
            if lit == -var:
                continue
            if -lit in present:
                return None
            if lit not in present:
                present.add(lit)
                out.append(lit)
        return out

    # -- driver --------------------------------------------------------------

    def run(self, max_rounds: int) -> PreprocessResult:
        if not self.contradiction:
            self.propagate()
        for _ in range(max_rounds):
            if self.contradiction:
                break
            self.stats.rounds += 1
            changed = self.backward_pass()
            if self.proof is None:
                # BVE is not a RUP step; under proof logging only the
                # subsumption/strengthening passes run.
                changed = self.eliminate_pass() or changed
                changed = self.backward_pass() or changed
            if not changed:
                break
        units = [
            (v if value else -v) for v, value in sorted(self.assign.items())
        ]
        surviving = [list(c) for c in self.clauses if c is not None]
        return PreprocessResult(
            num_vars=self.num_vars,
            units=[] if self.contradiction else units,
            clauses=[] if self.contradiction else surviving,
            eliminated=self.eliminated,
            contradiction=self.contradiction,
            stats=self.stats,
        )


def _signature(lits: Iterable[int]) -> int:
    """64-bit literal signature: bit ``lit mod 64`` set for each literal.

    ``sig(C) & ~sig(D) != 0`` proves ``C ⊄ D`` without comparing
    literals (SatELite's subsumption pre-filter).
    """
    sig = 0
    for lit in lits:
        sig |= 1 << (lit & 63)
    return sig


def preprocess_clauses(
    num_vars: int,
    clauses: Iterable[Iterable[int]],
    frozen: Iterable[int] = (),
    *,
    elim_occ_limit: int = 16,
    elim_growth: int = 0,
    elim_clause_limit: int = 16,
    max_rounds: int = 3,
    proof=None,
) -> PreprocessResult:
    """Preprocess a clause set; *frozen* variables are never eliminated.

    Limits: a variable is only eliminated when it occurs in at most
    *elim_occ_limit* clauses, no resolvent exceeds *elim_clause_limit*
    literals, and the clause count grows by at most *elim_growth*
    (``elim_occ_limit=0`` disables elimination altogether).

    *proof*, when given, is a DRAT :class:`~repro.sat.drat.Proof` that
    receives add/delete lines for every transformation; variable
    elimination is skipped in that case (it is not RUP).
    """
    worker = _Worker(
        num_vars,
        clauses,
        frozenset(abs(v) for v in frozen),
        elim_occ_limit,
        elim_growth,
        elim_clause_limit,
        proof=proof,
    )
    return worker.run(max_rounds)


def reconstruct_model(
    model: dict[int, bool],
    eliminated: Sequence[tuple[int, Sequence[Sequence[int]]]],
) -> dict[int, bool]:
    """Extend *model* over the eliminated variables (returns a new dict).

    Walks the elimination stack backwards; each variable is set to
    satisfy whichever of its saved clauses is not already satisfied by
    the rest of the model (BVE guarantees at most one polarity is
    forcing, because every resolvent was added back).
    """
    out = dict(model)
    for var, saved in reversed(eliminated):
        value = False
        for clause in saved:
            through: int | None = None
            satisfied = False
            for lit in clause:
                v = lit if lit > 0 else -lit
                if v == var:
                    through = lit
                elif (lit > 0) == out.get(v, False):
                    satisfied = True
                    break
            if not satisfied and through is not None:
                value = through > 0
                break
        out[var] = value
    return out


def preprocess_solver(
    solver: Solver,
    frozen: Iterable[int] = (),
    *,
    elim_occ_limit: int = 16,
    elim_growth: int = 0,
    elim_clause_limit: int = 16,
    max_rounds: int = 3,
) -> PreprocessStats:
    """Preprocess *solver*'s clause database in place.

    Must be called at decision level 0. The solver's problem clauses and
    root-level units are rewritten to the preprocessed form; learnt
    clauses are discarded (they are implied and may mention eliminated
    variables). Eliminated variables are registered through
    :meth:`~repro.sat.solver.Solver.install_elimination`, so later
    models are reconstructed transparently and any attempt to mention an
    eliminated variable raises.

    Not compatible with DRAT proof logging: variable elimination steps
    are not RUP, so preprocessing a proof-logging solver raises.
    """
    if solver.proof is not None:
        raise SolverStateError(
            "preprocessing is not supported with DRAT proof logging "
            "(variable elimination is not a RUP step)"
        )
    if solver._trail_lim:
        raise SolverStateError("preprocess requires decision level 0")
    if solver._unsat:
        return PreprocessStats()
    units = list(solver._trail)
    clauses = solver.clause_literals()
    result = preprocess_clauses(
        solver.num_vars,
        clauses + [[u] for u in units],
        frozen,
        elim_occ_limit=elim_occ_limit,
        elim_growth=elim_growth,
        elim_clause_limit=elim_clause_limit,
        max_rounds=max_rounds,
    )
    # Rebuild the database: a fresh arena with the preprocessed units and
    # clauses (learnt clauses are discarded — they are implied and may
    # mention eliminated variables). The solve_step restart cursor is
    # reset: the old resume state referred to a database that no longer
    # exists, so a resumed interleaved search starts a fresh Luby column
    # instead of replaying a stale one.
    if result.contradiction:
        solver._replace_database([], [])
        solver._unsat = True
        solver._step_attempt = 0
        return result.stats
    solver.install_elimination(result.eliminated)
    solver._replace_database(result.units, result.clauses)
    solver._step_attempt = 0
    return result.stats
