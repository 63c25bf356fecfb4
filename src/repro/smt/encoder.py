"""Bit-blasting encoder: bounded integer constraints to CNF.

Each :class:`~repro.smt.terms.IntVar` with domain ``[lo, hi]`` becomes an
unsigned bit vector of ``ceil(log2(hi - lo + 1))`` fresh solver variables
holding ``value - lo``, plus a range constraint. Linear constraints are
compiled by moving negative-coefficient terms across the inequality so
both sides are sums of non-negative terms, building ripple-carry adder
circuits for each side, and asserting (or reifying) a lexicographic
unsigned comparator between them.

All comparisons are fully reified, so they can be nested inside Boolean
structure (guarded resource constraints).
"""

from __future__ import annotations

import itertools

from repro.errors import EncodingError
from repro.smt.intervals import trivially
from repro.smt.terms import IntVar, LinConstraint


class IntEncoder:
    """Compiles integer variables and linear constraints into a solver.

    Parameters
    ----------
    solver:
        Anything with ``new_var()`` and ``add_clause()``
        (:class:`repro.sat.Solver` or a clause collector).
    """

    def __init__(self, solver):
        self.solver = solver
        self._bits: dict[IntVar, list[int]] = {}
        self._true_lit: int | None = None
        self._and_cache: dict[tuple[int, int], int] = {}
        self._xor_cache: dict[tuple[int, int], int] = {}
        # Adder-tree results for repeated linear sums (bound bisection
        # re-encodes the same expression with different constants).
        self._sum_cache: dict[tuple[tuple[str, int], ...], list[int]] = {}

    # -- primitive gates ------------------------------------------------------

    def _true(self) -> int:
        if self._true_lit is None:
            self._true_lit = self.solver.new_var()
            self.solver.add_clause([self._true_lit])
        return self._true_lit

    def _false(self) -> int:
        return -self._true()

    def _and2(self, a: int, b: int) -> int:
        """Reified a AND b (with constant folding and caching)."""
        t = self._true()
        if a == t:
            return b
        if b == t:
            return a
        if a == -t or b == -t:
            return -t
        if a == b:
            return a
        if a == -b:
            return -t
        key = (min(a, b), max(a, b))
        cached = self._and_cache.get(key)
        if cached is not None:
            return cached
        out = self.solver.new_var()
        self.solver.add_clause([-out, a])
        self.solver.add_clause([-out, b])
        self.solver.add_clause([out, -a, -b])
        self._and_cache[key] = out
        return out

    def _or2(self, a: int, b: int) -> int:
        return -self._and2(-a, -b)

    def _xor2(self, a: int, b: int) -> int:
        """Reified a XOR b."""
        t = self._true()
        if a == t:
            return -b
        if b == t:
            return -a
        if a == -t:
            return b
        if b == -t:
            return a
        if a == b:
            return -t
        if a == -b:
            return t
        key = (min(a, b), max(a, b))
        cached = self._xor_cache.get(key)
        if cached is not None:
            return cached
        out = self.solver.new_var()
        self.solver.add_clause([-out, a, b])
        self.solver.add_clause([-out, -a, -b])
        self.solver.add_clause([out, -a, b])
        self.solver.add_clause([out, a, -b])
        self._xor_cache[key] = out
        return out

    def _iff2(self, a: int, b: int) -> int:
        return -self._xor2(a, b)

    def _full_adder(self, a: int, b: int, c: int) -> tuple[int, int]:
        """``(sum, carry)`` of the one-bit addition ``a + b + c``.

        The sum is a direct 3-input XOR (8 clauses) and the carry a
        majority (6 clauses). Six redundant clauses link the two outputs
        (``carry & sum -> a, b, c`` and ``~carry & ~sum -> ~a, ~b, ~c``),
        after which unit propagation derives every value the adder
        relation forces from any partial assignment (Een & Sorensson,
        JSAT 2006). A constant input folds the adder to a half adder.
        """
        t = self._true()
        lits = (a, b, c)
        for i, x in enumerate(lits):
            y, z = lits[:i] + lits[i + 1:]
            if x == -t:  # 0 + y + z
                return self._xor2(y, z), self._and2(y, z)
            if x == t:  # 1 + y + z
                return -self._xor2(y, z), self._or2(y, z)
        s = self.solver.new_var()
        co = self.solver.new_var()
        add = self.solver.add_clause
        for sa, sb, sc in itertools.product((1, -1), repeat=3):
            # An even number of negated inputs means odd parity: s holds.
            odd = sa * sb * sc > 0
            add([-sa * a, -sb * b, -sc * c, s if odd else -s])
        for x, y, z in ((a, b, c), (a, c, b), (b, c, a)):
            add([-x, -y, co])
            add([x, y, -co])
            add([-co, -s, z])
            add([co, s, -z])
        return s, co

    # -- bit vectors -----------------------------------------------------------

    def const_bits(self, value: int) -> list[int]:
        """Bit vector (LSB first) for a non-negative constant."""
        if value < 0:
            raise EncodingError(f"const_bits needs a non-negative value, got {value}")
        t = self._true()
        bits = []
        while value:
            bits.append(t if value & 1 else -t)
            value >>= 1
        return bits

    def bind_boolean(self, var: IntVar, lit: int) -> None:
        """Bind a 0/1 IntVar to an existing Boolean literal.

        Afterwards the variable's value equals the literal's truth value,
        letting linear constraints mix selection booleans ("system S is
        deployed") with genuine counts ("units of switch model H").
        """
        if (var.lo, var.hi) != (0, 1):
            raise EncodingError(
                f"bind_boolean needs domain [0, 1], got [{var.lo}, {var.hi}] "
                f"for {var.name}"
            )
        existing = self._bits.get(var)
        if existing is not None:
            if existing != [lit]:
                raise EncodingError(f"{var.name} already encoded differently")
            return
        self._bits[var] = [lit]

    def bits_for(self, var: IntVar) -> list[int]:
        """Allocate (or fetch) the offset-binary bit vector for *var*."""
        bits = self._bits.get(var)
        if bits is not None:
            return bits
        span = var.hi - var.lo
        width = max(1, span.bit_length())
        bits = [self.solver.new_var() for _ in range(width)]
        self._bits[var] = bits
        # Range constraint: value - lo <= span.
        le = self._leq_bits(bits, self.const_bits(span))
        self.solver.add_clause([le])
        return bits

    def _add_bits(self, a: list[int], b: list[int]) -> list[int]:
        """Ripple-carry addition of two unsigned bit vectors."""
        width = max(len(a), len(b))
        f = self._false()
        a = a + [f] * (width - len(a))
        b = b + [f] * (width - len(b))
        out: list[int] = []
        carry = f
        for ai, bi in zip(a, b):
            bit, carry = self._full_adder(ai, bi, carry)
            out.append(bit)
        out.append(carry)
        return out

    def _mul_const(self, bits: list[int], factor: int) -> list[int]:
        """Multiply a bit vector by a non-negative constant (shift-add)."""
        if factor < 0:
            raise EncodingError("negative factors must be normalized away first")
        if factor == 0:
            return []
        f = self._false()
        result: list[int] = []
        shift = 0
        while factor:
            if factor & 1:
                shifted = [f] * shift + bits
                result = self._add_bits(result, shifted) if result else shifted
            factor >>= 1
            shift += 1
        return result

    def _sum_bits(self, vectors: list[list[int]]) -> list[int]:
        """Balanced-tree sum of many bit vectors."""
        if not vectors:
            return []
        while len(vectors) > 1:
            nxt = []
            for i in range(0, len(vectors) - 1, 2):
                nxt.append(self._add_bits(vectors[i], vectors[i + 1]))
            if len(vectors) % 2:
                nxt.append(vectors[-1])
            vectors = nxt
        return vectors[0]

    def _leq_bits(self, a: list[int], b: list[int]) -> int:
        """Reified unsigned comparison ``a <= b`` (LSB-first vectors)."""
        width = max(len(a), len(b), 1)
        f = self._false()
        a = a + [f] * (width - len(a))
        b = b + [f] * (width - len(b))
        result = self._true()  # empty prefixes are equal
        for ai, bi in zip(a, b):  # LSB to MSB; the higher bit dominates
            lt = self._and2(-ai, bi)
            eq = self._iff2(ai, bi)
            result = self._or2(lt, self._and2(eq, result))
        return result

    def _eq_bits(self, a: list[int], b: list[int]) -> int:
        """Reified bitwise equality."""
        width = max(len(a), len(b), 1)
        f = self._false()
        a = a + [f] * (width - len(a))
        b = b + [f] * (width - len(b))
        result = self._true()
        for ai, bi in zip(a, b):
            result = self._and2(result, self._iff2(ai, bi))
        return result

    # -- constraints -----------------------------------------------------------

    def reify(self, constraint: LinConstraint) -> int:
        """Return a literal equivalent to *constraint*."""
        verdict = trivially(constraint)
        if verdict is True:
            return self._true()
        if verdict is False:
            return self._false()
        # Build both sides as sums of non-negative bit vectors.
        # expr = sum(c_i * v_i) + const; each v_i = lo_i + x_i, x_i >= 0.
        # The variable parts of each side are cached so bound bisection
        # (same expression, shifting constant) reuses one adder tree.
        offset = constraint.expr.const
        pos_terms: list[tuple[IntVar, int]] = []
        neg_terms: list[tuple[IntVar, int]] = []
        for var, coeff in constraint.expr.coeffs.items():
            offset += coeff * var.lo
            if coeff > 0:
                pos_terms.append((var, coeff))
            elif coeff < 0:
                neg_terms.append((var, -coeff))
        lhs_var = self._cached_sum(pos_terms)
        rhs_var = self._cached_sum(neg_terms)
        lhs_vectors = [lhs_var] if lhs_var else []
        rhs_vectors = [rhs_var] if rhs_var else []
        if offset > 0:
            lhs_vectors.append(self.const_bits(offset))
        elif offset < 0:
            rhs_vectors.append(self.const_bits(-offset))
        lhs = self._sum_bits(lhs_vectors)
        rhs = self._sum_bits(rhs_vectors)
        if constraint.op == "<=":
            return self._leq_bits(lhs, rhs)
        return self._eq_bits(lhs, rhs)

    def _cached_sum(self, terms: list[tuple[IntVar, int]]) -> list[int]:
        """Adder tree for sum(coeff * var) with positive coeffs, cached."""
        if not terms:
            return []
        key = tuple(sorted((var.name, coeff) for var, coeff in terms))
        cached = self._sum_cache.get(key)
        if cached is not None:
            return cached
        vectors = [
            self._mul_const(self.bits_for(var), coeff) for var, coeff in terms
        ]
        result = self._sum_bits(vectors)
        self._sum_cache[key] = result
        return result

    def assert_constraint(self, constraint: LinConstraint) -> None:
        """Assert that *constraint* holds."""
        self.solver.add_clause([self.reify(constraint)])

    def assert_implies(self, guard_lit: int, constraint: LinConstraint) -> None:
        """Assert ``guard -> constraint`` (conditional resource rule)."""
        self.solver.add_clause([-guard_lit, self.reify(constraint)])

    def referenced_vars(self) -> set[int]:
        """Variables that future encodings may mention again.

        IntVar bit vectors, cached gate inputs/outputs, and cached adder
        trees are all returned verbatim by later :meth:`reify` calls, so
        they must survive CNF preprocessing (frozen, never eliminated).
        """
        out: set[int] = set()
        for bits in self._bits.values():
            out.update(abs(b) for b in bits)
        for cache in (self._and_cache, self._xor_cache):
            for (a, b), lit in cache.items():
                out.add(abs(a))
                out.add(abs(b))
                out.add(abs(lit))
        for bits in self._sum_cache.values():
            out.update(abs(b) for b in bits)
        if self._true_lit is not None:
            out.add(self._true_lit)
        return out

    # -- model extraction --------------------------------------------------------

    def value_of(self, var: IntVar, model: dict[int, bool]) -> int:
        """Read an IntVar's value out of a SAT model."""
        bits = self._bits.get(var)
        if bits is None:
            # Never encoded: unconstrained; any in-range value works.
            return var.lo
        raw = 0
        for i, bit in enumerate(bits):
            positive = bit > 0
            val = model.get(abs(bit), False)
            if val == positive:
                raw |= 1 << i
        return var.lo + raw

    def values(self, model: dict[int, bool]) -> dict[IntVar, int]:
        """Values of every encoded IntVar in *model*."""
        return {var: self.value_of(var, model) for var in self._bits}
