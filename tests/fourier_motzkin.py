"""Fourier-Motzkin elimination, kept by the tests as an independent oracle.

The library decides every semistability verdict from vertex masks and
signed circuits (``corecover.stability``); this engine decides any rational
constraint system by elimination, so the tests can check those verdicts
and certificates against a second algorithm. Two refinements over plain
pairing:

* variables covered by an equality constraint are removed by exact Gaussian
  pivoting instead of inequality pairing (same projection, far fewer rows);
* every verdict ships with a proof object: a rational point for feasible
  systems, a Farkas-style multiplier vector reproducing a contradiction for
  infeasible ones. The proof is built the first time it is read
  (``LazyCertificate``), so a caller that needs only the verdict pays for
  the elimination alone.

Rows are integer, so elimination runs on Python ints only. Each input
constraint is scaled to a normalized integer row once, on first use
(``_scaled``), and keeps that row while it lives, for every system that
holds it; a system adds only its own input index. Every derived row is
divided by its content. A derived row records how it was made (its two
parent rows with their integer factors, and the sign and divisor of its
normalization) rather than its multipliers over the input constraints.
Those multipliers are rebuilt in exact rationals only for the row that
proves infeasibility.

Strict inequalities are handled natively: a combined row is strict exactly
when a strict row participates with a positive multiplier. Witnesses are
reconstructed in exact rationals. ``random_closed_polyhedron`` draws the
systems of the acceptance criterion on certificates.
"""

from __future__ import annotations

import weakref
from dataclasses import FrozenInstanceError
from fractions import Fraction
from math import gcd

from corecover.feasibility import Certificate, Constraint, Polyhedron, Relation
from corecover.linalg import _common_denominator

# each constraint's integer row, kept while the constraint lives
_ROWS = weakref.WeakKeyDictionary()


def _scaled(con: Constraint) -> tuple:
    """``(coeffs, const, mul, div)`` of the normalized integer row: the
    constraint times ``mul / div``. Index-free, so one kept row serves
    every system the constraint appears in."""
    row = _ROWS.get(con)
    if row is None:
        scale, (*coeffs, const) = _common_denominator((*con.coeffs, con.constant))
        norm = _normalized(tuple(coeffs), const, con.relation, None, scale)
        row = _ROWS[con] = (norm.coeffs, norm.const, norm.mul, norm.div)
    return row


class LazyCertificate:
    """A ``Certificate`` whose point (feasible) or multipliers (infeasible)
    is ``proof()``, built the first time either is read; the saved state is
    then dropped. Compared, hashed, printed and pickled as the
    ``Certificate`` with the same three values."""

    __slots__ = ("feasible", "_point", "_multipliers", "_proof")

    def __init__(self, feasible: bool, proof):
        object.__setattr__(self, "feasible", feasible)
        object.__setattr__(self, "_point", None)
        object.__setattr__(self, "_multipliers", None)
        object.__setattr__(self, "_proof", proof)

    def _build(self):
        proof = self._proof
        if proof is not None:
            object.__setattr__(self, "_point" if self.feasible else "_multipliers", proof())
            object.__setattr__(self, "_proof", None)

    @property
    def point(self) -> tuple | None:
        self._build()
        return self._point

    @property
    def multipliers(self) -> tuple | None:
        self._build()
        return self._multipliers

    def _plain(self) -> Certificate:
        return Certificate(self.feasible, self.point, self.multipliers)

    def __eq__(self, other):
        if isinstance(other, LazyCertificate):
            other = other._plain()
        return self._plain() == other

    def __hash__(self):
        return hash(self._plain())

    def __repr__(self):
        return repr(self._plain())

    def __reduce__(self):
        return self._plain().__reduce__()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class _Row:
    """Integer constraint row with a lazy derivation from the input constraints.

    The row equals ``mul / div`` times its base: input constraint ``src`` when
    ``src`` is an index, else ``ca * row_a + cb * row_b`` for
    ``src = (row_a, ca, row_b, cb)``. Only the row that proves infeasibility
    has its multipliers over the input rebuilt (:func:`_multipliers`).
    """

    __slots__ = ("coeffs", "const", "rel", "src", "mul", "div")

    def __init__(self, coeffs, const, rel, src, mul, div):
        self.coeffs = coeffs
        self.const = const
        self.rel = rel
        self.src = src
        self.mul = mul
        self.div = div


def _normalized(coeffs, const, rel, src, mul):
    """Divide out the content and orient equalities; ``mul`` scales ``src``."""
    g = gcd(*coeffs, const)
    if g > 1:
        coeffs = tuple(x // g for x in coeffs)
        const //= g
    else:
        g = 1
    if rel is Relation.EQ:
        lead = next((x for x in coeffs if x), const)
        if lead < 0:
            coeffs = tuple(-x for x in coeffs)
            const = -const
            mul = -mul
    return _Row(coeffs, const, rel, src, mul, g)


def _integerize(con: Constraint, index: int) -> _Row:
    """The constraint's kept integer row, derived from input ``index``."""
    coeffs, const, mul, div = _scaled(con)
    return _Row(coeffs, const, con.relation, index, mul, div)


def _combine(row_a: _Row, ca: int, row_b: _Row, cb: int, rel: Relation) -> _Row:
    coeffs = tuple(ca * x + cb * y for x, y in zip(row_a.coeffs, row_b.coeffs))
    const = ca * row_a.const + cb * row_b.const
    return _normalized(coeffs, const, rel, (row_a, ca, row_b, cb), 1)


def _holds_constant(row: _Row) -> bool:
    """Truth of a row whose coefficients are all zero."""
    if row.rel is Relation.GE:
        return row.const >= 0
    if row.rel is Relation.GT:
        return row.const > 0
    return row.const == 0


def _dedup(rows):
    """Drop trivially true rows and keep only the tightest of parallel rows.

    Only single-row dominance is removed (same coefficient vector, weaker
    bound). One contradiction row is retained if present, as the last row.
    Deterministic: first-seen order is preserved.
    """
    out = {}
    contradiction = None
    for row in rows:
        if not any(row.coeffs):
            if contradiction is None and not _holds_constant(row):
                contradiction = row
            continue
        if row.rel is Relation.EQ:
            key = ("=", row.coeffs, row.const)
            out.setdefault(key, row)
            continue
        key = (">=", row.coeffs)
        kept = out.get(key)
        if kept is None:
            out[key] = row
        else:
            tighter = row.const < kept.const or (
                row.const == kept.const
                and row.rel is Relation.GT
                and kept.rel is Relation.GE
            )
            if tighter:
                out[key] = row
    result = list(out.values())
    if contradiction is not None:
        result.append(contradiction)
    return result


def _eliminate_column(rows, j):
    """One exact projection step removing variable ``j``.

    If an equality row covers the variable it is used as a Gaussian pivot
    (its multiplier may take either sign); otherwise classical
    Fourier-Motzkin pairing with positive multipliers is applied. Either way
    a point satisfies the output iff it extends to a point of the input.
    The first combined row that is a false constant ends the step and is
    returned alone: it proves the input, hence the projection, empty.
    """
    pivot = next(
        (r for r in rows if r.rel is Relation.EQ and r.coeffs[j] != 0), None
    )
    if pivot is not None:
        pj = pivot.coeffs[j]
        out = []
        for r in rows:
            if r is pivot:
                continue
            rj = r.coeffs[j]
            if rj == 0:
                out.append(r)
                continue
            a = abs(pj)
            b = -rj if pj > 0 else rj
            row = _combine(r, a, pivot, b, r.rel)
            if not any(row.coeffs) and not _holds_constant(row):
                return [row]
            out.append(row)
        return _dedup(out)
    out = [r for r in rows if r.coeffs[j] == 0]
    pos = [r for r in rows if r.coeffs[j] > 0]
    neg = [r for r in rows if r.coeffs[j] < 0]
    for p in pos:
        for q in neg:
            rel = (
                Relation.GT
                if (p.rel is Relation.GT or q.rel is Relation.GT)
                else Relation.GE
            )
            row = _combine(p, -q.coeffs[j], q, p.coeffs[j], rel)
            if not any(row.coeffs) and not _holds_constant(row):
                return [row]
            out.append(row)
    return _dedup(out)


def _contradiction(rows):
    """The contradiction row of a :func:`_dedup` result, or None."""
    if rows and not any(rows[-1].coeffs):
        return rows[-1]
    return None


def _multipliers(row: _Row) -> dict:
    """Exact multipliers over the input constraints that reproduce ``row``.

    ``row`` is a linear combination of its ancestors in the derivation DAG.
    Its weight is pushed down the DAG with parents before children, so every
    ancestor is visited once and carries a single rational weight.
    """
    order = []
    seen = set()

    def visit(r):
        if id(r) in seen:
            return
        seen.add(id(r))
        if not isinstance(r.src, int):
            visit(r.src[0])
            visit(r.src[2])
        order.append(r)

    visit(row)
    weight = {id(row): Fraction(1)}
    mults = {}
    for r in reversed(order):
        w = weight.pop(id(r)) * Fraction(r.mul, r.div)
        if isinstance(r.src, int):
            mults[r.src] = w
        else:
            row_a, ca, row_b, cb = r.src
            weight[id(row_a)] = weight.get(id(row_a), 0) + ca * w
            weight[id(row_b)] = weight.get(id(row_b), 0) + cb * w
    return mults


def _infeasible_certificate(row: _Row, ncons: int) -> LazyCertificate:
    """Infeasible verdict whose Farkas multipliers are rebuilt from ``row``
    on first read."""

    def farkas():
        prov = _multipliers(row)
        zero = Fraction(0)
        mults = tuple(prov.get(i, zero) for i in range(ncons))
        if row.rel is Relation.EQ and row.const > 0:
            mults = tuple(-m for m in mults)
        return mults

    return LazyCertificate(False, farkas)


def _choose_value(rows, j, point):
    """Pick a rational value for variable ``j`` given values of later ones."""
    lower = None  # (value, strict)
    upper = None
    for row in rows:
        a = row.coeffs[j]
        if a == 0:
            continue
        rest = row.const + sum(
            row.coeffs[k] * point[k]
            for k in range(j + 1, len(row.coeffs))
            if row.coeffs[k]
        )
        bound = Fraction(-rest, a)
        if row.rel is Relation.EQ:
            return bound
        strict = row.rel is Relation.GT
        if a > 0:
            if lower is None or (bound, strict) > lower:
                lower = (bound, strict)
        else:
            if upper is None or (bound, not strict) < (upper[0], not upper[1]):
                upper = (bound, strict)
    if lower is None and upper is None:
        return Fraction(0)
    if upper is None:
        return lower[0] + 1 if lower[1] else lower[0]
    if lower is None:
        return upper[0] - 1 if upper[1] else upper[0]
    if lower[0] == upper[0]:
        return lower[0]
    return (lower[0] + upper[0]) / 2


def _witness(stages) -> tuple:
    """A feasible point, one coordinate per saved stage, last one first."""
    point = [Fraction(0)] * len(stages)
    for j in reversed(range(len(stages))):
        point[j] = Fraction(_choose_value(stages[j], j, point))
    return tuple(point)


def is_feasible(poly: Polyhedron) -> LazyCertificate:
    """Exact feasibility of a rational constraint system, with certificate.

    The verdict is decided here; the witness point or Farkas multipliers are
    rebuilt from the saved stages or contradiction row when first read."""
    ncons = len(poly.constraints)
    rows = _dedup(_integerize(c, i) for i, c in enumerate(poly.constraints))
    bad = _contradiction(rows)
    if bad is not None:
        return _infeasible_certificate(bad, ncons)
    stages = []
    for j in range(poly.dim):
        stages.append(rows)
        rows = _eliminate_column(rows, j)
        bad = _contradiction(rows)
        if bad is not None:
            return _infeasible_certificate(bad, ncons)
    return LazyCertificate(True, lambda: _witness(stages))


def random_closed_polyhedron(rng, max_dim: int = 4, max_constraints: int = 10) -> Polyhedron:
    """A random system of GE and EQ constraints with small integer data."""
    dim = rng.randint(1, max_dim)
    count = rng.randint(0, max_constraints)
    cons = []
    for _ in range(count):
        coeffs = tuple(rng.randint(-3, 3) for _ in range(dim))
        rel = Relation.EQ if rng.random() < 0.2 else Relation.GE
        cons.append(Constraint(coeffs, rel, Fraction(rng.randint(-4, 4))))
    return Polyhedron(dim, tuple(cons))
