"""Exact polyhedral feasibility with checkable certificates.

A polyhedron is a finite system of rational linear constraints
``<a, x> + c {>=, =, >} 0``. Feasibility is decided by Fourier-Motzkin
elimination, with two refinements:

* variables covered by an equality constraint are removed by exact Gaussian
  pivoting instead of inequality pairing (same projection, far fewer rows);
* every verdict ships with a proof object: a rational point for feasible
  systems, a Farkas-style multiplier vector reproducing a contradiction for
  infeasible ones. The proof is built the first time it is read, so a
  caller that needs only the verdict pays for the elimination alone.

Rows are integer, so elimination runs on Python ints only. Each input
constraint is scaled to a normalized integer row once, on first use, and keeps
that row for every system that holds it; a system adds only its own input
index. Every derived row is divided by its content. A derived row records how
it was made (its two parent rows with their integer factors, and the sign and
divisor of its normalization) rather than its multipliers over the input
constraints. Those multipliers are rebuilt in exact rationals only for the row
that proves infeasibility.

Strict inequalities are handled natively: a combined row is strict exactly
when a strict row participates with a positive multiplier. Witnesses are
reconstructed in exact rationals.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from math import gcd

from .linalg import _common_denominator


class Relation(Enum):
    GE = ">="
    EQ = "="
    GT = ">"


@dataclass(frozen=True)
class Constraint:
    """The condition ``<coeffs, x> + constant  relation  0``."""

    coeffs: tuple
    relation: Relation
    constant: Fraction

    def evaluate(self, point):
        return sum(a * x for a, x in zip(self.coeffs, point)) + self.constant

    @cached_property
    def _scaled(self) -> tuple:
        """``(coeffs, const, mul, div)`` of the normalized integer row: the
        constraint times ``mul / div``. Index-free, so one cached row serves
        every system the constraint appears in."""
        scale, (*coeffs, const) = _common_denominator((*self.coeffs, self.constant))
        row = _normalized(tuple(coeffs), const, self.relation, None, scale)
        return row.coeffs, row.const, row.mul, row.div

    def __getstate__(self):
        """Pickle the fields only, whether or not the row is cached."""
        state = dict(self.__dict__)
        state.pop("_scaled", None)
        return state

    def holds(self, point) -> bool:
        value = self.evaluate(point)
        if self.relation is Relation.GE:
            return value >= 0
        if self.relation is Relation.GT:
            return value > 0
        return value == 0


@dataclass(frozen=True)
class Polyhedron:
    dim: int
    constraints: tuple

    def __post_init__(self):
        object.__setattr__(self, "constraints", tuple(self.constraints))
        for c in self.constraints:
            if len(c.coeffs) != self.dim:
                raise ValueError(
                    f"constraint has {len(c.coeffs)} coefficients, ambient dimension is {self.dim}"
                )

    def contains(self, point) -> bool:
        if len(point) != self.dim:
            raise ValueError("point dimension mismatch")
        return all(c.holds(point) for c in self.constraints)


class Certificate:
    """Proof object for a feasibility verdict.

    ``point`` is a rational feasible point (feasible case). ``multipliers``
    is one rational multiplier per constraint of the originating polyhedron
    (infeasible case): nonnegative on inequalities, unrestricted on
    equalities, combining the constraints into ``0 >= positive`` or
    ``0 > 0``.

    Immutable, compared and hashed by ``(feasible, point, multipliers)`` like
    a frozen dataclass. A certificate returned by :func:`is_feasible` builds
    its point or multipliers the first time either is read, from the
    elimination it saved, and then drops that state: callers that only read
    ``feasible`` never pay for the proof.
    """

    __slots__ = ("feasible", "_point", "_multipliers", "_proof")

    def __init__(self, feasible: bool, point: tuple | None = None, multipliers: tuple | None = None):
        object.__setattr__(self, "feasible", feasible)
        object.__setattr__(self, "_point", point)
        object.__setattr__(self, "_multipliers", multipliers)
        object.__setattr__(self, "_proof", None)

    @classmethod
    def _deferred(cls, feasible: bool, proof) -> "Certificate":
        """A certificate whose point (feasible) or multipliers (infeasible)
        is ``proof()``, called on first read."""
        cert = cls(feasible)
        object.__setattr__(cert, "_proof", proof)
        return cert

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

    def _key(self) -> tuple:
        return (self.feasible, self.point, self.multipliers)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (
            f"{type(self).__qualname__}(feasible={self.feasible!r}, "
            f"point={self.point!r}, multipliers={self.multipliers!r})"
        )

    def __reduce__(self):
        return (type(self), self._key())

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


def verify_certificate(poly: Polyhedron, cert: Certificate) -> bool:
    """Re-check a certificate by exact substitution. Never trusts the solver."""
    if cert.feasible:
        point = cert.point
        return point is not None and len(point) == poly.dim and poly.contains(point)
    y = cert.multipliers
    if y is None or len(y) != len(poly.constraints):
        return False
    for mult, con in zip(y, poly.constraints):
        if con.relation is not Relation.EQ and mult < 0:
            return False
    combo = [Fraction(0)] * poly.dim
    total = Fraction(0)
    strict = False
    for mult, con in zip(y, poly.constraints):
        if mult == 0:
            continue
        for j, a in enumerate(con.coeffs):
            combo[j] += mult * a
        total += mult * con.constant
        if con.relation is Relation.GT and mult > 0:
            strict = True
    if any(v != 0 for v in combo):
        return False
    return total < 0 or (total == 0 and strict)


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
    """The constraint's cached integer row, derived from input ``index``."""
    coeffs, const, mul, div = con._scaled
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


def _infeasible_certificate(row: _Row, ncons: int) -> Certificate:
    """Infeasible verdict whose Farkas multipliers are rebuilt from ``row``
    on first read."""

    def farkas():
        prov = _multipliers(row)
        zero = Fraction(0)
        mults = tuple(prov.get(i, zero) for i in range(ncons))
        if row.rel is Relation.EQ and row.const > 0:
            mults = tuple(-m for m in mults)
        return mults

    return Certificate._deferred(False, farkas)


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


def is_feasible(poly: Polyhedron) -> Certificate:
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
    return Certificate._deferred(True, lambda: _witness(stages))
