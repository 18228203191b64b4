"""Rational constraint systems and checkable certificates.

A polyhedron is a finite system of rational linear constraints
``<a, x> + c {>=, =, >} 0``. A certificate proves a verdict on one: a
rational point for a feasible system, a Farkas-style multiplier vector
reproducing a contradiction for an infeasible one. ``verify_certificate``
re-checks either by exact substitution and trusts no solver.

Nothing here decides a system. :mod:`corecover.stability` reads each
verdict's certificate off the arrangement: a vertex for a nonempty state
set, a signed circuit of the normals for an empty one. The test suite
keeps a Fourier-Motzkin engine as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction


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


@dataclass(frozen=True)
class Certificate:
    """Proof object for a feasibility verdict.

    ``point`` is a rational feasible point (feasible case). ``multipliers``
    is one rational multiplier per constraint of the originating polyhedron
    (infeasible case): nonnegative on inequalities, unrestricted on
    equalities, combining the constraints into ``0 >= positive`` or
    ``0 > 0``.
    """

    feasible: bool
    point: tuple | None = None
    multipliers: tuple | None = None


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
