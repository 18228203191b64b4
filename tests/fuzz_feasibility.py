#!/usr/bin/env python3
"""Deep fuzz of the Fourier-Motzkin oracle (``fourier_motzkin.py``).

Random constraint systems (strict inequalities included) are decided and
every certificate is re-verified by substitution; closed systems are also
cross-checked against the subset-enumeration oracle, eliminations against
interval analysis of random extension points. The projection and both
oracles are the test suite's (``util.py``, next to this script). Runs
until the requested count or the first discrepancy.

Usage: python tests/fuzz_feasibility.py [--seed N] [--count N]
"""

import argparse
import random
import time
from fractions import Fraction

from corecover import Constraint, Polyhedron, Relation, verify_certificate
from fourier_motzkin import is_feasible
from util import eliminate, extension_exists, feasible_by_enumeration


def random_system(rng, allow_strict=True):
    dim = rng.randint(1, 4)
    rels = [Relation.GE, Relation.EQ] + ([Relation.GT] if allow_strict else [])
    cons = []
    for _ in range(rng.randint(0, 9)):
        coeffs = tuple(rng.randint(-4, 4) for _ in range(dim))
        constant = Fraction(rng.randint(-8, 8), rng.choice((1, 1, 2, 3)))
        cons.append(Constraint(coeffs, rng.choice(rels), constant))
    return Polyhedron(dim, tuple(cons))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--count", type=int, default=5000)
    args = parser.parse_args()
    rng = random.Random(args.seed)
    start = time.monotonic()

    for index in range(args.count):
        strict_ok = rng.random() < 0.5
        poly = random_system(rng, allow_strict=strict_ok)
        cert = is_feasible(poly)
        if not verify_certificate(poly, cert):
            print(f"[{index}] CERTIFICATE FAILURE: {poly}")
            return 1
        if not strict_ok:
            if cert.feasible != feasible_by_enumeration(poly):
                print(f"[{index}] ORACLE DISAGREEMENT: {poly}")
                return 1
        if poly.dim > 1:
            var = rng.randrange(poly.dim)
            projected = eliminate(poly, var)
            point = tuple(
                Fraction(rng.randint(-6, 6), rng.choice((1, 2)))
                for _ in range(poly.dim - 1)
            )
            if projected.contains(point) != extension_exists(poly, var, point):
                print(f"[{index}] PROJECTION DISAGREEMENT: {poly} var={var} point={point}")
                return 1
        if index % 1000 == 999:
            print(f"{index + 1} systems checked ({time.monotonic() - start:.1f}s)")
    print(f"PASS: {args.count} systems, {time.monotonic() - start:.1f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
