"""Seeded random instances for tests and experiment scripts.

Normals are drawn from unimodular direction families (any independent
n-subset has determinant +-1), but with a sign drawn per entry, not per
normal, so a draw can leave its family: (1, 1) also comes out as (1, -1),
and the pair (1, 1), (1, -1) has determinant 2. Regularity is therefore
not built in; ``is_smooth`` rejects irregular draws as well as non-simple
ones. The seeded populations of the tests and the benchmark are built on
this draw, so it stays as it is. Everything is driven by an explicit
random.Random, so runs are reproducible from a seed.
"""

from __future__ import annotations

from fractions import Fraction

from .arrangement import Arrangement, is_smooth
from .quotient import core
from .stability import FULL_ALPHABET

# Direction families closed under the pairwise/triplewise unimodularity that
# regularity demands, up to one sign per normal. Signs are drawn per entry,
# which also gives normals outside a family, such as (1, -1).
DIRECTIONS = {
    1: ((1,),),
    2: ((1, 0), (0, 1), (1, 1)),
    3: ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)),
}

LIFT_DENOMINATORS = (1, 1, 2, 3)


def random_smooth_arrangement(
    rng,
    n: int | None = None,
    d: int | None = None,
    max_d: int = 8,
    require_core: bool = False,
) -> Arrangement:
    """A random smooth arrangement, optionally with nonempty core."""
    for _ in range(20000):
        dim = n if n is not None else rng.choice((1, 2, 3))
        lo = dim + 1 if require_core else dim
        size = d if d is not None else rng.randint(lo, max(max_d, lo))
        normals = tuple(
            tuple(rng.choice((1, -1)) * x for x in rng.choice(DIRECTIONS[dim]))
            for _ in range(size)
        )
        lifts = tuple(
            Fraction(rng.randint(-6, 6), rng.choice(LIFT_DENOMINATORS))
            for _ in range(size)
        )
        try:
            arr = Arrangement(dim, normals, lifts)
        except ValueError:
            continue
        if not is_smooth(arr):
            continue
        if require_core and not core(arr, force=True):
            continue
        return arr
    raise RuntimeError("failed to sample a smooth arrangement")


def random_pattern(rng, d: int) -> tuple:
    return tuple(rng.choice(FULL_ALPHABET) for _ in range(d))


def random_sign_vector(rng, d: int) -> tuple:
    return tuple(rng.choice((1, -1)) for _ in range(d))
