"""The seeded draws of ``corecover.randgen`` are pinned: the test and
benchmark populations are built on them, so a change to a draw, or to what
the smoothness and core tests accept, shows here first."""

import hashlib
import random

from corecover import format_pattern, format_sign_vector, serialize_arrangement
from corecover.randgen import random_pattern, random_sign_vector, random_smooth_arrangement

# SHA-256 over n = 1-3, d free (up to max_d = 8) or 5 as the report
# benchmark draws it, with and without require_core, seeds 0-5: each draw's
# serialized file, then one pattern and one sign vector drawn on from the
# same generator
DIGEST = "54ba20e6102d552e0534a22fa3cb428dfad00422297010fb33397524c2e9d5cb"


def draws_digest() -> str:
    digest = hashlib.sha256()
    for n in (1, 2, 3):
        for d in (None, 5):
            for require_core in (False, True):
                for seed in range(6):
                    rng = random.Random(seed)
                    arr = random_smooth_arrangement(rng, n=n, d=d, require_core=require_core)
                    digest.update(serialize_arrangement(arr).encode())
                    digest.update(format_pattern(random_pattern(rng, arr.d)).encode())
                    digest.update(format_sign_vector(random_sign_vector(rng, arr.d)).encode())
    return digest.hexdigest()


def test_draws_digest():
    assert draws_digest() == DIGEST
