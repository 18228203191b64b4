#!/usr/bin/env python3
"""Randomized verification sweep.

Samples smooth arrangements from a seed and runs the full battery on each.
Every LP below is one of the test suite's Fourier-Motzkin oracle
(``tests/fourier_motzkin.py``), never the library's vertex masks or signed
circuits:
the kernel lattice (the ``lattice`` column: ``torus_data``'s basis, read off
the class record's coordinates in the draw's greedy class basis, against
the two-HNF oracle, and its level ``alpha``, summed over each row's
nonzeros, against the product of that basis with the lifts), oracle
equivalence on every BOTH-free pattern (``hk_semistable_numeric`` and
``hk_semistable_geometric`` against one state-set LP each), the
certificates (the ``certificates`` column: every numeric and geometric
certificate of every BOTH-free pattern passes ``verify_certificate``, on
the draw and on a companion with integer normals in [-2, 2], drawn from
the seed and the index, that is often neither simple nor regular), the
symmetries (the ``symmetry`` column: translating the lifts, a unimodular
change of coordinates, permuting the hyperplanes and scaling the lifts
keep the extended core, the covering verdict with its witnessed patterns
and counterexamples, the empty-core criterion, one density entry and the
numeric, geometric and closed-orbit verdicts of seeded patterns), the mask
verdicts (the
``verdicts`` column: ``_cone_contains``, which ANDs the vertex masks of the
letters with no LP, against one state-set LP per pattern, on every BOTH-free
pattern and every realizable BOTH pattern), chart equivalence (the state set of
each chart pattern against its numeric system, for every compact sign vector
and every BOTH-free pattern), covering (the whole ``CoverReport``, witnesses
in order and counterexamples, against the sweep of numeric verdicts over all
3^d patterns, and the CLI's ``cover`` payload, which counts the witnesses
without building them, against the ``CoverReport``), adjacency, density (``verify_density``
on every sign vector, and its numeric side, read off the vertices of the
numeric system, against one numeric LP per sign vector), the empty-core
criterion, the chambers (``extended_core`` lists exactly the sign vectors
whose chamber LP is feasible, in order, each is full-dimensional, which
``core`` relies on without testing, each classification is ``is_bounded``'s
and each bounded chamber's vertices, as the CLI lists them, are
``enumerate_vertices``'), realizability (``pattern_realizable`` on the
direction classes against a rank test in R^d, on all 2^d BOTH sets) and the
complement (``chart_complement`` of every compact sign vector against a 4^d
sweep of numeric verdicts with realizability from the rank test). The
``matroid`` column recomputes the draw's regularity, circuits, realizable
class subsets, ray masks, vertices and torus data on a class-matroid record
built for a fresh copy of the draw alone, as if the record cache had been
cleared, and compares them with the answers read off the shared record,
which an earlier draw with the same direction classes may have built. The
oracles, the symmetries and the adjacency check are the test suite's
(``tests/util.py``). The ``counts`` column checks Zaslavsky's counts
from the independent k-subsets of hyperplanes, by rank: the chambers, the
bounded ones, the vertices and, on a draw with a core, the covering's
leaves as the pattern walk yields them.
Prints one line per instance and a summary.

Usage: python scripts/random_sweep.py [--seed N] [--count N] [--max-d N]
"""

import argparse
import dataclasses
import functools
import itertools
import pathlib
import random
import sys
import time
from types import SimpleNamespace
from unittest import mock

from corecover import (
    chamber,
    chart_complement,
    chart_semistable,
    core_empty_criterion,
    extended_core,
    format_pattern,
    hk_semistable_geometric,
    hk_semistable_numeric,
    pattern_realizable,
    theta_cpt,
    torus_data,
    verify_certificate,
    verify_covering,
    verify_density,
)
import corecover.arrangement as arrangement
import corecover.cli as cli
from corecover.arrangement import all_sign_vectors
from corecover.linalg import transpose
from corecover.quotient import BOUNDED, UNBOUNDED
from corecover.randgen import random_smooth_arrangement
from corecover.stability import (
    FULL_ALPHABET,
    NO_BOTH_ALPHABET,
    Status,
    _cone_contains,
    _numeric_chambers,
    full_pattern,
)

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tests"))
from util import (  # noqa: E402
    adjacency_lemma_check,
    affine_dimension,
    chamber_vertices,
    chart_pattern,
    enumerate_vertices,
    independent_counts,
    is_bounded,
    kernel_by_two_hnf,
    mat_vec,
    numeric_covering,
    numeric_density,
    numeric_semistable,
    per_pattern_verdict,
    random_integer_arrangement,
    rank_realizable,
    symmetries_hold,
    walk_leaf_counts,
)


def numeric_excluded(td, compact) -> dict:
    """Each compact sign vector's excluded patterns by the 4^d numeric sweep."""
    realizable = functools.cache(lambda both: rank_realizable(td, both))
    semistable = functools.cache(lambda pattern: numeric_semistable(td, pattern))
    out = {eps: [] for eps in compact}
    for pattern in itertools.product(FULL_ALPHABET, repeat=td.d):
        both = tuple(i for i, s in enumerate(pattern) if s is Status.BOTH)
        if not realizable(both) or not semistable(pattern):
            continue
        for eps in compact:
            if not semistable(chart_pattern(eps, pattern)):
                out[eps].append(pattern)
    return {eps: tuple(excluded) for eps, excluded in out.items()}


def matroid_answers(arr) -> tuple:
    """The answers an arrangement reads off its class-matroid record. The
    arrangement keeps its regularity verdict and torus data as records of
    its own, built once and kept for its lifetime, so both are built here
    from the class record (``regular``, ``_build_torus_data``) instead."""
    record = arr._matroid
    return (
        record.regular,
        tuple(record.circuits()),
        record.realizable,
        record.ray_masks,
        arrangement._vertices(arr),
        arrangement._build_torus_data(arr),
    )


def cold_matroid_agrees(arr) -> bool:
    """The record's answers equal those on a record built afresh: during the
    cold pass every lookup builds a new record and keeps none, and a fresh
    copy of the draw, which holds no record yet, makes one."""
    warm = matroid_answers(arr)
    with mock.patch.object(arrangement, "_class_matroid", arrangement._ClassMatroid):
        cold = matroid_answers(dataclasses.replace(arr))
    return warm == cold


def certificates_verify(arr) -> bool:
    """Every numeric and geometric certificate of every BOTH-free pattern
    re-proves its verdict."""
    td = torus_data(arr)
    verdicts = (
        verdict(owner, p)
        for p in itertools.product(NO_BOTH_ALPHABET, repeat=arr.d)
        for verdict, owner in ((hk_semistable_numeric, td), (hk_semistable_geometric, arr))
    )
    return all(verify_certificate(v.system, v.certificate) for v in verdicts)


def check_instance(arr, rng) -> dict:
    """The battery on one draw; ``rng`` draws the companion of the
    certificates column and the symmetries and their patterns."""
    td = torus_data(arr)
    patterns = list(itertools.product(NO_BOTH_ALPHABET, repeat=arr.d))
    geometric = {p: per_pattern_verdict(arr, p) for p in patterns}
    equivalence = all(
        hk_semistable_numeric(td, p).semistable == hk_semistable_geometric(arr, p).semistable == geometric[p]
        for p in patterns
    )
    companion = random_integer_arrangement(rng, rng.choice((1, 2, 3)), max_d=max(arr.d, 3))
    both_patterns = [
        p
        for p in itertools.product(FULL_ALPHABET, repeat=arr.d)
        if Status.BOTH in p and pattern_realizable(arr, p)
    ]
    verdicts = all(_cone_contains(arr, p) == geometric[p] for p in patterns) and all(
        _cone_contains(arr, p) == per_pattern_verdict(arr, p) for p in both_patterns
    )
    compact = theta_cpt(arr)
    chambers = extended_core(arr)
    regions = {c.eps: chamber(arr, c.eps) for c in chambers}
    chart = all(
        chart_semistable(arr, eps, p) == numeric_semistable(td, chart_pattern(eps, p))
        for eps in compact
        for p in patterns
    )
    realizable = all(
        pattern_realizable(arr, [Status.BOTH if i in both else Status.Z for i in range(arr.d)])
        == rank_realizable(td, both)
        for size in range(arr.d + 1)
        for both in itertools.combinations(range(arr.d), size)
    )
    covered = None
    if compact:
        report, expected = verify_covering(arr), numeric_covering(arr)
        counted = cli._cover(arr, SimpleNamespace(force=False))
        covered = (
            report == expected
            and list(report.witness) == list(expected.witness)
            and counted
            == {
                "covered": report.covered,
                "witness_count": len(report.witness),
                "counterexamples": list(map(format_pattern, report.counterexamples)),
            }
        )
    counts = independent_counts(arr)
    leaves = None
    if compact:
        witnessed, counterexamples = walk_leaf_counts(arr)
        leaves = witnessed + len(counterexamples)
    complement = (
        all(
            chart_complement(arr, eps).excluded_patterns == excluded
            for eps, excluded in numeric_excluded(td, compact).items()
        )
        if compact
        else None
    )
    return {
        "matroid": cold_matroid_agrees(arr),
        "lattice": td.basis == kernel_by_two_hnf(transpose(arr.normals, ncols=arr.n), arr.d)
        and td.alpha == mat_vec(td.basis, arr.lifts),
        "equivalence": equivalence,
        "certificates": certificates_verify(arr) and certificates_verify(companion),
        "symmetry": symmetries_hold(arr, rng),
        "verdicts": verdicts,
        "chart": chart,
        "realizable": realizable,
        "covered": covered,
        "complement": complement,
        "counts": sum(counts) == len(chambers)
        and (-1) ** arr.n * sum((-1) ** k * count for k, count in enumerate(counts)) == len(compact)
        and counts[arr.n] == len(arr._faces.vertices)
        and leaves in (None, sum(2**k * count for k, count in enumerate(counts))),
        "adjacency": adjacency_lemma_check(arr),
        "density": all(verify_density(arr, eps) for eps in all_sign_vectors(arr.d))
        and _numeric_chambers(td) == numeric_density(td),
        "criterion_agrees": core_empty_criterion(arr).agree,
        "chambers": [c.eps for c in chambers]
        == [eps for eps in all_sign_vectors(arr.d) if geometric[full_pattern(eps)]]
        and all(
            affine_dimension(regions[c.eps]) == arr.n
            and c.classification == (BOUNDED if is_bounded(regions[c.eps]) else UNBOUNDED)
            for c in chambers
        )
        and all(
            chamber_vertices(arr, c.eps) == enumerate_vertices(regions[c.eps])
            for c in chambers
            if c.classification == BOUNDED
        ),
        "theta_cpt": len(compact),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--count", type=int, default=25)
    parser.add_argument("--max-d", type=int, default=7)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    start = time.monotonic()
    failures = 0
    for index in range(args.count):
        arr = random_smooth_arrangement(rng, max_d=args.max_d)
        result = check_instance(arr, random.Random(f"{args.seed}:{index}"))
        ok = all(v is not False for v in result.values())
        failures += not ok
        print(
            f"[{index:03d}] n={arr.n} d={arr.d} theta_cpt={result['theta_cpt']} "
            f"lattice={result['lattice']} matroid={result['matroid']} "
            f"equivalence={result['equivalence']} certificates={result['certificates']} "
            f"symmetry={result['symmetry']} verdicts={result['verdicts']} "
            f"chart={result['chart']} realizable={result['realizable']} "
            f"covered={result['covered']} complement={result['complement']} "
            f"counts={result['counts']} adjacency={result['adjacency']} density={result['density']} "
            f"criterion={result['criterion_agrees']} chambers={result['chambers']} "
            f"{'ok' if ok else 'FAIL'}"
        )
    elapsed = time.monotonic() - start
    print(f"{args.count} instances, {failures} failures, {elapsed:.1f}s")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
