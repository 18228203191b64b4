"""Acceptance suite.

One test per verification criterion, each asserting its exact tolerance
(zero disagreements everywhere) and printing a single PASS line with the
instance counts and elapsed time. Random instances come from fixed seeds so
every run checks the identical population. The final criterion probes an
open structural question and is evidence-only: a failure warns instead of
failing the build.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the summary lines.
"""

import itertools
import random
import time
import warnings

import pytest

from corecover import (
    chart_complement,
    chart_semistable,
    core,
    core_empty_criterion,
    hk_semistable_geometric,
    hk_semistable_numeric,
    reorient,
    theta_cpt,
    torus_data,
    trivial_factors,
    verify_certificate,
    verify_covering,
    verify_density,
)
from corecover.arrangement import all_sign_vectors
from corecover.randgen import (
    random_pattern,
    random_sign_vector,
    random_smooth_arrangement,
)
from corecover.stability import NO_BOTH_ALPHABET, FULL_ALPHABET, reorient_pattern, support_pattern
from fourier_motzkin import is_feasible, random_closed_polyhedron
from util import adjacency_lemma_check, feasible_by_enumeration, numeric_semistable

SEED_TORIC = 20240501
SEED_HK = 20240502
SEED_COVER = 20240503
SEED_EQUIVARIANCE = 20240504
SEED_POLYHEDRA = 20240505


def all_supports(d):
    return itertools.chain.from_iterable(
        itertools.combinations(range(d), k) for k in range(d + 1)
    )


@pytest.fixture(scope="module")
def covering_instances():
    """The shared instance set for the covering and adjacency criteria."""
    rng = random.Random(SEED_COVER)
    return [
        random_smooth_arrangement(rng, max_d=7, require_core=True) for _ in range(100)
    ]


def test_criterion_01_toric_oracle_equivalence(hirzebruch, a2_resolution, triangle_pair):
    # both library sides against the Fourier-Motzkin oracle on the numeric
    # system, so the signed-circuit scan is never compared with itself
    start = time.monotonic()
    rng = random.Random(SEED_TORIC)
    instances = [hirzebruch, a2_resolution, triangle_pair]
    instances += [random_smooth_arrangement(rng, max_d=8) for _ in range(200)]
    checked = 0
    for arr in instances:
        td = torus_data(arr)
        for support in all_supports(arr.d):
            pattern = support_pattern(arr.d, support)
            numeric = hk_semistable_numeric(td, pattern)
            geometric = hk_semistable_geometric(arr, pattern)
            oracle = numeric_semistable(td, pattern)
            assert numeric.semistable == geometric.semistable == oracle
            assert verify_certificate(numeric.system, numeric.certificate)
            assert verify_certificate(geometric.system, geometric.certificate)
            checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60
    print(
        f"criterion 1: PASS toric numeric == geometric == oracle on {checked} supports "
        f"across {len(instances)} arrangements ({elapsed:.1f}s < 60s)"
    )


def test_criterion_02_hk_oracle_equivalence(hirzebruch, a2_resolution, triangle_pair):
    # both library sides against the Fourier-Motzkin oracle on the numeric
    # system, so the signed-circuit scan is never compared with itself
    start = time.monotonic()
    checked = 0
    rng = random.Random(SEED_HK)
    cases = [(arr, FULL_ALPHABET) for arr in (hirzebruch, a2_resolution, triangle_pair)]
    cases += [(random_smooth_arrangement(rng, max_d=7), NO_BOTH_ALPHABET) for _ in range(100)]
    for arr, alphabet in cases:
        td = torus_data(arr)
        for pattern in itertools.product(alphabet, repeat=arr.d):
            assert (
                hk_semistable_numeric(td, pattern).semistable
                == hk_semistable_geometric(arr, pattern).semistable
                == numeric_semistable(td, pattern)
            )
            checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 120
    print(
        f"criterion 2: PASS hk numeric == geometric == oracle on {checked} patterns "
        f"({elapsed:.1f}s < 120s)"
    )


def test_criterion_03_stability_regression(hirzebruch):
    td = torus_data(hirzebruch)
    stable = hk_semistable_numeric(td, support_pattern(td.d, {0, 2, 3}))
    unstable = hk_semistable_numeric(td, support_pattern(td.d, {1, 3}))
    assert stable.semistable
    assert not unstable.semistable
    assert verify_certificate(stable.system, stable.certificate)
    assert verify_certificate(unstable.system, unstable.certificate)
    print(
        "criterion 3: PASS trapezoid fixture: support {1,3,4} semistable, "
        "support {2,4} unstable, certificates re-verified exactly"
    )


def test_criterion_04_covering(hirzebruch, a2_resolution, triangle_pair, covering_instances):
    start = time.monotonic()
    fixtures = [hirzebruch, a2_resolution, triangle_pair]
    for arr in fixtures:
        report = verify_covering(arr)
        assert report.covered and report.counterexamples == ()
        td = torus_data(arr)
        semistable = sum(
            1
            for pattern in itertools.product(NO_BOTH_ALPHABET, repeat=arr.d)
            if hk_semistable_numeric(td, pattern).semistable
        )
        assert len(report.witness) == semistable
        for pattern, eps in report.witness.items():
            assert chart_semistable(arr, eps, pattern)
    for arr in covering_instances:
        report = verify_covering(arr)
        assert report.covered, (arr.n, arr.normals, arr.lifts)
    elapsed = time.monotonic() - start
    assert elapsed < 120
    print(
        f"criterion 4: PASS covering holds on 3 fixtures and {len(covering_instances)} "
        f"random nonempty-core arrangements ({elapsed:.1f}s < 120s)"
    )


def test_criterion_05_adjacency_lemma(hirzebruch, a2_resolution, triangle_pair, covering_instances):
    start = time.monotonic()
    for arr in [hirzebruch, a2_resolution, triangle_pair] + covering_instances:
        assert adjacency_lemma_check(arr), (arr.n, arr.normals, arr.lifts)
    elapsed = time.monotonic() - start
    print(
        f"criterion 5: PASS adjacency lemma on the same {3 + len(covering_instances)} "
        f"instances ({elapsed:.1f}s)"
    )


def test_criterion_06_density(hirzebruch, a2_resolution, trivial_product, triangle_pair):
    checked = 0
    for arr in (hirzebruch, a2_resolution, trivial_product, triangle_pair):
        for eps in all_sign_vectors(arr.d):
            assert verify_density(arr, eps)
            checked += 1
    print(f"criterion 6: PASS density dichotomy for all {checked} sign vectors on 4 fixtures")


def test_criterion_07_reorientation_equivariance():
    rng = random.Random(SEED_EQUIVARIANCE)
    pairs = 0
    verdicts = 0
    for _ in range(50):
        arr = random_smooth_arrangement(rng, max_d=6)
        eps0 = random_sign_vector(rng, arr.d)
        flipped = reorient(arr, eps0)
        td = torus_data(arr)
        td_flipped = torus_data(flipped)
        expected = {
            tuple(e * e0 for e, e0 in zip(eps, eps0)) for eps in theta_cpt(arr)
        }
        assert set(theta_cpt(flipped)) == expected
        for _ in range(60):
            pattern = random_pattern(rng, arr.d)
            assert (
                hk_semistable_numeric(td, pattern).semistable
                == hk_semistable_numeric(td_flipped, reorient_pattern(pattern, eps0)).semistable
            )
            verdicts += 1
        pairs += 1
    print(
        f"criterion 7: PASS reorientation equivariance on {pairs} pairs "
        f"(compact chamber sets and {verdicts} verdicts)"
    )


def test_criterion_08_core_counts(hirzebruch, a2_resolution, trivial_product):
    assert len(core(a2_resolution)) == 2
    assert len(core(hirzebruch)) == 2
    assert len(core(trivial_product)) == 0
    assert trivial_factors(trivial_product) == (2,)
    for arr in (hirzebruch, a2_resolution, trivial_product):
        assert core_empty_criterion(arr).agree
    print(
        "criterion 8: PASS core counts 2 / 2 / 0 and the split-factor "
        "criterion agrees on all three fixtures"
    )


def test_criterion_09_feasibility_vs_enumeration():
    start = time.monotonic()
    rng = random.Random(SEED_POLYHEDRA)
    agreements = 0
    for _ in range(500):
        poly = random_closed_polyhedron(rng, max_dim=4, max_constraints=10)
        cert = is_feasible(poly)
        assert verify_certificate(poly, cert)
        assert cert.feasible == feasible_by_enumeration(poly)
        agreements += 1
    elapsed = time.monotonic() - start
    print(
        f"criterion 9: PASS elimination agrees with the enumeration oracle on "
        f"{agreements} random polyhedra, all certificates re-verified ({elapsed:.1f}s)"
    )


def test_criterion_10_complement_evidence(hirzebruch, a2_resolution, triangle_pair):
    """Evidence-only probe of the chart-complement structure.

    Expected: every excluded pattern BOTH-free and max state dimension n, on
    the all-plus chart of each covering fixture. This is an open question;
    counterevidence is warned about and recorded, never a build failure.
    """
    failures = []
    for arr in (hirzebruch, a2_resolution, triangle_pair):
        eps = tuple(1 for _ in range(arr.d))
        report = chart_complement(arr, eps)
        ok = report.all_in_extended_core and report.max_state_dim == arr.n
        print(
            f"criterion 10: evidence {arr.name} chart all-plus: "
            f"all_in_extended_core={report.all_in_extended_core} "
            f"max_state_dim={report.max_state_dim} (n={arr.n}) "
            f"{'consistent' if ok else 'COUNTEREVIDENCE'}"
        )
        if not ok:
            failures.append(arr.name)
    if failures:
        warnings.warn(
            "complement structure evidence failed on: " + ", ".join(failures),
            stacklevel=1,
        )
    print(
        "criterion 10: PASS (recorded as evidence; "
        + ("counterevidence on " + ", ".join(failures) if failures else "no counterevidence")
        + ")"
    )
