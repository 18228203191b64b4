import collections
import dataclasses
import functools
import hashlib
import itertools
import operator
import pathlib
import random
import types
from fractions import Fraction

import pytest

from corecover import (
    Arrangement,
    Polyhedron,
    Relation,
    TorusData,
    all_sign_vectors,
    both_reduction,
    chart_semistable,
    extended_core,
    full_pattern,
    hk_closed_orbit,
    hk_semistable_geometric,
    hk_semistable_numeric,
    is_regular,
    is_simple,
    is_smooth,
    parse_arrangement,
    pattern_realizable,
    reorient,
    reorient_pattern,
    state_set,
    support_pattern,
    theta_cpt,
    torus_data,
    verify_certificate,
    verify_covering,
)
import corecover.arrangement as arrangement
import corecover.quotient as quotient
import corecover.stability as stability
from corecover.randgen import random_pattern, random_sign_vector, random_smooth_arrangement
from corecover.stability import FULL_ALPHABET, NO_BOTH_ALPHABET, Status
from fourier_motzkin import is_feasible
import util
from util import (
    affine_dimension,
    chart_pattern,
    enumerate_vertices,
    nonempty_patterns,
    numeric_density,
    numeric_semistable,
    per_pattern_verdict,
    per_subset_numeric_chambers,
    random_integer_arrangement,
    rank_realizable,
    walk_rows,
)

F = Fraction
Z, W, O, B = Status.Z, Status.W, Status.ZERO, Status.BOTH
FIXTURE_DIR = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
# repr of every state set and sign system of the fixtures (all four
# letters) and of 40 seeded smooth draws (BOTH-free), in that order
LETTER_ROWS_DIGEST = "cb63cc078fdf023411615fffbe0beb55b7d36961be3d3bc4cbdde81ba694beda"


def arrangement_with_parallel_normals(rng):
    """A random arrangement in which some normals repeat up to sign."""
    while True:
        n = rng.randint(1, 3)
        normals = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(n, n + 2))]
        for _ in range(rng.randint(1, 3)):
            sign = rng.choice((1, -1))
            normals.append(tuple(sign * x for x in rng.choice(normals)))
        lifts = [F(rng.randint(-3, 3)) for _ in normals]
        try:
            return Arrangement(n, tuple(normals), tuple(lifts))
        except ValueError:
            continue


def all_supports(d):
    return itertools.chain.from_iterable(
        itertools.combinations(range(d), k) for k in range(d + 1)
    )


class TestToricNumeric:
    def test_stable_support(self, hirzebruch):
        td = torus_data(hirzebruch)
        verdict = hk_semistable_numeric(td, support_pattern(td.d, {0, 2, 3}))
        assert verdict.semistable
        assert verify_certificate(verdict.system, verdict.certificate)

    def test_unstable_support(self, hirzebruch):
        td = torus_data(hirzebruch)
        verdict = hk_semistable_numeric(td, support_pattern(td.d, {1, 3}))
        assert not verdict.semistable
        assert verify_certificate(verdict.system, verdict.certificate)

    def test_zero_level_full_support(self):
        arr = Arrangement(1, ((1,), (-1,)), (0, 0))
        td = torus_data(arr)
        assert td.alpha in ((F(0),),)
        verdict = hk_semistable_numeric(td, support_pattern(td.d, {0, 1}))
        assert verdict.semistable

    def test_out_of_range_support(self, hirzebruch):
        with pytest.raises(ValueError):
            hk_semistable_numeric(torus_data(hirzebruch), support_pattern(hirzebruch.d, {7}))


class TestToricClosedOrbit:
    def test_full_support(self, hirzebruch):
        td = torus_data(hirzebruch)
        assert hk_closed_orbit(td, support_pattern(td.d, {0, 1, 2, 3}))

    def test_partial_support(self, hirzebruch):
        td = torus_data(hirzebruch)
        assert hk_closed_orbit(td, support_pattern(td.d, {0, 2, 3}))

    def test_cone_boundary(self):
        # x_0 + x_1 = 0 with both nonnegative: only at 0, never strictly
        td = TorusData(basis=((1, 1),), lifts=(0, 0))
        pattern = support_pattern(td.d, {0, 1})
        assert hk_semistable_numeric(td, pattern).semistable
        assert not hk_closed_orbit(td, pattern)

    def test_torus_data_without_a_solution_plane_is_refused(self):
        # the verdicts read the arrangement rebuilt from the torus data, so
        # torus data that arrangement_from_quotient refuses raises its error
        point = TorusData(basis=((1,),), lifts=(0,))
        fixed = TorusData(basis=((1, 0),), lifts=(1, 2))
        for td, text in ((point, "needs d > m"), (fixed, "coordinate 1 is constant")):
            for call in (
                lambda: hk_semistable_numeric(td, support_pattern(td.d, {0})),
                lambda: hk_semistable_numeric(td, (B,) * td.d),
                lambda: hk_closed_orbit(td, (Z,) * td.d),
            ):
                with pytest.raises(ValueError, match=text):
                    call()


class TestHkNumeric:
    def test_a2_witness(self, a2_resolution):
        td = torus_data(a2_resolution)
        verdict = hk_semistable_numeric(td, (Z, W, O))
        assert verdict.semistable
        # the sign-constrained solution is unique here, so the witness is pinned
        assert verdict.certificate.point == (F(1), F(-1, 2), F(0))
        assert verify_certificate(verdict.system, verdict.certificate)

    def test_all_zero_unstable(self, a2_resolution):
        td = torus_data(a2_resolution)
        verdict = hk_semistable_numeric(td, (O, O, O))
        assert not verdict.semistable
        assert verify_certificate(verdict.system, verdict.certificate)

    def test_all_both_semistable(self, a2_resolution):
        td = torus_data(a2_resolution)
        assert hk_semistable_numeric(td, (B, B, B)).semistable

    def test_closed_orbit_implies_semistable(self, a2_resolution, hirzebruch):
        for arr in (a2_resolution, hirzebruch):
            td = torus_data(arr)
            for pattern in itertools.product(FULL_ALPHABET, repeat=arr.d):
                if hk_closed_orbit(td, pattern):
                    assert hk_semistable_numeric(td, pattern).semistable


def strictly_semistable(td, pattern) -> bool:
    """The oracle's strict system: ``_sign_system`` with every inequality strict."""
    rows = tuple(
        dataclasses.replace(c, relation=Relation.GT) if c.relation is Relation.GE else c
        for c in stability._sign_system(td, pattern).constraints
    )
    return is_feasible(Polyhedron(td.d, rows)).feasible


class TestRefutationScan:
    """Every verdict is the mask's, every refutation a signed circuit: both
    agree with the Fourier-Motzkin oracle, strict and not, and every
    certificate verifies, on input that is simple or not, regular or not."""

    def test_matches_the_oracle_and_certifies(self, hirzebruch, a2_resolution, triangle_pair):
        rng = random.Random(4601)
        cases = [(arr, list(itertools.product(FULL_ALPHABET, repeat=arr.d)))
                 for arr in (hirzebruch, a2_resolution, triangle_pair)]
        draws = [random_integer_arrangement(rng, n) for n in (1, 2, 3) for _ in range(40)]
        draws += [random_smooth_arrangement(rng, max_d=7) for _ in range(40)]
        draws += [arrangement_with_parallel_normals(rng) for _ in range(20)]
        for arr in draws:
            patterns = [tuple(rng.choice(FULL_ALPHABET) for _ in range(arr.d)) for _ in range(12)]
            patterns += [tuple(rng.choice(NO_BOTH_ALPHABET) for _ in range(arr.d)) for _ in range(12)]
            cases.append((arr, patterns))
        assert sum(not is_simple(arr) for arr in draws) > 30
        assert sum(not is_regular(arr) for arr in draws) > 30
        counts = collections.Counter()
        for arr, patterns in cases:
            td = torus_data(arr)
            for pattern in patterns:
                numeric = hk_semistable_numeric(td, pattern)
                geometric = hk_semistable_geometric(arr, pattern)
                closed = hk_closed_orbit(td, pattern)
                assert numeric.semistable == geometric.semistable == numeric_semistable(td, pattern)
                assert closed == strictly_semistable(td, pattern)
                assert verify_certificate(numeric.system, numeric.certificate)
                assert verify_certificate(geometric.system, geometric.certificate)
                counts[numeric.semistable, closed] += 1
        # refutations, closed orbits, and semistable points whose orbit is
        # not closed, which only the strict tie refutes
        assert min(counts[False, False], counts[True, True], counts[True, False]) > 100

    def test_row_combination_is_one_product(self, hirzebruch, a2_resolution, triangle_pair, monkeypatch):
        # criterion 02's draws: each refutation's equality multipliers come
        # from one product with the torus data's row solver and equal the
        # solve by one elimination each; every Farkas vector the stability
        # command prints verifies. A hand-built basis with a repeated row
        # takes the first independent rows, as the elimination does
        rng = random.Random(20240502)
        cases = [(arr, FULL_ALPHABET) for arr in (hirzebruch, a2_resolution, triangle_pair)]
        cases += [(random_smooth_arrangement(rng, max_d=7), NO_BOTH_ALPHABET) for _ in range(100)]
        real = stability._row_combination
        solved = []

        def recording(td, target):
            mu = real(td, target)
            solved.append((td.basis, target, mu))
            return mu

        monkeypatch.setattr(stability, "_row_combination", recording)
        pick = random.Random(4603)
        tds = [torus_data(arr) for arr, _ in cases]
        hand = tds[0]
        tds.append(arrangement.TorusData(hand.basis + hand.basis[:1], hand.lifts))
        alphabets = [alphabet for _, alphabet in cases] + [FULL_ALPHABET]
        refuted = 0
        for td, alphabet in zip(tds, alphabets):
            patterns = list(itertools.product(alphabet, repeat=td.d))
            if len(patterns) > 60:
                patterns = pick.sample(patterns, 60)
            for pattern in patterns:
                verdict = hk_semistable_numeric(td, pattern)
                assert verify_certificate(verdict.system, verdict.certificate)
                refuted += not verdict.semistable
        monkeypatch.undo()
        assert len(solved) == refuted > 2000
        for basis, target, mu in solved:
            assert mu == util.row_combination_by_elimination(basis, target)
        assert all(td._row_solver[0] == tuple(range(td.m)) for td in tds[:-1])
        assert tds[-1]._row_solver[0] == tuple(range(hand.m))
        # targets with denominators: the combination's own coefficients
        for td in tds[:-1]:
            coefficients = tuple(F(pick.randint(-9, 9), pick.randint(1, 9)) for _ in range(td.m))
            target = [sum(c * row[i] for c, row in zip(coefficients, td.basis)) for i in range(td.d)]
            assert stability._row_combination(td, target) == coefficients

    def test_strict_ties(self):
        # a hyperplane listed twice: z on one copy and w on the other meet
        # at the hyperplane, never strictly; two ZERO copies keep their
        # equalities, so the tie refutes nothing
        arr = Arrangement(1, ((1,), (1,), (-1,)), (0, 0, 1))
        td = torus_data(arr)
        for pattern, closed in (((Z, W, B), False), ((O, O, B), True), ((Z, O, B), False)):
            assert hk_semistable_numeric(td, pattern).semistable
            assert hk_closed_orbit(td, pattern) is closed == strictly_semistable(td, pattern)

    def test_parallel_pairs_bound_each_other(self):
        # x <= t_1 and x >= t_2 on one class, z or w by orientation: the
        # pair refutes exactly when the interval is empty
        for lifts in itertools.product(range(-2, 3), repeat=3):
            arr = Arrangement(1, ((1,), (-1,), (1,)), lifts)
            td = torus_data(arr)
            for pattern in itertools.product(NO_BOTH_ALPHABET, repeat=3):
                verdict = hk_semistable_geometric(arr, pattern)
                assert verdict.semistable == numeric_semistable(td, pattern)
                assert verify_certificate(verdict.system, verdict.certificate)
                assert hk_closed_orbit(td, pattern) == strictly_semistable(td, pattern)

    def test_witnesses_are_vertices(self):
        # the geometric witness is a vertex of the arrangement, and the
        # numeric one that vertex's values on the rebuilt arrangement
        rng = random.Random(4602)
        for _ in range(20):
            arr = random_integer_arrangement(rng, rng.choice((1, 2, 3)))
            td = torus_data(arr)
            vertices = {point for point, _ in arr._faces.vertices}
            for pattern in itertools.product(NO_BOTH_ALPHABET, repeat=min(arr.d, 4)):
                pattern += (B,) * (arr.d - len(pattern))
                verdict = hk_semistable_geometric(arr, pattern)
                if verdict.semistable:
                    assert verdict.certificate.point in vertices
                    numeric = hk_semistable_numeric(td, pattern).certificate.point
                    assert util.mat_vec(td.basis, numeric) == td.alpha


class TestStateSet:
    def test_bottom_edge(self, hirzebruch):
        st = state_set(hirzebruch, (Z, O, Z, Z))
        assert is_feasible(st).feasible
        assert affine_dimension(st) == 1
        assert enumerate_vertices(st) == [(F(-1), F(-1)), (F(2), F(-1))]

    def test_empty_state(self, hirzebruch):
        st = state_set(hirzebruch, (O, Z, O, Z))
        assert not is_feasible(st).feasible

    def test_all_both_unconstrained(self, hirzebruch):
        st = state_set(hirzebruch, (B, B, B, B))
        assert st.constraints == ()
        assert affine_dimension(st) == 2


class TestOracleEquivalence:
    def test_toric_fixtures_exhaustive(self, hirzebruch, a2_resolution, triangle_pair):
        for arr in (hirzebruch, a2_resolution, triangle_pair):
            td = torus_data(arr)
            for support in all_supports(arr.d):
                pattern = support_pattern(arr.d, support)
                assert (
                    hk_semistable_numeric(td, pattern).semistable
                    == hk_semistable_geometric(arr, pattern).semistable
                )

    def test_hk_fixtures_exhaustive(self, hirzebruch, a2_resolution, triangle_pair):
        for arr in (hirzebruch, a2_resolution, triangle_pair):
            td = torus_data(arr)
            for pattern in itertools.product(FULL_ALPHABET, repeat=arr.d):
                numeric = hk_semistable_numeric(td, pattern)
                geometric = hk_semistable_geometric(arr, pattern)
                assert numeric.semistable == geometric.semistable
                assert verify_certificate(numeric.system, numeric.certificate)
                assert verify_certificate(geometric.system, geometric.certificate)

    def test_state_point_matches_witness(self, a2_resolution):
        verdict = hk_semistable_geometric(a2_resolution, (Z, W, O))
        assert verdict.semistable
        # the geometric witness is the point where the third hyperplane sits
        assert verdict.certificate.point == (F(0),)


class TestChart:
    def test_a2_examples(self, a2_resolution):
        assert chart_semistable(a2_resolution, (1, -1, 1), (Z, W, O))
        assert not chart_semistable(a2_resolution, (1, 1, 1), (Z, W, O))

    def test_all_both_compact_charts(self, hirzebruch, a2_resolution, triangle_pair):
        for arr in (hirzebruch, a2_resolution, triangle_pair):
            pattern = tuple(B for _ in range(arr.d))
            for eps in theta_cpt(arr):
                assert chart_semistable(arr, eps, pattern)

    def test_monotone_in_both(self, hirzebruch):
        rng = random.Random(4242)
        for _ in range(100):
            pattern = random_pattern(rng, 4)
            eps = random_sign_vector(rng, 4)
            widened = tuple(B for _ in pattern)
            if chart_semistable(hirzebruch, eps, pattern):
                assert chart_semistable(hirzebruch, eps, widened)

    def test_matches_numeric_chart_pattern(self, hirzebruch, a2_resolution, triangle_pair):
        # every sign vector and every pattern: the state set of the chart
        # pattern against the numeric system of the same pattern
        rng = random.Random(3141)
        arrangements = [hirzebruch, a2_resolution, triangle_pair]
        arrangements += [random_smooth_arrangement(rng, max_d=5) for _ in range(15)]
        for arr in arrangements:
            td = torus_data(arr)
            numeric = {}
            for eps in all_sign_vectors(arr.d):
                for pattern in itertools.product(FULL_ALPHABET, repeat=arr.d):
                    key = chart_pattern(eps, pattern)
                    if key not in numeric:
                        numeric[key] = hk_semistable_numeric(td, key).semistable
                    assert chart_semistable(arr, eps, pattern) == numeric[key]


class TestRealizability:
    def test_no_both_always(self, a2_resolution):
        for pattern in itertools.product(NO_BOTH_ALPHABET, repeat=3):
            assert pattern_realizable(a2_resolution, pattern)

    def test_single_both_blocked(self, a2_resolution):
        assert not pattern_realizable(a2_resolution, (B, Z, O))
        assert not pattern_realizable(a2_resolution, (Z, B, O))

    def test_full_both_allowed(self, a2_resolution):
        assert pattern_realizable(a2_resolution, (B, B, B))

    def test_matches_rank_oracle(self, hirzebruch, a2_resolution, trivial_product, triangle_pair):
        # the test on the direction classes against the rank test in R^d,
        # for every BOTH set, on smooth arrangements and on ones with
        # parallel normals (which need not be smooth)
        rng = random.Random(2718)
        arrangements = [hirzebruch, a2_resolution, trivial_product, triangle_pair]
        arrangements += [random_smooth_arrangement(rng, max_d=7) for _ in range(15)]
        arrangements += [arrangement_with_parallel_normals(rng) for _ in range(15)]
        assert any(not is_smooth(arr) for arr in arrangements)
        for arr in arrangements:
            td = torus_data(arr)
            for both in itertools.product((False, True), repeat=arr.d):
                pattern = tuple(B if b else rng.choice(NO_BOTH_ALPHABET) for b in both)
                both = tuple(i for i, status in enumerate(pattern) if status is B)
                assert pattern_realizable(arr, pattern) == rank_realizable(td, both)

    def test_every_both_set_matches_rank_oracle(self):
        # the class test against the rank test in R^d, on all 2^d BOTH sets
        # of two seeded arrangements per (n, d), plus arrangements with
        # parallel normals, where a BOTH set that splits a class fails
        rng = random.Random(1618)
        arrangements = [
            random_smooth_arrangement(rng, n=n, d=d)
            for n in (1, 2, 3)
            for d in range(n, 9)
            for _ in range(2)
        ]
        arrangements += [arrangement_with_parallel_normals(rng) for _ in range(15)]
        for arr in arrangements:
            td = torus_data(arr)
            for size in range(arr.d + 1):
                for both in itertools.combinations(range(arr.d), size):
                    pattern = tuple(B if i in both else Z for i in range(arr.d))
                    assert pattern_realizable(arr, pattern) == rank_realizable(td, both)


class TestReorientPattern:
    def test_identity(self):
        assert reorient_pattern((Z, W, O), (1, 1, 1)) == (Z, W, O)

    def test_swap(self):
        assert reorient_pattern((Z, W, O), (-1, -1, 1)) == (W, Z, O)

    def test_involution(self):
        rng = random.Random(7)
        for _ in range(50):
            pattern = random_pattern(rng, 5)
            eps = random_sign_vector(rng, 5)
            assert reorient_pattern(reorient_pattern(pattern, eps), eps) == pattern

    def test_both_and_zero_fixed(self):
        assert reorient_pattern((B, O), (-1, -1)) == (B, O)

    def test_reads_an_iterator_once(self):
        assert reorient_pattern(iter((Z, W, O)), (-1, 1, -1)) == (W, W, O)

    def test_rejects_non_status_entries(self):
        with pytest.raises(ValueError, match="Status"):
            reorient_pattern(("x", "y", "z"), (1, -1, 1))
        with pytest.raises(ValueError, match="length"):
            reorient_pattern((Z, W), (1, -1, 1))


class TestMonotonicity:
    def test_toric_support_growth(self, hirzebruch, a2_resolution):
        for arr in (hirzebruch, a2_resolution):
            td = torus_data(arr)
            for support in all_supports(arr.d):
                s = frozenset(support)
                if not hk_semistable_numeric(td, support_pattern(arr.d, s)).semistable:
                    continue
                for extra in range(arr.d):
                    assert hk_semistable_numeric(td, support_pattern(arr.d, s | {extra})).semistable

    def test_hk_both_replacement(self, a2_resolution):
        td = torus_data(a2_resolution)
        for pattern in itertools.product(FULL_ALPHABET, repeat=3):
            if not hk_semistable_numeric(td, pattern).semistable:
                continue
            for i in range(3):
                widened = tuple(
                    B if j == i else s for j, s in enumerate(pattern)
                )
                assert hk_semistable_numeric(td, widened).semistable


class TestReorientationCovariance:
    def test_fixtures(self, hirzebruch, a2_resolution, triangle_pair):
        rng = random.Random(1618)
        for arr in (hirzebruch, a2_resolution, triangle_pair):
            td = torus_data(arr)
            for _ in range(20):
                eps = random_sign_vector(rng, arr.d)
                td_eps = torus_data(reorient(arr, eps))
                for _ in range(10):
                    pattern = random_pattern(rng, arr.d)
                    assert (
                        hk_semistable_numeric(td, pattern).semistable
                        == hk_semistable_numeric(td_eps, reorient_pattern(pattern, eps)).semistable
                    )

    def test_chart_covariance(self, a2_resolution):
        rng = random.Random(2024)
        for _ in range(40):
            eps0 = random_sign_vector(rng, 3)
            flipped = reorient(a2_resolution, eps0)
            pattern = random_pattern(rng, 3)
            chart = random_sign_vector(rng, 3)
            relabeled = tuple(c * e for c, e in zip(chart, eps0))
            assert chart_semistable(a2_resolution, relabeled, pattern) == chart_semistable(
                flipped, chart, reorient_pattern(pattern, eps0)
            )


class TestBothReduction:
    def test_fixtures(self, hirzebruch, a2_resolution):
        for arr in (hirzebruch, a2_resolution):
            td = torus_data(arr)
            for pattern in itertools.product(FULL_ALPHABET, repeat=arr.d):
                if not pattern_realizable(arr, pattern):
                    continue
                if not hk_semistable_numeric(td, pattern).semistable:
                    continue
                reduced = both_reduction(td, pattern)
                assert B not in reduced
                assert hk_semistable_numeric(td, reduced).semistable
                for eps in all_sign_vectors(arr.d):
                    if chart_semistable(arr, eps, reduced):
                        assert chart_semistable(arr, eps, pattern)

    def test_rejects_unstable(self, a2_resolution):
        td = torus_data(a2_resolution)
        with pytest.raises(ValueError):
            both_reduction(td, (O, O, O))


class TestSupportPattern:
    def test_build(self):
        assert support_pattern(4, {0, 2}) == (Z, O, Z, O)

    def test_full(self):
        assert full_pattern((1, -1, 1)) == (Z, W, Z)


class TestRandomEquivalence:
    def test_random_smooth(self):
        rng = random.Random(5050)
        for _ in range(15):
            arr = random_smooth_arrangement(rng, max_d=5)
            td = torus_data(arr)
            for pattern in itertools.product(NO_BOTH_ALPHABET, repeat=arr.d):
                assert (
                    hk_semistable_numeric(td, pattern).semistable
                    == hk_semistable_geometric(arr, pattern).semistable
                )


class TestLetterRows:
    """Both systems' rows, pinned byte for byte, and tied to the letter masks."""

    @staticmethod
    def fixtures():
        return [parse_arrangement(p.read_text()) for p in sorted(FIXTURE_DIR.glob("*.json"))]

    def test_rows_digest(self):
        rng = random.Random(4007)
        cases = [(arr, FULL_ALPHABET) for arr in self.fixtures()]
        cases += [(random_smooth_arrangement(rng, max_d=6), NO_BOTH_ALPHABET) for _ in range(40)]
        digest = hashlib.sha256()
        for arr, alphabet in cases:
            td = torus_data(arr)
            for pattern in itertools.product(alphabet, repeat=arr.d):
                digest.update(repr(state_set(arr, pattern)).encode())
                digest.update(repr(stability._sign_system(td, pattern)).encode())
        assert digest.hexdigest() == LETTER_ROWS_DIGEST

    def test_rows_hold_where_masks_say(self):
        # each state row holds at a vertex iff the vertex's bit is set in
        # its letter's mask of the face record
        rng = random.Random(4009)
        arrangements = self.fixtures()
        arrangements += [random_smooth_arrangement(rng, max_d=6) for _ in range(40)]
        arrangements += [arrangement_with_parallel_normals(rng) for _ in range(20)]
        checked = 0
        for arr in arrangements:
            tables, _ = arr._faces.masks
            for j, (point, _) in enumerate(arr._faces.vertices):
                for i, letters in enumerate(tables):
                    for status in NO_BOTH_ALPHABET:
                        held = arr._state_rows[i][status].holds(point)
                        assert held == bool(letters[status] >> j & 1)
                        checked += 1
        assert checked > 1000

    def test_reorientation_swaps_z_and_w(self):
        swap = {Z: W, W: Z}
        for pattern in itertools.product(FULL_ALPHABET, repeat=3):
            for eps in all_sign_vectors(3):
                expected = tuple(
                    swap.get(status, status) if e == -1 else status for status, e in zip(pattern, eps)
                )
                assert reorient_pattern(pattern, eps) == expected


class TestPrefixTree:
    """``_cone_contains`` and the walk of ``_pattern_masks`` keep the
    prefixes whose letters hold at some vertex of the arrangement, with no
    refutation scan, on simple input and on input that is not simple
    alike."""

    @staticmethod
    def count_scans(monkeypatch):
        calls = []
        real = stability._refutation
        monkeypatch.setattr(stability, "_refutation", lambda *args, **kw: calls.append(args) or real(*args, **kw))
        return calls

    def test_matches_per_pattern_oracle(self, monkeypatch):
        rng = random.Random(4242)
        arrangements = [parse_arrangement(p.read_text()) for p in sorted(FIXTURE_DIR.glob("*.json"))]
        assert len(arrangements) == 5
        arrangements += [random_smooth_arrangement(rng, max_d=8) for _ in range(40)]
        parallel = [arrangement_with_parallel_normals(rng) for _ in range(20)]
        assert any(not is_smooth(arr) for arr in parallel)
        # two kinds of input that is not simple: three lines through the
        # origin (a vertex on n + 1 hyperplanes) and a hyperplane listed twice
        triple_point = Arrangement(2, ((1, 0), (0, 1), (-1, -1), (1, -1)), (0, 0, 1, 0))
        assert any(sigma.count(0) == 3 for _, sigma in arrangement._vertices(triple_point))
        coincident = Arrangement(2, ((1, 0), (-1, 0), (0, 1), (1, 1)), (1, -1, 0, 2))
        classes = arrangement._direction_classes(coincident)
        assert any(len({t for _, t in members}) < len(members) for _, members in classes)
        parallel += [triple_point, coincident]
        assert any(not is_simple(arr) for arr in parallel)
        for arr in arrangements + parallel:
            calls = self.count_scans(monkeypatch)
            nonempty = []
            for pattern in itertools.product(NO_BOTH_ALPHABET, repeat=arr.d):
                verdict = per_pattern_verdict(arr, pattern)
                assert stability._cone_contains(arr, pattern) == verdict
                if verdict:
                    nonempty.append(pattern)
            monkeypatch.undo()
            # the vertices decide every arrangement, simple or not
            assert calls == []
            # the tree's leaves are the nonempty state sets, in product order
            assert list(nonempty_patterns(arr)) == nonempty
            # the extended core lists the nonempty chambers, also on non-smooth
            # input, which render reads it on
            dense = set(nonempty)
            chambers = [eps for eps in all_sign_vectors(arr.d) if full_pattern(eps) in dense]
            assert [c.eps for c in quotient._extended_core_cached(arr).core] == chambers

    def test_within_keeps_the_leaves_that_meet_it(self):
        # masks only shrink along the walk, so pruning the prefixes that
        # miss ``within`` keeps exactly the leaves that meet it, in order,
        # and visits fewer prefixes
        rng = random.Random(3301)
        arrangements = [random_smooth_arrangement(rng, max_d=7) for _ in range(20)]
        arrangements += [arrangement_with_parallel_normals(rng) for _ in range(10)]
        alphabets = [None, (Z, W), FULL_ALPHABET, (B,)]
        pruned = avoided = 0
        for arr in arrangements:
            everything = arr._faces.masks[1]
            for letters in alphabets:
                rows = None if letters is None else walk_rows(arr, [letters] * arr.d)
                full = list(stability._pattern_masks(arr, rows))
                assert list(stability._pattern_masks(arr, rows, everything)) == full
                assert list(stability._pattern_masks(arr, rows, 0)) == []
                for _ in range(3):
                    within = rng.getrandbits(everything.bit_length()) & everything
                    kept = list(stability._pattern_masks(arr, rows, within))
                    assert kept == [(p, mask) for p, mask in full if mask & within]
                    pruned += len(full) - len(kept)
                    # ``avoid`` drops the leaves that meet it, and only those
                    avoid = rng.getrandbits(everything.bit_length()) & everything
                    kept = list(stability._pattern_masks(arr, rows, within, avoid))
                    assert kept == [(p, mask) for p, mask in full if mask & within and not mask & avoid]
                    avoided += sum(1 for _, mask in full if mask & within and mask & avoid)
                assert list(stability._pattern_masks(arr, rows, avoid=everything)) == []
                assert list(stability._pattern_masks(arr, rows, avoid=0)) == full
        assert pruned > 1000 and avoided > 1000

    def test_walk_keeps_letter_bits_above_the_vertices(self):
        # the root keeps every bit, so bits a caller puts above the vertex
        # mask ride down the walk: a leaf's high bits are the AND of its
        # letters' own, and the leaves and their vertex bits are the plain
        # walk's, since only the vertex bits are tested
        rng = random.Random(5203)
        arrangements = [random_smooth_arrangement(rng, max_d=7) for _ in range(20)]
        arrangements += [arrangement_with_parallel_normals(rng) for _ in range(10)]
        kept = 0
        for arr in arrangements:
            everything = arr._faces.masks[1]
            shift = everything.bit_length()
            for letters in (NO_BOTH_ALPHABET, (Z, W), FULL_ALPHABET):
                rows = walk_rows(arr, [letters] * arr.d)
                high = [{status: rng.getrandbits(12) for status, _ in row} for row in rows]
                tagged = [
                    tuple((status, mask | high[i][status] << shift) for status, mask in row)
                    for i, row in enumerate(rows)
                ]
                within = rng.getrandbits(shift) & everything
                for args in ((), (within,), (within, rng.getrandbits(shift) & everything)):
                    plain = list(stability._pattern_masks(arr, rows, *args))
                    leaves = list(stability._pattern_masks(arr, tagged, *args))
                    assert [(p, mask & everything) for p, mask in leaves] == plain
                    for pattern, mask in leaves:
                        bits = functools.reduce(operator.and_, (high[i][x] for i, x in enumerate(pattern)))
                        assert mask >> shift == bits
                        kept += bits != 0
        assert kept > 100

    def test_indices_read_the_set_bits_low_to_high(self):
        # the one decoder of a vertex mask against shift-and-test, 0 too
        rng = random.Random(77)
        masks = [0, 1, 2, 3, 1 << 200, (1 << 200) - 1]
        masks += [rng.getrandbits(rng.randint(1, 300)) for _ in range(200)]
        for mask in masks:
            assert list(stability._indices(mask)) == [j for j in range(mask.bit_length()) if mask >> j & 1]

    def test_extended_core_expands_dense_prefixes_only(self, hirzebruch, triangle_pair, monkeypatch):
        # the chamber walk hands _pattern_masks one Z and one W letter per
        # coordinate, each its letter table's vertex mask below the ray
        # bits, so it never forms a ZERO prefix, and it forms the two
        # children of each nonempty dense prefix shorter than d and of
        # nothing else: the rows, wrapped in logging masks, log each AND
        # the walk takes
        rng = random.Random(31)
        arrangements = [hirzebruch, triangle_pair]
        arrangements += [random_smooth_arrangement(rng, n=n, d=d) for n in (2, 3) for d in (4, 6, 8)]
        real = quotient._pattern_masks
        for arr in arrangements:
            log, walks = [], []
            tables, every = arr._faces.masks

            def logged(a, rows, *args):
                walks.append(args)
                for i, row in enumerate(rows):
                    assert [(e, mask & every) for e, mask in row] == [(-1, tables[i][W]), (1, tables[i][Z])]
                rows = [
                    tuple((e, util._LoggedMask(mask, (i, stability._LETTER[e]), log)) for e, mask in row)
                    for i, row in enumerate(rows)
                ]
                return real(a, rows, *args)

            monkeypatch.setattr(quotient, "_pattern_masks", logged)
            calls = self.count_scans(monkeypatch)
            # the walk runs afresh, not on a kept record, in one walk
            core = quotient._core_walk(arr).core
            monkeypatch.undo()
            assert core == extended_core(arr)
            assert walks == [()]
            dense = walk_rows(arr, [(Z, W)] * arr.d)
            expanded = [()] + [p for k in range(1, arr.d) for p in nonempty_patterns(arr, [(Z, W)] * k)]
            assert collections.Counter(log) == collections.Counter(
                (len(p), status) for p in expanded for status, _ in dense[len(p)]
            )
            assert {status for _, status in log} == {Z, W}
            assert calls == []

    def test_chamber_walk_matches_the_reduce_oracle(self):
        # the walk's classification, the AND its path has made, equals one
        # reduce over each chamber's d ray masks, and each bounded
        # chamber's mask is its dense pattern's: on smooth draws and on
        # draws that are not smooth, which render reads the walk on
        rng = random.Random(4811)
        arrangements = [random_smooth_arrangement(rng, max_d=8) for _ in range(40)]
        arrangements += [arrangement_with_parallel_normals(rng) for _ in range(40)]
        arrangements += [random_integer_arrangement(rng, n) for n in (1, 2, 3) for _ in range(15)]
        assert sum(not is_smooth(arr) for arr in arrangements) > 40
        bounded = unbounded = 0
        for arr in arrangements:
            walk = quotient._core_walk(arr)
            assert walk.core == util.reduce_classified_core(arr)
            assert walk.masks == tuple(
                stability._pattern_mask(arr, full_pattern(c.eps))
                for c in walk.core
                if c.classification == quotient.BOUNDED
            )
            bounded += len(walk.masks)
            unbounded += len(walk.core) - len(walk.masks)
        assert bounded > 300 and unbounded > 300

    def test_covering_lp_budget(self, monkeypatch):
        arr = random_smooth_arrangement(random.Random(10), n=2, d=10, require_core=True)
        calls = self.count_scans(monkeypatch)
        assert verify_covering(arr).covered
        assert calls == []

    def test_sweeps_solve_no_lp_on_smooth_input(self, monkeypatch):
        # on arrangements parsed or drawn here, so with no record built yet,
        # the tree of a smooth (hence simple) arrangement is read off its
        # vertices: the sweeps solve no LP at all
        rng = random.Random(1975)
        arrangements = [parse_arrangement(p.read_text()) for p in sorted(FIXTURE_DIR.glob("*.json"))]
        assert len(arrangements) == 5
        arrangements += [random_smooth_arrangement(rng, max_d=7) for _ in range(20)]
        swept = 0
        for arr in arrangements:
            calls = self.count_scans(monkeypatch)
            components = extended_core(arr)
            if any(c.classification == quotient.BOUNDED for c in components):
                assert verify_covering(arr).covered
                swept += 1
            quotient.chart_complement(arr, components[0].eps)
            monkeypatch.undo()
            assert calls == []
        assert swept >= 10


class TestNumericChambers:
    """The numeric side of the density check: the sign vectors whose numeric
    system has a vertex conforming to them, read from the torus data alone
    with no LP, on simple and smooth input and on input that is not."""

    def test_matches_lp_oracle(self, monkeypatch):
        rng = random.Random(2011)
        arrangements = [parse_arrangement(p.read_text()) for p in sorted(FIXTURE_DIR.glob("*.json"))]
        assert len(arrangements) == 5
        arrangements += [random_smooth_arrangement(rng, max_d=8) for _ in range(80)]
        other = [arrangement_with_parallel_normals(rng) for _ in range(80)]
        # degenerate numeric systems: a vertex on n + 1 lines, alpha = 0
        # (every sign vector), and d = n (no equality row)
        other += [
            Arrangement(2, ((1, 0), (0, 1), (-1, -1), (1, -1)), (0, 0, 1, 0)),
            Arrangement(2, ((1, 0), (0, 1), (1, 1), (1, -1)), (0, 0, 0, 0)),
            Arrangement(2, ((1, 0), (0, 1)), (F(1, 2), -3)),
        ]
        assert sum(not is_simple(arr) for arr in other) >= 10
        assert sum(not is_smooth(arr) for arr in other) >= 10
        checked = 0
        for arr in arrangements + other:
            td = torus_data(arr)
            calls = TestPrefixTree.count_scans(monkeypatch)
            numeric = stability._numeric_chambers(td)
            monkeypatch.undo()
            assert calls == []
            assert numeric == numeric_density(td)
            checked += 2**arr.d
        assert checked > 5000
        assert stability._numeric_chambers(torus_data(other[-2])) == set(all_sign_vectors(4))

    def test_matches_per_subset_solves(self, monkeypatch):
        # one elimination and one exchange block per column set give the
        # set that one square solve per column set gives: on 400 draws, the
        # fixtures, input that is not regular (its basis comes from
        # kernel_lattice) and bases whose leading columns are dependent.
        # Blocks of size 2 take Cramer's rule, those of size 3 one product
        # with their scaled inverse, which more than 50 nonsingular ones reach
        rng = random.Random(5)
        tds = [torus_data(random_smooth_arrangement(rng, max_d=8)) for _ in range(400)]
        assert sum(min(td.m, td.n) >= 2 for td in tds) > 100
        assert sum(min(td.m, td.n) >= 3 for td in tds) > 50
        inverses = []
        inner = stability._scaled_inverse
        monkeypatch.setattr(
            stability, "_scaled_inverse", lambda mat: inverses.append(inner(mat)) or inverses[-1]
        )
        fixtures = [parse_arrangement(p.read_text()) for p in sorted(FIXTURE_DIR.glob("*.json"))]
        assert len(fixtures) == 5
        tds += [torus_data(arr) for arr in fixtures]
        irregular = [arrangement_with_parallel_normals(rng) for _ in range(60)]
        irregular = [arr for arr in irregular if not is_regular(arr)]
        assert len(irregular) >= 20
        tds += [torus_data(arr) for arr in irregular]
        # m = 2: column 1 is twice column 0, so the pivots are columns 0
        # and 2; m = 3: columns 0-2 have rank 2
        tds.append(TorusData(((1, 2, 0, 1, 3), (2, 4, 1, 0, -1)), (1, F(1, 2), -3, 2, 0)))
        tds.append(
            TorusData(
                ((1, 0, 1, 0, 2, 1), (0, 1, 1, 1, 0, -1), (1, 1, 2, 0, 1, 1)),
                (F(-1, 3), 2, 0, 1, F(5, 2), -1),
            )
        )
        for td in tds:
            assert stability._numeric_chambers(td) == per_subset_numeric_chambers(td)
        assert sum(solved is not None for solved in inverses) > 50

    def test_basis_independent(self):
        # a unimodular change of the kernel basis (elementary row operations
        # on the basis and alpha together) keeps the set
        rng = random.Random(1729)
        changed = 0
        for _ in range(30):
            td = torus_data(random_smooth_arrangement(rng, max_d=7, require_core=True))
            rows = [list(row) + [a] for row, a in zip(td.basis, td.alpha)]
            for _ in range(4 * td.m + 1):
                i, j = rng.randrange(td.m), rng.randrange(td.m)
                if i == j:
                    rows[i] = [-x for x in rows[i]]
                else:
                    c = rng.choice((-2, -1, 1, 2))
                    rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
            other = TorusData([r[:-1] for r in rows], td.lifts)
            assert other.alpha == tuple(r[-1] for r in rows)
            changed += other.basis != td.basis
            expected = stability._numeric_chambers(td)
            assert stability._numeric_chambers(other) == expected
        assert changed >= 28

    def test_reads_only_basis_and_alpha(self, hirzebruch, monkeypatch):
        # no arrangement, lifts, vertex or circuit: the numeric side stays
        # independent of the chamber side it is checked against
        td = torus_data(hirzebruch)
        expected = numeric_density(td)

        def forbidden(*args):
            raise AssertionError("the numeric side read the chamber side")

        for name in ("_faces", "_vertices", "_pattern_mask", "_cone_contains", "_refutation"):
            monkeypatch.setattr(stability, name, forbidden)
        bare = types.SimpleNamespace(d=td.d, m=td.m, basis=td.basis, alpha=td.alpha)
        assert stability._numeric_chambers(bare) == expected

    def test_points_on_a_line(self):
        # the dichotomy on 15 points on a line, with no 2^15 loop: the
        # numeric set is the extended core's 16 chambers
        arr = Arrangement(1, ((1,),) * 15, tuple(-i for i in range(15)))
        numeric = stability._numeric_chambers(torus_data(arr))
        assert len(numeric) == 16
        assert numeric == {c.eps for c in extended_core(arr, force=True)}
