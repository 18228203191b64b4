import collections
import copy
import dataclasses
import functools
import gc
import hashlib
import itertools
import json
import math
import pathlib
import pickle
import random
import re
import types
import weakref
from fractions import Fraction

import pytest

from corecover import (
    Arrangement,
    BOUNDED,
    GuardError,
    UNBOUNDED,
    all_sign_vectors,
    chamber,
    chart_complement,
    core,
    core_empty_criterion,
    extended_core,
    format_pattern,
    format_sign_vector,
    hk_closed_orbit,
    hk_semistable_numeric,
    is_regular,
    is_simple,
    is_smooth,
    parse_arrangement,
    reorient,
    serialize_arrangement,
    theta_cpt,
    torus_data,
    trivial_factors,
    verify_covering,
    verify_density,
)
import corecover.arrangement as arrangement_module
import corecover.cli as cli
import corecover.linalg as linalg
import corecover.quotient as quotient
import corecover.stability as stability
from corecover.cli import main
from corecover.randgen import random_sign_vector, random_smooth_arrangement
from corecover.stability import (
    FULL_ALPHABET,
    NO_BOTH_ALPHABET,
    Status,
    chart_semistable,
    full_pattern,
    hk_semistable_geometric,
    hk_semistable_numeric,
    pattern_realizable,
    state_set,
)
import util
from util import (
    adjacency_lemma_check,
    affine_dimension,
    by_sign_letter_masks,
    candidate_complement,
    chamber_vertices,
    cycling_family,
    enumerate_vertices,
    full_walk_complement,
    is_bounded,
    mask_ray_signs,
    nonempty_patterns,
    numeric_complement,
    numeric_covering,
    per_arrangement_ray_signs,
    per_arrangement_vertices,
    per_leaf_complement,
    per_leaf_covering,
    three_class_arrangement,
    walk_rows,
)

F = Fraction

# The records an arrangement may keep (see ``Arrangement``), listed so that
# adding one is a deliberate change; ``_matroid`` keeps the arrangement's
# shared class-matroid record.
ARRANGEMENT_RECORDS = {
    "_cleared", "_classes", "_matroid", "_simple", "_torus", "_state_rows", "_faces", "_core_walk",
}


def count_scans(monkeypatch) -> list:
    """The calls of the signed-circuit refutation scan, the one place a
    verdict's proof is searched for; ``monkeypatch.undo()`` ends the count."""
    calls = []
    real = stability._refutation
    monkeypatch.setattr(
        stability, "_refutation", lambda *args, **kw: calls.append(args) or real(*args, **kw)
    )
    return calls


def complement_walk_ands(arr, eps) -> collections.Counter:
    """The ``(coordinate, letter)`` of each AND with a letter mask that the
    complement's walks take: per realizable class set, each letter of the
    row at coordinate k for each prefix of length k that they keep, the
    root and those whose mask has a vertex outside the chamber."""
    every = arr._faces.masks[1]
    outside = every ^ stability._pattern_mask(arr, full_pattern(eps))
    classes = arr._classes
    ands = collections.Counter()
    for chosen in arr._matroid.realizable:
        both = {i for k in chosen for i, _ in classes[k][1]}
        rows = walk_rows(arr, [(B,) if i in both else NO_BOTH_ALPHABET for i in range(arr.d)])
        kept = [()] if outside else []
        kept += [p for k in range(1, arr.d) for p, _ in stability._pattern_masks(arr, rows[:k], outside)]
        ands.update((len(p), status) for p in kept for status, _ in rows[len(p)])
    return ands


def held_records(arr) -> set:
    """The records an arrangement keeps: its attributes beyond the fields."""
    return set(vars(arr)) - {f.name for f in dataclasses.fields(arr)}
Z, W, O, B = Status.Z, Status.W, Status.ZERO, Status.BOTH
FIXTURE_DIR = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

# SHA-256 of the pickled (protocol 4) CoverReport of
# cycling_family(random.Random(1), 24), recorded with the covering loop that
# tested each leaf against every vertex group in turn.
COVER_PICKLE_DIGEST = "ef77c1330452c08d1969b380872814ba9a1ea851f65bfdfcbe1f8f4b8f277dad"

# SHA-256 of the pickled (protocol 4) hirzebruch arrangement and of its torus
# data, recorded before arrangements kept records.
HIRZEBRUCH_PICKLE_DIGEST = "75a3df30a5e2cb06af1e4110332b3811b1e21e670f711e9fc1fb0b81ac691e1b"
HIRZEBRUCH_TORUS_PICKLE_DIGEST = "82e50bdc4398f9c18bd66ff231db270095723914e56ba7ed6928d2de3cda2b36"


def _classification_population(rng, count):
    """Arrangements with primitive normals in [-2, 2]^n, n = 1-4, d <= 7,
    about a third of the hyperplanes parallel copies of earlier ones."""
    out = []
    while len(out) < count:
        n = rng.randint(1, 4)
        normals, lifts = [], []
        for _ in range(rng.randint(n, 7)):
            if normals and rng.random() < 0.3:
                sign = rng.choice((1, -1))
                normals.append(tuple(sign * x for x in rng.choice(normals)))
            else:
                normals.append(tuple(rng.randint(-2, 2) for _ in range(n)))
            lifts.append(F(rng.randint(-3, 3), rng.choice((1, 2, 3))))
        try:
            out.append(Arrangement(n, tuple(normals), tuple(lifts)))
        except ValueError:
            continue
    return out


class TestExtendedCore:
    def test_a2_classification(self, a2_resolution):
        table = {
            c.eps: c.classification for c in extended_core(a2_resolution)
        }
        assert table[(-1, 1, 1)] == UNBOUNDED      # [1, oo)
        assert table[(1, 1, 1)] == BOUNDED         # [1/2, 1]
        assert table[(1, -1, 1)] == BOUNDED        # [0, 1/2]
        assert table[(1, -1, -1)] == UNBOUNDED     # (-oo, 0]
        assert len(table) == 4  # exactly the nonempty chambers

    def test_trapezoid_core(self, hirzebruch):
        compact = core(hirzebruch)
        assert [c.eps for c in compact] == [(1, 1, 1, 1), (1, 1, 1, -1)]
        triangle = compact[1]
        assert enumerate_vertices(chamber(hirzebruch, triangle.eps)) == [
            (F(-1), F(1)),
            (F(-1), F(2)),
            (F(0), F(1)),
        ]
        assert all(affine_dimension(chamber(hirzebruch, c.eps)) == 2 for c in compact)

    def test_triangle_pair_core(self, triangle_pair):
        compact = core(triangle_pair)
        assert [c.eps for c in compact] == [(1, 1, 1, 1), (-1, 1, -1, 1)]
        assert enumerate_vertices(chamber(triangle_pair, compact[0].eps)) == [
            (F(-1), F(-1)),
            (F(-1), F(2)),
            (F(2), F(-1)),
        ]
        assert enumerate_vertices(chamber(triangle_pair, compact[1].eps)) == [
            (F(-2), F(3)),
            (F(-1), F(2)),
            (F(-1), F(3)),
        ]

    def test_product_core_empty(self, trivial_product):
        assert core(trivial_product) == ()

    def test_lists_only_nonempty_chambers(self, tmp_path, capsys):
        # 17 points on a line: 2^17 sign vectors, 18 nonempty chambers
        arr = Arrangement(1, ((1,),) * 17, tuple(-i for i in range(17)))
        components = extended_core(arr, force=True)
        assert [c.eps for c in components] == [
            (1,) * k + (-1,) * (17 - k) for k in range(17, -1, -1)
        ]
        assert sum(c.classification == BOUNDED for c in components) == 16
        path = tmp_path / "line17.json"
        path.write_text(serialize_arrangement(arr))
        assert main(["core", str(path), "--force"]) == 0
        assert json.loads(capsys.readouterr().out)["theta_cpt_count"] == 16

    def test_classification_solves_no_chamber_again(self, monkeypatch):
        # every listed chamber is a nonempty leaf of the tree and the ray
        # signs decide boundedness, so once the tree's chamber walk is done
        # the classification runs no refutation scan; each one is
        # is_bounded's, an LP of the oracle
        rng = random.Random(4669)
        for _ in range(20):
            arr = random_smooth_arrangement(rng, max_d=6)
            list(nonempty_patterns(arr, ((Z, W),) * arr.d))
            solved = count_scans(monkeypatch)
            components = extended_core(arr)
            monkeypatch.undo()
            assert solved == []
            for c in components:
                assert c.classification == (BOUNDED if is_bounded(chamber(arr, c.eps)) else UNBOUNDED)

    def test_classification_matches_is_bounded(self):
        # n = 1-4, d <= 7, primitive normals with parallel pairs; many of
        # the arrangements are not smooth, which render relies on
        population = _classification_population(random.Random(3881), 120)
        bounded = 0
        for arr in population:
            for c in quotient._extended_core_cached(arr).core:
                assert c.classification == (BOUNDED if is_bounded(chamber(arr, c.eps)) else UNBOUNDED)
                bounded += c.classification == BOUNDED
        assert {arr.n for arr in population} == {1, 2, 3, 4}
        assert 0 < sum(map(is_smooth, population)) < 120 and bounded > 100

    def test_ray_masks_match_ray_signs(self):
        # the AND of the ray masks along a chamber's letters is nonzero iff
        # some ray sign vector, recomputed for the arrangement alone,
        # conforms to its sign vector
        rng = random.Random(3882)
        population = _classification_population(rng, 120)
        population += [random_smooth_arrangement(rng, max_d=8) for _ in range(40)]
        unbounded = 0
        for arr in population:
            rays = per_arrangement_ray_signs(arr)
            for c in quotient._extended_core_cached(arr).core:
                expected = any(all(s * e >= 0 for s, e in zip(sigma, c.eps)) for sigma in rays)
                assert c.classification == (UNBOUNDED if expected else BOUNDED)
                unbounded += expected
        assert unbounded > 1000

    def test_ray_signs_on_a_line(self):
        # x = 0 and x = 1 with opposite normals: the only ray (1,) has signs
        # (+, -), its negation (-, +); [0, 1] is bounded, the half-lines not.
        # The one class holds the ray (bit 0) on its up side and the
        # negation (bit 1) on its down side
        arr = Arrangement(1, ((1,), (-1,)), (0, 1))
        assert arr._matroid.ray_masks == ((0b01, 0b10),)
        assert mask_ray_signs(arr) == ((1, -1), (-1, 1))
        table = {c.eps: c.classification for c in extended_core(arr)}
        assert table == {(1, 1): BOUNDED, (1, -1): UNBOUNDED, (-1, 1): UNBOUNDED}

    def test_ray_signs_independent_of_d(self, monkeypatch):
        # 3 direction classes of 10 or 20 hyperplanes in the plane: one
        # cofactor per class, so one bit pair each and at most 2 * C(3, 1)
        # sign vectors either way, the same set as the minors give, and one
        # factorisation per class basis, C(3, 2) of them, each basis giving
        # two of the cofactors. Both sizes have the same classes, so each
        # count starts from a cold record
        rng = random.Random(60)
        counts = []
        for arr in (three_class_arrangement(rng, k) for k in (10, 20)):
            arrangement_module._class_matroid.cache_clear()
            eliminations = []
            real = linalg._bareiss
            monkeypatch.setattr(linalg, "_bareiss", lambda *a: eliminations.append(a) or real(*a))
            signs = mask_ray_signs(arr)
            monkeypatch.undo()
            assert len(signs) <= 2 * math.comb(3, arr.n - 1)
            assert set(signs) == set(per_arrangement_ray_signs(arr))
            bits = max(mask.bit_length() for masks in arr._matroid.ray_masks for mask in masks)
            counts.append((len(signs), len(eliminations), bits))
        assert counts[0] == counts[1] == (6, 3, 6)

    def test_requires_smooth(self):
        bad = Arrangement(1, ((-1,), (1,), (1,)), (1, -1, 0))
        with pytest.raises(ValueError, match="not smooth"):
            extended_core(bad)

    def test_guard(self, a2_resolution, monkeypatch):
        monkeypatch.setattr(quotient, "DEFAULT_MAX_COVER_D", 2)
        with pytest.raises(GuardError):
            extended_core(a2_resolution)
        assert extended_core(a2_resolution, force=True)

    @pytest.mark.parametrize(
        "what, limit", [("covering sweep", None), ("complement sweep", "DEFAULT_MAX_COMPLEMENT_D")]
    )
    def test_guard_boundaries(self, what, limit):
        # the real limits, read by the guard alone, so no sweep runs: d at
        # the limit passes, one more is refused unless forced
        value = getattr(quotient, limit) if limit else quotient.DEFAULT_MAX_COVER_D
        at, above = (Arrangement(1, ((1,),) * d, tuple(range(d))) for d in (value, value + 1))
        passed = value if limit else None
        quotient._check_guard(at, False, what, passed)
        with pytest.raises(GuardError, match=f"d = {value + 1} > {value}"):
            quotient._check_guard(above, False, what, passed)
        quotient._check_guard(above, True, what, passed)

    def test_limits_are_the_documented_ones(self):
        # README states the limits: d = 12, and d = 9 for the 4^d complement
        text = " ".join((FIXTURE_DIR.parent / "README.md").read_text(encoding="utf-8").split())
        stated = re.search(r"refuse to run above `d = (\d+)` \(`d = (\d+)` for the `4\^d`", text)
        assert stated is not None
        assert (quotient.DEFAULT_MAX_COVER_D, quotient.DEFAULT_MAX_COMPLEMENT_D) == (12, 9)
        assert tuple(map(int, stated.groups())) == (12, 9)


class TestChamberVertices:
    """The CLI lists a bounded chamber's vertices as the arrangement's
    vertices whose sign vectors conform to the chamber's."""

    def test_matches_enumerate_vertices(self):
        # on every nonempty chamber, also of 2-D arrangements with parallel
        # lines and three or more lines through one point: dependent pairs of
        # lines are skipped and a point on more than two lines is listed once
        rng = random.Random(2718)
        fixtures = sorted(FIXTURE_DIR.glob("*.json"))
        arrangements = [parse_arrangement(p.read_text()) for p in fixtures]
        assert len(arrangements) == 5
        arrangements += [
            random_smooth_arrangement(rng, max_d=7, require_core=True) for _ in range(40)
        ]
        directions = ((1, 0), (0, 1), (1, 1), (1, -1), (1, 2))
        for _ in range(60):
            u, v = rng.sample(directions, 2)
            picks = [u, v, u] + [rng.choice(directions) for _ in range(rng.randint(0, 4))]
            normals = tuple(tuple(rng.choice((1, -1)) * x for x in w) for w in picks)
            arrangements.append(Arrangement(2, normals, tuple(rng.randint(-1, 1) for _ in picks)))
        assert sum(not is_simple(arr) for arr in arrangements) > 30
        listed = 0
        for arr in arrangements:
            for c in quotient._extended_core_cached(arr).core:
                assert chamber_vertices(arr, c.eps) == enumerate_vertices(chamber(arr, c.eps))
                listed += 1
        assert listed > 1000

    def test_solves_each_vertex_once(self, monkeypatch):
        # a cold class-matroid record makes one elimination per n-subset of
        # direction classes when the vertices are first listed, and keeps
        # the independent ones; each vertex is then one product with such an
        # inverse. A warm record eliminates nothing, and the chambers'
        # vertices are read from the list. On the trapezoid fixture that is
        # its 3 classes, all 3 pairs independent, and 5 vertices
        rng = random.Random(1618)
        arrangements = [parse_arrangement(p.read_text()) for p in sorted(FIXTURE_DIR.glob("*.json"))]
        arrangements += [random_smooth_arrangement(rng, max_d=7) for _ in range(10)]
        real = linalg._bareiss

        def counting(rows, width):
            result = real(rows, width)
            passes.append(len(result[0]) == len(rows))
            return result

        for arr in arrangements:
            reps = [r for r, _ in arrangement_module._direction_classes(arr)]
            subsets = list(itertools.combinations(reps, arr.n))
            independent = sum(util.rank(sub) == arr.n for sub in subsets)
            for warm in (False, True):
                # _vertices keeps nothing, so each list below is computed
                # afresh, on a copy that looks its class record up afresh
                arrangement_module._vertices(Arrangement(1, ((1,),), (0,)))
                if not warm:
                    arrangement_module._class_matroid.cache_clear()
                fresh = dataclasses.replace(arr)
                passes = []
                monkeypatch.setattr(linalg, "_bareiss", counting)
                vertices = arrangement_module._vertices(fresh)
                monkeypatch.undo()
                if warm:
                    assert passes == []
                else:
                    assert len(passes) == len(subsets) and passes.count(True) == independent
            components = quotient._extended_core_cached(arr).core
            passes = []
            monkeypatch.setattr(linalg, "_bareiss", counting)
            for c in components:
                chamber_vertices(arr, c.eps)
            monkeypatch.undo()
            assert passes == []
            if is_simple(arr):
                # one vertex per independent n-subset of hyperplanes
                assert len(vertices) == sum(
                    util.rank([arr.normals[i] for i in sub]) == arr.n
                    for sub in itertools.combinations(range(arr.d), arr.n)
                )
            if arr.name == "hirzebruch":
                assert (len(subsets), independent, len(vertices)) == (3, 3, 5)


class TestFaceRecord:
    """Each part of an arrangement's face record equals the same data built
    by another route: the vertices, in order, as one solve per n-subset of
    hyperplanes; boundedness as the conformance test over the ray sign
    vectors of the arrangement alone; the letter masks vertex by vertex;
    and each vertex's first compact chamber from one chamber mask per
    bounded chamber. On fixtures, seeded draws, input that is not regular,
    where vertices have denominators from determinants above 1, and input
    that is not simple."""

    @staticmethod
    def population():
        rng = random.Random(3883)
        arrangements = [parse_arrangement(p.read_text()) for p in sorted(FIXTURE_DIR.glob("*.json"))]
        assert len(arrangements) == 5
        arrangements += [random_smooth_arrangement(rng, max_d=7) for _ in range(30)]
        arrangements += _classification_population(rng, 60)
        arrangements += [
            # normals (1, 2) and (2, 1) have determinant -3
            Arrangement(2, ((1, 2), (2, 1), (1, 0), (0, -1)), (0, 1, F(-1, 2), 2)),
            Arrangement(2, ((1, 2), (-2, -1), (1, 1), (1, 2)), (1, 0, -1, -2)),
            # three lines through the origin, and a hyperplane listed twice
            Arrangement(2, ((1, 0), (0, 1), (-1, -1), (1, -1)), (0, 0, 1, 0)),
            Arrangement(2, ((1, 0), (-1, 0), (0, 1), (1, 1)), (1, -1, 0, 2)),
        ]
        return arrangements

    def test_matches_other_routes(self):
        arrangements = self.population()
        scaled = not_simple = bounded = owned = 0
        for arr in arrangements:
            faces = arr._faces
            assert faces.vertices == per_arrangement_vertices(arr)
            assert faces.masks == by_sign_letter_masks(faces.vertices, arr.d)
            rays = per_arrangement_ray_signs(arr)
            for c in quotient._extended_core_cached(arr).core:
                expected = any(all(s * e >= 0 for s, e in zip(sigma, c.eps)) for sigma in rays)
                assert c.classification == (UNBOUNDED if expected else BOUNDED)
                bounded += not expected
            walk = quotient._extended_core_cached(arr)
            # the walk keeps each bounded chamber's vertex mask, in core order
            assert walk.masks == tuple(
                quotient._chamber_mask(arr, c.eps) for c in walk.core if c.classification == BOUNDED
            )
            if is_smooth(arr):
                components = extended_core(arr)
                if any(c.classification == BOUNDED for c in components):
                    verify_covering(arr)
                chart_complement(arr, components[0].eps)
                owned += 1
            # the face record holds exactly what _faces builds, the walk rows
            # of each walked alphabet included; the walk's results live in
            # their own record, and no sweep writes into the face record
            assert set(vars(arr._faces)) == {"vertices", "masks", "rows"}
            assert arr._faces == stability._faces(arr)
            for alphabet, rows in arr._faces.rows.items():
                assert rows == walk_rows(arr, (alphabet,) * arr.d)
            # the core walk builds its Z and W rows from the tables
            assert set(arr._faces.rows) == {NO_BOTH_ALPHABET, (B,)}
            scaled += any(den > 1 for _, den, _ in arr._matroid.bases)
            not_simple += not is_simple(arr)
        assert scaled > 40 and not_simple > 10 and bounded > 200 and owned > 40

class TestCoreEmptyCriterion:
    def test_trapezoid(self, hirzebruch):
        report = core_empty_criterion(hirzebruch)
        assert report.bounded_exists and report.trivial_indices == () and report.agree

    def test_product(self, trivial_product):
        report = core_empty_criterion(trivial_product)
        assert not report.bounded_exists
        assert report.trivial_indices == (2,)
        assert report.agree

    def test_disagreement_reported(self, hirzebruch, trivial_product, monkeypatch):
        # the two sides are compared, not assumed to agree: a split-factor
        # side made wrong on purpose turns agree off
        monkeypatch.setattr(quotient, "trivial_factors", lambda arr: () if arr is trivial_product else (0,))
        for arr, bounded in ((hirzebruch, True), (trivial_product, False)):
            report = core_empty_criterion(arr)
            assert report.bounded_exists is bounded
            assert report.trivial_indices == (() if arr is trivial_product else (0,))
            assert report.agree is False

    def test_random_agreement_surfaced(self):
        rng = random.Random(6174)
        disagreements = []
        for _ in range(25):
            arr = random_smooth_arrangement(rng, max_d=6)
            report = core_empty_criterion(arr)
            if not report.agree:
                disagreements.append(arr)
        assert disagreements == []

    def test_bounded_components_full_dimensional(self):
        # smooth arrangements admit no lower-dimensional nonempty chambers,
        # which is why core() keeps every bounded chamber untested
        rng = random.Random(112358)
        for _ in range(20):
            arr = random_smooth_arrangement(rng, max_d=5)
            for component in extended_core(arr):
                assert affine_dimension(chamber(arr, component.eps)) == arr.n


class TestVerifyCovering:
    def test_a2(self, a2_resolution):
        report = verify_covering(a2_resolution)
        assert report.covered
        assert len(report.witness) == 7
        assert report.witness[(Z, W, O)] == (1, -1, 1)
        assert report.counterexamples == ()

    def test_trapezoid(self, hirzebruch):
        report = verify_covering(hirzebruch)
        assert report.covered
        # every semistable pattern of the 3^4 sweep is witnessed
        td = torus_data(hirzebruch)
        semistable = sum(
            1
            for pattern in itertools.product((Z, W, O), repeat=4)
            if hk_semistable_numeric(td, pattern).semistable
        )
        assert len(report.witness) == semistable

    def test_triangle_pair(self, triangle_pair):
        assert verify_covering(triangle_pair).covered

    def test_empty_core_rejected(self, trivial_product):
        with pytest.raises(ValueError, match="covering theorem hypothesis violated"):
            verify_covering(trivial_product)

    def test_witnesses_reverify(self, a2_resolution):
        report = verify_covering(a2_resolution)
        for pattern, eps in report.witness.items():
            assert eps in theta_cpt(a2_resolution)
            assert chart_semistable(a2_resolution, eps, pattern)

    def test_deterministic(self, a2_resolution, hirzebruch):
        for arr in (a2_resolution, hirzebruch):
            assert verify_covering(arr) == verify_covering(arr)
            assert chart_complement(arr, tuple(1 for _ in range(arr.d))) == chart_complement(
                arr, tuple(1 for _ in range(arr.d))
            )


class TestVertexMasks:
    """Every chart verdict is an AND of vertex masks: the covering's
    witnesses and the complement's exclusions equal one chart LP per leaf,
    and covering holds iff every vertex lies on a bounded chamber."""

    @staticmethod
    def fixtures_with_core():
        arrangements = [parse_arrangement(p.read_text()) for p in sorted(FIXTURE_DIR.glob("*.json"))]
        assert len(arrangements) == 5
        return [arr for arr in arrangements if theta_cpt(arr)]

    def test_covering_matches_per_leaf_oracle(self):
        rng = random.Random(2718)
        arrangements = self.fixtures_with_core()
        arrangements += [random_smooth_arrangement(rng, require_core=True, max_d=8) for _ in range(40)]
        assert max(arr.d for arr in arrangements) == 8
        for arr in arrangements:
            report, expected = verify_covering(arr), per_leaf_covering(arr)
            assert report == expected
            # the witness dict keeps the walk's product order
            assert list(report.witness) == list(expected.witness)

    def test_vertex_indices_match_per_leaf_oracle(self, monkeypatch):
        # d <= 7; then with every bounded chamber but the first relabelled
        # unbounded, so that vertices lose their index and leaves become
        # counterexamples, listed as the oracle lists them. The patched walk
        # record agrees with itself: its one bounded mask is the first
        # chamber's
        rng = random.Random(2719)
        arrangements = [random_smooth_arrangement(rng, require_core=True, max_d=7) for _ in range(30)]
        counterexamples = 0
        for arr in arrangements:
            assert verify_covering(arr) == per_leaf_covering(arr)
            walk = quotient._extended_core_cached(arr)
            first = next(c for c in walk.core if c.classification == BOUNDED)
            fewer = tuple(
                c if c is first else quotient.CoreComponent(c.eps, UNBOUNDED) for c in walk.core
            )
            patched = walk._replace(core=fewer, masks=walk.masks[:1])
            monkeypatch.setattr(quotient, "_extended_core_cached", lambda a: patched)
            report, expected = verify_covering(arr), per_leaf_covering(arr)
            monkeypatch.undo()
            assert report == expected
            assert list(report.witness) == list(expected.witness)
            counterexamples += len(report.counterexamples)
        assert counterexamples > 100

    def test_witness_is_first_chamber_not_any(self):
        # the per-vertex groups decide between chambers that share vertices:
        # some leaf has a later compact chamber whose chart holds it too
        rng = random.Random(2718)
        shared = 0
        for _ in range(40):
            arr = random_smooth_arrangement(rng, require_core=True, max_d=8)
            compact = theta_cpt(arr)
            for pattern, eps in verify_covering(arr).witness.items():
                later = compact[compact.index(eps) + 1:]
                shared += any(chart_semistable(arr, e, pattern) for e in later)
        assert shared > 0

    def test_complement_matches_per_leaf_oracle(self):
        rng = random.Random(2720)
        arrangements = self.fixtures_with_core()
        arrangements += [random_smooth_arrangement(rng, max_d=8) for _ in range(25)]
        assert max(arr.d for arr in arrangements) == 8
        for arr in arrangements:
            for c in extended_core(arr)[:3]:
                assert chart_complement(arr, c.eps) == per_leaf_complement(arr, c.eps)

    def test_pinned_cover_report(self):
        # n = 3, d = 24: 1,105 chambers and 7,825 leaves; the pickle pins
        # the witness dict's order and which chamber tuples it shares
        arr = cycling_family(random.Random(1), 24)
        report = verify_covering(arr, force=True)
        assert report.covered and len(report.witness) == 7825
        digest = hashlib.sha256(pickle.dumps(report, protocol=4)).hexdigest()
        assert digest == COVER_PICKLE_DIGEST
        assert quotient._covering_counts(arr, force=True) == (7825, ())

    def test_counts_match_witness_path(self, trivial_product, monkeypatch):
        # the CLI's counting path: as many witnessed leaves as the witness
        # dict holds, and the same counterexamples in the same order
        rng = random.Random(2722)
        arrangements = self.fixtures_with_core()
        arrangements += [random_smooth_arrangement(rng, require_core=True, max_d=8) for _ in range(40)]
        for arr in arrangements:
            report = verify_covering(arr)
            counts = quotient._covering_counts(arr)
            assert counts == (len(report.witness), report.counterexamples)
            # the count from masks alone equals the count over the leaves
            # the pattern walk yields
            assert counts == util.walk_leaf_counts(arr)
        # the same guards and empty-core error, in the same order: smooth
        # input first, then the guard, then a nonempty core
        not_smooth = Arrangement(1, ((-1,), (1,), (1,)), (1, -1, 0))
        for sweep in (verify_covering, quotient._covering_counts):
            with pytest.raises(ValueError, match="empty core"):
                sweep(trivial_product)
            monkeypatch.setattr(quotient, "DEFAULT_MAX_COVER_D", 2)
            with pytest.raises(ValueError, match="not smooth"):
                sweep(not_smooth)
            with pytest.raises(GuardError, match="covering sweep"):
                sweep(trivial_product)
            monkeypatch.undo()

    def test_counts_match_with_a_vertex_off_the_core(self, monkeypatch):
        # one more candidate ray, conforming to the first bounded chamber,
        # makes the core walk classify that chamber unbounded; the vertices
        # on no other bounded chamber lose their index, and both paths list
        # the same counterexamples
        rng = random.Random(2723)
        counterexamples = empty = 0
        for _ in range(30):
            arr = random_smooth_arrangement(rng, require_core=True, max_d=7)
            eps = theta_cpt(arr)[0]
            rays = [list(masks) for masks in arr._matroid.ray_masks]
            extra = 1 << max(mask.bit_length() for masks in rays for mask in masks)
            for (k, s), e in zip(arrangement_module._orientations(arr), eps):
                rays[k][e != s] |= extra
            # a copy whose own class record holds the extra ray
            patched = arrangement_module._ClassMatroid(arr._matroid.reps)
            patched.__dict__["ray_masks"] = tuple(map(tuple, rays))
            copy = dataclasses.replace(arr)
            copy.__dict__["_matroid"] = patched
            walk = quotient._extended_core_cached(copy)
            assert eps not in {c.eps for c in walk.core if c.classification == BOUNDED}
            if not walk.masks:
                empty += 1
                with pytest.raises(ValueError, match="empty core"):
                    quotient._covering_counts(copy)
                continue
            report = verify_covering(copy)
            assert report == per_leaf_covering(copy)
            counts = quotient._covering_counts(copy)
            assert counts == (len(report.witness), report.counterexamples)
            assert counts == util.walk_leaf_counts(copy)
            counterexamples += len(report.counterexamples)
        assert counterexamples > 100 and empty < 25

    def test_counts_match_independent_sets(self):
        # Zaslavsky's counts from the independent k-subsets of hyperplanes,
        # by rank: the chambers, the bounded ones, the vertices and the
        # faces, which are the covering's leaves
        rng = random.Random(5)
        population = [random_smooth_arrangement(rng, max_d=8) for _ in range(300)]
        population += [cycling_family(random.Random(1), d) for d in (24, 40)]
        with_core = 0
        for arr in population:
            counts = util.independent_counts(arr)
            assert sum(counts) == len(extended_core(arr, force=True))
            bounded = (-1) ** arr.n * sum((-1) ** k * count for k, count in enumerate(counts))
            assert bounded == len(core(arr, force=True))
            assert counts[arr.n] == len(arr._faces.vertices)
            if bounded:
                with_core += 1
                faces = sum(2**k * count for k, count in enumerate(counts))
                witnessed, counterexamples = util.walk_leaf_counts(arr)
                assert faces == witnessed + len(counterexamples)
                witnessed, counterexamples = quotient._covering_counts(arr, force=True)
                assert faces == witnessed + len(counterexamples)
        assert with_core > 100

    def test_pruned_complement_matches_oracles(self):
        # the walks skip the prefixes inside the chamber; the exclusions
        # equal one chart LP per leaf and the filter after the full walk
        rng = random.Random(2721)
        arrangements = self.fixtures_with_core()
        arrangements += [random_smooth_arrangement(rng, max_d=7) for _ in range(25)]
        axes = tuple(tuple(int(i == j) for j in range(6)) for i in range(6))
        arrangements.append(Arrangement(6, axes, (0, 1, -1, 2, F(1, 2), -3)))
        excluded = 0
        for arr in arrangements:
            for c in extended_core(arr)[:3]:
                report = chart_complement(arr, c.eps)
                assert report == per_leaf_complement(arr, c.eps)
                assert report == full_walk_complement(arr, c.eps)
                excluded += len(report.excluded_patterns)
        assert excluded > 1000
        # n = 2, d = 16: the LP oracle scans 2^16 index sets, so the full
        # walk's filter alone
        arr = random_smooth_arrangement(random.Random(3), n=2, d=16)
        for c in extended_core(arr, force=True)[::20]:
            report = chart_complement(arr, c.eps, force=True)
            assert report == full_walk_complement(arr, c.eps)

    def test_gluing_corollary(self):
        # on smooth input with a nonempty core, covering holds iff every
        # vertex lies on a bounded chamber
        rng = random.Random(5)
        arrangements = self.fixtures_with_core()
        arrangements += [random_smooth_arrangement(rng, max_d=10) for _ in range(300)]
        checked = 0
        for arr in arrangements:
            compact = theta_cpt(arr)
            if not compact:
                continue
            on_bounded = all(
                any(all(s * e >= 0 for s, e in zip(sigma, eps)) for eps in compact)
                for _, sigma in arrangement_module._vertices(arr)
            )
            assert verify_covering(arr).covered == on_bounded
            checked += 1
        assert checked >= 150


class TestNumericOracle:
    """The production sweeps decide on state sets; the numeric system in d
    variables must give equal reports."""

    def test_fixtures(self, hirzebruch, a2_resolution, triangle_pair):
        for arr in (hirzebruch, a2_resolution, triangle_pair):
            assert verify_covering(arr) == numeric_covering(arr)
            for eps in theta_cpt(arr):
                assert chart_complement(arr, eps) == numeric_complement(arr, eps)

    def test_random(self):
        rng = random.Random(6174)
        for _ in range(20):
            arr = random_smooth_arrangement(rng, max_d=6, require_core=True)
            assert verify_covering(arr) == numeric_covering(arr)
            eps = theta_cpt(arr)[0]
            assert chart_complement(arr, eps) == numeric_complement(arr, eps)

    def test_chart_pattern(self):
        # the toric pattern that the numeric chart oracles decide
        Z, W, O, B = Status.Z, Status.W, Status.ZERO, Status.BOTH
        assert util.chart_pattern((1, -1, 1, -1), (B, B, W, Z)) == (Z, W, O, O)
        assert util.chart_pattern((1, -1), (O, O)) == (O, O)


class TestSharedVerdicts:
    """Chambers, sweeps and charts read the arrangement's one face record, so
    a sweep after the complement solves no state set again, and nothing is
    kept per pattern."""

    def test_sweeps_share_verdicts(self, hirzebruch, monkeypatch):
        # a fresh copy: the session fixture keeps the records earlier tests
        # built
        arr = dataclasses.replace(hirzebruch)
        chart_complement(arr, (1, 1, 1, 1))
        extended_core(arr)
        calls = count_scans(monkeypatch)
        assert verify_covering(arr).covered
        assert len(calls) == 0
        assert all(verify_density(arr, eps) for eps in all_sign_vectors(arr.d))
        # the numeric side reads its vertices, the chamber side the walk's
        assert len(calls) == 0
        assert held_records(arr) <= ARRANGEMENT_RECORDS


    def test_complement_reads_covering_verdicts(self, hirzebruch, a2_resolution, monkeypatch):
        # a fresh copy, so the covering sweep below builds its records afresh
        arr = dataclasses.replace(hirzebruch)
        proofs = []
        for name in ("_vertex", "_letter_multipliers"):
            real = getattr(stability, name)
            monkeypatch.setattr(
                stability, name, lambda *args, real=real: proofs.append(args) or real(*args)
            )
        assert verify_covering(arr).covered
        solved = count_scans(monkeypatch)
        for eps in theta_cpt(arr):
            chart_complement(arr, eps)
        # the complement's walks and chart verdicts run no refutation scan
        assert solved == []
        assert held_records(arr) <= ARRANGEMENT_RECORDS
        # neither sweep reads a witness point or a Farkas vector
        assert proofs == []


class TestRecords:
    """Each arrangement keeps the data derived from it as records, built on
    first read: calls on several arrangements may interleave, pickles and
    copies carry the fields alone, and the records go with the arrangement."""

    @staticmethod
    def run_every_section(arr):
        # every report section, then the state rows and both sign rows
        eps = theta_cpt(arr)[0]
        args = types.SimpleNamespace(chart=format_sign_vector(eps), force=False)
        assert cli._report(arr, args)["complement"]["chart"] == args.chart
        chamber(arr, eps)
        pattern = full_pattern(eps)
        assert hk_semistable_numeric(torus_data(arr), pattern).semistable
        hk_closed_orbit(torus_data(arr), pattern)

    def test_interleaved_density_builds_each_record_once(self, monkeypatch):
        # alternating between two arrangements rebuilds nothing: each face
        # record, torus data and numeric chamber set is built once
        rng = random.Random(37)
        first, second = (random_smooth_arrangement(rng, n=2, d=7) for _ in range(2))
        built = collections.Counter()
        for module, name in (
            (stability, "_faces"),
            (stability, "_numeric_chambers"),
            (arrangement_module, "_build_torus_data"),
        ):
            real = getattr(module, name)
            monkeypatch.setattr(
                module, name, lambda owner, real=real, name=name: built.update([(name, id(owner))]) or real(owner)
            )
        for eps in all_sign_vectors(7):
            assert verify_density(first, eps) and verify_density(second, eps)
        expected = [(name, id(arr)) for arr in (first, second) for name in ("_faces", "_build_torus_data")]
        expected += [("_numeric_chambers", id(torus_data(arr))) for arr in (first, second)]
        assert built == collections.Counter(expected) and len(built) == 6

    def test_report_sections_leave_pickles_unchanged(self, hirzebruch):
        arr = dataclasses.replace(hirzebruch)
        blob = pickle.dumps(arr)
        td = torus_data(arr)
        torus_blob = pickle.dumps(td)
        self.run_every_section(arr)
        assert held_records(arr) == ARRANGEMENT_RECORDS
        assert {"_numeric_chambers", "_sign_rows"} <= set(vars(td))
        assert pickle.dumps(arr) == blob and pickle.dumps(td) == torus_blob
        assert hashlib.sha256(pickle.dumps(arr, protocol=4)).hexdigest() == HIRZEBRUCH_PICKLE_DIGEST
        assert hashlib.sha256(pickle.dumps(td, protocol=4)).hexdigest() == HIRZEBRUCH_TORUS_PICKLE_DIGEST
        # a copy or an unpickled arrangement holds the fields alone, and
        # builds its records on demand
        for back in (pickle.loads(blob), copy.copy(arr), copy.deepcopy(arr)):
            assert back == arr and repr(back) == repr(arr) and held_records(back) == set()
            assert extended_core(back) == extended_core(arr)
            assert "_core_walk" in held_records(back)
        back = pickle.loads(torus_blob)
        assert back == td and set(vars(back)) == {f.name for f in dataclasses.fields(td)}

    def test_lifts_are_cleared_once_per_arrangement(self, monkeypatch, hirzebruch):
        # the direction classes, the torus data and the vertices read the
        # lifts off the _cleared record; the earlier code cleared them
        # twice on preflight's checks and a third time once _faces was read
        rng = random.Random(4502)
        draws = [copy.copy(hirzebruch)]
        draws += [copy.copy(random_smooth_arrangement(rng, max_d=8)) for _ in range(20)]
        # its last two normals have determinant 2: the HNF path
        draws.append(Arrangement(2, ((0, 1), (1, 2), (1, 0)), (1, F(1, 2), F(-2, 3))))
        real, calls, hnf = arrangement_module._common_denominator, [], []
        monkeypatch.setattr(arrangement_module, "_common_denominator", lambda v: calls.append(v) or real(v))
        real_kernel = arrangement_module.kernel_lattice
        monkeypatch.setattr(arrangement_module, "kernel_lattice", lambda *a, **k: hnf.append(a) or real_kernel(*a, **k))
        for arr in draws:
            calls.clear()
            arrangement_module.is_regular(arr)
            arrangement_module.is_simple(arr)
            arrangement_module.torus_data(arr)
            arrangement_module.trivial_factors(arr)
            assert len(calls) == 1 and calls[0] is arr.lifts
            assert arr._faces and len(calls) == 1
        assert len(hnf) == 1

    def test_record_is_built_once_and_read_on_the_class_is_itself(self, monkeypatch, hirzebruch):
        arr = copy.copy(hirzebruch)
        built = []
        real = arrangement_module._clear_lifts
        monkeypatch.setattr(arrangement_module, "_clear_lifts", lambda a: built.append(a) or real(a))
        first = arr._cleared
        assert arr._cleared is first and built == [arr]
        assert first == (1, (1, 1, 1, 1))
        # later reads find the value in the instance dict
        assert vars(arr)["_cleared"] is first
        for owner in (Arrangement, arrangement_module.TorusData):
            for name, value in vars(owner).items():
                if isinstance(value, functools.cached_property):
                    assert type(value) is arrangement_module._Record
                    assert getattr(owner, name) is value

    def test_records_are_the_listed_ones(self):
        assert ARRANGEMENT_RECORDS == {
            name for name, value in vars(Arrangement).items() if isinstance(value, functools.cached_property)
        }

    def test_one_class_record_lookup_per_arrangement(self, monkeypatch, hirzebruch):
        # the four preflight checks and every report section read the
        # arrangement's _matroid record, which looks the shared record up
        # once; a cold cache or a warm one makes no difference
        rng = random.Random(4603)
        population = [hirzebruch] + [random_smooth_arrangement(rng, max_d=7, require_core=True) for _ in range(20)]
        lookups = []
        real = arrangement_module._class_matroid
        monkeypatch.setattr(arrangement_module, "_class_matroid", lambda reps: lookups.append(reps) or real(reps))
        for cold in (True, False):
            for arr in map(dataclasses.replace, population):
                if cold:
                    real.cache_clear()
                lookups.clear()
                assert is_regular(arr) and is_simple(arr) and trivial_factors(arr) == ()
                torus_data(arr)
                eps = theta_cpt(arr)[0]
                args = types.SimpleNamespace(chart=format_sign_vector(eps), force=False)
                cli._report(arr, args)
                chart_complement(arr, eps)
                chamber(arr, eps)
                assert lookups == [tuple(r for r, _ in arr._classes)]

    def test_record_without_a_name_raises_the_parent_error(self):
        bare = functools.cached_property(len)
        record = arrangement_module._Record(len)
        with pytest.raises(TypeError) as parent:
            bare.__get__([1], list)
        with pytest.raises(TypeError) as ours:
            record.__get__([1], list)
        assert str(ours.value) == str(parent.value)
        assert record.__get__(None, list) is record

    def test_records_are_freed_with_the_arrangement(self, hirzebruch):
        # no record refers back to its arrangement, so dropping the last
        # reference frees it at once, with no cycle for the collector
        arr = dataclasses.replace(hirzebruch)
        self.run_every_section(arr)
        freed = weakref.ref(arr)
        gc.disable()
        try:
            del arr
            assert freed() is None
        finally:
            gc.enable()


class TestComplementSweep:
    """The complement sweep walks the nonempty state sets of each realizable
    BOTH set, deciding BOTH letters at the vertices like any other, and
    keeps its caches free of BOTH patterns."""

    def test_both_verdicts_match_geometric(self, hirzebruch, a2_resolution, triangle_pair):
        rng = random.Random(1729)
        arrangements = [hirzebruch, a2_resolution, triangle_pair]
        arrangements += [random_smooth_arrangement(rng, max_d=5) for _ in range(15)]
        for arr in arrangements:
            walked = {}
            for pattern in itertools.product(FULL_ALPHABET, repeat=arr.d):
                if B in pattern and pattern_realizable(arr, pattern):
                    verdict = hk_semistable_geometric(arr, pattern).semistable
                    assert stability._cone_contains(arr, pattern) == verdict
                    semistable = walked.setdefault(tuple(status is B for status in pattern), [])
                    if verdict:
                        semistable.append(pattern)
            # the walk with BOTH on a realizable set lists exactly the
            # semistable patterns, in product order
            for both, semistable in walked.items():
                alphabets = [(B,) if b else NO_BOTH_ALPHABET for b in both]
                assert list(nonempty_patterns(arr, alphabets)) == semistable

    def test_memory_is_bounded(self, monkeypatch):
        # the walks keep nothing: the arrangement holds its declared records
        # and no verdict per pattern, even on the coordinate arrangement,
        # where all 4^d patterns are semistable and realizable
        axes = tuple(tuple(int(i == j) for j in range(6)) for i in range(6))
        coordinate = Arrangement(6, axes, (0, 1, -1, 2, F(1, 2), -3))
        eps = (1, -1, 1, -1, 1, -1)
        reads, log = [], []
        real_contains, real_mask = quotient._cone_contains, quotient._chamber_mask
        monkeypatch.setattr(quotient, "_cone_contains", lambda a, p: reads.append(p) or real_contains(a, p))
        monkeypatch.setattr(
            quotient, "_chamber_mask", lambda a, e: reads.append(full_pattern(e)) or real_mask(a, e)
        )
        # the letter masks of a recording copy log each AND a walk takes
        copy = util.recording_copy(coordinate, log)
        chart_complement(copy, eps)
        # the chamber's mask reads its d letters; the walks then form
        # exactly the prefixes with a vertex outside the chamber, and here
        # the one vertex lies on every chamber, so none
        assert log == list(enumerate(full_pattern(eps)))
        assert complement_walk_ands(coordinate, eps) == collections.Counter()
        # the chamber check is the one verdict read; every chart verdict is
        # an AND with the chamber's vertex mask
        assert reads == [full_pattern(eps)]
        records = held_records(copy)
        assert "_faces" in records and records <= ARRANGEMENT_RECORDS
        # n = 2, d = 16: the realizable class set of 8 hyperplanes once left
        # 3^8 fills; now the walks test fewer leaves, with one read in all
        arr = random_smooth_arrangement(random.Random(3), n=2, d=16)
        chamber = next(nonempty_patterns(arr, ((Z, W),) * arr.d))
        eps = tuple(1 if status is Z else -1 for status in chamber)
        reads.clear()
        log.clear()
        chart_complement(util.recording_copy(arr, log), eps, force=True)
        monkeypatch.undo()
        walks = collections.Counter(log[arr.d:])
        assert walks == complement_walk_ands(arr, eps)
        leaves = sum(count for (i, _), count in walks.items() if i == arr.d - 1)
        assert reads == [full_pattern(eps)] and 0 < leaves < 3**8


class TestAdjacencyLemma:
    def test_fixtures(self, hirzebruch, a2_resolution, triangle_pair):
        for arr in (hirzebruch, a2_resolution, triangle_pair):
            assert adjacency_lemma_check(arr)

    def test_chart_side_is_independent(self, a2_resolution, monkeypatch):
        # a chart oracle that rejects everything must break the lemma: the
        # chart side may not be read off the intersection it is checked on
        def never(td, pattern):
            return False

        monkeypatch.setattr(util, "numeric_semistable", never)
        assert adjacency_lemma_check(a2_resolution) is False

    def test_random(self):
        rng = random.Random(8128)
        for _ in range(10):
            arr = random_smooth_arrangement(rng, max_d=6, require_core=True)
            assert adjacency_lemma_check(arr)


class TestVerifyDensity:
    def test_a2_examples(self, a2_resolution):
        assert verify_density(a2_resolution, (1, 1, 1))
        assert verify_density(a2_resolution, (-1, 1, -1))

    def test_all_sign_vectors_all_fixtures(
        self, hirzebruch, a2_resolution, trivial_product, triangle_pair
    ):
        for arr in (hirzebruch, a2_resolution, trivial_product, triangle_pair):
            for eps in all_sign_vectors(arr.d):
                assert verify_density(arr, eps)


class TestChartComplement:
    def test_a2_all_plus(self, a2_resolution):
        report = chart_complement(a2_resolution, (1, 1, 1))
        assert report.excluded_patterns == ((Z, W, W), (Z, W, O))
        assert report.all_in_extended_core
        assert report.max_state_dim == 1
        assert report.component_breakdown == {
            (1, -1, 1): ((Z, W, O),),
            (1, -1, -1): ((Z, W, W), (Z, W, O)),
        }

    def test_trapezoid_all_plus(self, hirzebruch):
        report = chart_complement(hirzebruch, (1, 1, 1, 1))
        assert report.all_in_extended_core
        assert report.max_state_dim == 2
        assert report.excluded_patterns == (
            (W, Z, W, W),
            (W, Z, O, W),
            (O, Z, W, W),
            (O, Z, O, W),
        )

    def test_triangle_pair_all_plus(self, triangle_pair):
        """Criterion 10's counterevidence, pinned.

        The all-plus chart of the triangle pair misses two BOTH patterns.
        Hand check of ``*z*w``: the kernel vector (1, 0, -1, 0) of the
        relation matrix is supported on {H1, H3}, so the pattern is
        realizable; its state set is {x2 >= -1} ∩ {x2 >= 3} = {x2 >= 3}.
        Its chart pattern ``zzz0`` asks the all-plus chamber (where x2 <= 2)
        to meet H4 = {x2 = 3}, so the pattern lies outside the chart.
        """
        eps = (1, 1, 1, 1)
        report = chart_complement(triangle_pair, eps)
        assert [format_pattern(p) for p in report.excluded_patterns] == (
            "zzww zzw0 wzzw wzz0 wzww wzw0 wz0w wz00 0zww 0zw0 *z*w *z*0".split()
        )
        assert report == numeric_complement(triangle_pair, eps)
        assert not report.all_in_extended_core

    def test_max_state_dim_is_counted(self, hirzebruch, a2_resolution, triangle_pair, monkeypatch):
        # once covering has expanded the tree, the complement runs no scan:
        # max_state_dim is counted from the ZERO letters, not measured
        rng = random.Random(3141)
        arrangements = [hirzebruch, a2_resolution, triangle_pair]
        arrangements += [random_smooth_arrangement(rng, max_d=6, require_core=True) for _ in range(20)]
        measured = 0
        for arr in arrangements:
            verify_covering(arr)
            solved = count_scans(monkeypatch)
            reports = [chart_complement(arr, eps) for eps in theta_cpt(arr)]
            monkeypatch.undo()
            assert solved == []
            for report in (r for r in reports if r.all_in_extended_core):
                dims = [affine_dimension(state_set(arr, p)) for p in report.excluded_patterns]
                assert report.max_state_dim == max(dims, default=-1)
                measured += 1
        assert measured > 20

    def test_triangle_chart_contains_both_patterns(self, hirzebruch):
        # the complement of the triangle chart genuinely contains patterns
        # with live z and w on the same coordinate, so no dimension claim
        report = chart_complement(hirzebruch, (1, 1, 1, -1))
        assert not report.all_in_extended_core
        assert report.max_state_dim is None
        assert (B, W, B, Z) in report.excluded_patterns

    def test_own_full_pattern_never_excluded(self, hirzebruch, a2_resolution, triangle_pair):
        for arr in (hirzebruch, a2_resolution, triangle_pair):
            for eps in theta_cpt(arr):
                report = chart_complement(arr, eps)
                assert full_pattern(eps) not in report.excluded_patterns

    def test_excluded_reverify(self, a2_resolution):
        td = torus_data(a2_resolution)
        report = chart_complement(a2_resolution, (1, 1, 1))
        for pattern in report.excluded_patterns:
            assert hk_semistable_numeric(td, pattern).semistable
            assert not chart_semistable(a2_resolution, (1, 1, 1), pattern)

    def test_requires_nonempty_chamber(self, a2_resolution):
        with pytest.raises(ValueError, match="nonempty"):
            chart_complement(a2_resolution, (-1, -1, 1))

    def test_matches_candidate_sweep(self, hirzebruch, a2_resolution, triangle_pair):
        rng = random.Random(1618)
        arrangements = [hirzebruch, a2_resolution, triangle_pair]
        arrangements += [random_smooth_arrangement(rng, max_d=8) for _ in range(20)]
        for arr in arrangements:
            for eps in [c.eps for c in extended_core(arr)][:3]:
                assert chart_complement(arr, eps) == candidate_complement(arr, eps)
        # every BOTH set is realizable on the coordinate arrangement
        axes = tuple(tuple(int(i == j) for j in range(6)) for i in range(6))
        arr = Arrangement(6, axes, (0, 1, -1, 2, F(1, 2), -3))
        eps = (1, -1, 1, -1, 1, -1)
        assert chart_complement(arr, eps) == candidate_complement(arr, eps)

    def test_reads_one_verdict_per_leaf(self, hirzebruch, triangle_pair, monkeypatch):
        # the chamber check is the one verdict read; the walks, over every
        # realizable BOTH set, form the prefixes with a vertex outside the
        # chamber, and test each leaf below them against the chamber's
        # vertex mask, one AND at the last coordinate, instead of each
        # candidate of the 3^(d - |B|) fills of each
        rng = random.Random(1414)
        arrangements = [hirzebruch, triangle_pair]
        arrangements += [random_smooth_arrangement(rng, max_d=6) for _ in range(10)]
        read = candidates = 0
        real_contains, real_mask = quotient._cone_contains, quotient._chamber_mask
        for arr in arrangements:
            eps = extended_core(arr)[0].eps
            reads, log = [], []
            monkeypatch.setattr(
                quotient, "_cone_contains", lambda a, p: reads.append(p) or real_contains(a, p)
            )
            monkeypatch.setattr(
                quotient, "_chamber_mask", lambda a, e: reads.append(full_pattern(e)) or real_mask(a, e)
            )
            # the letter masks of a recording copy log each AND it takes
            report = chart_complement(util.recording_copy(arr, log), eps)
            monkeypatch.undo()
            assert report == chart_complement(arr, eps)
            assert reads == [full_pattern(eps)]
            # the chamber's mask reads its d letters first, then the walks
            # form the prefixes that keep a vertex outside it, and no other
            assert log[: arr.d] == list(enumerate(full_pattern(eps)))
            walks = collections.Counter(log[arr.d:])
            assert walks == complement_walk_ands(arr, eps)
            read += sum(count for (i, _), count in walks.items() if i == arr.d - 1)
            classes = arr._classes
            for chosen in arr._matroid.realizable:
                candidates += 3 ** (arr.d - sum(len(classes[k][1]) for k in chosen))
        assert 0 < read < candidates / 2

    def test_scans_class_subsets(self, monkeypatch):
        # the realizability candidates are the 2^D subsets of the D direction
        # classes, the empty one included, not the 2^d index subsets; every
        # test answers no, so no walk runs and only the scan does. The scan
        # runs once per class-matroid record: a second arrangement with the
        # same classes reads its list and tests nothing
        arrangements = [
            three_class_arrangement(random.Random(60), 20),
            random_smooth_arrangement(random.Random(3), n=2, d=16),
        ]
        for arr in arrangements:
            chamber = next(nonempty_patterns(arr, ((Z, W),) * arr.d))
            eps = tuple(1 if status is Z else -1 for status in chamber)
            arrangement_module._class_matroid.cache_clear()
            # a fresh copy looks its class record up after the clear; its
            # letter masks log each AND a sweep takes with them
            log = []
            arr = util.recording_copy(arr, log)
            chosen = []
            monkeypatch.setattr(
                arrangement_module._ClassMatroid,
                "independent",
                lambda self, c: chosen.append(c) or False,
            )
            report = chart_complement(arr, eps, force=True)
            # the chamber's mask reads its d letters, and no walk forms a
            # prefix
            assert report.excluded_patterns == () and log == list(enumerate(full_pattern(eps)))
            classes = len(arr._classes)
            assert len(chosen) == len(set(chosen)) == 2**classes == 8
            assert () in chosen
            chosen.clear()
            chart_complement(reorient(arr, (-1,) * arr.d), tuple(-e for e in eps), force=True)
            monkeypatch.undo()
            assert chosen == []


class TestReorientationEquivariance:
    def test_theta_cpt(self, hirzebruch, a2_resolution, triangle_pair):
        rng = random.Random(1729)
        for arr in (hirzebruch, a2_resolution, triangle_pair):
            base = set(theta_cpt(arr))
            for _ in range(8):
                eps0 = random_sign_vector(rng, arr.d)
                flipped = theta_cpt(reorient(arr, eps0))
                expected = {
                    tuple(e * e0 for e, e0 in zip(eps, eps0)) for eps in base
                }
                assert set(flipped) == expected

    def test_random_arrangements(self):
        rng = random.Random(9999)
        for _ in range(6):
            arr = random_smooth_arrangement(rng, max_d=5)
            eps0 = random_sign_vector(rng, arr.d)
            base = {
                tuple(e * e0 for e, e0 in zip(eps, eps0))
                for eps in theta_cpt(arr)
            }
            assert set(theta_cpt(reorient(arr, eps0))) == base


class TestSymmetries:
    """Four symmetries of an arrangement keep every answer: translating the
    lifts, a unimodular change of coordinates, permuting the hyperplanes
    (with the answers permuted alike) and scaling the lifts by a positive
    rational (``util.symmetries_hold``)."""

    def test_seeded_draws(self):
        rng = random.Random(31)
        draws = [random_smooth_arrangement(rng, max_d=7, require_core=True) for _ in range(150)]
        check = random.Random(32)
        assert all(util.symmetries_hold(arr, check) for arr in draws)

    def test_a_wrong_order_is_seen(self):
        # read back through no permutation, the permuted copy's answers differ
        rng = random.Random(33)
        differ = 0
        for _ in range(20):
            arr = random_smooth_arrangement(rng, max_d=7, require_core=True)
            patterns = [tuple(rng.choice(FULL_ALPHABET) for _ in range(arr.d)) for _ in range(8)]
            eps = tuple(rng.choice((1, -1)) for _ in range(arr.d))
            expected = util.symmetry_answers(arr, tuple(range(arr.d)), patterns, eps)
            permuted, order = util.symmetric_copies(arr, rng)[2]
            assert util.symmetry_answers(permuted, order, patterns, eps) == expected
            differ += util.symmetry_answers(permuted, tuple(range(arr.d)), patterns, eps) != expected
        assert differ > 10


class TestRandomDraws:
    def test_draws_with_a_core_past_the_cover_guard(self):
        # the generator's own core call lifts the guard, so draws with a
        # core come out at every d, not only up to the covering limit
        rng = random.Random(4604)
        for n in (1, 2, 3):
            for d in range(13, 17):
                arr = random_smooth_arrangement(rng, n=n, d=d, require_core=True)
                assert (arr.n, arr.d) == (n, d) and is_smooth(arr)
                assert core(arr, force=True)
                with pytest.raises(GuardError):
                    core(arr)
