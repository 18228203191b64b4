import dataclasses
import hashlib
import itertools
import math
import pathlib
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from corecover import (
    Arrangement,
    TorusData,
    all_sign_vectors,
    arrangement_from_quotient,
    chamber,
    chart_complement,
    hk_semistable_numeric,
    is_regular,
    is_simple,
    is_smooth,
    parse_arrangement,
    reorient,
    torus_data,
    trivial_factors,
)
import corecover.arrangement as arrangement
import corecover.linalg as linalg
import corecover.quotient as quotient
from corecover.linalg import transpose
from corecover.randgen import random_smooth_arrangement
from corecover.stability import FULL_ALPHABET
from fourier_motzkin import is_feasible
from util import (
    brute_force_simple,
    det,
    enumerate_vertices,
    is_primitive,
    kernel_by_two_hnf,
    lex_last_basis,
    mask_ray_signs,
    mat_vec,
    per_arrangement_circuits,
    per_arrangement_ray_signs,
    per_arrangement_realizable,
    per_arrangement_regular,
    per_arrangement_simple,
    per_arrangement_vertices,
    rank,
    subset_regular,
    subset_simple,
    subset_trivial_factors,
    three_class_arrangement,
)

F = Fraction

FIXTURE_DIR = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

# SHA-256 of repr(torus_data(arr)) over the fixtures and 200 draws of
# random_smooth_arrangement(random.Random(2503)), recorded with the earlier
# record that took d, m and alpha as constructor inputs.
TORUS_REPR_DIGEST = "2eea5f15370322862a2d08f9e9aa39abfbfe3033117e6cd51796754af5ee6f7f"

# SHA-256 of repr((normals, lifts)) of arrangement_from_quotient, or of the
# ValueError it raises, over _quotient_population(): the fixtures' torus
# data, 60 draws of random_smooth_arrangement(random.Random(3301)) and 300
# TorusData from random integer bases, recorded with the reconstruction
# that solved the square block once per coordinate.
QUOTIENT_DIGEST = "821bbcf993783d181e253d784e6d212d29534ad436964a97bb1bca9d4e1f32b0"

# SHA-256 of repr(Arrangement(*args)), or of the ValueError it raises, over
# _construct_population(), recorded with the constructor that proved
# spanning by the rank of all d normals.
CONSTRUCT_DIGEST = "e01bcf4255fac2970dfeebb2f7f9b4207d69d4c0dfce15e34acd31ce6bef3a2a"


def _construct_population():
    """Constructor inputs ``(n, normals, lifts, name)``. First 1,500 small
    draws: n = 1-4, d = n - 1 to n + 4, primitive normals with entries in
    [-3, 3], lifts as Fractions, ints or strings, and in about 9 of 12
    draws one fault planted: a bool or float entry, a normal doubled or
    zeroed, a normal one entry short or long, one lift more or less, a
    dimension that is no positive int, or every normal drawn in the
    hyperplane x_n = 0. Then, for n = 2-4 and d = 20, 100 and 300, normals
    whose first n span, and normals whose first d - 1 lie in x_n = 0 with
    a last one that spans or not."""
    rng = random.Random(3603)

    def primitive(width, last=None):
        while True:
            u = [rng.randint(-3, 3) for _ in range(width)]
            if last is not None:
                u[-1] = last
            if math.gcd(*u) == 1:
                return u

    out = []
    for k in range(1500):
        n = rng.randint(1, 4)
        d = rng.randint(n - 1, n + 4)
        normals = [primitive(n) for _ in range(d)]
        lifts = [rng.choice((F(a, q), a, f"{a}/{q}")) for a, q in
                 ((rng.randint(-6, 6), rng.choice((1, 2, 3))) for _ in range(d))]
        row = rng.choice(normals) if normals else []
        fault = rng.randrange(12)
        if fault == 0 and row:
            row[rng.randrange(n)] = rng.choice((True, False, 1.0))
        elif fault == 1:
            row[:] = [2 * x for x in row]
        elif fault == 2:
            row[:] = [0] * len(row)
        elif fault == 3:
            row.append(1)
        elif fault == 4 and row:
            row.pop()
        elif fault == 5:
            lifts.append(1)
        elif fault == 6 and lifts:
            lifts.pop()
        elif fault == 7:
            n = rng.choice((0, -1, True, float(n)))
        elif fault == 8 and n > 1:
            normals = [primitive(n, 0) for _ in range(d)]
        out.append((n, normals, lifts, f"draw {k}" if k % 3 == 0 else None))
    for n in (2, 3, 4):
        for d in (20, 100, 300):
            lifts = [F(rng.randint(-6, 6), rng.choice((1, 2))) for _ in range(d)]
            units = [[int(i == j) for j in range(n)] for i in range(n)]
            out.append((n, units + [primitive(n) for _ in range(d - n)], lifts, None))
            flat = [primitive(n, 0) for _ in range(d - 1)]
            out.append((n, flat + [primitive(n, rng.choice((1, -1)))], lifts, "spans last"))
            out.append((n, flat + [primitive(n, 0)], lifts, "flat"))
    return out


def _quotient_population():
    """Torus data of the fixtures and of seeded smooth draws, then 300
    TorusData whose basis is a random integer matrix (m = 1-3 rows, d = m +
    1 to 7 columns, entries in [-4, 4] with about 30% zeros, sometimes
    dependent rows) and whose lifts have mixed denominators; those are
    almost never regular."""
    tds = [torus_data(parse_arrangement(p.read_text())) for p in sorted(FIXTURE_DIR.glob("*.json"))]
    assert len(tds) == 5
    rng = random.Random(3301)
    tds += [torus_data(random_smooth_arrangement(rng)) for _ in range(60)]
    rng = random.Random(3302)
    for _ in range(300):
        m = rng.randint(1, 3)
        d = rng.randint(m + 1, 7)
        basis = []
        for _ in range(m):
            if basis and rng.random() < 0.15:
                a, b = rng.choice(basis), rng.choice(basis)
                basis.append(tuple(2 * x - y for x, y in zip(a, b)))
            else:
                basis.append(tuple(0 if rng.random() < 0.3 else rng.randint(-4, 4) for _ in range(d)))
        lifts = tuple(F(rng.randint(-5, 5), rng.choice((1, 2, 3, 5))) for _ in range(d))
        tds.append(TorusData(tuple(basis), lifts))
    return tds


class TestArrangementInvariants:
    def test_rejects_non_primitive(self):
        with pytest.raises(ValueError, match="normal 1 not primitive"):
            Arrangement(2, ((2, 0), (0, 1)), (0, 0))

    def test_rejects_zero_normal(self):
        with pytest.raises(ValueError, match="normal 2 not primitive"):
            Arrangement(2, ((1, 0), (0, 0)), (0, 0))

    def test_rejects_rank_deficiency(self):
        with pytest.raises(ValueError, match="normals do not span"):
            Arrangement(2, ((1, 0), (-1, 0)), (0, 1))

    def test_rejects_too_few_hyperplanes(self):
        with pytest.raises(ValueError):
            Arrangement(2, ((1, 0),), (0,))

    @pytest.mark.parametrize("n", [2.0, True, "2", 0, -1])
    def test_rejects_dimension_not_a_positive_int(self, n):
        # a float, a bool (an int subclass) or a string is refused at
        # construction, not by a later query
        with pytest.raises(ValueError, match="ambient dimension must be a positive integer"):
            Arrangement(n, ((1, 0), (0, 1), (1, 1)), (0, 0, 1))

    def test_lifts_coerced_to_fractions(self):
        arr = Arrangement(1, ((1,), (-1,)), ("1/2", 3))
        assert arr.lifts == (F(1, 2), F(3))

    @pytest.mark.parametrize("lifts", ["12", b"12"], ids=["str", "bytes"])
    def test_rejects_lifts_given_as_one_string(self, lifts):
        # iterated, the string would give the lifts (1, 2), the bytes (49, 50)
        with pytest.raises(ValueError, match="lifts must be a sequence of numbers, not a string"):
            Arrangement(1, ((1,), (-1,)), lifts)
        with pytest.raises(ValueError, match="lifts must be a sequence of numbers, not a string"):
            TorusData(((1, 1),), lifts)

    def test_name_checked_first(self):
        # the name is checked before anything else, as the parser did
        assert Arrangement(1, ((1,), (-1,)), (0, 1), name="pair").name == "pair"
        for normals in (((1,), (-1,)), ((2,), (1,))):
            with pytest.raises(ValueError, match="name must be a string"):
                Arrangement(1, normals, (0, 1), name=5)

    def test_construct_digest(self):
        # the same arrangements and the same first error, in the same order
        # of checks, on valid and faulty input up to d = 300
        digest = hashlib.sha256()
        for n, normals, lifts, name in _construct_population():
            try:
                line = repr(Arrangement(n, normals, lifts, name=name))
            except ValueError as exc:
                line = f"ValueError: {exc}"
            digest.update(line.encode() + b"\n")
        assert digest.hexdigest() == CONSTRUCT_DIGEST

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_spanning_check_stops_at_n(self, monkeypatch, n):
        # the first n of 300 normals span: n reductions and no elimination
        rng = random.Random(3604 + n)
        normals = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        normals += [(rng.choice((1, -1)),) + tuple(rng.randint(-3, 3) for _ in range(n - 1))
                    for _ in range(300 - n)]
        counts = _count_eliminations(
            monkeypatch, lambda normals: Arrangement(n, normals, [0] * 300), normals
        )
        assert counts["extend"] <= n and counts["eliminate"] == 0


class TestTorusData:
    def test_a2_fixture(self, a2_resolution):
        td = torus_data(a2_resolution)
        assert td.m == 2
        # pinned canonical kernel basis and the induced moment level
        assert td.basis == ((1, 0, 1), (0, 1, -1))
        assert td.alpha == (F(1), F(-1, 2))
        pi = transpose(a2_resolution.normals, ncols=1)
        for vec in td.basis:
            assert mat_vec(pi, vec) == (0,)
        assert td.alpha == tuple(mat_vec(td.basis, a2_resolution.lifts))
        # the characters are the columns of the relation matrix
        assert list(zip(*td.basis)) == [(1, 0), (0, 1), (1, -1)]

    def test_trapezoid_fixture(self, hirzebruch):
        td = torus_data(hirzebruch)
        assert td.m == 2
        assert td.basis == ((1, 0, 1, -1), (0, 1, 0, 1))
        assert td.alpha == (F(1), F(2))

    def test_zero_kernel(self):
        arr = Arrangement(2, ((1, 0), (0, 1)), (3, 4))
        td = torus_data(arr)
        assert td.m == 0 and td.basis == () and td.alpha == ()

    def test_equal_arrangements_give_equal_torus_data(self):
        # each arrangement keeps its own record, built on first read; an
        # equal one, reparsed, builds an equal one
        for path in sorted(FIXTURE_DIR.glob("*.json")):
            arr = parse_arrangement(path.read_text())
            again = parse_arrangement(path.read_text())
            assert again == arr and torus_data(again) == torus_data(arr)
            assert torus_data(arr) is torus_data(arr)

    def test_deterministic(self, hirzebruch):
        assert torus_data(hirzebruch) == torus_data(
            Arrangement(2, ((1, 0), (0, 1), (-1, -1), (0, -1)), (1, 1, 1, 1))
        )

    def test_validates_alpha(self):
        # alpha is derived, not passed in; with mixed denominators the level
        # is summed over their common one, 12
        basis = ((1, 1, -1), (0, 2, 1))
        lifts = (F(1, 2), F(-2, 3), F(3, 4))
        right = (F(-11, 12), F(-7, 12))
        assert TorusData(basis, lifts).alpha == right

    def test_short_and_long_rows_raise_one_text(self):
        lifts = (F(1, 2), 3, F(-1, 3))
        for rows in (((1, 0, 1), (1, 0)), ((1, 0, 1), (1, 0, 1, 0)), ((1,),)):
            with pytest.raises(ValueError, match="^kernel basis vector has wrong length$"):
                TorusData(rows, lifts)
        assert TorusData((), lifts).m == 0

    def test_lifts_become_one_tuple_of_fractions(self):
        basis = ((1, 0, 1),)
        ints = TorusData(basis, [1, -2, 3])
        assert type(ints.lifts) is tuple and all(type(x) is Fraction for x in ints.lifts)
        assert ints.lifts == (1, -2, 3)
        fractions = (F(1, 2), F(3), F(-1, 3))
        assert TorusData(basis, fractions).lifts is fractions
        listed = TorusData(basis, list(fractions))
        assert type(listed.lifts) is tuple and listed.lifts == fractions
        assert all(x is y for x, y in zip(listed.lifts, fractions))
        mixed = (F(1, 2), 3, F(-1, 3))
        held = TorusData(basis, mixed)
        assert held.lifts is not mixed and all(type(x) is Fraction for x in held.lifts)
        assert held.lifts == mixed and held == TorusData(basis, fractions)
        with pytest.raises(ValueError, match="not a string"):
            TorusData(basis, "123")


class TestPinnedTorusData:
    def test_repr_digest(self):
        arrangements = [parse_arrangement(p.read_text()) for p in sorted(FIXTURE_DIR.glob("*.json"))]
        assert len(arrangements) == 5
        rng = random.Random(2503)
        arrangements += [random_smooth_arrangement(rng) for _ in range(200)]
        digest = hashlib.sha256()
        for arr in arrangements:
            digest.update(repr(torus_data(arr)).encode() + b"\n")
        assert digest.hexdigest() == TORUS_REPR_DIGEST


class TestReorient:
    def test_identity(self, a2_resolution):
        assert reorient(a2_resolution, (1, 1, 1)) == a2_resolution

    def test_flip_middle(self, a2_resolution):
        flipped = reorient(a2_resolution, (1, -1, 1))
        assert flipped.normals == ((-1,), (-1,), (1,))
        assert flipped.lifts == (F(1), F(1, 2), F(0))

    def test_involution(self, hirzebruch):
        for eps in all_sign_vectors(4):
            assert reorient(reorient(hirzebruch, eps), eps) == hirzebruch

    def test_preserves_hyperplane_point_sets(self, hirzebruch):
        eps = (1, -1, 1, -1)
        flipped = reorient(hirzebruch, eps)
        for x in [(F(0), F(0)), (F(1), F(-2)), (F(-1, 3), F(5, 7))]:
            for i in range(4):
                orig = sum(u * v for u, v in zip(hirzebruch.normals[i], x)) + hirzebruch.lifts[i]
                new = sum(u * v for u, v in zip(flipped.normals[i], x)) + flipped.lifts[i]
                assert (orig == 0) == (new == 0)

    def test_chamber_compatibility(self, hirzebruch):
        for eps in all_sign_vectors(4):
            direct = chamber(hirzebruch, eps)
            via_reorient = chamber(reorient(hirzebruch, eps), (1, 1, 1, 1))
            assert direct == via_reorient


def _direction_key(u):
    return u if next(x for x in u if x) > 0 else tuple(-x for x in u)


def _point_sets(arr):
    """The distinct hyperplanes of ``arr`` as point sets."""
    return {
        (_direction_key(u), lift if _direction_key(u) == u else -lift)
        for u, lift in zip(arr.normals, arr.lifts)
    }


def _oracle_population(rng, count):
    """Arrangements with primitive normals in [-2, 2]^n, n = 1-3, d <= 7,
    about half of them drawn with parallel copies and repeated lifts."""
    out = []
    while len(out) < count:
        n = rng.randint(1, 3)
        d = rng.randint(n, 7)
        copies = rng.random() < 0.5
        normals, lifts = [], []
        for _ in range(d):
            if copies and normals and rng.random() < 0.5:
                # a parallel copy of an earlier hyperplane, sometimes the same one
                k = rng.randrange(len(normals))
                sign = rng.choice((1, -1))
                normals.append(tuple(sign * x for x in normals[k]))
                lift = lifts[k] if rng.random() < 0.3 else F(rng.randint(-3, 3), rng.choice((1, 2)))
                lifts.append(sign * lift)
            else:
                normals.append(tuple(rng.randint(-2, 2) for _ in range(n)))
                lifts.append(F(rng.randint(-3, 3), rng.choice((1, 1, 2, 3))))
        try:
            out.append(Arrangement(n, tuple(normals), tuple(lifts)))
        except ValueError:
            continue
    return out


def _distinct_directions(rng, count):
    """n = 3, d = 8: pairwise non-parallel normals from [-3, 3]^3, lifts p/q
    with q <= 3."""
    out = []
    for _ in range(count):
        normals, keys = [], set()
        while len(normals) < 8:
            u = tuple(rng.randint(-3, 3) for _ in range(3))
            if any(u) and is_primitive(u) and _direction_key(u) not in keys:
                keys.add(_direction_key(u))
                normals.append(u)
        lifts = tuple(F(rng.randint(-9, 9), rng.choice((1, 2, 3))) for _ in range(8))
        out.append(Arrangement(3, tuple(normals), lifts))
    return out


def _count_eliminations(monkeypatch, fn, arr):
    """Calls of the incremental reduction and of the fraction-free
    elimination behind det and rank made while ``fn(arr)`` runs, with every
    class-matroid record dropped first and ``fn`` given a fresh copy of an
    arrangement, so the work is not served by a record built for an earlier
    arrangement with the same classes or kept by this one."""
    arrangement._class_matroid.cache_clear()
    if isinstance(arr, Arrangement):
        arr = dataclasses.replace(arr)
    counts = {"extend": 0, "eliminate": 0}

    def counting(key, inner):
        def wrapper(*args):
            counts[key] += 1
            return inner(*args)
        return wrapper

    with monkeypatch.context() as patch:
        patch.setattr(arrangement, "_extend_echelon", counting("extend", arrangement._extend_echelon))
        patch.setattr(linalg, "_bareiss", counting("eliminate", linalg._bareiss))
        fn(arr)
    return counts


class TestSmoothness:
    def test_fixtures_smooth(self, hirzebruch, a2_resolution, trivial_product, triangle_pair):
        for arr in (hirzebruch, a2_resolution, trivial_product, triangle_pair):
            assert is_regular(arr) and is_simple(arr) and is_smooth(arr)

    def test_duplicate_hyperplane_not_simple(self):
        arr = Arrangement(1, ((-1,), (1,), (1,)), (1, -1, 0))
        assert not is_simple(arr)
        assert is_regular(arr)

    def test_non_regular(self):
        arr = Arrangement(2, ((1, 0), (1, 2)), (0, 0))
        assert not is_regular(arr)

    def test_triple_point_not_simple(self):
        arr = Arrangement(2, ((1, 0), (0, 1), (1, 1)), (0, 0, 0))
        assert not is_simple(arr)

    def test_matches_brute_force(self):
        rng = random.Random(2718)
        for _ in range(40):
            dim = rng.choice((1, 2, 3))
            size = rng.randint(dim, 8)
            try:
                arr = Arrangement(
                    dim,
                    tuple(
                        tuple(rng.choice((1, -1)) * x for x in rng.choice(
                            [(1,)] if dim == 1 else ([(1, 0), (0, 1), (1, 1)] if dim == 2 else [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
                        ))
                        for _ in range(size)
                    ),
                    tuple(F(rng.randint(-4, 4), rng.choice((1, 2))) for _ in range(size)),
                )
            except ValueError:
                continue
            assert is_simple(arr) == brute_force_simple(arr) == subset_simple(arr)
            assert is_regular(arr) == subset_regular(arr)
            assert trivial_factors(arr) == subset_trivial_factors(arr)

    def test_matches_subset_scans(self):
        rng = random.Random(2587)
        population = _oracle_population(rng, 700) + _distinct_directions(rng, 8)
        seen = dict.fromkeys(("non-regular", "non-simple", "parallel", "duplicated", "all distinct"), 0)
        for arr in population:
            regular, simple = is_regular(arr), is_simple(arr)
            assert regular == subset_regular(arr)
            assert simple == subset_simple(arr) == brute_force_simple(arr)
            assert trivial_factors(arr) == subset_trivial_factors(arr)
            distinct = len({_direction_key(u) for u in arr.normals}) == arr.d
            seen["non-regular"] += not regular
            seen["non-simple"] += not simple
            seen["parallel"] += not distinct
            seen["duplicated"] += len(_point_sets(arr)) < arr.d
            seen["all distinct"] += distinct
        assert min(seen.values()) >= 100, seen

    def test_duplicated_hyperplanes(self):
        rng = random.Random(99)
        for arr in _oracle_population(rng, 200):
            doubled = Arrangement(
                arr.n, arr.normals + arr.normals[:1], arr.lifts + arr.lifts[:1]
            )
            flipped = Arrangement(
                arr.n,
                arr.normals + (tuple(-x for x in arr.normals[0]),),
                arr.lifts + (-arr.lifts[0],),
            )
            for dup in (doubled, flipped):
                assert not is_simple(dup) and not subset_simple(dup)
                assert is_regular(dup) == is_regular(arr) == subset_regular(dup)
                assert trivial_factors(dup) == subset_trivial_factors(dup)

    def test_four_circuit_by_hand(self):
        # x = a, y = b, z = c and x + y + z = e meet exactly when a + b + c = e
        axes = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))
        for a, b, c, e in itertools.product((0, F(1, 2), -1), (0, 2), (F(-1, 3), 1), (0, F(1, 6), 2)):
            arr = Arrangement(3, axes, (-a, -b, -c, -e))
            assert is_simple(arr) == (a + b + c != e)

    def test_four_circuit_meets_across_the_split(self):
        # x = a, y = b, z = c and x + y + z = e, two hyperplanes per class:
        # of the 16 choices only a = 10, b = 100, c = 1000, e = 1110 meet,
        # and it needs a nonzero offset on both sides of the split
        axes = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))
        normals = tuple(u for u in axes for _ in range(2))
        for es, simple in (((1110, 5), False), ((1111, 5), True)):
            values = (0, 10, 0, 100, 0, 1000, *es)
            arr = Arrangement(3, normals, tuple(-v for v in values))
            assert is_regular(arr)
            assert is_simple(arr) == simple == per_arrangement_simple(arr) == subset_simple(arr)

    def test_circuit_with_coefficient_two(self):
        # x = a, y = b, z = c and x + y + 2z = e: the relation e1 + e2 + 2 e3
        # - (1, 1, 2) = 0 has a coefficient 2, and |det(e1, e2, (1, 1, 2))|
        # = 2, so the normals are not regular. a + b + 2c takes the values
        # 0, 1, 3, 4, 10, 11, 13, 14, and a + b + c would take 9 but not 14
        normals = ((1, 0, 0), (1, 0, 0), (0, 1, 0), (0, 1, 0), (0, 0, 1), (0, 0, 1), (1, 1, 2))
        for e, simple in ((14, False), (9, True)):
            arr = Arrangement(3, normals, tuple(-v for v in (0, 1, 0, 3, 0, 5, e)))
            assert not is_regular(arr)
            assert is_simple(arr) == simple == per_arrangement_simple(arr) == subset_simple(arr)

    def test_four_circuit_parallel_copies(self):
        # two or three parallel copies per class, half of them with the
        # normal negated; a meeting quadruple needs one value per class
        xs, ys, zs = (0, F(1, 2)), (1, -2, F(1, 3)), (F(-1, 3), 4)
        axes = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        base = [(axis, v) for axis, vals in zip(axes, (xs, ys, zs)) for v in vals]
        sums = {x + y + z for x in xs for y in ys for z in zs}
        cases = [((F(6), F(-7, 2)), True), ((F(6), min(sums)), False), ((max(sums), F(1, 7)), False)]
        for es, simple in cases:
            planes = base + [((1, 1, 1), e) for e in es]
            normals = tuple(
                tuple((-1) ** k * x for x in u) for k, (u, _) in enumerate(planes)
            )
            lifts = tuple(-((-1) ** k) * v for k, (_, v) in enumerate(planes))
            arr = Arrangement(3, normals, lifts)
            assert is_regular(arr)
            assert is_simple(arr) == simple == (not sums & set(es)) == subset_simple(arr)

    def test_work_independent_of_d(self, monkeypatch):
        # a preflight-shaped arrangement: 3 direction classes of 10 or 20
        # hyperplanes; the subset scans make C(d, 2) + C(d, 3) eliminations.
        # Both sizes have the same classes, so each count starts from a
        # cold record
        rng = random.Random(60)
        small, large = (three_class_arrangement(rng, k) for k in (10, 20))
        assert large.d == 60 and small.d == 30
        for fn in (is_regular, is_simple, trivial_factors):
            assert _count_eliminations(monkeypatch, fn, large) == _count_eliminations(
                monkeypatch, fn, small
            )
        assert is_regular(large) and is_simple(large) and trivial_factors(large) == ()
        counts = _count_eliminations(monkeypatch, is_simple, three_class_arrangement(rng, 20))
        # 3 singletons, 3 pairs and the one circuit of all three classes
        assert counts == {"extend": 7, "eliminate": 0}
        counts = _count_eliminations(monkeypatch, is_regular, three_class_arrangement(rng, 20))
        assert counts == {"extend": 0, "eliminate": 3}


class TestChambers:
    def test_trapezoid(self, hirzebruch):
        vertices = enumerate_vertices(chamber(hirzebruch, (1, 1, 1, 1)))
        assert set(vertices) == {(F(-1), F(-1)), (F(2), F(-1)), (F(0), F(1)), (F(-1), F(1))}

    def test_a2_intervals(self, a2_resolution):
        seg = chamber(a2_resolution, (1, 1, 1))
        assert enumerate_vertices(seg) == [(F(1, 2),), (F(1),)]
        seg2 = chamber(a2_resolution, (1, -1, 1))
        assert enumerate_vertices(seg2) == [(F(0),), (F(1, 2),)]
        empty = chamber(a2_resolution, (-1, -1, 1))
        assert not is_feasible(empty).feasible

    @given(st.tuples(st.integers(-8, 8), st.integers(-8, 8)), st.integers(1, 3))
    def test_generic_point_in_exactly_one_chamber(self, hirzebruch, raw, denom):
        point = (F(raw[0], denom), F(raw[1], denom))
        values = [
            sum(u * v for u, v in zip(hirzebruch.normals[i], point)) + hirzebruch.lifts[i]
            for i in range(4)
        ]
        if any(v == 0 for v in values):
            return
        profile = tuple(1 if v > 0 else -1 for v in values)
        hits = [
            eps for eps in all_sign_vectors(4) if chamber(hirzebruch, eps).contains(point)
        ]
        assert hits == [profile]


class TestSolutionSpace:
    # arrangement_from_quotient parametrises the solution plane by the
    # kernel lattice of the relation matrix and projects it onto the pivot
    # columns of that basis
    def test_diagonal_h3(self):
        td = TorusData(basis=((1, 1, 1),), lifts=(1, 1, 1))
        basis = linalg.kernel_lattice(td.basis, ncols=td.d)
        assert basis == ((1, 0, -1), (0, 1, -1))
        assert linalg._bareiss([list(row) for row in basis], td.d)[0] == [0, 1]

    def test_zero_kernel_case(self):
        td = torus_data(Arrangement(2, ((1, 0), (0, 1)), (3, 4)))
        basis = linalg.kernel_lattice(td.basis, ncols=td.d)
        assert basis == ((1, 0), (0, 1))
        assert linalg._bareiss([list(row) for row in basis], td.d)[0] == [0, 1]

    def test_a2_kernel_line(self, a2_resolution):
        td = torus_data(a2_resolution)
        assert linalg.kernel_lattice(td.basis, ncols=td.d) == ((1, -1, -1),)

    def test_skips_degenerate_leading_subset(self, trivial_product):
        # parallel normals make the first coordinate pair non-injective,
        # so the lexicographic scan must move past it
        td = torus_data(trivial_product)
        basis = linalg.kernel_lattice(td.basis, ncols=td.d)
        assert basis == ((1, 1, 0), (0, 0, 1))
        assert linalg._bareiss([list(row) for row in basis], td.d)[0] == [0, 2]

    def test_first_nonsingular_subset(self):
        # reference oracle: scan C(d, n) coordinate subsets for a nonzero minor
        rng = random.Random(577)
        checked = 0
        while checked < 300:
            n = rng.randint(1, 3)
            d = rng.randint(n, 6)
            normals = []
            for _ in range(d):
                if normals and rng.random() < 0.4:
                    # a parallel normal makes a leading coordinate subset singular
                    sign = rng.choice((1, -1))
                    normals.append(tuple(sign * x for x in rng.choice(normals)))
                else:
                    normals.append(tuple(rng.choice((0, 0, 1, -1, 2, -3)) for _ in range(n)))
            try:
                arr = Arrangement(n, tuple(normals), (0,) * d)
            except ValueError:
                continue
            td = torus_data(arr)
            basis = linalg.kernel_lattice(td.basis, ncols=td.d)
            first = next(
                subset
                for subset in itertools.combinations(range(d), len(basis))
                if det([[row[t] for t in subset] for row in basis]) != 0
            )
            assert tuple(linalg._bareiss([list(row) for row in basis], d)[0]) == first
            checked += 1


class TestQuotientReconstruction:
    def test_diagonal_h3(self):
        td = TorusData(basis=((1, 1, 1),), lifts=(1, 1, 1))
        arr = arrangement_from_quotient(td)
        assert arr.n == 2
        assert arr.normals == ((1, 0), (0, 1), (-1, -1))
        assert arr.lifts == (F(1), F(1), F(1))

    def test_trapezoid_roundtrip_exact(self, hirzebruch):
        back = arrangement_from_quotient(torus_data(hirzebruch))
        assert back.normals == hirzebruch.normals
        assert back.lifts == hirzebruch.lifts

    def test_product_roundtrip_exact(self, trivial_product):
        back = arrangement_from_quotient(torus_data(trivial_product))
        assert back.normals == trivial_product.normals
        assert back.lifts == trivial_product.lifts

    def test_single_coordinate_projection(self):
        td = TorusData(basis=((1, 1),), lifts=(1, 0))
        arr = arrangement_from_quotient(td)
        assert arr.n == 1 and arr.d == 2

    def test_roundtrip_verdicts_basis_independent(self, a2_resolution, hirzebruch):
        for arr in (a2_resolution, hirzebruch):
            td = torus_data(arr)
            td_back = torus_data(arrangement_from_quotient(td))
            for pattern in itertools.product(FULL_ALPHABET, repeat=arr.d):
                assert (
                    hk_semistable_numeric(td, pattern).semistable
                    == hk_semistable_numeric(td_back, pattern).semistable
                )

    def test_random_roundtrip_verdicts(self):
        rng = random.Random(31415)
        for _ in range(10):
            arr = random_smooth_arrangement(rng, max_d=5)
            td = torus_data(arr)
            td_back = torus_data(arrangement_from_quotient(td))
            for pattern in itertools.product(FULL_ALPHABET, repeat=arr.d):
                assert (
                    hk_semistable_numeric(td, pattern).semistable
                    == hk_semistable_numeric(td_back, pattern).semistable
                )

    def test_requires_nontrivial_quotient(self):
        td = TorusData(basis=((1,),), lifts=(1,))
        with pytest.raises(ValueError):
            arrangement_from_quotient(td)

    def test_one_factorisation_per_reconstruction(self, monkeypatch):
        # the square block is factored once and serves all d coordinates
        calls = []
        inner = arrangement._scaled_inverse
        monkeypatch.setattr(arrangement, "_scaled_inverse", lambda mat: calls.append(mat) or inner(mat))
        td = TorusData(basis=((1, 1, 1, 1, 1), (0, 1, 2, 3, 4)), lifts=(0, 1, 0, 2, 1))
        arr = arrangement_from_quotient(td)
        assert arr.d == 5 and len(calls) == 1

    def test_shares_the_verdicts_arrangement(self, monkeypatch):
        # the API returns the arrangement the verdicts read, rebuilt once
        calls = []
        inner = arrangement._rebuild
        monkeypatch.setattr(arrangement, "_rebuild", lambda td: calls.append(td) or inner(td))
        td = TorusData(basis=((1, 1, 1, 1, 1), (0, 1, 2, 3, 4)), lifts=(0, 1, 0, 2, 1))
        arr = arrangement_from_quotient(td)
        # a verdict reads the same record
        hk_semistable_numeric(td, FULL_ALPHABET[:1] * td.d)
        assert arrangement_from_quotient(td) is arr and len(calls) == 1

    def test_pinned_reconstructions(self):
        # pins the normals' scale and order and the lifts, which the
        # verdict-level round trips above would not see change
        digest = hashlib.sha256()
        outcomes = {"built": 0, "refused": 0}
        for td in _quotient_population():
            try:
                arr = arrangement_from_quotient(td)
            except ValueError as exc:
                outcomes["refused"] += 1
                answer = f"ValueError: {exc}"
            else:
                outcomes["built"] += 1
                answer = repr((arr.normals, arr.lifts))
            digest.update(answer.encode() + b"\n")
        assert outcomes["built"] > 300 and outcomes["refused"] > 0
        assert digest.hexdigest() == QUOTIENT_DIGEST


def _fan_directions(count):
    """The first ``count`` primitive directions ``(a, b)`` with ``0 <= b <=
    a``, pairwise non-parallel: one direction class each, far from regular
    once ``count > 3``."""
    out = []
    for a in itertools.count(1):
        out.extend((a, b) for b in range(a + 1) if math.gcd(a, b) == 1)
        if len(out) >= count:
            return tuple(out[:count])


class TestClassEchelon:
    def test_agrees_with_rescan_on_every_subset(self):
        # each class query against the rank test in R^d on its hyperplanes,
        # on all 2^D class subsets in a shuffled order: smooth draws, draws
        # with parallel copies and dependent normals, non-parallel n = 3
        # normals (D = 8) and three classes of 10 and 20 hyperplanes
        rng = random.Random(26)
        population = [random_smooth_arrangement(rng, max_d=8) for _ in range(60)]
        population += _oracle_population(rng, 120) + _distinct_directions(rng, 6)
        population += [three_class_arrangement(rng, k) for k in (10, 20)]
        smooth = verdicts = 0
        seen = set()
        for arr in population:
            smooth += is_smooth(arr)
            classes = len(arrangement._direction_classes(arr))
            subsets = [
                c for size in range(classes + 1) for c in itertools.combinations(range(classes), size)
            ]
            rng.shuffle(subsets)
            realizable = set(per_arrangement_realizable(arr))
            for chosen in subsets:
                verdict = arr._matroid.independent(chosen)
                assert verdict == (chosen in realizable), (arr, chosen)
                seen.add(verdict)
                verdicts += 1
        assert 60 <= smooth <= len(population) - 60
        assert seen == {True, False} and verdicts > 3000

    def test_trivial_factors_memo_quadratic(self):
        # 40 direction classes at n = 2, far from regular: trivial factors
        # ask the record's independent of each singleton class, D queries
        # of D reductions each, not a scan of the 2^D class subsets
        arrangement._class_matroid.cache_clear()
        arr = Arrangement(2, _fan_directions(40), tuple(range(40)))
        assert len(arrangement._direction_classes(arr)) == 40 and not is_regular(arr)
        assert trivial_factors(arr) == () == subset_trivial_factors(arr)

    def test_single_query_builds_its_prefixes_only(self):
        # more classes than the recursion limit allows frames: one query is
        # one loop over the classes, with no recursion
        count = sys.getrecursionlimit() + 100
        arrangement._class_matroid.cache_clear()
        arr = Arrangement(2, _fan_directions(count), (0,) * count)
        k = count // 2
        assert arr._matroid.independent((k,)) is False
        reps = [r for r, _ in arrangement._direction_classes(arr)]
        others = reps[:k] + reps[k + 1:]
        assert rank(others + [reps[k]]) == rank(others)


class TestClassMatroid:
    def test_variants_share_one_record(self):
        # shuffled, re-signed, with a parallel copy added or re-lifted, an
        # arrangement keeps its sorted representatives and so its record; a
        # new direction makes a new one
        rng = random.Random(27)
        base = random_smooth_arrangement(rng, n=3, d=7)
        order = list(range(base.d))
        rng.shuffle(order)
        shuffled = Arrangement(
            base.n, tuple(base.normals[i] for i in order), tuple(base.lifts[i] for i in order)
        )
        resigned = reorient(base, [rng.choice((1, -1)) for _ in range(base.d)])
        copy = tuple(-x for x in base.normals[0])
        duplicated = Arrangement(base.n, base.normals + (copy,), base.lifts + (F(1, 7),))
        relifted = Arrangement(base.n, base.normals, tuple(lift + 1 for lift in base.lifts))
        # base has read its record already; a copy looks it up afresh
        variants = (dataclasses.replace(base), shuffled, resigned, duplicated, relifted)
        arrangement._class_matroid.cache_clear()
        records = {id(arr._matroid) for arr in variants}
        info = arrangement._class_matroid.cache_info()
        assert len(records) == 1 and (info.misses, info.hits, info.currsize) == (1, 4, 1)
        reps = {r for r, _ in arrangement._direction_classes(base)}
        extra = next(u for u in ((1, 2, 3), (1, -2, 3)) if u not in reps)
        Arrangement(base.n, base.normals + (extra,), base.lifts + (0,))._matroid
        assert arrangement._class_matroid.cache_info().misses == 2

    def test_warm_records_agree_with_per_arrangement_answers(self):
        # smooth draws, draws with parallel copies and dependent normals, and
        # reoriented, shuffled copies of them: few class configurations, so
        # most answers are read from a record another arrangement built, and
        # each equals the answer computed afresh for the arrangement alone.
        # A complement read off a warm record equals one from a cold record
        rng = random.Random(28)
        population = [random_smooth_arrangement(rng, max_d=7) for _ in range(80)]
        population += _oracle_population(rng, 60)
        for arr in population[:40]:
            order = list(range(arr.d))
            rng.shuffle(order)
            flipped = reorient(arr, [rng.choice((1, -1)) for _ in range(arr.d)])
            population.append(Arrangement(
                arr.n,
                tuple(flipped.normals[i] for i in order),
                tuple(flipped.lifts[i] for i in order),
            ))
        arrangement._class_matroid.cache_clear()
        complements, warm = [], 0
        # fresh copies, so each looks its record up once, here
        for arr in map(dataclasses.replace, population):
            misses = arrangement._class_matroid.cache_info().misses
            record = arr._matroid
            warm += arrangement._class_matroid.cache_info().misses == misses
            assert is_regular(arr) == per_arrangement_regular(arr)
            assert is_simple(arr) == per_arrangement_simple(arr)
            assert trivial_factors(arr) == subset_trivial_factors(arr)
            assert tuple(record.circuits()) == per_arrangement_circuits(arr)
            assert mask_ray_signs(arr) == per_arrangement_ray_signs(arr)
            assert arrangement._vertices(arr) == per_arrangement_vertices(arr)
            assert record.realizable == per_arrangement_realizable(arr)
            assert arrangement._build_torus_data(arr) == TorusData(
                linalg.kernel_lattice(transpose(arr.normals, ncols=arr.n), ncols=arr.d), arr.lifts
            )
            if is_smooth(arr):
                eps = quotient._extended_core_cached(arr).core[0].eps
                complements.append((arr, eps, chart_complement(arr, eps)))
        assert warm > len(population) / 2 and len(complements) > 100
        # the cold side runs on a fresh copy, so the face record, the core
        # walk and every other record are rebuilt from the cleared class record
        for arr, eps, warm in complements:
            arrangement._class_matroid.cache_clear()
            assert chart_complement(dataclasses.replace(arr), eps) == warm

    def test_torus_data_read_off_shared_record(self):
        # shuffled, re-signed and duplicated copies share one record, and
        # the order of the hyperplanes decides which class basis the kernel
        # is read off, so one record serves several bases: it keeps the
        # coordinates of exactly the greedy class bases its copies took
        rng = random.Random(29)
        population = [random_smooth_arrangement(rng, n=n, d=d) for n in (2, 3) for d in (4, 6, 8)]
        population += [random_smooth_arrangement(rng, n=rng.choice((2, 3))) for _ in range(40)]
        population += [three_class_arrangement(rng, k) for k in (2, 5)]
        several = 0
        for base in population:
            # a fresh copy of base looks its record up after the clear below
            base = dataclasses.replace(base)
            variants = [base]
            for _ in range(6):
                flipped = reorient(base, [rng.choice((1, -1)) for _ in range(base.d)])
                planes = list(zip(flipped.normals, flipped.lifts))
                for _ in range(rng.randint(0, 2)):
                    u, lift = rng.choice(planes)
                    planes.append((tuple(-x for x in u), -lift + F(1, rng.randint(2, 5))))
                rng.shuffle(planes)
                variants.append(Arrangement(
                    base.n, tuple(u for u, _ in planes), tuple(lift for _, lift in planes)
                ))
            arrangement._class_matroid.cache_clear()
            record = base._matroid
            greedy = set()
            for arr in variants:
                assert arr._matroid is record
                expected = kernel_by_two_hnf(transpose(arr.normals, ncols=arr.n), arr.d)
                assert arrangement._build_torus_data(arr).basis == expected
                directions = [max(u, tuple(-x for x in u)) for u in arr.normals]
                greedy.add(tuple(sorted(
                    record.reps.index(directions[j]) for j in lex_last_basis(arr.normals, arr.n)
                )))
            kept = {chosen for chosen, (den, _) in record._coordinates.items() if den}
            assert kept == greedy
            several += len(greedy) > 1
        assert several > 15, several

    def test_warm_torus_data_runs_no_elimination(self, monkeypatch):
        # once the record has read off a kernel for a class basis, another
        # arrangement with the same classes and basis eliminates nothing
        rng = random.Random(30)
        arrangements = [three_class_arrangement(rng, 20)]
        arrangements += [random_smooth_arrangement(rng, n=3, d=d) for d in (5, 7)]
        calls = []

        def counting(inner):
            def wrapper(*args):
                calls.append(inner.__name__)
                return inner(*args)
            return wrapper

        for arr in arrangements:
            arrangement._class_matroid.cache_clear()
            # a fresh copy looks up the record that relifted reads below
            arr = dataclasses.replace(arr)
            arrangement._build_torus_data(arr)
            relifted = Arrangement(arr.n, arr.normals, tuple(lift + 1 for lift in arr.lifts))
            with monkeypatch.context() as patch:
                patch.setattr(linalg, "_bareiss", counting(linalg._bareiss))
                patch.setattr(linalg, "_hnf", counting(linalg._hnf))
                patch.setattr(arrangement, "_extend_echelon", counting(arrangement._extend_echelon))
                td = arrangement._build_torus_data(relifted)
            assert calls == [] and td.basis == torus_data(arr).basis

    def test_many_classes_walk_their_circuits_afresh(self, monkeypatch):
        # 80 lines through the origin: more classes than a regular
        # arrangement has, so the record keeps no circuits, and the first
        # circuit, which meets, ends the walk long before its C(80, 3)
        arr = Arrangement(2, _fan_directions(80), (0,) * 80)
        counts = _count_eliminations(monkeypatch, arrangement._decide_simple, arr)
        assert counts["extend"] < 2 * 80
        assert not is_simple(arr) and "_kept_circuits" not in vars(arr._matroid)

    def test_cache_bounded(self):
        # one record per class configuration, at most the constant number
        size = arrangement._MATROID_CACHE_SIZE
        arrangement._class_matroid.cache_clear()
        for k in range(size + 10):
            arr = Arrangement(2, ((1, 0), (0, 1), (1, k + 1)), (0, 0, 1))
            assert is_regular(arr) == (k == 0)
        info = arrangement._class_matroid.cache_info()
        assert info.maxsize == size and info.misses == size + 10
        assert info.currsize <= size


class TestTrivialFactors:
    def test_product_fixture(self, trivial_product):
        assert trivial_factors(trivial_product) == (2,)

    def test_trapezoid_has_none(self, hirzebruch):
        assert trivial_factors(hirzebruch) == ()

    def test_single_hyperplane_line(self):
        arr = Arrangement(1, ((1,),), (0,))
        assert trivial_factors(arr) == (0,)
