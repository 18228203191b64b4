import collections
import hashlib
import itertools
import math
import pathlib
import pickle
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import corecover.linalg as linalg
from corecover import Arrangement, TorusData, is_regular, parse_arrangement, torus_data
from corecover.arrangement import _build_torus_data
from corecover.feasibility import Constraint, Relation
from fourier_motzkin import _scaled
from corecover.linalg import (
    kernel_lattice,
    primitive_scale,
    transpose,
)
from corecover.randgen import DIRECTIONS, random_smooth_arrangement
from util import (
    cycling_family,
    det,
    det_by_elimination,
    hermite_normal_form,
    is_hnf_shape,
    is_primitive,
    kernel_by_two_hnf,
    lex_last_basis,
    lin_solve,
    mat_mul,
    mat_vec,
    rank,
    rank_by_elimination,
    row_reduce_lattice_membership,
    solve_by_elimination,
    solve_square,
    three_class_arrangement,
)

# SHA-256 of rank/lin_solve (and det/solve_square when square) over
# rational_systems(2718, 5000), recorded with the earlier implementation that
# ran a separate elimination in each function (Gauss-Jordan in the solvers).
SOLVER_DIGEST = "886da1cea104128ac76eefa7ea22b6dd774d232ae8aa0e68a9843798d4c06e3a"

# SHA-256 of hermite_normal_form (H and U) and kernel_lattice over
# integer_matrices(1729, 3000), recorded with the earlier implementation that
# carried the transform by a second set of row updates and ran a second HNF,
# transform included, on the kernel rows.
LATTICE_DIGEST = "30578f9128add7cec60a9c799d71af4e1a027faec8be1400b7f1240cd327ec07"

# SHA-256 of kernel_lattice of the transposed normals, torus_data (basis and
# alpha) and the kernel of that basis over regular_arrangements(1957, 600),
# recorded with the earlier implementation that ran the HNF of [mat^T | I]
# for every kernel.
REGULAR_DIGEST = "91cd37b78812b0f9020e70dd2234501207b6043d6c026df0c9c1a3dc5087c5c2"

FIXTURE_DIR = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def small_matrix(max_rows=4, max_cols=4, lo=-9, hi=9):
    return st.integers(1, max_rows).flatmap(
        lambda r: st.integers(1, max_cols).flatmap(
            lambda c: st.lists(
                st.lists(st.integers(lo, hi), min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            ).map(lambda rows: tuple(tuple(row) for row in rows))
        )
    )


def rational_systems(seed, count):
    """Seeded rational systems up to 5 x 5: int and Fraction entries, many
    zeros, rows that combine earlier rows (rank deficiency) and right-hand
    sides that are consistent by construction about half of the time."""
    rng = random.Random(seed)

    def entry():
        if rng.random() < 0.3:
            return 0
        value = Fraction(rng.randint(-5, 5), rng.choice((1, 1, 2, 3)))
        return int(value) if value.denominator == 1 and rng.random() < 0.5 else value

    for _ in range(count):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        rows = []
        for _ in range(nrows):
            if rows and rng.random() < 0.3:
                a, b = rng.choice(rows), rng.choice(rows)
                ca, cb = entry(), entry()
                rows.append(tuple(ca * x + cb * y for x, y in zip(a, b)))
            else:
                rows.append(tuple(entry() for _ in range(ncols)))
        if rng.random() < 0.5:
            x = [entry() for _ in range(ncols)]
            rhs = tuple(sum(a * v for a, v in zip(row, x)) for row in rows)
        else:
            rhs = tuple(entry() for _ in range(nrows))
        yield tuple(rows), rhs


def integer_matrices(seed, count):
    """Seeded integer matrices up to 7 x 9 with entries up to +-50: 40%
    zeros, and rows that combine two earlier rows (rank deficiency, zero
    rows included) about a third of the time."""
    rng = random.Random(seed)
    for _ in range(count):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 9)
        rows = []
        for _ in range(nrows):
            if rows and rng.random() < 0.3:
                a, b = rng.choice(rows), rng.choice(rows)
                ca, cb = rng.randint(-3, 3), rng.randint(-3, 3)
                rows.append(tuple(ca * x + cb * y for x, y in zip(a, b)))
            else:
                rows.append(tuple(0 if rng.random() < 0.4 else rng.randint(-50, 50) for _ in range(ncols)))
        yield tuple(rows)


def regular_arrangements(seed, count):
    """Seeded regular arrangements, alternately ``random_smooth_arrangement``
    draws (n = 1-3, d up to 8) and unimodular families as in the preflight
    benchmark: every direction of ``randgen.DIRECTIONS[n]`` at least once,
    up to d = 24, each normal with a sign of its own, lifts with mixed
    denominators. Every nonsingular n-minor of the normals is +-1."""
    rng = random.Random(seed)
    for index in range(count):
        n = rng.choice((1, 2, 3))
        if index % 2 == 0:
            yield random_smooth_arrangement(rng, n=n)
            continue
        dirs = DIRECTIONS[n]
        d = rng.randint(len(dirs), 24)
        picks = list(dirs) + [rng.choice(dirs) for _ in range(d - len(dirs))]
        rng.shuffle(picks)
        signs = [rng.choice((1, -1)) for _ in picks]
        normals = tuple(tuple(e * x for x in u) for e, u in zip(signs, picks))
        lifts = tuple(Fraction(rng.randint(-30, 30), rng.randint(1, 7)) for _ in range(d))
        yield Arrangement(n, normals, lifts)


def pivot_block_matrices(seed, count):
    """Seeded integer matrices ``U @ [A | B]`` up to 4 x 10: ``U`` a random
    unimodular matrix, ``A`` random with entries up to +-5 and ``B`` the
    identity, so the last columns are a unimodular pivot block. About 15% of
    the time one entry of ``B`` is set to 2 (determinant 2 when it is on the
    diagonal), and about 15% one row of ``B`` is a copy of another (dependent
    rows)."""
    rng = random.Random(seed)
    for _ in range(count):
        k = rng.randint(1, 4)
        w = rng.randint(k, 10)
        block = [[int(i == j) for j in range(k)] for i in range(k)]
        roll = rng.random()
        if roll < 0.15:
            block[rng.randrange(k)][rng.randrange(k)] = 2
        elif roll < 0.3 and k > 1:
            block[-1] = list(block[0])
        rows = [[rng.randint(-5, 5) for _ in range(w - k)] + b for b in block]
        for _ in range(3 * k if k > 1 else 0):
            i, j = rng.sample(range(k), 2)
            c = rng.randint(-2, 2)
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
        yield tuple(tuple(r) for r in rows)


def _primitive_normals(rng, count) -> tuple:
    """``count`` random primitive normals with entries in [-9, 9]."""
    normals = []
    while len(normals) < count:
        u = (rng.randint(-9, 9), rng.randint(-9, 9))
        if math.gcd(*u) == 1:
            normals.append(u)
    return tuple(normals)


def _hnf_calls(monkeypatch, fn, *args) -> int:
    """Calls of ``linalg._hnf`` made while ``fn(*args)`` runs."""
    calls = 0
    inner = linalg._hnf

    def counting(*a):
        nonlocal calls
        calls += 1
        return inner(*a)

    with monkeypatch.context() as patch:
        patch.setattr(linalg, "_hnf", counting)
        fn(*args)
    return calls


class TestHermiteNormalForm:
    def test_identity(self):
        eye = ((1, 0), (0, 1))
        h, u = hermite_normal_form(eye)
        assert h == eye and u == eye

    def test_two_by_two(self):
        m = ((2, 4), (1, 3))
        h, u = hermite_normal_form(m)
        assert mat_mul(u, m) == h
        assert abs(det(u)) == 1
        assert is_hnf_shape(h)
        # canonical value under the pinned convention
        assert h == ((1, 1), (0, 2))

    def test_zero_matrix(self):
        h, u = hermite_normal_form(((0, 0, 0),))
        assert h == ((0, 0, 0),)
        assert u == ((1,),)

    @given(small_matrix())
    def test_properties(self, m):
        h, u = hermite_normal_form(m)
        assert mat_mul(u, m) == h
        assert abs(det(u)) == 1
        assert is_hnf_shape(h)

    @given(small_matrix())
    def test_idempotent_and_deterministic(self, m):
        h, _ = hermite_normal_form(m)
        h2, u2 = hermite_normal_form(h)
        assert h2 == h
        assert hermite_normal_form(m) == hermite_normal_form(m)
        k = len(h)
        assert u2 == tuple(
            tuple(1 if i == j else 0 for j in range(k)) for i in range(k)
        )


class TestKernelLattice:
    def test_one_form(self):
        m = ((-1, 1, 1),)
        basis = kernel_lattice(m)
        assert len(basis) == 2
        for v in basis:
            assert mat_vec(m, v) == (0,)
        # membership of the classical generators, not equality of bases
        assert row_reduce_lattice_membership(basis, (1, 1, 0))
        assert row_reduce_lattice_membership(basis, (1, 0, 1))

    def test_identity_has_trivial_kernel(self):
        assert kernel_lattice(((1, 0), (0, 1))) == ()

    def test_trapezoid_normals(self):
        m = ((1, 0, -1, 0), (0, 1, -1, -1))
        basis = kernel_lattice(m)
        assert len(basis) == 2
        for v in basis:
            assert mat_vec(m, v) == (0, 0)
        assert row_reduce_lattice_membership(basis, (1, 1, 1, 0))
        assert row_reduce_lattice_membership(basis, (0, 1, 0, 1))

    def test_empty_matrix_kernel_is_everything(self):
        assert kernel_lattice((), ncols=3) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    @given(small_matrix(max_rows=3, max_cols=5))
    def test_kernel_properties(self, m):
        basis = kernel_lattice(m)
        width = len(m[0])
        for v in basis:
            assert all(x == 0 for x in mat_vec(m, v))
        assert len(basis) == width - rank(m)
        if basis:
            # saturation: the HNF of the basis transpose has unit pivots
            h, _ = hermite_normal_form(transpose(basis))
            for row in h:
                pivot = next((x for x in row if x != 0), None)
                assert pivot in (None, 1)
        assert kernel_lattice(m) == kernel_lattice(m)


class TestKernelReadOff:
    def test_agrees_with_two_hnf(self):
        # kernel_lattice's one HNF pass against the two-HNF oracle, on
        # normal maps, unimodular pivot blocks and general matrices
        mats = [transpose(arr.normals, ncols=arr.n) for arr in regular_arrangements(271, 200)]
        mats += list(pivot_block_matrices(314, 1000)) + list(integer_matrices(159, 500))
        for mat in mats:
            assert kernel_lattice(mat) == kernel_by_two_hnf(mat, len(mat[0]))

    def test_empty_matrix_reads_off_identity(self):
        assert kernel_lattice((), ncols=3) == kernel_by_two_hnf((), 3)

    def test_regular_torus_data_runs_no_hnf(self, monkeypatch):
        # the builder is called directly, so every call computes its torus data
        fixtures = [parse_arrangement(p.read_bytes()) for p in sorted(FIXTURE_DIR.glob("*.json"))]
        assert len(fixtures) == 5
        rng = random.Random(2000)
        draws = [random_smooth_arrangement(rng) for _ in range(40)]
        for arr in fixtures + draws:
            assert _hnf_calls(monkeypatch, _build_torus_data, arr) == 0

    @pytest.mark.parametrize(
        "mat", [((1, 2, 3),), ((1, 1), (2, 2))], ids=["no unimodular block", "dependent rows"]
    )
    def test_falls_back_to_hnf(self, monkeypatch, mat):
        assert _hnf_calls(monkeypatch, kernel_lattice, mat) >= 1
        assert kernel_lattice(mat) == kernel_by_two_hnf(mat, len(mat[0]))

    @pytest.mark.parametrize(
        "normals",
        [((1, 2), (2, 1)), _primitive_normals(random.Random(300), 298)],
        ids=["hand case", "d = 300"],
    )
    def test_non_regular_arrangement_reads_off(self, monkeypatch, normals):
        # why the read-off stays: at d = 300 the HNF fallback costs O(d^3).
        # The normals, then (1, 0) and (0, 1) last: N is those two, mat_N =
        # I, so row p is e_p with -u_p on N. det((1, 2), (2, 1)) = -3.
        d = len(normals) + 2
        arr = Arrangement(2, (*normals, (1, 0), (0, 1)), tuple(range(d)))
        assert not is_regular(arr)
        assert _hnf_calls(monkeypatch, _build_torus_data, arr) == 0
        basis = _build_torus_data(arr).basis
        assert basis == tuple(
            tuple(int(j == p) for j in range(d - 2)) + (-u[0], -u[1])
            for p, u in enumerate(normals)
        )

    def test_non_regular_population(self, monkeypatch):
        # n = 3 arrangements that are not regular: the torus data is read
        # off the class record, with no HNF, exactly when the lex-last
        # independent normals have |det| 1. About two draws in three end in
        # three coplanar directions a, b and a + b, so the first n classes
        # of the descending last-occurrence order are dependent and the
        # greedy search reads past them; in half of those a and b are unit
        # vectors, so the basis it finds is often unimodular.
        rng = random.Random(2011)
        pool = [u for u in itertools.product(range(-2, 3), repeat=3) if math.gcd(*u) == 1]
        units = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        counts = collections.Counter()
        while counts["drawn"] < 400:
            normals = [rng.choice(pool) for _ in range(rng.randint(2, 6))]
            kind = rng.randrange(3)
            a, b = rng.sample(pool if kind else units, 2)
            if kind < 2 and rank([a, b]) == 2:
                for u in (a, b, primitive_scale([x + y for x, y in zip(a, b)])[0]):
                    sign = rng.choice((1, -1))
                    normals.append(tuple(sign * x for x in u))
            if rank(normals) < 3:
                continue
            arr = Arrangement(3, tuple(normals), tuple(rng.randint(-5, 5) for _ in normals))
            if is_regular(arr):
                continue
            counts["drawn"] += 1
            hnf = _hnf_calls(monkeypatch, _build_torus_data, arr)
            assert _build_torus_data(arr).basis == kernel_by_two_hnf(
                transpose(arr.normals, ncols=3), arr.d
            )
            last = lex_last_basis(arr.normals, 3)
            unit = abs(det([arr.normals[j] for j in last])) == 1
            assert (hnf == 0) == unit
            counts["read off" if unit else "hnf"] += 1
            # the directions by descending last occurrence, first three
            directions = []
            for u in reversed(arr.normals):
                u = max(u, tuple(-x for x in u))
                if u not in directions:
                    directions.append(u)
            counts["dependent prefix"] += rank(directions[:3]) < 3
        assert counts["read off"] >= 50 and counts["hnf"] >= 50, counts
        assert counts["dependent prefix"] >= 50, counts

    def test_read_off_level_matches_constructor(self, monkeypatch):
        # the read-off sums the level over each row's n + 1 nonzeros and
        # hands it in privately: the record must be the one the public
        # constructor derives from the same basis and lifts, down to its
        # field order and pickle bytes
        rng = random.Random(4404)
        draws = [three_class_arrangement(rng, 8) for _ in range(20)]
        draws += [cycling_family(rng, rng.randint(24, 40)) for _ in range(6)]
        for drawn in draws:
            q = rng.randint(1, 7)
            arr = Arrangement(drawn.n, drawn.normals, tuple(x / q for x in drawn.lifts))
            assert _hnf_calls(monkeypatch, _build_torus_data, arr) == 0
            td = _build_torus_data(arr)
            public = TorusData(td.basis, td.lifts)
            assert td == public and repr(td) == repr(public)
            assert list(vars(td)) == list(vars(public)) == ["basis", "lifts", "d", "m", "alpha"]
            assert pickle.dumps(td) == pickle.dumps(public)
            assert td.alpha == mat_vec(td.basis, arr.lifts)

    def test_read_off_path_runs_the_constructor_checks(self):
        lifts = (Fraction(1, 2), 3, Fraction(-1, 3))
        td = TorusData._read_off([[1, 0, 1]], lifts, (Fraction(1, 6),))
        assert td == TorusData([[1, 0, 1]], lifts) and td.basis == ((1, 0, 1),)
        assert all(type(x) is Fraction for x in td.lifts)
        with pytest.raises(ValueError) as public:
            TorusData(((1, 0, 1), (1, 0)), lifts)
        with pytest.raises(ValueError) as private:
            TorusData._read_off(((1, 0, 1), (1, 0)), lifts, (Fraction(1, 6), Fraction(1, 2)))
        assert str(private.value) == str(public.value) == "kernel basis vector has wrong length"

    def test_non_regular_arrangement_falls_back(self, monkeypatch):
        # the last two normals have determinant 2
        arr = Arrangement(2, ((0, 1), (1, 0), (1, 2)), (0, 1, 0))
        assert not is_regular(arr)
        assert _hnf_calls(monkeypatch, _build_torus_data, arr) >= 1
        assert torus_data(arr).basis == ((2, 1, -1),)


class TestPinnedLattices:
    def test_population_digest(self):
        digest = hashlib.sha256()
        for mat in integer_matrices(1729, 3000):
            answers = [hermite_normal_form(mat), kernel_lattice(mat)]
            digest.update(repr(answers).encode() + b"\n")
        assert digest.hexdigest() == LATTICE_DIGEST


class TestPinnedRegularKernels:
    def test_population_digest(self):
        # the read-off from a unimodular pivot block: only 16 of the 3,000
        # LATTICE_DIGEST matrices take it, and every one of these does
        digest = hashlib.sha256()
        for arr in regular_arrangements(1957, 600):
            td = torus_data(arr)
            answers = [
                kernel_lattice(transpose(arr.normals, ncols=arr.n), ncols=arr.d),
                td.basis,
                td.alpha,
                kernel_lattice(td.basis, ncols=arr.d),
            ]
            digest.update(repr(answers).encode() + b"\n")
        assert digest.hexdigest() == REGULAR_DIGEST


class TestPrimitivity:
    def test_examples(self):
        assert is_primitive((1, 0))
        assert not is_primitive((2, 4))
        assert is_primitive((-1, -1))

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            is_primitive((0, 0))

    def test_primitive_scale(self):
        prim, sigma = primitive_scale((Fraction(2, 3), Fraction(-4, 3)))
        assert prim == (1, -2)
        assert sigma == Fraction(3, 2)
        assert all(sigma * x == p for x, p in zip((Fraction(2, 3), Fraction(-4, 3)), prim))

    def test_other_numbers_go_through_fraction(self):
        # floats and Decimals are read as Fraction(x); the expected rows were
        # recorded with the earlier per-module denominator code
        coeffs = (0.5, Decimal("1.25"), Fraction(-2, 3), 3)
        assert _scaled(Constraint(coeffs, Relation.GE, Decimal("-0.75"))) == ((6, 15, -8, 36), -9, 12, 1)
        assert _scaled(Constraint((-0.5, Decimal("1.25")), Relation.EQ, 0.25)) == ((2, -5), -1, -4, 1)
        assert primitive_scale(coeffs) == ((6, 15, -8, 36), Fraction(12))
        assert primitive_scale((Decimal("-2.5"), 0.75)) == ((-10, 3), Fraction(4))
        with pytest.raises(ValueError):
            primitive_scale(())


class TestCommonDenominator:
    @staticmethod
    def by_properties(values):
        # the pair as the earlier code built it, from each Fraction's
        # numerator and denominator properties
        values = [x if type(x) in (int, Fraction) else Fraction(x) for x in values]
        common = math.lcm(*[x.denominator for x in values])
        return common, [x.numerator * (common // x.denominator) for x in values]

    def test_all_int_input_comes_back_over_one(self):
        assert linalg._common_denominator((3, -4, 0)) == (1, [3, -4, 0])
        assert linalg._common_denominator(iter([7])) == (1, [7])
        assert linalg._common_denominator(()) == (1, [])

    def test_mixed_input_gives_the_earlier_pair(self):
        rng = random.Random(4501)
        for _ in range(300):
            values = [
                rng.randint(-9, 9) if rng.random() < 0.3 else Fraction(rng.randint(-40, 40), rng.randint(1, 12))
                for _ in range(rng.randint(1, 8))
            ]
            common, ints = linalg._common_denominator(values)
            assert (common, ints) == self.by_properties(values)
            assert all(type(x) is int for x in ints)
            assert [Fraction(x, common) for x in ints] == values

    def test_floats_and_bools_go_through_fraction(self):
        values = (0.25, True, Fraction(1, 3), False, Decimal("-1.5"), 2)
        assert linalg._common_denominator(values) == (12, [3, 12, 4, 0, -18, 24])
        assert linalg._common_denominator(values) == self.by_properties(values)


class TestRankDet:
    def test_examples(self):
        assert det(((1, 0), (0, 1))) == 1
        assert det(((-1, -1), (0, -1))) == 1
        assert rank(((-1, 1, 1),)) == 1

    def test_det_requires_square(self):
        with pytest.raises(ValueError):
            det(((1, 2, 3), (4, 5, 6)))

    @pytest.mark.parametrize(
        "mat, rhs",
        [(((1, 0, 0), (0, 1, 0)), (5, 6)), (((1, 0), (0, 1)), (5, 6, 7))],
        ids=["non-square matrix", "rhs length"],
    )
    def test_solve_square_requires_square(self, mat, rhs):
        with pytest.raises(ValueError):
            solve_square(mat, rhs)

    @given(small_matrix(max_rows=4, max_cols=4))
    def test_rank_transpose_invariant(self, m):
        assert rank(m) == rank(transpose(m))

    @given(
        st.one_of(
            small_matrix(max_rows=5, max_cols=5, lo=-50, hi=50),
            small_matrix(max_rows=5, max_cols=5, lo=-2, hi=2),
            small_matrix(max_rows=5, max_cols=5, lo=-3, hi=3).flatmap(
                lambda m: st.lists(
                    st.sampled_from((1, 2, 3, 6, 7)), min_size=len(m), max_size=len(m)
                ).map(lambda dens: tuple(tuple(Fraction(x, q) for x in row) for row, q in zip(m, dens)))
            ),
        )
    )
    def test_agree_with_rational_elimination(self, m):
        # fraction-free on integer rows (zero-heavy ones force row swaps) and
        # on rows cleared of their denominators, against the elimination
        # over Fractions
        assert rank(m) == rank_by_elimination(m)
        k = min(len(m), len(m[0]))
        square = tuple(row[:k] for row in m[:k])
        assert det(square) == det_by_elimination(square)
        assert type(det(square)) is Fraction

    @given(small_matrix(max_rows=3, max_cols=3))
    def test_singular_iff_det_zero(self, m):
        if len(m) != len(m[0]):
            return
        assert (det(m) == 0) == (rank(m) < len(m))


class TestSolvers:
    def test_solve_square(self):
        assert solve_square(((2, 0), (0, 4)), (6, 8)) == (Fraction(3), Fraction(2))
        assert solve_square(((1, 1), (2, 2)), (1, 2)) is None

    def test_scaled_inverse(self):
        # mat @ inverse == den * I with den = |det| > 0, and None exactly on
        # singular input, the empty matrix included
        rng = random.Random(1958)
        singular = 0
        for _ in range(2000):
            n = rng.randint(0, 5)
            mat = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            if n >= 2 and rng.random() < 0.3:
                mat[-1] = [2 * x - y for x, y in zip(mat[0], mat[1])]
            solved = linalg._scaled_inverse(mat)
            if rank_by_elimination(mat) < n:
                assert solved is None
                singular += 1
                continue
            den, inverse = solved
            assert den == abs(det(mat)) > 0
            assert mat_mul(mat, inverse) == tuple(
                tuple(den * (i == j) for j in range(n)) for i in range(n)
            )
        assert singular > 300
        assert linalg._scaled_inverse(()) == (1, ())

    def test_agree_with_rational_elimination(self):
        # int and Fraction entries, rank-deficient rows, inconsistent
        # right-hand sides
        inconsistent = 0
        for mat, rhs in rational_systems(4242, 1500):
            expected = solve_by_elimination(mat, rhs)
            inconsistent += expected is None
            assert rank(mat) == rank_by_elimination(mat)
            assert lin_solve(mat, rhs) == expected
            if len(mat) == len(mat[0]):
                assert det(mat) == det_by_elimination(mat)
                unique = rank_by_elimination(mat) == len(mat)
                assert solve_square(mat, rhs) == (expected if unique else None)
        assert inconsistent > 200

    @pytest.mark.parametrize(
        "mat, rhs",
        [(((1, 0),), (5, 7)), (((1, 0), (0, 1)), (5,)), (((1, 0), (1,)), (5, 6)), ((), (5,))],
        ids=["rhs too long", "rhs too short", "ragged rows", "empty matrix"],
    )
    def test_lin_solve_checks_shape(self, mat, rhs):
        with pytest.raises(ValueError):
            lin_solve(mat, rhs)

    def test_lin_solve_particular(self):
        sol = lin_solve(((1, 1, 0),), (5,))
        assert sol == (Fraction(5), Fraction(0), Fraction(0))
        assert lin_solve(((1, 1), (1, 1)), (0, 1)) is None

    @given(small_matrix(max_rows=3, max_cols=4), st.lists(st.integers(-5, 5), min_size=3, max_size=3))
    def test_lin_solve_satisfies(self, m, rhs):
        rhs = tuple(rhs[: len(m)])
        sol = lin_solve(m, rhs)
        if sol is not None:
            assert mat_vec(m, sol) == tuple(Fraction(b) for b in rhs)


class TestPinnedSolvers:
    def test_population_digest(self):
        digest = hashlib.sha256()
        for mat, rhs in rational_systems(2718, 5000):
            answers = [rank(mat), lin_solve(mat, rhs)]
            if len(mat) == len(mat[0]):
                answers += [det(mat), solve_square(mat, rhs)]
            digest.update(repr(answers).encode() + b"\n")
        assert digest.hexdigest() == SOLVER_DIGEST

    def test_empty_systems(self):
        assert rank(()) == 0
        assert det(()) == Fraction(1)
        assert lin_solve((), ()) == ()
        assert solve_square((), ()) == ()
