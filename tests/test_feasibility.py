import hashlib
import pickle
import random
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import fourier_motzkin
from corecover import (
    Certificate,
    Constraint,
    Polyhedron,
    Relation,
    verify_certificate,
)
from fourier_motzkin import is_feasible
from util import (
    affine_dimension,
    eliminate,
    enumerate_vertices,
    eq,
    extension_exists,
    feasible_by_enumeration,
    ge,
    gt,
    is_bounded,
    recession_cone,
)

F = Fraction


def poly(dim, *cons):
    return Polyhedron(dim, tuple(cons))


# hypothesis strategies -----------------------------------------------------

def constraints_strategy(dim, closed=False):
    rels = (Relation.GE, Relation.EQ) if closed else (Relation.GE, Relation.EQ, Relation.GT)
    return st.lists(
        st.tuples(
            st.lists(st.integers(-3, 3), min_size=dim, max_size=dim),
            st.sampled_from(rels),
            st.integers(-4, 4),
        ).map(lambda t: Constraint(tuple(t[0]), t[1], F(t[2]))),
        min_size=0,
        max_size=6,
    )


def polyhedron_strategy(max_dim=3, closed=False):
    return st.integers(1, max_dim).flatmap(
        lambda d: constraints_strategy(d, closed).map(lambda cs: Polyhedron(d, tuple(cs)))
    )


# examples ------------------------------------------------------------------

class TestIsFeasible:
    def test_interval(self):
        p = poly(1, ge((1,)), ge((-1,), 1))
        cert = is_feasible(p)
        assert cert.feasible
        assert verify_certificate(p, cert)
        assert cert.point == (F(1, 2),)

    def test_contradictory_halflines(self):
        p = poly(1, ge((1,), -1), ge((-1,)))
        cert = is_feasible(p)
        assert not cert.feasible
        assert cert.multipliers == (F(1), F(1))
        assert verify_certificate(p, cert)

    def test_strict_point_excluded(self):
        p = poly(1, ge((1,)), ge((-1,)), gt((1,)))
        cert = is_feasible(p)
        assert not cert.feasible
        assert verify_certificate(p, cert)

    def test_strict_open_interval(self):
        p = poly(1, gt((1,)), gt((-1,), 1))
        cert = is_feasible(p)
        assert cert.feasible
        assert 0 < cert.point[0] < 1

    def test_zero_dim(self):
        assert is_feasible(poly(0)).feasible
        bad = poly(0, Constraint((), Relation.GE, F(-1)))
        cert = is_feasible(bad)
        assert not cert.feasible and verify_certificate(bad, cert)


class TestEliminate:
    def test_projection_example(self):
        p = poly(2, ge((1, 1)), ge((0, -1)))
        q = eliminate(p, 1)
        assert q.dim == 1
        assert q.contains((F(0),))
        assert q.contains((F(5),))
        assert not q.contains((F(-1),))

    def test_empty_list(self):
        q = eliminate(poly(3), 0)
        assert q.dim == 2 and q.constraints == ()

    def test_contradiction_retained(self):
        p = poly(1, eq((1,)), ge((1,), -1))
        q = eliminate(p, 0)
        assert q.dim == 0
        assert len(q.constraints) == 1
        assert not q.contains(())

    def test_bad_index(self):
        with pytest.raises(ValueError):
            eliminate(poly(1, ge((1,))), 1)

    def test_strictness_propagates(self):
        # x < y and y <= 3 project to x < 3
        p = poly(2, gt((-1, 1)), ge((0, -1), 3))
        q = eliminate(p, 1)
        assert not q.contains((F(3),))
        assert q.contains((F(2),))
        strict = [c for c in q.constraints if c.relation is Relation.GT]
        assert strict

    @given(polyhedron_strategy(max_dim=3), st.data())
    def test_membership_is_extension(self, p, data):
        idx = data.draw(st.integers(0, p.dim - 1))
        q = eliminate(p, idx)
        point = tuple(
            F(data.draw(st.integers(-4, 4)), data.draw(st.integers(1, 2)))
            for _ in range(p.dim - 1)
        )
        assert q.contains(point) == extension_exists(p, idx, point)


class TestAffineDimension:
    def test_examples(self):
        assert affine_dimension(poly(2)) == 2
        assert affine_dimension(poly(2, eq((1, 0)))) == 1
        assert affine_dimension(poly(1, ge((1,)), ge((-1,), -1))) == -1

    def test_trapezoid(self, hirzebruch):
        from corecover import chamber

        assert affine_dimension(chamber(hirzebruch, (1, 1, 1, 1))) == 2

    def test_implicit_equality(self):
        p = poly(2, ge((1, 0)), ge((-1, 0)), ge((0, 1)))
        assert affine_dimension(p) == 1


class TestIsBounded:
    def test_examples(self, hirzebruch, a2_resolution):
        from corecover import chamber

        assert is_bounded(chamber(hirzebruch, (1, 1, 1, 1)))
        assert not is_bounded(poly(1, ge((1,))))
        assert is_bounded(chamber(a2_resolution, (1, 1, 1)))

    def test_empty_is_bounded(self):
        assert is_bounded(poly(1, ge((1,), -1), ge((-1,))))

    def test_line_unbounded(self):
        assert not is_bounded(poly(2, eq((1, 0))))


class TestConeMember:
    # Is the target a nonnegative (strict: positive) combination of the
    # generators? One equality row per target coordinate, then c_i >= 0.

    def test_orthant(self):
        cert = is_feasible(poly(2, eq((1, 0), -3), eq((0, 1), -2), ge((1, 0)), ge((0, 1))))
        assert cert.feasible
        assert cert.point == (F(3), F(2))

    def test_forced_negative(self):
        # generators (1, 1) and (0, 1), target (3, 2)
        system = poly(2, eq((1, 0), -3), eq((1, 1), -2), ge((1, 0)), ge((0, 1)))
        cert = is_feasible(system)
        assert not cert.feasible
        assert verify_certificate(system, cert)

    def test_zero_target(self):
        gens = ((1, 2), (-5, 1))
        cert = is_feasible(poly(2, eq((1, -5)), eq((2, 1)), ge((1, 0)), ge((0, 1))))
        assert cert.feasible
        combined = tuple(
            sum(c * g[j] for c, g in zip(cert.point, gens)) for j in range(2)
        )
        assert combined == (0, 0)
        assert all(c >= 0 for c in cert.point)

    def test_strict_needs_positive(self):
        assert not is_feasible(poly(1, eq((1,)), gt((1,)))).feasible
        assert is_feasible(poly(1, eq((1,)), ge((1,)))).feasible

    def test_no_generators(self):
        assert is_feasible(poly(0, eq(()), eq(()))).feasible
        assert not is_feasible(poly(0, eq((), -1), eq(()))).feasible


class TestEnumerateVertices:
    def test_trapezoid(self, hirzebruch):
        from corecover import chamber

        vertices = enumerate_vertices(chamber(hirzebruch, (1, 1, 1, 1)))
        assert vertices == [
            (F(-1), F(-1)),
            (F(-1), F(1)),
            (F(0), F(1)),
            (F(2), F(-1)),
        ]

    def test_interval(self):
        assert enumerate_vertices(poly(1, ge((1,)), ge((-1,), 1))) == [(F(0),), (F(1),)]

    def test_infeasible(self):
        assert enumerate_vertices(poly(1, ge((1,), -1), ge((-1,)))) == []

    def test_simplex_dim_5(self):
        # x_i >= 0 and sum x_i <= 1: the standard 5-simplex
        facets = [ge(tuple(int(k == i) for k in range(5))) for i in range(5)]
        simplex = poly(5, *facets, ge((-1,) * 5, 1))
        assert enumerate_vertices(simplex) == [
            tuple(F(0) for _ in range(5)),
            *sorted((tuple(F(int(k == i)) for k in range(5)) for i in range(5))),
        ]

    def test_seventeen_constraints(self):
        # x >= -k for k = 0..15 and x <= 3: the segment [0, 3]
        segment = poly(1, *[ge((1,), k) for k in range(16)], ge((-1,), 3))
        assert enumerate_vertices(segment) == [(F(0),), (F(3),)]


class TestCertificates:
    @given(polyhedron_strategy(max_dim=3))
    def test_always_verifiable(self, p):
        cert = is_feasible(p)
        assert verify_certificate(p, cert)

    @given(polyhedron_strategy(max_dim=3, closed=True))
    def test_agrees_with_enumeration(self, p):
        assert is_feasible(p).feasible == feasible_by_enumeration(p)

    def test_enumeration_rejects_strict(self):
        with pytest.raises(ValueError):
            feasible_by_enumeration(poly(1, gt((1,))))

    def test_wrong_length_proofs_rejected(self):
        p = poly(2, ge((1, 0)))
        assert not verify_certificate(p, Certificate(True, point=(1,)))
        assert not verify_certificate(p, Certificate(True, point=(1, 0, 0)))
        assert not verify_certificate(poly(1, ge((1,), -1), ge((-1,))), Certificate(False, multipliers=(1,)))


class TestLazyCertificates:
    """is_feasible builds a proof on its first read, equal to one built
    directly, and never again."""

    def counted(self, monkeypatch, name):
        calls = []
        real = getattr(fourier_motzkin, name)
        monkeypatch.setattr(fourier_motzkin, name, lambda *args: calls.append(args) or real(*args))
        return calls

    def test_equal_to_direct(self):
        for p in mixed_population(1968, 300):
            first = is_feasible(p)
            direct = Certificate(first.feasible, point=first.point, multipliers=first.multipliers)
            # each comparison starts from a certificate nothing has read yet
            assert hash(is_feasible(p)) == hash(direct)
            assert is_feasible(p) == direct and direct == is_feasible(p)
            assert repr(is_feasible(p)) == repr(direct)
            assert is_feasible(p).point == direct.point
            assert is_feasible(p).multipliers == direct.multipliers
            assert pickle.loads(pickle.dumps(is_feasible(p))) == direct

    def test_point_built_once(self, monkeypatch):
        calls = self.counted(monkeypatch, "_choose_value")
        cert = is_feasible(poly(2, ge((1, 1), -1), gt((1, -1))))
        assert cert.feasible and calls == []
        point = cert.point
        built = len(calls)
        assert built == 2
        assert cert.point is point and cert.multipliers is None
        assert len(calls) == built

    def test_multipliers_built_once(self, monkeypatch):
        calls = self.counted(monkeypatch, "_multipliers")
        cert = is_feasible(poly(1, ge((1,), -1), ge((-1,))))
        assert not cert.feasible and calls == []
        multipliers = cert.multipliers
        assert multipliers == (F(1), F(1)) and len(calls) == 1
        assert cert.multipliers is multipliers and cert.point is None
        assert len(calls) == 1

    def test_immutable(self):
        cert = is_feasible(poly(1, ge((1,))))
        for name, value in (("feasible", False), ("point", (F(1),)), ("multipliers", ())):
            with pytest.raises(FrozenInstanceError):
                setattr(cert, name, value)
        with pytest.raises(FrozenInstanceError):
            del cert.point
        assert cert == Certificate(True, point=(F(0),))


class TestIntegerRows:
    """Each constraint is scaled to its integer row once, kept by the oracle
    while the constraint lives. Every system that holds the constraint
    reuses the row under its own input index."""

    def test_shared_constraint_keeps_each_index(self):
        shared = Constraint((F(-1, 2),), Relation.GE, F(-1, 3))  # x <= -2/3
        lower = ge((1,))
        first = poly(1, shared, lower)
        second = poly(1, ge((1,), 5), lower, gt((2,), 7), shared)
        cert = is_feasible(first)
        row = fourier_motzkin._ROWS[shared]
        again = is_feasible(second)
        assert fourier_motzkin._ROWS[shared] is row
        assert not cert.feasible and not again.feasible
        a, b = cert.multipliers
        assert a > 0 and b > 0
        assert again.multipliers == (0, b, 0, a)
        assert verify_certificate(first, cert) and verify_certificate(second, again)

    def test_constraint_identity_unchanged(self):
        fresh = Constraint((F(1, 2), 3), Relation.EQ, F(-5, 6))
        scaled = Constraint((F(1, 2), 3), Relation.EQ, F(-5, 6))
        blob, text, digest = pickle.dumps(fresh), repr(fresh), hash(fresh)
        assert is_feasible(poly(2, scaled)).feasible
        assert scaled in fourier_motzkin._ROWS and set(vars(scaled)) == set(vars(fresh))
        assert scaled == fresh and hash(scaled) == digest and repr(scaled) == text
        assert pickle.dumps(scaled) == blob
        back = pickle.loads(pickle.dumps(scaled))
        assert back == fresh and hash(back) == digest and set(vars(back)) == set(vars(fresh))


class TestBoundedImpliesFiniteVertices:
    @given(polyhedron_strategy(max_dim=3, closed=True))
    def test_bounded_recession_trivial(self, p):
        if not is_feasible(p).feasible or not is_bounded(p):
            return
        cone = recession_cone(p)
        cert = is_feasible(cone)
        assert cert.feasible and all(x == 0 for x in cert.point)
        assert enumerate_vertices(p)


# pinned certificates -------------------------------------------------------

# SHA-256 over the reprs of the certificates of mixed_population(1968, 1200),
# one per line. Any change to a witness point, a multiplier or the Fraction
# form of either changes it.
POPULATION_DIGEST = "ae98705c9a657920186b1bf218e8b01e2072a7fbe79c084f54fb7ac66b80f63b"

# A bounded region cut by 19 half-spaces, two of them parallel to others,
# and a half-space that misses it: 3-D, 20 rows, no equalities, so every
# variable is removed by pairing.
DEEP_ROWS = (
    ((1, 2, 0), F(2)),
    ((-3, -1, 3), F(7, 3)),
    ((3, -1, 2), F(2)),
    ((0, 0, 3), F(5)),
    ((-1, 0, 3), F(3)),
    ((-2, -2, -1), F(2, 3)),
    ((-1, 0, 3), F(5)),
    ((-1, -3, 2), F(3)),
    ((2, -1, 3), F(2)),
    ((-3, -2, 2), F(1)),
    ((-1, -2, 2), F(7)),
    ((-1, -2, 3), F(2, 3)),
    ((2, 0, -2), F(4)),
    ((0, -1, 0), F(7, 2)),
    ((2, -3, 2), F(5)),
    ((-1, 1, -1), F(9, 2)),
    ((-2, 0, 1), F(3)),
    ((-1, 0, 2), F(7)),
    ((0, 0, 3), F(1)),
    ((2, -1, 3), F(-40)),
)


def mixed_population(seed, count):
    """Random GE/EQ/GT systems in dimensions 1-4 with int and Fraction entries."""
    rng = random.Random(seed)
    relations = (Relation.GE, Relation.EQ, Relation.GT)

    def number(bound):
        if rng.random() < 0.5:
            return rng.randint(-bound, bound)
        return F(rng.randint(-2 * bound, 2 * bound), rng.choice((2, 3, 4, 6)))

    systems = []
    for _ in range(count):
        dim = rng.randint(1, 4)
        cons = tuple(
            Constraint(tuple(number(4) for _ in range(dim)), rng.choice(relations), number(6))
            for _ in range(rng.randint(0, 8))
        )
        systems.append(Polyhedron(dim, cons))
    return systems


class TestPinnedCertificates:
    def test_population_digest(self):
        digest = hashlib.sha256()
        verdicts = set()
        for p in mixed_population(1968, 1200):
            cert = is_feasible(p)
            assert verify_certificate(p, cert)
            verdicts.add(cert.feasible)
            digest.update(repr(cert).encode() + b"\n")
        assert verdicts == {True, False}
        assert digest.hexdigest() == POPULATION_DIGEST

    def test_deep_pairing(self):
        p = poly(3, *(ge(u, b) for u, b in DEEP_ROWS))
        cert = is_feasible(p)
        assert not cert.feasible
        assert verify_certificate(p, cert)
        assert cert.multipliers == (
            F(9, 91), F(0), F(0), F(0), F(0),
            F(15, 182), F(0), F(0), F(0), F(3, 910),
            F(0), F(0), F(3, 364), F(0), F(0),
            F(3, 455), F(0), F(0), F(0), F(3, 91),
        )
        assert all(type(m) is Fraction for m in cert.multipliers)

    def test_early_contradiction(self):
        # 5-D, 7 rows: pairing every row of the last stage would take minutes;
        # the step stops at the first false constant row it combines.
        p = poly(
            5,
            gt((1, 1, 3, 4, 1), -1),
            ge((-1, 0, 1, -2, 3), -3),
            ge((-4, -2, 2, 4, -2), -4),
            ge((-2, 3, 3, -2, -4), F(4, 3)),
            gt((1, 2, -4, -4, -1), F(-7, 3)),
            gt((3, -4, -1, -1, -3), 7),
            ge((-2, 1, -3, 1, -3), F(1, 2)),
        )
        cert = is_feasible(p)
        assert not cert.feasible
        assert verify_certificate(p, cert)
        assert cert.multipliers == (
            F(6363, 4700), F(4533, 2350), F(0), F(393, 4700),
            F(1983, 4700), F(2151, 2350), F(57, 47),
        )
