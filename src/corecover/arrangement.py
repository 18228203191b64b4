"""Oriented rational hyperplane arrangements and their torus data.

An arrangement is a list of oriented hyperplanes ``{<u_i, x> + lift_i = 0}``
in an ``n``-dimensional rational space, with primitive integer normals
``u_i``. It encodes a quotient construction: the normals define a surjection
of lattices whose kernel is the acting subtorus, and the lifts determine the
moment map level. This module builds that torus data, reorients arrangements,
tests smoothness and reconstructs an arrangement from its quotient data by
cutting the affine solution space with coordinate hyperplanes. What depends
only on the directions of the normals is kept in one ``_ClassMatroid``
record per set of direction classes, shared across arrangements. Chambers
are state sets of dense patterns and live in :mod:`corecover.stability`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm
from operator import mul

from .linalg import (
    _as_fractions,
    _bareiss,
    _common_denominator,
    _extend_echelon,
    _int_det,
    _scaled_inverse,
    is_primitive,
    kernel_lattice,
    primitive_scale,
    rank,
    transpose,
)
from .memo import scoped_cache


@dataclass(frozen=True)
class Arrangement:
    """``d`` oriented hyperplanes ``<normals[i], x> + lifts[i] = 0`` in Q^n.

    Invariants: every normal is primitive and nonzero, the normals span Q^n,
    and there are at least ``n`` of them. Lifts are arbitrary rationals.
    """

    n: int
    normals: tuple
    lifts: tuple
    name: str | None = field(default=None, compare=False)

    def __post_init__(self):
        normals = tuple(tuple(x for x in row) for row in self.normals)
        lifts = _as_fractions(self.lifts)
        object.__setattr__(self, "normals", normals)
        object.__setattr__(self, "lifts", lifts)
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 1:
            raise ValueError("ambient dimension must be a positive integer")
        if len(normals) < self.n:
            raise ValueError("need at least as many hyperplanes as the dimension")
        if len(lifts) != len(normals):
            raise ValueError("lifts length does not match normals")
        for i, u in enumerate(normals):
            if len(u) != self.n:
                raise ValueError(f"normal {i + 1} has wrong length")
            for x in u:
                if not isinstance(x, int) or isinstance(x, bool):
                    raise ValueError(f"normal {i + 1} has a non-integer entry")
            if all(x == 0 for x in u):
                raise ValueError(f"normal {i + 1} not primitive")
            if not is_primitive(u):
                raise ValueError(f"normal {i + 1} not primitive")
        if rank(normals) < self.n:
            raise ValueError("normals do not span")

    @property
    def d(self) -> int:
        return len(self.normals)


def check_sign_vector(eps, d: int) -> tuple:
    eps = tuple(eps)
    if len(eps) != d:
        raise ValueError(f"sign vector has length {len(eps)}, expected {d}")
    if any(e not in (1, -1) for e in eps):
        raise ValueError("sign vector entries must be +1 or -1")
    return eps


def all_sign_vectors(d: int):
    """All 2^d sign vectors, lexicographically with +1 before -1."""
    return itertools.product((1, -1), repeat=d)


@dataclass(frozen=True)
class TorusData:
    """Exact sequence data of the quotient encoded by an arrangement.

    ``basis`` holds the pinned canonical basis of the kernel lattice of the
    normal map, one vector of length ``d`` per row; read as a matrix it is
    exactly the ``m x d`` relation matrix whose column ``i`` is the image of
    the ``i``-th coordinate character, and its transpose is the ``d x m``
    embedding matrix of the subtorus. The record is built from ``basis``
    and ``lifts`` alone: ``d = len(lifts)``, ``m = len(basis)`` and the
    moment map level ``alpha = basis @ lifts`` are derived from them, so a
    level that disagrees with the lifts cannot be passed in. Lifts that are
    Fractions pass through as they are, anything else is converted; every
    basis row must have ``d`` entries.

    The basis choice is a convention; everything comparable across different
    bases (stability verdicts, chamber combinatorics) is basis independent
    and is tested as such.
    """

    d: int = field(init=False)
    m: int = field(init=False)
    basis: tuple
    alpha: tuple = field(init=False)
    lifts: tuple

    def __post_init__(self):
        basis = tuple(tuple(row) for row in self.basis)
        lifts = _as_fractions(self.lifts)
        if any(len(row) != len(lifts) for row in basis):
            raise ValueError("kernel basis vector has wrong length")
        object.__setattr__(self, "d", len(lifts))
        object.__setattr__(self, "m", len(basis))
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "alpha", _level(basis, lifts))
        object.__setattr__(self, "lifts", lifts)

    @property
    def n(self) -> int:
        return self.d - self.m


def _level(basis, lifts) -> tuple:
    """``basis @ lifts`` as Fractions, summed on integers over the lifts'
    common denominator."""
    common, nums = _common_denominator(lifts)
    return tuple(Fraction(sum(map(mul, row, nums)), common) for row in basis)


@scoped_cache
def torus_data(arr: Arrangement) -> TorusData:
    """Kernel lattice and moment level of an arrangement.

    Deterministic: the kernel basis follows the pinned Hermite normal form
    convention of :mod:`corecover.linalg`, and equals ``kernel_lattice`` of
    the transposed normals ``mat``. Input that is not regular takes that
    call. On regular input the basis is read off the arrangement's
    ``_ClassMatroid`` with no elimination. ``mat`` has full row rank, and
    every independent n-subset of its columns has determinant +-1, so by
    the ``kernel_lattice`` docstring the basis has one row per position p
    outside N, the lexicographically last independent columns, in
    increasing order: ``e_p - mat_N^{-1} mat_p``, placed on the N columns.

    Write hyperplane i as ``u_i = s_i r_{k_i}`` (``_orientations``). N is
    the greedy basis taken from the end: position i joins it iff ``u_i``
    lies outside the span of the normals already taken. A class whose last
    occurrence is skipped is in that span, and so are its earlier members;
    so N is the last occurrence of each class of one class basis B, the
    greedy basis of the classes ordered by descending last occurrence.
    That is the Gale-maximal basis for this order: of the record's
    independent class n-subsets (``unit_bases``), the one whose last
    occurrences, sorted in descending order, compare largest. Let ``y_k``
    hold the coordinates of ``r_k`` in B, ``r_k = sum_b y_k[b] r_b``,
    integral since B has determinant +-1. Then ``u_p = s_p sum_b
    y_{k_p}[b] r_b = sum_j s_p s_j y_{k_p}[b_j] u_j`` over the positions j
    in N, with ``b_j`` the class of j, so ``(mat_N^{-1} mat_p)_j = s_p s_j
    y_{k_p}[b_j]``. The coordinates depend on the classes alone and the
    record keeps them per B (``coordinates``); an arrangement reads only
    its signs and positions, so each row is one copy of the row shared by
    its class and sign with a 1 set at p.
    """
    record = _matroid(arr)
    bases = record.unit_bases
    if bases is None:
        basis = kernel_lattice(transpose(arr.normals, ncols=arr.n), ncols=arr.d)
        return TorusData(basis, arr.lifts)
    planes = _orientations(arr)
    last = [members[-1][0] for _, members in _direction_classes(arr)]
    chosen = max(bases, key=lambda c: sorted([last[k] for k in c], reverse=True))
    coords = record.coordinates(chosen)
    pivots = [(last[b], planes[last[b]][1]) for b in chosen]
    skip = {j for j, _ in pivots}
    shared = {}
    basis = []
    for p, plane in enumerate(planes):
        if p in skip:
            continue
        row = shared.get(plane)
        if row is None:
            k, s = plane
            row = shared[plane] = [0] * arr.d
            for (j, sj), y in zip(pivots, coords[k]):
                row[j] = -s * sj * y
        row = row.copy()
        row[p] = 1
        basis.append(tuple(row))
    return TorusData(tuple(basis), arr.lifts)


def reorient(arr: Arrangement, eps) -> Arrangement:
    """Flip the orientation of hyperplane ``i`` wherever ``eps[i] == -1``.

    The point set of every hyperplane is unchanged and the map is an
    involution; normals and lifts both pick up the sign.
    """
    eps = check_sign_vector(eps, arr.d)
    normals = tuple(
        tuple(e * x for x in u) for e, u in zip(eps, arr.normals)
    )
    lifts = tuple(e * lift for e, lift in zip(eps, arr.lifts))
    return Arrangement(arr.n, normals, lifts, name=arr.name)


@scoped_cache
def _direction_classes(arr: Arrangement) -> tuple:
    """The hyperplanes grouped by normal direction, sorted by representative.

    Normals are primitive, so two are parallel exactly when they agree up to
    sign. Each class is ``(r, members)``: ``r`` is the common normal up to
    sign with its first nonzero entry positive, and ``members`` holds
    ``(i, t)`` for each hyperplane ``i`` of the class, in index order, with
    ``t`` an integer: the hyperplane is the set ``<r, x> = t / L``, where L
    is the lifts' common denominator. The classes are sorted by ``r``, not
    listed in order of appearance, so arrangements that differ only in the
    order of their hyperplanes, the signs of their normals, parallel copies
    or lifts have the same representatives and share one ``_ClassMatroid``.
    """
    classes = {}
    zero = (0,) * arr.n
    _, nums = _common_denominator(arr.lifts)
    for i, (u, num) in enumerate(zip(arr.normals, nums)):
        # tuples compare lexicographically: u > zero iff its first nonzero
        # entry is positive
        if u > zero:
            classes.setdefault(u, []).append((i, -num))
        else:
            classes.setdefault(tuple(-x for x in u), []).append((i, num))
    return tuple((r, tuple(members)) for r, members in sorted(classes.items()))


def _orientations(arr: Arrangement) -> list:
    """``(k, s)`` for each hyperplane: its direction class ``k`` (an index
    into ``_direction_classes``) and the sign with ``u_i = s * r_k``."""
    out = [None] * arr.d
    for k, (r, members) in enumerate(_direction_classes(arr)):
        for i, _ in members:
            out[i] = (k, 1 if arr.normals[i] == r else -1)
    return out


def _circuits(vectors):
    """Every circuit of ``vectors``: minimal linearly dependent subsets.

    Yields ``(support, relation)`` with ``support`` increasing indices and
    ``relation`` the integer relation ``sum(c * vectors[i] for c, i in
    zip(relation, support)) == 0``, every ``c`` nonzero. The walk is depth
    first over index subsets and keeps each prefix's echelon form. It extends
    only independent prefixes, which loses no circuit since every proper
    subset of a circuit is independent. An independent prefix plus one vector
    is a circuit exactly when the relation is nonzero on all of the prefix;
    otherwise its circuit is a proper subset, met on its own path.
    """
    stack = [((), ())]
    while stack:
        prefix, echelon = stack.pop()
        for k in range(prefix[-1] + 1 if prefix else 0, len(vectors)):
            grown, relation = _extend_echelon(echelon, vectors[k])
            if grown is not None:
                stack.append((prefix + (k,), grown))
            elif all(relation):
                yield prefix + (k,), relation


class _ClassMatroid:
    """The matroid of one tuple of direction-class representatives.

    Regularity, the circuits, realizability, the coloops, the masks of the
    chambers' candidate rays, the vertex systems and the coordinates behind
    the kernel basis depend on the representatives alone, not on the order
    of the hyperplanes, the signs of their normals, parallel copies or the
    lifts. So one record serves every arrangement with the same sorted
    representatives (see ``_direction_classes``), and each of its parts is
    computed on first use. Records are kept by ``_class_matroid``; class
    indices below are positions in ``reps``.
    """

    def __init__(self, reps: tuple):
        self.reps = reps
        self.n = len(reps[0])
        self._coordinates = {}

    @cached_property
    def unit_bases(self) -> tuple | None:
        """The independent n-subsets of classes, in lexicographic order, if
        every n representatives have determinant 0 or +-1 (see
        ``is_regular``); None at the first that has not. One integer
        elimination (``_int_det``) per n-subset, so a regular record keeps
        its nonzero n-minors, all +-1, for the cost of the verdict."""
        out = []
        for chosen in itertools.combinations(range(len(self.reps)), self.n):
            value = _int_det([self.reps[k] for k in chosen])
            if abs(value) > 1:
                return None
            if value:
                out.append(chosen)
        return tuple(out)

    @property
    def regular(self) -> bool:
        """Every n representatives have determinant 0 or +-1."""
        return self.unit_bases is not None

    def coordinates(self, basis: tuple) -> tuple:
        """For a class basis of a regular record (one of ``unit_bases``),
        the coordinates ``y_k`` of every representative in it, ``r_k =
        sum(y_k[j] * r_{basis[j]})``: the representatives times the inverse
        of the basis matrix, which is integral, from one ``_scaled_inverse``
        and one product per representative. Kept per basis; a regular
        record has at most C(n(n+1)/2, n) of them."""
        coords = self._coordinates.get(basis)
        if coords is None:
            _, inverse = _scaled_inverse([self.reps[k] for k in basis])
            columns = tuple(zip(*inverse))
            coords = self._coordinates[basis] = tuple(
                tuple([sum(map(mul, r, col)) for col in columns]) for r in self.reps
            )
        return coords

    def circuits(self):
        """The circuits of the representatives (see ``_circuits``). A record
        with at most n(n+1)/2 classes, the most a regular arrangement has
        (Heller, 1957), keeps them once walked. One with more walks them
        afresh for each caller, who may stop at the first circuit that
        meets: their number grows as C(D, n + 1), so keeping them would
        hold that many, where the walk holds one path."""
        if len(self.reps) > self.n * (self.n + 1) // 2:
            return _circuits(self.reps)
        return self._kept_circuits

    @cached_property
    def _kept_circuits(self) -> tuple:
        return tuple(_circuits(self.reps))

    def independent(self, chosen) -> bool:
        """Does each chosen class lie outside the span of the classes not
        chosen? One ``_extend_echelon`` form of the others, then one
        reduction of each chosen class against it: class k lies outside iff
        it extends the form. D reductions per query, and nothing is kept."""
        chosen = set(chosen)
        form = ()
        for k, r in enumerate(self.reps):
            if k not in chosen:
                form = _extend_echelon(form, r)[0] or form
        return all(_extend_echelon(form, self.reps[k])[0] is not None for k in chosen)

    @cached_property
    def realizable(self) -> tuple:
        """The class subsets that pass ``independent``, the realizable BOTH
        sets of ``chart_complement``, by size and then lexicographically,
        the empty one first."""
        count = len(self.reps)
        subsets = itertools.chain.from_iterable(
            itertools.combinations(range(count), size) for size in range(count + 1)
        )
        return tuple(chosen for chosen in subsets if self.independent(chosen))

    @cached_property
    def coloops(self) -> frozenset:
        """The classes outside the span of all the others, from one echelon
        pass over the representatives: D reductions. The classes the pass
        keeps form a basis, and each other class's relation is its
        fundamental circuit. A class outside the basis lies in its span. A
        basis class b lies in the span of the others iff some fundamental
        circuit uses it, since solving that relation for b does it, and if
        none does, every class but b lies in the span of the basis without
        b, which misses b."""
        form, basis, used = (), [], set()
        for k, r in enumerate(self.reps):
            grown, relation = _extend_echelon(form, r)
            if grown is None:
                used.update(b for b, c in zip(basis, relation) if c)
            else:
                form = grown
                basis.append(k)
        return frozenset(basis) - used

    @cached_property
    def ray_masks(self) -> tuple:
        """Per class k, the masks ``(up, down)`` of the candidate rays (see
        ``quotient._extended_core_cached``): each nonzero integer cofactor
        ``c`` of n - 1 representatives (``c = (1,)`` for n = 1) at bit j and
        ``-c`` at bit j + R, with R cofactors; ``up`` holds the rays with
        ``<r_k, ray> >= 0``, ``down`` those with ``<= 0``. One integer
        elimination (``_int_det``) per minor."""
        minors = (
            [(-1) ** j * _int_det([r[:j] + r[j + 1:] for r in subset]) for j in range(self.n)]
            for subset in itertools.combinations(self.reps, self.n - 1)
        )
        cofactors = [c for c in minors if any(c)]
        count, every = len(cofactors), (1 << len(cofactors)) - 1
        out = []
        for r in self.reps:
            dots = [sum(map(mul, r, c)) for c in cofactors]
            # <r, -c> has the sign opposite to <r, c>
            up = every ^ sum(1 << j for j, x in enumerate(dots) if x < 0)
            down = every ^ sum(1 << j for j, x in enumerate(dots) if x > 0)
            out.append((up | down << count, down | up << count))
        return tuple(out)

    @cached_property
    def bases(self) -> tuple:
        """``(chosen, den, inverse)`` for each independent n-subset of
        classes, in lexicographic order: ``den`` and ``inverse = den *
        M^{-1}`` of the matrix M of their representatives, from one
        ``_bareiss`` pass on ``[M | I]`` (``_scaled_inverse``)."""
        out = []
        for chosen in itertools.combinations(range(len(self.reps)), self.n):
            solved = _scaled_inverse([self.reps[k] for k in chosen])
            if solved is not None:
                out.append((chosen, *solved))
        return tuple(out)


# Records kept at once. The populations this serves repeat a few class
# configurations. A record of D classes keeps C(D, n) bases with their
# inverses, and a regular one also its independent class n-subsets and the
# coordinates of its representatives in each class basis it was asked for,
# at most C(n(n+1)/2, n) of them.
_MATROID_CACHE_SIZE = 32


@lru_cache(maxsize=_MATROID_CACHE_SIZE)
def _class_matroid(reps: tuple) -> _ClassMatroid:
    """The record of a tuple of sorted representatives, shared by every
    arrangement that has them; ``cache_clear()`` drops every record."""
    return _ClassMatroid(reps)


def _matroid(arr: Arrangement) -> _ClassMatroid:
    """The class-matroid record of an arrangement's direction classes."""
    return _class_matroid(tuple(r for r, _ in _direction_classes(arr)))


def _vertices(arr: Arrangement) -> tuple:
    """The vertices of the arrangement, sorted, each with its sign vector.

    A vertex is a point where hyperplanes with spanning normals meet, so it
    is the meet of n of them with independent normals. Each entry is
    ``(point, sigma)`` with ``sigma_i`` the sign of ``<u_i, x> + lift_i`` at
    the point, 0 exactly on the hyperplanes through it. Independent normals
    lie in distinct direction classes (see ``_direction_classes``), and
    whether n hyperplanes from n distinct classes are independent depends
    only on the classes. So the record's ``bases`` list each independent
    n-subset of classes with ``den`` and ``den * M^{-1}`` for the matrix M
    of their representatives, and each choice of one hyperplane per class,
    ``<r_k, x> = t_k``, is the vertex ``den * x = (den * M^{-1}) t``: one
    matrix-vector product, no elimination. Its signs take one dot product
    ``<r_k, den * x>`` per class, which each hyperplane of the class
    compares with its own offset. On input that is not simple a vertex lies
    on more than n hyperplanes and is listed once: the hyperplanes through
    a vertex span, so its zero set, and hence its sign vector, determines
    it. They are sorted on integer keys, then made Fractions; nothing is
    kept, since the face record (``stability._faces``) lists them once.
    """
    # on integers: with the offsets over L, t = T / L, the point is x = nums
    # / (den * L) with nums = inverse @ T, and <r_k, x> - t has the sign of
    # <r_k, nums> - den * T (den > 0); hyperplane i reads s * (<r_k, x> - t)
    classes = _direction_classes(arr)
    reps = [r for r, _ in classes]
    common, lifts = _common_denominator(arr.lifts)
    planes = [(k, s, -s * lift) for (k, s), lift in zip(_orientations(arr), lifts)]
    offsets = [tuple(t for _, t in members) for _, members in classes]
    found = {}
    for chosen, den, inverse in _matroid(arr).bases:
        for ts in itertools.product(*(offsets[k] for k in chosen)):
            nums = tuple([sum(map(mul, row, ts)) for row in inverse])
            dots = [sum(map(mul, r, nums)) for r in reps]
            values = [s * (dots[k] - den * t) for k, s, t in planes]
            found.setdefault(tuple([(v > 0) - (v < 0) for v in values]), (nums, den))
    # point v / (q * L) is key / (S * L), S the lcm of the dens q, with the
    # integer key v * (S // q): one positive scale, so keys sort as points do
    scale = lcm(*{den for _, den in found.values()})
    keyed = sorted((tuple([x * (scale // q) for x in v]), s) for s, (v, q) in found.items())
    return tuple((tuple([Fraction(x, scale * common) for x in key]), s) for key, s in keyed)


@scoped_cache
def is_regular(arr: Arrangement) -> bool:
    """Every linearly independent n-subset of normals is a lattice basis.

    Decided on the D direction classes (see ``_direction_classes``) instead
    of the d hyperplanes: an n-subset that holds a parallel pair has
    determinant 0, and flipping a normal's sign does not change |det|, so
    the C(D, n) determinants of the class representatives decide. They are
    integer matrices, so each determinant is one integer elimination
    (``_int_det``), with no denominators to clear, and the verdict is kept
    in the arrangement's ``_ClassMatroid`` with the independent n-subsets,
    from which ``torus_data`` picks its class basis. A regular arrangement
    has at most n(n+1)/2 classes (Heller, 1957), so for smooth input the
    cost follows n, not d.
    """
    return _matroid(arr).regular


@scoped_cache
def is_simple(arr: Arrangement) -> bool:
    """Every k hyperplanes that meet do so in codimension exactly k.

    Equivalently, no linearly dependent set of hyperplanes meets. Every
    dependent set contains a circuit of normals, and every subset of a
    meeting set meets, so it suffices that no circuit meets. Circuits come
    in two kinds, decided on the direction classes (see
    ``_direction_classes``), whose number is at most n(n+1)/2 for a regular
    arrangement (Heller, 1957):

    * a parallel pair ``<r, x> = s`` and ``<r, x> = t`` meets exactly when
      ``s == t``, that is when it is one hyperplane twice;
    * a larger circuit takes one hyperplane from each of k >= 3 classes
      whose representatives carry an integer relation ``sum(c_i r_i) == 0``
      with every ``c_i`` nonzero. The system ``<r_i, x> = t_i`` has the
      one-dimensional left kernel spanned by ``c``, so it is consistent
      exactly when ``sum(c_i t_i) == 0``. One set of partial sums over the
      first k - 1 classes and one lookup per offset of the last decide every
      choice of hyperplanes at once.

    The circuits of the representatives come from ``_circuits``, one
    reduction per independent subset of classes, kept by the arrangement's
    ``_ClassMatroid`` (if it has at most n(n+1)/2 classes) and read by
    every arrangement with the same classes, so the cost follows the
    classes and their sizes, not C(d, n + 1), and each arrangement pays
    only for its own offsets. It reads them as ``_direction_classes`` keeps
    them, integers over the lifts' common denominator, which scales every
    sum alike.
    """
    offsets = [tuple(t for _, t in members) for _, members in _direction_classes(arr)]
    if any(len(set(ts)) < len(ts) for ts in offsets):
        return False
    for support, relation in _matroid(arr).circuits():
        *head, last = support
        sums = {0}
        for c, k in zip(relation, head):
            sums = {s + c * t for s in sums for t in offsets[k]}
        if any(-relation[-1] * t in sums for t in offsets[last]):
            return False
    return True


def is_smooth(arr: Arrangement) -> bool:
    return is_regular(arr) and is_simple(arr)


@dataclass(frozen=True)
class SolutionSpace:
    """The affine solution plane ``{x in R^d : A x = alpha}``.

    ``particular`` is the lift vector, ``homogeneous_basis`` spans the kernel
    of the relation matrix (rows), and the projection onto
    ``projection_coords`` is bijective on the plane.
    """

    torus: TorusData
    particular: tuple
    homogeneous_basis: tuple
    projection_coords: tuple


def solution_space(td: TorusData) -> SolutionSpace:
    """Parametrize the level set of the relation system.

    The projection coordinates are the lexicographically first subset on
    which the homogeneous part projects bijectively: the pivot columns of
    the (independent) basis rows.
    """
    basis = kernel_lattice(td.basis, ncols=td.d)
    return SolutionSpace(
        torus=td,
        particular=td.lifts,
        homogeneous_basis=basis,
        projection_coords=tuple(_bareiss([list(row) for row in basis], td.d)[0]),
    )


def arrangement_from_quotient(td: TorusData) -> Arrangement:
    """Rebuild an arrangement from torus data by cutting the solution plane.

    The coordinate hyperplane ``{x_i = 0}`` meets the solution plane in an
    affine hyperplane; expressed in the projection coordinates centered at
    the lift point it reads ``<u_i, y> + lift_i' = 0`` with a primitive
    integer normal. Different valid projections give arrangements that agree
    up to a unimodular change of coordinates, so all cross-checks are done on
    basis-independent data.
    """
    if td.d <= td.m:
        raise ValueError("quotient reconstruction needs d > m")
    space = solution_space(td)
    basis = space.homogeneous_basis
    coords = space.projection_coords
    # the basis rows are independent and coords are their pivot columns,
    # so the square block is never singular: one factorisation serves all
    # d coordinates
    den, inverse = _scaled_inverse([[row[t] for t in coords] for row in basis])
    normals = []
    lifts = []
    for i in range(td.d):
        col = [row[i] for row in basis]
        w = tuple(Fraction(sum(map(mul, inv_row, col)), den) for inv_row in inverse)
        if not any(w):
            raise ValueError(
                f"degenerate projection: coordinate {i + 1} is constant on the solution plane"
            )
        prim, sigma = primitive_scale(w)
        normals.append(prim)
        lifts.append(sigma * td.lifts[i])
    return Arrangement(len(coords), tuple(normals), tuple(lifts))


def trivial_factors(arr: Arrangement) -> tuple:
    """Indices whose normal lies outside the span of all the others.

    Each such hyperplane splits off a flat factor of the quotient; the core
    is empty exactly when such indices exist (reported, not assumed). A
    hyperplane with a parallel partner never qualifies, since the partner
    spans its direction, so these are the singleton direction classes (see
    ``_direction_classes``) that are coloops of the class matroid, read off
    the record's ``coloops``: one echelon pass over the classes, D
    reductions, shared by every arrangement with the same classes.
    """
    classes = _direction_classes(arr)
    singles = [(k, members[0][0]) for k, (_, members) in enumerate(classes) if len(members) == 1]
    if not singles:
        return ()
    coloops = _matroid(arr).coloops
    return tuple(sorted(i for k, i in singles if k in coloops))
