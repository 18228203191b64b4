"""Oriented rational hyperplane arrangements and their torus data.

An arrangement is a list of oriented hyperplanes ``{<u_i, x> + lift_i = 0}``
in an ``n``-dimensional rational space, with primitive integer normals
``u_i``. It encodes a quotient construction: the normals define a surjection
of lattices whose kernel is the acting subtorus, and the lifts determine the
moment map level. This module builds that torus data, reorients arrangements,
tests smoothness and reconstructs an arrangement from its quotient data by
cutting the affine solution space with coordinate hyperplanes. What depends
only on the directions of the normals is kept in one ``_ClassMatroid``
record per set of direction classes, shared across arrangements; each
arrangement keeps its own in its ``_matroid`` record. Chambers are state
sets of dense patterns and live in :mod:`corecover.stability`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import cached_property, lru_cache
from importlib import import_module
from math import gcd, lcm
from operator import mul, neg

from .linalg import (
    _as_fractions,
    _bareiss,
    _common_denominator,
    _extend_echelon,
    _int_det,
    _scaled_inverse,
    kernel_lattice,
    primitive_scale,
    transpose,
)


def _fields_only(obj) -> dict:
    """The fields without the records, in ``__dict__`` order as pickles had them."""
    names = {f.name for f in fields(obj)}
    return {k: v for k, v in vars(obj).items() if k in names}


class _Record(cached_property):
    """A ``cached_property`` whose first read stores its value in the
    instance dict without taking the lock that Python 3.10 and 3.11 take
    (gh-87634; 3.12 dropped it). Later reads find the value in the dict and
    never reach the descriptor. Two threads that read a record first at
    once may each build it; the builders are deterministic, so either value
    serves. Read on the class, the descriptor returns itself, and one
    without a name raises ``cached_property``'s ``TypeError``."""

    def __get__(self, instance, owner=None):
        if instance is None or self.attrname is None:
            return super().__get__(instance, owner)
        value = instance.__dict__[self.attrname] = self.func(instance)
        return value


def _record(module: str, builder: str) -> _Record:
    """A record (``_Record``) that ``builder(self)`` of a module above this
    one builds on first read, without a lock."""
    return _Record(
        lambda self: getattr(import_module(f"{__package__}.{module}"), builder)(self)
    )


@dataclass(frozen=True)
class Arrangement:
    """``d`` oriented hyperplanes ``<normals[i], x> + lifts[i] = 0`` in Q^n.

    Invariants: every normal is primitive and nonzero, the normals span Q^n,
    and there are at least ``n`` of them. Lifts are arbitrary rationals.

    The checks run in this order, and the first that fails raises
    ``ValueError``: ``name`` is a str or None; the lifts, not a str or
    bytes, convert to Fractions; ``n`` is a positive int; ``d >= n``; one
    lift per normal; then normal by normal its length, its int (not bool)
    entries and ``gcd == 1``, which also refuses the zero normal. Spanning
    is proved by feeding the normals in order to the incremental echelon
    form (``_extend_echelon``) until it has ``n`` rows, so the check reads
    only the normals up to the one that completes a basis: O(n^3) plus one
    reduction per normal read before that, not an elimination of all ``d``.

    Derived data is kept on the arrangement as records (``_Record``), each
    built on first read, without a lock, and freed with it (none refers
    back to it); equality, ``repr``, pickling and copying see the fields
    alone. ``_cleared`` holds the lifts cleared to integers, ``(common,
    nums)`` with ``lifts[i] == nums[i] / common``, from one
    ``_common_denominator``: the direction classes, the torus data and the
    vertices read them there, so the lifts are cleared once per
    arrangement. ``_matroid`` holds the shared ``_ClassMatroid`` of its
    direction classes, looked up once per arrangement.
    """

    n: int
    normals: tuple
    lifts: tuple
    name: str | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.name is not None and not isinstance(self.name, str):
            raise ValueError("name must be a string")
        normals = tuple(map(tuple, self.normals))
        lifts = _as_fractions(self.lifts)
        object.__setattr__(self, "normals", normals)
        object.__setattr__(self, "lifts", lifts)
        n = self.n
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ValueError("ambient dimension must be a positive integer")
        if len(normals) < n:
            raise ValueError("need at least as many hyperplanes as the dimension")
        if len(lifts) != len(normals):
            raise ValueError("lifts length does not match normals")
        for i, u in enumerate(normals, 1):
            if len(u) != n:
                raise ValueError(f"normal {i} has length {len(u)}, expected {n}")
            for x in u:
                if not isinstance(x, int) or isinstance(x, bool):
                    raise ValueError(f"normal {i} has a non-integer entry")
            if gcd(*u) != 1:
                raise ValueError(f"normal {i} not primitive")
        form = ()
        for u in normals:
            form = _extend_echelon(form, u)[0] or form
            if len(form) == n:
                break
        else:
            raise ValueError("normals do not span")

    @property
    def d(self) -> int:
        return len(self.normals)

    __getstate__ = _fields_only

    # the records; each builder is looked up when it is called
    _cleared = _Record(lambda self: _clear_lifts(self))
    _classes = _Record(lambda self: _direction_classes(self))
    _matroid = _Record(lambda self: _class_matroid(tuple([r for r, _ in self._classes])))
    _simple = _Record(lambda self: _decide_simple(self))
    _torus = _Record(lambda self: _build_torus_data(self))
    _state_rows = _record("stability", "_state_rows")
    _faces = _record("stability", "_faces")
    _core_walk = _record("quotient", "_core_walk")


def _check_word(word, d: int, letters: tuple, name: str, rule: str) -> tuple:
    """``word`` as a tuple of ``d`` entries, each one of ``letters``."""
    word = tuple(word)
    if len(word) != d:
        raise ValueError(f"{name} has length {len(word)}, expected {d}")
    if any(x not in letters for x in word):
        raise ValueError(f"{name} entries must be {rule}")
    return word


def check_sign_vector(eps, d: int) -> tuple:
    return _check_word(eps, d, (1, -1), "sign vector", "+1 or -1")


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
    level that disagrees with the lifts cannot be passed in. A tuple of
    Fractions is kept as it is and other lifts are converted
    (``_as_fractions``); every basis row must have ``d`` entries, which one
    set of the row lengths checks. ``_build_torus_data`` hands in the
    level it has summed from the arrangement's cleared lifts through the
    private ``_read_off``, which runs these checks and sets the fields in
    the same order. The semistability verdicts read the arrangement rebuilt
    from the torus data, kept as the ``_rebuilt`` record (``_rebuild``).

    The basis choice is a convention; everything comparable across different
    bases (stability verdicts, chamber combinatorics) is basis independent
    and is tested as such.
    """

    d: int = field(init=False)
    m: int = field(init=False)
    basis: tuple
    alpha: tuple = field(init=False)
    lifts: tuple

    def __post_init__(self, alpha=None):
        basis = tuple(map(tuple, self.basis))
        lifts = _as_fractions(self.lifts)
        if not set(map(len, basis)) <= {len(lifts)}:
            raise ValueError("kernel basis vector has wrong length")
        if alpha is None:
            alpha = _level(basis, _common_denominator(lifts))
        object.__setattr__(self, "d", len(lifts))
        object.__setattr__(self, "m", len(basis))
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "lifts", lifts)

    @classmethod
    def _read_off(cls, basis, lifts, alpha) -> TorusData:
        """``TorusData(basis, lifts)`` for a caller that has summed its
        level ``alpha == _level(basis, _common_denominator(lifts))``
        already."""
        td = object.__new__(cls)
        object.__setattr__(td, "basis", basis)
        object.__setattr__(td, "lifts", lifts)
        td.__post_init__(alpha)
        return td

    @property
    def n(self) -> int:
        return self.d - self.m

    __getstate__ = _fields_only

    # the arrangement rebuilt from the torus data alone, with its scales
    # (``_rebuild``), and records of :mod:`corecover.stability`
    _rebuilt = _Record(lambda self: _rebuild(self))
    _numeric_chambers = _record("stability", "_numeric_chambers")
    _sign_rows = _record("stability", "_sign_rows")


def _level(basis, cleared) -> tuple:
    """``basis @ lifts`` as Fractions, summed on the integers ``nums`` of
    the lifts cleared to ``cleared = (common, nums)``."""
    common, nums = cleared
    return tuple(Fraction(sum(map(mul, row, nums)), common) for row in basis)


def _clear_lifts(arr: Arrangement) -> tuple:
    """``(common, nums)``: the lifts over their least common denominator,
    ``lifts[i] == nums[i] / common``, from one ``_common_denominator``."""
    common, nums = _common_denominator(arr.lifts)
    return common, tuple(nums)


def torus_data(arr: Arrangement) -> TorusData:
    """Kernel lattice and moment level of an arrangement (see ``_build_torus_data``)."""
    return arr._torus


def _build_torus_data(arr: Arrangement) -> TorusData:
    """Kernel lattice and moment level of an arrangement.

    Deterministic: the kernel basis is ``kernel_lattice`` of the transposed
    normals ``mat``, the pinned Hermite normal form of the kernel, and is
    read off the arrangement's ``_ClassMatroid`` with no elimination
    whenever the lexicographically last independent columns N of ``mat``
    have determinant +-1, regular input or not. Either way the level is
    summed on the lifts as the arrangement's ``_cleared`` record holds
    them, so no path clears them again. Write P for the other
    columns and L for the kernel lattice. The columns of a kernel basis are
    dependent exactly as in the dual matroid of the columns of ``mat``,
    whose bases are the complements of the bases of ``mat``'s columns; the
    pivot columns of an echelon form are the greedy, lexicographically
    first, basis of that matroid, and the greedy basis of the dual is the
    complement of the greedy basis from the other end, so the HNF's pivot
    columns are P. The projection of L to Z^P is one to one (a kernel
    vector that is 0 on P is 0, as N is independent and ``mat`` has full
    row rank, the normals spanning), and if ``|det mat_N| = 1`` it is onto:
    ``mat_N`` has an integral inverse, so for each ``p`` in P the vector
    ``e_p - mat_N^{-1} mat_p``, placed on the N columns, is integral and in
    L. So the pivots of the HNF are all 1, the entries above them are
    reduced to 0, and the row of ``p`` is that vector, the only one in L
    that is ``e_p`` on P: one row per position outside N, in increasing
    order.

    Write hyperplane i as ``u_i = s_i r_{k_i}`` (``_orientations``). N is
    the greedy basis taken from the end: position i joins it iff ``u_i``
    lies outside the span of the normals already taken. A class whose last
    occurrence is skipped is in that span, and so are its earlier members;
    so N is the last occurrence of each class of one class basis B, the
    greedy basis of the classes ordered by descending last occurrence, and
    ``|det mat_N| = |det B|``. If the first n classes of that order are
    independent, B is those n, found by one lookup in the record's per-basis
    memo (``coordinates``); only otherwise does one ``_extend_echelon`` walk
    over the order find it. If ``|det B| != 1``, which a regular
    arrangement never has, ``kernel_lattice`` runs its HNF pass. Otherwise
    let ``y_k`` hold the coordinates of ``r_k`` in B, ``r_k = sum_b y_k[b]
    r_b``, integral since B has determinant +-1. Then ``u_p = s_p sum_b
    y_{k_p}[b] r_b = sum_j s_p s_j y_{k_p}[b_j] u_j`` over the positions j
    in N, with ``b_j`` the class of j, so ``(mat_N^{-1} mat_p)_j = s_p s_j
    y_{k_p}[b_j]``. The coordinates depend on the classes alone and the
    record keeps them per B; an arrangement reads only its signs and
    positions, so each row is the row shared by its class and sign with a
    1 set at p.

    The level is read off the same way. With the lifts cleared to integers
    ``nums`` over their common denominator L (``_cleared``), row p has n + 1 nonzeros, so
    ``L * alpha_p = nums[p] + sum(c_j * nums[j] for j in N)`` with ``c_j``
    the shared row's entries: the sum is taken once per distinct plane, at
    most 2D of them with n terms each, and each row adds its own
    ``nums[p]``, m additions in place of m dot products over d terms. These
    are the integers ``_level`` sums, less its zero terms, so ``alpha`` is
    the same Fractions.
    """
    record = arr._matroid
    last = [members[-1][0] for _, members in arr._classes]
    order = sorted(range(len(last)), key=last.__getitem__, reverse=True)
    chosen = tuple(sorted(order[:arr.n]))
    den, coords = record.coordinates(chosen)
    if not den:
        form, taken = (), []
        for k in order:
            grown = _extend_echelon(form, record.reps[k])[0]
            if grown is not None:
                form = grown
                taken.append(k)
                if len(taken) == arr.n:
                    break
        chosen = tuple(sorted(taken))
        den, coords = record.coordinates(chosen)
    if den != 1:
        basis = kernel_lattice(transpose(arr.normals, ncols=arr.n), ncols=arr.d)
        return TorusData._read_off(basis, arr.lifts, _level(basis, arr._cleared))
    planes = _orientations(arr)
    pivots = [(last[b], planes[last[b]][1]) for b in chosen]
    skip = {j for j, _ in pivots}
    common, nums = arr._cleared
    shared = {}
    basis, alpha = [], []
    for p, plane in enumerate(planes):
        if p in skip:
            continue
        found = shared.get(plane)
        if found is None:
            k, s = plane
            row, level = [0] * arr.d, 0
            for (j, sj), y in zip(pivots, coords[k]):
                c = row[j] = -s * sj * y
                level += c * nums[j]
            found = shared[plane] = (row, level)
        row, level = found
        row[p] = 1
        basis.append(tuple(row))
        row[p] = 0
        alpha.append(Fraction(level + nums[p], common))
    return TorusData._read_off(tuple(basis), arr.lifts, tuple(alpha))


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


def _direction_classes(arr: Arrangement) -> tuple:
    """The hyperplanes grouped by normal direction, sorted by representative.

    Normals are primitive, so two are parallel exactly when they agree up to
    sign. Each class is ``(r, members)``: ``r`` is the common normal up to
    sign with its first nonzero entry positive, and ``members`` holds
    ``(i, t)`` for each hyperplane ``i`` of the class, in index order, with
    ``t`` an integer: the hyperplane is the set ``<r, x> = t / L``, where L
    is the lifts' common denominator and ``t`` is read off the
    arrangement's ``_cleared`` record, up to sign. The classes are sorted by ``r``, not
    listed in order of appearance, so arrangements that differ only in the
    order of their hyperplanes, the signs of their normals, parallel copies
    or lifts have the same representatives and share one ``_ClassMatroid``.
    """
    classes = {}
    zero = (0,) * arr.n
    nums = arr._cleared[1]
    for i, (u, num) in enumerate(zip(arr.normals, nums)):
        # tuples compare lexicographically: u > zero iff its first nonzero
        # entry is positive
        u, member = (u, (i, -num)) if u > zero else (tuple(map(neg, u)), (i, num))
        members = classes.get(u)
        if members is None:
            classes[u] = [member]
        else:
            members.append(member)
    return tuple((r, tuple(members)) for r, members in sorted(classes.items()))


def _orientations(arr: Arrangement) -> list:
    """``(k, s)`` for each hyperplane: its direction class ``k`` (an index
    into ``_direction_classes``) and the sign with ``u_i = s * r_k``."""
    out = [None] * arr.d
    for k, (r, members) in enumerate(arr._classes):
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
    chambers' candidate rays, the vertex systems and, per class basis, its
    determinant and the coordinates behind the kernel basis depend on the
    representatives alone, not on the order of the hyperplanes, the signs
    of their normals, parallel copies or the lifts. So one record serves
    every arrangement with the same sorted representatives (see
    ``_direction_classes``), and each of its parts is computed on first
    use. Records are kept by ``_class_matroid``; class
    indices below are positions in ``reps``.
    """

    def __init__(self, reps: tuple):
        self.reps = reps
        self.n = len(reps[0])
        self._coordinates = {}

    @cached_property
    def regular(self) -> bool:
        """Every n representatives have determinant 0 or +-1: one integer
        elimination (``_int_det``) per n-subset, stopping at the first that
        has not."""
        return all(
            abs(_int_det(chosen)) <= 1 for chosen in itertools.combinations(self.reps, self.n)
        )

    def coordinates(self, basis: tuple) -> tuple:
        """``(den, coords)`` for n classes in increasing order: ``den`` is
        the |det| of their representatives, 0 if they are dependent, and
        ``coords``, None unless ``den`` is 1, holds the coordinates ``y_k``
        of every representative in them, ``r_k = sum(y_k[j] *
        r_{basis[j]})``: the representatives times the inverse of the basis
        matrix, which is integral, from one ``_scaled_inverse`` and one
        product per representative. Kept per n-subset asked for, at most
        C(D, n) of them."""
        found = self._coordinates.get(basis)
        if found is None:
            den, inverse = _scaled_inverse([self.reps[k] for k in basis]) or (0, None)
            coords = None
            if den == 1:
                columns = tuple(zip(*inverse))
                coords = tuple(tuple([sum(map(mul, r, col)) for col in columns]) for r in self.reps)
            found = self._coordinates[basis] = (den, coords)
        return found

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
# inverses, and per class n-subset a torus read-off asked for, at most
# C(D, n) of them, its |det| and, if that is 1, the coordinates of its
# representatives in it.
_MATROID_CACHE_SIZE = 32


@lru_cache(maxsize=_MATROID_CACHE_SIZE)
def _class_matroid(reps: tuple) -> _ClassMatroid:
    """The record of a tuple of sorted representatives, shared by every
    arrangement that has them; ``cache_clear()`` drops every record. Each
    arrangement looks its record up once, on the first read of its
    ``_matroid``, and keeps it there."""
    return _ClassMatroid(reps)


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
    it. They are sorted on integer keys, then made Fractions; the offsets
    are the cleared lifts of the ``_cleared`` record, and nothing is kept,
    since the face record (``stability._faces``) lists them once.
    """
    # on integers: with the offsets over L, t = T / L, the point is x = nums
    # / (den * L) with nums = inverse @ T, and <r_k, x> - t has the sign of
    # <r_k, nums> - den * T (den > 0); hyperplane i reads s * (<r_k, x> - t)
    classes = arr._classes
    reps = [r for r, _ in classes]
    common, lifts = arr._cleared
    planes = [(k, s, -s * lift) for (k, s), lift in zip(_orientations(arr), lifts)]
    offsets = [tuple(t for _, t in members) for _, members in classes]
    found = {}
    for chosen, den, inverse in arr._matroid.bases:
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


def is_regular(arr: Arrangement) -> bool:
    """Every linearly independent n-subset of normals is a lattice basis.

    Decided on the D direction classes (see ``_direction_classes``) instead
    of the d hyperplanes: an n-subset that holds a parallel pair has
    determinant 0, and flipping a normal's sign does not change |det|, so
    the C(D, n) determinants of the class representatives decide. They are
    integer matrices, so each determinant is one integer elimination
    (``_int_det``), with no denominators to clear, the sweep stops at the
    first that is not 0 or +-1, and the verdict is kept in the
    arrangement's ``_ClassMatroid``. A regular arrangement has at most
    n(n+1)/2 classes (Heller, 1957), so for smooth input the cost follows
    n, not d.
    """
    return arr._matroid.regular


def is_simple(arr: Arrangement) -> bool:
    """Every k hyperplanes that meet do so in codimension exactly k (see ``_decide_simple``)."""
    return arr._simple


def _decide_simple(arr: Arrangement) -> bool:
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
      exactly when ``sum(c_i t_i) == 0``. This meets in the middle
      (Horowitz and Sahni, 1974): split the support into its first half A
      and the rest B; some choice meets exactly when the sums ``sum(c_i
      t_i)`` over A and the negated sums over B share a value. Two sets,
      of ``prod_A |O_i|`` and ``prod_B |O_i|`` entries for the classes'
      offsets ``O_i``, decide every choice of hyperplanes at once, in place
      of one set over all classes but the last: 18-36 entries in place of
      27-80 for four classes of 3-5 offsets (n = 3, d = 12-17).

    The circuits of the representatives come from ``_circuits``, one
    reduction per independent subset of classes, kept by the arrangement's
    ``_ClassMatroid`` (if it has at most n(n+1)/2 classes) and read by
    every arrangement with the same classes, so the cost follows the
    classes and their sizes, not C(d, n + 1), and each arrangement pays
    only for its own offsets. It reads them as ``_direction_classes`` keeps
    them, integers over the lifts' common denominator, which scales every
    sum alike.
    """
    offsets = [tuple([t for _, t in members]) for _, members in arr._classes]
    if any(len(set(ts)) < len(ts) for ts in offsets):
        return False
    for support, relation in arr._matroid.circuits():
        half = len(support) // 2
        left, right = {0}, {0}
        for i, (c, k) in enumerate(zip(relation, support)):
            if i < half:
                left = {s + c * t for s in left for t in offsets[k]}
            else:
                right = {s - c * t for s in right for t in offsets[k]}
        if not left.isdisjoint(right):
            return False
    return True


def is_smooth(arr: Arrangement) -> bool:
    return is_regular(arr) and is_simple(arr)


def arrangement_from_quotient(td: TorusData) -> Arrangement:
    """Rebuild an arrangement from torus data by cutting the solution plane.

    The coordinate hyperplane ``{x_i = 0}`` meets the solution plane in an
    affine hyperplane; expressed in the projection coordinates centered at
    the lift point it reads ``<u_i, y> + lift_i' = 0`` with a primitive
    integer normal. Different valid projections give arrangements that agree
    up to a unimodular change of coordinates, so all cross-checks are done on
    basis-independent data. Raises ``ValueError`` if ``d <= m`` or if some
    coordinate is constant on the solution plane.
    """
    return _rebuild(td)[0]


def _rebuild(td: TorusData) -> tuple:
    """``(arr, scales)``: the arrangement of ``arrangement_from_quotient``
    and, per hyperplane, the positive rational ``scales[i]`` with ``<u_i,
    y> + lift_i == scales[i] * x_i``. Here ``y`` are the projection
    coordinates and ``x_i = <w_i, y> + td.lifts[i]``, for the rational
    ``w_i`` that ``primitive_scale`` turns into ``u_i``, so ``x`` solves
    ``A x = alpha`` at every ``y``. Kept on the torus data as its
    ``_rebuilt`` record."""
    if td.d <= td.m:
        raise ValueError("quotient reconstruction needs d > m")
    basis = kernel_lattice(td.basis, ncols=td.d)
    # the pivot columns of the (independent) basis rows are the
    # lexicographically first columns on which the plane projects one to
    # one, so the square block is never singular: one factorisation serves
    # all d coordinates
    coords = _bareiss([list(row) for row in basis], td.d)[0]
    den, inverse = _scaled_inverse([[row[t] for t in coords] for row in basis])
    normals, lifts, scales = [], [], []
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
        scales.append(sigma)
    return Arrangement(len(coords), tuple(normals), tuple(lifts)), tuple(scales)


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
    classes = arr._classes
    singles = [(k, members[0][0]) for k, (_, members) in enumerate(classes) if len(members) == 1]
    if not singles:
        return ()
    coloops = arr._matroid.coloops
    return tuple(sorted(i for k, i in singles if k in coloops))
