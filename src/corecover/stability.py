"""Semistability verdicts with certificates.

Points of the flat quaternionic space upstream of the quotient are described
only through their support pattern: which of the paired coordinates
``(z_i, w_i)`` vanish. Two systems describe semistability of a pattern at
the moment level ``alpha``, with one letter rule (``_SIGN``): each
BOTH-free letter is the sign it puts on its coordinate's function ``f_i``,
Z keeping ``f_i >= 0``, W ``f_i <= 0`` and ZERO ``f_i = 0``.

* numeric: ``f_i = x_i`` and the rows of ``A x = alpha`` in the dual of
  the acting torus, d variables (for a toric pattern, ``alpha`` is a
  nonnegative combination of the support's characters);
* geometric: ``f_i = <u_i, y> + lift_i``, the state set in the
  arrangement's ambient space, n variables; ``y -> f(y)`` carries it
  onto the numeric system's letter rows.

Both are decided the same way, with no LP. A pattern's state set, with
BOTH letters or without, is nonempty iff all its letters hold at one
vertex of the arrangement, because a nonempty BOTH-free state set is a
pointed polyhedron and contains one (see ``_pattern_mask``; compare
Zaslavsky, "Facing up to arrangements", 1975). Each vertex set is an
integer bitmask over the arrangement's vertices, one mask per (coordinate,
letter) in the face record (``_faces``), so a pattern's vertices are one
AND per letter, and a chart verdict is the AND of a pattern's mask with
its chamber's (``_chamber_mask``). The sweeps walk the prefixes, one
hyperplane at a time, whose masks are nonzero.

Each public verdict carries the exact certificate of its system: a vertex
in the mask is the witness, and an empty state set is refuted by one
signed circuit of the normals (``_refutation``, Farkas's lemma for
oriented matroids), which also decides the strict system of the closed
orbit. The numeric side reads both off the arrangement rebuilt from the
torus data (``TorusData._rebuilt``), whose functions are the ``x_i`` up to
positive scales. The density check reads the numeric side for every dense
pattern at once off the vertices of the numeric system
(``_numeric_chambers``), from the torus data's basis and level alone.
Face record and state rows live on the arrangement, numeric set, sign
rows, row solver and rebuilt arrangement on the torus data, each built on
first read and freed with its owner.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from types import SimpleNamespace

from operator import mul

from .arrangement import Arrangement, TorusData, _check_word, check_sign_vector
from .arrangement import _orientations, _vertices
from .feasibility import Certificate, Constraint, Polyhedron, Relation
from .linalg import _back_substitute, _bareiss, _common_denominator, _scaled_inverse, unit_vector


class Status(Enum):
    """Vanishing status of one coordinate pair: z only, w only, both, neither."""

    Z = "z"        # z_i != 0, w_i == 0
    W = "w"        # z_i == 0, w_i != 0
    ZERO = "0"     # z_i == 0, w_i == 0
    BOTH = "*"     # z_i != 0, w_i != 0

    # Members are singletons compared by identity; the identity hash spares
    # the Python-level name hash on every pattern lookup in the caches.
    __hash__ = object.__hash__


NO_BOTH_ALPHABET = (Status.Z, Status.W, Status.ZERO)
FULL_ALPHABET = (Status.Z, Status.W, Status.ZERO, Status.BOTH)

# The sign each BOTH-free letter puts on its coordinate's function: Z keeps
# f_i >= 0 (w_i vanishes), W f_i <= 0 (z_i vanishes), ZERO f_i = 0. BOTH
# keeps everything and has none. Read backwards: each sign's letter.
_SIGN = {Status.Z: 1, Status.W: -1, Status.ZERO: 0}
_LETTER = {s: status for status, s in _SIGN.items()}


def check_pattern(pattern, d: int) -> tuple:
    return _check_word(pattern, d, FULL_ALPHABET, "pattern", "Status values")


def support_pattern(d: int, support) -> tuple:
    """The toric pattern: Z on the support, ZERO elsewhere (w identically
    0). The ``hk_*`` verdicts on it are the toric criteria: alpha lies in
    the cone of the support's characters, strictly for a closed orbit."""
    support = frozenset(support)
    if any(not (0 <= i < d) for i in support):
        raise ValueError("support index out of range")
    return tuple(Status.Z if i in support else Status.ZERO for i in range(d))


@dataclass(frozen=True)
class StabilityVerdict:
    """A semistability verdict together with its proof.

    ``system`` is the exact constraint system that was decided and
    ``certificate`` is its feasibility certificate: re-verifying the
    certificate against the system re-proves the verdict.
    """

    semistable: bool
    certificate: Certificate
    system: Polyhedron


def _letter_rows(functions, constants) -> tuple:
    """Per coordinate, each BOTH-free letter's row on ``f_i = <functions[i],
    .> + constants[i]``: ``s * f_i >= 0`` for a letter of sign ``s`` (see
    ``_SIGN``), and ``f_i = 0`` for ZERO."""
    return tuple(
        {
            status: Constraint(tuple(s * x for x in f), Relation.GE, s * c)
            if s
            else Constraint(f, Relation.EQ, c)
            for status, s in _SIGN.items()
        }
        for f, c in zip(functions, constants)
    )


def _pattern_rows(rows, pattern) -> tuple:
    """The rows a pattern keeps from ``_letter_rows``: its letters' own, BOTH none."""
    return tuple(
        letters[status] for letters, status in zip(rows, pattern) if status is not Status.BOTH
    )


def _sign_rows(td: TorusData) -> tuple:
    """The rows of every sign system of one torus: the m equality rows, then
    the letter rows on the coordinates ``x_i``."""
    equalities = tuple(
        Constraint(td.basis[k], Relation.EQ, -td.alpha[k]) for k in range(td.m)
    )
    units = (unit_vector(td.d, i) for i in range(td.d))
    return equalities, _letter_rows(units, [Fraction(0)] * td.d)


def _sign_system(td: TorusData, pattern) -> Polyhedron:
    """Solvability system over R^d: ``A x = alpha`` plus the pattern's
    letter rows on ``x`` (``_letter_rows``); BOTH leaves ``x_i`` free."""
    equalities, signs = td._sign_rows
    return Polyhedron(td.d, equalities + _pattern_rows(signs, pattern))


def hk_semistable_numeric(td: TorusData, pattern) -> StabilityVerdict:
    """Signed solvability of ``A x = alpha``, decided on the arrangement
    rebuilt from the torus data (``TorusData._rebuilt``): each hyperplane's
    function is ``x_i`` times a positive scale there, so both have the same
    signs, and the pattern's state set is nonempty iff its vertex mask is.
    The witness is a vertex ``y``'s ``x_i``, its function over the scale.
    A refutation is a signed circuit ``c'`` of the rebuilt normals
    (``_refutation``): ``c_i = c'_i * scale_i`` kills the columns of the
    solution plane's parametrisation, so it is ``A^T mu`` for one ``mu``
    (``_row_combination``, one product), and the multipliers are ``-mu``
    on the equality rows and ``c`` on the letter rows
    (``_letter_multipliers``), which sum to ``sum(c_i * lift_i) < 0``.
    Torus data that ``arrangement_from_quotient`` refuses raises its
    ``ValueError``."""
    pattern = check_pattern(pattern, td.d)
    system = _sign_system(td, pattern)
    arr, scales = td._rebuilt
    mask = _pattern_mask(arr, pattern)
    if mask:
        y = _vertex(arr, mask)
        point = tuple(
            (sum(map(mul, u, y)) + lift) / scale
            for u, lift, scale in zip(arr.normals, arr.lifts, scales)
        )
        return StabilityVerdict(True, Certificate(True, point=point), system)
    circuit = {i: c * scales[i] for i, c in _refutation(arr, pattern).items()}
    mu = _row_combination(td, [circuit.get(i, 0) for i in range(td.d)])
    multipliers = (*(-x for x in mu), *_letter_multipliers(pattern, circuit))
    return StabilityVerdict(False, Certificate(False, multipliers=multipliers), system)


def _row_solver(td: TorusData) -> tuple:
    """``(rows, columns, den, inverse)`` for ``_row_combination``: the
    lexicographically first independent rows of the basis, as many
    independent columns of those rows, and ``den`` and ``inverse = den *
    M^{-1}`` of the square block ``M[j][k] = basis[rows[k]][columns[j]]``
    (``_scaled_inverse``). A kernel basis has full row rank, so ``rows``
    is all m of them. Kept on the torus data as its ``_row_solver``
    record, so each solve is one product."""
    basis = td.basis
    rows = _bareiss([list(column) for column in zip(*basis)], td.m)[0]
    columns = _bareiss([list(basis[k]) for k in rows], td.d)[0]
    den, inverse = _scaled_inverse([[basis[k][c] for k in rows] for c in columns])
    return tuple(rows), tuple(columns), den, inverse


def _row_combination(td: TorusData, target) -> tuple:
    """``mu`` with ``sum(mu[k] * td.basis[k]) == target``, for a target in
    the row space, 0 off the independent rows of ``_row_solver``: on its
    columns the system is ``M mu = target``, so ``den * mu = inverse @
    target`` there, one product on the target cleared to integers."""
    rows, columns, den, inverse = td._row_solver
    common, nums = _common_denominator([target[c] for c in columns])
    mu = [Fraction(0)] * td.m
    for k, row in zip(rows, inverse):
        mu[k] = Fraction(sum(map(mul, row, nums)), den * common)
    return tuple(mu)


def _indices(mask: int):
    """The set bits of a mask, low to high, one step per bit set: the
    vertices of a vertex mask, as indices into the face record's."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _vertex(arr: Arrangement, mask: int) -> tuple:
    """The point of the first vertex in a nonzero vertex mask."""
    return arr._faces.vertices[next(_indices(mask))][0]


def _letter_multipliers(pattern, circuit) -> tuple:
    """The multiplier of each letter row a pattern keeps, for a circuit
    ``{i: c_i}``: ``s * c_i`` on the row ``s * f_i >= 0`` of a letter of
    sign ``s``, which is ``|c_i|`` since the signs conform, and ``c_i`` on
    the row ``f_i = 0`` of ZERO. They sum the rows to ``sum(c_i * f_i)``."""
    return tuple(
        Fraction(circuit.get(i, 0) * (_SIGN[status] or 1))
        for i, status in enumerate(pattern)
        if status is not Status.BOTH
    )


def _refutation(arr: Arrangement, pattern, strict: bool = False):
    """A signed circuit ``{i: c_i}`` of the normals, ``sum(c_i * u_i) ==
    0``, that proves the pattern's state set empty, or None if there is
    none. With ``strict``, every Z and W row is read as ``s * f_i > 0``.

    Farkas's lemma for oriented matroids (Bland and Las Vergnas, 1978;
    Bjorner et al., *Oriented Matroids*, 1993, 3.4): the state set is empty
    iff some circuit avoids the BOTH coordinates, has ``c_i`` of the sign
    of each Z (+1) and W (-1) letter in its support, and has ``sum(c_i *
    lift_i) < 0``. A Farkas vector of the letter rows lies in the kernel
    with those signs, it is a conformal sum of circuits (Rockafellar,
    1969), and one of them carries a negative share of the sum. In the
    strict case (Motzkin) a sum of 0 refutes too if the support holds a Z
    or W coordinate.

    A circuit of hyperplanes is a parallel pair in one direction class or
    one hyperplane from each class of a class circuit (``_ClassMatroid.
    circuits``). Write hyperplane i as ``s_i * (<r_k, y> - t_i / L)``, with
    the offsets ``t_i`` of ``_direction_classes``. Its letter bounds
    ``<r_k, y>`` below by ``t_i / L`` if its sign times ``s_i`` is +1,
    above if -1, and both ways for ZERO. Putting ``b`` on ``r_k``, that is
    ``c_i = b * s_i``, needs a lower bound for ``b > 0`` and an upper one
    for ``b < 0``, and adds ``-b * t_i / L`` to the sum. The sum is
    separable, so per class the scan takes the lower bound with the
    greatest offset and the upper one with the least, a Z or W letter first
    on a tie for the strict case. A parallel pair refutes iff its two
    bounds do with ``b = +1, -1``; a class circuit, with either sign, iff
    its chosen bounds do."""
    planes = _orientations(arr)
    bounds = []
    for _, members in arr._classes:
        lower = upper = None
        for i, t in members:
            if pattern[i] is not Status.BOTH:
                side = _SIGN[pattern[i]] * planes[i][1]
                if side >= 0 and (lower is None or (t, side) > lower[:2]):
                    lower = (t, side, i)
                if side <= 0 and (upper is None or (t, side) < upper[:2]):
                    upper = (t, side, i)
        bounds.append((lower, upper))

    def refutes(chosen):
        total = sum(-b * t for (t, _, _), b in chosen)
        return total < 0 or strict and total == 0 and any(side for (_, side, _), _ in chosen)

    pairs = (((lower, 1), (upper, -1)) for lower, upper in bounds if lower and upper)
    # b > 0 takes the class's lower bound (index 0), b < 0 its upper one
    circuits = (
        [(bounds[k][sign * c < 0], sign * c) for k, c in zip(support, relation)]
        for support, relation in arr._matroid.circuits()
        for sign in (1, -1)
    )
    for chosen in itertools.chain(pairs, circuits):
        if all(bound for bound, _ in chosen) and refutes(chosen):
            return {i: b * planes[i][1] for (_, _, i), b in chosen}
    return None


# The sign vectors a coordinate of sign s conforms to: its own, or either
# where it is 0.
_CONFORMING = {1: (1,), -1: (-1,), 0: (1, -1)}


def _numeric_chambers(td: TorusData) -> frozenset:
    """The sign vectors ``eps`` whose dense pattern is numerically
    semistable, read off the vertices of the numeric systems with no LP.

    * The dense pattern's system is ``P_eps = {x : A x = alpha, eps_i x_i
      >= 0}`` with ``A = td.basis``. Every coordinate carries a sign row,
      so ``P_eps`` is pointed, and nonempty iff it has a vertex.
    * A vertex is a point of ``P_eps`` on d independent tight rows: the m
      rows of ``A`` (a kernel basis, so of full row rank) and the sign
      rows of some zero coordinates. So the columns of ``A`` off those
      zeros are independent; extended to m independent columns T, they
      make the vertex the solution of ``A_T x_T = alpha`` with ``x = 0``
      off T.
    * Conversely such a solution lies in ``P_eps`` iff its sign vector
      conforms to ``eps``: each sign 0 or ``eps_i``.

    So ``eps`` is semistable iff some such solution conforms to it, and a
    solution with k zeros contributes 2^k sign vectors. The C(d, m) square
    systems share one elimination, and each solves only its exchange block:

    * One ``_bareiss`` pass on ``[A | rhs]``, with ``rhs`` the level over
      its common denominator appended as a column, picks m independent
      pivot columns P of ``A``; its last pivot is ``+-det A_P``. One
      ``_back_substitute`` per column off P, and one for ``rhs``, then
      gives the integer tableau ``[M | t] = den * A_P^{-1} [A | rhs]``,
      with ``den = |det A_P| > 0``, on those columns. ``M`` is ``den``
      times the identity on P, and ``A_T x_T = rhs`` iff ``M_T x_T = t``.
    * A column set T drops the pivots of the rows L, those of P outside T,
      and brings in the columns E = T minus P, with |E| = |L| = r <=
      min(m, n). Row i of L reads ``sum(M[i][c] x_c for c in E) = t_i``,
      since its other entries on T are 0. Row i outside L reads ``den *
      x_{P_i} + sum(M[i][c] x_c for c in E) = t_i``.
    * So ``M_T``, with its rows and columns reordered, is block triangular
      with ``den`` times the identity on the pivots that stay and the r x r
      exchange block ``M[L][E]``: ``A_T`` is nonsingular iff that block is.
      Then ``x_E = nums / det`` (``det > 0``) solves the block against
      ``t_L``, and each pivot that stays has the sign of ``det * t_i -
      sum(M[i][c] * nums_c for c in E)``. With r = 0 nothing is solved:
      ``x_P = t / den``. Blocks with r <= 2 are solved from their entries,
      by Cramer's rule for r = 2; a larger one by one product of its
      ``_scaled_inverse`` with ``t_L``.

    Everything is done on integers, since only signs are read. Only the
    full row rank of ``A`` is used, so this is exact on input that is
    neither simple nor smooth. It reads ``td.basis`` and ``td.alpha``
    alone, in d variables, and nothing of the arrangement's state sets or
    vertices, so it stays an independent side of the density check (see
    ``verify_density``).
    """
    _, rhs = _common_denominator(td.alpha)
    rows = [[*row, b] for row, b in zip(td.basis, rhs)]
    pivots, _, last = _bareiss(rows, td.d)
    entering = [c for c in range(td.d) if c not in pivots]
    # column c of den * A_P^{-1} [A | rhs], read on the pivots; rhs is column d
    columns = [_back_substitute(rows, pivots, abs(last), td.d, c) for c in [*entering, td.d]]
    tableau = [[column[p] for column in columns[:-1]] for p in pivots]
    t = [columns[-1][p] for p in pivots]
    signs = set()
    for r in range(min(td.m, len(entering)) + 1):
        for leave in itertools.combinations(range(td.m), r):
            stay = [i for i in range(td.m) if i not in leave]
            for enter in itertools.combinations(range(len(entering)), r):
                if r == 1:
                    # the 1 x 1 block needs no elimination
                    b, rest = tableau[leave[0]][enter[0]], t[leave[0]]
                    if not b:
                        continue
                    nums, det = ((rest,), b) if b > 0 else ((-rest,), -b)
                elif r == 2:
                    # Cramer's rule on the block's four entries
                    (a11, a12), (a21, a22) = ([tableau[i][c] for c in enter] for i in leave)
                    t1, t2 = t[leave[0]], t[leave[1]]
                    det = a11 * a22 - a12 * a21
                    if not det:
                        continue
                    nums = (t1 * a22 - a12 * t2, a11 * t2 - t1 * a21)
                    if det < 0:
                        nums, det = (-nums[0], -nums[1]), -det
                elif r:
                    solved = _scaled_inverse([[tableau[i][c] for c in enter] for i in leave])
                    if solved is None:
                        continue
                    det, inverse = solved
                    nums = [sum(map(mul, row, [t[i] for i in leave])) for row in inverse]
                else:
                    nums, det = (), 1
                sigma = [0] * td.d
                for c, x in zip(enter, nums):
                    sigma[entering[c]] = (x > 0) - (x < 0)
                for i in stay:
                    row = tableau[i]
                    x = det * t[i] - sum([row[c] * y for c, y in zip(enter, nums)])
                    sigma[pivots[i]] = (x > 0) - (x < 0)
                signs.add(tuple(sigma))
    return frozenset(
        eps
        for sigma in signs
        for eps in itertools.product(*(_CONFORMING[s] for s in sigma))
    )


def hk_closed_orbit(td: TorusData, pattern) -> bool:
    """Strict variant of the signed solvability test: the system of
    ``_sign_system`` with every inequality made strict.

    Decided by the strict signed-circuit scan (``_refutation``) on the
    arrangement rebuilt from the torus data, as ``hk_semistable_numeric``
    is. No worked example pins this down beyond the implication
    closed-orbit => semistable, which the tests check.
    """
    return _refutation(td._rebuilt[0], check_pattern(pattern, td.d), strict=True) is None


def _state_rows(arr: Arrangement) -> tuple:
    """The rows of every state set of one arrangement: the letter rows on
    the hyperplanes' functions ``<u_i, y> + lift_i``."""
    return _letter_rows(arr.normals, arr.lifts)


def state_set(arr: Arrangement, pattern) -> Polyhedron:
    """The state polyhedron of a pattern.

    Per coordinate: Z keeps the positive closed half-space, W the negative
    one, ZERO the hyperplane itself, BOTH no constraint (the two half-spaces
    cover everything). Each factor is convex, so the state set is a single
    polyhedron.
    """
    return Polyhedron(arr.n, _pattern_rows(arr._state_rows, check_pattern(pattern, arr.d)))


def hk_semistable_geometric(arr: Arrangement, pattern) -> StabilityVerdict:
    """Nonemptiness of the state set, certified: a vertex in the pattern's
    mask (``_pattern_mask``) is the witness, and a signed circuit
    (``_refutation``) with the letter rows' multipliers the refutation."""
    pattern = check_pattern(pattern, arr.d)
    system = state_set(arr, pattern)
    mask = _pattern_mask(arr, pattern)
    if mask:
        return StabilityVerdict(True, Certificate(True, point=_vertex(arr, mask)), system)
    multipliers = _letter_multipliers(pattern, _refutation(arr, pattern))
    return StabilityVerdict(False, Certificate(False, multipliers=multipliers), system)


def _faces(arr: Arrangement) -> SimpleNamespace:
    """The face record every sweep reads, written here alone: ``vertices``
    (``_vertices``); ``masks``, per coordinate each letter's vertex mask
    (bit j set iff the letter holds at the j-th vertex, see
    ``_pattern_mask``), and the mask of all vertices; and ``rows``, the
    walk rows of ``_pattern_masks`` for the BOTH-free letters and for BOTH
    alone: per coordinate, its letters with their masks, reversed for the
    stack. The core walk builds its Z and W rows from the tables. All are
    written out from each column of the vertices' signs as ``pos``,
    ``neg`` and ``zero = all ^ pos ^ neg``."""
    vertices = _vertices(arr)
    every = (1 << len(vertices)) - 1
    tables, free, both = [], [], []
    Z, W, ZERO, BOTH = FULL_ALPHABET
    for column in zip(*[sigma for _, sigma in vertices]):
        pos = neg = 0
        for j, s in enumerate(column):
            if s > 0:
                pos |= 1 << j
            elif s < 0:
                neg |= 1 << j
        # a letter of sign s holds where the vertex's sign is 0 or s; BOTH
        # holds everywhere
        z, w, zero = every ^ neg, every ^ pos, every ^ pos ^ neg
        tables.append({Z: z, W: w, ZERO: zero, BOTH: every})
        free.append(((ZERO, zero), (W, w), (Z, z)))
        both.append(((BOTH, every),))
    rows = {NO_BOTH_ALPHABET: tuple(free), (BOTH,): tuple(both)}
    return SimpleNamespace(vertices=vertices, masks=(tuple(tables), every), rows=rows)


def _pattern_mask(arr: Arrangement, pattern) -> int:
    """The vertices at which every letter of the pattern holds, the AND of
    its letters' masks in the face record, stopping at the first empty
    prefix. It is zero iff the pattern's state set is empty, no LP:

    * State sets are closed: a letter of sign s keeps ``s * (<u_i, x> +
      lift_i) >= 0`` (``= 0`` for ZERO), so it holds at the signs 0 and s;
      BOTH keeps everything and holds at all.
    * A prefix's state set is nonempty iff the state set of some BOTH-free
      pattern on all d hyperplanes that extends it is: keep its Z, W and
      ZERO letters and take the letters of the signs of one of its points
      everywhere else, BOTH coordinates included.
    * Such a state set has a row on every hyperplane and the normals span
      Q^n (the constructor checks this), so if nonempty it is a pointed
      polyhedron and contains a vertex of its own: a point of it on
      hyperplanes with spanning normals, that is, a vertex of the
      arrangement (see ``_vertices``), at which every letter of the
      extension, and so of the prefix, holds.
    * Conversely, a vertex at which the prefix's letters hold lies in the
      prefix's state set.

    So a prefix, BOTH letters or not, is nonempty iff all its letters hold
    at some vertex, and its mask is its parent's AND its last letter's. A
    BOTH coordinate needs no case of its own: its state set is the union of
    those of its Z/W resolutions, and the vertices it keeps are those of
    the resolutions. Only convexity and spanning normals are used, so this
    is exact on input that is not simple too.
    """
    tables, kept = arr._faces.masks
    for letters, status in zip(tables, pattern):
        kept &= letters[status]
        if not kept:
            break
    return kept


def _pattern_masks(arr: Arrangement, rows=None, within=None, avoid=0):
    """The nonempty state sets with a letter of ``rows[i]`` at each
    coordinate ``i``, each with its vertex mask (see ``_pattern_mask``),
    keeping only those whose mask meets ``within`` (every vertex when None)
    and misses ``avoid``. ``rows`` are walk rows of the face record
    (``_faces``), its BOTH-free ones when None: per coordinate, its letters
    with their masks, reversed, so the leaves come in ``itertools.product``
    order. A depth-first walk over the prefixes whose masks meet
    ``within``: each stack entry carries its prefix's mask. A child's mask
    is its parent's AND its letter's, so masks only shrink along the walk,
    and a prefix whose mask misses ``within`` has no leaf below it that
    meets it: the walk prunes it there, and the leaves it keeps are exactly
    those that meet ``within``. ``avoid`` is tested at the leaves alone.
    Nothing is cached, so a walk's memory is its stack.

    The root's mask is -1, every bit, so a leaf's mask is the AND of its
    letters' masks and nothing else: bits a caller keeps above the
    vertices' ride down the walk untested, as the core walk's recession
    rays do (``quotient._core_walk``); for letters inside the vertices the
    root acts as every vertex. This is the one walk in the package:
    the core, the covering witnesses and counterexamples, the complement
    and the tests all take its leaves."""
    faces = arr._faces
    rows = faces.rows[NO_BOTH_ALPHABET] if rows is None else rows
    within = faces.masks[1] if within is None else within
    last = len(rows) - 1
    final = rows[last][::-1]
    stack = [((), -1)] if within else []
    while stack:
        prefix, kept = stack.pop()
        k = len(prefix)
        if k == last:
            # the children are leaves: yield them in order, unstacked
            for status, letter in final:
                mask = kept & letter
                if mask & within and not mask & avoid:
                    yield prefix + (status,), mask
            continue
        for status, letter in rows[k]:
            mask = kept & letter
            if mask & within:
                stack.append((prefix + (status,), mask))


# maxsize=0 keeps nothing and only counts the calls, each a miss, for the
# tracers that read ``cache_info()``
@lru_cache(maxsize=0)
def _cone_contains(arr: Arrangement, pattern) -> bool:
    """Is the state set of a pattern nonempty? The verdict behind chambers
    (dense patterns): its vertex mask is nonzero (see ``_pattern_mask``),
    with no LP."""
    return _pattern_mask(arr, pattern) != 0


def _chamber_mask(arr: Arrangement, eps) -> int:
    """The vertex mask of a chamber: the mask of its dense pattern, the
    vertices whose sign vector conforms to ``eps``, each ``sigma_i`` 0 or
    ``eps_i``. A chart pattern holds at a vertex iff its pattern does and
    the vertex conforms to ``eps``: where ``eps_i`` is +1 the chart letter
    of Z and BOTH is Z, which holds at 0 and +1, their signs that conform
    to +1, and that of W and ZERO is ZERO, which holds at 0, their one sign
    that does; alike for -1. So a pattern lies in the chart of ``eps`` iff
    its mask meets this one."""
    return _pattern_mask(arr, full_pattern(eps))


def chart_semistable(arr: Arrangement, eps, pattern) -> bool:
    """Membership of a pattern in the chart of the reoriented arrangement:
    the toric state set of ``reorient(arr, eps)`` on the active coordinates
    (equivalently: alpha lies in the cone of the active signed characters)
    must be nonempty. That holds iff the pattern's vertex mask meets its
    chamber's (``_chamber_mask``)."""
    eps = check_sign_vector(eps, arr.d)
    pattern = check_pattern(pattern, arr.d)
    return _pattern_mask(arr, pattern) & _chamber_mask(arr, eps) != 0


def pattern_realizable(arr: Arrangement, pattern) -> bool:
    """Does the pattern occur on the zero level of the complex moment map?

    It does iff some kernel vector of the relation matrix is supported
    exactly on the BOTH set B. That kernel is the row space of the n x d
    matrix whose columns are the normals ``u_j``, so such a vector is a
    functional killing every ``u_j`` outside B and no ``u_i`` in B: B is
    realizable iff no ``u_i`` with i in B lies in the span of the normals
    outside B. A parallel partner outside B spans ``u_i``, so B must be a
    union of direction classes, and then the test is
    ``_ClassMatroid.independent`` on those classes.
    """
    pattern = check_pattern(pattern, arr.d)
    chosen = []
    for k, (_, members) in enumerate(arr._classes):
        inside = [pattern[i] is Status.BOTH for i, _ in members]
        if any(inside) != all(inside):
            return False
        if inside[0]:
            chosen.append(k)
    return arr._matroid.independent(chosen)


def reorient_pattern(pattern, eps) -> tuple:
    """Relabel a pattern under reorientation: each letter's sign is
    multiplied by ``eps_i``, so Z and W swap where it is -1 (the coordinate
    pair rotates), and ZERO and BOTH are fixed. Involutive."""
    eps = tuple(eps)
    pattern = check_pattern(pattern, len(eps))
    eps = check_sign_vector(eps, len(eps))
    return tuple(
        status if status is Status.BOTH else _LETTER[e * _SIGN[status]]
        for e, status in zip(eps, pattern)
    )


def both_reduction(td: TorusData, pattern) -> tuple:
    """Resolve every BOTH coordinate to Z or W using a solvability witness.

    For a semistable pattern, reading the witness sign at each BOTH
    coordinate yields a BOTH-free pattern that is still semistable and whose
    charts embed into the original pattern's charts.
    """
    pattern = check_pattern(pattern, td.d)
    verdict = hk_semistable_numeric(td, pattern)
    if not verdict.semistable:
        raise ValueError("reduction requires a semistable pattern")
    return tuple(
        _LETTER[1 if x >= 0 else -1] if status is Status.BOTH else status
        for status, x in zip(pattern, verdict.certificate.point)
    )


def full_pattern(eps) -> tuple:
    """The dense pattern of a chart: live z where the sign is +1, live w
    where it is -1."""
    return tuple(map(_LETTER.__getitem__, eps))


def chamber(arr: Arrangement, eps) -> Polyhedron:
    """The closed region ``{x : eps[i] * (<u_i, x> + lift_i) >= 0 for all i}``:
    the state set of the chart's dense pattern."""
    return state_set(arr, full_pattern(check_sign_vector(eps, arr.d)))
