"""Semistability oracles with certificates.

Points of the flat quaternionic space upstream of the quotient are described
only through their support pattern: which of the paired coordinates
``(z_i, w_i)`` vanish. Two independent oracles decide semistability of a
pattern at the moment level ``alpha``:

* numeric: signed solvability in the dual of the acting torus, d variables:
  the relation system ``A x = alpha`` must admit a solution with
  ``x_i >= 0`` where ``w_i = 0``, ``x_i <= 0`` where ``z_i = 0`` and
  ``x_i = 0`` where both vanish (for a toric pattern this says that
  ``alpha`` is a nonnegative combination of the support's characters);
* geometric: nonemptiness of the state set, a polyhedron in the arrangement's
  ambient space (n variables) assembled from oriented half-spaces.

That the two agree on every pattern is a theorem; the test suite checks it
exhaustively on fixtures and randomized smooth arrangements. The numeric
side answers single patterns with a certificate; the density check reads
it for every dense pattern at once off the vertices of the numeric system
(``_numeric_chambers``), with no LP. Production decides everything else on
the geometric side, in fewer variables, and solves no LP there either:
a pattern's state set, with BOTH letters or without, is nonempty iff all
its letters hold at one vertex of the arrangement, because a nonempty
BOTH-free state set is a pointed polyhedron and contains one (see
``_letter_masks``; compare Zaslavsky, "Facing up to arrangements",
1975). Each vertex set is an integer bitmask over the arrangement's
vertices, one mask per (coordinate, letter), so a pattern's vertices are
one AND per letter. The vertices, sorted on integer keys, and the masks,
built from the columns of their sign vectors, make the arrangement's face
record (``_faces``). A chart pattern holds at a vertex iff the pattern
does and the vertex conforms to the chart's sign vector, so a chart
verdict is the AND of a pattern's mask with its chamber's. The sweeps walk
the prefixes, one hyperplane at a time, whose masks are nonzero. Each
public verdict carries the exact certificate of the system it solved.
Face record and state rows live on the arrangement, numeric set and sign
rows on the torus data, each built on first read and freed with its owner.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from operator import mul
from types import SimpleNamespace

from .arrangement import Arrangement, TorusData, check_sign_vector
from .arrangement import _matroid, _vertices
from .feasibility import Certificate, Constraint, Polyhedron, Relation, is_feasible
from .linalg import _bareiss, _common_denominator, _scaled_inverse, solve_integer, unit_vector


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


def check_pattern(pattern, d: int) -> tuple:
    pattern = tuple(pattern)
    if len(pattern) != d:
        raise ValueError(f"pattern has length {len(pattern)}, expected {d}")
    if any(not isinstance(s, Status) for s in pattern):
        raise ValueError("pattern entries must be Status values")
    return pattern


def support_pattern(d: int, support) -> tuple:
    """The toric pattern: Z on the support, ZERO elsewhere (w identically 0)."""
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


def _sign_rows(td: TorusData) -> tuple:
    """The rows of every sign system of one torus: the m equality rows, then
    per coordinate a mapping from status to its sign row."""
    equalities = tuple(
        Constraint(td.basis[k], Relation.EQ, -td.alpha[k]) for k in range(td.m)
    )
    zero = Fraction(0)
    signs = tuple(
        {
            Status.Z: Constraint(unit_vector(td.d, i), Relation.GE, zero),
            Status.W: Constraint(unit_vector(td.d, i, -1), Relation.GE, zero),
            Status.ZERO: Constraint(unit_vector(td.d, i), Relation.EQ, zero),
        }
        for i in range(td.d)
    )
    return equalities, signs


def _sign_system(td: TorusData, pattern) -> Polyhedron:
    """Solvability system over R^d: ``A x = alpha`` plus per-coordinate signs.

    Status Z forces ``x_i >= 0`` (w_i vanishes), W forces ``x_i <= 0``,
    ZERO forces ``x_i = 0`` and BOTH leaves ``x_i`` free.
    """
    equalities, signs = td._sign_rows
    cons = equalities + tuple(
        rows[status] for rows, status in zip(signs, pattern) if status is not Status.BOTH
    )
    return Polyhedron(td.d, cons)


def toric_semistable_numeric(td: TorusData, support) -> StabilityVerdict:
    """Cone membership test: is alpha a nonnegative combination of the
    characters indexed by the support? This is the signed solvability test
    of the support pattern (``x >= 0`` on the support, ``x = 0`` off it)."""
    return hk_semistable_numeric(td, support_pattern(td.d, support))


def toric_closed_orbit(td: TorusData, support) -> bool:
    """Strict cone membership; decides closedness of the orbit through a
    semistable point with the given support."""
    pattern = support_pattern(td.d, support)
    if not hk_semistable_numeric(td, pattern).semistable:
        raise ValueError("closed-orbit test requires a semistable support")
    return hk_closed_orbit(td, pattern)


def hk_semistable_numeric(td: TorusData, pattern) -> StabilityVerdict:
    """Signed solvability of ``A x = alpha``; the feasible witness is the
    classical sign-constrained solution vector."""
    pattern = check_pattern(pattern, td.d)
    system = _sign_system(td, pattern)
    cert = is_feasible(system)
    return StabilityVerdict(cert.feasible, cert, system)


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

    * One ``_bareiss`` pass picks m independent pivot columns P of ``A``,
      and one ``_scaled_inverse`` of ``A_P`` gives the integer tableau
      ``[M | t] = den * A_P^{-1} [A | rhs]``, with ``den = |det A_P| > 0``
      and ``rhs`` the level over its common denominator. ``M`` is ``den``
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
      ``x_P = t / den``.

    Everything is done on integers, since only signs are read. Only the
    full row rank of ``A`` is used, so this is exact on input that is
    neither simple nor smooth. It reads ``td.basis`` and ``td.alpha``
    alone, in d variables, and nothing of the arrangement's state sets or
    vertices, so it stays an independent side of the density check (see
    ``verify_density``).
    """
    _, rhs = _common_denominator(td.alpha)
    pivots = _bareiss([list(row) for row in td.basis], td.d)[0]
    _, inverse = _scaled_inverse([[row[p] for p in pivots] for row in td.basis])
    entering = [c for c in range(td.d) if c not in pivots]
    columns = [[row[c] for row in td.basis] for c in entering]
    tableau = [[sum(map(mul, inv, col)) for col in columns] for inv in inverse]
    t = [sum(map(mul, inv, rhs)) for inv in inverse]
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
                elif r:
                    solved = solve_integer(
                        [[tableau[i][c] for c in enter] for i in leave], [t[i] for i in leave]
                    )
                    if solved is None:
                        continue
                    nums, det = solved
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

    No worked example pins this down beyond the implication
    closed-orbit => semistable, which the tests check.
    """
    pattern = check_pattern(pattern, td.d)
    cons = tuple(
        Constraint(c.coeffs, Relation.GT, c.constant) if c.relation is Relation.GE else c
        for c in _sign_system(td, pattern).constraints
    )
    return is_feasible(Polyhedron(td.d, cons)).feasible


def _state_rows(arr: Arrangement) -> tuple:
    """The rows of every state set of one arrangement: per coordinate a
    mapping from BOTH-free status to its row."""
    return tuple(
        {
            Status.Z: Constraint(u, Relation.GE, lift),
            Status.W: Constraint(tuple(-x for x in u), Relation.GE, -lift),
            Status.ZERO: Constraint(u, Relation.EQ, lift),
        }
        for u, lift in zip(arr.normals, arr.lifts)
    )


def state_set(arr: Arrangement, pattern) -> Polyhedron:
    """The state polyhedron of a pattern.

    Per coordinate: Z keeps the positive closed half-space, W the negative
    one, ZERO the hyperplane itself, BOTH no constraint (the two half-spaces
    cover everything). Each factor is convex, so the state set is a single
    polyhedron.
    """
    pattern = check_pattern(pattern, arr.d)
    rows = arr._state_rows
    cons = tuple(
        rows[i][status] for i, status in enumerate(pattern) if status is not Status.BOTH
    )
    return Polyhedron(arr.n, cons)


def hk_semistable_geometric(arr: Arrangement, pattern) -> StabilityVerdict:
    """Nonemptiness of the state set, certified."""
    system = state_set(arr, pattern)
    cert = is_feasible(system)
    return StabilityVerdict(cert.feasible, cert, system)


def toric_semistable_geometric(arr: Arrangement, support) -> StabilityVerdict:
    """Nonemptiness of the toric state set (w identically zero)."""
    return hk_semistable_geometric(arr, support_pattern(arr.d, support))


def _faces(arr: Arrangement) -> SimpleNamespace:
    """The face record every sweep reads, written here alone: ``vertices``
    (``_vertices``) and ``masks`` (``_letter_masks``), built from each
    column of the vertices' signs as ``pos``, ``neg`` and ``zero = all ^
    pos ^ neg``."""
    vertices = _vertices(arr)
    every = (1 << len(vertices)) - 1
    tables = []
    for column in zip(*[sigma for _, sigma in vertices]):
        pos = neg = 0
        for j, s in enumerate(column):
            if s > 0:
                pos |= 1 << j
            elif s < 0:
                neg |= 1 << j
        # the masks of Z, W, ZERO and BOTH
        masks = (every ^ neg, every ^ pos, every ^ pos ^ neg, every)
        tables.append(dict(zip(FULL_ALPHABET, masks)))
    return SimpleNamespace(vertices=vertices, masks=(tuple(tables), every))


def _letter_masks(arr: Arrangement) -> tuple:
    """Per coordinate, each letter's vertex mask (kept by ``_faces``): bit
    j is set iff the letter holds at the j-th vertex of ``_vertices``. A
    pattern's mask, the AND of its letters', lists the vertices at which
    every letter holds, and is zero iff its state set is empty, no LP:

    * State sets are closed: Z keeps ``<u_i, x> + lift_i >= 0``, W keeps
      ``<= 0``, ZERO keeps ``= 0`` and BOTH keeps everything, so Z holds
      at the signs 0 and +1, W at 0 and -1, ZERO at 0 and BOTH at all.
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
    is exact on input that is not simple too. Returns the per-coordinate
    tables and the mask of all vertices.
    """
    return arr._faces.masks


def _pattern_mask(arr: Arrangement, pattern) -> int:
    """The vertices at which every letter of the pattern holds (see
    ``_letter_masks``), stopping at the first empty prefix."""
    tables, kept = _letter_masks(arr)
    for letters, status in zip(tables, pattern):
        kept &= letters[status]
        if not kept:
            break
    return kept


def _pattern_masks(arr: Arrangement, alphabets=None, within=None):
    """The nonempty state sets with a letter of ``alphabets[i]`` at each
    coordinate ``i`` (any BOTH-free letter when ``alphabets`` is None), in
    ``itertools.product`` order of the alphabets, each with its vertex mask
    (see ``_letter_masks``), keeping only those whose mask meets ``within``
    (every vertex when None). A depth-first walk over the prefixes whose
    masks meet ``within``: each stack entry carries its prefix's mask and
    takes its letters reversed. A child's mask is its parent's AND its
    letter's, so masks only shrink along the walk, and a prefix whose mask
    misses ``within`` has no leaf below it that meets it: the walk prunes
    it there, and the leaves it keeps are exactly those that meet
    ``within``. Nothing is cached, so a walk's memory is its stack."""
    tables, everything = _letter_masks(arr)
    if alphabets is None:
        alphabets = (NO_BOTH_ALPHABET,) * arr.d
    if within is None:
        within = everything
    # per coordinate, its letters with their masks, reversed for the stack
    pushed = [
        [(status, letters[status]) for status in reversed(allowed)]
        for letters, allowed in zip(tables, alphabets)
    ]
    last = arr.d - 1
    final = pushed[last][::-1]
    stack = [((), everything)] if everything & within else []
    while stack:
        prefix, kept = stack.pop()
        k = len(prefix)
        if k == last:
            # the children are leaves: yield them in order, unstacked
            for status, letter in final:
                mask = kept & letter
                if mask & within:
                    yield prefix + (status,), mask
            continue
        for status, letter in pushed[k]:
            mask = kept & letter
            if mask & within:
                stack.append((prefix + (status,), mask))


# maxsize=0 keeps nothing and only counts the calls, each a miss, for the
# tracers that read ``cache_info()``
@lru_cache(maxsize=0)
def _cone_contains(arr: Arrangement, pattern) -> bool:
    """Is the state set of a pattern nonempty? The verdict behind chambers
    (dense patterns): its vertex mask is nonzero (see ``_letter_masks``),
    with no LP."""
    return _pattern_mask(arr, pattern) != 0


def chart_semistable(arr: Arrangement, eps, pattern) -> bool:
    """Membership of a pattern in the chart of the reoriented arrangement:
    the toric state set of ``reorient(arr, eps)`` on the active coordinates
    (equivalently: alpha lies in the cone of the active signed characters)
    must be nonempty. That holds iff the pattern's vertex mask meets its
    chamber's (see ``quotient._chamber_mask``)."""
    eps = check_sign_vector(eps, arr.d)
    pattern = check_pattern(pattern, arr.d)
    return _pattern_mask(arr, pattern) & _pattern_mask(arr, full_pattern(eps)) != 0


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
    return _matroid(arr).independent(chosen)


def reorient_pattern(pattern, eps) -> tuple:
    """Relabel a pattern under reorientation: Z and W swap where the sign is
    -1 (the coordinate pair rotates), ZERO and BOTH are fixed. Involutive."""
    eps = tuple(eps)
    pattern = check_pattern(pattern, len(eps))
    eps = check_sign_vector(eps, len(eps))
    out = []
    for e, status in zip(eps, pattern):
        if e == -1 and status is Status.Z:
            out.append(Status.W)
        elif e == -1 and status is Status.W:
            out.append(Status.Z)
        else:
            out.append(status)
    return tuple(out)


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
    witness = verdict.certificate.point
    out = []
    for i, status in enumerate(pattern):
        if status is Status.BOTH:
            out.append(Status.Z if witness[i] >= 0 else Status.W)
        else:
            out.append(status)
    return tuple(out)


def full_pattern(eps) -> tuple:
    """The dense pattern of a chart: live z where the sign is +1, live w
    where it is -1."""
    return tuple(Status.Z if e == 1 else Status.W for e in eps)


def chamber(arr: Arrangement, eps) -> Polyhedron:
    """The closed region ``{x : eps[i] * (<u_i, x> + lift_i) >= 0 for all i}``:
    the state set of the chart's dense pattern."""
    return state_set(arr, full_pattern(check_sign_vector(eps, arr.d)))
