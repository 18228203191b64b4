"""Independent oracles, used by the test suite and by the scripts.

These deliberately re-derive properties by different routes than the library
(row reduction instead of the pinned HNF, two HNFs instead of the one pass
or the class record's read-off for the kernel lattice, elimination over
Fractions instead of the fraction-free one for rank, determinant and the
solvers, subset scans
over the hyperplanes instead of the direction classes for regularity,
simplicity and trivial factors, full subset enumeration instead of the
(n + 1)-bounded simplicity scan, interval analysis instead of elimination,
LPs decided by the Fourier-Motzkin oracle (``fourier_motzkin``) instead of
vertex masks and signed circuits, the numeric d-variable stability system
(``numeric_semistable``) instead of state sets, one numeric
LP per sign vector instead of the numeric vertices for density, a rank test
in R^d on index subsets instead of one on the direction classes for
realizability, one LP on a whole state set instead of the vertex walk, every
candidate pattern instead of the walk's leaves for the complement, with a
summary of its own: measured state-set dimensions and a letter-by-letter
breakdown, and one chart LP per leaf instead of the vertex masks for the
covering witnesses and the complement's exclusions, the full walk
filtered after the fact instead of the walk that skips the prefixes inside
the chamber, and one square solve per column set instead of one
elimination and an exchange block per column set for the numeric
chambers), so agreement is meaningful.
Also the lattice and solver routines that only the tests use, built on the
library's own eliminations: the Hermite normal form with its transform,
the rational determinant, the rank, primitivity and a particular solution
of a general system (``hermite_normal_form``, ``det``, ``rank``,
``is_primitive``, ``lin_solve``); the lexicographically last independent
normals, by rank position by position (``lex_last_basis``); the leaves of
the library's pattern walk without their masks (``nonempty_patterns``);
the toric pattern a chart tests (``chart_pattern``), which production
replaces by an AND of vertex masks and the numeric chart oracles decide;
the per-arrangement answers that the shared class-matroid records
replace, computed afresh for each arrangement (``per_arrangement_regular``,
``per_arrangement_circuits``, ``per_arrangement_simple``,
``per_arrangement_ray_signs`` and ``per_arrangement_vertices``; the
realizable class subsets, ``per_arrangement_realizable``, by the rank test
in R^d); the face record's parts by other routes: the ray sign vectors
that the class record's ray masks encode (``mask_ray_signs``), the letter
masks vertex by vertex (``by_sign_letter_masks``) and each vertex's first
compact chamber from one chamber mask per bounded chamber
(``first_compact_indices``); polyhedral oracles (projection, affine
dimension, boundedness, vertices, brute-force feasibility), the covering
proof's adjacency step, the constraint shorthands ``ge``, ``gt`` and
``eq``, the format helpers' strings built the plain way
(``pattern_string_by_value``, ``sign_string_by_comparison``,
``rational_string_via_fraction``), the counterclockwise order of a convex
polygon by a half-plane test and a cross product instead of the renderer's
pseudo-angle key (``polygon_order_by_comparison``), a generator of arrangements with three
direction classes and one of the simple n = 3 family whose normals cycle
through four. The scripts put this directory on ``sys.path``."""

import functools
import itertools
from fractions import Fraction
from math import gcd

from corecover import (
    Arrangement,
    ComplementReport,
    Constraint,
    CoverReport,
    Polyhedron,
    Relation,
    all_sign_vectors,
    chamber,
    core,
    core_empty_criterion,
    extended_core,
    full_pattern,
    hk_closed_orbit,
    hk_semistable_geometric,
    hk_semistable_numeric,
    is_simple,
    state_set,
    theta_cpt,
    torus_data,
    verify_covering,
    verify_density,
)
from corecover.formats import _decimal
from corecover.arrangement import _circuits, _direction_classes
from corecover.linalg import (
    _back_substitute,
    _bareiss,
    _common_denominator,
    _hnf,
    _int_det,
    as_matrix,
    solve_integer,
    transpose,
    unit_vector,
)
from corecover.quotient import (
    BOUNDED,
    _LETTER_ORDER,
    _chamber_mask,
    _complement_report,
    _extended_core_cached,
)
from corecover.stability import (
    FULL_ALPHABET,
    NO_BOTH_ALPHABET,
    Status,
    _letter_masks,
    _pattern_mask,
    _pattern_masks,
    _sign_system,
    chart_semistable,
)
from fourier_motzkin import _dedup, _eliminate_column, _integerize, is_feasible


# The chart letter of each (orientation, letter): Z where the orientation
# is +1 and z is live, W where it is -1 and w is live, ZERO elsewhere.
_CHART_LETTER = {(e, status): Status.ZERO for e in (1, -1) for status in FULL_ALPHABET} | {
    (1, Status.Z): Status.Z,
    (1, Status.BOTH): Status.Z,
    (-1, Status.W): Status.W,
    (-1, Status.BOTH): Status.W,
}


def chart_pattern(eps, pattern) -> tuple:
    """The toric pattern a chart tests, the definition the chart oracles
    decide: Z where the orientation is +1 and z is live, W where it is -1
    and w is live, ZERO elsewhere."""
    return tuple(map(_CHART_LETTER.__getitem__, zip(eps, pattern)))


def ge(coeffs, constant=0) -> Constraint:
    return Constraint(tuple(coeffs), Relation.GE, constant)


def gt(coeffs, constant=0) -> Constraint:
    return Constraint(tuple(coeffs), Relation.GT, constant)


def eq(coeffs, constant=0) -> Constraint:
    return Constraint(tuple(coeffs), Relation.EQ, constant)


def walk_rows(arr, alphabets) -> tuple:
    """The rows ``_pattern_masks`` walks for a letter alphabet per
    coordinate, built from the letter masks: each letter with its mask,
    reversed, so that the leaves come in ``itertools.product`` order."""
    tables, _ = _letter_masks(arr)
    return tuple(
        tuple((status, letters[status]) for status in reversed(allowed))
        for letters, allowed in zip(tables, alphabets)
    )


def nonempty_patterns(arr, alphabets=None):
    """The leaves of ``_pattern_masks`` over a letter alphabet per
    coordinate (any BOTH-free letter when None), without their masks."""
    rows = None if alphabets is None else walk_rows(arr, alphabets)
    return (pattern for pattern, _ in _pattern_masks(arr, rows))


def _eliminate(mat, rhs=None) -> tuple:
    """Forward Gaussian elimination over the rationals.

    Returns ``(rows, pivots, sign)``: the rows in echelon form (with ``rhs``
    appended as a last column when given), the pivot column of each of the
    first ``len(pivots)`` rows, and the sign of the row permutation. The
    pivot columns are the lexicographically first independent columns.
    """
    rows = [[Fraction(x) for x in r] for r in mat]
    ncols = len(rows[0]) if rows else 0
    if rhs is not None:
        rows = [row + [Fraction(b)] for row, b in zip(rows, rhs)]
    pivots = []
    sign = 1
    for col in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
        src = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if src is None:
            continue
        if src != r:
            rows[r], rows[src] = rows[src], rows[r]
            sign = -sign
        top = rows[r]
        for row in rows[r + 1:]:
            if row[col] != 0:
                f = row[col] / top[col]
                row[col:] = [x - f * y for x, y in zip(row[col:], top[col:])]
        pivots.append(col)
    return rows, pivots, sign


def hermite_normal_form(mat, ncols: int | None = None) -> tuple:
    """Row-style Hermite normal form with transformation matrix.

    Returns ``(H, U)`` where ``H == U @ mat``, ``U`` is unimodular, pivot
    entries are positive, entries above each pivot are reduced into
    ``[0, pivot)`` and zero rows come last: the library's ``_hnf`` run on
    ``[mat | I]``, which reads ``U`` off the identity columns. The
    convention is pinned so that every kernel basis derived from it is
    reproducible bit for bit.
    """
    width = len(mat[0]) if mat else (ncols or 0)
    nrows = len(mat)
    rows = [list(r) + [int(i == j) for j in range(nrows)] for i, r in enumerate(mat)]
    _hnf(rows, width)
    return as_matrix(r[:width] for r in rows), as_matrix(r[width:] for r in rows)


def det(mat) -> Fraction:
    """Exact determinant of a square matrix over the rationals: the
    library's fraction-free elimination on rows cleared of their
    denominators, divided by the product of those denominators."""
    n = len(mat)
    if any(len(r) != n for r in mat):
        raise ValueError("determinant requires a square matrix")
    rows, scale = [], 1
    for row in mat:
        common, ints = _common_denominator(row)
        rows.append(ints)
        scale *= common
    pivots, sign, last = _bareiss(rows, n)
    return Fraction(sign * last, scale) if len(pivots) == n else Fraction(0)


def lin_solve(mat, rhs) -> tuple | None:
    """A particular rational solution of a general linear system by the
    library's fraction-free elimination and back substitution.

    Free variables are set to zero, so the result is deterministic. Returns
    None when the system is inconsistent.
    """
    ncols = len(mat[0]) if mat else 0
    if any(len(r) != ncols for r in mat) or len(rhs) != len(mat):
        raise ValueError("lin_solve requires rows of one length and one right-hand side per row")
    if not mat:
        return ()
    rows = _integer_rows((*r, b) for r, b in zip(mat, rhs))
    pivots, _, last = _bareiss(rows, ncols)
    if any(row[ncols] for row in rows[len(pivots):]):
        return None
    return tuple(Fraction(x, last) for x in _back_substitute(rows, pivots, last, ncols, ncols))


def solve_square(mat, rhs) -> tuple | None:
    """Unique rational solution of a square system, or None if singular:
    the rational oracle that ``SOLVER_DIGEST`` pins. The library solves
    square blocks through ``solve_integer`` and ``_scaled_inverse``."""
    n = len(mat)
    if any(len(r) != n for r in mat) or len(rhs) != n:
        raise ValueError("solve_square requires an n x n matrix and n right-hand sides")
    rows = _integer_rows((*r, b) for r, b in zip(mat, rhs))
    pivots, _, last = _bareiss(rows, n)
    if len(pivots) < n:
        return None
    return tuple(Fraction(x, last) for x in _back_substitute(rows, pivots, last, n, n))


def _integer_rows(mat) -> list:
    """Each rational row as an integer list over its own common
    denominator. Scaling rows keeps the rank, the pivot columns and the
    solutions."""
    return [_common_denominator(row)[1] for row in mat]


def rank(mat) -> int:
    """Exact rank over the rationals, by the library's fraction-free
    elimination. The library proves spanning by the incremental echelon
    form instead and needs no rank."""
    rows = _integer_rows(mat)
    return len(_bareiss(rows, len(mat[0]) if mat else 0)[0])


def is_primitive(vec) -> bool:
    """True iff the gcd of the integer entries is 1. Undefined for zero."""
    if not vec or all(x == 0 for x in vec):
        raise ValueError("primitivity is undefined for the zero vector")
    g = 0
    for x in vec:
        g = gcd(g, abs(x))
    return g == 1


def rank_by_elimination(mat) -> int:
    """Rank by forward elimination over Fractions, not fraction-free."""
    return len(_eliminate(mat)[1])


def solve_by_elimination(mat, rhs) -> tuple | None:
    """A particular solution of a linear system by elimination and back
    substitution over Fractions, free variables 0; None if inconsistent."""
    if not mat:
        return ()
    ncols = len(mat[0])
    rows, pivots, _ = _eliminate(mat, rhs)
    if any(row[ncols] != 0 for row in rows[len(pivots):]):
        return None
    solution = [Fraction(0)] * ncols
    for row, col in zip(reversed(rows[: len(pivots)]), reversed(pivots)):
        rest = sum(row[j] * solution[j] for j in range(col + 1, ncols))
        solution[col] = (row[ncols] - rest) / row[col]
    return tuple(solution)


def det_by_elimination(mat) -> Fraction:
    """Determinant as the row-swap sign times the product of the pivots of
    a forward elimination over Fractions."""
    n = len(mat)
    rows, pivots, sign = _eliminate(mat)
    if len(pivots) < n:
        return Fraction(0)
    result = Fraction(sign)
    for i in range(n):
        result *= rows[i][i]
    return result


def mat_mul(a, b):
    """Matrix product of tuple-of-tuples matrices (for ``U @ M == H``)."""
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


def mat_vec(mat, vec) -> tuple:
    """Matrix-vector product of a tuple-of-tuples matrix (for kernel checks)."""
    return tuple(sum(a * x for a, x in zip(row, vec)) for row in mat)


def is_hnf_shape(matrix) -> bool:
    """Row HNF shape: pivots positive and strictly right-moving, entries
    above each pivot reduced into [0, pivot), zero rows last."""
    last_pivot_col = -1
    seen_zero_row = False
    for row in matrix:
        pivot_col = next((j for j, x in enumerate(row) if x != 0), None)
        if pivot_col is None:
            seen_zero_row = True
            continue
        if seen_zero_row:
            return False
        if pivot_col <= last_pivot_col:
            return False
        if row[pivot_col] <= 0:
            return False
        last_pivot_col = pivot_col
    # entries above pivots reduced
    rows = list(matrix)
    for i, row in enumerate(rows):
        pivot_col = next((j for j, x in enumerate(row) if x != 0), None)
        if pivot_col is None:
            continue
        pivot = row[pivot_col]
        for k in range(i):
            if not 0 <= rows[k][pivot_col] < pivot:
                return False
    return True


def kernel_by_two_hnf(mat, ncols) -> tuple:
    """The canonical kernel basis by two HNFs, not by ``kernel_lattice``'s
    one pass or the class record's read-off: the HNF of the transpose with
    its transform ``U``, whose rows under the zero rows of the HNF span the
    saturated kernel, then the HNF of those rows."""
    t = transpose(mat, ncols)
    h, u = hermite_normal_form(t, ncols=len(mat))
    raw = [urow for hrow, urow in zip(h, u) if not any(hrow)]
    return hermite_normal_form(raw)[0] if raw else ()


def lex_last_basis(normals, n) -> tuple:
    """The positions of the lexicographically last independent normals,
    increasing: taken from the end, each normal that raises the rank over
    Fractions, one position at a time, not by direction classes."""
    taken = []
    for i in reversed(range(len(normals))):
        if len(taken) < n and rank_by_elimination([normals[j] for j in taken + [i]]) > len(taken):
            taken.append(i)
    return tuple(sorted(taken))


def row_reduce_lattice_membership(basis, vector) -> bool:
    """Is ``vector`` an integer combination of the basis rows? Decided by a
    direct rational solve plus integrality of the coefficients."""
    if not basis:
        return all(x == 0 for x in vector)
    coeff_cols = [[row[j] for row in basis] for j in range(len(vector))]
    sol = lin_solve(coeff_cols, vector)
    if sol is None:
        return False
    combined = [
        sum(sol[k] * basis[k][j] for k in range(len(basis)))
        for j in range(len(vector))
    ]
    if combined != [Fraction(x) for x in vector]:
        return False
    return all(Fraction(c).denominator == 1 for c in sol)


def subset_regular(arr) -> bool:
    """Regularity by the determinant of every n-subset of hyperplanes, not
    of the direction classes."""
    for subset in itertools.combinations(range(arr.d), arr.n):
        value = det([arr.normals[i] for i in subset])
        if value != 0 and abs(value) != 1:
            return False
    return True


def subset_simple(arr) -> bool:
    """Simplicity by one elimination of the augmented system per subset of
    size 2 to n + 1 (a violating subset always contains one of size at most
    n + 1): the hyperplanes meet when no nonzero right-hand side is left
    below the pivots, in codimension the pivot count."""
    for size in range(2, min(arr.d, arr.n + 1) + 1):
        for subset in itertools.combinations(range(arr.d), size):
            rows, pivots, _ = _eliminate(
                [arr.normals[i] for i in subset], [-arr.lifts[i] for i in subset]
            )
            meet = all(row[arr.n] == 0 for row in rows[len(pivots):])
            if meet and len(pivots) != size:
                return False
    return True


def subset_trivial_factors(arr) -> tuple:
    """Trivial factors by one rank computation per hyperplane."""
    return tuple(
        k
        for k in range(arr.d)
        if rank([arr.normals[i] for i in range(arr.d) if i != k]) < arr.n
    )


def per_arrangement_regular(arr) -> bool:
    """Regularity by the C(D, n) determinants of the representatives,
    taken afresh for each arrangement."""
    reps = [r for r, _ in _direction_classes(arr)]
    return all(abs(_int_det(sub)) <= 1 for sub in itertools.combinations(reps, arr.n))


def per_arrangement_circuits(arr) -> tuple:
    """The circuits of the representatives by a fresh walk."""
    return tuple(_circuits([r for r, _ in _direction_classes(arr)]))


def per_arrangement_simple(arr) -> bool:
    """Simplicity by the class circuits, walked afresh for each
    arrangement: no repeated offset in a class, and no circuit whose
    relation is met by one offset per class."""
    classes = _direction_classes(arr)
    _, flat = _common_denominator(t for _, members in classes for _, t in members)
    flat = iter(flat)
    offsets = [tuple(itertools.islice(flat, len(members))) for _, members in classes]
    if any(len(set(ts)) < len(ts) for ts in offsets):
        return False
    for support, relation in per_arrangement_circuits(arr):
        choices = itertools.product(*(offsets[k] for k in support))
        if any(sum(c * t for c, t in zip(relation, ts)) == 0 for ts in choices):
            return False
    return True


def per_arrangement_realizable(arr) -> tuple:
    """The class subsets whose hyperplanes ``rank_realizable`` accepts as a
    BOTH set, by size and then lexicographically: the 2^D scan of the
    complement by the rank test in R^d."""
    td = torus_data(arr)
    classes = _direction_classes(arr)
    subsets = itertools.chain.from_iterable(
        itertools.combinations(range(len(classes)), size) for size in range(len(classes) + 1)
    )
    return tuple(
        c for c in subsets if rank_realizable(td, {i for k in c for i, _ in classes[k][1]})
    )


def per_arrangement_ray_signs(arr) -> tuple:
    """The candidate ray sign vectors by the cofactors of each (n - 1)-subset
    of representatives, dotted with every normal of the arrangement."""
    reps = [r for r, _ in _direction_classes(arr)]
    signs = {}
    for subset in itertools.combinations(reps, arr.n - 1):
        c = [(-1) ** j * _int_det([row[:j] + row[j + 1:] for row in subset]) for j in range(arr.n)]
        if any(c):
            dots = (sum(a * b for a, b in zip(u, c)) for u in arr.normals)
            sigma = tuple((x > 0) - (x < 0) for x in dots)
            signs[sigma] = signs[tuple(-s for s in sigma)] = None
    return tuple(signs)


def per_arrangement_vertices(arr) -> tuple:
    """The vertices with their sign vectors, one ``solve_integer`` per
    n-subset of hyperplanes from distinct classes, each class n-subset
    dropped at its first singular system."""
    common, lifts = _common_denominator(arr.lifts)
    found = {}
    for chosen in itertools.combinations(_direction_classes(arr), arr.n):
        for members in itertools.product(*(m for _, m in chosen)):
            zeros = [i for i, _ in members]
            solved = solve_integer([arr.normals[i] for i in zeros], [-lifts[i] for i in zeros])
            if solved is None:
                break
            nums, den = solved
            values = (
                sum(a * x for a, x in zip(u, nums)) + den * lift
                for u, lift in zip(arr.normals, lifts)
            )
            found.setdefault(tuple((v > 0) - (v < 0) for v in values), solved)
    points = (
        (tuple(Fraction(x, den * common) for x in nums), sigma)
        for sigma, (nums, den) in found.items()
    )
    return tuple(sorted(points))


def mask_ray_signs(arr) -> tuple:
    """The ray sign vectors that the class record's ``ray_masks`` encode
    for the arrangement, in the order of ``per_arrangement_ray_signs``.
    Hyperplane i of normal ``s * r_k`` reads class k's ``(up, down)`` when s
    = +1 and ``(down, up)`` when s = -1; a ray's bit is in the first iff
    ``<u_i, ray> >= 0`` and in the second iff ``<= 0``. Bit j is cofactor
    j and bit j + R its negation, so each cofactor is read before its
    negation, and repeated sign vectors are dropped."""
    masks = arr._matroid.ray_masks
    reps = [r for r, _ in _direction_classes(arr)]
    sides = []
    for u in arr.normals:
        if u in reps:
            sides.append(masks[reps.index(u)])
        else:
            down, up = masks[reps.index(tuple(-x for x in u))]
            sides.append((up, down))
    count = (masks[0][0] | masks[0][1]).bit_length() // 2
    signs = {}
    for j in range(count):
        for bit in (j, j + count):
            signs[tuple((z >> bit & 1) - (w >> bit & 1) for z, w in sides)] = None
    return tuple(signs)


# The vertex signs at which each letter holds.
_HOLDS = {
    Status.Z: (0, 1),
    Status.W: (0, -1),
    Status.ZERO: (0,),
    Status.BOTH: (0, 1, -1),
}


def by_sign_letter_masks(vertices, d) -> tuple:
    """The letter masks of ``_letter_masks`` built vertex by vertex: per
    coordinate one mask per sign, and each letter's mask the sum of those of
    the signs it holds at."""
    tables = []
    for k in range(d):
        by_sign = {0: 0, 1: 0, -1: 0}
        for j, (_, sigma) in enumerate(vertices):
            by_sign[sigma[k]] |= 1 << j
        tables.append({status: sum(by_sign[s] for s in holds) for status, holds in _HOLDS.items()})
    return tuple(tables), (1 << len(vertices)) - 1


def first_compact_indices(arr) -> tuple:
    """Per vertex, the index of the first bounded chamber of the extended
    core whose vertex mask holds it, or the number of bounded chambers if
    none does: one ``_chamber_mask`` per bounded chamber, each assigning
    the vertices of its mask not assigned before."""
    compact = [c.eps for c in _extended_core_cached(arr).core if c.classification == BOUNDED]
    unassigned = _letter_masks(arr)[1]
    first = [len(compact)] * unassigned.bit_length()
    for index, eps in enumerate(compact):
        group = _chamber_mask(arr, eps) & unassigned
        unassigned ^= group
        while group:
            low = group & -group
            first[low.bit_length() - 1] = index
            group ^= low
    return tuple(first)


def brute_force_simple(arr) -> bool:
    """Simplicity by scanning every subset size, not just up to n + 1."""
    for size in range(2, arr.d + 1):
        for subset in itertools.combinations(range(arr.d), size):
            mat = [arr.normals[i] for i in subset]
            rhs = [-arr.lifts[i] for i in subset]
            if lin_solve(mat, rhs) is None:
                continue
            codim = rank(mat)
            if codim != size:
                return False
    return True


def eliminate(poly, var_index: int) -> Polyhedron:
    """Exact projection of the polyhedron onto the remaining coordinates.

    A point of the result extends to a point of the input and vice versa.
    Contradictory constant rows produced by the projection are kept, so an
    infeasible input projects to a visibly infeasible output.
    """
    if not 0 <= var_index < poly.dim:
        raise ValueError("variable index out of range")
    rows = _dedup(_integerize(c, i) for i, c in enumerate(poly.constraints))
    rows = _eliminate_column(rows, var_index)
    keep = [k for k in range(poly.dim) if k != var_index]
    cons = tuple(
        Constraint(tuple(r.coeffs[k] for k in keep), r.rel, Fraction(r.const))
        for r in rows
    )
    return Polyhedron(poly.dim - 1, cons)


def affine_dimension(poly) -> int:
    """Dimension of the affine hull of the solution set; -1 when empty.

    An inequality is an implicit equality exactly when tightening it to a
    strict inequality makes the system infeasible; the affine hull is then
    cut out by the explicit and implicit equalities.
    """
    if not is_feasible(poly).feasible:
        return -1
    eq_rows = [c.coeffs for c in poly.constraints if c.relation is Relation.EQ]
    for idx, con in enumerate(poly.constraints):
        if con.relation is not Relation.GE:
            continue
        tightened = list(poly.constraints)
        tightened[idx] = Constraint(con.coeffs, Relation.GT, con.constant)
        if not is_feasible(Polyhedron(poly.dim, tuple(tightened))).feasible:
            eq_rows.append(con.coeffs)
    return poly.dim - rank(eq_rows)


def recession_cone(poly) -> Polyhedron:
    cons = tuple(
        Constraint(
            c.coeffs,
            Relation.EQ if c.relation is Relation.EQ else Relation.GE,
            Fraction(0),
        )
        for c in poly.constraints
    )
    return Polyhedron(poly.dim, cons)


def is_bounded(poly) -> bool:
    """True iff the recession cone is trivial. Empty polyhedra count as
    bounded. One probe per signed coordinate direction, 2 * dim LPs."""
    if not is_feasible(poly).feasible:
        return True
    cone = recession_cone(poly)
    for j in range(poly.dim):
        for sign in (1, -1):
            probe = cone.constraints + (
                Constraint(unit_vector(poly.dim, j, sign), Relation.GE, Fraction(-1)),
            )
            if is_feasible(Polyhedron(poly.dim, probe)).feasible:
                return False
    return True


def enumerate_vertices(poly) -> list:
    """All basic feasible points of a polyhedron, sorted: every
    ``dim``-subset of constraints with a unique common solution contributes
    that solution when it satisfies the whole system (C(k, dim) square
    solves for k constraints)."""
    points = set()
    cons = poly.constraints
    for subset in itertools.combinations(range(len(cons)), poly.dim):
        mat = [cons[i].coeffs for i in subset]
        rhs = [-cons[i].constant for i in subset]
        x = solve_square(mat, rhs) if poly.dim else ()
        if x is not None and poly.contains(x):
            points.add(tuple(Fraction(v) for v in x))
    return sorted(points)


def feasible_by_enumeration(poly) -> bool:
    """Brute-force feasibility for closed systems.

    Every nonempty polyhedron has a minimal face which is the full solution
    set of some subsystem turned into equalities, of rank at most ``dim``;
    so scanning all constraint subsets of size up to ``dim`` and testing a
    particular solution of each is exact. Strict inequalities are not
    supported here; the elimination engine covers those with certificates.
    """
    if any(c.relation is Relation.GT for c in poly.constraints):
        raise ValueError("enumeration oracle supports closed systems only")
    cons = poly.constraints
    origin = tuple(Fraction(0) for _ in range(poly.dim))
    if poly.contains(origin):
        return True
    for size in range(1, min(poly.dim, len(cons)) + 1):
        for subset in itertools.combinations(range(len(cons)), size):
            mat = [cons[i].coeffs for i in subset]
            rhs = [-cons[i].constant for i in subset]
            sol = lin_solve(mat, rhs)
            if sol is not None and poly.contains(sol):
                return True
    return False


def adjacency_lemma_check(arr) -> bool:
    """Key step of the covering proof, checked exhaustively.

    Whenever a pattern's state set meets a compact chamber, the pattern must
    lie in that chamber's chart. The meeting is decided on the intersection,
    the chart by the numeric system: the chart pattern's state set is that
    same intersection, so deciding the chart on it would be a tautology.
    """
    compact = [(c.eps, chamber(arr, c.eps).constraints) for c in core(arr, force=True)]
    td = torus_data(arr)
    for pattern in nonempty_patterns(arr):
        st = state_set(arr, pattern)
        for eps, walls in compact:
            meet = Polyhedron(arr.n, st.constraints + walls)
            if not is_feasible(meet).feasible:
                continue
            if not numeric_semistable(td, chart_pattern(eps, pattern)):
                return False
    return True


def extension_exists(poly, var_index, partial_point) -> bool:
    """Can ``partial_point`` (values for all coordinates except var_index)
    be extended to a point of ``poly``? Decided by 1-D interval analysis."""
    values = list(partial_point)
    values.insert(var_index, None)
    lower = None  # (bound, strict)
    upper = None
    for con in poly.constraints:
        a = con.coeffs[var_index]
        rest = con.constant + sum(
            con.coeffs[k] * values[k] for k in range(len(values)) if k != var_index
        )
        if a == 0:
            ok = (
                rest >= 0
                if con.relation is Relation.GE
                else rest > 0 if con.relation is Relation.GT else rest == 0
            )
            if not ok:
                return False
            continue
        bound = Fraction(-rest, a)
        if con.relation is Relation.EQ:
            if lower is None or (bound, False) > lower:
                lower = (bound, False)
            if upper is None or bound < upper[0]:
                upper = (bound, False)
            continue
        strict = con.relation is Relation.GT
        if a > 0:
            if lower is None or (bound, strict) > lower:
                lower = (bound, strict)
        else:
            if upper is None or bound < upper[0] or (bound == upper[0] and strict):
                upper = (bound, strict)
    if lower is None or upper is None:
        return True
    if lower[0] < upper[0]:
        return True
    if lower[0] == upper[0]:
        return not lower[1] and not upper[1]
    return False


def rank_realizable(td, both) -> bool:
    """Realizability of the BOTH set ``both`` by a rank test in R^d: no unit
    vector of a BOTH coordinate lies in the span of the relation rows and
    the unit vectors of the other coordinates (the kernel slice supported on
    the BOTH set then avoids every coordinate hyperplane inside it)."""
    stack = list(td.basis) + [unit_vector(td.d, j) for j in range(td.d) if j not in both]
    base = rank(stack)
    return all(rank(stack + [unit_vector(td.d, i)]) > base for i in both)


def numeric_semistable(td, pattern) -> bool:
    """Signed solvability of ``A x = alpha``: the numeric system of a
    pattern decided by one d-variable LP, where the library reads a vertex
    mask and a signed circuit of the rebuilt arrangement."""
    return is_feasible(_sign_system(td, pattern)).feasible


def per_pattern_verdict(arr, pattern) -> bool:
    """Nonemptiness of a BOTH-free state set by one LP on all of its d rows."""
    return is_feasible(state_set(arr, pattern)).feasible


def numeric_density(td) -> frozenset:
    """The sign vectors whose dense pattern is numerically semistable, by
    one d-variable LP per sign vector: the density oracle."""
    return frozenset(
        eps
        for eps in all_sign_vectors(td.d)
        if numeric_semistable(td, full_pattern(eps))
    )


def per_subset_numeric_chambers(td) -> frozenset:
    """The numerically semistable dense patterns from one ``solve_integer``
    per m-subset T of columns: each nonsingular ``A_T x_T = alpha``, with
    ``x = 0`` off T, contributes the sign vectors its solution conforms
    to."""
    _, rhs = _common_denominator(td.alpha)
    signs = set()
    for columns in itertools.combinations(range(td.d), td.m):
        solved = solve_integer([[row[j] for j in columns] for row in td.basis], rhs)
        if solved is not None:
            sigma = [0] * td.d
            for j, x in zip(columns, solved[0]):
                sigma[j] = (x > 0) - (x < 0)
            signs.add(tuple(sigma))
    allowed = {1: (1,), -1: (-1,), 0: (1, -1)}
    return frozenset(
        eps for sigma in signs for eps in itertools.product(*(allowed[s] for s in sigma))
    )


def numeric_chart_semistable(td, eps, pattern) -> bool:
    """Chart membership decided numerically: is alpha in the cone of the
    active signed characters?"""
    return numeric_semistable(td, chart_pattern(eps, pattern))


def numeric_covering(arr) -> CoverReport:
    """The covering sweep with every verdict taken from the numeric system."""
    td = torus_data(arr)
    compact = theta_cpt(arr)
    witness = {}
    counterexamples = []
    for pattern in itertools.product(NO_BOTH_ALPHABET, repeat=arr.d):
        if not numeric_semistable(td, pattern):
            continue
        for eps in compact:
            if numeric_chart_semistable(td, eps, pattern):
                witness[pattern] = eps
                break
        else:
            counterexamples.append(pattern)
    return CoverReport(not counterexamples, witness, tuple(counterexamples))


def per_leaf_covering(arr) -> CoverReport:
    """The covering sweep with one chart LP per (leaf, compact chamber)
    pair: a leaf's witness is the first compact chamber, in extended-core
    order, whose chart pattern has a feasible state set."""
    compact = theta_cpt(arr, force=True)
    witness = {}
    counterexamples = []
    for pattern in nonempty_patterns(arr):
        for eps in compact:
            if per_pattern_verdict(arr, chart_pattern(eps, pattern)):
                witness[pattern] = eps
                break
        else:
            counterexamples.append(pattern)
    return CoverReport(not counterexamples, witness, tuple(counterexamples))


def per_leaf_complement(arr, eps) -> ComplementReport:
    """The complement sweep with one chart LP per leaf: the walk's leaves
    with BOTH on each BOTH set of hyperplane indices that the rank test in
    R^d finds realizable, excluded when the state set of their chart pattern
    is infeasible, summarised as production summarises them."""
    td = torus_data(arr)
    excluded = []
    for size in range(arr.d + 1):
        for both in itertools.combinations(range(arr.d), size):
            if not rank_realizable(td, both):
                continue
            alphabets = [(Status.BOTH,) if i in both else NO_BOTH_ALPHABET for i in range(arr.d)]
            excluded.extend(
                pattern
                for pattern in nonempty_patterns(arr, alphabets)
                if not per_pattern_verdict(arr, chart_pattern(eps, pattern))
            )
    excluded.sort(key=lambda p: [_LETTER_ORDER[status] for status in p])
    return _complement_report(arr, tuple(eps), excluded)


def full_walk_complement(arr, eps) -> ComplementReport:
    """The complement sweep without pruning: every leaf of the walk over
    each realizable class set, kept when its vertex mask misses the
    chamber's, summarised as production summarises them."""
    chamber = _pattern_mask(arr, full_pattern(eps))
    classes = _direction_classes(arr)
    excluded = []
    for chosen in arr._matroid.realizable:
        both = {i for k in chosen for i, _ in classes[k][1]}
        alphabets = [(Status.BOTH,) if i in both else NO_BOTH_ALPHABET for i in range(arr.d)]
        walk = _pattern_masks(arr, walk_rows(arr, alphabets))
        excluded.extend(p for p, kept in walk if not kept & chamber)
    excluded.sort(key=lambda p: [_LETTER_ORDER[status] for status in p])
    return _complement_report(arr, tuple(eps), excluded)


def oracle_complement_report(arr, eps, excluded) -> ComplementReport:
    """Summarise excluded patterns without the production summary: the
    dimension measured by ``affine_dimension`` on each state set, and the
    breakdown by testing every sign vector letter by letter against each
    pattern (Z needs +1, W needs -1, ZERO takes either)."""
    both_free = [p for p in excluded if Status.BOTH not in p]
    all_in_core = len(both_free) == len(excluded)
    max_dim = None
    if all_in_core:
        max_dim = max((affine_dimension(state_set(arr, p)) for p in both_free), default=-1)
    allowed = {Status.Z: (1,), Status.W: (-1,), Status.ZERO: (1, -1)}
    breakdown = {}
    for sign in all_sign_vectors(arr.d):
        members = tuple(
            p for p in both_free if all(e in allowed[status] for e, status in zip(sign, p))
        )
        if members:
            breakdown[sign] = members
    return ComplementReport(tuple(eps), tuple(excluded), all_in_core, max_dim, breakdown)


def numeric_complement(arr, eps) -> ComplementReport:
    """The 4^d complement sweep with every verdict taken from the numeric
    system and realizability from the rank test in R^d, once per BOTH set."""
    td = torus_data(arr)
    realizable = functools.cache(lambda both: rank_realizable(td, both))
    excluded = [
        pattern
        for pattern in itertools.product(FULL_ALPHABET, repeat=arr.d)
        if realizable(tuple(i for i, status in enumerate(pattern) if status is Status.BOTH))
        and numeric_semistable(td, pattern)
        and not numeric_chart_semistable(td, eps, pattern)
    ]
    return oracle_complement_report(arr, eps, excluded)


def candidate_complement(arr, eps) -> ComplementReport:
    """The complement sweep over every candidate: all 3^d BOTH-free patterns,
    then the {Z, W, 0} fills of each BOTH set of hyperplane indices that the
    rank test in R^d finds realizable, each decided by one LP on its state
    set and, if semistable, tested against the chart."""
    td = torus_data(arr)
    excluded = []
    for size in range(arr.d + 1):
        for both in itertools.combinations(range(arr.d), size):
            if not rank_realizable(td, both):
                continue
            free = [i for i in range(arr.d) if i not in both]
            pattern = [Status.BOTH] * arr.d
            for fill in itertools.product(NO_BOTH_ALPHABET, repeat=len(free)):
                for i, status in zip(free, fill):
                    pattern[i] = status
                if not is_feasible(state_set(arr, pattern)).feasible:
                    continue
                if not chart_semistable(arr, eps, pattern):
                    excluded.append(tuple(pattern))
    excluded.sort(key=lambda p: [_LETTER_ORDER[status] for status in p])
    return oracle_complement_report(arr, eps, excluded)


def three_class_arrangement(rng, per_class):
    """n = 2, classes x = a, y = b and x + y = c with ``per_class``
    hyperplanes each, one sign drawn per normal; no three meet."""
    xs = rng.sample(range(-200, 200), per_class)
    ys = rng.sample(range(-200, 200), per_class)
    sums = {x + y for x in xs for y in ys}
    cs = rng.sample([c for c in range(-500, 500) if c not in sums], per_class)
    planes = [((1, 0), Fraction(x, 3)) for x in xs] + [((0, 1), Fraction(y, 3)) for y in ys]
    planes += [((1, 1), Fraction(c, 3)) for c in cs]
    rng.shuffle(planes)
    signs = [rng.choice((1, -1)) for _ in planes]
    normals = tuple(tuple(s * x for x in u) for s, (u, _) in zip(signs, planes))
    return Arrangement(2, normals, tuple(-s * v for s, (_, v) in zip(signs, planes)))


def cycling_family(rng, d):
    """n = 3, normals cycling through e1, e2, e3 and e1 + e2 + e3, each
    integer lift drawn from [-1000, 1000] again until the hyperplanes so far
    are simple. The normals are regular, so the arrangement is smooth."""
    cycle = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))
    normals = tuple(cycle[i % 4] for i in range(d))
    lifts = []
    for i in range(d):
        while True:
            lift = rng.randint(-1000, 1000)
            if i < 3 or is_simple(Arrangement(3, normals[: i + 1], (*lifts, lift))):
                break
        lifts.append(lift)
    return Arrangement(3, normals, tuple(lifts))


def pattern_string_by_value(pattern) -> str:
    """A pattern's string read off each letter's Enum value."""
    return "".join(status.value for status in pattern)


def sign_string_by_comparison(eps) -> str:
    """A sign vector's string, "+" where an entry equals 1, "-" elsewhere."""
    return "".join("+" if e == 1 else "-" for e in eps)


def rational_string_via_fraction(value) -> str:
    """A rational's string through a fresh ``Fraction``, its numerator and
    denominator written by ``formats._decimal``."""
    value = Fraction(value)
    if value.denominator == 1:
        return _decimal(value.numerator)
    return f"{_decimal(value.numerator)}/{_decimal(value.denominator)}"


def polygon_order_by_comparison(points) -> list:
    """Convex polygon vertices counterclockwise around their centroid from
    the positive x axis: the upper half-plane (with the positive x axis)
    first, then within a half by the sign of the cross product."""
    k = len(points)
    cx = sum(p[0] for p in points) / k
    cy = sum(p[1] for p in points) / k

    def half(p):
        dx, dy = p[0] - cx, p[1] - cy
        return 0 if (dy > 0 or (dy == 0 and dx > 0)) else 1

    def compare(p, q):
        hp, hq = half(p), half(q)
        if hp != hq:
            return hp - hq
        cross = (p[0] - cx) * (q[1] - cy) - (p[1] - cy) * (q[0] - cx)
        return -1 if cross > 0 else 1 if cross < 0 else 0

    return sorted(points, key=functools.cmp_to_key(compare))


def random_integer_arrangement(rng, n: int, max_d: int = 7) -> Arrangement:
    """Primitive normals with entries in [-2, 2] and small lifts: often
    neither simple nor regular, with parallel and concurrent hyperplanes."""
    while True:
        normals = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(n, max_d))]
        lifts = [Fraction(rng.randint(-3, 3), rng.choice((1, 2))) for _ in normals]
        try:
            return Arrangement(n, tuple(normals), tuple(lifts))
        except ValueError:
            continue


def symmetric_copies(arr, rng) -> list:
    """``(copy, order)`` for four symmetries of an arrangement, hyperplane j
    of the copy being hyperplane ``order[j]`` of ``arr``: the lifts
    translated by a rational point v (``lift_i + <u_i, v>``, the functions
    read at y + v), the normals under a random unimodular change of
    coordinates M (``M^T u_i``, the functions read at M y), the hyperplanes
    permuted, and the lifts scaled by a positive rational c (the functions
    c times those at y / c)."""
    n, identity = arr.n, tuple(range(arr.d))
    shift = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
    translated = [lift + sum(a * b for a, b in zip(u, shift)) for u, lift in zip(arr.normals, arr.lifts)]
    # M as a product of elementary row additions and sign flips: det +-1
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        factor = rng.choice((-2, -1, 1, 2)) if i != j else -1
        m[i] = [a + factor * b for a, b in zip(m[i], m[j])] if i != j else [-a for a in m[i]]
    changed = [tuple(sum(m[k][j] * u[k] for k in range(n)) for j in range(n)) for u in arr.normals]
    order = tuple(rng.sample(identity, arr.d))
    scale = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    return [
        (Arrangement(n, arr.normals, tuple(translated)), identity),
        (Arrangement(n, tuple(changed), arr.lifts), identity),
        (Arrangement(n, tuple(arr.normals[i] for i in order), tuple(arr.lifts[i] for i in order)), order),
        (Arrangement(n, arr.normals, tuple(scale * lift for lift in arr.lifts)), identity),
    ]


def symmetry_answers(arr, order, patterns, eps) -> tuple:
    """The answers a symmetry must keep, each word read back through
    ``order`` into the indices of the original arrangement: the extended
    core, the covering verdict with its witnessed patterns and its
    counterexamples (None and empty with no compact chamber),
    ``core_empty_criterion``, the density entry of ``eps``
    and the numeric, geometric and closed-orbit verdicts of ``patterns``."""

    def back(word):
        out = [None] * len(order)
        for j, i in enumerate(order):
            out[i] = word[j]
        return tuple(out)

    def forward(word):
        return tuple(word[i] for i in order)

    td = torus_data(arr)
    # verify_covering needs a compact chamber
    report = verify_covering(arr) if theta_cpt(arr) else CoverReport(None, {}, ())
    criterion = core_empty_criterion(arr)
    return (
        frozenset((back(c.eps), c.classification) for c in extended_core(arr)),
        report.covered,
        frozenset(map(back, report.witness)),
        frozenset(map(back, report.counterexamples)),
        criterion.bounded_exists,
        criterion.agree,
        frozenset(order[i] for i in criterion.trivial_indices),
        verify_density(arr, forward(eps)),
        tuple(
            (
                hk_semistable_numeric(td, forward(p)).semistable,
                hk_semistable_geometric(arr, forward(p)).semistable,
                hk_closed_orbit(td, forward(p)),
            )
            for p in patterns
        ),
    )


def symmetries_hold(arr, rng, count: int = 8) -> bool:
    """Do all four ``symmetric_copies`` keep ``symmetry_answers`` on
    ``count`` seeded four-letter patterns and one seeded sign vector?"""
    patterns = [tuple(rng.choice(FULL_ALPHABET) for _ in range(arr.d)) for _ in range(count)]
    eps = tuple(rng.choice((1, -1)) for _ in range(arr.d))
    expected = symmetry_answers(arr, tuple(range(arr.d)), patterns, eps)
    return all(
        symmetry_answers(copy, order, patterns, eps) == expected
        for copy, order in symmetric_copies(arr, rng)
    )
