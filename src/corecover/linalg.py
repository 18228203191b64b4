"""Exact integer and rational linear algebra.

Matrices are immutable tuples of row tuples, vectors are plain tuples.
Integer work (Hermite normal form, saturated kernels, primitivity, the
incremental echelon form that walks subsets of vectors) stays in arbitrary
precision integers. One HNF routine serves both lattice questions:
``hermite_normal_form`` reads ``U`` off identity columns appended to the
input, and ``kernel_lattice`` reduces the transpose and its kernel rows in
one pass. Rank and determinant come from a fraction-free (Bareiss) forward
elimination on rows cleared of their denominators; one forward Gaussian
elimination over fractions.Fraction is behind both rational solvers.
There is no floating point anywhere in this module: every downstream verdict
is an exact feasibility question and rounding would corrupt it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def as_matrix(rows) -> tuple:
    """Freeze an iterable of rows into a tuple-of-tuples matrix."""
    return tuple(tuple(row) for row in rows)


def transpose(mat, ncols: int | None = None) -> tuple:
    """Transpose; ``ncols`` is required when ``mat`` has no rows."""
    if not mat:
        if ncols is None:
            raise ValueError("transpose of an empty matrix needs ncols")
        return tuple(() for _ in range(ncols))
    return tuple(tuple(row[j] for row in mat) for j in range(len(mat[0])))


def unit_vector(dim: int, index: int, sign: int = 1) -> tuple:
    return tuple(sign if j == index else 0 for j in range(dim))


def is_primitive(vec) -> bool:
    """True iff the gcd of the integer entries is 1. Undefined for zero."""
    if not vec or all(x == 0 for x in vec):
        raise ValueError("primitivity is undefined for the zero vector")
    g = 0
    for x in vec:
        g = gcd(g, abs(x))
    return g == 1


def primitive_scale(vec) -> tuple:
    """Scale a nonzero rational vector to a primitive integer vector.

    Returns ``(prim, sigma)`` with ``prim = sigma * vec`` entrywise, ``sigma``
    a positive rational. The positive scale preserves orientation.
    """
    fracs = [Fraction(x) for x in vec]
    if all(f == 0 for f in fracs):
        raise ValueError("cannot scale the zero vector")
    denom_lcm = 1
    for f in fracs:
        denom_lcm = lcm(denom_lcm, f.denominator)
    ints = [int(f * denom_lcm) for f in fracs]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    return tuple(x // g for x in ints), Fraction(denom_lcm, g)


def _exgcd(a: int, b: int) -> tuple:
    """Extended gcd: returns (g, s, t) with s*a + t*b == g == gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _hnf(rows, width: int) -> None:
    """Bring the first ``width`` columns of the integer row lists ``rows`` to
    the pinned row-style Hermite normal form, in place.

    Pivots are searched only in those columns, but every row operation
    combines whole rows, so columns past ``width`` ride along: appended
    identity columns record the transformation. Rows from the pivot row down
    are zero left of the pivot column, so each operation rewrites only the
    entries from that column on.
    """
    nrows = len(rows)
    pivot_row = 0
    for col in range(width):
        src = next((i for i in range(pivot_row, nrows) if rows[i][col] != 0), None)
        if src is None:
            continue
        rows[pivot_row], rows[src] = rows[src], rows[pivot_row]
        top = rows[pivot_row]
        for row in rows[pivot_row + 1:]:
            b = row[col]
            if b == 0:
                continue
            g, s, t = _exgcd(top[col], b)
            p, q = top[col] // g, b // g
            head, tail = top[col:], row[col:]
            top[col:] = [s * x + t * y for x, y in zip(head, tail)]
            row[col:] = [p * y - q * x for x, y in zip(head, tail)]
        if top[col] < 0:
            top[col:] = [-x for x in top[col:]]
        piv, head = top[col], top[col:]
        for row in rows[:pivot_row]:
            q = row[col] // piv
            if q:
                row[col:] = [x - q * y for x, y in zip(row[col:], head)]
        pivot_row += 1


def hermite_normal_form(mat, ncols: int | None = None) -> tuple:
    """Row-style Hermite normal form with transformation matrix.

    Returns ``(H, U)`` where ``H == U @ mat``, ``U`` is unimodular, pivot
    entries are positive, entries above each pivot are reduced into
    ``[0, pivot)`` and zero rows come last. The convention is pinned so that
    every kernel basis derived from it is reproducible bit for bit.
    """
    width = len(mat[0]) if mat else (ncols or 0)
    nrows = len(mat)
    rows = [list(r) + [int(i == j) for j in range(nrows)] for i, r in enumerate(mat)]
    _hnf(rows, width)
    return as_matrix(r[:width] for r in rows), as_matrix(r[width:] for r in rows)


def kernel_lattice(mat, ncols: int | None = None) -> tuple:
    """Canonical basis of the saturated integer kernel ``{v : mat @ v = 0}``.

    The basis vectors are returned as rows. They span the full lattice
    ``ker(mat) & Z^ncols`` (saturation: no proper integer multiple of a
    lattice vector lies outside the span). The canonical form is the HNF of
    the raw kernel rows, so equal inputs give identical bases.

    One pass: the HNF of ``[mat^T | I]`` over all its columns. Once the
    columns of ``mat^T`` are reduced, the rows that are zero there carry the
    raw kernel rows in their tails, and the top rows hold every pivot of
    those columns, so the remaining columns bring the kernel rows to their
    own HNF while the top rows are only reduced. No transform of the kernel
    rows is built.
    """
    if mat:
        width = len(mat[0])
    else:
        if ncols is None:
            raise ValueError("kernel of an empty matrix needs ncols")
        width = ncols
    k = len(mat)
    rows = [[r[j] for r in mat] + [int(i == j) for i in range(width)] for j in range(width)]
    _hnf(rows, k + width)
    return as_matrix(row[k:] for row in rows if not any(row[:k]))


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


def _extend_echelon(rows, vec) -> tuple:
    """One incremental step of fraction-free Gauss-Jordan elimination.

    ``rows`` is a reduced echelon form of integer vectors ``v_0, ...,
    v_{j-1}`` as ``(pivot, row, coords)`` triples of integers: ``row`` is
    nonzero at its ``pivot``, 0 at every other triple's pivot, and equals
    ``sum(coords[i] * v_i)``. If the integer vector ``vec`` is independent of
    the ``v_i``, returns ``(grown, None)`` with ``grown`` the same form for
    ``v_0, ..., v_{j-1}, vec``. Otherwise returns ``(None, relation)``, an
    integer vector with ``sum(relation[i] * v_i) + relation[j] * vec == 0``
    and ``relation[j] != 0``; it is unique up to scale. A walk over subsets
    that extends a prefix one vector at a time thus pays one reduction per
    subset instead of one elimination.
    """
    scale = 1
    residual = list(vec)
    coeffs = [0] * len(rows)
    for pivot, row, coords in rows:
        f = residual[pivot]
        if f:
            p = row[pivot]
            residual = [p * x - f * y for x, y in zip(residual, row)]
            coeffs = [p * c + f * k for c, k in zip(coeffs, coords)]
            scale *= p
    # now scale * vec == residual + sum(coeffs[i] * v_i)
    pivot = next((col for col, x in enumerate(residual) if x), None)
    if pivot is None:
        return None, tuple(coeffs) + (-scale,)
    new_row, new_coords = _primitive_pair(residual, [-c for c in coeffs] + [scale])
    p = new_row[pivot]
    grown = []
    for piv, row, coords in rows:
        coords += (0,)
        e = row[pivot]
        if e:
            row, coords = _primitive_pair(
                [p * x - e * y for x, y in zip(row, new_row)],
                [p * c - e * k for c, k in zip(coords, new_coords)],
            )
        grown.append((piv, row, coords))
    grown.append((pivot, new_row, new_coords))
    return tuple(grown), None


def _primitive_pair(row, coords) -> tuple:
    """Both integer lists divided by the gcd of all their entries, as tuples."""
    g = gcd(*row, *coords)
    return tuple(x // g for x in row), tuple(c // g for c in coords)


def _back_substitute(rows, pivots, ncols: int) -> tuple:
    """Solve the pivot rows of an augmented echelon form, free variables 0."""
    solution = [Fraction(0)] * ncols
    for row, col in zip(reversed(rows[: len(pivots)]), reversed(pivots)):
        rest = sum(row[j] * solution[j] for j in range(col + 1, ncols))
        solution[col] = (row[ncols] - rest) / row[col]
    return tuple(solution)


def _bareiss(mat) -> tuple:
    """Fraction-free forward elimination of a rational matrix.

    Returns ``(rank, det)``; ``det`` is the determinant when ``mat`` is
    square and 0 otherwise. Each row is first scaled by the lcm of its
    denominators, which keeps the rank and the pivot columns and multiplies
    the determinant by the product of the scales, divided back out at the
    end. On the integer rows, after k pivot steps every entry below the
    pivots is a (k + 1)-minor, so each division by the previous pivot is
    exact and the last pivot of a square matrix of full rank is its
    determinant up to the sign of the row swaps.
    """
    rows = []
    scale = 1
    for row in mat:
        row = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row]
        m = lcm(*[x.denominator for x in row])
        rows.append([x.numerator * (m // x.denominator) for x in row])
        scale *= m
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    r, sign, prev = 0, 1, 1
    for col in range(ncols):
        if r == nrows:
            break
        src = next((i for i in range(r, nrows) if rows[i][col]), None)
        if src is None:
            continue
        if src != r:
            rows[r], rows[src] = rows[src], rows[r]
            sign = -sign
        p, tail = rows[r][col], rows[r][col + 1:]
        for row in rows[r + 1:]:
            f = row[col]
            row[col + 1:] = [(p * x - f * y) // prev for x, y in zip(row[col + 1:], tail)]
        prev = p
        r += 1
    if r == nrows == ncols:
        return r, Fraction(sign * prev, scale)
    return r, Fraction(0)


def rank(mat) -> int:
    """Exact rank over the rationals."""
    return _bareiss(mat)[0]


def det(mat) -> Fraction:
    """Exact determinant of a square matrix over the rationals."""
    n = len(mat)
    if any(len(r) != n for r in mat):
        raise ValueError("determinant requires a square matrix")
    return _bareiss(mat)[1]


def solve_square(mat, rhs) -> tuple | None:
    """Unique rational solution of a square system, or None if singular."""
    n = len(mat)
    if any(len(r) != n for r in mat) or len(rhs) != n:
        raise ValueError("solve_square requires an n x n matrix and n right-hand sides")
    rows, pivots, _ = _eliminate(mat, rhs)
    if len(pivots) < n:
        return None
    return _back_substitute(rows, pivots, n)


def solve_integer(mat, rhs) -> tuple | None:
    """Unique solution of a square integer system without fractions, or
    None if singular.

    Returns ``(nums, den)`` with integers ``den > 0`` and ``x_i = nums[i] /
    den``. Fraction-free Gauss-Jordan elimination (Bareiss): after step k
    every entry is a (k + 1)-minor of the augmented matrix, so each division
    by the previous pivot is exact, and at the end every diagonal entry is
    ``+-det`` and the last column holds the Cramer numerators. The sign of
    a coordinate is thus read off the integers, and a caller that needs
    only signs builds no ``Fraction``. Not in lowest terms.
    """
    n = len(mat)
    if any(len(r) != n for r in mat) or len(rhs) != n:
        raise ValueError("solve_integer requires an n x n matrix and n right-hand sides")
    rows = [list(r) + [b] for r, b in zip(mat, rhs)]
    prev = 1
    for k in range(n):
        src = next((i for i in range(k, n) if rows[i][k]), None)
        if src is None:
            return None
        rows[k], rows[src] = rows[src], rows[k]
        top = rows[k]
        p = top[k]
        for i, row in enumerate(rows):
            if i != k:
                f = row[k]
                rows[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        prev = p
    if prev < 0:
        return tuple(-row[n] for row in rows), -prev
    return tuple(row[n] for row in rows), prev


def lin_solve(mat, rhs) -> tuple | None:
    """A particular rational solution of a general linear system.

    Free variables are set to zero, so the result is deterministic. Returns
    None when the system is inconsistent.
    """
    if not mat:
        return ()
    ncols = len(mat[0])
    rows, pivots, _ = _eliminate(mat, rhs)
    if any(row[ncols] != 0 for row in rows[len(pivots):]):
        return None
    return _back_substitute(rows, pivots, ncols)
