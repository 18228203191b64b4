"""Exact integer and rational linear algebra.

Matrices are immutable tuples of row tuples, vectors are plain tuples.
Integer work (Hermite normal form, saturated kernels, primitive scaling,
integer determinants, the incremental echelon form that walks subsets of
vectors and proves that an arrangement's normals span) stays in arbitrary
precision integers. The one HNF routine, ``_hnf``, reduces the transpose
and its kernel rows in one pass in ``kernel_lattice``. An arrangement's
torus data reads the same basis off its class-matroid record where it can
(see :mod:`corecover.arrangement`). One fraction-free (Bareiss) forward
elimination, with one fraction-free back substitution, is behind the
integer determinant, the scaled integer inverse and the one square solver,
``solve_integer``; ``rank`` and the rational ``solve_square`` are test
oracles and live with the tests. Rational rows are first cleared of their
denominators, which is done only in ``_common_denominator``. There is no
floating point anywhere in this module: every downstream verdict is an
exact feasibility question and rounding would corrupt it.
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


def primitive_scale(vec) -> tuple:
    """Scale a nonzero rational vector to a primitive integer vector.

    Returns ``(prim, sigma)`` with ``prim = sigma * vec`` entrywise, ``sigma``
    a positive rational. The positive scale preserves orientation.
    """
    common, ints = _common_denominator(vec)
    if not any(ints):
        raise ValueError("cannot scale the zero vector")
    g = gcd(*ints)
    return tuple(x // g for x in ints), Fraction(common, g)


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


_EXACT = frozenset((int, Fraction))


def _common_denominator(values) -> tuple:
    """``(common, ints)`` with ``values == ints / common`` entrywise, where
    ``common`` is the least common denominator and ``ints`` a list. Ints
    and Fractions pass through, and all-int input comes back as is over 1;
    any other number goes through ``Fraction``. Each value is read once,
    through ``as_integer_ratio()``, which ints and Fractions both have."""
    values = list(values)
    kinds = set(map(type, values))
    if kinds == {int}:
        return 1, values
    if not kinds <= _EXACT:
        values = [x if type(x) in _EXACT else Fraction(x) for x in values]
    pairs = [x.as_integer_ratio() for x in values]
    common = lcm(*[q for _, q in pairs])
    return common, [p * (common // q) for p, q in pairs]


def _as_fractions(values) -> tuple:
    """``values`` as a tuple of Fractions. A tuple whose entries are all
    Fractions is returned as it is; otherwise a Fraction passes through as
    the same object and anything else goes through ``Fraction``. A str or
    bytes, whose characters would be read as values, raises
    ``ValueError``."""
    if type(values) is tuple and set(map(type, values)) <= {Fraction}:
        return values
    if isinstance(values, (str, bytes)):
        raise ValueError("lifts must be a sequence of numbers, not a string")
    return tuple(x if type(x) is Fraction else Fraction(x) for x in values)


def _bareiss(rows, width: int) -> tuple:
    """Fraction-free (Bareiss) forward elimination of the integer row lists
    ``rows``, in place.

    Pivots are searched in the first ``width`` columns, so the pivot columns
    are the lexicographically first independent ones; columns past
    ``width`` (a right-hand side) ride along. Returns ``(pivots, sign,
    last)``: the pivot column of each of the first ``len(pivots)`` rows,
    the sign of the row swaps and the last pivot (1 if there is none). Only
    rows below a pivot are updated, and only right of its column, so the
    entries left of a row's own pivot are stale. After k pivot steps each
    updated entry is a (k + 1)-minor of the input (Sylvester's identity),
    so each division by the previous pivot is exact and the last pivot of a
    square matrix of full rank is ``sign`` times its determinant. A row
    below the pivots is 0 in the columns before ``width`` that hold no
    pivot, and past ``width`` it is 0 exactly where it agrees with the
    combination of the pivot rows that it equals before ``width``.
    """
    nrows = len(rows)
    pivots, sign, last = [], 1, 1
    for col in range(width):
        r = len(pivots)
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
            row[col + 1:] = [(p * x - f * y) // last for x, y in zip(row[col + 1:], tail)]
        last = p
        pivots.append(col)
    return pivots, sign, last


def _back_substitute(rows, pivots, last, width: int, column: int) -> list:
    """The numerators ``X = last * x`` of the solution ``x`` of the pivot
    rows of a ``_bareiss`` echelon form with a right-hand side in
    ``column``, free variables 0, as a list of ``width`` entries. Row k
    reads ``sum(row[j] * x[j] for j in pivots[k:]) == row[column]``. With
    ``last`` the last pivot of the form or its negative, ``X`` is integer
    by Cramer's rule on the pivot block, whose determinant is ``+-last``,
    so each division is exact. This is the one back substitution of the
    module."""
    xs = [0] * width
    for k in reversed(range(len(pivots))):
        row, col = rows[k], pivots[k]
        rest = last * row[column]
        for j in pivots[k + 1:]:
            rest -= row[j] * xs[j]
        xs[col] = rest // row[col]
    return xs


def _int_det(rows) -> int:
    """Determinant of a square integer matrix by one ``_bareiss`` pass on
    copies of its rows: ``sign * last``, or 0 if it is singular. Integer
    input needs no denominators cleared and no ``Fraction`` built."""
    rows = [list(row) for row in rows]
    pivots, sign, last = _bareiss(rows, len(rows))
    return sign * last if len(pivots) == len(rows) else 0


def _scaled_inverse(mat) -> tuple | None:
    """``(den, inverse)`` of a square integer matrix, or None if it is
    singular: ``den = |det|`` and ``inverse = den * mat^{-1}``, an integer
    matrix (the adjugate up to sign), by one ``_bareiss`` pass on ``[mat |
    I]`` and one ``_back_substitute`` per identity column, which gives that
    column of ``den * mat^{-1}``. Any system ``mat x = b`` is then ``den *
    x = inverse @ b``, with no further elimination."""
    n = len(mat)
    rows = [[*row] + [0] * n for row in mat]
    for i, row in enumerate(rows):
        row[n + i] = 1
    pivots, _, last = _bareiss(rows, n)
    if len(pivots) < n:
        return None
    sign = 1 if last > 0 else -1
    columns = [_back_substitute(rows, pivots, sign * last, n, n + i) for i in range(n)]
    return sign * last, tuple(zip(*columns))


def solve_integer(mat, rhs) -> tuple | None:
    """Unique solution of a square integer system without fractions, or
    None if singular.

    Returns ``(nums, den)`` with integers ``den > 0`` and ``x_i = nums[i] /
    den``: ``den`` is ``|det|`` and ``nums`` are the Cramer numerators, up
    to one common sign, from ``_bareiss`` and ``_back_substitute``. The sign
    of a coordinate is thus read off the integers, and a caller that needs
    only signs builds no ``Fraction``. Not in lowest terms.
    """
    n = len(mat)
    if any(len(r) != n for r in mat) or len(rhs) != n:
        raise ValueError("solve_integer requires an n x n matrix and n right-hand sides")
    rows = [[*r, b] for r, b in zip(mat, rhs)]
    pivots, _, last = _bareiss(rows, n)
    if len(pivots) < n:
        return None
    nums = _back_substitute(rows, pivots, last, n, n)
    if last < 0:
        return tuple(-x for x in nums), -last
    return tuple(nums), last
