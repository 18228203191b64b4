"""Global structure of the quotient: core, covering, density, complements.

Each sign vector ``eps`` reorients the arrangement and contributes a chamber
``Delta_eps``. The bounded nonempty chambers index the compact components of
the core; the main verification confirms that each semistable pattern lands
in the chart of some compact-core sign vector, so those charts cover the
whole quotient. Chambers, swept patterns and chart patterns are state sets,
each decided by its vertex mask: the bitmask of the arrangement's vertices
at which all its letters hold, nonzero iff it is nonempty. A walk over the
hyperplanes keeps the prefixes with a nonzero mask; the chamber, covering
and complement sweeps list its leaves, with their masks, instead of
testing 2^d, 3^d or 4^d candidates, and solve no LP. A leaf lies in the
chart of a chamber iff its mask meets the chamber's, so every chart verdict
is one AND: the covering reads each vertex's first compact chamber, which
the chamber walk assigns as it yields the bounded chambers, and the CLI's
count of it ANDs each leaf's mask with the OR of the bounded chambers'
masks, which the walk keeps (``_covering_counts``); the complement keeps
the leaves that miss one chamber's mask, walking only the prefixes with a
vertex outside it, once per realizable BOTH set, with BOTH letters on it.
The vertices, sorted on integer keys, their masks and the walks' rows of
letters make one face record per arrangement (``stability._faces``), the
chamber walk's results one more (``_core_walk``); both live on the
arrangement, built on first read and freed with it.
A chamber is bounded iff the AND of its letters' ray masks, which the class
record keeps per direction class (``_ClassMatroid.ray_masks``), is zero:
no LP. A chamber's vertices are those of its mask. Density compares each
chamber's verdict with the numeric side, the dense patterns whose numeric
system has a vertex conforming to them: the C(d, n) square systems of the
torus data are solved once, in d variables, from one elimination and an
exchange block each, and no sweep solves an LP. Nothing here builds a
polyhedron either: a core component is its sign vector and classification,
and the chamber as inequalities is ``stability.chamber(arr, eps)``.

Everything is exhaustive and exact, guarded against exponential blowup by a
hyperplane-count limit that can be forced off.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from dataclasses import dataclass
from functools import partial, reduce
from operator import and_, or_

from .arrangement import (
    Arrangement,
    _orientations,
    check_sign_vector,
    is_smooth,
    torus_data,
    trivial_factors,
)
from .errors import GuardError
from .stability import (
    NO_BOTH_ALPHABET,
    FULL_ALPHABET,
    Status,
    _CONFORMING,
    _SIGN,
    _chamber_mask,
    _cone_contains,
    _pattern_masks,
    full_pattern,
)

DEFAULT_MAX_COVER_D = 12
DEFAULT_MAX_COMPLEMENT_D = 9

BOUNDED = "bounded"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class CoreComponent:
    """One extended-core stratum: the nonempty chamber of a sign vector,
    classified bounded or unbounded; it is n-dimensional (see core). The
    chamber itself, as a polyhedron, is ``chamber(arr, eps)``."""

    eps: tuple
    classification: str


@dataclass(frozen=True)
class CoverReport:
    """Outcome of the covering sweep.

    ``witness`` maps every semistable pattern to a compact-core sign vector
    whose chart contains it; ``counterexamples`` lists semistable patterns in
    no compact chart (the covering statement predicts none).
    """

    covered: bool
    witness: dict
    counterexamples: tuple


@dataclass(frozen=True)
class ComplementReport:
    """What one dense chart misses, as pattern-level evidence.

    ``excluded_patterns`` are the semistable realizable patterns outside the
    chart. ``all_in_extended_core`` says none of them has a BOTH coordinate.
    ``max_state_dim`` is the largest state-set dimension among the BOTH-free
    excluded patterns (None when BOTH patterns appear: no dimension claim is
    made for those). ``component_breakdown`` groups the BOTH-free excluded
    patterns by the extended-core strata containing them.
    """

    chart_eps: tuple
    excluded_patterns: tuple
    all_in_extended_core: bool
    max_state_dim: int | None
    component_breakdown: dict


@dataclass(frozen=True)
class CoreEmptyReport:
    """Both sides of the empty-core criterion, computed independently."""

    bounded_exists: bool
    trivial_indices: tuple
    agree: bool


def _require_smooth(arr: Arrangement):
    if not is_smooth(arr):
        raise ValueError("arrangement is not smooth")


def _check_guard(arr: Arrangement, force: bool, what: str, limit: int | None = None):
    """The one exponential guard, shared by the sweeps, the CLI and render.
    The limit, ``DEFAULT_MAX_COVER_D`` unless given, is read at call time."""
    limit = DEFAULT_MAX_COVER_D if limit is None else limit
    if arr.d > limit and not force:
        raise GuardError(
            f"{what} enumerates exponentially many cases for d = {arr.d} > {limit}; "
            "pass force=True (--force on the command line) to run anyway"
        )


_CoreWalk = namedtuple("_CoreWalk", "core first masks")

_core_reads = [0, 0]


def _extended_core_cached(arr: Arrangement) -> _CoreWalk:
    """The core walk record (``_core_walk``), read here alone so that
    ``cache_info()`` gives tracers its (hits, misses): a hit finds it built."""
    _core_reads["_core_walk" not in vars(arr)] += 1
    return arr._core_walk


_extended_core_cached.cache_info = partial(tuple, _core_reads)


def _core_walk(arr: Arrangement) -> _CoreWalk:
    """The core walk: ``core``, the nonempty chambers, the leaves of the
    walk over Z and W, each classified; ``first``, per vertex the index in
    ``core``'s bounded chambers of the first whose mask holds it, or their
    number; and ``masks``, the bounded chambers' vertex masks in ``core``
    order, which are their leaves' masks.

    A nonempty chamber of ``eps`` is unbounded iff its recession cone ``K =
    {x : eps_i <u_i, x> >= 0}`` is nontrivial. K is pointed, since the
    normals span Q^n, so it is nontrivial iff it has an extreme ray ``r``.
    The normals tight on ``r`` have rank n - 1, so n - 1 independent ones
    among them, in n - 1 distinct direction classes, cut out the line
    through ``r``; so do those classes' representatives, whose integer
    cofactor vector ``c`` (``<x, c>`` is the determinant with ``x`` as
    first row) spans that line: ``r`` is a positive multiple of ``c`` or
    ``-c``. Conversely ``+-c`` lies in K iff ``eps_i <u_i, +-c> >= 0`` for
    every i. So the C(D, n - 1) cofactors and their negations decide every
    chamber with no LP, also on input that is not smooth. The class record
    keeps, per class, the masks of the rays on each side (``ray_masks``):
    Z's mask at hyperplane i holds the rays with ``<u_i, ray> >= 0``, W's
    those with ``<= 0``, and the AND of a chamber's letters' masks holds
    the rays in K: d ANDs a chamber.
    """
    rays = arr._matroid.ray_masks
    # hyperplane i, of normal s * r_k, gives the letter of sign s the rays
    # up and that of -s those down
    chamber_letters = (Status.Z, Status.W)
    conform = [
        {status: rays[k][_SIGN[status] != s] for status in chamber_letters}
        for k, s in _orientations(arr)
    ]
    unassigned = arr._faces.masks[1]
    components, first, masks = [], [None] * unassigned.bit_length(), []
    for pattern, kept in _pattern_masks(arr, arr._faces.rows[chamber_letters]):
        eps = tuple(map(_SIGN.__getitem__, pattern))
        # a leaf of the tree is nonempty: bounded iff no ray lies in K
        unbounded = reduce(and_, map(dict.__getitem__, conform, pattern))
        components.append(CoreComponent(eps, UNBOUNDED if unbounded else BOUNDED))
        if not unbounded:
            group = kept & unassigned
            unassigned ^= group
            while group:
                low = group & -group
                first[low.bit_length() - 1] = len(masks)
                group ^= low
            masks.append(kept)
    first = tuple(len(masks) if j is None else j for j in first)
    return _CoreWalk(tuple(components), first, tuple(masks))


def extended_core(arr: Arrangement, force: bool = False) -> tuple:
    """The nonempty chambers in sign-vector order, each classified exactly;
    the empty ones are never reached, so the cost follows the nonempty ones."""
    _require_smooth(arr)
    _check_guard(arr, force, "extended core")
    return _extended_core_cached(arr).core


def core(arr: Arrangement, force: bool = False) -> tuple:
    """The compact part: the bounded nonempty chambers.

    They are n-dimensional with no further test. In a smooth arrangement the
    hyperplanes through any point of a closed chamber have independent
    normals, so some direction moves the point strictly inside all of them
    at once: every nonempty chamber has interior points.
    """
    return tuple(c for c in extended_core(arr, force=force) if c.classification == BOUNDED)


def _chamber_vertices(arr: Arrangement, eps) -> list:
    """The vertices of a chamber, sorted: the arrangement's vertices (see
    ``_vertices``) in its mask (``_chamber_mask``). Such a vertex lies in
    the closed chamber on hyperplanes with spanning normals, so it is a
    basic feasible point of the chamber, and every basic feasible point is
    such a vertex. Exact on any arrangement; in one that is not simple, more
    than n hyperplanes may pass through a vertex, which is listed once.
    """
    mask = _chamber_mask(arr, eps)
    return [p for j, (p, _) in enumerate(arr._faces.vertices) if mask >> j & 1]


def theta_cpt(arr: Arrangement, force: bool = False) -> tuple:
    return tuple(c.eps for c in core(arr, force=force))


def core_empty_criterion(arr: Arrangement, force: bool = False) -> CoreEmptyReport:
    """Compare core emptiness against the split-factor criterion.

    Both sides are computed independently; disagreement is reported, never
    reconciled silently.
    """
    _require_smooth(arr)
    bounded_exists = len(core(arr, force=force)) > 0
    trivial = trivial_factors(arr)
    agree = (not bounded_exists) == (len(trivial) > 0)
    return CoreEmptyReport(bounded_exists, trivial, agree)


def verify_covering(arr: Arrangement, force: bool = False) -> CoverReport:
    """Witness every semistable BOTH-free pattern in a compact chart.

    The sweep lists the vertex walk's leaves, not all 3^d patterns. BOTH
    coordinates are covered by the reduction property (resolving BOTH to the
    witness sign only shrinks charts), so the sweep decides the full
    statement. Requires a nonempty core.

    A leaf lies in the chart of ``eps`` iff its vertex mask meets the
    chamber's (``_chamber_mask``), so its witness, the first compact chamber
    in extended-core order whose chart holds it, is read off its vertices:
    each vertex is indexed by the first compact chamber it lies on, and the
    witness is the chamber of the smallest index among the leaf's vertices.
    (If ``eps`` is the first chamber meeting the mask, a vertex v in both
    lies on no earlier compact chamber, since such a one would meet the
    mask at v, so v has the index of ``eps``; a vertex of the mask with a
    smaller index lies on that earlier chamber, which then meets the mask.)
    A leaf none of whose vertices lies on a compact chamber is a
    counterexample. The chamber walk assigns the indices, and its one
    record (``_extended_core_cached``) gives them with the chambers, so
    a leaf costs one step per vertex of its mask and no chamber mask.

    Gluing: covering holds iff every vertex lies on a bounded chamber. If
    each does, every leaf keeps a vertex with an index. If a vertex v lies
    on none, take the pattern that is ZERO on the hyperplanes through v and
    Z or W, by v's sign, elsewhere: it holds at v, and its state set lies in
    the meet of its ZERO hyperplanes, which is v alone since their normals
    span. So it is a leaf whose mask is v's bit alone, and v has no index.
    """
    _require_smooth(arr)
    _check_guard(arr, force, "covering sweep")
    walk = _extended_core_cached(arr)
    compact = [c.eps for c in walk.core if c.classification == BOUNDED]
    if not compact:
        raise ValueError("covering theorem hypothesis violated: empty core")
    no_chamber, first = len(compact), walk.first
    witness, counterexamples = {}, []
    for pattern, kept in _pattern_masks(arr):
        index = no_chamber
        while kept:
            low = kept & -kept
            j = first[low.bit_length() - 1]
            if j < index:
                index = j
            kept ^= low
        if index < no_chamber:
            witness[pattern] = compact[index]
        else:
            counterexamples.append(pattern)
    return CoverReport(
        covered=not counterexamples,
        witness=witness,
        counterexamples=tuple(counterexamples),
    )


def _covering_counts(arr: Arrangement, force: bool = False) -> tuple:
    """``(len(witness), counterexamples)`` of ``verify_covering``, behind
    the same guards and empty-core error, with no witness dict. A leaf has
    a witness iff one of its vertices lies on a compact chamber, that is,
    iff its mask meets the OR of the bounded chambers' masks (``_CoreWalk``)."""
    _require_smooth(arr)
    _check_guard(arr, force, "covering sweep")
    masks = _extended_core_cached(arr).masks
    if not masks:
        raise ValueError("covering theorem hypothesis violated: empty core")
    compact = reduce(or_, masks)
    witnessed, counterexamples = 0, []
    for pattern, kept in _pattern_masks(arr):
        if kept & compact:
            witnessed += 1
        else:
            counterexamples.append(pattern)
    return witnessed, tuple(counterexamples)


def verify_density(arr: Arrangement, eps) -> bool:
    """Chart density dichotomy for one sign vector.

    The chart's dense pattern is semistable exactly when the chamber is
    nonempty; this function checks the equivalence on the given sign vector.
    The two sides are decided independently, in different spaces: the dense
    pattern by the vertices of its numeric system in d variables, read from
    the torus data alone (``_numeric_chambers``, one set per torus), the
    chamber by its vertex mask over the arrangement's vertices in n
    variables (``_cone_contains``). Neither solves an LP. The set lives on
    the torus data, kept with the face record on the arrangement, so calls
    interleaved over arrangements build each once. The CLI's density
    section reads the same two sides as two sets, once each.
    """
    _require_smooth(arr)
    eps = check_sign_vector(eps, arr.d)
    chart_side = eps in torus_data(arr)._numeric_chambers
    chamber_side = _cone_contains(arr, full_pattern(eps))
    return chart_side == chamber_side


_LETTER_ORDER = {status: k for k, status in enumerate(FULL_ALPHABET)}


def chart_complement(arr: Arrangement, eps, force: bool = False) -> ComplementReport:
    """Pattern-level description of what one dense chart misses.

    A realizable BOTH set is a union of direction classes (see
    ``pattern_realizable``), so the candidates are the 2^D class subsets,
    the empty one standing for the BOTH-free patterns. They depend on the
    classes alone, so the arrangement's ``_ClassMatroid`` lists the
    realizable ones once (``realizable``), each tested by one echelon form
    of the classes outside it, and every arrangement with the same classes
    reads that list instead of scanning. For each realizable one the sweep
    walks the nonempty state sets with BOTH on it and Z, W or 0 elsewhere
    (``_pattern_masks``), and lists those outside the chart, in the order
    of the full four-letter alphabet. A leaf is outside the chart iff its
    vertex mask misses the chamber's (``_chamber_mask``), computed once, so
    the only verdict read is the chamber check, and nothing solves an LP.
    The walks reach only the leaves with a vertex outside the chamber
    (``within``): masks only shrink along a walk, so every leaf below a
    prefix whose mask lies inside the chamber's meets it.
    Reports whether every excluded pattern is BOTH-free (hence in the
    extended core) and how large the excluded state sets get.
    """
    _require_smooth(arr)
    eps = check_sign_vector(eps, arr.d)
    _check_guard(arr, force, "complement sweep", DEFAULT_MAX_COMPLEMENT_D)
    chamber = _chamber_mask(arr, eps)
    if not chamber:
        raise ValueError("complement is defined for sign vectors with nonempty chamber")
    # the walks prune the prefixes whose vertices all lie in the chamber;
    # complemented within the vertices, since ANDs with a negative mask
    # are slower on large arrangements
    faces = arr._faces
    outside = faces.masks[1] & ~chamber
    free, both = faces.rows[NO_BOTH_ALPHABET], faces.rows[(Status.BOTH,)]
    classes = arr._classes
    excluded = []
    for chosen in arr._matroid.realizable:
        rows = list(free)
        for k in chosen:
            for i, _ in classes[k][1]:
                rows[i] = both[i]
        walk = _pattern_masks(arr, rows, outside)
        excluded.extend(p for p, kept in walk if not kept & chamber)
    excluded.sort(key=lambda p: [_LETTER_ORDER[status] for status in p])
    return _complement_report(arr, eps, excluded)


def _complement_report(arr: Arrangement, eps, excluded) -> ComplementReport:
    """Summarise the excluded patterns of a chart sweep.

    ``max_state_dim`` is n minus the fewest ZERO letters of a BOTH-free
    excluded pattern (-1 if none). An excluded state set S is nonempty; in a
    smooth arrangement (``chart_complement`` requires one) the hyperplanes
    through a point of S have independent normals, so the flat F of its ZERO
    hyperplanes has dimension n - #ZERO, and, as in ``core`` inside F, some
    direction in F moves that point strictly off every other hyperplane
    through it: S contains an open piece of F."""
    both_free = [p for p in excluded if Status.BOTH not in p]
    all_in_core = len(both_free) == len(excluded)
    if not all_in_core:
        max_dim = None
    else:
        zeros = [p.count(Status.ZERO) for p in both_free]
        max_dim = arr.n - min(zeros) if zeros else -1
    breakdown = {}
    for pattern in both_free:
        # the chambers that meet its state set: those whose signs its
        # letters' signs conform to
        for comp_eps in itertools.product(*(_CONFORMING[_SIGN[status]] for status in pattern)):
            breakdown.setdefault(comp_eps, []).append(pattern)
    breakdown = {k: tuple(v) for k, v in sorted(breakdown.items(), reverse=True)}
    return ComplementReport(
        chart_eps=eps,
        excluded_patterns=tuple(excluded),
        all_in_extended_core=all_in_core,
        max_state_dim=max_dim,
        component_breakdown=breakdown,
    )
