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
is one AND: the covering indexes the vertices by their first compact
chamber, and the complement keeps the leaves that miss one chamber's mask,
walking only the prefixes with a vertex outside it. The complement walks
once per realizable BOTH set, with BOTH letters on it, which need no case
of their own. A chamber's boundedness is read off the sign vectors of
candidate extreme rays, one per (n - 1)-subset of direction classes, as one
AND of ray masks per letter, with no LP; a chamber's vertices are those of
its mask, the arrangement's vertices whose sign vectors conform to it.
Density compares each chamber's verdict with the numeric side, the dense
patterns whose numeric system has a vertex conforming to them: the
C(d, n) square systems of the torus data are solved once, in d
variables, from one elimination and an exchange block each, and no sweep
solves an LP. Nothing here builds a polyhedron either: a core component is
its sign vector and classification, and the chamber as a system of
inequalities is ``stability.chamber(arr, eps)``.

Everything is exhaustive and exact, guarded against exponential blowup by a
hyperplane-count limit that can be forced off.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce
from operator import and_

from .arrangement import (
    Arrangement,
    _direction_classes,
    _matroid,
    _orientations,
    _vertices,
    check_sign_vector,
    is_smooth,
    torus_data,
    trivial_factors,
)
from .errors import GuardError
from .memo import scoped_cache
from .stability import (
    NO_BOTH_ALPHABET,
    FULL_ALPHABET,
    Status,
    _cone_contains,
    _letter_masks,
    _numeric_chambers,
    _pattern_mask,
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


@scoped_cache
def _ray_signs(arr: Arrangement) -> tuple:
    """Sign vectors ``sign(<u_i, r>)`` of the candidate extreme rays ``r`` of
    every chamber's recession cone; a nonempty chamber of ``eps`` is
    unbounded iff one of them conforms to ``eps``: each ``sigma_i`` is 0 or
    ``eps_i``.

    The recession cone of that chamber is ``K = {x : eps_i <u_i, x> >= 0}``.
    Its lineality space ``{x : <u_i, x> = 0 for all i}`` is 0 because the
    normals span Q^n, so K is pointed, and a pointed polyhedral cone is the
    conical hull of its extreme rays: K is nontrivial iff it has one. The
    normals of the inequalities tight on an extreme ray ``r`` have rank
    n - 1, so n - 1 independent ones among them, which lie in n - 1 distinct
    direction classes, cut out the line through ``r``; so do those classes'
    representatives, whose integer cofactor vector ``c`` (``<x, c>`` is the
    determinant with ``x`` as first row, 0 iff they are dependent) spans
    that line, and ``r`` is a positive multiple of ``c`` or ``-c``.
    Conversely ``+-c`` lies in K exactly when its sign vector conforms to
    ``eps``, and is then a nonzero vector of K. Hence the C(D, n - 1)
    cofactors of the representatives (``c = (1,)`` for n = 1) and their
    negations decide every chamber with no LP; the argument uses only that
    the normals span, so it is exact on input that is not smooth. The
    cofactors depend on the representatives alone, so the arrangement's
    ``_ClassMatroid`` keeps the signs of ``<r_k, c>`` per class
    (``ray_signs``), and hyperplane i, with ``u_i = s * r_k``, reads
    ``s`` times its class's sign: no minor is taken per arrangement.
    """
    planes = _orientations(arr)
    signs = {}
    for by_class in _matroid(arr).ray_signs:
        sigma = tuple([s * by_class[k] for k, s in planes])
        signs[sigma] = signs[tuple([-s for s in sigma])] = None
    return tuple(signs)


# The orientation of each chamber letter.
_SIGN_OF = {Status.Z: 1, Status.W: -1}


@scoped_cache
def _extended_core_cached(arr: Arrangement) -> tuple:
    """The nonempty chambers, the leaves of the walk over Z and W, each
    classified by ray masks over ``_ray_signs``: bit j of Z's mask at
    coordinate k is set iff ``sigma_j[k] >= 0``, and of W's iff
    ``sigma_j[k] <= 0``, so the AND of a chamber's letters' masks holds the
    rays whose signs conform to its ``eps``, and the chamber is unbounded
    iff that AND is nonzero. The masks are built once per arrangement, and
    a chamber costs d ANDs instead of a sign test per ray and coordinate."""
    rays = _ray_signs(arr)
    conform = [{Status.Z: 0, Status.W: 0} for _ in range(arr.d)]
    for j, sigma in enumerate(rays):
        bit = 1 << j
        for masks, s in zip(conform, sigma):
            if s >= 0:
                masks[Status.Z] |= bit
            if s <= 0:
                masks[Status.W] |= bit
    every_ray = (1 << len(rays)) - 1
    components = []
    for pattern, _ in _pattern_masks(arr, ((Status.Z, Status.W),) * arr.d):
        eps = tuple(map(_SIGN_OF.__getitem__, pattern))
        # a leaf of the tree is nonempty: bounded iff no ray sign conforms
        unbounded = reduce(and_, map(dict.__getitem__, conform, pattern), every_ray)
        components.append(CoreComponent(eps, UNBOUNDED if unbounded else BOUNDED))
    return tuple(components)


def extended_core(arr: Arrangement, force: bool = False) -> tuple:
    """The nonempty chambers in sign-vector order, each classified exactly;
    the empty ones are never reached, so the cost follows the nonempty ones."""
    _require_smooth(arr)
    _check_guard(arr, force, "extended core")
    return _extended_core_cached(arr)


def core(arr: Arrangement, force: bool = False) -> tuple:
    """The compact part: the bounded nonempty chambers.

    They are n-dimensional with no further test. In a smooth arrangement the
    hyperplanes through any point of a closed chamber have independent
    normals, so some direction moves the point strictly inside all of them
    at once: every nonempty chamber has interior points.
    """
    return tuple(c for c in extended_core(arr, force=force) if c.classification == BOUNDED)


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


def _chamber_vertices(arr: Arrangement, eps) -> list:
    """The vertices of a chamber, sorted: the arrangement's vertices (see
    ``_vertices``) in its mask (``_chamber_mask``). Such a vertex lies in
    the closed chamber on hyperplanes with spanning normals, so it is a
    basic feasible point of the chamber, and every basic feasible point is
    such a vertex. Exact on any arrangement; in one that is not simple, more
    than n hyperplanes may pass through a vertex, which is listed once.
    """
    mask = _chamber_mask(arr, eps)
    return [p for j, (p, _) in enumerate(_vertices(arr)) if mask >> j & 1]


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
    counterexample. The indices are assigned once, each vertex at the
    first chamber whose mask holds it, and a leaf costs one step per vertex
    of its mask, not one AND per chamber.

    Gluing: covering holds iff every vertex lies on a bounded chamber. If
    each does, every leaf keeps a vertex with an index. If a vertex v lies
    on none, take the pattern that is ZERO on the hyperplanes through v and
    Z or W, by v's sign, elsewhere: it holds at v, and its state set lies in
    the meet of its ZERO hyperplanes, which is v alone since their normals
    span. So it is a leaf whose mask is v's bit alone, and v has no index.
    """
    _require_smooth(arr)
    _check_guard(arr, force, "covering sweep")
    compact = [c.eps for c in _extended_core_cached(arr) if c.classification == BOUNDED]
    if not compact:
        raise ValueError("covering theorem hypothesis violated: empty core")
    # first[j] is the index in ``compact`` of the first chamber on vertex j,
    # or len(compact) if it lies on none; bits are visited lowest first
    no_chamber = len(compact)
    unassigned = _letter_masks(arr)[1]
    first = [no_chamber] * unassigned.bit_length()
    for index, eps in enumerate(compact):
        group = _chamber_mask(arr, eps) & unassigned
        unassigned ^= group
        while group:
            low = group & -group
            first[low.bit_length() - 1] = index
            group ^= low
    witness = {}
    counterexamples = []
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


def verify_density(arr: Arrangement, eps) -> bool:
    """Chart density dichotomy for one sign vector.

    The chart's dense pattern is semistable exactly when the chamber is
    nonempty; this function checks the equivalence on the given sign vector.
    The two sides are decided independently, in different spaces: the dense
    pattern by the vertices of its numeric system in d variables, read from
    the torus data alone (``_numeric_chambers``, one set per torus), the
    chamber by its vertex mask over the arrangement's vertices in n
    variables (``_cone_contains``). Neither solves an LP. The CLI's density
    section reads the same two sides as two sets, once each.
    """
    _require_smooth(arr)
    eps = check_sign_vector(eps, arr.d)
    chart_side = eps in _numeric_chambers(torus_data(arr))
    chamber_side = _cone_contains(arr, full_pattern(eps))
    return chart_side == chamber_side


# Sign vectors whose chamber meets a letter's state set: Z's side, W's
# side, either for ZERO.
_COMPONENT_SIGNS = {Status.Z: (1,), Status.W: (-1,), Status.ZERO: (1, -1)}


def _compatible_components(pattern):
    """Extended-core sign vectors whose stratum contains a BOTH-free pattern."""
    return itertools.product(*(_COMPONENT_SIGNS[status] for status in pattern))


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
    outside = _letter_masks(arr)[1] & ~chamber
    classes = _direction_classes(arr)
    excluded = []
    for chosen in _matroid(arr).realizable:
        both = {i for k in chosen for i, _ in classes[k][1]}
        alphabets = [(Status.BOTH,) if i in both else NO_BOTH_ALPHABET for i in range(arr.d)]
        walk = _pattern_masks(arr, alphabets, outside)
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
        for comp_eps in _compatible_components(pattern):
            breakdown.setdefault(comp_eps, []).append(pattern)
    breakdown = {k: tuple(v) for k, v in sorted(breakdown.items(), reverse=True)}
    return ComplementReport(
        chart_eps=eps,
        excluded_patterns=tuple(excluded),
        all_in_extended_core=all_in_core,
        max_state_dim=max_dim,
        component_breakdown=breakdown,
    )
