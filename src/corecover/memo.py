"""Result caches scoped to one arrangement.

The sweeps ask the same question of one arrangement, or of its torus data,
many times over, and a command works on one arrangement at a time. A scoped
cache keeps results for the most recent first argument only: a call with a
different first argument starts a fresh scope and drops the old results.
Memory therefore stays bounded by one arrangement's entries however many
arrangements a process handles, while reuse within a command stays.

Hit and miss counts accumulate across scopes and are read through
``cache_info()``, as for :func:`functools.lru_cache`.
"""

from __future__ import annotations

from collections import namedtuple
from functools import update_wrapper

CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")

_MISSING = object()


def scoped_cache(fn):
    """Cache ``fn(scope, *args)`` for the most recent ``scope`` only.

    Arguments are compared by equality, as by ``lru_cache``. The scope and
    its entries are swapped in together, so a call never stores a result in
    another scope's entries.
    """
    current = (_MISSING, {})
    hits = misses = 0

    def cached(scope, *args):
        nonlocal current, hits, misses
        owner, entries = current
        if scope is not owner and scope != owner:
            entries = {}
            current = (scope, entries)
        result = entries.get(args, _MISSING)
        if result is _MISSING:
            misses += 1
            result = entries[args] = fn(scope, *args)
        else:
            hits += 1
        return result

    def cache_info():
        return CacheInfo(hits, misses, None, len(current[1]))

    cached.cache_info = cache_info
    return update_wrapper(cached, fn)
