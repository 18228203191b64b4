from corecover import Arrangement, torus_data
from corecover.memo import scoped_cache


def counting(fn):
    calls = []

    def counted(scope, *args):
        calls.append((scope, args))
        return fn(scope, *args)

    counted.calls = calls
    return counted


def test_reuse_within_scope():
    inner = counting(lambda scope, k: (scope, k))
    cached = scoped_cache(inner)
    assert cached("a", 1) == ("a", 1)
    assert cached("a", 1) == ("a", 1)
    assert cached("a", 2) == ("a", 2)
    assert len(inner.calls) == 2
    info = cached.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 2, 2)


def test_new_scope_drops_old_entries():
    inner = counting(lambda scope, k: (scope, k))
    cached = scoped_cache(inner)
    for scope in range(100):
        for k in range(3):
            cached(scope, k)
    assert cached.cache_info().currsize == 3
    assert cached(0, 0) == (0, 0)
    assert len(inner.calls) == 301
    info = cached.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 301, 1)


def test_equal_scopes_share_entries():
    """Scopes compare by equality, so a reparsed arrangement keeps the cache."""
    first = Arrangement(1, ((1,), (-1,)), (0, 1))
    again = Arrangement(1, ((1,), (-1,)), (0, 1))
    before = torus_data.cache_info()
    assert torus_data(first) is torus_data(again)
    after = torus_data.cache_info()
    assert after.hits - before.hits >= 1
