"""The values qexpmap keeps for the whole process.

``memo`` makes a function build each result once per process for its
arguments and share it; callers must not mutate it.  ``clear()`` forgets
every memo's results at once.  A memo is an unbounded
``functools.lru_cache``, so its ``cache_info()`` counts hits and misses.
The presentations are singletons, not memos, and ``clear()`` keeps them:
polynomials of two presentation objects do not mix.
"""

import functools

_MEMOS = []


def memo(fn):
    cached = functools.lru_cache(maxsize=None)(fn)
    _MEMOS.append(cached)
    return cached


def clear() -> None:
    for cached in _MEMOS:
        cached.cache_clear()
