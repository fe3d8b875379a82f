"""Per-key constants built once and kept up to a byte budget.

The solver's power-to-Bernstein matrices (``solver._degree``) and the
condition bracket's scan constants (``condition._constants``) depend only
on the degree, and are built once per degree and cached read-only in a
``BoundedCache``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from functools import update_wrapper


class BoundedCache:
    """``build(key)`` cached per key: each result has an ``nbytes``, and
    once the results kept hold more than ``budget`` bytes in all, the least
    recently used are dropped first.  The newest result is always kept,
    alone if it passes the budget by itself, so that a key too large for
    the budget is not built again on every call.

    Lookup, insertion and eviction run under one lock; a build runs
    outside it, so that a slow build holds up no other key, and two
    threads that miss on one key at once may both build it.  ``build``
    must give equal, read-only results for equal keys, so either result
    serves.  ``entries`` maps the keys kept to their results, least
    recently used first.  The call takes the name and docstring of
    ``build``, whose own function stays reachable as ``__wrapped__``.
    """

    def __init__(self, build, budget: int):
        update_wrapper(self, build)
        self.budget = budget
        self.entries = OrderedDict()
        self._lock = threading.Lock()

    def __call__(self, key):
        with self._lock:
            entry = self.entries.get(key)
            if entry is not None:
                self.entries.move_to_end(key)
                return entry
        entry = self.__wrapped__(key)
        with self._lock:
            self.entries[key] = entry
            while len(self.entries) > 1 and sum(e.nbytes for e in self.entries.values()) > self.budget:
                self.entries.popitem(last=False)
        return entry


def bounded_cache(budget: int):
    """Decorator: a ``BoundedCache`` of the decorated build function
    within ``budget`` bytes."""
    return lambda build: BoundedCache(build, budget)
