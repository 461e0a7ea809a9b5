"""Exact LRU cache models (fully-associative and set-associative).

These replay reference streams (cache-line or page ids) and count misses.
They are exact simulators, not analytic estimates: a fully-associative LRU
of capacity ``C`` misses exactly when more than ``C`` distinct keys
intervened since the last reference, and the set-associative variant
partitions keys by index bits first — the behaviour the paper's L2/TLB miss
counts depend on.

Two replay engines produce identical counts and identical end state
(asserted by property tests in ``tests/machines/test_kernels.py``):

* ``"loop"`` — the oracle: an ``OrderedDict`` per set, ``move_to_end``
  for O(1) LRU maintenance, one Python iteration per access.  It shares
  no code with the compiled kernel.
* ``"kernel"`` — the compiled per-set LRU of :mod:`repro.machines.native`
  (through :func:`repro.machines.kernels.setassoc_kernel`); state is
  carried as a numpy resident array between calls.

``access_stream(..., engine="auto")`` (the default, via
:data:`DEFAULT_ENGINE`) uses the kernel for every stream, whatever its
length, whenever the compiled library is available, and the loop
otherwise — the counts are the same either way.  An explicit
``engine="kernel"`` with no working C compiler raises
:class:`repro.errors.ConfigError`.  Point operations (``access``,
``__contains__``, the reference ``invalidate``) materialize the dict form
on demand; the two forms are interconverted lazily and exactly, and a
fresh or flushed cache starts in the array form.

The loop engine collapses consecutive duplicate references with numpy
first — a re-reference to the line just touched can never miss, and
object-granularity traces produce long such runs; the kernel finds such a
key in its set's first way.  ``accesses`` counts the *pre-collapse*
stream length, matching what per-access ``access`` calls would have
counted.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from . import native
from .kernels import setassoc_kernel

__all__ = [
    "collapse_runs",
    "LRUCache",
    "SetAssocCache",
    "DEFAULT_ENGINE",
]

#: Engine used when ``access_stream`` is called with ``engine=None``:
#: ``"auto"``, ``"loop"``, or ``"kernel"``.  Module-level so benchmarks and
#: experiments can force one path globally.
DEFAULT_ENGINE = "auto"


def collapse_runs(keys: np.ndarray) -> np.ndarray:
    """Drop consecutive duplicate entries (miss-count preserving)."""
    keys = np.asarray(keys)
    if keys.shape[0] <= 1:
        return keys
    keep = np.empty(keys.shape[0], dtype=bool)
    keep[0] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    if keep.all():  # nothing to drop: skip the gather copy
        return keys
    return keys[keep]


def _use_kernel(engine: str | None) -> bool:
    eng = DEFAULT_ENGINE if engine is None else engine
    if eng == "auto":
        return native.available()
    if eng == "kernel":
        native.require()
        return True
    if eng != "loop":
        raise ValueError(f"unknown engine {eng!r}; expected auto, loop or kernel")
    return False


class SetAssocCache:
    """Set-associative LRU cache.

    ``nsets`` power-of-two sets of ``assoc`` ways; a key maps to set
    ``key & (nsets - 1)``.  With ``nsets == 1`` this degenerates to
    :class:`LRUCache` (and tests assert so).
    """

    __slots__ = ("nsets", "assoc", "_sets", "_arr", "misses", "accesses", "evictions")

    def __init__(self, nsets: int, assoc: int):
        if nsets <= 0 or nsets & (nsets - 1):
            raise ValueError("nsets must be a positive power of two")
        if assoc <= 0:
            raise ValueError("assoc must be positive")
        self.nsets = nsets
        self.assoc = assoc
        # Exactly one of the two state forms is live.  Array form: keys
        # grouped by ascending set id, LRU-first within each set (the
        # kernels' StreamResult.resident format).  A cache starts (and
        # flushes) empty in array form, so kernel-only users never build
        # the per-set OrderedDicts.
        self._sets: list[OrderedDict[int, None]] | None = None
        self._arr: np.ndarray | None = np.empty(0, dtype=np.int64)
        self.misses = 0
        self.accesses = 0
        self.evictions = 0

    @property
    def capacity(self) -> int:
        return self.nsets * self.assoc

    # -- state form conversion (lazy, exact) ------------------------------

    def _dicts(self) -> list[OrderedDict[int, None]]:
        if self._sets is None:
            sets: list[OrderedDict[int, None]] = [
                OrderedDict() for _ in range(self.nsets)
            ]
            mask = self.nsets - 1
            for key in self._arr.tolist():
                sets[key & mask][key] = None
            self._sets = sets
            self._arr = None
        return self._sets

    def _array(self) -> np.ndarray:
        if self._arr is None:
            total = sum(len(s) for s in self._sets)
            self._arr = np.fromiter(
                (k for s in self._sets for k in s), dtype=np.int64, count=total
            )
            self._sets = None
        return self._arr

    def __contains__(self, key: int) -> bool:
        if self._arr is not None:
            return bool(np.any(self._arr == key))
        return key in self._sets[key & (self.nsets - 1)]

    def __len__(self) -> int:
        if self._arr is not None:
            return int(self._arr.shape[0])
        return sum(len(s) for s in self._sets)

    def access(self, key: int) -> bool:
        self.accesses += 1
        s = self._dicts()[key & (self.nsets - 1)]
        if key in s:
            s.move_to_end(key)
            return True
        self.misses += 1
        s[key] = None
        if len(s) > self.assoc:
            s.popitem(last=False)
            self.evictions += 1
        return False

    def access_stream(
        self, keys: np.ndarray, *, collapse: bool = True, engine: str | None = None
    ) -> int:
        """Replay a reference stream; returns the number of misses added.

        ``engine`` selects the replay path (``"loop"``, ``"kernel"``, or
        ``"auto"``); ``None`` defers to :data:`DEFAULT_ENGINE`.  Both
        engines produce identical counts and identical end state.
        """
        return self._replay(keys, collapse, engine)

    def _replay(self, keys: np.ndarray, collapse: bool, engine: str | None) -> int:
        keys = np.asarray(keys, dtype=np.int64)
        self.accesses += int(keys.shape[0])
        if keys.shape[0] == 0:
            return 0
        if _use_kernel(engine):
            res = setassoc_kernel(keys, self.nsets, self.assoc, self._array())
            self._arr = res.resident
            self.misses += res.misses
            self.evictions += res.evictions
            return res.misses
        if collapse:
            keys = collapse_runs(keys)
        sets = self._dicts()
        mask = self.nsets - 1
        assoc = self.assoc
        misses = 0
        evict = 0
        for key in keys.tolist():
            s = sets[key & mask]
            if key in s:
                s.move_to_end(key)
            else:
                misses += 1
                s[key] = None
                if len(s) > assoc:
                    s.popitem(last=False)
                    evict += 1
        self.misses += misses
        self.evictions += evict
        return misses

    def invalidate(self, keys: np.ndarray) -> int:
        """Remove keys (directory invalidation); returns how many were present."""
        sets = self._dicts()
        mask = self.nsets - 1
        present = 0
        for key in np.asarray(keys, dtype=np.int64).tolist():
            s = sets[key & mask]
            if key in s:
                del s[key]
                present += 1
        return present

    def invalidate_present(
        self, keys: np.ndarray, *, assume_unique: bool = False
    ) -> np.ndarray:
        """Vectorized invalidation: remove ``keys``, return those removed.

        Set grouping and per-set LRU order are preserved by construction
        (removal never reorders survivors).  Pass ``assume_unique=True``
        when ``keys`` has no duplicates to skip the dedup pass.
        """
        arr = self._array()
        targets = np.asarray(keys, dtype=np.int64)
        if not assume_unique:
            targets = np.unique(targets)
        hit = np.isin(arr, targets, assume_unique=True)
        if not hit.any():
            return np.empty(0, dtype=np.int64)
        self._arr = arr[~hit]
        return arr[hit]

    def flush(self) -> None:
        self._sets = None
        self._arr = np.empty(0, dtype=np.int64)

    def resident(self) -> np.ndarray:
        """Currently cached keys, grouped by set, LRU first within each set."""
        if self._arr is not None:
            return self._arr.copy()
        total = sum(len(s) for s in self._sets)
        return np.fromiter(
            (k for s in self._sets for k in s), dtype=np.int64, count=total
        )


class LRUCache(SetAssocCache):
    """Fully-associative LRU cache of ``capacity`` entries: a single set.

    Suitable for TLBs (which are fully associative on the R12000) and as a
    capacity-only approximation of large caches.
    """

    __slots__ = ()

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        super().__init__(1, capacity)

    def access_stream(
        self, keys: np.ndarray, *, collapse: bool = True, engine: str | None = None
    ) -> int:
        """Replay a reference stream; see :meth:`SetAssocCache.access_stream`.

        Its own method, not an inherited one, so that per-class
        instrumentation tells TLB replays from L2 replays.
        """
        return self._replay(keys, collapse, engine)
