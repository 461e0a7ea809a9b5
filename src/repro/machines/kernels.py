"""Batch replay kernels for the exact LRU cache models.

The reference simulators in :mod:`repro.machines.cache` walk the access
stream one key at a time through an ``OrderedDict`` — exact, but
interpreter-bound at a few million accesses per second, which puts the
paper-size replays (65536 bodies, 16 processors, tens of epochs) out of
reach.  This module computes the *same counts* in compiled code
(:mod:`repro.machines.native`): each set is an MRU-first array of ways,
an access scans it and shifts the keys above its slot down one place.
The cost is O(assoc) per access whatever the stream's shape.

Cache state across calls is carried as the *resident array*: the cached
keys grouped by ascending set, LRU-first within each set.  Equality with
the ``"loop"`` reference (including interleaved invalidations) is
asserted access-for-access in ``tests/machines/test_kernels.py``.

:class:`SetAssocSweep` answers every associativity of one set count from
a single replay (Mattson's stack algorithm).  It too runs compiled, and
falls back to a per-key Python stack when no C compiler is available;
:func:`setassoc_kernel` and :func:`lru_kernel` raise
:class:`repro.errors.ConfigError` instead, and the cache classes then
use their ``"loop"`` engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import native

__all__ = [
    "StreamResult",
    "lru_kernel",
    "setassoc_kernel",
    "miss_curve",
    "SetAssocSweep",
]


@dataclass(frozen=True)
class StreamResult:
    """Outcome of one batched replay.

    Attributes
    ----------
    misses:
        Misses charged to the stream (the resident content is not
        charged).
    evictions:
        Entries pushed out by capacity during the replay.
    resident:
        Cache content after the replay: keys grouped by ascending set
        index, LRU-first within each set — the format accepted back as
        the ``resident`` argument of the next call.
    """

    misses: int
    evictions: int
    resident: np.ndarray


def setassoc_kernel(
    keys: np.ndarray,
    nsets: int,
    assoc: int,
    resident: np.ndarray | None = None,
) -> StreamResult:
    """Replay ``keys`` through a set-associative LRU in compiled code.

    ``resident`` is the prior cache content in :class:`StreamResult`
    format (grouped by set, LRU-first); ``None`` means a cold cache.
    Keys map to set ``key & (nsets - 1)`` exactly as
    :class:`repro.machines.cache.SetAssocCache` does.
    """
    if resident is None:
        resident = np.empty(0, dtype=np.int64)
    if len(keys) == 0:
        return StreamResult(0, 0, np.asarray(resident, dtype=np.int64))
    return StreamResult(*native.lru_replay(keys, nsets, assoc, resident))


def lru_kernel(
    keys: np.ndarray, capacity: int, resident: np.ndarray | None = None
) -> StreamResult:
    """Fully-associative LRU replay: one set of ``capacity`` ways."""
    return setassoc_kernel(keys, 1, capacity, resident)


def miss_curve(
    keys: np.ndarray, capacities: np.ndarray, nsets: int = 1
) -> np.ndarray:
    """Exact LRU miss counts for every capacity from one cold replay.

    ``capacities`` are ways per set (associativities) when ``nsets > 1``
    and plain capacities in the fully-associative ``nsets == 1`` case.
    Equivalent to replaying ``SetAssocCache(nsets, c).access_stream(keys)``
    once per capacity, but costs a single :class:`SetAssocSweep` pass.
    """
    caps = np.asarray(capacities, dtype=np.int64)
    # No stack distance reaches the stream length, so deeper stacks add
    # nothing: beyond it only the cold misses remain.
    cmax = max(1, min(int(caps.max(initial=1)), len(keys)))
    hist = SetAssocSweep(nsets, cmax).access_stream(keys)
    return SetAssocSweep.curve(hist, np.minimum(caps, cmax))


def _mattson_loop(keys, nsets, cmax, skeys, smd):
    """Per-key Python twin of :func:`native.mattson_replay`."""
    hist = [0] * (cmax + 1)
    mask = nsets - 1
    stacks: dict[int, tuple[list[int], list[int]]] = {}
    for k, d in zip(skeys.tolist(), smd.tolist()):
        ks, ms = stacks.setdefault(k & mask, ([], []))
        ks.append(k)
        ms.append(d)
    prev = None
    for k in keys.tolist():
        if k == prev:
            continue
        prev = k
        ks, ms = stacks.setdefault(k & mask, ([], []))
        try:
            j = ks.index(k)
        except ValueError:
            hist[cmax] += 1
            j = len(ks)
        else:
            hist[ms[j]] += 1
            del ks[j], ms[j]
        for t in range(j):  # keys above the slot slide down one place
            ms[t] = max(ms[t], t + 1)
        ks.insert(0, k)
        ms.insert(0, 0)
        if len(ks) > cmax:
            ks.pop()
            ms.pop()
    order = sorted(stacks)
    out_k = [k for s in order for k in stacks[s][0]]
    out_m = [d for s in order for d in stacks[s][1]]
    return (
        np.array(hist, dtype=np.int64),
        np.array(out_k, dtype=np.int64),
        np.array(out_m, dtype=np.int64),
    )


class SetAssocSweep:
    """Multi-capacity set-associative LRU replay: one pass, all capacities.

    Holds the set count fixed and answers every associativity ``1 ..
    max_assoc`` simultaneously, including across epoch boundaries and
    interleaved invalidations — the configuration family swept by
    :func:`repro.machines.hardware.simulate_hardware_sweep`.

    Each set is an LRU stack of its tracked keys, MRU first.  Every
    tracked key carries ``mdepth``, the deepest stack position it has
    reached *since its last access*.  Because LRU eviction is monotone
    in capacity and permanent (a key that ever reached depth ``d`` has
    been evicted from every cache with fewer than ``d+1`` ways, and
    cannot re-enter until its next access), a key is resident at
    associativity ``a`` iff it is tracked and ``mdepth < a``.  An
    access's *generalized* stack distance ``g`` is therefore the key's
    ``mdepth`` (which is never less than its current stack position), or
    ``max_assoc`` for an untracked key, and the access misses at
    associativity ``a`` iff ``g >= a`` — exact at every capacity at
    once.  (A plain stack distance over the surviving keys is *not* enough:
    deleting an invalidated key above a previously-evicted one would let
    the latter slide back under the capacity line; ``mdepth`` pins the
    historical maximum.)  Keys whose ``mdepth`` reaches ``max_assoc`` are
    dropped, so a set's stack never exceeds ``max_assoc`` entries.

    :meth:`access_stream` returns the histogram of ``g`` clamped at
    ``max_assoc``; miss counts are its suffix sums (:meth:`curve`).
    :meth:`invalidate_present` drops keys and returns their ``mdepth``
    thresholds: the key was resident — hence actually invalidated — at
    associativity ``a`` iff its threshold is ``< a``.  Equality with
    per-capacity ``engine="loop"`` :class:`repro.machines.cache.SetAssocCache`
    replays is asserted in ``tests/machines/test_sweep_kernels.py``.
    """

    def __init__(self, nsets: int, max_assoc: int) -> None:
        if nsets < 1 or nsets & (nsets - 1):
            raise ValueError(f"nsets must be a positive power of two, got {nsets}")
        if max_assoc < 1:
            raise ValueError(f"max_assoc must be >= 1, got {max_assoc}")
        self.nsets = nsets
        self.max_assoc = max_assoc
        # Tracked keys grouped by ascending set, MRU-first within each
        # set; mdepth strictly increases down a set's stack.
        self._keys = np.empty(0, dtype=np.int64)
        self._mdepth = np.empty(0, dtype=np.int64)

    @staticmethod
    def curve(hist: np.ndarray, capacities: np.ndarray) -> np.ndarray:
        """Miss counts per associativity from an accumulated g-histogram."""
        caps = np.asarray(capacities, dtype=np.int64)
        tail = np.concatenate([np.cumsum(hist[::-1])[::-1], [0]])
        return tail[np.minimum(caps, hist.shape[0])]

    def access_stream(self, keys: np.ndarray) -> np.ndarray:
        """Replay one epoch's accesses; return the clamped-g histogram.

        ``hist[v]`` counts (run-collapsed) accesses with
        ``min(g, max_assoc) == v``; the miss count at associativity
        ``a <= max_assoc`` is ``hist[a:].sum()``, matching
        ``SetAssocCache(nsets, a).access_stream(keys)``.
        """
        if len(keys) == 0:
            return np.zeros(self.max_assoc + 1, dtype=np.int64)
        replay = native.mattson_replay if native.available() else _mattson_loop
        hist, self._keys, self._mdepth = replay(
            np.asarray(keys, dtype=np.int64), self.nsets, self.max_assoc,
            self._keys, self._mdepth,
        )
        return hist

    def invalidate_present(
        self, keys: np.ndarray, assume_unique: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        """Drop tracked keys in ``keys``; return ``(removed, thresholds)``.

        A dropped key was resident — and therefore counted as an
        invalidation by the per-capacity simulator — at associativity
        ``a`` iff its returned threshold is ``< a``; at smaller
        capacities it had already been evicted, so the invalidation was
        a no-op there.  Keys absent from the state are not returned.
        """
        w = np.asarray(keys, dtype=np.int64)
        if not assume_unique:
            w = np.unique(w)
        empty = np.empty(0, dtype=np.int64)
        if self._keys.shape[0] == 0 or w.shape[0] == 0:
            return empty, empty
        hit = np.isin(self._keys, w, assume_unique=True)
        removed = self._keys[hit]
        thr = self._mdepth[hit]
        if thr.shape[0]:
            keep = ~hit
            self._keys = self._keys[keep]
            self._mdepth = self._mdepth[keep]
        return removed, thr
