"""Shared-memory access trace representation.

The five applications are *real* computations, but what the machine
simulators need from them is the stream of shared-memory accesses each
simulated processor performs, segmented by synchronization.  This module
defines that representation:

* a :class:`RegionSpec` describes one shared object array (name, object
  count, object size in bytes — the paper's Table 1 column);
* a :class:`Burst` is a run of object-granularity accesses (read or write)
  by one processor to one region, in traversal order;
* a :class:`RaggedBatch` is a group of bursts staged in CSR form;
* a :class:`Trace` is the whole run: the region table plus the epoch list,
  each epoch (everything between two barriers) a columnar
  :class:`repro.trace.packed.PackedEpoch`.

Traces are *object-granularity*: they record which object was touched, not
which byte.  The mapping to bytes/lines/pages lives in
:mod:`repro.trace.layout` so one trace can be replayed against machines with
different consistency-unit sizes (the paper's central variable).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .packed import PackedEpoch

__all__ = ["RegionSpec", "Burst", "RaggedBatch", "Trace"]


@dataclass(frozen=True)
class RegionSpec:
    """One shared object array.

    Parameters
    ----------
    name:
        Region name, unique within a trace (``"particles"``, ``"cells"``...).
    num_objects:
        Number of objects in the array.
    object_size:
        Bytes per object — e.g. 104 for a Barnes-Hut body, 680 for a
        Water-Spatial molecule (Table 1 of the paper).
    """

    name: str
    num_objects: int
    object_size: int

    def __post_init__(self) -> None:
        if self.num_objects < 0:
            raise ValueError("num_objects must be non-negative")
        if self.object_size <= 0:
            raise ValueError("object_size must be positive")

    @property
    def nbytes(self) -> int:
        return self.num_objects * self.object_size


@dataclass(frozen=True)
class Burst:
    """A run of accesses by one processor to one region.

    ``indices`` preserves traversal order and multiplicity; both matter to
    the cache/TLB simulators.  ``is_write`` applies to the whole burst
    (applications emit separate bursts for reads and writes).
    """

    region: int
    indices: np.ndarray
    is_write: bool

    def __post_init__(self) -> None:
        idx = self.indices
        # The packed ``bursts`` view hands in already-contiguous int64
        # slices; converting again here would copy every burst.  Only
        # normalize when needed.
        if not (
            isinstance(idx, np.ndarray)
            and idx.dtype == np.int64
            and idx.flags["C_CONTIGUOUS"]
        ):
            idx = np.ascontiguousarray(idx, dtype=np.int64)
            object.__setattr__(self, "indices", idx)
        if idx.ndim != 1:
            raise ValueError("burst indices must be 1-D")

    def __len__(self) -> int:
        return int(self.indices.shape[0])


class RaggedBatch:
    """A staged group of bursts in CSR (ragged) form.

    ``lanes`` is a list of ``(region, is_write, indices, offsets)`` tuples,
    all with the same burst count ``k``: lane ``l``'s burst ``j`` is
    ``indices[offsets[j]:offsets[j + 1]]``.  The batch denotes the burst
    sequence a per-object emit loop would have produced — burst-major
    across lanes (burst ``j`` of every lane before burst ``j + 1`` of any),
    with zero-length bursts dropped, exactly like
    :meth:`repro.trace.builder.TraceBuilder.read` drops empty calls.

    One batch replaces up to ``k * len(lanes)`` staged tuples with a
    constant number of arrays; :meth:`expand` produces the equivalent
    packed burst columns vectorized.  The index arrays are
    staged without a copy, so callers must not mutate them before the
    epoch is sealed (the same aliasing contract as ``TraceBuilder.read``).
    """

    __slots__ = ("lanes", "nbursts", "total")

    def __init__(
        self,
        lanes: list[tuple[int, bool, np.ndarray, np.ndarray]],
        nbursts: int,
        total: int,
    ):
        self.lanes = lanes
        self.nbursts = nbursts
        self.total = total

    def expand(
        self, out: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized expansion to packed burst columns.

        Returns ``(burst_region, burst_write, burst_length, index)`` — the
        non-empty bursts in burst-major lane order and the interleaved flat
        index column (length ``total``).  With ``out`` (a length-``total``
        int64 buffer, typically a slice of the epoch's final index column)
        the flat column is written in place, so sealing needs no second
        concatenation pass over the expanded indices.
        """
        lanes = self.lanes
        k = self.nbursts
        if len(lanes) == 1:
            region, write, idx, offs = lanes[0]
            lens = np.diff(offs)
            nz = lens > 0
            if not nz.all():
                lens = lens[nz]
            breg = np.full(lens.shape[0], region, dtype=np.int64)
            bwri = np.full(lens.shape[0], write, dtype=np.bool_)
            # Empty bursts contribute nothing: the flat column is the lane's
            # index array as-is (no copy unless an output buffer is given).
            if out is None:
                return breg, bwri, lens, idx
            np.copyto(out, idx)
            return breg, bwri, lens, out

        m = len(lanes)
        lens = np.empty(m * k, dtype=np.int64)
        for l, (_, _, _, offs) in enumerate(lanes):
            np.subtract(offs[1:], offs[:-1], out=lens[l::m])
        out_off = np.empty(m * k + 1, dtype=np.int64)
        out_off[0] = 0
        np.cumsum(lens, out=out_off[1:])
        index = np.empty(self.total, dtype=np.int64) if out is None else out
        for l, (_, _, idx, offs) in enumerate(lanes):
            ln = idx.shape[0]
            if ln == 0:
                continue
            starts_out = out_off[l:-1:m]
            if ln == k:
                cl = lens[l::m]
                if cl[0] == 1 and (cl == 1).all():
                    # Unit-burst lane (one element per burst): pure scatter.
                    index[starts_out] = idx
                    continue
            # Element e of this lane lands at
            # starts_out[burst(e)] + (e - offs[burst(e)]).
            pos = np.repeat(starts_out - offs[:-1], lens[l::m])
            pos += np.arange(ln, dtype=np.int64)
            index[pos] = idx
        breg = np.tile(
            np.fromiter((r for r, _, _, _ in lanes), dtype=np.int64, count=m), k
        )
        bwri = np.tile(
            np.fromiter((w for _, w, _, _ in lanes), dtype=np.bool_, count=m), k
        )
        nz = lens > 0
        if not nz.all():
            breg, bwri, lens = breg[nz], bwri[nz], lens[nz]
        return breg, bwri, lens, index


@dataclass
class Trace:
    """A full run: region table + ordered epoch list.

    The epoch order is the global synchronization order (epochs are
    barrier-separated, so every processor's epoch ``e`` accesses
    happen-before every processor's epoch ``e+1`` accesses — the property
    the lazy-release-consistency models rely on).  Simulators and
    statistics share decodings of the epochs' columns through the
    per-trace memo in :mod:`repro.trace.layout`.
    """

    nprocs: int
    regions: list[RegionSpec] = field(default_factory=list)
    epochs: list[PackedEpoch] = field(default_factory=list)

    def region_id(self, name: str) -> int:
        # Called inside per-epoch loops (trace.stats, experiments); a linear
        # scan per call is O(regions) each time.  Memoize the name -> id map
        # and rebuild it if regions were appended since it was built.
        ids = self.__dict__.get("_region_ids")
        if ids is None or len(ids) != len(self.regions):
            ids = {r.name: i for i, r in enumerate(self.regions)}
            self.__dict__["_region_ids"] = ids
        try:
            return ids[name]
        except KeyError:
            raise KeyError(f"no region named {name!r}") from None

    @property
    def total_accesses(self) -> int:
        return sum(e.total_accesses for e in self.epochs)

    @property
    def total_work(self) -> float:
        return float(sum(e.work.sum() for e in self.epochs))

    def epochs_labelled(self, label: str) -> list[PackedEpoch]:
        """Epochs of a given phase (for the paper's Table 4 breakdown)."""
        return [e for e in self.epochs if e.label == label]

    def validate(self) -> None:
        """Vectorized consistency check; raises ``ValueError`` on corruption.

        Works at burst granularity — a per-burst min/max via ``reduceat``
        against the burst's region limit — so it never materializes the
        derived per-access region column.
        """
        nregions = len(self.regions)
        limits = np.fromiter(
            (r.num_objects for r in self.regions), dtype=np.int64, count=nregions
        )
        for e in self.epochs:
            if e.nprocs != self.nprocs:
                raise ValueError("epoch/trace processor count mismatch")
            e.check_structure()
            breg = np.asarray(e.burst_region)
            if breg.shape[0] == 0:
                continue
            rmin = int(breg.min())
            rmax = int(breg.max())
            if rmin < 0 or rmax >= nregions:
                raise ValueError(
                    f"burst references unknown region {rmin if rmin < 0 else rmax}"
                )
            blen = np.asarray(e.burst_length)
            nz = blen > 0
            if not nz.any():
                continue
            starts = np.empty(blen.shape[0], dtype=np.int64)
            starts[0] = 0
            np.cumsum(blen[:-1], out=starts[1:])
            nz_starts = starts[nz]
            bmin = np.minimum.reduceat(e.index, nz_starts)
            bmax = np.maximum.reduceat(e.index, nz_starts)
            lim = limits[breg[nz]]
            bad = (bmin < 0) | (bmax >= lim)
            if bad.any():
                spec = self.regions[int(breg[nz][int(np.argmax(bad))])]
                raise ValueError(
                    f"burst indices out of range for region {spec.name!r}"
                )
