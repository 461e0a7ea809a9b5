"""Interval (epoch) page-access summaries for the DSM protocol models.

Lazy release consistency lets the protocol models work from per-interval
page-level summaries instead of full access streams: between two barriers
what matters is *which pages* each processor read or wrote and *how many
bytes* of each page it dirtied (the diff payload).  This module reduces a
:class:`repro.trace.Trace` to exactly that.

Page ids here are global page indices within the trace's :class:`Layout`
(which places regions from address zero), so they index dense per-page state
arrays in the protocol models.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...trace.events import Trace
from ...trace.layout import DecodedEpoch, DecodeMemo, Layout, decode_memo
from ...trace.packed import PackedEpoch
from .. import native
from ..cache import _use_kernel

__all__ = [
    "EpochPageInfo",
    "build_intervals",
    "build_interval_ladder",
    "total_pages",
]


@dataclass
class EpochPageInfo:
    """Page-level summary of one epoch.

    Attributes (all lists indexed by processor):

    * ``accesses[p]`` — sorted unique pages touched (read or write);
    * ``writes[p]`` — sorted unique pages written;
    * ``write_bytes[p]`` — dirtied bytes per written page, aligned with
      ``writes[p]`` (distinct objects written x object size, capped at the
      page size — a run-length-encoded diff cannot exceed the page);
    * ``label`` — the phase label of the epoch;
    * ``work``, ``lock_acquires`` — carried through for the timing model.
    """

    accesses: list[np.ndarray]
    writes: list[np.ndarray]
    write_bytes: list[np.ndarray]
    label: str
    work: np.ndarray
    lock_acquires: np.ndarray

    @property
    def nprocs(self) -> int:
        return len(self.accesses)


def total_pages(layout: Layout, page_size: int) -> int:
    """Number of pages the layout's address space spans."""
    return -(-max(layout.total_bytes, 1) // page_size)


def _write_accesses(
    epoch: PackedEpoch, p: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """``(region, index)`` of ``p``'s written accesses, from burst columns.

    Selecting at burst granularity keeps the whole-epoch derived
    ``region``/``is_write`` columns unmaterialized: the per-access write
    mask is expanded for this processor's slice only.  Returns ``None``
    when the processor wrote nothing this epoch.
    """
    b0, b1 = int(epoch.burst_offsets[p]), int(epoch.burst_offsets[p + 1])
    bw = np.asarray(epoch.burst_write[b0:b1])
    if not bw.any():
        return None
    blen = epoch.burst_length[b0:b1]
    lo, hi = int(epoch.offsets[p]), int(epoch.offsets[p + 1])
    widx = np.asarray(epoch.index[lo:hi])[np.repeat(bw, blen)]
    wregs = np.repeat(
        np.asarray(epoch.burst_region[b0:b1], dtype=np.int64)[bw],
        np.asarray(blen)[bw],
    )
    return wregs, widx


def _page_columns(
    epoch: PackedEpoch,
    decoded: DecodedEpoch,
    layout: Layout,
    page_size: int,
) -> tuple[list, list, list, list]:
    """Per-proc page columns of one epoch: ``(accesses, writes, ub, cross)``.

    ``accesses`` comes straight from the memoized page decode.  For the
    written pages, ``ub`` is the *uncapped* distinct-object dirty byte sum:
    written objects are expanded to the pages they cover and the
    ``(page, region, object)`` triples deduplicated with one lexsort.
    ``cross`` — the bytes of written objects whose span crosses a page's
    left boundary — is what the page-size ladder folds with.  This is the
    no-compiler path and the reference of
    :meth:`native.BurstDecoder.page_columns`.
    """
    shift = page_size.bit_length() - 1
    bases = np.asarray(layout.bases, dtype=np.int64)
    osizes = np.fromiter(
        (r.object_size for r in layout.regions),
        dtype=np.int64,
        count=len(layout.regions),
    )
    empty = np.empty(0, np.int64)
    acc: list[np.ndarray] = []
    wr: list[np.ndarray] = []
    ub: list[np.ndarray] = []
    cross: list[np.ndarray] = []
    for p in range(epoch.nprocs):
        units = decoded.units[p]
        acc.append(np.unique(units) if units.shape[0] else empty)
        wacc = _write_accesses(epoch, p)
        if wacc is None:
            wr.append(empty)
            ub.append(empty)
            cross.append(empty)
            continue
        wregs, widx = wacc
        sizes = osizes[wregs]
        start = bases[wregs] + widx * sizes
        first = start >> shift
        counts = ((start + sizes - 1) >> shift) - first + 1
        # Expand each written object to the pages it covers, carrying
        # (region, object) along for distinct-object dirty accounting.
        pages_e = np.repeat(first, counts)
        run_start = np.repeat(np.cumsum(counts) - counts, counts)
        pages_e += np.arange(pages_e.shape[0], dtype=np.int64) - run_start
        regs_e = np.repeat(wregs, counts)
        objs_e = np.repeat(widx, counts)
        order = np.lexsort((objs_e, regs_e, pages_e))
        pg, rg, ob = pages_e[order], regs_e[order], objs_e[order]
        fresh = np.empty(pg.shape[0], dtype=bool)
        fresh[0] = True
        fresh[1:] = (pg[1:] != pg[:-1]) | (rg[1:] != rg[:-1]) | (ob[1:] != ob[:-1])
        pg, rg = pg[fresh], rg[fresh]
        wpages, inverse = np.unique(pg, return_inverse=True)
        sz = osizes[rg]
        wr.append(wpages)
        ub.append(np.bincount(inverse, weights=sz).astype(np.int64))
        crossing = ((bases[rg] + ob[fresh] * sz) >> shift) < pg
        cross.append(
            np.bincount(
                inverse[crossing], weights=sz[crossing], minlength=wpages.shape[0]
            ).astype(np.int64)
        )
    return acc, wr, ub, cross


def _trace_columns(
    trace: Trace, layout: Layout, page_size: int, store: bool
) -> list[tuple[list, list, list, list]]:
    """:func:`_page_columns` of every epoch.

    With the compiled kernels, one :meth:`native.BurstDecoder.page_columns`
    pass per epoch computes them; the decode memo is not touched.
    Otherwise -- no compiler, or the ``loop`` engine -- the numpy columns
    are built from the memoized page decode, kept there iff ``store``.
    """
    if _use_kernel(None):
        decoder = native.BurstDecoder.for_layout(layout, page_size)
        levels = []
        for epoch in trace.epochs:
            acc, aoff, wr, woff, ub, cross = decoder.page_columns(epoch)
            aoff, woff = aoff[1:-1], woff[1:-1]
            levels.append((
                np.split(acc, aoff), np.split(wr, woff),
                np.split(ub, woff), np.split(cross, woff),
            ))
        return levels
    memo = decode_memo(trace)
    return [
        _page_columns(
            epoch, memo.epoch(layout, page_size, ei, store=store), layout, page_size
        )
        for ei, epoch in enumerate(trace.epochs)
    ]


def _page_info(
    epoch: PackedEpoch, acc: list, wr: list, ub: list, page_size: int
) -> EpochPageInfo:
    """:class:`EpochPageInfo` from page columns, dirty bytes capped."""
    return EpochPageInfo(
        accesses=acc,
        writes=wr,
        write_bytes=[np.minimum(b, page_size) for b in ub],
        label=epoch.label,
        work=np.asarray(epoch.work, dtype=np.float64).copy(),
        lock_acquires=np.asarray(epoch.lock_acquires, dtype=np.int64).copy(),
    )


def build_intervals(
    trace: Trace, layout: Layout | None = None, page_size: int = 4096
) -> tuple[list[EpochPageInfo], Layout]:
    """Summarize every epoch of ``trace`` at ``page_size`` granularity.

    The summaries come from one compiled pass per epoch (numpy from the
    memoized page decode without a compiler) and are cached on the
    trace's decode memo keyed by geometry — so running TreadMarks and
    HLRC (or repeating a sweep point) builds the intervals once.
    """
    if layout is None:
        layout = Layout.for_trace(trace, align=page_size)
    memo = decode_memo(trace)
    key = ("intervals", DecodeMemo.geometry_key(layout, page_size))

    def _build() -> list[EpochPageInfo]:
        return [
            _page_info(epoch, acc, wr, ub, page_size)
            for epoch, (acc, wr, ub, _cross) in zip(
                trace.epochs, _trace_columns(trace, layout, page_size, True)
            )
        ]

    return memo.derived(key, _build), layout


# ---------------------------------------------------------------------------
# Page-size ladders: intervals at every size from one finest-level pass
# ---------------------------------------------------------------------------
#
# Pages at size ``2s`` are pairs of size-``s`` pages, so every per-epoch
# summary folds upward instead of being rebuilt per sweep point:
#
# * access / write page sets:  ``unique(pages >> 1)``;
# * dirty bytes: the capped ``write_bytes`` of :class:`EpochPageInfo` do
#   NOT fold (an object straddling the sibling boundary is counted in
#   both children, and ``min(., s)`` is applied at the wrong level), so
#   the ladder carries two *uncapped* columns per written page: ``ub``,
#   the full distinct-object byte sum, and ``cross``, the bytes of
#   written objects whose span crosses the page's left boundary.  Then
#
#       ub2[P]    = ub[2P] + ub[2P+1] - cross[2P+1]
#       cross2[P] = cross[2P]
#
#   (inclusion–exclusion over the sibling boundary: an object touches
#   both children iff it crosses it; objects are contiguous byte runs,
#   so crossing the left boundary of ``2P+1`` is exactly "touches both").
#   The page-size cap is applied only when a level is materialized.


def _fold_ladder(
    acc: list, wr: list, ub: list, cross: list
) -> tuple[list, list, list, list]:
    """One 2x fold of per-proc ladder columns (size s -> 2s)."""
    acc2 = [np.unique(a >> 1) if a.shape[0] else a for a in acc]
    wr2: list[np.ndarray] = []
    ub2: list[np.ndarray] = []
    cx2: list[np.ndarray] = []
    for wp, b, cx in zip(wr, ub, cross):
        if wp.shape[0] == 0:
            wr2.append(wp)
            ub2.append(b)
            cx2.append(cx)
            continue
        u2, inverse = np.unique(wp >> 1, return_inverse=True)
        odd = (wp & 1).astype(bool)
        adj = b - np.where(odd, cx, 0)
        nb = np.bincount(inverse, weights=adj, minlength=u2.shape[0]).astype(
            np.int64
        )
        ncx = np.zeros(u2.shape[0], dtype=np.int64)
        even = ~odd
        ncx[inverse[even]] = cx[even]
        wr2.append(u2)
        ub2.append(nb)
        cx2.append(ncx)
    return acc2, wr2, ub2, cx2


def build_interval_ladder(
    trace: Trace,
    page_sizes,
    layout: Layout | None = None,
) -> tuple[dict[int, list[EpochPageInfo]], Layout]:
    """Summaries for every page size in ``page_sizes`` from one pass.

    ``page_sizes`` must be powers of two; the trace is summarized once at
    the finest size and folded upward through the 2x hierarchy, emitting
    an :func:`build_intervals`-identical list at each requested size.
    All sizes share one :class:`Layout` (aligned to the largest size —
    region bases are then aligned at *every* swept size, so per-page
    counters match what a per-size default layout would produce).  Each
    materialized level is registered in the trace's decode memo under the
    same key :func:`build_intervals` uses, so later per-size calls with
    this layout are cache hits.
    """
    sizes = sorted({int(s) for s in page_sizes})
    if not sizes:
        raise ValueError("page_sizes must be non-empty")
    for s in sizes:
        if s < 1 or s & (s - 1):
            raise ValueError(f"page sizes must be powers of two, got {s}")
    if layout is None:
        layout = Layout.for_trace(trace, align=sizes[-1])
    memo = decode_memo(trace)
    keys = {s: ("intervals", DecodeMemo.geometry_key(layout, s)) for s in sizes}
    # A repeat call (the other protocol's sweep of the same trace) would
    # otherwise decode the finest size again, since that decode is not kept.
    if all(memo.has_derived(k) for k in keys.values()):
        return {s: memo.derived(k, None) for s, k in keys.items()}, layout
    # The finest-size decode is read once, here; storing it would hold every
    # epoch's streams at the finest (largest) geometry for nothing.
    finest = sizes[0]
    levels = _trace_columns(trace, layout, finest, False)
    out: dict[int, list[EpochPageInfo]] = {}
    size = finest
    while True:
        if size in sizes:
            cap = size

            def _materialize(levels=levels, cap=cap) -> list[EpochPageInfo]:
                return [
                    _page_info(epoch, acc, wr, ub, cap)
                    for epoch, (acc, wr, ub, _cx) in zip(trace.epochs, levels)
                ]

            out[size] = memo.derived(keys[size], _materialize)
        if size >= sizes[-1]:
            break
        levels = [_fold_ladder(*lvl) for lvl in levels]
        size *= 2
    return out, layout
