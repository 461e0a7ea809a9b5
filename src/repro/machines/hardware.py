"""Hardware cache-coherent shared-memory simulator (Origin-2000-style).

Replays a :class:`repro.trace.Trace` on per-processor L2 caches and TLBs
with directory-style write-invalidate coherence:

* within an epoch, each processor's access stream runs through its own
  set-associative L2 (and fully-associative TLB) in program order;
* at every barrier, lines written by processor ``q`` during the epoch are
  invalidated from every other processor's cache — the next access by a
  sharer misses (a coherence miss).  Applying invalidations at epoch
  granularity is exact for data-race-free programs, which synchronize all
  conflicting accesses through the same barriers.

False sharing appears naturally: two processors writing *different* objects
on the same 128-byte line invalidate each other, which is precisely the
effect data reordering removes.

Validation: on line-granularity data-race-free traces this engine's miss
counts equal the exact per-access MESI reference
(:mod:`repro.machines.coherence`) exactly; on the real benchmark traces —
which write-share lines within an epoch — the counts agree within ~10-20%
and the original/reordered miss *ratios* within a few percent (see
``tests/machines/test_coherence.py``).

The TLB model charges misses per processor over its own access stream —
TLB reach (64 entries x 16 KB) is tiny compared to the particle arrays, so
a random traversal order thrashes it while a memory-order traversal does
not; this reproduces the paper's Table 2 single-processor TLB contrast
(e.g. a factor of 9.15 for Barnes-Hut).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from ..errors import SimulationInputError
from ..trace.events import Trace
from ..trace.layout import DecodedEpoch, Layout, decode_memo
from . import native
from .cache import LRUCache, SetAssocCache, _use_kernel
from .kernels import SetAssocSweep
from .params import HardwareParams

__all__ = ["HardwareResult", "simulate_hardware", "simulate_hardware_sweep"]


@dataclass
class HardwareResult:
    """Counters and derived timing from a hardware simulation run."""

    params: HardwareParams
    nprocs: int
    l2_misses: np.ndarray  # per proc
    tlb_misses: np.ndarray  # per proc
    invalidations: np.ndarray  # lines invalidated out of each proc's cache
    work: np.ndarray  # abstract compute units per proc
    lock_acquires: np.ndarray
    barriers: int
    time: float  # modelled parallel execution time (seconds)
    phase_times: dict[str, float] = field(default_factory=dict)
    # Miss classification (per proc): first-ever touches, re-misses on
    # invalidated lines, and everything else (capacity/conflict evictions).
    # ``capacity_misses`` is the exact residual ``l2 - cold - coherence``;
    # if classification ever over-counts (cold + coherence > total), the
    # excess is surfaced in ``classification_overcount`` (per proc, >= 0)
    # and a RuntimeWarning is emitted — never silently clamped away.
    cold_misses: np.ndarray = field(default=None)  # type: ignore[assignment]
    coherence_misses: np.ndarray = field(default=None)  # type: ignore[assignment]
    capacity_misses: np.ndarray = field(default=None)  # type: ignore[assignment]
    classification_overcount: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        z = lambda: np.zeros(self.nprocs, dtype=np.int64)  # noqa: E731
        if self.cold_misses is None:
            self.cold_misses = z()
        if self.coherence_misses is None:
            self.coherence_misses = z()
        if self.capacity_misses is None:
            self.capacity_misses = z()
        if self.classification_overcount is None:
            self.classification_overcount = z()

    @property
    def total_l2_misses(self) -> int:
        return int(self.l2_misses.sum())

    @property
    def total_tlb_misses(self) -> int:
        return int(self.tlb_misses.sum())

    def summary(self) -> dict[str, float]:
        return {
            "time": self.time,
            "l2_misses": self.total_l2_misses,
            "tlb_misses": self.total_tlb_misses,
            "invalidations": int(self.invalidations.sum()),
            "barriers": self.barriers,
        }


def _proc_streams(
    epoch,
    decoded: DecodedEpoch,
    proc: int,
    line_size: int,
    page_size: int,
    nlines: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Line stream, page stream and written-line set for one processor.

    The line stream comes straight from the (memoized) decoded epoch, so
    the decode is shared across platforms and sweep points.  Write flags
    are expanded from the burst columns for this processor only
    (``epoch.write_flags``), so the whole-epoch derived
    ``region``/``is_write`` columns are never materialized.  The written-line
    set is collected through a dense line mask rather than a hash-based
    ``np.unique`` over the (much longer) expanded write stream.
    """
    lines = decoded.units[proc]
    empty = np.empty(0, dtype=np.int64)
    if lines.shape[0] == 0:
        return empty, empty, empty
    b0 = int(epoch.burst_offsets[proc])
    b1 = int(epoch.burst_offsets[proc + 1])
    if epoch.burst_write[b0:b1].any():
        wflags = epoch.write_flags(proc)
        wmask = np.zeros(nlines, dtype=bool)
        wmask[lines[decoded.expand(proc, wflags)]] = True
        written = np.flatnonzero(wmask)
    else:
        written = empty
    shift = line_size.bit_length() - 1
    pshift = page_size.bit_length() - 1
    pages = (lines << shift) >> pshift
    return lines, pages, written


def _line_streams(
    trace: Trace, layout: Layout, line_size: int, page_size: int, nlines: int
):
    """Yield each epoch's per-proc ``(lines, pages, distinct, written)``.

    ``lines`` is the proc's cache-line stream and ``pages`` its TLB page
    stream; ``distinct`` holds the lines it touched (any order) and
    ``written`` the lines it wrote, sorted.  When the cache replays run
    compiled, one :meth:`native.BurstDecoder.decode_lines` pass per epoch
    yields them, with consecutive repeats dropped from ``lines`` and
    ``pages`` (a repeat of the key just touched never misses) and the
    arrays valid until the next epoch is drawn.  Otherwise -- no
    compiler, or the ``loop`` engine -- the numpy decode through the
    trace's decode memo and :func:`_proc_streams` does, with a dense line
    mask for ``distinct``.
    """
    if _use_kernel(None):
        decoder = native.BurstDecoder.for_layout(layout, line_size)
        for epoch in trace.epochs:
            lines, lo, pages, po, dist, do, wr, wo = decoder.decode_lines(
                epoch, page_size
            )
            lo, po, do, wo = lo.tolist(), po.tolist(), do.tolist(), wo.tolist()
            yield [
                (lines[lo[p] : lo[p + 1]], pages[po[p] : po[p + 1]],
                 dist[do[p] : do[p + 1]], wr[wo[p] : wo[p + 1]])
                for p in range(trace.nprocs)
            ]
        return
    memo = decode_memo(trace)
    touched = np.zeros(nlines, dtype=bool)
    for ei, epoch in enumerate(trace.epochs):
        decoded = memo.epoch(layout, line_size, ei)
        streams = []
        for p in range(trace.nprocs):
            lines, pages, written = _proc_streams(
                epoch, decoded, p, line_size, page_size, nlines
            )
            touched[lines] = True
            distinct = np.flatnonzero(touched)
            touched[distinct] = False
            streams.append((lines, pages, distinct, written))
        yield streams


def _invalidation_targets(
    epoch_written: list[np.ndarray],
) -> list[np.ndarray | None]:
    """Per-processor invalidation target sets for one barrier.

    Processor ``p`` must drop every line written by any *other* processor
    this epoch.  Instead of the O(P^2) pairwise loop, the written sets
    (each already sorted-unique) are unioned once with multiplicity
    (``np.unique`` + counts); ``p``'s targets are then "lines written by
    >= 2 processors, or by exactly one processor that is not ``p``" — one
    ``isin`` per processor.  Exact: line removals commute and
    ``invalidate_present`` acts idempotently per line, so invalidating the
    union once equals invalidating each writer's set in turn.
    """
    nprocs = len(epoch_written)
    writers = [q for q in range(nprocs) if epoch_written[q].shape[0]]
    if not writers:
        return [None] * nprocs
    if len(writers) == 1:
        q = writers[0]
        wq = epoch_written[q]
        return [None if p == q else wq for p in range(nprocs)]
    uniq, cnt = np.unique(
        np.concatenate([epoch_written[q] for q in writers]), return_counts=True
    )
    shared = cnt >= 2
    targets: list[np.ndarray | None] = []
    for p in range(nprocs):
        wp = epoch_written[p]
        if wp.shape[0] == 0:
            targets.append(uniq)
        else:
            mine = np.isin(uniq, wp, assume_unique=True)
            targets.append(uniq[shared | ~mine])
    return targets


def simulate_hardware(
    trace: Trace,
    params: HardwareParams = HardwareParams(),
    layout: Layout | None = None,
) -> HardwareResult:
    """Run a trace through the hardware machine model.

    The trace may use fewer processors than ``params.nprocs`` (e.g. the
    single-processor runs of Table 2); idle processors contribute nothing.
    """
    if not isinstance(trace, Trace):
        raise SimulationInputError(
            f"simulate_hardware expects a Trace, got {type(trace).__name__}"
        )
    if layout is None:
        layout = Layout.for_trace(trace, align=params.page_size)
    nprocs = trace.nprocs
    # Geometry is validated by HardwareParams at construction; build the
    # caches exactly as specified — no silent rounding of the set count.
    caches = [SetAssocCache(params.l2_sets, params.l2_assoc) for _ in range(nprocs)]
    tlbs = [LRUCache(params.tlb_entries) for _ in range(nprocs)]

    l2_misses = np.zeros(nprocs, dtype=np.int64)
    tlb_misses = np.zeros(nprocs, dtype=np.int64)
    invalidations = np.zeros(nprocs, dtype=np.int64)
    cold = np.zeros(nprocs, dtype=np.int64)
    coherence = np.zeros(nprocs, dtype=np.int64)
    work = np.zeros(nprocs, dtype=np.float64)
    locks = np.zeros(nprocs, dtype=np.int64)
    phase_times: dict[str, float] = {}
    # Classification state: lines each proc has ever touched, and lines
    # invalidated out of its cache and not yet re-touched.  Line ids are
    # dense (bounded by the layout's extent), so per-proc boolean tables
    # turn the per-epoch set algebra into gathers and scatters over the
    # proc's distinct lines.
    shift = params.line_size.bit_length() - 1
    nlines = (layout.total_bytes >> shift) + 1
    seen = np.zeros((nprocs, nlines), dtype=bool)
    pending_inval = np.zeros((nprocs, nlines), dtype=bool)

    miss_time = params.l2_miss_time()
    work_time = params.work_cycles * params.cycle_time
    total_time = 0.0

    streams = _line_streams(
        trace, layout, params.line_size, params.page_size, nlines
    )
    for epoch, epoch_streams in zip(trace.epochs, streams):
        epoch_written: list[np.ndarray] = []
        epoch_l2 = np.zeros(nprocs, dtype=np.int64)
        epoch_tlb = np.zeros(nprocs, dtype=np.int64)
        for p, (lines, pages, distinct, written) in enumerate(epoch_streams):
            epoch_written.append(written)
            if lines.shape[0]:
                epoch_l2[p] = caches[p].access_stream(lines)
                epoch_tlb[p] = tlbs[p].access_stream(pages)
                # Classify: first-ever touches are cold; re-touches of
                # invalidated lines are coherence; the remainder of the
                # LRU's miss count is capacity/conflict.
                cold[p] += int(np.count_nonzero(~seen[p, distinct]))
                seen[p, distinct] = True
                coherence[p] += int(np.count_nonzero(pending_inval[p, distinct]))
                pending_inval[p, distinct] = False
        # Directory invalidation at the barrier: every line written by q is
        # purged from all other caches (and its TLB entry is unaffected —
        # TLBs cache translations, not data).  The target sets are batched
        # across writers (see ``_invalidation_targets``), so the barrier
        # costs one ``invalidate_present`` merge per processor instead of
        # one per ordered processor pair.
        for p, w in enumerate(_invalidation_targets(epoch_written)):
            if w is None:
                continue
            removed = caches[p].invalidate_present(w, assume_unique=True)
            if removed.shape[0]:
                invalidations[p] += removed.shape[0]
                pending_inval[p][removed] = True
        l2_misses += epoch_l2
        tlb_misses += epoch_tlb
        work += epoch.work
        locks += epoch.lock_acquires
        proc_time = (
            epoch.work * work_time
            + epoch_l2 * miss_time
            + epoch_tlb * params.tlb_miss_time
            + epoch.lock_acquires * params.lock_time
        )
        epoch_time = float(proc_time.max()) + (params.barrier_time if nprocs > 1 else 0.0)
        total_time += epoch_time
        if epoch.label:
            phase_times[epoch.label] = phase_times.get(epoch.label, 0.0) + epoch_time

    # Capacity/conflict misses are the exact residual.  A negative value
    # means cold + coherence over-counted the simulator's misses — that is
    # classification drift, and it is surfaced, not floored away.
    residual = l2_misses - cold - coherence
    overcount = np.maximum(-residual, 0)
    if overcount.any():
        warnings.warn(
            "miss classification drift: cold + coherence exceed total L2"
            f" misses by {overcount.tolist()} per processor (total"
            f" {int(overcount.sum())}); capacity_misses carries the exact"
            " (negative) residual and classification_overcount the excess",
            RuntimeWarning,
            stacklevel=2,
        )
    return HardwareResult(
        params=params,
        nprocs=nprocs,
        l2_misses=l2_misses,
        tlb_misses=tlb_misses,
        invalidations=invalidations,
        work=work,
        lock_acquires=locks,
        barriers=len(trace.epochs),
        time=total_time,
        phase_times=phase_times,
        cold_misses=cold,
        coherence_misses=coherence,
        capacity_misses=residual,
        classification_overcount=overcount,
    )


def _sweep_line_family(
    trace: Trace,
    base: HardwareParams,
    line_size: int,
    l2_list: list[int],
    layout: Layout,
) -> list[HardwareResult]:
    """Sweep L2 capacities at one line size with a single replay.

    Holding ``line_size`` fixed pins the set count to the base cache's
    geometry (``base.l2_bytes / (line_size * base.l2_assoc)`` sets), so
    the capacity points differ only in associativity — a stack family:
    one :class:`SetAssocSweep` pass yields the exact per-epoch miss
    counts of every point, and the invalidation/coherence/cold counters
    come from capacity thresholds accumulated alongside.  The TLB is
    keyed by page, not line, so one replay serves the whole family too.
    """
    span = line_size * base.l2_assoc
    if base.l2_bytes % span:
        raise SimulationInputError(
            f"line_size={line_size} does not divide the base geometry:"
            f" l2_bytes={base.l2_bytes} is not a multiple of"
            f" line_size*assoc={span}"
        )
    nsets = base.l2_bytes // span
    if nsets & (nsets - 1):
        raise SimulationInputError(
            f"line_size={line_size} gives a non-power-of-two set count"
            f" {nsets} for the base geometry"
        )
    set_span = nsets * line_size
    assocs = []
    for nbytes in l2_list:
        if nbytes < set_span or nbytes % set_span:
            raise SimulationInputError(
                f"l2_bytes={nbytes} is not a positive multiple of the"
                f" family's set span {set_span} (line_size={line_size},"
                f" {nsets} sets)"
            )
        assocs.append(nbytes // set_span)
    cmax = max(assocs)
    nprocs = trace.nprocs
    nepochs = len(trace.epochs)
    shift = line_size.bit_length() - 1
    nlines = (layout.total_bytes >> shift) + 1

    sweeps = [SetAssocSweep(nsets, cmax) for _ in range(nprocs)]
    tlbs = [LRUCache(base.tlb_entries) for _ in range(nprocs)]
    g_hists = np.zeros((nepochs, nprocs, cmax + 1), dtype=np.int64)
    tlb_epoch = np.zeros((nepochs, nprocs), dtype=np.int64)
    inval_hist = np.zeros((nprocs, cmax), dtype=np.int64)
    coh_hist = np.zeros((nprocs, cmax), dtype=np.int64)
    cold = np.zeros(nprocs, dtype=np.int64)
    seen = np.zeros((nprocs, nlines), dtype=bool)
    # pend_thr[p, line] < a: the line is awaiting a coherence re-miss at
    # associativity ``a`` (it was resident there when invalidated); the
    # sentinel ``cmax`` means no pending invalidation at any capacity.
    pend_thr = np.full((nprocs, nlines), cmax, dtype=np.int64)
    works = np.zeros((nepochs, nprocs), dtype=np.float64)
    locks_e = np.zeros((nepochs, nprocs), dtype=np.int64)
    labels: list[str] = []

    streams = _line_streams(trace, layout, line_size, base.page_size, nlines)
    for ei, (epoch, epoch_streams) in enumerate(zip(trace.epochs, streams)):
        epoch_written: list[np.ndarray] = []
        for p, (lines, pages, distinct, written) in enumerate(epoch_streams):
            epoch_written.append(written)
            if lines.shape[0]:
                g_hists[ei, p] = sweeps[p].access_stream(lines)
                tlb_epoch[ei, p] = tlbs[p].access_stream(pages)
                cold[p] += int(np.count_nonzero(~seen[p, distinct]))
                seen[p, distinct] = True
                thr = pend_thr[p, distinct]
                pend = thr < cmax
                if pend.any():
                    coh_hist[p] += np.bincount(thr[pend], minlength=cmax)
                    pend_thr[p, distinct[pend]] = cmax
        for p, w in enumerate(_invalidation_targets(epoch_written)):
            if w is None or w.shape[0] == 0:
                continue
            removed, thr = sweeps[p].invalidate_present(w, assume_unique=True)
            if thr.shape[0]:
                inval_hist[p] += np.bincount(thr, minlength=cmax)
                pend_thr[p, removed] = thr
        works[ei] = epoch.work
        locks_e[ei] = epoch.lock_acquires
        labels.append(epoch.label)

    results = []
    tlb_misses = tlb_epoch.sum(axis=0)
    barrier = base.barrier_time if nprocs > 1 else 0.0
    for nbytes, assoc in zip(l2_list, assocs):
        params = replace(base, line_size=line_size, l2_bytes=nbytes, l2_assoc=assoc)
        epoch_l2 = g_hists[:, :, assoc:].sum(axis=2)
        l2_misses = epoch_l2.sum(axis=0)
        coherence = coh_hist[:, :assoc].sum(axis=1)
        proc_time = (
            works * (params.work_cycles * params.cycle_time)
            + epoch_l2 * params.l2_miss_time()
            + tlb_epoch * params.tlb_miss_time
            + locks_e * params.lock_time
        )
        epoch_times = (
            proc_time.max(axis=1) + barrier
            if nepochs
            else np.zeros(0, dtype=np.float64)
        )
        phase_times: dict[str, float] = {}
        for lbl, t in zip(labels, epoch_times):
            if lbl:
                phase_times[lbl] = phase_times.get(lbl, 0.0) + float(t)
        residual = l2_misses - cold - coherence
        overcount = np.maximum(-residual, 0)
        if overcount.any():
            warnings.warn(
                "miss classification drift: cold + coherence exceed total L2"
                f" misses by {overcount.tolist()} per processor (total"
                f" {int(overcount.sum())}); capacity_misses carries the exact"
                " (negative) residual and classification_overcount the excess",
                RuntimeWarning,
                stacklevel=3,
            )
        results.append(
            HardwareResult(
                params=params,
                nprocs=nprocs,
                l2_misses=l2_misses,
                tlb_misses=tlb_misses.copy(),
                invalidations=inval_hist[:, :assoc].sum(axis=1),
                work=works.sum(axis=0),
                lock_acquires=locks_e.sum(axis=0, dtype=np.int64),
                barriers=nepochs,
                time=float(sum(epoch_times.tolist())),
                phase_times=phase_times,
                cold_misses=cold.copy(),
                coherence_misses=coherence,
                capacity_misses=residual,
                classification_overcount=overcount,
            )
        )
    return results


def simulate_hardware_sweep(
    trace: Trace,
    base: HardwareParams = HardwareParams(),
    l2_bytes: "list[int] | None" = None,
    line_sizes: "list[int] | None" = None,
    layout: Layout | None = None,
) -> list[HardwareResult]:
    """Sweep L2 capacity (and line size) in one replay per line size.

    Returns one :class:`HardwareResult` per grid point, row-major over
    ``line_sizes x l2_bytes``, each byte-for-byte identical to
    ``simulate_hardware(trace, point_params)`` for::

        point_params = replace(base, line_size=s, l2_bytes=b,
                               l2_assoc=b // (nsets * s))

    where ``nsets = base.l2_bytes // (s * base.l2_assoc)`` — the set
    count is pinned per line size so capacity points form an LRU stack
    family (capacity grows by adding ways), which is what makes the
    one-pass miss curve exact; see ``DESIGN.md``.  The base point
    ``(base.line_size, base.l2_bytes)`` reproduces ``base`` itself.

    Each distinct line size decodes the trace once (see
    :func:`_line_streams`); every ``l2_bytes`` point at that line size is
    then read off the stack-distance curve instead of re-replaying.
    """
    if not isinstance(trace, Trace):
        raise SimulationInputError(
            f"simulate_hardware_sweep expects a Trace, got {type(trace).__name__}"
        )
    l2_list = [base.l2_bytes] if l2_bytes is None else [int(b) for b in l2_bytes]
    line_list = (
        [base.line_size] if line_sizes is None else [int(s) for s in line_sizes]
    )
    if not l2_list or not line_list:
        raise SimulationInputError("sweep axes must be non-empty")
    if layout is None:
        layout = Layout.for_trace(trace, align=base.page_size)
    results: list[HardwareResult] = []
    for line_size in line_list:
        results.extend(_sweep_line_family(trace, base, line_size, l2_list, layout))
    return results
