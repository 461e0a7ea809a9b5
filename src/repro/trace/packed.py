"""Columnar epoch representation.

A :class:`PackedEpoch` holds one barrier-separated epoch as CSR-style
*columns* — the per-access ``index`` column plus a ``(nprocs + 1)`` offset
table, with burst boundaries kept in side columns (``burst_region``,
``burst_write``, ``burst_length``).  ``flat(proc)`` is an O(1) slice
returning zero-copy views, ``accesses(proc)`` is a subtraction, and the
per-access ``region``/``is_write`` columns are derived from the burst
columns on first use.  A read-only ``epoch.bursts[p]`` view rebuilds the
per-processor :class:`Burst` lists; the Burst ``indices`` are views into
the ``index`` column, not copies.

Packed epochs are *sealed*: the columns are built once (at
:meth:`repro.trace.builder.TraceBuilder.barrier` time or by the loader in
:mod:`repro.trace.io`) and never mutated afterwards.  That immutability is
what makes the zero-copy pipeline safe — simulators, the decode memo
(:mod:`repro.trace.layout`), and mmap-loaded traces all share the same
buffers.
"""

from __future__ import annotations

import numpy as np

from .events import Burst

__all__ = ["PackedEpoch"]


class PackedEpoch:
    """One barrier-separated epoch in columnar form.

    Attributes
    ----------
    offsets:
        ``(nprocs + 1,)`` int64; processor ``p``'s accesses occupy
        ``[offsets[p], offsets[p + 1])`` of the access columns.
    region, index, is_write:
        Per-access columns (int64, int64, bool), all of length
        ``offsets[-1]``, in program order per processor.
    burst_offsets:
        ``(nprocs + 1,)`` int64 into the burst columns.
    burst_region, burst_write, burst_length:
        Per-burst columns: the burst structure, kept for the ``bursts``
        view, for burst-granularity decoding and for serialization.
    work:
        ``work[p]`` — abstract compute units (e.g. pair interactions)
        performed by processor ``p``; drives the timing model.
    lock_acquires:
        ``lock_acquires[p]`` — number of lock acquisitions by ``p``.
    label:
        Phase name for per-phase breakdowns (paper's Table 4).
    """

    __slots__ = (
        "nprocs",
        "label",
        "offsets",
        "index",
        "burst_offsets",
        "burst_region",
        "burst_write",
        "burst_length",
        "work",
        "lock_acquires",
        "_region",
        "_is_write",
        "_bursts",
    )

    def __init__(
        self,
        nprocs: int,
        label: str,
        offsets: np.ndarray,
        index: np.ndarray,
        burst_offsets: np.ndarray,
        burst_region: np.ndarray,
        burst_write: np.ndarray,
        burst_length: np.ndarray,
        work: np.ndarray,
        lock_acquires: np.ndarray,
        region: np.ndarray | None = None,
        is_write: np.ndarray | None = None,
    ):
        if nprocs <= 0:
            raise ValueError("nprocs must be positive")
        self.nprocs = nprocs
        self.label = label
        self.offsets = offsets
        self.index = index
        self.burst_offsets = burst_offsets
        self.burst_region = burst_region
        self.burst_write = burst_write
        self.burst_length = burst_length
        self.work = work
        self.lock_acquires = lock_acquires
        self._region = region
        self._is_write = is_write
        self._bursts = None

    # ---- lazy per-access columns -----------------------------------------
    # The burst columns fully determine the per-access region/is_write
    # columns (each burst's attributes repeated over its length), so they
    # are derived on first use: sealing, serialization and interval-based
    # consumers never need them, and skipping the two np.repeat passes is a
    # large share of the emission cost the ragged path removes.

    @property
    def region(self) -> np.ndarray:
        if self._region is None:
            self._region = np.repeat(self.burst_region, self.burst_length)
        return self._region

    @property
    def is_write(self) -> np.ndarray:
        if self._is_write is None:
            self._is_write = np.repeat(self.burst_write, self.burst_length)
        return self._is_write

    # ---- construction ----------------------------------------------------
    @classmethod
    def seal(
        cls,
        nprocs: int,
        label: str,
        staged: list[list],
        work: np.ndarray,
        lock_acquires: np.ndarray,
    ) -> "PackedEpoch":
        """Build the columns from per-proc staged burst lists.

        Each staged entry is either a plain ``(region, is_write, indices)``
        tuple or a :class:`repro.trace.events.RaggedBatch`; batches are
        expanded vectorized (never into per-burst Python objects), so a
        ragged-emitting application seals in O(batches) Python work.  The
        per-access total is known up front, so the flat index column is
        allocated once and every entry — plain or ragged — writes its
        slice directly; there is no per-column concatenation of the big
        access data, only of the small burst columns."""
        offsets = np.zeros(nprocs + 1, dtype=np.int64)
        burst_offsets = np.zeros(nprocs + 1, dtype=np.int64)
        total = 0
        for p in range(nprocs):
            for entry in staged[p]:
                total += entry[2].shape[0] if type(entry) is tuple else entry.total
            offsets[p + 1] = total
        index = np.empty(total, dtype=np.int64)

        breg_parts: list[np.ndarray] = []
        bwri_parts: list[np.ndarray] = []
        blen_parts: list[np.ndarray] = []
        # Pending run of plain tuples, flushed to arrays on batch boundaries
        # so the burst order is preserved.
        run_region: list[int] = []
        run_write: list[bool] = []
        run_length: list[int] = []

        def _flush() -> None:
            if run_region:
                breg_parts.append(np.array(run_region, dtype=np.int64))
                bwri_parts.append(np.array(run_write, dtype=np.bool_))
                blen_parts.append(np.array(run_length, dtype=np.int64))
                run_region.clear()
                run_write.clear()
                run_length.clear()

        pos = 0
        nbursts = 0
        for p in range(nprocs):
            for entry in staged[p]:
                if type(entry) is tuple:
                    region, write, idx = entry
                    ln = idx.shape[0]
                    run_region.append(region)
                    run_write.append(write)
                    run_length.append(ln)
                    index[pos : pos + ln] = idx
                    pos += ln
                    nbursts += 1
                else:
                    _flush()
                    ereg, ewri, elen, _ = entry.expand(
                        out=index[pos : pos + entry.total]
                    )
                    breg_parts.append(ereg)
                    bwri_parts.append(ewri)
                    blen_parts.append(elen)
                    pos += entry.total
                    nbursts += elen.shape[0]
            burst_offsets[p + 1] = nbursts
        _flush()
        if nbursts:
            breg = np.concatenate(breg_parts)
            bwri = np.concatenate(bwri_parts)
            blen = np.concatenate(blen_parts)
        else:
            breg = np.empty(0, dtype=np.int64)
            bwri = np.empty(0, dtype=np.bool_)
            blen = np.empty(0, dtype=np.int64)
        return cls(
            nprocs=nprocs,
            label=label,
            offsets=offsets,
            index=index,
            burst_offsets=burst_offsets,
            burst_region=breg,
            burst_write=bwri,
            burst_length=blen,
            work=work,
            lock_acquires=lock_acquires,
        )

    # ---- access views ----------------------------------------------------
    def accesses(self, proc: int) -> int:
        """Total object accesses by processor ``proc`` — O(1)."""
        return int(self.offsets[proc + 1] - self.offsets[proc])

    def flat(self, proc: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(region, index, is_write)`` views for ``proc`` — O(1), no copy."""
        lo = self.offsets[proc]
        hi = self.offsets[proc + 1]
        return self.region[lo:hi], self.index[lo:hi], self.is_write[lo:hi]

    def write_flags(self, proc: int) -> np.ndarray:
        """Per-access write flags for ``proc``, built from the burst columns.

        Unlike ``flat(proc)[2]`` this never materializes (or caches) the
        whole epoch's derived ``is_write`` column — only the processor's
        slice is expanded, so replay paths that only need one processor at
        a time stay O(proc accesses) in memory traffic.
        """
        if self._is_write is not None:
            return self._is_write[self.offsets[proc] : self.offsets[proc + 1]]
        b0 = int(self.burst_offsets[proc])
        b1 = int(self.burst_offsets[proc + 1])
        return np.repeat(self.burst_write[b0:b1], self.burst_length[b0:b1])

    @property
    def total_accesses(self) -> int:
        return int(self.offsets[-1])

    @property
    def bursts(self) -> list[list[Burst]]:
        """Read-only view: per-proc :class:`Burst` lists.

        Built lazily on first use; the Burst ``indices`` are slices of the
        packed ``index`` column (no copies).  Code on the hot path should
        use :meth:`flat` or the burst columns instead.
        """
        if self._bursts is None:
            out: list[list[Burst]] = []
            for p in range(self.nprocs):
                b0 = int(self.burst_offsets[p])
                b1 = int(self.burst_offsets[p + 1])
                lens = self.burst_length[b0:b1]
                starts = int(self.offsets[p]) + np.concatenate(
                    [np.zeros(1, dtype=np.int64), np.cumsum(lens, dtype=np.int64)]
                )
                out.append(
                    [
                        Burst(
                            int(self.burst_region[b0 + j]),
                            self.index[starts[j] : starts[j + 1]],
                            bool(self.burst_write[b0 + j]),
                        )
                        for j in range(b1 - b0)
                    ]
                )
            self._bursts = out
        return self._bursts

    def check_structure(self) -> None:
        """Raise ``ValueError`` if the columns are internally inconsistent."""
        n = self.nprocs
        if self.offsets.shape != (n + 1,) or self.burst_offsets.shape != (n + 1,):
            raise ValueError("packed epoch offset tables have wrong shape")
        if self.offsets[0] != 0 or self.burst_offsets[0] != 0:
            raise ValueError("packed epoch offsets must start at zero")
        if (np.diff(self.offsets) < 0).any() or (np.diff(self.burst_offsets) < 0).any():
            raise ValueError("packed epoch offsets must be non-decreasing")
        total = int(self.offsets[-1])
        # region/is_write are derived from the burst columns when not
        # supplied, so only externally provided ones can be inconsistent.
        names = ("index",) + tuple(
            name
            for name, col in (("region", self._region), ("is_write", self._is_write))
            if col is not None
        )
        for name in names:
            col = getattr(self, name)
            if col.ndim != 1 or col.shape[0] != total:
                raise ValueError(f"packed epoch column {name!r} has wrong length")
        nbursts = int(self.burst_offsets[-1])
        for name in ("burst_region", "burst_write", "burst_length"):
            col = getattr(self, name)
            if col.ndim != 1 or col.shape[0] != nbursts:
                raise ValueError(f"packed epoch column {name!r} has wrong length")
        if nbursts and int(self.burst_length.sum()) != total:
            raise ValueError("packed epoch burst lengths do not cover the accesses")
        if self.work.shape != (n,) or self.lock_acquires.shape != (n,):
            raise ValueError("packed epoch work/lock arrays have wrong shape")
