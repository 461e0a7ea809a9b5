"""Tests for trace data structures."""

import numpy as np
import pytest

from repro.trace.builder import TraceBuilder
from repro.trace.events import Burst, RegionSpec, Trace
from repro.trace.packed import PackedEpoch


class TestRegionSpec:
    def test_nbytes(self):
        assert RegionSpec("a", 10, 104).nbytes == 1040

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            RegionSpec("a", -1, 8)
        with pytest.raises(ValueError):
            RegionSpec("a", 1, 0)


class TestBurst:
    def test_coerces_indices(self):
        b = Burst(0, [3, 1, 2], is_write=False)
        assert b.indices.dtype == np.int64
        assert len(b) == 3

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            Burst(0, np.zeros((2, 2)), is_write=True)


def seal_one(nprocs, record=lambda tb: None, nregions=2) -> PackedEpoch:
    """One epoch sealed by a builder after ``record(tb)`` stages its bursts."""
    tb = TraceBuilder(nprocs)
    for r in range(nregions):
        tb.add_region(f"r{r}", 100, 8)
    record(tb)
    tb.barrier()
    return tb.finish().epochs[0]


class TestEpoch:
    def test_default_arrays(self):
        e = seal_one(4)
        assert len(e.bursts) == 4
        assert e.work.shape == (4,) and not e.work.any()
        assert e.lock_acquires.shape == (4,) and not e.lock_acquires.any()

    def test_accesses_counts_multiplicity(self):
        def record(tb):
            tb.read(0, 0, [1, 1, 2])
            tb.write(0, 0, [3])

        e = seal_one(2, record)
        assert e.accesses(0) == 4
        assert e.accesses(1) == 0

    def test_flat_preserves_order(self):
        def record(tb):
            tb.read(0, 0, [5, 6])
            tb.write(0, 1, [7])

        regions, indices, writes = seal_one(1, record).flat(0)
        assert regions.tolist() == [0, 0, 1]
        assert indices.tolist() == [5, 6, 7]
        assert writes.tolist() == [False, False, True]

    def test_flat_empty(self):
        regions, indices, writes = seal_one(1).flat(0)
        assert regions.shape == (0,)

    def test_rejects_zero_procs(self):
        with pytest.raises(ValueError):
            PackedEpoch.seal(0, "", [], np.zeros(0), np.zeros(0, dtype=np.int64))


class TestTrace:
    def make(self, extra=()) -> Trace:
        """Two-region trace; ``extra`` stages more (region, is_write,
        indices) bursts for processor 1, unchecked, so tests can seal
        damaged epochs that ``TraceBuilder.finish`` would refuse."""
        t = Trace(nprocs=2)
        t.regions.append(RegionSpec("bodies", 10, 8))
        t.regions.append(RegionSpec("cells", 4, 16))
        staged = [
            [(0, True, np.array([0, 1], dtype=np.int64))],
            [(r, w, np.array(idx, dtype=np.int64)) for r, w, idx in extra],
        ]
        work = np.array([5.0, 0.0])
        t.epochs.append(
            PackedEpoch.seal(2, "forces", staged, work, np.zeros(2, dtype=np.int64))
        )
        return t

    def test_region_id(self):
        t = self.make()
        assert t.region_id("cells") == 1
        with pytest.raises(KeyError):
            t.region_id("nope")

    def test_totals(self):
        t = self.make()
        t.validate()
        assert t.total_accesses == 2
        assert t.total_work == 5.0

    def test_labelled_epochs(self):
        t = self.make()
        assert len(t.epochs_labelled("forces")) == 1
        assert t.epochs_labelled("nope") == []

    def test_validate_catches_bad_region(self):
        t = self.make([(9, False, [0])])
        with pytest.raises(ValueError, match="unknown region"):
            t.validate()

    def test_validate_catches_out_of_range_index(self):
        t = self.make([(0, False, [99])])
        with pytest.raises(ValueError, match="out of range"):
            t.validate()

    def test_validate_catches_nproc_mismatch(self):
        t = self.make()
        t.epochs.append(seal_one(3))
        with pytest.raises(ValueError, match="mismatch"):
            t.validate()
