"""Property tests: the sealed columns against the recorded ops, and
decode-memo behaviour.

Randomized traces with locks, work, empty processors and empty epochs are
recorded through :class:`TraceBuilder`; the sealed epochs must reproduce
the recorded bursts exactly, the statistics must match a plain per-burst
reference computed from the op list, and the simulators must produce
identical counters whichever way the same accesses are staged (per-burst
calls or ragged batches) or stored (in memory, mmap, compressed v3).
"""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machines import native, simulate_hardware, simulate_hlrc, simulate_treadmarks
from repro.machines.dsm import intervals
from repro.machines.params import cluster_scaled, origin2000_scaled
from repro.trace import stats
from repro.trace.builder import TraceBuilder
from repro.trace.events import Trace
from repro.trace.io import load_trace, save_trace
from repro.trace.layout import Layout, decode_memo
from repro.trace.packed import PackedEpoch


@st.composite
def trace_ops(draw):
    """A random trace as a replayable op list: (nprocs, regions, epochs)."""
    nprocs = draw(st.integers(min_value=1, max_value=4))
    nregions = draw(st.integers(min_value=1, max_value=3))
    regions = [
        (f"r{i}", draw(st.integers(min_value=1, max_value=60)),
         draw(st.sampled_from([8, 72, 104, 680])))
        for i in range(nregions)
    ]
    epochs = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        bursts = []
        for p in range(nprocs):
            for _ in range(draw(st.integers(min_value=0, max_value=3))):
                region = draw(st.integers(min_value=0, max_value=nregions - 1))
                limit = regions[region][1]
                idx = draw(
                    st.lists(
                        st.integers(min_value=0, max_value=limit - 1),
                        min_size=0,
                        max_size=8,
                    )
                )
                write = draw(st.booleans())
                bursts.append((p, region, write, idx))
        work = [draw(st.floats(min_value=0, max_value=5)) for _ in range(nprocs)]
        locks = [draw(st.integers(min_value=0, max_value=3)) for _ in range(nprocs)]
        epochs.append((bursts, work, locks))
    return nprocs, regions, epochs


def build(ops, ragged=False):
    """Replay one op list through a builder, per-burst or as ragged batches."""
    nprocs, regions, epochs = ops
    tb = TraceBuilder(nprocs, label="e0")
    for name, count, size in regions:
        tb.add_region(name, count, size)
    for ei, (bursts, work, locks) in enumerate(epochs):
        for p, region, write, idx in bursts:
            if ragged:
                col = np.array(idx, dtype=np.int64)
                tb.emit_ragged(p, [(region, write, col, [0, col.shape[0]])])
            else:
                (tb.write if write else tb.read)(p, region, idx)
        for p in range(nprocs):
            if work[p]:
                tb.work(p, work[p])
            if locks[p]:
                tb.lock(p, locks[p])
        if ei < len(epochs) - 1:
            tb.barrier(f"e{ei + 1}")
    return tb.finish()


def recorded(ops):
    """Per kept epoch: per-proc lists of the non-empty recorded bursts."""
    nprocs, _regions, epochs = ops
    out = []
    for ei, (bursts, work, locks) in enumerate(epochs):
        per_proc = [[] for _ in range(nprocs)]
        for p, region, write, idx in bursts:
            if idx:
                per_proc[p].append((region, write, idx))
        # finish() drops a trailing epoch with nothing recorded in it.
        last = ei == len(epochs) - 1
        if last and not (any(per_proc) or any(work) or any(locks)):
            break
        out.append((f"e{ei}", per_proc, work, locks))
    return out


@given(trace_ops())
@settings(max_examples=100, deadline=None)
def test_structural_equivalence(ops):
    trace = build(ops)
    expected = recorded(ops)
    assert isinstance(trace, Trace)
    assert len(trace.epochs) == len(expected)
    total = 0
    for e, (label, per_proc, work, locks) in zip(trace.epochs, expected):
        assert isinstance(e, PackedEpoch)
        assert e.label == label
        np.testing.assert_array_equal(e.work, work)
        np.testing.assert_array_equal(e.lock_acquires, locks)
        for p in range(trace.nprocs):
            bursts = per_proc[p]
            regs, idx, writes = e.flat(p)
            assert regs.tolist() == [r for r, _, i in bursts for _ in i]
            assert idx.tolist() == [x for _, _, i in bursts for x in i]
            assert writes.tolist() == [w for _, w, i in bursts for _ in i]
            assert e.accesses(p) == idx.shape[0]
            total += idx.shape[0]
            view = [(b.region, b.is_write, b.indices.tolist()) for b in e.bursts[p]]
            assert view == bursts
    assert trace.total_accesses == total


def assert_simulators_agree(a, b):
    """Identical miss/message/byte counters across two traces."""
    ha = simulate_hardware(a, origin2000_scaled(64, a.nprocs))
    hb = simulate_hardware(b, origin2000_scaled(64, b.nprocs))
    np.testing.assert_array_equal(ha.l2_misses, hb.l2_misses)
    np.testing.assert_array_equal(ha.tlb_misses, hb.tlb_misses)
    np.testing.assert_array_equal(ha.invalidations, hb.invalidations)
    np.testing.assert_array_equal(ha.cold_misses, hb.cold_misses)
    np.testing.assert_array_equal(ha.coherence_misses, hb.coherence_misses)
    assert ha.time == hb.time
    for sim in (simulate_treadmarks, simulate_hlrc):
        ra = sim(a, cluster_scaled(nprocs=a.nprocs))
        rb = sim(b, cluster_scaled(nprocs=b.nprocs))
        np.testing.assert_array_equal(ra.messages, rb.messages)
        np.testing.assert_array_equal(ra.data_bytes, rb.data_bytes)
        np.testing.assert_array_equal(ra.page_fetches, rb.page_fetches)
        np.testing.assert_array_equal(ra.time, rb.time)


@given(trace_ops())
@settings(max_examples=25, deadline=None)
def test_simulator_equivalence(ops):
    """Ragged staging and the compressed v3 bundle (lazily decoded epochs)
    drive the simulators exactly like per-burst staging."""
    trace = build(ops)
    assert_simulators_agree(build(ops, ragged=True), trace)
    buf = io.BytesIO()
    save_trace(trace, buf, compression="zlib")
    buf.seek(0)
    assert_simulators_agree(load_trace(buf), trace)


def reference_stats(ops, layout):
    """Statistics computed burst by burst from the op list."""
    nprocs, _regions, epochs = ops
    writers: dict[int, set[int]] = {}
    readers: dict[int, set[int]] = {}
    owner = np.full(layout.regions[0].num_objects, -1, dtype=np.int64)
    lines: set[int] = set()
    reads = np.zeros(nprocs, dtype=np.int64)
    writes = np.zeros(nprocs, dtype=np.int64)
    for bursts, _work, _locks in epochs:
        for p, region, write, idx in bursts:
            if not idx:
                continue
            col = np.array(idx, dtype=np.int64)
            for pg in layout.pages(region, col, 4096).tolist():
                readers.setdefault(pg, set()).add(p)
                if write:
                    writers.setdefault(pg, set()).add(p)
            lines.update(layout.lines(region, col, 128).tolist())
            (writes if write else reads)[p] += len(idx)
        # Within an epoch the lowest-numbered writer of an object wins.
        for p, region, write, idx in sorted(bursts, key=lambda b: -b[0]):
            if write and region == 0 and idx:
                owner[idx] = p
    return writers, readers, owner, len(lines), reads, writes


@given(trace_ops())
@settings(max_examples=25, deadline=None)
def test_stats_equivalence(ops):
    trace = build(ops)
    layout = Layout.for_trace(trace)
    writers, readers, owner, nlines, reads, writes = reference_stats(ops, layout)
    assert stats.page_write_sets(trace, layout, 4096) == writers
    assert stats.page_read_sets(trace, layout, 4096) == readers
    np.testing.assert_array_equal(stats.update_map(trace, layout, 0), owner)
    assert stats.footprint(trace, layout, 128) == nlines
    counts = stats.access_counts(trace)
    np.testing.assert_array_equal(counts.reads, reads)
    np.testing.assert_array_equal(counts.writes, writes)


@given(ops=trace_ops())
@settings(max_examples=10, deadline=None)
def test_mmap_equivalence(ops, tmp_path_factory):
    """A mmap-loaded trace produces identical results to the in-memory one."""
    trace = build(ops)
    path = tmp_path_factory.mktemp("mmap") / "t.npt"
    save_trace(trace, path)
    mapped = load_trace(path, mmap=True)
    assert_simulators_agree(mapped, trace)
    in_memory = load_trace(path, mmap=False)
    assert_simulators_agree(in_memory, trace)


def _moldyn_trace():
    from repro.apps import AppConfig, Moldyn

    return Moldyn(AppConfig(n=256, nprocs=4, iterations=2, seed=3)).run()


class TestDecodeMemo:
    """The numpy front end (no compiler) decodes through the memo."""

    @pytest.fixture(autouse=True)
    def library_hidden(self, monkeypatch):
        monkeypatch.setattr(native, "_load", lambda: None)

    def make_trace(self):
        return _moldyn_trace()

    def test_platforms_share_one_decode(self):
        """TreadMarks then HLRC at the same page size: the HLRC run adds no
        decoding work (intervals come from the derived cache)."""
        trace = self.make_trace()
        memo = decode_memo(trace)
        simulate_treadmarks(trace, cluster_scaled(nprocs=4))
        decodes_after_tmk = memo.decodes
        assert decodes_after_tmk == len(trace.epochs)
        assert memo.distinct_geometries == 1
        simulate_hlrc(trace, cluster_scaled(nprocs=4))
        assert memo.decodes == decodes_after_tmk
        assert memo.hits > 0

    def test_sweep_decodes_once_per_geometry(self):
        """A page-size sweep decodes O(distinct geometries), not O(points)."""
        trace = self.make_trace()
        memo = decode_memo(trace)
        sizes = (1024, 4096, 16384)
        for page in sizes:
            simulate_treadmarks(trace, cluster_scaled(nprocs=4, page_size=page))
        assert memo.distinct_geometries == len(sizes)
        assert memo.decodes == len(sizes) * len(trace.epochs)
        # Re-running the whole sweep performs zero additional decodes.
        before = memo.decodes
        for page in sizes:
            simulate_treadmarks(trace, cluster_scaled(nprocs=4, page_size=page))
            simulate_hlrc(trace, cluster_scaled(nprocs=4, page_size=page))
        assert memo.decodes == before

    def test_hardware_uses_memo(self):
        trace = self.make_trace()
        memo = decode_memo(trace)
        params = origin2000_scaled(64, 4)
        simulate_hardware(trace, params)
        decodes = memo.decodes
        assert decodes == len(trace.epochs)
        simulate_hardware(trace, params)
        assert memo.decodes == decodes  # second run: all hits
        assert memo.hits > 0

    def test_memo_clear(self):
        trace = self.make_trace()
        memo = decode_memo(trace)
        simulate_treadmarks(trace)
        assert memo.distinct_geometries == 1
        memo.clear()
        assert memo.distinct_geometries == 0


@pytest.mark.skipif(not native.available(), reason="no C compiler")
class TestCompiledFrontEndSkipsMemo:
    """The compiled front end decodes no epoch through the memo, and the
    interval products it builds are still shared between protocols."""

    def test_platforms_share_one_interval_build(self, monkeypatch):
        trace = _moldyn_trace()
        memo = decode_memo(trace)
        builds = []
        real = intervals._trace_columns

        def counted(*args, **kwargs):
            builds.append(args[2])
            return real(*args, **kwargs)

        monkeypatch.setattr(intervals, "_trace_columns", counted)
        simulate_treadmarks(trace, cluster_scaled(nprocs=4))
        simulate_hlrc(trace, cluster_scaled(nprocs=4))
        assert builds == [4096]
        assert memo.hits > 0
        assert memo.decodes == 0
        assert memo.distinct_geometries == 0

    def test_hardware_decodes_nothing_through_memo(self):
        trace = _moldyn_trace()
        memo = decode_memo(trace)
        simulate_hardware(trace, origin2000_scaled(64, 4))
        assert memo.decodes == 0 and memo.hits == 0
