"""Burst-column front ends: compiled, numpy fallback and loop engine agree.

:class:`repro.machines.native.BurstDecoder` makes one C pass over an
epoch's burst columns: ``decode_lines`` feeds the origin replays and
``page_columns`` the DSM interval builder.  Their outputs must equal the
numpy decode they replace (``_proc_streams`` and ``intervals._page_columns``),
and every simulator counter must be the same whether the front end runs
compiled, through the numpy fallback (library hidden), or on the ``loop``
engine.  Malformed columns are rejected before any C call.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import APP_REGISTRY, AppConfig
from repro.errors import SimulationInputError
from repro.machines import cache, native
from repro.machines.cache import collapse_runs
from repro.machines.dsm import build_interval_ladder, intervals, simulate_dsm_sweep
from repro.machines.hardware import (
    _proc_streams,
    simulate_hardware,
    simulate_hardware_sweep,
)
from repro.machines.params import cluster_scaled, origin2000_scaled
from repro.trace.builder import TraceBuilder
from repro.trace.io import load_trace, save_trace
from repro.trace.layout import Layout, decode_epoch, decode_memo
from repro.trace.packed import PackedEpoch

pytestmark = pytest.mark.skipif(not native.available(), reason="no C compiler")

PAGE_SIZES = (256, 1024, 4096)


@st.composite
def traces(draw):
    """A random trace: object sizes below, at and above the unit sizes
    (so objects straddle lines and pages), empty procs, all-read and
    all-write epochs, and repeated writes of one object."""
    nprocs = draw(st.integers(min_value=1, max_value=4))
    tb = TraceBuilder(nprocs)
    counts = [
        draw(st.integers(min_value=1, max_value=40))
        for _ in range(draw(st.integers(min_value=1, max_value=3)))
    ]
    for r, count in enumerate(counts):
        tb.add_region(f"r{r}", count, draw(st.sampled_from([1, 8, 24, 100, 130, 680, 5000])))
    nepochs = draw(st.integers(min_value=1, max_value=3))
    for ei in range(nepochs):
        mode = draw(st.sampled_from(["mixed", "read", "write"]))
        for _ in range(draw(st.integers(min_value=0, max_value=6))):
            p = draw(st.integers(min_value=0, max_value=nprocs - 1))
            r = draw(st.integers(min_value=0, max_value=len(counts) - 1))
            top = counts[r] - 1
            if draw(st.booleans()):
                idx = [draw(st.integers(0, top))] * draw(st.integers(1, 5))
            else:
                idx = draw(st.lists(st.integers(0, top), max_size=12))
            write = mode == "write" or (mode == "mixed" and draw(st.booleans()))
            (tb.write if write else tb.read)(p, r, idx)
        if ei < nepochs - 1:
            tb.barrier(f"e{ei + 1}")
    return tb.finish()


def _mmapped(trace, tmp_path_factory):
    path = tmp_path_factory.mktemp("front") / "t.npt"
    save_trace(trace, path)
    return load_trace(path, mmap=True)


def assert_columns_match(trace, unit, align, page):
    """Compiled kernels == the numpy decode, epoch by epoch, proc by proc."""
    layout = Layout.for_trace(trace, align=align)
    decoder = native.BurstDecoder.for_layout(layout, unit)
    nunits = (layout.total_bytes >> (unit.bit_length() - 1)) + 1
    for epoch in trace.epochs:
        decoded = decode_epoch(epoch, layout, unit)
        acc, wr, ub, cross = intervals._page_columns(epoch, decoded, layout, unit)
        a, aoff, w, woff, u, c = decoder.page_columns(epoch)
        lines, loff, pages, poff, dist, doff, wl, wloff = decoder.decode_lines(
            epoch, page
        )
        for p in range(trace.nprocs):
            ws = slice(woff[p], woff[p + 1])
            np.testing.assert_array_equal(a[aoff[p] : aoff[p + 1]], acc[p])
            np.testing.assert_array_equal(w[ws], wr[p])
            np.testing.assert_array_equal(u[ws], ub[p])
            np.testing.assert_array_equal(c[ws], cross[p])
            ref, ref_pages, written = _proc_streams(
                epoch, decoded, p, unit, page, nunits
            )
            d = dist[doff[p] : doff[p + 1]]
            np.testing.assert_array_equal(lines[loff[p] : loff[p + 1]], collapse_runs(ref))
            np.testing.assert_array_equal(
                pages[poff[p] : poff[p + 1]], collapse_runs(ref_pages)
            )
            np.testing.assert_array_equal(np.sort(d), np.unique(ref))
            assert np.unique(d).shape == d.shape
            np.testing.assert_array_equal(wl[wloff[p] : wloff[p + 1]], written)


def counters(trace):
    """Every origin and DSM counter the cells and sweeps report."""
    decode_memo(trace).clear()  # interval products must be rebuilt per mode
    base = origin2000_scaled(64, trace.nprocs)
    out = []
    runs = [simulate_hardware(trace, base)] + simulate_hardware_sweep(
        trace, base, l2_bytes=[base.l2_bytes, 2 * base.l2_bytes],
        line_sizes=[32, base.line_size],
    )
    for res in runs:
        out.append((
            res.time, res.l2_misses.tolist(), res.tlb_misses.tolist(),
            res.invalidations.tolist(), res.cold_misses.tolist(),
            res.coherence_misses.tolist(), res.capacity_misses.tolist(),
        ))
    dsm = simulate_dsm_sweep(trace, cluster_scaled(nprocs=trace.nprocs), PAGE_SIZES)
    for proto in sorted(dsm):
        for size, res in sorted(dsm[proto].items()):
            out.append((
                proto, size, res.time, res.messages, res.data_bytes,
                res.page_fetches.tolist(), res.diff_fetches.tolist(),
            ))
    return out


def counters_three_ways(trace):
    """``counters`` compiled, on the loop engine, and with no library."""
    compiled = counters(trace)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cache, "DEFAULT_ENGINE", "loop")
        loop = counters(trace)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(native, "_load", lambda: None)
        fallback = counters(trace)
    return compiled, loop, fallback


class TestKernelsMatchNumpy:
    @given(trace=traces(), unit=st.sampled_from([32, 128, 256, 4096]),
           align=st.sampled_from([64, 4096]), page=st.sampled_from([64, 16384]))
    @settings(max_examples=60, deadline=None)
    def test_int64_index(self, trace, unit, align, page):
        assert_columns_match(trace, unit, align, page)

    @given(trace=traces(), unit=st.sampled_from([128, 1024]))
    @settings(max_examples=25, deadline=None)
    def test_int32_memmap_index(self, trace, unit, tmp_path_factory):
        mapped = _mmapped(trace, tmp_path_factory)
        if mapped.total_accesses:  # an empty column is stored as int64
            assert all(e.index.dtype == np.int32 for e in mapped.epochs)
        assert_columns_match(mapped, unit, 4096, 4096)

    def test_scratch_left_zeroed(self):
        trace = APP_REGISTRY["moldyn"](AppConfig(n=64, nprocs=4, iterations=1)).run()
        decoder = native.BurstDecoder.for_layout(Layout.for_trace(trace), 128)
        for epoch in trace.epochs:
            decoder.page_columns(epoch)
            decoder.decode_lines(epoch, 4096)
        assert not decoder._mark.any()
        assert not any(a.any() for a in decoder._page_scratch[1:])


class TestEnginesAgree:
    @given(trace=traces())
    @settings(max_examples=30, deadline=None)
    def test_random_traces(self, trace, tmp_path_factory):
        compiled, loop, fallback = counters_three_ways(trace)
        assert compiled == loop == fallback
        assert counters(_mmapped(trace, tmp_path_factory)) == compiled

    @pytest.mark.parametrize("app", sorted(APP_REGISTRY))
    def test_apps(self, app):
        trace = APP_REGISTRY[app](
            AppConfig(n=96, nprocs=4, iterations=1, seed=42)
        ).run()
        compiled, loop, fallback = counters_three_ways(trace)
        assert compiled == loop == fallback


def _epoch_with(epoch, **columns):
    fields = dict(
        offsets=epoch.offsets, index=epoch.index,
        burst_offsets=epoch.burst_offsets, burst_region=epoch.burst_region,
        burst_write=epoch.burst_write, burst_length=epoch.burst_length,
    )
    fields.update(columns)
    return PackedEpoch(epoch.nprocs, epoch.label, work=epoch.work,
                       lock_acquires=epoch.lock_acquires, **fields)


class TestRejectsBadColumns:
    @pytest.fixture
    def setup(self):
        tb = TraceBuilder(2)
        tb.add_region("a", 10, 24)
        tb.add_region("b", 4, 680)
        tb.write(0, 0, [0, 9, 3])
        tb.read(1, 1, [3, 0])
        trace = tb.finish()
        layout = Layout.for_trace(trace, align=4096)
        return trace, native.BurstDecoder.for_layout(layout, 128)

    @pytest.mark.parametrize("value", [10, -1, 2**40])
    @pytest.mark.parametrize("method", [
        lambda decoder, epoch: decoder.decode_lines(epoch, 4096),
        lambda decoder, epoch: decoder.page_columns(epoch),
    ], ids=["decode_lines", "page_columns"])
    def test_index_outside_its_region(self, setup, value, method):
        trace, decoder = setup
        epoch = trace.epochs[0]
        index = np.array(epoch.index)
        index[1] = value  # region a holds 10 objects
        with pytest.raises(SimulationInputError, match="num_objects"):
            method(decoder, _epoch_with(epoch, index=index))
        assert decoder._mark is None  # no C call ran

    def test_index_valid_in_another_region_only(self, setup):
        trace, decoder = setup
        epoch = trace.epochs[0]
        index = np.array(epoch.index)
        index[3] = 9  # in range for region a, not for region b (4 objects)
        with pytest.raises(SimulationInputError):
            decoder.decode_lines(_epoch_with(epoch, index=index), 4096)

    def test_int32_index_checked(self, setup):
        trace, decoder = setup
        epoch = trace.epochs[0]
        index = np.array(epoch.index, dtype=np.int32)
        index[0] = 10
        with pytest.raises(SimulationInputError):
            decoder.page_columns(_epoch_with(epoch, index=index))

    def test_region_outside_table(self, setup):
        trace, decoder = setup
        epoch = trace.epochs[0]
        breg = np.array(epoch.burst_region)
        breg[-1] = 2
        with pytest.raises(SimulationInputError, match="region"):
            decoder.page_columns(_epoch_with(epoch, burst_region=breg))

    def test_bursts_not_tiling(self, setup):
        trace, decoder = setup
        epoch = trace.epochs[0]
        blen = np.array(epoch.burst_length)
        blen[0] += 1
        with pytest.raises(SimulationInputError, match="tile"):
            decoder.decode_lines(_epoch_with(epoch, burst_length=blen), 4096)

    def test_simulators_raise_structured_error(self, setup):
        trace, _ = setup
        index = np.array(trace.epochs[0].index)
        index[0] = 10
        trace.epochs[0] = _epoch_with(trace.epochs[0], index=index)
        with pytest.raises(SimulationInputError):
            simulate_hardware(trace, origin2000_scaled(64, 2))
        with pytest.raises(SimulationInputError):
            build_interval_ladder(trace, (1024, 4096))

    def test_rejects_bad_unit(self):
        with pytest.raises(ValueError):
            native.BurstDecoder([0], [8], [1], 96)
