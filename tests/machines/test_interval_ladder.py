"""Folded interval ladders vs independent per-size interval builds.

``build_interval_ladder`` summarizes a trace once at the finest page
size and folds the summaries up the 2x hierarchy.  The fold must be
*exact*: at every requested size the emitted ``EpochPageInfo`` lists —
page ids, write sets, and capped dirty-byte counts — equal what
``build_intervals`` computes from scratch at that size, and the DSM
sweep built on top must reproduce standalone per-point simulations
(including their default layouts) bit for bit.
"""

import numpy as np
import pytest

from repro.apps import AppConfig, BarnesHut
from repro.apps.moldyn import Moldyn
from repro.machines import native
from repro.machines.dsm import (
    build_interval_ladder,
    build_intervals,
    simulate_dsm_sweep,
    simulate_hlrc,
    simulate_hlrc_sweep,
    simulate_treadmarks,
    simulate_treadmarks_sweep,
)
from repro.machines.params import cluster_scaled
from repro.trace.layout import DecodeMemo, Layout, decode_memo

PAGE_SIZES = (512, 1024, 4096, 8192)


def _trace(app_cls, n=640, nprocs=4, iterations=2, seed=7, version=None):
    app = app_cls(AppConfig(n=n, nprocs=nprocs, iterations=iterations, seed=seed))
    if version:
        app.reorder(version)
    return app.run()


def assert_infos_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.label == w.label
        assert np.array_equal(g.work, w.work)
        assert np.array_equal(g.lock_acquires, w.lock_acquires)
        assert g.nprocs == w.nprocs
        for p in range(g.nprocs):
            assert np.array_equal(g.accesses[p], w.accesses[p]), p
            assert np.array_equal(g.writes[p], w.writes[p]), p
            assert np.array_equal(g.write_bytes[p], w.write_bytes[p]), p


class TestLadderEqualsPerSizeBuild:
    @pytest.mark.parametrize("version", [None, "hilbert"])
    def test_moldyn(self, version):
        trace = _trace(Moldyn, version=version)
        ladder, layout = build_interval_ladder(trace, PAGE_SIZES)
        for size in PAGE_SIZES:
            want, _ = build_intervals(trace, layout, page_size=size)
            assert_infos_equal(ladder[size], want)

    def test_barnes_hut(self):
        trace = _trace(BarnesHut)
        ladder, layout = build_interval_ladder(trace, PAGE_SIZES)
        for size in PAGE_SIZES:
            want, _ = build_intervals(trace, layout, page_size=size)
            assert_infos_equal(ladder[size], want)

    def test_single_size_ladder(self):
        trace = _trace(Moldyn)
        ladder, layout = build_intervals(trace, page_size=4096), None
        infos, lay = build_interval_ladder(trace, (4096,))
        want, _ = build_intervals(trace, lay, page_size=4096)
        assert_infos_equal(infos[4096], want)

    def test_rejects_non_power_of_two(self):
        trace = _trace(Moldyn, n=128, iterations=1)
        with pytest.raises(Exception):
            build_interval_ladder(trace, (4096, 3000))


class TestLadderMemo:
    """Without a compiler the ladder reads the finest-size decode once and
    does not keep it: its own interval products are what later calls
    reuse."""

    @pytest.fixture(autouse=True)
    def library_hidden(self, monkeypatch):
        monkeypatch.setattr(native, "_load", lambda: None)

    def _counting(self, memo):
        calls = []
        epoch = memo.epoch

        def counted(*args, **kwargs):
            calls.append(args)
            return epoch(*args, **kwargs)

        memo.epoch = counted
        return calls

    def test_finest_decode_not_retained(self):
        trace = _trace(BarnesHut)
        layout = Layout.for_trace(trace, align=max(PAGE_SIZES))
        memo = decode_memo(trace)
        finest = DecodeMemo.geometry_key(layout, min(PAGE_SIZES))
        cached = memo.epoch(layout, min(PAGE_SIZES), 0)  # already held
        before = {k: set(v) for k, v in memo._geometries.items()}
        hits, decodes = memo.hits, memo.decodes
        requests = self._counting(memo)
        build_interval_ladder(trace, PAGE_SIZES, layout)
        assert {k: set(v) for k, v in memo._geometries.items()} == before
        assert memo._geometries[finest][0] is cached
        assert len(requests) == len(trace.epochs)
        assert (memo.hits - hits) + (memo.decodes - decodes) == len(requests)
        assert memo.hits - hits == 1  # the entry that was already cached

    def test_repeat_call_reuses_interval_products(self):
        trace = _trace(Moldyn)
        first, layout = build_interval_ladder(trace, PAGE_SIZES)
        requests = self._counting(decode_memo(trace))
        second, _ = build_interval_ladder(trace, PAGE_SIZES, layout)
        assert requests == []
        for size in PAGE_SIZES:
            assert second[size] is first[size]


@pytest.mark.skipif(not native.available(), reason="no C compiler")
class TestCompiledLadderMemo:
    """The compiled ladder decodes nothing through the memo; its interval
    products are still what later calls reuse."""

    def test_no_memo_decodes(self):
        trace = _trace(BarnesHut)
        memo = decode_memo(trace)
        first, layout = build_interval_ladder(trace, PAGE_SIZES)
        assert memo.decodes == 0 and memo.distinct_geometries == 0
        second, _ = build_interval_ladder(trace, PAGE_SIZES, layout)
        for size in PAGE_SIZES:
            assert second[size] is first[size]
        assert memo.decodes == 0


class TestDSMSweepEqualsStandalone:
    """Each sweep point == a standalone run with its own default layout."""

    def _assert_same(self, res, ref):
        assert res.messages == ref.messages
        assert res.data_bytes == ref.data_bytes
        assert res.time == ref.time
        assert res.barriers == ref.barriers
        assert res.lock_acquires == ref.lock_acquires
        assert np.array_equal(res.page_fetches, ref.page_fetches)
        assert np.array_equal(res.diff_fetches, ref.diff_fetches)
        assert np.array_equal(res.diff_bytes, ref.diff_bytes)
        assert res.phase_times == ref.phase_times

    def test_treadmarks_points(self):
        trace = _trace(Moldyn, version="hilbert")
        base = cluster_scaled(nprocs=4)
        out = simulate_treadmarks_sweep(trace, base, PAGE_SIZES)
        for size in PAGE_SIZES:
            ref = simulate_treadmarks(trace, cluster_scaled(nprocs=4, page_size=size))
            self._assert_same(out[size], ref)

    def test_hlrc_points(self):
        trace = _trace(BarnesHut)
        base = cluster_scaled(nprocs=4)
        out = simulate_hlrc_sweep(trace, base, PAGE_SIZES)
        for size in PAGE_SIZES:
            ref = simulate_hlrc(trace, cluster_scaled(nprocs=4, page_size=size))
            self._assert_same(out[size], ref)

    def test_both_protocols_one_ladder(self):
        trace = _trace(Moldyn)
        out = simulate_dsm_sweep(
            trace, cluster_scaled(nprocs=4), (1024, 4096)
        )
        assert set(out) == {"treadmarks", "hlrc"}
        assert set(out["treadmarks"]) == {1024, 4096}

    def test_unknown_protocol(self):
        trace = _trace(Moldyn, n=128, iterations=1)
        with pytest.raises(ValueError):
            simulate_dsm_sweep(trace, protocols=("magic",))
