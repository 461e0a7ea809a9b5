"""Tests for trace serialization (packed ``.npt`` bundles)."""

import io
import json

import numpy as np
import pytest

from repro.errors import TraceCorruptError, TraceVersionError
from repro.runtime.faults import write_with_version
from repro.trace.builder import TraceBuilder
from repro.trace.events import Trace
from repro.trace.io import load_trace, save_trace


def roundtrip(trace, tmp_path, mmap=True):
    path = tmp_path / "t.npt"
    save_trace(trace, path)
    return load_trace(path, mmap=mmap)


def make_trace():
    tb = TraceBuilder(3, label="a")
    r0 = tb.add_region("bodies", 64, 104)
    r1 = tb.add_region("cells", 16, 216)
    tb.read(0, r0, [1, 2, 3])
    tb.write(1, r0, [4])
    tb.read(2, r1, [0, 5])
    tb.work(0, 2.5)
    tb.lock(1, 7)
    tb.barrier("b")
    tb.update(0, r1, [3, 3, 2])
    tb.work(1, 1.0)
    return tb.finish()


class TestRoundtrip:
    def test_structure_preserved(self, tmp_path):
        t = make_trace()
        t2 = roundtrip(t, tmp_path)
        assert t2.nprocs == t.nprocs
        assert [r.name for r in t2.regions] == ["bodies", "cells"]
        assert [e.label for e in t2.epochs] == ["a", "b"]

    def test_loads_as_packed_views(self, tmp_path):
        t2 = roundtrip(make_trace(), tmp_path)
        assert isinstance(t2, Trace)
        # flat() is a view into the mapped columns, not a copy.
        regs, idx, writes = t2.epochs[0].flat(0)
        assert np.shares_memory(idx, t2.epochs[0].index)

    def test_bursts_identical(self, tmp_path):
        t = make_trace()
        t2 = roundtrip(t, tmp_path)
        for e, e2 in zip(t.epochs, t2.epochs):
            for p in range(t.nprocs):
                assert len(e.bursts[p]) == len(e2.bursts[p])
                for b, b2 in zip(e.bursts[p], e2.bursts[p]):
                    assert b.region == b2.region
                    assert b.is_write == b2.is_write
                    assert np.array_equal(b.indices, b2.indices)

    def test_work_and_locks_preserved(self, tmp_path):
        t = make_trace()
        t2 = roundtrip(t, tmp_path)
        assert t2.epochs[0].work[0] == 2.5
        assert t2.epochs[0].lock_acquires[1] == 7

    def test_simulations_agree(self, tmp_path):
        """The serialized trace drives the machine models identically."""
        from repro.apps import AppConfig, Moldyn
        from repro.machines import simulate_hlrc, simulate_treadmarks

        app = Moldyn(AppConfig(n=256, nprocs=4, iterations=2, seed=9))
        t = app.run()
        t2 = roundtrip(t, tmp_path)
        a, b = simulate_treadmarks(t), simulate_treadmarks(t2)
        assert a.messages == b.messages and a.data_bytes == b.data_bytes
        c, d = simulate_hlrc(t), simulate_hlrc(t2)
        assert c.messages == d.messages and c.time == d.time

    def test_mmap_false_loads_in_memory(self, tmp_path):
        t = make_trace()
        t2 = roundtrip(t, tmp_path, mmap=False)
        assert isinstance(t2, Trace)
        assert not isinstance(t2.epochs[0].index, np.memmap)
        assert t2.total_accesses == t.total_accesses

    def test_empty_trace(self, tmp_path):
        tb = TraceBuilder(2)
        tb.add_region("o", 4, 8)
        t = tb.finish()
        t2 = roundtrip(t, tmp_path)
        assert t2.epochs == []
        assert t2.nprocs == 2

    def test_version_check(self, tmp_path):
        path = tmp_path / "bad.npt"
        write_with_version(path, version=99)
        with pytest.raises(ValueError, match="version"):
            load_trace(path)

    def test_loaded_trace_validates(self, tmp_path):
        t2 = roundtrip(make_trace(), tmp_path)
        t2.validate()


def _write_v1_npz(path, version=1):
    """A file in the retired v1 layout: a zip of arrays with a JSON header."""
    header = json.dumps({"version": version, "nprocs": 1, "regions": [], "epochs": []})
    with open(path, "wb") as fh:
        np.savez_compressed(
            fh,
            header=np.frombuffer(header.encode("utf-8"), dtype=np.uint8),
            e0_p0_indices=np.arange(8, dtype=np.int64),
        )


class TestLegacyNpz:
    """Format v1 ``.npz`` files are no longer read, and say so."""

    def test_v1_npz_is_version_error(self, tmp_path):
        path = tmp_path / "t.npz"
        _write_v1_npz(path)
        with pytest.raises(TraceVersionError, match="v1") as exc:
            load_trace(path)
        assert "regenerate" in str(exc.value)
        with open(path, "rb") as fh:
            with pytest.raises(TraceVersionError, match="v1"):
                load_trace(fh)

    def test_unknown_magic_is_corruption_not_version(self, tmp_path):
        path = tmp_path / "t.npt"
        path.write_bytes(b"NOTATRACE" + bytes(64))
        with pytest.raises(TraceCorruptError) as exc:
            load_trace(path)
        assert not isinstance(exc.value, TraceVersionError)


class TestAtomicity:
    def test_no_temp_files_left_behind(self, tmp_path):
        save_trace(make_trace(), tmp_path / "t.npt")
        assert [p.name for p in tmp_path.iterdir()] == ["t.npt"]

    def test_failed_write_preserves_old_file(self, tmp_path, monkeypatch):
        """An exception mid-write never clobbers the existing trace."""
        import repro.trace.io as trace_io

        path = tmp_path / "t.npt"
        save_trace(make_trace(), path)
        good = path.read_bytes()

        def exploding_writer(fh, trace):
            fh.write(b"partial garbage")
            raise RuntimeError("disk full")

        monkeypatch.setattr(trace_io, "_write_packed", exploding_writer)
        with pytest.raises(RuntimeError, match="disk full"):
            save_trace(make_trace(), path)
        assert path.read_bytes() == good  # old file untouched
        assert [p.name for p in tmp_path.iterdir()] == ["t.npt"]  # no debris

    def test_exact_destination_path(self, tmp_path):
        """save_trace writes exactly where asked — no suffix munging."""
        save_trace(make_trace(), tmp_path / "bare")
        assert (tmp_path / "bare").exists()
        load_trace(tmp_path / "bare").validate()


class TestCorruption:
    def test_truncated_file_is_structured_error(self, tmp_path):
        path = tmp_path / "t.npt"
        save_trace(make_trace(), path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(TraceCorruptError):
            load_trace(path)

    def test_truncated_legacy_npz(self, tmp_path):
        """A cut-off v1 archive is still a structured error, never a crash."""
        path = tmp_path / "t.npz"
        _write_v1_npz(path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(TraceCorruptError):
            load_trace(path)

    def test_corruption_error_is_value_error(self, tmp_path):
        path = tmp_path / "t.npt"
        path.write_bytes(b"this is not a trace file at all")
        with pytest.raises(ValueError):
            load_trace(path)

    def test_version_mismatch_is_structured(self, tmp_path):
        path = tmp_path / "bad.npt"
        write_with_version(path, version=99)
        with pytest.raises(TraceVersionError, match="version"):
            load_trace(path)

    def test_missing_file_stays_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_trace(tmp_path / "absent.npt")

    def test_out_of_range_indices_are_corruption(self):
        """A structurally valid bundle whose payload violates the trace
        invariants is corruption too (validate() runs on load) — here on
        the in-memory (file-like) load path."""
        from repro.trace.io import _parse_packed_header

        buf = io.BytesIO()
        save_trace(make_trace(), buf)
        blob = bytearray(buf.getvalue())
        header, data_start = _parse_packed_header(bytes(blob))
        spec = header["arrays"]["index"]
        off = data_start + spec["offset"]
        dtype = np.dtype(spec["dtype"])
        idx = np.frombuffer(
            bytes(blob[off : off + spec["shape"][0] * dtype.itemsize]), dtype=dtype
        )
        # Point every index far outside every region.
        blob[off : off + idx.nbytes] = (idx + 10_000_000).tobytes()
        with pytest.raises(TraceCorruptError):
            load_trace(io.BytesIO(bytes(blob)))

    def test_out_of_range_indices_packed(self, tmp_path):
        """Same invariant check on a packed bundle: scribble the index
        column with huge values, keep the structure intact."""
        from repro.errors import TraceCorruptError
        from repro.trace.io import _MAGIC, _parse_packed_header

        path = tmp_path / "t.npt"
        save_trace(make_trace(), path)
        blob = bytearray(path.read_bytes())
        header, data_start = _parse_packed_header(bytes(blob))
        spec = header["arrays"]["index"]
        off = data_start + spec["offset"]
        bad = np.full(
            spec["shape"][0], 10_000_000, dtype=np.dtype(spec["dtype"])
        ).tobytes()
        blob[off : off + len(bad)] = bad
        path.write_bytes(bytes(blob))
        with pytest.raises(TraceCorruptError):
            load_trace(path)


@pytest.fixture(scope="module")
def app_trace_file(tmp_path_factory):
    from repro.apps import APP_REGISTRY, AppConfig

    app = APP_REGISTRY["moldyn"](AppConfig(n=384, nprocs=8, iterations=2, seed=3))
    app.reorder("hilbert")
    path = tmp_path_factory.mktemp("zerocopy") / "t.npt"
    save_trace(app.run(), path)
    return path


def _probe_column_sharing(trace_path):
    """Worker probe: are the index columns views over the mapped file?"""
    trace = load_trace(trace_path, mmap=True, validate=False)
    idx = np.asarray(trace.epochs[0].index)
    base = idx
    while getattr(base, "base", None) is not None:
        base = base.base
    return {
        "owndata": bool(idx.flags["OWNDATA"]),
        "base_type": type(base).__name__,
    }


class TestZeroCopy:
    """Executor workers (``run_matrix_cell``, ``run_sweep_group``) mmap-load
    cached bundles: their columns are views over the file, not copies."""

    def test_worker_columns_are_mmap_views(self, app_trace_file):
        from repro.runtime.executor import ExecutorConfig, Task, run_tasks

        tasks = [Task(key="probe", fn=_probe_column_sharing,
                      args=(str(app_trace_file),))]
        out = run_tasks(tasks, ExecutorConfig(jobs=2, task_timeout=None))["probe"]
        assert out["owndata"] is False
        # The view chain bottoms out at the mapped file (np.memmap, whose
        # own buffer is an mmap.mmap) — never a heap-allocated copy.
        assert out["base_type"] in ("memmap", "mmap")

    def test_no_index_widening_on_load(self, app_trace_file):
        """int32 disk columns stay narrow — the premise of page sharing."""
        trace = load_trace(app_trace_file)
        for epoch in trace.epochs:
            idx = np.asarray(epoch.index)
            assert idx.dtype in (np.dtype(np.int32), np.dtype(np.int64))
            assert not idx.flags["OWNDATA"]
