"""Equivalence tests: compiled replay kernels vs the loop reference.

The kernels must be *count-for-count* identical to the OrderedDict
reference — misses, evictions, resident set, and per-set LRU order —
on randomized streams with interleaved invalidations, including the
empty-stream and collapse edge cases.  The whole-simulator test then
checks that ``simulate_hardware`` produces identical results whichever
engine the caches dispatch to.

Tests that need the compiled library skip when no C compiler is
available; the fallback tests at the end run either way (they hide the
compiler themselves).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.machines import cache as cache_mod
from repro.machines import native
from repro.machines.cache import LRUCache, SetAssocCache, collapse_runs
from repro.machines.kernels import SetAssocSweep, lru_kernel, setassoc_kernel

needs_kernel = pytest.mark.skipif(
    not native.available(), reason="no C compiler for the compiled replay"
)


@pytest.fixture
def force_engine(monkeypatch):
    def _force(name):
        monkeypatch.setattr(cache_mod, "DEFAULT_ENGINE", name)

    return _force


def _loop_twin(kind, nsets, assoc):
    if kind == "lru":
        return LRUCache(assoc)
    return SetAssocCache(nsets, assoc)


@needs_kernel
@pytest.mark.parametrize(
    "kind,nsets,assoc",
    [("lru", 1, 1), ("lru", 1, 7), ("lru", 1, 64), ("sa", 4, 2), ("sa", 8, 1), ("sa", 16, 4)],
)
def test_kernel_equals_loop_with_invalidations(kind, nsets, assoc, rng):
    """Segmented replay with invalidations between segments: all counters
    and the exact resident order must match the reference at every step."""
    loop = _loop_twin(kind, nsets, assoc)
    kern = _loop_twin(kind, nsets, assoc)
    for seg in range(6):
        keys = rng.integers(0, 80, int(rng.integers(0, 300)))
        m_loop = loop.access_stream(keys, collapse=False, engine="loop")
        m_kern = kern.access_stream(keys, collapse=False, engine="kernel")
        assert m_loop == m_kern
        assert loop.misses == kern.misses
        assert loop.evictions == kern.evictions
        assert loop.accesses == kern.accesses
        assert loop.resident().tolist() == kern.resident().tolist()
        targets = np.unique(rng.integers(0, 80, int(rng.integers(0, 20))))
        n_loop = loop.invalidate(targets)
        removed = kern.invalidate_present(targets)
        assert n_loop == removed.shape[0]
        assert loop.resident().tolist() == kern.resident().tolist()


@needs_kernel
def test_empty_stream_and_empty_cache():
    for c in (LRUCache(4), SetAssocCache(4, 2)):
        assert c.access_stream(np.empty(0, dtype=np.int64), engine="kernel") == 0
        assert c.misses == 0 and len(c) == 0
    res = setassoc_kernel(np.empty(0, dtype=np.int64), 4, 2, None)
    assert res.misses == 0 and res.evictions == 0 and res.resident.shape == (0,)
    res = lru_kernel(np.array([3, 3, 3]), 2)
    assert res.misses == 1 and res.resident.tolist() == [3]


@needs_kernel
def test_collapse_runs_same_counts_both_engines(rng):
    raw = np.repeat(rng.integers(0, 30, 200), rng.integers(1, 5, 200))
    for engine in ("loop", "kernel"):
        a = LRUCache(8)
        b = LRUCache(8)
        a.access_stream(raw, collapse=True, engine=engine)
        b.access_stream(raw, collapse=False, engine=engine)
        assert a.misses == b.misses
        # accesses counts the pre-collapse stream either way
        assert a.accesses == b.accesses == raw.shape[0]
        assert a.resident().tolist() == b.resident().tolist()


@needs_kernel
def test_auto_dispatch(force_engine):
    """auto uses the kernel for streams of any length, so hot loops never
    materialize dicts; point operations still do."""
    force_engine("auto")
    c = LRUCache(16)
    c.access_stream(np.array([1, 2]))
    assert c._arr is not None and c._sets is None
    assert c.access(1) is True  # point op materializes the dict form
    assert c._sets is not None and c._arr is None
    c.access_stream(np.array([3]))
    assert c._arr is not None and c.resident().tolist() == [2, 1, 3]


@needs_kernel
@given(
    data=st.data(),
    nsets=st.sampled_from([1, 2, 8]),
    assoc=st.integers(1, 5),
    extra=st.integers(0, 3),
)
@settings(max_examples=40, deadline=None)
def test_property_streams_with_invalidations(data, nsets, assoc, extra):
    """Kernel cache and sweep against the loop oracle, negative keys
    included.  The sweep tracks up to ``assoc + extra`` ways and is read
    at ``assoc``."""
    loop = SetAssocCache(nsets, assoc)
    kern = SetAssocCache(nsets, assoc)
    sweep = SetAssocSweep(nsets, assoc + extra)
    nsegs = data.draw(st.integers(1, 4))
    for _ in range(nsegs):
        keys = np.array(
            data.draw(st.lists(st.integers(-40, 40), max_size=120)), dtype=np.int64
        )
        collapse = data.draw(st.booleans())
        m_loop = loop.access_stream(keys, collapse=collapse, engine="loop")
        assert m_loop == kern.access_stream(keys, collapse=collapse, engine="kernel")
        assert m_loop == sweep.access_stream(keys)[assoc:].sum()
        inval = np.unique(
            np.array(data.draw(st.lists(st.integers(-40, 40), max_size=10)), dtype=np.int64)
        )
        n_loop = loop.invalidate(inval)
        assert n_loop == kern.invalidate_present(inval).shape[0]
        assert n_loop == (sweep.invalidate_present(inval)[1] < assoc).sum()
        assert loop.resident().tolist() == kern.resident().tolist()
        assert loop.misses == kern.misses
        assert loop.evictions == kern.evictions


@needs_kernel
def test_simulate_hardware_engine_equivalence(force_engine):
    """Whole-simulator equality: the Moldyn trace replayed with the loop
    engine and the kernel engine yields identical counters and timing."""
    from repro.apps import AppConfig, Moldyn
    from repro.machines.hardware import simulate_hardware
    from repro.machines.params import origin2000_scaled

    app = Moldyn(AppConfig(n=256, nprocs=4, iterations=2, seed=11))
    trace = app.run()
    params = origin2000_scaled(256, 4)
    results = {}
    for engine in ("loop", "kernel"):
        force_engine(engine)
        results[engine] = simulate_hardware(trace, params)
    a, b = results["loop"], results["kernel"]
    assert np.array_equal(a.l2_misses, b.l2_misses)
    assert np.array_equal(a.tlb_misses, b.tlb_misses)
    assert np.array_equal(a.invalidations, b.invalidations)
    assert np.array_equal(a.cold_misses, b.cold_misses)
    assert np.array_equal(a.coherence_misses, b.coherence_misses)
    assert np.array_equal(a.capacity_misses, b.capacity_misses)
    assert a.time == b.time


@pytest.fixture
def no_compiler(monkeypatch):
    """Hide the C compiler and forget any library this process loaded."""
    monkeypatch.setenv("CC", "/nonexistent/cc")
    monkeypatch.setattr(native, "_lib", None)
    monkeypatch.setattr(native, "_error", None)


def test_no_compiler_kernel_raises(no_compiler):
    assert not native.available()
    with pytest.raises(ConfigError, match="compiler"):
        LRUCache(4).access_stream(np.arange(10), engine="kernel")
    with pytest.raises(ConfigError):
        setassoc_kernel(np.arange(10), 4, 2)


def test_no_compiler_default_engine_matches_loop(no_compiler, force_engine, rng):
    """Without a compiler ``auto`` (and so the default) is the loop engine,
    and the sweep falls back to its Python stack: same counts."""
    force_engine("auto")
    auto, loop = SetAssocCache(4, 2), SetAssocCache(4, 2)
    sweep = SetAssocSweep(4, 3)
    for _ in range(4):
        keys = rng.integers(-10, 60, 300)
        m = loop.access_stream(keys, engine="loop")
        assert auto.access_stream(keys) == m
        assert sweep.access_stream(keys)[2:].sum() == m
        inval = np.unique(rng.integers(-10, 60, 15))
        n = loop.invalidate(inval)
        assert auto.invalidate_present(inval).shape[0] == n
        assert (sweep.invalidate_present(inval)[1] < 2).sum() == n
        assert auto.resident().tolist() == loop.resident().tolist()
    assert auto.evictions == loop.evictions
