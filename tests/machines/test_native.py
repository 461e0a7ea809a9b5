"""Build cache of the compiled replay library.

The library is compiled on first use into ``$XDG_CACHE_HOME/repro/kernels``
under a name that hashes the source, the compiler banner and the flags.
These tests build into a temporary cache directory.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.errors import ConfigError
from repro.machines import native

pytestmark = pytest.mark.skipif(
    not native.available(), reason="no C compiler for the compiled replay"
)

SRC = str(Path(repro.__file__).resolve().parents[1])

# Loads the library and replays a stream whose misses are known:
# 2 sets x 1 way, keys 0 2 0 1 -> 0 and 2 share set 0 and evict each other.
_CHILD = """
import numpy as np
from repro.machines import native
native.require()
print(native.lru_replay(np.array([0, 2, 0, 1]), 2, 1, np.empty(0))[0])
"""


@pytest.fixture
def kernel_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    return tmp_path / "repro" / "kernels"


def test_concurrent_first_builds_both_load(kernel_dir):
    env = {**os.environ, "PYTHONPATH": SRC}
    procs = [
        subprocess.Popen([sys.executable, "-c", _CHILD], env=env,
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for _ in range(2)
    ]
    outs = [p.communicate(timeout=120) for p in procs]
    for p, (out, err) in zip(procs, outs):
        assert p.returncode == 0, err
        assert out.strip() == "4"
    built = sorted(f.name for f in kernel_dir.iterdir())
    assert len(built) == 1 and built[0].startswith("replay-"), built


def test_cached_library_is_reused(kernel_dir):
    first = native.build()
    stamp = first.stat().st_mtime_ns
    assert native.build() == first
    assert first.stat().st_mtime_ns == stamp


def test_changed_source_rebuilds(kernel_dir):
    first = native.build()
    second = native.build(native._SOURCE + "\n/* changed */\n")
    assert second != first
    assert first.exists() and second.exists()
    assert sorted(p.name for p in kernel_dir.iterdir()) == sorted(
        [first.name, second.name]
    )


def test_missing_or_broken_compiler_is_config_error(kernel_dir, monkeypatch):
    monkeypatch.setenv("CC", "/nonexistent/cc")
    with pytest.raises(ConfigError, match="no C compiler"):
        native.build()
    monkeypatch.setenv("CC", "false")
    with pytest.raises(ConfigError, match="does not run"):
        native.build()
    assert not kernel_dir.exists()


def test_compile_error_is_config_error(kernel_dir):
    with pytest.raises(ConfigError, match="compiling"):
        native.build("this is not C")
    assert list(kernel_dir.iterdir()) == []  # no half-written library left


def test_rejects_geometry_the_c_code_cannot_index():
    keys = np.arange(8)
    for nsets, ways in ((0, 2), (3, 2), (4, 0)):
        with pytest.raises(ValueError):
            native.lru_replay(keys, nsets, ways, np.empty(0))
        with pytest.raises(ValueError):
            native.mattson_replay(keys, nsets, ways, np.empty(0), np.empty(0))
    with pytest.raises(ValueError, match="length"):
        native.mattson_replay(keys, 1, 4, np.array([1, 2]), np.array([0]))
