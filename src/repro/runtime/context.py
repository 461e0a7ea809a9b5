"""The runtime context: one object that switches resilience on.

The experiment runner consults the *installed* :class:`RuntimeContext`
(module-level, like the runner's own memoization cache) for a persistent
trace cache, executor settings for parallel trace prefetch, and an
optional fault plan (tests only).  Nothing is installed by default, so the
library behaves exactly as before unless the CLI (``--jobs``,
``--cache-dir``, ...), the benchmark harness (``REPRO_CACHE_DIR``,
``REPRO_JOBS``), or a test installs one.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field

from .cache import TraceCache
from .executor import ExecutorConfig
from .faults import FaultPlan

__all__ = ["RuntimeContext", "get_runtime", "set_runtime", "use_runtime"]


@dataclass
class RuntimeContext:
    """Resilience settings for experiment runs.

    ``cache=None`` disables persistence; ``resume=False`` keeps writing to
    the cache but never reads from it (forced regeneration);
    ``executor.jobs > 1`` enables parallel trace prefetch in
    :func:`repro.experiments.runner.prefetch_traces`.

    ``trace_compression`` selects the on-disk codec for cache stores:
    ``"none"`` writes mmap-friendly v2 bundles, ``"zlib"``/``"lz4"`` write
    chunked compressed v3 bundles (~10-50x smaller, lazily decoded).
    Compressed entries carry format version 3 in their cache key, so
    toggling the codec never mixes formats under one filename.
    """

    cache: TraceCache | None = None
    executor: ExecutorConfig = field(default_factory=ExecutorConfig)
    resume: bool = True
    fault_plan: FaultPlan | None = None
    trace_compression: str = "none"


_current: RuntimeContext | None = None


def get_runtime() -> RuntimeContext | None:
    """The installed context, or ``None`` (plain in-process behaviour)."""
    return _current


def set_runtime(ctx: RuntimeContext | None) -> RuntimeContext | None:
    """Install ``ctx`` (or clear with ``None``); returns the previous one."""
    global _current
    previous = _current
    _current = ctx
    return previous


@contextlib.contextmanager
def use_runtime(ctx: RuntimeContext | None):
    """Temporarily install ``ctx`` (tests and one-shot scripts)."""
    previous = set_runtime(ctx)
    try:
        yield ctx
    finally:
        set_runtime(previous)
