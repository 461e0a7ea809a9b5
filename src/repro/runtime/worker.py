"""Picklable worker entry points for the fault-tolerant executor.

Workers never ship a trace back over the result pipe — traces are large
and the pipe is a failure surface.  Instead each worker writes its result
into the persistent :class:`repro.runtime.cache.TraceCache` (atomically)
and returns the cache filename as a small token; the parent then *mmaps*
the packed bundle out of the cache — no trace is ever pickled across a
process boundary.  This also means a run killed between worker completion
and parent bookkeeping loses nothing: the cell is already on disk.
"""

from __future__ import annotations

__all__ = ["generate_trace_into_cache"]


def generate_trace_into_cache(
    cache_root: str,
    app: str,
    version: str,
    n: int,
    iterations: int,
    nprocs: int,
    seed: int,
    compression: str = "none",
    extra: dict | None = None,
) -> str:
    """Generate one (app, version, nprocs) trace and persist it.

    ``compression`` selects the cache entry's on-disk codec (chunked v3
    bundles for ``"zlib"``/``"lz4"``); the cache key's format version
    follows the codec, so compressed and uncompressed entries coexist.
    ``extra`` is the run's ``Scale.extra``: it reaches the app and the key.

    Imports happen inside the function so the module stays picklable and
    cheap to import in spawn-started workers.
    """
    from ..apps import AppConfig
    from ..experiments.runner import make_app
    from .cache import CacheKey, TraceCache, canonical_extra, format_version_for

    extra = dict(extra or {})
    cache = TraceCache(cache_root)
    key = CacheKey(app=app, version=version, n=n, iterations=iterations,
                   nprocs=nprocs, seed=seed,
                   format_version=format_version_for(compression),
                   extra=canonical_extra(extra))
    if cache.load(key) is not None:
        return key.filename()  # another worker (or a prior run) got here first
    config = AppConfig(n=n, nprocs=nprocs, iterations=iterations, seed=seed,
                       extra=extra)
    application = make_app(app, config, version)
    cache.store(key, application.run(), compression=compression)
    return key.filename()
