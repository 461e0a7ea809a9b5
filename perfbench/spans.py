"""Outside-in layer tracing for the traced benchmark run.

The traced run wraps each layer's public entry point from the benchmark's
own code (nothing under ``src/`` changes).  Every wrapped call records one
span -- name, start, end, parent -- in memory; counts are taken at the same
boundaries.  The spans are written out once, when the run ends, and
:func:`layer_report` turns them into per-layer self times.

The wrapped entry points, by layer.  The span name is the metric name
without its ``_s`` suffix.  Where a workload reaches a layer through one of
two entry points (single-point replay in the cells, one-pass sweeps in the
sweep), both feed the same span, so no layer metric is 0 on a workload by
construction:

====================  =====================================================
span                  entry point
====================  =====================================================
apps.construct        each registered app class's ``__init__``
apps.generate         each registered app class's ``run``
core.reorder          ``Application.reorder``
trace.decode          ``DecodeMemo.epoch``
machines.origin       ``simulate_hardware``, ``simulate_hardware_sweep``
machines.l2_replay    ``SetAssocCache.access_stream``,
                      ``SetAssocSweep.access_stream``
machines.tlb_replay   ``LRUCache.access_stream``
dsm.intervals         ``build_intervals``, ``build_interval_ladder``
dsm.treadmarks        ``simulate_treadmarks``
dsm.hlrc              ``simulate_hlrc``
====================  =====================================================

``.npt`` loads and stores are not wrapped: the cells never touch the
trace cache, so their time would read 0 on two of the three workloads; on
the sweep it falls into ``experiments.other_s`` and set-up.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

#: Span names in report order; each becomes a ``<name>_s`` self-time metric.
SPAN_NAMES = (
    "apps.construct",
    "apps.generate",
    "core.reorder",
    "trace.decode",
    "machines.origin",
    "machines.l2_replay",
    "machines.tlb_replay",
    "dsm.intervals",
    "dsm.treadmarks",
    "dsm.hlrc",
)

#: Counts reported as recorded at the span boundaries.
COUNT_KEYS = (
    "machines.l2_misses",
    "machines.tlb_misses",
    "runtime.cache_hits",
    "runtime.cache_misses",
    "dsm.treadmarks_messages",
    "dsm.treadmarks_data_bytes",
    "dsm.hlrc_messages",
    "dsm.hlrc_data_bytes",
)


class Tracer:
    """In-memory span recorder.  One per traced process."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent_index]``; parent ``-1`` is top level.
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name, fn, count=None):
        """``fn`` recording a ``name`` span per call (no span if ``name`` is
        None); ``count(counts, args, result)`` runs after each call."""
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = -1
            if name is not None:
                idx = len(spans)
                spans.append([name, clock(), None, stack[-1] if stack else -1])
                stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                if idx >= 0:
                    stack.pop()
                    spans[idx][2] = clock()
            if count is not None:
                count(counts, args, result)
            return result

        return wrapper


def _patch_function(fn, wrapper) -> None:
    """Rebind ``fn`` to ``wrapper`` everywhere the package holds it.

    Modules import these functions by name (``from .hardware import
    simulate_hardware``) and a few keep them in module-level dicts, so the
    defining module's attribute alone is not enough.
    """
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("repro"):
            continue
        for key, value in list(vars(mod).items()):
            if value is fn:
                setattr(mod, key, wrapper)
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is fn:
                        value[k] = wrapper


def _replay_count(prefix, misses=True):
    def count(counts, args, result):
        counts[f"machines.{prefix}_keys"] += int(len(args[1]))
        if misses:  # the sweep returns a stack-distance histogram instead
            counts[f"machines.{prefix}_misses"] += int(result)
    return count


def _dsm_count(protocol):
    def count(counts, args, result):
        counts[f"dsm.{protocol}_messages"] += int(result.messages)
        counts[f"dsm.{protocol}_data_bytes"] += int(result.data_bytes)
    return count


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point in the (already imported) package."""
    import repro.experiments.runner  # noqa: F401  (binds the names to patch)
    import repro.experiments.sweep  # noqa: F401
    from repro.apps import APP_REGISTRY
    from repro.apps.base import Application
    from repro.machines import dsm, hardware
    from repro.machines.cache import LRUCache, SetAssocCache
    from repro.machines.dsm import intervals
    from repro.machines.kernels import SetAssocSweep
    from repro.trace import layout

    def on_class(cls, attr, name, count=None):
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr), count))

    for cls in set(APP_REGISTRY.values()):
        if "__init__" in vars(cls):
            on_class(cls, "__init__", "apps.construct")
        if "run" in vars(cls):
            on_class(cls, "run", "apps.generate")
    on_class(Application, "reorder", "core.reorder")

    def requests(counts, args, result):
        counts["trace.decode_requests"] += 1

    def decodes(counts, args, result):
        counts["trace.decodes"] += 1

    on_class(layout.DecodeMemo, "epoch", "trace.decode", requests)
    on_class(SetAssocCache, "access_stream", "machines.l2_replay", _replay_count("l2"))
    on_class(LRUCache, "access_stream", "machines.tlb_replay", _replay_count("tlb"))
    on_class(SetAssocSweep, "access_stream", "machines.l2_replay",
             _replay_count("l2", misses=False))

    functions = [
        (layout.decode_epoch, None, decodes),
        (hardware.simulate_hardware, "machines.origin", None),
        (hardware.simulate_hardware_sweep, "machines.origin", None),
        (intervals.build_intervals, "dsm.intervals", None),
        (intervals.build_interval_ladder, "dsm.intervals", None),
        (dsm.simulate_treadmarks, "dsm.treadmarks", _dsm_count("treadmarks")),
        (dsm.simulate_hlrc, "dsm.hlrc", _dsm_count("hlrc")),
    ]
    for fn, name, count in functions:
        _patch_function(fn, tracer.wrap(name, fn, count))


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_report(doc: dict) -> dict[str, float]:
    """Per-layer metrics of one traced process from its span dump.

    ``doc`` holds ``spans``, ``counts`` and the timed window ``t0``/``t1``
    (same clock as the spans).  Self times cover the whole repetition after
    the imports, so the sweep's trace generation, which runs in set-up,
    shows under ``apps.*``; span coverage and ``experiments.other_s`` are
    taken over the timed window.
    """
    spans, counts = doc["spans"], doc["counts"]
    t0, t1 = doc["t0"], doc["t1"]
    out = {f"{name}_s": 0.0 for name in SPAN_NAMES}
    covered = 0.0
    for (name, start, end, parent), own in zip(spans, self_times(spans)):
        out[f"{name}_s"] += own
        if parent < 0 and start >= t0:
            covered += end - start
    out["experiments.other_s"] = (t1 - t0) - covered
    out["bench.span_coverage"] = covered / (t1 - t0)
    for prefix in ("l2", "tlb"):
        keys = counts.get(f"machines.{prefix}_keys", 0)
        out[f"machines.{prefix}_keys"] = keys
        busy = out[f"machines.{prefix}_replay_s"]
        out[f"machines.{prefix}_keys_per_s"] = keys / busy if busy else 0.0
    decodes = counts.get("trace.decodes", 0)
    requests = counts.get("trace.decode_requests", 0)
    out["trace.decodes"] = decodes
    out["trace.decode_hits"] = requests - decodes
    out["trace.decode_hit_ratio"] = (requests - decodes) / requests if requests else 0.0
    for key in COUNT_KEYS:
        out[key] = counts.get(key, 0)
    return out
