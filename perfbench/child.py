"""One repetition of a benchmark workload, in a fresh process.

Usage: ``python3 perfbench/child.py '<json spec>'`` with ``src`` on
``PYTHONPATH`` (``run.py`` spawns it; nothing else needs to).  The spec
names the workload parameters and a ``mode``:

* ``plain``  -- set up, run the timed part, report times and counters;
* ``traced`` -- the same with every layer entry point wrapped
  (:mod:`spans`); the spans are written to ``spec["spans_out"]`` at exit;
* ``verify`` -- recompute the counters through a second, independent
  engine (the oracle for seeds that have no pinned counters).

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from repro.experiments.runner import Scale, _cache_key_for, _trace_for, make_app, run_one  # noqa: E402
from repro.experiments.sweep import SweepGrid, SweepPlan  # noqa: E402
from repro.machines import cache  # noqa: E402
from repro.machines.dsm import simulate_dsm_sweep, simulate_hlrc, simulate_treadmarks  # noqa: E402
from repro.machines.hardware import simulate_hardware  # noqa: E402
from repro.machines.params import cluster_scaled  # noqa: E402
from repro.runtime import (  # noqa: E402
    ExecutorConfig, RuntimeContext, TraceCache, get_runtime, set_runtime,
)

PLATFORMS = ("origin", "treadmarks", "hlrc")
DSM = ("treadmarks", "hlrc")
ORIGIN_ROW_COUNTERS = (
    "l2_misses", "tlb_misses", "invalidations",
    "cold_misses", "coherence_misses", "capacity_misses",
)
DSM_ROW_COUNTERS = ("messages", "data_bytes", "page_fetches", "diff_fetches")


def calibrate() -> float:
    """Seconds this host takes for a fixed mix of numpy and interpreter work.

    Independent of the program under test, so ``run.py`` can scale a run's
    times to a reference host speed: this host's speed drifts by well over
    20% from one minute to the next.  Small arrays keep it out of the peak
    RSS of the workloads.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(12345)
    table: dict[int, int] = {}
    for _ in range(4):
        keys = rng.integers(0, 1 << 16, 100_000)
        _, counts = np.unique(keys[np.argsort(keys, kind="stable")], return_counts=True)
        np.cumsum(counts).sum()
        for i, k in enumerate(keys[:15_000].tolist()):
            table[k & 4095] = table.get(k & 4095, 0) + i
    "".join(str(v % 10) for v in table.values())
    return time.perf_counter() - start


def scale_for(spec: dict) -> Scale:
    app = spec["app"]
    return Scale(
        n={app: spec["n"]},
        iterations={app: spec["iterations"]},
        nprocs=spec["nprocs"],
        seed=spec["seed"],
        hw_scale=spec["hw_scale"],
    )


def sweep_grid(spec: dict) -> SweepGrid:
    return SweepGrid(
        apps=(spec["app"],),
        versions=(spec["version"],),
        platforms=PLATFORMS,
        l2_bytes=tuple(spec["l2_bytes"]),
        page_sizes=tuple(spec["page_sizes"]),
    )


def data_bytes(mbytes: float) -> int:
    return round(mbytes * 1e6)


def cell_counters(rec) -> dict:
    if rec.platform == "origin":
        return {"l2_misses": rec.l2_misses, "tlb_misses": rec.tlb_misses}
    return {"messages": rec.messages, "data_bytes": data_bytes(rec.data_mbytes)}


def row_op(row: dict) -> str:
    if row["platform"] == "origin":
        return f"origin/l2={row['l2_bytes']}"
    return f"{row['platform']}/page={row['page_size']}"


def row_counters(row: dict) -> dict:
    if row["platform"] == "origin":
        return {k: int(row[k]) for k in ORIGIN_ROW_COUNTERS}
    out = {k: int(row[k]) for k in DSM_ROW_COUNTERS if k != "data_bytes"}
    out["data_bytes"] = data_bytes(row["data_mbytes"])
    return out


def sweep_ops(spec: dict) -> list[str]:
    return [f"origin/l2={b}" for b in spec["l2_bytes"]] + [
        f"{p}/page={s}" for p in DSM for s in spec["page_sizes"]
    ]


def run_cells(spec: dict, scale: Scale, ops: dict, errors: dict) -> None:
    """The timed part of a cell workload: one ``run_one`` per platform."""
    for platform in PLATFORMS:
        try:
            ops[platform] = cell_counters(
                run_one(spec["app"], spec["version"], platform, scale)
            )
        except Exception as exc:  # a failed cell is counted, the rest still run
            errors[platform] = f"{type(exc).__name__}: {exc}"


def setup_sweep(spec: dict, scale: Scale, root: Path) -> int:
    """Generate the sweep's trace into a fresh cache; returns its accesses."""
    cache = TraceCache(root)
    set_runtime(RuntimeContext(cache=cache, executor=ExecutorConfig(jobs=1)))
    app, version = spec["app"], spec["version"]
    trace = make_app(app, scale.config(app), version).run()
    cache.store(_cache_key_for(app, version, scale, scale.nprocs), trace)
    return trace.total_accesses


def run_sweep(spec: dict, scale: Scale, ops: dict, errors: dict) -> None:
    try:
        rows = SweepPlan(sweep_grid(spec), scale).run()
    except Exception as exc:
        for op in sweep_ops(spec):
            errors[op] = f"{type(exc).__name__}: {exc}"
        return
    for row in rows:
        ops[row_op(row)] = row_counters(row)


def origin_counters(res) -> dict:
    return {
        "l2_misses": res.total_l2_misses,
        "tlb_misses": res.total_tlb_misses,
        "invalidations": int(res.invalidations.sum()),
        "cold_misses": int(res.cold_misses.sum()),
        "coherence_misses": int(res.coherence_misses.sum()),
        "capacity_misses": int(res.capacity_misses.sum()),
    }


def loop_replay(sim, *args):
    """``sim(*args)`` with every cache replayed by the per-key ``loop``
    engine, the OrderedDict reference that shares no code with the
    vectorized kernels."""
    previous, cache.DEFAULT_ENGINE = cache.DEFAULT_ENGINE, "loop"
    try:
        return sim(*args)
    finally:
        cache.DEFAULT_ENGINE = previous


def verify(spec: dict, scale: Scale) -> dict:
    """Counters from engines the timed part does not use.

    Cells: the origin cell replays through the ``loop`` engine; the DSM
    cells use the interval ladder of the page-size sweep instead of
    ``build_intervals``.  Sweep rows: each L2 point replays through the
    single-point simulator (the base point with the ``loop`` engine), and
    each page size through ``build_intervals`` instead of the ladder.
    """
    app, version = spec["app"], spec["version"]
    trace = make_app(app, scale.config(app), version).run()
    ops = {}
    hw = scale.hardware()
    if spec["kind"] == "cell":
        res = loop_replay(simulate_hardware, trace, hw)
        ops["origin"] = {"l2_misses": res.total_l2_misses, "tlb_misses": res.total_tlb_misses}
        cluster = scale.cluster()
        out = simulate_dsm_sweep(trace, cluster, [cluster.page_size])
        for p in DSM:
            res = out[p][cluster.page_size]
            ops[p] = {"messages": res.messages, "data_bytes": res.data_bytes}
        return ops
    set_span = hw.l2_sets * hw.line_size
    for b in spec["l2_bytes"]:
        params = replace(hw, l2_bytes=b, l2_assoc=b // set_span)
        if b == hw.l2_bytes:
            res = loop_replay(simulate_hardware, trace, params)
        else:
            res = simulate_hardware(trace, params)
        ops[f"origin/l2={b}"] = origin_counters(res)
    for p, sim in (("treadmarks", simulate_treadmarks), ("hlrc", simulate_hlrc)):
        for s in spec["page_sizes"]:
            res = sim(trace, cluster_scaled(nprocs=scale.nprocs, page_size=s))
            ops[f"{p}/page={s}"] = {
                "messages": res.messages,
                "data_bytes": res.data_bytes,
                "page_fetches": int(res.page_fetches.sum()),
                "diff_fetches": int(res.diff_fetches.sum()),
            }
    return ops


def main(spec: dict) -> dict:
    scale = scale_for(spec)
    if spec["mode"] == "verify":
        return {"ops": verify(spec, scale), "errors": {}}
    tracer = None
    if spec["mode"] == "traced":
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    ops: dict = {}
    errors: dict = {}
    cache_root = None
    imported = time.perf_counter()
    cal = [calibrate(), calibrate()]
    setup_start = time.perf_counter()
    try:
        if spec["kind"] == "sweep":
            cache_root = Path(tempfile.mkdtemp(prefix="cache-", dir=spec["out_dir"]))
            accesses = setup_sweep(spec, scale, cache_root)
        t0 = time.perf_counter()
        if spec["kind"] == "sweep":
            run_sweep(spec, scale, ops, errors)
        else:
            run_cells(spec, scale, ops, errors)
        t1 = time.perf_counter()
        if spec["kind"] == "cell":
            # The memoized P-processor trace of the cells just run.
            accesses = _trace_for(
                spec["app"], spec["version"], scale, scale.nprocs
            ).total_accesses
    finally:
        if cache_root is not None:
            shutil.rmtree(cache_root, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    cal += [calibrate(), calibrate()]
    out = {
        "setup_s": (imported - _T_START) + (t0 - setup_start),
        "wall_s": t1 - t0,
        "cal_s": cal,
        "peak_rss_mb": peak_rss_mb,
        "accesses": accesses,
        "ops": ops,
        "errors": errors,
    }
    if tracer is not None:
        rt = get_runtime()
        stats = rt.cache.stats() if rt is not None and rt.cache is not None else {}
        counts = dict(tracer.counts)
        counts["runtime.cache_hits"] = stats.get("hits", 0)
        counts["runtime.cache_misses"] = stats.get("misses", 0)
        Path(spec["spans_out"]).write_text(json.dumps(
            {"t0": t0, "t1": t1, "spans": tracer.spans, "counts": counts}
        ))
        out["spans_out"] = spec["spans_out"]
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
