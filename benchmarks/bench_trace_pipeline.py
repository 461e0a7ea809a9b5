"""Acceptance benchmark for the columnar packed trace pipeline.

``test_trace_pipeline_speedup`` measures the full app→pack→save→load→
simulate path on the Barnes-Hut n=8192, P=16 trace twice:

* **baseline** — burst-list builder, legacy compressed ``.npz``
  serialization, and the simulators' per-burst decode paths;
* **packed** — columnar builder, raw mmap-loadable ``.npt`` bundle, and
  the simulators' packed fast paths sharing one decode via the memo.

The acceptance floor (>= 3x) applies to the **format-bound pipeline**:
save + load + the DSM simulations (TreadMarks, HLRC), the stages whose
cost the trace representation actually determines — serialization bytes,
deserialization, access-stream decode, and interval building.  Two
stages are timed and reported but excluded from the floor because their
cost is fixed work the format cannot touch, which would dilute the ratio
toward 1x:

* *generate* — app physics; the same Barnes-Hut force computation runs
  either way (~6.4s, which alone caps any end-to-end ratio below 3x);
* *sim_origin* — dominated by the hardware cache-replay kernels (~1.9s
  of ~2.2s; see ``bench_simulator_throughput.py``, which owns that
  floor), nearly identical across formats.  It still carries its own
  regression guard (``ORIGIN_TOLERANCE``): the packed replay must not
  fall behind the burst baseline, as it once did when the packed path
  re-materialized whole-epoch ``region``/``is_write`` columns.

The simulators' counters (L2 misses, DSM messages/bytes) must match
exactly across the two runs — the speedup is only meaningful if the
results are identical.

``test_v3_size_floor`` holds the compressed-format claim on the same
trace: the zlib chunked v3 bundle is at least ``SIZE_RATIO_FLOOR`` times
smaller than the uncompressed v2 bundle, and the Origin replay from it
yields identical counters.

Numbers are persisted to ``benchmarks/results/bench_trace_pipeline.txt``
and ``benchmarks/results/BENCH_pipeline.json`` (the v3 check under its
``compressed_v3`` key).
"""

import gc
import json
import pathlib
import time

import numpy as np
import pytest

from repro.apps import AppConfig, BarnesHut
from repro.machines import simulate_hardware, simulate_hlrc, simulate_treadmarks
from repro.machines.params import cluster_scaled, origin2000_scaled
from repro.trace import builder as builder_mod
from repro.trace.io import load_trace, save_trace, save_trace_npz

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

APP_N = 8192
NPROCS = 16
ITERATIONS = 2
SEED = 5
FLOOR = 3.0
SIZE_RATIO_FLOOR = 10

STAGES = ("generate", "save", "load", "sim_origin", "sim_treadmarks", "sim_hlrc")
# Floor applies to the format-bound stages (see module docstring).
PIPELINE_STAGES = ("save", "load", "sim_treadmarks", "sim_hlrc")
ROUNDS = 3
# sim_origin is excluded from the pipeline floor but guarded separately:
# packed replay must stay at least as fast as the burst baseline (within
# a noise tolerance).  The guard measures the two forms *interleaved*
# (packed, burst, packed, burst, ...) so the shared VM's slow timing
# drift — which can easily exceed the ~15% regression this guards
# against when the forms run minutes apart — cancels out of the ratio.
ORIGIN_TOLERANCE = 1.05

RESULT_ARRAYS = (
    "l2_misses", "tlb_misses", "invalidations", "work", "lock_acquires",
    "cold_misses", "coherence_misses", "capacity_misses",
    "classification_overcount",
)


def _run_pipeline(tmp, packed):
    """One full pipeline pass; returns ({stage: seconds}, {counter: value}).

    Each stage after generation is timed ``ROUNDS`` times and the minimum
    kept: wall-clock noise on a shared VM is strictly additive, so min-of-N
    recovers the stage's true cost.  Every round reloads the file fresh, so
    the simulators pay a cold decode (no memo carry-over between rounds).
    """
    times = {}
    prev = builder_mod.set_packed_default(packed)
    try:
        t0 = time.perf_counter()
        trace = BarnesHut(
            AppConfig(n=APP_N, nprocs=NPROCS, iterations=ITERATIONS, seed=SEED)
        ).run()
        times["generate"] = time.perf_counter() - t0

        path = tmp / ("t.npt" if packed else "t.npz")
        for _ in range(ROUNDS):
            t0 = time.perf_counter()
            if packed:
                save_trace(trace, path)
            else:
                save_trace_npz(trace, path)
            times["save"] = min(times.get("save", 1e30), time.perf_counter() - t0)

        del trace  # keep the resident set small during the replay rounds
        gc.collect()

        for _ in range(ROUNDS):
            t0 = time.perf_counter()
            loaded = load_trace(path, mmap=True)
            times["load"] = min(times.get("load", 1e30), time.perf_counter() - t0)

            t0 = time.perf_counter()
            hw = simulate_hardware(loaded, origin2000_scaled(8, NPROCS))
            times["sim_origin"] = min(
                times.get("sim_origin", 1e30), time.perf_counter() - t0
            )

            t0 = time.perf_counter()
            tmk = simulate_treadmarks(loaded, cluster_scaled(nprocs=NPROCS))
            times["sim_treadmarks"] = min(
                times.get("sim_treadmarks", 1e30), time.perf_counter() - t0
            )

            t0 = time.perf_counter()
            hlrc = simulate_hlrc(loaded, cluster_scaled(nprocs=NPROCS))
            times["sim_hlrc"] = min(
                times.get("sim_hlrc", 1e30), time.perf_counter() - t0
            )
            del loaded
            gc.collect()
    finally:
        builder_mod.set_packed_default(prev)

    counters = {
        "origin_l2_misses": int(hw.total_l2_misses),
        "treadmarks_messages": int(tmk.messages),
        "treadmarks_data_bytes": int(tmk.data_bytes),
        "hlrc_messages": int(hlrc.messages),
        "hlrc_data_bytes": int(hlrc.data_bytes),
        "file_bytes": path.stat().st_size,
    }
    return times, counters


def _paired_origin_times(npt_path, npz_path):
    """Interleaved min-of-``ROUNDS`` sim_origin timings: (packed, burst).

    Each round reloads fresh (cold decode memo) and alternates the two
    forms back-to-back, so within-pair noise is all that is left in the
    packed/burst ratio.
    """
    params = origin2000_scaled(8, NPROCS)
    t_packed, t_burst = 1e30, 1e30
    for _ in range(ROUNDS):
        for path, is_packed in ((npt_path, True), (npz_path, False)):
            loaded = load_trace(path, mmap=True)
            t0 = time.perf_counter()
            simulate_hardware(loaded, params)
            dt = time.perf_counter() - t0
            if is_packed:
                t_packed = min(t_packed, dt)
            else:
                t_burst = min(t_burst, dt)
            del loaded
            gc.collect()
    return t_packed, t_burst


@pytest.mark.slow
def test_trace_pipeline_speedup(tmp_path, emit):
    """Acceptance: the packed pipeline is >= 3x faster than the burst one."""
    # Packed first: any OS page-cache / allocator warm-up from the first
    # pass only helps the baseline, making the ratio conservative.
    (tmp_path / "packed").mkdir()
    (tmp_path / "base").mkdir()
    t_packed, c_packed = _run_pipeline(tmp_path / "packed", True)
    t_base, c_base = _run_pipeline(tmp_path / "base", False)
    guard_packed, guard_burst = _paired_origin_times(
        tmp_path / "packed" / "t.npt", tmp_path / "base" / "t.npz"
    )

    for key in c_packed:
        if key == "file_bytes":
            continue
        assert c_packed[key] == c_base[key], (
            f"{key}: packed {c_packed[key]} != baseline {c_base[key]}"
        )

    pipe_packed = sum(t_packed[s] for s in PIPELINE_STAGES)
    pipe_base = sum(t_base[s] for s in PIPELINE_STAGES)
    e2e_packed = sum(t_packed.values())
    e2e_base = sum(t_base.values())
    pipeline_speedup = pipe_base / pipe_packed
    end_to_end_speedup = e2e_base / e2e_packed

    rows = [
        f"{'stage':<16} {'baseline s':>11} {'packed s':>9} {'speedup':>8}"
    ]
    for s in STAGES:
        ratio = t_base[s] / t_packed[s] if t_packed[s] else float("inf")
        rows.append(f"{s:<16} {t_base[s]:>11.3f} {t_packed[s]:>9.3f} {ratio:>7.2f}x")
    lines = [
        f"Trace pipeline — Barnes-Hut n={APP_N}, P={NPROCS}, "
        f"{ITERATIONS} iterations (seed {SEED})",
        "baseline: burst-list builder + compressed .npz + per-burst decode",
        "packed:   columnar builder + mmap .npt bundle + shared decode memo",
        f"stage timings: min of {ROUNDS} rounds, fresh load (cold decode) each",
        "",
        *rows,
        "",
        f"format-bound pipeline (save+load+TreadMarks+HLRC): {pipe_base:.2f}s -> "
        f"{pipe_packed:.2f}s = {pipeline_speedup:.2f}x "
        f"(acceptance floor: {FLOOR:.0f}x)",
        f"end-to-end (generation included): {e2e_base:.2f}s -> "
        f"{e2e_packed:.2f}s = {end_to_end_speedup:.2f}x",
        f"trace file: {c_base['file_bytes']:,} B (.npz) vs "
        f"{c_packed['file_bytes']:,} B (.npt)",
        "counters: origin L2 misses and DSM messages/bytes identical",
        f"sim_origin guard (paired, interleaved): packed {guard_packed:.3f}s vs "
        f"burst {guard_burst:.3f}s (tolerance {ORIGIN_TOLERANCE:.2f}x)",
    ]
    emit("bench_trace_pipeline", "\n".join(lines))

    payload = {
        "bench": "trace_pipeline",
        "app": "barnes_hut",
        "n": APP_N,
        "nprocs": NPROCS,
        "iterations": ITERATIONS,
        "seed": SEED,
        "floor": FLOOR,
        "rounds": ROUNDS,
        "pipeline_stages": list(PIPELINE_STAGES),
        "stages": {
            s: {"baseline_s": round(t_base[s], 4), "packed_s": round(t_packed[s], 4)}
            for s in STAGES
        },
        "pipeline": {
            "baseline_s": round(pipe_base, 4),
            "packed_s": round(pipe_packed, 4),
            "speedup": round(pipeline_speedup, 3),
        },
        "end_to_end": {
            "baseline_s": round(e2e_base, 4),
            "packed_s": round(e2e_packed, 4),
            "speedup": round(end_to_end_speedup, 3),
        },
        "counters": c_base,
        "file_bytes": {"npz": c_base["file_bytes"], "npt": c_packed["file_bytes"]},
        "origin_guard": {
            "packed_s": round(guard_packed, 4),
            "burst_s": round(guard_burst, 4),
            "tolerance": ORIGIN_TOLERANCE,
        },
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "BENCH_pipeline.json"
    if path.exists():  # keep test_v3_size_floor's record
        kept = json.loads(path.read_text()).get("compressed_v3")
        if kept is not None:
            payload["compressed_v3"] = kept
    path.write_text(json.dumps(payload, indent=2) + "\n")

    assert pipeline_speedup >= FLOOR, (
        f"packed pipeline only {pipeline_speedup:.2f}x faster than burst "
        f"baseline ({pipe_base:.2f}s -> {pipe_packed:.2f}s); floor is {FLOOR:.0f}x"
    )
    # Regression guard: the packed hardware replay must not fall behind the
    # burst baseline again (it once did, from re-materializing the derived
    # region/is_write columns per processor).  Uses the paired interleaved
    # timings so VM drift between the two pipeline phases cannot fake a
    # regression; the small tolerance absorbs within-pair noise.
    assert guard_packed <= guard_burst * ORIGIN_TOLERANCE, (
        f"packed sim_origin regressed: {guard_packed:.3f}s vs "
        f"burst baseline {guard_burst:.3f}s (paired interleaved, "
        f"tolerance {ORIGIN_TOLERANCE:.2f}x)"
    )


@pytest.mark.slow
def test_v3_size_floor(tmp_path, emit):
    """Acceptance: v3 zlib is >= 10x smaller than v2, same replay counters."""
    trace = BarnesHut(
        AppConfig(n=APP_N, nprocs=NPROCS, iterations=ITERATIONS, seed=SEED)
    ).run()
    v2, v3 = tmp_path / "t.npt", tmp_path / "t3.npt"
    save_trace(trace, v2)
    save_trace(trace, v3, compression="zlib")
    del trace
    gc.collect()

    hw = origin2000_scaled(8, NPROCS)
    res_v2 = simulate_hardware(load_trace(v2), hw)
    res_v3 = simulate_hardware(load_trace(v3), hw)
    for name in RESULT_ARRAYS:
        assert np.array_equal(getattr(res_v2, name), getattr(res_v3, name)), name
    assert res_v2.time == res_v3.time
    assert res_v2.phase_times == res_v3.phase_times

    v2_bytes, v3_bytes = v2.stat().st_size, v3.stat().st_size
    size_ratio = v2_bytes / v3_bytes
    emit("bench_trace_v3", "\n".join([
        f"Trace format v3 — Barnes-Hut n={APP_N}, P={NPROCS}, "
        f"{ITERATIONS} iterations (seed {SEED})",
        f"trace file: {v2_bytes:,} B (v2) vs {v3_bytes:,} B (v3 zlib) = "
        f"{size_ratio:.1f}x smaller (floor {SIZE_RATIO_FLOOR}x)",
        f"origin replay: {int(res_v2.total_l2_misses)} L2 misses, "
        f"{int(res_v2.total_tlb_misses)} TLB misses; every HardwareResult "
        "array, time and phase_times identical from v2 and v3",
    ]))

    path = RESULTS_DIR / "BENCH_pipeline.json"
    RESULTS_DIR.mkdir(exist_ok=True)
    payload = json.loads(path.read_text()) if path.exists() else {}
    payload["compressed_v3"] = {
        "file_bytes": {"v2": v2_bytes, "v3_zlib": v3_bytes},
        "size_ratio": round(size_ratio, 2),
        "size_ratio_floor": SIZE_RATIO_FLOOR,
        "counters_identical": True,
        "origin_l2_misses": int(res_v2.total_l2_misses),
        "origin_tlb_misses": int(res_v2.total_tlb_misses),
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")

    assert size_ratio >= SIZE_RATIO_FLOOR, (
        f"v3 only {size_ratio:.1f}x smaller than v2 "
        f"({v2_bytes:,} -> {v3_bytes:,} B); floor is {SIZE_RATIO_FLOOR}x"
    )
