"""Acceptance benchmarks for trace generation: emit staging and numerics.

Two tests, two halves of the generate stage:

* ``test_trace_generation_speedup`` — emission.  Times the
  application-side staging of read/write bursts into the builder against
  the recorded times of the per-object emit loops it replaced (below).
* ``test_generate_engine_speedup`` — physics.  Times the *end-to-end*
  generate stage (``run()``: numerics + staging + seal) under the two
  numerics engines: ``loop`` (the per-object / per-cell reference
  formulations) versus ``batch`` (the vectorized kernels in
  :mod:`repro.apps.numerics`), on Barnes-Hut and FMM at n=8192, P=16.
  The engines must produce byte-identical ``.npt`` bundles — asserted
  unconditionally.  The >= 3x end-to-end floor was set against the loop
  engine running with the per-object emit loops, each side in its native
  formulation; those loops are deleted, so the floor is now held against
  that configuration's wall time as recorded at commit 7c23bac
  (``LOOP_ENGINE_7C23BAC``).  The live loop engine, which now stages
  through the same ragged emission as the batch engine, is still timed
  and its ratio reported (ungated): with emission equal on both sides it
  isolates the numerics alone.  Each app runs at its cost-optimal tree depth for
  the batch engine (Barnes-Hut ``leaf_capacity=2``, FMM ``levels=7``:
  measured fastest absolute batch configs at this n, because a deeper
  tree trades leaf-pair flops for cell work the batch engine does well);
  the per-stage ``physics_stages`` breakdown and the physics-vs-emit
  split are recorded in the JSON payload.

``test_trace_generation_speedup`` times trace *generation* — the
application-side staging of read/write bursts into the builder — on
Barnes-Hut (n=8192, P=16) and Moldyn (n=8192, P=16).  The applications
stage each processor's whole epoch as one ``emit_ragged`` call over CSR
columns (O(P) builder calls per epoch).  The per-object emit loops they
replaced — one ``tb.read`` / ``tb.write`` call per body or molecule — no
longer exist, so the baseline is their staging time as recorded at commit
7c23bac in ``BENCH_trace_gen.json`` (``emit_modes.apps.<app>.loop``),
frozen here as ``LOOP_7C23BAC``; the ragged bundles are pinned to the
sha256 digests those loops produced (``LOOP_BUNDLE_SHA256``).

Every app instruments itself: ``emit_seconds`` is the wall time spent in
its emission blocks (staging plus the epoch seal at each barrier) and
``seal_seconds`` the portion inside ``PackedEpoch.seal``.  The acceptance
floor applies to the **staging** time (``emit_seconds - seal_seconds``) —
the interpreter-bound hot path the ragged API exists to kill.  The seal is
memory-bound column-packing work either way, so including it would only
measure how much shared packing happens to surround the staging.
Inclusive times are reported alongside for transparency.

Numbers land in ``benchmarks/results/bench_trace_generation.txt`` and
``benchmarks/results/BENCH_trace_gen.json``.
"""

import hashlib
import io
import json
import pathlib
import time

import pytest

from repro.apps import AppConfig, BarnesHut, FMM, Moldyn
from repro.trace.io import save_trace

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

NPROCS = 16
SEED = 5
ROUNDS = 3
FLOOR = 3.0
TARGET = 5.0

APPS = (
    ("barnes_hut", BarnesHut, dict(n=8192, iterations=2)),
    ("moldyn", Moldyn, dict(n=8192, iterations=3)),
)

#: The per-object emit loops' min-of-3 seconds, recorded at commit 7c23bac
#: on a 2-CPU host (``BENCH_trace_gen.json``, ``emit_modes.apps.<app>.loop``).
LOOP_7C23BAC = {
    "barnes_hut": {"emit": 0.27368, "seal": 0.15964, "staging": 0.11404},
    "moldyn": {"emit": 0.20074, "seal": 0.07879, "staging": 0.12195},
}
#: sha256 of the ``.npt`` bundle the per-object loops produced for each
#: ``APPS`` configuration at commit 7c23bac (ragged produced the same bytes).
LOOP_BUNDLE_SHA256 = {
    "barnes_hut": "c6e1523f42f96921e7736f549f3116c6fbeb6fe004df5061b7711aad8d3a585d",
    "moldyn": "58176b6f5634d8ad29a0cb2e02a81e09a3522260ec1a6dd1c560da4c6d2bdacd",
}

# Engine comparison: end-to-end generate, loop numerics versus batch
# numerics, both with ragged emit.  Tree-depth knobs pin each app to the
# fastest measured batch configuration at this scale (see module
# docstring); the loop engine runs the identical configuration.
ENGINE_FLOOR = 3.0
ENGINE_ROUNDS = 2
#: The loop engine with the per-object emit loops, min-of-2 seconds,
#: recorded at commit 7c23bac on a 2-CPU host (``BENCH_trace_gen.json``,
#: ``engines.apps.<app>.loop``).
LOOP_ENGINE_7C23BAC = {
    "barnes_hut": {
        "wall": 7.06379, "physics": 6.79788, "emit": 0.24539, "seal": 0.1267
    },
    "fmm": {"wall": 2.59775, "physics": 0.79346, "emit": 1.78439, "seal": 0.11183},
}
ENGINE_APPS = (
    ("barnes_hut", BarnesHut, dict(n=8192, iterations=2), {"leaf_capacity": 2}),
    ("fmm", FMM, dict(n=8192, iterations=2), {"levels": 7}),
)


def _update_json(name: str, key: str, payload: dict) -> None:
    """Merge one test's payload into a shared results JSON under ``key``."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / name
    doc = json.loads(path.read_text()) if path.exists() else {}
    doc[key] = payload
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _measure(app_cls, cfg_kw):
    """Min-of-ROUNDS staging/seal seconds plus one saved bundle.

    A fresh app instance per round: ``run`` mutates the physics state, and
    identical seeds must yield identical traces for the byte comparison.
    """
    best = {"emit": 1e30, "staging": 1e30, "seal": 1e30}
    bundle = None
    for _ in range(ROUNDS):
        app = app_cls(
            AppConfig(nprocs=NPROCS, seed=SEED, **cfg_kw)
        )
        t0 = time.perf_counter()
        trace = app.run()
        wall = time.perf_counter() - t0
        best["emit"] = min(best["emit"], app.emit_seconds)
        best["staging"] = min(best["staging"], app.emit_seconds - app.seal_seconds)
        best["seal"] = min(best["seal"], app.seal_seconds)
        best["wall"] = min(best.get("wall", 1e30), wall)
        if bundle is None:
            buf = io.BytesIO()
            save_trace(trace, buf)
            bundle = buf.getvalue()
            best["accesses"] = trace.total_accesses
    return best, bundle


@pytest.mark.slow
def test_trace_generation_speedup(emit):
    """Acceptance: ragged staging >= 3x faster than the recorded per-object
    loops on Barnes-Hut, with the loops' bundles byte for byte."""
    results = {}
    for name, app_cls, cfg_kw in APPS:
        ragged, bundle = _measure(app_cls, cfg_kw)
        assert hashlib.sha256(bundle).hexdigest() == LOOP_BUNDLE_SHA256[name], (
            f"{name}: ragged .npt bundle differs from the per-object loops'"
        )
        results[name] = {"loop": LOOP_7C23BAC[name], "ragged": ragged, "cfg": cfg_kw}

    rows = [
        f"{'app':<12} {'mode':<16} {'staging s':>10} {'+seal s':>8} "
        f"{'Macc/s':>8} {'speedup':>8}"
    ]
    payload_apps = {}
    for name, r in results.items():
        staging_speedup = r["loop"]["staging"] / r["ragged"]["staging"]
        inclusive_speedup = r["loop"]["emit"] / r["ragged"]["emit"]
        accesses = r["ragged"]["accesses"]
        for mode, label in (("loop", "loop @ 7c23bac"), ("ragged", "ragged")):
            t = r[mode]
            thr = accesses / t["staging"] / 1e6
            sp = f"{staging_speedup:>7.1f}x" if mode == "ragged" else f"{'':>8}"
            rows.append(
                f"{name:<12} {label:<16} {t['staging']:>10.4f} {t['emit']:>8.3f} "
                f"{thr:>8.1f} {sp}"
            )
        payload_apps[name] = {
            **r["cfg"],
            "accesses": accesses,
            "loop": {**r["loop"], "recorded_at": "7c23bac"},
            "ragged": {k: round(v, 5) for k, v in r["ragged"].items()},
            "staging_speedup": round(staging_speedup, 2),
            "inclusive_speedup": round(inclusive_speedup, 2),
            "bundle_identical": True,
        }

    bh = results["barnes_hut"]
    bh_speedup = bh["loop"]["staging"] / bh["ragged"]["staging"]
    md = results["moldyn"]
    lines = [
        f"Trace generation — ragged emit vs the per-object loops recorded at "
        f"7c23bac, P={NPROCS}, seed {SEED}, min of {ROUNDS} rounds",
        "staging = emit_seconds - seal_seconds (builder-call hot path); "
        "+seal adds the",
        "column-packing seal; Macc/s = trace accesses per staging second",
        "",
        *rows,
        "",
        f"Barnes-Hut staging speedup: {bh_speedup:.1f}x "
        f"(target {TARGET:.0f}x, acceptance floor {FLOOR:.0f}x)",
        f"inclusive (staging+seal) speedups: "
        f"BH {bh['loop']['emit'] / bh['ragged']['emit']:.2f}x, "
        f"Moldyn {md['loop']['emit'] / md['ragged']['emit']:.2f}x",
        "ragged bundles match the per-object loops' sha256 digests",
    ]
    emit("bench_trace_generation", "\n".join(lines))

    payload = {
        "nprocs": NPROCS,
        "seed": SEED,
        "rounds": ROUNDS,
        "floor": FLOOR,
        "target": TARGET,
        "metric": "staging seconds (emit_seconds - seal_seconds), min of rounds",
        "apps": payload_apps,
    }
    _update_json("BENCH_trace_gen.json", "emit_modes", payload)

    assert bh_speedup >= FLOOR, (
        f"ragged staging only {bh_speedup:.2f}x faster than the recorded "
        f"per-object loop on Barnes-Hut ({bh['loop']['staging']:.3f}s -> "
        f"{bh['ragged']['staging']:.3f}s); floor is {FLOOR:.0f}x"
    )


def _measure_generate(app_cls, cfg_kw, extra, engine):
    """Min-of-ENGINE_ROUNDS end-to-end generate wall, with the stage split.

    A fresh app per round (``run`` mutates physics state); the bundle from
    the first round backs the byte-identity assertion.
    """
    best = None
    bundle = None
    for _ in range(ENGINE_ROUNDS):
        app = app_cls(
            AppConfig(
                nprocs=NPROCS,
                seed=SEED,
                extra={"engine": engine, **extra},
                **cfg_kw,
            )
        )
        t0 = time.perf_counter()
        trace = app.run()
        wall = time.perf_counter() - t0
        if bundle is None:
            buf = io.BytesIO()
            save_trace(trace, buf)
            bundle = buf.getvalue()
        if best is None or wall < best["wall"]:
            best = {
                "wall": wall,
                "physics": app.physics_seconds,
                "emit": app.emit_seconds,
                "seal": app.seal_seconds,
                "stages": {k: round(v, 5) for k, v in app.physics_stages.items()},
                "accesses": trace.total_accesses,
            }
    return best, bundle


@pytest.mark.slow
def test_generate_engine_speedup(emit):
    """Acceptance: batch numerics >= 3x faster end-to-end on BH and FMM than
    the recorded loop engine with per-object emission."""
    results = {}
    for name, app_cls, cfg_kw, extra in ENGINE_APPS:
        loop, loop_bytes = _measure_generate(app_cls, cfg_kw, extra, "loop")
        batch, batch_bytes = _measure_generate(app_cls, cfg_kw, extra, "batch")
        assert loop_bytes == batch_bytes, (
            f"{name}: batch-engine .npt bundle differs from the loop engine's"
        )
        results[name] = {
            "recorded": LOOP_ENGINE_7C23BAC[name],
            "loop": loop,
            "batch": batch,
            "cfg": {**cfg_kw, **extra},
        }

    rows = [
        f"{'app':<12} {'engine':<24} {'wall s':>8} {'physics':>8} {'emit':>6} "
        f"{'seal':>6} {'speedup':>8}"
    ]
    payload_apps = {}
    speedups = {}
    for name, r in results.items():
        speedup = r["recorded"]["wall"] / r["batch"]["wall"]
        live = r["loop"]["wall"] / r["batch"]["wall"]
        speedups[name] = speedup
        for key, label in (
            ("recorded", "loop+loop emit @ 7c23bac"),
            ("loop", "loop"),
            ("batch", "batch"),
        ):
            t = r[key]
            sp = f"{speedup:>7.1f}x" if key == "batch" else f"{'':>8}"
            rows.append(
                f"{name:<12} {label:<24} {t['wall']:>8.2f} {t['physics']:>8.2f} "
                f"{t['emit']:>6.2f} {t['seal']:>6.2f} {sp}"
            )
        payload_apps[name] = {
            **r["cfg"],
            "accesses": r["batch"]["accesses"],
            "recorded_loop_with_loop_emit": {**r["recorded"], "recorded_at": "7c23bac"},
            "loop": {
                k: (round(v, 5) if isinstance(v, float) else v)
                for k, v in r["loop"].items()
            },
            "batch": {
                k: (round(v, 5) if isinstance(v, float) else v)
                for k, v in r["batch"].items()
            },
            "generate_speedup": round(speedup, 2),
            "live_engine_speedup": round(live, 2),
            "bundle_identical": True,
        }

    lines = [
        f"Generate stage — loop vs batch numerics engine, P={NPROCS}, "
        f"seed {SEED}, min of {ENGINE_ROUNDS} rounds",
        "wall = full run() (physics + emit staging + seal); live engines both "
        "use ragged emit",
        "and produce byte-identical bundles; the gated baseline is the loop "
        "engine with the",
        "per-object emit loops, recorded at 7c23bac",
        "",
        *rows,
        "",
        *(
            f"{name} end-to-end generate speedup vs recorded baseline: "
            f"{sp:.1f}x (acceptance floor {ENGINE_FLOOR:.0f}x); live engines "
            f"alone: {payload_apps[name]['live_engine_speedup']:.1f}x"
            for name, sp in speedups.items()
        ),
        "loop and batch engines produced byte-identical .npt bundles",
    ]
    emit("bench_generate_engines", "\n".join(lines))

    payload = {
        "nprocs": NPROCS,
        "seed": SEED,
        "rounds": ENGINE_ROUNDS,
        "floor": ENGINE_FLOOR,
        "metric": "end-to-end run() wall seconds, min of rounds",
        "apps": payload_apps,
    }
    _update_json("BENCH_trace_gen.json", "engines", payload)

    for name, sp in speedups.items():
        assert sp >= ENGINE_FLOOR, (
            f"batch engine only {sp:.2f}x faster end-to-end on {name} than "
            f"the recorded loop baseline ({results[name]['recorded']['wall']:.2f}s"
            f" -> {results[name]['batch']['wall']:.2f}s); floor is "
            f"{ENGINE_FLOOR:.0f}x"
        )
