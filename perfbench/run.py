"""End-to-end cell benchmark: one workload, one seed, one closed-loop run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cell-bh --seed 42 --seconds 30 --trace 0

Each repetition runs in a fresh process (``child.py``), one at a time, as
a ``repro run`` would: imports, set-up, then the timed part.  The run
repeats until ``--seconds`` have passed and reports medians over the
repetitions.  ``--trace 0`` prints the end-to-end metrics, with times
scaled to a reference host speed by a calibration kernel that each
repetition also times (see ``host_factor``); ``--trace 1`` alternates
untraced and traced repetitions and prints per-layer self times and counts
from the traced ones (see ``spans.py``).

Every repetition's simulated counters are checked: against the pinned
counters in ``pinned.json`` when the seed has them (42 and the held-out 7
at the default sizes), otherwise against a second, independent engine run
once per benchmark run.  A mismatch or exception counts the cell (or sweep
row) as failed.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the full result,
stamped with host and version provenance, is also written under
``.bench_out/``.  See ``README.md`` for the workloads and metric map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402

KIB = 1024
#: Shared by every workload: P=16, 2 iterations, Origin reach scaled by 8.
COMMON = {"nprocs": 16, "iterations": 2, "hw_scale": 8.0}
WORKLOADS = {
    "cell-bh": {
        "kind": "cell", "app": "barnes-hut", "version": "hilbert", "n": 2048,
    },
    "cell-unstructured": {
        "kind": "cell", "app": "unstructured", "version": "column", "n": 2048,
    },
    "sweep-bh-warm": {
        "kind": "sweep", "app": "barnes-hut", "version": "hilbert", "n": 2048,
        # Multiples of the 512 KiB set span of the hw_scale=8 L2.
        "l2_bytes": [512 * KIB * m for m in (1, 2, 3, 4, 6, 8, 12, 16)],
        "page_sizes": [KIB * k for k in (1, 2, 4, 8, 16)],
    },
}

END_TO_END = {
    "wall_s": "s",
    "accesses_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _layer_unit(name: str) -> str:
    if name.endswith("_keys_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "coverage", "overhead")):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


PER_LAYER = {
    name: _layer_unit(name)
    for name in (
        [f"{s}_s" for s in spans.SPAN_NAMES]
        + [
            "experiments.other_s",
            "bench.wall_untraced_s",
            "bench.wall_traced_s",
            "bench.span_coverage",
            "bench.trace_overhead",
            "trace.accesses",
            "trace.decodes",
            "trace.decode_hits",
            "trace.decode_hit_ratio",
            "machines.l2_keys",
            "machines.l2_keys_per_s",
            "machines.tlb_keys",
            "machines.tlb_keys_per_s",
        ]
        + list(spans.COUNT_KEYS)
    )
}

#: Calibration-kernel seconds of the reference host the end-to-end times
#: are scaled to (``child.calibrate``; about this host's fast state).
CAL_REF_S = 0.1
#: A repetition that runs longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 150
#: Thread pools stay below the host's CPU count: one client, one run.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    env.update({name: "1" for name in THREAD_ENV})
    return env


def spawn(spec: dict) -> dict | None:
    """Run one child to completion; its JSON result, or None if it died."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"[bench] {spec['mode']} repetition timed out", file=sys.stderr)
        return None
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        print(f"[bench] {spec['mode']} repetition exited {proc.returncode}:\n{tail}",
              file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def count_failures(reps: list[dict | None], reference: dict) -> tuple[int, int]:
    """(attempted, failed) operations over the repetitions.

    Each operation -- a cell, or a sweep row -- counts as failed when it
    raised, is missing, or its counters differ from ``reference``; a
    repetition that died fails all of its operations.
    """
    attempted = failed = 0
    for rep in reps:
        for op, expected in reference.items():
            attempted += 1
            if rep is None or op in rep["errors"] or rep["ops"].get(op) != expected:
                failed += 1
    return attempted, failed


def _version(dist: str) -> str | None:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def provenance(args, spec: dict) -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "git_sha": _git_sha(),
        "src_digest": _src_digest(),
        "threads": {name: "1" for name in THREAD_ENV},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": {k: v for k, v in spec.items() if k not in ("mode", "out_dir")},
    }


def run_repetitions(spec: dict, seconds: float, traced: bool) -> list[tuple[str, dict | None]]:
    """Closed loop: one child at a time until ``seconds`` have passed.

    A traced run alternates plain and traced repetitions and has at least
    one of each.
    """
    reps = []
    start = time.monotonic()
    while True:
        mode = "traced" if traced and len(reps) % 2 == 1 else "plain"
        rep_spec = dict(spec, mode=mode)
        if mode == "traced":
            rep_spec["spans_out"] = str(
                Path(spec["out_dir"]) / f"spans-{spec['workload']}-seed{spec['seed']}"
                f"-rep{len(reps)}.json"
            )
        reps.append((mode, spawn(rep_spec)))
        if time.monotonic() - start >= seconds and len(reps) >= (2 if traced else 1):
            return reps


def host_factor(reps: list[dict]) -> float:
    """``CAL_REF_S`` over the median of every calibration sample in the run."""
    return CAL_REF_S / statistics.median(c for r in reps for c in r["cal_s"])


def end_to_end(reps: list[dict], factor: float = 1.0) -> dict[str, float]:
    """Medians over the repetitions, with times multiplied by ``factor``."""
    med = statistics.median
    return {
        "wall_s": factor * med(r["wall_s"] for r in reps),
        "accesses_per_s": med(r["accesses"] / r["wall_s"] for r in reps) / factor,
        "setup_s": factor * med(r["setup_s"] for r in reps),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in reps),
    }


def per_layer(plain: list[dict], traced: list[tuple[dict, dict]]) -> dict[str, float]:
    """Medians over the traced repetitions, plus the tracing overhead."""
    reports = []
    for rep, doc in traced:
        report = spans.layer_report(doc)
        report["trace.accesses"] = rep["accesses"]
        reports.append(report)
    out = {k: statistics.median(r[k] for r in reports) for k in reports[0]}
    out["bench.wall_untraced_s"] = statistics.median(r["wall_s"] for r in plain)
    out["bench.wall_traced_s"] = statistics.median(r["wall_s"] for r, _ in traced)
    out["bench.trace_overhead"] = out["bench.wall_traced_s"] / out["bench.wall_untraced_s"]
    return out


def load_pins(path: Path) -> dict:
    return json.loads(path.read_text()) if path.exists() else {}


def pin_key(spec: dict) -> str:
    return f"n={spec['n']},seed={spec['seed']}"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--n", type=int, default=None,
                    help="override the workload's problem size (tests)")
    ap.add_argument("--pins", type=Path, default=HERE / "pinned.json",
                    help="pinned counters to check against")
    ap.add_argument("--record-pins", action="store_true",
                    help="store this seed's counters in --pins once the"
                         " independent engine agrees with them")
    ap.add_argument("--out", type=Path, default=ROOT / ".bench_out",
                    help="where result and span files are written")
    args = ap.parse_args(argv)
    args.out = args.out.resolve()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    args.out.mkdir(parents=True, exist_ok=True)
    spec = dict(WORKLOADS[args.workload], **COMMON, workload=args.workload,
                seed=args.seed, out_dir=str(args.out))
    if args.n is not None:
        spec["n"] = args.n
    prov = provenance(args, spec)

    pins = load_pins(args.pins)
    reference = None if args.record_pins else pins.get(args.workload, {}).get(pin_key(spec))
    checked_by = "pinned"
    if reference is None:
        checked_by = "independent-engine"
        oracle = spawn(dict(spec, mode="verify"))
        if oracle is None:
            print("error: the reference engine failed; nothing to check against",
                  file=sys.stderr)
            return 1
        reference = oracle["ops"]

    reps = run_repetitions(spec, args.seconds, traced=bool(args.trace))
    attempted, failed = count_failures([r for _, r in reps], reference)
    plain = [r for mode, r in reps if mode == "plain" and r is not None]
    traced = [(r, json.loads(Path(r["spans_out"]).read_text()))
              for mode, r in reps if mode == "traced" and r is not None]
    if not plain or (args.trace and not traced):
        print("error: no repetition completed", file=sys.stderr)
        return 1
    factor = host_factor(plain)
    metrics = per_layer(plain, traced) if args.trace else end_to_end(plain, factor)
    units = PER_LAYER if args.trace else END_TO_END
    unscaled = end_to_end(plain)

    if args.record_pins:
        if failed:
            print("error: the counters disagree with the independent engine;"
                  " not pinning", file=sys.stderr)
            return 1
        pins.setdefault(args.workload, {})[pin_key(spec)] = reference
        args.pins.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    (args.out / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "checked_by": checked_by, "provenance": prov,
                    "unscaled": unscaled, "host_factor": factor,
                    "repetitions": [{"mode": m, **(r or {"died": True})} for m, r in reps]},
                   indent=1)
    )
    print("provenance: " + json.dumps(prov))
    print(f"{args.workload} seed={args.seed}: {len(reps)} repetition(s),"
          f" counters checked against {checked_by}")
    for k, u in units.items():
        print(f"  {k:32s} {metrics[k]:.6g} {u}")
    print(f"  {'failed_frac':32s} {failed / attempted:.6g} ({failed}/{attempted})")
    print(f"  unscaled host time: wall_s {unscaled['wall_s']:.6g} s, setup_s"
          f" {unscaled['setup_s']:.6g} s (host factor {factor:.4g})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
