"""Deterministic fault injection for the resilient runtime.

Two families of faults, both fully deterministic so tests can assert exact
degradation paths:

* **process faults** — a :class:`FaultPlan` maps a task key to the fault
  each *attempt* should suffer (``"crash"``: hard exit without a result;
  ``"hang"``: sleep past any timeout; ``"error"``: raise inside the
  worker).  The executor consults the plan and the worker wrapper applies
  it.  ``interrupt_after=k`` makes the *parent* raise ``KeyboardInterrupt``
  after ``k`` tasks have completed — the "kill a run mid-matrix" scenario
  the resume tests exercise.

* **file faults** — helpers that damage a packed ``.npt`` trace bundle in
  the ways a real crash or bad disk would:
  :func:`truncate_file` (partial write), :func:`garble_file` (bit rot in
  the payload), :func:`corrupt_header` (structurally intact container,
  unparseable JSON header), and :func:`write_with_version` (a well-formed
  file claiming a different format version).
"""

from __future__ import annotations

import json
import os
import struct
import time
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "FaultPlan",
    "WORKER_FAULT_KINDS",
    "inject_worker_fault",
    "truncate_file",
    "garble_file",
    "corrupt_header",
    "write_with_version",
]

WORKER_FAULT_KINDS = ("crash", "hang", "error")

#: Exit code used by an injected crash, distinctive in test output.
CRASH_EXIT_CODE = 23


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of injected failures.

    ``worker`` maps a task key to the sequence of faults for attempts
    1, 2, ... (``None`` or running off the end means the attempt runs
    cleanly).  ``interrupt_after`` fires a ``KeyboardInterrupt`` in the
    parent once that many tasks have completed successfully.
    """

    worker: Mapping[str, Sequence[str | None]] = field(default_factory=dict)
    interrupt_after: int | None = None

    def __post_init__(self) -> None:
        for key, seq in self.worker.items():
            for kind in seq:
                if kind is not None and kind not in WORKER_FAULT_KINDS:
                    raise ValueError(
                        f"unknown worker fault {kind!r} for task {key!r};"
                        f" expected one of {WORKER_FAULT_KINDS}"
                    )

    def worker_fault(self, key: str, attempt: int) -> str | None:
        """Fault to inject for ``key``'s ``attempt``-th try (1-based)."""
        seq = self.worker.get(key)
        if seq is None or attempt > len(seq):
            return None
        return seq[attempt - 1]


def inject_worker_fault(kind: str, *, in_process: bool = False) -> None:
    """Apply a process fault.  Runs inside the worker.

    In ``in_process`` (serial-fallback) mode a ``crash`` cannot take the
    host process down, so it degrades to a raised error; a ``hang`` becomes
    a no-op (there is no supervisor to time it out).
    """
    if kind == "crash":
        if in_process:
            raise RuntimeError("injected fault: crash (serial mode)")
        os._exit(CRASH_EXIT_CODE)
    elif kind == "hang":
        if not in_process:
            time.sleep(86400.0)
    elif kind == "error":
        raise RuntimeError("injected fault: error")
    elif kind is not None:
        raise ValueError(f"unknown worker fault {kind!r}")


# ---- file faults -------------------------------------------------------


def truncate_file(path, keep_fraction: float = 0.5) -> None:
    """Cut a file to a prefix — what a non-atomic interrupted write leaves."""
    size = os.path.getsize(path)
    keep = max(1, int(size * keep_fraction))
    with open(path, "r+b") as fh:
        fh.truncate(keep)


def garble_file(path, seed: int = 0, nbytes: int = 64) -> None:
    """Overwrite bytes in the middle of a file with deterministic noise."""
    rng = np.random.default_rng(seed)
    size = os.path.getsize(path)
    start = size // 3
    noise = rng.integers(0, 256, size=min(nbytes, max(1, size - start)),
                         dtype=np.uint8).tobytes()
    with open(path, "r+b") as fh:
        fh.seek(start)
        fh.write(noise)


def corrupt_header(path) -> None:
    """Rewrite the file so its JSON header is unparseable.

    The magic and preamble stay intact — this models logical corruption
    rather than byte rot, and must still be caught as ``TraceCorruptError``.
    """
    # Scribble into the JSON header region (preamble = 8-byte magic +
    # 8-byte header length, header follows).
    with open(path, "r+b") as fh:
        fh.seek(16)
        fh.write(b"{not json!")


def write_with_version(path, version: int, nprocs: int = 1) -> None:
    """Write a minimal well-formed ``.npt`` bundle claiming ``version``.

    A ``REPROTRC`` preamble plus a JSON header with no epochs and no
    arrays: everything but the version would load as an empty trace.
    """
    header = {
        "version": version,
        "nprocs": nprocs,
        "regions": [],
        "labels": [],
        "arrays": {},
        "data_bytes": 0,
    }
    hbytes = json.dumps(header).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(b"REPROTRC")
        fh.write(struct.pack("<Q", len(hbytes)))
        fh.write(hbytes)
