"""Fault-tolerant experiment runtime.

The expensive half of every experiment is trace generation; this package
makes it restartable and crash-proof:

* :mod:`repro.runtime.executor` — fans tasks out across worker processes
  with per-task wall-clock timeouts, bounded retry with exponential
  backoff + deterministic jitter, and graceful degradation to serial
  in-process execution when the pool is unavailable or a worker dies
  repeatedly;
* :mod:`repro.runtime.cache` — a persistent, content-keyed trace cache
  layered under the experiment runner, so interrupted runs resume from
  completed cells; corrupt or version-mismatched entries are quarantined
  and regenerated instead of crashing;
* :mod:`repro.runtime.faults` — deterministic fault injection (worker
  crashes, hangs, truncated/garbled ``.npt`` files, partial writes) used
  by the test suite to prove each degradation path;
* :mod:`repro.runtime.context` — the :class:`RuntimeContext` the CLI and
  benchmark harness install to switch all of the above on.

Errors raised here are the structured hierarchy in :mod:`repro.errors`.
"""

from .cache import CacheKey, TraceCache
from .context import RuntimeContext, get_runtime, set_runtime, use_runtime
from .executor import ExecutorConfig, Task, TaskOutcome, backoff_delay, run_tasks
from .faults import FaultPlan

__all__ = [
    "CacheKey",
    "TraceCache",
    "RuntimeContext",
    "get_runtime",
    "set_runtime",
    "use_runtime",
    "ExecutorConfig",
    "Task",
    "TaskOutcome",
    "backoff_delay",
    "run_tasks",
    "FaultPlan",
]
