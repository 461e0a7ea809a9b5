"""Batched multi-configuration sweep planner.

A parameter-grid sweep (L2 capacities, line sizes, DSM page sizes across
apps and orderings) naively costs one full trace replay per grid point.
The machine layer already collapses each *geometry family* to one pass:

* :func:`repro.machines.hardware.simulate_hardware_sweep` reads every L2
  capacity off a stack-distance miss curve, decoding each line-size
  geometry once;
* :func:`repro.machines.dsm.simulate_dsm_sweep` builds interval
  summaries at the finest page size and folds them up the 2x ladder.

This module plans the remaining dimension: :class:`SweepPlan` takes a
:class:`SweepGrid`, groups grid points by (trace, geometry family) —
all points sharing a trace and a sweepable axis become one
:class:`SweepGroup` — and dispatches each group as one batched task
through the :mod:`repro.runtime` executor.  Workers load traces from the
persistent cache (mmap-backed ``.npt`` columns, so the fan-out does not
re-pickle multi-million-event traces) and return compact per-point row
dicts over the pipe.  Completed groups checkpoint as JSON under the
cache root; ``--resume`` skips them on the next run.

Without an installed runtime the plan runs serially in-process, sharing
:mod:`repro.experiments.runner`'s trace memo — results are identical
either way, and identical to per-point ``simulate_*`` calls (asserted in
``tests/experiments/test_sweep_plan.py`` and
``benchmarks/bench_sweep_engine.py``).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import logging
import os
from dataclasses import dataclass, field
from pathlib import Path

from ..apps import APP_REGISTRY
from ..errors import ConfigError, UnknownAppError, UnknownPlatformError
from ..runtime.cache import atomic_write_text, canonical_extra
from ..runtime.context import get_runtime
from ..runtime.executor import Task, run_tasks
from ..runtime.worker import generate_trace_into_cache
from .runner import (
    Scale,
    _cache_key_for,
    _trace_compression,
    _trace_for,
    make_app,
    versions_for,
)

__all__ = [
    "SweepGrid",
    "SweepGroup",
    "SweepPlan",
    "load_group_checkpoint",
    "parse_grid",
    "run_sweep_group",
    "write_group_checkpoint",
]

log = logging.getLogger("repro.runtime")

_DSM_PLATFORMS = ("treadmarks", "hlrc")
_PLATFORMS = ("origin",) + _DSM_PLATFORMS

#: Row keys in output order (rows only carry the keys that apply to
#: their platform; the CLI renders the union of what is present).
ROW_KEYS = (
    "app", "version", "platform", "nprocs",
    "line_size", "l2_bytes", "l2_assoc", "page_size",
    "time", "l2_misses", "tlb_misses", "invalidations",
    "cold_misses", "coherence_misses", "capacity_misses",
    "messages", "data_mbytes", "page_fetches", "diff_fetches",
)


def _as_sizes(name: str, values) -> tuple[int, ...] | None:
    if values is None:
        return None
    out = tuple(int(v) for v in values)
    if not out or any(v <= 0 for v in out):
        raise ConfigError(f"SweepGrid.{name} must be positive, got {values!r}")
    return out


@dataclass(frozen=True)
class SweepGrid:
    """Cartesian parameter grid for a sweep.

    ``l2_bytes``/``line_sizes`` apply to the ``origin`` platform (one
    family per line size, capacities read off its miss curve);
    ``page_sizes`` applies to the DSM platforms (one folded interval
    ladder per trace).  ``versions=None`` means each app's paper
    orderings (:func:`repro.experiments.runner.versions_for`).  An axis
    left ``None`` sweeps just the platform's default geometry.
    """

    apps: tuple[str, ...] = ("barnes-hut",)
    versions: tuple[str, ...] | None = None
    platforms: tuple[str, ...] = ("origin",)
    l2_bytes: tuple[int, ...] | None = None
    line_sizes: tuple[int, ...] | None = None
    page_sizes: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        unknown = set(self.apps) - set(APP_REGISTRY)
        if unknown:
            raise UnknownAppError(
                f"unknown application(s) in SweepGrid: {sorted(unknown)};"
                f" expected names from {sorted(APP_REGISTRY)}"
            )
        bad = set(self.platforms) - set(_PLATFORMS)
        if bad:
            raise UnknownPlatformError(
                f"unknown platform(s) in SweepGrid: {sorted(bad)};"
                f" expected names from {_PLATFORMS}"
            )
        if not self.apps or not self.platforms:
            raise ConfigError("SweepGrid needs at least one app and platform")
        for name in ("l2_bytes", "line_sizes", "page_sizes"):
            object.__setattr__(self, name, _as_sizes(name, getattr(self, name)))


# ---- group checkpoints -------------------------------------------------
#
# A completed group's rows persist as ``sweeps/<group-key>.json`` under
# the cache root.  The ``--resume`` path treats these files as the
# source of result truth, so reads are *validated*: a torn or garbled
# checkpoint is moved aside (to ``sweeps/quarantine/``) and reported as
# missing, which makes resume regenerate exactly the damaged group and
# nothing else.


def write_group_checkpoint(path: Path, rows: list[dict]) -> None:
    """Atomically persist one group's result rows."""
    path.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_text(path, json.dumps(rows))


def load_group_checkpoint(path: Path) -> list[dict] | None:
    """Validated checkpoint read: rows, or ``None`` if absent/damaged.

    Damage (unparseable JSON, or a payload that is not a list of row
    dicts) quarantines the file rather than deleting it, mirroring
    :meth:`repro.runtime.cache.TraceCache.quarantine`; concurrent movers
    are tolerated the same way (``FileNotFoundError`` means someone else
    already moved it).
    """
    path = Path(path)
    try:
        rows = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return None
    except (OSError, ValueError, UnicodeDecodeError) as exc:
        _quarantine_checkpoint(path, f"unreadable checkpoint: {exc}")
        return None
    if not isinstance(rows, list) or not all(isinstance(r, dict) for r in rows):
        _quarantine_checkpoint(path, "checkpoint payload is not a row list")
        return None
    return rows


def _quarantine_checkpoint(path: Path, reason: str) -> None:
    qdir = path.parent / "quarantine"
    qdir.mkdir(parents=True, exist_ok=True)
    dest = qdir / path.name
    i = 0
    while dest.exists():
        i += 1
        dest = qdir / f"{path.stem}.{i}{path.suffix}"
    try:
        os.replace(path, dest)
    except FileNotFoundError:
        return  # a concurrent mover got here first
    atomic_write_text(dest.with_suffix(".reason.txt"), reason + "\n")
    log.warning("sweep checkpoint %s quarantined (%s)", path.name, reason)


@dataclass(frozen=True)
class SweepGroup:
    """One (trace, geometry family) batch: a single worker task.

    ``platforms`` is ``("origin",)`` or the grid's DSM platforms, in grid
    order: every DSM protocol of a trace shares one group, and so one
    trace load and one folded interval ladder.  The whole group replays
    its trace once per line-size family (``origin``) or builds its
    intervals once (DSM) regardless of how many grid points it covers.
    """

    app: str
    version: str
    platforms: tuple[str, ...]
    l2_bytes: tuple[int, ...] | None = None
    line_sizes: tuple[int, ...] | None = None
    page_sizes: tuple[int, ...] | None = None

    @property
    def is_origin(self) -> bool:
        return self.platforms == ("origin",)

    def points(self) -> int:
        if self.is_origin:
            return len(self.l2_bytes or (0,)) * len(self.line_sizes or (0,))
        return len(self.page_sizes or (0,)) * len(self.platforms)

    def key(self, scale: Scale) -> str:
        """Stable id for executor task keys and resume checkpoints.

        A DSM group's key names ``dsm`` and hashes its protocols, so the
        per-protocol DSM checkpoints of earlier versions are recomputed,
        never misread; origin keys are unchanged.
        """
        fields = {
            "axes": [self.l2_bytes, self.line_sizes, self.page_sizes],
            "n": scale.n[self.app],
            "iterations": scale.iterations[self.app],
            "nprocs": scale.nprocs,
            "seed": scale.seed,
            "hw_scale": scale.hw_scale,
            "extra": canonical_extra(scale.extra),
        }
        name = "origin"
        if not self.is_origin:
            fields["platforms"] = list(self.platforms)
            name = "dsm"
        blob = json.dumps(fields, sort_keys=True)
        digest = hashlib.sha1(blob.encode()).hexdigest()[:10]
        return f"{self.app}_{self.version}_{name}_{digest}"


def _group_rows(trace, group: SweepGroup, scale: Scale) -> list[dict]:
    """All grid-point rows for one group, from batched one-pass sweeps."""
    from ..machines.dsm import simulate_dsm_sweep
    from ..machines.hardware import simulate_hardware_sweep
    from ..machines.params import cluster_scaled

    head = {"app": group.app, "version": group.version}
    rows = []
    if group.is_origin:
        base = scale.hardware()
        results = simulate_hardware_sweep(
            trace, base, l2_bytes=group.l2_bytes, line_sizes=group.line_sizes
        )
        for res in results:
            rows.append({
                **head,
                "platform": "origin",
                "nprocs": scale.nprocs,
                "line_size": res.params.line_size,
                "l2_bytes": res.params.l2_bytes,
                "l2_assoc": res.params.l2_assoc,
                "time": res.time,
                "l2_misses": res.total_l2_misses,
                "tlb_misses": res.total_tlb_misses,
                "invalidations": int(res.invalidations.sum()),
                "cold_misses": int(res.cold_misses.sum()),
                "coherence_misses": int(res.coherence_misses.sum()),
                "capacity_misses": int(res.capacity_misses.sum()),
            })
    else:
        base = cluster_scaled(nprocs=scale.nprocs)
        sizes = group.page_sizes or (base.page_size,)
        out = simulate_dsm_sweep(trace, base, sizes, protocols=group.platforms)
        for platform in group.platforms:
            for size in sizes:
                res = out[platform][size]
                rows.append({
                    **head,
                    "platform": platform,
                    "nprocs": scale.nprocs,
                    "page_size": size,
                    "time": res.time,
                    "messages": res.messages,
                    "data_mbytes": res.data_mbytes,
                    "page_fetches": int(res.page_fetches.sum()),
                    "diff_fetches": int(res.diff_fetches.sum()),
                })
    return rows


def run_sweep_group(
    cache_root: str, group: SweepGroup, scale: Scale, compression: str = "none"
) -> tuple[list[dict], tuple[int, int]]:
    """Executor worker: run one (trace, geometry family) batch.

    The trace is mmap-loaded from the persistent ``.npt`` cache (workers
    never receive traces over the pipe); a cache miss — prefetch skipped
    or cache cleared underneath us — falls back to generating in place,
    so the task stays idempotent.  Returns small per-point row dicts,
    plus the worker-side cache (hits, misses) for the parent's counters.
    ``compression`` is the run's trace codec: it picks the cache entry
    (v2 or v3) exactly as :func:`repro.experiments.runner.run_one` does.
    """
    from ..runtime.cache import TraceCache

    cache = TraceCache(cache_root)
    ck = _cache_key_for(group.app, group.version, scale, scale.nprocs, compression)
    trace = cache.load(ck)
    if trace is None:
        app = make_app(group.app, scale.config(group.app), group.version)
        trace = app.run()
        cache.store(ck, trace, compression=compression)
    return _group_rows(trace, group, scale), (cache.hits, cache.misses)


@dataclass
class SweepPlan:
    """Plan and execute a parameter-grid sweep.

    ``run()`` returns one row dict per grid point, ordered by
    (app, version, platform in grid order) then row-major over the
    geometry axes — independent of how many workers ran the groups.
    """

    grid: SweepGrid
    scale: Scale = field(default_factory=Scale)

    def groups(self) -> list[SweepGroup]:
        """Per (app, version): an origin group, then one DSM group covering
        every DSM platform of the grid (each only if the grid has it)."""
        dsm = tuple(p for p in self.grid.platforms if p in _DSM_PLATFORMS)
        out = []
        for app in self.grid.apps:
            versions = self.grid.versions or versions_for(app)
            for version in versions:
                if "origin" in self.grid.platforms:
                    out.append(SweepGroup(
                        app, version, ("origin",),
                        l2_bytes=self.grid.l2_bytes,
                        line_sizes=self.grid.line_sizes,
                    ))
                if dsm:
                    out.append(SweepGroup(
                        app, version, dsm, page_sizes=self.grid.page_sizes,
                    ))
        return out

    def _in_grid_order(self, groups: list[SweepGroup], rows_of) -> list[dict]:
        """Rows by (app, version), then platform in grid order, then the
        groups' own row order."""
        rank = {p: i for i, p in enumerate(self.grid.platforms)}
        out: list[dict] = []
        for _, trace_groups in itertools.groupby(
            groups, key=lambda g: (g.app, g.version)
        ):
            rows = [row for g in trace_groups for row in rows_of(g)]
            out.extend(sorted(rows, key=lambda r: rank[r["platform"]]))
        return out

    def run(self) -> list[dict]:
        groups = self.groups()
        rt = get_runtime()
        if rt is None or rt.cache is None:
            return self._in_grid_order(groups, lambda g: _group_rows(
                _trace_for(g.app, g.version, self.scale, self.scale.nprocs),
                g, self.scale,
            ))

        sweep_dir = Path(rt.cache.root) / "sweeps"
        done: dict[str, list[dict]] = {}
        todo: list[SweepGroup] = []
        for g in groups:
            path = sweep_dir / f"{g.key(self.scale)}.json"
            rows = load_group_checkpoint(path) if rt.resume else None
            if rows is not None:
                done[g.key(self.scale)] = rows
                log.info("sweep group %s: checkpoint hit", g.key(self.scale))
            else:
                todo.append(g)

        if todo:
            self._prefetch(todo, rt)
            tasks = [
                Task(
                    key=g.key(self.scale),
                    fn=run_sweep_group,
                    args=(str(rt.cache.root), g, self.scale,
                          _trace_compression(rt)),
                )
                for g in todo
            ]
            log.info("sweep: %d group(s) covering %d point(s) with %d job(s)",
                     len(tasks), sum(g.points() for g in todo), rt.executor.jobs)
            results = run_tasks(tasks, rt.executor, fault_plan=rt.fault_plan)
            for g in todo:
                rows, (hits, misses) = results[g.key(self.scale)]
                rt.cache.hits += hits
                rt.cache.misses += misses
                write_group_checkpoint(
                    sweep_dir / f"{g.key(self.scale)}.json", rows
                )
                done[g.key(self.scale)] = rows
        return self._in_grid_order(groups, lambda g: done[g.key(self.scale)])

    def _prefetch(self, groups: list[SweepGroup], rt) -> None:
        """Fan distinct traces out before dispatching sweep batches."""
        tasks, seen = [], set()
        compression = _trace_compression(rt)
        for g in groups:
            ck = _cache_key_for(
                g.app, g.version, self.scale, self.scale.nprocs, compression
            )
            fn = ck.filename()
            if fn in seen or (rt.resume and rt.cache.contains(ck)):
                continue
            seen.add(fn)
            tasks.append(Task(
                key=fn,
                fn=generate_trace_into_cache,
                args=(str(rt.cache.root), g.app, g.version,
                      self.scale.n[g.app], self.scale.iterations[g.app],
                      self.scale.nprocs, self.scale.seed, compression,
                      dict(self.scale.extra)),
            ))
        if tasks:
            log.info("sweep prefetch: generating %d trace(s)", len(tasks))
            run_tasks(tasks, rt.executor, fault_plan=rt.fault_plan)


_AXIS_NAMES = {
    "l2_bytes": "l2_bytes",
    "l2": "l2_bytes",
    "line_size": "line_sizes",
    "line_sizes": "line_sizes",
    "page_size": "page_sizes",
    "page_sizes": "page_sizes",
}

_SUFFIX = {"": 1, "k": 1024, "m": 1024 * 1024}


def _parse_size(text: str) -> int:
    t = text.strip().lower()
    mult = 1
    if t and t[-1] in ("k", "m"):
        mult = _SUFFIX[t[-1]]
        t = t[:-1]
    try:
        return int(t) * mult
    except ValueError:
        raise ConfigError(
            f"bad grid value {text!r}; expected an integer with optional"
            " K/M suffix"
        ) from None


def parse_grid(specs: list[str]) -> dict[str, tuple[int, ...]]:
    """Parse CLI ``--grid AXIS=V1,V2,...`` specs into SweepGrid axes.

    Axes: ``l2_bytes`` (alias ``l2``), ``line_size``, ``page_size``.
    Values accept ``K``/``M`` suffixes: ``--grid l2=256K,1M``.
    """
    axes: dict[str, tuple[int, ...]] = {}
    for spec in specs:
        name, sep, values = spec.partition("=")
        key = _AXIS_NAMES.get(name.strip().lower())
        if not sep or key is None:
            raise ConfigError(
                f"bad grid spec {spec!r}; expected AXIS=V1,V2,... with AXIS"
                f" one of {sorted(set(_AXIS_NAMES))}"
            )
        axes[key] = tuple(_parse_size(v) for v in values.split(","))
    return axes
