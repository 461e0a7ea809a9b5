"""Compiled kernels: exact LRU cache replay and the Barnes-Hut walk.

The per-access cache replays the simulators run and the per-body
Barnes-Hut force walk live here as one small C library, kept as a source
string so packaging is unchanged.  On first use the library is built with
the system C compiler (``$CC``, else ``cc`` or ``gcc``) into
``$XDG_CACHE_HOME/repro/kernels/`` (default ``~/.cache/repro/kernels/``)
and loaded with :mod:`ctypes`, which adds no dependency and releases the
GIL during calls.  The file name hashes the source, the compiler's
``--version`` banner and the flags, and the build writes a temporary file
that ``os.replace`` moves into place, so concurrent first uses (executor
workers) are safe and a changed source or compiler rebuilds.

Entry points:

* :func:`lru_replay` — one MRU-first way array per set, a linear scan,
  then ``memmove``.  O(assoc) per access, whatever the stream's shape.
* :func:`mattson_replay` — the same per-set stack, with each tracked key
  carrying ``mdepth``, the deepest position it has reached since its last
  access (see :class:`repro.machines.kernels.SetAssocSweep`).
* :func:`bh_walk` — one recursive DFS per body over the octree, written
  straight into per-body CSR interaction streams (a counting pass, then a
  fill pass).  Its opening test is bitwise-equal to the numpy frontier
  walk :func:`repro.apps.octree.walk`; the forces stay in numpy.

With no working compiler :func:`available` is False and :func:`require`
raises :class:`repro.errors.ConfigError`; callers fall back to the
``"loop"`` cache engines and to the numpy frontier walk.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from ..errors import ConfigError

__all__ = [
    "available", "require", "build", "lru_replay", "mattson_replay", "bh_walk",
]

_SOURCE = r"""
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Per-set LRU.  resident (in and out): keys grouped by ascending set,
   LRU-first within a set.  stats[0] = entries written to out,
   stats[1] = evictions.  Returns the misses, or -1 if out of memory. */
int64_t lru_replay(const int64_t *keys, int64_t n, int64_t nsets,
                   int64_t assoc, const int64_t *res, int64_t nres,
                   int64_t *out, int64_t *stats)
{
    uint64_t mask = (uint64_t)nsets - 1;
    /* A set never holds more distinct keys than the call sees. */
    int64_t stride = assoc < nres + n ? assoc : nres + n;
    int64_t *ways = malloc((size_t)(nsets * stride + 1) * sizeof *ways);
    int64_t *fill = calloc((size_t)nsets, sizeof *fill);
    int64_t misses = 0, evictions = 0, i, s, j, o = 0;
    if (!ways || !fill) { free(ways); free(fill); return -1; }
    for (i = nres - 1; i >= 0; i--) {  /* reversed: MRU-first per set */
        s = (int64_t)((uint64_t)res[i] & mask);
        if (fill[s] < stride) ways[s * stride + fill[s]++] = res[i];
    }
    for (i = 0; i < n; i++) {
        int64_t k = keys[i], f, *w;
        s = (int64_t)((uint64_t)k & mask);
        w = ways + s * stride;
        f = fill[s];
        for (j = 0; j < f && w[j] != k; j++) {}
        if (j == f) {
            misses++;
            if (f == assoc) { evictions++; j = f - 1; } else fill[s] = f + 1;
        }
        memmove(w + 1, w, (size_t)j * sizeof *w);
        w[0] = k;
    }
    for (s = 0; s < nsets; s++)
        for (j = fill[s] - 1; j >= 0; j--) out[o++] = ways[s * stride + j];
    stats[0] = o;
    stats[1] = evictions;
    free(ways);
    free(fill);
    return misses;
}

/* Per-set Mattson stack with mdepth, for every associativity up to cmax.
   State (in and out): keys grouped by ascending set, MRU-first within a
   set, with their mdepth.  hist[min(g, cmax)] += 1 per access after
   collapsing repeats of the previous key.  Returns the entries written to
   the out arrays, or -1 if out of memory. */
int64_t mattson_replay(const int64_t *keys, int64_t n, int64_t nsets,
                       int64_t cmax, const int64_t *skeys,
                       const int64_t *smd, int64_t m, int64_t *hist,
                       int64_t *okeys, int64_t *omd)
{
    uint64_t mask = (uint64_t)nsets - 1;
    int64_t *sk = malloc((size_t)(nsets * cmax) * sizeof *sk);
    int64_t *sm = malloc((size_t)(nsets * cmax) * sizeof *sm);
    int64_t *fill = calloc((size_t)nsets, sizeof *fill);
    int64_t i, s, j, t, o = 0;
    if (!sk || !sm || !fill) { free(sk); free(sm); free(fill); return -1; }
    for (i = 0; i < m; i++) {  /* mdepth outside [0, cmax) is untracked */
        s = (int64_t)((uint64_t)skeys[i] & mask);
        if (fill[s] < cmax && smd[i] >= 0 && smd[i] < cmax) {
            sk[s * cmax + fill[s]] = skeys[i];
            sm[s * cmax + fill[s]++] = smd[i];
        }
    }
    for (i = 0; i < n; i++) {
        int64_t k = keys[i], f, *wk, *wm;
        if (i && k == keys[i - 1]) continue;
        s = (int64_t)((uint64_t)k & mask);
        wk = sk + s * cmax;
        wm = sm + s * cmax;
        f = fill[s];
        for (j = 0; j < f && wk[j] != k; j++) {}
        if (j < f) {
            hist[wm[j]]++;  /* mdepth >= current depth, and < cmax */
        } else {
            hist[cmax]++;
            if (f < cmax) fill[s] = f + 1;
            j = fill[s] - 1;  /* at f == cmax the bottom key reaches cmax */
        }
        for (t = j; t > 0; t--) {  /* keys above slide down one place */
            wk[t] = wk[t - 1];
            wm[t] = wm[t - 1] > t ? wm[t - 1] : t;
        }
        wk[0] = k;
        wm[0] = 0;
    }
    for (s = 0; s < nsets; s++)
        for (j = 0; j < fill[s]; j++) {
            okeys[o] = sk[s * cmax + j];
            omd[o++] = sm[s * cmax + j];
        }
    free(sk);
    free(sm);
    free(fill);
    return o;
}

/* Barnes-Hut force walk: one recursive DFS per body, for the bodies in
   order[0..n), over a 3-D octree in creation order (children is nc x 8,
   -1 for none; a leaf's members are leaf_bodies[leaf_start[c]..][0..count)).
   Children are pushed in reverse so they pop in creation order.  A leaf
   interacts directly with each member but the body itself; an inner cell
   is accepted when 2*half < theta*dist and the body is outside it, else
   opened.  The opening test repeats the numpy frontier walk's arithmetic
   operation for operation, so both take the same branches.  Row j of the
   CSR covers order[j]: cbounds/dbounds (n + 1 entries) are always written,
   cell_ids/direct_others only when not NULL (the fill pass after a
   counting pass).  Returns 0, or -1 if out of memory. */
int64_t bh_walk(const double *pos, const int64_t *order, int64_t n,
                const double *com, const double *center, const double *half,
                const int64_t *children, const uint8_t *is_leaf,
                const int64_t *leaf_start, const int64_t *leaf_count,
                const int64_t *leaf_bodies, int64_t ncells, double theta,
                int64_t *cbounds, int64_t *dbounds,
                int64_t *cell_ids, int64_t *direct_others)
{
    /* A body's walk pushes each cell at most once. */
    int64_t *stack = malloc((size_t)(ncells + 1) * sizeof *stack);
    int64_t j, k, nc = 0, nd = 0;
    if (!stack) return -1;
    cbounds[0] = dbounds[0] = 0;
    for (j = 0; j < n; j++) {
        int64_t b = order[j], top = 0;
        double bx = pos[3 * b], by = pos[3 * b + 1], bz = pos[3 * b + 2];
        stack[top++] = 0;
        while (top) {
            int64_t c = stack[--top];
            double dx, dy, dz, d2, ax, ay, az, far;
            if (is_leaf[c]) {
                const int64_t *m = leaf_bodies + leaf_start[c];
                for (k = 0; k < leaf_count[c]; k++) {
                    if (m[k] == b) continue;
                    if (direct_others) direct_others[nd] = m[k];
                    nd++;
                }
                continue;
            }
            dx = bx - com[3 * c];
            dy = by - com[3 * c + 1];
            dz = bz - com[3 * c + 2];
            d2 = dx * dx;
            d2 += dy * dy;
            d2 += dz * dz;
            ax = fabs(bx - center[3 * c]);
            ay = fabs(by - center[3 * c + 1]);
            az = fabs(bz - center[3 * c + 2]);
            far = ax > ay ? ax : ay;
            far = far > az ? far : az;
            if (2.0 * half[c] < theta * sqrt(d2) && !(far <= half[c])) {
                if (cell_ids) cell_ids[nc] = c;
                nc++;
            } else {
                for (k = 7; k >= 0; k--)
                    if (children[8 * c + k] >= 0)
                        stack[top++] = children[8 * c + k];
            }
        }
        cbounds[j + 1] = nc;
        dbounds[j + 1] = nd;
    }
    free(stack);
    return 0;
}
"""

# -ffp-contract=off: no fused multiply-adds (the default on targets whose
# baseline ISA has FMA, e.g. aarch64), so the walk's opening test rounds
# exactly like numpy's separate multiplies and adds.  -fno-math-errno lets
# sqrt compile to the (correctly rounded) instruction with no libm call.
_FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off", "-fno-math-errno")

log = logging.getLogger("repro.runtime")

_lib: ctypes.CDLL | None = None
_error: str | None = None


def _cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(base) / "repro" / "kernels"


def _compiler() -> str | None:
    """``$CC`` if set (and nothing else), else ``cc`` or ``gcc``."""
    cc = os.environ.get("CC")
    for name in [cc] if cc else ["cc", "gcc"]:
        path = shutil.which(name)
        if path:
            return path
    return None


def build(source: str = _SOURCE) -> Path:
    """Compile ``source`` into the kernel cache unless already there.

    Returns the shared library's path.  Raises :class:`ConfigError` when
    no compiler is found or the compile fails.
    """
    cc = _compiler()
    if cc is None:
        raise ConfigError("no C compiler found (set CC or install cc/gcc)")
    version = subprocess.run([cc, "--version"], capture_output=True, text=True)
    if version.returncode:
        raise ConfigError(f"C compiler {cc} does not run: {version.stderr}")
    banner = version.stdout
    digest = hashlib.sha256(
        "\0".join([source, banner, *_FLAGS]).encode()
    ).hexdigest()[:16]
    target = _cache_dir() / f"replay-{digest}.so"
    if target.exists():
        return target
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=".build-", suffix=".so")
    os.close(fd)
    try:
        proc = subprocess.run(
            [cc, *_FLAGS, "-x", "c", "-", "-o", tmp],
            input=source, capture_output=True, text=True,
        )
        if proc.returncode:
            raise ConfigError(f"compiling the native kernels failed:\n{proc.stderr}")
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return target


def _load() -> ctypes.CDLL | None:
    """The loaded library, building it on first use; None if unavailable."""
    global _lib, _error
    if _lib is None and _error is None:
        try:
            lib = ctypes.CDLL(str(build()))
        except (ConfigError, OSError, subprocess.SubprocessError) as exc:
            _error = str(exc)
            log.warning("compiled kernels (cache replay, Barnes-Hut walk)"
                        " unavailable, falling back to the slower loop replay"
                        " and numpy frontier walk: %s", _error)
            return None
        p, i64 = ctypes.c_void_p, ctypes.c_int64
        lib.lru_replay.restype = i64
        lib.lru_replay.argtypes = [p, i64, i64, i64, p, i64, p, p]
        lib.mattson_replay.restype = i64
        lib.mattson_replay.argtypes = [p, i64, i64, i64, p, p, i64, p, p, p]
        lib.bh_walk.restype = i64
        lib.bh_walk.argtypes = [p, p, i64, p, p, p, p, p, p, p, p, i64,
                                ctypes.c_double, p, p, p, p]
        _lib = lib
    return _lib


def available() -> bool:
    """Whether the compiled kernels can be used in this process."""
    return _load() is not None


def require() -> ctypes.CDLL:
    """The loaded library, or :class:`ConfigError` naming why not."""
    lib = _load()
    if lib is None:
        raise ConfigError(
            f"the compiled kernels (cache replay, Barnes-Hut walk) are"
            f" unavailable ({_error}); use engine='loop'"
        )
    return lib


def _i64(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.int64)


def _check_geometry(nsets: int, ways: int) -> None:
    # The C code indexes sets by ``key & (nsets - 1)`` and trusts ``ways``.
    if nsets < 1 or nsets & (nsets - 1) or ways < 1:
        raise ValueError(
            f"need a power-of-two set count and >= 1 way, got {nsets} x {ways}"
        )


def lru_replay(
    keys: np.ndarray, nsets: int, assoc: int, resident: np.ndarray
) -> tuple[int, int, np.ndarray]:
    """Replay ``keys`` through ``nsets`` LRU sets of ``assoc`` ways.

    ``resident`` is the prior content, grouped by ascending set and
    LRU-first within each set.  Returns ``(misses, evictions, resident)``
    with the new content in the same format.
    """
    lib = require()
    _check_geometry(nsets, assoc)
    keys, resident = _i64(keys), _i64(resident)
    n, nres = keys.shape[0], resident.shape[0]
    out = np.empty(min(nsets * assoc, nres + n), dtype=np.int64)
    stats = np.zeros(2, dtype=np.int64)
    misses = lib.lru_replay(
        keys.ctypes.data, n, nsets, assoc,
        resident.ctypes.data, nres, out.ctypes.data, stats.ctypes.data,
    )
    if misses < 0:
        raise MemoryError("lru_replay: out of memory")
    return int(misses), int(stats[1]), out[: stats[0]]


def mattson_replay(
    keys: np.ndarray,
    nsets: int,
    cmax: int,
    state_keys: np.ndarray,
    state_mdepth: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Replay ``keys`` through per-set Mattson stacks of depth ``cmax``.

    ``(state_keys, state_mdepth)`` are grouped by ascending set and
    MRU-first within each set.  Returns ``(hist, keys, mdepth)``: the
    histogram of each run-collapsed access's ``min(g, cmax)`` (length
    ``cmax + 1``) and the new state in the same format.
    """
    lib = require()
    _check_geometry(nsets, cmax)
    keys, skeys, smd = _i64(keys), _i64(state_keys), _i64(state_mdepth)
    m = skeys.shape[0]
    if smd.shape[0] != m:
        raise ValueError("state keys and mdepth differ in length")
    cap = min(nsets * cmax, m + keys.shape[0])
    hist = np.zeros(cmax + 1, dtype=np.int64)
    okeys = np.empty(cap, dtype=np.int64)
    omd = np.empty(cap, dtype=np.int64)
    nout = lib.mattson_replay(
        keys.ctypes.data, keys.shape[0], nsets, cmax,
        skeys.ctypes.data, smd.ctypes.data, m, hist.ctypes.data,
        okeys.ctypes.data, omd.ctypes.data,
    )
    if nout < 0:
        raise MemoryError("mattson_replay: out of memory")
    return hist, okeys[:nout], omd[:nout]


def bh_walk(
    tree, pos: np.ndarray, theta: float, order: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-body Barnes-Hut walk over a 3-D :class:`~repro.apps.octree.Octree`.

    Returns ``(cell_ids, cell_bounds, direct_others, direct_bounds)``, the
    tuple ``walk(tree, pos, theta).per_body_csr(n, order=order)`` returns:
    row ``j`` holds what body ``order[j]`` touches, in its walk order.
    Raises ``ValueError`` unless ``pos`` is ``(n, 3)`` for the tree's
    ``n`` bodies, ``order`` a permutation of ``range(n)`` and ``theta``
    positive.
    """
    pos = np.ascontiguousarray(pos, dtype=np.float64)
    if pos.ndim != 2 or pos.shape[1] != 3 or tree.ndim != 3:
        raise ValueError(f"bh_walk needs 3-D positions, got shape {pos.shape}")
    n = pos.shape[0]
    if tree.nbodies != n:
        raise ValueError(f"tree holds {tree.nbodies} bodies, pos {n}")
    order = _i64(order)
    if order.shape != (n,) or not (
        n == 0 or (order.min() >= 0 and order.max() < n
                   and np.bincount(order, minlength=n).min() == 1)
    ):
        raise ValueError("order must be a permutation of range(n)")
    if not theta > 0:
        raise ValueError("theta must be positive")
    lib = require()
    com = np.ascontiguousarray(tree.com, dtype=np.float64)
    center = np.ascontiguousarray(tree.center, dtype=np.float64)
    half = np.ascontiguousarray(tree.half, dtype=np.float64)
    children = _i64(tree.children)
    is_leaf = np.ascontiguousarray(tree.is_leaf, dtype=np.uint8)
    leaf_start, leaf_count = _i64(tree.leaf_start), _i64(tree.leaf_count)
    leaf_bodies = _i64(tree.leaf_bodies)
    cbounds = np.empty(n + 1, dtype=np.int64)
    dbounds = np.empty(n + 1, dtype=np.int64)

    def run(cell_ids, direct_others) -> None:
        rc = lib.bh_walk(
            pos.ctypes.data, order.ctypes.data, n, com.ctypes.data,
            center.ctypes.data, half.ctypes.data, children.ctypes.data,
            is_leaf.ctypes.data, leaf_start.ctypes.data,
            leaf_count.ctypes.data, leaf_bodies.ctypes.data, tree.ncells,
            float(theta), cbounds.ctypes.data, dbounds.ctypes.data,
            cell_ids, direct_others,
        )
        if rc < 0:
            raise MemoryError("bh_walk: out of memory")

    run(None, None)  # counting pass: the bounds alone
    cell_ids = np.empty(int(cbounds[n]), dtype=np.int64)
    direct_others = np.empty(int(dbounds[n]), dtype=np.int64)
    run(cell_ids.ctypes.data, direct_others.ctypes.data)
    return cell_ids, cbounds, direct_others, dbounds
