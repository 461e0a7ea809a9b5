"""Compiled kernels: the simulators' front end and cache replay, and the
Barnes-Hut walk.

The per-access cache replays the simulators run, the burst-column decode
that feeds them and the DSM interval builder, and the per-body Barnes-Hut
force walk live here as one small C library, kept as a source string so
packaging is unchanged.  On first use the library is built with
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
* ``decode_lines`` and ``page_columns`` (through :class:`BurstDecoder`) —
  one pass over an epoch's burst columns with byte-per-unit stamp
  arrays: per proc, the run-collapsed cache-line and TLB page streams
  with the distinct and written lines (for the origin replays), or the
  sorted distinct and written pages with their dirty-byte columns (for
  the DSM intervals).
  Equal to the numpy decode they replace.

With no working compiler :func:`available` is False and :func:`require`
raises :class:`repro.errors.ConfigError`; callers fall back to the
``"loop"`` cache engines, the numpy decode and the numpy frontier walk.
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

from ..errors import ConfigError, SimulationInputError

__all__ = [
    "available", "require", "build", "lru_replay", "mattson_replay", "bh_walk",
    "BurstDecoder",
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

/* Burst-column front ends.  Both walk one epoch proc by proc: proc p's
   accesses are index[offsets[p]..offsets[p+1]), cut into the bursts
   boff[p]..boff[p+1) of blen[b] accesses each, all in region breg[b] and
   written iff bwrite[b].  Access i of burst b covers the units
   (base[r] + index[i] * size[r]) >> shift through
   (base[r] + (index[i] + 1) * size[r] - 1) >> shift, r = breg[b].  index
   holds 4- or 8-byte integers (width).  Per-proc outputs are CSR: proc p's
   part of out is out[off[p]..off[p+1]), off having nprocs + 1 entries.
   Scratch arrays come in zeroed and leave zeroed. */

#define INDEX(i) (width == 4 ? (int64_t)((const int32_t *)index)[i] \
                             : ((const int64_t *)index)[i])

static int cmp_i64(const void *a, const void *b)
{
    int64_t x = *(const int64_t *)a, y = *(const int64_t *)b;
    return (x > y) - (x < y);
}

/* Sort the n units in ids, which are those with bit set in mark: a scan
   of mark when they are dense among the nunits, else qsort. */
static void sort_marked(int64_t *ids, int64_t n, const uint8_t *mark,
                        uint8_t bit, int64_t nunits)
{
    int64_t u, k = 0;
    if (n < 2) return;
    if (n * 64 < nunits) {
        qsort(ids, (size_t)n, sizeof *ids, cmp_i64);
        return;
    }
    for (u = 0; k < n; u++)
        if (mark[u] & bit) ids[k++] = u;
}

/* Cache-line front end.  Per proc: the line stream with consecutive
   repeats dropped (lines, loff), the page stream of those lines with
   consecutive repeats dropped (pages, poff; page = line >> pgshift, or
   line << -pgshift when pages are smaller than lines), the distinct
   lines in first-touch order (dist, doff) and the written lines, sorted
   (wr, woff).  mark holds one byte per line (bit 1 touched, bit 2
   written). */
void decode_lines(int64_t nprocs, const int64_t *offsets, const int64_t *boff,
                  const int64_t *breg, const uint8_t *bwrite,
                  const int64_t *blen, const void *index, int64_t width,
                  const int64_t *base, const int64_t *size, int64_t shift,
                  int64_t pgshift, int64_t nlines, uint8_t *mark,
                  int64_t *lines, int64_t *loff, int64_t *pages,
                  int64_t *poff, int64_t *dist, int64_t *doff, int64_t *wr,
                  int64_t *woff)
{
    int64_t p, b, i, u, nl = 0, np = 0, nd = 0, nw = 0;
    loff[0] = poff[0] = doff[0] = woff[0] = 0;
    for (p = 0; p < nprocs; p++) {
        int64_t d0 = nd, w0 = nw, prev = -1, pprev = -1;
        i = offsets[p];
        for (b = boff[p]; b < boff[p + 1]; b++) {
            int64_t sz = size[breg[b]], bs = base[breg[b]], end = i + blen[b];
            uint8_t bits = bwrite[b] ? 3 : 1;
            for (; i < end; i++) {
                int64_t start = bs + INDEX(i) * sz;
                int64_t last = (start + sz - 1) >> shift;
                for (u = start >> shift; u <= last; u++) {
                    uint8_t m = mark[u];
                    if (u != prev) {
                        int64_t g = pgshift >= 0 ? u >> pgshift : u << -pgshift;
                        lines[nl++] = prev = u;
                        if (g != pprev) pages[np++] = pprev = g;
                    }
                    if (!m) dist[nd++] = u;
                    if ((bits & ~m) & 2) wr[nw++] = u;
                    mark[u] = m | bits;
                }
            }
        }
        sort_marked(wr + w0, nw - w0, mark, 2, nlines);
        for (u = d0; u < nd; u++) mark[dist[u]] = 0;
        loff[p + 1] = nl;
        poff[p + 1] = np;
        doff[p + 1] = nd;
        woff[p + 1] = nw;
    }
}

/* DSM page front end.  Per proc: the sorted distinct pages touched
   (acc, aoff) and written (wr, woff), and aligned with wr the uncapped
   dirty bytes ub -- the summed sizes of the distinct objects written on
   the page -- and cross, the part of ub from objects that start on an
   earlier page.  Object i of region r is omark[obase[r] + i].  Scratch:
   pmark (a byte per page: bit 1 touched, bit 2 written), omark (a byte
   per object), ubacc and cracc (an int64 per page). */
void page_columns(int64_t nprocs, const int64_t *offsets, const int64_t *boff,
                  const int64_t *breg, const uint8_t *bwrite,
                  const int64_t *blen, const void *index, int64_t width,
                  const int64_t *base, const int64_t *size,
                  const int64_t *obase, int64_t shift, int64_t npages,
                  uint8_t *pmark, uint8_t *omark, int64_t *ubacc,
                  int64_t *cracc, int64_t *acc, int64_t *aoff, int64_t *wr,
                  int64_t *woff, int64_t *ub, int64_t *cross)
{
    int64_t p, b, i, g, na = 0, nw = 0;
    aoff[0] = woff[0] = 0;
    for (p = 0; p < nprocs; p++) {
        int64_t a0 = na, w0 = nw;
        i = offsets[p];
        for (b = boff[p]; b < boff[p + 1]; b++) {
            int64_t sz = size[breg[b]], bs = base[breg[b]], end = i + blen[b];
            uint8_t *om = omark + obase[breg[b]];
            for (; i < end; i++) {
                int64_t ix = INDEX(i), start = bs + ix * sz;
                int64_t first = start >> shift, last = (start + sz - 1) >> shift;
                for (g = first; g <= last; g++)
                    if (!pmark[g]) {
                        pmark[g] = 1;
                        acc[na++] = g;
                    }
                if (!bwrite[b] || om[ix]) continue;
                om[ix] = 1;
                for (g = first; g <= last; g++) {
                    if (pmark[g] == 1) {
                        pmark[g] = 3;
                        wr[nw++] = g;
                    }
                    ubacc[g] += sz;
                    if (g > first) cracc[g] += sz;
                }
            }
        }
        for (b = boff[p], i = offsets[p]; b < boff[p + 1]; b++) {
            int64_t end = i + blen[b];
            uint8_t *om = omark + obase[breg[b]];
            if (!bwrite[b]) i = end;
            for (; i < end; i++) om[INDEX(i)] = 0;
        }
        sort_marked(acc + a0, na - a0, pmark, 1, npages);
        sort_marked(wr + w0, nw - w0, pmark, 2, npages);
        for (g = w0; g < nw; g++) {
            ub[g] = ubacc[wr[g]];
            cross[g] = cracc[wr[g]];
            ubacc[wr[g]] = cracc[wr[g]] = 0;
        }
        for (g = a0; g < na; g++) pmark[acc[g]] = 0;
        aoff[p + 1] = na;
        woff[p + 1] = nw;
    }
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
            log.warning("compiled kernels (burst decode, cache replay,"
                        " Barnes-Hut walk) unavailable, falling back to the"
                        " numpy decode, the slower loop replay and the numpy"
                        " frontier walk: %s", _error)
            return None
        p, i64 = ctypes.c_void_p, ctypes.c_int64
        lib.lru_replay.restype = i64
        lib.lru_replay.argtypes = [p, i64, i64, i64, p, i64, p, p]
        lib.mattson_replay.restype = i64
        lib.mattson_replay.argtypes = [p, i64, i64, i64, p, p, i64, p, p, p]
        lib.bh_walk.restype = i64
        lib.bh_walk.argtypes = [p, p, i64, p, p, p, p, p, p, p, p, i64,
                                ctypes.c_double, p, p, p, p]
        lib.decode_lines.restype = None
        lib.decode_lines.argtypes = [i64, p, p, p, p, p, p, i64, p, p, i64,
                                     i64, i64, p, p, p, p, p, p, p, p, p]
        lib.page_columns.restype = None
        lib.page_columns.argtypes = [i64, p, p, p, p, p, p, i64, p, p, p, i64,
                                     i64, p, p, p, p, p, p, p, p, p, p]
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
            f"the compiled kernels (burst decode, cache replay, Barnes-Hut"
            f" walk) are unavailable ({_error}); use engine='loop'"
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


class BurstDecoder:
    """Region table and scratch of the burst-column front ends.

    One decoder serves one geometry: each region's base byte address,
    object size and object count, and the unit (cache line or page) size.
    :meth:`decode_lines` and :meth:`page_columns` check an epoch's columns
    -- shapes, burst tiling, region ids, and every index within
    ``[0, num_objects)`` of its burst's region, which keeps the C code's
    stamp writes in bounds -- and raise
    :class:`~repro.errors.SimulationInputError` before any C call, then
    make one C pass over the epoch.  ``index`` may be an int32 (mmap-loaded)
    or int64 column.
    """

    def __init__(self, bases, sizes, counts, unit: int):
        if unit < 1 or unit & (unit - 1):
            raise ValueError(f"unit must be a power of two, got {unit}")
        self.shift = unit.bit_length() - 1
        self.bases, self.sizes, self.counts = _i64(bases), _i64(sizes), _i64(counts)
        if not (self.bases.shape == self.sizes.shape == self.counts.shape) or (
            self.bases.size and (self.bases.min() < 0 or self.sizes.min() < 1
                                 or self.counts.min() < 0)
        ):
            raise ValueError("region table needs bases >= 0, sizes >= 1, counts >= 0")
        live = self.counts > 0
        ends = self.bases[live] + self.counts[live] * self.sizes[live]
        #: Units that valid accesses can reach: the scratch arrays' length.
        self.nunits = int(((ends - 1) >> self.shift).max()) + 1 if ends.size else 0
        # Most units one object can cover (the output bound per access).
        self._span = ((self.sizes - 1) >> self.shift) + 2
        self._mark = None
        self._buffers = [np.empty(0, dtype=np.int64) for _ in range(4)]
        self._page_scratch = None

    @classmethod
    def for_layout(cls, layout, unit: int) -> "BurstDecoder":
        """The decoder of a :class:`~repro.trace.layout.Layout` at ``unit``."""
        regions = layout.regions
        return cls(layout.bases, [r.object_size for r in regions],
                   [r.num_objects for r in regions], unit)

    def _columns(self, epoch) -> tuple:
        """The epoch's columns in the C code's dtypes, checked."""
        nprocs = int(epoch.nprocs)
        offsets, boff = _i64(epoch.offsets), _i64(epoch.burst_offsets)
        breg, blen = _i64(epoch.burst_region), _i64(epoch.burst_length)
        bwrite = np.ascontiguousarray(epoch.burst_write, dtype=np.bool_)
        index = np.asarray(epoch.index)
        if index.dtype != np.int32:
            index = index.astype(np.int64, copy=False)
        index = np.ascontiguousarray(index)
        nb = breg.shape[0]
        if (offsets.shape != (nprocs + 1,) or boff.shape != (nprocs + 1,)
                or bwrite.shape != (nb,) or blen.shape != (nb,) or index.ndim != 1):
            raise SimulationInputError("epoch columns have inconsistent shapes")
        starts = np.zeros(nb + 1, dtype=np.int64)
        np.cumsum(blen, out=starts[1:])
        if (
            (nb and blen.min() < 0) or boff[0] != 0 or boff[-1] != nb
            or (np.diff(boff) < 0).any() or starts[-1] != index.shape[0]
            or not np.array_equal(starts[boff], offsets)
        ):
            raise SimulationInputError("burst columns do not tile the epoch's accesses")
        if nb and (breg.min() < 0 or breg.max() >= self.counts.shape[0]):
            raise SimulationInputError("burst region id outside the region table")
        if index.shape[0]:
            live = blen > 0
            top = np.maximum.reduceat(index, starts[:-1][live])
            if index.min() < 0 or (top >= self.counts[breg[live]]).any():
                raise SimulationInputError(
                    "access index outside [0, num_objects) of its region"
                )
        bound = int(blen @ self._span[breg]) if nb else 0
        return nprocs, offsets, boff, breg, bwrite, blen, index, bound

    def _buffer(self, slot: int, size: int) -> np.ndarray:
        if self._buffers[slot].shape[0] < size:
            self._buffers[slot] = np.empty(size, dtype=np.int64)
        return self._buffers[slot]

    def decode_lines(self, epoch, page_size: int) -> tuple[np.ndarray, ...]:
        """One pass over ``epoch`` at line geometry (the decoder's unit).

        Returns ``(lines, loff, pages, poff, distinct, doff, written,
        woff)``, CSR over the procs: proc ``p``'s line stream with
        consecutive repeats dropped is ``lines[loff[p]:loff[p + 1]]``, the
        ``page_size`` pages of that stream with consecutive repeats
        dropped ``pages[poff[p]:poff[p + 1]]``, its distinct lines (in
        first-touch order) ``distinct[doff[p]:doff[p + 1]]`` and its
        written lines, sorted, ``written[woff[p]:woff[p + 1]]``.  The four
        streams are views into buffers the next call reuses.
        """
        if page_size < 1 or page_size & (page_size - 1):
            raise ValueError(f"page_size must be a power of two, got {page_size}")
        lib = require()
        nprocs, offsets, boff, breg, bwrite, blen, index, bound = self._columns(epoch)
        if self._mark is None:
            self._mark = np.zeros(self.nunits, dtype=np.uint8)
        lines = self._buffer(0, bound)
        pages = self._buffer(1, bound)
        dist = self._buffer(2, min(bound, nprocs * self.nunits))
        wr = self._buffer(3, min(bound, nprocs * self.nunits))
        loff, poff, doff, woff = (
            np.empty(nprocs + 1, dtype=np.int64) for _ in range(4)
        )
        lib.decode_lines(
            nprocs, offsets.ctypes.data, boff.ctypes.data, breg.ctypes.data,
            bwrite.ctypes.data, blen.ctypes.data, index.ctypes.data,
            index.itemsize, self.bases.ctypes.data, self.sizes.ctypes.data,
            self.shift, page_size.bit_length() - 1 - self.shift, self.nunits,
            self._mark.ctypes.data, lines.ctypes.data, loff.ctypes.data,
            pages.ctypes.data, poff.ctypes.data, dist.ctypes.data,
            doff.ctypes.data, wr.ctypes.data, woff.ctypes.data,
        )
        return (lines[: loff[-1]], loff, pages[: poff[-1]], poff,
                dist[: doff[-1]], doff, wr[: woff[-1]], woff)

    def page_columns(self, epoch) -> tuple[np.ndarray, ...]:
        """One pass over ``epoch`` at page geometry.

        Returns ``(accesses, aoff, writes, woff, ub, cross)``, CSR over the
        procs: proc ``p``'s sorted distinct pages touched are
        ``accesses[aoff[p]:aoff[p + 1]]`` and written
        ``writes[woff[p]:woff[p + 1]]``; aligned with the written pages,
        ``ub`` sums the sizes of the distinct objects written on each page
        (uncapped) and ``cross`` the part of it from objects that start on
        an earlier page.  Fresh arrays, not views of reused buffers.
        """
        lib = require()
        nprocs, offsets, boff, breg, bwrite, blen, index, bound = self._columns(epoch)
        if self._mark is None:
            self._mark = np.zeros(self.nunits, dtype=np.uint8)
        if self._page_scratch is None:
            obase = np.zeros(self.counts.shape[0], dtype=np.int64)
            np.cumsum(self.counts[:-1], out=obase[1:])
            self._page_scratch = (
                obase,
                np.zeros(int(self.counts.sum()), dtype=np.uint8),
                np.zeros(self.nunits, dtype=np.int64),
                np.zeros(self.nunits, dtype=np.int64),
            )
        obase, omark, ubacc, cracc = self._page_scratch
        cap = min(bound, nprocs * self.nunits)
        acc, wr, ub, cross = (np.empty(cap, dtype=np.int64) for _ in range(4))
        aoff, woff = (np.empty(nprocs + 1, dtype=np.int64) for _ in range(2))
        lib.page_columns(
            nprocs, offsets.ctypes.data, boff.ctypes.data, breg.ctypes.data,
            bwrite.ctypes.data, blen.ctypes.data, index.ctypes.data,
            index.itemsize, self.bases.ctypes.data, self.sizes.ctypes.data,
            obase.ctypes.data, self.shift, self.nunits, self._mark.ctypes.data,
            omark.ctypes.data, ubacc.ctypes.data, cracc.ctypes.data,
            acc.ctypes.data,
            aoff.ctypes.data, wr.ctypes.data, woff.ctypes.data,
            ub.ctypes.data, cross.ctypes.data,
        )
        na, nw = int(aoff[-1]), int(woff[-1])
        return (acc[:na].copy(), aoff, wr[:nw].copy(), woff,
                ub[:nw].copy(), cross[:nw].copy())
