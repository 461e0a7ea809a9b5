"""Synthetic unstructured tetrahedral meshes.

The Chaos ``unstructured`` benchmark reads a CFD mesh file (``mesh.10k``)
that we do not have; per the reproduction's substitution rule we generate an
equivalent unstructured mesh by Delaunay tetrahedralization of a random
point cloud.  What matters to the benchmark's memory behaviour is exactly
what Delaunay provides: "edges or faces only connect physically adjacent
nodes" while the *array order* of nodes carries no spatial information.

A pure-numpy fallback (k-nearest-neighbour graph symmetrized, faces from
shared-neighbour triples) is used when scipy is unavailable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Mesh", "delaunay_mesh", "knn_mesh", "make_mesh"]


@dataclass(frozen=True)
class Mesh:
    """An unstructured mesh: nodes plus edge and face connectivity.

    ``edges`` is ``(ne, 2)`` with ``edges[:, 0] < edges[:, 1]``; ``faces``
    is ``(nf, 3)`` with sorted rows.  Both are sorted by first node — the
    storage order of the benchmark's connectivity arrays.
    """

    points: np.ndarray
    edges: np.ndarray
    faces: np.ndarray

    @property
    def nnodes(self) -> int:
        return int(self.points.shape[0])

    def remap(self, rank: np.ndarray) -> "Mesh":
        """Renumber nodes through ``rank`` (old id -> new id), restoring
        canonical row and array order — the connectivity fix-up after data
        reordering."""
        edges = np.sort(rank[self.edges], axis=1)
        faces = np.sort(rank[self.faces], axis=1)
        return Mesh(
            points=self.points,
            edges=edges[np.lexsort((edges[:, 1], edges[:, 0]))],
            faces=faces[np.lexsort((faces[:, 2], faces[:, 1], faces[:, 0]))],
        )


def _canonical(
    edges: np.ndarray, faces: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sort each row, drop duplicate and degenerate rows, order rows
    lexicographically.

    A sorted row over ``n`` nodes packs into one int64 key (``a*n + b``,
    ``(a*n + b)*n + c``) whose numeric order is the rows' lexicographic
    order, so a 1-D ``np.unique`` both deduplicates and sorts.
    """
    if n**3 >= 2**63:
        raise ValueError(f"{n} nodes overflow the int64 face keys")
    e = np.sort(edges, axis=1)
    key = np.unique(e[:, 0] * n + e[:, 1])
    edges = np.stack([key // n, key % n], axis=1)
    edges = edges[edges[:, 0] != edges[:, 1]]
    if faces.shape[0]:
        f = np.sort(faces, axis=1)
        key = np.unique((f[:, 0] * n + f[:, 1]) * n + f[:, 2])
        faces = np.stack([key // (n * n), key // n % n, key % n], axis=1)
        faces = faces[
            (faces[:, 0] != faces[:, 1]) & (faces[:, 1] != faces[:, 2])
        ]
    return edges, faces


def delaunay_mesh(points: np.ndarray) -> Mesh:
    """Delaunay tetrahedralization (scipy) -> edges and triangular faces."""
    from scipy.spatial import Delaunay  # deferred: scipy optional

    points = np.asarray(points, dtype=np.float64)
    tri = Delaunay(points)
    simp = tri.simplices.astype(np.int64)  # (nt, 4)
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    edges = np.concatenate([simp[:, [a, b]] for a, b in pairs], axis=0)
    trips = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    faces = np.concatenate([simp[:, list(t)] for t in trips], axis=0)
    edges, faces = _canonical(edges, faces, points.shape[0])
    return Mesh(points=points, edges=edges, faces=faces)


def knn_mesh(points: np.ndarray, k: int = 8) -> Mesh:
    """Pure-numpy fallback: symmetrized k-NN graph; faces from triangles
    where two neighbours of a node are also mutual neighbours."""
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if n <= k:
        raise ValueError("need more points than neighbours")
    # Chunked exact k-NN to bound memory.
    nbrs = np.empty((n, k), dtype=np.int64)
    chunk = max(1, 2_000_000 // max(n, 1))
    for s in range(0, n, chunk):
        e = min(n, s + chunk)
        d = ((points[s:e, None, :] - points[None, :, :]) ** 2).sum(axis=2)
        d[np.arange(e - s), np.arange(s, e)] = np.inf
        nbrs[s:e] = np.argpartition(d, k, axis=1)[:, :k]
    src = np.repeat(np.arange(n, dtype=np.int64), k)
    dst = nbrs.ravel()
    edges = np.stack([src, dst], axis=1)
    # Triangles: for each node, pairs of its neighbours that are adjacent.
    adj = {(int(a), int(b)) for a, b in np.sort(edges, axis=1).tolist()}
    tri_list = []
    for i in range(n):
        nb = np.sort(nbrs[i])
        for x in range(k):
            for y in range(x + 1, k):
                a, b = int(nb[x]), int(nb[y])
                if (a, b) in adj:
                    tri_list.append((i, a, b))
    faces = np.array(tri_list, dtype=np.int64) if tri_list else np.empty((0, 3), np.int64)
    edges, faces = _canonical(edges, faces, points.shape[0])
    return Mesh(points=points, edges=edges, faces=faces)


def make_mesh(points: np.ndarray) -> Mesh:
    """Delaunay mesh when scipy is available, k-NN fallback otherwise."""
    try:
        return delaunay_mesh(points)
    except ImportError:  # pragma: no cover - scipy present in CI
        return knn_mesh(points)
