"""Tests for the synthetic unstructured mesh generators."""

import numpy as np
import pytest

from repro.apps.distributions import uniform_box
from repro.apps.mesh import Mesh, _canonical, delaunay_mesh, knn_mesh, make_mesh


class TestDelaunay:
    def test_connectivity_canonical(self, rng):
        pts = uniform_box(200, seed=1)
        m = delaunay_mesh(pts)
        assert np.all(m.edges[:, 0] < m.edges[:, 1])
        assert np.all(np.diff(m.edges[:, 0]) >= 0)
        assert np.all((m.faces[:, 0] < m.faces[:, 1]) & (m.faces[:, 1] < m.faces[:, 2]))

    def test_edges_unique(self):
        m = delaunay_mesh(uniform_box(150, seed=2))
        assert np.unique(m.edges, axis=0).shape[0] == m.edges.shape[0]

    def test_edges_connect_nearby_nodes(self):
        """The paper's premise: 'edges or faces only connect physically
        adjacent nodes' — edge lengths far below random-pair distance."""
        pts = uniform_box(500, seed=3)
        m = delaunay_mesh(pts)
        edge_len = np.linalg.norm(pts[m.edges[:, 0]] - pts[m.edges[:, 1]], axis=1)
        rng = np.random.default_rng(0)
        rand_len = np.linalg.norm(
            pts[rng.integers(0, 500, 1000)] - pts[rng.integers(0, 500, 1000)], axis=1
        ).mean()
        assert np.median(edge_len) < rand_len / 2

    def test_every_node_connected(self):
        m = delaunay_mesh(uniform_box(100, seed=4))
        assert set(np.unique(m.edges).tolist()) == set(range(100))

    def test_faces_are_triangles_of_edges(self):
        m = delaunay_mesh(uniform_box(80, seed=5))
        edge_set = {tuple(e) for e in m.edges.tolist()}
        for a, b, c in m.faces[:50].tolist():
            assert (a, b) in edge_set and (b, c) in edge_set and (a, c) in edge_set


class TestCanonical:
    def test_matches_row_unique_and_lexsort(self, rng):
        """Packed-key canonicalisation equals the row-wise reference."""
        n = 30
        edges = rng.integers(0, n, (600, 2))
        faces = rng.integers(0, n, (600, 3))
        got_e, got_f = _canonical(edges, faces, n)
        ref_e = np.unique(np.sort(edges, axis=1), axis=0)
        ref_e = ref_e[ref_e[:, 0] != ref_e[:, 1]]
        ref_f = np.unique(np.sort(faces, axis=1), axis=0)
        ref_f = ref_f[(ref_f[:, 0] != ref_f[:, 1]) & (ref_f[:, 1] != ref_f[:, 2])]
        assert np.array_equal(got_e, ref_e[np.lexsort((ref_e[:, 1], ref_e[:, 0]))])
        assert np.array_equal(
            got_f, ref_f[np.lexsort((ref_f[:, 2], ref_f[:, 1], ref_f[:, 0]))]
        )

    def test_empty_faces_pass_through(self):
        faces = np.empty((0, 3), dtype=np.int64)
        edges, out = _canonical(np.array([[3, 1], [1, 3], [2, 2]]), faces, 4)
        assert edges.tolist() == [[1, 3]] and out is faces

    def test_rejects_node_counts_that_overflow_the_keys(self):
        edges = np.array([[0, 1]])
        faces = np.empty((0, 3), dtype=np.int64)
        assert _canonical(edges, faces, 2**21 - 1)[0].tolist() == [[0, 1]]
        with pytest.raises(ValueError, match="overflow"):
            _canonical(edges, faces, 2**21)


class TestKNN:
    def test_same_invariants_as_delaunay(self):
        pts = uniform_box(120, seed=6)
        m = knn_mesh(pts, k=6)
        assert np.all(m.edges[:, 0] < m.edges[:, 1])
        assert np.unique(m.edges, axis=0).shape[0] == m.edges.shape[0]
        assert set(np.unique(m.edges).tolist()) == set(range(120))

    def test_rejects_too_few_points(self):
        with pytest.raises(ValueError):
            knn_mesh(uniform_box(5, seed=7), k=8)


class TestRemap:
    def test_remap_preserves_geometry(self, rng):
        pts = uniform_box(100, seed=8)
        m = make_mesh(pts)
        perm = rng.permutation(100)
        rank = np.empty(100, dtype=np.int64)
        rank[perm] = np.arange(100)
        m2 = Mesh(points=pts[perm], edges=m.edges, faces=m.faces).remap(rank)
        old = {
            tuple(sorted((tuple(pts[a]), tuple(pts[b])))) for a, b in m.edges.tolist()
        }
        new = {
            tuple(sorted((tuple(m2.points[a]), tuple(m2.points[b]))))
            for a, b in m2.edges.tolist()
        }
        assert old == new

    def test_remap_restores_canonical_order(self, rng):
        pts = uniform_box(100, seed=9)
        m = make_mesh(pts)
        perm = rng.permutation(100)
        rank = np.empty(100, dtype=np.int64)
        rank[perm] = np.arange(100)
        m2 = m.remap(rank)
        assert np.all(m2.edges[:, 0] < m2.edges[:, 1])
        assert np.all(np.diff(m2.edges[:, 0]) >= 0)
