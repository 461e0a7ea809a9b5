"""Loop-vs-batch engine equivalence for the app numerics.

The contract of ``config.extra["engine"]`` is stronger than numerical
agreement: the packed trace bundle must be **byte-identical** across
engines.  These tests pin
that end-to-end for all five apps, plus the unit-level equivalences the
contract is built from: the level-synchronous octree builder, the
Barnes-Hut walks (frontier, compiled per-body, Python per-body) and
forces, the FMM translation stacks, the interaction-list
oracle, and the shared bincount scatter helper.
"""

import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import APP_REGISTRY, AppConfig
from repro.apps import fmm_math as fm
from repro.apps import numerics as nx
from repro.apps.base import ENGINES, resolve_engine, scatter_add
from repro.apps.moldyn import build_interaction_list
from repro.apps import octree
from repro.apps.octree import build_octree, walk
from repro.machines import native
from repro.trace import save_trace

#: sha256 of each app's v2 ``.npt`` bundle (``tests/trace/test_ragged_builder.py``).
BUNDLE_DIGESTS = json.loads(
    (Path(__file__).parents[1] / "data" / "bundle_digests.json").read_text()
)

SMALL = {
    "barnes-hut": 192,
    "fmm": 256,
    "water-spatial": 216,
    "moldyn": 256,
    "unstructured": 200,
}


def packed(name, *, n, engine, emit, seed=11, iterations=3, nprocs=4):
    cfg = AppConfig(
        n=n,
        nprocs=nprocs,
        iterations=iterations,
        seed=seed,
        extra={"engine": engine, "emit": emit},
    )
    app = APP_REGISTRY[name](cfg)
    trace = app.run()
    bio = io.BytesIO()
    save_trace(trace, bio)
    return bio.getvalue(), app


class TestResolveEngine:
    def test_auto_maps_to_batch(self):
        assert resolve_engine("auto") == "batch"
        assert resolve_engine("loop") == "loop"
        assert resolve_engine("batch") == "batch"

    def test_invalid_rejected(self):
        with pytest.raises(ValueError, match="engine"):
            resolve_engine("turbo")

    def test_engines_tuple(self):
        assert ENGINES == ("loop", "batch", "auto")

    def test_default_is_auto(self):
        app = APP_REGISTRY["moldyn"](AppConfig(n=64, nprocs=2, iterations=1, seed=0))
        assert app.engine == "batch"


class TestScatterAdd:
    """The shared bincount scatter that replaced ``np.add.at``."""

    def test_1d_matches_add_at_bitwise(self, rng):
        idx = rng.integers(0, 50, 4000)
        vals = rng.standard_normal(4000)
        a = np.zeros(50)
        b = np.zeros(50)
        scatter_add(a, idx, vals)
        np.add.at(b, idx, vals)
        assert np.array_equal(a, b)

    def test_2d_matches_add_at_bitwise(self, rng):
        idx = rng.integers(0, 40, 2000)
        vals = rng.standard_normal((2000, 3))
        a = np.zeros((40, 3))
        b = np.zeros((40, 3))
        scatter_add(a, idx, vals)
        np.add.at(b, idx, vals)
        assert np.array_equal(a, b)

    def test_complex_matches_sequential_fold(self, rng):
        idx = rng.integers(0, 20, 500)
        vals = rng.standard_normal(500) + 1j * rng.standard_normal(500)
        a = np.zeros(20, dtype=np.complex128)
        scatter_add(a, idx, vals)
        b = np.zeros(20, dtype=np.complex128)
        for i, v in zip(idx.tolist(), vals.tolist()):
            b[i] += v
        assert np.array_equal(a, b)

    def test_untouched_bins_keep_signed_zero(self):
        # -0.0 + 0.0 flips to +0.0; scatter_add must not touch empty bins.
        out = np.array([-0.0, 1.0])
        scatter_add(out, np.array([1]), np.array([2.0]))
        assert np.signbit(out[0]) and out[1] == 3.0

    def test_nonzero_accumulator_close(self, rng):
        # Onto a nonzero accumulator, bincount folds a bin's contributions
        # before the running value while add.at interleaves — equal to
        # rounding, not necessarily bitwise.
        idx = rng.integers(0, 10, 1000)
        vals = rng.standard_normal(1000)
        start = rng.standard_normal(10)
        a = start.copy()
        b = start.copy()
        scatter_add(a, idx, vals)
        np.add.at(b, idx, vals)
        assert np.allclose(a, b, rtol=1e-12, atol=1e-12)

    def test_not_slower_than_add_at(self, rng):
        from time import perf_counter

        idx = rng.integers(0, 4096, 200_000)
        vals = rng.standard_normal((200_000, 3))
        out = np.zeros((4096, 3))

        def best(fn, rounds=3):
            t = []
            for _ in range(rounds):
                t0 = perf_counter()
                fn()
                t.append(perf_counter() - t0)
            return min(t)

        t_at = best(lambda: np.add.at(out, idx, vals))
        t_sc = best(lambda: scatter_add(out, idx, vals))
        # scatter_add is typically ~10x faster; 3x slack keeps this a
        # regression tripwire rather than a flaky microbenchmark.
        assert t_sc < 3.0 * t_at


class TestOctreeEngines:
    @pytest.mark.parametrize("seed,n,cap", [(0, 500, 8), (1, 300, 4), (2, 64, 1)])
    def test_batch_tree_identical_to_recursive(self, seed, n, cap):
        rng = np.random.default_rng(seed)
        pos = rng.random((n, 3))
        mass = rng.random(n) + 0.1
        a = build_octree(pos, mass, leaf_capacity=cap, engine="loop")
        b = build_octree(pos, mass, leaf_capacity=cap, engine="batch")
        for f in (
            "center",
            "half",
            "mass",
            "com",
            "children",
            "is_leaf",
            "leaf_start",
            "leaf_count",
            "leaf_bodies",
            "body_leaf",
            "node_level",
        ):
            assert np.array_equal(getattr(a, f), getattr(b, f)), f
        assert a.ncells == b.ncells and a.depth == b.depth

    def test_coincident_points_hit_max_depth_identically(self):
        pos = np.zeros((20, 3))
        pos[10:] = 0.75
        a = build_octree(pos, leaf_capacity=2, max_depth=5, engine="loop")
        b = build_octree(pos, leaf_capacity=2, max_depth=5, engine="batch")
        assert a.ncells == b.ncells and a.depth == b.depth
        assert np.array_equal(a.leaf_bodies, b.leaf_bodies)

    def test_subtree_spans_match_reverse_scan(self, rng):
        pos = rng.random((400, 3))
        tree = build_octree(pos, leaf_capacity=4, engine="batch")
        lo, hi = nx.subtree_spans(tree)
        for c in range(tree.ncells - 1, -1, -1):
            if tree.is_leaf[c]:
                assert lo[c] == tree.leaf_start[c]
                assert hi[c] == tree.leaf_start[c] + tree.leaf_count[c]
            else:
                kids = tree.children[c][tree.children[c] >= 0]
                assert lo[c] == lo[kids].min() and hi[c] == hi[kids].max()


def _global_pairs(wr):
    """The frontier walk's global pair lists, as ``bh_forces_batch`` takes them."""
    return (wr.cell_body, wr.cell_id), (wr.direct_body, wr.direct_other)


def _grouped_pairs(csr, order):
    """The same pairs from the per-body CSR streams, grouped by body."""
    ci, cbounds, do, dbounds = csr
    return (
        (np.repeat(order, np.diff(cbounds)), ci),
        (np.repeat(order, np.diff(dbounds)), do),
    )


def _points(kind, n, rng):
    if kind == "uniform":
        return rng.random((n, 3))
    if kind == "clustered":
        centers = rng.random((3, 3))
        pos = centers[rng.integers(0, 3, n)] + 0.01 * rng.standard_normal((n, 3))
        pos[: n // 10] = rng.random((n // 10, 3))  # a sprinkle of outliers
        return pos
    pos = rng.random((n, 3))  # coincident: two stacks of identical points
    pos[: n // 3] = pos[0]
    pos[n // 3 : n // 2] = 0.25
    return pos


class TestBarnesHutForces:
    def test_frontier_matches_per_body_walk(self, rng):
        n = 300
        pos = rng.random((n, 3))
        mass = rng.random(n) / n + 1e-3
        tree = build_octree(pos, mass, leaf_capacity=8, engine="batch")
        order = rng.permutation(n)
        acc_l, cost_l, csr_l = nx.bh_walk_forces_loop(
            tree, pos, mass, 0.7, 0.05, order
        )
        wr = walk(tree, pos, 0.7)
        acc_b = nx.bh_forces_batch(tree, pos, mass, *_global_pairs(wr), 0.05)
        assert np.array_equal(acc_l, acc_b)
        assert np.array_equal(cost_l, wr.interactions_per_body(n))
        parties = [wr.per_body_csr(n, order=order)]
        if native.available():
            parties.append(native.bh_walk(tree, pos, 0.7, order))
        for csr in parties:
            for x, y in zip(csr_l, csr):
                assert np.array_equal(x, y)


@pytest.mark.skipif(not native.available(), reason="no C compiler for the compiled walk")
class TestCompiledWalk:
    """The compiled per-body walk against the numpy frontier walk."""

    @pytest.mark.parametrize("kind", ["uniform", "clustered", "coincident"])
    @pytest.mark.parametrize("theta", [0.2, 0.7, 1.5])
    @pytest.mark.parametrize("cap", [1, 2, 8])
    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 260))
    def test_matches_frontier_walk(self, kind, theta, cap, seed, n):
        rng = np.random.default_rng(seed)
        pos = _points(kind, n, rng)
        mass = rng.random(n) / n + 1e-3
        tree = build_octree(pos, mass, leaf_capacity=cap, engine="batch")
        order = rng.permutation(n)
        wr = walk(tree, pos, theta)
        got = native.bh_walk(tree, pos, theta, order)
        for x, y in zip(wr.per_body_csr(n, order=order), got):
            assert x.dtype == y.dtype and np.array_equal(x, y)
        _, cbounds, _, dbounds = got
        cost = np.empty(n, dtype=np.int64)
        cost[order] = np.diff(cbounds) + np.diff(dbounds)
        assert np.array_equal(cost, wr.interactions_per_body(n))
        grouped = nx.bh_forces_batch(tree, pos, mass, *_grouped_pairs(got, order), 0.05)
        flat = nx.bh_forces_batch(tree, pos, mass, *_global_pairs(wr), 0.05)
        assert np.array_equal(grouped, flat)


    @pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
    def test_exact_ties_match_frontier_walk(self, rng, theta):
        """Integer positions, centers and coms and whole halves make both
        comparisons of the opening test tie often; the walks must agree
        on every tie."""
        n = 400
        pos = rng.integers(0, 8, (n, 3)).astype(np.float64)
        tree = build_octree(pos, leaf_capacity=2, engine="batch")
        tree.center = np.round(tree.center)
        tree.com = np.round(tree.com)
        tree.half = np.maximum(np.round(tree.half), 1.0)
        order = rng.permutation(n)
        got = native.bh_walk(tree, pos, theta, order)
        ref = walk(tree, pos, theta).per_body_csr(n, order=order)
        for x, y in zip(ref, got):
            assert np.array_equal(x, y)


class TestCompiledWalkArguments:
    """Bad arguments are refused in Python, before any call into C."""

    @pytest.fixture
    def case(self, rng, monkeypatch):
        def no_c():
            raise AssertionError("bh_walk called into the library")

        monkeypatch.setattr(native, "require", no_c)
        pos = rng.random((50, 3))
        return build_octree(pos), pos

    def test_rejects_non_3d_positions(self, case):
        tree, pos = case
        with pytest.raises(ValueError, match="3-D"):
            native.bh_walk(tree, pos[:, :2], 0.7, np.arange(50))
        with pytest.raises(ValueError, match="3-D"):
            native.bh_walk(build_octree(pos[:, :2]), pos[:, :2], 0.7, np.arange(50))
        with pytest.raises(ValueError, match="3-D"):
            native.bh_walk(tree, pos.ravel(), 0.7, np.arange(50))

    @pytest.mark.parametrize(
        "order",
        [
            np.arange(49),
            np.arange(51) % 50,
            np.r_[np.arange(49), 0],
            np.r_[np.arange(1, 50), 50],
            np.r_[-1, np.arange(1, 50)],
            np.arange(50).reshape(5, 10),
        ],
        ids=["short", "long", "duplicate", "too-large", "negative", "2-d"],
    )
    def test_rejects_non_permutation_order(self, case, order):
        tree, pos = case
        with pytest.raises(ValueError, match="permutation"):
            native.bh_walk(tree, pos, 0.7, order)

    def test_rejects_mismatched_tree_and_theta(self, case):
        tree, pos = case
        with pytest.raises(ValueError, match="bodies"):
            native.bh_walk(tree, pos[:40], 0.7, np.arange(40))
        with pytest.raises(ValueError, match="theta"):
            native.bh_walk(tree, pos, 0.0, np.arange(50))


class TestWalkFallback:
    def test_bundles_match_digests_without_library(self, monkeypatch):
        """With the library hidden the batch engine runs the numpy frontier
        walk, and both engines still reproduce the pinned bundles."""
        monkeypatch.setattr(native, "_load", lambda: None)
        calls = []
        frontier = octree.walk

        def counted(*args, **kwargs):
            calls.append(1)
            return frontier(*args, **kwargs)

        monkeypatch.setattr(octree, "walk", counted)
        for seed in (7, 42):
            for engine in ("batch", "loop"):
                cfg = AppConfig(
                    n=96, nprocs=4, iterations=2, seed=seed, extra={"engine": engine}
                )
                bio = io.BytesIO()
                save_trace(APP_REGISTRY["barnes-hut"](cfg).run(), bio)
                digest = hashlib.sha256(bio.getvalue()).hexdigest()
                assert digest == BUNDLE_DIGESTS[f"barnes_hut-seed{seed}"], (seed, engine)
        assert len(calls) == 4  # 2 seeds x 2 iterations, batch engine only


class TestFMMNumerics:
    def test_p2m_batch_matches_per_cell(self, rng):
        p = 8
        z = rng.random(60) + 1j * rng.random(60)
        q = rng.standard_normal(60)
        g = np.sort(rng.integers(0, 5, 60))
        z0 = np.arange(5) + 0.5 + 0.5j
        d = z - z0[g]
        batch = nx.p2m_batch(d, q, g, 5, p)
        for c in range(5):
            m = g == c
            assert np.array_equal(batch[c], fm.p2m(z[m], q[m], z0[c], p))

    @pytest.mark.parametrize("kind", ["m2m", "m2l", "l2l"])
    def test_stacks_match_scalar_matrices(self, rng, kind):
        # Not bitwise: numpy's vectorized complex multiply fuses the cross
        # terms (FMA) while the scalar path doesn't.  The apps share the
        # stack constructors across engines for exactly this reason.
        p = 8
        binom = fm.binomial_table(2 * p)
        zs = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        zs += 3.0  # keep M2L separations well away from zero
        stack = {"m2m": nx.m2m_stack, "m2l": nx.m2l_stack, "l2l": nx.l2l_stack}[
            kind
        ](zs, p, binom)
        scalar = {"m2m": fm.m2m_matrix, "m2l": fm.m2l_matrix, "l2l": fm.l2l_matrix}[
            kind
        ]
        for i, z in enumerate(zs.tolist()):
            assert np.allclose(stack[i], scalar(z, p, binom), rtol=1e-13, atol=1e-13)

    def test_eval_local_deriv_batch_matches_per_cell(self, rng):
        p = 8
        b = rng.standard_normal((4, p + 1)) + 1j * rng.standard_normal((4, p + 1))
        z = rng.random(40) + 1j * rng.random(40)
        g = rng.integers(0, 4, 40)
        z0 = np.arange(4) * (1 + 1j)
        out = nx.eval_local_deriv_batch(b[g], z - z0[g])
        for c in range(4):
            m = g == c
            assert np.array_equal(out[m], fm.eval_local_deriv(b[c], z[m], z0[c]))

    def test_batched_translations_accurate_vs_direct(self, rng):
        # P2M -> M2M -> M2L -> L2L (all via the batched stacks) -> L2P
        # must reproduce the direct potential to expansion accuracy.
        p = 16
        binom = fm.binomial_table(2 * p)
        src = (rng.random(40) + 1j * rng.random(40)) * 0.25  # in [0, .25]^2
        q = rng.standard_normal(40)
        child = 0.125 + 0.125j
        parent = 0.25 + 0.25j
        local0 = 6.25 + 0.25j  # well separated from the parent box
        local1 = 6.125 + 0.125j
        targets = local1 + (rng.random(25) + 1j * rng.random(25) - 0.5 - 0.5j) * 0.2

        a = nx.p2m_batch(src - child, q, np.zeros(40, dtype=np.int64), 1, p)[0]
        a = nx.m2m_stack(np.array([child - parent]), p, binom)[0] @ a
        b = nx.m2l_stack(np.array([parent - local0]), p, binom)[0] @ a
        b = nx.l2l_stack(np.array([local1 - local0]), p, binom)[0] @ b
        phi = fm.eval_local(b, targets, local1)
        direct = fm.direct_potential(src, q, targets)
        assert np.allclose(phi, direct, rtol=0, atol=1e-10)


class TestInteractionListOracle:
    @pytest.mark.parametrize("seed,n", [(3, 200), (4, 500)])
    def test_loop_list_equals_batch_list(self, seed, n):
        rng = np.random.default_rng(seed)
        pos = rng.random((n, 3))
        for cutoff in (0.2, 0.34):
            a = nx.interaction_list_loop(pos, cutoff, 1.0)
            b = build_interaction_list(pos, cutoff, 1.0)
            assert np.array_equal(a, b)

    def test_empty_and_tiny(self):
        pos = np.array([[0.5, 0.5, 0.5]])
        assert nx.interaction_list_loop(pos, 0.3, 1.0).shape == (0, 2)


class TestByteIdenticalBundles:
    """The headline invariant: engines never change the trace."""

    @pytest.mark.parametrize("name", sorted(SMALL))
    @pytest.mark.parametrize("seed", [11, 23])
    def test_bundles_identical_across_engines(self, name, seed):
        n = SMALL[name] + (32 if seed != 11 else 0)
        loop, _ = packed(name, n=n, engine="loop", emit="ragged", seed=seed)
        batch, _ = packed(name, n=n, engine="batch", emit="ragged", seed=seed)
        assert loop == batch

    @pytest.mark.parametrize("name", ["barnes-hut", "fmm"])
    def test_positions_bitwise_identical(self, name):
        _, a = packed(name, n=SMALL[name], engine="loop", emit="none")
        _, b = packed(name, n=SMALL[name], engine="batch", emit="none")
        assert np.array_equal(a.positions(), b.positions())

    def test_physics_stages_populated(self):
        _, app = packed("barnes-hut", n=SMALL["barnes-hut"], engine="batch", emit="ragged")
        assert app.physics_seconds > 0.0
        assert set(app.physics_stages) == {
            "tree_build",
            "partition",
            "walk",
            "forces",
            "integrate",
        }
        total = sum(app.physics_stages.values())
        assert total == pytest.approx(app.physics_seconds)
