import hashlib
import itertools
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.stats import ortho_group

import geometry_oracle as oracle
import tangentgp as tg
from tangentgp import io as tio
from tangentgp.geometry import (
    DegenerateNeighborhoodError,
    DisconnectedGraphError,
    DisconnectedGraphWarning,
    DuplicatePointsError,
    TransportRankError,
    _furthest_point_order,
    _nearest,
    _sum_of_squares,
    _unique_edges,
    auto_frame_neighbors,
)


def circle_points(n, radius=1.0):
    angles = 2 * np.pi * np.arange(n) / n
    return radius * np.column_stack([np.cos(angles), np.sin(angles)])


class TestPointCloud:
    def test_duplicate_points_rejected_naming_pair(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(DuplicatePointsError, match="0 and 2"):
            tg.PointCloud(pts)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="non-finite"):
            tg.PointCloud(np.array([[0.0, np.nan], [1.0, 1.0]]))

    def test_minimum_sizes(self):
        with pytest.raises(ValueError):
            tg.PointCloud(np.zeros((1, 3)))
        with pytest.raises(ValueError):
            tg.PointCloud(np.array([[0.0], [1.0]]))

    def test_vector_shape_must_match(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(ValueError):
            tg.PointCloud(pts, vectors=np.zeros((3, 2)))


class TestKnnGraph:
    def test_two_points_single_edge(self):
        cloud = tg.PointCloud(np.array([[0.0, 0.0], [1.0, 0.0]]))
        graph = tg.build_knn_graph(cloud, 1)
        assert graph.edges.tolist() == [[0, 1]]
        assert graph.degrees.tolist() == [1.0, 1.0]

    def test_circle_matches_brute_force(self):
        # oracle: O(n^2) scan for each point's 2 nearest, union-symmetrized
        pts = circle_points(8)
        cloud = tg.PointCloud(pts)
        graph = tg.build_knn_graph(cloud, 2)

        expected = set()
        for i in range(8):
            dists = np.linalg.norm(pts - pts[i], axis=1)
            dists[i] = np.inf
            for j in np.argsort(dists)[:2]:
                expected.add((min(i, int(j)), max(i, int(j))))
        got = {(int(i), int(j)) for i, j in graph.edges}
        assert got == expected
        # C8: a single cycle
        assert len(graph.edges) == 8
        assert np.all(graph.degrees == 2.0)

    def test_gaussian_weights(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
        cloud = tg.PointCloud(pts)
        graph = tg.build_knn_graph(cloud, 1, weighting="gaussian", bandwidth=2.0)
        for (i, j), w in zip(graph.edges, graph.weights):
            d2 = np.sum((pts[i] - pts[j]) ** 2)
            assert w == pytest.approx(np.exp(-d2 / 4.0), abs=0)

    def test_gaussian_requires_bandwidth(self):
        cloud = tg.PointCloud(np.array([[0.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(ValueError, match="bandwidth"):
            tg.build_knn_graph(cloud, 1, weighting="gaussian")

    def test_k_out_of_range(self):
        cloud = tg.PointCloud(np.array([[0.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(ValueError):
            tg.build_knn_graph(cloud, 2)

    def test_disconnected_error_and_warn(self):
        pts = np.array([[0.0, 0.0], [0.1, 0.0], [100.0, 0.0], [100.1, 0.0]])
        cloud = tg.PointCloud(pts)
        with pytest.raises(DisconnectedGraphError):
            tg.build_knn_graph(cloud, 1)
        with pytest.warns(DisconnectedGraphWarning):
            graph = tg.build_knn_graph(cloud, 1, on_disconnected="warn")
        assert graph.n_components() == 2

    def test_symmetry_of_weight_matrix(self, torus):
        w = torus.graph.weight_matrix()
        assert (w != w.T).nnz == 0

    def test_default_mesh_scale_k5_graph_connects(self, icosphere):
        graph = tg.build_knn_graph(icosphere.cloud, 5)
        assert graph.is_connected()

    def test_fixture_6nn_graph_is_pinned(self):
        # the graph of paper-400 and every shipped config: 1425 edges, the
        # same as a k-d tree gives, hashed as int64 rows i < j
        cloud, _ = tio.load_mesh(Path(__file__).parent / "fixtures" / "torus_400.obj")
        edges = tg.build_knn_graph(cloud, 6).edges
        assert edges.shape == (1425, 2) and edges.dtype == np.int64
        assert hashlib.sha256(edges.tobytes()).hexdigest() == (
            "e47db8c810e0546609ddb18753dfb605398267b5b872ddb481ec7dae053ee758")

    def test_nearest_retries_a_query_whose_kth_candidate_is_past_the_cell_side(self):
        # 999 queries at x = 9.95 are 1.0 from their nearest point, so the
        # first cell side is 1.0. The query at 10.1 (cell 10) finds only 11.3,
        # 1.2 away, in cells 9-11; the nearer 8.95, 1.15 away, is in cell 8
        points = np.array([[0.0, 0.0], [8.95, 0.0], [11.3, 0.0]])
        queries = np.tile([9.95, 0.0], (1000, 1))
        queries[500] = [10.1, 0.0]
        got = _nearest(points, queries, 1)
        assert (got == 1).all()
        assert np.array_equal(got, oracle.nearest(points, queries, 1))

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(kind=st.sampled_from(["lattice", "gaussian", "cluster"]),
           dim=st.sampled_from([2, 3, 5]), seed=st.integers(0, 2**16),
           size=st.integers(1, 80), budget=st.sampled_from([16, 1 << 20]),
           data=st.data())
    def test_nearest_matches_stable_brute_force(self, kind, dim, seed, size, budget,
                                                data):
        # integer lattices queried at half-integers are full of exact ties;
        # a tight cluster with far outliers makes a grid of very uneven cells.
        # Of 200 off-cloud queries 64 set the first cell side; Cauchy queries
        # span many scales, so others retry at larger sides. A budget of 16
        # candidates splits the queries into many blocks
        rng = np.random.default_rng(seed)
        if kind == "lattice":
            points = np.unique(rng.integers(0, 4, (size, dim)), axis=0).astype(float)
            off = rng.integers(-2, 10, (200, dim)) / 2
        elif kind == "gaussian":
            points = rng.normal(size=(size, dim))
            off = rng.standard_cauchy((200, dim))
        else:
            points = np.vstack([1e-3 * rng.normal(size=(size, dim)),
                                100 * rng.normal(size=(3, dim))])
            off = 1e-3 * rng.standard_cauchy((200, dim))
        k = data.draw(st.integers(1, len(points)))
        for queries in (points, off):
            got = _nearest(points, queries, k, budget)
            assert got.dtype == np.int64 and got.shape == (len(queries), k)
            assert np.array_equal(got, oracle.nearest(points, queries, k))


class TestMeshGraph:
    def test_single_triangle(self):
        cloud = tg.PointCloud(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        graph = tg.build_mesh_graph(cloud, np.array([[0, 1, 2]]))
        assert graph.edges.tolist() == [[0, 1], [0, 2], [1, 2]]

    def test_face_index_out_of_range(self):
        cloud = tg.PointCloud(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            tg.build_mesh_graph(cloud, np.array([[0, 1, 3]]))


class TestFurthestPointSample:
    def test_select_everything_identity(self):
        rng = np.random.default_rng(0)
        pts = rng.standard_normal((12, 3))
        idx, spacing = tg.furthest_point_sample(tg.PointCloud(pts), 12)
        assert sorted(idx.tolist()) == list(range(12))
        # oracle: full-cloud spacing = mean nearest-neighbour distance over the
        # largest distance from point 0, which lies in [D/2, D]
        d = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
        scale, diameter = d[0].max(), d.max()
        assert diameter / 2 <= scale <= diameter
        np.fill_diagonal(d, np.inf)
        expected = d.min(axis=1).mean() / scale
        assert spacing == pytest.approx(expected, rel=1e-12)
        assert 0 < spacing <= 1

    def test_square_corners_beat_center(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.5, 0.5]])
        idx, _ = tg.furthest_point_sample(tg.PointCloud(pts), 4)
        assert sorted(idx.tolist()) == [0, 1, 2, 3]
        # oracle: exhaustive search over all 4-subsets maximizing min pairwise distance
        def min_pairwise(subset):
            sub = pts[list(subset)]
            dists = [np.linalg.norm(a - b) for a, b in itertools.combinations(sub, 2)]
            return min(dists)
        best = max(itertools.combinations(range(5), 4), key=min_pairwise)
        assert sorted(best) == sorted(idx.tolist())

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        pts = rng.standard_normal((40, 3))
        a1, s1 = tg.furthest_point_sample(pts, 15)
        a2, s2 = tg.furthest_point_sample(pts, 15)
        assert np.array_equal(a1, a2) and s1 == s2

    def test_count_too_large(self):
        with pytest.raises(ValueError):
            tg.furthest_point_sample(np.zeros((3, 2)) + np.arange(3)[:, None], 4)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_raw_array_must_be_finite(self, bad):
        # a NaN or inf row would be picked again and again, or spoil the
        # spacing, so it is refused as PointCloud refuses it
        pts = np.random.default_rng(0).standard_normal((50, 3))
        pts[7, 1] = bad
        with pytest.raises(ValueError, match="non-finite coordinate at point 7, column 1"):
            tg.furthest_point_sample(pts, 5)

    def test_raw_array_must_be_two_dimensional(self):
        with pytest.raises(ValueError, match=r"\(n, d\) array"):
            tg.furthest_point_sample(np.arange(5.0), 2)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(kind=st.sampled_from(["sphere", "collinear", "pair", "cluster"]),
           seed=st.integers(0, 2**16), size=st.integers(3, 300))
    def test_spacing_scale_is_the_first_step(self, kind, seed, size):
        # the scale is the greedy pass's first step, the largest distance from
        # point 0, bit for bit: against the exact diameter D it lies in
        # [D/2, D], so the spacing lies in (0, 1]
        rng = np.random.default_rng(seed)
        centre = rng.uniform(-5, 5, 3)
        if kind == "sphere":
            dirs = rng.standard_normal((size, 3))
            pts = centre + 2.0 * dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
        elif kind == "collinear":
            pts = centre + np.outer(rng.uniform(-3, 3, size), rng.standard_normal(3))
        elif kind == "pair":
            pts = centre + rng.standard_normal((2, 3))
        else:
            pts = centre + 1e-3 * rng.standard_normal((size, 3))
            pts[:3] += rng.uniform(-10, 10, (3, 3))
        diameter = oracle.max_pairwise_distance(pts)
        scale = float(np.sqrt(np.sum((pts - pts[0]) ** 2, axis=1)).max())
        assert diameter / 2 <= scale <= diameter
        count = min(len(pts), 2 + seed % 7)
        idx, spacing = tg.furthest_point_sample(pts, count)
        sel = pts[idx]
        d2 = np.sum((sel[:, None, :] - sel[None, :, :]) ** 2, axis=2)
        np.fill_diagonal(d2, np.inf)
        assert spacing == float(np.sqrt(d2.min(axis=1)).mean() / scale)
        assert 0 < spacing <= 1

    @pytest.mark.parametrize("mesh", [(2.0, 0.8, 25, 16), (2.0, 0.8, 12, 8),
                                      (1.0, 0.3, 7, 5), 0, 2, 3])
    def test_spacing_scale_is_the_diameter_on_generated_meshes(self, mesh):
        # point 0 of a generated torus lies on its outer equator, and every
        # icosphere vertex has an antipode, so point 0 ends a farthest pair
        # and the first step is the diameter, to one ulp
        pts = (tio.generate_torus(*mesh) if isinstance(mesh, tuple)
               else tio.generate_icosphere(mesh))[0]
        diameter = oracle.max_pairwise_distance(pts)
        scale = np.sqrt(np.sum((pts - pts[0]) ** 2, axis=1)).max()
        assert abs(scale - diameter) <= np.spacing(diameter)
        nearest = oracle.furthest_point_order(pts, 12)[2]
        _, spacing = tg.furthest_point_sample(pts, 12)
        assert abs(spacing - nearest.mean() / diameter) <= 2 * np.spacing(spacing)

    def test_spacing_decreases_with_count(self, torus):
        # denser subsets space points more tightly
        _, sparse_alpha = tg.furthest_point_sample(torus.cloud, 20)
        _, dense_alpha = tg.furthest_point_sample(torus.cloud, 200)
        assert dense_alpha < sparse_alpha


class TestPrivateHelpers:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**16), n=st.integers(2, 40),
           count=st.integers(0, 200))
    def test_unique_edges_match_row_unique(self, seed, n, count):
        rng = np.random.default_rng(seed)
        pairs = rng.integers(0, n, size=(count, 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        edges, counts = _unique_edges(pairs, n)
        ref_edges, ref_counts = np.unique(np.sort(pairs, 1), axis=0,
                                          return_counts=True)
        assert edges.dtype == np.int64 and edges.shape == (len(ref_edges), 2)
        assert np.array_equal(edges, ref_edges)
        assert np.array_equal(counts, ref_counts)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(x=hnp.arrays(np.float64, st.tuples(st.integers(0, 3), st.integers(0, 20),
                                              st.integers(1, 7)),
                        elements=st.floats(allow_nan=False, allow_infinity=False)))
    def test_sum_of_squares_matches_numpy_sum(self, x):
        # one coordinate at a time is numpy's own order below eight terms; the
        # elements span every finite double, so squares also under- and overflow
        with np.errstate(over="ignore", under="ignore"):
            got = _sum_of_squares(x[..., a] for a in range(x.shape[-1]))
            want = np.sum(x ** 2, axis=-1)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(kind=st.sampled_from(["cloud", "grid"]), seed=st.integers(0, 2**16),
           size=st.integers(2, 200), dim=st.integers(1, 4), data=st.data())
    def test_furthest_point_order_matches_loop_oracle(self, kind, seed, size, dim,
                                                       data):
        # the same selection and the same distances, bit for bit; integer
        # grids and a torus grid are full of distance ties
        rng = np.random.default_rng(seed)
        if kind == "cloud":
            pts = rng.uniform(-3, 3, (size, dim))
        elif dim == 3:
            pts, _ = tio.generate_torus(2.0, 0.8, size % 20 + 3, 5)
        else:
            pts = rng.integers(0, 4, (size, dim)).astype(float)
        count = data.draw(st.integers(1, len(pts)))
        selected, dist, nearest = _furthest_point_order(pts, count)
        ref_selected, ref_dist, ref_nearest = oracle.furthest_point_order(pts, count)
        assert np.array_equal(selected, ref_selected)
        assert np.array_equal(dist, ref_dist)
        assert np.array_equal(nearest, ref_nearest)


class TestTangentFrames:
    def test_flat_patch_projector(self):
        rng = np.random.default_rng(1)
        xy = rng.uniform(-1, 1, size=(25, 2))
        pts = np.column_stack([xy, np.zeros(25)])
        cloud = tg.PointCloud(pts)
        graph = tg.build_knn_graph(cloud, 4)
        frames = tg.estimate_tangent_frames(graph, cloud, 2)
        projector = frames.frames[0] @ frames.frames[0].T
        assert np.abs(projector - np.diag([1.0, 1.0, 0.0])).max() < 1e-8

    def test_sphere_patch_normals_vs_analytic(self):
        # oracle: analytic normals of the unit sphere are the points themselves
        rng = np.random.default_rng(2)
        theta = rng.uniform(0, 0.35, size=80)
        phi = rng.uniform(0, 2 * np.pi, size=80)
        pts = np.column_stack([np.sin(theta) * np.cos(phi),
                               np.sin(theta) * np.sin(phi),
                               np.cos(theta)])
        pts += 1e-3 * rng.standard_normal(pts.shape)
        cloud = tg.PointCloud(pts)
        graph = tg.build_knn_graph(cloud, 6)
        frames = tg.estimate_tangent_frames(graph, cloud, 2)
        normals = np.cross(frames.frames[:, :, 0], frames.frames[:, :, 1])
        analytic = pts / np.linalg.norm(pts, axis=1, keepdims=True)
        cos = np.abs(np.sum(normals * analytic, axis=1))
        worst = np.degrees(np.arccos(np.clip(cos, -1, 1)).max())
        assert worst < 10.0

    def test_auto_neighbor_rule(self):
        assert auto_frame_neighbors(3.0, 2, 100) == 6
        assert auto_frame_neighbors(0.6, 2, 100) == 2   # clamped up to m
        assert auto_frame_neighbors(80.0, 2, 100) == 99  # clamped to n-1

    def test_auto_uses_twice_degree(self, torus):
        # same result as passing 2*round(degree) explicitly on a
        # constant-degree subgraph check per node; the degree is the
        # neighbour count
        frames_auto = tg.estimate_tangent_frames(torus.graph, torus.cloud, 2, "auto")
        i = 0
        n_i = auto_frame_neighbors(np.count_nonzero(torus.graph.edges == i), 2,
                                   torus.cloud.n)
        frames_exp = tg.estimate_tangent_frames(torus.graph, torus.cloud, 2, n_i)
        assert np.allclose(frames_auto.frames[i], frames_exp.frames[i], atol=1e-12)

    @pytest.mark.parametrize("n_major, n_minor", [(16, 10), (20, 12)])
    def test_auto_sizes_ignore_edge_weights(self, n_major, n_minor):
        # Gaussian weights at bandwidth 0.5 shrink the weighted degree below
        # the neighbour count; "auto" neighbourhoods count neighbours, so the
        # frames equal the unit-weight ones and the transports exist
        points, faces = tio.generate_torus(2.0, 0.8, n_major, n_minor)
        cloud = tg.PointCloud(points)
        frames = []
        for weighting in ("unit", "gaussian"):
            graph = tg.build_mesh_graph(cloud, faces, weighting, 0.5)
            frames.append(tg.estimate_tangent_frames(graph, cloud, 2))
            tg.compute_transports(graph, frames[-1])
        assert np.array_equal(frames[0].frames, frames[1].frames)

    def test_orthonormality_invariant(self, torus, icosphere):
        for setup in (torus, icosphere):
            gram = np.einsum("ndm,ndk->nmk", setup.frames.frames, setup.frames.frames)
            err = np.linalg.norm(gram - np.eye(2), axis=(1, 2)).max()
            assert err <= 1e-10

    def test_degenerate_geometry_reports_node(self):
        pts = np.column_stack([np.linspace(0, 1, 10), np.zeros(10), np.zeros(10)])
        cloud = tg.PointCloud(pts)
        graph = tg.build_knn_graph(cloud, 2)
        with pytest.raises(DegenerateNeighborhoodError, match="node"):
            tg.estimate_tangent_frames(graph, cloud, 2)

    def test_lowest_degenerate_node_named_across_size_groups(self):
        # nodes 0-7: a straight chain (neighbourhoods of 6, rank 1); nodes
        # 8-11: a shorter straight chain (neighbourhoods of 3, rank 1); nodes
        # 12-13: a pair (1 reachable neighbour). The size-3 group is
        # estimated first, but node 0 is the one to name, as the loop did.
        pts = np.zeros((14, 3))
        pts[:8, 0] = np.arange(8.0)
        pts[8:12, 1] = np.arange(4.0)
        pts[8:12, 2] = 5.0
        pts[12:, :] = [[9.0, 9.0, 9.0], [9.0, 9.5, 9.0]]
        chain = [[a, a + 1] for a in (*range(7), *range(8, 11), 12)]
        graph = tg.ProximityGraph(14, chain, np.ones(len(chain)))
        cloud = tg.PointCloud(pts)
        message = "node 0: neighbourhood rank < 2"
        with pytest.raises(DegenerateNeighborhoodError, match=message):
            oracle.tangent_frames(graph, cloud, 2, 6)
        with pytest.raises(DegenerateNeighborhoodError, match=message):
            tg.estimate_tangent_frames(graph, cloud, 2, 6)
        # with the pair first it is the node to name, though its group has
        # no SVD to fail
        order = np.r_[12, 13, 0:12]
        relabel = np.argsort(order)
        graph = tg.ProximityGraph(14, relabel[np.array(chain)], np.ones(len(chain)))
        with pytest.raises(DegenerateNeighborhoodError,
                           match="node 0: only 1 reachable neighbours, need >= 2"):
            tg.estimate_tangent_frames(graph, tg.PointCloud(pts[order]), 2, 6)

    def test_m_larger_than_d_rejected(self, torus):
        with pytest.raises(ValueError):
            tg.estimate_tangent_frames(torus.graph, torus.cloud, 4)


class TestProjection:
    def test_in_plane_round_trip(self, torus):
        i = 17
        frame = torus.frames.frames[i]
        v = frame @ np.array([0.3, -1.2])
        v_hat = tg.project_to_tangent(torus.frames, i, v)
        assert np.linalg.norm(frame @ v_hat - v) <= 1e-10

    def test_normal_vector_projects_to_zero(self, torus):
        i = 5
        frame = torus.frames.frames[i]
        normal = np.cross(frame[:, 0], frame[:, 1])
        v_hat = tg.project_to_tangent(torus.frames, i, normal)
        assert np.linalg.norm(v_hat) <= 1e-10

    def test_matches_least_squares_oracle(self, torus):
        rng = np.random.default_rng(3)
        for i in (0, 100, 399):
            v = rng.standard_normal(3)
            v_hat = tg.project_to_tangent(torus.frames, i, v)
            oracle, *_ = np.linalg.lstsq(torus.frames.frames[i], v, rcond=None)
            assert np.allclose(v_hat, oracle, atol=1e-10)


class TestTransport:
    def test_identical_frames_give_identity(self, torus):
        frames = tg.GaugeFrames(np.stack([torus.frames.frames[0]] * 2))
        o = tg.compute_transport(frames, 0, 1)
        assert np.allclose(o, np.eye(2), atol=1e-12)

    def test_in_plane_rotation_recovered(self):
        base = np.linalg.qr(np.random.default_rng(4).standard_normal((3, 2)))[0]
        for theta in np.linspace(0, 2 * np.pi, 9):
            rot = np.array([[np.cos(theta), -np.sin(theta)],
                            [np.sin(theta), np.cos(theta)]])
            frames = tg.GaugeFrames(np.stack([base, base @ rot]))
            o = tg.compute_transport(frames, 1, 0)  # aligns frame 1 onto frame 0
            assert np.allclose(o, rot.T, atol=1e-12)
            # oracle: direct SVD computation
            u, _, vt = np.linalg.svd(frames.frames[1].T @ frames.frames[0])
            assert np.allclose(o, u @ vt, atol=1e-15)

    def test_kabsch_optimality_against_random_orthogonal(self, torus):
        # oracle: residual at the returned transport is minimal among 1000
        # random orthogonal samples (rotations and reflections)
        rng = np.random.default_rng(6)
        samples = ortho_group.rvs(2, size=1000, random_state=rng)
        i, j = (int(v) for v in torus.graph.edges[42])
        t_i, t_j = torus.frames.frames[i], torus.frames.frames[j]
        o_ji = tg.compute_transport(torus.frames, j, i)
        best = np.linalg.norm(t_i - t_j @ o_ji)
        for q in samples:
            assert best <= np.linalg.norm(t_i - t_j @ q) + 1e-12

    def test_reverse_is_transpose(self, torus):
        for i, j in torus.graph.edges[:50]:
            o_ji = tg.compute_transport(torus.frames, int(j), int(i))
            o_ij = tg.compute_transport(torus.frames, int(i), int(j))
            assert np.allclose(o_ij, o_ji.T, atol=1e-10)
            assert np.allclose(o_ij @ o_ji, np.eye(2), atol=1e-10)

    def test_for_edges_orients_each_row(self, torus):
        # a row (a, b) in either order gives the map from b's frame into a's
        transports = torus.transports
        rng = np.random.default_rng(9)
        rows = transports.edges[rng.choice(len(transports.edges), 60, replace=False)]
        rows = np.where(rng.random(60)[:, None] < 0.5, rows, rows[:, ::-1])
        assert (rows[:, 0] > rows[:, 1]).any() and (rows[:, 0] < rows[:, 1]).any()
        maps = transports.for_edges(rows)
        stored = {tuple(e): o for e, o in zip(transports.edges.tolist(), transports.maps)}
        for (a, b), o in zip(rows.tolist(), maps):
            assert np.array_equal(o, stored[(a, b)] if a < b else stored[(b, a)].T)
            assert np.array_equal(o, transports.into(a, b))
        assert np.array_equal(transports.for_edges(rows[:, ::-1]), np.swapaxes(maps, 1, 2))
        b, a = (int(v) for v in transports.edges[-1])
        partial = tg.TransportMaps(transports.edges[:-1], transports.maps[:-1])
        with pytest.raises(ValueError, match=rf"missing transport for edge \({a}, {b}\)"):
            partial.for_edges([[a, b]])

    def test_transports_orthogonal(self, torus):
        for (i, j) in torus.graph.edges[::17]:
            o = torus.transports.into(int(i), int(j))
            assert np.abs(o.T @ o - np.eye(2)).max() <= 1e-10

    def test_orthogonal_tangent_spaces_error(self):
        frames = tg.GaugeFrames(np.stack([
            np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]]),
            np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        ]))
        with pytest.raises(TransportRankError, match="coarse"):
            tg.compute_transport(frames, 0, 1)

    def test_orthogonal_edge_named_in_batch(self):
        # edges (0, 3) and (1, 2) join orthogonal planes of R^4; the first
        # edge in graph order is the one named
        plane_a = np.eye(4)[:, :2]
        plane_b = np.eye(4)[:, 2:]
        frames = tg.GaugeFrames(np.stack([plane_a, plane_a, plane_b, plane_b]))
        graph = tg.ProximityGraph(4, [[0, 1], [1, 2], [2, 3], [0, 3]], np.ones(4))
        with pytest.raises(TransportRankError, match="nodes 0 and 3 are nearly orthogonal"):
            tg.compute_transports(graph, frames)

    def test_same_node_rejected(self, torus):
        with pytest.raises(ValueError):
            tg.compute_transport(torus.frames, 3, 3)


class TestIntrinsicDim:
    def test_surface_and_curve(self, torus):
        assert tg.estimate_intrinsic_dim(torus.graph, torus.cloud) == 2
        pts = np.column_stack([np.cos(np.linspace(0, 2 * np.pi, 60, endpoint=False)),
                               np.sin(np.linspace(0, 2 * np.pi, 60, endpoint=False)),
                               np.zeros(60)])
        cloud = tg.PointCloud(pts)
        graph = tg.build_knn_graph(cloud, 2)
        assert tg.estimate_intrinsic_dim(graph, cloud) == 1


def test_mean_edge_length_positive(torus):
    assert tg.mean_edge_length(torus.graph, torus.cloud) > 0


def _outcome(fn, *args):
    """(result, None) or (None, (error type, message)) of fn(*args)."""
    try:
        return fn(*args), None
    except ValueError as exc:
        return None, (type(exc), str(exc))


@st.composite
def sampled_graphs(draw):
    """Noisy torus or sphere samples with a k-NN or mesh graph."""
    if draw(st.booleans()):
        points, faces = tio.generate_torus(2.0, 0.8, draw(st.integers(6, 18)),
                                           draw(st.integers(4, 10)))
    else:
        points, faces = tio.generate_icosphere(draw(st.integers(1, 2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    points = points + draw(st.sampled_from([0.0, 1e-4, 0.03])) * rng.standard_normal(
        points.shape)
    cloud = tg.PointCloud(points)
    weighting = draw(st.sampled_from(["unit", "gaussian"]))
    bandwidth = None
    if weighting == "gaussian":  # weighted degrees: "auto" sizes vary by node
        bandwidth = draw(st.floats(0.5, 3.0)) * np.linalg.norm(points[1] - points[0])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DisconnectedGraphWarning)
        if draw(st.booleans()):
            graph = tg.build_mesh_graph(cloud, faces, weighting, bandwidth)
        else:
            graph = tg.build_knn_graph(cloud, draw(st.integers(2, 8)), weighting,
                                       bandwidth, on_disconnected="warn")
    n_neighbors = draw(st.one_of(st.just("auto"), st.integers(2, 14)))
    return cloud, graph, n_neighbors


@settings(max_examples=60, deadline=None, derandomize=True)
@given(sampled_graphs())
def test_array_geometry_matches_loop_oracle(case):
    # frames, transports and L_c equal the per-node loops bit for bit,
    # errors included
    cloud, graph, n_neighbors = case
    frames, error = _outcome(tg.estimate_tangent_frames, graph, cloud, 2, n_neighbors)
    frames_ref, error_ref = _outcome(oracle.tangent_frames, graph, cloud, 2, n_neighbors)
    assert error == error_ref
    if error is not None:
        return
    assert np.array_equal(frames.frames, frames_ref.frames)

    transports, error = _outcome(tg.compute_transports, graph, frames)
    maps_ref, error_ref = _outcome(oracle.transports, graph, frames)
    assert error == error_ref
    if error is not None:
        return
    for (i, j), o_ij in maps_ref.items():
        assert np.array_equal(transports.into(i, j), o_ij)
        assert np.array_equal(transports.into(j, i), o_ij.T)

    con = tg.assemble_connection_laplacian(graph, frames, transports)
    ref = oracle.connection_laplacian(graph, maps_ref, 2)
    assert np.array_equal(con.matrix.indptr, ref.indptr)
    assert np.array_equal(con.matrix.indices, ref.indices)
    assert np.array_equal(con.matrix.data, ref.data)
