from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.sparse import csgraph
from scipy.stats import ortho_group

import tangentgp as tg
from tangentgp import io as tio
from tangentgp import spectral
from tangentgp.spectral import EigensolverError, scalar_frames, truncate

from conftest import build_setup


def random_connected_graph(rng, n):
    """Random geometric graph, regenerated until connected."""
    while True:
        pts = rng.standard_normal((n, 3))
        cloud = tg.PointCloud(pts)
        try:
            graph = tg.build_knn_graph(cloud, min(4, n - 1))
        except tg.geometry.DisconnectedGraphError:
            continue
        return cloud, graph


class TestGraphLaplacian:
    def test_single_edge_dense_form(self):
        graph = tg.ProximityGraph(n=2, edges=[[0, 1]], weights=[1.0])
        lap = tg.assemble_graph_laplacian(graph)
        assert np.array_equal(lap.matrix.toarray(), [[1.0, -1.0], [-1.0, 1.0]])

    def test_triangle_cycle_eigenvalues(self):
        graph = tg.ProximityGraph(n=3, edges=[[0, 1], [0, 2], [1, 2]],
                                  weights=[1.0, 1.0, 1.0])
        lap = tg.assemble_graph_laplacian(graph)
        # oracle: dense eigensolver
        vals = np.linalg.eigvalsh(lap.matrix.toarray())
        assert np.allclose(vals, [0.0, 3.0, 3.0], atol=1e-12)

    def test_row_sums_zero(self, torus):
        lap = tg.assemble_graph_laplacian(torus.graph)
        sums = np.asarray(lap.matrix.sum(axis=1)).ravel()
        assert np.abs(sums).max() <= 1e-12

    def test_is_the_m1_connection_laplacian(self, torus):
        # one operator type: the trivial line bundle has no Hermitian form,
        # so Lanczos runs on the real matrix for the k + 1 smallest pairs
        assert tg.GraphLaplacian is tg.ConnectionLaplacian
        lap = tg.assemble_graph_laplacian(torus.graph)
        assert (lap.n, lap.m, lap.size) == (400, 1, 400)
        assert lap.hermitian is None and lap.flips is None
        lanczos, solved = spectral._lanczos, []

        def spy(mat, k, seed):
            pairs = lanczos(mat, k, seed)
            solved.append((mat.dtype, k, pairs[0].size > k))
            return pairs

        with mock.patch.object(spectral, "_lanczos", spy):
            tg.eigendecompose(lap, 10)
        assert solved == [(np.dtype(float), 10, True)]


class TestConnectionLaplacian:
    def test_trivial_line_bundle_on_one_edge(self):
        graph = tg.ProximityGraph(n=2, edges=[[0, 1]], weights=[1.0])
        frames = scalar_frames(2)
        transports = tg.compute_transports(graph, frames)
        con = tg.assemble_connection_laplacian(graph, frames, transports)
        dense = con.matrix.toarray()
        assert np.array_equal(dense, [[1.0, -1.0], [-1.0, 1.0]])
        assert np.allclose(np.linalg.eigvalsh(dense), [0.0, 2.0], atol=1e-12)

    def test_m1_equals_graph_laplacian_exactly(self):
        # trivial-bundle reduction is exact, not approximate
        rng = np.random.default_rng(0)
        for _ in range(5):
            cloud, graph = random_connected_graph(rng, 20)
            frames = scalar_frames(graph.n)
            transports = tg.compute_transports(graph, frames)
            con = tg.assemble_connection_laplacian(graph, frames, transports)
            lap = tg.assemble_graph_laplacian(graph)
            diff = (con.matrix - lap.matrix).toarray()
            assert np.abs(diff).max() == 0.0

    def test_c4_identity_transports_kron_oracle(self):
        graph = tg.ProximityGraph(n=4, edges=[[0, 1], [1, 2], [2, 3], [0, 3]],
                                  weights=np.ones(4))
        base = np.eye(3)[:, :2]
        frames = tg.GaugeFrames(np.stack([base] * 4))
        transports = tg.compute_transports(graph, frames)
        con = tg.assemble_connection_laplacian(graph, frames, transports)
        lap = tg.assemble_graph_laplacian(graph).matrix.toarray()
        # oracle: the Kronecker structure of a trivial rank-2 bundle
        assert np.array_equal(con.matrix.toarray(), np.kron(lap, np.eye(2)))
        vals = np.linalg.eigvalsh(con.matrix.toarray())
        assert np.allclose(vals, np.sort(np.repeat([0.0, 2.0, 2.0, 4.0], 2)),
                           atol=1e-12)

    def test_missing_transport_rejected(self, torus):
        partial = tg.TransportMaps(torus.transports.edges[:-1],
                                   torus.transports.maps[:-1])
        i, j = torus.graph.edges[-1]
        with pytest.raises(ValueError, match=rf"missing transport for edge \({i}, {j}\)"):
            tg.assemble_connection_laplacian(torus.graph, torus.frames, partial)

    def test_symmetric_and_psd(self, torus):
        dense = torus.con.matrix.toarray()
        assert np.abs(dense - dense.T).max() <= 1e-12
        vals = np.linalg.eigvalsh(dense)
        assert vals.min() >= -1e-8 * vals.max()


class TestEigendecompose:
    def test_full_spectrum_matches_dense_oracle(self):
        rng = np.random.default_rng(1)
        cloud, graph = random_connected_graph(rng, 10)
        frames = tg.estimate_tangent_frames(graph, cloud, 2)
        transports = tg.compute_transports(graph, frames)
        con = tg.assemble_connection_laplacian(graph, frames, transports)
        spec = tg.eigendecompose(con, con.size)
        oracle = np.linalg.eigvalsh(con.matrix.toarray())
        assert np.abs(spec.eigenvalues - np.clip(oracle, 0, None)).max() <= 1e-8

    def test_lanczos_matches_dense(self, torus):
        # the 0.357 eigenvalue of this torus has multiplicity 4; a solver that
        # misses one copy fails here, on some seed if not on all of them
        from scipy.linalg import subspace_angles
        k = 12
        dense = tg.eigendecompose(torus.con, k, method="dense")
        clusters = _eigenvalue_clusters(dense.eigenvalues, tol=1e-6)
        for seed in range(5):
            lanczos = tg.eigendecompose(torus.con, k, seed=seed)
            assert np.abs(dense.eigenvalues - lanczos.eigenvalues).max() <= 1e-8
            assert abs(dense.next_eigenvalue - lanczos.next_eigenvalue) <= 1e-8
            # subspace agreement per eigenvalue cluster (degeneracy-safe)
            for cluster in clusters:
                if cluster[-1] == k - 1 and dense.splits_degenerate_cluster(1e-6):
                    continue
                angles = subspace_angles(dense.eigenvectors[:, cluster],
                                         lanczos.eigenvectors[:, cluster])
                assert angles.max() < 1e-6

    @staticmethod
    def _drop_cluster_member(mat, count, cluster):
        """The lowest count+1 dense eigenvectors of ``mat`` minus one copy (the
        last column of ``cluster``) of a repeated eigenvalue."""
        vals, vecs = np.linalg.eigh(mat.toarray())
        assert np.flatnonzero(np.abs(vals[:count + 1] - vals[cluster[-1]]) < 1e-6
                              ).tolist() == cluster
        return np.delete(vecs[:, :count + 1], cluster[-1], axis=1)

    def _restore_missing_member(self, operator, form, k, count, cluster, monkeypatch):
        # the first search hands back a basis missing one copy of a repeated
        # eigenvalue: the inertia count sees the shortfall and the second
        # search adds it; k ends on a cluster boundary, so nothing else is solved
        deficient = self._drop_cluster_member(form, count, cluster)
        search = spectral._missed_pairs
        asked = []

        def deficient_first_run(mat, found, wanted, *args):
            asked.append(wanted)
            if len(asked) == 1:
                return deficient
            return search(mat, found, wanted, *args)

        monkeypatch.setattr(spectral, "_missed_pairs", deficient_first_run)
        spec = tg.eigendecompose(operator, k, seed=0)
        assert asked == [count, 1]  # the second search asks for the one missing pair
        assert spec.k == k
        return spec

    def _assert_matches_dense_at(self, spec, operator, columns):
        from scipy.linalg import subspace_angles
        vals, vecs = np.linalg.eigh(operator.matrix.toarray())
        assert np.abs(spec.eigenvalues - np.clip(vals[:spec.k], 0, None)).max() <= 1e-8
        assert abs(spec.next_eigenvalue - vals[spec.k]) <= 1e-8
        assert subspace_angles(vecs[:, columns], spec.eigenvectors[:, columns]).max() < 1e-6

    def test_count_and_deflation_restore_missing_cluster_member(self, torus,
                                                                 monkeypatch):
        # the real fourfold 0.357 of this torus is the complex twofold of its
        # Hermitian form (columns 3, 4); k = 12 solves for 7 complex pairs
        spec = self._restore_missing_member(torus.con, torus.con.hermitian, 12, 7,
                                            [3, 4], monkeypatch)
        self._assert_matches_dense_at(spec, torus.con, slice(6, 10))

    def test_count_and_deflation_restore_missing_cluster_member_real_route(
            self, torus, monkeypatch):
        # the graph Laplacian (m = 1) has the twofold 0.427 at columns 3, 4;
        # k = 13 ends on a boundary, where 12 would split the twofold 0.822
        spec = self._restore_missing_member(torus.lap, torus.lap.matrix, 13, 14,
                                            [3, 4], monkeypatch)
        self._assert_matches_dense_at(spec, torus.lap, slice(3, 5))

    def test_solve_inside_a_cluster_extends_its_basis(self, torus, monkeypatch):
        # k = 12 ends between the two copies of 0.822 (columns 11, 12): the
        # first search's 13 pairs are kept and a second search, on their
        # complement, adds the top cluster's count, 2
        search = spectral._missed_pairs
        asked = []

        def spy(mat, found, wanted, *args):
            asked.append((wanted, found.shape[1] == 0))
            return search(mat, found, wanted, *args)

        monkeypatch.setattr(spectral, "_missed_pairs", spy)
        spec = tg.eigendecompose(torus.lap, 12)
        assert asked == [(13, True), (2, False)]
        assert spec.k == 13 and not spec.splits_degenerate_cluster()
        self._assert_matches_dense_at(spec, torus.lap, slice(11, 13))

    def test_one_solve_restores_a_member_and_extends(self, torus, monkeypatch):
        # the first search misses one copy of the graph Laplacian's twofold
        # 0.427 (columns 3, 4) and ends on the second copy of 0.822 (columns
        # 11, 12): the second search asks for the missing pair, then the
        # third, the count met but k = 12 inside a cluster, for the top
        # cluster's 2
        deficient = self._drop_cluster_member(torus.lap.matrix, 12, [3, 4])
        search = spectral._missed_pairs
        asked = []

        def deficient_first_run(mat, found, wanted, *args):
            asked.append((wanted, found.shape[1] == 0))
            if len(asked) == 1:
                return deficient
            return search(mat, found, wanted, *args)

        monkeypatch.setattr(spectral, "_missed_pairs", deficient_first_run)
        spec = tg.eigendecompose(torus.lap, 12, seed=0)
        assert asked == [(13, True), (1, False), (2, False)]
        assert spec.k == 13 and not spec.splits_degenerate_cluster()
        self._assert_matches_dense_at(spec, torus.lap, slice(3, 5))
        self._assert_matches_dense_at(spec, torus.lap, slice(11, 13))

    def test_extension_that_adds_nothing_raises(self, torus, monkeypatch):
        # k = 12 ends inside the twofold 0.822, and the extension's deflated
        # search finds no pair; the search is cut off after a few calls so
        # that a solver which loops on it fails instead of hanging
        search = spectral._missed_pairs
        calls = []

        def finds_nothing(mat, found, *args):
            calls.append(found.shape[1])
            assert len(calls) <= 3, f"deflated search called {len(calls)} times"
            if len(calls) == 1:
                return search(mat, found, *args)
            return np.empty((found.shape[0], 0), dtype=found.dtype)

        monkeypatch.setattr(spectral, "_missed_pairs", finds_nothing)
        with pytest.raises(EigensolverError, match="real operator holds 13 of the "
                                                   "15 eigenvalues below inf, .* adds none"):
            tg.eigendecompose(torus.lap, 12, seed=0)
        assert calls == [0, 13]

    def test_extension_past_arpack_limit_takes_dense(self):
        # the 8-cycle's twofold 2 sits at columns 3, 4: k = 4 solves 5 pairs,
        # and the 2 more the top cluster asks for pass ARPACK's size - 2
        graph = tg.ProximityGraph(n=8, edges=[[i, i + 1] for i in range(7)] + [[0, 7]],
                                  weights=[1.0] * 8)
        lap = tg.assemble_graph_laplacian(graph)
        spec, dense = tg.eigendecompose(lap, 4), tg.eigendecompose(lap, 4, method="dense")
        assert spec.k == 5 and spec.next_eigenvalue == dense.next_eigenvalue
        assert np.array_equal(spec.eigenvectors, dense.eigenvectors)

    def test_hermitian_search_past_arpack_limit_takes_dense(self):
        # the orientable 14 x 9 mesh torus: k = 248 = 2n - 4 asks the
        # Hermitian form for 125 pairs, past its size - 2, so the solve is
        # dense rather than a real-route Lanczos of 249 pairs
        con = _mesh_laplacian(*tio.generate_torus(2.0, 0.8, 14, 9))
        assert con.hermitian is not None and con.n == 126
        spec = tg.eigendecompose(con, 248)
        dense = tg.eigendecompose(con, 248, method="dense")
        assert spec.k == dense.k and spec.next_eigenvalue == dense.next_eigenvalue
        assert np.array_equal(spec.eigenvalues, dense.eigenvalues)
        assert np.array_equal(spec.eigenvectors, dense.eigenvectors)

    def _deflation_adds_nothing(self, operator, form, count, cluster, monkeypatch):
        # a deflated search that finds none of the counted pairs must end in
        # an error, never in an incomplete Spectrum
        deficient = self._drop_cluster_member(form, count, cluster)
        # the first search misses a pair, and the second finds none
        monkeypatch.setattr(spectral, "_missed_pairs",
                            lambda _mat, found, *_args:
                            found[:, :0] if found.size else deficient)
        tg.eigendecompose(operator, 12, seed=0)

    def test_deflation_that_adds_nothing_raises(self, torus, monkeypatch):
        with pytest.raises(EigensolverError,
                           match="complex Hermitian form holds 6 of the 7 "
                                 "eigenvalues below .* adds none"):
            self._deflation_adds_nothing(torus.con, torus.con.hermitian, 7, [3, 4],
                                         monkeypatch)

    def test_deflation_that_adds_nothing_raises_real_route(self, torus, monkeypatch):
        with pytest.raises(EigensolverError,
                           match="real operator holds 12 of the 13 "
                                 "eigenvalues below .* adds none"):
            self._deflation_adds_nothing(torus.lap, torus.lap.matrix, 13, [3, 4],
                                         monkeypatch)

    @staticmethod
    def _count_one_short(operator, monkeypatch):
        count_below = spectral._count_below
        monkeypatch.setattr(spectral, "_count_below",
                            lambda mat, sigma: count_below(mat, sigma) - 1)
        tg.eigendecompose(operator, 12, seed=1)

    def test_count_below_ritz_values_raises(self, torus, monkeypatch):
        with pytest.raises(EigensolverError, match="complex Hermitian form holds "
                                                   "6 Ritz values .* count is 5"):
            self._count_one_short(torus.con, monkeypatch)

    def test_count_below_ritz_values_raises_real_route(self, torus, monkeypatch):
        with pytest.raises(EigensolverError, match="real operator holds "
                                                   "11 Ritz values .* count is 10"):
            self._count_one_short(torus.lap, monkeypatch)

    def test_pivoted_factorisation_voids_the_count(self):
        # a zero diagonal forces SuperLU off the diagonal pivots
        swap = sparse.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert spectral._count_below(swap, 0.5) == 1
        with pytest.raises(EigensolverError, match="pivoted off the diagonal"):
            spectral._count_below(swap, 0.0)

    def test_null_space_constant_vector(self, torus):
        spec = tg.eigendecompose(torus.lap, 3)
        assert spec.eigenvalues[0] <= 1e-9
        u0 = spec.eigenvectors[:, 0]
        assert np.abs(u0 - u0.mean()).max() <= 1e-8

    def test_deterministic_given_seed(self, torus):
        a = tg.eigendecompose(torus.con, 8, seed=3)
        b = tg.eigendecompose(torus.con, 8, seed=3)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)

    def test_residual_invariant(self, torus, torus_spectrum):
        mat = torus.con.matrix
        fro = np.sqrt((mat.data ** 2).sum())
        resid = np.linalg.norm(
            mat @ torus_spectrum.eigenvectors
            - torus_spectrum.eigenvectors * torus_spectrum.eigenvalues, axis=0)
        assert resid.max() <= 1e-8 * fro

    def test_orthonormal_eigenvectors(self, torus_spectrum):
        u = torus_spectrum.eigenvectors
        assert np.linalg.norm(u.T @ u - np.eye(u.shape[1])) <= 1e-8

    def test_k_out_of_range(self, torus):
        with pytest.raises(ValueError):
            tg.eigendecompose(torus.con, 0)
        with pytest.raises(ValueError):
            tg.eigendecompose(torus.con, torus.con.size + 1)

    def test_truncate(self, torus_spectrum):
        small = truncate(torus_spectrum, 10)
        assert small.k == 10
        assert np.array_equal(small.eigenvalues, torus_spectrum.eigenvalues[:10])
        assert small.next_eigenvalue == pytest.approx(
            float(torus_spectrum.eigenvalues[10]))


def _eigenvalue_clusters(values, tol):
    clusters = [[0]]
    for idx in range(1, len(values)):
        if values[idx] - values[idx - 1] < tol:
            clusters[-1].append(idx)
        else:
            clusters.append([idx])
    return clusters


def _whole_cluster_oracle(vals, k):
    """The smallest k' >= k that ends a cluster of the dense eigenvalues
    (clusters at 1e-6, far from both the rounding and the gaps here)."""
    ends = np.cumsum([len(c) for c in _eigenvalue_clusters(vals, tol=1e-6)])
    return int(ends[ends >= k][0])


@pytest.fixture(scope="module")
def icosphere3():
    """The ``generate_icosphere(3)`` mesh connection Laplacian (642 nodes,
    default frames) and its dense eigenvalues."""
    con = _mesh_laplacian(*tio.generate_icosphere(3))
    return con, np.linalg.eigvalsh(con.matrix.toarray())


class TestWholeClusters:
    """``eigendecompose`` and ``truncate`` return the smallest whole-cluster
    k' >= k, the same by every route: on the fixture (twofold and fourfold
    clusters), its graph Laplacian (twofold clusters, real route, extended at
    k = 10 and 50), the icosphere mesh (6, 10 and 8) and a Moebius strip
    (simple eigenvalues, real route)."""

    @pytest.fixture(scope="class")
    def surfaces(self, torus, icosphere3):
        mobius = _mesh_laplacian(*mobius_strip())
        dense = {"fixture": (torus.con, np.linalg.eigvalsh(torus.con.matrix.toarray())),
                 "fixture_graph": (torus.lap,
                                   np.linalg.eigvalsh(torus.lap.matrix.toarray())),
                 "icosphere": icosphere3,
                 "mobius": (mobius, np.linalg.eigvalsh(mobius.matrix.toarray()))}
        return {name: (op, vals, tg.eigendecompose(op, 60))
                for name, (op, vals) in dense.items()}

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(surface=st.sampled_from(["fixture", "fixture_graph", "icosphere", "mobius"]),
           k=st.integers(1, 60))
    @example(surface="fixture", k=25)  # 0.863913 x4 at columns 22-25: 26
    @example(surface="fixture_graph", k=10)  # a twofold at columns 9, 10: 11
    @example(surface="fixture_graph", k=50)  # a twofold at columns 49, 50: 51
    def test_k_rounds_up_to_a_cluster_end(self, surfaces, surface, k):
        operator, vals, full = surfaces[surface]
        expected = _whole_cluster_oracle(vals, k)
        for spec in (tg.eigendecompose(operator, k, method="dense"),
                     tg.eigendecompose(operator, k),
                     truncate(full, k)):
            assert spec.k == expected
            assert not spec.splits_degenerate_cluster()
            assert abs(spec.next_eigenvalue - vals[expected]) <= 1e-8


def _assert_count_matches_dense(mat, dense, sigma):
    # a sigma on an eigenvalue has no well-defined count under rounding
    assume(np.abs(dense - sigma).min() > 1e-9 * max(1.0, abs(sigma)))
    assert spectral._count_below(mat, sigma) == np.count_nonzero(dense < sigma)


class TestInertiaCount:
    """Sylvester counts against dense eigenvalues, over the range the Lanczos
    path certifies (up to the 61st eigenvalue, past k = 50 plus the gap pair)."""

    @pytest.fixture(scope="class")
    def knn_dense(self, torus):
        return np.linalg.eigvalsh(torus.con.matrix.toarray())

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(fraction=st.floats(-0.05, 1.0))
    def test_knn_torus(self, torus, knn_dense, fraction):
        _assert_count_matches_dense(torus.con.matrix, knn_dense,
                                    fraction * knn_dense[60])

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(fraction=st.floats(-0.05, 1.0))
    def test_mesh_torus(self, mesh_torus_con, fraction):
        con, dense = mesh_torus_con
        _assert_count_matches_dense(con.matrix, dense, fraction * dense[60])


    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(2, 40),
           density=st.floats(0.05, 0.5), fraction=st.floats(-0.1, 1.1))
    def test_random_complex_hermitian(self, seed, size, density, fraction):
        rng = np.random.default_rng(seed)
        upper = sparse.random(size, size, density=density, dtype=complex,
                              random_state=rng,
                              data_rvs=lambda count: rng.standard_normal(count)
                              + 1j * rng.standard_normal(count))
        diagonal = sparse.diags(rng.standard_normal(size) * 4)
        mat = (upper + upper.conj().T + diagonal).tocsr()
        dense = np.linalg.eigvalsh(mat.toarray())
        _assert_count_matches_dense(mat, dense,
                                    dense[0] + fraction * (dense[-1] - dense[0]))


def mobius_strip(n_around=48, n_across=5, width=0.6):
    """Triangulated Moebius strip of n_around * n_across vertices: the last
    ring of quads closes up on the first with its cross-section reversed."""
    u = 2 * np.pi * np.arange(n_around) / n_around
    v = np.linspace(-width, width, n_across)
    uu, vv = np.meshgrid(u, v, indexing="ij")
    ring = 1 + vv * np.cos(uu / 2)
    points = np.stack([ring * np.cos(uu), ring * np.sin(uu), vv * np.sin(uu / 2)],
                      axis=-1).reshape(-1, 3)
    grid = np.arange(n_around * n_across).reshape(n_around, n_across)
    ahead = np.roll(grid, -1, axis=0)
    ahead[-1] = grid[0, ::-1]
    a, b, c, d = grid[:, :-1], ahead[:, :-1], ahead[:, 1:], grid[:, 1:]
    faces = np.concatenate([np.stack([a, b, c], -1), np.stack([a, c, d], -1)])
    return points, faces.reshape(-1, 3)


def _regauged_connection(graph, frames, rng):
    """The connection Laplacian after a random rotation or reflection of each
    node's frame (a random sign for m = 1)."""
    if frames.m == 1:
        gauge = rng.choice([-1.0, 1.0], size=(frames.n, 1, 1))
    else:
        gauge = ortho_group.rvs(frames.m, size=frames.n, random_state=rng)
    frames = tg.GaugeFrames(frames.frames @ gauge)
    return tg.assemble_connection_laplacian(graph, frames,
                                            tg.compute_transports(graph, frames))


def _mesh_connection(points, faces, m=2):
    cloud = tg.PointCloud(points)
    graph = tg.build_mesh_graph(cloud, faces)
    return graph, tg.estimate_tangent_frames(graph, cloud, m)


def _mesh_laplacian(points, faces):
    """The connection Laplacian of a mesh graph with default frames."""
    graph, frames = _mesh_connection(points, faces)
    return tg.assemble_connection_laplacian(graph, frames,
                                            tg.compute_transports(graph, frames))


def _clifford_torus(n):
    """The connection Laplacian of an n x n grid on the Clifford torus
    S1 x S1 in R^4: k-NN (k = 8, unit weights), d = 4, m = 2, no mesh."""
    u = 2 * np.pi * np.arange(n) / n
    uu, vv = np.meshgrid(u, u, indexing="ij")
    points = np.stack([np.cos(uu), np.sin(uu), np.cos(vv), np.sin(vv)], axis=-1)
    return build_setup(points.reshape(-1, 4), None, k_neighbors=8).con


class TestContinuumOracles:
    """The discrete connection Laplacian against the exact spectra of the
    connection (Bochner) Laplacian on tangent fields of the continuum
    manifold, compared as ratios to the mean of the first nonzero cluster
    (unit weights fix no scale), with error falling under refinement."""

    @staticmethod
    def _ratio_error(vals, first, exact):
        return float(np.abs(vals / first.mean() / exact - 1.0).max())

    def test_unit_sphere(self, icosphere3):
        # l(l + 1) - 1 = 1, 5, 11, 19 with multiplicities 2(2l + 1) = 6, 10,
        # 14, 18 (Weitzenboeck, Ric = 1); icosahedral symmetry splits the 14-
        # and 18-fold clusters into 8 + 6 and 10 + 8. At s = 2 the sixfold
        # cluster splits into three pairs, so only s = 3 is checked for ends.
        _, fine = icosphere3
        ends = np.cumsum([len(c) for c in _eigenvalue_clusters(fine[:60], tol=1e-6)])
        assert ends[:7].tolist() == [6, 16, 24, 30, 40, 48, 54]
        coarse = np.linalg.eigvalsh(_mesh_laplacian(*tio.generate_icosphere(2))
                                    .matrix.toarray())
        exact = np.repeat([1.0, 5.0], [6, 10])
        errors = [self._ratio_error(vals[:16], vals[:6], exact) for vals in (coarse, fine)]
        assert errors[1] <= 1e-2
        assert errors[0] >= 3 * errors[1]

    def test_clifford_torus(self):
        # a flat connection: a^2 + b^2, each with twice its scalar
        # multiplicity, so 0 x2, then 1, 2 and 4 x8 and 5 x16
        exact = np.repeat([1.0, 2.0, 4.0, 5.0], [8, 8, 8, 16])
        errors = []
        for n, bound in ((40, 2.5e-2), (60, 1e-2)):
            con = _clifford_torus(n)
            assert con.hermitian is not None  # orientable: the H route
            vals = tg.eigendecompose(con, 42).eigenvalues
            errors.append(self._ratio_error(vals[2:42], vals[2:10], exact))
            assert errors[-1] <= bound
        assert errors[0] >= 2 * errors[1]


class TestHermitianRoute:
    """The Lanczos path solves orientable m = 2 connections on their complex
    Hermitian form and every other operator on the real one; both match the
    dense eigensolver, clusters included."""

    @staticmethod
    def _solve(operator, k, seed):
        """Lanczos spectrum, and the dtype of each form the solver ran on."""
        solved = []
        lanczos = spectral._lanczos

        def spy(mat, *args, **kwargs):
            solved.append(mat.dtype)
            return lanczos(mat, *args, **kwargs)

        with mock.patch.object(spectral, "_lanczos", spy):
            spec = tg.eigendecompose(operator, k, seed=seed)
        return spec, solved

    @staticmethod
    def _assert_matches_dense(operator, spec):
        from scipy.linalg import subspace_angles
        k = spec.k
        vals, vecs = np.linalg.eigh(operator.matrix.toarray())
        assert np.abs(spec.eigenvalues - np.clip(vals[:k], 0, None)).max() <= 1e-8
        assert abs(spec.next_eigenvalue - vals[k]) <= 1e-8
        for cluster in _eigenvalue_clusters(vals[:k + 1], tol=1e-6):
            if cluster[-1] < k:  # whole clusters only
                angles = subspace_angles(vecs[:, cluster], spec.eigenvectors[:, cluster])
                assert angles.max() < 1e-6

    def _check(self, operator, k, seed, dtype):
        spec, solved = self._solve(operator, k, seed)
        assert solved == [np.dtype(dtype)]
        self._assert_matches_dense(operator, spec)
        return spec

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(n_major=st.integers(16, 24), n_minor=st.integers(10, 14),
           k=st.integers(1, 30), seed=st.integers(0, 2**32 - 1))
    def test_jittered_torus_under_random_gauge(self, n_major, n_minor, k, seed):
        rng = np.random.default_rng(seed)
        points, faces = tio.generate_torus(2.0, 0.8, n_major, n_minor)
        graph, frames = _mesh_connection(points + 0.02 * rng.standard_normal(points.shape),
                                         faces)
        con = _regauged_connection(graph, frames, rng)
        spec = self._check(con, k, seed, complex)
        # eigenvalues come in exact pairs, so an odd k rounds up to its pair's end
        assert spec.k % 2 == 0 and spec.k >= k
        assert np.array_equal(spec.eigenvalues[0::2], spec.eigenvalues[1::2])
        assert spec.next_eigenvalue > spec.eigenvalues[-1]

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(k=st.integers(1, 30), seed=st.integers(0, 2**32 - 1))
    def test_icosphere_under_random_gauge(self, icosphere, k, seed):
        rng = np.random.default_rng(seed)
        con = _regauged_connection(icosphere.graph, icosphere.frames, rng)
        self._check(con, k, seed, complex)

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(k=st.integers(1, 30), seed=st.integers(0, 2**32 - 1))
    def test_mobius_strip_takes_real_route(self, k, seed):
        rng = np.random.default_rng(seed)
        con = _regauged_connection(*_mesh_connection(*mobius_strip()), rng)
        assert con.hermitian is None and con.flips is None
        self._check(con, k, seed, float)

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(m=st.sampled_from([1, 3]), k=st.integers(1, 30),
           seed=st.integers(0, 2**32 - 1))
    def test_m_other_than_2_takes_real_route(self, m, k, seed):
        rng = np.random.default_rng(seed)
        points = rng.standard_normal((120, m + 1))
        points /= np.linalg.norm(points, axis=1, keepdims=True)  # an m-sphere
        cloud = tg.PointCloud(points)
        graph = tg.build_knn_graph(cloud, 10)
        frames = (scalar_frames(graph.n) if m == 1
                  else tg.estimate_tangent_frames(graph, cloud, m))
        con = _regauged_connection(graph, frames, rng)
        self._check(con, k, seed, float)

    def test_hand_built_operator_takes_real_route(self, torus):
        # only assembly orients a connection; an operator built from a matrix
        # alone, here one with an antilinear part in one block, has no form
        mat = torus.con.matrix.tolil()
        mat[0, 3] += 1e-6
        mat[3, 0] += 1e-6
        con = spectral.ConnectionLaplacian(mat.tocsr(), torus.con.n, 2)
        assert torus.con.hermitian is not None
        assert con.hermitian is None and con.flips is None
        self._check(con, 12, 0, float)

    def test_non_orthogonal_transport_rejected(self, torus):
        maps = torus.transports.maps.copy()
        maps[5, 0, 1] += 1e-6
        i, j = torus.transports.edges[5]
        with pytest.raises(ValueError,
                           match=rf"transport map of edge \({i}, {j}\) is not orthogonal"):
            tg.TransportMaps(torus.transports.edges, maps)


def _bsr_hermitian_form(operator):
    """Reference: the Hermitian form and flips re-derived from the assembled
    matrix alone (2x2 BSR blocks, block determinants, the signed double
    cover and a scaled-rotation check), or None."""
    if not isinstance(operator, spectral.ConnectionLaplacian) or operator.m != 2:
        return None
    n = operator.n
    bsr = operator.matrix.tobsr(blocksize=(2, 2))
    rows = np.repeat(np.arange(n), np.diff(bsr.indptr))
    cols = bsr.indices
    (a, b), (c, d) = bsr.data[:, 0].T, bsr.data[:, 1].T
    det = a * d - b * c
    edge = (rows != cols) & (det != 0)
    cross = np.where(det[edge] < 0, n, 0)
    heads = np.concatenate([rows[edge], rows[edge] + n])
    tails = np.concatenate([cols[edge] + cross, cols[edge] + n - cross])
    cover = sparse.coo_matrix((np.ones(heads.size), (heads, tails)), shape=(2 * n, 2 * n))
    _, labels = csgraph.connected_components(cover, directed=False)
    if np.any(labels[:n] == labels[n:]):
        return None
    signs = np.where(labels[:n] < labels[n:], 1.0, -1.0)
    b, c, d = b * signs[cols], c * signs[rows], d * signs[rows] * signs[cols]
    size = np.abs(a) + np.abs(b) + np.abs(c) + np.abs(d)
    if np.any(np.abs(a - d) + np.abs(b + c) > 1e-12 * size):
        return None
    entries = (a + d) / 2 + 1j * ((c - b) / 2)
    return sparse.csr_matrix((entries, cols, bsr.indptr), shape=(n, n)), signs


def _assert_form_matches_reference(con):
    """Assembly's form equals the BSR reference in structure and value (the
    BSR copy stores exact zeros as +0.0, so values compare with ==)."""
    hermitian, flips = _bsr_hermitian_form(con)
    assert np.array_equal(con.hermitian.indptr, hermitian.indptr)
    assert np.array_equal(con.hermitian.indices, hermitian.indices)
    assert np.array_equal(con.hermitian.data, hermitian.data)
    assert np.array_equal(con.flips, flips)


class TestOrientation:
    """``geometry._orientation`` decides orientability once, from the
    transports; assembly's Hermitian form is the one the matrix implies."""

    @staticmethod
    def _gaussian_connection(points, faces, bandwidth, rng):
        cloud = tg.PointCloud(points)
        graph = tg.build_mesh_graph(cloud, faces, "gaussian", bandwidth)
        frames = tg.estimate_tangent_frames(graph, cloud, 2)
        return _regauged_connection(graph, frames, rng)

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(n_major=st.integers(16, 24), n_minor=st.integers(10, 14),
           bandwidth=st.floats(0.1, 2.0), seed=st.integers(0, 2**32 - 1))
    def test_jittered_torus_form_matches_reference(self, n_major, n_minor, bandwidth,
                                                   seed):
        rng = np.random.default_rng(seed)
        points, faces = tio.generate_torus(2.0, 0.8, n_major, n_minor)
        points = points + 0.02 * rng.standard_normal(points.shape)
        _assert_form_matches_reference(
            self._gaussian_connection(points, faces, bandwidth, rng))

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(bandwidth=st.floats(0.05, 1.0), seed=st.integers(0, 2**32 - 1))
    def test_icosphere_form_matches_reference(self, bandwidth, seed):
        rng = np.random.default_rng(seed)
        _assert_form_matches_reference(self._gaussian_connection(
            *tio.generate_icosphere(2), bandwidth, rng))

    @pytest.mark.parametrize("surface", ["mobius", "torus_12x8"])
    def test_non_orientable_connection_has_no_form(self, surface):
        # on the 12x8 mesh torus one estimated frame normal lies 90 degrees
        # from the surface normal, which makes the connection reflecting
        points, faces = (mobius_strip() if surface == "mobius"
                         else tio.generate_torus(2.0, 0.8, 12, 8))
        graph, frames = _mesh_connection(points, faces)
        transports = tg.compute_transports(graph, frames)
        assert tg.geometry._orientation(graph, transports) is None
        con = tg.assemble_connection_laplacian(graph, frames, transports)
        assert con.hermitian is None and con.flips is None
        assert _bsr_hermitian_form(con) is None

    @pytest.mark.parametrize("n_major, n_minor", [(14, 9), (16, 10)])
    def test_finer_mesh_tori_orient(self, n_major, n_minor):
        graph, frames = _mesh_connection(*tio.generate_torus(2.0, 0.8, n_major, n_minor))
        con = tg.assemble_connection_laplacian(graph, frames,
                                               tg.compute_transports(graph, frames))
        assert con.flips is not None and np.isin(con.flips, [-1.0, 1.0]).all()
        _assert_form_matches_reference(con)

    def test_m_other_than_2_has_no_orientation(self, torus):
        frames = scalar_frames(torus.graph.n)
        transports = tg.compute_transports(torus.graph, frames)
        assert tg.geometry._orientation(torus.graph, transports) is None
        assert tg.assemble_connection_laplacian(torus.graph, frames,
                                                transports).hermitian is None


class TestPositionalEncoding:
    def test_scalar_case_is_laplacian_eigenmap(self, torus):
        spec = tg.eigendecompose(torus.lap, 6)
        frames = scalar_frames(torus.cloud.n)
        enc = tg.positional_encodings(spec, frames)
        expected = np.sqrt(torus.cloud.n) * spec.eigenvectors
        assert np.allclose(enc[:, 0, :], expected, atol=1e-12)

    def test_constant_eigenvector_gives_ones(self):
        graph = tg.ProximityGraph(n=5, edges=[[0, 1], [1, 2], [2, 3], [3, 4]],
                                  weights=np.ones(4))
        lap = tg.assemble_graph_laplacian(graph)
        spec = tg.eigendecompose(lap, 1)
        enc = tg.positional_encodings(spec, scalar_frames(5))
        assert np.allclose(enc[:, 0, 0], 1.0, atol=1e-9)

    def test_columns_lie_in_tangent_span(self, torus, torus_spectrum):
        enc = tg.positional_encodings(torus_spectrum, torus.frames)
        for i in (0, 57, 399):
            frame = torus.frames.frames[i]
            resid = enc[i] - frame @ (frame.T @ enc[i])
            assert np.abs(resid).max() <= 1e-10

    def test_single_node_matches_batch(self, torus, torus_spectrum):
        enc = tg.positional_encodings(torus_spectrum, torus.frames)
        single = tg.positional_encoding(torus_spectrum, torus.frames, 123)
        assert np.allclose(single, enc[123], atol=1e-12)

    def test_index_out_of_range(self, torus, torus_spectrum):
        with pytest.raises(IndexError):
            tg.positional_encoding(torus_spectrum, torus.frames, 400)


class TestDirichletEnergy:
    def test_zero_field(self, torus):
        assert tg.dirichlet_energy(torus.graph, torus.transports,
                                   np.zeros((400, 2))) == 0.0

    def test_parallel_field_flat_frames(self):
        graph = tg.ProximityGraph(n=4, edges=[[0, 1], [1, 2], [2, 3], [0, 3]],
                                  weights=np.ones(4))
        frames = tg.GaugeFrames(np.stack([np.eye(3)[:, :2]] * 4))
        transports = tg.compute_transports(graph, frames)
        coords = np.tile([0.4, -0.7], (4, 1))
        assert tg.dirichlet_energy(graph, transports, coords) <= 1e-15

    def test_quadratic_form_identity(self):
        # oracle: dense evaluation of the quadratic form pins the sign convention
        rng = np.random.default_rng(2)
        cloud, graph = random_connected_graph(rng, 5)
        frames = tg.estimate_tangent_frames(graph, cloud, 2)
        transports = tg.compute_transports(graph, frames)
        con = tg.assemble_connection_laplacian(graph, frames, transports)
        dense = con.matrix.toarray()
        for _ in range(20):
            coords = rng.standard_normal((5, 2))
            energy = tg.dirichlet_energy(graph, transports, coords)
            quad = coords.reshape(-1) @ dense @ coords.reshape(-1)
            assert energy == pytest.approx(quad, rel=1e-10)

    def test_quadratic_form_identity_on_torus(self, torus):
        rng = np.random.default_rng(3)
        dense = torus.con.matrix
        coords = rng.standard_normal((torus.cloud.n, 2))
        energy = tg.dirichlet_energy(torus.graph, torus.transports, coords)
        quad = coords.reshape(-1) @ (dense @ coords.reshape(-1))
        assert energy == pytest.approx(quad, rel=1e-10)


class TestGaugeCovariance:
    def test_encoding_projector_invariant_under_gauge_change(self):
        rng = np.random.default_rng(7)
        cloud, graph = random_connected_graph(rng, 25)
        frames = tg.estimate_tangent_frames(graph, cloud, 2)

        def encodings_for(fr, k):
            transports = tg.compute_transports(graph, fr)
            con = tg.assemble_connection_laplacian(graph, fr, transports)
            spec = tg.eigendecompose(con, k)
            assert not spec.splits_degenerate_cluster(1e-6), "pick a different k"
            return tg.positional_encodings(spec, fr)

        k = 7
        enc_a = encodings_for(frames, k)
        rotations = ortho_group.rvs(2, size=25, random_state=rng)
        rotated = tg.GaugeFrames(np.einsum("ndm,nmk->ndk", frames.frames, rotations))
        enc_b = encodings_for(rotated, k)
        for i in range(25):
            proj_a = enc_a[i] @ np.linalg.pinv(enc_a[i])
            proj_b = enc_b[i] @ np.linalg.pinv(enc_b[i])
            assert np.abs(proj_a - proj_b).max() <= 1e-8
