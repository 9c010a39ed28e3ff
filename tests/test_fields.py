import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.special import ive

import tangentgp as tg
from tangentgp import fields as tf
from tangentgp.fields import TangentField, fit_baseline_hyperparameters
from tangentgp.spectral import scalar_frames

from conftest import build_setup


def dense_heat(eig, tau, x0):
    """Oracle exp(-tau M) x0 from the dense eigendecomposition eig = eigh(M)."""
    vals, vecs = eig
    return vecs @ (np.exp(-tau * vals) * (vecs.T @ x0))


def dense_eigh(operator):
    return np.linalg.eigh(operator.matrix.toarray())


def directionless_rows_are_zero(coords, direction_norms):
    """The rule: the rows with direction norm at most ZERO_NORM_TOL are exactly
    the zero rows, and the metrics exclude them. Returns their mask."""
    none = direction_norms <= tf.ZERO_NORM_TOL
    assert np.array_equal(none, ~coords.any(axis=1))
    if not none.all():
        assert tf.alignment_score(coords, coords).n_excluded == none.sum()
        assert tf.angular_error(coords, coords).n_excluded == none.sum()
    return none


def path_graph(n):
    return tg.ProximityGraph(n=n, edges=[[i, i + 1] for i in range(n - 1)],
                             weights=np.ones(n - 1))


class TestScalarHeat:
    def test_zero_time_is_identity(self, torus):
        rng = np.random.default_rng(0)
        u0 = rng.standard_normal(400)
        assert np.array_equal(tf.scalar_heat(torus.lap, u0, 0.0), u0)

    def test_long_time_limit_is_mean(self, torus):
        rng = np.random.default_rng(1)
        u0 = rng.standard_normal(400)
        u = tf.scalar_heat(torus.lap, u0, 1e3)
        assert np.abs(u - u0.mean()).max() <= 1e-6

    def test_path_graph_matches_expm_oracle(self):
        # oracle: dense matrix exponential through the eigendecomposition
        graph = path_graph(4)
        lap = tg.assemble_graph_laplacian(graph)
        u0 = np.array([1.0, 0.0, -2.0, 0.5])
        u = tf.scalar_heat(lap, u0, 0.5)
        vals, vecs = np.linalg.eigh(lap.matrix.toarray())
        oracle = vecs @ np.diag(np.exp(-0.5 * vals)) @ vecs.T @ u0
        assert np.abs(u - oracle).max() <= 1e-8

    def test_mass_preserved_exact_path(self, torus):
        rng = np.random.default_rng(2)
        u0 = rng.standard_normal(400)
        u = tf.scalar_heat(torus.lap, u0, 7.3)
        assert abs(u.sum() - u0.sum()) <= 1e-6 * max(1.0, abs(u0.sum()))

    def test_seminorm_contraction(self, torus):
        rng = np.random.default_rng(3)
        u0 = rng.standard_normal(400)
        dense = torus.lap.matrix
        before = u0 @ (dense @ u0)
        for tau in (0.1, 1.0, 10.0):
            u = tf.scalar_heat(torus.lap, u0, tau)
            assert u @ (dense @ u) <= before + 1e-12

    def test_matches_dense_oracle_on_icosphere(self, icosphere):
        rng = np.random.default_rng(4)
        u0 = rng.standard_normal(162)
        u = tf.scalar_heat(icosphere.lap, u0, 0.5)
        assert np.linalg.norm(u - dense_heat(dense_eigh(icosphere.lap), 0.5, u0)) \
            <= 1e-12 * np.linalg.norm(u0)

    def test_negative_time_rejected(self, torus):
        with pytest.raises(ValueError):
            tf.scalar_heat(torus.lap, np.zeros(400), -1.0)


class TestVectorHeat:
    def test_parallel_field_invariant(self):
        graph = tg.ProximityGraph(n=4, edges=[[0, 1], [1, 2], [2, 3], [0, 3]],
                                  weights=np.ones(4))
        frames = tg.GaugeFrames(np.stack([np.eye(3)[:, :2]] * 4))
        transports = tg.compute_transports(graph, frames)
        con = tg.assemble_connection_laplacian(graph, frames, transports)
        lap = tg.assemble_graph_laplacian(graph)
        coords = np.tile([0.6, -0.8], (4, 1))
        for tau in (1.0, 10.0, 100.0):
            res = tf.vector_heat(con, lap, TangentField(coords, frames), tau)
            assert np.abs(res.field.coords - coords).max() <= 1e-10
            assert not directionless_rows_are_zero(res.field.coords,
                                                   res.direction_norms).any()

    def test_identity_transports_reduce_to_channelwise_scalar_heat(self):
        rng = np.random.default_rng(5)
        pts = rng.standard_normal((12, 3))
        cloud = tg.PointCloud(pts)
        graph = tg.build_knn_graph(cloud, 3)
        frames = tg.GaugeFrames(np.stack([np.eye(3)[:, :2]] * 12))
        transports = tg.compute_transports(graph, frames)
        con = tg.assemble_connection_laplacian(graph, frames, transports)
        lap = tg.assemble_graph_laplacian(graph)
        coords = rng.standard_normal((12, 2))
        diffused = tf.vector_diffusion(con, coords, 0.7)
        for channel in range(2):
            per_channel = tf.scalar_heat(lap, coords[:, channel], 0.7)
            assert np.abs(diffused[:, channel] - per_channel).max() <= 1e-10

    def test_vanished_direction_gives_zero_rows(self):
        # antisymmetric initial data on one edge decays to numerical zero
        graph = tg.ProximityGraph(n=2, edges=[[0, 1]], weights=[1.0])
        frames = scalar_frames(2)
        transports = tg.compute_transports(graph, frames)
        con = tg.assemble_connection_laplacian(graph, frames, transports)
        lap = tg.assemble_graph_laplacian(graph)
        field0 = TangentField(np.array([[1.0], [-1.0]]), frames)
        res = tf.vector_heat(con, lap, field0, tau=20.0)
        assert directionless_rows_are_zero(res.field.coords, res.direction_norms).all()
        with pytest.raises(ValueError, match="no nodes left"):
            tf.alignment_score(res.field.coords, res.field.coords)
        # the scalar-diffused magnitude is still reported for zero rows
        assert np.allclose(res.magnitudes, 1.0, atol=1e-9)

    def test_direction_energy_nonincreasing_along_flow(self, icosphere):
        gen0 = tf.generate_experiment_field(icosphere.cloud, icosphere.frames,
                                            icosphere.con, icosphere.lap,
                                            anchor_count=16, seed=3, tau=0.0)
        coords0 = gen0.field.coords
        energies = []
        for tau in (1.0, 10.0, 100.0):
            res = tf.vector_heat(icosphere.con, icosphere.lap,
                                 TangentField(coords0, icosphere.frames), tau)
            dirs = tf._directions(res.field.coords)[0]
            energies.append(tg.dirichlet_energy(icosphere.graph,
                                                icosphere.transports, dirs))
        assert energies[0] >= energies[1] >= energies[2] - 1e-12


def heat(operator, x, tau):
    """The library flow for either operator, on flat per-row data."""
    if isinstance(operator, tg.ConnectionLaplacian):
        return tf.vector_diffusion(operator, x.reshape(operator.n, operator.m),
                                   tau).reshape(-1)
    return tf.scalar_heat(operator, x, tau)


@pytest.fixture(scope="module")
def torus_eigh(torus):
    return {"lap": dense_eigh(torus.lap), "con": dense_eigh(torus.con)}


OPERATORS = st.sampled_from(["lap", "con"])
SEEDS = st.integers(0, 2**32 - 1)
HEAT = settings(max_examples=25, deadline=None, derandomize=True)


class TestHeatFlowProperties:
    """Invariants of exp(-tau M) on the 400-node torus, tau in [0, 1000]:
    at the top, tau b / 2 is about 10^4 and the series about 900 terms."""

    @HEAT
    @given(name=OPERATORS, tau=st.floats(0.0, 1000.0), seed=SEEDS)
    def test_matches_dense_oracle(self, torus, torus_eigh, name, tau, seed):
        operator = getattr(torus, name)
        x0 = np.random.default_rng(seed).standard_normal(operator.size)
        out = heat(operator, x0, tau)
        assert np.linalg.norm(out - dense_heat(torus_eigh[name], tau, x0)) \
            <= 1e-12 * np.linalg.norm(x0)

    @HEAT
    @given(name=OPERATORS, s=st.floats(0.0, 500.0), t=st.floats(0.0, 500.0),
           seed=SEEDS)
    def test_semigroup(self, torus, name, s, t, seed):
        operator = getattr(torus, name)
        x0 = np.random.default_rng(seed).standard_normal(operator.size)
        twice = heat(operator, heat(operator, x0, s), t)
        assert np.linalg.norm(twice - heat(operator, x0, s + t)) \
            <= 1e-12 * np.linalg.norm(x0)

    @HEAT
    @given(tau=st.floats(0.0, 1000.0), seed=SEEDS)
    def test_scalar_mass_conserved(self, torus, tau, seed):
        u0 = np.random.default_rng(seed).standard_normal(torus.lap.n)
        u = tf.scalar_heat(torus.lap, u0, tau)
        # the oracle bound 1e-12 |u0| on u bounds the mass by sqrt(n) times it
        assert abs(u.sum() - u0.sum()) <= 1e-12 * math.sqrt(u0.size) * np.linalg.norm(u0)

    @HEAT
    @given(name=OPERATORS, tau=st.floats(0.0, 1000.0), seed=SEEDS)
    def test_seminorm_contracts(self, torus, name, tau, seed):
        operator = getattr(torus, name)
        x0 = np.random.default_rng(seed).standard_normal(operator.size)
        x = heat(operator, x0, tau)
        before = x0 @ (operator.matrix @ x0)
        assert x @ (operator.matrix @ x) <= before * (1 + 1e-12)

    @HEAT
    @given(tau=st.floats(0.0, 1000.0), seed=SEEDS)
    def test_gauge_covariance(self, torus, tau, seed):
        # per-node O(2) frame changes R: exp(-tau R^T L_c R) R^T x = R^T exp(-tau L_c) x
        rng = np.random.default_rng(seed)
        con = torus.con
        rots = np.linalg.qr(rng.standard_normal((con.n, 2, 2)))[0]
        rots[rng.random(con.n) < 0.5, :, 1] *= -1.0  # reflections too
        r = sparse.block_diag(list(rots), format="csr")
        gauged = tg.ConnectionLaplacian((r.T @ con.matrix @ r).tocsr(), con.n, con.m)
        x0 = rng.standard_normal(con.size)
        out = heat(gauged, r.T @ x0, tau)
        assert np.linalg.norm(out - r.T @ heat(con, x0, tau)) \
            <= 1e-12 * np.linalg.norm(x0)


class TestHeatSeries:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(exponent=st.floats(-6.0, 6.0))
    def test_truncation_and_coefficients_match_bessel(self, exponent):
        # c_j = (2 - [j = 0]) (-1)^j e^-z I_j(z) for z log-uniform in
        # [1e-6, 1e6]: the dropped terms sum below 2^-53, so the series is
        # exp(-z (1 + y)) to rounding on [-1, 1], and the kept ones are exact
        z = 10.0 ** exponent
        coefs = tf._heat_coefficients(z)
        degree = coefs.size - 1
        j = np.arange(degree + 1 + int(30 * math.sqrt(z)) + 200)
        exact = np.where(j == 0, 1.0, 2.0) * (-1.0) ** j * ive(j, z)
        assert 2.0 * ive(j[-1], z) < 1e-30  # the exact tail is summed to its end
        assert np.abs(exact[degree + 1:]).sum() < 2.0**-53
        assert np.abs(coefs - exact[:degree + 1]).max() <= 1e-15


class TestGenerateExperimentField:
    def test_seed_determinism_bit_for_bit(self, torus):
        a = tf.generate_experiment_field(torus.cloud, torus.frames, torus.con,
                                         torus.lap, anchor_count=30, seed=9)
        b = tf.generate_experiment_field(torus.cloud, torus.frames, torus.con,
                                         torus.lap, anchor_count=30, seed=9)
        assert np.array_equal(a.field.coords, b.field.coords)
        assert np.array_equal(a.anchors, b.anchors)

    def test_smoothing_reduces_dirichlet_energy(self, torus, torus_truth):
        # oracle: energy of the unsmoothed anchor field, reconstructed from
        # the same seed and anchors
        anchors, _ = tg.furthest_point_sample(torus.cloud, 40)
        rng = np.random.default_rng(7)
        raw = rng.standard_normal((40, 3))
        raw /= np.linalg.norm(raw, axis=1, keepdims=True)
        coords0 = np.zeros((400, 2))
        for a, i in enumerate(anchors):
            coords0[i] = torus.frames.frames[i].T @ raw[a]
        e_raw = tg.dirichlet_energy(torus.graph, torus.transports, coords0)
        e_smooth = tg.dirichlet_energy(torus.graph, torus.transports,
                                       torus_truth.field.coords)
        assert e_smooth <= e_raw

    @pytest.mark.parametrize("tau", [0.0, 100.0])
    def test_genus_zero_zero_rows_follow_the_rule(self, icosphere, tau):
        # at tau = 0 every node but the 16 anchors has no direction; at
        # tau = 100 the discrete zeros lie inside faces, so no node is one
        gen = tf.generate_experiment_field(icosphere.cloud, icosphere.frames,
                                           icosphere.con, icosphere.lap,
                                           anchor_count=16, seed=11, tau=tau)
        assert gen.direction_norms.shape == (162,)
        none = directionless_rows_are_zero(gen.field.coords, gen.direction_norms)
        assert none.sum() == (146 if tau == 0 else 0)

    def test_anchor_count_respected(self, torus, torus_truth):
        assert torus_truth.anchors.shape == (40,)
        assert 0.0 < torus_truth.spacing < 1.0


class TestBaseline:
    def test_single_channel_equals_scalar_gp_path(self, torus):
        spec = tg.eigendecompose(torus.lap, 15)
        rng = np.random.default_rng(8)
        train = np.arange(0, 400, 4)
        y = rng.standard_normal((100, 1))
        query = np.arange(0, 400, 7)
        hp = tg.MaternHyperparams(sigma=1.2, kappa=2.0, nu=math.inf, sigma_n=0.01)
        base = tf.baseline_scalar_rbf_predict(spec, train, y, query, hp)
        model = tg.fit(train, y, spec, scalar_frames(400), hp)
        direct, _ = tg.predict(model, query)
        assert np.array_equal(base, direct)

    def test_channel_permutation_equivariant(self, torus, torus_truth):
        spec = tg.eigendecompose(torus.lap, 15)
        truth = torus_truth.field.ambient()
        train = np.arange(0, 400, 2)
        query = np.arange(1, 400, 2)
        hp = tg.MaternHyperparams(sigma=1.0, kappa=2.0, nu=math.inf, sigma_n=0.01)
        perm = [2, 0, 1]
        out = tf.baseline_scalar_rbf_predict(spec, train, truth[train], query, hp)
        out_perm = tf.baseline_scalar_rbf_predict(spec, train,
                                                  truth[train][:, perm], query, hp)
        assert np.array_equal(out[:, perm], out_perm)

    def test_finite_nu_rejected(self, torus):
        spec = tg.eigendecompose(torus.lap, 10)
        train = np.arange(0, 400, 8)
        y = np.ones((50, 1))
        hp = tg.MaternHyperparams(sigma=1.0, kappa=2.0, nu=1.5, sigma_n=0.01)
        with pytest.raises(ValueError, match="nu = inf, got nu = 1.5"):
            tf.baseline_scalar_rbf_predict(spec, train, y, train, hp)

    def test_predictions_protrude_surface(self, torus, torus_truth):
        spec = tg.eigendecompose(torus.lap, 50)
        truth = torus_truth.field.ambient()
        mask = np.zeros(400, dtype=bool)
        mask[np.arange(0, 400, 3)] = True
        train, test = np.nonzero(~mask)[0], np.nonzero(mask)[0]
        hp = tg.MaternHyperparams(sigma=0.1, kappa=2.0, nu=math.inf, sigma_n=1e-3)
        pred = tf.baseline_scalar_rbf_predict(spec, train, truth[train], test, hp)
        oot = tf.out_of_tangent_magnitude(pred, torus.frames, test)
        assert oot.value > 0.0

    def test_out_of_range_nodes_rejected(self, torus):
        spec = tg.eigendecompose(torus.lap, 10)
        train = np.arange(0, 400, 8)
        y = np.ones((50, 3))
        hp = tg.MaternHyperparams(sigma=1.0, kappa=2.0, nu=math.inf, sigma_n=0.01)
        for query in (np.array([-1]), np.array([400])):
            with pytest.raises(IndexError, match="query node"):
                tf.baseline_scalar_rbf_predict(spec, train, y, query, hp)
        with pytest.raises(IndexError, match="training node"):
            tf.baseline_scalar_rbf_predict(spec, np.append(train[1:], 400), y,
                                           train, hp)

    def test_fit_baseline_hyperparameters(self, torus, torus_truth):
        spec = tg.eigendecompose(torus.lap, 15)
        truth = torus_truth.field.ambient()
        train = np.arange(0, 400, 4)
        search = tg.SearchConfig(n_starts=2, n_sweeps=2, grid_points=4)
        hp = fit_baseline_hyperparameters(spec, train, truth[train], search=search,
                                          seed=0)
        assert math.isinf(hp.nu)
        assert hp.sigma > 0 and hp.kappa > 0 and hp.sigma_n > 0


class TestMetrics:
    def test_alignment_identity_and_negation(self):
        rng = np.random.default_rng(9)
        truth = rng.standard_normal((50, 3))
        assert tf.alignment_score(truth, truth).value == 1.0
        assert tf.alignment_score(-truth, truth).value == -1.0

    def test_angular_identity_and_orthogonal(self):
        truth = np.tile([1.0, 0.0, 0.0], (10, 1))
        ortho = np.tile([0.0, 1.0, 0.0], (10, 1))
        assert tf.angular_error(truth, truth).value == 0.0
        assert tf.angular_error(ortho, truth).value == pytest.approx(np.pi / 2)

    def test_random_alignment_has_small_mean(self):
        # Monte Carlo oracle: cosines of uniform directions average to zero
        truth = np.tile([0.0, 0.0, 1.0], (1000, 1))
        values = []
        for seed in range(5):
            rng = np.random.default_rng(seed)
            pred = rng.standard_normal((1000, 3))
            values.append(tf.alignment_score(pred, truth).value)
        assert abs(np.mean(values)) < 0.1

    def test_angular_equals_arccos_alignment_for_constant_rotation(self, torus,
                                                                   torus_truth):
        phi = 0.7
        rot = np.array([[math.cos(phi), -math.sin(phi)],
                        [math.sin(phi), math.cos(phi)]])
        truth = torus_truth.field.ambient()
        pred = torus.frames.to_ambient(torus_truth.field.coords @ rot.T)
        align = tf.alignment_score(pred, truth)
        ang = tf.angular_error(pred, truth)
        assert ang.value == pytest.approx(phi, abs=1e-10)
        assert ang.value == pytest.approx(math.acos(align.value), abs=1e-10)

    def test_zero_norm_prediction_excluded_and_counted(self):
        truth = np.tile([1.0, 0.0], (4, 1))
        pred = truth.copy()
        pred[2] = 0.0
        res = tf.alignment_score(pred, truth)
        assert res.value == 1.0 and res.n_excluded == 1 and res.n_nodes == 4

    def test_all_zero_predictions_error(self):
        with pytest.raises(ValueError):
            tf.alignment_score(np.zeros((3, 2)), np.ones((3, 2)))

    def test_scale_invariance(self):
        rng = np.random.default_rng(10)
        truth = rng.standard_normal((30, 3))
        pred = rng.standard_normal((30, 3))
        a1 = tf.alignment_score(pred, truth).value
        a2 = tf.alignment_score(37.5 * pred, truth).value
        assert a1 == pytest.approx(a2, rel=1e-14)
        e1 = tf.angular_error(pred, truth).value
        e2 = tf.angular_error(37.5 * pred, truth).value
        assert e1 == pytest.approx(e2, rel=1e-14)

    def test_out_of_tangent_magnitude_known_value(self, torus):
        nodes = np.array([3, 7])
        frames = torus.frames
        normal = np.cross(frames.frames[:, :, 0], frames.frames[:, :, 1])
        pred = frames.frames[nodes, :, 0] + 0.25 * normal[nodes]
        res = tf.out_of_tangent_magnitude(pred, frames, nodes)
        assert res.value == pytest.approx(0.25, rel=1e-10)

    def test_boundary_angular_jump_handcrafted(self):
        # flat frames make transports the identity, so the jump reduces to
        # the planar angle between endpoint vectors
        graph = path_graph(4)
        frames = tg.GaugeFrames(np.stack([np.eye(3)[:, :2]] * 4))
        transports = tg.compute_transports(graph, frames)
        mask = np.array([False, False, True, True])
        vectors = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                            [math.cos(0.4), math.sin(0.4), 0.0],
                            [0.0, 1.0, 0.0]])
        res = tf.boundary_angular_jump(graph, transports, frames, vectors, mask)
        # only edge (1, 2) crosses the boundary
        assert res.value == pytest.approx(0.4, abs=1e-12)
        assert res.n_nodes == 1

    def test_boundary_jump_detects_protrusion(self):
        graph = path_graph(4)
        frames = tg.GaugeFrames(np.stack([np.eye(3)[:, :2]] * 4))
        transports = tg.compute_transports(graph, frames)
        mask = np.array([False, False, True, True])
        in_plane = np.tile([1.0, 0.0, 0.0], (4, 1))
        protruding = in_plane.copy()
        protruding[2] = [1.0, 0.0, 1.0]  # off-tangent prediction
        flat = tf.boundary_angular_jump(graph, transports, frames, in_plane, mask)
        lifted = tf.boundary_angular_jump(graph, transports, frames, protruding,
                                          mask)
        assert flat.value == 0.0
        assert lifted.value == pytest.approx(math.pi / 4, abs=1e-12)

    def test_boundary_jump_requires_boundary(self):
        graph = path_graph(3)
        frames = tg.GaugeFrames(np.stack([np.eye(3)[:, :2]] * 3))
        transports = tg.compute_transports(graph, frames)
        with pytest.raises(ValueError, match="boundary"):
            tf.boundary_angular_jump(graph, transports, frames, np.ones((3, 3)),
                                     np.zeros(3, dtype=bool))

    def test_metric_json_record_shape(self):
        res = tf.alignment_score(np.ones((3, 2)), np.ones((3, 2)))
        record = res.to_dict()
        assert set(record) == {"metric", "value", "n_nodes", "n_excluded"}


class TestDirectionCoherence:
    def test_uniform_field_has_high_coherence(self):
        rng = np.random.default_rng(11)
        pts = rng.standard_normal((30, 3))
        setup = build_setup(pts, None, k_neighbors=4)
        coords = np.tile([1.0, 0.0], (30, 1))
        coherence = tf.direction_coherence(setup.graph, setup.transports, coords)
        assert coherence.shape == (30,)
        assert coherence.max() <= 1.0 + 1e-12

    def test_flat_parallel_field_is_fully_coherent(self):
        graph = path_graph(5)
        frames = tg.GaugeFrames(np.stack([np.eye(3)[:, :2]] * 5))
        transports = tg.compute_transports(graph, frames)
        coords = np.tile([0.0, 2.0], (5, 1))
        coherence = tf.direction_coherence(graph, transports, coords)
        assert np.allclose(coherence, 1.0, atol=1e-12)
