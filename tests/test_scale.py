"""A 3200-row operator (the default eigensolve runs Lanczos on its Hermitian
form, and a heat flow stays exact and deterministic there), and the memory of
the GP on a training set too large for a dense Gram matrix."""
import tracemalloc
from unittest import mock

import numpy as np
import pytest

import tangentgp as tg
from tangentgp import fields as tf
from tangentgp import gp
from tangentgp import io as tio
from tangentgp import spectral
from tangentgp.gp import _features

from conftest import big_setup, svd_lml


def test_large_operator_uses_lanczos_and_exact_heat():
    cloud, graph, frames, con, lap = big_setup()
    assert con.hermitian is not None

    # the 0.02525 eigenvalue has multiplicity 4: every copy must come back
    oracle = np.linalg.eigvalsh(con.matrix.toarray())
    # auto -> Lanczos on the Hermitian form; k = 12 splits the fourfold
    # 0.07958 (columns 10-13), so each seed extends its one solve to 14
    solved = []
    lanczos = spectral._lanczos

    def spy(mat, *args, **kwargs):
        solved.append(mat.dtype)
        return lanczos(mat, *args, **kwargs)

    with mock.patch.object(spectral, "_lanczos", spy):
        specs = [tg.eigendecompose(con, 12, seed=seed) for seed in range(5)]
    assert solved == [np.dtype(complex)] * 5
    for spec in specs:
        assert np.abs(spec.eigenvalues - oracle[:spec.k]).max() <= 1e-8
        assert abs(spec.next_eigenvalue - oracle[spec.k]) <= 1e-8
    spec = specs[0]
    assert spec.k == 14 and not spec.splits_degenerate_cluster()
    assert spec.eigenvalues[0] >= 0.0
    assert np.all(np.diff(spec.eigenvalues) >= 0)
    rerun = tg.eigendecompose(con, 12, seed=0)
    assert np.array_equal(spec.eigenvalues, rerun.eigenvalues)
    assert np.array_equal(spec.eigenvectors, rerun.eigenvectors)

    rng = np.random.default_rng(0)
    u0 = rng.standard_normal(cloud.n)
    u = tf.scalar_heat(lap, u0, 2.0)
    # the flow conserves mass, contracts the seminorm and is exp(-2 L) u0
    assert abs(u.sum() - u0.sum()) <= 1e-6 * max(1.0, abs(u0.sum()))
    dense = lap.matrix
    assert u @ (dense @ u) <= u0 @ (dense @ u0)
    vals, vecs = np.linalg.eigh(dense.toarray())
    oracle = vecs @ (np.exp(-2.0 * vals) * (vecs.T @ u0))
    assert np.linalg.norm(u - oracle) <= 1e-12 * np.linalg.norm(u0)

    gen = tf.generate_experiment_field(cloud, frames, con, lap,
                                       anchor_count=120, seed=7)
    assert np.isfinite(gen.field.coords).all()
    assert gen.direction_norms.max() > 0


@pytest.mark.parametrize("tau", [10.0, 100.0])
def test_heat_ignores_and_keeps_global_rng(tau):
    # the heat flow draws no random numbers: its series is fixed by tau and
    # the operator's row sums, whatever numpy's global RNG holds, and that
    # state is left as it was
    cloud, graph, frames, con, lap = big_setup()
    coords0 = np.random.default_rng(3).standard_normal((cloud.n, 2))
    field0 = tf.TangentField(coords0, frames)
    outputs = []
    for seed in (1, 2):
        np.random.seed(seed)
        before = np.random.get_state()
        outputs.append(tf.vector_heat(con, lap, field0, tau).field.coords.tobytes())
        after = np.random.get_state()
        assert before[0] == after[0] and before[2:] == after[2:]
        assert np.array_equal(before[1], after[1])
    assert outputs[0] == outputs[1]


def test_anisotropic_knn_rejected_with_named_nodes():
    # 40x40 parametric torus: outer-equator k-NN neighbourhoods collapse to
    # minor-circle arcs, which must surface as a transport rank error rather
    # than silently bad frames
    points, _ = tio.generate_torus(2.0, 0.8, 40, 40)
    cloud = tg.PointCloud(points)
    graph = tg.build_knn_graph(cloud, 6)
    frames = tg.estimate_tangent_frames(graph, cloud, 2)
    try:
        tg.compute_transports(graph, frames)
    except tg.geometry.TransportRankError as exc:
        assert "coarse" in str(exc)
    else:
        raise AssertionError("expected TransportRankError on degenerate frames")


def test_gp_cost_stays_in_k_dimensions():
    # fit, LML and prediction on all 1600 nodes (N*d = 4800, k = 50): an
    # (N*d)^2 Gram matrix alone would take 184 MB
    cloud, graph, frames, con, lap = big_setup()
    spec = tg.eigendecompose(con, 50, seed=0)
    rng = np.random.default_rng(1)
    targets = frames.to_ambient(rng.standard_normal((cloud.n, 2)))
    nodes = np.arange(cloud.n)
    hp = tg.MaternHyperparams(sigma=1.0, kappa=2.0, nu=1.5, sigma_n=1e-2)
    tracemalloc.start()
    try:
        model = tg.fit(nodes, targets, spec, frames, hp)
        lml = tg.log_marginal_likelihood(model)
        mean, covs = tg.predict(model, nodes)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32e6, f"traced peak {peak / 1e6:.1f} MB"
    assert mean.shape == (cloud.n, 3) and covs.shape == (cloud.n, 3, 3)

    feats = _features(model.encodings, model.filter_values, hp.sigma, model.c_norm)
    oracle = svd_lml(feats, targets.reshape(-1), hp.sigma_n**2)
    assert abs(lml - oracle) <= 1e-10 * abs(oracle)


def test_prediction_memory_stays_at_one_block():
    # prediction runs in blocks of nodes, so predicting all 1600 nodes
    # (q*d = 4800 rows, k = 50) needs the memory of one block plus the
    # outputs; three whole (q*d) x k temporaries would add about 4 MB
    cloud, graph, frames, con, lap = big_setup()
    spec = tg.eigendecompose(con, 50, seed=0)
    rng = np.random.default_rng(3)
    train = np.arange(0, cloud.n, 4)
    targets = frames.to_ambient(rng.standard_normal((cloud.n, 2)))[train]
    hp = tg.MaternHyperparams(sigma=1.0, kappa=2.0, nu=1.5, sigma_n=1e-2)
    model = tg.fit(train, targets, spec, frames, hp)

    def traced_predict(nodes):
        tracemalloc.start()
        try:
            mean, covs = tg.predict(model, nodes)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak, mean.nbytes + covs.nbytes

    nodes = np.arange(cloud.n)
    one_block, _ = traced_predict(nodes[:gp._PREDICT_BLOCK])
    peak, outputs = traced_predict(nodes)
    assert cloud.n > 3 * gp._PREDICT_BLOCK
    assert peak <= one_block + outputs, \
        f"traced peak {peak / 1e6:.2f} MB, one block {one_block / 1e6:.2f} MB"


def test_dtc_cost_stays_in_k_dimensions():
    # DTC with 800 inducing of 1600 training nodes at k = 50: the inducing
    # Gram (u*d = 2400)^2 and the (u*d) x (f*d) cross-covariance alone would
    # take 46 MB and 92 MB
    cloud, graph, frames, con, lap = big_setup()
    spec = tg.eigendecompose(con, 50, seed=0)
    rng = np.random.default_rng(2)
    targets = frames.to_ambient(rng.standard_normal((cloud.n, 2)))
    nodes = np.arange(cloud.n)
    inducing, _ = tg.furthest_point_sample(cloud.points, 800)
    hp = tg.MaternHyperparams(sigma=1.0, kappa=2.0, nu=1.5, sigma_n=1e-2)
    tracemalloc.start()
    try:
        mean, covs = tg.inducing_point_predict(nodes, targets, inducing, spec,
                                               frames, hp, nodes)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32e6, f"traced peak {peak / 1e6:.1f} MB"
    assert mean.shape == (cloud.n, 3) and covs.shape == (cloud.n, 3, 3)
    assert np.isfinite(mean).all() and np.isfinite(covs).all()


def test_sampler_memory_is_bounded_on_a_small_torus():
    # 160 anchors of a 40x40 torus: the greedy pass keeps one distance row
    # of n entries at a time and takes the spacing's scale from its first
    # step, so nothing compares blocks of points against every point (a
    # 512-row block traced 33 MB here)
    points, _ = tio.generate_torus(2.0, 0.8, 40, 40)
    tracemalloc.start()
    try:
        idx, spacing = tg.furthest_point_sample(points, 160)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4e6, f"traced peak {peak / 1e6:.1f} MB"
    assert idx.shape == (160,) and 0 < spacing < 1


def test_furthest_point_sample_memory_is_linear():
    # the nearest-anchor distances come from the greedy pass's own distance
    # rows; a (count, count, d) difference tensor of 1000 anchors alone
    # would take 24 MB
    points, _ = tio.generate_torus(2.0, 0.8, 80, 50)
    tracemalloc.start()
    try:
        idx, spacing = tg.furthest_point_sample(points, 1000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4e6, f"traced peak {peak / 1e6:.2f} MB"
    assert idx.shape == (1000,) and 0 < spacing < 1


def test_sampler_memory_is_bounded_on_a_sphere():
    # 1024 anchors of 10242 points at one radius from the centroid, where no
    # point is nearer the middle than another: the spacing's scale is the
    # greedy pass's first step, so the sampler stays in O(n + count) memory
    points, _ = tio.generate_icosphere(5)
    tracemalloc.start()
    try:
        idx, spacing = tg.furthest_point_sample(points, 1024)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4e6, f"traced peak {peak / 1e6:.2f} MB"
    assert idx.shape == (1024,) and 0 < spacing < 1
