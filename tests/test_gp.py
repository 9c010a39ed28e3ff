import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag, solve_triangular
from scipy.stats import norm, ortho_group

import tangentgp as tg
from tangentgp import fields as tfields
from tangentgp import gp
from tangentgp import io as tio
from tangentgp.gp import (
    GramConditioningError,
    SearchConfig,
    _cholesky_with_jitter,
    _features,
    coordinate_search,
)
from tangentgp.spectral import scalar_frames, truncate

from conftest import big_setup, build_setup, dtc_oracle, svd_lml


def search_objective(*args, **kwargs):
    """The objective that ``tg.fit_hyperparameters(*args, **kwargs)`` searches."""
    handed = []
    with mock.patch.object(gp, "coordinate_search",
                           lambda objective, *rest: handed.append(objective) or np.zeros(3)):
        tg.fit_hyperparameters(*args, **kwargs)
    return handed[0]


class TestSpectralFilter:
    def test_zero_eigenvalue_unit_value(self):
        hp = tg.MaternHyperparams(sigma=1.0, kappa=math.sqrt(2.0), nu=1.0)
        assert tg.spectral_filter(np.array([0.0]), hp)[0] == pytest.approx(1.0, abs=1e-15)

    def test_strictly_decreasing(self):
        hp = tg.MaternHyperparams(kappa=1.3, nu=2.5)
        lam = np.linspace(0, 20, 50)
        vals = tg.spectral_filter(lam, hp)
        assert np.all(np.diff(vals) < 0)
        assert np.all(vals > 0)

    def test_matches_scalar_oracle(self):
        # oracle: per-value evaluation with the math module
        hp = tg.MaternHyperparams(sigma=2.0, kappa=0.7, nu=1.5)
        lam = np.linspace(0.0, 12.0, 25)
        vals = tg.spectral_filter(lam, hp)
        for l, v in zip(lam, vals):
            direct = math.pow(2 * 1.5 / 0.7**2 + l, -1.5)
            assert abs(v - direct) <= 1e-14 * max(1.0, abs(direct))

    def test_heat_limit(self):
        hp = tg.MaternHyperparams(kappa=1.5, nu=math.inf)
        lam = np.array([0.0, 0.5, 2.0])
        assert np.allclose(tg.spectral_filter(lam, hp),
                           np.exp(-1.5**2 * lam / 2), atol=1e-15)

    def test_invalid_hyperparams(self):
        with pytest.raises(ValueError):
            tg.MaternHyperparams(kappa=0.0)
        with pytest.raises(ValueError):
            tg.MaternHyperparams(nu=-1.0)
        with pytest.raises(ValueError):
            tg.MaternHyperparams(sigma=-2.0)

    def test_negative_eigenvalue_clamped_or_rejected(self):
        hp = tg.MaternHyperparams()
        vals = tg.spectral_filter(np.array([-1e-9, 0.0]), hp)
        assert vals[0] == vals[1]
        with pytest.raises(ValueError):
            tg.spectral_filter(np.array([-1e-3]), hp)


class TestKernel:
    def test_transpose_symmetry(self):
        rng = np.random.default_rng(0)
        p, q = rng.standard_normal((3, 8)), rng.standard_normal((3, 8))
        filt = rng.uniform(0.1, 1.0, 8)
        block_pq = tg.kernel_block(p, q, filt, 1.3, 0.7)
        block_qp = tg.kernel_block(q, p, filt, 1.3, 0.7)
        assert np.abs(block_pq - block_qp.T).max() <= 1e-12

    def test_scalar_reduction_matches_direct_formula(self, torus):
        # oracle: the scalar graph kernel sigma^2 u(p) diag(f) u(q)^T, up to
        # the c_norm * n scaling carried by the encodings
        spec = tg.eigendecompose(torus.lap, 12)
        frames = scalar_frames(torus.cloud.n)
        enc = tg.positional_encodings(spec, frames)
        hp = tg.MaternHyperparams(sigma=1.4, kappa=2.0, nu=1.5)
        filt = tg.spectral_filter(spec.eigenvalues, hp)
        c_norm = tg.normalization_constant(enc, filt, 1)
        p, q = 3, 77
        block = tg.kernel_block(enc[p], enc[q], filt, hp.sigma, c_norm)
        direct = hp.sigma**2 * spec.eigenvectors[p] * filt @ spec.eigenvectors[q]
        assert block[0, 0] == pytest.approx(c_norm * torus.cloud.n * direct, rel=1e-10)

    def test_gram_psd_small_bundle(self):
        # oracle: dense eigendecomposition of the assembled Gram
        rng = np.random.default_rng(1)
        pts = rng.standard_normal((6, 3))
        setup = build_setup(pts, None, k_neighbors=3)
        spec = tg.eigendecompose(setup.con, 12)
        enc = tg.positional_encodings(spec, setup.frames)
        hp = tg.MaternHyperparams()
        filt = tg.spectral_filter(spec.eigenvalues, hp)
        c_norm = tg.normalization_constant(enc, filt, 2)
        feats = _features(enc, filt, hp.sigma, c_norm)
        gram = feats @ feats.T
        vals = np.linalg.eigvalsh(gram)
        assert vals.min() >= -1e-9 * vals.max()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            tg.kernel_block(np.zeros((3, 4)), np.zeros((3, 5)), np.ones(4), 1.0, 1.0)

    def test_normalization_sets_mean_trace(self, torus, torus_spectrum):
        enc = tg.positional_encodings(torus_spectrum, torus.frames)
        hp = tg.MaternHyperparams(sigma=1.7)
        filt = tg.spectral_filter(torus_spectrum.eigenvalues, hp)
        c_norm = tg.normalization_constant(enc, filt, 2)
        traces = [np.trace(tg.kernel_block(enc[i], enc[i], filt, hp.sigma, c_norm))
                  for i in range(torus.cloud.n)]
        assert np.mean(traces) == pytest.approx(hp.sigma**2 * 2, rel=1e-10)


class TestGram:
    def _encodings(self, setup, k):
        spec = tg.eigendecompose(setup.con, k)
        return spec, tg.positional_encodings(spec, setup.frames)

    def test_symmetry_exact(self, small_torus):
        spec, enc = self._encodings(small_torus, 20)
        hp = tg.MaternHyperparams()
        filt = tg.spectral_filter(spec.eigenvalues, hp)
        c_norm = tg.normalization_constant(enc, filt, 2)
        gram, _, _ = tg.assemble_gram(enc[:10], filt, hp.sigma, hp.sigma_n, c_norm)
        assert np.array_equal(gram, gram.T)

    def test_noise_dominated_limit(self, small_torus):
        spec, enc = self._encodings(small_torus, 20)
        hp = tg.MaternHyperparams(sigma=1.0, sigma_n=1e4)
        filt = tg.spectral_filter(spec.eigenvalues, hp)
        c_norm = tg.normalization_constant(enc, filt, 2)
        gram, _, _ = tg.assemble_gram(enc[:10], filt, hp.sigma, hp.sigma_n, c_norm)
        off = gram - np.diag(np.diag(gram))
        assert np.abs(off).max() <= 1e-6 * hp.sigma_n**2
        model = tg.fit(np.arange(10), np.ones((10, 3)), spec, small_torus.frames, hp)
        mean, _ = tg.predict(model, np.arange(10))
        assert np.abs(mean).max() <= 1e-4

    def test_logdet_matches_dense_oracle(self):
        rng = np.random.default_rng(2)
        pts = rng.standard_normal((5, 3))
        setup = build_setup(pts, None, k_neighbors=2)
        spec = tg.eigendecompose(setup.con, 6)
        enc = tg.positional_encodings(spec, setup.frames)
        hp = tg.MaternHyperparams(sigma=0.8, sigma_n=0.3)
        filt = tg.spectral_filter(spec.eigenvalues, hp)
        c_norm = tg.normalization_constant(enc, filt, 2)
        gram, chol, _ = tg.assemble_gram(enc, filt, hp.sigma, hp.sigma_n, c_norm)
        logdet_chol = 2 * np.sum(np.log(np.diag(chol)))
        logdet_dense = np.sum(np.log(np.linalg.eigvalsh(gram)))
        assert logdet_chol == pytest.approx(logdet_dense, rel=1e-8)

    def test_jitter_failure_reports_conditioning(self):
        indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(GramConditioningError, match="eigenvalue range"):
            _cholesky_with_jitter(indefinite)

    def test_numerical_rank_bounded_by_k(self, torus, torus_spectrum):
        k = 10
        spec = tg.spectral.truncate(torus_spectrum, k)
        enc = tg.positional_encodings(spec, torus.frames)
        hp = tg.MaternHyperparams()
        filt = tg.spectral_filter(spec.eigenvalues, hp)
        c_norm = tg.normalization_constant(enc, filt, 2)
        feats = _features(enc[:40], filt, hp.sigma, c_norm)
        gram = feats @ feats.T  # 120 x 120, prior only
        svals = np.linalg.svd(gram, compute_uv=False)
        assert int((svals > 1e-10 * svals.max()).sum()) <= k


class TestFitPredict:
    def test_zero_targets_zero_mean(self, small_torus):
        spec = tg.eigendecompose(small_torus.con, 20)
        model = tg.fit(np.arange(30), np.zeros((30, 3)), spec, small_torus.frames,
                       tg.MaternHyperparams())
        mean, _ = tg.predict(model, np.arange(60))
        assert np.abs(mean).max() <= 1e-12

    def test_refit_deterministic(self, small_torus, torus_truth):
        spec = tg.eigendecompose(small_torus.con, 20)
        rng = np.random.default_rng(3)
        nodes = np.arange(0, 60, 2)
        y = rng.standard_normal((30, 3))
        m1 = tg.fit(nodes, y, spec, small_torus.frames, tg.MaternHyperparams())
        m2 = tg.fit(nodes, y, spec, small_torus.frames, tg.MaternHyperparams())
        p1, c1 = tg.predict(m1, np.arange(60))
        p2, c2 = tg.predict(m2, np.arange(60))
        assert np.array_equal(p1, p2) and np.array_equal(c1, c2)

    def test_full_rank_interpolation(self, small_torus):
        # 60-node, m=2 fixture with the full spectrum and near-zero noise;
        # tangent targets lie in the kernel's range, so k = nm interpolates
        con = small_torus.con
        spec = tg.eigendecompose(con, con.size)  # k = nm = 120
        rng = np.random.default_rng(5)
        truth = small_torus.frames.to_ambient(rng.standard_normal((60, 2)))
        nodes = np.arange(60)
        hp = tg.MaternHyperparams(sigma=1.0, kappa=1.0, nu=1.5, sigma_n=1e-8)
        model = tg.fit(nodes, truth, spec, small_torus.frames, hp)
        mean, _ = tg.predict(model, nodes)
        rel = np.linalg.norm(mean - truth) / np.linalg.norm(truth)
        assert rel <= 1e-4
        # oracle: direct dense solve of the same linear system
        feats = _features(model.encodings[nodes], model.filter_values,
                          hp.sigma, model.c_norm)
        gram = feats @ feats.T + (hp.sigma_n**2 + model.jitter) * np.eye(180)
        oracle = (feats @ feats.T) @ np.linalg.solve(gram, truth.reshape(-1))
        assert np.allclose(mean.reshape(-1), oracle, atol=1e-8)

    def test_posterior_covariance_psd(self, small_torus):
        spec = tg.eigendecompose(small_torus.con, 20)
        rng = np.random.default_rng(4)
        model = tg.fit(np.arange(0, 60, 3), rng.standard_normal((20, 3)), spec,
                       small_torus.frames, tg.MaternHyperparams())
        _, covs = tg.predict(model, np.arange(60))
        for cov in covs:
            assert np.array_equal(cov, cov.T)
            vals = np.linalg.eigvalsh(cov)
            assert vals.min() >= -1e-8 * max(vals.max(), 1e-30)

    def test_empty_query_gives_empty_arrays(self, small_torus):
        spec = tg.eigendecompose(small_torus.con, 10)
        train, y, hp = np.arange(30), np.zeros((30, 3)), tg.MaternHyperparams()
        model = tg.fit(train, y, spec, small_torus.frames, hp)
        off_graph, frames = tg.extend_encodings(np.empty((0, 3)), small_torus.cloud,
                                                small_torus.graph, small_torus.frames, spec)
        assert off_graph.shape == (0, 3, spec.k) and frames.frames.shape == (0, 3, 2)
        for mean, covs in (tg.predict(model, []),
                           tg.predict_at_encodings(model, np.empty((0, 3, spec.k))),
                           tg.predict_at_encodings(model, off_graph),
                           tg.inducing_point_predict(train, y, train[:5], spec,
                                                     small_torus.frames, hp, [])):
            assert mean.shape == (0, 3) and covs.shape == (0, 3, 3)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(fields=st.integers(1, 4), n_train=st.integers(1, 25) | st.integers(26, 400),
           k=st.sampled_from([10, 20, 50]), seed=st.integers(0, 2**32 - 1))
    def test_fields_of_one_training_set_fit_as_one(self, torus, torus_spectrum, fields,
                                                   n_train, k, seed):
        # T fields share Q, the factor of M and the covariances: each field's
        # mean is its single-field mean to rounding, and the LML is the sum
        spec = truncate(torus_spectrum, k)
        rng = np.random.default_rng(seed)
        train = rng.choice(400, n_train, replace=False)
        targets = rng.standard_normal((fields, n_train, 3))
        hp = tg.MaternHyperparams(sigma=math.exp(rng.uniform(-1, 1)),
                                  kappa=math.exp(rng.uniform(-1, 1.5)), nu=1.5,
                                  sigma_n=10 ** rng.uniform(-3, 0))
        batch = tg.fit(train, targets, spec, torus.frames, hp)
        assert batch.alpha.shape == (spec.k, fields)
        means, covs = tg.predict(batch, np.arange(400))
        assert means.shape == (fields, 400, 3) and covs.shape == (400, 3, 3)
        total = 0.0
        for field, mean in zip(targets, means):
            single = tg.fit(train, field, spec, torus.frames, hp)
            single_mean, single_covs = tg.predict(single, np.arange(400))
            assert np.abs(mean - single_mean).max() <= 1e-13 * np.abs(single_mean).max()
            assert np.array_equal(covs, single_covs)
            total += tg.log_marginal_likelihood(single)
        assert tg.log_marginal_likelihood(batch) == pytest.approx(total, rel=1e-13)

    def test_variance_grows_away_from_training(self):
        # oracle: dense GP formulas on a 8-node path graph
        graph = tg.ProximityGraph(n=8, edges=[[i, i + 1] for i in range(7)],
                                  weights=np.ones(7))
        lap = tg.assemble_graph_laplacian(graph)
        spec = tg.eigendecompose(lap, 8)
        frames = scalar_frames(8)
        hp = tg.MaternHyperparams(sigma=1.0, kappa=1.0, nu=1.5, sigma_n=0.1)
        model = tg.fit(np.array([0]), np.array([[1.0]]), spec, frames, hp)
        _, covs = tg.predict(model, np.arange(8))
        variances = covs[:, 0, 0]

        enc = tg.positional_encodings(spec, frames)
        filt = model.filter_values
        kmat = np.array([[tg.kernel_block(enc[p], enc[q], filt, hp.sigma,
                                          model.c_norm)[0, 0]
                          for q in range(8)] for p in range(8)])
        oracle = np.array([kmat[p, p] - kmat[p, 0]**2 / (kmat[0, 0] + hp.sigma_n**2
                                                         + model.jitter)
                           for p in range(8)])
        assert np.allclose(variances, oracle, atol=1e-10)
        assert variances[0] < variances[7]

    def test_duplicate_training_nodes_rejected(self, small_torus):
        spec = tg.eigendecompose(small_torus.con, 10)
        with pytest.raises(ValueError, match="distinct"):
            tg.fit(np.array([1, 1, 2]), np.zeros((3, 3)), spec,
                   small_torus.frames, tg.MaternHyperparams())

    def test_nonfinite_targets_rejected(self, small_torus):
        spec = tg.eigendecompose(small_torus.con, 10)
        bad = np.zeros((2, 3))
        bad[0, 0] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            tg.fit(np.array([0, 1]), bad, spec, small_torus.frames,
                   tg.MaternHyperparams())


class TestLogMarginalLikelihood:
    def test_iid_unit_noise_case(self, small_torus):
        # sigma -> 0 makes the kernel vanish: lml equals the sum of
        # standard-normal log densities of the observations
        spec = tg.eigendecompose(small_torus.con, 10)
        rng = np.random.default_rng(5)
        y = rng.standard_normal((12, 3))
        hp = tg.MaternHyperparams(sigma=1e-12, kappa=1.0, nu=1.5, sigma_n=1.0)
        model = tg.fit(np.arange(12), y, spec, small_torus.frames, hp)
        lml = tg.log_marginal_likelihood(model)
        oracle = norm.logpdf(y.reshape(-1)).sum()
        assert lml == pytest.approx(oracle, rel=1e-9)

    def test_matches_dense_formula(self):
        rng = np.random.default_rng(6)
        pts = rng.standard_normal((4, 3))
        setup = build_setup(pts, None, k_neighbors=2)
        spec = tg.eigendecompose(setup.con, 5)
        y = rng.standard_normal((4, 3))
        hp = tg.MaternHyperparams(sigma=0.9, kappa=1.5, nu=1.5, sigma_n=0.2)
        model = tg.fit(np.arange(4), y, spec, setup.frames, hp)
        lml = tg.log_marginal_likelihood(model)
        # oracle: dense formula with numpy solves
        feats = _features(model.encodings, model.filter_values, hp.sigma,
                          model.c_norm)
        kmat = feats @ feats.T + (hp.sigma_n**2 + model.jitter) * np.eye(12)
        yf = y.reshape(-1)
        oracle = (-0.5 * yf @ np.linalg.solve(kmat, yf)
                  - 0.5 * np.linalg.slogdet(kmat)[1]
                  - 6 * math.log(2 * math.pi))
        assert lml == pytest.approx(oracle, rel=1e-8)

    def test_peaks_near_generating_noise(self, small_torus):
        spec = tg.eigendecompose(small_torus.con, 40)
        enc = tg.positional_encodings(spec, small_torus.frames)
        true_noise = 0.1
        hp0 = tg.MaternHyperparams(sigma=1.0, kappa=1.0, nu=1.5, sigma_n=true_noise)
        filt = tg.spectral_filter(spec.eigenvalues, hp0)
        c_norm = tg.normalization_constant(enc, filt, 2)
        feats = _features(enc, filt, hp0.sigma, c_norm)
        rng = np.random.default_rng(7)
        y = (feats @ rng.standard_normal(40)
             + true_noise * rng.standard_normal(180)).reshape(60, 3)
        grid = [0.01, 0.0316, 0.1, 0.316, 1.0]
        scores = []
        for sn in grid:
            hp = tg.MaternHyperparams(sigma=1.0, kappa=1.0, nu=1.5, sigma_n=sn)
            model = tg.fit(np.arange(60), y, spec, small_torus.frames, hp)
            scores.append(tg.log_marginal_likelihood(model))
        assert grid[int(np.argmax(scores))] == true_noise


def _dense_posterior(model, train, query):
    """Oracle: Gram-space mean, d x d covariance blocks and LML with the
    model's noise variance sigma_n^2 + jitter."""
    d = model.dim
    a_f = _features(model.encodings[train], model.filter_values,
                    model.hyperparams.sigma, model.c_norm)
    a_q = _features(model.encodings[query], model.filter_values,
                    model.hyperparams.sigma, model.c_norm)
    y = model.targets.reshape(-1)
    noise = model.hyperparams.sigma_n**2 + model.jitter
    gram = a_f @ a_f.T + noise * np.eye(y.shape[0])
    k_star = a_q @ a_f.T
    mean = (k_star @ np.linalg.solve(gram, y)).reshape(-1, d)
    cov = a_q @ a_q.T - k_star @ np.linalg.solve(gram, k_star.T)
    blocks = np.array([cov[a * d:(a + 1) * d, a * d:(a + 1) * d]
                       for a in range(len(query))])
    lml = (-0.5 * y @ np.linalg.solve(gram, y) - 0.5 * np.linalg.slogdet(gram)[1]
           - 0.5 * y.shape[0] * math.log(2 * math.pi))
    return mean, blocks, lml


class TestWeightSpaceCore:
    def test_zero_noise_keeps_dense_jitter(self, torus, torus_spectrum, torus_truth):
        # the jitter rule of the dense Gram path: 1e-10 x mean prior variance,
        # also when N*d = 15 < k = 20
        spec = truncate(torus_spectrum, 20)
        enc = tg.positional_encodings(spec, torus.frames)
        truth = torus_truth.field.ambient()
        query = np.arange(0, 400, 9)
        for train in (np.arange(0, 400, 8), np.arange(0, 400, 80)):
            hp = tg.MaternHyperparams(sigma=1.0, kappa=2.0, nu=1.5, sigma_n=0.0)
            model = tg.fit(train, truth[train], spec, torus.frames, hp)
            _, _, dense_jitter = tg.assemble_gram(enc[train], model.filter_values,
                                                  hp.sigma, 0.0, model.c_norm)
            assert dense_jitter > 0
            assert model.jitter == pytest.approx(dense_jitter, rel=1e-12)

            mean, covs = tg.predict(model, query)
            oracle_mean, oracle_covs, oracle_lml = _dense_posterior(model, train, query)
            assert np.abs(mean - oracle_mean).max() <= 1e-5 * np.abs(oracle_mean).max()
            assert np.abs(covs - oracle_covs).max() <= 1e-5 * np.abs(oracle_covs).max()
            assert tg.log_marginal_likelihood(model) == pytest.approx(oracle_lml,
                                                                      rel=1e-6)

            noisy = tg.fit(train, truth[train], spec, torus.frames,
                           tg.MaternHyperparams(sigma=1.0, kappa=2.0, nu=1.5,
                                                sigma_n=1e-3))
            assert noisy.jitter == 0.0

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(k=st.sampled_from([10, 20, 50]),
           theta=st.tuples(*(st.floats(lo, hi) for lo, hi in SearchConfig().bounds)),
           n_train=st.integers(1, 25) | st.integers(26, 175),
           subset_seed=st.integers(0, 2**32 - 1))
    def test_matches_independent_references_over_search_box(
            self, torus, torus_spectrum, torus_scalar_spectrum, torus_truth, k,
            theta, n_train, subset_seed):
        # from one node up: below k/m nodes the features A have rank below k
        spec = truncate(torus_spectrum, k)
        rng = np.random.default_rng(subset_seed)
        train = rng.choice(400, n_train, replace=False)
        query = rng.choice(400, 30, replace=False)
        hp = tg.MaternHyperparams(sigma=math.exp(theta[0]), kappa=math.exp(theta[1]),
                                  nu=1.5, sigma_n=math.exp(theta[2]))
        truth = torus_truth.field.ambient()
        model = tg.fit(train, truth[train], spec, torus.frames, hp)
        assert model.jitter == 0.0

        feats = _features(model.encodings[train], model.filter_values, hp.sigma,
                          model.c_norm)
        reference = svd_lml(feats, truth[train].reshape(-1),
                            hp.sigma_n**2 + model.jitter)
        assert tg.log_marginal_likelihood(model) == pytest.approx(reference, rel=1e-10)
        # the search objective is the same computation as fit + LML
        objective = search_objective(train, truth[train], spec, torus.frames, nu=1.5)
        assert objective(np.array(theta)) == tg.log_marginal_likelihood(model)

        # the channel-wise baseline: m = 1, three scalar fields sharing Q
        scalar = truncate(torus_scalar_spectrum, k)
        scalar_train = rng.choice(400, n_train, replace=False)
        enc = tg.positional_encodings(scalar, scalar_frames(400))
        hp_inf = tg.MaternHyperparams(sigma=hp.sigma, kappa=hp.kappa, nu=math.inf,
                                      sigma_n=hp.sigma_n)
        filt = tg.spectral_filter(scalar.eigenvalues, hp_inf)
        feats = _features(enc[scalar_train], filt, hp.sigma,
                          tg.normalization_constant(enc, filt, 1))
        columns = truth[scalar_train]
        reference = sum(svd_lml(feats, columns[:, c], hp.sigma_n**2) for c in range(3))
        value = search_objective(scalar_train, columns.T[:, :, None], scalar,
                                 scalar_frames(400), nu=math.inf)(np.array(theta))
        assert value == pytest.approx(reference, rel=1e-10)
        per_column = sum(tg.log_marginal_likelihood(
            tg.fit(scalar_train, columns[:, [c]], scalar, scalar_frames(400), hp_inf))
            for c in range(3))
        assert value == pytest.approx(per_column, rel=1e-12)

        if hp.sigma_n < 1e-2:
            return
        _, _, jitter = tg.assemble_gram(model.encodings[train], model.filter_values,
                                        hp.sigma, hp.sigma_n, model.c_norm)
        if jitter:
            return
        oracle_mean, oracle_covs, _ = _dense_posterior(model, train, query)
        mean, covs = tg.predict(model, query)
        # the dense oracle loses digits as (sigma / sigma_n)^2 grows
        assert np.abs(mean - oracle_mean).max() <= 1e-5 * np.abs(truth).max()
        assert np.abs(covs - oracle_covs).max() <= 1e-10 * hp.sigma**2


class TestFitHyperparameters:
    def test_recovers_kappa_within_factor_two(self):
        # generative recovery: sample from the prior at known hyperparameters
        pts, _ = tio.generate_torus(2.0, 0.8, 20, 10)
        setup = build_setup(pts, None)
        spec = tg.eigendecompose(setup.con, 100)
        enc = tg.positional_encodings(spec, setup.frames)
        true = tg.MaternHyperparams(sigma=1.0, kappa=2.0, nu=1.5, sigma_n=0.05)
        filt = tg.spectral_filter(spec.eigenvalues, true)
        c_norm = tg.normalization_constant(enc, filt, 2)
        feats = _features(enc, filt, true.sigma, c_norm)
        rng = np.random.default_rng(42)
        y = (feats @ rng.standard_normal(100)
             + true.sigma_n * rng.standard_normal(600)).reshape(200, 3)
        hp = tg.fit_hyperparameters(np.arange(200), y, spec, setup.frames,
                                    nu=1.5, seed=0)
        assert true.kappa / 2 <= hp.kappa <= true.kappa * 2

    def test_bounds_respected_and_dominates_starts(self, small_torus):
        spec = tg.eigendecompose(small_torus.con, 15)
        rng = np.random.default_rng(8)
        y = rng.standard_normal((60, 3)) * 0.5
        search = SearchConfig(n_starts=3, n_sweeps=3, grid_points=5)
        hp = tg.fit_hyperparameters(np.arange(60), y, spec, small_torus.frames,
                                    nu=1.5, search=search, seed=9)
        for value, bounds in ((hp.sigma, search.log_sigma_bounds),
                              (hp.kappa, search.log_kappa_bounds),
                              (hp.sigma_n, search.log_sigma_n_bounds)):
            assert bounds[0] - 1e-12 <= math.log(value) <= bounds[1] + 1e-12

        def lml_at(theta):
            hp_t = tg.MaternHyperparams(sigma=math.exp(theta[0]),
                                        kappa=math.exp(theta[1]), nu=1.5,
                                        sigma_n=math.exp(theta[2]))
            model = tg.fit(np.arange(60), y, spec, small_torus.frames, hp_t)
            return tg.log_marginal_likelihood(model)

        # the returned point dominates every grid initialization by construction
        lows = np.array([b[0] for b in search.bounds])
        highs = np.array([b[1] for b in search.bounds])
        sr = np.random.default_rng(9)
        starts = [np.clip((lows + highs) / 2, lows, highs)]
        for _ in range(search.n_starts - 1):
            starts.append(lows + (highs - lows) * sr.uniform(size=3))
        best = lml_at(np.log([hp.sigma, hp.kappa, hp.sigma_n]))
        for theta0 in starts:
            assert best >= lml_at(theta0) - 1e-9

    def test_search_never_repeats_a_point(self, torus, torus_spectrum, torus_truth,
                                          monkeypatch):
        # the paper fixture's search: every theta is evaluated once, and the
        # result is the best of those evaluations
        spec = truncate(torus_spectrum, 25)
        truth = torus_truth.field.ambient()
        train = np.random.default_rng(11).permutation(400)[:200]
        seen, values = [], []
        search = gp.coordinate_search

        def recording_search(objective, *args, **kwargs):
            def recorded(theta):
                seen.append(tuple(theta.tolist()))
                values.append(objective(theta))
                return values[-1]
            return search(recorded, *args, **kwargs)

        monkeypatch.setattr(gp, "coordinate_search", recording_search)
        hp = tg.fit_hyperparameters(train, truth[train], spec, torus.frames, seed=11)
        assert len(seen) > 100
        assert len(set(seen)) == len(seen)
        best = seen[int(np.argmax(values))]
        assert (hp.sigma, hp.kappa, hp.sigma_n) == tuple(math.exp(v) for v in best)

    def test_searches_build_no_model(self, torus, torus_spectrum, torus_scalar_spectrum,
                                     torus_truth, monkeypatch):
        # each evaluation is one k x k posterior: neither search builds a
        # VectorFieldGP per theta, while fit builds its one
        spy = mock.Mock(wraps=gp.VectorFieldGP)
        monkeypatch.setattr(gp, "VectorFieldGP", spy)
        truth = torus_truth.field.ambient()
        train = np.arange(0, 400, 4)
        search = SearchConfig(n_starts=2, n_sweeps=2, grid_points=4)
        spec = truncate(torus_spectrum, 10)
        hp = tg.fit_hyperparameters(train, truth[train], spec, torus.frames, search=search)
        tfields.fit_baseline_hyperparameters(truncate(torus_scalar_spectrum, 10), train,
                                             truth[train], search=search)
        assert spy.call_count == 0
        tg.fit(train, truth[train], spec, torus.frames, hp)
        assert spy.call_count == 1

    def test_invalid_training_inputs_rejected(self, small_torus):
        # the errors fit raises; a negative node must not wrap to node n - 1
        spec = tg.eigendecompose(small_torus.con, 10)

        def search(nodes, y):
            return tg.fit_hyperparameters(nodes, y, spec, small_torus.frames,
                                          search=SearchConfig(n_starts=1, n_sweeps=1))

        with pytest.raises(IndexError, match="training node out of range"):
            search(np.array([0, -1]), np.zeros((2, 3)))
        with pytest.raises(IndexError, match="training node out of range"):
            search(np.array([0, 60]), np.zeros((2, 3)))
        with pytest.raises(ValueError, match="distinct"):
            search(np.array([1, 1, 2]), np.zeros((3, 3)))
        with pytest.raises(ValueError, match="targets must have shape"):
            search(np.arange(10), np.zeros((10, 2)))
        with pytest.raises(ValueError, match="NaN"):
            search(np.arange(2), np.array([[np.nan, 0.0, 0.0], [0.0, 0.0, 0.0]]))

    def test_all_invalid_objective_raises(self):
        search = SearchConfig(n_starts=2, n_sweeps=1, grid_points=3)
        with pytest.raises(ValueError, match="NaN/inf everywhere"):
            coordinate_search(lambda theta: -np.inf, search, seed=0)
        with pytest.raises(ValueError, match="NaN/inf everywhere"):
            coordinate_search(lambda theta: math.nan, search, seed=0)

    def test_first_of_the_highest_values_wins_and_nan_never(self):
        # ties on whole numbers, and NaN on half of the box
        search = SearchConfig(n_starts=3, n_sweeps=3, grid_points=5)
        evaluated = []

        def objective(theta):
            value = math.nan if theta[0] > 0 else float(np.round(-abs(theta[1])))
            evaluated.append((tuple(theta.tolist()), value))
            return value

        best = coordinate_search(objective, search, seed=1)
        finite = [(theta, v) for theta, v in evaluated if not math.isnan(v)]
        top = max(v for _, v in finite)
        assert tuple(best.tolist()) == next(theta for theta, v in finite if v == top)
        assert sum(v == top for _, v in finite) > 1


class TestInducingPoints:
    def test_full_inducing_set_matches_exact(self, small_torus, torus_truth):
        # the exact posterior is DTC with the training set as the inducing
        # set, bit for bit; 30 nodes span all k = 30 feature directions, 5 do not
        spec = tg.eigendecompose(small_torus.con, 30)
        rng = np.random.default_rng(10)
        hp = tg.MaternHyperparams(sigma=1.0, kappa=1.5, nu=1.5, sigma_n=0.05)
        for train, rank_deficient in ((np.arange(0, 60, 2), False),
                                      (np.arange(0, 60, 12), True)):
            y = rng.standard_normal((len(train), 3))
            model = tg.fit(train, y, spec, small_torus.frames, hp)
            assert (model.basis is not None) == rank_deficient
            exact_mean, exact_covs = tg.predict(model, np.arange(60))
            dtc_mean, dtc_covs = tg.inducing_point_predict(train, y, train, spec,
                                                           small_torus.frames, hp,
                                                           np.arange(60))
            assert np.array_equal(dtc_mean, exact_mean)
            assert np.array_equal(dtc_covs, exact_covs)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(k=st.sampled_from([10, 20, 50]),
           theta=st.tuples(*(st.floats(lo, hi) for lo, hi in SearchConfig().bounds)),
           n_train=st.integers(30, 300), share=st.floats(0.0, 1.0),
           seed=st.integers(0, 2**32 - 1))
    def test_full_rank_inducing_sets_equal_the_exact_fit(
            self, torus, torus_spectrum, torus_truth, k, theta, n_train, share, seed):
        # at least k/m inducing training nodes whose features have full
        # column rank: W = I for DTC as for the exact fit
        spec = truncate(torus_spectrum, k)
        rng = np.random.default_rng(seed)
        train = rng.choice(400, n_train, replace=False)
        fewest = -(-spec.k // spec.m)
        inducing = rng.choice(train, fewest + round(share * (n_train - fewest)),
                              replace=False)
        query = rng.choice(400, 40, replace=False)
        hp = tg.MaternHyperparams(sigma=math.exp(theta[0]), kappa=math.exp(theta[1]),
                                  nu=1.5, sigma_n=math.exp(theta[2]))
        truth = torus_truth.field.ambient()
        assume(tg.fit(inducing, truth[inducing], spec, torus.frames, hp).basis is None)
        exact_mean, exact_covs = tg.predict(
            tg.fit(train, truth[train], spec, torus.frames, hp), query)
        dtc_mean, dtc_covs = tg.inducing_point_predict(train, truth[train], inducing,
                                                       spec, torus.frames, hp, query)
        assert np.array_equal(dtc_mean, exact_mean)
        assert np.array_equal(dtc_covs, exact_covs)

    def test_fewer_than_k_over_m_inducing_nodes_change_the_posterior(
            self, torus, torus_spectrum, torus_truth):
        # 4 nodes span at most 8 of the k = 10 feature directions
        spec = truncate(torus_spectrum, 10)
        perm = np.random.default_rng(14).permutation(400)
        train, test = perm[:200], perm[200:]
        truth = torus_truth.field.ambient()
        hp = tg.MaternHyperparams(sigma=1.0, kappa=1.0, nu=1.5, sigma_n=0.01)
        exact_mean, _ = tg.predict(tg.fit(train, truth[train], spec, torus.frames, hp),
                                   test)
        dtc_mean, _ = tg.inducing_point_predict(train, truth[train], train[:4], spec,
                                                torus.frames, hp, test)
        exact_err, dtc_err = (tfields.angular_error(mean, truth[test]).value
                              for mean in (exact_mean, dtc_mean))
        assert dtc_err > 10 * exact_err

    def test_half_inducing_alignment_close(self, torus, torus_spectrum, torus_truth):
        spec = truncate(torus_spectrum, 50)
        truth = torus_truth.field.ambient()
        rng = np.random.default_rng(11)
        perm = rng.permutation(400)
        train, test = perm[:300], perm[300:]
        hp = tg.MaternHyperparams(sigma=1.0, kappa=2.0, nu=1.5, sigma_n=1e-3)
        model = tg.fit(train, truth[train], spec, torus.frames, hp)
        exact_mean, _ = tg.predict(model, test)
        exact_align = tfields.alignment_score(exact_mean, truth[test]).value

        sel, _ = tg.furthest_point_sample(torus.cloud.points[train], 150)
        dtc_mean, _ = tg.inducing_point_predict(train, truth[train], train[sel],
                                                spec, torus.frames, hp, test)
        dtc_align = tfields.alignment_score(dtc_mean, truth[test]).value
        assert abs(exact_align - dtc_align) <= 0.05

    def test_cost_scales_linearly_in_training_size(self, torus, torus_spectrum,
                                                   monkeypatch):
        # the work of every dense factorisation DTC runs, counted as
        # m * n * min(m, n) flops per m x n matrix: deterministic, unlike
        # wall time, and an (N*d)^2 Gram would grow it 8x per doubling
        spec = truncate(torus_spectrum, 20)
        hp = tg.MaternHyperparams(sigma=1.0, kappa=2.0, nu=1.5, sigma_n=1e-2)
        rng = np.random.default_rng(12)
        inducing = np.arange(0, 400, 10)  # fixed 40 inducing nodes
        query = np.arange(0, 400, 7)
        flops = []
        for name in ("qr", "svd", "cholesky"):
            def counted(a, *args, _factorise=getattr(np.linalg, name), **kwargs):
                a = np.asarray(a)
                flops.append(a.size * min(a.shape[-2:]))
                return _factorise(a, *args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)

        def work_for(n_train):
            train = np.arange(n_train)
            y = rng.standard_normal((n_train, 3))
            flops.clear()
            tg.inducing_point_predict(train, y, inducing, spec, torus.frames,
                                      hp, query)
            return sum(flops)

        w_small, w_large = work_for(150), work_for(300)
        assert w_small >= 150 * 3 * 20**2  # the thin QR of the training rows
        # linear scaling predicts 2x; allow a factor-of-2 tolerance
        assert w_large / w_small <= 4.0

    def test_rank_deficient_inducing_sets_match_dense_oracle(self, torus,
                                                             torus_spectrum):
        # 1-10 inducing nodes span at most 2-20 of the k = 50 feature
        # directions, so K_uu is singular: DTC must equal its pseudo-inverse
        # form, and so must the exact fit on the inducing nodes alone (the
        # oracle with the training set as the inducing set)
        spec = truncate(torus_spectrum, 50)
        rng = np.random.default_rng(13)
        perm = rng.permutation(400)
        train, query = perm[:60], perm[60:100]
        y = rng.standard_normal((60, 3))
        hp = tg.MaternHyperparams(sigma=1.0, kappa=2.0, nu=1.5, sigma_n=0.05)
        model = tg.fit(train, y, spec, torus.frames, hp)
        for count in (1, 2, 5, 10):
            inducing = perm[100:100 + count]
            exact = tg.fit(inducing, y[:count], spec, torus.frames, hp)
            for nodes, targets, (mean, covs) in (
                    (train, y, tg.inducing_point_predict(train, y, inducing, spec,
                                                         torus.frames, hp, query)),
                    (inducing, y[:count], tg.predict(exact, query))):
                a_u, a_f, a_q = (model.features(model.encodings[n])
                                 for n in (inducing, nodes, query))
                oracle_mean, oracle_cov = dtc_oracle(a_u, a_f, a_q,
                                                     targets.reshape(-1), hp.sigma_n**2)
                blocks = np.stack([oracle_cov[3 * i:3 * i + 3, 3 * i:3 * i + 3]
                                   for i in range(len(query))])
                # the oracle's mean solves a system of condition ~1e4 and is good
                # to ~2e-12, its covariances to ~2e-15; a jittered K_uu misses
                # by 6e-11
                assert np.abs(mean.reshape(-1) - oracle_mean).max() <= \
                    1e-10 * np.abs(oracle_mean).max()
                assert np.abs(covs - blocks).max() <= 1e-12 * np.abs(blocks).max()

    def test_zero_noise_matches_exact_fit(self, small_torus, monkeypatch):
        # sigma_n = 0 takes the jitter rule of fit: DTC through the training
        # set conditions with the same jitter and equals predict(fit(...))
        spec = tg.eigendecompose(small_torus.con, 10)
        hp = tg.MaternHyperparams(sigma_n=0.0)
        train = np.arange(0, 60, 3)
        y = np.random.default_rng(12).standard_normal((len(train), 3))
        model = tg.fit(train, y, spec, small_torus.frames, hp)
        assert model.jitter > 0.0
        exact_mean, exact_covs = tg.predict(model, np.arange(60))
        conditioned = []
        predict = gp.predict

        def recording_predict(dtc_model, nodes):
            conditioned.append(dtc_model)
            return predict(dtc_model, nodes)

        monkeypatch.setattr(gp, "predict", recording_predict)
        dtc_mean, dtc_covs = tg.inducing_point_predict(train, y, train, spec,
                                                       small_torus.frames, hp,
                                                       np.arange(60))
        assert [m.jitter for m in conditioned] == [model.jitter]
        assert np.array_equal(dtc_mean, exact_mean)
        assert np.array_equal(dtc_covs, exact_covs)

    def test_invalid_nodes_rejected(self, small_torus):
        # the errors fit and predict raise; negative nodes must not wrap around
        spec = tg.eigendecompose(small_torus.con, 10)
        hp = tg.MaternHyperparams(sigma_n=0.05)
        train, y = np.arange(10), np.zeros((10, 3))

        def dtc(train=train, y=y, inducing=np.arange(5), query=np.arange(10)):
            return tg.inducing_point_predict(train, y, inducing, spec,
                                             small_torus.frames, hp, query)

        with pytest.raises(IndexError, match="query node out of range"):
            dtc(query=np.array([0, -1]))
        with pytest.raises(IndexError, match="inducing node out of range"):
            dtc(inducing=np.array([-1, 3]))
        with pytest.raises(IndexError, match="inducing node out of range"):
            dtc(inducing=np.array([60]))
        with pytest.raises(IndexError, match="training node out of range"):
            dtc(train=np.array([-1, 2]), y=np.zeros((2, 3)))
        with pytest.raises(ValueError, match="distinct"):
            dtc(train=np.array([1, 1, 2]), y=np.zeros((3, 3)))
        with pytest.raises(ValueError, match="targets must have shape"):
            dtc(y=np.zeros((10, 2)))


class TestInvariance:
    """The posterior depends on the eigenspaces kept, not on the basis the
    eigensolver picks inside an eigenvalue cluster, nor on the frame gauge.
    Both properties need k at a cluster end, where ``truncate`` rounds it:
    the fixture's clusters end at 2, 6, 10, 12, 14, 18, 22, 26, 30, ..., 58,
    so k = 25 keeps 26."""

    HP = tg.MaternHyperparams(sigma=1.0, kappa=2.0, nu=1.5, sigma_n=1e-2)

    @staticmethod
    def _assert_same_posterior(a, b, train, truth, frames_a, frames_b):
        query = np.arange(400)
        model_a = tg.fit(train, truth[train], a, frames_a, TestInvariance.HP)
        model_b = tg.fit(train, truth[train], b, frames_b, TestInvariance.HP)
        mean_a, covs_a = tg.predict(model_a, query)
        mean_b, covs_b = tg.predict(model_b, query)
        assert np.abs(mean_a - mean_b).max() <= 1e-12 * np.abs(truth).max()
        assert np.abs(covs_a - covs_b).max() <= 1e-12 * np.abs(covs_a).max()
        assert tg.log_marginal_likelihood(model_a) == pytest.approx(
            tg.log_marginal_likelihood(model_b), rel=1e-12)

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(k=st.integers(1, 60),
           n_train=st.integers(1, 25) | st.integers(26, 200),
           seed=st.integers(0, 2**32 - 1))
    def test_cluster_rotation_invariance(self, torus, torus_spectrum, torus_truth,
                                         k, n_train, seed):
        spec = truncate(torus_spectrum, k)
        assert spec.k >= k and not spec.splits_degenerate_cluster()
        rng = np.random.default_rng(seed)
        clusters = np.split(np.arange(spec.k),
                            np.flatnonzero(np.diff(spec.eigenvalues) > 1e-8) + 1)
        rotation = block_diag(*(ortho_group.rvs(len(c), random_state=rng)
                                for c in clusters))
        rotated = replace(spec, eigenvectors=spec.eigenvectors @ rotation)
        train = rng.choice(400, n_train, replace=False)
        self._assert_same_posterior(spec, rotated, train, torus_truth.field.ambient(),
                                    torus.frames, torus.frames)

    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(k=st.sampled_from([22, 30, 50]),
           n_train=st.integers(1, 25) | st.integers(26, 200),
           seed=st.integers(0, 2**32 - 1))
    def test_gauge_covariance(self, torus, torus_spectrum, torus_truth, k, n_train,
                              seed):
        # per-node O(2) frame changes, reflections included, pass through the
        # transports, L_c, its spectrum and the fit
        rng = np.random.default_rng(seed)
        gauge = ortho_group.rvs(2, size=400, random_state=rng)
        assert (np.linalg.det(gauge) < 0).any() and (np.linalg.det(gauge) > 0).any()
        frames = tg.GaugeFrames(np.einsum("ndm,nmk->ndk", torus.frames.frames, gauge))
        con = tg.assemble_connection_laplacian(torus.graph, frames,
                                               tg.compute_transports(torus.graph, frames))
        spec = truncate(tg.eigendecompose(con, 60), k)
        assert not spec.splits_degenerate_cluster()
        train = rng.choice(400, n_train, replace=False)
        self._assert_same_posterior(truncate(torus_spectrum, k), spec, train,
                                    torus_truth.field.ambient(), torus.frames, frames)


@st.composite
def weighted_graphs(draw):
    """A random spanning path plus random extra edges, with random positive
    weights, and a generator for the rest of the example."""
    n = draw(st.integers(4, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    order = rng.permutation(n)
    pairs = np.concatenate([np.stack([order[:-1], order[1:]], axis=1),
                            rng.integers(0, n, (draw(st.integers(0, 3 * n)), 2))])
    edges = np.unique(np.sort(pairs[pairs[:, 0] != pairs[:, 1]], axis=1), axis=0)
    return tg.ProximityGraph(n, edges, rng.uniform(0.1, 2.0, len(edges))), rng


class TestReductions:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(case=weighted_graphs())
    def test_scalar_frames_reduce_to_the_graph_gp(self, case):
        # m = 1: L_c is the graph Laplacian, and the vector GP on one channel
        # is that channel of the channel-wise baseline at nu = inf
        graph, rng = case
        n = graph.n
        frames = scalar_frames(n)
        con = tg.assemble_connection_laplacian(graph, frames,
                                               tg.compute_transports(graph, frames))
        lap = tg.assemble_graph_laplacian(graph)
        assert np.array_equal(con.matrix.toarray(), lap.matrix.toarray())
        k = int(rng.integers(1, n + 1))
        train = rng.choice(n, int(rng.integers(1, n + 1)), replace=False)
        y = rng.standard_normal((len(train), 3))
        hp = tg.MaternHyperparams(sigma=rng.uniform(0.5, 2.0), kappa=rng.uniform(0.5, 3.0),
                                  nu=math.inf, sigma_n=10 ** rng.uniform(-3, 0))
        base = tfields.baseline_scalar_rbf_predict(tg.eigendecompose(lap, k), train, y,
                                                   np.arange(n), hp)
        spec = tg.eigendecompose(con, k)
        for c in range(3):
            mean, _ = tg.predict(tg.fit(train, y[:, [c]], spec, frames, hp), np.arange(n))
            assert np.abs(mean[:, 0] - base[:, c]).max() <= 1e-9 * np.abs(y).max()

    @settings(max_examples=4, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_node_relabelling_permutes_everything(self, seed):
        # a jittered mesh has no distance ties, so relabelling its nodes keeps
        # every frame neighbourhood; eigenvalues stay, predictions permute
        rng = np.random.default_rng(seed)
        points, faces = tio.generate_torus(2.0, 0.8, 15, 10)
        points = points + 1e-3 * rng.standard_normal(points.shape)
        perm = rng.permutation(len(points))
        setup, relabelled = build_setup(points, faces), build_setup(points[perm], faces)
        spec, spec_p = (tg.eigendecompose(s.con, 41) for s in (setup, relabelled))
        assert np.allclose(spec_p.eigenvalues, spec.eigenvalues, rtol=0,
                           atol=1e-10 * spec.eigenvalues.max())
        gaps = np.diff(spec.eigenvalues[10:41])
        k = 11 + int(np.argmax(gaps))  # the widest cut from k = 11 to 40
        assert gaps.max() > 1e-2 * spec.eigenvalues[k]
        truth = setup.frames.to_ambient(rng.standard_normal((len(points), 2)))
        train = rng.choice(len(points), 60, replace=False)
        where = np.argsort(perm)  # node i is node where[i] after relabelling
        hp = TestInvariance.HP
        mean, _ = tg.predict(tg.fit(train, truth[train], truncate(spec, k), setup.frames,
                                    hp), np.arange(len(points)))
        mean_p, _ = tg.predict(tg.fit(where[train], truth[train], truncate(spec_p, k),
                                      relabelled.frames, hp), where)
        assert np.abs(mean_p - mean).max() <= 1e-10 * np.abs(truth).max()


def _whole_array_predict(model, query_encodings):
    """Reference: the posterior at every query at once, on (q*d) x k arrays,
    as prediction ran before it was split into blocks of nodes."""
    q, d, k = query_encodings.shape
    feats = model.features(query_encodings)
    inside = feats if model.basis is None else feats @ model.basis
    half = solve_triangular(model.chol, inside.T, lower=True).reshape(-1, q, d)
    covs = model.noise * np.einsum("kqd,kqe->qde", half, half)
    if model.basis is not None:
        outside = (feats - inside @ model.basis.T).reshape(q, d, k)
        covs += np.einsum("qdk,qek->qde", outside, outside)
    return (feats @ model.alpha).reshape(q, d), (covs + covs.transpose(0, 2, 1)) / 2.0


@pytest.fixture(scope="module")
def block_cases():
    """Prediction routes on the 1600-node mesh torus at k = 50, each as
    (predict(nodes), its model, the encodings it reads): fits with W = I and
    with W != I (10 training nodes span 20 of the 50 feature directions),
    DTC through 10 inducing nodes, and encodings from extend_encodings."""
    cloud, graph, frames, con, _ = big_setup()
    spec = tg.eigendecompose(con, 50, seed=0)
    rng = np.random.default_rng(21)
    truth = frames.to_ambient(rng.standard_normal((cloud.n, 2)))
    hp = tg.MaternHyperparams(sigma=1.0, kappa=2.0, nu=1.5, sigma_n=1e-2)
    train, few = rng.choice(cloud.n, 300, replace=False), np.arange(0, cloud.n, 160)
    full_rank = tg.fit(train, truth[train], spec, frames, hp)
    deficient = tg.fit(few, truth[few], spec, frames, hp)
    dtc = gp._condition(full_rank.encodings, spec, hp, train, truth[train], few)
    extended, _ = tg.extend_encodings(cloud.points * 1.001, cloud, graph, frames, spec)
    assert full_rank.basis is None and deficient.basis is not None
    assert dtc.basis is not None
    return {
        "fit, W = I": (lambda nodes: tg.predict(full_rank, nodes), full_rank,
                       full_rank.encodings),
        "fit, W != I": (lambda nodes: tg.predict(deficient, nodes), deficient,
                        deficient.encodings),
        "DTC, W != I": (lambda nodes: tg.inducing_point_predict(
            train, truth[train], few, spec, frames, hp, nodes), dtc, dtc.encodings),
        "extended, W = I": (lambda nodes: tg.predict_at_encodings(full_rank,
                                                                  extended[nodes]),
                            full_rank, extended),
    }


class TestBlockedPrediction:
    B = gp._PREDICT_BLOCK

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(case=st.sampled_from(["fit, W = I", "fit, W != I", "DTC, W != I",
                                 "extended, W = I"]),
           length=st.sampled_from([0, 1, B - 1, B, B + 1, 2 * B + 1, 1600]),
           repeats=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_blocks_equal_the_whole_array_posterior(self, block_cases, case, length,
                                                    repeats, seed):
        # rows are independent given the k x k posterior; with W = I every
        # BLAS call works row by row, so blocks change no bit. With W != I,
        # the product with W rounds a row differently with the number of
        # rows in the call (OpenBLAS dgemm), so the blocked and whole-array
        # covariances differ in the last bit, as two whole-array calls of
        # different lengths do
        predict, model, encodings = block_cases[case]
        nodes = np.random.default_rng(seed).choice(1600, length, replace=repeats)
        mean, covs = predict(nodes)
        assert mean.shape == (length, 3) and covs.shape == (length, 3, 3)
        if not length:
            return
        oracle_mean, oracle_covs = _whole_array_predict(model, encodings[nodes])
        if model.basis is None:
            assert np.array_equal(mean, oracle_mean)
            assert np.array_equal(covs, oracle_covs)
        else:
            for got, want in ((mean, oracle_mean), (covs, oracle_covs)):
                assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


class TestOutOfGraphExtension:
    def test_extension_near_node_matches_node_prediction(self, torus, torus_spectrum,
                                                         torus_truth):
        spec = truncate(torus_spectrum, 20)
        truth = torus_truth.field.ambient()
        hp = tg.MaternHyperparams(sigma=1.0, kappa=1.5, nu=1.5, sigma_n=1e-3)
        model = tg.fit(np.arange(400), truth, spec, torus.frames, hp)
        node = 21
        offset = torus.cloud.points[node] * 1.001  # slightly off-surface
        enc, _ = tg.extend_encodings(offset, torus.cloud, torus.graph,
                                     torus.frames, spec)
        mean_ext, _ = tg.predict_at_encodings(model, enc)
        mean_node, _ = tg.predict(model, np.array([node]))
        cos = (mean_ext[0] @ mean_node[0]) / (np.linalg.norm(mean_ext[0])
                                              * np.linalg.norm(mean_node[0]))
        assert cos > 0.9

    @pytest.mark.parametrize("n_neighbors", [1, 2])
    def test_batch_equals_one_query_at_a_time(self, torus, n_neighbors):
        # a line bundle (m = 1) at one neighbour is where a (q,) neighbour
        # array, read as (1, q), would make one query of three neighbours
        frames = tg.estimate_tangent_frames(torus.graph, torus.cloud, 1)
        con = tg.assemble_connection_laplacian(
            torus.graph, frames, tg.compute_transports(torus.graph, frames))
        spec = tg.eigendecompose(con, 10, seed=0)
        faces = torus.faces[:3]
        queries = (torus.cloud.points[faces[:, 0]] + torus.cloud.points[faces[:, 1]]) / 2
        batch, _ = tg.extend_encodings(queries, torus.cloud, torus.graph, frames, spec,
                                       n_neighbors=n_neighbors)
        alone = np.concatenate([
            tg.extend_encodings(q, torus.cloud, torus.graph, frames, spec,
                                n_neighbors=n_neighbors)[0] for q in queries])
        assert np.array_equal(batch, alone)

    def test_non_finite_query_is_rejected(self, torus, torus_spectrum):
        queries = torus.cloud.points[:3].copy()
        queries[1, 2] = np.nan
        with pytest.raises(ValueError, match="query point 1: non-finite coordinate"):
            tg.extend_encodings(queries, torus.cloud, torus.graph, torus.frames,
                                truncate(torus_spectrum, 10))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_held_out_points_within_measured_accuracy(self, torus, torus_truth, seed):
        # 10% of the fixture's points leave the graph; the rest get their own
        # graph, frames, k = 50 spectrum and searched hyperparameters. Over
        # split seeds 1-20 the extension's mean angular error was 0.073-0.108
        # rad, the transductive on-graph fit's 0.0002-0.0005
        truth = torus_truth.field.ambient()
        perm = np.random.default_rng(seed).permutation(400)
        held, kept = np.sort(perm[:40]), np.sort(perm[40:])
        sub = build_setup(torus.cloud.points[kept], None)
        spec = tg.eigendecompose(sub.con, 50, seed=0)
        train = np.arange(kept.size)
        kappa = 5.0 * tg.geometry.mean_edge_length(sub.graph, sub.cloud)
        hp = tg.fit_hyperparameters(train, truth[kept], spec, sub.frames, initial=(
            tg.MaternHyperparams(sigma=1.0, kappa=kappa, nu=1.5, sigma_n=1e-3)))
        model = tg.fit(train, truth[kept], spec, sub.frames, hp)
        enc, _ = tg.extend_encodings(torus.cloud.points[held], sub.cloud, sub.graph,
                                     sub.frames, spec)
        mean, _ = tg.predict_at_encodings(model, enc)
        assert tfields.angular_error(mean, truth[held]).value < 0.12
