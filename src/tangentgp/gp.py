"""Spectral Matern Gaussian processes on the discrete tangent bundle.

The kernel between nodes is k(p, q) = sigma^2 * c_norm * P_p diag(f) P_q^T,
where P are positional encodings built from connection-Laplacian
eigenvectors and f are Matern filter values Phi(lambda)^-2. The filter
normalization c_norm is chosen so the mean diagonal trace of the prior Gram
over all nodes equals sigma^2 * m, making sigma the marginal standard
deviation per tangent dimension: c_norm = m / (t . f), where t holds the
per-eigenpair mean trace of the encodings.

The kernel has rank k by construction: K = A A^T with features
A = E diag(s) of shape (N*d, k), where E are the flat training encodings and
s = sigma * sqrt(c_norm) * sqrt(f). Only s depends on the hyperparameters.
So every fit and every hyperparameter search first reduces the training data
to k rows with one thin QR, E = Q R, keeping R, z = Q^T y and the part of y
outside the range of Q, o = |y - Q z|^2. B = R diag(s) has the row space of
A. The data inform the weights only on the row space of the conditioning
features, with orthonormal basis W (k x p, by the rank rule of frame
estimation; W = I at full column rank); outside it the prior holds. So the
posterior is the p x p system M = s_n^2 I_p + (B W)^T B W, with noise
variance s_n^2 = sigma_n^2 + jitter: one Cholesky factor of M, the weight
mean w = W M^-1 (B W)^T z, the residual |y - A w|^2 = |z - B w|^2 + o, mean
A_q w and covariance s_n^2 (A_q W) M^-1 (A_q W)^T + A_q (I - W W^T) A_q^T.
The log marginal likelihood comes from the same B, factor and weight mean.
Exact fits take W from the training features, DTC from the inducing ones.
Since rank(R diag(s)) = rank(R), R decides once per fit or search whether
W = I; only rank-deficient training sets (fewer than k/m nodes) pay an SVD
of B per setting. That costs one O(N*d*k^2) QR per fit or search, then
O(k^3) per LML evaluation whatever N*d is, and O(q*d*k^2) per prediction of
q nodes, which runs in blocks of B nodes in O(B*d*k) working memory; no
(N*d)^2 matrix is built. T fields on one training set, targets of shape
(T, N, d) (the channel-wise baseline's channels), share Q, the factor of M,
the summed log marginal likelihood and the covariances; w has one column
per field. Jitter is added only when sigma_n = 0, climbing the
multiplicative ladder from 1e-10 times the mean prior variance
trace(A^T A)/(N*d) as the dense Gram path does; for sigma_n > 0 a failed
factorization raises :class:`GramConditioningError`. :func:`assemble_gram`
builds the dense (N*d)^2 Gram matrix and serves only as a reference.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, solve_triangular

from .geometry import MIN_TRANSPORT_SV, GaugeFrames, PointCloud, ProximityGraph, \
    _frames_from_edge_vectors, _nearest, _neighbor_counts, _procrustes, _zero_singular_values, \
    auto_frame_neighbors
from .spectral import Spectrum, _eigencoordinates, positional_encodings

__all__ = [
    "MaternHyperparams",
    "VectorFieldGP",
    "SearchConfig",
    "GramConditioningError",
    "spectral_filter",
    "normalization_constant",
    "kernel_block",
    "assemble_gram",
    "fit",
    "predict",
    "predict_at_encodings",
    "log_marginal_likelihood",
    "fit_hyperparameters",
    "coordinate_search",
    "inducing_point_predict",
    "extend_encodings",
]

JITTER_LADDER = (0.0, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4)
_PREDICT_BLOCK = 512  # query nodes per prediction block


class GramConditioningError(RuntimeError):
    """Cholesky failed even at the maximum jitter level."""


@dataclass(frozen=True)
class MaternHyperparams:
    """Amplitude sigma, lengthscale kappa, smoothness nu (inf allowed), noise sigma_n."""

    sigma: float = 1.0
    kappa: float = 1.0
    nu: float = 1.5
    sigma_n: float = 1e-3

    def __post_init__(self):
        if not (self.sigma > 0 and math.isfinite(self.sigma)):
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")
        if not (self.kappa > 0 and math.isfinite(self.kappa)):
            raise ValueError(f"kappa must be positive and finite, got {self.kappa}")
        if not self.nu > 0:
            raise ValueError(f"nu must be positive (inf allowed), got {self.nu}")
        if not (self.sigma_n >= 0 and math.isfinite(self.sigma_n)):
            raise ValueError(f"sigma_n must be nonnegative and finite, got {self.sigma_n}")


def spectral_filter(eigenvalues: np.ndarray, hyperparams: MaternHyperparams) -> np.ndarray:
    """Diagonal filter values Phi(lambda)^-2 for the Matern spectral kernel.

    Finite nu: (2 nu / kappa^2 + lambda)^-nu. nu = inf uses the heat form
    exp(-kappa^2 lambda / 2). Eigenvalues within -1e-8 of zero are clamped.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    if lam.min(initial=0.0) < -1e-8:
        raise ValueError(f"negative eigenvalue {lam.min():.3e} beyond tolerance")
    lam = np.clip(lam, 0.0, None)
    if math.isinf(hyperparams.nu):
        return np.exp(-hyperparams.kappa**2 * lam / 2.0)
    return (2.0 * hyperparams.nu / hyperparams.kappa**2 + lam) ** (-hyperparams.nu)


def _encoding_traces(encodings: np.ndarray) -> np.ndarray:
    """Per-eigenpair mean over nodes of sum_d E_idk^2, shape (k,): the mean
    prior variance trace per node is sigma^2 * c_norm * (traces . f)."""
    return np.einsum("idk,idk->k", encodings, encodings) / encodings.shape[0]


def _c_norm(traces: np.ndarray, filter_values: np.ndarray, m: int) -> float:
    mean_trace = float(traces @ filter_values)
    if not mean_trace > 0:
        raise ValueError("encodings give nonpositive mean prior trace")
    return m / mean_trace


def normalization_constant(encodings: np.ndarray, filter_values: np.ndarray,
                           m: int) -> float:
    """c_norm such that the mean prior variance trace per node is sigma^2 * m."""
    return _c_norm(_encoding_traces(encodings), filter_values, m)


def kernel_block(p: np.ndarray, q: np.ndarray, filter_values: np.ndarray,
                 sigma: float, c_norm: float) -> np.ndarray:
    """d x d kernel block sigma^2 * c_norm * P diag(f) Q^T between two encodings."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape[1] != q.shape[1] or p.shape[1] != filter_values.shape[0]:
        raise ValueError(
            f"encoding/filter width mismatch: {p.shape[1]}, {q.shape[1]}, "
            f"{filter_values.shape[0]}"
        )
    return sigma**2 * c_norm * (p * filter_values) @ q.T


def _features(encodings: np.ndarray, filter_values: np.ndarray, sigma: float,
              c_norm: float) -> np.ndarray:
    """Feature matrix A with K = A A^T, shape (n*d, k), from encodings of
    shape (n, d, k); given the reduced rows R of a :class:`_Reduced`, B."""
    flat = encodings.reshape(-1, encodings.shape[-1])
    return (sigma * np.sqrt(c_norm)) * flat * np.sqrt(filter_values)


def _cholesky_with_jitter(mat: np.ndarray, scale: float | None = None,
                          levels: tuple[float, ...] = JITTER_LADDER
                          ) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of mat + level * scale * I at the first level that
    factorizes, and the jitter added. ``scale`` defaults to the mean diagonal."""
    if scale is None:
        scale = float(np.mean(np.diag(mat)))
    scale = max(scale, np.finfo(float).tiny)
    for level in levels:
        try:
            shifted = mat + (level * scale) * np.eye(mat.shape[0]) if level else mat
            return np.linalg.cholesky(shifted), level * scale
        except np.linalg.LinAlgError:
            continue
    evals = np.linalg.eigvalsh(mat)
    raise GramConditioningError(
        f"Cholesky failed at jitter {levels[-1]:.0e} * {scale:.3e}; "
        f"eigenvalue range [{evals.min():.3e}, {evals.max():.3e}]"
    )


def _row_space(feats: np.ndarray) -> np.ndarray | None:
    """Orthonormal basis W (k x p) of the row space of ``feats`` by the rank
    rule of frame estimation (``geometry._zero_singular_values``), or None
    for W = I: full column rank, which needs no singular vectors."""
    keep = ~_zero_singular_values(np.linalg.svd(feats, compute_uv=False), feats.shape)
    if keep.size == feats.shape[1] and keep.all():
        return None
    return np.linalg.svd(feats, full_matrices=False)[2][keep].T


@dataclass(frozen=True)
class _Reduced:
    """Training encodings E ((N*d) x k) and targets Y reduced by one thin QR,
    E = Q R. For features A = E diag(s), B = R diag(s) gives A^T A = B^T B,
    A^T Y = B^T z and |Y - A W|^2 = |z - B W|^2 + ``outside``."""

    traces: np.ndarray  # (k,) per-eigenpair mean trace over all nodes
    r: np.ndarray  # (min(N*d, k), k)
    z: np.ndarray  # Q^T Y: one column per target column (or a vector)
    outside: float  # |Y - Q z|^2, summed over the target columns
    rows: int  # N*d
    full_rank: bool  # R has full column rank, so W = I for every setting


def _reduce(encodings: np.ndarray, train_nodes: np.ndarray,
            targets: np.ndarray) -> _Reduced:
    """Reduce the training encodings ``encodings[train_nodes]`` (n, d, k) and
    targets (n*d rows) to k rows; ``encodings`` holds every node's."""
    train = encodings[train_nodes]
    n, d, k = train.shape
    if n < 1:
        raise ValueError("need at least one training node")
    q, r = np.linalg.qr(train.reshape(n * d, k))
    z = q.T @ targets
    outside = targets - q @ z
    return _Reduced(_encoding_traces(encodings), r, z, float(np.sum(outside * outside)),
                    n * d, _row_space(r) is None)


def _posterior(reduced: _Reduced, spectrum: Spectrum, hyperparams: MaternHyperparams,
               inducing_r: np.ndarray | None = None) -> tuple[dict, float]:
    """The weight posterior on the row space of the training features, or of
    the features whose reduced rows are ``inducing_r``, as the posterior
    fields of :class:`VectorFieldGP` (the filter, c_norm, W (None for I), the
    Cholesky factor of M, the weight mean and the jitter), and the log
    marginal likelihood of the ``reduced`` targets summed over their columns,
    per column -1/2 ((|z - B w|^2 + o) / s^2 + |w|^2) - 1/2 ((N - p) log s^2
    + log det M) - (N/2) log 2 pi with N = N*d rows. R decides whether W = I,
    as rank(R diag(s)) = rank(R); see the module docstring for M and the
    jitter."""
    filter_values = spectral_filter(spectrum.eigenvalues, hyperparams)
    c_norm = _c_norm(reduced.traces, filter_values, spectrum.m)
    b = _features(reduced.r, filter_values, hyperparams.sigma, c_norm)
    if inducing_r is None:
        basis = None if reduced.full_rank else _row_space(b)
    elif _row_space(inducing_r) is None:
        basis = None
    else:
        basis = _row_space(_features(inducing_r, filter_values, hyperparams.sigma, c_norm))
    bw = b if basis is None else b @ basis
    gram = bw.T @ bw
    gram = (gram + gram.T) / 2.0
    noise = hyperparams.sigma_n**2
    # sigma_n > 0: one try at level 0, where the scale only labels a failure;
    # sigma_n = 0: level 0 would leave zero noise and a possibly singular M
    scale, levels = ((noise, (0.0,)) if hyperparams.sigma_n > 0
                     else (float(np.trace(gram)) / reduced.rows, JITTER_LADDER[1:]))
    chol, jitter = _cholesky_with_jitter(gram + noise * np.eye(gram.shape[0]), scale, levels)
    noise += jitter
    weights = cho_solve((chol, True), bw.T @ reduced.z)
    alpha = weights if basis is None else basis @ weights
    resid = reduced.z - b @ alpha
    quad = ((float(np.sum(resid * resid)) + reduced.outside) / noise
            + float(np.sum(alpha * alpha)))
    logdet = ((reduced.rows - chol.shape[0]) * math.log(noise)
              + 2.0 * float(np.sum(np.log(np.diag(chol)))))
    columns = 1 if reduced.z.ndim == 1 else reduced.z.shape[1]
    lml = -0.5 * quad - 0.5 * columns * (logdet + reduced.rows * math.log(2 * math.pi))
    return dict(filter_values=filter_values, c_norm=c_norm, basis=basis, chol=chol,
                alpha=alpha, jitter=jitter), lml


def assemble_gram(encodings: np.ndarray, filter_values: np.ndarray, sigma: float,
                  sigma_n: float, c_norm: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Dense noisy Gram matrix over the given encodings plus its Cholesky factor.

    Returns (K + sigma_n^2 I + jitter I, lower Cholesky factor, jitter used).
    The jitter ladder starts at zero and climbs multiplicatively to 1e-4
    (relative to the mean diagonal); failure beyond that raises
    :class:`GramConditioningError`. This (N*d)^2 path is a reference for
    tests only: fitting, the likelihood and prediction use the k x k system.
    """
    if encodings.shape[0] < 1:
        raise ValueError("need at least one training node")
    feats = _features(encodings, filter_values, sigma, c_norm)
    gram = feats @ feats.T
    gram = (gram + gram.T) / 2.0
    gram += sigma_n**2 * np.eye(gram.shape[0])
    chol, jitter = _cholesky_with_jitter(gram)
    if jitter:
        gram += jitter * np.eye(gram.shape[0])
    return gram, chol, jitter


@dataclass
class VectorFieldGP:
    """Fitted vector-field GP: spectrum slice, encodings, hyperparameters,
    training targets and the weight-space posterior.

    ``basis`` is the orthonormal basis W (k x p) of the row space of the
    conditioning features A (None for W = I), ``chol`` the lower Cholesky
    factor of the p x p matrix M = s^2 I + (A W)^T A W, ``alpha`` the weight
    mean w = W M^-1 (A W)^T y (length k; k x T for T fields), and ``jitter``
    the noise variance added to sigma_n^2 to give s^2 (nonzero only when
    sigma_n = 0).
    """

    spectrum: Spectrum
    encodings: np.ndarray  # (n, d, k), all nodes
    hyperparams: MaternHyperparams
    train_nodes: np.ndarray
    targets: np.ndarray  # (n_train, d) ambient vectors, or (T, n_train, d)
    filter_values: np.ndarray
    c_norm: float
    basis: np.ndarray | None  # (k, p)
    chol: np.ndarray  # (p, p)
    alpha: np.ndarray  # (k,) weight mean, or (k, T)
    jitter: float

    @property
    def dim(self) -> int:
        return self.encodings.shape[1]

    @property
    def noise(self) -> float:
        """Noise variance s^2 = sigma_n^2 + jitter of the fitted system."""
        return self.hyperparams.sigma_n**2 + self.jitter

    def features(self, encodings: np.ndarray) -> np.ndarray:
        """Feature rows A of the given encodings (or B of reduced rows R)
        under this model's kernel."""
        return _features(encodings, self.filter_values, self.hyperparams.sigma,
                         self.c_norm)


def _validate_training(train_nodes: np.ndarray, targets: np.ndarray, n: int,
                       dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct in-range training nodes and finite targets, (n, dim) or (T, n, dim)."""
    train_nodes = np.asarray(train_nodes, dtype=np.int64).reshape(-1)
    if np.unique(train_nodes).shape[0] != train_nodes.shape[0]:
        raise ValueError("training nodes must be distinct")
    if train_nodes.min(initial=0) < 0 or train_nodes.max(initial=0) >= n:
        raise IndexError("training node out of range")
    targets = np.asarray(targets, dtype=float)
    if targets.ndim not in (2, 3) or targets.shape[-2:] != (train_nodes.shape[0], dim):
        raise ValueError(f"targets must have shape {(train_nodes.shape[0], dim)} or "
                         f"(T, {train_nodes.shape[0]}, {dim}), got {targets.shape}")
    if not np.isfinite(targets).all():
        raise ValueError("targets contain NaN or Inf")
    return train_nodes, targets


def _validate_query(query_nodes: np.ndarray, n: int, role: str = "query"
                    ) -> np.ndarray:
    query_nodes = np.asarray(query_nodes, dtype=np.int64).reshape(-1)
    if query_nodes.size and (query_nodes.min() < 0 or query_nodes.max() >= n):
        raise IndexError(f"{role} node out of range")
    return query_nodes


def _columns(targets: np.ndarray) -> np.ndarray:
    """Targets as rows of the flat training features: (n, d) as one n*d
    vector, (T, n, d) as an (n*d, T) matrix with one column per field."""
    if targets.ndim == 2:
        return targets.reshape(-1)
    return targets.transpose(1, 2, 0).reshape(-1, targets.shape[0])


def _condition(encodings: np.ndarray, spectrum: Spectrum, hyperparams: MaternHyperparams,
               train_nodes: np.ndarray, targets: np.ndarray,
               inducing_nodes: np.ndarray | None = None) -> VectorFieldGP:
    """The posterior given ``targets`` at ``train_nodes`` on the row space of
    the features at ``inducing_nodes`` (default: the training nodes)."""
    r_u = None if inducing_nodes is None else np.linalg.qr(
        encodings[inducing_nodes].reshape(-1, encodings.shape[-1]), mode="r")
    reduced = _reduce(encodings, train_nodes, _columns(targets))
    return VectorFieldGP(spectrum=spectrum, encodings=encodings, hyperparams=hyperparams,
                         train_nodes=train_nodes, targets=targets,
                         **_posterior(reduced, spectrum, hyperparams, r_u)[0])


def fit(train_nodes: np.ndarray, targets: np.ndarray, spectrum: Spectrum,
        frames: GaugeFrames, hyperparams: MaternHyperparams) -> VectorFieldGP:
    """Condition the GP on ambient training vectors at the given nodes:
    targets (n_train, d), or (T, n_train, d) for T fields."""
    train_nodes, targets = _validate_training(train_nodes, targets, spectrum.n,
                                              frames.dim)
    return _condition(positional_encodings(spectrum, frames), spectrum, hyperparams,
                      train_nodes, targets)


def _block_posterior(model: VectorFieldGP, block: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
    """The posterior of :func:`predict_at_encodings` at one block of query
    encodings (b, d, k); its temporaries are freed on return."""
    b, d, k = block.shape
    feats = model.features(block)
    inside = feats if model.basis is None else feats @ model.basis
    half = solve_triangular(model.chol, inside.T, lower=True).reshape(-1, b, d)
    covs = model.noise * np.einsum("kqd,kqe->qde", half, half)
    if model.basis is not None:
        outside = (feats - inside @ model.basis.T).reshape(b, d, k)
        covs += np.einsum("qdk,qek->qde", outside, outside)
    return ((feats @ model.alpha).reshape((b, d) + model.alpha.shape[1:]),
            (covs + covs.transpose(0, 2, 1)) / 2.0)


def _predict_blocks(model: VectorFieldGP, encodings: np.ndarray, nodes: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_block_posterior` at ``encodings[nodes]``, gathering
    ``_PREDICT_BLOCK`` nodes at a time into preallocated (q, d) (or
    (q, d, T)) and (q, d, d) outputs; T means are returned as (T, q, d)."""
    q, d = nodes.shape[0], encodings.shape[1]
    mean, covs = np.empty((q, d) + model.alpha.shape[1:]), np.empty((q, d, d))
    for start in range(0, q, _PREDICT_BLOCK):
        rows = slice(start, start + _PREDICT_BLOCK)
        mean[rows], covs[rows] = _block_posterior(model, encodings[nodes[rows]])
    return (mean if mean.ndim == 2 else mean.transpose(2, 0, 1)), covs


def predict_at_encodings(model: VectorFieldGP, query_encodings: np.ndarray
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean vectors A_q w, shape (q, d) (or (T, q, d) for a model
    of T fields, which share the covariances), and per-node d x d
    covariance blocks of s^2 (A_q W) M^-1 (A_q W)^T + A_q (I - W W^T) A_q^T,
    shape (q, d, d), at query encodings of shape (q, d, k). Queries are
    independent given the k x k posterior, so they run in fixed blocks of
    B = ``_PREDICT_BLOCK`` nodes: the working memory is O(B*d*k) whatever q
    is."""
    return _predict_blocks(model, query_encodings, np.arange(query_encodings.shape[0]))


def predict(model: VectorFieldGP, query_nodes: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean, shape (q, d) (or (T, q, d) for T fields), and
    covariance blocks, shape (q, d, d), at graph nodes (any order, repeats
    allowed, none at all). Each block of nodes gathers its own encodings, as
    in :func:`predict_at_encodings`."""
    query_nodes = _validate_query(query_nodes, model.encodings.shape[0])
    return _predict_blocks(model, model.encodings, query_nodes)


def log_marginal_likelihood(model: VectorFieldGP) -> float:
    """-1/2 y^T K^-1 y - 1/2 log det K - (N/2) log 2 pi with K the noisy Gram,
    from :func:`_posterior` on the model's training data (W from the training
    features, as in :func:`fit`): in residual form on the p x p system, with
    no subtraction of nearly equal terms, for N = N*d rows above or below k.
    For T fields it is the sum of their log marginal likelihoods.
    """
    return _posterior(_reduce(model.encodings, model.train_nodes, _columns(model.targets)),
                      model.spectrum, model.hyperparams)[1]


@dataclass(frozen=True)
class SearchConfig:
    """Box bounds (natural log) and budget for hyperparameter search."""

    log_sigma_bounds: tuple[float, float] = (math.log(1e-3), math.log(1e3))
    log_kappa_bounds: tuple[float, float] = (math.log(1e-2), math.log(1e3))
    log_sigma_n_bounds: tuple[float, float] = (math.log(1e-6), math.log(10.0))
    n_starts: int = 3
    n_sweeps: int = 5
    grid_points: int = 7

    def __post_init__(self):
        for name, least in (("n_starts", 1), ("n_sweeps", 1), ("grid_points", 2)):
            if not getattr(self, name) >= least:
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)}")

    @property
    def bounds(self) -> tuple[tuple[float, float], ...]:
        return (self.log_sigma_bounds, self.log_kappa_bounds, self.log_sigma_n_bounds)


def coordinate_search(objective, search: SearchConfig, seed: int,
                      start: np.ndarray | None = None) -> np.ndarray:
    """Deterministic multi-start coordinate descent over the search box.

    Maximizes ``objective(theta)`` (theta in log space, -inf allowed) on a
    shrinking per-axis grid. Returns the first evaluated theta of the highest
    value over every evaluation (NaN never wins), so the result dominates all
    grid initializations by construction. The objective must be
    deterministic: no point is evaluated twice, so a grid candidate equal to
    the current point, or to a point of an earlier sweep or start, costs
    nothing.
    """
    lows = np.array([b[0] for b in search.bounds])
    highs = np.array([b[1] for b in search.bounds])
    rng = np.random.default_rng(seed)
    mid = (lows + highs) / 2.0
    starts = [np.clip(mid if start is None else np.asarray(start, float), lows, highs)]
    for _ in range(search.n_starts - 1):
        starts.append(lows + (highs - lows) * rng.uniform(size=lows.shape[0]))

    values: dict[tuple, float] = {}  # every evaluation, in evaluation order

    def value_at(theta: np.ndarray) -> float:
        key = tuple(theta.tolist())
        if key not in values:
            values[key] = objective(theta)
        return values[key]

    for theta0 in starts:
        theta = theta0.copy()
        value = value_at(theta)
        span = (highs - lows) / 4.0
        for _ in range(search.n_sweeps):
            improved = False
            for axis in range(lows.shape[0]):
                grid = theta[axis] + np.linspace(-span[axis], span[axis],
                                                 search.grid_points)
                grid = np.clip(grid, lows[axis], highs[axis])
                for cand in np.unique(grid):
                    trial = theta.copy()
                    trial[axis] = cand
                    v = value_at(trial)
                    if v > value:
                        value, theta = v, trial
                        improved = True
            span *= 0.5
            if not improved and span.max() < 1e-3:
                break
    scored = {key: v for key, v in values.items() if v > -np.inf}  # drops NaN
    if not scored:
        raise ValueError("objective was NaN/inf everywhere searched")
    return np.array(max(scored, key=scored.get))


def _hyperparams_at(theta: np.ndarray, nu: float) -> MaternHyperparams:
    return MaternHyperparams(sigma=math.exp(theta[0]), kappa=math.exp(theta[1]),
                             nu=nu, sigma_n=math.exp(theta[2]))


def fit_hyperparameters(train_nodes: np.ndarray, targets: np.ndarray,
                        spectrum: Spectrum, frames: GaugeFrames,
                        nu: float = 1.5, search: SearchConfig | None = None,
                        seed: int = 0,
                        initial: MaternHyperparams | None = None,
                        ) -> MaternHyperparams:
    """Maximize the log marginal likelihood over (sigma, kappa, sigma_n).

    :func:`coordinate_search` in log space with nu held fixed; deterministic
    for a fixed seed. ``initial`` seeds the first start (defaults to the box
    centre). Training inputs are checked as in :func:`fit`; T fields share
    one setting, that of the largest summed log marginal likelihood.
    :func:`_reduce` runs once, so each evaluation is one :func:`_posterior`
    on k x k arrays. Failed factorizations and invalid hyperparameters score
    -inf.
    """
    train_nodes, targets = _validate_training(train_nodes, targets, spectrum.n,
                                              frames.dim)
    start = None
    if initial is not None:
        start = np.array([math.log(initial.sigma), math.log(initial.kappa),
                          math.log(max(initial.sigma_n, 1e-12))])
    reduced = _reduce(positional_encodings(spectrum, frames), train_nodes, _columns(targets))

    def objective(theta: np.ndarray) -> float:
        try:
            value = _posterior(reduced, spectrum, _hyperparams_at(theta, nu))[1]
        except (GramConditioningError, np.linalg.LinAlgError, ValueError,
                FloatingPointError, OverflowError):
            return -np.inf
        return value if np.isfinite(value) else -np.inf

    try:
        best = coordinate_search(objective, search or SearchConfig(), seed, start)
    except ValueError as exc:
        raise ValueError(f"hyperparameter search failed: {exc}") from None
    return _hyperparams_at(best, nu)


def inducing_point_predict(train_nodes: np.ndarray, targets: np.ndarray,
                           inducing_nodes: np.ndarray, spectrum: Spectrum,
                           frames: GaugeFrames, hyperparams: MaternHyperparams,
                           query_nodes: np.ndarray
                           ) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic-training-conditional (DTC) posterior through an inducing set.

    DTC replaces the training prior K_ff by Q_ff = K_fu K_uu^+ K_uf, which is
    A W W^T A^T for K = A A^T and W an orthonormal basis of the row space of
    the inducing features A_u. So DTC is the posterior of :func:`fit` with W
    taken from A_u instead of the training features: exact for any inducing
    set. For inducing training nodes whose A_u has full column rank (at
    least k/m of them), W = I as in :func:`fit`, and DTC equals
    ``predict(fit(...))`` bit for bit; only sets of lower rank differ.
    """
    train_nodes, targets = _validate_training(train_nodes, targets, spectrum.n,
                                              frames.dim)
    inducing_nodes = _validate_query(inducing_nodes, spectrum.n, "inducing")
    if inducing_nodes.size == 0:
        raise ValueError("need at least one inducing node")
    model = _condition(positional_encodings(spectrum, frames), spectrum, hyperparams,
                       train_nodes, targets, inducing_nodes)
    return predict(model, query_nodes)


def extend_encodings(new_points: np.ndarray, cloud: PointCloud,
                     graph: ProximityGraph, frames: GaugeFrames,
                     spectrum: Spectrum, n_neighbors: int | None = None
                     ) -> tuple[np.ndarray, GaugeFrames]:
    """Out-of-graph extension: encode ambient points that are not graph nodes.

    This is an extension beyond the core method, which is defined on graph
    nodes only. Each new point gets a frame from the SVD of edge vectors to
    its ``n_neighbors`` nearest graph nodes, and an encoding equal to the
    transported, inverse-square-distance-weighted average of those nodes'
    tangent eigencoordinates mapped into the new frame, summed nearest first.
    The neighbours are exact, with equal distances in node order
    (``geometry._nearest``), so each query's encoding is the same alone or in
    a batch, at any ``n_neighbors``. A query at a node position
    reproduces that node's encoding. With 10% of the 400-node torus fixture
    held out (k = 50): mean angular error 0.07-0.14 rad, transductive fit 0.0002-0.04.
    """
    new_points = np.atleast_2d(np.asarray(new_points, dtype=float))
    if new_points.shape[1] != cloud.dim:
        raise ValueError("new points have wrong ambient dimension")
    if not np.isfinite(new_points).all():
        raise ValueError(f"query point {np.argwhere(~np.isfinite(new_points))[0, 0]}: "
                         "non-finite coordinate")
    m, k = spectrum.m, spectrum.k
    if n_neighbors is None:
        # one size for every query point: the auto size of the mean
        # neighbour count, within [m + 1, n] instead of a node's [m, n - 1]
        n_neighbors = int(auto_frame_neighbors(np.mean(_neighbor_counts(graph)), m + 1,
                                               cloud.n + 1))
    n_neighbors = min(n_neighbors, cloud.n)
    if n_neighbors < m:
        raise ValueError(f"query point 0: neighbourhood rank < {m}")
    nbr_idx = _nearest(cloud.points, new_points, n_neighbors)
    offsets = cloud.points[nbr_idx] - new_points[:, None, :]
    dists = np.linalg.norm(offsets, axis=2)

    edge_vecs = np.swapaxes(offsets, 1, 2)
    new_frames, deficient = _frames_from_edge_vectors(edge_vecs, m)
    # align each neighbour frame onto the new frame: j-coords -> new coords
    maps, smallest = _procrustes(new_frames[:, None], frames.frames[nbr_idx])
    orthogonal = smallest < MIN_TRANSPORT_SV
    bad = deficient | orthogonal.any(axis=1)
    if bad.any():
        a = int(np.argmax(bad))
        if deficient[a]:
            raise ValueError(f"query point {a}: neighbourhood rank < {m}")
        j = nbr_idx[a, np.argmax(orthogonal[a])]
        raise ValueError(f"query point {a}: tangent space nearly orthogonal to node {j}")
    floor = (1e-8 * np.maximum(dists.mean(axis=1), np.finfo(float).tiny)) ** 2
    weights = 1.0 / (dists ** 2 + floor[:, None])
    weights /= weights.sum(axis=1, keepdims=True)
    moved = maps @ _eigencoordinates(spectrum, nbr_idx)
    acc = np.zeros((new_points.shape[0], m, k))
    for t in range(nbr_idx.shape[1]):  # neighbours in distance order, as summed per point
        acc += weights[:, t, None, None] * moved[:, t]
    out = new_frames @ acc
    return out, GaugeFrames(new_frames)
