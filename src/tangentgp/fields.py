"""Vector-field generation by heat diffusion, a channel-wise baseline, and metrics.

Ground-truth fields are produced with the vector heat method: diffuse the
tangent field under exp(-L_c tau) to get directions and the per-node norms
under exp(-L tau) to get magnitudes, then recombine. Both flows are one
Chebyshev series of exp(-tau x) on [0, b], b the operator's largest absolute
row sum, exact to rounding at every size and drawing no random numbers.
Genus-0 surfaces force singularities, where the diffused direction collapses.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from . import gp
from .geometry import GaugeFrames, PointCloud, ProximityGraph, TransportMaps, \
    _neighbor_counts, furthest_point_sample
from .spectral import ConnectionLaplacian, Spectrum, positional_encodings, scalar_frames

__all__ = [
    "TangentField",
    "VectorHeatResult",
    "GeneratedField",
    "MetricResult",
    "scalar_heat",
    "vector_diffusion",
    "vector_heat",
    "generate_experiment_field",
    "baseline_scalar_rbf_predict",
    "fit_baseline_hyperparameters",
    "alignment_score",
    "angular_error",
    "out_of_tangent_magnitude",
    "boundary_angular_jump",
    "direction_coherence",
    "SINGULARITY_NORM_TOL",
    "ZERO_NORM_TOL",
]

SINGULARITY_NORM_TOL = 1e-12
ZERO_NORM_TOL = 1e-12


@dataclass(frozen=True)
class TangentField:
    """Per-node tangent coordinates paired with the frames defining them."""

    coords: np.ndarray  # (n, m)
    frames: GaugeFrames

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=float)
        if coords.shape != (self.frames.n, self.frames.m):
            raise ValueError(
                f"coords must have shape {(self.frames.n, self.frames.m)}, "
                f"got {coords.shape}"
            )
        object.__setattr__(self, "coords", coords)

    def ambient(self) -> np.ndarray:
        return self.frames.to_ambient(self.coords)

    @classmethod
    def from_ambient(cls, vectors: np.ndarray, frames: GaugeFrames) -> "TangentField":
        return cls(frames.project(np.asarray(vectors, dtype=float)), frames)


def _heat_coefficients(z: float) -> np.ndarray:
    """Chebyshev coefficients (2 - [j = 0]) (-1)^j e^-z I_j(z) of exp(-z (1 + y))
    on [-1, 1] to degree floor(9 sqrt(z)) + 20, past which they sum below
    2^-53, from one FFT of samples at y = -cos(phi), which aliases only dropped
    terms; 1 + y = 2 sin^2(phi / 2) keeps the samples near y = -1 accurate."""
    degree = int(9 * math.sqrt(z)) + 20
    size = 2 * degree + 2
    samples = np.exp(-2 * z * np.sin(np.pi / size * np.arange(size)) ** 2)
    coefs = np.fft.rfft(samples).real[:degree + 1] * (2 / size)
    coefs[0] /= 2
    coefs[1::2] *= -1
    return coefs


def _heat_apply(matrix: sparse.csr_matrix, state: np.ndarray, tau: float) -> np.ndarray:
    """exp(-M tau) applied to the columns of state, for a symmetric positive
    semidefinite M, whose spectrum lies in [0, b] for b its largest absolute
    row sum: the series of :func:`_heat_coefficients` at z = tau b / 2 in
    2 M / b - I, by the three-term recurrence (Hammond et al. 2011)."""
    if tau < 0:
        raise ValueError("diffusion time must be nonnegative")
    bound = float(abs(matrix).sum(axis=1).max())
    if tau * bound == 0:
        return state.copy()
    coefs = _heat_coefficients(tau * bound / 2)
    twice = matrix * (4 / bound) - 2 * sparse.identity(matrix.shape[0], format="csr")
    prev, cur = state, twice @ state / 2
    out = coefs[0] * prev + coefs[1] * cur
    for c in coefs[2:]:
        prev, cur = cur, twice @ cur - prev
        out += c * cur
    return out


def scalar_heat(laplacian: ConnectionLaplacian, u0: np.ndarray, tau: float) -> np.ndarray:
    """Scalar heat flow u(tau) = exp(-L tau) u0, exact to rounding at any size;
    it preserves total mass and contracts the Dirichlet seminorm. L must be
    positive semidefinite: an eigenvalue lambda < 0 would multiply the series'
    truncation error by e^(tau |lambda|)."""
    u0 = np.asarray(u0, dtype=float).reshape(-1)
    if u0.shape[0] != laplacian.n:
        raise ValueError("initial condition has wrong length")
    return _heat_apply(laplacian.matrix, u0[:, None], tau)[:, 0]


def vector_diffusion(connection: ConnectionLaplacian, coords: np.ndarray,
                     tau: float) -> np.ndarray:
    """Raw vector heat flow exp(-L_c tau) applied to stacked tangent coordinates;
    L_c must be positive semidefinite, as in :func:`scalar_heat`."""
    coords = np.asarray(coords, dtype=float)
    n, m = connection.n, connection.m
    if coords.shape != (n, m):
        raise ValueError(f"coords must have shape {(n, m)}")
    flat = coords.reshape(n * m, 1)
    return _heat_apply(connection.matrix, flat, tau).reshape(n, m)


@dataclass(frozen=True)
class VectorHeatResult:
    field: TangentField
    magnitudes: np.ndarray  # scalar-diffused per-node norms
    direction_norms: np.ndarray  # norms of the raw diffused directions
    singular: np.ndarray  # bool mask of singularity candidates


def vector_heat(connection: ConnectionLaplacian, laplacian: ConnectionLaplacian,
                field0: TangentField, tau: float) -> VectorHeatResult:
    """Vector heat method: diffused directions with scalar-diffused magnitudes.

    result_i = v(tau)_i / |v(tau)_i| * u(tau)_i where v solves the vector
    heat equation and u diffuses the initial per-node norms. Nodes where the
    diffused direction norm falls below ``SINGULARITY_NORM_TOL`` are flagged
    as singularity candidates; their coordinates are zeroed (direction
    undefined) and callers should exclude them from alignment metrics. The
    scalar-diffused magnitude for those nodes remains in ``magnitudes``.
    """
    coords = vector_diffusion(connection, field0.coords, tau)
    mags0 = np.linalg.norm(field0.coords, axis=1)
    mags = scalar_heat(laplacian, mags0, tau)
    dnorms = np.linalg.norm(coords, axis=1)
    singular = dnorms < SINGULARITY_NORM_TOL
    safe = np.where(singular, 1.0, dnorms)
    out = coords / safe[:, None] * mags[:, None]
    out[singular] = 0.0
    return VectorHeatResult(
        field=TangentField(out, field0.frames),
        magnitudes=mags,
        direction_norms=dnorms,
        singular=singular,
    )


@dataclass(frozen=True)
class GeneratedField:
    field: TangentField
    anchors: np.ndarray
    spacing: float
    singular: np.ndarray
    direction_norms: np.ndarray


def generate_experiment_field(cloud: PointCloud, frames: GaugeFrames,
                              connection: ConnectionLaplacian,
                              laplacian: ConnectionLaplacian, anchor_count: int,
                              seed: int, tau: float = 100.0) -> GeneratedField:
    """Smooth random ground-truth field: furthest-point anchors seeded with
    uniform unit vectors, projected to tangent spaces and diffused to tau.

    Deterministic for a fixed seed.
    """
    anchors, spacing = furthest_point_sample(cloud, anchor_count)
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((anchors.shape[0], cloud.dim))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    coords0 = np.zeros((cloud.n, frames.m))
    # one stacked matmul rounds as the per-anchor T_i^T @ raw_a; einsum does not
    seeded = np.swapaxes(frames.frames[anchors], 1, 2) @ raw[:, :, None]
    coords0[anchors] = seeded[:, :, 0]
    result = vector_heat(connection, laplacian, TangentField(coords0, frames), tau)
    return GeneratedField(
        field=result.field,
        anchors=anchors,
        spacing=spacing,
        singular=result.singular,
        direction_norms=result.direction_norms,
    )


def _check_baseline_inputs(spectrum: Spectrum, train_nodes: np.ndarray,
                           train_vectors: np.ndarray
                           ) -> tuple[np.ndarray, np.ndarray]:
    if spectrum.m != 1:
        raise ValueError("baseline needs a scalar (graph-Laplacian) spectrum")
    train_vectors = np.asarray(train_vectors, dtype=float)
    if train_vectors.ndim != 2:
        raise ValueError("train_vectors must be a 2-D (nodes, channels) array")
    return gp._validate_training(train_nodes, train_vectors, spectrum.n,
                                 train_vectors.shape[1])


def baseline_scalar_rbf_predict(spectrum: Spectrum, train_nodes: np.ndarray,
                                train_vectors: np.ndarray, query_nodes: np.ndarray,
                                hyperparams: gp.MaternHyperparams) -> np.ndarray:
    """Channel-wise scalar GP baseline on graph-Laplacian positional encodings.

    Each ambient channel is regressed independently with the nu = inf
    (squared-exponential) spectral filter; ``hyperparams.nu`` must be inf,
    and a finite one raises ValueError. The channels share one kernel, so
    they share the QR of the training encodings and one k x k factorization
    with one right-hand side per channel.
    Predictions are NOT projected to tangent spaces, so they can protrude
    from the surface; that failure mode is the point of the baseline.
    """
    train_nodes, train_vectors = _check_baseline_inputs(spectrum, train_nodes,
                                                        train_vectors)
    query_nodes = gp._validate_query(query_nodes, spectrum.n)
    if not math.isinf(hyperparams.nu):
        raise ValueError(f"the baseline's kernel has nu = inf, got nu = {hyperparams.nu}")
    encodings = positional_encodings(spectrum, scalar_frames(spectrum.n))
    reduced = gp._reduce(encodings, train_nodes, train_vectors)
    # one target column per channel
    model = gp.VectorFieldGP(spectrum, encodings, hyperparams, train_nodes, train_vectors,
                             **gp._posterior(reduced, spectrum, hyperparams)[0])
    return model.features(encodings[query_nodes]) @ model.alpha


def fit_baseline_hyperparameters(spectrum: Spectrum, train_nodes: np.ndarray,
                                 train_vectors: np.ndarray,
                                 search: gp.SearchConfig | None = None,
                                 seed: int = 0,
                                 initial: gp.MaternHyperparams | None = None,
                                 ) -> gp.MaternHyperparams:
    """Shared (sigma, kappa, sigma_n) for the channel-wise baseline by
    maximizing the summed per-channel log marginal likelihood (nu = inf)."""
    train_nodes, train_vectors = _check_baseline_inputs(spectrum, train_nodes,
                                                        train_vectors)
    encodings = positional_encodings(spectrum, scalar_frames(spectrum.n))
    return gp._search(encodings, train_nodes, train_vectors, spectrum, np.inf,
                      search, seed, initial)


@dataclass(frozen=True)
class MetricResult:
    """A scalar metric plus how many nodes entered and were excluded."""

    metric: str
    value: float
    n_nodes: int
    n_excluded: int

    def to_dict(self) -> dict:
        return {"metric": self.metric, "value": self.value,
                "n_nodes": self.n_nodes, "n_excluded": self.n_excluded}


def _cosines(predicted: np.ndarray, truth: np.ndarray) -> tuple[np.ndarray, int]:
    predicted = np.asarray(predicted, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if predicted.shape != truth.shape:
        raise ValueError("prediction/truth shape mismatch")
    pn = np.linalg.norm(predicted, axis=1)
    tn = np.linalg.norm(truth, axis=1)
    keep = (pn > ZERO_NORM_TOL) & (tn > ZERO_NORM_TOL)
    if not keep.any():
        raise ValueError("no nodes left after zero-norm exclusion")
    excluded = int((~keep).sum())
    # 1 - |p/|p| - t/|t||^2 / 2 equals the cosine and is exact for p == t
    diff = predicted[keep] / pn[keep, None] - truth[keep] / tn[keep, None]
    dots = 1.0 - 0.5 * np.sum(diff * diff, axis=1)
    return np.clip(dots, -1.0, 1.0), excluded


def alignment_score(predicted: np.ndarray, truth: np.ndarray) -> MetricResult:
    """Mean normalized inner product between prediction and truth, in [-1, 1].

    Nodes where either side has (near-)zero norm are excluded and counted;
    zero-norm truth rows arise at flagged singularities of generated fields.
    """
    cos, excluded = _cosines(predicted, truth)
    return MetricResult("alignment", float(cos.mean()), predicted.shape[0], excluded)


def angular_error(predicted: np.ndarray, truth: np.ndarray) -> MetricResult:
    """Mean absolute angle (radians) between prediction and truth."""
    cos, excluded = _cosines(predicted, truth)
    return MetricResult("angular_error", float(np.arccos(cos).mean()),
                        predicted.shape[0], excluded)


def out_of_tangent_magnitude(predicted: np.ndarray, frames: GaugeFrames,
                             nodes: np.ndarray) -> MetricResult:
    """Mean norm of the component of each prediction outside its tangent plane."""
    predicted = np.asarray(predicted, dtype=float)
    nodes = np.asarray(nodes, dtype=np.int64).reshape(-1)
    sub = frames.frames[nodes]  # (q, d, m)
    inplane = np.einsum("qdm,qem,qe->qd", sub, sub, predicted)
    resid = np.linalg.norm(predicted - inplane, axis=1)
    return MetricResult("out_of_tangent", float(resid.mean()), nodes.shape[0], 0)


def boundary_angular_jump(graph: ProximityGraph, transports: TransportMaps,
                          frames: GaugeFrames, vectors: np.ndarray,
                          mask: np.ndarray) -> MetricResult:
    """Max angle across mask-boundary edges against the transported neighbour.

    For each edge with exactly one masked endpoint, the vector at the masked
    node (a raw prediction, possibly off-tangent) is compared with the
    unmasked neighbour's value parallel-transported into the masked node's
    tangent plane. Transporting the reference removes the ambient rotation
    between neighbouring tangent planes, so a smooth in-surface field scores
    low and genuine discontinuities or protrusions score high. Edges with a
    (near-)zero vector on either side are excluded and counted.
    """
    vectors = np.asarray(vectors, dtype=float)
    mask = np.asarray(mask, dtype=bool)
    boundary = mask[graph.edges[:, 0]] != mask[graph.edges[:, 1]]
    edges = graph.edges[boundary]
    if edges.shape[0] == 0:
        raise ValueError("mask has no boundary edges")
    # each row (i, j): i the masked (predicted) endpoint, j the other
    edges = np.where(mask[edges[:, 0]][:, None], edges, edges[:, ::-1])
    i, j = edges[:, 0], edges[:, 1]
    coords_j = np.swapaxes(frames.frames[j], 1, 2) @ vectors[j][:, :, None]
    reference = (frames.frames[i] @ (transports.for_edges(edges) @ coords_j))[:, :, 0]
    cos, excluded = _cosines(vectors[i], reference)
    # acos is decreasing, so the largest angle is that of the smallest cosine
    return MetricResult("boundary_max_angular_jump", math.acos(float(cos.min())),
                        edges.shape[0], excluded)


def direction_coherence(graph: ProximityGraph, transports: TransportMaps,
                        coords: np.ndarray) -> np.ndarray:
    """Per-node norm of the transport-averaged neighbourhood direction.

    Near a vortex-style singularity the transported unit directions wind and
    cancel, so low coherence marks singularity candidates in a field whose
    magnitudes were renormalized.
    """
    coords = np.asarray(coords, dtype=float)
    norms = np.linalg.norm(coords, axis=1)
    units = np.where(norms[:, None] > ZERO_NORM_TOL, coords / np.maximum(norms, 1e-300)[:, None], 0.0)
    i, j = graph.edges[:, 0], graph.edges[:, 1]
    into_i = (transports.for_edges(graph.edges) @ units[j][:, :, None])[:, :, 0]
    into_j = (transports.for_edges(graph.edges[:, ::-1]) @ units[i][:, :, None])[:, :, 0]
    # add.at accumulates in index order: each node sums its terms in edge order
    acc = np.zeros_like(coords)
    np.add.at(acc, graph.edges.reshape(-1),
              np.stack([into_i, into_j], axis=1).reshape(-1, coords.shape[1]))
    counts = np.maximum(_neighbor_counts(graph), 1.0)
    return np.linalg.norm(acc / counts[:, None], axis=1)
