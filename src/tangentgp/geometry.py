"""Discrete approximation of a latent manifold from point samples.

Builds proximity graphs over point clouds, subsamples them with greedy
furthest-point selection, estimates per-node orthonormal tangent frames,
and computes the orthogonal transport maps that align neighbouring frames
(a discrete Levi-Civita connection via Procrustes alignment).
"""
from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

__all__ = [
    "PointCloud",
    "ProximityGraph",
    "GaugeFrames",
    "TransportMaps",
    "DuplicatePointsError",
    "DisconnectedGraphError",
    "DisconnectedGraphWarning",
    "DegenerateNeighborhoodError",
    "TransportRankError",
    "build_knn_graph",
    "build_mesh_graph",
    "furthest_point_sample",
    "estimate_tangent_frames",
    "estimate_intrinsic_dim",
    "project_to_tangent",
    "tangent_to_ambient",
    "compute_transport",
    "compute_transports",
    "mean_edge_length",
]

# Orthonormality tolerance for frames and transports.
ORTHO_TOL = 1e-10


class DuplicatePointsError(ValueError):
    """Two sample points coincide; zero-length edge vectors break frame estimation."""


class DisconnectedGraphError(ValueError):
    """The proximity graph splits into more than one connected component."""


class DisconnectedGraphWarning(UserWarning):
    """Reported instead of :class:`DisconnectedGraphError` when configured to warn."""


class DegenerateNeighborhoodError(ValueError):
    """A node's neighbourhood does not span the requested tangent dimension."""


class TransportRankError(ValueError):
    """Two tangent spaces are (numerically) orthogonal; the graph is too coarse."""


def _check_points(points: np.ndarray) -> None:
    """An (n, d) array of finite coordinates, or a ValueError naming the
    first bad point."""
    if points.ndim != 2:
        raise ValueError("points must be an (n, d) array")
    if not np.isfinite(points).all():
        bad = np.argwhere(~np.isfinite(points))[0]
        raise ValueError(f"non-finite coordinate at point {bad[0]}, column {bad[1]}")


def _find_duplicate_rows(points: np.ndarray) -> tuple[int, int] | None:
    order = np.lexsort(points.T[::-1])
    eq = np.all(points[order[1:]] == points[order[:-1]], axis=1)
    hits = np.nonzero(eq)[0]
    if hits.size == 0:
        return None
    a, b = order[hits[0]], order[hits[0] + 1]
    return (min(a, b), max(a, b))


@dataclass(frozen=True)
class PointCloud:
    """Sample positions in ambient space, optionally with one vector per point.

    points : (n, d) array of ambient coordinates.
    vectors : optional (n, d) array, one ambient vector per point.
    """

    points: np.ndarray
    vectors: np.ndarray | None = None

    def __post_init__(self):
        points = np.ascontiguousarray(np.asarray(self.points, dtype=float))
        _check_points(points)
        n, d = points.shape
        if n < 2:
            raise ValueError(f"need at least 2 points, got {n}")
        if d < 2:
            raise ValueError(f"need ambient dimension >= 2, got {d}")
        dup = _find_duplicate_rows(points)
        if dup is not None:
            raise DuplicatePointsError(f"points {dup[0]} and {dup[1]} coincide")
        object.__setattr__(self, "points", points)
        if self.vectors is not None:
            vectors = np.ascontiguousarray(np.asarray(self.vectors, dtype=float))
            if vectors.shape != (n, d):
                raise ValueError(
                    f"vectors must have shape {(n, d)}, got {vectors.shape}"
                )
            if not np.isfinite(vectors).all():
                bad = np.argwhere(~np.isfinite(vectors))[0]
                raise ValueError(f"non-finite vector entry at point {bad[0]}")
            object.__setattr__(self, "vectors", vectors)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class ProximityGraph:
    """Weighted undirected graph approximating the manifold.

    edges : (E, 2) int array with i < j per row, no duplicates, no self-loops.
    weights : (E,) nonnegative weights, symmetric by construction.
    """

    n: int
    edges: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        raw = np.asarray(self.edges).reshape(-1, 2)
        edges = raw.astype(np.int64)
        weights = np.asarray(self.weights, dtype=float).reshape(-1)
        if edges.shape[0] != weights.shape[0]:
            raise ValueError("edges and weights length mismatch")
        if edges.size and (edges.min() < 0 or edges.max() >= self.n or (edges != raw).any()):
            raise ValueError("edge endpoint out of range or not an integer")
        if np.any(edges[:, 0] >= edges[:, 1]):
            raise ValueError("edges must satisfy i < j (no self-loops)")
        if np.any(weights < 0) or not np.isfinite(weights).all():
            raise ValueError("weights must be finite and nonnegative")
        # canonical order for determinism
        order = np.lexsort((edges[:, 1], edges[:, 0]))
        edges = edges[order]
        weights = weights[order]
        if edges.shape[0] > 1 and np.any(np.all(edges[1:] == edges[:-1], axis=1)):
            raise ValueError("duplicate edges")
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "weights", weights)
        if np.any(self.degrees <= 0):
            i = int(np.argmin(self.degrees))
            raise ValueError(f"node {i} has zero degree")

    @cached_property
    def degrees(self) -> np.ndarray:
        deg = np.zeros(self.n)
        np.add.at(deg, self.edges[:, 0], self.weights)
        np.add.at(deg, self.edges[:, 1], self.weights)
        return deg

    def weight_matrix(self) -> sparse.csr_matrix:
        i, j = self.edges[:, 0], self.edges[:, 1]
        w = sparse.coo_matrix(
            (np.concatenate([self.weights, self.weights]),
             (np.concatenate([i, j]), np.concatenate([j, i]))),
            shape=(self.n, self.n),
        )
        return w.tocsr()

    def n_components(self) -> int:
        ncomp, _ = csgraph.connected_components(self.weight_matrix(), directed=False)
        return int(ncomp)

    def is_connected(self) -> bool:
        return self.n_components() == 1


def _edge_weights(points: np.ndarray, edges: np.ndarray, weighting: str,
                  bandwidth: float | None) -> np.ndarray:
    if weighting == "unit":
        return np.ones(edges.shape[0])
    if weighting == "gaussian":
        if bandwidth is None or bandwidth <= 0:
            raise ValueError("gaussian weighting requires bandwidth > 0")
        d2 = np.sum((points[edges[:, 0]] - points[edges[:, 1]]) ** 2, axis=1)
        return np.exp(-d2 / bandwidth**2)
    raise ValueError(f"unknown weighting {weighting!r}")


def _check_connectivity(graph: ProximityGraph, on_disconnected: str) -> None:
    ncomp = graph.n_components()
    if ncomp == 1:
        return
    msg = f"proximity graph has {ncomp} connected components"
    if on_disconnected == "error":
        raise DisconnectedGraphError(msg)
    if on_disconnected == "warn":
        warnings.warn(msg, DisconnectedGraphWarning)
    else:
        raise ValueError(f"unknown on_disconnected policy {on_disconnected!r}")


def _unique_edges(pairs: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct undirected edges among (P, 2) node pairs on n nodes, as rows
    i < j in lexicographic order, and how often each occurs.

    Equal to ``np.unique(np.sort(pairs, 1), axis=0, return_counts=True)``,
    but sorts one integer key i*n + j per pair instead of structured rows.
    """
    pairs = np.asarray(pairs, dtype=np.int64)
    lo = np.minimum(pairs[:, 0], pairs[:, 1])
    hi = np.maximum(pairs[:, 0], pairs[:, 1])
    keys, counts = np.unique(lo * n + hi, return_counts=True)
    return np.stack(np.divmod(keys, n), axis=1), counts


_BUDGET = 2**20  # entries a pairwise scan's work arrays hold at a time


def _sum_of_squares(parts) -> np.ndarray:
    """The squares of ``parts``, one array per coordinate, added in order: for
    d < 8 parts bit-identical to ``np.sum(x ** 2, axis=-1)`` and the square of
    ``np.linalg.norm(x, axis=-1)`` (numpy sums eight or more terms in unrolled
    partial sums), without their (..., d) temporaries."""
    parts = iter(parts)
    total = next(parts) ** 2
    for part in parts:
        total += part ** 2
    return total


def _rank_in_group(groups: np.ndarray) -> np.ndarray:
    """Each entry's position within its run of equal values in sorted ``groups``."""
    return np.arange(groups.size) - np.searchsorted(groups, groups)


def _nearest(points: np.ndarray, queries: np.ndarray, k: int,
             budget: int = _BUDGET) -> np.ndarray:
    """Indices of the k points nearest each query, as a (q, k) array, nearest
    first, with equal squared distances in index order.

    Equal to ``np.argsort(d2, axis=1, kind="stable")[:, :k]`` for the squared
    distances d2 of :func:`_sum_of_squares`, as a brute force sums them.
    A cell grid (Bentley, Stanat & Williams 1977) of side h on the g <= 3
    coordinates of widest spread: a query's candidates are the points in the
    3^g cells around its own, and its k nearest candidates are final when the
    k-th is nearer than h, less a rounding margin, because every other point
    differs from it by at least h in some coordinate. The rest retry at 2h,
    and a grid of one cell makes every point a candidate. h starts at the
    largest k-th neighbour distance of at most 64 evenly spaced queries. Work
    arrays hold about ``budget`` candidates at a time.
    """
    n, dim = points.shape
    q = queries.shape[0]
    # one contiguous row per coordinate, as gathers from it are faster;
    # index n pads short rows
    columns = np.hstack([points.T, np.full((dim, 1), np.inf)])
    out = np.empty((q, k), dtype=np.int64)

    def select(rows: np.ndarray, cand: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # cand holds each row's candidates in ascending index order
        d2 = _sum_of_squares(queries[rows, a, None] - columns[a][cand] for a in range(dim))
        kth = np.partition(d2, k - 1, axis=1)[:, k - 1]
        # the entries up to the k-th value, each row's in index order, sorted
        # stably by (row, d2): the first k of a row are its k nearest
        r, c = np.nonzero(d2 <= kth[:, None])
        order = np.lexsort((d2[r, c], r))
        r, c = r[order], c[order]
        keep = _rank_in_group(r) < k
        return cand[r[keep], c[keep]].reshape(-1, k), kth

    if q == 0:
        return out
    lo = points.min(axis=0)
    spread = points.max(axis=0) - lo
    axes = np.sort(np.argsort(-spread, kind="stable")[:3])
    lo, g = lo[axes], axes.size
    sample = np.unique(np.linspace(0, q - 1, min(q, 64, max(1, budget // n))
                                   ).astype(np.int64))
    kth = select(sample, np.broadcast_to(np.arange(n), (sample.size, n)))[1]
    # at most 2^20 cells a side, so keys fit int64 and cell indices round
    # off by far less than the margin
    h = max(float(np.sqrt(kth.max())), float(spread.max()) * 2.0**-20,
            np.finfo(float).tiny)
    offsets = np.array(list(itertools.product((-1, 0, 1), repeat=g - 1)),
                       dtype=np.int64).reshape(-1, g - 1)
    pending = np.arange(q)
    while pending.size:
        cells = np.floor((points[:, axes] - lo) / h).astype(np.int64)
        shape = cells.max(axis=0) + 1
        if (shape == 1).all():
            step = max(1, budget // n)
            for s in range(0, pending.size, step):
                rows = pending[s:s + step]
                out[rows] = select(rows, np.broadcast_to(np.arange(n), (rows.size, n)))[0]
            break
        strides = np.append(np.cumprod(shape[:0:-1])[::-1], 1)
        keys = cells @ strides
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        # a query clipped onto the ring of empty cells around the grid has no
        # point nearer than h outside its 3^g cells, as one inside it
        qc = np.floor(np.clip((queries[pending][:, axes] - lo) / h, -1, shape)
                      ).astype(np.int64)
        # the three cells along the last grid axis are one run of keys
        nb = qc[:, None, :-1] + offsets
        base = nb @ strides[:-1]
        start = np.searchsorted(keys, base + np.maximum(qc[:, -1:] - 1, 0), "left")
        stop = np.searchsorted(keys, base + np.minimum(qc[:, -1:] + 1, shape[-1] - 1),
                               "right")
        count = np.where(((nb >= 0) & (nb < shape[:-1])).all(axis=2), stop - start, 0)
        total = count.sum(axis=1)
        by_size = np.argsort(total, kind="stable")
        final = np.zeros(pending.size, dtype=bool)
        s = 0
        while s < by_size.size:
            # the longest run of rows whose padded matrix fits the budget
            sizes = total[by_size[s:]]
            e = s + max(1, int(np.searchsorted(
                np.arange(1, sizes.size + 1) * np.maximum(sizes, k), budget, "right")))
            blk = by_size[s:e]
            # each row's key runs, packed left into a matrix padded with n
            c = count[blk].ravel()
            ends = np.cumsum(c)
            pos = np.arange(ends[-1])
            row = np.repeat(np.arange(blk.size), total[blk])
            col = pos - np.repeat(np.cumsum(total[blk]) - total[blk], total[blk])
            cand = np.full((blk.size, max(int(total[blk[-1]]), k)), n, dtype=np.int64)
            cand[row, col] = order[np.repeat(start[blk].ravel() - ends + c, c) + pos]
            cand.sort(axis=1)
            idx, kth = select(pending[blk], cand)
            ok = kth < ((1 - 1e-9) * h) ** 2
            out[pending[blk[ok]]] = idx[ok]
            final[blk[ok]] = True
            s = e
        pending = pending[~final]
        h *= 2
    return out


def build_knn_graph(cloud: PointCloud, k_neighbors: int, weighting: str = "unit",
                    bandwidth: float | None = None,
                    on_disconnected: str = "error") -> ProximityGraph:
    """k-nearest-neighbour graph, symmetrized by union of directed selections.

    Each node's k neighbours are exact (:func:`_nearest`): nearest first by
    squared distance, with ties at the k-th going to the lower node index.
    Weights are 1 for ``weighting="unit"`` or exp(-|xi-xj|^2 / bandwidth^2)
    for ``weighting="gaussian"``.
    """
    points = cloud.points
    n = cloud.n
    if not 1 <= k_neighbors < n:
        raise ValueError(f"k_neighbors must be in [1, {n - 1}], got {k_neighbors}")
    idx = _nearest(points, points, k_neighbors + 1)
    src = np.repeat(np.arange(n), k_neighbors)
    dst = idx[:, 1:].reshape(-1)  # column 0 is the point itself (duplicates rejected)
    edges, _ = _unique_edges(np.stack([src, dst], axis=1), n)
    weights = _edge_weights(points, edges, weighting, bandwidth)
    graph = ProximityGraph(n=n, edges=edges, weights=weights)
    _check_connectivity(graph, on_disconnected)
    return graph


def build_mesh_graph(cloud: PointCloud, faces: np.ndarray, weighting: str = "unit",
                     bandwidth: float | None = None,
                     on_disconnected: str = "error") -> ProximityGraph:
    """Graph whose edges are the triangle edges of a mesh over the cloud."""
    faces = np.asarray(faces, dtype=np.int64).reshape(-1, 3)
    if faces.size == 0:
        raise ValueError("mesh has no faces")
    if faces.min() < 0 or faces.max() >= cloud.n:
        raise ValueError("face vertex index out of range")
    edges, _ = _unique_edges(faces[:, [[0, 1], [1, 2], [0, 2]]].reshape(-1, 2), cloud.n)
    weights = _edge_weights(cloud.points, edges, weighting, bandwidth)
    graph = ProximityGraph(n=cloud.n, edges=edges, weights=weights)
    _check_connectivity(graph, on_disconnected)
    return graph


def _row_norms(vecs: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, bit-identical to ``np.linalg.norm(row)``.

    Both reduce through a BLAS dot product; ``einsum``, ``np.sum`` and
    ``norm(axis=1)`` round differently in the last bit.
    """
    return np.sqrt((vecs[:, None, :] @ vecs[:, :, None])[:, 0, 0])


def _furthest_point_order(points: np.ndarray, count: int
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Greedy max-min selection from index 0, every point's distance to the
    selection, and each selected point's distance to its nearest other one.

    Distances ``np.linalg.norm(points - p, axis=1)`` sum one coordinate
    column at a time in :func:`_sum_of_squares`, with no (n, d) array. Anchor t
    starts at its distance to anchors 0..t-1, and each later anchor's
    distance row lowers it, so the anchor distances cost no memory beyond
    O(n + count) and no distance is computed twice.
    """
    columns = np.ascontiguousarray(points.T)
    dist = np.full(len(points), np.inf)
    selected = np.zeros(count, dtype=np.int64)
    nearest = np.empty(count)
    for t in range(count):
        if t:
            selected[t] = np.argmax(dist)
        nearest[t] = dist[selected[t]]
        p = points[selected[t]]
        row = np.sqrt(_sum_of_squares(col - coord for col, coord in zip(columns, p)))
        np.minimum(nearest[:t], row[selected[:t]], out=nearest[:t])
        np.minimum(dist, row, out=dist)
    return selected, dist, nearest


def furthest_point_sample(cloud: PointCloud | np.ndarray, count: int
                          ) -> tuple[np.ndarray, float]:
    """Greedy max-min subsample starting from index 0.

    Returns the selected indices (in selection order) and the achieved
    relative spacing: mean distance from each selected point to its nearest
    selected neighbour, divided by the greedy pass's first step, the
    distance between the first two anchors and the largest from point 0.
    That step lies in [D/2, D] for the diameter D, so the spacing lies in
    (0, 1] (0 for one anchor). The step is D where point 0 ends a farthest
    pair, as on the meshes of ``io.generate_torus`` (point 0 lies on the
    outer equator) and ``io.generate_icosphere`` (every vertex has an
    antipode). On other clouds the spacing depends on which point comes
    first and can reach twice the mean nearest distance over D. The nearest
    distances come from the distance rows the greedy pass computes anyway,
    so the working memory is O(n + count).

    A plain array must be (n, d) and finite, as a ``PointCloud`` is.
    """
    points = cloud.points if isinstance(cloud, PointCloud) else np.asarray(cloud, float)
    _check_points(points)
    n = len(points)
    if not 1 <= count <= n:
        raise ValueError(f"count must be in [1, {n}], got {count}")
    selected, _, nearest = _furthest_point_order(points, count)
    if count == 1:
        return selected, 0.0
    # the first distance row's largest entry, with the same bits
    first_step = np.sqrt(_sum_of_squares(points[selected[1]] - points[0]))
    return selected, float(nearest.mean() / first_step)


@dataclass(frozen=True)
class GaugeFrames:
    """Per-node orthonormal tangent frames, shape (n, d, m).

    Column vectors of ``frames[i]`` span the estimated tangent space at node
    i. The basis choice is an arbitrary gauge; downstream constructions are
    covariant under per-node rotations of it.
    """

    frames: np.ndarray

    def __post_init__(self):
        frames = np.asarray(self.frames, dtype=float)
        if frames.ndim != 3:
            raise ValueError("frames must have shape (n, d, m)")
        n, d, m = frames.shape
        if not 1 <= m <= d:
            raise ValueError(f"need 1 <= m <= d, got m={m}, d={d}")
        gram = np.einsum("ndm,ndk->nmk", frames, frames)
        err = np.abs(gram - np.eye(m)).max(axis=(1, 2))
        if err.max(initial=0.0) > ORTHO_TOL * 10:
            i = int(np.argmax(err))
            raise ValueError(f"frame at node {i} is not orthonormal (err={err[i]:.2e})")
        object.__setattr__(self, "frames", frames)

    @property
    def n(self) -> int:
        return self.frames.shape[0]

    @property
    def dim(self) -> int:
        return self.frames.shape[1]

    @property
    def m(self) -> int:
        return self.frames.shape[2]

    def project(self, vectors: np.ndarray) -> np.ndarray:
        """Tangent coordinates of per-node ambient vectors, (n, d) -> (n, m)."""
        return np.einsum("ndm,nd->nm", self.frames, vectors)

    def to_ambient(self, coords: np.ndarray) -> np.ndarray:
        """Ambient form of per-node tangent coordinates, (n, m) -> (n, d)."""
        return np.einsum("ndm,nm->nd", self.frames, coords)


def project_to_tangent(frames: GaugeFrames, i: int, v: np.ndarray) -> np.ndarray:
    """Least-squares coordinates of ambient vector v in the frame at node i."""
    return frames.frames[i].T @ np.asarray(v, dtype=float)


def tangent_to_ambient(frames: GaugeFrames, i: int, v_hat: np.ndarray) -> np.ndarray:
    return frames.frames[i] @ np.asarray(v_hat, dtype=float)


def _fix_column_signs(mat: np.ndarray) -> np.ndarray:
    """Sign convention: the largest-magnitude entry of each column is positive.

    Takes one matrix or a stack of them (columns along the last axis).
    """
    rows = np.argmax(np.abs(mat), axis=-2)[..., None, :]
    lead = np.take_along_axis(mat, rows, axis=-2)
    return np.where(lead < 0, -mat, mat)


def auto_frame_neighbors(degree: float | np.ndarray, m: int, n: int) -> np.ndarray:
    """Default neighbourhood size for frame estimation: 2*round(degree),
    clamped to [m, n-1]. Takes one degree or an array of them."""
    return np.clip(2 * np.round(np.asarray(degree, dtype=float)), m, n - 1).astype(np.int64)


def _neighbor_counts(graph: ProximityGraph) -> np.ndarray:
    """Each node's number of graph neighbours, whatever the edge weights:
    the degree that sizes "auto" neighbourhoods."""
    return np.bincount(graph.edges.ravel(), minlength=graph.n)


def _neighborhood_sizes(graph: ProximityGraph, m: int,
                        n_neighbors: int | str) -> np.ndarray:
    if isinstance(n_neighbors, str):
        if n_neighbors != "auto":
            raise ValueError(f"n_neighbors must be an int or 'auto', got {n_neighbors!r}")
        return auto_frame_neighbors(_neighbor_counts(graph), m, graph.n)
    if n_neighbors < m:
        raise ValueError(f"n_neighbors must be >= m={m}")
    # no neighbourhood outgrows n - 1 other nodes; clipping first keeps huge
    # sizes inside int64
    return np.full(graph.n, min(int(n_neighbors), graph.n - 1), dtype=np.int64)


def _frame_neighborhoods(graph: ProximityGraph, points: np.ndarray,
                         sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every node's frame neighbourhood as (node, neighbour) index arrays.

    Node i's neighbourhood is its first ``sizes[i]`` other nodes in
    breadth-first order: by hop count, then by distance to i, then by index
    (fewer when its component is smaller). Pairs come grouped by node, in
    ascending node order and in that order within a node.
    """
    n = graph.n
    ends = np.concatenate([graph.edges, graph.edges[:, ::-1]])
    adjacency = sparse.csr_matrix((np.ones(len(ends)), (ends[:, 0], ends[:, 1])),
                                  shape=(n, n))
    reached = sparse.identity(n, format="csr")
    ring = reached
    found = np.zeros(n, dtype=np.int64)
    nodes, nbrs, hops = [], [], []
    hop = 0
    # one ring per pass, grown only for nodes that still need neighbours
    while True:
        active = np.flatnonzero((found < sizes) & (np.diff(ring.indptr) > 0))
        if active.size == 0:
            break
        hop += 1
        select = sparse.csr_matrix((np.ones(active.size), (active, active)), shape=(n, n))
        ring = select @ ring @ adjacency
        ring.data[:] = 1.0
        ring = ring - ring.multiply(reached)
        ring.eliminate_zeros()
        reached = reached + ring
        found += np.diff(ring.indptr)
        ring_coo = ring.tocoo()
        nodes.append(ring_coo.row)
        nbrs.append(ring_coo.col)
        hops.append(np.full(ring_coo.nnz, hop))
    nodes, nbrs, hops = (np.concatenate(a).astype(np.int64) for a in (nodes, nbrs, hops))
    dist = _row_norms(points[nbrs] - points[nodes])
    order = np.lexsort((nbrs, dist, hops, nodes))
    nodes, nbrs = nodes[order], nbrs[order]
    keep = _rank_in_group(nodes) < sizes[nodes]
    return nodes[keep], nbrs[keep]


def _edge_vector_stacks(graph: ProximityGraph, points: np.ndarray, sizes: np.ndarray
                        ) -> list[tuple[np.ndarray, np.ndarray]]:
    """Edge vectors from each node to its frame neighbourhood, stacked by
    neighbourhood length: (nodes, (g, d, length) array) per length."""
    nodes, nbrs = _frame_neighborhoods(graph, points, sizes)
    counts = np.bincount(nodes, minlength=graph.n)
    starts = np.cumsum(counts) - counts
    stacks = []
    for length in np.unique(counts):
        group = np.flatnonzero(counts == length)
        cols = nbrs[starts[group][:, None] + np.arange(length)]
        stacks.append((group, np.swapaxes(points[cols] - points[group][:, None, :], 1, 2)))
    return stacks


def _zero_singular_values(sv: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The rank rule: which of the descending singular values ``sv`` (..., r)
    of matrices whose last two dimensions are ``shape[-2:]`` count as zero,
    namely those at most s_1 * max(rows, cols) * eps."""
    return sv <= sv[..., :1] * max(shape[-2:]) * np.finfo(float).eps


def _frames_from_edge_vectors(edge_vecs: np.ndarray, m: int
                              ) -> tuple[np.ndarray, np.ndarray]:
    """Sign-fixed frames (g, d, m) from stacked (g, d, N) edge vectors, N >= m:
    the left singular vectors of the m largest singular values. Also returns
    which stacks have numerical rank below m."""
    u, s, _ = np.linalg.svd(edge_vecs, full_matrices=False)
    deficient = _zero_singular_values(s, edge_vecs.shape)[:, m - 1]
    return _fix_column_signs(u[:, :, :m]), deficient


def estimate_tangent_frames(graph: ProximityGraph, cloud: PointCloud, m: int,
                            n_neighbors: int | str = "auto") -> GaugeFrames:
    """Estimate an orthonormal d x m tangent frame at every node.

    Edge vectors to the node's nearest graph neighbours are stacked
    column-wise; the left singular vectors of the m largest singular values
    give the frame. ``n_neighbors="auto"`` uses ``auto_frame_neighbors`` on
    the node's neighbour count. Neighbourhoods are breadth-first rings,
    ordered within a ring by distance then index. An error names the
    lowest-index node whose neighbourhood is too small or spans fewer than m
    dimensions.
    """
    d = cloud.dim
    n = cloud.n
    if graph.n != n:
        raise ValueError("graph and cloud size mismatch")
    if not 1 <= m <= d:
        raise ValueError(f"need 1 <= m <= d={d}, got m={m}")
    sizes = _neighborhood_sizes(graph, m, n_neighbors)
    frames = np.empty((n, d, m))
    reach = np.empty(n, dtype=np.int64)
    deficient = np.zeros(n, dtype=bool)
    for group, edge_vecs in _edge_vector_stacks(graph, cloud.points, sizes):
        reach[group] = edge_vecs.shape[2]
        if edge_vecs.shape[2] >= m:
            frames[group], deficient[group] = _frames_from_edge_vectors(edge_vecs, m)
    bad = np.flatnonzero((reach < m) | deficient)
    if bad.size:
        i = int(bad[0])
        if reach[i] < m:
            raise DegenerateNeighborhoodError(
                f"node {i}: only {reach[i]} reachable neighbours, need >= {m}"
            )
        raise DegenerateNeighborhoodError(
            f"node {i}: neighbourhood rank < {m} (degenerate local geometry)"
        )
    return GaugeFrames(frames)


def estimate_intrinsic_dim(graph: ProximityGraph, cloud: PointCloud,
                           n_neighbors: int | str = "auto",
                           gap_ratio: float = 0.5) -> int:
    """Heuristic intrinsic dimension from per-node singular-value gaps.

    For each node, m_i is the first index where the singular value drops
    below ``gap_ratio`` times its predecessor; the median over nodes is
    returned. This is advisory only and is never applied implicitly:
    frame estimation always takes an explicit m.
    """
    dims = np.empty(cloud.n, dtype=np.int64)
    sizes = _neighborhood_sizes(graph, 1, n_neighbors)
    for group, edge_vecs in _edge_vector_stacks(graph, cloud.points, sizes):
        s = np.linalg.svd(edge_vecs, compute_uv=False)
        drops = s[:, 1:] < gap_ratio * s[:, :-1]
        dims[group] = np.where(drops.any(axis=1), drops.argmax(axis=1) + 1, s.shape[1])
    return int(round(float(np.median(dims))))


# smallest singular value of T_a^T T_b at which two tangent spaces still align
MIN_TRANSPORT_SV = 1e-10


def _procrustes(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthogonal O minimizing ||b - a O||_F for stacked (..., d, m) frames,
    as U V^T from the SVD of a^T b, with that SVD's smallest singular value."""
    u, s, vt = np.linalg.svd(np.swapaxes(a, -1, -2) @ b)
    return u @ vt, s[..., -1]


def _transport_stack(frames: GaugeFrames, into: np.ndarray,
                     source: np.ndarray) -> np.ndarray:
    """Maps taking coordinates at node source[e] into the frame at into[e]."""
    maps, smallest = _procrustes(frames.frames[into], frames.frames[source])
    bad = np.flatnonzero(smallest < MIN_TRANSPORT_SV)
    if bad.size:
        e = bad[0]
        raise TransportRankError(
            f"tangent spaces at nodes {into[e]} and {source[e]} are nearly orthogonal "
            f"(min singular value {smallest[e]:.2e}); graph too coarse"
        )
    return maps


def compute_transport(frames: GaugeFrames, j: int, i: int) -> np.ndarray:
    """Orthogonal matrix O minimizing ||T_i - T_j O||_F (Procrustes/SVD).

    The full orthogonal group is allowed (rotations and reflections). Raises
    :class:`TransportRankError` when the two tangent spaces are numerically
    orthogonal, which signals that the graph is too coarse.
    """
    if i == j:
        raise ValueError("transport requires two distinct nodes")
    return _transport_stack(frames, np.array([j]), np.array([i]))[0]


@dataclass(frozen=True)
class TransportMaps:
    """Per-edge parallel transport maps between tangent frames.

    ``edges`` is an (E, 2) int array of undirected edges, i < j in each row,
    rows unique and in lexicographic order (the layout of
    ``ProximityGraph.edges``). ``maps`` is (E, m, m): ``maps[e]`` takes
    tangent coordinates at node ``edges[e, 1]`` into the frame at node
    ``edges[e, 0]``. The map of the reverse direction is the transpose;
    :meth:`for_edges` is the one place that applies this rule. Every map is
    orthogonal to ``ORTHO_TOL * 10``: a ValueError names the first that is not.
    """

    edges: np.ndarray
    maps: np.ndarray

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        maps = np.asarray(self.maps, dtype=float)
        if maps.ndim != 3 or maps.shape[0] != edges.shape[0] or maps.shape[1] != maps.shape[2]:
            raise ValueError(
                f"maps must have shape (E, m, m) with E={edges.shape[0]}, got {maps.shape}"
            )
        if np.any(edges[:, 0] >= edges[:, 1]):
            raise ValueError("edges must satisfy i < j")
        prev, nxt = edges[:-1], edges[1:]
        if np.any((nxt[:, 0] < prev[:, 0])
                  | ((nxt[:, 0] == prev[:, 0]) & (nxt[:, 1] <= prev[:, 1]))):
            raise ValueError("edges must be unique and in lexicographic order")
        err = np.abs(np.einsum("eji,ejk->eik", maps, maps) - np.eye(maps.shape[1]))
        bad = np.flatnonzero(err.max(axis=(1, 2), initial=0.0) > ORTHO_TOL * 10)
        if bad.size:
            i, j = edges[bad[0]]
            raise ValueError(f"transport map of edge ({i}, {j}) is not orthogonal")
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "maps", maps)

    def _rows(self, pairs: np.ndarray) -> np.ndarray:
        """Row of each undirected node pair in ``edges``, -1 where it has none."""
        pairs = np.sort(np.asarray(pairs, dtype=np.int64).reshape(-1, 2), axis=1)
        if self.edges.shape[0] == 0:
            return np.full(pairs.shape[0], -1)
        base = max(int(self.edges.max()), int(pairs.max(initial=0))) + 1
        keys = self.edges[:, 0] * base + self.edges[:, 1]
        wanted = pairs[:, 0] * base + pairs[:, 1]
        rows = np.minimum(np.searchsorted(keys, wanted), keys.shape[0] - 1)
        return np.where(keys[rows] == wanted, rows, -1)

    def for_edges(self, edges: np.ndarray) -> np.ndarray:
        """For each row (a, b) of ``edges``, in either order, the map taking
        coordinates at node b into the frame at node a; shape (E', m, m).

        Raises ValueError naming the first edge that has no map.
        """
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        rows = self._rows(edges)
        missing = np.flatnonzero(rows < 0)
        if missing.size:
            i, j = edges[missing[0]]
            raise ValueError(f"missing transport for edge ({i}, {j})")
        maps = self.maps[rows]
        reverse = edges[:, 0] > edges[:, 1]
        if reverse.all():  # a transposed view: BLAS rounds products as for maps[e].T
            return np.swapaxes(maps, 1, 2)
        return np.where(reverse[:, None, None], np.swapaxes(maps, 1, 2), maps)

    def into(self, i: int, j: int) -> np.ndarray:
        """The m x m orthogonal map taking coordinates at node j into the
        frame at node i; ``into(i, j)`` equals ``into(j, i).T``."""
        if not self.has_edge(i, j):
            raise KeyError((i, j))
        return self.for_edges([[i, j]])[0]

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self._rows([i, j])[0] >= 0)


def compute_transports(graph: ProximityGraph, frames: GaugeFrames) -> TransportMaps:
    """Transport maps for every graph edge, aligned with ``graph.edges``.

    For edge (i, j) the stored matrix maps coordinates at j into the frame
    at i: it is the Procrustes alignment of T_j onto T_i. All edges go
    through one batched SVD; an error names the first edge whose tangent
    spaces are numerically orthogonal.
    """
    return TransportMaps(graph.edges,
                         _transport_stack(frames, graph.edges[:, 0], graph.edges[:, 1]))


def _orientation(graph: ProximityGraph, transports: TransportMaps) -> np.ndarray | None:
    """Per-node flips s_i = +-1 of each frame's second axis after which the
    map of every edge of nonzero weight is a rotation; None when m != 2 or
    the connection is not orientable. On the signed double cover (i+ is node
    i, i- is i + n; an edge whose map has det < 0 joins the two copies) no i+
    may reach its i-, and s_i = +1 where i+ has the lower component label.
    """
    maps = transports.for_edges(graph.edges)
    if maps.shape[1] != 2:
        return None
    n, live = graph.n, graph.weights != 0
    (i, j), maps = graph.edges[live].T, maps[live]
    cross = np.where(maps[:, 0, 0] * maps[:, 1, 1] < maps[:, 0, 1] * maps[:, 1, 0], n, 0)
    heads, tails = np.hstack([[i, j + cross], [i + n, j + n - cross]])
    cover = sparse.coo_matrix((np.ones(heads.size), (heads, tails)), shape=(2 * n, 2 * n))
    _, labels = csgraph.connected_components(cover, directed=False)
    if np.any(labels[:n] == labels[n:]):
        return None
    return np.where(labels[:n] < labels[n:], 1.0, -1.0)


def mean_edge_length(graph: ProximityGraph, cloud: PointCloud) -> float:
    diffs = cloud.points[graph.edges[:, 0]] - cloud.points[graph.edges[:, 1]]
    return float(np.linalg.norm(diffs, axis=1).mean())
