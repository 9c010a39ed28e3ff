"""Per-node and per-edge loop versions of the geometry layer.

They are the reference that the array code in ``tangentgp.geometry``,
``tangentgp.spectral`` and ``tangentgp.fields`` must match bit for bit: the
same breadth-first neighbourhoods, one SVD per node and per edge, and a
dict of transports keyed by edge.
"""
import numpy as np
from scipy import sparse

from tangentgp.geometry import (
    DegenerateNeighborhoodError,
    GaugeFrames,
    TransportRankError,
    auto_frame_neighbors,
)


def neighbor_lists(graph):
    nbrs = [[] for _ in range(graph.n)]
    for i, j in graph.edges:
        nbrs[i].append(j)
        nbrs[j].append(i)
    return [np.array(sorted(v), dtype=np.int64) for v in nbrs]


def graph_neighborhood(i, size, nbr_lists, points):
    # breadth-first rings; within a ring order by distance then index
    seen = {i}
    out = []
    frontier = [i]
    while frontier and len(out) < size:
        ring = set()
        for u in frontier:
            ring.update(int(v) for v in nbr_lists[u] if v not in seen)
        if not ring:
            break
        ordered = sorted(ring, key=lambda v: (np.linalg.norm(points[v] - points[i]), v))
        out.extend(ordered)
        seen.update(ring)
        frontier = ordered
    return out[:size]


def fix_column_signs(mat):
    out = mat.copy()
    for c in range(out.shape[1]):
        r = int(np.argmax(np.abs(out[:, c])))
        if out[r, c] < 0:
            out[:, c] = -out[:, c]
    return out


def tangent_frames(graph, cloud, m, n_neighbors="auto"):
    points = cloud.points
    nbr_lists = neighbor_lists(graph)
    frames = np.empty((cloud.n, cloud.dim, m))
    for i in range(cloud.n):
        if n_neighbors == "auto":
            size = int(auto_frame_neighbors(len(nbr_lists[i]), m, cloud.n))
        else:
            size = int(n_neighbors)
        nbrs = graph_neighborhood(i, size, nbr_lists, points)
        if len(nbrs) < m:
            raise DegenerateNeighborhoodError(
                f"node {i}: only {len(nbrs)} reachable neighbours, need >= {m}"
            )
        edge_vecs = (points[nbrs] - points[i]).T  # d x N
        u, s, _ = np.linalg.svd(edge_vecs, full_matrices=False)
        rank_tol = s[0] * max(edge_vecs.shape) * np.finfo(float).eps
        if s.shape[0] < m or s[m - 1] <= rank_tol:
            raise DegenerateNeighborhoodError(
                f"node {i}: neighbourhood rank < {m} (degenerate local geometry)"
            )
        frames[i] = fix_column_signs(u[:, :m])
    return GaugeFrames(frames)


def transport(frames, j, i):
    """Orthogonal O minimizing ||T_i - T_j O||_F."""
    u, s, vt = np.linalg.svd(frames.frames[j].T @ frames.frames[i])
    if s[-1] < 1e-10:
        raise TransportRankError(
            f"tangent spaces at nodes {j} and {i} are nearly orthogonal "
            f"(min singular value {s[-1]:.2e}); graph too coarse"
        )
    return u @ vt


def transports(graph, frames):
    """{(i, j): map taking coordinates at j into the frame at i} per edge."""
    return {(int(i), int(j)): transport(frames, int(i), int(j)) for i, j in graph.edges}


def connection_laplacian(graph, maps, m):
    rows, cols, vals = [], [], []
    brow, bcol = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
    brow, bcol = brow.ravel(), bcol.ravel()

    def add_block(bi, bj, block):
        rows.append(bi * m + brow)
        cols.append(bj * m + bcol)
        vals.append(block.ravel())

    for i in range(graph.n):
        add_block(i, i, graph.degrees[i] * np.eye(m))
    for (i, j), w in zip(graph.edges, graph.weights):
        o_ij = maps[(int(i), int(j))]
        add_block(i, j, -w * o_ij)
        add_block(j, i, -w * o_ij.T)
    size = graph.n * m
    return sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(size, size),
    ).tocsr()


def max_pairwise_distance(points):
    d2 = np.sum((points[:, None, :] - points[None, :, :]) ** 2, axis=2)
    return float(np.sqrt(d2.max()))


def furthest_point_order(points, count):
    """Greedy max-min selection from index 0 with one norm per step, every
    point's distance to the selection, and each selected point's distance to
    its nearest other selected point, from all pairs of selected points."""
    selected = np.empty(count, dtype=np.int64)
    selected[0] = 0
    dist = np.linalg.norm(points - points[0], axis=1)
    for t in range(1, count):
        nxt = int(np.argmax(dist))
        selected[t] = nxt
        dist = np.minimum(dist, np.linalg.norm(points - points[nxt], axis=1))
    anchors = points[selected]
    nearest = np.empty(count)
    for i in range(count):
        others = np.linalg.norm(anchors - anchors[i], axis=1)
        others[i] = np.inf
        nearest[i] = others.min()
    return selected, dist, nearest


def nearest(points, queries, k):
    """Stable brute force: every squared distance, summed one coordinate at a
    time, and each query's first k in (distance, index) order."""
    d2 = np.zeros((queries.shape[0], points.shape[0]))
    for a in range(points.shape[1]):
        d2 += (queries[:, a, None] - points[None, :, a]) ** 2
    return np.argsort(d2, axis=1, kind="stable")[:, :k]
