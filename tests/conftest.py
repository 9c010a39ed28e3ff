import math
from dataclasses import dataclass

import numpy as np
import pytest

import tangentgp as tg
from tangentgp import fields as tfields
from tangentgp import io as tio
from tangentgp import spectral


@dataclass
class ManifoldSetup:
    cloud: tg.PointCloud
    faces: np.ndarray
    graph: tg.ProximityGraph
    frames: tg.GaugeFrames
    transports: tg.TransportMaps
    lap: spectral.GraphLaplacian
    con: spectral.ConnectionLaplacian


def build_setup(points, faces, k_neighbors=6, m=2):
    cloud = tg.PointCloud(points)
    graph = tg.build_knn_graph(cloud, k_neighbors)
    frames = tg.estimate_tangent_frames(graph, cloud, m)
    transports = tg.compute_transports(graph, frames)
    lap = tg.assemble_graph_laplacian(graph)
    con = tg.assemble_connection_laplacian(graph, frames, transports)
    return ManifoldSetup(cloud, faces, graph, frames, transports, lap, con)


def big_setup():
    """The 40 x 40 mesh torus (1600 nodes): cloud, graph, frames and both
    Laplacians."""
    points, faces = tio.generate_torus(2.0, 0.8, 40, 40)
    cloud = tg.PointCloud(points)
    graph = tg.build_mesh_graph(cloud, faces)
    frames = tg.estimate_tangent_frames(graph, cloud, 2)
    transports = tg.compute_transports(graph, frames)
    con = tg.assemble_connection_laplacian(graph, frames, transports)
    lap = tg.assemble_graph_laplacian(graph)
    return cloud, graph, frames, con, lap


def svd_lml(feats, y, noise):
    """Reference LML of y under K = A A^T + noise I from the thin SVD
    A = U S V^T, with the part of y outside the range of U computed directly."""
    u, s, _ = np.linalg.svd(feats, full_matrices=False)
    uy = u.T @ y
    resid = y - u @ uy
    quad = resid @ resid / noise + np.sum(uy**2 / (s**2 + noise))
    logdet = (y.shape[0] - s.shape[0]) * math.log(noise) + np.sum(np.log(s**2 + noise))
    return -0.5 * quad - 0.5 * logdet - 0.5 * y.shape[0] * math.log(2 * math.pi)


def dtc_oracle(a_u, a_f, a_q, y, noise):
    """Dense DTC posterior (Quinonero-Candela & Rasmussen 2005) for K = A A^T:
    Q = A P_u A^T with P_u = pinv(A_u) A_u, mean Q_qf (Q_ff + noise I)^-1 y and
    covariance K_qq - Q_qf (Q_ff + noise I)^-1 Q_fq over all query rows."""
    p_u = np.linalg.pinv(a_u, rcond=max(a_u.shape) * np.finfo(float).eps) @ a_u
    q_ff = a_f @ p_u @ a_f.T
    q_qf = a_q @ p_u @ a_f.T
    noisy = q_ff + noise * np.eye(q_ff.shape[0])
    mean = q_qf @ np.linalg.solve(noisy, y)
    return mean, a_q @ a_q.T - q_qf @ np.linalg.solve(noisy, q_qf.T)


@pytest.fixture(scope="session")
def torus():
    points, faces = tio.generate_torus(2.0, 0.8, 25, 16)
    return build_setup(points, faces)


@pytest.fixture(scope="session")
def torus_spectrum(torus):
    return tg.eigendecompose(torus.con, 60)


@pytest.fixture(scope="session")
def torus_scalar_spectrum(torus):
    return tg.eigendecompose(torus.lap, 60)


@pytest.fixture(scope="session")
def torus_truth(torus):
    gen = tfields.generate_experiment_field(
        torus.cloud, torus.frames, torus.con, torus.lap, anchor_count=40, seed=7)
    return gen


@pytest.fixture(scope="session")
def icosphere():
    points, faces = tio.generate_icosphere(2)
    return build_setup(points, faces)


@pytest.fixture(scope="session")
def mesh_torus_con():
    """Connection Laplacian of the 40 x 40 mesh torus (3200 rows, above the
    dense cutoff) and its dense eigenvalues."""
    points, faces = tio.generate_torus(2.0, 0.8, 40, 40)
    cloud = tg.PointCloud(points)
    graph = tg.build_mesh_graph(cloud, faces)
    frames = tg.estimate_tangent_frames(graph, cloud, 2)
    con = tg.assemble_connection_laplacian(graph, frames,
                                           tg.compute_transports(graph, frames))
    return con, np.linalg.eigvalsh(con.matrix.toarray())


@pytest.fixture(scope="session")
def small_torus():
    points, faces = tio.generate_torus(2.0, 0.8, 10, 6)  # 60 vertices
    return build_setup(points, faces, k_neighbors=5)
