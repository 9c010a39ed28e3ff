"""Graph and connection Laplacians, their low-end spectra, and positional encodings.

The connection Laplacian acts on the discrete tangent bundle: an nm x nm
block operator with diagonal blocks D_ii * I and off-diagonal blocks
-w_ij * O_ij for adjacent nodes, where O_ij transports coordinates at j into
the frame at i. With this sign convention parallel fields span its null
space and its quadratic form is the vector Dirichlet energy. With m = 1
and every transport 1 it is the graph Laplacian D - W, so one operator type
serves both; ``GraphLaplacian`` is another name for it.

For m = 2 on an orientable connection the operator is C-linear, the real
form of an n x n complex Hermitian one that assembly stores, and
:func:`eigendecompose` solves that form instead; every other operator takes
the real path. Eigenvalues then come in exact pairs. A spectrum ends only
between eigenvalue clusters, whose eigenvectors rounding would otherwise pick.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh, splu

from .geometry import GaugeFrames, ProximityGraph, TransportMaps, _fix_column_signs, \
    _orientation

__all__ = [
    "GraphLaplacian",
    "ConnectionLaplacian",
    "Spectrum",
    "EigensolverError",
    "assemble_graph_laplacian",
    "assemble_connection_laplacian",
    "eigendecompose",
    "truncate",
    "positional_encoding",
    "positional_encodings",
    "scalar_frames",
    "dirichlet_energy",
    "LANCZOS_TOL",
]

RESIDUAL_TOL = 1e-8
DEGENERATE_GAP = 1e-8
# the Lanczos pole at -SHIFT_FRACTION * mean diagonal, just below the spectrum
SHIFT_FRACTION = 1e-3
# ARPACK's convergence tolerance, and its iteration budget per operator row
LANCZOS_TOL = 1e-10
LANCZOS_ITERATIONS_PER_ROW = 10


class EigensolverError(RuntimeError):
    """Iterative eigensolver failed to converge or residuals exceed tolerance."""


@dataclass(frozen=True)
class ConnectionLaplacian:
    """Sparse symmetric block operator on the tangent bundle, shape (nm, nm).
    For an orientable m = 2 connection, assembly also sets its n x n complex
    ``hermitian`` form and the per-node frame ``flips`` that orient it; both
    stay None otherwise and on a hand-built operator, which takes the real path.
    """

    matrix: sparse.csr_matrix
    n: int
    m: int
    hermitian: sparse.csr_matrix | None = None
    flips: np.ndarray | None = None

    @property
    def size(self) -> int:
        return self.n * self.m


# the graph Laplacian is the connection Laplacian of the trivial line bundle
GraphLaplacian = ConnectionLaplacian


def assemble_graph_laplacian(graph: ProximityGraph) -> ConnectionLaplacian:
    """L = diag(W 1) - W: the m = 1 connection Laplacian, every transport 1."""
    lap = sparse.diags(graph.degrees) - graph.weight_matrix()
    return ConnectionLaplacian(lap.tocsr(), graph.n, 1)


def assemble_connection_laplacian(graph: ProximityGraph, frames: GaugeFrames,
                                  transports: TransportMaps) -> ConnectionLaplacian:
    """Block operator with D_ii * I on the diagonal and -w_ij * O_ij off it.

    Symmetry holds by construction because O_ji = O_ij^T. Raises ValueError
    naming the first graph edge that has no transport map. Where
    ``geometry._orientation`` orients an m = 2 connection, each flipped block
    [[a, b], [c, d]] is a scaled rotation and H_ij = (a + d)/2 + i(c - b)/2.
    """
    n, m = graph.n, frames.m
    if frames.n != n:
        raise ValueError("graph and frames size mismatch")
    i, j = graph.edges[:, 0], graph.edges[:, 1]
    w = graph.weights[:, None, None]
    blocks = np.concatenate([graph.degrees[:, None, None] * np.eye(m),
                             -w * transports.for_edges(graph.edges),
                             -w * transports.for_edges(graph.edges[:, ::-1])])
    block_rows = np.concatenate([np.arange(n), i, j])
    block_cols = np.concatenate([np.arange(n), j, i])
    brow, bcol = np.divmod(np.arange(m * m), m)
    mat = sparse.coo_matrix(
        (blocks.reshape(-1), ((block_rows[:, None] * m + brow).reshape(-1),
                              (block_cols[:, None] * m + bcol).reshape(-1))),
        shape=(n * m, n * m),
    )
    flips, hermitian = _orientation(graph, transports), None
    if flips is not None:
        (a, b), (c, d) = blocks[:, 0].T, blocks[:, 1].T
        rows, cols = flips[block_rows], flips[block_cols]
        b, c, d = b * cols, c * rows, d * rows * cols
        hermitian = sparse.coo_matrix(((a + d) / 2 + 1j * ((c - b) / 2),
                                       (block_rows, block_cols)), shape=(n, n)).tocsr()
    return ConnectionLaplacian(mat.tocsr(), n, m, hermitian, flips)


@dataclass(frozen=True)
class Spectrum:
    """The k smallest eigenpairs of a Laplacian, eigenvalues ascending.

    Eigenvectors are columns of an orthonormal (size, k) matrix with the
    sign convention that each column's largest-magnitude entry is positive.
    ``next_eigenvalue`` is the (k+1)-th, None at the end of the spectrum;
    from :func:`eigendecompose` it lies a cluster gap above the k-th.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    n: int
    m: int
    next_eigenvalue: float | None = None

    @property
    def k(self) -> int:
        return self.eigenvalues.shape[0]

    def splits_degenerate_cluster(self, gap: float | None = None) -> bool:
        if self.next_eigenvalue is None or self.k == 0:
            return False
        gap = _cluster_gap(self.next_eigenvalue) if gap is None else gap
        return (self.next_eigenvalue - self.eigenvalues[-1]) < gap


def _cluster_gap(value):
    """Eigenvalues less than this below ``value`` share its cluster."""
    return DEGENERATE_GAP * np.maximum(1.0, value)


def _whole_cluster_count(vals: np.ndarray, k: int) -> int | None:
    """The smallest k' >= k with vals[k'] a cluster gap above vals[k' - 1],
    the witness; None when the ascending ``vals`` end inside the cluster."""
    ends = np.diff(vals[k - 1:]) >= _cluster_gap(vals[k:])
    return k + int(np.argmax(ends)) if ends.any() else None


def _rayleigh_ritz(mat: sparse.csr_matrix,
                   basis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Ritz pairs of L on span(basis), ascending."""
    q, _ = np.linalg.qr(basis)
    proj = q.conj().T @ (mat @ q)
    vals, coeffs = np.linalg.eigh((proj + proj.conj().T) / 2)
    return vals, q @ coeffs


def _count_below(mat: sparse.csr_matrix, sigma: float) -> int:
    """Number of eigenvalues of the symmetric or Hermitian L below sigma, exactly.

    By Sylvester's law of inertia it is the number of negative pivots of an
    unpivoted LU (an LDL^H) of L - sigma*I. SuperLU keeps the diagonal pivots
    at ``diag_pivot_thresh=0`` unless one is exactly zero; a row permutation
    other than the symmetric column ordering voids the count.
    """
    try:
        # the transpose of the CSR form is the CSC form of L^T = conj(L), which
        # has L's spectrum; the copy is freed before U's diagonal is read
        lu = splu((mat - sigma * sparse.identity(mat.shape[0], format="csr")).T,
                  permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
                  options={"SymmetricMode": True})
    except RuntimeError as exc:  # SuperLU: sigma is an eigenvalue
        raise EigensolverError(f"cannot factorise L - {sigma:.6e} I: {exc}") from exc
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise EigensolverError(
            f"LU of L - {sigma:.6e} I pivoted off the diagonal; no inertia count")
    return int(np.count_nonzero(lu.U.diagonal().real < 0))


def _missed_pairs(mat: sparse.csr_matrix, vecs: np.ndarray, wanted: int,
                  sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Up to ``wanted`` eigenvectors of L orthogonal to ``vecs`` whose
    eigenvalue lies below sigma.

    ARPACK finds the largest eigenvalues mu of P (L + delta*I)^-1 P, P the
    projector onto the complement of span(vecs), which are 1 / (lambda +
    delta) for the smallest eigenvalues lambda of L that ``vecs`` does not
    span. The pole -delta lies just below the spectrum; one sparse LU applies
    the inverse and is freed on return. The start vector is a seeded draw of
    L's dtype (two when complex).
    """
    size, count = vecs.shape
    delta = SHIFT_FRACTION * float(mat.diagonal().real.mean())
    try:
        lu = splu((mat + delta * sparse.identity(size)).tocsc(),
                  permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:  # SuperLU: factor is exactly singular
        raise EigensolverError(f"cannot factorise L + {delta:.3e} I: {exc}") from exc

    def project(x: np.ndarray) -> np.ndarray:
        return x - vecs @ (vecs.conj().T @ x)

    complement = LinearOperator((size, size), dtype=mat.dtype,
                                matvec=lambda x: project(lu.solve(project(x))))
    start = rng.standard_normal(size)
    if np.iscomplexobj(mat):
        start = start + 1j * rng.standard_normal(size)
    start = project(start)
    # the complement has rank size - count, so every mu asked for is positive;
    # eigsh hands a complex Hermitian operator to eigs (znaupd)
    wanted, maxiter = min(wanted, size - count - 1), LANCZOS_ITERATIONS_PER_ROW * size
    try:
        mu, found = eigsh(complement, k=wanted, which="LA", tol=LANCZOS_TOL,
                          maxiter=maxiter, v0=start / np.linalg.norm(start))
    except ArpackNoConvergence as exc:
        raise EigensolverError(
            f"Lanczos failed to converge after {maxiter} iterations: "
            f"{len(exc.eigenvalues)} of {wanted} pairs converged"
        ) from exc
    return found[:, 1.0 / mu - delta < sigma]


def _lanczos(mat: sparse.csr_matrix, k: int, seed: int
             ) -> tuple[np.ndarray, np.ndarray] | None:
    """The smallest eigenpairs of the symmetric or Hermitian L, ascending,
    grown from an empty basis as :func:`eigendecompose` describes; None once
    the pairs needed pass ARPACK's size - 2."""
    rng = np.random.default_rng(seed)
    vals, vecs = np.empty(0), np.empty((mat.shape[0], 0), dtype=mat.dtype)
    target, needed = np.inf, k + 1
    form = "complex Hermitian form" if np.iscomplexobj(mat) else "real operator"
    while needed <= mat.shape[0] - 2:
        held = int(np.count_nonzero(vals < target))
        missed = _missed_pairs(mat, vecs, needed - held, target, rng)
        vals, vecs = _rayleigh_ritz(mat, np.hstack([vecs, missed]))
        grown = int(np.count_nonzero(vals < target))
        if grown <= held:
            raise EigensolverError(
                f"Lanczos basis of the {form} holds {grown} of the {needed} "
                f"eigenvalues below {target:.6e}, and the deflated search adds none")
        sigma = vals[-1] - _cluster_gap(vals[-1])
        count, found = _count_below(mat, sigma), int(np.count_nonzero(vals < sigma))
        if found > count:
            raise EigensolverError(
                f"Lanczos basis of the {form} holds {found} Ritz values "
                f"below {sigma:.6e}, but the inertia count is {count}")
        if found < count:
            target, needed = sigma, count
        elif _whole_cluster_count(vals, k) is not None:
            return vals, vecs
        else:
            target, needed = np.inf, vals.size + (vals.size - found)
    return None


def _real_pairs(z: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Each eigenvector z of the Hermitian form as the two real eigenvectors
    x = (Re z_i, s_i Im z_i) and Jx = (-Im z_i, s_i Re z_i) of L, in that
    order: shape (2n, 2 * columns)."""
    n, count = z.shape
    pairs = np.empty((n, 2, count, 2))
    pairs[:, 0, :, 0] = z.real
    pairs[:, 1, :, 0] = signs[:, None] * z.imag
    pairs[:, 0, :, 1] = -z.imag
    pairs[:, 1, :, 1] = signs[:, None] * z.real
    return pairs.reshape(2 * n, 2 * count)


def eigendecompose(operator: ConnectionLaplacian, k: int,
                   method: str = "auto", seed: int = 0) -> Spectrum:
    """The smallest eigenpairs of a symmetric PSD Laplacian, in whole clusters:
    k rounds up to k', the end of the cluster that holds the k-th eigenvalue,
    so the (k'+1)-th, ``next_eigenvalue``, lies a cluster gap (``DEGENERATE_GAP``
    times max(1, value)) above the k'-th.

    ``method`` "auto" grows a basis from empty by one kind of step, a
    deflated search: ARPACK on (L + delta*I)^-1, applied by one sparse LU and
    restricted to the complement of the basis, to relative accuracy
    ``LANCZOS_TOL`` within ``LANCZOS_ITERATIONS_PER_ROW`` iterations per
    operator row (more raises ``EigensolverError``), then one Rayleigh-Ritz
    step on the grown basis. The first search asks for k + 1 pairs. After
    each, the eigenvalues below sigma, a cluster gap under the largest Ritz
    value, are counted by one unpivoted LU of L - sigma*I and Sylvester's law
    of inertia (Ericsson & Ruhe 1980): a single-vector Krylov method can miss
    copies of a repeated eigenvalue, and the count also certifies the
    witness. Ritz values below sigma short of the count ask the next search
    for exactly the missing pairs; a full count whose values end inside a
    cluster asks it for as many more pairs as the top cluster holds, so a
    solve is extended, never restarted. Every pair found is returned once a
    cluster ends at or past k. A search that adds no pair, a count below the
    Ritz values found, or a factorisation that pivots raises
    ``EigensolverError`` rather than return an incomplete spectrum. "dense",
    the tests' oracle, and a solve that asks for more pairs than ARPACK can
    serve take numpy's eigh.

    An orientable m = 2 connection Laplacian L is C-linear: assembly stores
    its n x n complex Hermitian form H of the vector heat method (Sharp et
    al. 2019) as ``operator.hermitian``. Each eigenvalue of H is one of L
    twice over, so Lanczos solves H for the ceil(k/2) pairs that hold the
    first k and one more (dense when H cannot serve them), and returns each
    complex eigenvector as two real ones, x and its quarter turn Jx, in the
    caller's gauge; k' is even. Every operator without H (the m = 1 graph
    Laplacian, m > 2, a Moebius strip, a hand-built operator) takes the real
    path for its k + 1 smallest pairs; the dense path is the same for all.
    The residual, PSD and sign conventions are applied to the real L either
    way. The start vectors are seeded: for a fixed seed and a fixed BLAS
    thread count, results are byte-identical across runs, and the
    eigenspaces kept do not depend on the route or the thread count.
    """
    mat = operator.matrix
    size = mat.shape[0]
    if not 1 <= k <= size:
        raise ValueError(f"k must be in [1, {size}], got {k}")
    if method not in ("auto", "dense"):
        raise ValueError(f"unknown method {method!r}")
    hermitian, pairs = operator.hermitian, None
    if method == "auto" and hermitian is not None:
        pairs = _lanczos(hermitian, (k + 1) // 2, seed)
        if pairs is not None:
            pairs = np.repeat(pairs[0], 2), _real_pairs(pairs[1], operator.flips)
    elif method == "auto":
        pairs = _lanczos(mat, k, seed)
    vals, vecs = np.linalg.eigh(mat.toarray()) if pairs is None else pairs
    k = _whole_cluster_count(vals, k) or size
    vals = vals[:k + 1]

    # residual gate, relative to the operator's Frobenius norm
    fro = float(np.sqrt((mat.data**2).sum()))
    resid = np.linalg.norm(mat @ vecs[:, :k] - vecs[:, :k] * vals[:k], axis=0)
    worst = float(resid.max())
    if worst > RESIDUAL_TOL * fro:
        raise EigensolverError(
            f"eigenpair residual {worst:.3e} exceeds {RESIDUAL_TOL:.0e} * |L|_F = "
            f"{RESIDUAL_TOL * fro:.3e}"
        )

    lam_max = float(vals.max()) if vals.size else 0.0
    floor = -1e-8 * max(lam_max, 1.0)
    if vals.min() < floor:
        raise EigensolverError(
            f"operator is not PSD: eigenvalue {vals.min():.3e} below tolerance"
        )
    vals = np.clip(vals, 0.0, None)
    return Spectrum(vals[:k], _fix_column_signs(vecs[:, :k]), operator.n, operator.m,
                    float(vals[k]) if vals.shape[0] > k else None)


def truncate(spectrum: Spectrum, k: int) -> Spectrum:
    """The lowest pairs of ``spectrum`` for an eigenvector-count sweep, k
    rounded up to a cluster end as in :func:`eigendecompose`."""
    if not 1 <= k <= spectrum.k:
        raise ValueError(f"k must be in [1, {spectrum.k}], got {k}")
    vals = np.append(spectrum.eigenvalues, [] if spectrum.next_eigenvalue is None
                     else spectrum.next_eigenvalue)
    k = _whole_cluster_count(vals, k) or spectrum.k
    return replace(spectrum, eigenvalues=vals[:k],
                   eigenvectors=spectrum.eigenvectors[:, :k],
                   next_eigenvalue=float(vals[k]) if k < vals.size else None)


def scalar_frames(n: int) -> GaugeFrames:
    """Unit frames for the trivial line bundle (scalar signals, m = d = 1)."""
    return GaugeFrames(np.ones((n, 1, 1)))


def _eigencoordinates(spectrum: Spectrum, nodes=slice(None)) -> np.ndarray:
    """Each of ``nodes``' m-row block of the eigenvector matrix, the rows
    i*m .. (i+1)*m - 1 of node i, scaled by sqrt(n*m): shape (..., m, k)."""
    n, m = spectrum.n, spectrum.m
    return spectrum.eigenvectors.reshape(n, m, spectrum.k)[nodes] * np.sqrt(n * m)


def positional_encodings(spectrum: Spectrum, frames: GaugeFrames) -> np.ndarray:
    """All positional encodings, shape (n, d, k): node i's is T_i times its
    scaled eigencoordinate block (see :func:`positional_encoding`)."""
    if frames.n != spectrum.n or frames.m != spectrum.m:
        raise ValueError("spectrum and frames disagree on (n, m)")
    return np.einsum("ndm,nmk->ndk", frames.frames, _eigencoordinates(spectrum))


def positional_encoding(spectrum: Spectrum, frames: GaugeFrames, i: int) -> np.ndarray:
    """Single-node encoding P_i = T_i @ (sqrt(nm) * U[i*m:(i+1)*m, :]), (d, k)."""
    if not 0 <= i < spectrum.n:
        raise IndexError(f"node {i} out of range [0, {spectrum.n})")
    return frames.frames[i] @ _eigencoordinates(spectrum, i)


def dirichlet_energy(graph: ProximityGraph, transports: TransportMaps,
                     coords: np.ndarray) -> float:
    """Sum over undirected edges of w_ij |v_i - O_ij v_j|^2.

    ``coords`` holds per-node tangent coordinates, shape (n, m). Equals the
    quadratic form of the connection Laplacian on the stacked field.
    """
    coords = np.asarray(coords, dtype=float)
    if coords.shape[0] != graph.n:
        raise ValueError("field has wrong number of nodes")
    i, j = graph.edges[:, 0], graph.edges[:, 1]
    maps = transports.for_edges(graph.edges)
    diff = coords[i] - (maps @ coords[j][:, :, None])[:, :, 0]
    sq = (diff[:, None, :] @ diff[:, :, None])[:, 0, 0]
    # cumsum adds in edge order; np.sum's pairwise order rounds differently
    return float(np.cumsum(graph.weights * sq)[-1])
