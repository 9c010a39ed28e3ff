"""Deterministic ingestion and emission of clouds, meshes, fields, spectra,
models, and experiment configs.

CSV is the interchange spine; legacy ASCII VTK is emitted for visualization
only. `_write_text` writes every file, one row format per block of rows built
from the single float format %.17g: identical inputs give byte-identical files
and every double round-trips bit for bit. `_parse_block` reads every numeric
block with one ``np.array`` conversion per chunk of rows, which accepts exactly
the numbers Python's float/int accept; a bad row, or a non-finite value, is a
ParseError with its source line number.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from . import gp as gp_mod
from .geometry import GaugeFrames, PointCloud, ProximityGraph, _row_norms, _unique_edges
from .spectral import LANCZOS_TOL, Spectrum

__all__ = [
    "ParseError",
    "NonManifoldWarning",
    "load_point_cloud",
    "read_vector_csv",
    "write_vector_csv",
    "write_variances_csv",
    "load_mesh",
    "write_obj",
    "generate_torus",
    "generate_icosphere",
    "write_vtk",
    "save_spectrum",
    "load_spectrum",
    "save_model",
    "load_model",
    "ExperimentConfig",
    "load_config",
    "check_config",
    "config_hash",
    "write_metrics_json",
    "write_json_atomic",
    "sha256_file",
]

_FLOAT = "%.17g"  # the one float format: 17 significant digits round-trip every double
_CHUNK = 4096  # rows per conversion or write: bounds the strings held at once


class ParseError(ValueError):
    """Malformed input file; message carries path and line number."""

    def __init__(self, path, line_no: int | None, message: str):
        loc = f"{path}:{line_no}" if line_no is not None else str(path)
        super().__init__(f"{loc}: {message}")
        self.line_no = line_no


class NonManifoldWarning(UserWarning):
    """An edge of the mesh is shared by more than two faces."""


# The one row writer and the one block parser of every text format

def _write_text(path, *parts) -> None:
    """Write header lines (strings) and row blocks ``(fmt, *arrays)``: one line
    ``fmt % row`` per row, a row joining the same row of each 2-D array."""
    with open(path, "w") as fh:
        for part in parts:
            if isinstance(part, str):
                fh.write(part + "\n")
                continue
            fmt, *blocks = part
            for start in range(0, len(blocks[0]), _CHUNK):
                rows = zip(*[b[start:start + _CHUNK].tolist() for b in blocks], strict=True)
                fh.write("".join([fmt % tuple(chain(*r)) + "\n" for r in rows]))
        if not fh.tell():
            fh.write("\n")  # a file of no lines is one newline


def _parse_block(path, lines, line_nos, width, ids=False, split=str.split,
                 wrong_width="expected {width} columns, got {got}",
                 bad_number="bad number: {exc}", dtype=float) -> list[np.ndarray]:
    """[int64 ids,] ``dtype`` values of the ``width``-token rows
    ``lines[ln - 1]`` for the 1-based ``line_nos``; with ``ids`` the first
    column also comes back as int64. Only a chunk of rows that fails to
    convert is rescanned, row by row, to raise the ParseError of its first
    bad row; then the first row holding a non-finite value raises one."""

    def convert(rows):
        head = [np.array([r[0] for r in rows], dtype=np.int64)] if ids else []
        return (*head, np.array(rows, dtype=dtype).reshape(len(rows), width))

    parts = []  # one chunk even for no rows, so that the arrays exist
    for start in range(0, max(len(line_nos), 1), _CHUNK):
        chunk = [split(lines[ln - 1]) for ln in line_nos[start:start + _CHUNK]]
        try:
            if set(map(len, chunk)) - {width}:
                raise ValueError("ragged rows")
            parts.append(convert(chunk))
        except (ValueError, OverflowError):
            for ln, cells in zip(line_nos[start:start + _CHUNK], chunk):
                if len(cells) != width:
                    raise ParseError(path, ln, wrong_width.format(width=width,
                                                                  got=len(cells)))
                try:
                    convert([cells])
                except (ValueError, OverflowError) as exc:
                    raise ParseError(path, ln, bad_number.format(exc=exc)) from None
            raise
    arrays = [np.concatenate(blocks) for blocks in zip(*parts)]
    bad = np.flatnonzero(~np.isfinite(arrays[-1]).all(axis=1))
    if bad.size:
        raise ParseError(path, line_nos[bad[0]], "non-finite value")
    return arrays


# ---------------------------------------------------------------------------
# CSV point/vector format: header id,x0..x{d-1}[,v0..v{d-1}]
# ---------------------------------------------------------------------------

def write_vector_csv(path, points: np.ndarray, vectors: np.ndarray | None = None,
                     ids: np.ndarray | None = None) -> None:
    points = np.asarray(points, dtype=float)
    n, d = points.shape
    header = ["id"] + [f"x{a}" for a in range(d)]
    if vectors is not None:
        vectors = np.asarray(vectors, dtype=float)
        if vectors.shape != (n, d):
            raise ValueError("vectors shape mismatch")
        header += [f"v{a}" for a in range(d)]
    ids = np.arange(n) if ids is None else np.asarray(ids)
    blocks = (ids[:, None], points) + (() if vectors is None else (vectors,))
    _write_text(path, ",".join(header), ("%d" + f",{_FLOAT}" * (len(header) - 1), *blocks))


def write_variances_csv(path, ids: np.ndarray, covariances: np.ndarray) -> None:
    """``id,variance_trace``: the trace of each node's d x d covariance."""
    traces = np.trace(covariances, axis1=1, axis2=2)
    _write_text(path, "id,variance_trace",
                ("%d," + _FLOAT, np.asarray(ids)[:, None], traces[:, None]))


def read_vector_csv(path) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Raw (ids, points, vectors-or-None) from the CSV format; no cloud invariants."""
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise ParseError(path, 1, "empty file")
    header = [h.strip() for h in lines[0].split(",")]
    if not header or header[0] != "id":
        raise ParseError(path, 1, "header must start with 'id'")
    d = sum(h.startswith("x") for h in header)
    if d < 1 or header[1:1 + d] != [f"x{a}" for a in range(d)]:
        raise ParseError(path, 1, "expected columns x0..x{d-1} after id")
    has_vectors = len(header) > 1 + d
    if has_vectors and header[1 + d:] != [f"v{a}" for a in range(d)]:
        raise ParseError(path, 1, "columns after x0..x{d-1} must be v0..v{d-1}")
    rows = [ln for ln in range(2, len(lines) + 1) if lines[ln - 1].strip()]
    ids, values = _parse_block(path, lines, rows, 1 + d + (d if has_vectors else 0),
                               ids=True, split=lambda line: line.split(","))
    return ids, values[:, 1:1 + d].copy(), values[:, 1 + d:].copy() if has_vectors else None


def load_point_cloud(path) -> tuple[PointCloud, np.ndarray]:
    """PointCloud (with invariants enforced) plus the file's node ids."""
    ids, pts, vecs = read_vector_csv(path)
    return PointCloud(pts, vecs), ids


# ---------------------------------------------------------------------------
# Meshes: ASCII OBJ and PLY, fan triangulation, strict parsing
# ---------------------------------------------------------------------------

_OBJ_SKIP = {"vn", "vt", "vp", "o", "g", "s", "usemtl", "mtllib", "l", "p"}


def _fan(indices: list[int], path, ln: int) -> list[list[int]]:
    if len(indices) < 3:
        raise ParseError(path, ln, "face with fewer than 3 vertices")
    return [[indices[0], indices[a], indices[a + 1]] for a in range(1, len(indices) - 1)]


def _obj_face(path, line: str, ln: int, vertex_count: int) -> list[list[int]]:
    """The triangles of one face line, fanned, with ``vertex_count`` vertices
    declared before it: every form the OBJ format allows (``v/vt/vn``
    corners, polygons), and the ParseError of a bad one."""
    idx = []
    for tok in line.split()[1:]:
        try:
            v = int(tok.split("/")[0])
        except ValueError:
            raise ParseError(path, ln, f"bad face index {tok!r}") from None
        if v <= 0:
            raise ParseError(path, ln, "face indices must be positive")
        if v > vertex_count:
            raise ParseError(path, ln, f"face index {v} out of range")
        idx.append(v - 1)
    return _fan(idx, path, ln)


def _obj_faces(path, lines, rows, counts: np.ndarray) -> np.ndarray:
    """The triangles of the face lines ``rows``, the i-th with ``counts[i]``
    vertices declared before it: plain "f a b c" rows in one int64
    conversion with the range checked on the array, any other chunk line by
    line, which raises the first bad row's ParseError."""
    try:
        (tri,) = _parse_block(path, lines, rows, 3, split=lambda s: s.split()[1:],
                              dtype=np.int64)
    except ParseError:
        pass  # a row of another form, or a bad one
    else:
        if not ((tri <= 0) | (tri > counts[:, None])).any():
            return tri - 1
    tris = [t for ln, count in zip(rows, counts.tolist())
            for t in _obj_face(path, lines[ln - 1], ln, count)]
    return np.array(tris, dtype=np.int64).reshape(-1, 3)


def _load_obj(path) -> tuple[np.ndarray, np.ndarray]:
    lines = Path(path).read_text().split("\n")
    vert_lines: list[int] = []
    face_lines: list[int] = []
    error = None
    for ln, line in enumerate(lines, start=1):
        tokens = line.split()
        if not tokens or tokens[0].startswith("#") or tokens[0] in _OBJ_SKIP:
            continue
        if tokens[0] == "v":
            vert_lines.append(ln)
        elif tokens[0] == "f":
            face_lines.append(ln)
        else:
            error = ParseError(path, ln, f"unknown element type {tokens[0]!r}")
            break
    counts = np.searchsorted(vert_lines, face_lines)
    faces = [np.empty((0, 3), dtype=np.int64)]
    try:
        for start in range(0, len(face_lines), _CHUNK):
            faces.append(_obj_faces(path, lines, face_lines[start:start + _CHUNK],
                                    counts[start:start + _CHUNK]))
    except ParseError as exc:
        error = exc  # every face line precedes the element that ended the scan
        vert_lines = vert_lines[:int(np.searchsorted(vert_lines, exc.line_no))]
    # every vertex row precedes the error, so a bad one is the first error
    (verts,) = _parse_block(path, lines, vert_lines, 3, split=lambda s: s.split()[1:4],
                            wrong_width="vertex needs 3 coordinates",
                            bad_number="bad vertex coordinate")
    if error:
        raise error
    return verts, np.concatenate(faces)


def _load_ply(path) -> tuple[np.ndarray, np.ndarray]:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0].strip() != "ply":
        raise ParseError(path, 1, "not a PLY file")
    elements: list[tuple[str, int, list[str]]] = []
    ln = 1
    fmt_seen = False
    while ln < len(lines):
        tokens = lines[ln].split()
        ln += 1
        if not tokens or tokens[0] == "comment":
            continue
        if tokens[0] == "format":
            if tokens[1:2] != ["ascii"]:
                raise ParseError(path, ln, "only ASCII PLY is supported")
            fmt_seen = True
        elif tokens[0] == "element":
            if len(tokens) > 1 and tokens[1] not in ("vertex", "face"):
                raise ParseError(path, ln, f"unknown element type {tokens[1]!r}")
            try:
                count = int(tokens[2])
            except (IndexError, ValueError):
                count = -1
            if count < 0:
                raise ParseError(path, ln, "element needs a name and a count >= 0")
            elements.append((tokens[1], count, []))
        elif tokens[0] == "property":
            if not elements:
                raise ParseError(path, ln, "property before any element")
            elements[-1][2].append(tokens[-1])
        elif tokens[0] == "end_header":
            break
        else:
            raise ParseError(path, ln, f"unknown header keyword {tokens[0]!r}")
    else:
        raise ParseError(path, None, "missing end_header")
    if not fmt_seen:
        raise ParseError(path, None, "missing format line")

    verts = np.empty((0, 3))
    faces: list[list[int]] = []
    for name, count, props in elements:
        rows = range(ln + 1, min(ln + count, len(lines)) + 1)
        if name == "vertex":
            for axis in ("x", "y", "z"):
                if axis not in props:
                    raise ParseError(path, None, f"vertex element missing property {axis}")
            (values,) = _parse_block(path, lines, rows, len(props),
                                     wrong_width="wrong number of vertex properties",
                                     bad_number="bad vertex value")
            verts = values[:, [props.index(a) for a in "xyz"]]
        else:
            for r in rows:
                tokens = lines[r - 1].split()
                try:
                    cnt = int(tokens[0])
                    idx = [int(t) for t in tokens[1:1 + cnt]]
                except (ValueError, IndexError):
                    raise ParseError(path, r, "bad face record") from None
                if len(idx) != cnt:
                    raise ParseError(path, r, "face count/index mismatch")
                if any(v < 0 or v >= len(verts) for v in idx):
                    raise ParseError(path, r, "face index out of range")
                faces.extend(_fan(idx, path, r))
        if len(rows) < count:
            raise ParseError(path, len(lines), f"file ends after {len(rows)} of "
                                               f"{count} {name} rows")
        ln += count
    return verts, np.array(faces, dtype=np.int64).reshape(-1, 3)


def _warn_non_manifold(faces: np.ndarray, path) -> None:
    if faces.size == 0:
        return
    _, counts = _unique_edges(faces[:, [[0, 1], [1, 2], [0, 2]]].reshape(-1, 2),
                              int(faces.max()) + 1)
    if counts.max(initial=0) > 2:
        warnings.warn(f"{path}: non-manifold mesh (an edge is shared by "
                      f"{counts.max()} faces)", NonManifoldWarning)


def load_mesh(path) -> tuple[PointCloud, np.ndarray]:
    """Vertices (declaration order) and fan-triangulated faces from OBJ or PLY."""
    suffix = Path(path).suffix.lower()
    if suffix == ".obj":
        verts, faces = _load_obj(path)
    elif suffix == ".ply":
        verts, faces = _load_ply(path)
    else:
        raise ParseError(path, None, f"unsupported mesh format {suffix!r}")
    if len(verts) == 0:
        raise ParseError(path, None, "mesh has no vertices")
    _warn_non_manifold(faces, path)
    return PointCloud(verts), faces


def write_obj(path, points: np.ndarray, faces: np.ndarray) -> None:
    points = np.asarray(points, dtype=float)
    faces = np.asarray(faces, dtype=np.int64).reshape(-1, 3)
    _write_text(path, ("v" + f" {_FLOAT}" * points.shape[1], points),
                ("f %d %d %d", faces + 1))


# ---------------------------------------------------------------------------
# Parametric meshes
# ---------------------------------------------------------------------------

def generate_torus(major_radius: float, minor_radius: float, n_major: int,
                   n_minor: int) -> tuple[np.ndarray, np.ndarray]:
    """Triangulated torus; vertex count equals n_major * n_minor."""
    if n_major < 3 or n_minor < 3:
        raise ValueError("need at least 3 samples around each circle")
    u = 2 * np.pi * np.arange(n_major) / n_major
    v = 2 * np.pi * np.arange(n_minor) / n_minor
    uu, vv = np.meshgrid(u, v, indexing="ij")
    ring = major_radius + minor_radius * np.cos(vv)
    pts = np.stack([ring * np.cos(uu), ring * np.sin(uu),
                    minor_radius * np.sin(vv)], axis=-1).reshape(-1, 3)
    p00 = np.arange(n_major * n_minor, dtype=np.int64).reshape(n_major, n_minor)
    p01 = np.roll(p00, -1, axis=1)
    p10 = np.roll(p00, -1, axis=0)
    p11 = np.roll(p10, -1, axis=1)
    # per grid cell (a, b) in row-major order: triangles (00, 10, 11), (00, 11, 01)
    return pts, np.stack([p00, p10, p11, p00, p11, p01], axis=-1).reshape(-1, 3)


def generate_icosphere(subdivisions: int = 2, radius: float = 1.0
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Subdivided icosahedron projected to a sphere (12, 42, 162, 642, ... verts)."""
    phi = (1 + math.sqrt(5)) / 2
    verts = np.array([
        [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
        [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
        [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
    ], dtype=float)
    faces = np.array([
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ], dtype=np.int64)
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    for _ in range(subdivisions):
        # one new vertex per edge, numbered in order of the edge's first use
        # among the faces' edges ab, bc, ca
        edges = np.sort(faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
        keys, first, inverse = np.unique(edges, axis=0, return_index=True,
                                         return_inverse=True)
        order = np.argsort(first)
        ab, bc, ca = (len(verts) + np.argsort(order)[inverse.reshape(-1)]).reshape(-1, 3).T
        mids = verts[keys[order, 0]] + verts[keys[order, 1]]
        verts = np.vstack([verts, mids / _row_norms(mids)[:, None]])
        a, b, c = faces.T
        faces = np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca], 1).reshape(-1, 3)
    return verts * radius, faces


# ---------------------------------------------------------------------------
# VTK export (visualization only)
# ---------------------------------------------------------------------------

def write_vtk(path, points: np.ndarray, vectors: np.ndarray, name: str = "field",
              faces: np.ndarray | None = None) -> None:
    """Legacy ASCII VTK polydata with one named point vector attribute."""
    points = np.asarray(points, dtype=float)
    vectors = np.asarray(vectors, dtype=float)
    if points.shape[0] != vectors.shape[0]:
        raise ValueError("point/vector count mismatch")
    if points.shape[1] == 2:
        points, vectors = (np.pad(a, ((0, 0), (0, 1))) for a in (points, vectors))
    if points.shape[1] != 3:
        raise ValueError("VTK export needs 2- or 3-dimensional points")
    n = points.shape[0]
    if faces is not None and len(faces):
        faces = np.asarray(faces, dtype=np.int64).reshape(-1, 3)
        cells = (f"POLYGONS {len(faces)} {4 * len(faces)}", ("3 %d %d %d", faces))
    else:
        cells = (f"VERTICES {n} {2 * n}", ("1 %d", np.arange(n)[:, None]))
    try:
        _write_text(path, "# vtk DataFile Version 3.0", name, "ASCII", "DATASET POLYDATA",
                    f"POINTS {n} double", (" ".join([_FLOAT] * 3), points), *cells,
                    f"POINT_DATA {n}", f"VECTORS {name} double",
                    (" ".join([_FLOAT] * vectors.shape[1]), vectors))
    except OSError as exc:
        raise OSError(f"failed to write VTK file {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Spectrum persistence: eigenvalue CSV + eigenvector CSV + JSON manifest
# ---------------------------------------------------------------------------

def write_json_atomic(path, payload: dict) -> None:
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path)


def _write_matrix_csv(path, matrix: np.ndarray) -> None:
    matrix = np.atleast_2d(matrix)
    _write_text(path, (",".join([_FLOAT] * matrix.shape[1]), matrix))


def _read_matrix_csv(path) -> np.ndarray:
    lines = Path(path).read_text().splitlines()
    rows = [ln for ln in range(1, len(lines) + 1) if lines[ln - 1].strip()]
    if not rows:
        return np.empty(0)
    return _parse_block(path, lines, rows, len(lines[rows[0] - 1].split(",")),
                        split=lambda line: line.split(","), wrong_width="bad number",
                        bad_number="bad number")[0]


def save_spectrum(directory, spectrum: Spectrum) -> Path:
    """Write eigenvalues.csv, eigenvectors.csv and spectrum.json into a directory."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    _write_matrix_csv(directory / "eigenvalues.csv", spectrum.eigenvalues[None, :].T)
    _write_matrix_csv(directory / "eigenvectors.csv", spectrum.eigenvectors)
    write_json_atomic(directory / "spectrum.json", {
        "n": spectrum.n,
        "m": spectrum.m,
        "k": spectrum.k,
        "next_eigenvalue": spectrum.next_eigenvalue,
        "sign_convention": "largest-magnitude entry of each eigenvector positive; "
                           "off-diagonal blocks are -w_ij O_ij",
        "solver_tolerance": LANCZOS_TOL,
        "eigenvalues_csv": "eigenvalues.csv",
        "eigenvectors_csv": "eigenvectors.csv",
    })
    return directory / "spectrum.json"


def load_spectrum(directory) -> Spectrum:
    """The spectrum of ``save_spectrum``. A ParseError names the file whose
    eigenvalues are not finite and non-decreasing, whose eigenvectors are not
    (n*m) x k for k eigenvalues, or whose next_eigenvalue is below the last."""
    path = Path(directory) / "spectrum.json"
    manifest = json.loads(path.read_text())
    n, m, after = int(manifest["n"]), int(manifest["m"]), manifest.get("next_eigenvalue")
    vals_path, vecs_path = (path.parent / manifest[f"{key}_csv"]
                            for key in ("eigenvalues", "eigenvectors"))
    vals, vecs = _read_matrix_csv(vals_path).reshape(-1), _read_matrix_csv(vecs_path)
    if not (np.diff(vals) >= 0).all():
        raise ParseError(vals_path, None, "eigenvalues must be non-decreasing")
    if vecs.shape != (n * m, vals.size):
        raise ParseError(vecs_path, None, f"shape {vecs.shape} is not {(n * m, vals.size)}")
    if after is not None and not after >= vals[-1]:
        raise ParseError(path, None, f"next_eigenvalue {after!r} below the last eigenvalue")
    return Spectrum(vals, vecs, n, m, after)


# ---------------------------------------------------------------------------
# Model persistence: JSON manifest + CSV matrices, no binary formats
# ---------------------------------------------------------------------------

def save_model(directory, model: gp_mod.VectorFieldGP, frames: GaugeFrames,
               cloud: PointCloud, graph: ProximityGraph) -> Path:
    """Persist a fitted model and the geometry it was fitted on: a spectrum
    dir, ``points.csv``, ``graph.csv`` (``i,j,w`` per edge), ``frames.csv``,
    ``targets.csv`` and, last so that a partial directory never loads,
    ``model.json``. The load recomputes the k x k weight-space factor and
    weight mean (deterministically, O(N*d*k^2)) and checks the stored c_norm.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    save_spectrum(directory / "spectrum", model.spectrum)
    csvs = {"points": cloud.points, "graph": np.column_stack([graph.edges, graph.weights]),
            "frames": frames.frames.reshape(frames.n, -1), "targets": model.targets}
    for key, matrix in csvs.items():
        _write_matrix_csv(directory / f"{key}.csv", matrix)
    hp = model.hyperparams
    write_json_atomic(directory / "model.json", {
        "format": "tangentgp-model/2",
        "hyperparams": {"sigma": hp.sigma, "kappa": hp.kappa,
                        "nu": "inf" if math.isinf(hp.nu) else hp.nu,
                        "sigma_n": hp.sigma_n},
        "c_norm": model.c_norm,
        "train_nodes": [int(i) for i in model.train_nodes],
        "frame_shape": list(frames.frames.shape),
        "spectrum": "spectrum",
        **{f"{key}_csv": f"{key}.csv" for key in csvs},
    })
    return directory / "model.json"


def load_model(directory) -> tuple[gp_mod.VectorFieldGP, GaugeFrames, PointCloud,
                                   ProximityGraph]:
    """The model, frames, points and graph of ``save_model``, each validated."""
    directory = Path(directory)
    path = directory / "model.json"
    manifest = json.loads(path.read_text())
    if manifest.get("format") != "tangentgp-model/2":
        raise ParseError(path, None, f"model format {manifest.get('format')!r} is not "
                                     "'tangentgp-model/2': refit the model")
    spectrum = load_spectrum(directory / manifest["spectrum"])
    n, d, m = manifest["frame_shape"]
    train_nodes = np.array(manifest["train_nodes"], dtype=np.int64)
    points, ijw, flat, targets = (_read_matrix_csv(directory / manifest[f"{key}_csv"])
                                  for key in ("points", "graph", "frames", "targets"))
    shapes = [a.shape for a in (points, flat, targets)] + [ijw.shape[1:]]
    if shapes != [(n, d), (n, d * m), (train_nodes.size, d), (3,)]:
        raise ParseError(path, None, f"shapes {shapes} of its CSV files disagree")
    frames = GaugeFrames(flat.reshape(n, d, m))
    model = gp_mod.fit(train_nodes, targets, spectrum, frames,
                       _hp_from_dict(manifest["hyperparams"]))
    # the stored c_norm catches CSVs that are not the ones the model was fit on.
    # A reload is bit-exact on one machine; einsum, BLAS and numpy's vectorised
    # exp may round otherwise on another CPU or build, so rounding is allowed.
    if not math.isclose(model.c_norm, manifest["c_norm"], rel_tol=1e-12):
        raise ParseError(path, None,
                         f"stored c_norm {manifest['c_norm']!r} disagrees with "
                         f"{model.c_norm!r} from the model's CSV files")
    return model, frames, PointCloud(points), ProximityGraph(n, ijw[:, :2], ijw[:, 2])


# ---------------------------------------------------------------------------
# Experiment configuration
# ---------------------------------------------------------------------------

@dataclass
class GraphConfig:
    k_neighbors: int = 5
    weighting: str = "unit"
    bandwidth: float | None = None
    use_mesh_edges: bool = False
    on_disconnected: str = "error"


@dataclass
class FitConfig:
    """The ``fit`` block: the smoothness of every vector search of a run,
    each on the default ``gp.SearchConfig`` budget."""

    nu: float = 1.5


@dataclass
class ExperimentConfig:
    """Validated run configuration; a single JSON document on disk."""

    kind: str
    output_dir: str
    seed: int = 0
    input_mesh: str | None = None
    input_cloud: str | None = None
    field: str | None = None
    graph: GraphConfig = dataclasses.field(default_factory=GraphConfig)
    manifold_dim: int = 2
    frame_neighbors: int | str = "auto"
    num_eigenvectors: int | list = 50
    hyperparams: gp_mod.MaternHyperparams | None = None
    fit: FitConfig = dataclasses.field(default_factory=FitConfig)
    baseline_hyperparams: gp_mod.MaternHyperparams | None = None
    tau: float = 100.0
    anchor_count: int | None = None
    anchor_fraction: float | None = 0.1
    split_fraction: float = 0.5
    mask: dict | None = None
    query: str | list = "all"
    query_points: str | None = None
    model_dir: str | None = None
    raw: dict = dataclasses.field(default_factory=dict, repr=False)

    def __post_init__(self):
        # the schema cannot see the file system
        for attr in ("input_mesh", "input_cloud", "field", "query_points", "model_dir"):
            p = getattr(self, attr)
            if p is not None and not Path(p).exists():
                raise FileNotFoundError(f"config {attr}: no such path {p!r}")

    @property
    def k_list(self) -> list[int]:
        ks = self.num_eigenvectors
        return list(ks) if isinstance(ks, list) else [ks]


def _parse_nu(nu):
    """Smoothness as JSON stores it: a number, or "inf" for the heat kernel."""
    return math.inf if nu == "inf" else nu


def _hp_from_dict(raw: dict | None) -> gp_mod.MaternHyperparams | None:
    if raw is None:
        return None
    return gp_mod.MaternHyperparams(**{key: _parse_nu(v) if key == "nu" else float(v)
                                       for key, v in raw.items()})


def _fit_from_dict(raw: dict | None) -> FitConfig:
    return FitConfig(**{key: _parse_nu(v) for key, v in (raw or {}).items()})


# config blocks parsed into objects when the config is loaded; the baseline's
# kernel is the nu = inf one, so its block defaults nu to "inf"
_BLOCKS = {"graph": lambda raw: GraphConfig(**raw), "hyperparams": _hp_from_dict,
           "baseline_hyperparams": lambda raw: _hp_from_dict(
               raw if raw is None else {"nu": "inf", **raw}),
           "fit": _fit_from_dict}

# each draft-07 type: its words in a message and its test. An integer is a
# JSON integer literal; a number is never a bool and always a finite double.
_TYPES = {
    "integer": ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    "number": ("a finite number", lambda v: isinstance(v, (int, float))
               and not isinstance(v, bool) and abs(v) <= sys.float_info.max),
    "string": ("a string", lambda v: isinstance(v, str)),
    "boolean": ("a boolean", lambda v: isinstance(v, bool)),
    "null": ("null", lambda v: v is None),
    "array": ("an array", lambda v: isinstance(v, list)),
    "object": ("an object", lambda v: isinstance(v, dict)),
}
_LIMITS = {"minimum": (">=", lambda v, b: v >= b), "maximum": ("<=", lambda v, b: v <= b),
           "exclusiveMinimum": (">", lambda v, b: v > b)}


def _kinds(schema: dict) -> list:
    """(words, test) of each kind of value ``schema`` admits, bounds aside."""
    if "const" in schema:
        return [(repr(schema["const"]), lambda v: v == schema["const"])]
    kinds = schema.get("type", [])
    return [_TYPES[kind] for kind in (kinds if isinstance(kinds, list) else [kinds])]


def _check(value, schema: dict, key: str) -> None:
    """Raise a ValueError naming ``key`` at the first keyword of ``schema``
    that ``value`` breaks. Only the draft-07 keywords the shipped schema uses
    are implemented; ``oneOf`` alternatives admit disjoint kinds of value, so
    the one that admits a value decides it."""
    def fail(bound):
        raise ValueError(f"{key or 'config'}: must be {bound}, got {value!r}")

    # the type or const of the schema, or of exactly one of its oneOf
    # alternatives, must admit the value
    alternatives = schema.get("oneOf", [schema])
    admitted = [sub for sub in alternatives if any(test(value) for _, test in _kinds(sub))]
    if len(admitted) != 1 and any(map(_kinds, alternatives)):
        fail(" or ".join(words for sub in alternatives for words, _ in _kinds(sub)))
    if "oneOf" in schema:
        _check(value, admitted[0], key)
    if "enum" in schema and value not in schema["enum"]:
        fail(f"one of {schema['enum']}")
    for word, (sign, holds) in _LIMITS.items():
        if word in schema and isinstance(value, (int, float)) and not holds(value, schema[word]):
            fail(f"{sign} {schema[word]}")
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            fail(f"an array of {schema['minItems']} or more items")
        for i, item in enumerate(value):
            _check(item, schema.get("items", {}), f"{key}[{i}]")
    if isinstance(value, dict):
        properties, prefix = schema.get("properties", {}), f"{key}." if key else ""
        for name in schema.get("required", []):
            if name not in value:
                raise ValueError(f"{prefix}{name}: required key missing")
        unknown = sorted(set(value) - set(properties))
        if unknown and schema.get("additionalProperties") is False:
            raise ValueError(f"unknown {key or 'config'} keys: {unknown}")
        for name, sub in properties.items():
            if name in value:
                _check(value[name], sub, prefix + name)


def check_config(raw) -> None:
    """Raise a ValueError naming the first key of a config, as parsed from
    JSON, that breaks the shipped schema: the one statement of the contract."""
    schema = Path(__file__).parent / "schemas" / "experiment-config.schema.json"
    _check(raw, json.loads(schema.read_text()), "")


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(path, exc.lineno, f"invalid JSON: {exc.msg}") from None
    try:
        check_config(raw)
    except ValueError as exc:
        raise ParseError(path, None, str(exc)) from None
    kwargs = dict(raw)
    for name, parse in _BLOCKS.items():
        if name in kwargs:
            try:
                kwargs[name] = parse(kwargs[name])
            except (TypeError, ValueError) as exc:
                raise ParseError(path, None, f"{name}: {exc}") from None
    base = path.parent
    for attr in ("output_dir", "input_mesh", "input_cloud", "field", "query_points",
                 "model_dir"):
        if kwargs.get(attr):
            kwargs[attr] = str((base / kwargs[attr]).resolve())
    return ExperimentConfig(raw=raw, **kwargs)


def config_hash(raw: dict) -> str:
    """SHA-256 of the canonical JSON form; stable under key reordering."""
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"),
                           ensure_ascii=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def write_metrics_json(path, metrics: list) -> None:
    records = [m.to_dict() if hasattr(m, "to_dict") else dict(m) for m in metrics]
    write_json_atomic(path, {"metrics": records})


def sha256_file(path) -> str:
    h = hashlib.sha256()
    h.update(Path(path).read_bytes())
    return h.hexdigest()
