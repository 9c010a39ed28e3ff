"""Hash every output file of a fixed set of CLI runs of one checkout.

Usage: python3 tools/output_inventory.py CHECKOUT OUT_DIR

Runs the tangentgp CLI of ``CHECKOUT/src`` at one BLAS thread, each command
into a fresh directory under OUT_DIR (which must not exist):

- on the shipped 400-vertex torus fixture: ``generate``, ``generate_tau0``
  (the same field at tau = 0, the schema's minimum), ``superresolve``
  (k in {10, 25, 50}, searched hyperparameters; k = 25 rounds up to 26,
  the end of its eigenvalue cluster), ``inpaint``, ``fit`` (k = 25, so 26
  pairs), on-graph ``predict``, off-graph ``predict`` (``query_points``,
  encoded through the graph stored in the model) at the midpoints of the
  first edges of the first 25 faces, ``spectrum`` and ``eval``. Both
  ``predict`` configs name no geometry: ``predict`` reads only the model
  directory and its queries;
- on the 100x60 mesh torus: ``generate`` at tau = 10 and at tau = 100
  (``mesh_generate_tau100``: the schema default and the tau of
  ``configs/torus_generate.json``, and the most heat-flow work of any run
  here, a 249-term series on 12000 rows against the fixture's 298 terms on
  800), ``superresolve`` and ``inpaint`` (``mesh_inpaint``: the tau = 10
  truth, k = 50, searched hyperparameters, an ``auto`` 15% mask of 900
  nodes);
- on a 120x10 Moebius strip mesh (2400 rows, a non-orientable connection,
  so Lanczos on the real form): ``spectrum``;
- on the 642-vertex icosphere of 3 subdivisions: ``generate`` (mesh edges,
  64 anchors).

The three OBJs are written by the checkout's ``io.write_obj``, and the
off-graph query points by its ``io.write_vector_csv``.

Every connection Laplacian here but the Moebius one is solved by Lanczos on
its Hermitian form; the Moebius connection and the graph Laplacians of
the two inpaint baselines are solved on the real form. A
change that moves only real-route solves may move only the two inpaint
runs' ``metrics.json`` and ``predictions_channel_rbf`` files and the three
``mobius_spectrum/spectrum`` files; the outputs of every Hermitian solve
keep their hashes. Every connection solve here ends after the growth
loop's first search (the inertia count met, a cluster ending at or past
k), so a change to the later searches moves none of their hashes. The two
inpaint baselines' solves (k = 50 inside a twofold cluster, so 51; on 6000
rows for ``mesh_inpaint``, five searches) are the only runs here through
the extension branch: their ``metrics.json`` and
``predictions_channel_rbf`` files are the ones such a change may move.

``mesh_inpaint`` is the only run whose baseline predicts more nodes (900)
than ``gp._PREDICT_BLOCK`` (512): a change to the prediction blocks may move
its ``metrics.json`` and ``predictions_channel_rbf`` files, and no other
run's baseline files.

The four ``generate`` runs (the fixture's, ``mesh_generate``,
``mesh_generate_tau100`` and ``sphere_generate``) are the ones that go
through the heat flow and the furthest-point anchor sampler (40, 600, 600
and 64 anchors); ``generate_tau0`` runs no series but samples the same 40
anchors as ``generate``. A change to the heat flow may move only the files
downstream of a generated field: the four runs' ``field.*`` files, the
``superresolve``, ``inpaint``, ``mesh_superresolve`` and ``mesh_inpaint``
predictions and metrics, ``fit``'s ``model/targets.csv``, both ``predict``
``predictions.csv`` files and ``eval``'s ``metrics.json``. It moves no
``spectrum`` file, no model-geometry file, no ``mask.json``, ``split.json``
or ``variances.csv``. A change to the sampler that keeps the anchors and
the spacing moves none of the five runs' ``field.csv``, ``field.vtk`` and
``field_meta.json`` hashes; nor, through the truth field, any later run's.
The spacing's scale is the sampler's first step, the distance from point 0
to the second anchor, which every ``field_meta.json`` ``spacing`` guards.

``generate_tau0`` is the run that writes zero rows: its 360 nodes off the
anchors have no direction (norm at most ``fields.ZERO_NORM_TOL``, the one
rule of ``fields._directions``), so their rows are zeros. A change to that
rule, or to what a run records about it, may move only the five
``generate`` runs' ``field_meta.json`` files; every ``field.*`` file, and
every prediction, metrics, spectrum and model file, keeps its hash.

Squared distances are summed by ``geometry._sum_of_squares`` in every
k-NN graph here (each fixture run but on-graph ``predict``, and ``eval``'s
rebuilt graph), in the off-graph ``predict`` queries' neighbour search, and
in the four sampler runs' greedy pass.

Every k-NN graph here is exact, with equal distances in node order. The
fixture's 6-NN graph has no tie at the sixth neighbour that a k-d tree
breaks differently, so a change to the tie rule moves only ``eval``'s
``metrics.json`` (its graph uses the default k = 5, which has such ties)
and possibly the off-graph ``predict`` files: their edge-midpoint queries
have equidistant neighbours, and neighbour order fixes the order of the
weighted sum.

Prints one ``command path sha256`` line per output file, ``manifest.json``
(which holds wall times) excepted, so that ``diff`` of two inventories
compares the outputs of two checkouts. Outputs are byte-identical only at a
fixed BLAS thread count, hence the pinning; at another one, predictions from
fixed hyperparameters agree to 1e-10 but the hashes differ. Only the
standard library is imported here; the checkout runs in child processes.
"""
from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

FIXED_HP = {"sigma": 1.0, "kappa": 1.0, "nu": 1.5, "sigma_n": 0.01}
KNN = {"k_neighbors": 6, "weighting": "unit"}
MESH_OBJ = ("from tangentgp import io; "
            "io.write_obj(r'{path}', *io.generate_torus(2.0, 0.8, 100, 60))")
# a strip of 120 x 10 vertices whose last ring of quads closes up on the
# first with its cross-section reversed
MOBIUS_OBJ = """
import numpy as np
from tangentgp import io
uu, vv = np.meshgrid(2 * np.pi * np.arange(120) / 120, np.linspace(-0.6, 0.6, 10),
                     indexing="ij")
ring = 1 + vv * np.cos(uu / 2)
points = np.stack([ring * np.cos(uu), ring * np.sin(uu), vv * np.sin(uu / 2)], -1)
grid = np.arange(1200).reshape(120, 10)
ahead = np.roll(grid, -1, axis=0)
ahead[-1] = grid[0, ::-1]
a, b, c, d = grid[:, :-1], ahead[:, :-1], ahead[:, 1:], grid[:, 1:]
faces = np.concatenate([np.stack([a, b, c], -1), np.stack([a, c, d], -1)])
io.write_obj(r'{path}', points.reshape(-1, 3), faces.reshape(-1, 3))
"""
SPHERE_OBJ = ("from tangentgp import io; "
              "io.write_obj(r'{path}', *io.generate_icosphere(3))")
QUERIES = "queries_25.csv"  # under OUT_DIR
QUERY_CSV = """
from tangentgp import io
cloud, faces = io.load_mesh(r'{fixture}')
io.write_vector_csv(r'{path}', (cloud.points[faces[:25, 0]] + cloud.points[faces[:25, 1]]) / 2)
"""


def runs(fixture: Path, mesh: Path, mobius: Path, sphere: Path,
         out: Path) -> list[tuple[str, str, dict | list]]:
    """(name, command, config or eval arguments) in execution order."""
    truth = str(out / "generate" / "field.csv")
    base = {"input_mesh": str(fixture), "graph": KNN, "manifold_dim": 2}
    searched = {**base, "field": truth, "fit": {"nu": 1.5}}
    mesh_base = {"input_mesh": str(mesh), "graph": {"use_mesh_edges": True},
                 "manifold_dim": 2}
    return [
        ("generate", "generate", {**base, "anchor_count": 40, "tau": 100.0, "seed": 7}),
        ("generate_tau0", "generate", {**base, "anchor_count": 40, "tau": 0.0, "seed": 7}),
        ("superresolve", "superresolve", {**searched, "num_eigenvectors": [10, 25, 50],
                                          "split_fraction": 0.5, "seed": 11}),
        ("inpaint", "inpaint", {**searched, "num_eigenvectors": 50, "seed": 3,
                                "mask": {"center_node": "auto", "fraction": 0.15}}),
        ("fit", "fit", {**searched, "num_eigenvectors": 25, "seed": 5}),
        ("predict", "predict", {"seed": 5, "model_dir": str(out / "fit" / "model")}),
        ("predict_off_graph", "predict", {"seed": 5,
                                          "model_dir": str(out / "fit" / "model"),
                                          "query_points": str(out / QUERIES)}),
        ("spectrum", "spectrum", {**base, "num_eigenvectors": 50, "seed": 7}),
        ("eval", "eval", ["--pred", str(out / "superresolve" / "predictions_k50.csv"),
                          "--truth", truth]),
        ("mesh_generate", "generate", {**mesh_base, "seed": 7, "tau": 10.0,
                                       "anchor_fraction": 0.1}),
        ("mesh_generate_tau100", "generate", {**mesh_base, "seed": 7, "tau": 100.0,
                                              "anchor_fraction": 0.1}),
        ("mesh_superresolve", "superresolve",
         {**mesh_base, "field": str(out / "mesh_generate" / "field.csv"),
          "num_eigenvectors": 50, "hyperparams": FIXED_HP, "split_fraction": 0.1,
          "seed": 7}),
        ("mesh_inpaint", "inpaint",
         {**mesh_base, "field": str(out / "mesh_generate" / "field.csv"),
          "num_eigenvectors": 50, "fit": {"nu": 1.5}, "seed": 7,
          "mask": {"center_node": "auto", "fraction": 0.15}}),
        ("mobius_spectrum", "spectrum", {**mesh_base, "input_mesh": str(mobius),
                                         "num_eigenvectors": 50, "seed": 7}),
        ("sphere_generate", "generate", {**mesh_base, "input_mesh": str(sphere),
                                         "anchor_count": 64, "tau": 10.0, "seed": 7}),
    ]


def run(env: dict, args: list[str], log: Path) -> None:
    with open(log, "w") as fh:
        code = subprocess.call(args, env=env, stdout=fh, stderr=subprocess.STDOUT)
    if code:
        sys.exit(f"{' '.join(args)} exited with {code}:\n{log.read_text()[-2000:]}")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.exit(__doc__.split("\n\n")[1])
    checkout, out = (Path(a).resolve() for a in argv)
    out.mkdir(parents=True)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=str(checkout / "src"))
    lines = []
    fixture = checkout / "tests" / "fixtures" / "torus_400.obj"
    mesh, mobius = out / "torus_100x60.obj", out / "mobius_120x10.obj"
    sphere = out / "icosphere_3.obj"
    for path, code in ((mesh, MESH_OBJ), (mobius, MOBIUS_OBJ), (sphere, SPHERE_OBJ),
                       (out / QUERIES, QUERY_CSV)):
        run(env, [sys.executable, "-c", code.format(path=path, fixture=fixture)],
            out / f"{path.stem}.log")
        lines.append(f"input {path.name} {sha256(path)}")
    cli = [sys.executable, "-m", "tangentgp.cli"]
    for name, command, spec in runs(fixture, mesh, mobius, sphere, out):
        target = out / name
        if command == "eval":
            args = [*spec, "--out", str(target)]
        else:
            config = out / f"{name}.json"
            config.write_text(json.dumps({"kind": command, "output_dir": str(target),
                                          **spec}, indent=2))
            args = ["--config", str(config)]
        run(env, [*cli, command, *args], out / f"{name}.log")
        lines += [f"{name} {p.relative_to(target)} {sha256(p)}"
                  for p in sorted(target.rglob("*"))
                  if p.is_file() and p.name != "manifest.json"]
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
