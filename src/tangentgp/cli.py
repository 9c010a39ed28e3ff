"""Batch commands composing the library into reproducible experiments.

Every command is a pure function of (config, input files, seed): rerunning
with the same configuration and BLAS thread count reproduces all output files
byte-identically. Spectra end between eigenvalue clusters (see
``spectral.eigendecompose``), so with fixed hyperparameters the predictions
of another thread count agree to 1e-10; ``superresolve`` records each
requested ``k`` and the ``k_used`` it rounds up to.
A run manifest records the config hash, per-stage wall times and a hashed
inventory of the files the run wrote.
"""
from __future__ import annotations

import gc
import logging
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import click
import numpy as np

from . import __version__, fields, gp, io, spectral
from . import geometry as geo

log = logging.getLogger("tangentgp")


class CommandError(click.ClickException):
    exit_code = 1


@dataclass
class Run:
    """One command run: its config, stage timings and the output paths it
    wrote, from which it writes the manifest. It holds paths and timings
    only, never arrays."""

    cfg: io.ExperimentConfig
    stages: list = field(default_factory=list)
    written: list = field(default_factory=list)

    @property
    def out(self) -> Path:
        return Path(self.cfg.output_dir)

    @contextmanager
    def stage(self, name: str):
        log.info("stage %s", name)
        start = time.perf_counter()
        yield
        self.stages.append({"name": name, "seconds": time.perf_counter() - start})

    def path(self, name: str) -> Path:
        """An output file or directory of this run, in the output directory
        (made on first use); a directory counts with every file under it."""
        self.out.mkdir(parents=True, exist_ok=True)
        self.written.append(self.out / name)
        return self.out / name

    def write_manifest(self) -> None:
        files = set()
        for path in self.written:
            if path.is_dir():
                files.update(p for p in path.rglob("*") if p.is_file())
            else:
                files.add(path)
        io.write_json_atomic(self.out / "manifest.json", {
            "command": self.cfg.kind,
            "tool_version": __version__,
            "config_hash": io.config_hash(self.cfg.raw),
            "seed": int(self.cfg.seed),
            "stages": self.stages,
            "outputs": [{"path": str(path.relative_to(self.out)),
                         "sha256": io.sha256_file(path),
                         "bytes": path.stat().st_size} for path in sorted(files)],
        })


def _execute(body, cfg: io.ExperimentConfig, *args) -> None:
    """Run one command body and write its manifest; library errors exit 1."""
    run = Run(cfg)
    try:
        body(run, *args)
        run.write_manifest()
    except (ValueError, KeyError, IndexError, OSError, RuntimeError) as exc:
        raise CommandError(f"{type(exc).__name__}: {exc}") from exc


def _load_config(config_path: str, expected_kind: str, out_override: str | None,
                 seed_override: int | None) -> io.ExperimentConfig:
    try:
        cfg = io.load_config(config_path)
        overrides = {"output_dir": out_override or cfg.output_dir,
                     "seed": cfg.seed if seed_override is None else seed_override}
        io.check_config({**cfg.raw, **overrides})
    except (OSError, ValueError) as exc:
        raise CommandError(str(exc)) from exc
    if cfg.kind != expected_kind:
        raise CommandError(
            f"config kind is {cfg.kind!r} but the {expected_kind!r} command was invoked"
        )
    cfg.output_dir, cfg.seed = overrides["output_dir"], overrides["seed"]
    return cfg


def _check_ids(path, ids: np.ndarray, n: int) -> None:
    """Node ids of a CSV that lists every node: 0..n-1, in order."""
    if not np.array_equal(ids, np.arange(n)):
        raise CommandError(f"{path}: ids must be 0..{n - 1} in order")


def _build_graph(cfg: io.ExperimentConfig, cloud: geo.PointCloud,
                 faces: np.ndarray | None) -> geo.ProximityGraph:
    g = cfg.graph
    if g.use_mesh_edges:
        if faces is None:
            raise CommandError("use_mesh_edges requires a mesh input")
        return geo.build_mesh_graph(cloud, faces, g.weighting, g.bandwidth,
                                    g.on_disconnected)
    return geo.build_knn_graph(cloud, g.k_neighbors, g.weighting, g.bandwidth,
                               g.on_disconnected)


def _check_mask(mask: dict | None, n: int) -> None:
    """Mask rules, which are alternatives (``center_node`` centres a fraction
    or a radius), and node indices: the schema bounds them below, n above."""
    mask = mask or {}
    for first, second in (("nodes", "center_node"), ("nodes", "fraction"),
                          ("nodes", "radius"), ("radius", "fraction")):
        if first in mask and second in mask:
            raise CommandError(f"mask.{first} and mask.{second} are alternatives")
    named = {f"mask.nodes[{i}]": node for i, node in enumerate(mask.get("nodes", []))}
    named["mask.center_node"] = mask.get("center_node", "auto")
    for key, node in named.items():
        if node != "auto" and node >= n:
            raise CommandError(f"{key}: must be < {n}, the node count, got {node}")


def _geometry_pipeline(run: Run, field: bool = False):
    """Input, graph, frames and transports; a config that names no geometry,
    or with ``field`` no field CSV, fails before the first stage."""
    cfg = run.cfg
    if not (cfg.input_mesh or cfg.input_cloud):
        raise CommandError("config needs input_mesh or input_cloud")
    if field and not cfg.field:
        raise CommandError("config needs a 'field' CSV with ground-truth vectors")
    with run.stage("load_input"):
        if cfg.input_mesh:
            cloud, faces = io.load_mesh(cfg.input_mesh)
        else:
            cloud, ids = io.load_point_cloud(cfg.input_cloud)
            _check_ids(cfg.input_cloud, ids, cloud.n)
            faces = None
    _check_mask(cfg.mask, cloud.n)
    with run.stage("build_graph"):
        graph = _build_graph(cfg, cloud, faces)
    with run.stage("tangent_frames"):
        frames = geo.estimate_tangent_frames(graph, cloud, cfg.manifold_dim,
                                             cfg.frame_neighbors)
    with run.stage("transports"):
        transports = geo.compute_transports(graph, frames)
    return cloud, faces, graph, frames, transports


def _spectra(run: Run, graph: geo.ProximityGraph, frames: geo.GaugeFrames,
             transports: geo.TransportMaps, scalar: bool = False):
    """The connection-Laplacian spectrum at the largest configured k, and
    with ``scalar`` the graph-Laplacian one of the channel-wise baseline."""
    k, seed = max(run.cfg.k_list), run.cfg.seed
    with run.stage("laplacians"):
        con = spectral.assemble_connection_laplacian(graph, frames, transports)
        lap = spectral.assemble_graph_laplacian(graph) if scalar else None
    if con.m == 2 and con.hermitian is None:
        log.warning("the 2-D connection is not orientable; its eigensolve runs on "
                    "the real %d-row form. On a closed orientable surface this means "
                    "tangent frames flipped on a mesh too coarse for them", con.size)
    with run.stage("spectrum"):
        spec = spectral.eigendecompose(con, k, seed=seed)
        spec_s = (spectral.eigendecompose(lap, min(k, graph.n), seed=seed)
                  if scalar else None)
    return spec, spec_s


def _load_field(run: Run, cloud: geo.PointCloud) -> np.ndarray:
    path = run.cfg.field
    with run.stage("load_input"):
        ids, pts, vecs = io.read_vector_csv(path)
    if vecs is None:
        raise CommandError(f"{path}: no vector columns")
    _check_ids(path, ids, cloud.n)
    if not np.array_equal(pts, cloud.points):
        raise CommandError(f"{path}: positions disagree with the input geometry")
    return vecs


def _resolve_hyperparams(run: Run, train_nodes, targets, spectrum, frames, graph,
                         cloud) -> gp.MaternHyperparams:
    cfg = run.cfg
    if cfg.hyperparams is not None:
        return cfg.hyperparams
    with run.stage("fit_hyperparameters"):
        hp = gp.fit_hyperparameters(train_nodes, targets, spectrum, frames,
                                    nu=cfg.fit.nu, seed=cfg.seed,
                                    initial=_search_start(graph, cloud, cfg.fit.nu))
    log.info("fitted hyperparams: sigma=%.4g kappa=%.4g nu=%s sigma_n=%.4g",
             hp.sigma, hp.kappa, hp.nu, hp.sigma_n)
    return hp


def _search_start(graph: geo.ProximityGraph, cloud: geo.PointCloud,
                  nu: float) -> gp.MaternHyperparams:
    """First start of a hyperparameter search: unit amplitude, a lengthscale
    of five mean edge lengths and small noise."""
    kappa = 5.0 * geo.mean_edge_length(graph, cloud)
    return gp.MaternHyperparams(sigma=1.0, kappa=kappa, nu=nu, sigma_n=1e-3)


def _write_predictions(run: Run, stem: str, cloud: geo.PointCloud, nodes: np.ndarray,
                       vectors: np.ndarray, faces: np.ndarray | None) -> None:
    with run.stage("write_outputs"):
        io.write_vector_csv(run.path(f"{stem}.csv"), cloud.points[nodes], vectors,
                            ids=nodes)
        if cloud.dim in (2, 3):
            full = np.zeros((cloud.n, cloud.dim))
            full[nodes] = vectors
            io.write_vtk(run.path(f"{stem}.vtk"), cloud.points, full, name=stem,
                         faces=faces)


def common_options(fn):
    fn = click.option("--config", "config_path", required=True,
                      type=click.Path(exists=True), help="Experiment config JSON.")(fn)
    fn = click.option("--out", "out_override", default=None,
                      help="Override the config's output directory.")(fn)
    fn = click.option("--seed", "seed_override", default=None, type=int,
                      help="Override the config's seed.")(fn)
    return fn


@click.group()
@click.version_option(__version__)
@click.option("--log-level", default="warning",
              type=click.Choice(["debug", "info", "warning", "error"]),
              help="Stderr logging verbosity.")
def main(log_level: str):
    """Learn and densify vector fields over latent manifolds."""
    logging.basicConfig(level=log_level.upper(),
                        format="%(levelname)s %(name)s: %(message)s")


def _cmd_generate(run: Run):
    """Generate a smooth ground-truth vector field by heat diffusion."""
    cfg = run.cfg
    cloud, faces, graph, frames, transports = _geometry_pipeline(run)
    with run.stage("laplacians"):
        lap = spectral.assemble_graph_laplacian(graph)
        con = spectral.assemble_connection_laplacian(graph, frames, transports)
    if cfg.anchor_count is not None:
        anchor_count = int(cfg.anchor_count)
    else:
        anchor_count = max(1, int(round((cfg.anchor_fraction or 0.1) * cloud.n)))
    with run.stage("diffuse"):
        gen = fields.generate_experiment_field(cloud, frames, con, lap,
                                               anchor_count, cfg.seed, tau=cfg.tau)
        coherence = fields.direction_coherence(graph, transports, gen.field.coords)
    ambient = gen.field.ambient()
    with run.stage("write_outputs"):
        io.write_vector_csv(run.path("field.csv"), cloud.points, ambient)
        if cloud.dim in (2, 3):
            io.write_vtk(run.path("field.vtk"), cloud.points, ambient, name="field",
                         faces=faces)
        io.write_json_atomic(run.path("field_meta.json"), {
            "tau": cfg.tau,
            "seed": int(cfg.seed),
            "anchor_count": anchor_count,
            "anchors": [int(i) for i in gen.anchors],
            "spacing": gen.spacing,
            "singular_candidates": [int(i) for i in np.nonzero(gen.singular)[0]],
            "singular_count": int(gen.singular.sum()),
            "min_direction_norm_node": int(np.argmin(gen.direction_norms)),
            "min_coherence_node": int(np.argmin(coherence)),
        })


def _cmd_superresolve(run: Run):
    """Fit on a seeded node split and predict the held-out vectors."""
    cfg = run.cfg
    cloud, faces, graph, frames, transports = _geometry_pipeline(run, field=True)
    truth = _load_field(run, cloud)

    n_train = int(round(cfg.split_fraction * cloud.n))
    if n_train < 1:
        raise CommandError(f"split_fraction {cfg.split_fraction} leaves no training nodes")
    if n_train >= cloud.n:
        raise CommandError(f"split_fraction {cfg.split_fraction} leaves an empty test set")
    perm = np.random.default_rng(cfg.seed).permutation(cloud.n)
    train, test = perm[:n_train], perm[n_train:]

    spec_full, _ = _spectra(run, graph, frames, transports)
    metrics = []
    for k in sorted(set(cfg.k_list)):
        spec = spectral.truncate(spec_full, k)
        hp = _resolve_hyperparams(run, train, truth[train], spec, frames, graph, cloud)
        with run.stage(f"fit_predict_k{k}"):
            model = gp.fit(train, truth[train], spec, frames, hp)
            mean, _ = gp.predict(model, test)
        _write_predictions(run, f"predictions_k{k}", cloud, test, mean, faces)
        metrics += [{**metric.to_dict(), "k": k, "k_used": spec.k}
                    for metric in (fields.alignment_score(mean, truth[test]),
                                   fields.angular_error(mean, truth[test]))]
    with run.stage("write_outputs"):
        io.write_metrics_json(run.path("metrics.json"), metrics)
        io.write_json_atomic(run.path("split.json"), {
            "train": [int(i) for i in train], "test": [int(i) for i in test]})


def _resolve_mask(cfg: io.ExperimentConfig, cloud: geo.PointCloud,
                  graph: geo.ProximityGraph, transports: geo.TransportMaps,
                  frames: geo.GaugeFrames, truth: np.ndarray) -> np.ndarray:
    spec = cfg.mask or {}
    mask = np.zeros(cloud.n, dtype=bool)
    if "nodes" in spec:
        mask[spec["nodes"]] = True
        return mask
    center = spec.get("center_node", "auto")
    if center == "auto":
        # lowest transport-averaged direction coherence marks the most
        # singularity-like node of the truth field
        coords = frames.project(truth)
        coherence = fields.direction_coherence(graph, transports, coords)
        center = int(np.argmin(coherence))
    dists = np.linalg.norm(cloud.points - cloud.points[center], axis=1)
    if "radius" in spec:
        mask[dists <= float(spec["radius"])] = True
    else:
        fraction = float(spec.get("fraction", 0.15))
        count = max(1, int(round(fraction * cloud.n)))
        mask[np.argsort(dists, kind="stable")[:count]] = True
    return mask


def _cmd_inpaint(run: Run):
    """Mask a region, train on the rest, and predict inside the mask with
    both the vector GP and the channel-wise RBF baseline."""
    cfg = run.cfg
    cloud, faces, graph, frames, transports = _geometry_pipeline(run, field=True)
    truth = _load_field(run, cloud)
    mask = _resolve_mask(cfg, cloud, graph, transports, frames, truth)
    if not mask.any():
        raise CommandError("mask is empty: nothing to inpaint")
    if mask.all():
        raise CommandError("mask covers all nodes: nothing to train on")
    train = np.nonzero(~mask)[0]
    test = np.nonzero(mask)[0]

    spec_c, spec_s = _spectra(run, graph, frames, transports, scalar=True)
    hp = _resolve_hyperparams(run, train, truth[train], spec_c, frames, graph, cloud)
    with run.stage("fit_predict_gp"):
        model = gp.fit(train, truth[train], spec_c, frames, hp)
        mean_gp, _ = gp.predict(model, test)

    hp_base = cfg.baseline_hyperparams
    if hp_base is None:
        with run.stage("fit_baseline_hyperparameters"):
            hp_base = fields.fit_baseline_hyperparameters(
                spec_s, train, truth[train], seed=cfg.seed,
                initial=_search_start(graph, cloud, math.inf))
    with run.stage("fit_predict_baseline"):
        mean_base = fields.baseline_scalar_rbf_predict(spec_s, train, truth[train],
                                                       test, hp_base)

    metrics = []
    for method, mean in (("vector_gp", mean_gp), ("channel_rbf", mean_base)):
        combined = truth.copy()
        combined[test] = mean
        metrics += [{**metric.to_dict(), "method": method} for metric in (
            fields.out_of_tangent_magnitude(mean, frames, test),
            fields.boundary_angular_jump(graph, transports, frames, combined, mask),
            fields.alignment_score(mean, truth[test]),
            fields.angular_error(mean, truth[test]))]
        _write_predictions(run, f"predictions_{method}", cloud, test, mean, faces)
    with run.stage("write_outputs"):
        io.write_metrics_json(run.path("metrics.json"), metrics)
        io.write_json_atomic(run.path("mask.json"),
                             {"nodes": [int(i) for i in np.nonzero(mask)[0]]})


def _cmd_fit(run: Run):
    """Fit a model to every vector in the field file and persist it."""
    cloud, _, graph, frames, transports = _geometry_pipeline(run, field=True)
    truth = _load_field(run, cloud)
    spec, _ = _spectra(run, graph, frames, transports)
    train = np.arange(cloud.n)
    hp = _resolve_hyperparams(run, train, truth, spec, frames, graph, cloud)
    with run.stage("fit_model"):
        model = gp.fit(train, truth, spec, frames, hp)
    with run.stage("write_outputs"):
        io.save_model(run.path("model"), model, frames, cloud, graph)


def _cmd_predict(run: Run):
    """Predict vectors at query nodes, or at off-graph points through the
    model's graph. The model directory holds the points, graph and frames,
    so no configured geometry is read."""
    cfg = run.cfg
    if not cfg.model_dir:
        raise CommandError("config needs model_dir")
    with run.stage("load_model"):
        model, frames, cloud, graph = io.load_model(cfg.model_dir)

    if cfg.query_points is not None:
        with run.stage("load_input"):
            ids, positions, _ = io.read_vector_csv(cfg.query_points)
        log.warning("query_points are encoded by gp.extend_encodings, an off-graph "
                    "extension beyond the core method")
        with run.stage("extend_encodings"):
            enc, _ = gp.extend_encodings(positions, cloud, graph, frames, model.spectrum)
        with run.stage("predict"):
            mean, covs = gp.predict_at_encodings(model, enc)
    else:
        # Python ints, so that ids beyond int64 never reach numpy
        if cfg.query != "all" and any(i >= cloud.n for i in cfg.query):
            raise CommandError("query node out of range")
        ids = np.arange(cloud.n) if cfg.query == "all" else np.asarray(cfg.query, np.int64)
        positions = cloud.points[ids]
        with run.stage("predict"):
            mean, covs = gp.predict(model, ids)
    with run.stage("write_outputs"):
        io.write_vector_csv(run.path("predictions.csv"), positions, mean, ids=ids)
        io.write_variances_csv(run.path("variances.csv"), ids, covs)


def _cmd_spectrum(run: Run):
    """Compute and export the connection-Laplacian spectrum."""
    _, _, graph, frames, transports = _geometry_pipeline(run)
    spec, _ = _spectra(run, graph, frames, transports)
    with run.stage("write_outputs"):
        io.save_spectrum(run.path("spectrum"), spec)


def _config_command(kind: str, body) -> None:
    """Register ``body`` as the ``kind`` command over a config of that kind;
    its docstring is the command's help."""
    def command(config_path, out_override, seed_override):
        _execute(body, _load_config(config_path, kind, out_override, seed_override))
    main.command(name=kind, help=body.__doc__)(common_options(command))


for _kind, _body in {"generate": _cmd_generate, "superresolve": _cmd_superresolve,
                     "inpaint": _cmd_inpaint, "fit": _cmd_fit,
                     "predict": _cmd_predict, "spectrum": _cmd_spectrum}.items():
    _config_command(_kind, _body)


@main.command(name="eval")
@click.option("--pred", "pred_path", required=True, type=click.Path(exists=True),
              help="Predictions CSV (id,x...,v...).")
@click.option("--truth", "truth_path", required=True, type=click.Path(exists=True),
              help="Ground-truth CSV; scored on the ids both files share.")
@click.option("--config", "config_path", default=None, type=click.Path(exists=True),
              help="Optional config (kind=eval) for graph parameters.")
@click.option("--out", "out_override", default=None, help="Output directory.")
def eval_cmd(pred_path, truth_path, config_path, out_override):
    """Alignment and angular error on the node ids both files share, and
    Dirichlet energies of the truth field with and without the predictions.

    Ids found in only one file are counted in n_excluded. The energies use
    the graph rebuilt from the truth file; the predicted one replaces the
    truth at the shared ids."""
    if config_path:
        cfg = _load_config(config_path, "eval", out_override, None)
    elif out_override:
        cfg = io.ExperimentConfig(kind="eval", output_dir=out_override,
                                  raw={"kind": "eval"})
    else:
        raise CommandError("eval needs --out (or a config with output_dir)")
    _execute(_cmd_eval, cfg, pred_path, truth_path)


def _cmd_eval(run: Run, pred_path, truth_path):
    with run.stage("load_input"):
        pred_ids, pred_pts, pred_vecs = io.read_vector_csv(pred_path)
        truth_ids, truth_pts, truth_vecs = io.read_vector_csv(truth_path)
    if pred_vecs is None or truth_vecs is None:
        raise CommandError("both files need vector columns")
    for role, ids in (("prediction", pred_ids), ("truth", truth_ids)):
        values, counts = np.unique(ids, return_counts=True)
        if (counts > 1).any():
            raise CommandError(f"duplicate node ids in the {role} file; first "
                               f"offenders: {[int(i) for i in values[counts > 1][:10]]}")
    shared, pred_at, truth_at = np.intersect1d(pred_ids, truth_ids, assume_unique=True,
                                               return_indices=True)
    if shared.size == 0:
        offenders = [int(i) for i in pred_ids[:10]]
        raise CommandError(f"no node ids shared by the prediction and truth files; "
                           f"first offenders: {offenders}")
    moved = (pred_pts[pred_at] != truth_pts[truth_at]).any(axis=1)
    if moved.any():
        raise CommandError("positions disagree between prediction and truth files "
                           f"at ids {[int(i) for i in shared[moved][:10]]}")
    unmatched = pred_ids.shape[0] + truth_ids.shape[0] - 2 * shared.size

    records = [{**metric.to_dict(), "n_nodes": metric.n_nodes + unmatched,
                "n_excluded": metric.n_excluded + unmatched}
               for metric in (fields.alignment_score(pred_vecs[pred_at], truth_vecs[truth_at]),
                              fields.angular_error(pred_vecs[pred_at], truth_vecs[truth_at]))]

    with run.stage("rebuild_geometry"):
        cloud = geo.PointCloud(truth_pts)
        graph = _build_graph(run.cfg, cloud, None)
        frames = geo.estimate_tangent_frames(graph, cloud, run.cfg.manifold_dim,
                                             run.cfg.frame_neighbors)
        transports = geo.compute_transports(graph, frames)
    combined = truth_vecs.copy()
    combined[truth_at] = pred_vecs[pred_at]
    for name, vecs in (("dirichlet_energy_pred", combined),
                       ("dirichlet_energy_truth", truth_vecs)):
        energy = spectral.dirichlet_energy(graph, transports, frames.project(vecs))
        records.append({"metric": name, "value": energy,
                        "n_nodes": int(cloud.n), "n_excluded": 0})
    with run.stage("write_outputs"):
        io.write_json_atomic(run.path("metrics.json"), {"metrics": records})
    for rec in records:
        click.echo(f"{rec['metric']}: {rec['value']:.6g}")


# Every object made so far lives as long as the process: keep the import heap
# out of every later collection, the one at exit included.
gc.freeze()

if __name__ == "__main__":
    main()
