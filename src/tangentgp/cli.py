"""Batch commands composing the library into reproducible experiments.

Every command is a pure function of (config, input files, seed): rerunning
with the same configuration and BLAS thread count reproduces all output files
byte-identically.
A run manifest records the config hash, per-stage wall times and a hashed
inventory of outputs.
"""
from __future__ import annotations

import logging
import math
import time
from contextlib import contextmanager
from pathlib import Path

import click
import numpy as np

from . import __version__, fields, gp, io, spectral
from . import geometry as geo

log = logging.getLogger("tangentgp")


class CommandError(click.ClickException):
    exit_code = 1


@contextmanager
def _stage(stages: list, name: str):
    log.info("stage %s", name)
    start = time.perf_counter()
    yield
    stages.append({"name": name, "seconds": time.perf_counter() - start})


def _write_manifest(out_dir: Path, command: str, cfg_raw: dict, seed: int,
                    stages: list) -> None:
    outputs = []
    for path in sorted(out_dir.rglob("*")):
        if path.is_file() and path.name != "manifest.json":
            outputs.append({
                "path": str(path.relative_to(out_dir)),
                "sha256": io.sha256_file(path),
                "bytes": path.stat().st_size,
            })
    io.write_json_atomic(out_dir / "manifest.json", {
        "command": command,
        "tool_version": __version__,
        "config_hash": io.config_hash(cfg_raw),
        "seed": int(seed),
        "stages": stages,
        "outputs": outputs,
    })


def _load_config(config_path: str, expected_kind: str, out_override: str | None,
                 seed_override: int | None) -> io.ExperimentConfig:
    try:
        cfg = io.load_config(config_path)
    except (OSError, ValueError) as exc:
        raise CommandError(str(exc)) from exc
    if cfg.kind != expected_kind:
        raise CommandError(
            f"config kind is {cfg.kind!r} but the {expected_kind!r} command was invoked"
        )
    if out_override:
        cfg.output_dir = out_override
    if seed_override is not None:
        cfg.seed = seed_override
    return cfg


def _load_cloud(cfg: io.ExperimentConfig) -> tuple[geo.PointCloud, np.ndarray | None]:
    if cfg.input_mesh:
        cloud, faces = io.load_mesh(cfg.input_mesh)
        return cloud, faces
    if cfg.input_cloud:
        cloud, _ = io.load_point_cloud(cfg.input_cloud)
        return cloud, None
    raise CommandError("config needs input_mesh or input_cloud")


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


def _spectrum_checked(operator, k: int, seed: int) -> spectral.Spectrum:
    spec = spectral.eigendecompose(operator, k, seed=seed)
    if spec.splits_degenerate_cluster():
        log.warning(
            "eigenvector cut at k=%d splits a degenerate cluster "
            "(gap %.2e); kernels are basis-dependent across this cut",
            k, (spec.next_eigenvalue or 0.0) - spec.eigenvalues[-1],
        )
    return spec


def _geometry_pipeline(cfg: io.ExperimentConfig, stages: list):
    with _stage(stages, "load_input"):
        cloud, faces = _load_cloud(cfg)
    with _stage(stages, "build_graph"):
        graph = _build_graph(cfg, cloud, faces)
    with _stage(stages, "tangent_frames"):
        frames = geo.estimate_tangent_frames(graph, cloud, cfg.manifold_dim,
                                             cfg.frame_neighbors)
    with _stage(stages, "transports"):
        transports = geo.compute_transports(graph, frames)
    return cloud, faces, graph, frames, transports


def _load_field(cfg: io.ExperimentConfig, cloud: geo.PointCloud, stages: list) -> np.ndarray:
    if not cfg.field:
        raise CommandError("config needs a 'field' CSV with ground-truth vectors")
    with _stage(stages, "load_input"):
        ids, pts, vecs = io.read_vector_csv(cfg.field)
    if vecs is None:
        raise CommandError(f"{cfg.field}: no vector columns")
    if not np.array_equal(ids, np.arange(cloud.n)):
        raise CommandError(f"{cfg.field}: ids must be 0..{cloud.n - 1} in order")
    if not np.array_equal(pts, cloud.points):
        raise CommandError(f"{cfg.field}: positions disagree with the input geometry")
    return vecs


def _resolve_hyperparams(cfg: io.ExperimentConfig, train_nodes, targets, spectrum,
                         frames, graph, cloud, stages) -> gp.MaternHyperparams:
    hp = cfg.hyperparams_obj()
    if hp is not None:
        return hp
    nu = io._parse_nu((cfg.fit or {}).get("nu", 1.5))
    with _stage(stages, "fit_hyperparameters"):
        hp = gp.fit_hyperparameters(train_nodes, targets, spectrum, frames, nu=nu,
                                    search=_search_config(cfg), seed=cfg.seed,
                                    initial=_search_start(graph, cloud, nu))
    log.info("fitted hyperparams: sigma=%.4g kappa=%.4g nu=%s sigma_n=%.4g",
             hp.sigma, hp.kappa, hp.nu, hp.sigma_n)
    return hp


def _search_config(cfg: io.ExperimentConfig) -> gp.SearchConfig:
    """The search budget of ``cfg.fit``, shared by every search of a command."""
    return gp.SearchConfig(**{k: int(v) for k, v in (cfg.fit or {}).items() if k != "nu"})


def _search_start(graph: geo.ProximityGraph, cloud: geo.PointCloud,
                  nu: float) -> gp.MaternHyperparams:
    """First start of a hyperparameter search: unit amplitude, a lengthscale
    of five mean edge lengths and small noise."""
    kappa = 5.0 * geo.mean_edge_length(graph, cloud)
    return gp.MaternHyperparams(sigma=1.0, kappa=kappa, nu=nu, sigma_n=1e-3)


def _write_predictions(out_dir: Path, stem: str, cloud: geo.PointCloud,
                       nodes: np.ndarray, vectors: np.ndarray,
                       faces: np.ndarray | None, stages: list) -> None:
    with _stage(stages, "write_outputs"):
        io.write_vector_csv(out_dir / f"{stem}.csv", cloud.points[nodes], vectors,
                            ids=nodes)
        if cloud.dim in (2, 3):
            full = np.zeros((cloud.n, cloud.dim))
            full[nodes] = vectors
            io.write_vtk(out_dir / f"{stem}.vtk", cloud.points, full, name=stem,
                         faces=faces)


def _out_dir(cfg: io.ExperimentConfig) -> Path:
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _set_log_level(_ctx, _param, value):
    if value is not None:
        logging.getLogger().setLevel(value.upper())
        log.setLevel(value.upper())
    return value


def log_level_option(fn):
    return click.option("--log-level", expose_value=False, default=None,
                        type=click.Choice(["debug", "info", "warning", "error"]),
                        callback=_set_log_level, is_eager=True,
                        help="Stderr logging verbosity.")(fn)


def common_options(fn):
    fn = click.option("--config", "config_path", required=True,
                      type=click.Path(exists=True), help="Experiment config JSON.")(fn)
    fn = click.option("--out", "out_override", default=None,
                      help="Override the config's output directory.")(fn)
    fn = click.option("--seed", "seed_override", default=None, type=int,
                      help="Override the config's seed.")(fn)
    fn = log_level_option(fn)
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


def _run(fn, *args):
    try:
        fn(*args)
    except click.ClickException:
        raise
    except (ValueError, KeyError, IndexError, OSError, RuntimeError) as exc:
        raise CommandError(f"{type(exc).__name__}: {exc}") from exc


@main.command()
@common_options
def generate(config_path, out_override, seed_override):
    """Generate a smooth ground-truth vector field by heat diffusion."""
    cfg = _load_config(config_path, "generate", out_override, seed_override)
    _run(_cmd_generate, cfg)


def _cmd_generate(cfg: io.ExperimentConfig):
    stages: list = []
    out = _out_dir(cfg)
    cloud, faces, graph, frames, transports = _geometry_pipeline(cfg, stages)
    with _stage(stages, "laplacians"):
        lap = spectral.assemble_graph_laplacian(graph)
        con = spectral.assemble_connection_laplacian(graph, frames, transports)
    if cfg.anchor_count is not None:
        anchor_count = int(cfg.anchor_count)
    else:
        anchor_count = max(1, int(round((cfg.anchor_fraction or 0.1) * cloud.n)))
    with _stage(stages, "diffuse"):
        gen = fields.generate_experiment_field(cloud, frames, con, lap,
                                               anchor_count, cfg.seed, tau=cfg.tau)
    ambient = gen.field.ambient()
    with _stage(stages, "write_outputs"):
        io.write_vector_csv(out / "field.csv", cloud.points, ambient)
        if cloud.dim in (2, 3):
            io.write_vtk(out / "field.vtk", cloud.points, ambient, name="field",
                         faces=faces)
        coherence = fields.direction_coherence(graph, transports, gen.field.coords)
        io.write_json_atomic(out / "field_meta.json", {
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
    _write_manifest(out, "generate", cfg.raw, cfg.seed, stages)


@main.command()
@common_options
def superresolve(config_path, out_override, seed_override):
    """Fit on a seeded node split and predict the held-out vectors."""
    cfg = _load_config(config_path, "superresolve", out_override, seed_override)
    _run(_cmd_superresolve, cfg)


def _cmd_superresolve(cfg: io.ExperimentConfig):
    stages: list = []
    out = _out_dir(cfg)
    cloud, faces, graph, frames, transports = _geometry_pipeline(cfg, stages)
    truth = _load_field(cfg, cloud, stages)

    n_train = int(round(cfg.split_fraction * cloud.n))
    if n_train < 1:
        raise CommandError(f"split_fraction {cfg.split_fraction} leaves no training nodes")
    if n_train >= cloud.n:
        raise CommandError(f"split_fraction {cfg.split_fraction} leaves an empty test set")
    perm = np.random.default_rng(cfg.seed).permutation(cloud.n)
    train, test = perm[:n_train], perm[n_train:]

    k_max = max(cfg.k_list)
    with _stage(stages, "laplacians"):
        con = spectral.assemble_connection_laplacian(graph, frames, transports)
    with _stage(stages, "spectrum"):
        spec_full = _spectrum_checked(con, k_max, cfg.seed)

    metrics = []
    for k in sorted(set(cfg.k_list)):
        spec = spectral.truncate(spec_full, k)
        hp = _resolve_hyperparams(cfg, train, truth[train], spec, frames, graph,
                                  cloud, stages)
        with _stage(stages, f"fit_predict_k{k}"):
            if cfg.inducing_fraction:
                n_ind = max(1, int(round(cfg.inducing_fraction * len(train))))
                ind_sel, _ = geo.furthest_point_sample(cloud.points[train], n_ind)
                mean, _ = gp.inducing_point_predict(train, truth[train],
                                                    train[ind_sel], spec, frames,
                                                    hp, test)
            else:
                model = gp.fit(train, truth[train], spec, frames, hp)
                mean, _ = gp.predict(model, test)
        _write_predictions(out, f"predictions_k{k}", cloud, test, mean, faces, stages)
        for metric in (fields.alignment_score(mean, truth[test]),
                       fields.angular_error(mean, truth[test])):
            rec = metric.to_dict()
            rec["k"] = k
            metrics.append(rec)
    with _stage(stages, "write_outputs"):
        io.write_metrics_json(out / "metrics.json", metrics)
        np_split = {"train": [int(i) for i in train], "test": [int(i) for i in test]}
        io.write_json_atomic(out / "split.json", np_split)
    _write_manifest(out, "superresolve", cfg.raw, cfg.seed, stages)


def _resolve_mask(cfg: io.ExperimentConfig, cloud: geo.PointCloud,
                  graph: geo.ProximityGraph, transports: geo.TransportMaps,
                  frames: geo.GaugeFrames, truth: np.ndarray) -> np.ndarray:
    spec = cfg.mask or {}
    mask = np.zeros(cloud.n, dtype=bool)
    if "nodes" in spec:
        nodes = np.asarray(spec["nodes"], dtype=np.int64)
        if nodes.size and (nodes.min() < 0 or nodes.max() >= cloud.n):
            raise CommandError("mask node out of range")
        mask[nodes] = True
        return mask
    center = spec.get("center_node", "auto")
    if center == "auto":
        # lowest transport-averaged direction coherence marks the most
        # singularity-like node of the truth field
        coords = frames.project(truth)
        coherence = fields.direction_coherence(graph, transports, coords)
        center = int(np.argmin(coherence))
    else:
        center = int(center)
        if not 0 <= center < cloud.n:
            raise CommandError(f"mask center_node {center} out of range")
    dists = np.linalg.norm(cloud.points - cloud.points[center], axis=1)
    if "radius" in spec:
        mask[dists <= float(spec["radius"])] = True
    else:
        fraction = float(spec.get("fraction", 0.15))
        count = max(1, int(round(fraction * cloud.n)))
        mask[np.argsort(dists, kind="stable")[:count]] = True
    return mask


@main.command()
@common_options
def inpaint(config_path, out_override, seed_override):
    """Mask a region, train on the rest, and predict inside the mask with
    both the vector GP and the channel-wise RBF baseline."""
    cfg = _load_config(config_path, "inpaint", out_override, seed_override)
    _run(_cmd_inpaint, cfg)


def _cmd_inpaint(cfg: io.ExperimentConfig):
    stages: list = []
    out = _out_dir(cfg)
    cloud, faces, graph, frames, transports = _geometry_pipeline(cfg, stages)
    truth = _load_field(cfg, cloud, stages)
    mask = _resolve_mask(cfg, cloud, graph, transports, frames, truth)
    if not mask.any():
        raise CommandError("mask is empty: nothing to inpaint")
    if mask.all():
        raise CommandError("mask covers all nodes: nothing to train on")
    train = np.nonzero(~mask)[0]
    test = np.nonzero(mask)[0]

    k = max(cfg.k_list)
    with _stage(stages, "laplacians"):
        con = spectral.assemble_connection_laplacian(graph, frames, transports)
        lap = spectral.assemble_graph_laplacian(graph)
    with _stage(stages, "spectrum"):
        spec_c = _spectrum_checked(con, k, cfg.seed)
        spec_s = _spectrum_checked(lap, min(k, cloud.n - 2), cfg.seed)

    hp = _resolve_hyperparams(cfg, train, truth[train], spec_c, frames, graph,
                              cloud, stages)
    with _stage(stages, "fit_predict_gp"):
        model = gp.fit(train, truth[train], spec_c, frames, hp)
        mean_gp, _ = gp.predict(model, test)

    hp_base = io._hp_from_dict(cfg.baseline_hyperparams)
    if hp_base is None:
        with _stage(stages, "fit_baseline_hyperparameters"):
            hp_base = fields.fit_baseline_hyperparameters(
                spec_s, train, truth[train], _search_config(cfg), seed=cfg.seed,
                initial=_search_start(graph, cloud, math.inf))
    with _stage(stages, "fit_predict_baseline"):
        mean_base = fields.baseline_scalar_rbf_predict(spec_s, train, truth[train],
                                                       test, hp_base)

    metrics = []
    for method, mean in (("vector_gp", mean_gp), ("channel_rbf", mean_base)):
        combined = truth.copy()
        combined[test] = mean
        per_method = [
            fields.out_of_tangent_magnitude(mean, frames, test),
            fields.boundary_angular_jump(graph, transports, frames, combined, mask),
            fields.alignment_score(mean, truth[test]),
            fields.angular_error(mean, truth[test]),
        ]
        for metric in per_method:
            rec = metric.to_dict()
            rec["method"] = method
            metrics.append(rec)
        _write_predictions(out, f"predictions_{method}", cloud, test, mean, faces, stages)
    with _stage(stages, "write_outputs"):
        io.write_metrics_json(out / "metrics.json", metrics)
        io.write_json_atomic(out / "mask.json",
                             {"nodes": [int(i) for i in np.nonzero(mask)[0]]})
    _write_manifest(out, "inpaint", cfg.raw, cfg.seed, stages)


@main.command(name="fit")
@common_options
def fit_cmd(config_path, out_override, seed_override):
    """Fit a model to every vector in the field file and persist it."""
    cfg = _load_config(config_path, "fit", out_override, seed_override)
    _run(_cmd_fit, cfg)


def _cmd_fit(cfg: io.ExperimentConfig):
    stages: list = []
    out = _out_dir(cfg)
    cloud, faces, graph, frames, transports = _geometry_pipeline(cfg, stages)
    truth = _load_field(cfg, cloud, stages)
    k = max(cfg.k_list)
    with _stage(stages, "laplacians"):
        con = spectral.assemble_connection_laplacian(graph, frames, transports)
    with _stage(stages, "spectrum"):
        spec = _spectrum_checked(con, k, cfg.seed)
    train = np.arange(cloud.n)
    hp = _resolve_hyperparams(cfg, train, truth, spec, frames, graph, cloud, stages)
    with _stage(stages, "fit_model"):
        model = gp.fit(train, truth, spec, frames, hp)
    with _stage(stages, "write_outputs"):
        io.save_model(out / "model", model, frames)
    _write_manifest(out, "fit", cfg.raw, cfg.seed, stages)


@main.command()
@common_options
def predict(config_path, out_override, seed_override):
    """Predict vectors at query nodes from a persisted model."""
    cfg = _load_config(config_path, "predict", out_override, seed_override)
    _run(_cmd_predict, cfg)


def _cmd_predict(cfg: io.ExperimentConfig):
    stages: list = []
    out = _out_dir(cfg)
    if not cfg.model_dir:
        raise CommandError("config needs model_dir")
    with _stage(stages, "load_model"):
        model, frames = io.load_model(cfg.model_dir)

    if cfg.query_points is not None:
        if not cfg.allow_out_of_graph:
            raise CommandError(
                "query_points given but allow_out_of_graph is false; off-graph "
                "prediction is an extension beyond the core method"
            )
        cloud, faces, graph, _, _ = _geometry_pipeline(cfg, stages)
        ids, qpts, _ = io.read_vector_csv(cfg.query_points)
        with _stage(stages, "extend_encodings"):
            enc, _ = gp.extend_encodings(qpts, cloud, graph, frames, model.spectrum)
        with _stage(stages, "predict"):
            mean, covs = gp.predict_at_encodings(model, enc)
        with _stage(stages, "write_outputs"):
            io.write_vector_csv(out / "predictions.csv", qpts, mean, ids=ids)
            _write_variances(out, ids, covs)
    else:
        n = model.encodings.shape[0]
        if cfg.query == "all":
            nodes = np.arange(n)
        else:
            nodes = np.asarray(cfg.query, dtype=np.int64)
            if nodes.size and (nodes.min() < 0 or nodes.max() >= n):
                raise CommandError("query node out of range")
        # node positions are not stored in the model; pull them from the
        # configured geometry when available, else write zeros
        if cfg.input_mesh or cfg.input_cloud:
            with _stage(stages, "load_input"):
                cloud, _ = _load_cloud(cfg)
            if cloud.n <= int(nodes.max(initial=0)):
                raise CommandError("query node out of range for the given geometry")
            positions = cloud.points[nodes]
        else:
            positions = np.zeros((len(nodes), frames.dim))
        with _stage(stages, "predict"):
            mean, covs = gp.predict(model, nodes)
        with _stage(stages, "write_outputs"):
            io.write_vector_csv(out / "predictions.csv", positions, mean, ids=nodes)
            _write_variances(out, nodes, covs)
    _write_manifest(out, "predict", cfg.raw, cfg.seed, stages)


def _write_variances(out: Path, ids: np.ndarray, covs: np.ndarray) -> None:
    lines = ["id,variance_trace"]
    for i, cov in zip(ids, covs):
        lines.append(f"{int(i)},{io.fmt_float(float(np.trace(cov)))}")
    (out / "variances.csv").write_text("\n".join(lines) + "\n")


@main.command(name="eval")
@click.option("--pred", "pred_path", required=True, type=click.Path(exists=True),
              help="Predictions CSV (id,x...,v...).")
@click.option("--truth", "truth_path", required=True, type=click.Path(exists=True),
              help="Ground-truth CSV; scored on the ids both files share.")
@click.option("--config", "config_path", default=None, type=click.Path(exists=True),
              help="Optional config (kind=eval) for graph parameters.")
@click.option("--out", "out_override", default=None, help="Output directory.")
@log_level_option
def eval_cmd(pred_path, truth_path, config_path, out_override):
    """Alignment and angular error on the node ids both files share, and
    Dirichlet energies of the truth field with and without the predictions.

    Ids found in only one file are counted in n_excluded. The energies use
    the graph rebuilt from the truth file; the predicted one replaces the
    truth at the shared ids."""
    _run(_cmd_eval, pred_path, truth_path, config_path, out_override)


def _cmd_eval(pred_path, truth_path, config_path, out_override):
    stages: list = []
    if config_path:
        cfg = _load_config(config_path, "eval", out_override, None)
    else:
        if not out_override:
            raise CommandError("eval needs --out (or a config with output_dir)")
        cfg = io.ExperimentConfig(kind="eval", output_dir=out_override,
                                  raw={"kind": "eval"})
    out = _out_dir(cfg)

    with _stage(stages, "load_input"):
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

    records = []
    for metric in (fields.alignment_score(pred_vecs[pred_at], truth_vecs[truth_at]),
                   fields.angular_error(pred_vecs[pred_at], truth_vecs[truth_at])):
        rec = metric.to_dict()
        rec["n_nodes"] += unmatched
        rec["n_excluded"] += unmatched
        records.append(rec)

    with _stage(stages, "rebuild_geometry"):
        cloud = geo.PointCloud(truth_pts)
        graph = _build_graph(cfg, cloud, None)
        frames = geo.estimate_tangent_frames(graph, cloud, cfg.manifold_dim,
                                             cfg.frame_neighbors)
        transports = geo.compute_transports(graph, frames)
    combined = truth_vecs.copy()
    combined[truth_at] = pred_vecs[pred_at]
    for name, vecs in (("dirichlet_energy_pred", combined),
                       ("dirichlet_energy_truth", truth_vecs)):
        energy = spectral.dirichlet_energy(graph, transports, frames.project(vecs))
        records.append({"metric": name, "value": energy,
                        "n_nodes": int(cloud.n), "n_excluded": 0})
    with _stage(stages, "write_outputs"):
        io.write_json_atomic(out / "metrics.json", {"metrics": records})
    raw = cfg.raw or {"kind": "eval"}
    _write_manifest(out, "eval", raw, cfg.seed, stages)
    for rec in records:
        click.echo(f"{rec['metric']}: {rec['value']:.6g}")


@main.command()
@common_options
def spectrum(config_path, out_override, seed_override):
    """Compute and export the connection-Laplacian spectrum."""
    cfg = _load_config(config_path, "spectrum", out_override, seed_override)
    _run(_cmd_spectrum, cfg)


def _cmd_spectrum(cfg: io.ExperimentConfig):
    stages: list = []
    out = _out_dir(cfg)
    cloud, faces, graph, frames, transports = _geometry_pipeline(cfg, stages)
    k = max(cfg.k_list)
    with _stage(stages, "laplacians"):
        con = spectral.assemble_connection_laplacian(graph, frames, transports)
    with _stage(stages, "spectrum"):
        spec = _spectrum_checked(con, k, cfg.seed)
    with _stage(stages, "write_outputs"):
        io.save_spectrum(out / "spectrum", spec)
    _write_manifest(out, "spectrum", cfg.raw, cfg.seed, stages)


if __name__ == "__main__":
    main()
