import hashlib
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import tangentgp as tg
from tangentgp import fields as tfields
from tangentgp import geometry as geo
from tangentgp import gp
from tangentgp import io as tio
from tangentgp.cli import Run, main

FIXTURES = Path(__file__).parent / "fixtures"
TORUS_OBJ = FIXTURES / "torus_400.obj"

HYPERPARAMS = {"sigma": 1.0, "kappa": 2.0, "nu": 1.5, "sigma_n": 0.001}
BASELINE_HP = {"sigma": 1.0, "kappa": 2.0, "nu": "inf", "sigma_n": 0.001}


def run_cli(args):
    return CliRunner().invoke(main, args)


def run_python(*args, **env):
    """Run this interpreter on ``args`` in a process of its own, with the
    package's source on the path and ``env`` added to the environment."""
    src = str(Path(tg.__file__).parent.parent)
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def write_config(directory, name, payload):
    path = Path(directory) / name
    path.write_text(json.dumps(payload))
    return path


def output_hashes(out_dir):
    manifest = json.loads((Path(out_dir) / "manifest.json").read_text())
    return {o["path"]: o["sha256"] for o in manifest["outputs"]}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def generated(workdir):
    cfg = write_config(workdir, "generate.json", {
        "kind": "generate",
        "input_mesh": str(TORUS_OBJ),
        "graph": {"k_neighbors": 6},
        "manifold_dim": 2,
        "seed": 7,
        "anchor_count": 40,
        "output_dir": str(workdir / "gen"),
    })
    result = run_cli(["generate", "--config", str(cfg)])
    assert result.exit_code == 0, result.output
    return workdir / "gen", cfg


class TestGenerate:
    def test_outputs_and_default_tau(self, generated):
        out, _ = generated
        meta = json.loads((out / "field_meta.json").read_text())
        assert meta["tau"] == 100.0  # protocol default
        assert meta["anchor_count"] == 40
        assert meta["singular_count"] >= 0
        assert (out / "field.csv").exists() and (out / "field.vtk").exists()

    def test_rerun_is_byte_identical(self, generated, workdir):
        out, cfg = generated
        result = run_cli(["generate", "--config", str(cfg), "--out",
                          str(workdir / "gen_rerun")])
        assert result.exit_code == 0, result.output
        assert output_hashes(out) == output_hashes(workdir / "gen_rerun")

    def test_seed_override_changes_field(self, generated, workdir):
        _, cfg = generated
        result = run_cli(["generate", "--config", str(cfg), "--out",
                          str(workdir / "gen_seed9"), "--seed", "9"])
        assert result.exit_code == 0, result.output
        base = output_hashes(generated[0])
        reseeded = output_hashes(workdir / "gen_seed9")
        assert base["field.csv"] != reseeded["field.csv"]

    def test_genus_zero_reports_singularity_count(self, workdir):
        cfg = write_config(workdir, "generate_sphere.json", {
            "kind": "generate",
            "input_mesh": str(FIXTURES / "icosphere_162.obj"),
            "graph": {"k_neighbors": 6},
            "manifold_dim": 2,
            "seed": 7,
            "anchor_count": 16,
            "output_dir": str(workdir / "gen_sphere"),
        })
        result = run_cli(["generate", "--config", str(cfg)])
        assert result.exit_code == 0, result.output
        meta = json.loads((workdir / "gen_sphere" / "field_meta.json").read_text())
        assert meta["singular_count"] >= 0
        assert isinstance(meta["singular_candidates"], list)
        assert 0 <= meta["min_coherence_node"] < 162

    def test_coherence_is_computed_in_the_diffuse_stage(self, generated, workdir,
                                                        monkeypatch, caplog):
        # field_meta's min_coherence_node is compute: file output is not charged
        _, cfg = generated
        coherence, active = tfields.direction_coherence, []

        def spy(*args):
            active.append(next(r.getMessage() for r in reversed(caplog.records)
                               if r.getMessage().startswith("stage ")))
            return coherence(*args)

        monkeypatch.setattr(tfields, "direction_coherence", spy)
        with caplog.at_level(logging.INFO, logger="tangentgp"):
            result = run_cli(["generate", "--config", str(cfg), "--out",
                              str(workdir / "gen_stages")])
        assert result.exit_code == 0, result.output
        assert active == ["stage diffuse"]
        assert output_hashes(workdir / "gen_stages") == output_hashes(generated[0])

    def test_manifest_hash_stable_under_key_reordering(self, generated, workdir):
        out, cfg = generated
        raw = json.loads(Path(cfg).read_text())
        shuffled = dict(reversed(list(raw.items())))
        cfg2 = write_config(workdir, "generate_shuffled.json", shuffled)
        result = run_cli(["generate", "--config", str(cfg2), "--out",
                          str(workdir / "gen_shuffled")])
        assert result.exit_code == 0, result.output
        m1 = json.loads((out / "manifest.json").read_text())
        m2 = json.loads((workdir / "gen_shuffled" / "manifest.json").read_text())
        assert m1["config_hash"] == m2["config_hash"]


@pytest.fixture(scope="module")
def superresolved(workdir, generated):
    out, _ = generated
    cfg = write_config(workdir, "super.json", {
        "kind": "superresolve",
        "input_mesh": str(TORUS_OBJ),
        "field": str(out / "field.csv"),
        "graph": {"k_neighbors": 6},
        "manifold_dim": 2,
        "num_eigenvectors": [10, 25, 50],
        "hyperparams": HYPERPARAMS,
        "seed": 11,
        "output_dir": str(workdir / "super"),
    })
    result = run_cli(["superresolve", "--config", str(cfg)])
    assert result.exit_code == 0, result.output
    return workdir / "super", cfg


class TestPointCloudInput:
    """The latent-manifold setting: a bare point-cloud CSV and a k-NN graph."""

    def test_generate_then_superresolve(self, workdir, generated, superresolved):
        # the fixture's vertices give the mesh runs' k-NN graph, so every
        # output but the VTK files, which draw the mesh faces, is the same
        vertices = workdir / "torus_400.csv"
        tio.write_vector_csv(vertices, tio.load_mesh(TORUS_OBJ)[0].points)
        for name, (mesh_out, cfg) in (("cloud_gen", generated),
                                      ("cloud_super", superresolved)):
            payload = {**json.loads(Path(cfg).read_text()), "input_cloud": str(vertices),
                       "output_dir": str(workdir / name)}
            del payload["input_mesh"]
            if "field" in payload:
                payload["field"] = str(workdir / "cloud_gen" / "field.csv")
            result = run_cli([payload["kind"], "--config",
                              str(write_config(workdir, f"{name}.json", payload))])
            assert result.exit_code == 0, result.output
            hashes = output_hashes(workdir / name)
            expected = {path: digest for path, digest in output_hashes(mesh_out).items()
                        if not path.endswith(".vtk")}
            assert {path: hashes[path] for path in expected} == expected, name
        ids, _, _ = tio.read_vector_csv(workdir / "cloud_gen" / "field.csv")
        assert np.array_equal(ids, np.arange(400))

    @pytest.mark.parametrize("role", ["input_cloud", "field"])
    def test_shifted_ids_rejected(self, workdir, generated, role):
        # row i of a cloud, as of a field, is node i; other ids name the file
        field = generated[0] / "field.csv"
        _, points, vectors = tio.read_vector_csv(field)
        shifted = (workdir / f"shifted_{role}.csv").resolve()
        tio.write_vector_csv(shifted, points, vectors if role == "field" else None,
                             ids=7 + 10 * np.arange(400))
        inputs = {"input_cloud": {"input_cloud": str(shifted), "field": str(field)},
                  "field": {"input_mesh": str(TORUS_OBJ), "field": str(shifted)}}[role]
        cfg = write_config(workdir, f"shifted_{role}.json", {
            "kind": "superresolve", **inputs, "graph": {"k_neighbors": 6},
            "hyperparams": HYPERPARAMS, "output_dir": str(workdir / f"shifted_{role}")})
        result = run_cli(["superresolve", "--config", str(cfg)])
        assert result.exit_code == 1
        assert f"{shifted}: ids must be 0..399 in order" in result.output
        assert not (workdir / f"shifted_{role}").exists()


class TestSuperresolve:
    def test_eigenvector_sweep_records(self, superresolved):
        out, _ = superresolved
        metrics = json.loads((out / "metrics.json").read_text())["metrics"]
        ks = sorted({m["k"] for m in metrics})
        assert ks == [10, 25, 50]
        # k = 25 splits the fourfold cluster at columns 22-25 and rounds up
        assert {m["k"]: m["k_used"] for m in metrics} == {10: 10, 25: 26, 50: 50}
        for k in ks:
            assert (out / f"predictions_k{k}.csv").exists()
        by_key = {(m["k"], m["metric"]): m["value"] for m in metrics}
        assert by_key[(50, "alignment")] > 0.9
        # file reads and writes run inside stages
        stages = json.loads((out / "manifest.json").read_text())["stages"]
        names = [stage["name"] for stage in stages]
        assert names.count("load_input") == 2  # the mesh, then the field
        assert names.count("write_outputs") == 4  # one per k, then metrics

    def test_split_is_seeded_and_half(self, superresolved):
        out, _ = superresolved
        split = json.loads((out / "split.json").read_text())
        assert len(split["train"]) == 200 and len(split["test"]) == 200
        expected = np.random.default_rng(11).permutation(400)
        assert split["train"] == [int(i) for i in expected[:200]]

    def test_full_fraction_is_an_error(self, workdir, generated):
        out, _ = generated
        cfg = write_config(workdir, "super_bad.json", {
            "kind": "superresolve",
            "input_mesh": str(TORUS_OBJ),
            "field": str(out / "field.csv"),
            "graph": {"k_neighbors": 6},
            "split_fraction": 1.0,
            "hyperparams": HYPERPARAMS,
            "seed": 1,
            "output_dir": str(workdir / "super_bad"),
        })
        result = run_cli(["superresolve", "--config", str(cfg)])
        assert result.exit_code != 0
        assert "empty test set" in result.output

    def test_rerun_is_byte_identical(self, superresolved, workdir):
        out, cfg = superresolved
        result = run_cli(["superresolve", "--config", str(cfg), "--out",
                          str(workdir / "super_rerun")])
        assert result.exit_code == 0, result.output
        assert output_hashes(out) == output_hashes(workdir / "super_rerun")

    def test_predictions_agree_across_blas_thread_counts(self, superresolved, workdir):
        # whole eigenvalue clusters make the kernel independent of the basis
        # that rounding picks inside a cluster, so one and two BLAS threads
        # agree to 1e-10 (bytes agree only at a fixed thread count); fixed
        # hyperparameters keep a last-bit change from moving a searched one
        _, cfg = superresolved
        raw = json.loads(Path(cfg).read_text())
        fixed = write_config(workdir, "super_threads.json", {
            **raw, "hyperparams": {"sigma": 1.0, "kappa": 1.0, "nu": 1.5,
                                   "sigma_n": 0.01}})
        runs = []
        for threads in ("1", "2"):
            out = workdir / f"super_threads{threads}"
            done = run_python("-m", "tangentgp.cli", "superresolve", "--config", str(fixed),
                              "--out", str(out), OPENBLAS_NUM_THREADS=threads,
                              OMP_NUM_THREADS=threads)
            assert done.returncode == 0, done.stderr
            metrics = json.loads((out / "metrics.json").read_text())["metrics"]
            runs.append((out, {m["k"]: m["k_used"] for m in metrics}))
        (one, used_one), (two, used_two) = runs
        assert used_one == used_two
        for k in (10, 25, 50):
            ids_one, _, pred_one = tio.read_vector_csv(one / f"predictions_k{k}.csv")
            ids_two, _, pred_two = tio.read_vector_csv(two / f"predictions_k{k}.csv")
            assert np.array_equal(ids_one, ids_two)
            assert np.abs(pred_one - pred_two).max() <= 1e-10, k

    def test_metrics_match_direct_library_calls(self, superresolved, generated):
        out, _ = superresolved
        gen_out, _ = generated
        _, _, truth = tio.read_vector_csv(gen_out / "field.csv")
        ids, _, pred = tio.read_vector_csv(out / "predictions_k50.csv")
        direct = tfields.alignment_score(pred, truth[ids])
        metrics = json.loads((out / "metrics.json").read_text())["metrics"]
        recorded = next(m for m in metrics
                        if m["k"] == 50 and m["metric"] == "alignment")
        assert recorded["value"] == pytest.approx(direct.value, rel=1e-12)


class TestInpaint:
    def _config(self, workdir, generated, name, mask, out_name):
        gen_out, _ = generated
        return write_config(workdir, name, {
            "kind": "inpaint",
            "input_mesh": str(TORUS_OBJ),
            "field": str(gen_out / "field.csv"),
            "graph": {"k_neighbors": 6},
            "num_eigenvectors": 50,
            "hyperparams": HYPERPARAMS,
            "baseline_hyperparams": BASELINE_HP,
            "seed": 3,
            "mask": mask,
            "output_dir": str(workdir / out_name),
        })

    def test_structural_tangency_vs_baseline(self, workdir, generated):
        # the boundary-jump comparison needs fitted hyperparameters and lives
        # in the acceptance suite; this checks the structural claims
        cfg = self._config(workdir, generated, "inpaint.json",
                           {"center_node": "auto", "fraction": 0.15}, "inpaint")
        result = run_cli(["inpaint", "--config", str(cfg)])
        assert result.exit_code == 0, result.output
        metrics = json.loads(
            (workdir / "inpaint" / "metrics.json").read_text())["metrics"]
        by = {(m["method"], m["metric"]): m["value"] for m in metrics}
        assert by[("vector_gp", "out_of_tangent")] <= 1e-8
        assert by[("channel_rbf", "out_of_tangent")] > 0.0
        assert ("vector_gp", "boundary_max_angular_jump") in by
        mask_nodes = json.loads(
            (workdir / "inpaint" / "mask.json").read_text())["nodes"]
        assert len(mask_nodes) == 60  # 15% of 400

    def test_both_searches_get_the_fit_budget(self, workdir, generated, monkeypatch):
        # the vector and the baseline search run on the one default budget;
        # the field read and every prediction write run inside a stage
        gen_out, _ = generated
        cfg = write_config(workdir, "inpaint_budget.json", {
            "kind": "inpaint",
            "input_mesh": str(TORUS_OBJ),
            "field": str(gen_out / "field.csv"),
            "graph": {"k_neighbors": 6},
            "num_eigenvectors": 10,
            "fit": {"nu": 1.5},
            "seed": 3,
            "mask": {"center_node": "auto", "fraction": 0.15},
            "output_dir": str(workdir / "inpaint_budget"),
        })
        received = []
        search = gp.coordinate_search

        def recording_search(objective, config, *args, **kwargs):
            received.append(config)
            return search(objective, config, *args, **kwargs)

        monkeypatch.setattr(gp, "coordinate_search", recording_search)
        result = run_cli(["inpaint", "--config", str(cfg)])
        assert result.exit_code == 0, result.output
        assert received == [gp.SearchConfig()] * 2
        manifest = json.loads((workdir / "inpaint_budget" / "manifest.json").read_text())
        names = [stage["name"] for stage in manifest["stages"]]
        assert names.count("load_input") == 2  # the mesh, then the field
        assert names.count("write_outputs") == 3  # two predictions, then metrics

    def test_baseline_spectrum_of_a_small_mesh_is_complete(self, workdir, monkeypatch):
        # k >= n: the channel-wise baseline gets all n graph-Laplacian pairs
        mesh = workdir / "torus_10x6.obj"
        tio.write_obj(mesh, *tio.generate_torus(2.0, 0.8, 10, 6))
        base = {"input_mesh": str(mesh), "graph": {"use_mesh_edges": True},
                "manifold_dim": 2, "seed": 3}
        gen_cfg = write_config(workdir, "generate_10x6.json", {
            **base, "kind": "generate", "anchor_count": 10,
            "output_dir": str(workdir / "gen_10x6")})
        assert run_cli(["generate", "--config", str(gen_cfg)]).exit_code == 0
        cfg = write_config(workdir, "inpaint_10x6.json", {
            **base, "kind": "inpaint", "field": str(workdir / "gen_10x6" / "field.csv"),
            "num_eigenvectors": 64, "hyperparams": HYPERPARAMS,
            "baseline_hyperparams": BASELINE_HP,
            "mask": {"center_node": "auto", "fraction": 0.15},
            "output_dir": str(workdir / "inpaint_10x6")})
        solved = []
        eigendecompose = tg.spectral.eigendecompose

        def spy(operator, k, **kwargs):
            spec = eigendecompose(operator, k, **kwargs)
            solved.append((operator.m, k, spec.k, spec.next_eigenvalue))
            return spec

        monkeypatch.setattr(tg.spectral, "eigendecompose", spy)
        result = run_cli(["inpaint", "--config", str(cfg)])
        assert result.exit_code == 0, result.output
        assert solved[1:] == [(1, 60, 60, None)]  # after the connection's solve

    def test_empty_mask_rejected(self, workdir, generated):
        cfg = self._config(workdir, generated, "inpaint_empty.json",
                           {"nodes": []}, "inpaint_empty")
        result = run_cli(["inpaint", "--config", str(cfg)])
        assert result.exit_code != 0
        assert "empty" in result.output

    def test_full_mask_rejected(self, workdir, generated):
        cfg = self._config(workdir, generated, "inpaint_full.json",
                           {"nodes": list(range(400))}, "inpaint_full")
        result = run_cli(["inpaint", "--config", str(cfg)])
        assert result.exit_code != 0
        assert "train" in result.output


@pytest.fixture(scope="module")
def fitted(workdir, generated):
    """The model directory of a fit on the fixture (k-NN graph, k = 6)."""
    gen_out, _ = generated
    fit_cfg = write_config(workdir, "fit.json", {
        "kind": "fit",
        "input_mesh": str(TORUS_OBJ),
        "field": str(gen_out / "field.csv"),
        "graph": {"k_neighbors": 6},
        "num_eigenvectors": 50,
        "hyperparams": HYPERPARAMS,
        "seed": 2,
        "output_dir": str(workdir / "fit"),
    })
    result = run_cli(["fit", "--config", str(fit_cfg)])
    assert result.exit_code == 0, result.output
    assert (workdir / "fit" / "model" / "model.json").exists()
    return workdir / "fit" / "model"


class TestFitPredict:
    def test_fit_then_predict_round_trip(self, workdir, generated, fitted):
        gen_out, _ = generated
        pred_cfg = write_config(workdir, "predict.json", {
            "kind": "predict",
            "model_dir": str(fitted),
            "query": "all",
            "seed": 2,
            "output_dir": str(workdir / "pred"),
        })
        result = run_cli(["predict", "--config", str(pred_cfg)])
        assert result.exit_code == 0, result.output
        ids, _, pred = tio.read_vector_csv(workdir / "pred" / "predictions.csv")
        _, _, truth = tio.read_vector_csv(gen_out / "field.csv")
        align = tfields.alignment_score(pred, truth)
        assert align.value > 0.99
        assert (workdir / "pred" / "variances.csv").exists()
        # the model directory holds the node positions: nothing else is read
        stages = json.loads((workdir / "pred" / "manifest.json").read_text())["stages"]
        assert [stage["name"] for stage in stages] == ["load_model", "predict",
                                                       "write_outputs"]

    def test_empty_query_writes_header_only_files(self, workdir, fitted):
        # the schema allows "query": [], and a query_points CSV may hold only
        # its header
        qcsv = workdir / "queries_none.csv"
        tio.write_vector_csv(qcsv, np.empty((0, 3)))
        off_graph = {"graph": {"k_neighbors": 6}, "query_points": str(qcsv)}
        for name, query in (("pred_none", {"query": []}), ("pred_off_none", off_graph)):
            cfg = write_config(workdir, f"{name}.json", {
                "kind": "predict",
                "model_dir": str(fitted),
                "input_mesh": str(TORUS_OBJ),
                **query,
                "seed": 2,
                "output_dir": str(workdir / name),
            })
            result = run_cli(["predict", "--config", str(cfg)])
            assert result.exit_code == 0, result.output
            out = workdir / name
            assert (out / "predictions.csv").read_text() == "id,x0,x1,x2,v0,v1,v2\n"
            assert (out / "variances.csv").read_text() == "id,variance_trace\n"

    def test_off_graph_queries_are_extended_with_a_warning(self, workdir, fitted,
                                                           caplog):
        qcsv = workdir / "queries.csv"
        tio.write_vector_csv(qcsv, np.array([[2.8, 0.0, 0.1], [0.0, 2.8, 0.2]]))
        cfg = write_config(workdir, "predict_off.json", {
            "kind": "predict",
            "model_dir": str(fitted),
            "query_points": str(qcsv),
            "seed": 2,
            "output_dir": str(workdir / "pred_off"),
        })
        with caplog.at_level(logging.WARNING, logger="tangentgp"):
            result = run_cli(["predict", "--config", str(cfg)])
        assert result.exit_code == 0, result.output
        assert [r.getMessage() for r in caplog.records] == [
            "query_points are encoded by gp.extend_encodings, an off-graph "
            "extension beyond the core method"]
        ids, _, vecs = tio.read_vector_csv(workdir / "pred_off" / "predictions.csv")
        assert vecs.shape == (2, 3)
        assert np.isfinite(vecs).all()
        # the model's graph and frames encode the queries, the one input read
        # beside the model, and nothing is rebuilt
        stages = json.loads((workdir / "pred_off" / "manifest.json").read_text())["stages"]
        assert [stage["name"] for stage in stages] == [
            "load_model", "load_input", "extend_encodings", "predict", "write_outputs"]

    @pytest.mark.parametrize("keys", [
        {}, {"graph": {"k_neighbors": 10}},
        {"graph": {"k_neighbors": 10}, "frame_neighbors": 5}],
        ids=["no_graph", "k10", "k10_frames5"])
    def test_off_graph_predictions_use_the_model_graph(self, workdir, fitted, keys):
        # the model was fitted on a k = 6 graph; the config's graph and frame
        # keys change nothing
        qcsv = workdir / "queries_other_graph.csv"
        tio.write_vector_csv(qcsv, np.array([[2.8, 0.0, 0.1], [0.0, 2.8, 0.2]]))
        outputs = []
        for name, extra in (("own", {"graph": {"k_neighbors": 6}}), ("other", keys)):
            out = workdir / f"pred_graph_{name}"
            cfg = write_config(workdir, f"pred_graph_{name}.json", {
                "kind": "predict", "model_dir": str(fitted),
                "input_mesh": str(TORUS_OBJ), **extra, "query_points": str(qcsv),
                "output_dir": str(out)})
            result = run_cli(["predict", "--config", str(cfg)])
            assert result.exit_code == 0, result.output
            outputs.append([(out / f).read_bytes()
                            for f in ("predictions.csv", "variances.csv")])
        assert outputs[0] == outputs[1]

    def test_off_graph_predictions_of_a_mesh_edge_model(self, workdir, generated):
        # no graph block: the default k-NN graph would be another graph
        gen_out, _ = generated
        base = {"input_mesh": str(TORUS_OBJ), "seed": 2}
        fit_cfg = write_config(workdir, "fit_mesh.json", {
            **base, "kind": "fit", "field": str(gen_out / "field.csv"),
            "graph": {"use_mesh_edges": True}, "num_eigenvectors": 50,
            "hyperparams": HYPERPARAMS, "output_dir": str(workdir / "fit_mesh")})
        assert run_cli(["fit", "--config", str(fit_cfg)]).exit_code == 0
        queries = np.array([[2.8, 0.0, 0.1], [0.0, 2.8, 0.2]])
        tio.write_vector_csv(workdir / "queries_mesh.csv", queries)
        cfg = write_config(workdir, "pred_mesh.json", {
            **base, "kind": "predict", "model_dir": str(workdir / "fit_mesh" / "model"),
            "query_points": str(workdir / "queries_mesh.csv"),
            "output_dir": str(workdir / "pred_mesh")})
        result = run_cli(["predict", "--config", str(cfg)])
        assert result.exit_code == 0, result.output

        model, frames, cloud, graph = tio.load_model(workdir / "fit_mesh" / "model")
        mesh_graph = geo.build_mesh_graph(*tio.load_mesh(TORUS_OBJ))
        assert np.array_equal(graph.edges, mesh_graph.edges)
        enc, _ = gp.extend_encodings(queries, cloud, mesh_graph, frames, model.spectrum)
        mean, _ = gp.predict_at_encodings(model, enc)
        _, _, vecs = tio.read_vector_csv(workdir / "pred_mesh" / "predictions.csv")
        assert np.array_equal(vecs, mean)

    @pytest.mark.parametrize("probe, off_graph", [
        pytest.param(probe, off_graph, id=probe + "_off_graph" * off_graph)
        for probe in ("fixture", "shuffled", "other_torus", "scaled", "torus_96")
        for off_graph in (False, True)])
    def test_only_the_model_geometry_predicts(self, tmp_path, fitted, probe, off_graph):
        # predict reads only the model directory and its queries: a configured
        # geometry and graph block, the model's own or not, change no byte
        cloud, faces = tio.load_mesh(TORUS_OBJ)
        queries = {}
        if off_graph:
            qcsv = tmp_path / "queries.csv"
            tio.write_vector_csv(qcsv, (cloud.points[faces[:5, 0]]
                                        + cloud.points[faces[:5, 1]]) / 2)
            queries["query_points"] = str(qcsv)
        if probe in ("fixture", "torus_96"):
            # a 12 x 8 torus has 96 nodes, the model 400
            mesh = TORUS_OBJ if probe == "fixture" else tmp_path / "torus_96.obj"
            if probe == "torus_96":
                tio.write_obj(mesh, *tio.generate_torus(2.0, 0.8, 12, 8))
            geometry = {"input_mesh": str(mesh)}
        else:
            points = {"shuffled": np.random.default_rng(0).permutation(cloud.points),
                      "other_torus": tio.generate_torus(2.0, 0.5, 25, 16)[0],
                      "scaled": 2 * cloud.points}[probe]
            tio.write_vector_csv(tmp_path / "cloud.csv", points)
            geometry = {"input_cloud": str(tmp_path / "cloud.csv")}

        def predict(name, keys):
            out = tmp_path / name
            cfg = write_config(tmp_path, f"{name}.json", {
                "kind": "predict", "model_dir": str(fitted), **keys, **queries,
                "output_dir": str(out)})
            result = run_cli(["predict", "--config", str(cfg)])
            assert result.exit_code == 0, result.output
            return [(out / f).read_bytes() for f in ("predictions.csv", "variances.csv")]

        assert predict("probe", {**geometry, "graph": {"k_neighbors": 10}}) == \
            predict("no_geometry", {})


class TestManifest:
    def test_lists_only_the_files_of_this_run(self, workdir, generated):
        # the second run writes no k=10 predictions; the first run's files stay
        # on disk but are not part of the second run's inventory
        gen_out, _ = generated
        out = workdir / "super_twice"
        payload = {
            "kind": "superresolve",
            "input_mesh": str(TORUS_OBJ),
            "field": str(gen_out / "field.csv"),
            "graph": {"k_neighbors": 6},
            "hyperparams": HYPERPARAMS,
            "seed": 11,
            "output_dir": str(out),
        }
        for ks in ([10, 50], 50):
            cfg = write_config(workdir, "super_twice.json",
                               {**payload, "num_eigenvectors": ks})
            result = run_cli(["superresolve", "--config", str(cfg)])
            assert result.exit_code == 0, result.output
        assert sorted(output_hashes(out)) == ["metrics.json", "predictions_k50.csv",
                                              "predictions_k50.vtk", "split.json"]
        assert (out / "predictions_k10.csv").exists()


class TestConfigValues:
    @pytest.mark.parametrize("name, block", [
        ("hyperparams", {"sigma": -1}),
        ("baseline_hyperparams", {"sigma": -1}),
        ("baseline_hyperparams", {"nu": "abc"}),
        ("fit", {"nu": 0}),
        ("fit", {"nu": -2}),
        # the baseline's kernel is the nu = inf one; another nu was replaced
        ("baseline_hyperparams", {"nu": 1.5}),
    ])
    def test_bad_config_values_fail_before_any_work(self, tmp_path, generated,
                                                    monkeypatch, name, block):
        gen_out, _ = generated
        cfg = write_config(tmp_path, "inpaint.json", {
            "kind": "inpaint",
            "input_mesh": str(TORUS_OBJ),
            "field": str(gen_out / "field.csv"),
            "graph": {"k_neighbors": 6},
            "hyperparams": HYPERPARAMS,
            "baseline_hyperparams": BASELINE_HP,
            "seed": 3,
            "output_dir": str(tmp_path / "out"),
            name: block,
        })

        def no_input(*_args):
            raise AssertionError("the mesh was read before the config was checked")

        monkeypatch.setattr(tio, "load_mesh", no_input)
        result = run_cli(["inpaint", "--config", str(cfg)])
        assert result.exit_code == 1
        assert f"{name}.{next(iter(block))}: " in result.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, fragment", [
        ("num_eigenvectors", '"num_eigenvectors": 2.5'),
        ("num_eigenvectors[1]", '"num_eigenvectors": [10, 2.5]'),
        ("num_eigenvectors", '"num_eigenvectors": true'),
        ("num_eigenvectors", '"num_eigenvectors": "50"'),
        ("seed", '"seed": "3"'),
        ("seed", '"seed": 1.5'),
        ("seed", '"seed": true'),
        ("graph.use_mesh_edges", '"graph": {"use_mesh_edges": "no"}'),
        ("graph.on_disconnected", '"graph": {"on_disconnected": "ignore"}'),
        ("hyperparams.sigma", '"hyperparams": {"sigma": "2"}'),
        ("hyperparams.sigma", '"hyperparams": {"sigma": true}'),
        ("query", '"query": "some"'),
        ("query[0]", '"query": [1.5]'),
        ("fit.nu", '"fit": {"nu": "1.5"}'),
        # values Python's json reads but the schema's numbers exclude
        ("tau", '"tau": Infinity'),
        ("tau", '"tau": 1e400'),
        ("graph.bandwidth", '"graph": {"bandwidth": Infinity}'),
        ("fit.nu", '"fit": {"nu": Infinity}'),
        ("kind", None),
        ("output_dir", '"output_dir": 5'),
    ])
    def test_malformed_configs_fail_naming_the_key(self, tmp_path, generated,
                                                   monkeypatch, key, fragment):
        # each loaded, or ended in a traceback, before configs met the schema
        gen_out, _ = generated
        payload = {"kind": "superresolve", "input_mesh": str(TORUS_OBJ),
                   "field": str(gen_out / "field.csv"), "output_dir": "out"}
        if fragment is None:
            del payload[key]
            text = json.dumps(payload)
        else:
            payload.pop(fragment.split('"')[1], None)
            text = json.dumps(payload)[:-1] + ", " + fragment + "}"
        (tmp_path / "config.json").write_text(text)

        def no_input(*_args):
            raise AssertionError("the mesh was read before the config was checked")

        monkeypatch.setattr(tio, "load_mesh", no_input)
        monkeypatch.chdir(tmp_path)
        result = run_cli(["superresolve", "--config", "config.json"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert f"config.json: {key}: " in result.output
        assert "Traceback" not in result.output
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    def test_seed_override_checked_before_any_stage(self, tmp_path, generated,
                                                    monkeypatch):
        gen_out, _ = generated
        cfg = write_config(tmp_path, "superresolve.json", {
            "kind": "superresolve", "input_mesh": str(TORUS_OBJ),
            "field": str(gen_out / "field.csv"), "graph": {"k_neighbors": 6},
            "hyperparams": HYPERPARAMS, "output_dir": str(tmp_path / "out")})

        def no_input(*_args):
            raise AssertionError("the mesh was read before the override was checked")

        monkeypatch.setattr(tio, "load_mesh", no_input)
        result = run_cli(["superresolve", "--config", str(cfg), "--seed", "-1"])
        assert result.exit_code == 1
        assert "seed: must be >= 0, got -1" in result.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mask, message", [
        ({"nodes": [3, 400]}, "mask.nodes[1]: must be < 400, the node count, got 400"),
        ({"center_node": 400}, "mask.center_node: must be < 400, the node count, got 400"),
        # alternative rules, of which the mask used to keep one silently
        ({"nodes": [3], "center_node": 0}, "mask.nodes and mask.center_node are"),
        ({"nodes": [3], "fraction": 0.2}, "mask.nodes and mask.fraction are"),
        ({"nodes": [3], "radius": 1.0}, "mask.nodes and mask.radius are"),
        ({"radius": 1.0, "fraction": 0.2}, "mask.radius and mask.fraction are"),
    ])
    def test_mask_nodes_checked_before_the_graph(self, tmp_path, generated, monkeypatch,
                                                 mask, message):
        gen_out, _ = generated
        cfg = write_config(tmp_path, "inpaint.json", {
            "kind": "inpaint", "input_mesh": str(TORUS_OBJ),
            "field": str(gen_out / "field.csv"), "graph": {"k_neighbors": 6},
            "hyperparams": HYPERPARAMS, "baseline_hyperparams": BASELINE_HP,
            "mask": mask, "output_dir": str(tmp_path / "out")})

        def no_graph(*_args):
            raise AssertionError("the graph was built before the mask was checked")

        monkeypatch.setattr(geo, "build_knn_graph", no_graph)
        result = run_cli(["inpaint", "--config", str(cfg)])
        assert result.exit_code == 1
        assert message in result.output
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize("name, fragment", [
        ("tau", {"tau": -1}),
        ("split_fraction", {"split_fraction": 1.5}),
        ("manifold_dim", {"manifold_dim": 0}),
        ("mask.fraction", {"mask": {"fraction": "x"}}),
        ("anchor_fraction", {"anchor_fraction": 5}),
        ("frame_neighbors", {"frame_neighbors": 0}),
    ])
    def test_out_of_bound_values_fail_before_any_stage(self, tmp_path, generated,
                                                       monkeypatch, name, fragment):
        gen_out, _ = generated
        cfg = write_config(tmp_path, "superresolve.json", {
            "kind": "superresolve", "input_mesh": str(TORUS_OBJ),
            "field": str(gen_out / "field.csv"), "graph": {"k_neighbors": 6},
            "hyperparams": HYPERPARAMS, "output_dir": str(tmp_path / "out"), **fragment})

        def no_input(*_args):
            raise AssertionError("the mesh was read before the config was checked")

        monkeypatch.setattr(tio, "load_mesh", no_input)
        result = run_cli(["superresolve", "--config", str(cfg)])
        assert result.exit_code == 1
        assert f"{name}: must be " in result.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind", ["superresolve", "inpaint", "fit"])
    def test_missing_field_fails_before_any_stage(self, tmp_path, monkeypatch, kind):
        cfg = write_config(tmp_path, f"{kind}.json", {
            "kind": kind, "input_mesh": str(TORUS_OBJ), "graph": {"k_neighbors": 6},
            "hyperparams": HYPERPARAMS, "output_dir": str(tmp_path / "out")})

        def no_input(*_args):
            raise AssertionError("the mesh was read before the field was checked")

        monkeypatch.setattr(tio, "load_mesh", no_input)
        result = run_cli([kind, "--config", str(cfg)])
        assert result.exit_code == 1
        assert "config needs a 'field' CSV" in result.output
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize("kind", ["generate", "superresolve", "inpaint", "fit",
                                      "predict", "spectrum"])
    def test_missing_geometry_fails_before_any_stage(self, tmp_path, fitted,
                                                     monkeypatch, kind):
        # predict reads its model directory and no geometry, so it needs none
        cfg = write_config(tmp_path, f"{kind}.json", {
            "kind": kind, "model_dir": str(fitted), "output_dir": str(tmp_path / "out")})
        if kind == "predict":
            def no_geometry(*_args):
                raise AssertionError("predict read a geometry")

            monkeypatch.setattr(tio, "load_mesh", no_geometry)
            monkeypatch.setattr(tio, "load_point_cloud", no_geometry)
            result = run_cli([kind, "--config", str(cfg)])
            assert result.exit_code == 0, result.output
            return

        def no_stage(*_args):
            raise AssertionError("a stage ran before the geometry was checked")

        monkeypatch.setattr(Run, "stage", no_stage)
        result = run_cli([kind, "--config", str(cfg)])
        assert result.exit_code == 1
        assert "config needs input_mesh or input_cloud" in result.output
        assert not (tmp_path / "out").exists()


class TestCommandContract:
    """Stage names, in order, and output paths of every command's manifest:
    the benchmark harness times stages by name and checks the inventory."""

    GEOMETRY = ["load_input", "build_graph", "tangent_frames", "transports"]
    MODEL = ["model/frames.csv", "model/graph.csv", "model/model.json",
             "model/points.csv", "model/spectrum/eigenvalues.csv",
             "model/spectrum/eigenvectors.csv", "model/spectrum/spectrum.json",
             "model/targets.csv"]
    SPECTRUM = ["spectrum/eigenvalues.csv", "spectrum/eigenvectors.csv",
                "spectrum/spectrum.json"]
    EXPECTED = {
        "generate": (GEOMETRY + ["laplacians", "diffuse", "write_outputs"],
                     ["field.csv", "field.vtk", "field_meta.json"]),
        "superresolve": (
            GEOMETRY + ["load_input", "laplacians", "spectrum",
                        "fit_predict_k10", "write_outputs",
                        "fit_predict_k25", "write_outputs",
                        "fit_predict_k50", "write_outputs", "write_outputs"],
            ["metrics.json"] + [f"predictions_k{k}.{ext}" for k in (10, 25, 50)
                                for ext in ("csv", "vtk")] + ["split.json"]),
        "inpaint": (
            GEOMETRY + ["load_input", "laplacians", "spectrum", "fit_predict_gp",
                        "fit_predict_baseline", "write_outputs", "write_outputs",
                        "write_outputs"],
            ["mask.json", "metrics.json", "predictions_channel_rbf.csv",
             "predictions_channel_rbf.vtk", "predictions_vector_gp.csv",
             "predictions_vector_gp.vtk"]),
        "fit": (GEOMETRY + ["load_input", "laplacians", "spectrum", "fit_model",
                            "write_outputs"], MODEL),
        "predict": (["load_model", "predict", "write_outputs"],
                    ["predictions.csv", "variances.csv"]),
        "spectrum": (GEOMETRY + ["laplacians", "spectrum", "write_outputs"], SPECTRUM),
        "eval": (["load_input", "rebuild_geometry", "write_outputs"], ["metrics.json"]),
    }

    def test_stages_and_outputs_of_every_command(self, tmp_path):
        base = {"input_mesh": str(TORUS_OBJ), "graph": {"k_neighbors": 6}, "seed": 5}
        field = str(tmp_path / "generate" / "field.csv")
        configs = {
            "generate": {"anchor_count": 40},
            "superresolve": {"field": field, "num_eigenvectors": [10, 25, 50],
                             "hyperparams": HYPERPARAMS},
            "inpaint": {"field": field, "num_eigenvectors": 50,
                        "hyperparams": HYPERPARAMS, "baseline_hyperparams": BASELINE_HP,
                        "mask": {"center_node": "auto", "fraction": 0.15}},
            "fit": {"field": field, "num_eigenvectors": 50, "hyperparams": HYPERPARAMS},
            "predict": {"model_dir": str(tmp_path / "fit" / "model")},
            "spectrum": {"num_eigenvectors": 50},
        }
        for kind, payload in configs.items():
            cfg = write_config(tmp_path, f"{kind}.json", {
                **base, **payload, "kind": kind, "output_dir": str(tmp_path / kind)})
            result = run_cli([kind, "--config", str(cfg)])
            assert result.exit_code == 0, result.output
        result = run_cli(["eval", "--pred",
                          str(tmp_path / "superresolve" / "predictions_k50.csv"),
                          "--truth", field, "--out", str(tmp_path / "eval")])
        assert result.exit_code == 0, result.output
        for kind, (stages, outputs) in self.EXPECTED.items():
            manifest = json.loads((tmp_path / kind / "manifest.json").read_text())
            assert manifest["command"] == kind
            assert [stage["name"] for stage in manifest["stages"]] == stages, kind
            assert [o["path"] for o in manifest["outputs"]] == outputs, kind


class TestEval:
    def test_identical_fields_score_perfectly(self, workdir, generated):
        # rows are matched by id, so a shuffled copy scores perfectly too
        gen_out, _ = generated
        ids, pts, vecs = tio.read_vector_csv(gen_out / "field.csv")
        shuffled = workdir / "shuffled.csv"
        order = np.random.default_rng(0).permutation(len(ids))
        tio.write_vector_csv(shuffled, pts[order], vecs[order], ids=ids[order])
        for pred in (gen_out / "field.csv", shuffled):
            result = run_cli(["eval", "--pred", str(pred),
                              "--truth", str(gen_out / "field.csv"),
                              "--out", str(workdir / "eval_self")])
            assert result.exit_code == 0, result.output
            metrics = json.loads(
                (workdir / "eval_self" / "metrics.json").read_text())["metrics"]
            by = {m["metric"]: m["value"] for m in metrics}
            assert by["alignment"] == 1.0
            assert by["angular_error"] == 0.0
            assert by["dirichlet_energy_pred"] == by["dirichlet_energy_truth"]

    def test_id_mismatch_lists_offenders(self, workdir, generated):
        gen_out, _ = generated
        ids, pts, vecs = tio.read_vector_csv(gen_out / "field.csv")

        def run_eval(name, pred_ids, pred_pts, rows):
            pred = workdir / name
            tio.write_vector_csv(pred, pred_pts, vecs[rows], ids=pred_ids)
            return run_cli(["eval", "--pred", str(pred),
                            "--truth", str(gen_out / "field.csv"),
                            "--out", str(workdir / "eval_bad")])

        result = run_eval("disjoint.csv", ids + 1000, pts, ids)
        assert result.exit_code != 0
        assert "no node ids shared" in result.output
        assert "[1000, 1001, 1002," in result.output

        rows = np.array([0, 1, 1])
        result = run_eval("duplicated.csv", ids[rows], pts[rows], rows)
        assert result.exit_code != 0
        assert f"duplicate node ids in the prediction file; first offenders: " \
               f"[{int(ids[1])}]" in result.output

        moved = pts.copy()
        moved[5] += 0.5
        result = run_eval("moved.csv", ids, moved, ids)
        assert result.exit_code != 0
        assert f"positions disagree between prediction and truth files at ids " \
               f"[{int(ids[5])}]" in result.output

    def test_metrics_match_library(self, workdir, generated, superresolved):
        # a held-out prediction file against the matching slice of the truth,
        # and against the full field, whose training nodes count as unmatched
        gen_out, _ = generated
        sup_out, _ = superresolved
        ids, pts, pred = tio.read_vector_csv(sup_out / "predictions_k50.csv")
        truth_ids, _, truth_all = tio.read_vector_csv(gen_out / "field.csv")
        assert np.array_equal(truth_ids, np.arange(400))
        truth_slice = workdir / "truth_slice.csv"
        tio.write_vector_csv(truth_slice, pts, truth_all[ids], ids=ids)
        alignment = tfields.alignment_score(pred, truth_all[ids])
        angle = tfields.angular_error(pred, truth_all[ids])
        for truth, unmatched in ((truth_slice, 0), (gen_out / "field.csv", 400 - len(ids))):
            result = run_cli(["eval", "--pred", str(sup_out / "predictions_k50.csv"),
                              "--truth", str(truth),
                              "--out", str(workdir / "eval_slice")])
            assert result.exit_code == 0, result.output
            metrics = json.loads(
                (workdir / "eval_slice" / "metrics.json").read_text())["metrics"]
            by = {m["metric"]: m for m in metrics}
            for direct in (alignment, angle):
                assert by[direct.metric]["value"] == pytest.approx(direct.value,
                                                                   rel=1e-12)
                assert by[direct.metric]["n_nodes"] == len(ids) + unmatched
                assert by[direct.metric]["n_excluded"] == direct.n_excluded + unmatched
        assert by["dirichlet_energy_pred"]["value"] != \
            by["dirichlet_energy_truth"]["value"]


class TestConfigVariants:
    def test_mesh_edge_graph_mode(self, workdir):
        cfg = write_config(workdir, "spectrum_mesh.json", {
            "kind": "spectrum",
            "input_mesh": str(TORUS_OBJ),
            "graph": {"use_mesh_edges": True},
            "num_eigenvectors": 10,
            "seed": 0,
            "output_dir": str(workdir / "spec_mesh"),
        })
        result = run_cli(["spectrum", "--config", str(cfg)])
        assert result.exit_code == 0, result.output
        loaded = tio.load_spectrum(workdir / "spec_mesh" / "spectrum")
        assert loaded.n == 400

    def test_radius_mask(self, workdir, generated):
        gen_out, _ = generated
        cfg = write_config(workdir, "inpaint_radius.json", {
            "kind": "inpaint",
            "input_mesh": str(TORUS_OBJ),
            "field": str(gen_out / "field.csv"),
            "graph": {"k_neighbors": 6},
            "num_eigenvectors": 30,
            "hyperparams": HYPERPARAMS,
            "baseline_hyperparams": BASELINE_HP,
            "seed": 3,
            "mask": {"center_node": 0, "radius": 1.0},
            "output_dir": str(workdir / "inpaint_radius"),
        })
        result = run_cli(["inpaint", "--config", str(cfg)])
        assert result.exit_code == 0, result.output
        mask_nodes = json.loads(
            (workdir / "inpaint_radius" / "mask.json").read_text())["nodes"]
        pts, _ = tio.generate_torus(2.0, 0.8, 25, 16)
        dists = np.linalg.norm(pts - pts[0], axis=1)
        assert sorted(mask_nodes) == sorted(np.nonzero(dists <= 1.0)[0].tolist())

    def test_query_subset_predictions(self, workdir, fitted):
        cfg = write_config(workdir, "predict_subset.json", {
            "kind": "predict",
            "model_dir": str(fitted),
            "input_mesh": str(TORUS_OBJ),
            "query": [5, 17, 200],
            "seed": 2,
            "output_dir": str(workdir / "pred_subset"),
        })
        result = run_cli(["predict", "--config", str(cfg)])
        assert result.exit_code == 0, result.output
        ids, _, vecs = tio.read_vector_csv(workdir / "pred_subset"
                                           / "predictions.csv")
        assert ids.tolist() == [5, 17, 200]
        assert vecs.shape == (3, 3)

    def test_query_beyond_the_model_fails(self, workdir, fitted):
        # an index past int64 is a valid JSON integer, so it must not reach numpy
        cfg = write_config(workdir, "predict_far.json", {
            "kind": "predict",
            "model_dir": str(fitted),
            "input_mesh": str(TORUS_OBJ),
            "query": [5, 2**70],
            "output_dir": str(workdir / "pred_far"),
        })
        result = run_cli(["predict", "--config", str(cfg)])
        assert result.exit_code == 1
        assert "query node out of range" in result.output


def test_cli_import_freezes_heap_and_knn_skips_scipy_spatial():
    # a CLI process keeps its import heap out of every collection, and its
    # k-NN graph needs no k-d tree, so it never pays the scipy.spatial import
    probe = ("import gc, sys, tangentgp.cli; from tangentgp import io; "
             f"cloud, _ = io.load_mesh(r'{TORUS_OBJ}'); "
             "tangentgp.build_knn_graph(cloud, 6); "
             "print('scipy.spatial' in sys.modules, gc.get_freeze_count() > 0)")
    out = run_python("-c", probe)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False True"


def test_library_import_freezes_nothing():
    out = run_python("-c", "import gc, tangentgp; print(gc.get_freeze_count())")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "0"


class TestProcessExit:
    """The CLI in a process of its own: exit code, stderr and manifest."""

    def test_bad_config_exits_1_with_its_message_on_stderr(self, tmp_path):
        cfg = write_config(tmp_path, "bad.json", {
            "kind": "spectrum", "num_eigenvectors": 10,
            "output_dir": str(tmp_path / "out")})
        out = run_python("-m", "tangentgp.cli", "spectrum", "--config", str(cfg))
        assert out.returncode == 1
        assert "config needs input_mesh or input_cloud" in out.stderr
        assert not (tmp_path / "out").exists()

    def test_spectrum_exits_0_and_its_manifest_lists_every_file(self, tmp_path):
        out_dir = tmp_path / "out"
        cfg = write_config(tmp_path, "spectrum.json", {
            "kind": "spectrum", "input_mesh": str(TORUS_OBJ),
            "graph": {"k_neighbors": 6}, "num_eigenvectors": 20, "seed": 0,
            "output_dir": str(out_dir)})
        out = run_python("-m", "tangentgp.cli", "spectrum", "--config", str(cfg))
        assert out.returncode == 0, out.stderr
        manifest = json.loads((out_dir / "manifest.json").read_text())
        written = sorted(p.relative_to(out_dir).as_posix() for p in out_dir.rglob("*")
                         if p.is_file() and p.name != "manifest.json")
        assert sorted(o["path"] for o in manifest["outputs"]) == written
        for o in manifest["outputs"]:
            digest = hashlib.sha256((out_dir / o["path"]).read_bytes()).hexdigest()
            assert o["sha256"] == digest, o["path"]


class TestSpectrumCommand:
    def test_exports_spectrum(self, workdir):
        cfg = write_config(workdir, "spectrum.json", {
            "kind": "spectrum",
            "input_mesh": str(TORUS_OBJ),
            "graph": {"k_neighbors": 6},
            "num_eigenvectors": 20,
            "seed": 0,
            "output_dir": str(workdir / "spec"),
        })
        result = run_cli(["spectrum", "--config", str(cfg)])
        assert result.exit_code == 0, result.output
        loaded = tio.load_spectrum(workdir / "spec" / "spectrum")
        # k = 20 rounds up to the end of the fourfold cluster at columns 18-21
        assert loaded.k == 22 and loaded.n == 400 and loaded.m == 2
        assert not loaded.splits_degenerate_cluster()

    def test_frame_neighbors_beyond_int64_same_as_all_nodes(self, workdir):
        # a frame neighbourhood never holds more than the n - 1 other nodes
        hashes = []
        for size in (10**30, 399):
            cfg = write_config(workdir, f"spectrum_fn{size}.json", {
                "kind": "spectrum",
                "input_mesh": str(TORUS_OBJ),
                "graph": {"k_neighbors": 6},
                "frame_neighbors": size,
                "num_eigenvectors": 10,
                "seed": 0,
                "output_dir": str(workdir / f"spec_fn{size}"),
            })
            result = run_cli(["spectrum", "--config", str(cfg)])
            assert result.exit_code == 0, result.output
            hashes.append(output_hashes(workdir / f"spec_fn{size}"))
        assert hashes[0] == hashes[1]

    @pytest.mark.parametrize("n_major, n_minor, logged", [(12, 8, 1), (14, 9, 0)])
    def test_unoriented_connection_is_logged(self, workdir, caplog, n_major, n_minor,
                                             logged):
        # the 12x8 mesh torus has a non-orientable connection, the 14x9 one
        # not: its frames flip where the mesh is too coarse for them, which a
        # run at the default log level must show
        mesh = workdir / f"torus_{n_major}x{n_minor}.obj"
        tio.write_obj(mesh, *tio.generate_torus(2.0, 0.8, n_major, n_minor))
        cfg = write_config(workdir, f"spectrum_{n_major}x{n_minor}.json", {
            "kind": "spectrum",
            "input_mesh": str(mesh),
            "graph": {"use_mesh_edges": True},
            "num_eigenvectors": 10,
            "output_dir": str(workdir / f"spec_{n_major}x{n_minor}"),
        })
        with caplog.at_level(logging.WARNING, logger="tangentgp"):
            result = run_cli(["spectrum", "--config", str(cfg)])
        assert result.exit_code == 0, result.output
        lines = [r.getMessage() for r in caplog.records]
        assert lines == [f"the 2-D connection is not orientable; its eigensolve runs "
                         f"on the real {2 * n_major * n_minor}-row form. On a closed "
                         f"orientable surface this means tangent frames flipped on a "
                         f"mesh too coarse for them"] * logged

    def test_wrong_kind_rejected(self, workdir):
        cfg = write_config(workdir, "wrong.json", {
            "kind": "generate",
            "input_mesh": str(TORUS_OBJ),
            "output_dir": str(workdir / "wrong"),
        })
        result = run_cli(["spectrum", "--config", str(cfg)])
        assert result.exit_code != 0
        assert "kind" in result.output
