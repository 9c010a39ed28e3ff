"""Tests of the benchmark itself, on a 60-node torus.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_bench.py
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

TINY_HP = {"sigma": 1.0, "kappa": 1.0, "nu": 1.5, "sigma_n": 0.01}


def _tiny_steps(split: float):
    def steps(inp, it):
        base = run._base(inp, {"use_mesh_edges": True})
        truth = it / "generate" / "field.csv"
        return [
            run.Step("generate", "generate", {**base, "tau": 10.0, "anchor_count": 6}),
            run.Step("superresolve", "superresolve",
                     {**base, "field": str(truth), "num_eigenvectors": 5,
                      "hyperparams": TINY_HP, "split_fraction": split},
                     truth, (("predictions_k5.csv", {"k": 5}),)),
        ]
    return steps


def _tiny(name: str, split: float = 0.5) -> run.Workload:
    return run.Workload(name, (10, 6), {"use_mesh_edges": True}, 5, None,
                        _tiny_steps(split), lambda n: n)


@pytest.fixture(autouse=True)
def _scratch_out(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path / "out")


def test_benchmark_json_matches_emitted_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)


@pytest.mark.parametrize("trace, names", [(False, run.END_TO_END),
                                          (True, run.PER_LAYER)])
def test_every_metric_is_emitted_with_its_unit(trace, names):
    res = run.run_workload(_tiny("tiny"), seed=0, seconds=0, trace=trace)
    assert res["problems"] == [] and res["failed"] == 0
    assert list(res["metrics"]) == list(names)
    for name, rec in res["metrics"].items():
        assert rec["unit"] == names[name]
        assert isinstance(rec["value"], float) and np.isfinite(rec["value"]), name
    if trace:
        values = {n: r["value"] for n, r in res["metrics"].items()}
        assert values["spectral.pairs_missing"] == 0
        assert values["spectral.operator_rows"] == 120
        assert values["gp.gram_factorisations"] >= 1
        assert values["fields.diffuse_s"] > 0 and values["io.write_s"] > 0
    else:
        assert res["metrics"]["wall_s"]["value"] > res["metrics"]["setup_s"]["value"] > 0
    env = res["env"]
    assert env["nodes"] == 60 and env["blas_threads"] == 1 and env["seed"] == 0


def _tiny_connection_laplacian():
    sys.path.insert(0, str(run.SRC))
    from tangentgp import geometry as geo
    from tangentgp import io as tio
    from tangentgp import spectral
    pts, faces = tio.generate_torus(2.0, 0.8, 10, 6)
    cloud = geo.PointCloud(pts)
    graph = geo.build_mesh_graph(cloud, faces)
    frames = geo.estimate_tangent_frames(graph, cloud, 2)
    transports = geo.compute_transports(graph, frames)
    return spectral.assemble_connection_laplacian(graph, frames, transports).matrix


def test_spectrum_check_flags_a_removed_column():
    mat = _tiny_connection_laplacian()
    k = 12
    ref = run.reference_spectrum(mat, k, seed=0)
    vals, vecs = np.linalg.eigh(mat.toarray())
    assert run.spectrum_check(ref, vals[:k]) == (0, pytest.approx(0.0, abs=1e-9))

    # the fault goes into the check's input: drop one eigenpair (column) of a
    # correct decomposition, as a solver that misses a cluster member would
    kept = np.delete(np.arange(k + 1), 3)
    got = np.diag(vecs[:, kept].T @ mat @ vecs[:, kept])
    missing, err = run.spectrum_check(ref, got)
    assert missing == 1
    assert err > 1e-6
    assert run.spectrum_check(ref, got[:-1])[0] == 1


def test_a_failed_command_is_counted_and_other_workloads_still_run(monkeypatch, capsys):
    # split_fraction 1.0 leaves an empty test set, so superresolve exits 1
    monkeypatch.setattr(run, "WORKLOADS", {"broken": _tiny("broken", split=1.0),
                                           "tiny": _tiny("tiny")})
    assert run.main(["--workload", "all", "--seed", "0", "--seconds", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is False
    assert result["attempted"] == 4 and result["failed"] == 1
    assert "broken failed_ratio = 1/2 = 0.5 ratio" in lines
    assert "tiny failed_ratio = 0/2 = 0 ratio" in lines
    assert result["metrics"]["tiny.angular_error_rad"]["value"] > 0
    assert result["metrics"]["broken.angular_error_rad"]["value"] is None


def test_exits_nonzero_without_a_source_tree(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "paper-400", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
