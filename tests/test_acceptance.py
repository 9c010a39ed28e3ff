"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances and runtime budgets are asserted, not advisory.
"""
import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
from click.testing import CliRunner
from scipy.linalg import subspace_angles
from scipy.stats import ortho_group

import tangentgp as tg
from tangentgp import fields as tfields
from tangentgp import io as tio
from tangentgp.cli import main as cli_main
from tangentgp.spectral import scalar_frames, truncate

from conftest import build_setup

FIXTURES = Path(__file__).parent / "fixtures"


@contextmanager
def criterion(num, budget_seconds, description):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        assert elapsed < budget_seconds, (
            f"criterion {num} runtime {elapsed:.1f}s exceeds {budget_seconds}s")
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {num}: PASS ({elapsed:.1f}s) - {description}")


def random_connected_graph(rng, n):
    while True:
        pts = rng.standard_normal((n, 3))
        try:
            graph = tg.build_knn_graph(tg.PointCloud(pts), min(4, n - 1))
        except tg.geometry.DisconnectedGraphError:
            continue
        return graph


def test_criterion_1_trivial_bundle_equivalence():
    with criterion(1, 10.0, "m=1 connection Laplacian and kernel reduce to the "
                            "scalar graph case"):
        rng = np.random.default_rng(101)
        for trial in range(20):
            n = int(rng.integers(8, 51))
            graph = random_connected_graph(rng, n)
            # random positive weights exercise real-valued degrees
            graph = tg.ProximityGraph(n=n, edges=graph.edges,
                                      weights=rng.uniform(0.5, 2.0,
                                                          len(graph.edges)))
            frames = scalar_frames(n)
            transports = tg.compute_transports(graph, frames)
            con = tg.assemble_connection_laplacian(graph, frames, transports)
            lap = tg.assemble_graph_laplacian(graph)
            assert np.abs((con.matrix - lap.matrix).toarray()).max() == 0.0

            k = min(n - 1, 10)
            spec_c = tg.eigendecompose(con, k)
            spec_s = tg.eigendecompose(lap, k)
            hp = tg.MaternHyperparams(sigma=1.2, kappa=1.5, nu=1.5, sigma_n=0.05)
            filt = tg.spectral_filter(spec_c.eigenvalues, hp)
            enc = tg.positional_encodings(spec_c, frames)
            c_norm = tg.normalization_constant(enc, filt, 1)
            bundle_kernel = np.array(
                [[tg.kernel_block(enc[p], enc[q], filt, hp.sigma, c_norm)[0, 0]
                  for q in range(n)] for p in range(n)])
            # scalar graph kernel sigma^2 u(p) Phi^-2 u(q)^T under the same
            # normalization convention
            u = spec_s.eigenvectors
            scalar_kernel = (hp.sigma**2 * c_norm * n) * (u * filt) @ u.T
            assert np.abs(bundle_kernel - scalar_kernel).max() <= 1e-10

            # posterior means agree between the bundle path and a dense
            # scalar-GP oracle
            train = np.arange(0, n, 2)
            y = rng.standard_normal((len(train), 1))
            model = tg.fit(train, y, spec_c, frames, hp)
            mean, _ = tg.predict(model, np.arange(n))
            noisy = scalar_kernel[np.ix_(train, train)] + (
                hp.sigma_n**2 + model.jitter) * np.eye(len(train))
            oracle = scalar_kernel[:, train] @ np.linalg.solve(noisy, y[:, 0])
            assert np.abs(mean[:, 0] - oracle).max() <= 1e-10


def _clusters(values, tol=1e-6):
    groups = [[0]]
    for idx in range(1, len(values)):
        if values[idx] - values[idx - 1] < tol:
            groups[-1].append(idx)
        else:
            groups.append([idx])
    return groups


def test_criterion_2_eigensolver_matches_dense_oracle():
    with criterion(2, 30.0, "Lanczos spectrum of the connection Laplacian "
                            "matches the dense eigendecomposition"):
        rng = np.random.default_rng(202)
        cases = []
        pts, _ = tio.generate_torus(2.0, 0.8, 20, 15)  # nm = 600
        cases.append(build_setup(pts, None).con)
        pts, _ = tio.generate_icosphere(2)  # nm = 324
        cases.append(build_setup(pts, None).con)
        cloud = tg.PointCloud(rng.standard_normal((100, 3)))
        graph = tg.build_knn_graph(cloud, 6)
        frames = tg.estimate_tangent_frames(graph, cloud, 2)
        cases.append(tg.assemble_connection_laplacian(
            graph, frames, tg.compute_transports(graph, frames)))  # nm = 200

        for con in cases:
            assert con.size <= 600
            k = 30
            dense = tg.eigendecompose(con, k, method="dense")
            lanczos = tg.eigendecompose(con, k, seed=1)
            assert np.abs(dense.eigenvalues - lanczos.eigenvalues).max() <= 1e-8
            for cluster in _clusters(dense.eigenvalues):
                if cluster[-1] == k - 1 and dense.splits_degenerate_cluster(1e-6):
                    continue  # cluster may extend past the cut
                angles = subspace_angles(dense.eigenvectors[:, cluster],
                                         lanczos.eigenvectors[:, cluster])
                assert angles.max() < 1e-6


def test_criterion_3_transport_and_frame_suite(torus, icosphere):
    with criterion(3, 20.0, "frame orthonormality, Kabsch optimality against "
                            "1000 random orthogonal maps, and transpose "
                            "reciprocity on both fixtures"):
        rng = np.random.default_rng(303)
        samples = ortho_group.rvs(2, size=1000, random_state=rng)
        for setup in (torus, icosphere):
            frames = setup.frames.frames
            gram = np.einsum("ndm,ndk->nmk", frames, frames)
            assert np.linalg.norm(gram - np.eye(2), axis=(1, 2)).max() <= 1e-10

            edges = setup.graph.edges
            t_i = frames[edges[:, 0]]
            t_j = frames[edges[:, 1]]
            # O aligning T_j onto T_i maximizes tr(O^T M) with M = T_j^T T_i
            m_mats = np.einsum("edm,edk->emk", t_j, t_i)
            singular_sums = np.linalg.svd(m_mats, compute_uv=False).sum(axis=1)
            sample_traces = np.einsum("qab,eab->eq", samples, m_mats)
            assert np.all(sample_traces.max(axis=1) <= singular_sums + 1e-10)

            for i, j in edges:
                o_ij = setup.transports.into(int(i), int(j))
                o_ji = setup.transports.into(int(j), int(i))
                assert np.abs(o_ij - o_ji.T).max() <= 1e-10
                assert np.abs(o_ij @ o_ji - np.eye(2)).max() <= 1e-10


def test_criterion_4_dirichlet_identity(torus, icosphere):
    with criterion(4, 30.0, "dirichlet energy equals the connection-Laplacian "
                            "quadratic form for 100 random fields per fixture"):
        rng = np.random.default_rng(404)
        for setup in (torus, icosphere):
            dense = setup.con.matrix
            for _ in range(100):
                coords = rng.standard_normal((setup.cloud.n, 2))
                energy = tg.dirichlet_energy(setup.graph, setup.transports, coords)
                quad = coords.reshape(-1) @ (dense @ coords.reshape(-1))
                assert abs(energy - quad) <= 1e-10 * abs(quad)


def test_criterion_5_full_rank_interpolation(small_torus):
    with criterion(5, 30.0, "k = nm with near-zero noise reproduces training "
                            "vectors on the 60-node fixture"):
        con = small_torus.con
        spec = tg.eigendecompose(con, con.size)  # k = nm = 120
        rng = np.random.default_rng(505)
        truth = small_torus.frames.to_ambient(rng.standard_normal((60, 2)))
        hp = tg.MaternHyperparams(sigma=1.0, kappa=1.0, nu=1.5, sigma_n=1e-8)
        model = tg.fit(np.arange(60), truth, spec, small_torus.frames, hp)
        mean, _ = tg.predict(model, np.arange(60))
        rel = np.linalg.norm(mean - truth) / np.linalg.norm(truth)
        assert rel <= 1e-4


def test_criterion_6_superresolution_alignment(torus, torus_spectrum, torus_truth):
    with criterion(6, 120.0, "50/50 superresolution with fitted hyperparameters "
                             "aligns >= 0.90 at k=50 and >= 0.80 at k=10"):
        truth = torus_truth.field.ambient()
        perm = np.random.default_rng(606).permutation(400)
        train, test = perm[:200], perm[200:]
        kappa0 = 5.0 * tg.mean_edge_length(torus.graph, torus.cloud)
        thresholds = {50: 0.90, 10: 0.80}
        for k, threshold in thresholds.items():
            spec = truncate(torus_spectrum, k)
            hp = tg.fit_hyperparameters(
                train, truth[train], spec, torus.frames, nu=1.5, seed=0,
                initial=tg.MaternHyperparams(1.0, kappa0, 1.5, 1e-3))
            model = tg.fit(train, truth[train], spec, torus.frames, hp)
            mean, _ = tg.predict(model, test)
            alignment = tfields.alignment_score(mean, truth[test])
            assert alignment.value >= threshold, (
                f"k={k}: alignment {alignment.value:.4f} < {threshold}")


def test_criterion_7_inpainting_tangency_and_boundary(torus, torus_spectrum,
                                                      torus_truth):
    with criterion(7, 120.0, "inpainting: structural tangency for the vector GP, "
                             "protrusion and larger boundary jumps for the "
                             "channel-wise baseline"):
        truth = torus_truth.field.ambient()
        # 15% of nodes around the most singularity-like point of the field
        coherence = tfields.direction_coherence(torus.graph, torus.transports,
                                                torus_truth.field.coords)
        center = int(np.argmin(coherence))
        dists = np.linalg.norm(torus.cloud.points - torus.cloud.points[center],
                               axis=1)
        mask = np.zeros(400, dtype=bool)
        mask[np.argsort(dists, kind="stable")[:60]] = True
        train, test = np.nonzero(~mask)[0], np.nonzero(mask)[0]

        spec = truncate(torus_spectrum, 50)
        kappa0 = 5.0 * tg.mean_edge_length(torus.graph, torus.cloud)
        hp = tg.fit_hyperparameters(
            train, truth[train], spec, torus.frames, nu=1.5, seed=0,
            initial=tg.MaternHyperparams(1.0, kappa0, 1.5, 1e-3))
        model = tg.fit(train, truth[train], spec, torus.frames, hp)
        mean_gp, _ = tg.predict(model, test)

        spec_scalar = tg.eigendecompose(torus.lap, 50)
        hp_base = tfields.fit_baseline_hyperparameters(
            spec_scalar, train, truth[train], seed=0,
            initial=tg.MaternHyperparams(1.0, kappa0, np.inf, 1e-3))
        mean_base = tfields.baseline_scalar_rbf_predict(
            spec_scalar, train, truth[train], test, hp_base)

        oot_gp = tfields.out_of_tangent_magnitude(mean_gp, torus.frames, test)
        oot_base = tfields.out_of_tangent_magnitude(mean_base, torus.frames, test)
        assert oot_gp.value <= 1e-8
        assert oot_base.value > 0.0

        combined_gp = truth.copy()
        combined_gp[test] = mean_gp
        combined_base = truth.copy()
        combined_base[test] = mean_base
        jump_gp = tfields.boundary_angular_jump(
            torus.graph, torus.transports, torus.frames, combined_gp, mask)
        jump_base = tfields.boundary_angular_jump(
            torus.graph, torus.transports, torus.frames, combined_base, mask)
        assert jump_gp.value < jump_base.value, (
            f"gp jump {jump_gp.value:.3f} not below baseline "
            f"{jump_base.value:.3f}")


def test_criterion_8_inducing_point_fidelity(torus, torus_spectrum, torus_truth):
    with criterion(8, 60.0, "DTC equals the exact posterior at no compression "
                            "and 50% furthest-point inducing costs <= 0.05 "
                            "alignment"):
        spec = truncate(torus_spectrum, 50)
        truth = torus_truth.field.ambient()
        perm = np.random.default_rng(808).permutation(400)
        train, test = perm[:200], perm[200:]
        hp = tg.MaternHyperparams(sigma=1.0, kappa=2.0, nu=1.5, sigma_n=1e-3)

        model = tg.fit(train, truth[train], spec, torus.frames, hp)
        exact_mean, _ = tg.predict(model, test)
        dtc_mean, _ = tg.inducing_point_predict(
            train, truth[train], train, spec, torus.frames, hp, test)
        assert np.abs(dtc_mean - exact_mean).max() <= 1e-6

        sel, _ = tg.furthest_point_sample(torus.cloud.points[train], 100)
        half_mean, _ = tg.inducing_point_predict(
            train, truth[train], train[sel], spec, torus.frames, hp, test)
        exact_align = tfields.alignment_score(exact_mean, truth[test]).value
        half_align = tfields.alignment_score(half_mean, truth[test]).value
        assert abs(exact_align - half_align) <= 0.05


def _run_cli(args):
    result = CliRunner().invoke(cli_main, args)
    assert result.exit_code == 0, result.output
    return result


def _inventory(out_dir):
    manifest = json.loads((Path(out_dir) / "manifest.json").read_text())
    return {o["path"]: o["sha256"] for o in manifest["outputs"]}


def test_criterion_9_cli_determinism(tmp_path):
    with criterion(9, 300.0, "every CLI command reruns byte-identically under "
                             "the same configuration"):
        mesh = str(FIXTURES / "torus_400.obj")
        hp = {"sigma": 1.0, "kappa": 2.0, "nu": 1.5, "sigma_n": 0.001}
        base = {"input_mesh": mesh, "graph": {"k_neighbors": 6},
                "manifold_dim": 2, "seed": 7}

        def config(name, payload):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(payload))
            return path

        gen_cfg = config("generate", {
            "kind": "generate", "anchor_count": 40,
            "output_dir": str(tmp_path / "gen"), **base})
        field = str(tmp_path / "gen" / "field.csv")
        commands = [("generate", gen_cfg, "gen")]
        _run_cli(["generate", "--config", str(gen_cfg)])

        commands.append(("superresolve", config("superresolve", {
            "kind": "superresolve", "field": field, "num_eigenvectors": 50,
            "hyperparams": hp, "output_dir": str(tmp_path / "super"), **base}),
            "super"))
        commands.append(("inpaint", config("inpaint", {
            "kind": "inpaint", "field": field, "num_eigenvectors": 50,
            "hyperparams": hp,
            "baseline_hyperparams": {**hp, "nu": "inf"},
            "mask": {"center_node": "auto", "fraction": 0.15},
            "output_dir": str(tmp_path / "inpaint"), **base}), "inpaint"))
        commands.append(("fit", config("fit", {
            "kind": "fit", "field": field, "num_eigenvectors": 50,
            "hyperparams": hp, "output_dir": str(tmp_path / "fit"), **base}),
            "fit"))
        for name, cfg, _ in commands[1:]:
            _run_cli([name, "--config", str(cfg)])

        commands.append(("predict", config("predict", {
            "kind": "predict", "model_dir": str(tmp_path / "fit" / "model"),
            "query": "all", "output_dir": str(tmp_path / "predict"), **base}),
            "predict"))
        _run_cli(["predict", "--config", str(commands[-1][1])])
        commands.append(("spectrum", config("spectrum", {
            "kind": "spectrum", "num_eigenvectors": 20,
            "output_dir": str(tmp_path / "spectrum"), **base}), "spectrum"))
        _run_cli(["spectrum", "--config", str(commands[-1][1])])

        for name, cfg, out_name in commands:
            rerun_dir = tmp_path / f"{out_name}_rerun"
            _run_cli([name, "--config", str(cfg), "--out", str(rerun_dir)])
            assert _inventory(tmp_path / out_name) == _inventory(rerun_dir), (
                f"{name}: outputs differ between reruns")

        # eval has its own flag interface
        _run_cli(["eval", "--pred", field, "--truth", field,
                  "--out", str(tmp_path / "eval")])
        _run_cli(["eval", "--pred", field, "--truth", field,
                  "--out", str(tmp_path / "eval_rerun")])
        assert _inventory(tmp_path / "eval") == _inventory(tmp_path / "eval_rerun")
