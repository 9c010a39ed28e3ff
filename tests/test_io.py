import dataclasses
import importlib.util
import json
import math
import re
import warnings
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import tangentgp as tg
from tangentgp import io as tio
from tangentgp.io import NonManifoldWarning, ParseError

from conftest import build_setup


class TestVectorCsv:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        pts = rng.standard_normal((7, 3))
        vecs = rng.standard_normal((7, 3)) * 1e-7
        path = tmp_path / "field.csv"
        tio.write_vector_csv(path, pts, vecs)
        ids, pts2, vecs2 = tio.read_vector_csv(path)
        assert np.array_equal(ids, np.arange(7))
        assert np.array_equal(pts, pts2)
        assert np.array_equal(vecs, vecs2)

    def test_row_width_follows_x_and_v_columns(self, tmp_path):
        # a header column other than id, x* and v* is rejected, not ignored
        path = tmp_path / "extra.csv"
        for header in ("id,x0,x1,note", "id,x0,x1,v0,v1,note", "id,x0,x1,note,v0,v1"):
            path.write_text(header + "\n0,1,2\n1,3,4\n")
            with pytest.raises(ParseError, match="extra.csv:1: columns after x0"):
                tio.read_vector_csv(path)
        path.write_text("id,x0,x1\n0,1,2,a\n")
        with pytest.raises(ParseError, match="extra.csv:2: expected 3 columns, got 4"):
            tio.read_vector_csv(path)

    def test_points_only(self, tmp_path):
        path = tmp_path / "pts.csv"
        tio.write_vector_csv(path, np.array([[0.0, 1.0], [2.0, 3.0]]))
        ids, pts, vecs = tio.read_vector_csv(path)
        assert vecs is None and pts.shape == (2, 2)

    def test_write_deterministic_bytes(self, tmp_path):
        rng = np.random.default_rng(1)
        pts = rng.standard_normal((5, 3))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        tio.write_vector_csv(a, pts)
        tio.write_vector_csv(b, pts)
        assert a.read_bytes() == b.read_bytes()

    def test_nan_rejected_with_location(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,x0,x1\n0,1.0,2.0\n1,nan,0.0\n")
        with pytest.raises(ParseError, match="bad.csv:3"):
            tio.read_vector_csv(path)

    def test_non_finite_line_counts_blank_lines(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("id,x0,x1\n0,1,2\n\n1,3,4\n2,nan,5\n")
        with pytest.raises(ParseError, match="blank.csv:5: non-finite value"):
            tio.read_vector_csv(path)
        spec = tmp_path / "spec"
        spec.mkdir()
        (spec / "spectrum.json").write_text(json.dumps({
            "n": 1, "m": 2, "eigenvalues_csv": "vals.csv", "eigenvectors_csv": "vecs.csv"}))
        (spec / "vals.csv").write_text("1\n2\n")
        (spec / "vecs.csv").write_text("1,2\n\n\n3,inf\n")
        with pytest.raises(ParseError, match="vecs.csv:4: non-finite value"):
            tio.load_spectrum(spec)

    def test_numbers_as_python_reads_them(self, tmp_path):
        path = tmp_path / "odd.csv"
        path.write_text("id,x0,x1\n1_0, 1.5,+.5\n\uff11\uff12,1_0.25,-0\n")
        ids, pts, _ = tio.read_vector_csv(path)
        assert ids.tolist() == [10, 12]
        assert pts.tolist() == [[1.5, 0.5], [10.25, 0.0]]
        assert math.copysign(1.0, pts[1, 1]) == -1.0

    def test_bad_number_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,x0,x1\n0,1,2\n1.0,3,4\n")
        with pytest.raises(ParseError, match="bad.csv:3: bad number: invalid literal"):
            tio.read_vector_csv(path)
        path.write_text("id,x0,x1\n99999999999999999999,1,2\n")
        with pytest.raises(ParseError, match="bad.csv:2: bad number"):
            tio.read_vector_csv(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x0,x1\n1.0,2.0\n")
        with pytest.raises(ParseError, match="must start with 'id'"):
            tio.read_vector_csv(path)

    def test_wrong_width_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,x0,x1\n0,1.0,2.0\n1,3.0\n")
        with pytest.raises(ParseError, match="bad.csv:3"):
            tio.read_vector_csv(path)

    def test_load_point_cloud_enforces_invariants(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("id,x0,x1\n0,1.0,2.0\n1,1.0,2.0\n")
        with pytest.raises(tg.geometry.DuplicatePointsError):
            tio.load_point_cloud(path)


class TestObj:
    def test_minimal_triangle(self, tmp_path):
        path = tmp_path / "tri.obj"
        path.write_text("# comment\nv 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
        cloud, faces = tio.load_mesh(path)
        assert cloud.n == 3
        assert faces.tolist() == [[0, 1, 2]]

    def test_round_trip_coordinates(self, tmp_path):
        pts, faces = tio.generate_torus(2.0, 0.8, 6, 4)
        path = tmp_path / "torus.obj"
        tio.write_obj(path, pts, faces)
        cloud, faces2 = tio.load_mesh(path)
        # %.17g round-trips IEEE doubles exactly, beyond the 15 digits required
        assert np.array_equal(cloud.points, pts)
        assert np.array_equal(faces2, faces)

    def test_polygon_fan_triangulation(self, tmp_path):
        path = tmp_path / "quad.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
        _, faces = tio.load_mesh(path)
        assert faces.tolist() == [[0, 1, 2], [0, 2, 3]]

    def test_mixed_polygons_keep_face_order(self, tmp_path):
        path = tmp_path / "mixed.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nv 2 2 1\n"
                        "f 1 2 3\nf 1 3 4 5\nf 2 3 5\n")
        _, faces = tio.load_mesh(path)
        assert faces.tolist() == [[0, 1, 2], [0, 2, 3], [0, 3, 4], [1, 2, 4]]

    def test_first_error_by_line_wins(self, tmp_path):
        path = tmp_path / "bad.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 4\nv 0 x 0\nwompwomp\n")
        with pytest.raises(ParseError, match="bad.obj:4: face index 4 out of range"):
            tio.load_mesh(path)
        path.write_text("v 0 0 0\nv 1 0\nv 0 1 0\nf 1 2 3\nwompwomp\n")
        with pytest.raises(ParseError, match="bad.obj:2: vertex needs 3 coordinates"):
            tio.load_mesh(path)

    def test_slash_indices_and_skippable_keywords(self, tmp_path):
        path = tmp_path / "tex.obj"
        path.write_text("mtllib x.mtl\nv 0 0 0\nv 1 0 0\nv 0 1 0\n"
                        "vt 0 0\nvn 0 0 1\ns off\nf 1/1/1 2/1/1 3/1/1\n")
        cloud, faces = tio.load_mesh(path)
        assert faces.tolist() == [[0, 1, 2]]

    def test_unknown_keyword_rejected_with_line(self, tmp_path):
        path = tmp_path / "bad.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nwompwomp 1\n")
        with pytest.raises(ParseError, match="bad.obj:4"):
            tio.load_mesh(path)

    def test_face_index_out_of_range(self, tmp_path):
        path = tmp_path / "bad.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 9\n")
        with pytest.raises(ParseError, match="out of range"):
            tio.load_mesh(path)

    def test_nan_vertex_located(self, tmp_path):
        path = tmp_path / "nan.obj"
        path.write_text("v 0 0 0\nv nan 0 0\nv 0 1 0\nf 1 2 3\n")
        with pytest.raises(ParseError, match="nan.obj:2"):
            tio.load_mesh(path)

    @pytest.mark.parametrize("kind", ["zero", "negative", "beyond", "token", "huge",
                                      "short", "polygon", "slash", "unknown"])
    @settings(max_examples=5, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), faces=st.integers(1, 9000),
           at=st.lists(st.floats(0, 1, exclude_max=True), max_size=2))
    def test_chunked_faces_match_line_by_line_reader(self, tmp_path_factory, kind, seed,
                                                     faces, at):
        # plain faces over up to three 4096-row chunks, vertices declared
        # along the way, and rows of one other kind at the fractions ``at``
        rng = np.random.default_rng(seed)
        kinds = {int(frac * faces): kind for frac in at}
        lines, declared = ["v 0 0 0", "v 1 0 0", "v 0 1 0"], 3
        for row in range(faces):
            if rng.random() < 0.2:
                lines.append("v %r %r %r" % tuple(rng.random(3).tolist()))
                declared += 1
            kind = kinds.get(row)
            corners = [str(c) for c in rng.integers(1, declared + 1, 3)]
            last = {"zero": "0", "negative": "-1", "beyond": str(declared + 1),
                    "token": "x", "huge": "9" * 20, "slash": corners[-1] + "/1/1"}
            corners[-1] = last.get(kind, corners[-1])
            if kind == "short":
                corners = corners[:2]
            if kind == "polygon":
                corners += ["1", "2"]
            lines.append("wompwomp" if kind == "unknown" else "f " + " ".join(corners))
        path = tmp_path_factory.mktemp("obj") / "m.obj"
        path.write_text("\n".join(lines))

        def outcome(load):
            try:
                verts, tris = load(path)
            except ParseError as exc:
                return str(exc)
            return verts.tobytes(), tris.tobytes()

        assert outcome(tio._load_obj) == outcome(_line_by_line_obj)

    def test_nonmanifold_warns(self, tmp_path):
        path = tmp_path / "nm.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\nv 1 1 1\n"
                        "f 1 2 3\nf 1 2 4\nf 1 2 5\n")
        with pytest.warns(NonManifoldWarning):
            tio.load_mesh(path)


def _line_by_line_obj(path):
    """Reference OBJ reader: every face line parsed on its own, in order,
    stopping at the first bad line."""
    lines = Path(path).read_text().split("\n")
    vert_lines, faces, error = [], [], None
    for ln, line in enumerate(lines, start=1):
        tokens = line.split()
        if not tokens or tokens[0].startswith("#") or tokens[0] in tio._OBJ_SKIP:
            continue
        if tokens[0] == "v":
            vert_lines.append(ln)
            continue
        try:
            if tokens[0] != "f":
                raise ParseError(path, ln, f"unknown element type {tokens[0]!r}")
            idx = []
            for tok in tokens[1:]:
                try:
                    v = int(tok.split("/")[0])
                except ValueError:
                    raise ParseError(path, ln, f"bad face index {tok!r}") from None
                if v <= 0:
                    raise ParseError(path, ln, "face indices must be positive")
                if v > len(vert_lines):
                    raise ParseError(path, ln, f"face index {v} out of range")
                idx.append(v - 1)
            faces.extend(tio._fan(idx, path, ln))
        except ParseError as exc:
            error = exc
            break
    (verts,) = tio._parse_block(path, lines, vert_lines, 3,
                                split=lambda s: s.split()[1:4],
                                wrong_width="vertex needs 3 coordinates",
                                bad_number="bad vertex coordinate")
    if error:
        raise error
    return verts, np.array(faces, dtype=np.int64).reshape(-1, 3)


class TestPly:
    PLY_MINIMAL = (
        "ply\nformat ascii 1.0\ncomment tiny\n"
        "element vertex 3\nproperty float x\nproperty float y\nproperty float z\n"
        "element face 1\nproperty list uchar int vertex_indices\nend_header\n"
        "0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n"
    )

    def test_minimal(self, tmp_path):
        path = tmp_path / "tri.ply"
        path.write_text(self.PLY_MINIMAL)
        cloud, faces = tio.load_mesh(path)
        assert cloud.n == 3 and faces.tolist() == [[0, 1, 2]]

    def test_quad_fan(self, tmp_path):
        path = tmp_path / "quad.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 4\n"
            "property float x\nproperty float y\nproperty float z\n"
            "element face 1\nproperty list uchar int vertex_indices\nend_header\n"
            "0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n")
        _, faces = tio.load_mesh(path)
        assert faces.tolist() == [[0, 1, 2], [0, 2, 3]]

    def test_unknown_element_rejected(self, tmp_path):
        path = tmp_path / "edge.ply"
        path.write_text("ply\nformat ascii 1.0\nelement edge 1\n"
                        "property int a\nend_header\n0\n")
        with pytest.raises(ParseError, match="unknown element type"):
            tio.load_mesh(path)

    def test_binary_rejected(self, tmp_path):
        path = tmp_path / "bin.ply"
        path.write_text("ply\nformat binary_little_endian 1.0\nend_header\n")
        with pytest.raises(ParseError, match="ASCII"):
            tio.load_mesh(path)

    @pytest.mark.parametrize("edit, message", [
        (("0 1 0\n3 0 1 2\n", ""), r"tri.ply:12: file ends after 2 of 3 vertex rows"),
        (("3 0 1 2\n", ""), r"tri.ply:13: file ends after 0 of 1 face rows"),
        (("element vertex 3", "element vertex x3"),
         r"tri.ply:4: element needs a name and a count"),
        (("element face 1", "element face"), r"tri.ply:8: element needs a name"),
        (("format ascii 1.0", "format"), r"tri.ply:2: only ASCII PLY is supported"),
        (("0 1 0\n", "0 1\n"), r"tri.ply:13: wrong number of vertex properties"),
        (("3 0 1 2", "3 0 1 x"), r"tri.ply:14: bad face record"),
        (("3 0 1 2", "3 0 1 3"), r"tri.ply:14: face index out of range"),
    ])
    def test_malformed_reports_path_and_line(self, tmp_path, edit, message):
        path = tmp_path / "tri.ply"
        path.write_text(self.PLY_MINIMAL.replace(*edit))
        with pytest.raises(ParseError, match=message):
            tio.load_mesh(path)

    def test_unsupported_extension(self, tmp_path):
        path = tmp_path / "mesh.stl"
        path.write_text("whatever")
        with pytest.raises(ParseError, match="unsupported mesh format"):
            tio.load_mesh(path)


class TestGenerators:
    def test_torus_vertex_count_is_grid_product(self):
        pts, faces = tio.generate_torus(2.0, 0.8, 25, 16)
        assert pts.shape == (25 * 16, 3)
        assert faces.shape == (2 * 25 * 16, 3)

    def test_torus_points_satisfy_implicit_equation(self):
        # oracle: closed-form parametrization of the torus surface
        major, minor = 2.0, 0.8
        pts, _ = tio.generate_torus(major, minor, 12, 9)
        ring = np.sqrt(pts[:, 0] ** 2 + pts[:, 1] ** 2) - major
        resid = ring**2 + pts[:, 2] ** 2 - minor**2
        assert np.abs(resid).max() <= 1e-12

    def test_torus_face_order(self):
        # oracle: two triangles per grid cell (a, b), cells in row-major order
        n_major, n_minor = 5, 4
        _, faces = tio.generate_torus(2.0, 0.8, n_major, n_minor)
        expected = []
        for a in range(n_major):
            for b in range(n_minor):
                p00, p01 = a * n_minor + b, a * n_minor + (b + 1) % n_minor
                p10 = ((a + 1) % n_major) * n_minor + b
                p11 = ((a + 1) % n_major) * n_minor + (b + 1) % n_minor
                expected += [[p00, p10, p11], [p00, p11, p01]]
        assert faces.dtype == np.int64 and faces.tolist() == expected

    def test_icosphere_matches_midpoint_cache_reference(self):
        # oracle: subdivision with a midpoint cache, one new vertex per edge
        # in order of first use, each normalised on its own; a subdivision
        # appends vertices, so coarser spheres are prefixes of finer ones
        verts, faces = tio.generate_icosphere(0)
        for subdivisions in range(1, 5):
            cache, vert_list, new_faces = {}, list(verts), []

            def midpoint(a, b):
                key = (min(a, b), max(a, b))
                if key not in cache:
                    mid = vert_list[a] + vert_list[b]
                    cache[key] = len(vert_list)
                    vert_list.append(mid / np.linalg.norm(mid))
                return cache[key]

            for a, b, c in faces.tolist():
                ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
                new_faces += [[a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca]]
            verts, faces = np.array(vert_list), np.array(new_faces)
            got_verts, got_faces = tio.generate_icosphere(subdivisions)
            assert np.array_equal(got_verts, verts) and np.array_equal(got_faces, faces)
        coarse, _ = tio.generate_icosphere(2)
        assert len(coarse) == 162 and np.array_equal(verts[:162], coarse)

    def test_icosphere_counts_and_radius(self):
        for subdiv, count in ((0, 12), (1, 42), (2, 162)):
            pts, faces = tio.generate_icosphere(subdiv, radius=2.5)
            assert pts.shape == (count, 3)
            assert np.allclose(np.linalg.norm(pts, axis=1), 2.5, atol=1e-12)


class TestVtk:
    def test_header_literal_and_counts(self, tmp_path):
        pts = np.eye(3)
        vecs = np.zeros((3, 3))
        path = tmp_path / "out.vtk"
        tio.write_vtk(path, pts, vecs, name="field")
        lines = path.read_text().splitlines()
        assert lines[0] == "# vtk DataFile Version 3.0"
        assert "POINTS 3 double" in lines
        assert "POINT_DATA 3" in lines
        assert "VECTORS field double" in lines
        # zero vectors are written explicitly
        assert lines[-1] == "0 0 0"

    def test_vector_count_equals_point_count(self, tmp_path):
        with pytest.raises(ValueError, match="mismatch"):
            tio.write_vtk(tmp_path / "x.vtk", np.eye(3), np.zeros((2, 3)))

    def test_two_dimensional_padded(self, tmp_path):
        path = tmp_path / "flat.vtk"
        tio.write_vtk(path, np.array([[0.0, 1.0], [2.0, 3.0]]),
                      np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert "POINTS 2 double" in path.read_text()

    def test_high_dimension_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            tio.write_vtk(tmp_path / "x.vtk", np.zeros((2, 5)), np.zeros((2, 5)))

    def test_deterministic_bytes(self, tmp_path, torus):
        vec = np.tile([1.0, 2.0, 3.0], (400, 1))
        a, b = tmp_path / "a.vtk", tmp_path / "b.vtk"
        tio.write_vtk(a, torus.cloud.points, vec, faces=torus.faces)
        tio.write_vtk(b, torus.cloud.points, vec, faces=torus.faces)
        assert a.read_bytes() == b.read_bytes()


class TestSpectrumPersistence:
    def test_round_trip(self, tmp_path, torus, torus_spectrum):
        tio.save_spectrum(tmp_path / "spec", torus_spectrum)
        loaded = tio.load_spectrum(tmp_path / "spec")
        assert np.array_equal(loaded.eigenvalues, torus_spectrum.eigenvalues)
        assert np.array_equal(loaded.eigenvectors, torus_spectrum.eigenvectors)
        assert loaded.n == 400 and loaded.m == 2
        assert loaded.next_eigenvalue == pytest.approx(
            torus_spectrum.next_eigenvalue)

    def test_manifest_records_convention(self, tmp_path, torus_spectrum):
        manifest_path = tio.save_spectrum(tmp_path / "spec", torus_spectrum)
        manifest = json.loads(manifest_path.read_text())
        assert manifest["k"] == torus_spectrum.k
        assert "sign_convention" in manifest


class TestModelPersistence:
    def test_round_trip_predictions(self, tmp_path, small_torus):
        spec = tg.eigendecompose(small_torus.con, 20)
        rng = np.random.default_rng(2)
        truth = small_torus.frames.to_ambient(rng.standard_normal((60, 2)))
        hp = tg.MaternHyperparams(sigma=1.1, kappa=1.7, nu=1.5, sigma_n=0.01)
        model = tg.fit(np.arange(0, 60, 2), truth[::2], spec, small_torus.frames, hp)
        tio.save_model(tmp_path / "model", model, small_torus.frames, small_torus.cloud,
                       small_torus.graph)
        loaded, *_ = tio.load_model(tmp_path / "model")
        p1, c1 = tg.predict(model, np.arange(60))
        p2, c2 = tg.predict(loaded, np.arange(60))
        assert np.array_equal(p1, p2)
        assert np.array_equal(c1, c2)
        assert loaded.hyperparams == hp

    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(k=st.integers(4, 60), seed=st.integers(0, 2**16),
           fraction=st.floats(0.05, 1.0), log_theta=st.tuples(
               st.floats(-1, 1), st.floats(-1, 1.5), st.floats(-4, -0.5)))
    def test_round_trip_is_bit_exact(self, tmp_path_factory, torus, torus_spectrum,
                                     torus_truth, k, seed, fraction, log_theta):
        rng = np.random.default_rng(seed)
        train = np.sort(rng.choice(400, max(1, int(fraction * 400)), replace=False))
        sigma, kappa, sigma_n = 10.0 ** np.array(log_theta)
        hp = tg.MaternHyperparams(sigma=sigma, kappa=kappa, nu=1.5, sigma_n=sigma_n)
        model = tg.fit(train, torus_truth.field.ambient()[train],
                       tg.spectral.truncate(torus_spectrum, k), torus.frames, hp)
        directory = tmp_path_factory.mktemp("model")
        tio.save_model(directory, model, torus.frames, torus.cloud, torus.graph)
        loaded, frames, cloud, graph = tio.load_model(directory)
        assert np.array_equal(cloud.points, torus.cloud.points)
        assert np.array_equal(graph.edges, torus.graph.edges)
        assert np.array_equal(graph.weights, torus.graph.weights)
        assert np.array_equal(frames.frames, torus.frames.frames)
        for before, after in zip(tg.predict(model, np.arange(400)),
                                 tg.predict(loaded, np.arange(400))):
            assert np.array_equal(before, after)
        queries = (torus.cloud.points[torus.faces[:20, 0]]
                   + torus.cloud.points[torus.faces[:20, 1]]) / 2
        at = [tg.predict_at_encodings(m, tg.extend_encodings(
            queries, torus.cloud, g, frames, m.spectrum)[0])
            for m, g in ((model, torus.graph), (loaded, graph))]
        for before, after in zip(*at):
            assert np.array_equal(before, after)

    def test_model_of_several_fields_is_refused(self, tmp_path, small_torus):
        # the format holds one field's targets
        spec = tg.eigendecompose(small_torus.con, 10)
        model = tg.fit(np.arange(10), np.zeros((2, 10, 3)), spec, small_torus.frames,
                       tg.MaternHyperparams())
        with pytest.raises(ValueError, match=r"targets of shape \(2, 10, 3\) hold 2"):
            tio.save_model(tmp_path / "model", model, small_torus.frames,
                           small_torus.cloud, small_torus.graph)
        assert not (tmp_path / "model").exists()

    def test_infinite_nu_round_trips(self, tmp_path, small_torus):
        spec = tg.eigendecompose(small_torus.con, 10)
        hp = tg.MaternHyperparams(nu=math.inf)
        model = tg.fit(np.arange(10), np.zeros((10, 3)), spec,
                       small_torus.frames, hp)
        tio.save_model(tmp_path / "model", model, small_torus.frames, small_torus.cloud,
                       small_torus.graph)
        loaded, *_ = tio.load_model(tmp_path / "model")
        assert math.isinf(loaded.hyperparams.nu)

    def test_stored_c_norm_must_match_refit(self, tmp_path, small_torus):
        directory = save_small_model(tmp_path / "model", small_torus)
        manifest_path = directory / "model.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["c_norm"] *= 1 + 1e-13  # within the tolerance: loads
        manifest_path.write_text(json.dumps(manifest))
        tio.load_model(directory)
        manifest["c_norm"] *= 1 + 1e-9
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ParseError, match="model.json: stored c_norm"):
            tio.load_model(directory)

    def test_format_1_is_refused(self, tmp_path, small_torus):
        # a tangentgp-model/1 directory stores no points or graph
        directory = save_small_model(tmp_path / "model", small_torus)
        manifest_path = directory / "model.json"
        manifest = json.loads(manifest_path.read_text())
        for key in ("points_csv", "graph_csv"):
            (directory / manifest.pop(key)).unlink()
        manifest_path.write_text(json.dumps({**manifest, "format": "tangentgp-model/1"}))
        with pytest.raises(ParseError, match="model.json: model format "
                           "'tangentgp-model/1' is not 'tangentgp-model/2': refit"):
            tio.load_model(directory)

    @pytest.mark.parametrize("name, edit, message", [
        ("points", lambda text: "0,0,0\n1,0,0\n", "model.json: shapes"),
        ("graph", lambda text: "0,1\n", "model.json: shapes"),
        ("targets", lambda text: "0,0\n", "model.json: shapes"),
        ("graph", lambda text: text.replace("0,1,", "0,1.5,", 1), "not an integer")],
        ids=["points", "graph", "targets", "graph_endpoint"])
    def test_damaged_csv_is_refused(self, tmp_path, small_torus, name, edit, message):
        csv = save_small_model(tmp_path / "model", small_torus) / f"{name}.csv"
        csv.write_text(edit(csv.read_text()))
        with pytest.raises(ValueError, match=message):
            tio.load_model(tmp_path / "model")

    @pytest.mark.parametrize("name, edit, message", [
        ("eigenvalues.csv", lambda text: "".join(np.array(
            text.splitlines(keepends=True))[[0, 6, 2, 3, 4, 5, 1, 7, 8, 9]]),
         "eigenvalues.csv: eigenvalues must be non-decreasing"),
        ("eigenvectors.csv", lambda text: "\n".join(
            line.rsplit(",", 1)[0] for line in text.splitlines()),
         r"eigenvectors.csv: shape \(800, 9\) is not \(800, 10\)"),
        ("spectrum.json", lambda text: json.dumps(
            {**json.loads(text), "next_eigenvalue": 0.0}),
         "spectrum.json: next_eigenvalue 0.0 below the last eigenvalue")],
        ids=["unsorted", "short_vectors", "next_below"])
    def test_damaged_spectrum_is_refused(self, tmp_path, torus, torus_spectrum,
                                         torus_truth, name, edit, message):
        # every connection eigenpair has mean trace m, so the stored c_norm of
        # a model trained on every node cannot see two eigenvalues swapped
        spec = tg.spectral.truncate(torus_spectrum, 10)
        assert spec.k == 10 and spec.eigenvalues[1] < spec.eigenvalues[6]
        model = tg.fit(np.arange(400), torus_truth.field.ambient(), spec, torus.frames,
                       tg.MaternHyperparams(sigma=1.0, kappa=1.0, nu=1.5, sigma_n=0.01))
        tio.save_model(tmp_path, model, torus.frames, torus.cloud, torus.graph)
        path = tmp_path / "spectrum" / name
        path.write_text(edit(path.read_text()))
        with pytest.raises(ParseError, match=message):
            tio.load_model(tmp_path)


def save_small_model(directory, small_torus):
    """A model of zero vectors at the small torus's first 10 nodes, saved to
    ``directory`` with the torus's frames, points and graph."""
    spec = tg.eigendecompose(small_torus.con, 10)
    model = tg.fit(np.arange(10), np.zeros((10, 3)), spec, small_torus.frames,
                   tg.MaternHyperparams())
    tio.save_model(directory, model, small_torus.frames, small_torus.cloud,
                   small_torus.graph)
    return directory


TRICKY = np.array([[-0.0, 5e-324, 1e308], [0.1, 1 / 3, -2.5],
                   [123456789.125, -1e-300, 0.0]])
TRICKY_VECTORS = np.array([[1 / 3, -0.0, 0.1], [5e-324, -1e308, 2.0],
                           [0.7, 1e-5, -1 / 3]])
MESH_POINTS = np.vstack([TRICKY, [[1.0, 1 / 3, 0.1]]])
MESH_FACES = np.array([[0, 1, 2], [0, 2, 3]])

# Expected text of each writer on the values above: every float as %.17g.
GOLDEN = {
    "vectors.csv": (
        "id,x0,x1,x2,v0,v1,v2\n"
        "0,-0,4.9406564584124654e-324,1e+308,0.33333333333333331,-0,0.10000000000000001\n"
        "9007199254740993,0.10000000000000001,0.33333333333333331,"
        "-2.5,4.9406564584124654e-324,-1e+308,2\n"
        "4611686018427387911,123456789.125,-1e-300,0,"
        "0.69999999999999996,1.0000000000000001e-05,-0.33333333333333331\n"),
    "points.csv": (
        "id,x0,x1\n"
        "0,-0,4.9406564584124654e-324\n"
        "1,0.10000000000000001,0.33333333333333331\n"
        "2,123456789.125,-1e-300\n"),
    "mesh.obj": (
        "v -0 4.9406564584124654e-324 1e+308\n"
        "v 0.10000000000000001 0.33333333333333331 -2.5\n"
        "v 123456789.125 -1e-300 0\n"
        "v 1 0.33333333333333331 0.10000000000000001\n"
        "f 1 2 3\n"
        "f 1 3 4\n"),
    "faces.vtk": (
        "# vtk DataFile Version 3.0\n"
        "field\n"
        "ASCII\n"
        "DATASET POLYDATA\n"
        "POINTS 4 double\n"
        "-0 4.9406564584124654e-324 1e+308\n"
        "0.10000000000000001 0.33333333333333331 -2.5\n"
        "123456789.125 -1e-300 0\n"
        "1 0.33333333333333331 0.10000000000000001\n"
        "POLYGONS 2 8\n"
        "3 0 1 2\n"
        "3 0 2 3\n"
        "POINT_DATA 4\n"
        "VECTORS field double\n"
        "0.33333333333333331 -0 0.10000000000000001\n"
        "4.9406564584124654e-324 -1e+308 2\n"
        "0.69999999999999996 1.0000000000000001e-05 -0.33333333333333331\n"
        "0 -0 4.9406564584124654e-324\n"),
    "cloud.vtk": (
        "# vtk DataFile Version 3.0\n"
        "pred\n"
        "ASCII\n"
        "DATASET POLYDATA\n"
        "POINTS 3 double\n"
        "-0 4.9406564584124654e-324 0\n"
        "0.10000000000000001 0.33333333333333331 0\n"
        "123456789.125 -1e-300 0\n"
        "VERTICES 3 6\n"
        "1 0\n"
        "1 1\n"
        "1 2\n"
        "POINT_DATA 3\n"
        "VECTORS pred double\n"
        "0.33333333333333331 -0 0\n"
        "4.9406564584124654e-324 -1e+308 0\n"
        "0.69999999999999996 1.0000000000000001e-05 0\n"),
    "spectrum/eigenvalues.csv": (
        "4.9406564584124654e-324\n"
        "0.10000000000000001\n"
        "0.33333333333333331\n"),
    "spectrum/eigenvectors.csv": (
        "0.33333333333333331,-0,0.10000000000000001\n"
        "0.66666666666666663,1e-300,-0.5\n"
        "0.66666666666666663,-0.33333333333333331,0.25\n"
        "0,0.66666666666666663,-0.66666666666666663\n"
        "-0,0.10000000000000001,1e-08\n"
        "1,4.9406564584124654e-324,0.125\n"),
    "model/points.csv": (
        "-0,4.9406564584124654e-324,1e+308\n"
        "0.10000000000000001,0.33333333333333331,-2.5\n"
        "123456789.125,-1e-300,0\n"),
    "model/graph.csv": (
        "0,1,0.33333333333333331\n"
        "1,2,4.9406564584124654e-324\n"),
    "model/frames.csv": (
        "0.33333333333333331,0.66666666666666663,0.66666666666666663,"
        "0.33333333333333331,0.66666666666666663,-0.66666666666666663\n"
        "1,-0,0,1,-0,0\n"
        "0,1,-1,0,0,-0\n"),
    "model/targets.csv": (
        "-0,4.9406564584124654e-324,0.10000000000000001\n"
        "0.33333333333333331,-2.5,10000000000\n"),
    "variances.csv": (
        "id,variance_trace\n"
        "3,0.6333333333333333\n"
        "9007199254740993,4.9406564584124654e-324\n"
        "0,1e+308\n"),
}


class TestGoldenText:
    def check(self, path, name):
        assert path.read_text() == GOLDEN[name]

    def test_vector_csv(self, tmp_path):
        tio.write_vector_csv(tmp_path / "v.csv", TRICKY, TRICKY_VECTORS,
                             ids=np.array([0, 2**53 + 1, 2**62 + 7]))
        self.check(tmp_path / "v.csv", "vectors.csv")
        tio.write_vector_csv(tmp_path / "p.csv", TRICKY[:, :2])
        self.check(tmp_path / "p.csv", "points.csv")

    def test_obj(self, tmp_path):
        tio.write_obj(tmp_path / "m.obj", MESH_POINTS, MESH_FACES)
        self.check(tmp_path / "m.obj", "mesh.obj")

    def test_vtk_with_and_without_faces(self, tmp_path):
        vectors = np.vstack([TRICKY_VECTORS, [[0.0, -0.0, 5e-324]]])
        tio.write_vtk(tmp_path / "f.vtk", MESH_POINTS, vectors, name="field",
                      faces=MESH_FACES)
        self.check(tmp_path / "f.vtk", "faces.vtk")
        tio.write_vtk(tmp_path / "c.vtk", TRICKY[:, :2], TRICKY_VECTORS[:, :2],
                      name="pred")
        self.check(tmp_path / "c.vtk", "cloud.vtk")

    def test_spectrum_and_model_csvs(self, tmp_path):
        spectrum = tg.spectral.Spectrum(np.array([5e-324, 0.1, 1 / 3]), np.array(
            [[1 / 3, -0.0, 0.1], [2 / 3, 1e-300, -0.5], [2 / 3, -1 / 3, 0.25],
             [0.0, 2 / 3, -2 / 3], [-0.0, 0.1, 1e-8], [1.0, 5e-324, 0.125]]),
            n=3, m=2, next_eigenvalue=0.5)
        frames = tg.geometry.GaugeFrames(np.array([
            [[1 / 3, 2 / 3], [2 / 3, 1 / 3], [2 / 3, -2 / 3]],
            [[1.0, -0.0], [0.0, 1.0], [-0.0, 0.0]],
            [[0.0, 1.0], [-1.0, 0.0], [0.0, -0.0]]]))
        targets = np.array([[-0.0, 5e-324, 0.1], [1 / 3, -2.5, 1e10]])
        model = tg.fit(np.array([0, 2]), targets, spectrum, frames,
                       tg.MaternHyperparams(sigma_n=0.1))
        graph = tg.ProximityGraph(3, np.array([[0, 1], [1, 2]]), np.array([1 / 3, 5e-324]))
        tio.save_model(tmp_path / "model", model, frames, tg.PointCloud(TRICKY), graph)
        for name in ("spectrum/eigenvalues.csv", "spectrum/eigenvectors.csv",
                     "model/points.csv", "model/graph.csv", "model/frames.csv",
                     "model/targets.csv"):
            self.check(tmp_path / "model" / name.replace("model/", ""), name)

    def test_variances_csv(self, tmp_path):
        covs = np.array([np.diag(d) for d in ([0.1, 0.2, 1 / 3], [5e-324, -0.0, 0.0],
                                              [1e308, 1e-300, 0.7])])
        tio.write_variances_csv(tmp_path / "var.csv", np.array([3, 2**53 + 1, 0]), covs)
        self.check(tmp_path / "var.csv", "variances.csv")


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def tables(draw, min_rows=0, min_cols=1):
    shape = (draw(st.integers(min_rows, 12)), draw(st.integers(min_cols, 4)))
    return draw(hnp.arrays(np.float64, shape, elements=FINITE))


class TestRoundTrip:
    """Every writer's text reads back to bit-equal arrays."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(points=tables(min_cols=1), data=st.data())
    def test_vector_csv(self, tmp_path_factory, points, data):
        vectors = data.draw(st.none() | hnp.arrays(np.float64, points.shape,
                                                   elements=FINITE))
        ids = data.draw(hnp.arrays(np.int64, len(points)))
        path = tmp_path_factory.mktemp("csv") / "v.csv"
        tio.write_vector_csv(path, points, vectors, ids=ids)
        ids2, points2, vectors2 = tio.read_vector_csv(path)
        assert ids2.tobytes() == ids.tobytes()
        assert points2.tobytes() == points.tobytes()
        assert (vectors2 is None if vectors is None
                else vectors2.tobytes() == vectors.tobytes())

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(vectors=tables(min_rows=1), data=st.data())
    def test_spectrum(self, tmp_path_factory, vectors, data):
        # a loaded spectrum must be ascending with one row per node
        values = np.sort(data.draw(hnp.arrays(np.float64, vectors.shape[1],
                                              elements=FINITE)))
        directory = tmp_path_factory.mktemp("spec")
        tio.save_spectrum(directory, tg.spectral.Spectrum(values, vectors,
                                                          n=len(vectors), m=1))
        loaded = tio.load_spectrum(directory)
        assert loaded.eigenvalues.tobytes() == values.tobytes()
        assert loaded.eigenvectors.tobytes() == vectors.tobytes()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(points=hnp.arrays(np.float64, st.tuples(st.integers(3, 12), st.just(3)),
                             elements=FINITE, unique=True), data=st.data())
    def test_obj(self, tmp_path_factory, points, data):
        n = len(points)
        faces = np.array(data.draw(st.lists(
            st.permutations(range(n)).map(lambda p: p[:3]), max_size=8)),
            dtype=np.int64).reshape(-1, 3)
        path = tmp_path_factory.mktemp("obj") / "m.obj"
        tio.write_obj(path, points, faces)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonManifoldWarning)
            cloud, faces2 = tio.load_mesh(path)
        assert cloud.points.tobytes() == points.tobytes()
        assert faces2.tobytes() == faces.tobytes()


def shipped_schema():
    return json.loads((resources.files("tangentgp") / "schemas" /
                       "experiment-config.schema.json").read_text())


class TestConfig:
    def write(self, tmp_path, payload):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        return path

    def test_minimal_config(self, tmp_path):
        cfg = tio.load_config(self.write(tmp_path, {
            "kind": "generate", "output_dir": "out"}))
        assert cfg.kind == "generate"
        assert cfg.graph.k_neighbors == 5
        assert cfg.num_eigenvectors == 50
        assert cfg.tau == 100.0
        assert cfg.split_fraction == 0.5

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ParseError, match="unknown config keys"):
            tio.load_config(self.write(tmp_path, {
                "kind": "generate", "output_dir": "out", "bogus": 1}))

    @pytest.mark.parametrize("name, payload", [
        ("fit", {"n_start": 1}),
        ("mask", {"fractoin": 0.3}),
        ("baseline_hyperparams", {"sigmaa": 2}),
        ("hyperparams", {"kapa": 1.0}),
        ("graph", {"k_neighbours": 4}),
    ])
    def test_unknown_nested_key_rejected(self, tmp_path, name, payload):
        message = re.escape(f"unknown {name} keys: {sorted(payload)}")
        with pytest.raises(ParseError, match=message):
            tio.load_config(self.write(tmp_path, {
                "kind": "generate", "output_dir": "out", name: payload}))

    def test_blocks_parsed_once(self, tmp_path):
        cfg = tio.load_config(self.write(tmp_path, {
            "kind": "inpaint", "output_dir": "out",
            "hyperparams": {"sigma": 2.0, "nu": 2.5},
            "baseline_hyperparams": {"nu": "inf"},
            "fit": {"nu": "inf"}}))
        assert cfg.hyperparams == tg.MaternHyperparams(sigma=2.0, nu=2.5)
        assert cfg.baseline_hyperparams == tg.MaternHyperparams(nu=math.inf)
        assert cfg.fit == tio.FitConfig(math.inf)
        default = tio.load_config(self.write(tmp_path, {
            "kind": "inpaint", "output_dir": "out", "hyperparams": None, "fit": None}))
        assert default.hyperparams is None and default.baseline_hyperparams is None
        assert default.fit == tio.FitConfig(1.5)

    def test_baseline_block_without_nu_is_the_inf_kernel(self, tmp_path):
        cfg = tio.load_config(self.write(tmp_path, {
            "kind": "inpaint", "output_dir": "out",
            "hyperparams": {"sigma": 2.0}, "baseline_hyperparams": {"sigma": 2.0}}))
        assert cfg.baseline_hyperparams == tg.MaternHyperparams(sigma=2.0, nu=math.inf)
        assert cfg.hyperparams == tg.MaternHyperparams(sigma=2.0)

    @pytest.mark.parametrize("name, block, message", [
        ("hyperparams", {"sigma": -1}, ".sigma: must be > 0, got -1"),
        ("hyperparams", {"kappa": "wide"}, ".kappa: must be a finite number, got 'wide'"),
        ("baseline_hyperparams", {"sigma": -1}, ".sigma: must be > 0, got -1"),
        ("baseline_hyperparams", {"nu": "abc"},
         ".nu: must be 'inf', got 'abc'"),
        ("fit", {"nu": -2}, ".nu: must be > 0, got -2"),
        ("fit", {"nu": [1]}, ".nu: must be a finite number or 'inf', got [1]"),
        ("graph", [], ": must be an object, got []"),
    ], ids=["hyperparams-block0-sigma must be positive",
            "hyperparams-block1-could not convert",
            "baseline_hyperparams-block2-sigma must be positive",
            "baseline_hyperparams-block3-nu must be a positive number",
            "fit-block5-nu must be a positive number",
            "fit-block6-nu must be a positive number",
            "graph-block7-must be a mapping"])
    def test_bad_block_values_rejected(self, tmp_path, name, block, message):
        with pytest.raises(ParseError, match=re.escape(name + message)):
            tio.load_config(self.write(tmp_path, {
                "kind": "inpaint", "output_dir": "out", name: block}))

    def test_search_budget_validated(self):
        for budget in ({"n_starts": 0}, {"n_sweeps": 0}, {"grid_points": 1}):
            with pytest.raises(ValueError, match=f"{next(iter(budget))} must be >="):
                tg.SearchConfig(**budget)
        tg.SearchConfig(n_starts=1, n_sweeps=1, grid_points=2)

    def test_bad_kind(self, tmp_path):
        with pytest.raises(ValueError, match="kind"):
            tio.load_config(self.write(tmp_path, {
                "kind": "dance", "output_dir": "out"}))

    def test_missing_input_path(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            tio.load_config(self.write(tmp_path, {
                "kind": "generate", "output_dir": "out",
                "input_mesh": "nope.obj"}))

    def test_seed_must_fit_u64(self, tmp_path):
        with pytest.raises(ParseError, match="seed: must be <= 18446744073709551615"):
            tio.load_config(self.write(tmp_path, {
                "kind": "generate", "output_dir": "out", "seed": 2**64}))

    def test_relative_paths_resolve_against_config(self, tmp_path):
        mesh = tmp_path / "mesh.obj"
        pts, faces = tio.generate_torus(2.0, 0.8, 4, 3)
        tio.write_obj(mesh, pts, faces)
        cfg = tio.load_config(self.write(tmp_path, {
            "kind": "generate", "output_dir": "out", "input_mesh": "mesh.obj"}))
        assert cfg.input_mesh == str(mesh.resolve())

    def test_hash_stable_under_key_reordering(self):
        a = {"kind": "generate", "seed": 3, "graph": {"k_neighbors": 5,
                                                      "weighting": "unit"}}
        b = {"graph": {"weighting": "unit", "k_neighbors": 5}, "seed": 3,
             "kind": "generate"}
        assert tio.config_hash(a) == tio.config_hash(b)
        assert tio.config_hash(a) != tio.config_hash({**a, "seed": 4})

    def test_schema_ships_and_matches_config_fields(self):
        schema = shipped_schema()
        config_fields = {f for f in tio.ExperimentConfig.__dataclass_fields__
                         if f != "raw"}
        assert set(schema["properties"]) == config_fields
        hyperparams = set(tg.MaternHyperparams.__dataclass_fields__)
        nested = {"graph": set(tio.GraphConfig.__dataclass_fields__),
                  "hyperparams": hyperparams, "baseline_hyperparams": hyperparams,
                  "fit": set(tio.FitConfig.__dataclass_fields__)}
        for name, keys in nested.items():
            assert set(schema["properties"][name]["properties"]) == keys, name
        for name, block in [("config", schema), *schema["properties"].items()]:
            if "properties" in block:
                assert block["additionalProperties"] is False, name

    def test_schema_defaults_are_the_dataclass_defaults(self):
        # the dataclass field is the one default; the schema only documents it
        schema = shipped_schema()["properties"]
        fields = {**{(None, f.name): f for f in
                     dataclasses.fields(tio.ExperimentConfig)},
                  **{("graph", f.name): f for f in dataclasses.fields(tio.GraphConfig)}}
        documented = {(None, name): spec["default"] for name, spec in schema.items()
                      if "default" in spec}
        documented.update({("graph", name): spec["default"] for name, spec in
                           schema["graph"]["properties"].items() if "default" in spec})
        assert len(documented) == 10
        for key, default in documented.items():
            field = fields[key]
            value = (field.default_factory() if field.default is dataclasses.MISSING
                     else field.default)
            assert value == default and type(value) is type(default), key

    def test_schema_uses_only_checked_keywords(self):
        # a keyword the checker does not implement would be ignored silently
        checked = {"type", "enum", "const", "minimum", "maximum", "exclusiveMinimum",
                   "oneOf", "items", "minItems", "properties", "additionalProperties",
                   "required"}
        annotations = {"$schema", "title", "description", "default"}

        def walk(schema, where):
            assert set(schema) <= checked | annotations, (where, set(schema))
            for name, sub in schema.get("properties", {}).items():
                walk(sub, f"{where}.{name}")
            if "items" in schema:
                walk(schema["items"], f"{where}[]")
            if "oneOf" in schema:
                # the checker lets the one alternative of a value's kind decide
                kinds = [repr(sub["const"]) if "const" in sub else sub["type"]
                         for sub in schema["oneOf"]]
                assert len(set(kinds)) == len(kinds), where
                assert not {"integer", "number"} <= set(kinds), where
                for sub in schema["oneOf"]:
                    walk(sub, f"{where}|")

        walk(shipped_schema(), "config")

    def test_shipped_and_inventory_configs_meet_the_schema(self, tmp_path):
        root = Path(__file__).parent.parent
        for path in sorted((root / "configs").glob("*.json")):
            tio.check_config(json.loads(path.read_text()))
        spec = importlib.util.spec_from_file_location(
            "output_inventory", root / "tools" / "output_inventory.py")
        inventory = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(inventory)
        runs = inventory.runs(tmp_path / "torus.obj", tmp_path / "mesh.obj",
                              tmp_path / "mobius.obj", tmp_path / "sphere.obj", tmp_path)
        configs = [{"kind": command, "output_dir": str(tmp_path / name), **payload}
                   for name, command, payload in runs if command != "eval"]
        assert len(configs) == 14
        for config in configs:
            tio.check_config(config)
