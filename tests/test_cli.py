import argparse
import json
import warnings

import numpy as np
import pytest

from gradvar import (GridSpec, ScalarField, build_graph, build_grid,
                     discrete_gradient, read_field_csv, total_variation,
                     write_scalar_csv)
from gradvar.cli import _build_parser, main


def strict_json(text):
    """json.loads that rejects NaN and Infinity, which are not JSON."""
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=reject)


@pytest.fixture(autouse=True)
def json_outputs_are_strict(tmp_path):
    """Every metrics.json and run.json a test here writes is strict JSON."""
    yield
    for path in [*tmp_path.rglob("metrics.json"), *tmp_path.rglob("run.json")]:
        strict_json(path.read_text())


@pytest.fixture
def corner_samples(tmp_path):
    p = tmp_path / "samples.csv"
    p.write_text("vertex,value\n0,0.0\n15,3.0\n")
    return str(p)


def grid_args(samples, out, *extra):
    return ["fit", "--grid", "4x4", "--samples", samples, "--out", str(out),
            *extra]


class TestCheck:
    def test_feasible_exit_zero(self, corner_samples, capsys):
        rc = main(["check", "--grid", "4x4", "--samples", corner_samples])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("feasible: 2 guiding points")
        assert "delta 0.5" in out

    def test_explicit_delta_infeasible_exit_two(self, corner_samples, capsys):
        rc = main(["check", "--grid", "4x4", "--samples", corner_samples,
                   "--delta", "0.4"])
        assert rc == 2
        out = capsys.readouterr().out
        assert out.startswith("infeasible:")
        assert "0" in out and "15" in out

    def test_auto_delta_half_level_tie_is_feasible(self, tmp_path, capsys):
        # (0.1 + 0.2) / 0.2 rounds above 1.5 in floats while 0.1 / 0.2 is
        # exactly 0.5; vertices 14 and 25 are one hop apart.
        samples = tmp_path / "tie.csv"
        samples.write_text("vertex,value\n14,0.1\n27,-0.2\n19,0.5\n25,-0.1\n")
        rc = main(["check", "--grid", "11x3", "--samples", str(samples)])
        assert rc == 0
        assert capsys.readouterr().out == \
            "feasible: 4 guiding points, 4 levels, delta 0.2\n"

    def test_missing_file_exit_one(self, tmp_path, capsys):
        rc = main(["check", "--grid", "4x4",
                   "--samples", str(tmp_path / "nope.csv")])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_bad_flag_exit_one(self, corner_samples, capsys):
        rc = main(["check", "--grid", "4x4", "--samples", corner_samples,
                   "--wat"])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_domain_flags_must_be_exclusive(self, corner_samples, tmp_path,
                                            capsys):
        edges = tmp_path / "g.txt"
        edges.write_text("vertices 2\n0 1\n")
        mesh = tmp_path / "m.obj"
        mesh.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
        out = ["--out", str(tmp_path / "out")]
        for command in (["check"], ["fit", *out]):
            base = [*command, "--samples", corner_samples]
            assert main(base) == 1
            assert capsys.readouterr().err == (
                f"gradvar {command[0]}: error: one of the arguments --grid "
                f"--mesh --edges is required\n")
            for first, second in ((["--grid", "2x2"], ["--edges", str(edges)]),
                                  (["--grid", "2x2"], ["--mesh", str(mesh)]),
                                  (["--mesh", str(mesh)], ["--edges", str(edges)])):
                assert main([*base, *first, *second]) == 1
                assert capsys.readouterr().err == (
                    f"gradvar {command[0]}: error: argument {second[0]}: "
                    f"not allowed with argument {first[0]}\n")
        # bench and render know only --grid, and read no mesh or edge list.
        field = tmp_path / "f.csv"
        write_scalar_csv(field, np.arange(16.0))
        for command in (["bench"], ["render", "--field", str(field)]):
            for other in (["--mesh", str(mesh)], ["--edges", str(edges)]):
                rc = main([*command, "--grid", "4x4", *other, *out])
                assert rc == 1
                assert capsys.readouterr().err == (
                    f"gradvar: error: unrecognized arguments: {' '.join(other)}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag,message", [
        ("--grid", "error: --grid wants WxH, got ''\n"),
        ("--mesh", "error: [Errno 2] No such file or directory: ''\n"),
        ("--edges", "error: [Errno 2] No such file or directory: ''\n"),
    ], ids=["grid", "mesh", "edges"])
    @pytest.mark.parametrize("command", ["check", "fit"])
    def test_empty_domain_value_exit_one(self, corner_samples, tmp_path, capsys,
                                         command, flag, message):
        out = tmp_path / "out"
        rc = main([command, flag, "", "--samples", corner_samples,
                   *(["--out", str(out)] if command == "fit" else [])])
        assert rc == 1
        assert capsys.readouterr().err == message
        assert not out.exists()

    @pytest.mark.parametrize("flags,message", [
        (["--grid", "3by3"], "--grid wants WxH, got '3by3'"),
        (["--grid", "ax3"], "--grid wants integers WxH, got 'ax3'"),
        (["--grid", "4x4", "--spacing", "inf"], "spacing must be positive and finite"),
        (["--grid", "4x4", "--spacing", "nan"], "spacing must be positive and finite"),
        (["--grid", "4x4", "--delta", "abc"],
         "--delta wants a number or 'auto', got 'abc'"),
        (["--grid", "4x4", "--delta", "-1"], "--delta must be positive"),
        (["--grid", "4x4", "--delta", "inf"], "--delta must be positive and finite"),
        (["--grid", "4x4", "--delta", "nan"], "--delta must be positive and finite"),
        # 3.0 / 1e-300 levels are past what a float index resolves.
        (["--grid", "4x4", "--delta", "1e-300"],
         "delta 1e-300 is too small for the sample range"),
        # 10**16 vertices: past the vertex-count limit, refused before any
        # per-vertex array is allocated.
        (["--grid", "100000000x100000000"],
         "error: vertex_count 10000000000000000 is too large; at most 3037000499"),
        (["--grid", "2x0"], "error: grid height must be a positive integer"),
    ], ids=["grid-by", "grid-letter", "spacing-inf", "spacing-nan", "delta-word",
            "delta-negative", "delta-inf", "delta-nan", "delta-tiny",
            "grid-past-vertex-limit", "grid-zero-high"])
    def test_bad_values_exit_one(self, corner_samples, capsys, flags, message):
        rc = main(["check", "--samples", corner_samples, *flags])
        assert rc == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("flag,body,message", [
        ("--mesh", "v 0 0 0\nv 1 0 0\nv 1 1 0\nf 1 2 1" + "0" * 400 + "\n",
         "line 4: face index out of range"),
        ("--edges", "vertices 100000000000000000000\n0 1\n",
         "error: vertex_count 100000000000000000000 is too large"),
        ("--edges", "vertices 1" + "0" * 400 + "\n0 1\n", "is too large"),
        ("--edges", "vertices 100000000000000\n0 1\n",
         "error: vertex_count 100000000000000 is too large"),
    ], ids=["mesh-face-401-digits", "edges-count-1e20", "edges-count-401-digits",
            "edges-count-1e14"])
    def test_huge_ids_and_counts_exit_one(self, corner_samples, tmp_path, capsys,
                                          flag, body, message):
        p = tmp_path / "domain.txt"
        p.write_text(body)
        rc = main(["check", "--samples", corner_samples, flag, str(p)])
        assert rc == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    def test_auto_delta_on_mesh_computes_pair_distances_once(self, tmp_path,
                                                            monkeypatch, capsys):
        import gradvar.domain
        calls = []

        def counting(domain, vertices, sweep=gradvar.domain._multi_source_hops):
            calls.append(len(vertices))
            return sweep(domain, vertices)

        monkeypatch.setattr(gradvar.domain, "_multi_source_hops", counting)
        mesh = tmp_path / "m.obj"
        mesh.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nv 1 1 0\n"
                        "f 1 2 3\nf 2 4 3\n")
        samples = tmp_path / "s.csv"
        samples.write_text("vertex,value\n0,0.0\n3,1.0\n1,0.25\n")
        rc = main(["check", "--mesh", str(mesh), "--samples", str(samples)])
        assert rc == 0
        assert capsys.readouterr().out.startswith("feasible: 3 guiding points")
        assert calls == [3]

    def test_mesh_component_rule_reads_the_pair_matrix(self, tmp_path,
                                                        monkeypatch, capsys):
        import gradvar.domain
        calls = []

        def counting(domain, sources, sweep=gradvar.domain.bfs_distances):
            calls.append(list(sources))
            return sweep(domain, sources)

        monkeypatch.setattr(gradvar.domain, "bfs_distances", counting)
        mesh = tmp_path / "m.obj"
        mesh.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nv 1 1 0\n"
                        "f 1 2 3\nf 2 4 3\n")
        samples = tmp_path / "s.csv"
        samples.write_text("vertex,value\n0,0.0\n3,1.0\n1,0.25\n")
        base = ["--mesh", str(mesh), "--samples", str(samples)]
        assert main(["check", *base]) == 0
        assert main(["fit", *base, "--out", str(tmp_path / "out")]) == 0
        assert calls == []
        assert "feasible: 3 guiding points" in capsys.readouterr().out

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0


class TestFit:
    def test_gvf_writes_full_output_set(self, corner_samples, tmp_path,
                                        capsys):
        out = tmp_path / "out"
        rc = main(grid_args(corner_samples, out))
        assert rc == 0
        names = {p.name for p in out.iterdir()}
        assert names == {"field.csv", "heatmap.ppm", "height.pgm",
                         "height.obj", "metrics.json", "run.json"}
        csv = read_field_csv(out / "field.csv")
        assert len(csv.values) == 16 and csv.indices is not None
        assert csv.values[0] == 0.0 and csv.values[15] == 3.0
        metrics = strict_json((out / "metrics.json").read_text())
        assert metrics["schema"] == 1 and "tv_gradient" in metrics
        assert "rmse" not in metrics
        run = strict_json((out / "run.json").read_text())
        assert run["command"] == "fit" and run["domain"]["grid"] == "4x4"
        assert run["weight"] == "gaussian:1" and run["power"] == 2.0
        assert capsys.readouterr().out.count("wrote ") == 6

    def test_seed_flag_is_gone(self, corner_samples, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(grid_args(corner_samples, out, "--seed", "1")) == 1
        assert "--seed" in capsys.readouterr().err
        assert main(grid_args(corner_samples, out)) == 0
        assert "seed" not in strict_json((out / "run.json").read_text())

    def test_truth_adds_error_metrics(self, corner_samples, tmp_path):
        truth = tmp_path / "truth.csv"
        write_scalar_csv(truth, np.linspace(0.0, 3.0, 16))
        out = tmp_path / "out"
        rc = main(grid_args(corner_samples, out, "--truth", str(truth)))
        assert rc == 0
        metrics = strict_json((out / "metrics.json").read_text())
        assert {"rmse", "max_abs_error", "tv_gradient"} <= set(metrics)

    def test_truth_length_mismatch_exit_one(self, corner_samples, tmp_path,
                                            capsys):
        truth = tmp_path / "truth.csv"
        write_scalar_csv(truth, np.zeros(5))
        rc = main(grid_args(corner_samples, tmp_path / "out",
                            "--truth", str(truth)))
        assert rc == 1
        assert "truth" in capsys.readouterr().err

    @pytest.mark.parametrize("truth_rows,line", [
        (list(range(15, -1, -1)), 2),
        ([0, 1, 2, 2, *range(4, 16)], 5),
    ], ids=["reversed", "repeated"])
    def test_truth_rows_out_of_order_exit_one(self, corner_samples, tmp_path,
                                              capsys, truth_rows, line):
        # Each row's value is 0.2 * vertex, so only the order is wrong.
        truth = tmp_path / "truth.csv"
        truth.write_text("vertex,value\n" + "".join(
            f"{v},{0.2 * v!r}\n" for v in truth_rows))
        out = tmp_path / "out"
        rc = main(grid_args(corner_samples, out, "--truth", str(truth)))
        assert rc == 1
        err = capsys.readouterr().err
        assert f"{truth}: line {line}: expected vertex {line - 2}" in err
        assert not out.exists()

    @pytest.mark.parametrize("size", ["5x1", "1x5"])
    @pytest.mark.parametrize("method", ["gvf", "harmonic"])
    @pytest.mark.parametrize("with_truth", [False, True])
    def test_one_wide_grid(self, tmp_path, size, method, with_truth):
        # No gradient stencil: tv_gradient is the field's own variation.
        samples = tmp_path / "s.csv"
        samples.write_text("vertex,value\n0,0.0\n4,2.0\n")
        out = tmp_path / "out"
        extra = ["--method", method]
        if with_truth:
            write_scalar_csv(tmp_path / "t.csv", np.linspace(0.0, 2.0, 5))
            extra += ["--truth", str(tmp_path / "t.csv")]
        rc = main(["fit", "--grid", size, "--samples", str(samples),
                   "--out", str(out), *extra])
        assert rc == 0
        assert {p.name for p in out.iterdir()} == {
            "field.csv", "heatmap.ppm", "height.pgm", "height.obj",
            "metrics.json", "run.json"}
        w, h = map(int, size.split("x"))
        field = ScalarField(domain=build_grid(GridSpec(w, h)),
                            values=read_field_csv(out / "field.csv").values)
        metrics = strict_json((out / "metrics.json").read_text())
        assert metrics["tv_gradient"] == total_variation(field)
        assert ("rmse" in metrics) == with_truth

    def test_truth_on_edge_list_domain(self, tmp_path):
        edges = tmp_path / "g.txt"
        edges.write_text("vertices 4\n0 1\n1 2\n2 3\n")
        samples = tmp_path / "s.csv"
        samples.write_text("vertex,value\n0,0.0\n3,1.5\n")
        truth = tmp_path / "t.csv"
        write_scalar_csv(truth, np.array([0.0, 0.4, 1.1, 1.5]))
        out = tmp_path / "out"
        rc = main(["fit", "--edges", str(edges), "--samples", str(samples),
                   "--truth", str(truth), "--out", str(out)])
        assert rc == 0
        values = read_field_csv(out / "field.csv").values
        field = ScalarField(domain=build_graph([(0, 1), (1, 2), (2, 3)], 4),
                            values=values)
        metrics = strict_json((out / "metrics.json").read_text())
        err = values - np.array([0.0, 0.4, 1.1, 1.5])
        assert metrics["rmse"] == float(np.sqrt(np.mean(np.square(err))))
        assert metrics["max_abs_error"] == float(np.abs(err).max())
        assert metrics["tv_gradient"] == total_variation(field)

    def test_tv_gradient_on_wide_grid(self, corner_samples, tmp_path):
        out = tmp_path / "out"
        assert main(grid_args(corner_samples, out)) == 0
        grid = GridSpec(4, 4)
        field = ScalarField(domain=build_grid(grid),
                            values=read_field_csv(out / "field.csv").values)
        metrics = strict_json((out / "metrics.json").read_text())
        assert metrics["tv_gradient"] == \
            total_variation(discrete_gradient(field, grid))

    @pytest.mark.parametrize("weight,message", [
        ("invpow", "invpow weight needs a power, e.g. invpow:2"),
        ("cubic:2", "unknown weight 'cubic:2'; use gaussian[:scale] or "
                    "invpow:power[,epsilon]"),
        ("invpow:2,0.5,7", "--weight invpow takes at most 2 number(s), "
                           "got 'invpow:2,0.5,7'"),
        ("gaussian:1,2", "--weight gaussian takes at most 1 number(s), "
                         "got 'gaussian:1,2'"),
        ("gaussian:abc", "--weight wants numbers after 'gaussian:', "
                         "got 'gaussian:abc'"),
        ("invpow:x", "--weight wants numbers after 'invpow:', got 'invpow:x'"),
        ("gaussian:", "--weight wants numbers after 'gaussian:', got 'gaussian:'"),
        ("invpow:inf", "power must be positive and finite"),
        ("invpow:2,inf", "epsilon must be nonnegative and finite"),
    ])
    def test_bad_weight_exit_one(self, corner_samples, tmp_path, capsys,
                                 weight, message):
        rc = main(grid_args(corner_samples, tmp_path / "out", "--method", "mls",
                            "--weight", weight))
        assert rc == 1
        assert message in capsys.readouterr().err

    def test_invpow_weight_with_epsilon(self, corner_samples, tmp_path):
        out = tmp_path / "out"
        rc = main(grid_args(corner_samples, out, "--method", "mls",
                            "--weight", "invpow:2,0.5"))
        assert rc == 0
        values = read_field_csv(out / "field.csv").values
        assert values[0] == pytest.approx(0.0) and values[15] == pytest.approx(3.0)

    @pytest.mark.parametrize("method", ["smooth", "harmonic", "mls", "shepard"])
    def test_other_methods_run(self, method, corner_samples, tmp_path):
        out = tmp_path / method
        rc = main(grid_args(corner_samples, out, "--method", method))
        assert rc == 0
        csv = read_field_csv(out / "field.csv")
        assert csv.indices is None and len(csv.values) == 16

    def test_mls_default_weight_far_from_samples(self, tmp_path, capsys):
        # Gaussian weights of scale 1 underflow to 0 more than about 27
        # units from every sample, as they do across the empty upper left of
        # this grid; the fit uses weights relative to the nearest sample,
        # so every vertex still gets a value.
        rng = np.random.default_rng(3)
        cells = rng.choice(64 * 64, size=50, replace=False)
        verts = np.sort((64 + cells // 64) * 128 + 64 + cells % 64)
        samples = tmp_path / "s.csv"
        samples.write_text("vertex,value\n" + "".join(
            f"{v},{float(np.sin(v / 300.0))!r}\n" for v in verts))
        out = tmp_path / "out"
        rc = main(["fit", "--grid", "128x128", "--samples", str(samples),
                   "--method", "mls", "--out", str(out)])
        assert rc == 0, capsys.readouterr().err
        values = read_field_csv(out / "field.csv").values
        assert len(values) == 128 * 128 and np.isfinite(values).all()

    def test_smooth_builds_the_grid_once(self, corner_samples, tmp_path,
                                         monkeypatch):
        import gradvar.cli
        import gradvar.smoothing
        calls = []

        def counting(spec, build=gradvar.cli.build_grid):
            calls.append(spec)
            return build(spec)

        monkeypatch.setattr(gradvar.cli, "build_grid", counting)
        monkeypatch.setattr(gradvar.smoothing, "build_grid", counting)
        rc = main(grid_args(corner_samples, tmp_path / "out", "--method",
                            "smooth", "--order", "2"))
        assert rc == 0
        assert len(calls) == 1

    def test_infeasible_delta_exit_two(self, corner_samples, tmp_path,
                                       capsys):
        rc = main(grid_args(corner_samples, tmp_path / "out",
                            "--delta", "0.4"))
        assert rc == 2
        assert capsys.readouterr().err.startswith("infeasible:")

    def test_disconnected_samples_exit_two(self, tmp_path, capsys):
        edges = tmp_path / "g.txt"
        edges.write_text("vertices 4\n0 1\n2 3\n")
        samples = tmp_path / "s.csv"
        samples.write_text("vertex,value\n0,0.0\n3,1.0\n")
        base = ["--edges", str(edges), "--samples", str(samples)]
        assert main(["check", *base, "--delta", "1"]) == 2
        assert capsys.readouterr().out == \
            "infeasible: vertices 0 and 3: distance unreachable, index gap 1\n"
        out = str(tmp_path / "out")
        assert main(["fit", *base, "--delta", "1", "--out", out]) == 2
        assert capsys.readouterr().err == \
            "infeasible: vertices 0 and 3: distance unreachable, index gap 1\n"
        assert main(["fit", *base, "--out", out]) == 2
        assert capsys.readouterr().err == \
            "infeasible: vertices 0 and 3: distance unreachable, index gap ?\n"

    @pytest.mark.parametrize("extra,message", [
        (["--weight", "cubic:2"], "unknown weight 'cubic:2'"),
        (["--method", "shepard", "--power", "0"], "power must be positive"),
        (["--method", "mls", "--weight", "invpow:2200"],
         "MLS failed at vertex 2: zero total weight"),
        (["--delta", "0.4"], "infeasible: vertices 0 and 15"),
        (["--delta", "1e-300"], "delta 1e-300 is too small for the sample range"),
        (["--method", "shepard", "--power", "inf"],
         "power must be positive and finite"),
        (["--method", "harmonic", "--tol", "inf"], "tol must be nonnegative and finite"),
        # run.json records these four for every method, so gvf checks them too.
        (["--power", "inf"], "power must be positive and finite"),
        (["--tol", "nan"], "tol must be nonnegative and finite"),
        (["--iters", "-1"], "iters must be an integer >= 0"),
        (["--sweeps", "-1"], "sweeps must be an integer >= 0"),
        (["--method", "mls", "--weight", "gaussian:"],
         "--weight wants numbers after 'gaussian:'"),
        # Grid coordinates up to 3e308 overflow to inf.
        (["--spacing", "1e308"], "vertex coordinates must be finite"),
        (["--method", "mls", "--spacing", "1e308"], "vertex coordinates must be finite"),
    ], ids=["weight-on-gvf", "shepard-power", "mls-zero-weight",
            "infeasible-delta", "delta-too-small", "shepard-power-inf",
            "harmonic-tol-inf", "gvf-power-inf", "gvf-tol-nan", "gvf-iters",
            "gvf-sweeps", "gaussian-no-scale", "coords-overflow-gvf",
            "coords-overflow-mls"])
    def test_failed_fit_writes_nothing(self, corner_samples, tmp_path, capsys,
                                       extra, message):
        out = tmp_path / "out"
        rc = main(grid_args(corner_samples, out, *extra))
        assert rc == (2 if message.startswith("infeasible") else 1)
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("method", ["mls", "shepard"])
    def test_pointwise_methods_fit_rows_unmerged(self, tmp_path, method):
        # Both rows snap to vertex 4, where gvf would merge them with a
        # warning; the pointwise methods fit each row where it lies.
        samples = tmp_path / "s.csv"
        samples.write_text("x,y,value\n0.9,0.9,1.0\n1.1,1.1,3.0\n")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["fit", "--grid", "3x3", "--samples", str(samples),
                       "--method", method, "--order", "0", "--out", str(out)])
        assert rc == 0
        values = read_field_csv(out / "field.csv").values
        assert values[0] < 2.0 < values[8]

    def test_merge_warning_is_one_line(self, tmp_path, capsys):
        # The first two rows snap to vertex 4; the warning names no source line.
        samples = tmp_path / "s.csv"
        samples.write_text("x,y,value\n0.9,0.9,1.0\n1.1,1.1,3.0\n0,0,0\n")
        for command in ("check", "fit"):
            out = ["--out", str(tmp_path / "out")] if command == "fit" else []
            assert main([command, "--grid", "3x3", "--samples", str(samples),
                         *out]) == 0
            assert capsys.readouterr().err == (
                "warning: 1 sample row(s) landed on already-occupied vertices; "
                "merged by mean\n")

    def test_edge_list_domain_skips_renders(self, tmp_path):
        edges = tmp_path / "g.txt"
        edges.write_text("vertices 4\n0 1\n1 2\n2 3\n")
        samples = tmp_path / "s.csv"
        samples.write_text("vertex,value\n0,0.0\n3,1.5\n")
        out = tmp_path / "out"
        rc = main(["fit", "--edges", str(edges), "--samples", str(samples),
                   "--out", str(out)])
        assert rc == 0
        names = {p.name for p in out.iterdir()}
        assert names == {"field.csv", "metrics.json", "run.json"}

    def test_harmonic_keeps_sample_free_component(self, tmp_path):
        # 5-6-7-8 holds no sample: its rows stay the gvf start's, byte for byte.
        edges = tmp_path / "g.txt"
        edges.write_text("vertices 9\n0 1\n1 2\n2 3\n0 4\n4 3\n5 6\n6 7\n7 8\n")
        samples = tmp_path / "s.csv"
        samples.write_text("vertex,value\n0,0.0\n3,3.0\n")
        rows = {}
        for iters in ("100", "0"):
            out = tmp_path / iters
            assert main(["fit", "--edges", str(edges), "--samples", str(samples),
                         "--method", "harmonic", "--iters", iters,
                         "--out", str(out)]) == 0
            rows[iters] = (out / "field.csv").read_text().splitlines()
        assert rows["100"][6:] == rows["0"][6:] == \
            ["5,1.5", "6,1.5", "7,1.5", "8,1.5"]
        solved = read_field_csv(tmp_path / "100" / "field.csv").values[:5]
        assert np.allclose(solved, [0.0, 1.0, 2.0, 3.0, 1.5], atol=1e-9)

    @pytest.mark.parametrize("iters,converged", [(None, False), ("3000", True)])
    def test_harmonic_reports_convergence(self, tmp_path, iters, converged):
        samples = tmp_path / "s.csv"
        samples.write_text("vertex,value\n0,0.0\n31,3.0\n992,-2.0\n1023,5.0\n")
        extra = [] if iters is None else ["--iters", iters]
        assert main(["fit", "--grid", "32x32", "--samples", str(samples),
                     "--method", "harmonic", "--out", str(tmp_path / "o"),
                     *extra]) == 0
        m = strict_json((tmp_path / "o" / "metrics.json").read_text())
        assert m["converged"] is converged
        assert (m["final_residual"] < 1e-9) is converged

    def test_mesh_domain(self, tmp_path):
        mesh = tmp_path / "m.obj"
        mesh.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
        samples = tmp_path / "s.csv"
        samples.write_text("vertex,value\n0,0.0\n2,1.0\n")
        out = tmp_path / "out"
        rc = main(["fit", "--mesh", str(mesh), "--samples", str(samples),
                   "--out", str(out)])
        assert rc == 0
        assert len(read_field_csv(out / "field.csv").values) == 3

    @pytest.mark.parametrize("coord", ["nan", "1e400"])
    @pytest.mark.parametrize("method", ["gvf", "shepard", "mls"])
    def test_non_finite_mesh_coordinate_exit_one(self, tmp_path, capsys, coord,
                                                 method):
        mesh = tmp_path / "m.obj"
        mesh.write_text(f"v 0 0 0\nv {coord} 0 0\nv 0 1 0\nf 1 2 3\n")
        samples = tmp_path / "s.csv"
        samples.write_text("vertex,value\n0,0.0\n2,1.0\n")
        rc = main(["fit", "--mesh", str(mesh), "--samples", str(samples),
                   "--method", method, "--out", str(tmp_path / "out")])
        assert rc == 1
        assert f"{mesh}: line 2: non-finite vertex coordinate" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_mls_needs_coordinates_exit_one(self, tmp_path, capsys):
        edges = tmp_path / "g.txt"
        edges.write_text("vertices 2\n0 1\n")
        samples = tmp_path / "s.csv"
        samples.write_text("vertex,value\n0,0.0\n1,1.0\n")
        rc = main(["fit", "--edges", str(edges), "--samples", str(samples),
                   "--method", "mls", "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "coordinates" in capsys.readouterr().err

    def test_smooth_order_one_needs_grid_exit_one(self, tmp_path, capsys):
        edges = tmp_path / "g.txt"
        edges.write_text("vertices 3\n0 1\n1 2\n")
        samples = tmp_path / "s.csv"
        samples.write_text("vertex,value\n0,0.0\n2,1.0\n")
        rc = main(["fit", "--edges", str(edges), "--samples", str(samples),
                   "--method", "smooth", "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "grid" in capsys.readouterr().err
        rc = main(["fit", "--edges", str(edges), "--samples", str(samples),
                   "--method", "smooth", "--order", "0",
                   "--out", str(tmp_path / "out")])
        assert rc == 0

    def test_repeat_runs_bit_identical(self, corner_samples, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(grid_args(corner_samples, a, "--method", "smooth")) == 0
        assert main(grid_args(corner_samples, b, "--method", "smooth")) == 0
        for name in ("field.csv", "heatmap.ppm", "height.pgm", "height.obj",
                     "metrics.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name


class TestBench:
    def test_small_run_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["bench", "--grid", "8x8", "--generator", "affine",
                   "--method", "gvf,shepard", "--trials", "2",
                   "--points", "6", "--out", str(out)])
        assert rc == 0
        lines = (out / "bench.csv").read_text().splitlines()
        assert lines[0].startswith("trial,generator,method,rmse")
        assert len(lines) == 1 + 2 * 2
        assert "wrote" in capsys.readouterr().out

    def test_unknown_generator_exit_one(self, tmp_path, capsys):
        rc = main(["bench", "--grid", "8x8", "--generator", "wavelets",
                   "--out", str(tmp_path)])
        assert rc == 1
        assert "wavelets" in capsys.readouterr().err

    def test_needs_grid(self, tmp_path, capsys):
        edges = tmp_path / "g.txt"
        edges.write_text("vertices 2\n0 1\n")
        rc = main(["bench", "--edges", str(edges), "--out", str(tmp_path)])
        assert rc == 1
        assert "grid" in capsys.readouterr().err

    @pytest.mark.parametrize("method,flags", [
        ("harmonic", ["--iters", "-1"]),
        ("harmonic", ["--tol", "nan"]),
        ("shepard", ["--power", "0"]),
        ("harmonic", ["--tol", "inf"]),
        ("shepard", ["--power", "inf"]),
    ], ids=["iters", "tol", "power", "tol-inf", "power-inf"])
    def test_checks_method_options_as_fit_does(self, tmp_path, capsys,
                                               corner_samples, method, flags):
        assert main(grid_args(corner_samples, tmp_path / "fit", "--method",
                              method, *flags)) == 1
        fit_error = capsys.readouterr().err
        out = tmp_path / "bench"
        rc = main(["bench", "--grid", "8x8", "--method", method, *flags,
                   "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == fit_error
        assert not out.exists()

    @pytest.mark.parametrize("flags,message", [
        (["--points", "0"], "points must be a positive integer"),
        (["--seed", "-1"], "seed must be an integer >= 0"),
    ], ids=["points", "seed"])
    def test_counts_name_their_flags(self, tmp_path, capsys, flags, message):
        out = tmp_path / "out"
        rc = main(["bench", "--grid", "8x8", *flags, "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_leaves_options_of_other_methods_unchecked(self, tmp_path):
        rc = main(["bench", "--grid", "8x8", "--method", "gvf,mls", "--trials", "1",
                   "--iters", "-1", "--tol", "nan", "--power", "0",
                   "--out", str(tmp_path)])
        assert rc == 0
        rows = (tmp_path / "bench.csv").read_text().splitlines()[1:]
        assert rows and all(row.endswith(",") for row in rows)

    def test_builds_the_grid_once(self, tmp_path, monkeypatch):
        import sys
        import gradvar.domain
        calls = []

        def counting(spec, build=gradvar.domain.build_grid):
            calls.append(spec)
            return build(spec)

        for name, module in list(sys.modules.items()):
            if name.startswith("gradvar.") and hasattr(module, "build_grid"):
                monkeypatch.setattr(module, "build_grid", counting)
        rc = main(["bench", "--grid", "8x8", "--trials", "2", "--points", "6",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert len(calls) == 1

    def test_one_row_grid_records_smooth_failures(self, tmp_path, capsys):
        # two-line-samples takes one line on a grid one row high, and smooth
        # fails there (no y-derivative) as rows, not as the run.
        rc = main(["bench", "--grid", "4x1", "--method", "gvf,smooth",
                   "--out", str(tmp_path)])
        assert rc == 0
        rows = (tmp_path / "bench.csv").read_text().splitlines()[1:]
        assert len(rows) == 3 * 5 * 2
        for row in rows:
            error = row.split(",")[-1]
            if ",smooth," in row:
                assert error == "ValueError: y-derivative undefined: grid height < 2"
            else:
                assert error == ""
        assert "(30 rows, 15 failed)" in capsys.readouterr().out


class TestRender:
    def test_round_trip_from_field_csv(self, tmp_path):
        field = tmp_path / "f.csv"
        write_scalar_csv(field, np.arange(12.0))
        out = tmp_path / "out"
        rc = main(["render", "--grid", "4x3", "--field", str(field),
                   "--out", str(out)])
        assert rc == 0
        assert {p.name for p in out.iterdir()} == \
            {"heatmap.ppm", "height.pgm", "height.obj"}

    @pytest.mark.parametrize("method", ["gvf", "mls"])
    @pytest.mark.parametrize("grid", ["24x17", "1x60", "60x1"])
    def test_same_mesh_as_the_fit(self, tmp_path, method, grid):
        samples = tmp_path / "s.csv"
        samples.write_text("vertex,value\n0,0.0\n7,2.5\n16,-1.25\n")
        fit, out = tmp_path / "fit", tmp_path / "render"
        flags = ["--grid", grid, "--connectivity", "8", "--spacing", "0.5"]
        assert main(["fit", *flags, "--samples", str(samples), "--method",
                     method, "--order", "1", "--out", str(fit)]) == 0
        assert main(["render", *flags, "--field", str(fit / "field.csv"),
                     "--out", str(out)]) == 0
        for name in ("height.obj", "height.pgm", "heatmap.ppm"):
            assert (out / name).read_bytes() == (fit / name).read_bytes()

    def test_length_mismatch_exit_one(self, tmp_path, capsys):
        field = tmp_path / "f.csv"
        write_scalar_csv(field, np.arange(5.0))
        rc = main(["render", "--grid", "4x3", "--field", str(field),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "match" in capsys.readouterr().err

    def test_rows_out_of_order_exit_one(self, tmp_path, capsys):
        field = tmp_path / "f.csv"
        field.write_text("vertex,value\n" + "".join(
            f"{v},{float(v)!r}\n" for v in range(11, -1, -1)))
        rc = main(["render", "--grid", "4x3", "--field", str(field),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert f"{field}: line 2: expected vertex 0, got 11" in \
            capsys.readouterr().err

    def test_needs_grid(self, tmp_path, capsys):
        field = tmp_path / "f.csv"
        write_scalar_csv(field, np.arange(5.0))
        rc = main(["render", "--field", str(field),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "grid" in capsys.readouterr().err

    def test_mesh_domain_rejected(self, tmp_path, capsys):
        mesh = tmp_path / "m.obj"
        mesh.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
        field = tmp_path / "f.csv"
        write_scalar_csv(field, np.arange(3.0))
        rc = main(["render", "--mesh", str(mesh), "--field", str(field),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == \
            "gradvar render: error: the following arguments are required: --grid\n"
        assert not (tmp_path / "out").exists()


def test_each_subcommand_takes_its_pinned_flags():
    """A new flag is a new setting to document and check: adding one means
    editing this list.  The CLI takes 42 in all."""
    sub = next(action for action in _build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    flags = {name: {flag for action in parser._actions
                    for flag in action.option_strings if flag not in ("-h", "--help")}
             for name, parser in sub.choices.items()}
    grid = {"--grid", "--connectivity", "--spacing"}
    domain = grid | {"--mesh", "--edges"}
    method = {"--order", "--iters", "--tol", "--power"}
    assert flags == {
        "check": domain | {"--samples", "--delta"},
        "fit": domain | method | {"--samples", "--method", "--delta", "--policy",
                                  "--sweeps", "--weight", "--out", "--truth"},
        "bench": grid | method | {"--generator", "--method", "--trials",
                                  "--points", "--seed", "--out"},
        "render": grid | {"--field", "--out"},
    }
    assert [len(flags[name]) for name in ("check", "fit", "bench", "render")] == \
        [7, 17, 13, 5]
