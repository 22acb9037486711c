import json

import numpy as np
import pytest

from gradvar import read_field_csv, write_scalar_csv
from gradvar.cli import main


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
        rc = main(["check", "--samples", corner_samples])
        assert rc == 1
        edges = tmp_path / "g.txt"
        edges.write_text("vertices 2\n0 1\n")
        rc = main(["check", "--grid", "2x2", "--edges", str(edges),
                   "--samples", corner_samples])
        assert rc == 1
        assert "exactly one" in capsys.readouterr().err

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
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["schema"] == 1 and "tv_gradient" in metrics
        assert "rmse" not in metrics
        run = json.loads((out / "run.json").read_text())
        assert run["command"] == "fit" and run["domain"]["grid"] == "4x4"
        assert capsys.readouterr().out.count("wrote ") == 6

    def test_seed_flag_is_gone(self, corner_samples, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(grid_args(corner_samples, out, "--seed", "1")) == 1
        assert "--seed" in capsys.readouterr().err
        assert main(grid_args(corner_samples, out)) == 0
        assert "seed" not in json.loads((out / "run.json").read_text())

    def test_truth_adds_error_metrics(self, corner_samples, tmp_path):
        truth = tmp_path / "truth.csv"
        write_scalar_csv(truth, np.linspace(0.0, 3.0, 16))
        out = tmp_path / "out"
        rc = main(grid_args(corner_samples, out, "--truth", str(truth)))
        assert rc == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert {"rmse", "max_abs_error", "tv_gradient"} <= set(metrics)

    def test_truth_length_mismatch_exit_one(self, corner_samples, tmp_path,
                                            capsys):
        truth = tmp_path / "truth.csv"
        write_scalar_csv(truth, np.zeros(5))
        rc = main(grid_args(corner_samples, tmp_path / "out",
                            "--truth", str(truth)))
        assert rc == 1
        assert "truth" in capsys.readouterr().err

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

    def test_length_mismatch_exit_one(self, tmp_path, capsys):
        field = tmp_path / "f.csv"
        write_scalar_csv(field, np.arange(5.0))
        rc = main(["render", "--grid", "4x3", "--field", str(field),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "match" in capsys.readouterr().err

    def test_needs_grid(self, tmp_path, capsys):
        field = tmp_path / "f.csv"
        write_scalar_csv(field, np.arange(5.0))
        rc = main(["render", "--field", str(field),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "grid" in capsys.readouterr().err
