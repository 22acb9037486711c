"""The one method runner that `fit` and `bench` share, and the bench rows it
feeds, against direct calls of the library functions it dispatches to."""

import csv

import numpy as np
import pytest

from gradvar import (GaussianWeight, GridSpec, MlsConfig, SamplePoints,
                     ScalarField, ShepardConfig, build_graph, build_grid, compute_metrics,
                     evaluate_on_domain, fit_gvf, harmonic_relax,
                     smooth_reconstruct, to_scalar)
from gradvar.bench import (GENERATORS, METHODS, POINTWISE, fit_method,
                           gvf_error_bound, make_case, run_bench)
from gradvar.cli import main


def _direct(method, domain, case, weight):
    """(field, fallback count, bound) from the library calls themselves."""
    if method == "gvf":
        fit = fit_gvf(domain, case.sample_map)
        field = to_scalar(fit.field)
        return field, 0, gvf_error_bound(case.truth, field, case.sample_verts,
                                         fit.delta)
    if method == "harmonic":
        start = to_scalar(fit_gvf(domain, case.sample_map).field)
        return harmonic_relax(start, case.sample_map, max_iter=100,
                              tol=1e-9)[0], 0, None
    if method == "mls":
        fit = evaluate_on_domain(MlsConfig(degree=1, weight=weight),
                                 case.points, domain)
        return fit.field, len(fit.fallback_vertices), None
    fit = evaluate_on_domain(ShepardConfig(power=2.0), case.points, domain)
    return fit.field, 0, None


def test_rows_equal_direct_library_calls():
    grid = GridSpec(12, 10)
    domain = build_grid(grid)
    weight = GaussianWeight(scale=12 / 4)
    methods = ("gvf", "harmonic", "mls", "shepard")
    rows = run_bench(grid, GENERATORS, methods, trials=2, count=9, seed=5,
                     verbose=False)
    assert len(rows) == 2 * len(GENERATORS) * len(methods)
    for row in rows:
        assert row.error == "", (row.generator, row.method, row.error)
        case = make_case(row.generator, domain, 5, row.trial, 9)
        field, fallbacks, bound = _direct(row.method, domain, case, weight)
        m = compute_metrics(field, case.truth)
        assert (row.rmse, row.max_abs_error, row.tv_gradient) == \
            (m.rmse, m.max_abs_error, m.tv_gradient), (row.generator, row.method)
        assert row.fallback_count == fallbacks
        assert row.gvf_error_bound == bound


@pytest.mark.parametrize("connectivity", ["four", "eight"])
def test_error_bound_on_grid_equals_edge_list(connectivity):
    # On a grid the largest truth jump comes from shifted slices, and the
    # covering radius from a distance transform.
    domain = build_grid(GridSpec(11, 8, connectivity))
    graph = build_graph(list(domain.edges()), domain.vertex_count)
    case = make_case("sinusoid", domain, 3, 0, 7)
    fit = fit_gvf(domain, case.sample_map)
    bounds = [gvf_error_bound(ScalarField(domain=d, values=case.truth.values),
                              ScalarField(domain=d, values=to_scalar(fit.field).values),
                              case.sample_verts, fit.delta) for d in (domain, graph)]
    assert bounds[0] == bounds[1] > 0


@pytest.mark.parametrize("width,height", [(1, 1), (1, 5), (5, 1), (2, 2), (7, 3)])
def test_boundary_ring_is_the_raster_border(width, height):
    domain = build_grid(GridSpec(width, height))
    ring = [r * width + c for r in range(height) for c in range(width)
            if r in (0, height - 1) or c in (0, width - 1)]
    case = make_case("boundary-ring", domain, 2, 0, len(ring) + 3)
    assert case.sample_verts.tolist() == ring
    for count in range(1, len(ring)):
        picks = make_case("boundary-ring", domain, 2, 0, count).sample_verts
        spread = np.linspace(0, len(ring) - 1, num=count).astype(np.int64)
        assert picks.tolist() == [ring[i] for i in sorted(set(spread.tolist()))]


def test_grid_domain_gives_the_grid_spec_rows():
    grid = GridSpec(9, 7, "eight", 0.5)
    args = (("affine", "boundary-ring"), METHODS)
    kwargs = dict(trials=2, count=8, seed=4, order=2)
    assert run_bench(build_grid(grid), *args, **kwargs) == \
        run_bench(grid, *args, **kwargs)


def test_bench_all_gives_every_generator_a_smooth_row(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["bench", "--grid", "14x12", "--method", "all", "--trials", "1",
               "--points", "10", "--order", "2", "--seed", "3",
               "--out", str(out)])
    assert rc == 0
    with open(out / "bench.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(GENERATORS) * len(METHODS)
    smooth = {r["generator"]: r for r in rows if r["method"] == "smooth"}
    assert set(smooth) == set(GENERATORS)
    domain = build_grid(GridSpec(14, 12))
    for gen, row in smooth.items():
        assert row["error"] == "", (gen, row["error"])
        # --order is the smoothing order, as it is for `fit`.
        case = make_case(gen, domain, 3, 0, 10)
        want = compute_metrics(smooth_reconstruct(domain, case.sample_map, order=2),
                               case.truth)
        assert float(row["rmse"]) == want.rmse
    assert "(25 rows, 0 failed)" in capsys.readouterr().out


def test_bench_and_fit_read_one_method_list(tmp_path, capsys):
    rc = main(["bench", "--grid", "6x6", "--method", "gvf,splines",
               "--out", str(tmp_path)])
    assert rc == 1
    assert f"unknown method 'splines'; choose from {METHODS}" in \
        capsys.readouterr().err
    samples = tmp_path / "s.csv"
    samples.write_text("vertex,value\n0,0.0\n35,1.0\n")
    rc = main(["fit", "--grid", "6x6", "--samples", str(samples),
               "--method", "splines", "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "choose from " + ", ".join(repr(m) for m in METHODS) in \
        capsys.readouterr().err


class TestFitMethod:
    @pytest.mark.parametrize("method", ["gvf", "smooth", "harmonic"])
    def test_vertex_methods_never_read_points(self, method):
        domain = build_grid(GridSpec(5, 5))
        fit = fit_method(method, domain, {0: 0.0, 24: 2.0})
        assert fit.field.values[0] == 0.0 and fit.field.values[24] == 2.0
        assert (fit.levels is not None) == (method == "gvf")

    @pytest.mark.parametrize("method", POINTWISE)
    def test_pointwise_methods_fit_sample_points(self, method):
        domain = build_grid(GridSpec(5, 5))
        points = SamplePoints.from_points([(0.5, 0.0, 1.0), (3.0, 2.5, -1.0),
                                           (1.0, 4.0, 0.5)])
        config = MlsConfig() if method == "mls" else ShepardConfig()
        want = evaluate_on_domain(config, points, domain)
        fit = fit_method(method, domain, points)
        np.testing.assert_array_equal(fit.field.values, want.field.values)
        assert fit.levels is None
        assert fit.report == ({"fallback_vertices": len(want.fallback_vertices)}
                              if method == "mls" else {})

    def test_reports(self):
        domain = build_grid(GridSpec(5, 5))
        samples = {0: 0.0, 12: 1.5, 24: 2.0}
        gvf = fit_method("gvf", domain, samples, delta=0.5)
        assert gvf.report == {"delta": 0.5}
        harmonic = fit_method("harmonic", domain, samples, iters=7, tol=0.0)
        assert harmonic.report["iterations_run"] == 7
        assert harmonic.report["final_residual"] > 0
        assert fit_method("smooth", domain, samples).report == {}

    def test_harmonic_start_follows_policy(self):
        domain = build_grid(GridSpec(6, 1))
        samples = {0: 0.0, 5: 1.0}
        for policy in ("midpoint", "lower", "upper"):
            gvf = fit_method("gvf", domain, samples, delta=0.25, policy=policy)
            start = fit_method("harmonic", domain, samples, delta=0.25,
                               policy=policy, iters=0)
            assert start.field.values.tolist() == gvf.field.values.tolist()
        lower = fit_method("gvf", domain, samples, delta=0.25, policy="lower")
        upper = fit_method("gvf", domain, samples, delta=0.25, policy="upper")
        assert not np.array_equal(lower.field.values, upper.field.values)

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method 'rbf'"):
            fit_method("rbf", build_grid(GridSpec(2, 2)), {0: 0.0})


@pytest.mark.parametrize("call", [
    lambda d: run_bench(d, ("affine",), ("gvf",), 1, 2, 0),
    lambda d: make_case("affine", d, 0, 0, 2),
], ids=["run_bench", "make_case"])
def test_non_grid_domain_raises_value_error(call):
    with pytest.raises(ValueError, match="bench runs on grid domains only"):
        call(build_graph([(0, 1), (1, 2)], 3))


def test_unknown_generator_named():
    with pytest.raises(ValueError) as exc:
        run_bench(GridSpec(4, 4), ("splines",), ("gvf",), 1, 3, 0)
    assert str(exc.value) == f"unknown generator 'splines'; choose from {GENERATORS}"
