"""The benchmark's per-layer tracer names functions of gradvar by string;
these tests load it by path, unchanged, and check that every name still
resolves and every argument its hooks read still exists."""

import importlib
import inspect
import json

import pytest

import gradvar.cli

from checks import load_perfbench


@pytest.fixture(scope="module")
def tracing():
    return load_perfbench("tracing")


def resolve(layer, name):
    obj = importlib.import_module(f"gradvar.{layer}")
    for part in name.split("."):
        obj = getattr(obj, part)
    return obj


def layer_names(tracing):
    return [(layer, name) for layer, names in tracing.LAYERS.items()
            for name in names]


def test_every_layer_resolves(tracing):
    for layer, name in layer_names(tracing):
        assert callable(resolve(layer, name)), f"{layer}.{name}"


def test_hooked_parameters_exist(tracing):
    hooked = [("domain", "bfs_distances", "sources")]
    hooked += [(layer, name, "path") for layer, name in layer_names(tracing)
               if name.startswith(("write_", "render_"))]
    assert len(hooked) > 6
    for layer, name, param in hooked:
        params = inspect.signature(resolve(layer, name)).parameters
        assert param in params, f"{layer}.{name} has no {param!r}"


def test_install_traces_a_fit_and_uninstall_restores(tracing, tmp_path):
    samples = tmp_path / "s.csv"
    samples.write_text("vertex,value\n0,0.0\n15,3.0\n")
    before = {key: resolve(*key) for key in layer_names(tracing)}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        rc = gradvar.cli.main(["fit", "--grid", "4x4", "--samples", str(samples),
                               "--out", str(tmp_path / "out")])
    finally:
        tracer.uninstall()
    assert rc == 0
    assert {key: resolve(*key) for key in layer_names(tracing)} == before
    counts = tracer.per_pass()[0]
    assert counts["cli.main.calls"] == 1
    assert counts["gvf.fit_gvf.calls"] == 1
    assert counts["fileio.write_level_csv.calls"] == 1
    assert counts["fileio.bytes_written"] > 0
    assert counts["render.bytes_written"] > 0


@pytest.mark.parametrize("method, counter, report", [
    ("harmonic", "smoothing.harmonic_relax.iterations", "iterations_run"),
    ("mls", "baselines.fallback_vertices", "fallback_vertices"),
])
def test_install_records_the_report_counters(tracing, tmp_path, method,
                                             counter, report):
    # The harmonic and MLS hooks read the returned RelaxReport and DomainFit;
    # their counts must equal the ones the fit writes to metrics.json.  Two
    # samples on a line cannot fix a degree-1 fit, so every MLS vertex falls back.
    samples = tmp_path / "s.csv"
    samples.write_text("vertex,value\n0,0.0\n15,3.0\n")
    out = tmp_path / "out"
    tracer = tracing.Tracer()
    tracer.install()
    try:
        rc = gradvar.cli.main(["fit", "--grid", "4x4", "--samples", str(samples),
                               "--method", method, "--out", str(out)])
    finally:
        tracer.uninstall()
    assert rc == 0
    want = json.loads((out / "metrics.json").read_text())[report]
    assert want > 0
    assert tracer.per_pass()[0][counter] == want
