"""One intake rule for arrays: every value type, and Domain's coordinates,
keeps a read-only copy of what it is given and leaves the caller's arrays
as they were; every integer input must hold whole numbers, every vertex id
must be on its domain, and every count is a whole number at or above its
floor."""

import numpy as np
import pytest

from gradvar import (Domain, EnvelopePair, GradientField, GridSpec, GuidingSet,
                     InversePowerWeight, LevelField, LevelTable, Metrics,
                     RelaxReport, SamplePoints, ScalarField, bfs_distances,
                     build_graph, build_grid, check_feasibility, compute_metrics,
                     envelopes, fit_gvf, harmonic_relax, lipschitz_delta,
                     quantize, smooth_reconstruct)
from gradvar.bench import run_bench

PATH = build_graph([(0, 1), (1, 2)], 3)


def _arrays(**arrays):
    return {name: np.array(a) for name, a in arrays.items()}


# Each row: the caller's arrays, keyed by the field that stores them, and
# the constructor that takes them.
VALUE_TYPES = {
    "ScalarField": (_arrays(values=[0.0, 1.0, 2.0]),
                    lambda a: ScalarField(PATH, a["values"])),
    "GradientField": (_arrays(gx=[0.0, 1.0, 2.0], gy=[1.0, 1.0, 1.0]),
                      lambda a: GradientField(PATH, a["gx"], a["gy"])),
    "GuidingSet": (_arrays(vertices=[0, 2], indices=[1, 2], raw_values=[0.0, 1.0]),
                   lambda a: GuidingSet(**a)),
    "LevelField": (_arrays(idx=[1, 2, 3]),
                   lambda a: LevelField(PATH, a["idx"], LevelTable(0.0, 1.0, 3))),
    "EnvelopePair": (_arrays(lower=[1, 2, 3], upper=[2, 2, 3]),
                     lambda a: EnvelopePair(a["lower"], a["upper"])),
    "SamplePoints": (_arrays(xy=[[0.0, 0.0], [1.0, 0.0]], values=[3.0, 4.0]),
                     lambda a: SamplePoints(**a)),
    "Domain.coords": (_arrays(coords=[[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]),
                      lambda a: Domain(3, [(0, 1)], coords=a["coords"])),
}


@pytest.mark.parametrize("name", VALUE_TYPES)
def test_value_types_keep_read_only_copies(name):
    arrays, make = VALUE_TYPES[name]
    before = {field: a.copy() for field, a in arrays.items()}
    obj = make(arrays)
    for field, given in arrays.items():
        stored = getattr(obj, field)
        assert given.flags.writeable, field
        assert not stored.flags.writeable, field
        assert not np.shares_memory(stored, given), field
        given += 1    # the caller may go on using its arrays
        np.testing.assert_array_equal(stored, before[field], err_msg=field)


# Each row: a call, and the whole message of the ValueError it must raise.
# First the integer inputs not covered by their own class's tests: the
# envelope bounds, and the vertex -> value maps every fitting entry point
# reads.  Then every id checked against a vertex count, every count, and the
# other input checks no class test reaches; each row fails if its check goes.
SAMPLES = {0.5: 1.0, 2: 0.0}
HUGE = 10 ** 400
FIELD = ScalarField(PATH, np.zeros(3))


def _guiding(vertices, indices=None, raw=None):
    n = len(vertices)
    return GuidingSet(vertices=vertices, indices=indices or [1] * n,
                      raw_values=raw or [0.0] * n)


INPUT_CHECKS = {
    "EnvelopePair.lower": (lambda: EnvelopePair([1.5, 2], [2, 3]),
                           "lower must be whole numbers"),
    "EnvelopePair.upper": (lambda: EnvelopePair([1, 2], [2.7, 3]),
                           "upper must be whole numbers"),
    "fit_gvf": (lambda: fit_gvf(PATH, SAMPLES),
                "sample vertex ids must be whole numbers"),
    "fit_gvf-delta": (lambda: fit_gvf(PATH, SAMPLES, delta=0.5),
                      "sample vertex ids must be whole numbers"),
    "lipschitz_delta": (lambda: lipschitz_delta(PATH, SAMPLES),
                        "sample vertex ids must be whole numbers"),
    "quantize": (lambda: quantize(PATH, SAMPLES, 0.5),
                 "sample vertex ids must be whole numbers"),
    "harmonic_relax": (lambda: harmonic_relax(FIELD, SAMPLES),
                       "fixed vertex ids must be whole numbers"),
    # Ids against a vertex count, named as given, past int64 and floats too.
    "bfs_distances-range": (lambda: bfs_distances(PATH, [0, 3]),
                            "source vertex id 3 out of range"),
    "bfs_distances-huge": (lambda: bfs_distances(PATH, [HUGE]),
                           f"source vertex id {HUGE} out of range"),
    "fit_gvf-range": (lambda: fit_gvf(PATH, {0: 1.0, -1: 2.0}),
                      "sample vertex id -1 out of range"),
    "fit_gvf-huge": (lambda: fit_gvf(PATH, {HUGE: 1.0}),
                     f"sample vertex id {HUGE} out of range"),
    "harmonic_relax-range": (lambda: harmonic_relax(FIELD, {3.0: 1.0}),
                             "fixed vertex id 3 out of range"),
    "check_feasibility-range": (lambda: check_feasibility(PATH, _guiding([0, 5])),
                                "guiding vertex id 5 out of range"),
    "check_feasibility-huge": (lambda: check_feasibility(PATH, _guiding([HUGE])),
                               f"guiding vertex id {2 ** 60} out of range"),
    "envelopes-range": (lambda: envelopes(PATH, _guiding([0, 5]), 3),
                        "guiding vertex id 5 out of range"),
    "Domain-huge-count": (lambda: Domain(HUGE),
                          f"vertex_count {HUGE} is too large; at most 3037000499"),
    "Domain-count-past-edge-keys": (
        lambda: Domain(3037000500),
        "vertex_count 3037000500 is too large; at most 3037000499"),
    # Counts: whole numbers at or above their floor.
    "GridSpec.width": (lambda: GridSpec(2.5, 3),
                       "grid width must be a positive integer"),
    "GridSpec.height": (lambda: GridSpec(3, 0),
                        "grid height must be a positive integer"),
    "LevelTable.count": (lambda: LevelTable(0.0, 1.0, 2.5),
                         "count must be a positive integer"),
    "envelopes-n": (lambda: envelopes(PATH, _guiding([0]), 0),
                    "level count must be a positive integer"),
    "envelopes-n-whole": (lambda: envelopes(PATH, _guiding([0]), 1.5),
                          "level count must be a positive integer"),
    "envelopes-index-past-n": (lambda: envelopes(PATH, _guiding([0], [3]), 2),
                               "guiding index exceeds level count 2"),
    "harmonic_relax-max_iter": (lambda: harmonic_relax(FIELD, {0: 1.0}, max_iter=-1),
                                "max_iter must be an integer >= 0"),
    "harmonic_relax-max_iter-whole": (
        lambda: harmonic_relax(FIELD, {0: 1.0}, max_iter=2.5),
        "max_iter must be an integer >= 0"),
    "smooth_reconstruct-sweeps": (
        lambda: smooth_reconstruct(GridSpec(3, 3), {0: 0.0}, sweeps=2.5),
        "sweeps must be an integer >= 0"),
    "smooth_reconstruct-order": (
        lambda: smooth_reconstruct(GridSpec(3, 3), {0: 0.0}, order=0.5),
        "order must be an integer >= 0"),
    "smooth_reconstruct-order-3": (
        lambda: smooth_reconstruct(GridSpec(3, 3), {0: 0.0}, order=3),
        "order must be 0, 1 or 2"),
    "run_bench-trials": (
        lambda: run_bench(GridSpec(3, 3), ["affine"], ["gvf"], 1.5, 3, 0),
        "trials must be a positive integer"),
    "run_bench-count": (
        lambda: run_bench(GridSpec(3, 3), ["affine"], ["gvf"], 1, 2.5, 0),
        "sample count must be a positive integer"),
    "run_bench-seed": (
        lambda: run_bench(GridSpec(3, 3), ["affine"], ["gvf"], 1, 3, -1),
        "seed must be an integer >= 0"),
    "run_bench-seed-whole": (
        lambda: run_bench(GridSpec(3, 3), ["affine"], ["gvf"], 1, 3, 1.5),
        "seed must be an integer >= 0"),
    # The other input checks.
    "GuidingSet-parallel": (
        lambda: _guiding([0, 1], [1, 1], [0.0]),
        "vertices, indices and raw_values must be parallel 1-d arrays"),
    "GuidingSet-sorted": (lambda: _guiding([2, 0]),
                          "guiding vertices must be sorted and unique"),
    "GuidingSet-unique": (lambda: _guiding([1, 1]),
                          "guiding vertices must be sorted and unique"),
    "GuidingSet-nonnegative": (lambda: _guiding([-1, 2]),
                               "guiding vertex ids must be nonnegative"),
    "GuidingSet-finite": (lambda: _guiding([0, 2], raw=[0.0, np.inf]),
                          "guiding raw values must be finite"),
    "LevelField-length": (lambda: LevelField(PATH, [1, 1], LevelTable(0.0, 1.0, 3)),
                          "index array length must equal the domain vertex count"),
    "EnvelopePair-shape": (lambda: EnvelopePair([1, 2], [1, 2, 3]),
                           "lower and upper must be parallel 1-d arrays"),
    "sample-values-finite": (lambda: fit_gvf(PATH, {0: np.nan}),
                             "sample values must be finite"),
    "ScalarField-length": (lambda: ScalarField(PATH, [0.0, 1.0]),
                           "field length must equal the domain vertex count"),
    "ScalarField-finite": (lambda: ScalarField(PATH, [0.0, np.nan, 1.0]),
                           "field values must all be finite"),
    "harmonic_relax-tol": (lambda: harmonic_relax(FIELD, {0: 1.0}, tol=-1.0),
                           "tol must be nonnegative and finite"),
    "harmonic_relax-tol-nan": (lambda: harmonic_relax(FIELD, {0: 1.0}, tol=np.nan),
                               "tol must be nonnegative and finite"),
    "harmonic_relax-tol-inf": (lambda: harmonic_relax(FIELD, {0: 1.0}, tol=np.inf),
                               "tol must be nonnegative and finite"),
    "InversePowerWeight-power-inf": (lambda: InversePowerWeight(np.inf),
                                     "power must be positive and finite"),
    "InversePowerWeight-epsilon-inf": (lambda: InversePowerWeight(2.0, np.inf),
                                       "epsilon must be nonnegative and finite"),
    "compute_metrics": (
        lambda: compute_metrics(FIELD, ScalarField(Domain(2), [0.0, 0.0])),
        "field and truth have different vertex counts"),
    "Metrics-nonnegative": (lambda: Metrics(0.0, 0.0, np.nan),
                            "tv_gradient must be nonnegative"),
    "Metrics-rmse-past-max": (lambda: Metrics(2.0, 1.0, 0.0),
                              "rmse cannot exceed max_abs_error"),
    "RelaxReport": (lambda: RelaxReport(-1, 0.0),
                    "iterations must be >= 0 and residual nonnegative"),
}


@pytest.mark.parametrize("name", INPUT_CHECKS)
def test_integer_inputs_must_be_whole_numbers(name):
    call, message = INPUT_CHECKS[name]
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_domain_repr_names_its_counts():
    assert repr(PATH) == "Domain(vertices=3, edges=2)"


def test_whole_float_counts_name_their_ints():
    counts = [GridSpec(3.0, 2.0).width, GridSpec(3, np.float32(2.0)).height,
              LevelTable(0.0, 1.0, 2.0).count, Domain(3.0).vertex_count]
    assert counts == [3, 2, 2, 3] and {type(c) for c in counts} == {int}
    assert GridSpec(3.0, 2.0) == GridSpec(3, 2)
    assert harmonic_relax(FIELD, {0: 1.0}, max_iter=3.0)[1] == \
        harmonic_relax(FIELD, {0: 1.0}, max_iter=3)[1]
    grid, samples = build_grid(GridSpec(4, 4)), {0: 0.0, 15: 1.0}
    np.testing.assert_array_equal(
        smooth_reconstruct(grid, samples, order=1.0, sweeps=2.0).values,
        smooth_reconstruct(grid, samples, order=1, sweeps=2).values)
    bench = (GridSpec(4, 4), ["affine"], ["gvf"])
    assert run_bench(*bench, 1.0, 3.0, 0) == run_bench(*bench, 1, 3, 0)
    assert envelopes(PATH, _guiding([0]), 3.0).upper.tolist() == [1, 2, 3]
    # A level count past int64 bounds nothing a sweep can reach.
    assert envelopes(PATH, _guiding([0]), HUGE).upper.tolist() == [1, 2, 3]


def test_sample_maps_read_values_by_their_own_keys():
    # Whole float and numpy keys index the map as given, sorted by vertex.
    domain = build_grid(GridSpec(4, 1))
    _, guiding = quantize(domain, {3.0: 3.0, np.int64(0): 0.0, 1: 1.0}, 1.0)
    assert guiding.vertices.tolist() == [0, 1, 3]
    assert guiding.raw_values.tolist() == [0.0, 1.0, 3.0]
    assert fit_gvf(domain, {3.0: 3.0, 0.0: 0.0}).field.idx.tolist() == [1, 2, 3, 4]
