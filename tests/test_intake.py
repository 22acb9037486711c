"""One intake rule for arrays: every value type, and Domain's coordinates,
keeps a read-only copy of what it is given and leaves the caller's arrays
as they were; every integer input must hold whole numbers."""

import numpy as np
import pytest

from gradvar import (Domain, EnvelopePair, GradientField, GridSpec, GuidingSet,
                     LevelField, LevelTable, SamplePoints, ScalarField,
                     build_graph, build_grid, fit_gvf, harmonic_relax,
                     lipschitz_delta, quantize)

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


# Integer inputs not covered by their own class's tests: the envelope bounds,
# and the vertex -> value maps every fitting entry point reads.
SAMPLES = {0.5: 1.0, 2: 0.0}
WHOLE_NUMBER_INPUTS = {
    "EnvelopePair.lower": (lambda: EnvelopePair([1.5, 2], [2, 3]), "lower"),
    "EnvelopePair.upper": (lambda: EnvelopePair([1, 2], [2.7, 3]), "upper"),
    "fit_gvf": (lambda: fit_gvf(PATH, SAMPLES), "sample vertex ids"),
    "fit_gvf-delta": (lambda: fit_gvf(PATH, SAMPLES, delta=0.5),
                      "sample vertex ids"),
    "lipschitz_delta": (lambda: lipschitz_delta(PATH, SAMPLES), "sample vertex ids"),
    "quantize": (lambda: quantize(PATH, SAMPLES, 0.5), "sample vertex ids"),
    "harmonic_relax": (lambda: harmonic_relax(ScalarField(PATH, np.zeros(3)),
                                              SAMPLES), "fixed vertex ids"),
}


@pytest.mark.parametrize("name", WHOLE_NUMBER_INPUTS)
def test_integer_inputs_must_be_whole_numbers(name):
    call, what = WHOLE_NUMBER_INPUTS[name]
    with pytest.raises(ValueError, match=f"^{what} must be whole numbers$"):
        call()


def test_sample_maps_read_values_by_their_own_keys():
    # Whole float and numpy keys index the map as given, sorted by vertex.
    domain = build_grid(GridSpec(4, 1))
    _, guiding = quantize(domain, {3.0: 3.0, np.int64(0): 0.0, 1: 1.0}, 1.0)
    assert guiding.vertices.tolist() == [0, 1, 3]
    assert guiding.raw_values.tolist() == [0.0, 1.0, 3.0]
    assert fit_gvf(domain, {3.0: 3.0, 0.0: 0.0}).field.idx.tolist() == [1, 2, 3, 4]
