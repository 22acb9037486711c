"""Brute-force cross-checks of the feasibility test on tiny domains.

The oracle enumerates every level assignment and tests gradual variation
plus interpolation directly; it never looks at distances, so agreement
with check_feasibility is evidence for the distance condition itself.
The exhaustive 3x3 sweep lives in the acceptance suite; here are paths,
cycles and small grids with randomized guiding data.
"""

from itertools import combinations, product

import numpy as np
import pytest

from gradvar import (GridSpec, build_graph, build_grid, check_feasibility,
                     envelopes)

from checks import (all_assignments, guiding_set, oracle_extension_exists,
                    valid_assignment_mask)


def path_domain(n):
    return build_graph([(i, i + 1) for i in range(n - 1)], n)


def cycle_domain(n):
    return build_graph([(i, (i + 1) % n) for i in range(n)], n)


SMALL_DOMAINS = [
    ("path4", path_domain(4)),
    ("path6", path_domain(6)),
    ("cycle5", cycle_domain(5)),
    ("cycle6", cycle_domain(6)),
    ("grid2x3", build_grid(GridSpec(3, 2))),
    ("grid2x4", build_grid(GridSpec(4, 2))),
    ("grid2x2e", build_grid(GridSpec(2, 2, connectivity="eight"))),
]


@pytest.mark.parametrize("name,domain", SMALL_DOMAINS)
@pytest.mark.parametrize("n", [2, 3])
def test_exhaustive_pairs_agree_with_brute_force(name, domain, n):
    """Every 2-point guiding configuration, all index combinations."""
    valid = all_assignments(domain.vertex_count, n)
    valid = valid[valid_assignment_mask(valid, list(domain.edges()))]
    for va, vb in combinations(range(domain.vertex_count), 2):
        for ia, ib in product(range(1, n + 1), repeat=2):
            g = guiding_set({va: ia, vb: ib}, {va: float(ia), vb: float(ib)})
            got = check_feasibility(domain, g).feasible
            want = oracle_extension_exists(valid, [va, vb], [ia, ib])
            assert got == want, (name, va, vb, ia, ib)
            assert envelopes(domain, g, n).feasible == want


@pytest.mark.parametrize("name,domain", SMALL_DOMAINS)
def test_random_triples_agree_with_brute_force(name, domain):
    n = 3
    valid = all_assignments(domain.vertex_count, n)
    valid = valid[valid_assignment_mask(valid, list(domain.edges()))]
    rng = np.random.default_rng(11)
    for _ in range(120):
        verts = rng.choice(domain.vertex_count, size=3, replace=False)
        idxs = rng.integers(1, n + 1, size=3)
        g = guiding_set(
            {int(v): int(i) for v, i in zip(verts, idxs)},
            {int(v): float(i) for v, i in zip(verts, idxs)})
        got = check_feasibility(domain, g).feasible
        want = oracle_extension_exists(valid, verts.tolist(), idxs.tolist())
        assert got == want, (name, verts, idxs)


def test_full_guiding_set_reduces_to_validity():
    """With every vertex guided, feasibility is exactly membership in
    the valid assignment set."""
    domain = path_domain(5)
    n = 3
    valid = all_assignments(5, n)
    mask = valid_assignment_mask(valid, list(domain.edges()))
    rng = np.random.default_rng(3)
    for _ in range(80):
        assign = rng.integers(1, n + 1, size=5)
        g = guiding_set({v: int(i) for v, i in enumerate(assign)},
                        {v: float(i) for v, i in enumerate(assign)})
        got = check_feasibility(domain, g).feasible
        row = np.nonzero((valid == assign).all(axis=1))[0][0]
        assert got == bool(mask[row])
