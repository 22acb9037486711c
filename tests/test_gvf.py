import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from gradvar import (UNREACHABLE, GridSpec, GuidingSet, InfeasibleError,
                     LevelField, LevelTable, bfs_distances, build_graph,
                     build_grid, check_feasibility, envelopes, fit_gvf,
                     gvf_extend, lipschitz_delta, load_mesh, quantize,
                     to_scalar)

from gradvar import gvf
from gradvar.domain import _multi_source_hops
from gradvar.gvf import _pair_distances

from checks import (component_graph, gradual_variation_ok, guiding_set,
                    python_bfs)


def path_domain(n):
    return build_graph([(i, i + 1) for i in range(n - 1)], n)


class TestLevelTable:
    @pytest.mark.parametrize("kwargs", [
        dict(base=0.0, delta=0.0, count=1),
        dict(base=0.0, delta=-1.0, count=1),
        dict(base=0.0, delta=1.0, count=0),
        dict(base=float("nan"), delta=1.0, count=1),
        dict(base=0.0, delta=1.0, count=2.5),
        dict(base=0.0, delta=1.0, count=float("inf")),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            LevelTable(**kwargs)


class TestGuidingSet:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            GuidingSet(vertices=np.array([], dtype=np.int64),
                       indices=np.array([], dtype=np.int64),
                       raw_values=np.array([]))

    def test_index_below_one_rejected(self):
        with pytest.raises(ValueError):
            GuidingSet(vertices=np.array([0]), indices=np.array([0]),
                       raw_values=np.array([0.0]))

    @pytest.mark.parametrize("vertices, indices, message", [
        ([0.5, 2.7], [1, 2], "guiding vertex ids must be whole numbers"),
        ([0, 2], [1.9, 2.2], "guiding level indices must be whole numbers"),
        (np.array([0.0, np.nan]), [1, 2], "guiding vertex ids must be whole"),
    ])
    def test_ids_and_indices_must_be_whole(self, vertices, indices, message):
        with pytest.raises(ValueError, match=message):
            GuidingSet(vertices=vertices, indices=indices, raw_values=[0.0, 1.0])


class TestLipschitzDelta:
    def test_direct_ratio(self):
        d = path_domain(5)
        assert lipschitz_delta(d, {0: 0.0, 4: 4.0}) == 1.0

    def test_all_equal_uses_floor(self):
        d = path_domain(3)
        assert lipschitz_delta(d, {0: 7.0, 2: 7.0}) == pytest.approx(7e-9)
        assert lipschitz_delta(d, {0: 0.5, 2: 0.5}) == pytest.approx(1e-9)

    def test_three_point_path(self):
        # values 0, 3, 5 at positions 0, 2, 4: ratios 3/2, 5/4, 2/2
        d = path_domain(5)
        assert lipschitz_delta(d, {0: 0.0, 2: 3.0, 4: 5.0}) == 1.5

    def test_single_sample(self):
        assert lipschitz_delta(path_domain(3), {1: 4.0}) == pytest.approx(4e-9)

    def test_disconnected_samples_raise(self):
        d = build_graph([(0, 1)], 4)
        with pytest.raises(InfeasibleError, match="different components"):
            lipschitz_delta(d, {0: 0.0, 3: 1.0})


class TestQuantize:
    def test_two_levels(self):
        d = path_domain(2)
        t, g = quantize(d, {0: 0.0, 1: 1.0}, delta=1.0)
        assert t.count == 2
        assert g.indices.tolist() == [1, 2]

    def test_single_sample(self):
        d = path_domain(2)
        t, g = quantize(d, {0: 3.3}, delta=0.5)
        assert (t.base, t.count) == (3.3, 1)
        assert g.indices.tolist() == [1]

    def test_nearest_level(self):
        d = path_domain(3)
        t, g = quantize(d, {0: 0.0, 1: 0.4, 2: 1.0}, delta=0.5)
        assert t.count == 3
        assert g.indices.tolist() == [1, 2, 3]

    def test_tie_goes_to_lower_index(self):
        d = path_domain(3)
        # 0.5 sits exactly between levels 0.0 and 1.0
        _, g = quantize(d, {0: 0.0, 1: 0.5, 2: 1.0}, delta=1.0)
        assert g.indices.tolist() == [1, 1, 2]

    def test_raw_values_kept(self):
        d = path_domain(2)
        _, g = quantize(d, {0: 0.12, 1: 0.93}, delta=0.5)
        assert g.raw_values.tolist() == [0.12, 0.93]

    def test_bad_delta(self):
        with pytest.raises(ValueError):
            quantize(path_domain(2), {0: 0.0}, delta=0.0)

    def test_delta_too_small_for_the_range(self):
        # Past 2**53 levels a float t no longer resolves one level, so such
        # a delta is refused rather than cast to a wrapped index.
        d = path_domain(2)
        t, g = quantize(d, {0: 0.0, 1: 1.0}, delta=2.0 ** -40)
        assert (t.count, g.indices.tolist()) == (2 ** 40 + 1, [1, 2 ** 40 + 1])
        assert quantize(d, {0: 0.0, 1: 1.0}, delta=2.0 ** -52)[0].count == 2 ** 52 + 1
        for delta in (2.0 ** -53, 1e-300, 5e-324):
            with pytest.raises(ValueError, match=f"delta {delta!r} is too small"):
                quantize(d, {0: 0.0, 1: 1.0}, delta=delta)
            with pytest.raises(ValueError, match="too small"):
                fit_gvf(d, {0: 0.0, 1: 1.0}, delta=delta)

    @pytest.mark.parametrize("e", [46, 47, 48, 49, 50, 51])
    def test_top_sample_on_top_level_at_huge_level_counts(self, e):
        # The tie band is relative to t, and capped at a quarter level so
        # that from about 2**47 levels on it stays below half a level.
        t, g = quantize(path_domain(2), {0: 0.0, 1: 1.0}, delta=2.0 ** -e)
        assert (t.count, g.indices.tolist()) == (2 ** e + 1, [1, 2 ** e + 1])

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=6, unique=True),
           st.floats(0.01, 10))
    def test_snaps_to_nearest_available_level(self, values, delta):
        d = path_domain(len(values))
        t, g = quantize(d, dict(enumerate(values)), delta)
        table = t.base + np.arange(t.count) * t.delta
        for raw, idx in zip(g.raw_values, g.indices):
            # independent route: scan the whole table, ties to lower index
            gaps = np.abs(table - raw)
            best = int(np.nonzero(gaps <= gaps.min() * (1 + 1e-12))[0][0]) + 1
            assert idx == best
        # the table may stop short of the max sample, but never by delta
        levels = t.base + (g.indices - 1) * t.delta
        assert (np.abs(levels - g.raw_values) < delta * (1 + 1e-9)).all()


class TestAutoDeltaTies:
    """Samples whose gap is a whole number of levels must not split apart.

    In floats (0.1 + 0.2) / 0.2 is 1.5000000000000002 while 0.1 / 0.2 is
    0.5, so plain rounding put vertices 14 and 25 (one hop apart) two
    levels apart at the auto spacing.
    """

    def test_half_level_pair_stays_one_level_apart(self):
        d = build_grid(GridSpec(11, 3))
        fit = fit_gvf(d, {14: 0.1, 27: -0.2, 19: 0.5, 25: -0.1})
        assert fit.delta == 0.2
        assert fit.guiding.vertices.tolist() == [14, 19, 25, 27]
        assert fit.guiding.indices.tolist() == [2, 4, 1, 1]
        assert gradual_variation_ok(d.adjacency_lists(), fit.field.idx)

    @pytest.mark.parametrize("grid,samples", [
        (GridSpec(1, 4, "eight"), {0: 2 / 5, 2: -1 / 5, 3: -2 / 5, 1: 1 / 5}),
        (GridSpec(3, 2), {0: -0.2, 4: -0.1, 2: 0.5, 3: -0.4, 1: 0.2}),
        (GridSpec(1, 5), {3: -1 / 5, 2: 0 / 5, 4: -1 / 5, 1: 2 / 5, 0: 3 / 5}),
        (GridSpec(4, 5), {14: 0.0, 11: 0.1, 10: 0.2, 16: 0.5, 1: -0.1}),
    ])
    def test_decimal_samples_fit_at_auto_delta(self, grid, samples):
        d = build_grid(grid)
        delta = lipschitz_delta(d, samples)
        table, gd = quantize(d, samples, delta)
        assert check_feasibility(d, gd).feasible
        fit = fit_gvf(d, samples)
        assert (fit.field.idx[gd.vertices] == gd.indices).all()


class TestCheckFeasibility:
    def test_adjacent_gap_two_infeasible(self):
        d = path_domain(2)
        g = guiding_set({0: 1, 1: 3}, {0: 0.0, 1: 2.0})
        chk = check_feasibility(d, g)
        assert not chk.feasible
        assert (chk.witness.distance, chk.witness.index_gap) == (1, 2)

    def test_single_guiding_feasible(self):
        chk = check_feasibility(path_domain(4), guiding_set({2: 5}, {2: 1.0}))
        assert chk.feasible and chk.witness is None

    def test_witness_is_maximal_violation(self):
        d = path_domain(4)
        g = guiding_set({0: 1, 1: 3, 3: 9}, {0: 0, 1: 2, 3: 8})
        chk = check_feasibility(d, g)
        # gaps - distances: (0,1): 2-1=1, (0,3): 8-3=5, (1,3): 6-2=4
        assert not chk.feasible
        assert (chk.witness.vertex_a, chk.witness.vertex_b) == (0, 3)

    def test_disconnected_guiding_unreachable_witness(self):
        d = build_graph([(0, 1), (2, 3)], 4)
        g = guiding_set({0: 1, 3: 1}, {0: 0.0, 3: 0.0})
        chk = check_feasibility(d, g)
        assert not chk.feasible
        assert chk.witness.distance == UNREACHABLE
        assert "unreachable" in chk.witness.describe()

    def test_exact_boundary_is_feasible(self):
        # d(x,y) == |i-j| is allowed
        d = path_domain(4)
        g = guiding_set({0: 1, 3: 4}, {0: 0.0, 3: 3.0})
        assert check_feasibility(d, g).feasible


class TestEnvelopes:
    def test_single_center_guiding(self):
        g = GridSpec(3, 3)
        d = build_grid(g)
        gd = guiding_set({4: 5}, {4: 0.0})
        env = envelopes(d, gd, n=9)
        dist = bfs_distances(d, [4])
        assert (env.lower == np.maximum(1, 5 - dist)).all()
        assert (env.upper == np.minimum(9, 5 + dist)).all()

    def test_all_vertices_guiding_pins_everything(self):
        d = path_domain(4)
        idx = {0: 1, 1: 2, 2: 2, 3: 3}
        gd = guiding_set(idx, {k: float(v) for k, v in idx.items()})
        env = envelopes(d, gd, n=3)
        assert env.lower.tolist() == env.upper.tolist() == [1, 2, 2, 3]

    def test_infeasible_shows_crossing(self):
        d = path_domain(2)
        gd = guiding_set({0: 1, 1: 3}, {0: 0.0, 1: 2.0})
        env = envelopes(d, gd, n=3)
        assert not env.feasible
        assert (env.lower > env.upper).any()

    def test_envelopes_are_one_lipschitz(self):
        g = GridSpec(5, 5)
        d = build_grid(g)
        gd = guiding_set({0: 2, 12: 6, 24: 3}, {0: 0.0, 12: 0.0, 24: 0.0})
        env = envelopes(d, gd, n=8)
        for a, b in d.edges():
            assert abs(env.lower[a] - env.lower[b]) <= 1
            assert abs(env.upper[a] - env.upper[b]) <= 1

    def test_unconstrained_component_spans_full_range(self):
        d = build_graph([(0, 1)], 3)
        gd = guiding_set({0: 2}, {0: 0.0})
        env = envelopes(d, gd, n=4)
        assert (env.lower[2], env.upper[2]) == (1, 4)

    def test_guiding_point_is_pinned(self):
        d = path_domain(5)
        gd = guiding_set({2: 3}, {2: 0.0})
        env = envelopes(d, gd, n=6)
        assert env.lower[2] == env.upper[2] == 3


class TestGvfExtend:
    def test_tight_path_unique_extension(self):
        d = path_domain(5)
        t = LevelTable(base=0.0, delta=1.0, count=5)
        gd = guiding_set({0: 1, 4: 5}, {0: 0.0, 4: 4.0})
        for policy in ("midpoint", "lower", "upper"):
            f = gvf_extend(d, gd, t, policy=policy)
            assert f.idx.tolist() == [1, 2, 3, 4, 5]

    def test_single_guiding_constant_when_unclamped(self):
        # center of a 5x5 grid has eccentricity 4; index 5 with n=9 keeps
        # both envelopes unclamped, so the midpoint stays constant
        g = GridSpec(5, 5)
        d = build_grid(g)
        t = LevelTable(base=0.0, delta=1.0, count=9)
        gd = guiding_set({12: 5}, {12: 4.0})
        f = gvf_extend(d, gd, t, policy="midpoint")
        assert (f.idx == 5).all()

    def test_single_guiding_clamped_still_gradual(self):
        g = GridSpec(5, 5)
        d = build_grid(g)
        t = LevelTable(base=0.0, delta=1.0, count=3)
        gd = guiding_set({0: 3}, {0: 2.0})
        f = gvf_extend(d, gd, t, policy="midpoint")
        assert f.idx[0] == 3
        assert gradual_variation_ok(d.adjacency_lists(), f.idx)

    def test_infeasible_raises_with_witness(self):
        d = path_domain(2)
        t = LevelTable(base=0.0, delta=1.0, count=3)
        gd = guiding_set({0: 1, 1: 3}, {0: 0.0, 1: 2.0})
        with pytest.raises(InfeasibleError) as exc:
            gvf_extend(d, gd, t)
        assert (exc.value.witness.distance, exc.value.witness.index_gap) == (1, 2)

    def test_unknown_policy(self):
        d = path_domain(2)
        t = LevelTable(base=0.0, delta=1.0, count=1)
        gd = guiding_set({0: 1}, {0: 0.0})
        with pytest.raises(ValueError, match="policy"):
            gvf_extend(d, gd, t, policy="median")

    def test_monotone_between_path_endpoints(self):
        d = path_domain(9)
        t = LevelTable(base=0.0, delta=1.0, count=4)
        gd = guiding_set({0: 1, 8: 4}, {0: 0.0, 8: 3.0})
        f = gvf_extend(d, gd, t, policy="midpoint")
        assert (np.diff(f.idx) >= 0).all()

    def test_determinism(self):
        g = GridSpec(6, 4)
        d = build_grid(g)
        t = LevelTable(base=0.0, delta=1.0, count=6)
        gd = guiding_set({0: 1, 13: 4, 23: 6}, {0: 0.0, 13: 3.0, 23: 5.0})
        a = gvf_extend(d, gd, t)
        b = gvf_extend(d, gd, t)
        assert a.idx.tobytes() == b.idx.tobytes()


class TestLevelField:
    def test_rejects_non_gradual(self):
        d = path_domain(3)
        t = LevelTable(base=0.0, delta=1.0, count=3)
        with pytest.raises(ValueError, match="gradually"):
            LevelField(domain=d, idx=np.array([1, 3, 1]), table=t)

    def test_rejects_out_of_range(self):
        d = path_domain(2)
        t = LevelTable(base=0.0, delta=1.0, count=2)
        with pytest.raises(ValueError):
            LevelField(domain=d, idx=np.array([1, 3]), table=t)

    def test_indices_must_be_whole(self):
        t = LevelTable(base=0.0, delta=1.0, count=3)
        with pytest.raises(ValueError, match="level indices must be whole numbers"):
            LevelField(domain=path_domain(3), idx=[1.5, 1.9, 2.9], table=t)
        assert LevelField(domain=path_domain(3), idx=[1.0, 2.0, 3.0],
                          table=t).idx.tolist() == [1, 2, 3]


class TestToScalar:
    def test_maps_through_table(self):
        d = path_domain(3)
        t = LevelTable(base=0.0, delta=1.0, count=3)
        f = LevelField(domain=d, idx=np.array([1, 2, 3]), table=t)
        assert to_scalar(f).values.tolist() == [0.0, 1.0, 2.0]

    def test_single_level_constant(self):
        d = path_domain(3)
        t = LevelTable(base=2.5, delta=1.0, count=1)
        f = LevelField(domain=d, idx=np.array([1, 1, 1]), table=t)
        assert to_scalar(f).values.tolist() == [2.5, 2.5, 2.5]

    def test_round_trip_error_bounded_by_delta(self):
        g = GridSpec(6, 6)
        d = build_grid(g)
        rng = np.random.default_rng(7)
        verts = rng.choice(36, size=8, replace=False)
        samples = {int(v): float(x) for v, x in zip(verts, rng.uniform(-3, 3, 8))}
        fit = fit_gvf(d, samples)
        sc = to_scalar(fit.field)
        # half delta within the table span; up to (but never reaching)
        # delta for samples above the top level
        for v, raw in samples.items():
            assert abs(sc.values[v] - raw) < fit.delta * (1 + 1e-9)

    def test_round_trip_half_delta_when_range_divides(self):
        d = path_domain(5)
        samples = {0: 0.0, 2: 1.1, 4: 2.0}
        fit = fit_gvf(d, samples, delta=0.5)
        sc = to_scalar(fit.field)
        for v, raw in samples.items():
            assert abs(sc.values[v] - raw) <= 0.5 / 2 + 1e-12


@st.composite
def feasible_instance(draw):
    """Random grid plus samples quantized at their own Lipschitz spacing."""
    w = draw(st.integers(1, 8))
    h = draw(st.integers(1, 8))
    conn = draw(st.sampled_from(["four", "eight"]))
    grid = GridSpec(w, h, connectivity=conn)
    count = draw(st.integers(1, min(6, w * h)))
    verts = draw(st.lists(st.integers(0, w * h - 1), min_size=count,
                          max_size=count, unique=True))
    values = draw(st.lists(st.floats(-10, 10), min_size=count, max_size=count))
    return grid, dict(zip(verts, values))


class TestProperties:
    @given(feasible_instance())
    @settings(max_examples=60)
    def test_auto_delta_pipeline_is_valid(self, case):
        grid, samples = case
        d = build_grid(grid)
        fit = fit_gvf(d, samples)
        assert gradual_variation_ok(d.adjacency_lists(), fit.field.idx)
        assert (fit.field.idx[fit.guiding.vertices] == fit.guiding.indices).all()

    @given(feasible_instance(), st.sampled_from(["midpoint", "lower", "upper"]))
    @settings(max_examples=60)
    def test_sandwich_for_all_policies(self, case, policy):
        grid, samples = case
        d = build_grid(grid)
        delta = lipschitz_delta(d, samples)
        table, gd = quantize(d, samples, delta)
        f = gvf_extend(d, gd, table, policy=policy)
        env = envelopes(d, gd, table.count)
        assert (env.lower <= f.idx).all() and (f.idx <= env.upper).all()

    @given(feasible_instance(), st.floats(0.1, 1.0))
    @settings(max_examples=60)
    def test_envelope_matches_pairwise_verdict(self, case, shrink):
        # shrink the spacing below delta* to hit infeasible cases too
        grid, samples = case
        d = build_grid(grid)
        delta = lipschitz_delta(d, samples) * shrink
        assume(delta > 0)  # a subnormal spacing times shrink can underflow
        table, gd = quantize(d, samples, delta)
        pairwise = check_feasibility(d, gd).feasible
        env = envelopes(d, gd, table.count)
        assert env.feasible == pairwise


def plain_copy(domain):
    """The same graph built from its edge list, which records no grid."""
    src, dst = domain.edge_pairs()
    return build_graph(np.stack([src, dst], axis=1), domain.vertex_count,
                       coords=domain.coords)


def bfs_matrix(domain, verts):
    """Pair hop distances by one queue BFS per vertex."""
    adj = domain.adjacency_lists()
    return [[python_bfs(adj, [a])[b] for b in verts] for a in verts]


class TestGridMetric:
    """The closed-form grid metric against BFS on the same adjacency."""

    @pytest.mark.parametrize("w,h", [(1, 1), (1, 9), (9, 1), (2, 2)])
    @pytest.mark.parametrize("conn", ["four", "eight"])
    def test_thin_and_tiny_grids(self, w, h, conn):
        d = build_grid(GridSpec(w, h, connectivity=conn))
        verts = np.arange(w * h, dtype=np.int64)
        assert _pair_distances(d, verts).tolist() == bfs_matrix(d, verts)

    @given(st.integers(1, 14), st.integers(1, 14),
           st.sampled_from(["four", "eight"]), st.data())
    @settings(max_examples=80)
    def test_matches_python_bfs(self, w, h, conn, data):
        d = build_grid(GridSpec(w, h, connectivity=conn))
        verts = data.draw(st.lists(st.integers(0, w * h - 1), min_size=1,
                                   max_size=10, unique=True))
        got = _pair_distances(d, np.array(verts, dtype=np.int64))
        assert got.dtype == np.int64
        assert got.tolist() == bfs_matrix(d, verts)

    @given(feasible_instance(), st.floats(0.1, 1.0))
    @settings(max_examples=60)
    def test_edge_list_copy_gives_same_results(self, case, shrink):
        grid, samples = case
        d = build_grid(grid)
        p = plain_copy(d)
        assert p.grid is None
        delta = lipschitz_delta(d, samples)
        assert lipschitz_delta(p, samples) == delta
        assume(delta * shrink > 0)  # a subnormal spacing can underflow
        table, gd = quantize(d, samples, delta * shrink)
        assert check_feasibility(d, gd) == check_feasibility(p, gd)
        a, b = fit_gvf(d, samples), fit_gvf(p, samples)
        assert a.delta == b.delta
        assert a.field.idx.tolist() == b.field.idx.tolist()
        assert to_scalar(a.field).values.tolist() == to_scalar(b.field).values.tolist()


def sweep_graph(kind, rng):
    """An edge-list domain of one of the shapes the pair sweep must handle."""
    if kind == "no-edges":
        return build_graph([], 150)
    if kind == "path":
        return path_domain(140)
    if kind == "components":
        return component_graph(rng, [60, 45, 30, 1, 1])[0]
    if kind == "hub":
        # Random edges among 0..99; hub 0 also holds leaves 100..139 and hub
        # 1 leaves 140..149, both past the neighbor table's capped width, so
        # they pull through the tail.  150..159 have no neighbor.
        edges = rng.integers(0, 100, size=(200, 2))
        edges = edges[edges[:, 0] != edges[:, 1]].tolist()
        edges += [(0, v) for v in range(100, 140)] + [(1, v) for v in range(140, 150)]
        return build_graph(edges, 160)
    # Random edges among the first vertices; the last ones have no neighbor,
    # and neither do a few in between.
    n, isolated = 160, 12
    edges = rng.integers(0, n - isolated, size=(300, 2))
    edges = edges[(edges[:, 0] != edges[:, 1]) & (edges % 17 != 5).all(axis=1)]
    return build_graph(edges, n)


class TestMultiSourceSweep:
    """Pair distances off the grid come from one bit-parallel sweep per 64
    vertices; they must equal a queue BFS per vertex."""

    @pytest.mark.parametrize("k", [1, 2, 63, 64, 65, 130])
    @pytest.mark.parametrize("kind", ["random", "components", "no-edges", "path",
                                      "hub"])
    def test_matches_python_bfs(self, kind, k):
        rng = np.random.default_rng([k, len(kind)])
        d = sweep_graph(kind, rng)
        assert d.grid is None
        verts = rng.permutation(d.vertex_count)[:k]
        got = _pair_distances(d, verts)
        assert got.dtype == np.int64
        assert got.tolist() == bfs_matrix(d, verts.tolist())

    @pytest.mark.parametrize("k", [64, 65, 130])
    def test_hubs_past_the_table_width(self, k):
        # Both hubs, an isolated vertex (a column of sentinels only) and
        # leaves reachable from the other samples only through a hub's tail.
        rng = np.random.default_rng(k)
        d = sweep_graph("hub", rng)
        width = 2 * -(-len(d.directed_pairs()[0]) // d.vertex_count)
        assert d.degrees[1] > width
        verts = np.concatenate([[155, 0, 1, 139, 149],
                                rng.permutation(np.arange(2, 139))[:k - 5]])
        assert _pair_distances(d, verts).tolist() == bfs_matrix(d, verts.tolist())

    def test_mesh_matches_python_bfs(self, tmp_path):
        d = mesh_domain(tmp_path, np.random.default_rng(5), w=12, h=11)
        verts = np.random.default_rng(6).permutation(d.vertex_count)[:130]
        assert _pair_distances(d, verts).tolist() == bfs_matrix(d, verts.tolist())

    def test_star_table_width_is_capped(self):
        # A full-width table would be 3000 x 2999 words, about 72 MB.
        d = build_graph([(0, v) for v in range(1, 3000)], 3000)
        verts = np.arange(0, 3000, 40, dtype=np.int64)
        tracemalloc.start()
        try:
            got = _multi_source_hops(d, verts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert got.tolist() == [[0 if a == b else (1 if 0 in (a, b) else 2)
                                 for b in verts] for a in verts]

    def test_last_vertex_with_edges_before_isolated_ones(self):
        # Vertex 3's neighbor list ends the adjacency; 4 and 5 have none.
        d = build_graph([(0, 1), (1, 2), (2, 3)], 6)
        verts = np.array([5, 3, 0, 4], dtype=np.int64)
        assert _pair_distances(d, verts).tolist() == bfs_matrix(d, verts.tolist())

    @given(st.integers(1, 40), st.data())
    @settings(max_examples=60)
    def test_random_graphs(self, n, data):
        edges = data.draw(st.lists(st.tuples(st.integers(0, n - 1),
                                             st.integers(0, n - 1)), max_size=60))
        d = build_graph([(a, b) for a, b in edges if a != b], n)
        verts = data.draw(st.permutations(range(n)))[:data.draw(st.integers(1, n))]
        got = _pair_distances(d, np.array(verts, dtype=np.int64))
        assert got.tolist() == bfs_matrix(d, verts)

    def test_repeat_call_reuses_the_read_only_matrix(self, tmp_path):
        d = mesh_domain(tmp_path, np.random.default_rng(2))
        verts = np.array([3, 40, 17], dtype=np.int64)
        first = _pair_distances(d, verts)
        assert not first.flags.writeable
        assert _pair_distances(d, verts.copy()) is first
        other = _pair_distances(d, verts[::-1].copy())
        assert other is not first
        assert other.tolist() == first[::-1, ::-1].tolist()


def random_guiding(rng, verts, n):
    idx = rng.integers(1, n + 1, size=len(verts))
    return guiding_set({int(v): int(i) for v, i in zip(verts, idx)},
                       {int(v): float(i) for v, i in zip(verts, idx)})


def scan_verdict(adjacency, guiding):
    """The pairwise rule by a plain scan: the first unreachable pair in
    row-major order, else the first pair of maximal violation."""
    verts, idx = guiding.vertices.tolist(), guiding.indices.tolist()
    pairs = [(a, b) for a in range(len(verts)) for b in range(a + 1, len(verts))]
    dist = {a: python_bfs(adjacency, [verts[a]]) for a in range(len(verts))}
    for a, b in pairs:
        if dist[a][verts[b]] == UNREACHABLE:
            return False, (verts[a], verts[b], UNREACHABLE, abs(idx[a] - idx[b]))
    best = None
    for a, b in pairs:
        d, gap = dist[a][verts[b]], abs(idx[a] - idx[b])
        if gap - d > 0 and (best is None or gap - d > best[3] - best[2]):
            best = (verts[a], verts[b], d, gap)
    return best is None, best


class TestComponentRule:
    """Guiding vertices in different components are infeasible, and the
    envelope verdict says so too."""

    def test_two_components_envelopes_agree(self):
        d = build_graph([(0, 1), (2, 3)], 4)
        g = guiding_set({0: 1, 3: 1}, {0: 0.0, 3: 0.0})
        chk = check_feasibility(d, g)
        env = envelopes(d, g, 1)
        assert chk.feasible is False and env.feasible is False
        assert chk.witness == (0, 3, UNREACHABLE, 0)
        # each component is still bounded by its own guiding point
        assert (env.lower <= env.upper).all()

    def test_guiding_in_one_component_of_several(self):
        d = build_graph([(0, 1), (2, 3)], 5)
        g = guiding_set({2: 1, 3: 2}, {2: 0.0, 3: 1.0})
        assert check_feasibility(d, g).feasible
        assert envelopes(d, g, 2).feasible
        assert gvf_extend(d, g, LevelTable(0.0, 1.0, 2)).idx[[2, 3]].tolist() == [1, 2]

    @pytest.mark.parametrize("parts", [2, 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_component_graphs(self, parts, seed):
        rng = np.random.default_rng([seed, parts])
        for _ in range(40):
            d, adj = component_graph(rng, rng.integers(1, 6, size=parts))
            n = int(rng.integers(1, 5))
            count = int(rng.integers(1, min(d.vertex_count, 5) + 1))
            verts = rng.choice(d.vertex_count, size=count, replace=False)
            g = random_guiding(rng, verts, n)
            feasible, witness = scan_verdict(adj, g)
            chk = check_feasibility(d, g)
            assert chk.feasible == feasible
            assert chk.witness == witness
            # From the pair matrix check_feasibility left, then by a sweep.
            assert envelopes(d, g, n).feasible == feasible
            d._pair_memo = None
            assert envelopes(d, g, n).feasible == feasible

    def test_lipschitz_delta_names_first_split_pair(self):
        d = build_graph([(0, 1), (2, 3), (4, 5)], 6)
        with pytest.raises(InfeasibleError, match="2 and 4 lie") as exc:
            lipschitz_delta(d, {5: 0.0, 4: 1.0, 2: 2.0})
        assert exc.value.witness == (2, 4, UNREACHABLE, None)


def mesh_domain(tmp_path, rng, w=7, h=6):
    """A w x h triangle mesh OBJ with random diagonals, loaded back."""
    lines = [f"v {c + rng.uniform(-0.3, 0.3)!r} {r + rng.uniform(-0.3, 0.3)!r} 0"
             for r in range(h) for c in range(w)]
    for r in range(h - 1):
        for c in range(w - 1):
            a, b = r * w + c + 1, r * w + c + 2
            p, q = a + w, b + w
            if rng.integers(2):
                lines += [f"f {a} {b} {q}", f"f {a} {q} {p}"]
            else:
                lines += [f"f {a} {b} {p}", f"f {b} {q} {p}"]
    path = tmp_path / f"mesh{w}x{h}.obj"
    path.write_text("\n".join(lines) + "\n")
    return load_mesh(path)


def domains_of_every_kind(tmp_path, rng):
    grid = build_grid(GridSpec(7, 6))
    return [grid, build_grid(GridSpec(7, 6, connectivity="eight")),
            mesh_domain(tmp_path, rng), plain_copy(grid),
            component_graph(rng, [40])[0]]


class TestExtendWitness:
    """gvf_extend decides from its envelopes and runs the pairwise test only
    to name the witness of an infeasible fit."""

    @pytest.fixture
    def counted_check(self, monkeypatch):
        calls = []

        def counting(domain, guiding, check=gvf.check_feasibility):
            calls.append(guiding)
            return check(domain, guiding)

        monkeypatch.setattr(gvf, "check_feasibility", counting)
        return calls

    @pytest.mark.parametrize("seed", range(3))
    def test_raises_the_pairwise_witness(self, tmp_path, seed, counted_check):
        rng = np.random.default_rng(seed)
        infeasible = 0
        for d in domains_of_every_kind(tmp_path, rng):
            for _ in range(12):
                count = int(rng.integers(2, min(d.vertex_count, 7) + 1))
                verts = rng.choice(d.vertex_count, size=count, replace=False)
                samples = {int(v): float(x) for v, x in
                           zip(verts, rng.uniform(-3, 3, count))}
                delta = lipschitz_delta(d, samples) * rng.uniform(0.2, 1.0)
                table, gd = quantize(d, samples, delta)
                chk = check_feasibility(d, gd)
                counted_check.clear()
                if chk.feasible:
                    gvf_extend(d, gd, table)
                    assert counted_check == []
                    continue
                infeasible += 1
                with pytest.raises(InfeasibleError) as exc:
                    gvf_extend(d, gd, table)
                assert exc.value.witness == chk.witness
                assert str(exc.value) == f"infeasible guiding data: {chk.witness.describe()}"
                assert len(counted_check) == 1
        assert infeasible > 10

    def test_disconnected_fit_raises_unreachable_witness(self, counted_check):
        d = build_graph([(0, 1), (2, 3)], 4)
        t = LevelTable(base=0.0, delta=1.0, count=2)
        gd = guiding_set({0: 1, 3: 2}, {0: 0.0, 3: 1.0})
        with pytest.raises(InfeasibleError) as exc:
            gvf_extend(d, gd, t)
        assert exc.value.witness == (0, 3, UNREACHABLE, 1)
        assert len(counted_check) == 1


class TestPairDistancesOncePerFit:
    @pytest.fixture
    def pair_calls(self, monkeypatch):
        calls = []

        def counting(domain, vertices, pairs=gvf._pair_distances):
            calls.append(len(vertices))
            return pairs(domain, vertices)

        monkeypatch.setattr(gvf, "_pair_distances", counting)
        return calls

    def test_auto_delta_fit_on_mesh(self, tmp_path, pair_calls):
        d = mesh_domain(tmp_path, np.random.default_rng(4))
        fit = fit_gvf(d, {0: 0.0, 20: 1.5, 41: -0.5})
        assert pair_calls == [3]
        assert gradual_variation_ok(d.adjacency_lists(), fit.field.idx)

    def test_explicit_delta_fit_on_edge_list(self, pair_calls):
        fit_gvf(path_domain(6), {0: 0.0, 5: 1.0}, delta=0.5)
        assert pair_calls == []
