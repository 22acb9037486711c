import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gradvar import (UNREACHABLE, GridSpec, GuidingSet, InfeasibleError,
                     LevelField, LevelTable, bfs_distances, build_graph,
                     build_grid, check_feasibility, envelopes, fit_gvf,
                     gvf_extend, lipschitz_delta, quantize, to_scalar)

from gradvar.gvf import _pair_distances

from checks import gradual_variation_ok, python_bfs


def path_domain(n):
    return build_graph([(i, i + 1) for i in range(n - 1)], n)


class TestLevelTable:
    def test_levels(self):
        t = LevelTable(base=2.0, delta=0.5, count=4)
        assert t.level(1) == 2.0
        assert t.level(4) == 3.5
        assert t.levels_array().tolist() == [2.0, 2.5, 3.0, 3.5]

    def test_out_of_range_index(self):
        t = LevelTable(base=0.0, delta=1.0, count=2)
        with pytest.raises(ValueError):
            t.level(0)
        with pytest.raises(ValueError):
            t.level(3)

    @pytest.mark.parametrize("kwargs", [
        dict(base=0.0, delta=0.0, count=1),
        dict(base=0.0, delta=-1.0, count=1),
        dict(base=0.0, delta=1.0, count=0),
        dict(base=float("nan"), delta=1.0, count=1),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            LevelTable(**kwargs)


class TestGuidingSet:
    def test_from_maps_sorts(self):
        g = GuidingSet.from_maps({5: 2, 1: 1}, {5: 0.9, 1: 0.1})
        assert g.vertices.tolist() == [1, 5]
        assert g.indices.tolist() == [1, 2]
        assert g.raw_values.tolist() == [0.1, 0.9]

    def test_mismatched_keys_rejected(self):
        with pytest.raises(ValueError):
            GuidingSet.from_maps({1: 1}, {2: 0.0})

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            GuidingSet(vertices=np.array([], dtype=np.int64),
                       indices=np.array([], dtype=np.int64),
                       raw_values=np.array([]))

    def test_index_below_one_rejected(self):
        with pytest.raises(ValueError):
            GuidingSet.from_maps({0: 0}, {0: 0.0})


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

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=6, unique=True),
           st.floats(0.01, 10))
    def test_snaps_to_nearest_available_level(self, values, delta):
        d = path_domain(len(values))
        t, g = quantize(d, dict(enumerate(values)), delta)
        table = t.levels_array()
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
        g = GuidingSet.from_maps({0: 1, 1: 3}, {0: 0.0, 1: 2.0})
        chk = check_feasibility(d, g)
        assert not chk.feasible
        assert (chk.witness.distance, chk.witness.index_gap) == (1, 2)

    def test_single_guiding_feasible(self):
        chk = check_feasibility(path_domain(4), GuidingSet.from_maps({2: 5}, {2: 1.0}))
        assert chk.feasible and chk.witness is None

    def test_witness_is_maximal_violation(self):
        d = path_domain(4)
        g = GuidingSet.from_maps({0: 1, 1: 3, 3: 9}, {0: 0, 1: 2, 3: 8})
        chk = check_feasibility(d, g)
        # gaps - distances: (0,1): 2-1=1, (0,3): 8-3=5, (1,3): 6-2=4
        assert not chk.feasible
        assert (chk.witness.vertex_a, chk.witness.vertex_b) == (0, 3)

    def test_disconnected_guiding_unreachable_witness(self):
        d = build_graph([(0, 1), (2, 3)], 4)
        g = GuidingSet.from_maps({0: 1, 3: 1}, {0: 0.0, 3: 0.0})
        chk = check_feasibility(d, g)
        assert not chk.feasible
        assert chk.witness.distance == UNREACHABLE
        assert "unreachable" in chk.witness.describe()

    def test_exact_boundary_is_feasible(self):
        # d(x,y) == |i-j| is allowed
        d = path_domain(4)
        g = GuidingSet.from_maps({0: 1, 3: 4}, {0: 0.0, 3: 3.0})
        assert check_feasibility(d, g).feasible


class TestEnvelopes:
    def test_single_center_guiding(self):
        g = GridSpec(3, 3)
        d = build_grid(g)
        gd = GuidingSet.from_maps({4: 5}, {4: 0.0})
        env = envelopes(d, gd, n=9)
        dist = bfs_distances(d, [4]).dist
        assert (env.lower == np.maximum(1, 5 - dist)).all()
        assert (env.upper == np.minimum(9, 5 + dist)).all()

    def test_all_vertices_guiding_pins_everything(self):
        d = path_domain(4)
        idx = {0: 1, 1: 2, 2: 2, 3: 3}
        gd = GuidingSet.from_maps(idx, {k: float(v) for k, v in idx.items()})
        env = envelopes(d, gd, n=3)
        assert env.lower.tolist() == env.upper.tolist() == [1, 2, 2, 3]

    def test_infeasible_shows_crossing(self):
        d = path_domain(2)
        gd = GuidingSet.from_maps({0: 1, 1: 3}, {0: 0.0, 1: 2.0})
        env = envelopes(d, gd, n=3)
        assert not env.feasible
        assert (env.lower > env.upper).any()

    def test_envelopes_are_one_lipschitz(self):
        g = GridSpec(5, 5)
        d = build_grid(g)
        gd = GuidingSet.from_maps({0: 2, 12: 6, 24: 3},
                                  {0: 0.0, 12: 0.0, 24: 0.0})
        env = envelopes(d, gd, n=8)
        for a, b in d.edges():
            assert abs(env.lower[a] - env.lower[b]) <= 1
            assert abs(env.upper[a] - env.upper[b]) <= 1

    def test_unconstrained_component_spans_full_range(self):
        d = build_graph([(0, 1)], 3)
        gd = GuidingSet.from_maps({0: 2}, {0: 0.0})
        env = envelopes(d, gd, n=4)
        assert (env.lower[2], env.upper[2]) == (1, 4)

    def test_guiding_point_is_pinned(self):
        d = path_domain(5)
        gd = GuidingSet.from_maps({2: 3}, {2: 0.0})
        env = envelopes(d, gd, n=6)
        assert env.lower[2] == env.upper[2] == 3


class TestGvfExtend:
    def test_tight_path_unique_extension(self):
        d = path_domain(5)
        t = LevelTable(base=0.0, delta=1.0, count=5)
        gd = GuidingSet.from_maps({0: 1, 4: 5}, {0: 0.0, 4: 4.0})
        for policy in ("midpoint", "lower", "upper"):
            f = gvf_extend(d, gd, t, policy=policy)
            assert f.idx.tolist() == [1, 2, 3, 4, 5]

    def test_single_guiding_constant_when_unclamped(self):
        # center of a 5x5 grid has eccentricity 4; index 5 with n=9 keeps
        # both envelopes unclamped, so the midpoint stays constant
        g = GridSpec(5, 5)
        d = build_grid(g)
        t = LevelTable(base=0.0, delta=1.0, count=9)
        gd = GuidingSet.from_maps({12: 5}, {12: 4.0})
        f = gvf_extend(d, gd, t, policy="midpoint")
        assert (f.idx == 5).all()

    def test_single_guiding_clamped_still_gradual(self):
        g = GridSpec(5, 5)
        d = build_grid(g)
        t = LevelTable(base=0.0, delta=1.0, count=3)
        gd = GuidingSet.from_maps({0: 3}, {0: 2.0})
        f = gvf_extend(d, gd, t, policy="midpoint")
        assert f.idx[0] == 3
        assert gradual_variation_ok(d.adjacency_lists(), f.idx)

    def test_infeasible_raises_with_witness(self):
        d = path_domain(2)
        t = LevelTable(base=0.0, delta=1.0, count=3)
        gd = GuidingSet.from_maps({0: 1, 1: 3}, {0: 0.0, 1: 2.0})
        with pytest.raises(InfeasibleError) as exc:
            gvf_extend(d, gd, t)
        assert (exc.value.witness.distance, exc.value.witness.index_gap) == (1, 2)

    def test_unknown_policy(self):
        d = path_domain(2)
        t = LevelTable(base=0.0, delta=1.0, count=1)
        gd = GuidingSet.from_maps({0: 1}, {0: 0.0})
        with pytest.raises(ValueError, match="policy"):
            gvf_extend(d, gd, t, policy="median")

    def test_monotone_between_path_endpoints(self):
        d = path_domain(9)
        t = LevelTable(base=0.0, delta=1.0, count=4)
        gd = GuidingSet.from_maps({0: 1, 8: 4}, {0: 0.0, 8: 3.0})
        f = gvf_extend(d, gd, t, policy="midpoint")
        assert (np.diff(f.idx) >= 0).all()

    def test_determinism(self):
        g = GridSpec(6, 4)
        d = build_grid(g)
        t = LevelTable(base=0.0, delta=1.0, count=6)
        gd = GuidingSet.from_maps({0: 1, 13: 4, 23: 6},
                                  {0: 0.0, 13: 3.0, 23: 5.0})
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
        table, gd = quantize(d, samples, delta)
        pairwise = check_feasibility(d, gd).feasible
        env = envelopes(d, gd, table.count)
        assert env.feasible == pairwise


def plain_copy(domain):
    """The same graph built from its edge list, which records no grid."""
    src, dst = domain.edge_pairs()
    return build_graph(np.stack([src, dst], axis=1), domain.vertex_count,
                       coords=domain.coords)


class TestGridMetric:
    """The closed-form grid metric against BFS on the same adjacency."""

    @staticmethod
    def bfs_matrix(domain, verts):
        adj = domain.adjacency_lists()
        return [[python_bfs(adj, [a])[b] for b in verts] for a in verts]

    @pytest.mark.parametrize("w,h", [(1, 1), (1, 9), (9, 1), (2, 2)])
    @pytest.mark.parametrize("conn", ["four", "eight"])
    def test_thin_and_tiny_grids(self, w, h, conn):
        d = build_grid(GridSpec(w, h, connectivity=conn))
        verts = np.arange(w * h, dtype=np.int64)
        assert _pair_distances(d, verts).tolist() == self.bfs_matrix(d, verts)

    @given(st.integers(1, 14), st.integers(1, 14),
           st.sampled_from(["four", "eight"]), st.data())
    @settings(max_examples=80)
    def test_matches_python_bfs(self, w, h, conn, data):
        d = build_grid(GridSpec(w, h, connectivity=conn))
        verts = data.draw(st.lists(st.integers(0, w * h - 1), min_size=1,
                                   max_size=10, unique=True))
        got = _pair_distances(d, np.array(verts, dtype=np.int64))
        assert got.dtype == np.int64
        assert got.tolist() == self.bfs_matrix(d, verts)

    @given(feasible_instance(), st.floats(0.1, 1.0))
    @settings(max_examples=60)
    def test_edge_list_copy_gives_same_results(self, case, shrink):
        grid, samples = case
        d = build_grid(grid)
        p = plain_copy(d)
        assert p._grid is None
        delta = lipschitz_delta(d, samples)
        assert lipschitz_delta(p, samples) == delta
        table, gd = quantize(d, samples, delta * shrink)
        assert check_feasibility(d, gd) == check_feasibility(p, gd)
        a, b = fit_gvf(d, samples), fit_gvf(p, samples)
        assert a.delta == b.delta
        assert a.field.idx.tolist() == b.field.idx.tolist()
        assert to_scalar(a.field).values.tolist() == to_scalar(b.field).values.tolist()
