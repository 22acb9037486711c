import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gradvar import (GradientField, GridSpec, ScalarField, build_graph,
                     build_grid, discrete_gradient, fit_gvf, harmonic_relax,
                     smooth_reconstruct, to_scalar, total_variation)
from gradvar.smoothing import _neighbor_sums

from checks import component_graph, oracle_dirichlet, python_bfs


def path_domain(n):
    return build_graph([(i, i + 1) for i in range(n - 1)], n)


def grid_field(grid, fn):
    d = build_grid(grid)
    x, y = d.coords[:, 0], d.coords[:, 1]
    return d, ScalarField(domain=d, values=fn(x, y))


def mean_defect(adjacency, values, verts):
    """Largest |neighbor mean - value| over ``verts``, from adjacency lists."""
    return max((abs(sum(values[w] for w in adjacency[v]) / len(adjacency[v])
                    - values[v]) for v in verts), default=0.0)


def fix_every_component(rng, adjacency, count):
    """``count`` random vertices, plus one in each component they miss,
    mapped to random values."""
    verts = set(rng.choice(len(adjacency), size=count, replace=False).tolist())
    dist = python_bfs(adjacency, verts)
    while -1 in dist:
        verts.add(dist.index(-1))
        dist = python_bfs(adjacency, verts)
    return {v: float(rng.uniform(-5, 5)) for v in sorted(verts)}


class TestHarmonicRelax:
    def test_path_converges_to_linear_ramp(self):
        d = path_domain(11)
        f = ScalarField(domain=d, values=np.zeros(11))
        out, rep = harmonic_relax(f, {0: 0.0, 10: 1.0}, max_iter=20000,
                                  tol=1e-12)
        assert np.allclose(out.values, np.arange(11) / 10, atol=1e-9)
        assert rep.final_residual < 1e-12

    def test_all_fixed_returns_input_zero_iterations(self):
        d = path_domain(3)
        f = ScalarField(domain=d, values=[1.0, 2.0, 3.0])
        out, rep = harmonic_relax(f, {0: 1.0, 1: 2.0, 2: 3.0})
        assert rep.iterations_run == 0
        assert rep.final_residual == 0.0
        assert out.values.tolist() == [1.0, 2.0, 3.0]

    def test_fixed_values_override_field(self):
        d = path_domain(3)
        f = ScalarField(domain=d, values=[9.0, 9.0, 9.0])
        out, _ = harmonic_relax(f, {0: 0.0, 2: 2.0}, max_iter=500, tol=1e-13)
        assert out.values[0] == 0.0 and out.values[2] == 2.0
        assert out.values[1] == pytest.approx(1.0)

    def test_affine_boundary_reproduced_on_small_grid(self):
        grid = GridSpec(8, 8)
        d, truth = grid_field(grid, lambda x, y: 1.5 * x - 0.5 * y + 2.0)
        boundary = [v for v in range(64)
                    if 0 in divmod(v, 8) or 7 in divmod(v, 8)]
        fixed = {v: float(truth.values[v]) for v in boundary}
        init = ScalarField(domain=d, values=np.zeros(64))
        out, _ = harmonic_relax(init, fixed, max_iter=5000, tol=1e-13)
        assert np.abs(out.values - truth.values).max() < 1e-8

    def test_isolated_free_vertex_keeps_start_value(self):
        # Vertex 2 has no neighbors, so no fixed vertex reaches it: it keeps
        # its start value and stays out of final_residual.
        d = build_graph([(0, 1)], 3)
        f = ScalarField(domain=d, values=np.array([0.0, 0.0, 5.0]))
        out, report = harmonic_relax(f, {0: 1.0})
        assert out.values.tolist() == [1.0, 1.0, 5.0]
        assert report.final_residual == 0.0

    def test_empty_fixed_rejected(self):
        d = path_domain(2)
        f = ScalarField(domain=d, values=np.zeros(2))
        with pytest.raises(ValueError, match="nonempty"):
            harmonic_relax(f, {})

    def test_fixed_bit_identical_after_relaxation(self):
        grid = GridSpec(6, 5)
        d = build_grid(grid)
        rng = np.random.default_rng(5)
        init = ScalarField(domain=d, values=rng.uniform(-4, 4, 30))
        fixed = {3: 0.1234567890123456, 17: -2.765432109876543}
        out, _ = harmonic_relax(init, fixed, max_iter=137)
        assert out.values[3] == 0.1234567890123456
        assert out.values[17] == -2.765432109876543

    @given(st.integers(2, 6), st.integers(2, 6), st.integers(0, 2 ** 32 - 1),
           st.integers(1, 60))
    @settings(max_examples=40)
    def test_max_principle(self, w, h, seed, iters):
        d = build_grid(GridSpec(w, h))
        rng = np.random.default_rng(seed)
        init = rng.uniform(-5, 5, w * h)
        k = int(rng.integers(1, w * h + 1))
        fixed_verts = rng.choice(w * h, size=k, replace=False)
        fixed = {int(v): float(rng.uniform(-5, 5)) for v in fixed_verts}
        f = ScalarField(domain=d, values=init)
        lo = min(init.min(), min(fixed.values()))
        hi = max(init.max(), max(fixed.values()))
        out, _ = harmonic_relax(f, fixed, max_iter=iters, tol=0.0)
        assert out.values.min() >= lo - 1e-12
        assert out.values.max() <= hi + 1e-12

    def test_max_iter_zero_runs_nothing(self):
        d = path_domain(3)
        f = ScalarField(domain=d, values=[0.0, 5.0, 0.0])
        out, rep = harmonic_relax(f, {0: 0.0}, max_iter=0)
        assert rep.iterations_run == 0
        assert out.values.tolist() == [0.0, 5.0, 0.0]

    def test_breakdown_stops_cleanly(self):
        # One free vertex: the first step is exact and leaves r = 0.
        d = path_domain(3)
        f = ScalarField(domain=d, values=np.zeros(3))
        out, rep = harmonic_relax(f, {0: 0.0, 2: 2.0}, tol=0.0)
        assert rep.iterations_run == 1
        assert rep.final_residual == 0.0
        assert out.values.tolist() == [0.0, 1.0, 2.0]

    def test_component_without_fixed_vertex_keeps_start(self):
        # 4-5-6 is bipartite and no fixed vertex reaches it.
        d = build_graph([(0, 1), (1, 2), (2, 3), (4, 5), (5, 6)], 7)
        f = ScalarField(domain=d, values=[0.0, 5.0, -3.0, 2.0, 1.0, 4.0, 9.0])
        for max_iter, tol in ((1, 0.0), (2, 0.0), (100, 1e-9), (500, 0.0)):
            out, rep = harmonic_relax(f, {0: 1.0}, max_iter=max_iter, tol=tol)
            assert out.values[4:].tolist() == [1.0, 4.0, 9.0]
            assert rep.final_residual == pytest.approx(
                mean_defect(d.adjacency_lists(), out.values, [1, 2, 3]),
                rel=1e-9, abs=1e-15)
        assert np.abs(out.values[:4] - 1.0).max() < 1e-12
        assert rep.final_residual < 1e-12

    def test_defaults_reach_the_dense_solve(self):
        grid = GridSpec(32, 32)
        d, truth = grid_field(grid, lambda x, y: np.sin(x / 9) + 2 * np.cos(y / 7))
        rng = np.random.default_rng(0)
        verts = rng.choice(32 * 32, size=20, replace=False)
        samples = {int(v): float(truth.values[v]) for v in verts}
        start = to_scalar(fit_gvf(d, samples).field)
        out, _ = harmonic_relax(start, samples)
        want = oracle_dirichlet(d.adjacency_lists(), samples)
        assert np.abs(out.values - want).max() < 1e-4


class TestHarmonicAgainstDenseSolve:
    """harmonic_relax against np.linalg.solve on the free block, and its
    report against the defect recomputed from the returned field."""

    def _check(self, domain, fixed, rng):
        adj = domain.adjacency_lists()
        free = [v for v in range(domain.vertex_count) if v not in fixed]
        start = ScalarField(domain=domain,
                            values=rng.uniform(-5, 5, domain.vertex_count))
        for max_iter, tol in ((int(rng.integers(1, 6)), 0.0), (1000, 1e-13)):
            out, rep = harmonic_relax(start, fixed, max_iter=max_iter, tol=tol)
            assert rep.final_residual == pytest.approx(
                mean_defect(adj, out.values, free), rel=1e-9, abs=1e-13)
        assert rep.final_residual < 1e-13
        assert np.abs(out.values - oracle_dirichlet(adj, fixed)).max() < 1e-9

    @given(st.integers(1, 8), st.integers(1, 8), st.sampled_from(["four", "eight"]),
           st.integers(0, 2 ** 32 - 1))
    @example(1, 8, "four", 0)
    @example(8, 1, "eight", 1)
    @settings(max_examples=40)
    def test_grids(self, w, h, connectivity, seed):
        d = build_grid(GridSpec(w, h, connectivity))
        rng = np.random.default_rng(seed)
        fixed = fix_every_component(rng, d.adjacency_lists(),
                                    int(rng.integers(1, w * h + 1)))
        self._check(d, fixed, rng)

    @pytest.mark.parametrize("seed", range(8))
    def test_graphs(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 30))
        for d in (path_domain(n), component_graph(rng, [n])[0],
                  component_graph(rng, rng.integers(1, 12, size=3))[0]):
            fixed = fix_every_component(rng, d.adjacency_lists(),
                                        int(rng.integers(1, 4)))
            self._check(d, fixed, rng)


class TestGridNeighborSums:
    """The grid slice-add stencil against bincount over the same edges."""

    @given(st.integers(1, 9), st.integers(1, 9), st.sampled_from(["four", "eight"]),
           st.integers(0, 2 ** 32 - 1))
    @example(1, 9, "four", 0)
    @example(9, 1, "eight", 1)
    @example(1, 1, "eight", 2)
    @settings(max_examples=60)
    def test_matches_bincount(self, w, h, connectivity, seed):
        grid = build_grid(GridSpec(w, h, connectivity))
        graph = build_graph(list(grid.edges()), grid.vertex_count)
        values = np.random.default_rng(seed).normal(0, 1e3, size=w * h)
        got = _neighbor_sums(grid, values)
        want = _neighbor_sums(graph, values)
        # At most 8 terms, summed in another order: within 8 ulps of the
        # sum of magnitudes.
        bound = 8 * np.finfo(np.float64).eps * _neighbor_sums(graph, np.abs(values))
        assert got.shape == want.shape
        assert (np.abs(got - want) <= bound).all()
        ones = _neighbor_sums(grid, np.ones(w * h))
        assert ones.tolist() == grid.degrees.astype(np.float64).tolist()
        # harmonic_relax and _taylor_blend take degrees as sums of ones.
        assert _neighbor_sums(graph, np.ones(w * h)).tolist() == ones.tolist()


class TestDiscreteGradient:
    def test_affine_exact_everywhere(self):
        grid = GridSpec(5, 5)
        _, f = grid_field(grid, lambda x, y: 2 * x + 3 * y)
        g = discrete_gradient(f, grid)
        assert np.allclose(g.gx, 2.0, atol=1e-12)
        assert np.allclose(g.gy, 3.0, atol=1e-12)

    def test_constant_zero(self):
        grid = GridSpec(4, 3)
        _, f = grid_field(grid, lambda x, y: np.full_like(x, 7.0))
        g = discrete_gradient(f, grid)
        assert not g.gx.any() and not g.gy.any()

    def test_quadratic_exact_in_interior(self):
        grid = GridSpec(7, 3, spacing=0.5)
        d, f = grid_field(grid, lambda x, y: x ** 2)
        g = discrete_gradient(f, grid)
        x = d.coords[:, 0]
        interior = (x > 0) & (x < 3.0)
        assert np.allclose(g.gx[interior], 2 * x[interior], atol=1e-12)
        # one-sided stencil is first order: borders off by exactly h
        assert g.gx[0] == pytest.approx(2 * x[0] + grid.spacing)

    def test_spacing_scales(self):
        grid = GridSpec(3, 3, spacing=0.25)
        _, f = grid_field(grid, lambda x, y: 4 * x)
        g = discrete_gradient(f, grid)
        assert np.allclose(g.gx, 4.0)

    def test_degenerate_axes_rejected(self):
        grid = GridSpec(1, 5)
        _, f = grid_field(grid, lambda x, y: y)
        with pytest.raises(ValueError, match="width"):
            discrete_gradient(f, grid)
        grid = GridSpec(5, 1)
        _, f = grid_field(grid, lambda x, y: x)
        with pytest.raises(ValueError, match="height"):
            discrete_gradient(f, grid)

    def test_length_mismatch_rejected(self):
        d = path_domain(4)
        f = ScalarField(domain=d, values=np.zeros(4))
        with pytest.raises(ValueError, match="match"):
            discrete_gradient(f, GridSpec(3, 3))
        # Same vertex count, other layout: the grid must be the domain's own.
        _, f = grid_field(GridSpec(4, 8), lambda x, y: x)
        with pytest.raises(ValueError, match="match"):
            discrete_gradient(f, GridSpec(8, 4))


class TestTotalVariation:
    def test_constant_is_zero(self):
        d = path_domain(4)
        assert total_variation(ScalarField(domain=d, values=np.full(4, 2.0))) == 0.0

    def test_alternating_path(self):
        d = path_domain(4)
        assert total_variation(ScalarField(domain=d, values=[0, 1, 0, 1])) == 3.0

    @given(st.floats(-20, 20))
    def test_absolutely_homogeneous(self, c):
        d = path_domain(5)
        base = np.array([0.0, 2.0, -1.0, 3.0, 3.0])
        f = ScalarField(domain=d, values=base)
        cf = ScalarField(domain=d, values=c * base)
        assert total_variation(cf) == pytest.approx(abs(c) * total_variation(f))

    def test_gradient_variant_sums_components(self):
        grid = GridSpec(2, 2)
        d = build_grid(grid)
        g = GradientField(domain=d,
                          gx=[0.0, 1.0, 0.0, 1.0], gy=[0.0, 0.0, 2.0, 2.0])
        # gx varies on both horizontal edges, gy on both vertical edges
        assert total_variation(g) == 2 * 1.0 + 2 * 2.0

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            total_variation([1, 2, 3])

    @pytest.mark.parametrize("w,h", [(1, 1), (1, 6), (6, 1), (5, 4), (9, 9)])
    @pytest.mark.parametrize("connectivity", ["four", "eight"])
    def test_grid_slices_match_edge_list(self, w, h, connectivity):
        # Per neighbor step on a grid, in edge order elsewhere: the same
        # terms, summed in another order.
        grid = build_grid(GridSpec(w, h, connectivity))
        graph = build_graph(list(grid.edges()), w * h)
        v, gx, gy = np.random.default_rng(w * h).normal(size=(3, w * h))
        for make in (lambda d: ScalarField(domain=d, values=v),
                     lambda d: GradientField(domain=d, gx=gx, gy=gy)):
            want = total_variation(make(graph))
            assert total_variation(make(grid)) == pytest.approx(want, rel=1e-13, abs=0)


class TestSmoothReconstruct:
    def grid_samples(self, grid, count, seed, fn):
        d = build_grid(grid)
        x, y = d.coords[:, 0], d.coords[:, 1]
        truth = fn(x, y)
        rng = np.random.default_rng(seed)
        verts = rng.choice(d.vertex_count, size=count, replace=False)
        return d, truth, {int(v): float(truth[v]) for v in verts}

    def test_domain_type_checked(self):
        with pytest.raises(TypeError, match="dom must be a GridSpec or Domain"):
            smooth_reconstruct("8x6", {0: 1.0}, order=0)

    def test_order_zero_is_clamped_pipeline_output(self):
        grid = GridSpec(8, 6)
        d, _, samples = self.grid_samples(
            grid, 7, 2, lambda x, y: np.sin(x / 3) + y / 5)
        out = smooth_reconstruct(grid, samples, order=0)
        fit = fit_gvf(d, samples)
        expect = np.array(to_scalar(fit.field).values)
        for v, raw in samples.items():
            expect[v] = raw
        assert out.values.tolist() == expect.tolist()

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_samples_reproduced_exactly(self, order):
        grid = GridSpec(12, 12)
        _, _, samples = self.grid_samples(
            grid, 10, 4, lambda x, y: np.exp(-((x - 5) ** 2 + (y - 6) ** 2) / 18))
        out = smooth_reconstruct(grid, samples, order=order, sweeps=8)
        for v, raw in samples.items():
            assert out.values[v] == raw

    def test_affine_order_one_not_worse_than_order_zero(self):
        grid = GridSpec(16, 16)
        _, truth, samples = self.grid_samples(
            grid, 20, 0, lambda x, y: 0.8 * x - 1.1 * y + 0.5)
        rmse = []
        for order in (0, 1):
            f = smooth_reconstruct(grid, samples, order=order, sweeps=50)
            rmse.append(float(np.sqrt(((f.values - truth) ** 2).mean())))
        assert rmse[1] <= rmse[0]

    def test_order_validation(self):
        grid = GridSpec(3, 3)
        with pytest.raises(ValueError, match="order"):
            smooth_reconstruct(grid, {0: 1.0}, order=3)

    def test_negative_sweeps_rejected(self):
        with pytest.raises(ValueError, match="sweeps"):
            smooth_reconstruct(GridSpec(3, 3), {0: 1.0}, order=1, sweeps=-1)

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_grid_domain_same_as_grid_spec(self, order):
        grid = GridSpec(10, 8, connectivity="eight", spacing=0.5)
        d, _, samples = self.grid_samples(
            grid, 9, 3, lambda x, y: np.cos(x) + 0.3 * y)
        a = smooth_reconstruct(d, samples, order=order, sweeps=6)
        b = smooth_reconstruct(grid, samples, order=order, sweeps=6)
        assert a.domain is d
        assert a.values.tolist() == b.values.tolist()

    def test_plain_domain_needs_order_zero(self):
        d = path_domain(6)
        out = smooth_reconstruct(d, {0: 0.0, 5: 5.0}, order=0)
        assert out.values[0] == 0.0 and out.values[5] == 5.0
        with pytest.raises(ValueError, match="grid"):
            smooth_reconstruct(d, {0: 0.0, 5: 5.0}, order=1)

    def test_zero_sweeps_keeps_clamped_base(self):
        grid = GridSpec(6, 6)
        d, _, samples = self.grid_samples(grid, 5, 9, lambda x, y: x + y)
        a = smooth_reconstruct(grid, samples, order=0)
        b = smooth_reconstruct(grid, samples, order=2, sweeps=0)
        assert a.values.tolist() == b.values.tolist()


class TestGradientFieldValidation:
    def test_finite_required(self):
        grid = GridSpec(2, 2)
        d = build_grid(grid)
        with pytest.raises(ValueError, match="finite"):
            GradientField(domain=d,
                          gx=[0.0, np.inf, 0.0, 0.0], gy=np.zeros(4))

    def test_length_checked(self):
        grid = GridSpec(2, 2)
        d = build_grid(grid)
        with pytest.raises(ValueError, match="length"):
            GradientField(domain=d, gx=np.zeros(3), gy=np.zeros(4))
