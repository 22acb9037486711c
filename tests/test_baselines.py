import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gradvar import (GaussianWeight, GridSpec, InversePowerWeight, MlsConfig,
                     SamplePoints, ShepardConfig, build_graph, build_grid,
                     evaluate_on_domain, mls_fit, shepard)
from gradvar import baselines
from gradvar.baselines import _CHUNK_CELLS, _basis_size

from checks import oracle_mls, oracle_shepard

finite = st.floats(-50, 50, allow_nan=False)


def mls_rank(query, samples, config):
    """(rank, basis size) of the weighted MLS system at one query, which
    mls_fit does not report; rank < basis size is a rank fallback."""
    _, rank = baselines._mls_rows(np.array([query], dtype=np.float64),
                                  samples, config)
    return int(rank[0]), _basis_size(config.degree)


def plane_samples(a=2.0, b=3.0, c=1.0):
    pts = [(0.0, 0.0), (1.0, 0.25), (0.5, 2.0), (-1.5, 1.0), (2.0, -1.0),
           (0.25, 0.75), (-0.5, -2.0)]
    return SamplePoints(xy=np.array(pts),
                        values=np.array([a * x + b * y + c for x, y in pts]))


class TestSamplePoints:
    def test_from_points_merges_duplicates_by_mean(self):
        sp = SamplePoints.from_points(
            [(1.0, 2.0, 10.0), (0.0, 0.0, 5.0), (1.0, 2.0, 20.0)])
        assert len(sp) == 2
        at = {tuple(p): v for p, v in zip(sp.xy, sp.values)}
        assert at[(1.0, 2.0)] == 15.0
        assert at[(0.0, 0.0)] == 5.0

    def test_constructor_rejects_duplicates(self):
        with pytest.raises(ValueError, match="merge"):
            SamplePoints(xy=[[0, 0], [0, 0]], values=[1.0, 2.0])

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError):
            SamplePoints.from_points([])
        with pytest.raises(ValueError, match="sample set must be nonempty"):
            SamplePoints(xy=np.empty((0, 2)), values=[])
        with pytest.raises(ValueError, match="finite"):
            SamplePoints(xy=[[0, 0]], values=[np.nan])

    def test_rejects_bad_shapes(self):
        for xy, values in (([[0.0, 0.0, 0.0]], [1.0]), ([[0.0, 0.0]], [1.0, 2.0])):
            with pytest.raises(ValueError, match=r"xy must be \(n, 2\)"):
                SamplePoints(xy=xy, values=values)

    def test_arrays_read_only(self):
        sp = plane_samples()
        with pytest.raises(ValueError):
            sp.values[0] = 99.0


class TestWeights:
    def test_gaussian_strictly_decreasing(self):
        w = GaussianWeight(scale=1.5)
        d = np.array([0.0, 0.5, 1.0, 2.0, 5.0])
        out = w(d)
        assert out[0] == 1.0
        assert (np.diff(out) < 0).all()

    def test_gaussian_infinite_scale_is_constant(self):
        w = GaussianWeight(scale=math.inf)
        assert w(np.array([0.0, 3.0, 1e6])).tolist() == [1.0, 1.0, 1.0]

    def test_gaussian_scale_validated(self):
        with pytest.raises(ValueError):
            GaussianWeight(scale=0.0)

    def test_inverse_power_epsilon_regularizes_zero(self):
        w = InversePowerWeight(power=2.0, epsilon=0.5)
        assert w(np.array([0.0]))[0] == 4.0
        bare = InversePowerWeight(power=2.0)
        assert np.isinf(bare(np.array([0.0]))[0])

    def test_inverse_power_validation(self):
        with pytest.raises(ValueError):
            InversePowerWeight(power=0.0)
        with pytest.raises(ValueError):
            InversePowerWeight(power=1.0, epsilon=-1.0)


class TestMls:
    @pytest.mark.parametrize("weight", [
        GaussianWeight(scale=1.0),
        GaussianWeight(scale=7.0),
        GaussianWeight(scale=math.inf),
        InversePowerWeight(power=2.0, epsilon=0.1),
    ])
    def test_degree_one_reproduces_plane(self, weight):
        samples = plane_samples(2.0, 3.0, 1.0)
        cfg = MlsConfig(degree=1, weight=weight)
        for q in [(0.0, 0.0), (0.3, -0.7), (5.0, 5.0), (-2.0, 1.5)]:
            res = mls_fit(q, samples, cfg)
            rank, size = mls_rank(q, samples, cfg)
            assert not rank < size
            assert res.value == pytest.approx(2 * q[0] + 3 * q[1] + 1, abs=1e-9)

    def test_degree_zero_constant_weight_is_arithmetic_mean(self):
        sp = SamplePoints(xy=[[0, 0], [1, 0], [0, 1], [4, 4]],
                          values=[1.0, 2.0, 3.0, 10.0])
        cfg = MlsConfig(degree=0, weight=GaussianWeight(scale=math.inf))
        res = mls_fit((0.2, 0.9), sp, cfg)
        assert res.value == pytest.approx(4.0, abs=1e-12)
        rank, size = mls_rank((0.2, 0.9), sp, cfg)
        assert size == 1 and not rank < size

    def test_degree_two_reproduces_quadratic(self):
        pts = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0.5), (-1, 1.5),
               (0.5, -1.0), (1.5, 2.0)]

        def f(x, y):
            return 1 + x - 2 * y + 0.5 * x * x - x * y + y * y

        sp = SamplePoints(xy=np.array(pts, dtype=float),
                          values=np.array([f(x, y) for x, y in pts]))
        cfg = MlsConfig(degree=2, weight=GaussianWeight(scale=2.0))
        for q in [(0.4, 0.6), (2.0, 2.0), (-0.5, 0.0)]:
            res = mls_fit(q, sp, cfg)
            rank, size = mls_rank(q, sp, cfg)
            assert not rank < size
            assert res.value == pytest.approx(f(*q), abs=1e-8)

    def test_collinear_fallback_matches_one_dimensional_fit(self):
        # Points on y = 2x with exactly representable coordinates.  The
        # rank-deficient plane fit must agree with a hand-built weighted
        # line fit in the along-line parameter, evaluated at the query's
        # projection onto that line.
        pts = np.array([[0.25, 0.5], [0.5, 1.0], [0.75, 1.5], [1.25, 2.5]])
        vals = np.array([3.0, 1.0, 4.0, 1.5])
        sp = SamplePoints(xy=pts, values=vals)
        weight = GaussianWeight(scale=1.0)
        q = np.array([1.0, 0.0])

        res = mls_fit(q, sp, MlsConfig(degree=1, weight=weight))
        rank, size = mls_rank(q, sp, MlsConfig(degree=1, weight=weight))
        assert rank < size and rank == 2 and size == 3

        w = weight(np.hypot(pts[:, 0] - q[0], pts[:, 1] - q[1]))
        centroid = (w @ pts) / w.sum()
        e = np.array([1.0, 2.0]) / math.sqrt(5.0)
        t = (pts - centroid) @ e
        tq = (q - centroid) @ e
        design = np.stack([np.ones(len(t)), t], axis=1) * np.sqrt(w)[:, None]
        alpha, beta = np.linalg.lstsq(design, vals * np.sqrt(w), rcond=None)[0]
        assert res.value == pytest.approx(alpha + beta * tq, abs=1e-10)

    def test_single_sample_falls_back_to_its_value(self):
        sp = SamplePoints(xy=[[2.0, 3.0]], values=[7.5])
        res = mls_fit((0.0, 0.0), sp, MlsConfig(degree=1))
        rank, size = mls_rank((0.0, 0.0), sp, MlsConfig(degree=1))
        assert rank < size and rank == 1
        assert res.value == pytest.approx(7.5)

    def test_infinite_weight_restricts_to_dominating_site(self):
        sp = SamplePoints(xy=[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
                          values=[5.0, 1.0, 2.0])
        cfg = MlsConfig(degree=1, weight=InversePowerWeight(power=2.0))
        res = mls_fit((0.0, 0.0), sp, cfg)
        assert res.value == pytest.approx(5.0)
        rank, size = mls_rank((0.0, 0.0), sp, cfg)
        assert rank < size

    def test_zero_total_weight_raises(self):
        sp = SamplePoints(xy=[[1000.0, 0.0]], values=[1.0])
        cfg = MlsConfig(degree=0, weight=lambda d: np.zeros_like(d))
        with pytest.raises(ValueError, match="weight"):
            mls_fit((0.0, 0.0), sp, cfg)

    def test_far_query_gaussian_uses_relative_weights(self):
        # exp(-1000^2) underflows to 0, but the weights relative to the
        # nearest sample do not, so the fit is the nearest sample's value.
        sp = SamplePoints(xy=[[1000.0, 0.0]], values=[1.0])
        cfg = MlsConfig(degree=0, weight=GaussianWeight(scale=1.0))
        assert GaussianWeight(scale=1.0)(np.array([1000.0]))[0] == 0.0
        assert mls_fit((0.0, 0.0), sp, cfg).value == 1.0
        two = SamplePoints(xy=[[1000.0, 0.0], [1100.0, 0.0]], values=[4.0, 9.0])
        assert mls_fit((0.0, 0.0), two, cfg).value == pytest.approx(4.0)

    @pytest.mark.parametrize("degree", [0, 1, 2])
    def test_gaussian_square_overflow_keeps_nearest_sample(self, degree):
        # (d / scale)^2 overflows past about 1.3e154 * scale, so every log
        # weight is -inf; the nearest sample still weighs 1 and the other,
        # whose relative weight is exp(-3e320), weighs 0.  The suite turns
        # RuntimeWarnings into errors, so this also runs without one.
        sp = SamplePoints(xy=[[1e160, 0.0], [2e160, 0.0]], values=[1.0, 2.0])
        lw = GaussianWeight(1.0).log_weight(np.array([1e160, 2e160]))
        assert np.isneginf(lw).all()
        cfg = MlsConfig(degree, GaussianWeight(1.0))
        r = mls_fit((0, 0), sp, cfg)
        assert r.value == 1.0 and mls_rank((0, 0), sp, cfg)[0] == 1

    def test_rank_rule_counts_only_dominating_samples(self):
        # Three nearly collinear sites lie where d^-400 overflows, so the
        # fit restricts to them; their smallest singular value is above
        # lstsq's cutoff for 3 rows but below the one for all 1000 samples.
        rng = np.random.default_rng(0)
        xy = np.vstack([[[-0.1, 0.0], [0.1, 0.0], [0.05, 1e-14]],
                        rng.uniform(5, 50, size=(997, 2))])
        vals = np.concatenate([[1.0, 2.0, 3.0], rng.normal(size=997)])
        weight = InversePowerWeight(power=400.0)
        with np.errstate(over="ignore"):
            rank, size = mls_rank((0.0, 0.0), SamplePoints(xy=xy, values=vals),
                                  MlsConfig(degree=1, weight=weight))
            want = oracle_mls((0.0, 0.0), xy, vals, 1, weight)
        assert (rank, rank < size) == (3, False)
        assert rank == want[1]

    def test_negative_weight_rejected(self):
        sp = plane_samples()
        cfg = MlsConfig(degree=0, weight=lambda d: d - 100.0)
        with pytest.raises(ValueError, match="nonnegative"):
            mls_fit((0.0, 0.0), sp, cfg)

    @given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
    @settings(max_examples=30)
    def test_translation_equivariance(self, dx, dy):
        base = plane_samples(0.5, -1.0, 2.0)
        moved = SamplePoints(xy=base.xy + [dx, dy], values=base.values)
        cfg = MlsConfig(degree=1, weight=GaussianWeight(scale=2.0))
        q = (0.4, 0.1)
        a = mls_fit(q, base, cfg)
        b = mls_fit((q[0] + dx, q[1] + dy), moved, cfg)
        assert b.value == pytest.approx(a.value, abs=1e-9, rel=1e-9)
        a_rank, size = mls_rank(q, base, cfg)
        b_rank, _ = mls_rank((q[0] + dx, q[1] + dy), moved, cfg)
        assert (b_rank < size) == (a_rank < size)

    def test_query_shape_validated(self):
        with pytest.raises(ValueError, match="pair"):
            mls_fit((1.0, 2.0, 3.0), plane_samples(), MlsConfig())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MlsConfig(degree=3)
        with pytest.raises(ValueError):
            MlsConfig(weight="not callable")


class TestZeroWeightRows:
    @pytest.mark.parametrize("degree", [1, 2])
    def test_design_matrix_matches_unguarded_formula(self, monkeypatch, degree):
        # Where every offset is finite, the design matrix must be what
        # basis(offset / scale) * sqrt(w) gives, signed zeros of the
        # zero-weight rows included, so the solve and its result stay the
        # same bit for bit.  It is captured where it is built, before the
        # solve splits the chunk, so every row is checked.
        rng = np.random.default_rng(4)
        xy = rng.uniform(-20, 20, size=(30, 2))
        sp = SamplePoints(xy=xy, values=rng.normal(size=30))
        q = rng.uniform(-20, 20, size=(50, 2))
        cfg = MlsConfig(degree, GaussianWeight(0.3))
        seen = []
        system = baselines._mls_system

        def capture(*args):
            out = system(*args)
            seen.append(out[0].copy())
            return out

        monkeypatch.setattr(baselines, "_mls_system", capture)
        baselines._mls_rows(q, sp, cfg)
        dist = np.hypot(xy[:, 0] - q[:, 0, None], xy[:, 1] - q[:, 1, None])
        lw = cfg.weight.log_weight(dist)
        w = np.exp(lw - lw.max(axis=1, keepdims=True))
        total = w.sum(axis=1)
        offset = xy[None, :, :] - ((w @ xy) / total[:, None])[:, None, :]
        sq = np.where(w > 0, np.square(offset).sum(axis=2), 0.0)
        spread = np.sqrt(np.einsum("ck,ck->c", w, sq) / total)
        scale = np.where(spread > 0, spread, 1.0)
        expect = baselines._basis(offset / scale[:, None, None], degree) \
            * np.sqrt(w)[:, :, None]
        assert (w == 0).any() and (np.signbit(expect) & (expect == 0)).any()
        assert len(seen) == 1
        np.testing.assert_array_equal(seen[0], expect)
        assert (np.signbit(seen[0]) == np.signbit(expect)).all()


class TestShepard:
    def test_exact_at_sites(self):
        sp = plane_samples()
        for p, v in zip(sp.xy, sp.values):
            assert shepard(tuple(p), sp) == v

    def test_equidistant_pair_averages(self):
        sp = SamplePoints(xy=[[-1.0, 0.0], [1.0, 0.0]], values=[2.0, 6.0])
        assert shepard((0.0, 0.0), sp) == pytest.approx(4.0)
        assert shepard((0.0, 5.0), sp, power=3.0) == pytest.approx(4.0)

    @given(st.lists(st.tuples(finite, finite, finite), min_size=1, max_size=8,
                    unique_by=lambda t: (t[0], t[1])),
           finite, finite, st.floats(0.5, 6.0))
    @settings(max_examples=60)
    def test_stays_within_value_bounds(self, pts, qx, qy, power):
        sp = SamplePoints.from_points(pts)
        out = shepard((qx, qy), sp, power)
        lo, hi = sp.values.min(), sp.values.max()
        assert lo - 1e-9 <= out <= hi + 1e-9

    def test_weight_overflow_near_site_uses_dominators(self):
        sp = SamplePoints(xy=[[1e-300, 0.0], [-1e-300, 0.0], [5.0, 5.0]],
                          values=[1.0, 3.0, 100.0])
        assert shepard((0.0, 0.0), sp, power=4.0) == pytest.approx(2.0)

    def test_all_weights_underflow_picks_nearest(self):
        sp = SamplePoints(xy=[[1e200, 0.0], [-2e200, 0.0]], values=[4.0, 9.0])
        assert shepard((0.0, 0.0), sp, power=3.0) == 4.0

    def test_power_validated(self):
        with pytest.raises(ValueError, match="power"):
            shepard((0, 0), plane_samples(), power=0.0)


class TestEvaluateOnDomain:
    def test_affine_reproduced_everywhere(self):
        d = build_grid(GridSpec(6, 5, spacing=0.5))
        sp = plane_samples(1.0, -2.0, 0.25)
        fit = evaluate_on_domain(MlsConfig(degree=1,
                                           weight=GaussianWeight(scale=3.0)),
                                 sp, d)
        x, y = d.coords[:, 0], d.coords[:, 1]
        assert np.allclose(fit.field.values, x - 2 * y + 0.25, atol=1e-9)
        assert fit.fallback_vertices == ()

    def test_collinear_samples_flag_every_vertex(self):
        d = build_grid(GridSpec(3, 3))
        sp = SamplePoints(xy=[[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]],
                          values=[0.0, 1.0, 2.0])
        fit = evaluate_on_domain(MlsConfig(degree=1,
                                           weight=GaussianWeight(scale=5.0)),
                                 sp, d)
        assert fit.fallback_vertices == tuple(range(9))

    def test_shepard_constant_field(self):
        d = build_grid(GridSpec(4, 4))
        sp = SamplePoints(xy=[[0.5, 0.5], [2.5, 2.5]], values=[3.0, 3.0])
        fit = evaluate_on_domain(ShepardConfig(), sp, d)
        assert np.allclose(fit.field.values, 3.0)
        assert fit.fallback_vertices == ()

    def test_domain_without_coordinates_rejected(self):
        d = build_graph([(0, 1)], 2)
        with pytest.raises(ValueError, match="coordinates"):
            evaluate_on_domain(MlsConfig(), plane_samples(), d)

    def test_hard_failure_names_vertex(self):
        d = build_grid(GridSpec(2, 1, spacing=100.0))
        sp = SamplePoints(xy=[[0.0, 0.0]], values=[1.0])
        cfg = MlsConfig(degree=0,
                        weight=lambda d: np.where(d > 0, 0.0, 1.0))
        with pytest.raises(ValueError, match="vertex 1"):
            evaluate_on_domain(cfg, sp, d)

    def test_hard_failure_names_lowest_vertex(self):
        # Vertex 2 has zero total weight and vertex 3 a negative weight.
        d = build_grid(GridSpec(4, 1, spacing=100.0))
        sp = SamplePoints(xy=[[0.0, 0.0]], values=[1.0])
        cfg = MlsConfig(degree=0,
                        weight=lambda d: (d < 150) - (d > 250).astype(float))
        with pytest.raises(ValueError, match="vertex 2: zero total weight"):
            evaluate_on_domain(cfg, sp, d)

    def test_far_vertex_gaussian_returns_nearest_value(self):
        d = build_grid(GridSpec(2, 1, spacing=100.0))
        sp = SamplePoints(xy=[[0.0, 0.0], [-50.0, 0.0]], values=[1.0, 5.0])
        cfg = MlsConfig(degree=0, weight=GaussianWeight(scale=1.0))
        fit = evaluate_on_domain(cfg, sp, d)
        assert fit.field.values.tolist() == [1.0, 1.0]
        assert fit.fallback_vertices == ()

    def test_unknown_config_type(self):
        d = build_grid(GridSpec(2, 2))
        with pytest.raises(TypeError):
            evaluate_on_domain(object(), plane_samples(), d)


def _agree(got, want, vals):
    """Equal to 1e-12 relative to the larger of the value and the data scale."""
    scale = np.maximum(np.abs(want), np.abs(vals).max())
    assert (np.abs(got - want) <= 1e-12 * scale).all()


def _query_domain(ordinary, edge, k, rng):
    """A coordinate-only domain of shuffled ordinary and edge-case queries.

    Its size is no multiple of the chunk size, and every chunk holds both
    kinds of query.
    """
    queries = np.vstack([ordinary, edge])
    order = rng.permutation(len(queries))
    step = max(1, _CHUNK_CELLS // k)
    assert len(queries) > step and len(queries) % step != 0
    is_edge = order >= len(ordinary)
    for start in range(0, len(queries), step):
        assert 0 < is_edge[start:start + step].sum() < len(is_edge[start:start + step])
    return build_graph([], len(queries), coords=queries[order])


class TestChunkedAgainstPerQuery:
    """The chunk kernels against the per-query lstsq and scalar Shepard."""

    @staticmethod
    def mls_layout(seed):
        # A scatter plus a far collinear cluster: near the cluster, narrow
        # weights leave only collinear samples, so those rows fall back.
        rng = np.random.default_rng(seed)
        t = rng.uniform(0, 4, size=8)
        xy = np.vstack([rng.uniform(0, 10, size=(30, 2)),
                        np.stack([40 + t, 30 + 2 * t], axis=1)])
        sp = SamplePoints(xy=xy, values=rng.normal(0, 3, size=len(xy)))
        near_line = xy[30 + rng.integers(0, 8, 60)] + rng.normal(0, 0.3, (60, 2))
        # Edge rows: near the cluster, and on the sites, where an epsilon-free
        # inverse power weight is infinite.
        edge = np.vstack([near_line, xy])
        return sp, _query_domain(rng.uniform(-1, 11, size=(900, 2)), edge,
                                 len(sp), rng)

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("degree", [0, 1, 2])
    @pytest.mark.parametrize("weight", [
        GaussianWeight(scale=1.5),
        GaussianWeight(scale=math.inf),
        InversePowerWeight(power=2.0),  # infinite at the sample sites
        InversePowerWeight(power=3.0, epsilon=0.1),
    ])
    def test_mls_matches_lstsq(self, seed, degree, weight):
        sp, d = self.mls_layout(seed)
        fit = evaluate_on_domain(MlsConfig(degree=degree, weight=weight), sp, d)
        want = np.empty(d.vertex_count)
        fallbacks = []
        for v, q in enumerate(d.coords):
            want[v], rank, size = oracle_mls(q, sp.xy, sp.values, degree, weight)
            if v < 100:
                cfg = MlsConfig(degree=degree, weight=weight)
                res = mls_fit(q, sp, cfg)
                got_rank, got_size = mls_rank(q, sp, cfg)
                assert (got_rank, got_size) == (rank, size)
                assert (got_rank < got_size) == (rank < size)
                assert res.value == pytest.approx(want[v], rel=1e-12,
                                                  abs=1e-12 * np.abs(sp.values).max())
            if rank < size:
                fallbacks.append(v)
        _agree(fit.field.values, want, sp.values)
        assert fit.fallback_vertices == tuple(fallbacks)

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("power", [1.0, 2.0, 3.0, 4.0])
    def test_shepard_matches_scalar(self, seed, power):
        rng = np.random.default_rng(seed)
        tiny = [[1e-300, 0.0], [-1e-300, 0.0]]
        xy = np.vstack([rng.uniform(0, 10, size=(40, 2)), tiny])
        sp = SamplePoints(xy=xy, values=rng.normal(0, 3, size=len(xy)))
        edge_rows = np.vstack([
            xy,                                   # on a site
            [[0.0, 0.0], [1e-300, 1e-310]],       # weights overflow to inf
            [[1e200, -1e200], [-3e200, 2e200]],   # every weight underflows
        ])
        d = _query_domain(rng.uniform(-1, 11, size=(700, 2)), edge_rows,
                          len(sp), rng)
        fit = evaluate_on_domain(ShepardConfig(power=power), sp, d)
        want = np.array([oracle_shepard(q, sp.xy, sp.values, power)
                         for q in d.coords])
        _agree(fit.field.values, want, sp.values)
        for q, w in zip(d.coords[:50], want[:50]):
            assert shepard(q, sp, power) == pytest.approx(w, rel=1e-12, abs=1e-12)
        assert fit.fallback_vertices == ()


def _designed(rng, conds, k, m, rotate):
    """(len(conds), k, m) matrices whose row i has condition number conds[i]:
    singular values from 1 down to 1 / conds[i] in geometric steps, the
    right singular vectors random where rotate[i] and the unit vectors
    otherwise.  A cond of inf takes the steps of cond 10 with the last
    singular value 0."""
    c = np.asarray(conds, dtype=np.float64)
    s = np.where(np.isinf(c), 10.0, c)[:, None] ** -np.linspace(0.0, 1.0, m)
    s[np.isinf(c), -1] = 0.0
    u = np.linalg.qr(rng.normal(size=(len(c), k, m)))[0]
    v = np.linalg.qr(rng.normal(size=(len(c), m, m)))[0]
    v[~np.asarray(rotate)] = np.eye(m)
    return (u * s[:, None, :]) @ v.transpose(0, 2, 1), s


def _compact(dist):
    """(1 - (d / 4)^2)^2 within distance 4 and exactly 0 beyond."""
    return np.square(np.maximum(0.0, 1.0 - np.square(dist / 4.0)))


def _refuse(name):
    def call(*args, **kwargs):
        raise AssertionError(f"np.linalg.{name} must not run here")
    return call


class TestNormalEquationSplit:
    """The solve certifies rows cond(a) < 50 for the normal equations and
    sends the others to the SVD; both sides against per-row lstsq."""

    CONDS = [1.0, 10.0, 49.0, 49.9, 50.1, 51.0, 1e3, math.inf]

    @pytest.mark.parametrize("m", [1, 3, 6])
    def test_split_matches_lstsq(self, monkeypatch, m):
        rng = np.random.default_rng(m)
        conds = np.repeat(self.CONDS, 4)
        rotate = np.arange(len(conds)) % 2 == 0
        a, s = _designed(rng, conds, 9, m, rotate)
        b = rng.normal(size=(len(a), 9))
        # Three zero-weight samples per row: their rows of a and b are signed 0s.
        zeros = np.copysign(0.0, rng.normal(size=(len(a), 3, m + 1)))
        a = np.concatenate([a, zeros[:, :, :m]], axis=1)
        b = np.concatenate([b, zeros[:, :, m]], axis=1)
        seen = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd",
                            lambda x, **kw: seen.append(x.copy()) or svd(x, **kw))
        coef, rank = baselines._solve(a, b, np.full(len(a), 12))
        for i in range(len(a)):
            want, _, want_rank, _ = np.linalg.lstsq(a[i], b[i], rcond=None)
            assert rank[i] == want_rank
            np.testing.assert_allclose(coef[i], want, rtol=1e-12,
                                       atol=1e-12 * np.abs(want).max())
        # Exactly the rows of cond >= 50 took the SVD, so the chunk was mixed.
        refused = ~(s[:, -1] * 50.0 > s[:, 0])
        assert 0 < refused.sum() < len(a) and len(seen) == 1
        np.testing.assert_array_equal(seen[0], a[refused])

    @pytest.mark.parametrize("degree", [0, 1, 2])
    @pytest.mark.parametrize("weight", [
        GaussianWeight(scale=1.5),
        _compact,                       # zero-weight samples, as signed 0 rows
        InversePowerWeight(power=2.0),  # dominating sites at zero distance
    ])
    def test_chunk_rows_match_lstsq(self, monkeypatch, degree, weight):
        # One chunk of every query of the scatter-and-line layout, so ordinary
        # rows, fallbacks near the line and rows on the sites share it.
        sp, d = TestChunkedAgainstPerQuery.mls_layout(0)
        q = d.coords
        cfg = MlsConfig(degree=degree, weight=weight)
        a = baselines._mls_system(q, sp, cfg)[0]
        if weight is _compact:
            assert (a == 0).all(axis=2).any()
            assert (np.signbit(a) & (a == 0)).any() or degree == 0
        svd_rows = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd",
                            lambda x, **kw: svd_rows.append(len(x)) or svd(x, **kw))
        value, rank = baselines._mls_rows(q, sp, cfg)
        want = [oracle_mls(p, sp.xy, sp.values, degree, weight) for p in q]
        _agree(value, np.array([w[0] for w in want]), sp.values)
        assert rank.tolist() == [w[1] for w in want]
        if degree:
            assert 0 < sum(svd_rows) < len(q)
        else:
            assert svd_rows == []   # m = 1: every row has cond(a) = 1

    @pytest.mark.parametrize("degree, k", [(1, 2), (2, 3), (2, 5)])
    def test_fewer_samples_than_basis(self, degree, k):
        rng = np.random.default_rng(k)
        sp = SamplePoints(xy=rng.uniform(0, 4, size=(k, 2)), values=rng.normal(size=k))
        q = np.vstack([rng.uniform(-1, 5, size=(40, 2)), sp.xy])
        for weight in (GaussianWeight(scale=2.0), InversePowerWeight(power=2.0)):
            cfg = MlsConfig(degree=degree, weight=weight)
            value, rank = baselines._mls_rows(q, sp, cfg)
            want = [oracle_mls(p, sp.xy, sp.values, degree, weight) for p in q]
            _agree(value, np.array([w[0] for w in want]), sp.values)
            assert rank.tolist() == [w[1] for w in want]
            assert (rank < _basis_size(degree)).all()


class TestSolvePaths:
    """Which solver each workload layout reaches; the one-row layout must not
    pay for an eigen solve that cannot certify it."""

    def test_collinear_layout_never_takes_eigvalsh(self, monkeypatch):
        d = build_grid(GridSpec(24, 24))
        rng = np.random.default_rng(0)
        x = np.arange(1.0, 23.0, 2.0) + rng.uniform(-0.5, 0.5, 11)
        sp = SamplePoints(xy=np.stack([x, np.full(11, 12.0)], axis=1),
                          values=rng.normal(size=11))
        monkeypatch.setattr(np.linalg, "eigvalsh", _refuse("eigvalsh"))
        for degree in (1, 2):
            fit = evaluate_on_domain(MlsConfig(degree, GaussianWeight(4.0)), sp, d)
            assert len(fit.fallback_vertices) == d.vertex_count

    def test_certified_layout_never_takes_svd(self, monkeypatch):
        # Jittered samples a few spacings apart, a Gaussian about as wide.
        d = build_grid(GridSpec(24, 24))
        rng = np.random.default_rng(0)
        g = np.arange(1.0, 24.0, 4.0)
        xy = np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)
        sp = SamplePoints(xy=xy + rng.uniform(-1, 1, xy.shape),
                          values=rng.normal(size=len(xy)))
        monkeypatch.setattr(np.linalg, "svd", _refuse("svd"))
        for degree in (0, 1, 2):
            fit = evaluate_on_domain(MlsConfig(degree, GaussianWeight(4.0)), sp, d)
            assert fit.fallback_vertices == ()
