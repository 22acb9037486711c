"""Smoothness post-processing for fitted fields.

Three tools: a conjugate-gradient solve for the discrete harmonic field
with fixed (Dirichlet) vertices, finite-difference gradients on grid domains,
and an iterated Taylor-blend pipeline that re-fits derivative fields to
push the reconstruction toward higher-order smoothness.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .domain import (UNREACHABLE, Domain, GridSpec, _count, _edge_jumps,
                     _freeze, _grid_steps, bfs_distances, build_grid)
from .fields import ScalarField
from .gvf import _sample_arrays, fit_gvf, to_scalar


@dataclass(frozen=True)
class RelaxReport:
    """CG iterations run and the returned field's largest |neighbor mean - value|."""

    iterations_run: int
    final_residual: float

    def __post_init__(self):
        if self.iterations_run < 0 or not self.final_residual >= 0:
            raise ValueError("iterations must be >= 0 and residual nonnegative")


@dataclass(frozen=True)
class GradientField:
    """Per-vertex first-derivative components on a grid domain."""

    domain: Domain
    gx: np.ndarray
    gy: np.ndarray

    def __post_init__(self):
        for name in ("gx", "gy"):
            a = _freeze(self, name, np.float64)
            if a.shape != (self.domain.vertex_count,):
                raise ValueError(f"{name} length must equal the domain vertex count")
            if not np.isfinite(a).all():
                raise ValueError(f"{name} must be finite everywhere")


def _as_domain(dom) -> Domain:
    """A GridSpec built into its grid domain, or a Domain as it is."""
    domain = build_grid(dom) if isinstance(dom, GridSpec) else dom
    if not isinstance(domain, Domain):
        raise TypeError("dom must be a GridSpec or Domain")
    return domain


def _neighbor_sums(domain: Domain, values: np.ndarray) -> np.ndarray:
    """Each vertex's sum of ``values`` over its neighbors: on a grid, the
    (H, W) array shifted each way by each neighbor step and added up, with
    no adjacency built; elsewhere a bincount over the directed pairs, which
    sums in another order."""
    grid = domain.grid
    if grid is None:
        src, dst = domain.directed_pairs()
        return np.bincount(src, weights=values[dst], minlength=domain.vertex_count)
    z, out = values.reshape(grid.height, grid.width), np.zeros((grid.height, grid.width))
    for a, b in _grid_steps(grid):
        out[a] += z[b]
        out[b] += z[a]
    return out.ravel()


def _relax_options(max_iter, tol, what: str = "max_iter") -> int:
    """``max_iter`` as an int, once it is a whole number >= 0 and ``tol``
    is nonnegative and finite: the checks of :func:`harmonic_relax`, which
    `fit` and a benchmark also run up front, naming ``max_iter`` ``what``."""
    max_iter = _count(max_iter, what, 0)
    if not 0 <= tol < np.inf:
        raise ValueError("tol must be nonnegative and finite")
    return max_iter


def harmonic_relax(field: ScalarField, fixed: Mapping[int, float],
                   max_iter: int = 100, tol: float = 1e-9,
                   ) -> tuple[ScalarField, RelaxReport]:
    """Solve for the discrete harmonic field with Dirichlet data ``fixed``.

    Conjugate gradients on the Dirichlet Laplacian, preconditioned by the
    vertex degree, solve for every free vertex that a fixed vertex reaches;
    other free vertices, isolated ones included, keep their start values.
    Stops after max_iter iterations, on breakdown, or once every solved
    vertex is within tol of its neighbors' mean as checked on the field
    itself (else the solve restarts from it).  Solved values are clipped into [min, max] of the
    fixed values and the start's free values, which holds the exact solution.
    """
    domain = field.domain
    fixed_verts, fixed_vals = _sample_arrays(domain, fixed, "fixed")
    max_iter = _relax_options(max_iter, tol)

    free = np.ones(domain.vertex_count, dtype=bool)
    free[fixed_verts] = False
    values = np.array(field.values, dtype=np.float64)
    box = np.concatenate([fixed_vals, values[free]])
    values[fixed_verts] = fixed_vals
    solve = free & (bfs_distances(domain, fixed_verts) != UNREACHABLE)
    deg = np.where(solve, _neighbor_sums(domain, np.ones(len(values))), 1.0)

    def laplacian(x):
        return np.where(solve, deg * x - _neighbor_sums(domain, x), 0.0)

    # z = r / deg is each solved vertex's neighbor mean minus its value.
    iterations, z = 0, None
    while iterations < max_iter:
        if z is None or np.abs(z).max() < tol:  # (re)start from the true defect
            r = -laplacian(values)
            z = r / deg
            p, rz = z, r @ z
            if np.abs(z).max() < tol:
                break
        ap = laplacian(p)
        pap = p @ ap
        if not (rz > 0 and pap > 0):
            break
        alpha = rz / pap
        values += alpha * p
        r -= alpha * ap
        z = r / deg
        iterations += 1
        rz, rz_old = r @ z, rz
        p = z + (rz / rz_old) * p
    values[solve] = np.clip(values[solve], box.min(), box.max())
    residual = float(np.abs(laplacian(values) / deg).max())
    return ScalarField(domain=domain, values=values), RelaxReport(
        iterations_run=iterations, final_residual=residual)


def discrete_gradient(field: ScalarField, grid: GridSpec) -> GradientField:
    """Finite-difference gradient of a grid field.

    Central differences (f(x+h) - f(x-h)) / 2h in the interior, one-sided
    two-point differences on the borders, h = grid spacing.  Exact for
    affine fields everywhere and for quadratics away from the borders.
    ``grid`` must be the field's domain's own grid.
    """
    if grid != field.domain.grid:
        raise ValueError("grid does not match the field's domain")
    if grid.width < 2:
        raise ValueError("x-derivative undefined: grid width < 2")
    if grid.height < 2:
        raise ValueError("y-derivative undefined: grid height < 2")
    z = field.values.reshape(grid.height, grid.width)
    gy, gx = np.gradient(z, grid.spacing)
    return GradientField(domain=field.domain, gx=gx.ravel(), gy=gy.ravel())


def total_variation(field) -> float:
    """Sum of absolute value differences over all edges.

    Accepts a ScalarField or a GradientField; for gradients the two
    components' variations are added.  Used as a smoothness proxy.  On a
    grid each neighbor step's differences are summed apart, from shifted
    slices, so the sum may differ in its last bits from one in edge order.
    """
    if isinstance(field, GradientField):
        return float(sum(j.sum() for j in _edge_jumps(field.domain, field.gx))
                     + sum(j.sum() for j in _edge_jumps(field.domain, field.gy)))
    if isinstance(field, ScalarField):
        return float(sum(j.sum() for j in _edge_jumps(field.domain, field.values)))
    raise TypeError("total_variation expects a ScalarField or GradientField")


def _taylor_blend(domain: Domain, coords: np.ndarray, values: np.ndarray,
                  gx: np.ndarray, gy: np.ndarray,
                  sample_verts: np.ndarray, sample_vals: np.ndarray,
                  sweeps: int) -> np.ndarray:
    """Average first-order Taylor predictions from neighbors, repeatedly.

    new(p) = mean over neighbors q of
                 value(q) + gx(q) (px - qx) + gy(q) (py - qy),
    with sample vertices re-clamped to their raw values after every
    sweep.  Splitting the sum gives per-vertex constants that depend only
    on the gradient, so each sweep costs one neighbor-sum of the values.
    """
    x, y = coords[:, 0], coords[:, 1]
    deg = _neighbor_sums(domain, np.ones(len(values)))
    a_gx = _neighbor_sums(domain, gx)
    a_gxx = _neighbor_sums(domain, gx * x)
    a_gy = _neighbor_sums(domain, gy)
    a_gyy = _neighbor_sums(domain, gy * y)
    const = x * a_gx - a_gxx + y * a_gy - a_gyy
    out = np.array(values, dtype=np.float64)
    for _ in range(sweeps):
        blended = (_neighbor_sums(domain, out) + const) / deg
        blended[sample_verts] = sample_vals
        out = blended
    return out


def smooth_reconstruct(dom, samples: Mapping[int, float], order: int = 1,
                       sweeps: int = 10) -> ScalarField:
    """Reconstruct a field from samples with increasing smoothness order.

    order=0 is the plain level-extension fit with sample vertices set to
    their raw values.  Each higher order runs one refinement round:
    differentiate the current field, fit the gradient components from
    their values at the sample vertices (each with its own level
    spacing), then apply `sweeps` Taylor-blend passes using the fitted
    gradient.  Infeasible samples raise InfeasibleError with a witness.

    Keep sweeps modest (default 10): each round's blend converges toward
    a fixed point whose roughness tracks the fitted gradient's staircase,
    so very large sweep counts can roughen a later round instead of
    smoothing it.

    ``dom`` is a GridSpec or a :func:`build_grid` Domain (whose recorded
    grid is used), or any other Domain for order=0 only (derivative
    stencils need grid structure).
    """
    order, sweeps = _count(order, "order", 0), _count(sweeps, "sweeps", 0)
    if order > 2:
        raise ValueError("order must be 0, 1 or 2")
    domain = _as_domain(dom)
    if order >= 1 and domain.grid is None:
        raise ValueError("orders >= 1 need a grid domain for derivatives")

    fit = fit_gvf(domain, samples)
    sample_verts = fit.guiding.vertices
    sample_vals = fit.guiding.raw_values
    values = np.array(to_scalar(fit.field).values)
    values[sample_verts] = sample_vals
    for _ in range(order):
        field = ScalarField(domain=domain, values=values)
        grad = discrete_gradient(field, domain.grid)
        gx_fit = fit_gvf(domain, {int(v): float(grad.gx[v]) for v in sample_verts})
        gy_fit = fit_gvf(domain, {int(v): float(grad.gy[v]) for v in sample_verts})
        gx_s = to_scalar(gx_fit.field).values
        gy_s = to_scalar(gy_fit.field).values
        values = _taylor_blend(domain, domain.coords, values, gx_s, gy_s,
                               sample_verts, sample_vals, sweeps)
    return ScalarField(domain=domain, values=values)
