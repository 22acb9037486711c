"""Smoothness post-processing for fitted fields.

Three tools: Jacobi relaxation toward a discrete harmonic field with
fixed (Dirichlet) vertices, finite-difference gradients on grid domains,
and an iterated Taylor-blend pipeline that re-fits derivative fields to
push the reconstruction toward higher-order smoothness.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .domain import Domain, GridSpec, build_grid
from .fields import ScalarField
from .gvf import _sample_arrays, fit_gvf, to_scalar


@dataclass(frozen=True)
class RelaxReport:
    """Outcome of a relaxation run."""

    iterations_run: int
    final_residual: float

    def __post_init__(self):
        if self.iterations_run < 0 or not self.final_residual >= 0:
            raise ValueError("iterations must be >= 0 and residual nonnegative")


@dataclass(frozen=True)
class GradientField:
    """Per-vertex first-derivative components on a grid domain."""

    domain: Domain
    grid: GridSpec
    gx: np.ndarray
    gy: np.ndarray

    def __post_init__(self):
        for name in ("gx", "gy"):
            a = np.asarray(getattr(self, name), dtype=np.float64)
            if a.shape != (self.domain.vertex_count,):
                raise ValueError(f"{name} length must equal the domain vertex count")
            if not np.isfinite(a).all():
                raise ValueError(f"{name} must be finite everywhere")
            a = np.array(a)
            a.setflags(write=False)
            object.__setattr__(self, name, a)


def _neighbor_sums(domain: Domain, values: np.ndarray) -> np.ndarray:
    src, dst = domain.directed_pairs()
    return np.bincount(src, weights=values[dst], minlength=domain.vertex_count)


def harmonic_relax(field: ScalarField, fixed: Mapping[int, float],
                   max_iter: int = 100, tol: float = 1e-9,
                   ) -> tuple[ScalarField, RelaxReport]:
    """Jacobi-relax toward the discrete harmonic field with Dirichlet data.

    Each sweep replaces every free vertex by the arithmetic mean of its
    neighbors, all from the previous sweep's snapshot; fixed vertices
    keep their prescribed values throughout.  Stops after max_iter sweeps
    or once the largest single-vertex update drops below tol.  Every free
    value stays inside [min, max] of the fixed values and initial free
    values, since means cannot escape that band.
    """
    domain = field.domain
    fixed_verts, fixed_vals = _sample_arrays(domain, fixed, "fixed")
    if max_iter < 0:
        raise ValueError("max_iter must be >= 0")
    if not tol >= 0:
        raise ValueError("tol must be nonnegative")

    free = np.ones(domain.vertex_count, dtype=bool)
    free[fixed_verts] = False
    degrees = domain.degrees
    if (degrees[free] == 0).any():
        v = int(np.nonzero(free & (degrees == 0))[0][0])
        raise ValueError(f"free vertex {v} has no neighbors; its mean is undefined")

    values = np.array(field.values, dtype=np.float64)
    values[fixed_verts] = fixed_vals
    iterations = 0
    residual = 0.0
    if free.any():
        deg = degrees.astype(np.float64)
        for _ in range(max_iter):
            means = _neighbor_sums(domain, values) / np.where(deg > 0, deg, 1.0)
            update = np.abs(means[free] - values[free]).max()
            values[free] = means[free]
            iterations += 1
            residual = float(update)
            if residual < tol:
                break
    return ScalarField(domain=domain, values=values), RelaxReport(
        iterations_run=iterations, final_residual=residual)


def discrete_gradient(field: ScalarField, grid: GridSpec) -> GradientField:
    """Finite-difference gradient of a grid field.

    Central differences (f(x+h) - f(x-h)) / 2h in the interior, one-sided
    two-point differences on the borders, h = grid spacing.  Exact for
    affine fields everywhere and for quadratics away from the borders.
    """
    if field.domain.vertex_count != grid.vertex_count:
        raise ValueError("field length does not match the grid")
    if grid.width < 2:
        raise ValueError("x-derivative undefined: grid width < 2")
    if grid.height < 2:
        raise ValueError("y-derivative undefined: grid height < 2")
    z = field.values.reshape(grid.height, grid.width)
    gy, gx = np.gradient(z, grid.spacing)
    return GradientField(domain=field.domain, grid=grid,
                         gx=gx.ravel(), gy=gy.ravel())


def total_variation(field) -> float:
    """Sum of absolute value differences over all edges.

    Accepts a ScalarField or a GradientField; for gradients the two
    components' variations are added.  Used as a smoothness proxy.
    """
    if isinstance(field, GradientField):
        src, dst = field.domain.edge_pairs()
        return float(np.abs(field.gx[src] - field.gx[dst]).sum()
                     + np.abs(field.gy[src] - field.gy[dst]).sum())
    if isinstance(field, ScalarField):
        src, dst = field.domain.edge_pairs()
        return float(np.abs(field.values[src] - field.values[dst]).sum())
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
    deg = domain.degrees.astype(np.float64)
    safe_deg = np.where(deg > 0, deg, 1.0)
    a_gx = _neighbor_sums(domain, gx)
    a_gxx = _neighbor_sums(domain, gx * x)
    a_gy = _neighbor_sums(domain, gy)
    a_gyy = _neighbor_sums(domain, gy * y)
    const = x * a_gx - a_gxx + y * a_gy - a_gyy
    out = np.array(values, dtype=np.float64)
    for _ in range(sweeps):
        blended = (_neighbor_sums(domain, out) + const) / safe_deg
        blended = np.where(deg > 0, blended, out)
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
    if order not in (0, 1, 2):
        raise ValueError("order must be 0, 1 or 2")
    if sweeps < 0:
        raise ValueError("sweeps must be >= 0")
    if isinstance(dom, GridSpec):
        grid = dom
        domain = build_grid(grid)
    elif isinstance(dom, Domain):
        grid = dom._grid
        domain = dom
        if order >= 1 and grid is None:
            raise ValueError("orders >= 1 need a grid domain for derivatives")
    else:
        raise TypeError("dom must be a GridSpec or Domain")

    fit = fit_gvf(domain, samples)
    sample_verts = fit.guiding.vertices
    sample_vals = fit.guiding.raw_values
    values = np.array(to_scalar(fit.field).values)
    values[sample_verts] = sample_vals
    if order == 0:
        return ScalarField(domain=domain, values=values)

    coords = domain.coords
    for _ in range(order):
        field = ScalarField(domain=domain, values=values)
        grad = discrete_gradient(field, grid)
        gx_fit = fit_gvf(domain, {int(v): float(grad.gx[v]) for v in sample_verts})
        gy_fit = fit_gvf(domain, {int(v): float(grad.gy[v]) for v in sample_verts})
        gx_s = to_scalar(gx_fit.field).values
        gy_s = to_scalar(gy_fit.field).values
        values = _taylor_blend(domain, coords, values, gx_s, gy_s,
                               sample_verts, sample_vals, sweeps)
    return ScalarField(domain=domain, values=values)
