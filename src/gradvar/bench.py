"""Seeded synthetic benchmarks comparing the fitting methods.

Each trial draws a ground-truth surface and a sample layout from a named
generator, runs the configured methods on identical samples, and records
error metrics per method.  Failures become tagged rows instead of
aborting the run, so one method's breakdown still leaves the others'
numbers in the table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .baselines import (GaussianWeight, MlsConfig, SamplePoints, ShepardConfig,
                        evaluate_on_domain)
from .domain import Domain, GridSpec, bfs_distances, build_grid
from .fields import ScalarField
from .fileio import atomic_write_text
from .gvf import fit_gvf, to_scalar
from .metrics import compute_metrics
from .smoothing import harmonic_relax

GENERATORS = ("affine", "gaussian-bump", "sinusoid", "two-line-samples",
              "boundary-ring")
METHODS = ("gvf", "harmonic", "mls", "shepard")


def _truth_values(name: str, grid: GridSpec, rng: np.random.Generator) -> np.ndarray:
    coords = grid.coords_array()
    x, y = coords[:, 0], coords[:, 1]
    ex = max(grid.width - 1, 1) * grid.spacing
    ey = max(grid.height - 1, 1) * grid.spacing
    if name == "affine":
        a, b = rng.uniform(-2.0, 2.0, size=2)
        c = rng.uniform(-1.0, 1.0)
        return a * x + b * y + c
    # The line and ring layouts reuse the bump surface; only sampling differs.
    if name in ("gaussian-bump", "two-line-samples", "boundary-ring"):
        cx = rng.uniform(0.25, 0.75) * ex
        cy = rng.uniform(0.25, 0.75) * ey
        sigma = rng.uniform(0.15, 0.3) * max(ex, ey)
        amp = rng.uniform(1.0, 3.0)
        off = rng.uniform(-1.0, 1.0)
        return amp * np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / (2 * sigma ** 2)) + off
    if name == "sinusoid":
        kx = rng.uniform(0.5, 1.5) * 2 * np.pi / ex
        ky = rng.uniform(0.5, 1.5) * 2 * np.pi / ey
        phase = rng.uniform(0, 2 * np.pi)
        amp = rng.uniform(1.0, 2.0)
        return amp * np.sin(kx * x + ky * y + phase)
    raise ValueError(f"unknown generator {name!r}; choose from {GENERATORS}")


def _sample_vertices(name: str, grid: GridSpec, rng: np.random.Generator,
                     count: int, trial: int) -> np.ndarray:
    w, h = grid.width, grid.height
    if name == "two-line-samples":
        lines = 1 + trial % 2
        rows = rng.choice(h, size=lines, replace=False)
        per = min(w, max(2, count // lines))
        verts = []
        for r in rows:
            cols = rng.choice(w, size=per, replace=False)
            verts.extend(int(r) * w + cols)
        return np.unique(np.array(verts, dtype=np.int64))
    if name == "boundary-ring":
        top = np.arange(w)
        bottom = (h - 1) * w + np.arange(w)
        left = np.arange(1, h - 1) * w
        right = np.arange(1, h - 1) * w + (w - 1)
        ring = np.unique(np.concatenate([top, bottom, left, right]))
        if count >= len(ring):
            return ring
        pick = np.linspace(0, len(ring) - 1, num=count).astype(np.int64)
        return ring[np.unique(pick)]
    return np.sort(rng.choice(w * h, size=min(count, w * h), replace=False))


class BenchCase(NamedTuple):
    truth: ScalarField
    sample_verts: np.ndarray
    sample_map: dict[int, float]
    points: SamplePoints


def make_case(name: str, grid: GridSpec, domain: Domain, seed: int,
              trial: int, count: int) -> BenchCase:
    """Deterministically generate one trial's truth surface and samples."""
    rng = np.random.default_rng([seed, trial, GENERATORS.index(name)])
    truth = ScalarField(domain=domain, values=_truth_values(name, grid, rng))
    verts = _sample_vertices(name, grid, rng, count, trial)
    vmap = {int(v): float(truth.values[v]) for v in verts}
    points = SamplePoints(xy=domain.coords[verts],
                          values=truth.values[verts])
    return BenchCase(truth=truth, sample_verts=verts, sample_map=vmap,
                     points=points)


def gvf_error_bound(domain: Domain, truth: ScalarField, fitted: ScalarField,
                    sample_verts: np.ndarray, delta: float) -> float:
    """A-priori max-error bound for the level-extension fit.

    q is the worst error at the sample vertices themselves (pure
    quantization, known exactly since samples carry true values).
    Walking at most R hops (R = covering radius of the sample set)
    changes the fit by at most delta per hop and the truth by at most
    the largest truth jump s across any edge.  Hence
    max error <= q + R * (delta + s).
    """
    q = float(np.abs(fitted.values[sample_verts]
                     - truth.values[sample_verts]).max())
    dist = bfs_distances(domain, sample_verts.tolist()).dist
    radius = int(dist.max())
    src, dst = domain.edge_pairs()
    s = float(np.abs(truth.values[src] - truth.values[dst]).max()) if src.size else 0.0
    return q + radius * (delta + s)


@dataclass(frozen=True)
class BenchRow:
    trial: int
    generator: str
    method: str
    rmse: float | None
    max_abs_error: float | None
    tv_gradient: float | None
    fallback_count: int
    gvf_error_bound: float | None
    error: str

    def csv(self) -> str:
        def num(v):
            return "" if v is None else repr(v)
        return ",".join([str(self.trial), self.generator, self.method,
                         num(self.rmse), num(self.max_abs_error),
                         num(self.tv_gradient), str(self.fallback_count),
                         num(self.gvf_error_bound),
                         self.error.replace(",", ";")])


CSV_HEADER = ("trial,generator,method,rmse,max_abs_error,tv_gradient,"
              "fallback_count,gvf_error_bound,error")


def _run_method(method: str, case: BenchCase, grid: GridSpec, domain: Domain,
                mls_degree: int, mls_weight, shepard_power: float,
                iters: int, tol: float):
    """Returns (field, fallback_count, bound or None)."""
    if method == "gvf":
        fit = fit_gvf(domain, case.sample_map)
        field = to_scalar(fit.field)
        bound = gvf_error_bound(domain, case.truth, field, case.sample_verts,
                                fit.delta)
        return field, 0, bound
    if method == "harmonic":
        fit = fit_gvf(domain, case.sample_map)
        init = to_scalar(fit.field)
        relaxed, _ = harmonic_relax(init, case.sample_map, max_iter=iters, tol=tol)
        return relaxed, 0, None
    if method == "mls":
        cfg = MlsConfig(degree=mls_degree, weight=mls_weight)
        fit = evaluate_on_domain(cfg, case.points, domain)
        return fit.field, len(fit.fallback_vertices), None
    if method == "shepard":
        cfg = ShepardConfig(power=shepard_power)
        fit = evaluate_on_domain(cfg, case.points, domain)
        return fit.field, 0, None
    raise ValueError(f"unknown method {method!r}; choose from {METHODS}")


def run_bench(grid: GridSpec, generators, methods, trials: int, count: int,
              seed: int, mls_degree: int = 1, shepard_power: float = 2.0,
              iters: int = 100, tol: float = 1e-9,
              verbose: bool = True) -> list[BenchRow]:
    """Run every (trial, generator, method) combination on one grid."""
    if trials < 1 or count < 1:
        raise ValueError("trials and sample count must be positive")
    domain = build_grid(grid)
    weight = GaussianWeight(scale=max(grid.width, grid.height) * grid.spacing / 4)
    rows: list[BenchRow] = []
    for trial in range(trials):
        for gen in generators:
            case = make_case(gen, grid, domain, seed, trial, count)
            for method in methods:
                try:
                    field, fallbacks, bound = _run_method(
                        method, case, grid, domain, mls_degree, weight,
                        shepard_power, iters, tol)
                    m = compute_metrics(field, case.truth, grid=grid)
                    rows.append(BenchRow(trial, gen, method, m.rmse,
                                         m.max_abs_error, m.tv_gradient,
                                         fallbacks, bound, ""))
                    if verbose and bound is not None:
                        print(f"trial {trial} {gen}: gvf max-error bound "
                              f"{bound!r} (observed rmse {m.rmse!r})")
                except Exception as exc:  # noqa: BLE001 - rows record failures
                    rows.append(BenchRow(trial, gen, method, None, None, None,
                                         0, None, f"{type(exc).__name__}: {exc}"))
    return rows


def write_bench_csv(path, rows) -> None:
    atomic_write_text(path, "\n".join([CSV_HEADER] + [r.csv() for r in rows]) + "\n")
