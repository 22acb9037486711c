"""Command-line front end.

Subcommands: `check` (feasibility verdict with witness), `fit` (run one
method and export field, renders, metrics), `bench` (seeded synthetic
comparison runs), `render` (re-render an exported field CSV).

Exit codes are a contract: 0 success, 1 usage or I/O error, 2 infeasible
guiding data.
"""

from __future__ import annotations

import argparse
import os
import sys

from .baselines import (GaussianWeight, InversePowerWeight, MlsConfig,
                        SamplePoints, ShepardConfig, evaluate_on_domain)
from .bench import GENERATORS, METHODS, run_bench, write_bench_csv
from .domain import Domain, GridSpec, build_graph, build_grid, load_mesh
from .fields import ScalarField
from .fileio import (read_edge_list, read_field_csv, read_samples_csv,
                     sample_coords, snap_to_vertices, write_level_csv,
                     write_metrics_json, write_scalar_csv)
from .gvf import InfeasibleError, check_feasibility, fit_gvf, lipschitz_delta, \
    quantize, to_scalar
from .metrics import compute_metrics
from .render import render_heatmap, render_heightmesh, render_pgm16
from .smoothing import (discrete_gradient, harmonic_relax, smooth_reconstruct,
                        total_variation)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags; 2 is reserved for
    infeasibility here, so usage failures are rerouted to exit 1."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: error: {message}")


def _add_domain_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--grid", metavar="WxH", help="grid domain, e.g. 32x32")
    p.add_argument("--connectivity", choices=["4", "8"], default="4",
                   help="grid neighborhood (default 4)")
    p.add_argument("--spacing", type=float, default=1.0,
                   help="grid spacing (default 1.0)")
    p.add_argument("--mesh", metavar="FILE", help="OBJ mesh domain")
    p.add_argument("--edges", metavar="FILE",
                   help="edge-list domain ('vertices N' then 'a b' lines)")


def _parse_grid(text: str, connectivity: str, spacing: float) -> GridSpec:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise ValueError(f"--grid wants WxH, got {text!r}")
    try:
        w, h = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"--grid wants integers WxH, got {text!r}") from None
    return GridSpec(width=w, height=h,
                    connectivity="four" if connectivity == "4" else "eight",
                    spacing=spacing)


def _resolve_domain(args) -> tuple[Domain, GridSpec | None]:
    picked = [x for x in (args.grid, args.mesh, args.edges) if x]
    if len(picked) != 1:
        raise ValueError("specify exactly one of --grid, --mesh, --edges")
    if args.grid:
        grid = _parse_grid(args.grid, args.connectivity, args.spacing)
        return build_grid(grid), grid
    if args.mesh:
        return load_mesh(args.mesh), None
    count, edges = read_edge_list(args.edges)
    return build_graph(edges, count), None


def _parse_delta(text: str) -> float | None:
    if text == "auto":
        return None
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"--delta wants a number or 'auto', got {text!r}") from None
    if not value > 0:
        raise ValueError("--delta must be positive")
    return value


def _parse_weight(text: str):
    """gaussian[:scale] or invpow:power[,epsilon]."""
    name, _, rest = text.partition(":")
    if name == "gaussian":
        return GaussianWeight(scale=float(rest) if rest else 1.0)
    if name == "invpow":
        if not rest:
            raise ValueError("invpow weight needs a power, e.g. invpow:2")
        parts = rest.split(",")
        return InversePowerWeight(power=float(parts[0]),
                                  epsilon=float(parts[1]) if len(parts) > 1 else 0.0)
    raise ValueError(f"unknown weight {text!r}; use gaussian[:scale] or "
                     f"invpow:power[,epsilon]")


def _load_samples(args, domain: Domain, grid: GridSpec | None):
    parsed = read_samples_csv(args.samples)
    vmap = snap_to_vertices(parsed, grid, domain)
    return parsed, vmap


def _domain_description(args) -> dict:
    if args.grid:
        return {"grid": args.grid, "connectivity": args.connectivity,
                "spacing": args.spacing}
    if args.mesh:
        return {"mesh": args.mesh}
    return {"edges": args.edges}


def cmd_check(args) -> int:
    domain, grid = _resolve_domain(args)
    _, vmap = _load_samples(args, domain, grid)
    delta = _parse_delta(args.delta)
    if delta is None:
        delta = lipschitz_delta(domain, vmap)
    table, guiding = quantize(domain, vmap, delta)
    verdict = check_feasibility(domain, guiding)
    if verdict.feasible:
        print(f"feasible: {len(guiding)} guiding points, {table.count} levels, "
              f"delta {table.delta!r}")
        return 0
    print(f"infeasible: {verdict.witness.describe()}")
    return 2


def _write_renders(field: ScalarField, grid: GridSpec, out: str) -> list[str]:
    written = []
    for name, writer in (("heatmap.ppm", render_heatmap),
                         ("height.pgm", render_pgm16),
                         ("height.obj", render_heightmesh)):
        path = os.path.join(out, name)
        writer(field, grid, path)
        written.append(path)
    return written


def cmd_fit(args) -> int:
    domain, grid = _resolve_domain(args)
    parsed, vmap = _load_samples(args, domain, grid)
    delta = _parse_delta(args.delta)
    os.makedirs(args.out, exist_ok=True)
    written = []
    extra: dict = {}

    if args.method == "gvf":
        fit = fit_gvf(domain, vmap, delta=delta, policy=args.policy)
        scalar = to_scalar(fit.field)
        path = os.path.join(args.out, "field.csv")
        write_level_csv(path, fit.field)
        written.append(path)
        extra["delta"] = fit.delta
    elif args.method == "smooth":
        scalar = smooth_reconstruct(domain, vmap, order=args.order,
                                    sweeps=args.sweeps)
    elif args.method == "harmonic":
        fit = fit_gvf(domain, vmap, delta=delta)
        scalar, report = harmonic_relax(to_scalar(fit.field), vmap,
                                        max_iter=args.iters, tol=args.tol)
        extra["iterations_run"] = report.iterations_run
        extra["final_residual"] = report.final_residual
    elif args.method in ("mls", "shepard"):
        rows = sample_coords(parsed, domain)
        points = SamplePoints.from_points(rows)
        if args.method == "mls":
            cfg = MlsConfig(degree=args.order, weight=_parse_weight(args.weight))
        else:
            cfg = ShepardConfig(power=args.power)
        result = evaluate_on_domain(cfg, points, domain)
        scalar = result.field
        if args.method == "mls":
            extra["fallback_vertices"] = len(result.fallback_vertices)
    else:
        raise ValueError(f"unknown method {args.method!r}")

    if args.method != "gvf":
        path = os.path.join(args.out, "field.csv")
        write_scalar_csv(path, scalar.values)
        written.append(path)
    if grid is not None:
        written.extend(_write_renders(scalar, grid, args.out))

    payload = {"method": args.method, **extra}
    if args.truth:
        truth_csv = read_field_csv(args.truth)
        if len(truth_csv.values) != domain.vertex_count:
            raise ValueError("truth field length does not match the domain")
        truth = ScalarField(domain=domain, values=truth_csv.values)
        m = compute_metrics(scalar, truth, grid=grid)
        payload.update(rmse=m.rmse, max_abs_error=m.max_abs_error,
                       tv_gradient=m.tv_gradient)
    else:
        smoothness_of = discrete_gradient(scalar, grid) if grid is not None \
            else scalar
        payload["tv_gradient"] = total_variation(smoothness_of)
    metrics_path = os.path.join(args.out, "metrics.json")
    write_metrics_json(metrics_path, payload)
    written.append(metrics_path)

    run_path = os.path.join(args.out, "run.json")
    write_metrics_json(run_path, {
        "command": "fit", "domain": _domain_description(args),
        "samples": args.samples, "method": args.method,
        "delta": args.delta, "policy": args.policy, "order": args.order,
        "sweeps": args.sweeps, "iters": args.iters, "tol": args.tol})
    written.append(run_path)
    for path in written:
        print(f"wrote {path}")
    return 0


def cmd_bench(args) -> int:
    if not args.grid:
        raise ValueError("bench runs on grid domains; pass --grid WxH")
    grid = _parse_grid(args.grid, args.connectivity, args.spacing)
    gens = GENERATORS if args.generator == "all" else \
        tuple(args.generator.split(","))
    for g in gens:
        if g not in GENERATORS:
            raise ValueError(f"unknown generator {g!r}; choose from {GENERATORS}")
    methods = METHODS if args.method == "all" else tuple(args.method.split(","))
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}; choose from {METHODS}")
    rows = run_bench(grid, gens, methods, trials=args.trials, count=args.points,
                     seed=args.seed, mls_degree=args.order,
                     shepard_power=args.power, iters=args.iters, tol=args.tol)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "bench.csv")
    write_bench_csv(path, rows)
    failures = sum(1 for r in rows if r.error)
    print(f"wrote {path} ({len(rows)} rows, {failures} failed)")
    return 0


def cmd_render(args) -> int:
    if not args.grid:
        raise ValueError("render needs a grid domain; pass --grid WxH")
    grid = _parse_grid(args.grid, args.connectivity, args.spacing)
    domain = build_grid(grid)
    csv = read_field_csv(args.field)
    if len(csv.values) != domain.vertex_count:
        raise ValueError("field length does not match the grid")
    field = ScalarField(domain=domain, values=csv.values)
    os.makedirs(args.out, exist_ok=True)
    for path in _write_renders(field, grid, args.out):
        print(f"wrote {path}")
    return 0


def _build_parser() -> _Parser:
    p = _Parser(prog="gradvar",
                description="Gradually varied fitting of scattered samples "
                            "on graph domains, with smoothing and baselines.")
    sub = p.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("check", help="feasibility verdict for a sample set")
    _add_domain_flags(pc)
    pc.add_argument("--samples", required=True, metavar="FILE")
    pc.add_argument("--delta", default="auto",
                    help="level spacing, number or 'auto' (default)")
    pc.set_defaults(func=cmd_check)

    pf = sub.add_parser("fit", help="fit one method and export results")
    _add_domain_flags(pf)
    pf.add_argument("--samples", required=True, metavar="FILE")
    pf.add_argument("--method", default="gvf",
                    choices=["gvf", "smooth", "harmonic", "mls", "shepard"])
    pf.add_argument("--delta", default="auto",
                    help="level spacing for gvf/harmonic (default auto)")
    pf.add_argument("--policy", default="midpoint",
                    choices=["midpoint", "lower", "upper"])
    pf.add_argument("--order", type=int, default=1, choices=[0, 1, 2],
                    help="smoothing order for smooth, degree for mls")
    pf.add_argument("--sweeps", type=int, default=10,
                    help="Taylor-blend sweeps per smoothing round")
    pf.add_argument("--iters", type=int, default=100,
                    help="max harmonic relaxation iterations")
    pf.add_argument("--tol", type=float, default=1e-9,
                    help="relaxation stop threshold")
    pf.add_argument("--weight", default="gaussian:1",
                    help="mls weight: gaussian[:scale] or invpow:p[,eps]")
    pf.add_argument("--power", type=float, default=2.0,
                    help="shepard inverse-distance power")
    pf.add_argument("--out", default=".", metavar="DIR")
    pf.add_argument("--truth", metavar="FILE",
                    help="vertex,value CSV to score against")
    pf.set_defaults(func=cmd_fit)

    pb = sub.add_parser("bench", help="seeded synthetic comparison runs")
    _add_domain_flags(pb)
    pb.add_argument("--generator", default="all",
                    help=f"comma list from {', '.join(GENERATORS)} or 'all'")
    pb.add_argument("--method", default="all",
                    help=f"comma list from {', '.join(METHODS)} or 'all'")
    pb.add_argument("--trials", type=int, default=3)
    pb.add_argument("--points", type=int, default=20,
                    help="samples per trial")
    pb.add_argument("--order", type=int, default=1, choices=[0, 1, 2],
                    help="mls degree")
    pb.add_argument("--power", type=float, default=2.0)
    pb.add_argument("--iters", type=int, default=100)
    pb.add_argument("--tol", type=float, default=1e-9)
    pb.add_argument("--seed", type=int, default=0)
    pb.add_argument("--out", default=".", metavar="DIR")
    pb.set_defaults(func=cmd_bench)

    pr = sub.add_parser("render", help="render an exported field CSV")
    _add_domain_flags(pr)
    pr.add_argument("--field", required=True, metavar="FILE")
    pr.add_argument("--out", default=".", metavar="DIR")
    pr.set_defaults(func=cmd_render)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except InfeasibleError as exc:
        print(f"infeasible: {exc.witness.describe()}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
