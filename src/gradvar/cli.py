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
import warnings

from .baselines import GaussianWeight, InversePowerWeight, SamplePoints, ShepardConfig
from .bench import GENERATORS, METHODS, POINTWISE, fit_method, run_bench, write_bench_csv
from .domain import Domain, GridSpec, _count, build_graph, build_grid, load_mesh
from .fields import ScalarField
from .fileio import (read_edge_list, read_field_csv, read_samples_csv,
                     sample_coords, snap_to_vertices, write_level_csv,
                     write_metrics_json, write_scalar_csv)
from .gvf import InfeasibleError, check_feasibility, lipschitz_delta, quantize
from .metrics import _tv_gradient, compute_metrics
from .render import render_heatmap, render_heightmesh, render_pgm16
from .smoothing import _relax_options


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags; 2 is reserved for
    infeasibility here, so usage failures are rerouted to exit 1."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: error: {message}")


def _add_domain_flags(p: argparse.ArgumentParser, grid_only: bool) -> None:
    """--grid with its --connectivity and --spacing; unless ``grid_only``,
    also --mesh and --edges, of which argparse takes exactly one."""
    kinds = p if grid_only else p.add_mutually_exclusive_group(required=True)
    kinds.add_argument("--grid", metavar="WxH", required=grid_only,
                       help="grid domain, e.g. 32x32")
    p.add_argument("--connectivity", choices=["4", "8"], default="4",
                   help="grid neighborhood (default 4)")
    p.add_argument("--spacing", type=float, default=1.0,
                   help="grid spacing (default 1.0)")
    if not grid_only:
        kinds.add_argument("--mesh", metavar="FILE", help="OBJ mesh domain")
        kinds.add_argument("--edges", metavar="FILE",
                           help="edge-list domain ('vertices N' then 'a b' lines)")


def _add_method_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--order", type=int, default=1, choices=[0, 1, 2],
                   help="smoothing order for smooth, degree for mls")
    p.add_argument("--iters", type=int, default=100,
                   help="max harmonic conjugate-gradient iterations")
    p.add_argument("--tol", type=float, default=1e-9,
                   help="harmonic stop: every free vertex within tol of its"
                        " neighbors' mean")
    p.add_argument("--power", type=float, default=2.0,
                   help="shepard inverse-distance power")


def _resolve_domain(args) -> Domain:
    """The domain of the one domain flag the parser let through."""
    if args.grid is None:
        if args.mesh is not None:
            return load_mesh(args.mesh)
        count, edges = read_edge_list(args.edges)
        return build_graph(edges, count)
    parts = args.grid.lower().split("x")
    if len(parts) != 2:
        raise ValueError(f"--grid wants WxH, got {args.grid!r}")
    try:
        w, h = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"--grid wants integers WxH, got {args.grid!r}") from None
    return build_grid(GridSpec(
        width=w, height=h, spacing=args.spacing,
        connectivity="four" if args.connectivity == "4" else "eight"))


def _parse_delta(text: str) -> float | None:
    if text == "auto":
        return None
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"--delta wants a number or 'auto', got {text!r}") from None
    if not 0 < value < float("inf"):
        raise ValueError("--delta must be positive and finite")
    return value


def _parse_weight(text: str):
    """gaussian[:scale] or invpow:power[,epsilon]."""
    name, colon, rest = text.partition(":")
    weights = {"gaussian": (GaussianWeight, 1), "invpow": (InversePowerWeight, 2)}
    if name not in weights:
        raise ValueError(f"unknown weight {text!r}; use gaussian[:scale] or "
                         f"invpow:power[,epsilon]")
    if name == "invpow" and not rest:
        raise ValueError("invpow weight needs a power, e.g. invpow:2")
    weight, most = weights[name]
    parts = rest.split(",") if colon else []
    if len(parts) > most:
        raise ValueError(f"--weight {name} takes at most {most} number(s), "
                         f"got {text!r}")
    try:
        numbers = [float(part) for part in parts]
    except ValueError:
        raise ValueError(f"--weight wants numbers after '{name}:', "
                         f"got {text!r}") from None
    return weight(*numbers)


def _read_field(path, domain: Domain, mismatch: str) -> ScalarField:
    """Load a field CSV onto ``domain``; raise ``mismatch`` on a length mismatch."""
    values = read_field_csv(path).values
    if len(values) != domain.vertex_count:
        raise ValueError(mismatch)
    return ScalarField(domain=domain, values=values)


def _domain_description(args) -> dict:
    if args.grid is not None:
        return {"grid": args.grid, "connectivity": args.connectivity,
                "spacing": args.spacing}
    return {"mesh": args.mesh} if args.mesh is not None else {"edges": args.edges}


def cmd_check(args) -> int:
    domain = _resolve_domain(args)
    vmap = snap_to_vertices(read_samples_csv(args.samples), domain)
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


def _write_renders(field: ScalarField, out: str) -> list[str]:
    written = []
    for name, writer in (("heatmap.ppm", render_heatmap),
                         ("height.pgm", render_pgm16),
                         ("height.obj", render_heightmesh)):
        path = os.path.join(out, name)
        writer(field, path)
        written.append(path)
    return written


def cmd_fit(args) -> int:
    domain = _resolve_domain(args)
    rows = read_samples_csv(args.samples)
    samples = (SamplePoints.from_points(sample_coords(rows, domain))
               if args.method in POINTWISE else snap_to_vertices(rows, domain))
    delta = _parse_delta(args.delta)
    weight = _parse_weight(args.weight)
    # run.json records these for every method, so each must hold for any.
    _relax_options(args.iters, args.tol, "iters")
    ShepardConfig(power=args.power)
    _count(args.sweeps, "sweeps", 0)
    truth = None
    if args.truth:
        truth = _read_field(args.truth, domain,
                            "truth field length does not match the domain")
    scalar, levels, report = fit_method(
        args.method, domain, samples, delta=delta, policy=args.policy,
        order=args.order, sweeps=args.sweeps, iters=args.iters, tol=args.tol,
        weight=weight, power=args.power)

    os.makedirs(args.out, exist_ok=True)
    written = [os.path.join(args.out, "field.csv")]
    if levels is not None:
        write_level_csv(written[0], levels)
    else:
        write_scalar_csv(written[0], scalar.values)
    if domain.grid is not None:
        written.extend(_write_renders(scalar, args.out))

    payload = {"method": args.method, **report}
    if truth is not None:
        m = compute_metrics(scalar, truth)
        payload.update(rmse=m.rmse, max_abs_error=m.max_abs_error,
                       tv_gradient=m.tv_gradient)
    else:
        payload["tv_gradient"] = _tv_gradient(scalar)
    metrics_path = os.path.join(args.out, "metrics.json")
    write_metrics_json(metrics_path, payload)
    written.append(metrics_path)

    run_path = os.path.join(args.out, "run.json")
    write_metrics_json(run_path, {
        "command": "fit", "domain": _domain_description(args),
        "samples": args.samples, "method": args.method,
        "delta": args.delta, "policy": args.policy, "order": args.order,
        "sweeps": args.sweeps, "iters": args.iters, "tol": args.tol,
        "weight": args.weight, "power": args.power})
    written.append(run_path)
    for path in written:
        print(f"wrote {path}")
    return 0


def _pick(text: str, choices: tuple[str, ...], what: str) -> tuple[str, ...]:
    """A comma list drawn from ``choices``, or all of them for 'all'."""
    picked = choices if text == "all" else tuple(text.split(","))
    for name in picked:
        if name not in choices:
            raise ValueError(f"unknown {what} {name!r}; choose from {choices}")
    return picked


def cmd_bench(args) -> int:
    domain = _resolve_domain(args)
    gens = _pick(args.generator, GENERATORS, "generator")
    methods = _pick(args.method, METHODS, "method")
    rows = run_bench(domain, gens, methods, trials=args.trials,
                     count=_count(args.points, "points"), seed=args.seed,
                     order=args.order, power=args.power, iters=args.iters, tol=args.tol)
    for r in rows:
        if r.gvf_error_bound is not None:
            print(f"trial {r.trial} {r.generator}: gvf max-error bound "
                  f"{r.gvf_error_bound!r} (observed rmse {r.rmse!r})")
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "bench.csv")
    write_bench_csv(path, rows)
    failures = sum(1 for r in rows if r.error)
    print(f"wrote {path} ({len(rows)} rows, {failures} failed)")
    return 0


def cmd_render(args) -> int:
    domain = _resolve_domain(args)
    field = _read_field(args.field, domain,
                        "field length does not match the grid")
    os.makedirs(args.out, exist_ok=True)
    for path in _write_renders(field, args.out):
        print(f"wrote {path}")
    return 0


def _build_parser() -> _Parser:
    p = _Parser(prog="gradvar",
                description="Gradually varied fitting of scattered samples "
                            "on graph domains, with smoothing and baselines.")
    sub = p.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("check", help="feasibility verdict for a sample set")
    _add_domain_flags(pc, grid_only=False)
    pc.add_argument("--samples", required=True, metavar="FILE")
    pc.add_argument("--delta", default="auto",
                    help="level spacing, number or 'auto' (default)")
    pc.set_defaults(func=cmd_check)

    pf = sub.add_parser("fit", help="fit one method and export results")
    _add_domain_flags(pf, grid_only=False)
    pf.add_argument("--samples", required=True, metavar="FILE")
    pf.add_argument("--method", default="gvf", choices=METHODS)
    pf.add_argument("--delta", default="auto",
                    help="level spacing for gvf/harmonic (default auto)")
    pf.add_argument("--policy", default="midpoint",
                    choices=["midpoint", "lower", "upper"],
                    help="level choice for gvf and harmonic's gvf start")
    _add_method_flags(pf)
    pf.add_argument("--sweeps", type=int, default=10,
                    help="Taylor-blend sweeps per smoothing round")
    pf.add_argument("--weight", default="gaussian:1",
                    help="mls weight: gaussian[:scale] or invpow:p[,eps]")
    pf.add_argument("--out", default=".", metavar="DIR")
    pf.add_argument("--truth", metavar="FILE",
                    help="vertex,value CSV to score against")
    pf.set_defaults(func=cmd_fit)

    pb = sub.add_parser("bench", help="seeded synthetic comparison runs")
    _add_domain_flags(pb, grid_only=True)
    pb.add_argument("--generator", default="all",
                    help=f"comma list from {', '.join(GENERATORS)} or 'all'")
    pb.add_argument("--method", default="all",
                    help=f"comma list from {', '.join(METHODS)} or 'all'")
    pb.add_argument("--trials", type=int, default=3)
    pb.add_argument("--points", type=int, default=20,
                    help="samples per trial")
    _add_method_flags(pb)
    pb.add_argument("--seed", type=int, default=0)
    pb.add_argument("--out", default=".", metavar="DIR")
    pb.set_defaults(func=cmd_bench)

    pr = sub.add_parser("render", help="render an exported field CSV")
    _add_domain_flags(pr, grid_only=True)
    pr.add_argument("--field", required=True, metavar="FILE")
    pr.add_argument("--out", default=".", metavar="DIR")
    pr.set_defaults(func=cmd_render)
    return p


def main(argv=None) -> int:
    """Run one subcommand; a warning it raises prints as one ``warning:`` line."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        with warnings.catch_warnings():
            warnings.showwarning = lambda message, *_: print(
                f"warning: {message}", file=sys.stderr)
            return args.func(args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except InfeasibleError as exc:
        print(f"infeasible: {exc.witness.describe()}", file=sys.stderr)
        return 2
    except (OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
