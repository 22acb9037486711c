"""Seeded inputs, operation lists and output checks for the five workloads.

Each workload is a fixed list of ``gradvar`` CLI invocations on input files
generated here from the seed.  Every operation carries the check that is run
on its output after timing; the checks use ``reference`` only, never gradvar.

Sizes are chosen so that one pass over a workload takes a few seconds on a
2-core machine, which leaves several passes for a median in each run.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field

import numpy as np

import reference as ref

# grid-gvf: two connectivities of one grid, samples on a STRATA x STRATA lattice.
GVF_GRID = 128
GVF_STRATA = 7
# mesh-gvf: a jittered MESH x MESH lattice, each cell split on a random diagonal.
MESH_SIDE = 128
MESH_STRATA = 7
MESH_JITTER = 0.3
# grid-harmonic, grid-smooth and grid-baselines: one smaller grid; Shepard on a larger one.
METHODS_GRID = 72
SHEPARD_GRID = 144
METHODS_STRATA = 6
ROW_SAMPLES = 16
HARMONIC_ITERS = 3000
HARMONIC_TOL = 1e-12          # below any update reached in HARMONIC_ITERS sweeps
HARMONIC_ACCURACY = 1e-4      # max-abs distance to the sparse direct solve
SMOOTH_ORDER = 2
SMOOTH_SWEEPS = 10            # the CLI default, passed explicitly
SMOOTH_TOL = 1e-9
MLS_SCALE = 14.0              # about one sample spacing; exp(-(102/14)^2) > 0
MLS_TOL = 1e-8
SHEPARD_POWER = 2.0
SHEPARD_TOL = 1e-12
# Each sample lies in the middle JITTER share of its stratum, placed by the seed.
JITTER = 0.2
# The infeasible check uses this share of the Lipschitz spacing.
INFEASIBLE_SHARE = 0.25

class CheckFailed(Exception):
    """An output disagrees with the reference or a property of the method."""


def expect(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass
class Case:
    """One domain with its samples, truth field and reference distances."""

    name: str
    domain_args: list              # the CLI arguments that select the domain
    setup_call: str                # the gradvar.domain call that builds it
    n: int
    edges: np.ndarray
    table: np.ndarray
    xy: np.ndarray
    verts: np.ndarray
    values: np.ndarray
    truth: np.ndarray
    samples_path: str
    truth_path: str
    dist_rows: np.ndarray = field(repr=False)
    grid: tuple | None = None      # (width, height) on grid domains

    @property
    def pair_dist(self) -> np.ndarray:
        return self.dist_rows[:, self.verts]

    @property
    def lipschitz(self) -> float:
        return ref.lipschitz_spacing(self.values, self.pair_dist)


@dataclass
class Op:
    """One CLI call: its argv, expected exit code, kind and output check."""

    name: str
    kind: str                      # check | check_infeasible | fit | render
    argv: list
    exit_code: int
    verify: object                 # callable(stdout), raises CheckFailed
    out: str | None = None
    case: Case | None = None       # the domain it runs on, with its truth

    def fit_rmse(self) -> float:
        """The benchmark's own RMSE of this fit's field against the truth."""
        values, _ = read_field(self.case, self.out)
        return rmse(values, self.case.truth)


# -- input generation -----------------------------------------------------------

def truth_surface(x: np.ndarray, y: np.ndarray, extent: float) -> np.ndarray:
    """The smooth surface every workload samples: a tilted wave plus a bump.

    It does not depend on the seed, so that the fit errors of two seeds differ
    only through where the samples fall.
    """
    bump = np.exp(-((x - 0.4 * extent) ** 2 + (y - 0.6 * extent) ** 2)
                  / (2 * (0.2 * extent) ** 2))
    return (np.sin(3 * np.pi * x / extent + 0.7) * np.cos(2 * np.pi * y / extent + 1.9)
            + 0.5 * x / extent + 0.3 * bump)


def stratified(width: int, height: int, strata: int,
               rng: np.random.Generator) -> np.ndarray:
    """One lattice vertex per stratum, within the stratum's middle JITTER share."""
    a = np.arange(strata)
    lo = 0.5 - JITTER / 2
    cols = (a[:, None] + lo + JITTER * rng.random((strata, strata))) * width / strata
    rows = (a[None, :] + lo + JITTER * rng.random((strata, strata))) * height / strata
    return np.sort((rows.astype(np.int64) * width + cols.astype(np.int64)).ravel())


def write_text(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def write_xy_samples(path: str, width: int, verts, values) -> str:
    lines = ["x,y,value"] + [f"{v % width},{v // width},{val!r}"
                             for v, val in zip(verts.tolist(), values.tolist())]
    return write_text(path, "\n".join(lines) + "\n")


def write_vertex_values(path: str, verts, values) -> str:
    lines = ["vertex,value"] + [f"{v},{val!r}"
                                for v, val in zip(verts.tolist(), values.tolist())]
    return write_text(path, "\n".join(lines) + "\n")


def grid_inputs(indir: str, width: int, strata: int, rng, tag: str = ""):
    """(sample vertices, truth, samples path, truth path) on a square grid."""
    verts = stratified(width, width, strata, rng)
    n = width * width
    truth = truth_surface(np.arange(n) % width, np.arange(n) // width, float(width - 1))
    sp = write_xy_samples(os.path.join(indir, f"samples{tag}.csv"), width, verts,
                          truth[verts])
    tp = write_vertex_values(os.path.join(indir, f"truth{tag}.csv"), np.arange(n), truth)
    return verts, truth, sp, tp


def grid_case(name: str, width: int, eight: bool, verts, truth,
              samples_path: str, truth_path: str) -> Case:
    n = width * width
    edges = ref.grid_edges(width, width, eight)
    r, c = np.divmod(np.arange(n), width)
    conn = "eight" if eight else "four"
    return Case(name=name,
                domain_args=["--grid", f"{width}x{width}",
                             "--connectivity", "8" if eight else "4"],
                setup_call=f"build_grid(GridSpec({width}, {width}, {conn!r}))",
                n=n, edges=edges, table=ref.neighbor_table(n, edges),
                xy=np.stack([c, r], axis=1).astype(np.float64),
                verts=verts, values=truth[verts], truth=truth,
                samples_path=samples_path, truth_path=truth_path,
                dist_rows=ref.grid_distances(width, eight, verts, np.arange(n)),
                grid=(width, width))


def mesh_case(indir: str, side: int, strata: int, rng) -> Case:
    r, c = np.divmod(np.arange(side * side), side)
    x = c + rng.uniform(-MESH_JITTER, MESH_JITTER, size=r.size)
    y = r + rng.uniform(-MESH_JITTER, MESH_JITTER, size=r.size)
    flips = rng.random((side - 1) * (side - 1)) < 0.5
    lines = [f"v {a!r} {b!r} 0.0" for a, b in zip(x.tolist(), y.tolist())]
    cell = 0
    for row in range(side - 1):
        for col in range(side - 1):
            a = row * side + col + 1
            b, cc, d = a + 1, a + side, a + side + 1
            tris = ((a, b, d), (a, d, cc)) if flips[cell] else ((a, b, cc), (b, d, cc))
            lines += [f"f {p} {q} {s}" for p, q, s in tris]
            cell += 1
    obj = write_text(os.path.join(indir, "mesh.obj"), "\n".join(lines) + "\n")
    with open(obj, encoding="utf-8") as fh:
        coords, faces = ref.parse_obj(fh.read())
    n = len(coords)
    edges = ref.face_edges(faces)
    table = ref.neighbor_table(n, edges)
    verts = stratified(side, side, strata, rng)
    truth = truth_surface(coords[:, 0], coords[:, 1], float(side - 1))
    return Case(name="mesh", domain_args=["--mesh", obj], setup_call=f"load_mesh({obj!r})",
                n=n, edges=edges, table=table, xy=coords[:, :2], verts=verts,
                values=truth[verts], truth=truth,
                samples_path=write_vertex_values(os.path.join(indir, "samples.csv"),
                                                 verts, truth[verts]),
                truth_path=write_vertex_values(os.path.join(indir, "truth.csv"),
                                               np.arange(n), truth),
                dist_rows=ref.bfs_rows(table, verts))


# -- output readers ---------------------------------------------------------------

def read_field(case: Case, out: str):
    """(values, indices or None) from a field.csv, checked for every vertex."""
    with open(os.path.join(out, "field.csv"), encoding="utf-8") as fh:
        header, rows = ref.parse_csv(fh.read())
    expect(len(rows) == case.n and (rows[:, 0] == np.arange(case.n)).all(),
           f"{out}: field.csv does not list every vertex once, in order")
    if header == ["vertex", "index", "value"]:
        return rows[:, 2], rows[:, 1].astype(np.int64)
    expect(header == ["vertex", "value"], f"{out}: unexpected header {header}")
    return rows[:, 1], None


def read_metrics(out: str) -> dict:
    with open(os.path.join(out, "metrics.json"), encoding="utf-8") as fh:
        return json.load(fh)


def rmse(values, truth) -> float:
    return float(np.sqrt(np.mean(np.square(values - truth))))


def check_rmse(case: Case, out: str, values) -> None:
    own = rmse(values, case.truth)
    got = read_metrics(out)["rmse"]
    expect(abs(got - own) <= 1e-12 * max(own, 1e-300),
           f"{out}: metrics.json rmse {got!r} != {own!r}")


# -- checks -------------------------------------------------------------------------

_FEASIBLE = re.compile(r"feasible: (\d+) guiding points, (\d+) levels, delta (\S+)")
_INFEASIBLE = re.compile(r"infeasible: vertices (\d+) and (\d+): distance (\d+), "
                         r"index gap (\d+)")


def check_delta(case: Case, delta: float, where: str) -> None:
    lip = case.lipschitz
    expect(lip <= delta <= lip * (1 + 1e-9),
           f"{where}: delta {delta!r} is not the Lipschitz spacing {lip!r}")


def verify_check(case: Case):
    def verify(stdout: str):
        m = _FEASIBLE.search(stdout)
        expect(m is not None and not stdout.startswith("infeasible"),
               f"check {case.name}: no feasible verdict in {stdout!r}")
        count, levels, delta = int(m[1]), int(m[2]), float(m[3])
        expect(count == len(case.verts), f"check {case.name}: {count} guiding points")
        check_delta(case, delta, f"check {case.name}")
        expect(levels == ref.level_count(case.values, delta),
               f"check {case.name}: {levels} levels")
        _, _, viol = ref.pairwise_violations(ref.quantize(case.values, delta),
                                             case.pair_dist)
        expect(viol.max() <= 0, f"check {case.name}: reference finds a violation")
    return verify


def verify_infeasible(case: Case, delta: float):
    def verify(stdout: str):
        m = _INFEASIBLE.search(stdout)
        expect(m is not None, f"check {case.name}: no witness in {stdout!r}")
        va, vb, dist, gap = (int(g) for g in m.groups())
        idx = ref.quantize(case.values, delta)
        pos = {int(v): i for i, v in enumerate(case.verts)}
        expect(va in pos and vb in pos, f"witness {va},{vb} is not a sample pair")
        a, b = pos[va], pos[vb]
        expect(dist == case.pair_dist[a, b], f"witness distance {dist}")
        expect(gap == abs(idx[a] - idx[b]), f"witness index gap {gap}")
        _, _, viol = ref.pairwise_violations(idx, case.pair_dist)
        expect(gap - dist == viol.max() > 0,
               f"witness violation {gap - dist} is not the maximum {viol.max()}")
    return verify


def check_renders(case: Case, out: str, values) -> None:
    """The three grid renders decode, through our parsers, to the field."""
    width, height = case.grid
    z = values.reshape(height, width)
    lo, hi = float(z.min()), float(z.max())
    t = (z - lo) / (hi - lo)
    with open(os.path.join(out, "heatmap.ppm"), "rb") as fh:
        rgb = ref.parse_ppm(fh.read()).astype(np.float64)
    expect(rgb.shape == (height, width, 3), f"{out}: heatmap size")
    expect((np.abs(rgb[..., 0] - 255 * t) <= 0.5 + 1e-9).all()
           and (rgb[..., 1] == 0).all()
           and (np.abs(rgb[..., 2] - 255 * (1 - t)) <= 0.5 + 1e-9).all(),
           f"{out}: heatmap colours do not follow the field")
    with open(os.path.join(out, "height.pgm"), "rb") as fh:
        pix, comments = ref.parse_pgm16(fh.read())
    expect(f"range {lo!r} {hi!r}" in comments, f"{out}: pgm range comment")
    back = lo + pix.astype(np.float64) / 65535.0 * (hi - lo)
    expect(pix.shape == z.shape and (np.abs(back - z) <= (hi - lo) / 65535.0).all(),
           f"{out}: pgm does not round-trip")
    with open(os.path.join(out, "height.obj"), encoding="utf-8") as fh:
        verts, faces = ref.parse_obj(fh.read())
    expect(verts.shape == (case.n, 3) and (verts[:, :2] == case.xy).all()
           and (verts[:, 2] == values).all(), f"{out}: obj vertices")
    cells = (np.arange(height - 1)[:, None] * width + np.arange(width - 1)).ravel()
    want = np.stack([cells, cells + 1, cells + width + 1,
                     cells, cells + width + 1, cells + width], axis=1).reshape(-1, 3)
    expect(np.array_equal(np.array(faces), want), f"{out}: obj faces")


def verify_gvf_fit(case: Case, out: str):
    def verify(_stdout: str):
        values, idx = read_field(case, out)
        expect(idx is not None, f"{out}: gvf field has no index column")
        expect((np.abs(idx[case.edges[:, 0]] - idx[case.edges[:, 1]]) <= 1).all(),
               f"{out}: an edge varies by more than one level")
        delta = read_metrics(out)["delta"]
        check_delta(case, delta, out)
        levels = ref.level_count(case.values, delta)
        expect(idx.min() >= 1 and idx.max() <= levels, f"{out}: index out of range")
        base = float(case.values.min())
        expect((np.abs(values - (base + (idx - 1) * delta)) <= 1e-12 * (1 + abs(base))).all(),
               f"{out}: values are not on the level table")
        at = values[case.verts]
        quant = np.abs(at - case.values)
        expect((quant <= delta).all(), f"{out}: a sample moved more than one step")
        lo, hi = ref.envelopes(idx[case.verts], case.dist_rows, levels)
        expect(np.array_equal(idx, (lo + hi) // 2), f"{out}: not the envelope midpoint")
        radius = int(case.dist_rows.min(axis=0).max())
        slope = float(np.abs(case.truth[case.edges[:, 0]]
                             - case.truth[case.edges[:, 1]]).max())
        bound = quant.max() + radius * (delta + slope)
        expect((np.abs(values - case.truth) <= bound + 1e-12).all(),
               f"{out}: error exceeds the a-priori bound {bound}")
        if case.grid is not None:
            check_renders(case, out, values)
        check_rmse(case, out, values)
    return verify


def verify_render(case: Case, field_dir: str, out: str):
    def verify(_stdout: str):
        values, _ = read_field(case, field_dir)
        check_renders(case, out, values)
        for name in ("heatmap.ppm", "height.pgm", "height.obj"):
            with open(os.path.join(out, name), "rb") as a, \
                    open(os.path.join(field_dir, name), "rb") as b:
                expect(a.read() == b.read(), f"{out}: {name} differs from the fit's")
    return verify


def verify_harmonic(case: Case, out: str):
    def verify(_stdout: str):
        values, _ = read_field(case, out)
        exact = ref.dirichlet_harmonic(case.n, case.edges, case.verts, case.values)
        err = float(np.abs(values - exact).max())
        expect(err <= HARMONIC_ACCURACY,
               f"{out}: {err:.3g} from the harmonic solution")
        lo, hi = case.values.min(), case.values.max()
        slack = 1e-12 * (hi - lo)
        expect(values.min() >= lo - slack and values.max() <= hi + slack,
               f"{out}: harmonic field leaves the range of the fixed values")
        expect((values[case.verts] == case.values).all(), f"{out}: fixed values moved")
        check_renders(case, out, values)
        check_rmse(case, out, values)
    return verify


def verify_smooth(case: Case, out: str):
    def verify(_stdout: str):
        values, _ = read_field(case, out)
        expect((values[case.verts] == case.values).all(),
               f"{out}: samples are not reproduced exactly")
        width, height = case.grid
        want = ref.smooth_reconstruct(width, height, case.table, case.xy, case.verts,
                                      case.values, case.dist_rows, case.pair_dist,
                                      SMOOTH_ORDER, SMOOTH_SWEEPS)
        err = float(np.abs(values - want).max())
        expect(err <= SMOOTH_TOL, f"{out}: {err:.3g} from the recomputed smoothing")
        check_renders(case, out, values)
        check_rmse(case, out, values)
    return verify


def verify_pointwise(case: Case, out: str, method: str, degree: int = 0,
                     verts=None):
    verts = case.verts if verts is None else verts
    sxy, svals = case.xy[verts], case.truth[verts]

    def verify(_stdout: str):
        values, _ = read_field(case, out)
        if method == "shepard":
            want = ref.shepard(case.xy, sxy, svals, SHEPARD_POWER)
            tol = SHEPARD_TOL
        else:
            want, full = ref.weighted_least_squares(case.xy, sxy, svals, degree,
                                                    MLS_SCALE)
            tol = MLS_TOL
            fallbacks = read_metrics(out)["fallback_vertices"]
            expect(fallbacks == int((~full).sum()),
                   f"{out}: {fallbacks} fallback vertices, reference "
                   f"{int((~full).sum())}")
        err = float(np.abs(values - want).max()) / (1.0 + float(np.ptp(svals)))
        expect(err <= tol, f"{out}: {err:.3g} from the reference evaluation")
        check_renders(case, out, values)
        check_rmse(case, out, values)
    return verify


# -- workloads ----------------------------------------------------------------------

def _check_ops(case: Case) -> list:
    """A feasible check at the auto delta and an infeasible one below it."""
    infeasible = case.lipschitz * INFEASIBLE_SHARE
    return [
        Op(f"check-{case.name}", "check",
           ["check", *case.domain_args, "--samples", case.samples_path], 0,
           verify_check(case), case=case),
        Op(f"check-infeasible-{case.name}", "check_infeasible",
           ["check", *case.domain_args, "--samples", case.samples_path,
            "--delta", repr(infeasible)], 2, verify_infeasible(case, infeasible),
           case=case),
    ]


def _fit_op(case: Case, outroot: str, name: str, extra: list, verify_for,
            samples: str | None = None) -> Op:
    """``fit`` with every export and the truth; verify_for(out) makes its check."""
    out = os.path.join(outroot, name)
    return Op(name, "fit",
              ["fit", *case.domain_args, "--samples", samples or case.samples_path,
               *extra, "--truth", case.truth_path, "--out", out], 0,
              verify_for(out), out=out, case=case)


def _gvf_ops(case: Case, outroot: str, render: bool) -> list:
    """The checks, a gvf fit with every export and, on grids, a re-render."""
    fit = _fit_op(case, outroot, f"fit-gvf-{case.name}", ["--method", "gvf"],
                  lambda out: verify_gvf_fit(case, out))
    ops = _check_ops(case) + [fit]
    if render:
        render_out = os.path.join(outroot, f"render-{case.name}")
        ops.append(Op(f"render-{case.name}", "render",
                      ["render", *case.domain_args, "--field",
                       os.path.join(fit.out, "field.csv"), "--out", render_out], 0,
                      verify_render(case, fit.out, render_out), out=render_out,
                      case=case))
    return ops


def grid_gvf(seed: int, indir: str, outroot: str) -> list:
    rng = np.random.default_rng([seed, 1])
    verts, truth, sp, tp = grid_inputs(indir, GVF_GRID, GVF_STRATA, rng)
    ops = []
    for eight in (False, True):
        case = grid_case("c8" if eight else "c4", GVF_GRID, eight, verts,
                         truth, sp, tp)
        ops += _gvf_ops(case, outroot, render=True)
    return ops


def mesh_gvf(seed: int, indir: str, outroot: str) -> list:
    rng = np.random.default_rng([seed, 2])
    return _gvf_ops(mesh_case(indir, MESH_SIDE, MESH_STRATA, rng), outroot,
                    render=False)


def _methods_case(seed: int, indir: str):
    """(the 4-connected METHODS_GRID case, the checks on it 4- and 8-connected, rng).

    The checks run on both connectivities so that the short check times are
    sums over more work.
    """
    rng = np.random.default_rng([seed, 3])
    verts, truth, sp, tp = grid_inputs(indir, METHODS_GRID, METHODS_STRATA, rng)
    case = grid_case("methods", METHODS_GRID, False, verts, truth, sp, tp)
    c8 = grid_case("methods-c8", METHODS_GRID, True, verts, truth, sp, tp)
    return case, _check_ops(case) + _check_ops(c8), rng


def grid_harmonic(seed: int, indir: str, outroot: str) -> list:
    case, ops, _ = _methods_case(seed, indir)
    return ops + [_fit_op(case, outroot, "fit-harmonic",
                          ["--method", "harmonic", "--iters", str(HARMONIC_ITERS),
                           "--tol", repr(HARMONIC_TOL)],
                          lambda out: verify_harmonic(case, out))]


def grid_smooth(seed: int, indir: str, outroot: str) -> list:
    case, ops, _ = _methods_case(seed, indir)
    return ops + [_fit_op(case, outroot, "fit-smooth",
                          ["--method", "smooth", "--order", str(SMOOTH_ORDER),
                           "--sweeps", str(SMOOTH_SWEEPS)],
                          lambda out: verify_smooth(case, out))]


def grid_baselines(seed: int, indir: str, outroot: str) -> list:
    case, ops, rng = _methods_case(seed, indir)
    width = METHODS_GRID
    row = width // 2
    cols = np.linspace(2, width - 3, ROW_SAMPLES) + rng.uniform(-1, 1, ROW_SAMPLES)
    row_verts = row * width + np.unique(np.rint(cols).astype(np.int64))
    row_path = write_xy_samples(os.path.join(indir, "row-samples.csv"), width,
                                row_verts, case.truth[row_verts])
    weight = ["--weight", f"gaussian:{MLS_SCALE!r}"]
    for degree in (1, 2):
        ops.append(_fit_op(case, outroot, f"fit-mls{degree}",
                           ["--method", "mls", "--order", str(degree), *weight],
                           lambda out, d=degree: verify_pointwise(case, out, "mls", d)))
    ops.append(_fit_op(case, outroot, "fit-mls2-row",
                       ["--method", "mls", "--order", "2", *weight],
                       lambda out: verify_pointwise(case, out, "mls", 2, row_verts),
                       samples=row_path))
    # Shepard costs about a quarter of what MLS does per vertex, so it runs
    # on a grid with four times the vertices, to weigh about as much as one MLS fit.
    big = grid_case("shepard", SHEPARD_GRID, False,
                    *grid_inputs(indir, SHEPARD_GRID, METHODS_STRATA, rng, "-shepard"))
    ops.append(_fit_op(big, outroot, "fit-shepard",
                       ["--method", "shepard", "--power", repr(SHEPARD_POWER)],
                       lambda out: verify_pointwise(big, out, "shepard")))
    return ops


BUILDERS = {"grid-gvf": grid_gvf, "mesh-gvf": mesh_gvf, "grid-harmonic": grid_harmonic,
            "grid-smooth": grid_smooth, "grid-baselines": grid_baselines}


def setup_script(ops: list) -> str:
    """Python source that imports the CLI and builds each domain the ops use."""
    calls = dict.fromkeys(op.case.setup_call for op in ops)
    return "\n".join(["import gradvar.cli",
                      "from gradvar.domain import GridSpec, build_grid, load_mesh",
                      *calls]) + "\n"
