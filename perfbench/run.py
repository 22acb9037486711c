"""Benchmark of the gradvar CLI on seeded workloads.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload grid-gvf --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

Every operation is a call to ``gradvar.cli.main(argv)`` on inputs generated
from the seed.  A child process, which holds none of the benchmark's own
data, repeats whole passes over the workload's operation list until
``--seconds`` have been measured; the parent then checks every output
against ``reference`` (which shares no code with gradvar).  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of ``tracing.py`` with ``--trace 1``.  See README.md.

End-to-end times are scaled to a reference machine speed: a fixed calibration
kernel runs between operations, and each pass's times are multiplied by
CAL_REFERENCE_S over the median kernel time of that pass.  This cancels most
of the drift in speed of a shared machine; the unscaled figures go to stderr.
"""

from __future__ import annotations

import os

# One BLAS thread, fixed before numpy loads, in this process and its children.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Set-up is timed over at least SETUP_REPEATS interpreter starts and SETUP_SECONDS.
SETUP_REPEATS = 7
SETUP_SECONDS = 3.0
MIN_PASSES = 3
# calibration() on an unloaded 2.1 GHz core of the machine the figures in
# README.md come from; scaled times are seconds at that speed.
CAL_REFERENCE_S = 0.0125
_CAL_ARRAY = np.arange(16384) % 98
WORKLOADS = ("grid-gvf", "mesh-gvf", "grid-harmonic", "grid-smooth", "grid-baselines")
KINDS = {"check": "check_s", "check_infeasible": "check_infeasible_s", "fit": "fit_s"}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def calibration() -> float:
    """Seconds taken by a fixed kernel of small-array numpy and string work.

    The kernel resembles the program's own mix (boolean masks and reductions
    over a 16k array, float formatting), so it slows down with the machine.
    """
    start = perf_counter()
    for level in range(200):
        hits = np.nonzero(_CAL_ARRAY > level % 97)[0]
        int(_CAL_ARRAY[hits].min())
    ",".join(repr(i * 0.37) for i in range(15000))
    return perf_counter() - start


def time_setup(script: str) -> float:
    """Median scaled time of fresh interpreters running the set-up script."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times, cals = [], [calibration()]
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS:
        start = perf_counter()
        subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env, check=True,
                       stdout=subprocess.DEVNULL, timeout=120)
        times.append(perf_counter() - start)
        cals.append(calibration())
    return statistics.median(times) * CAL_REFERENCE_S / statistics.median(cals)


def run_op(cli, op) -> tuple:
    """(seconds, stdout, ok) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(op.argv)
    except Exception:          # an escaped exception is a failed operation
        code = traceback.format_exc()
    seconds = perf_counter() - start
    if code != op.exit_code:
        print(f"perfbench: {op.name} exited {code!r}: {err.getvalue().strip()}",
              file=sys.stderr)
    return seconds, out.getvalue(), code == op.exit_code


def digest(ops, stdouts) -> str:
    """Hash of every operation's stdout and output files, for pass-to-pass equality."""
    h = hashlib.sha256()
    for op, text in zip(ops, stdouts):
        h.update(text.encode())
        if op.out and os.path.isdir(op.out):
            for name in sorted(os.listdir(op.out)):
                with open(os.path.join(op.out, name), "rb") as fh:
                    h.update(name.encode() + fh.read())
    return h.hexdigest()


def run_pass(cli, ops, tracer=None) -> dict:
    """Times of one pass, scaled by the median calibration around its operations."""
    raw, stdouts, failed = [], [], 0
    cals = [calibration()]
    for op in ops:
        if tracer is not None:
            tracer.begin_op(op.name)
        seconds, text, ok = run_op(cli, op)
        cals.append(calibration())
        raw.append(seconds)
        stdouts.append(text)
        failed += not ok
    scale = CAL_REFERENCE_S / statistics.median(cals)
    return {"wall": sum(raw), "scale": scale, "times": [t * scale for t in raw],
            "stdouts": stdouts, "failed": failed}


def verify(ops, stdouts: list, digests: list) -> tuple:
    """(all checks passed, RMSE of each fit) for the outputs on disk."""
    from workloads import CheckFailed
    ok = len(set(digests)) == 1
    if not ok:
        print("perfbench: outputs differ between passes", file=sys.stderr)
    for op, text in zip(ops, stdouts):
        try:
            op.verify(text)
        except CheckFailed as exc:
            print(f"perfbench: check of {op.name} failed: {exc}", file=sys.stderr)
            ok = False
        except Exception:      # a check that cannot run counts as failed
            print(f"perfbench: check of {op.name} failed:\n{traceback.format_exc()}",
                  file=sys.stderr)
            ok = False
    rmses = []
    for op in ops:
        if op.kind == "fit":
            try:
                rmses.append(op.fit_rmse())
            except (OSError, CheckFailed):      # no field: the op or its check failed
                pass
    return ok, rmses


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def own_peak_rss_mb() -> float:
    """Peak resident set of this process's own address space (VmHWM).

    ``ru_maxrss`` is not used: after the fork and exec that start this
    process, it also holds the parent's peak, which is the benchmark's.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_passes(spec_path: str) -> int:
    """The timed passes of one run, in the process whose peak RSS is reported.

    ``spec_path`` names a JSON file with the operations, the seconds to
    measure, whether to trace, and where to write the result: the times of
    every pass, the first pass's stdouts, each pass's output digest, the peak
    RSS and, when traced, the per-layer metrics.
    """
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import gradvar.cli as cli
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    ops = [SimpleNamespace(**op) for op in spec["ops"]]
    tracer = None
    if spec["trace_file"]:
        from tracing import Tracer
        tracer = Tracer()
    # A traced run traces every second pass: passes[1::2].
    passes, digests = [], []
    start = perf_counter()
    while perf_counter() - start < spec["seconds"] or len(passes) < MIN_PASSES:
        if tracer is not None and len(passes) % 2:
            tracer.pass_no = len(passes) // 2
            tracer.install()
            try:
                result = run_pass(cli, ops, tracer)
            finally:
                tracer.uninstall()
        else:
            result = run_pass(cli, ops)
        passes.append(result)
        digests.append(digest(ops, result["stdouts"]))
    out = {"peak_mb": own_peak_rss_mb(),
           "stdouts": passes[0]["stdouts"], "digests": digests,
           "passes": [{k: p[k] for k in ("wall", "scale", "times", "failed")}
                      for p in passes]}
    if tracer is not None:
        tracer.write(spec["trace_file"])
        out["layers"] = layer_metrics(tracer, passes)
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


def run_workload(args) -> int:
    sys.path.insert(0, str(HERE))
    import workloads

    work = HERE / "_work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    indir, outroot = work / "in", work / "out"
    indir.mkdir(parents=True)
    outroot.mkdir()
    try:
        ops = workloads.BUILDERS[args.workload](args.seed, str(indir), str(outroot))
        setup_s = time_setup(workloads.setup_script(ops)) if not args.trace else None
        trace_file = ""
        if args.trace:
            trace_dir = HERE / "_work" / "traces"
            trace_dir.mkdir(exist_ok=True)
            trace_file = str(trace_dir / f"{work.name}.jsonl")
        spec = {"ops": [{"name": op.name, "argv": op.argv, "exit_code": op.exit_code,
                         "out": op.out} for op in ops],
                "seconds": args.seconds, "trace_file": trace_file,
                "result": str(work / "passes.json")}
        with open(work / "spec.json", "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        child = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                                "--passes", str(work / "spec.json")],
                               cwd=ROOT, stdout=subprocess.DEVNULL, timeout=160)
        if child.returncode != 0:
            return fail(f"the timed passes exited {child.returncode}")
        with open(spec["result"], encoding="utf-8") as fh:
            res = json.load(fh)
        passes = res["passes"]
        print(f"perfbench: {args.workload} seed {args.seed}: {len(passes)} passes, "
              f"unscaled pass median {statistics.median(p['wall'] for p in passes):.3f} s, "
              f"scale {statistics.median(p['scale'] for p in passes):.3f}", file=sys.stderr)

        attempted = len(ops) * len(passes)
        failed = sum(p["failed"] for p in passes)
        correct, rmses = verify(ops, res["stdouts"], res["digests"])
        if args.trace:
            metrics = res["layers"]
        else:
            typical = [statistics.median(p["times"][i] for p in passes)
                       for i in range(len(ops))]
            print("perfbench: median scaled s per operation: " + ", ".join(
                f"{op.name} {t:.4f}" for op, t in zip(ops, typical)), file=sys.stderr)
            metrics = e2e_metrics(ops, typical, setup_s, res["peak_mb"], rmses)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def e2e_metrics(ops, typical, setup_s, peak_mb, rmses) -> dict:
    """Each time is a sum over the pass's operations of their median over passes."""
    out = {"setup_s": metric(setup_s, "s"), "wall_s": metric(sum(typical), "s")}
    for kind, name in KINDS.items():
        out[name] = metric(sum(t for op, t in zip(ops, typical) if op.kind == kind), "s")
    out["peak_rss_mb"] = metric(peak_mb, "MB")
    # 0 only when no fit wrote a field, and then the run is not correct.
    out["fit_rmse"] = metric(statistics.fmean(rmses) if rmses else 0.0, "value")
    return out


def layer_metrics(tracer, passes) -> dict:
    from tracing import metric_names
    per_pass = tracer.per_pass()
    traced = passes[1::2]
    # Untraced passes without the first, which also warms caches.
    overhead = statistics.median(sum(p["times"]) for p in traced) \
        / statistics.median(sum(p["times"]) for p in passes[2::2]) - 1
    out = {}
    for name in metric_names():
        if name == "trace.overhead":
            out[name] = metric(overhead, "ratio")
            continue
        values = [per_pass[i].get(name, 0.0) for i in range(len(traced))]
        if name.endswith(".self_s"):
            out[name] = metric(statistics.median(values), "s")
        else:
            unit = "bytes" if name.endswith("bytes_written") else "count"
            out[name] = metric(int(statistics.median(values)), unit)
    return out


def run_all(args) -> int:
    """Each workload in its own process; prints every result, then a summary."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return fail(f"workload {name} exited {proc.returncode}")
        result = json.loads(lines[-1])
        print(json.dumps({"workload": name, **result}))
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            summary["metrics"][f"{name}.{key}"] = value
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--passes", metavar="SPEC", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.passes:
        return run_passes(args.passes)
    if args.workload is None:
        p.error("--workload is required")
    if not (SRC / "gradvar" / "cli.py").is_file():
        return fail(f"no gradvar sources under {SRC}")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
