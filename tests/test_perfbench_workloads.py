"""Every benchmark workload's operations, run once through the CLI and checked
by the benchmark's own output checks.

``perfbench/workloads.py`` is loaded by path, unchanged, with ``perfbench/``
on ``sys.path`` so that its ``import reference`` resolves.  An operation
whose output the benchmark would reject fails here first.
"""

import pytest

from gradvar.cli import main

from checks import load_perfbench

WORKLOADS = load_perfbench("workloads")


@pytest.mark.parametrize("name", list(WORKLOADS.BUILDERS))
def test_workload_operations_pass_their_checks(name, tmp_path, capsys):
    indir, outroot = tmp_path / "in", tmp_path / "out"
    indir.mkdir()
    outroot.mkdir()
    ops = WORKLOADS.BUILDERS[name](5, str(indir), str(outroot))
    assert ops
    for op in ops:
        rc = main(op.argv)
        stdout = capsys.readouterr().out
        assert rc == op.exit_code, op.name
        op.verify(stdout)


@pytest.mark.xfail(raises=WORKLOADS.CheckFailed, strict=True,
                   reason="perfbench/reference.quantize rounds ceil(t - 1/2) with no "
                          "tie band, so it puts samples a few ulps above a half level "
                          "one level higher than gvf.quantize does")
@pytest.mark.parametrize("seed", [1, 4, 22])
def test_smooth_check_disagrees_on_half_level_ties(seed, tmp_path, capsys):
    indir, outroot = tmp_path / "in", tmp_path / "out"
    indir.mkdir()
    outroot.mkdir()
    ops = WORKLOADS.BUILDERS["grid-smooth"](seed, str(indir), str(outroot))
    op = next(op for op in ops if op.name == "fit-smooth")
    assert main(op.argv) == op.exit_code
    op.verify(capsys.readouterr().out)
