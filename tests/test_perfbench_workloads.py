"""Every benchmark workload's operations, run once through the CLI and checked
by the benchmark's own output checks.

``perfbench/workloads.py`` is loaded by path, unchanged, with ``perfbench/``
on ``sys.path`` so that its ``import reference`` resolves.  An operation
whose output the benchmark would reject fails here first.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from gradvar.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_workloads():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", PERFBENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        # dataclasses look their module up in sys.modules while it loads.
        mp.setitem(sys.modules, spec.name, module)
        spec.loader.exec_module(module)
    return module


WORKLOADS = _load_workloads()


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
