"""The CLI against the benchmark's recorded reference tables.

Every seed-0 command of the benchmark, and every high-xi seed of
``ode_scan`` and ``profile6``, runs in process and must pass the
benchmark's own correctness gate (``bench/check.py``): each cell within
``CLOSED_REL``/``Z_REL`` of its reference and every ``verify`` row present
and passed.  ``bench/`` is only read here.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from minuncert import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
check = _load("check")
REFERENCES = check.References()


def _commands():
    cmds = {}
    for workload in workloads.WORKLOADS:
        seeds = range(len(workloads.HIGH_XI)) if workload in ("ode_scan", "profile6") else (0,)
        for seed in seeds:
            for cmd in workloads.commands(workload, seed):
                cmds[cmd.key] = cmd
    return list(cmds.values())


@pytest.mark.parametrize("cmd", _commands(), ids=lambda cmd: cmd.key)
def test_command_matches_its_reference(cmd, tmp_path):
    out = tmp_path / "table"
    code = cli.main([*cmd.argv, "--out", str(out)])
    assert code == 0
    assert REFERENCES.table(cmd.key) is not None
    outcome = check.check_command(cmd, code, str(out), REFERENCES)
    assert outcome.attempted > 0
    assert outcome.failed == 0, outcome.notes
