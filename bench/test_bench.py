"""Tests of the benchmark itself:  PYTHONPATH=src python3 -m pytest bench -q"""

from __future__ import annotations

import json
import lzma
import os
import sys
import time

import pytest

import check
import layers
import run
import speed
import workloads


def _pass(cmds, tmp_path, spans=False):
    spans_dir = None
    if spans:
        spans_dir = tmp_path / "spans"
        spans_dir.mkdir(exist_ok=True)
        spans_dir = str(spans_dir)
    return run.run_pass(cmds, run.child_env(), str(tmp_path), check.References(),
                        time.monotonic() + 120.0, spans_dir)


def test_rejected_command_counts_as_failure(tmp_path):
    # xi = 1.0 is outside (0, 1): the CLI rejects it with exit status 2
    p = _pass([workloads.command("scan", 2, ("1.0",))], tmp_path)
    assert p.commands[0]["exit"] == 2
    assert (p.attempted, p.failed) == (2, 2)  # the command and its grid point
    assert p.failed / p.attempted == 1.0


def test_accepted_command_has_no_failures(tmp_path):
    p = _pass([workloads.command("scan", 2, ("0.3", "0.5"))], tmp_path)
    assert (p.attempted, p.failed) == (3, 0)


def test_reference_mismatch_is_counted(tmp_path):
    cmd = workloads.command("fock", order=60)
    refs = check.References()
    out = tmp_path / "fock.csv"
    with lzma.open(os.path.join(refs.directory, refs.index[cmd.key]), "rt") as fh:
        text = fh.read()
    out.write_text(text)
    assert check.check_command(cmd, 0, str(out), refs).failed == 0
    header, rows = check.parse_csv(text)
    rows[3][-1] *= 1.0 + 1e-9
    out.write_text(",".join(header) + "\n"
                   + "".join(",".join("%.17g" % v for v in row) + "\n" for row in rows))
    assert check.check_command(cmd, 0, str(out), refs).failed == 1


def test_speed_probe_runs_while_a_child_runs(tmp_path):
    wall, cpu, _, code, _, chunks = run.run_child([sys.executable, "-c", "pass"],
                                                   run.child_env(), str(tmp_path), 60.0)
    assert code == 0 and wall > 0.0 and cpu > 0.0
    assert chunks and all(c > 0.0 for c in chunks)
    # a CPU running chunks in half the reference time doubles measured seconds
    assert speed.factor([speed.REF_CHUNK_S / 2.0] * 3) == pytest.approx(2.0)


def test_workload_seeds():
    assert [c.key for c in workloads.commands("ode_scan", 0)] == [
        "--command scan --parties 4 --xi 0.5 --xi 0.900",
        "--command scan --parties 6 --xi 0.5 --xi 0.900",
    ]
    assert workloads.commands("two_party", 0)[0].xi == ("0.001:0.999:0.001",)
    assert workloads.commands("two_party", 3)[0].xi == ("0.0013:0.9993:0.001",)
    highs = {float(workloads.commands("profile6", s)[0].xi[1]) for s in range(20)}
    assert min(highs) >= 0.88 and max(highs) <= 0.92
    for seed in range(workloads.TWO_PARTY_OFFSETS):
        sizes = [len(check.expand_xi(c.xi)) for c in workloads.commands("two_party", seed)[:3]]
        assert sizes == [999, 9, 99]
    with pytest.raises(ValueError):
        workloads.commands("nope", 0)


def test_every_seed_of_the_ode_workloads_has_references():
    refs = check.References()
    for name in ("ode_scan", "profile6", "verify"):
        for seed in range(len(workloads.HIGH_XI)):
            for cmd in workloads.commands(name, seed):
                assert cmd.key in refs.index, cmd.key


def test_traced_counts_repeat_exactly(tmp_path):
    cmds = [workloads.command("profile", 4, ("0.3",), 2), workloads.command("scan", 2, ("0.5",))]
    counts = []
    for k in range(2):
        sub = tmp_path / str(k)
        sub.mkdir()
        p = _pass(cmds, sub, spans=True)
        assert p.failed == 0
        docs = []
        for i in range(2):
            with open(sub / "spans" / f"spans{i}.json") as fh:
                docs.append(json.load(fh))
        metrics, absent = layers.aggregate(docs, 0.0)
        assert absent == []
        counts.append({m: metrics[m]["value"] for m in layers.DETERMINISTIC})
    assert counts[0] == counts[1]
    assert counts[0]["specfun.upper_gamma.calls"] > 0
    assert counts[0]["bipartite.uncertainty_product.calls"] == 1


def test_absent_entry_points_are_reported_not_fatal():
    gone = (layers.Probe("x.gone", "minuncert.specfun", "no_such_function", "points"),
            layers.Probe("y.gone", "minuncert.no_such_module", "f", ""),
            layers.Probe("z.gone", "minuncert.multipartite", "NoClass.method", ""))
    assert layers.Tracer().install(gone) == ["x.gone", "y.gone", "z.gone"]
    doc = {"probes": [p.name for p in layers.PROBES], "absent": ["specfun.upper_gamma"],
           "spans": []}
    metrics, absent = layers.aggregate([doc], 0.0)
    assert absent == ["specfun.upper_gamma"]
    assert set(metrics) == set(layers.METRICS)
    assert metrics["specfun.upper_gamma.calls"]["value"] == 0
