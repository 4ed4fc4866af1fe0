"""minuncert benchmark: cold CLI workloads, timed end to end or traced per layer.

    python3 bench/run.py --workload ode_scan --seed 0 --seconds 20 --trace 0

Run from the repository root.  A single closed-loop client runs the
workload's commands one after another, each in a fresh interpreter
(``python -m minuncert.cli``) importing the package from ``./src``, and
repeats whole passes while another pass still fits in ``--seconds``.
Every output table is checked (``check.py``); the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
one untraced and one traced pass and the per-layer metrics of
``layers.py``.  The benchmark and its children run pinned to one CPU,
which the speed probe (``speed.py``) samples while each child runs; the
reported times are seconds at the probe's reference speed.  A full
record of each run, with the measured seconds and the environment, goes
to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import check
import layers
import speed
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

# Single-threaded BLAS: the steadiest setting on a small shared machine,
# and within the "no more than nproc" limit on any machine.
BLAS_THREADS = "1"
SETUP_REPS = 9
HARD_LIMIT_S = 165.0  # the run, set-up included, must end inside 180 s

# Times are seconds at the reference speed (speed.py); the record keeps
# the measured seconds too.
END_TO_END = {"wall_ref_s": "s", "cpu_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Pass:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    chunks: list = field(default_factory=list)  # speed probe, seconds per chunk
    attempted: int = 0
    failed: int = 0
    commands: list = field(default_factory=list)
    notes: list = field(default_factory=list)


def child_env():
    env = {k: v for k, v in os.environ.items()
           if k not in ("MINUNCERT_OUTPUT_DIR", "PYTHONSTARTUP", "PYTHONHOME")}
    env["PYTHONPATH"] = SRC
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_child(argv, env, cwd, timeout):
    """Run one child to completion, probing the CPU's speed meanwhile.

    Returns (wall_s, cpu_s, maxrss_mb, exit code, stderr, chunk seconds).
    """
    err_path = os.path.join(cwd, "stderr.txt")
    chunks = []
    with open(err_path, "w", encoding="utf-8") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        box = []
        done = threading.Event()

        def reap():
            # wait4 gives the child's own rusage and the exact end time
            box.append((os.wait4(proc.pid, 0), time.perf_counter()))
            done.set()

        reaper = threading.Thread(target=reap)
        reaper.start()
        stop = time.monotonic() + max(timeout, 0.0)
        try:
            while True:
                chunks.append(speed.chunk_seconds())
                if done.wait(max(min(speed.PERIOD_S, stop - time.monotonic()), 0.0)):
                    break
                if time.monotonic() >= stop:
                    break
        finally:
            # on timeout or interruption the child is stopped and reaped
            if not done.is_set():
                proc.kill()
            reaper.join()
    (_, status, usage), end = box[0]
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return (end - start, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
            proc.returncode, stderr, chunks)


def run_pass(cmds, env, workdir, refs, deadline, spans_dir=None):
    """One pass over the command list; checks every output."""
    p = Pass()
    for i, cmd in enumerate(cmds):
        table = os.path.join(workdir, f"out{i}.csv")
        if os.path.exists(table):
            os.remove(table)
        argv = list(cmd.argv) + ["--out", table]
        if spans_dir is None:
            argv = [sys.executable, "-m", "minuncert.cli"] + argv
        else:
            spans = os.path.join(spans_dir, f"spans{i}.json")
            argv = [sys.executable, os.path.join(BENCH, "layers.py"), spans, "--"] + argv
        wall, cpu, rss, code, stderr, chunks = run_child(argv, env, workdir,
                                                         deadline - time.monotonic())
        outcome = check.check_command(cmd, code, table, refs)
        p.wall_s += wall
        p.cpu_s += cpu
        p.peak_rss_mb = max(p.peak_rss_mb, rss)
        p.chunks += chunks
        p.attempted += outcome.attempted
        p.failed += outcome.failed
        p.notes += outcome.notes
        if code != 0 and stderr:
            p.notes.append(f"{cmd.key}: stderr: {stderr.strip()[-500:]}")
        p.commands.append({"argv": cmd.key, "wall_s": wall, "cpu_s": cpu, "max_rss_mb": rss,
                           "exit": code, "items": outcome.attempted, "failed": outcome.failed})
    return p


def time_setup(env, workdir, reps):
    """Wall seconds of fresh interpreters that only import minuncert.cli,
    less the probe's CPU seconds, and the speed probe's chunks meanwhile."""
    argv = [sys.executable, "-c", "import minuncert.cli"]
    run_child(argv, env, workdir, 60.0)  # compiles bytecode once, as an install would
    samples, chunks = [], []
    for _ in range(reps):
        wall, _, _, code, stderr, probe = run_child(argv, env, workdir, 60.0)
        if code != 0:
            raise RuntimeError(f"importing minuncert.cli failed: {stderr.strip()[-500:]}")
        samples.append(wall - sum(probe))
        chunks += probe
    return samples, chunks


def environment(env, workdir, seed):
    probe = ("import json, sys, numpy, minuncert; print(json.dumps({'python': "
             "sys.version.split()[0], 'numpy': numpy.__version__, 'package': minuncert.__file__}))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, cwd=workdir,
                         capture_output=True, text=True, timeout=60)
    if out.returncode != 0:
        raise RuntimeError(f"cannot import minuncert from {SRC}: {out.stderr.strip()[-500:]}")
    info = json.loads(out.stdout)
    if not os.path.abspath(info["package"]).startswith(SRC + os.sep):
        raise RuntimeError(f"minuncert imported from {info['package']}, not from {SRC}")
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "minuncert")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        commit = git.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": info["python"],
        "numpy": info["numpy"],
        "blas_threads": BLAS_THREADS,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def summary(samples):
    q = statistics.quantiles(samples, n=4) if len(samples) > 1 else [samples[0]] * 3
    return {"median": statistics.median(samples), "q1": q[0], "q3": q[2], "samples": samples}


def measure(cmds, env, workdir, refs, seconds, deadline):
    passes = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        passes.append(run_pass(cmds, env, workdir, refs, deadline))
        took = time.monotonic() - t0
        # start another pass only when it should end inside the budget
        if time.monotonic() - start + took > seconds or time.monotonic() + took > deadline:
            return passes


def traced(cmds, env, workdir, refs, deadline):
    plain = run_pass(cmds, env, workdir, refs, deadline)
    spans_dir = os.path.join(workdir, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    p = run_pass(cmds, env, workdir, refs, deadline, spans_dir)
    docs = []
    for i in range(len(cmds)):
        path = os.path.join(spans_dir, f"spans{i}.json")
        if os.path.exists(path):
            with open(path, encoding="ascii") as fh:
                docs.append(json.load(fh))
        else:
            p.notes.append(f"{cmds[i].key}: traced child wrote no spans")
            p.attempted += 1
            p.failed += 1
    overhead = (speed.wall_at_reference(p.wall_s, p.chunks)
                - speed.wall_at_reference(plain.wall_s, plain.chunks))
    metrics, absent = layers.aggregate(docs, overhead)
    return [plain, p], metrics, absent


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    # turn SIGTERM into SystemExit so the running child is stopped on the way out
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + HARD_LIMIT_S
    if not os.path.isfile(os.path.join(SRC, "minuncert", "cli.py")):
        print(f"bench: no minuncert sources under {SRC}", file=sys.stderr)
        return 2
    cmds = workloads.commands(args.workload, args.seed)
    refs = check.References()
    env = child_env()
    workdir = os.path.join(BENCH, "_work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        info = environment(env, workdir, args.seed)  # nproc counted before pinning
        info.update(pinned_cpu=speed.pin(), ref_chunk_s=speed.REF_CHUNK_S)
        absent, stats = [], None
        if args.trace:
            passes, metrics, absent = traced(cmds, env, workdir, refs, deadline)
        else:
            setup, setup_chunks = time_setup(env, workdir, SETUP_REPS)
            passes = measure(cmds, env, workdir, refs, args.seconds, deadline)
            scale = [speed.factor(p.chunks) for p in passes]
            stats = {
                "wall_ref_s": summary([speed.wall_at_reference(p.wall_s, p.chunks)
                                       for p in passes]),
                "cpu_ref_s": summary([p.cpu_s * f for p, f in zip(passes, scale)]),
                "setup_s": summary([t * speed.factor(setup_chunks) for t in setup]),
                "peak_rss_mb": summary([p.peak_rss_mb for p in passes]),
                "measured_wall_s": summary([p.wall_s for p in passes]),
                "measured_cpu_s": summary([p.cpu_s for p in passes]),
                "measured_setup_s": summary(setup),
                "speed_factor": summary(scale + [speed.factor(setup_chunks)]),
            }
            metrics = {k: {"value": stats[k]["median"], "unit": u} for k, u in END_TO_END.items()}
    except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    notes = [n for p in passes for n in p.notes]
    for note in notes[:20]:
        print(f"bench: {note}", file=sys.stderr)
    if absent:
        print("bench: absent entry points: " + ", ".join(absent), file=sys.stderr)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "environment": info,
        "commands": [c.key for c in cmds], "fail_ratio": failed / attempted,
        "attempted": attempted, "failed": failed, "notes": notes, "absent": absent,
        "passes": [p.__dict__ for p in passes], "metrics": metrics, "stats": stats,
    }
    results = os.path.join(BENCH, "results")
    os.makedirs(results, exist_ok=True)
    name = f"{args.workload}_seed{args.seed}_trace{args.trace}_{time.time_ns()}.json"
    with open(os.path.join(results, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
