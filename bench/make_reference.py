"""Record the reference tables the correctness gate compares against.

    python3 bench/make_reference.py

Runs, from the repository root, every command of every workload for
each high-xi variant (and the two-party grids of seed 0), and stores
each output table xz-compressed under ``bench/reference/`` with an index
keyed by argv.  Re-record only when a change to the program is meant to
change its outputs, and say so in the change.
"""

from __future__ import annotations

import hashlib
import json
import lzma
import os
import subprocess
import sys
import tempfile

import run
import workloads


def main():
    out_dir = os.path.join(run.BENCH, "reference")
    os.makedirs(out_dir, exist_ok=True)
    env = run.child_env()
    index = {}
    for name in workloads.WORKLOADS:
        seeds = range(len(workloads.HIGH_XI)) if name in ("ode_scan", "profile6") else [0]
        for seed in seeds:
            for cmd in workloads.commands(name, seed):
                if cmd.key in index:
                    continue
                with tempfile.TemporaryDirectory(dir=run.BENCH) as tmp:
                    table = os.path.join(tmp, "out.csv")
                    subprocess.run([sys.executable, "-m", "minuncert.cli", *cmd.argv,
                                    "--out", table], env=env, cwd=tmp, check=True)
                    with open(table, "rb") as fh:
                        data = fh.read()
                file_name = hashlib.sha1(cmd.key.encode()).hexdigest()[:12] + ".csv.xz"
                with open(os.path.join(out_dir, file_name), "wb") as fh:
                    fh.write(lzma.compress(data, preset=9 | lzma.PRESET_EXTREME))
                index[cmd.key] = file_name
                print(f"{cmd.key} -> {file_name}", flush=True)
    with open(os.path.join(out_dir, "index.json"), "w", encoding="utf-8") as fh:
        json.dump(index, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
