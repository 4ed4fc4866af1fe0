"""Summarize run records from ``bench/results`` into a baseline.

    python3 bench/summarize.py bench/results/*.json [--out bench/baseline.json]

For each workload (with its reason from ``BENCHMARK.json``) and each
end-to-end metric, and for the measured seconds and speed factor behind
them: median and quartiles over runs, the quartile spread as a share of
the median (as ``statistics.quantiles`` gives it), and the tail of
``wall_ref_s`` over every pass of every run.  For the
traced runs: the per-layer metrics by seed, with a flag saying whether
the deterministic counts repeated exactly between runs of one seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import layers
import run
import speed

# seconds as measured, and the probe's scale, beside the reported metrics
MEASURED = ("measured_wall_s", "measured_cpu_s", "measured_setup_s", "speed_factor")


def _quartiles(values):
    s = run.summary(values)
    s["spread"] = (s["q3"] - s["q1"]) / s["median"]
    return s


def tail_percentile(samples):
    """Highest percentile with at least ten samples beyond it, if any."""
    n = len(samples)
    if n < 11:
        return {"percentile": None, "value": None, "samples": n}
    return {"percentile": 100.0 * (n - 10) / n, "value": sorted(samples)[n - 11], "samples": n}


def summarize(records):
    out = {}
    for rec in records:
        w = out.setdefault(rec["workload"], {"end_to_end": {}, "measured": {}, "per_layer": {}, "runs": 0,
                                              "traced_runs": 0, "seeds": [], "attempted": 0,
                                              "failed": 0, "wall_pass_samples": []})
        w["attempted"] += rec["attempted"]
        w["failed"] += rec["failed"]
        if rec["trace"]:
            w["traced_runs"] += 1
            seed = w["per_layer"].setdefault(str(rec["seed"]), {"counts_repeat": True})
            counts = {m: rec["metrics"][m]["value"] for m in layers.DETERMINISTIC}
            if "counts" in seed and seed["counts"] != counts:
                seed["counts_repeat"] = False
            seed["counts"] = counts
            seed["timings"] = {m: v["value"] for m, v in rec["metrics"].items()
                               if m not in layers.DETERMINISTIC}
            continue
        w["runs"] += 1
        w["seeds"].append(rec["seed"])
        w["wall_pass_samples"] += [speed.wall_at_reference(p["wall_s"], p["chunks"])
                                   for p in rec["passes"]]
        for m, v in rec["metrics"].items():
            w["end_to_end"].setdefault(m, []).append(v["value"])
        for m in MEASURED:
            w["measured"].setdefault(m, []).append(rec["stats"][m]["median"])
    for w in out.values():
        for part in ("end_to_end", "measured"):
            for m, values in w[part].items():
                w[part][m] = _quartiles(values)
        w["wall_ref_s_tail"] = tail_percentile(w.pop("wall_pass_samples"))
        w["fail_ratio"] = w["failed"] / w["attempted"] if w["attempted"] else None
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        why = {w["name"]: w["why"] for w in json.load(fh)["workloads"]}
    for name, w in out.items():
        w["why"] = why.get(name)
    env = {k: v for k, v in records[0]["environment"].items() if k != "seed"}
    return {"environment": env, "workloads": out}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("records", nargs="+")
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    records = []
    for path in args.records:
        with open(path, encoding="utf-8") as fh:
            records.append(json.load(fh))
    result = summarize(records)
    for name, w in result["workloads"].items():
        print(f"{name}: {w['runs']} runs, {w['traced_runs']} traced, "
              f"fail_ratio {w['fail_ratio']}", file=sys.stderr)
        for m, s in {**w["end_to_end"], **w["measured"]}.items():
            print(f"  {m:12s} median {s['median']:.4f}  q1 {s['q1']:.4f}  q3 {s['q3']:.4f}"
                  f"  spread {s['spread']:.4f}", file=sys.stderr)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
