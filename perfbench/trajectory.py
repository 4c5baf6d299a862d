"""One trajectory point from a directory of benchmark results.

Reads every ``result-<workload>-seed<n>-trace0.json`` that ``run.py`` left
in ``--out`` and prints one JSON line: per workload, the median over seeds
of each end-to-end metric, with the seed count and quartile spread, and the
derived ratios, each with its numerator and denominator::

    python3 perfbench/trajectory.py --out .perfbench --commit <sha> \\
        [--append perfbench/trajectory.jsonl]
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import re
import statistics
import sys

NAME = re.compile(r"result-(?P<workload>.+)-seed(?P<seed>\d+)-trace0\.json$")


def load(out: str) -> dict:
    """``{workload: {seed: result document}}``."""
    runs: dict = {}
    for path in glob.glob(os.path.join(out, "result-*-trace0.json")):
        match = NAME.search(os.path.basename(path))
        with open(path) as fh:
            doc = json.load(fh)
        runs.setdefault(match["workload"], {})[int(match["seed"])] = doc
    return runs


def summarise(docs: list) -> dict:
    """Median, quartile spread (IQR / median) and sample count per metric."""
    out = {}
    for name, first in docs[0]["result"]["metrics"].items():
        values = [d["result"]["metrics"][name]["value"] for d in docs]
        med = statistics.median(values)
        q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                     else (med, med, med))
        out[name] = {"median": med, "spread": (q3 - q1) / med if med else 0.0,
                     "unit": first["unit"]}
    return out


def ratio(num: float, den: float, base: str) -> dict:
    return {"value": num / den, "num": num, "den": den, "base": base}


def derived(summary: dict, runs: dict) -> dict:
    """The tracked ratios, each with its base (medians over seeds)."""
    def med(workload, metric):
        return summary[workload]["metrics"][metric]["median"]

    out = {}
    for workload in ("table6-estimate", "table6-jobs2", "kernels-exact"):
        if workload in summary:
            out[f"{workload}.sim_over_analysis"] = ratio(
                med(workload, "sim_s"), med(workload, "analysis_s"),
                "median sim_s / median analysis_s")
    if "kernels-exact" in runs:
        parts = [d["info"]["ratios"]["regions_over_find"]
                 for d in runs["kernels-exact"].values()]
        out["kernels-exact.regions_over_find"] = ratio(
            statistics.median(p["num"] for p in parts),
            statistics.median(p["den"] for p in parts),
            "median summed regions analyze() s / same for find")
    if "table6-jobs2" in summary and "table6-estimate" in summary:
        out["table6.jobs2_over_serial"] = ratio(
            med("table6-jobs2", "analysis_s"),
            med("table6-estimate", "analysis_s"),
            "median analysis_s, table6-jobs2 / table6-estimate")
    for workload in summary:
        out[f"{workload}.warm_over_cold_p50"] = ratio(
            med(workload, "warm_p50_s"), med(workload, "cold_p50_s"),
            "median warm_p50_s / median cold_p50_s")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", default=".perfbench")
    ap.add_argument("--commit", required=True)
    ap.add_argument("--append")
    args = ap.parse_args(argv)
    runs = load(args.out)
    if not runs:
        print(f"trajectory: no results under {args.out}", file=sys.stderr)
        return 1
    summary = {}
    for workload, by_seed in sorted(runs.items()):
        docs = [by_seed[s] for s in sorted(by_seed)]
        summary[workload] = {
            "seeds": sorted(by_seed),
            "inputs_digests": sorted({d["info"]["inputs_digest"] for d in docs}),
            "failed": sum(d["result"]["failed"] for d in docs),
            "metrics": summarise(docs),
        }
    point = {"commit": args.commit, "workloads": summary,
             "ratios": derived(summary, runs)}
    line = json.dumps(point, sort_keys=True)
    print(line)
    if args.append:
        with open(args.append, "a") as fh:
            fh.write(line + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
