#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric's spread.

Run from the repository root, for example::

    python3 perfbench/record.py --seeds 1-10 --out perfbench/results/end_to_end.json
    python3 perfbench/record.py --seeds 1 --trace 1 --out perfbench/results/traced.json

Runs go one at a time, each in a fresh process, as ``BENCHMARK.json``
describes them. For every workload and metric the summary gives the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread: the distance between the quartiles as a share of the median. With
``--trace 0`` it flags each spread above the metric's bound, and above a
third of it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def _seeds(text: str) -> list[int]:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--workloads", help="comma-separated; default: all")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    spec = json.loads(Path("BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs: dict[str, list[dict]] = {}
    failures = 0
    for name in names:
        for seed in args.seeds:
            cmd = [*spec["command"], "--workload", name, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or len(lines) < 2:
                print(f"{name} seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
                failures += 1
                continue
            env = json.loads(lines[-2])["env"]
            result = {"env": env, **json.loads(lines[-1])}
            failures += result["failed"]
            if args.trace:
                saved = json.loads(Path(f"perfbench/.work/{name}/result.json").read_text())
                result["self_s_by_span"] = saved["self_s_by_span"]
            runs.setdefault(name, []).append({"seed": seed, **result})
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{name} seed {seed}: attempted {result['attempted']} failed "
                  f"{result['failed']} {values}", flush=True)

    summary: dict[str, dict] = {}
    for name, results in runs.items():
        summary[name] = {}
        for metric in results[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            spread = (q3 - q1) / median if median else None
            summary[name][metric] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                                     "unit": results[0]["metrics"][metric]["unit"]}
            bound = bounds.get(metric)
            flag = ""
            if args.trace == 0 and bound is not None and spread is not None:
                flag = "  OVER BOUND" if spread > bound else ("  over bound/3" if spread > bound / 3 else "")
            shown = f"{spread:.3f}" if spread is not None else "-"
            print(f"{name:<9}{metric:<28}median {median:<14.6g}spread {shown}{flag}")

    record = {
        "trace": args.trace,
        "run_seconds": spec["run_seconds"],
        "seeds": args.seeds,
        "failed": failures,
        "summary": summary,
        "runs": runs,
    }
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
