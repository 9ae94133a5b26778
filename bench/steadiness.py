"""Steadiness report: run the benchmark once per seed on each workload and
give, per metric, the median and quartiles across runs and the spread
(third minus first quartile, as a share of the median).

Usage, from the root of a sorklie checkout:

    python3 bench/steadiness.py [--workload W ...] [--seeds 1 2 ...]
        [--seconds S] [--trace 0|1]

Defaults come from BENCHMARK.json: every workload, seeds 1-10 and its
``run_seconds``. A metric is marked steady when its spread is below a
third of its bound. Runs are sequential. The report is also written to
``.bench_out/steadiness_trace<T>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append",
                   choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report = {}
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, *spec["command"][1:], "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                flush=True)
        rows = {}
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else None
            bound = bounds.get(name)
            rows[name] = {"unit": first["unit"], "median": med, "q1": q1, "q3": q3,
                          "min": min(values), "max": max(values), "spread": spread,
                          "bound": bound,
                          "steady": None if bound is None or spread is None
                          else spread < bound / 3, "values": values}
        report[workload] = {"seeds": args.seeds, "seconds": args.seconds,
                            "all_correct": all(r["correct"] for r in runs),
                            "metrics": rows}
        print(f"\n{workload}: {len(runs)} runs")
        for name, row in rows.items():
            spread = "-" if row["spread"] is None else f"{row['spread']:.4f}"
            mark = {None: "", True: "steady", False: "NOT STEADY"}[row["steady"]]
            print(f"  {name:28s} median {row['median']:.5g} {row['unit']} "
                  f"q1 {row['q1']:.5g} q3 {row['q3']:.5g} spread {spread} "
                  f"bound {row['bound']} {mark}")
        print(flush=True)

    out = ROOT / ".bench_out" / f"steadiness_trace{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
