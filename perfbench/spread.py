"""Run the benchmark once per seed and report, per metric, the median,
the quartiles and the spread (interquartile distance over the median)
of the values, flagging a spread above a third of the metric's bound.

    python3 perfbench/spread.py --workload W --seeds 1-10 [--out FILE]

``--out`` merges the summary into a JSON file, keyed by workload, so
that a baseline of every workload can be collected one call at a time.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--out")
    args = parser.parse_args()

    values = {}
    units = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [*BENCHMARK["command"], "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(BENCHMARK["run_seconds"]), "--trace", "0"],
            cwd=HERE.parent, capture_output=True, text=True, timeout=200,
        )
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: exit code {proc.returncode}\n{proc.stderr}")
        result = json.loads(proc.stdout.splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: {result['failed']} jobs failed\n{proc.stderr}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(f"seed {seed}: " + ", ".join(
            f"{k} {v['value']:.4g}" for k, v in list(result["metrics"].items())[:4]), flush=True)

    bounds = {m["name"]: m.get("bound") for m in BENCHMARK["end_to_end"]}
    summary = {}
    for name, vals in values.items():
        q1, median, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
        spread = (q3 - q1) / median if median else 0.0
        summary[name] = {"unit": units[name], "median": median, "q1": q1, "q3": q3,
                         "spread": spread, "values": vals}
        bound = bounds.get(name)
        flag = "  > bound/3" if bound and spread > bound / 3 else ""
        print(f"{name:42s} median {median:12.6g} {units[name]:6s} spread {spread:6.3f}{flag}")
    if args.out:
        path = Path(args.out)
        data = json.loads(path.read_text()) if path.exists() else {}
        data[args.workload] = summary
        path.write_text(json.dumps(data, indent=1) + "\n")


if __name__ == "__main__":
    main()
