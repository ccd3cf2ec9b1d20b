"""Run the benchmark once per seed and summarise each metric across the runs.

    python3 bench/collect.py --workload mc-sst --seeds 1-10 [--trace 1] [-o summary.json]

Runs ``BENCHMARK.json``'s command one process at a time from the repository
root.  For every workload and metric it reports the median, the first and
third quartile as ``statistics.quantiles(values, n=4)`` gives them, the run
count and the spread (q3 - q1) / median.  An end-to-end metric whose spread
exceeds its bound is flagged as unsteady, and the command exits 1; one whose
spread exceeds a third of its bound is noted as noisy.  The summary is
printed and, with ``-o``, written as JSON.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "runs": len(values),
        "spread": (q3 - q1) / abs(median) if median else None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", help="repeatable; default: every workload")
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"), help="e.g. 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("-o", "--output")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]} if not args.trace else {}
    summary, unsteady, noisy = {}, [], []
    for name in names:
        runs, failures = [], 0
        for seed in args.seeds:
            command = spec["command"] + [
                "--workload", name, "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                "--trace", str(args.trace),
            ]
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            lines = done.stdout.strip().splitlines()
            if done.returncode or not lines:
                print(f"{name} seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
                failures += 1
                continue
            result = json.loads(lines[-1])
            failures += 0 if result["correct"] else 1
            runs.append(result["metrics"])
            shown = bounds or ("trace.solve_s", "trace.traced_solve_s")
            print(f"{name} seed {seed}: correct={result['correct']} " + " ".join(
                f"{key}={result['metrics'][key]['value']:.6g}" for key in shown if key in result["metrics"]
            ), flush=True)
        metrics = {}
        for key in runs[0] if runs else []:
            metrics[key] = {"unit": runs[0][key]["unit"], **summarise([r[key]["value"] for r in runs])}
            bound, spread = bounds.get(key), metrics[key]["spread"] or 0.0
            if bound is not None and spread > bound:
                unsteady.append(f"{name} {key}: spread {spread:.3f} > bound {bound:.3f}")
            elif bound is not None and spread > bound / 3:
                noisy.append(f"{name} {key}: spread {spread:.3f} > bound/3 {bound / 3:.3f}")
        summary[name] = {"failed_runs": failures, "metrics": metrics}
        for key, entry in metrics.items():
            print(f"  {name:12s} {key:36s} median {entry['median']:.6g} q1 {entry['q1']:.6g} "
                  f"q3 {entry['q3']:.6g} spread {entry['spread'] if entry['spread'] is None else round(entry['spread'], 4)}")
    for line in noisy:
        print("noisy: " + line)
    for line in unsteady:
        print("unsteady: " + line)
    if args.output:
        Path(args.output).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return 1 if unsteady or any(s["failed_runs"] for s in summary.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
