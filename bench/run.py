"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload ising-dual --seed 1 --seconds 20 --trace 0

Run it from the repository root; it imports ``ssdual`` from ``src/`` of the
same tree and writes only under ``.bench_work/``.  The workload's timed
pipeline repeats until ``--seconds`` have passed.  ``solve_s`` is the
fastest repetition; the other metrics are medians over repetitions.  A repetition whose correctness checks fail
contributes no timing.

With ``--trace 0`` the result holds the end-to-end metrics of
``BENCHMARK.json``; ``setup_s`` is the fastest of several fresh interpreter
processes' times from process start until the workload's inputs are ready.  With ``--trace 1`` untraced, traced and memory-traced repetitions
alternate and the result holds the per-layer metrics; the spans are written
to ``.bench_work/traces/``.

Lines before the last repeat every metric by name with its unit, the failed
fraction of correctness checks and an environment stamp.  The last line is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# Set-up probes: at least this many per run, and after each repetition as many
# as fit in this share of its time.  On a 2-vCPU VM shared with other machines
# the speed flips between a fast and a slow mode (1.2 to 1.7 times slower) for
# seconds to tens of minutes at a time.  The fastest probe or repetition of a
# run, sampled over the whole run, moves less between runs than their median.
SETUP_PROBES = 11
PROBE_SHARE = 0.1

# A fresh interpreter that does exactly the set-up of a benchmark process and
# prints the system-wide monotonic clock once the workload's inputs are ready.
PROBE = """\
import sys, time
sys.path[:0] = [{src!r}, {bench!r}]
import workloads
workload = workloads.prepare({name!r}, {seed!r}, {work!r})
ready = time.monotonic()
workload.close()
print(ready)
"""


def import_package() -> None:
    """Put this tree's ``src`` first on the path and make sure ``ssdual`` comes from it."""
    sys.path[:0] = [str(SRC), str(BENCH)]
    import ssdual

    if Path(ssdual.__file__).resolve().parent != SRC / "ssdual":
        raise ImportError(f"ssdual was imported from {ssdual.__file__}, not from {SRC}")


def setup_time(code: str) -> float:
    """Seconds from starting a fresh interpreter on a ``PROBE`` until its inputs are ready."""
    begin = time.monotonic()
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=120)
    if done.returncode:
        raise RuntimeError(f"set-up probe exited {done.returncode}: {done.stderr.strip()}")
    return float(done.stdout.split()[-1]) - begin


def _blas_threads() -> int | None:
    import numpy as np

    for lib in (Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                return int(getter())
    return None


def environment() -> dict:
    import numpy as np

    import workloads

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = None
    sizes = {}
    for name, cls in workloads.WORKLOADS.items():
        states = cls.states(cls.params)
        sizes[name] = {"states": states, "dense_float64_bytes": [8 * m * m for m in states]}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "workloads": sizes,
    }


def _median(records: list[dict], key: str):
    values = [r[key] for r in records if key in r]
    return statistics.median(values) if values else None



def run(name: str, seed: int, seconds: float, trace: bool, *, params: dict | None = None,
        probes: int = SETUP_PROBES) -> dict:
    """Run one workload; returns every measured value by metric name plus check counts."""
    import tracing
    import workloads

    values: dict = {}
    WORK.mkdir(exist_ok=True)
    probe = None
    if not trace and probes:
        probe = PROBE.format(src=str(SRC), bench=str(BENCH), name=name, seed=seed, work=str(WORK))
        setup_time(probe)  # warms the bytecode and file caches; not counted
    setup_times: list[float] = []
    kinds = ("plain", "spans", "memory") if trace else ("plain",)
    records: dict[str, list[dict]] = {kind: [] for kind in kinds}
    spans: list[dict] = []
    attempted = failed = 0
    workload = workloads.prepare(name, seed, WORK, **(params or {}))
    try:
        origin = time.perf_counter()
        for i in itertools.count():
            if i >= len(kinds) and time.perf_counter() - origin >= seconds:
                break
            kind = kinds[i % len(kinds)]
            begin = time.perf_counter()
            tracer = None if kind == "plain" else tracing.Tracer(f"{name}/{seed}/{i}", memory=kind == "memory")
            try:
                with tracer.installed() if tracer else contextlib.nullcontext():
                    start = time.perf_counter()
                    out = workload.pipeline()
                    solve = time.perf_counter() - start
                checks = workload.check(out)
            except Exception:  # a crashing pipeline is a failed check, and the run goes on
                traceback.print_exc()
                checks = [("exception", False)]
            if probe:
                deadline = time.perf_counter() + PROBE_SHARE * (time.perf_counter() - begin)
                setup_times.append(setup_time(probe))
                while time.perf_counter() < deadline:
                    setup_times.append(setup_time(probe))
            attempted += len(checks)
            bad = [check for check, ok in checks if not ok]
            failed += len(bad)
            if bad:
                print(f"{name} repetition {i}: failed {bad}", file=sys.stderr)
                continue
            record = {key: value for key, value in out.items() if not key.startswith("_")}
            record["solve_s"] = solve
            if tracer:
                layer = tracer.metrics()
                record.update(layer)
                record["trace.unattributed_s"] = solve - sum(layer[f"{l}.self_s"] for l in tracing.LAYERS)
                record["trace.spans"] = len(tracer.spans)
                spans += tracer.records(origin)
            records[kind].append(record)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        while probe and len(setup_times) < probes:
            setup_times.append(setup_time(probe))
        if setup_times:
            values["setup_s"] = min(setup_times)
    finally:
        workload.close()

    plain = records["plain"]
    if plain and not trace:
        # The fastest repetition, for the reason given at SETUP_PROBES.
        values["solve_s"] = min(r["solve_s"] for r in plain)
    if trace:
        values["trace.solve_s"] = _median(plain, "solve_s")
        for key in set().union(*records["spans"]):
            values[key] = _median(records["spans"], key)
        values["trace.traced_solve_s"] = values.pop("solve_s", None)
        # Whole-command wall times come from untraced repetitions.
        for key in set().union(*plain):
            if key.startswith("cli."):
                values[key] = _median(plain, key)
        for key in set().union(*records["memory"]):
            if key.endswith("_peak_mb"):
                values[key] = _median(records["memory"], key)
        # The tracer's cost: its calls times the cost of one traced call, measured on a no-op.
        # (A traced minus an untraced repetition would mostly measure the host's drift.)
        spans_per_run = _median(records["spans"], "trace.spans")
        if spans_per_run is not None:
            values["trace.overhead_s"] = spans_per_run * tracing.call_cost()
        (WORK / "traces").mkdir(exist_ok=True)
        (WORK / "traces" / f"{name}-seed{seed}.json").write_text(json.dumps(spans))
    values["repetitions"] = {kind: [round(r["solve_s"], 4) for r in recs] for kind, recs in records.items()}
    if setup_times:
        values["repetitions"]["setup"] = [round(t, 4) for t in setup_times]
    values["attempted"], values["failed"] = attempted, failed
    return values


def result_line(spec: dict, values: dict, trace: bool) -> dict:
    """The final JSON object: declared metrics that were measured; unreached layers read 0 when traced."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for metric in declared:
        value = values.get(metric["name"])
        if value is None and trace and values["failed"] == 0:
            value = 0.0
        if value is not None:
            metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    attempted, failed = values["attempted"], values["failed"]
    return {"correct": failed == 0 and attempted > 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        import_package()
        import workloads
    except (OSError, ValueError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    values = run(args.workload, args.seed, args.seconds, bool(args.trace))
    result = result_line(spec, values, bool(args.trace))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace} "
          f"seconds per repetition {values['repetitions']}")
    print("env " + json.dumps(environment(), sort_keys=True))
    for metric, entry in result["metrics"].items():
        print(f"{metric:36s} {entry['value']:.6g} {entry['unit']}")
    print(f"{'failed_frac':36s} {result['failed'] / max(result['attempted'], 1):.6g} ratio "
          f"({result['failed']} of {result['attempted']} checks)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
