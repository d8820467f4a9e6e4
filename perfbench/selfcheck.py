#!/usr/bin/env python3
"""Self-check: run the same code as two sets of runs and require them to agree.

Usage, from the root of a checkout:

    python3 perfbench/selfcheck.py [--baseline FILE]

For every workload each set makes ten untraced runs of run.py, seeds 1 to 10,
each as long as run_seconds in BENCHMARK.json. The two sets are interleaved (A B, B A, A B, ...) because the host's
CPU speed drifts over minutes, so drift has to hit both sets alike. Each set
then makes one traced run per workload, with a seed of its own. The check
fails (exit 1) unless

* every run passed its output checks;
* every count metric of the traced runs repeats exactly across the sets;
* each end-to-end metric's spread within each set (distance between the first
  and third quartile over the median) is within its bound in BENCHMARK.json;
* no end-to-end metric's median in set B differs from that in set A by more
  than its bound, in either direction;
* the traced self time and counts fall where the workload design says.

With --baseline, the medians, quartiles and sample counts of both sets, the
traced per-layer metrics and the machine's facts are written to FILE.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = ("A", "B")
RUNS = 10


def bench_run(label: str, workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if proc.returncode != 0 or result is None or not result["correct"]:
        sys.stdout.write(proc.stdout + proc.stderr)
        raise SystemExit("%s seed %d trace %d failed (exit %d)" % (workload, seed, trace, proc.returncode))
    print("  set %s %-13s seed %2d trace %d: %s" % (label, workload, seed, trace, " ".join(
        "%s=%.4g" % (k, v["value"]) for k, v in result["metrics"].items() if trace == 0)), flush=True)
    return result


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"n": len(values), "median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def design_problems(layers: dict) -> list:
    """Where the traced self time and counts must fall if the workloads
    stress the layers they were chosen for."""

    def busy(workload, prefix=""):
        return sum(v["value"] for k, v in layers[workload].items()
                   if k.startswith(prefix) and k.endswith(".busy_s"))

    def value(workload, name):
        return layers[workload][name]["value"]

    checks = {
        "partitions has most of the self time in verify-sweep":
            busy("verify-sweep", "partitions.") > busy("verify-sweep") / 2,
        "recurrences.table has most of the self time in deep-tables":
            busy("deep-tables", "recurrences.table") > busy("deep-tables") / 2,
        "deep-tables enumerates no members":
            all(value("deep-tables", "partitions.%s.members" % k) == 0 for k in "PBA"),
        "bijections.rows is above 0 only in stream-output":
            all((value(w, "bijections.rows") > 0) == (w == "stream-output") for w in layers),
    }
    return ["design: " + claim for claim, holds in checks.items() if not holds]


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // (1 << 20),
        "system": platform.platform(),
    }


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--baseline")
    args = parser.parse_args()
    seconds = bench["run_seconds"]

    e2e = {m["name"]: m for m in bench["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    samples = {w: {s: {name: [] for name in e2e} for s in SETS} for w in WORKLOADS}
    for seed in range(1, RUNS + 1):
        for workload in WORKLOADS:
            for s in SETS if seed % 2 else SETS[::-1]:
                metrics = bench_run(s, workload, seed, seconds, 0)["metrics"]
                for name in e2e:
                    samples[workload][s][name].append(metrics[name]["value"])
    traced = {w: {s: bench_run(s, w, RUNS + 1 + i, seconds, 1)["metrics"] for i, s in enumerate(SETS)}
              for w in WORKLOADS}

    problems, report = [], {}
    for workload in WORKLOADS:
        rows = report[workload] = {}
        for name, spec in e2e.items():
            a, b = (summary(samples[workload][s][name]) for s in SETS)
            change = (b["median"] - a["median"]) / a["median"]
            if spec["better"] == "higher":
                change = -change
            rows[name] = {"unit": spec["unit"], "bound": spec["bound"], "A": a, "B": b, "median_change": change}
            for s, stats in zip(SETS, (a, b)):
                if stats["spread"] > spec["bound"]:
                    problems.append("%s %s: set %s spread %.3f > bound %.3f" % (
                        workload, name, s, stats["spread"], spec["bound"]))
            if abs(change) > spec["bound"]:
                problems.append("%s %s: set B median differs by %+.3f, beyond bound %.3f" % (
                    workload, name, change, spec["bound"]))
        for name, unit in layer_units.items():
            values = [traced[workload][s][name]["value"] for s in SETS]
            if unit in ("count", "bytes") and values[0] != values[1]:
                problems.append("%s %s: counts differ between sets: %r" % (workload, name, values))

    for s in SETS:
        problems += design_problems({w: traced[w][s] for w in WORKLOADS})

    for workload, rows in report.items():
        for name, row in rows.items():
            print("%-13s %-12s %-3s A median %.4g spread %.3f | B median %.4g spread %.3f | change %+.3f (bound %.2f)" % (
                workload, name, row["unit"], row["A"]["median"], row["A"]["spread"],
                row["B"]["median"], row["B"]["spread"], row["median_change"], row["bound"]))
    for problem in problems:
        print("PROBLEM " + problem)
    print("self-check %s" % ("failed" if problems else "passed"))

    if args.baseline:
        with open(args.baseline, "w") as fh:
            json.dump({
                "machine": machine(),
                "run_seconds": seconds,
                "runs_per_set": RUNS,
                "end_to_end": report,
                "per_layer": {w: {name: {"unit": layer_units[name], "A": traced[w]["A"][name]["value"],
                                         "B": traced[w]["B"][name]["value"]} for name in layer_units}
                              for w in WORKLOADS},
                "problems": problems,
            }, fh, indent=1)
            fh.write("\n")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
