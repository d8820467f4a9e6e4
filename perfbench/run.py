#!/usr/bin/env python3
"""evenodd benchmark: fixed lists of CLI invocations, each in a fresh interpreter.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Users pay the import and the lazy table fill on every CLI run, so every
invocation spawns a new interpreter that calls evenodd.cli.main(argv); there is
no in-process cache to flatter a result. One child runs at a time. A pass runs
every invocation of the workload once, in the order the seed fixes, and the run
repeats passes for about S seconds.

Every invocation's exit status and stdout SHA-256 are checked against
perfbench/expected.json; deep-tables also cross-checks the product series
against the table series. With --trace 0 the run reports the end-to-end
metrics (see end_to_end); with --trace 1 it alternates untraced and
traced passes and reports the per-layer metrics of perfbench/tracer.py. The
last line of stdout is one JSON object: correct, attempted, failed, metrics.
The exit status is 0 only when every check passed.
"""

import argparse
import hashlib
import json
import os
import selectors
import statistics
import subprocess
import sys
import time
from typing import NamedTuple, Optional

import tracer
from workloads import WORKLOADS, load_expected, pass_order

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
INVOCATION_TIMEOUT_S = 90.0
# a run must end within 180 s; no invocation may run past this budget
RUN_BUDGET_S = 165.0
READ_CHUNK = 1 << 20
# The host's speed drifts by up to 1.5x over minutes and switches between two
# states within seconds. Before each invocation the driver times a fixed piece
# of pure-Python work like the enumerators' (recursive generators building
# tuples); end-to-end times are scaled by REFERENCE_NOMINAL_S over the run's
# mean sample, to the speed at which that work takes REFERENCE_NOMINAL_S (its
# median on the 2-core Xeon host the baseline was measured on).
REFERENCE_N = 28
REFERENCE_NOMINAL_S = 0.0188


def _reference_parts(rem, maxp):
    if rem == 0:
        yield ()
        return
    for v in range(min(rem, maxp), 0, -1):
        for tail in _reference_parts(rem - v, v):
            yield (v,) + tail


def reference_sample() -> float:
    """Seconds the fixed reference work takes on the host right now."""
    start = time.perf_counter()
    for _ in _reference_parts(REFERENCE_N, REFERENCE_N):
        pass
    return time.perf_counter() - start


class Outcome(NamedTuple):
    argv: str
    status: Optional[int]
    sha256: str
    bytes_out: int
    stdout: Optional[bytes]  # kept only for cross-checked invocations
    wall_s: float
    cpu_s: float
    first_byte_s: float
    setup_s: Optional[float]  # spawn until the CLI's parser was built
    maxrss_kb: int
    stats: Optional[dict]  # the child's record; None if it never finished
    stderr: bytes
    timed_out: bool


def run_invocation(argv: str, trace: bool, keep_stdout: bool = False,
                   timeout: float = INVOCATION_TIMEOUT_S) -> Outcome:
    """Spawn one child for `argv`, drain its pipes, reap it with wait4."""
    stats_read, stats_write = os.pipe()
    env = dict(os.environ, PYTHONPATH=SRC)
    spawned = time.monotonic()
    try:
        proc = subprocess.Popen(
            [sys.executable, CHILD, str(stats_write), "1" if trace else "0", *argv.split()],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            pass_fds=(stats_write,), cwd=ROOT, env=env,
        )
    finally:
        os.close(stats_write)
    digest, size, first_byte = hashlib.sha256(), 0, None
    kept, err, raw_stats = [], [], []
    sinks = {proc.stdout.fileno(): "out", proc.stderr.fileno(): "err", stats_read: "stats"}
    deadline, timed_out = spawned + timeout, False
    sel = selectors.DefaultSelector()
    try:
        for fd in sinks:
            sel.register(fd, selectors.EVENT_READ)
        while sel.get_map():
            wait = None if timed_out else max(0.0, deadline - time.monotonic())
            events = sel.select(wait)
            if not events and not timed_out and time.monotonic() >= deadline:
                proc.kill()
                timed_out = True
            for key, _ in events:
                data = os.read(key.fd, READ_CHUNK)
                if not data:
                    sel.unregister(key.fd)
                elif sinks[key.fd] == "out":
                    if first_byte is None:
                        first_byte = time.monotonic() - spawned
                    digest.update(data)
                    size += len(data)
                    if keep_stdout:
                        kept.append(data)
                elif sinks[key.fd] == "err":
                    err.append(data)
                else:
                    raw_stats.append(data)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        sel.close()
        os.close(stats_read)
        proc.stdout.close()
        proc.stderr.close()
    _, wait_status, usage = os.wait4(proc.pid, 0)
    wall = time.monotonic() - spawned
    proc.returncode = os.waitstatus_to_exitcode(wait_status)
    try:
        stats = json.loads(b"".join(raw_stats)) if raw_stats else None
    except ValueError:
        stats = None
    return Outcome(
        argv=argv,
        status=proc.returncode,
        sha256=digest.hexdigest(),
        bytes_out=size,
        stdout=b"".join(kept) if keep_stdout else None,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        first_byte_s=wall if first_byte is None else first_byte,
        setup_s=stats["setup_at"] - spawned if stats and "setup_at" in stats else None,
        maxrss_kb=usage.ru_maxrss,
        stats=stats,
        stderr=b"".join(err),
        timed_out=timed_out,
    )


def check(outcome: Outcome, expected: Optional[dict]) -> Optional[str]:
    """Why the invocation failed, or None when it matches its record."""
    if outcome.timed_out:
        return "timed out"
    if outcome.stats is None:
        tail = outcome.stderr.decode(errors="replace").strip().splitlines()[-1:]
        return "crashed (exit %s) %s" % (outcome.status, " ".join(tail))
    if expected is None:
        return "no recorded exit status and digest"
    if outcome.status != expected["exit"]:
        return "exit %s, expected %s" % (outcome.status, expected["exit"])
    if outcome.sha256 != expected["sha256"]:
        return "stdout digest %s, expected %s" % (outcome.sha256[:12], expected["sha256"][:12])
    return None


def series_terms(stdout: bytes, terms: int) -> list:
    """The first `terms` (degree, coefficient) pairs of `series` text output."""
    pairs = []
    for line in stdout.decode().splitlines()[:terms]:
        degree, coeff = line.split(": ")
        pairs.append((int(degree), int(coeff)))
    return pairs


def crosscheck_error(left: Outcome, right: Outcome, terms: int) -> Optional[str]:
    """Why two series outputs disagree on their first `terms` coefficients."""
    try:
        a, b = series_terms(left.stdout, terms), series_terms(right.stdout, terms)
    except (ValueError, UnicodeDecodeError) as e:
        return "series cross-check: unreadable output (%s)" % e
    if len(a) < terms or len(b) < terms:
        return "series cross-check: fewer than %d coefficients" % terms
    if a != b:
        degree = next(x[0] for x, y in zip(a, b) if x != y)
        return "series cross-check: coefficients differ at degree %d" % degree
    return None


class Pass(NamedTuple):
    wall_s: float  # without the reference samples
    outcomes: list
    errors: dict  # argv -> reason, for the failed invocations
    reference: list  # reference_sample() before each invocation


def run_pass(workload, order, expected, trace: bool, deadline: float) -> Pass:
    keep = set(workload.crosscheck[:2]) if workload.crosscheck else set()
    start = time.monotonic()
    outcomes, errors, reference = [], {}, []
    for argv in order:
        reference.append(reference_sample())
        timeout = min(INVOCATION_TIMEOUT_S, max(1.0, deadline - time.monotonic()))
        outcome = run_invocation(argv, trace, argv in keep, timeout)
        outcomes.append(outcome)
        error = check(outcome, expected.get(argv))
        if error:
            errors[argv] = error
    wall = time.monotonic() - start - sum(reference)
    if workload.crosscheck:
        left, right, terms = workload.crosscheck
        by_argv = {o.argv: o for o in outcomes}
        error = crosscheck_error(by_argv[left], by_argv[right], terms)
        if error:
            for argv in (left, right):
                errors.setdefault(argv, error)
    return Pass(wall, outcomes, errors, reference)


def host_factor(passes: list) -> float:
    """REFERENCE_NOMINAL_S over the run's mean reference sample: below 1
    when the host ran slower than nominal."""
    return REFERENCE_NOMINAL_S / statistics.fmean(r for p in passes for r in p.reference)


def end_to_end(passes: list, factor: float = 1.0) -> dict:
    """Per-pass times averaged over the run's passes, peak RSS as the median
    pass's, and setup_s as the median over every invocation; every time is
    multiplied by `factor`.

    A run has only 4 to 6 passes, and the host's speed switches between two
    states within seconds, so the mean of so few passes is steadier from run
    to run than their median; the noise is bounded, with no long tail.
    """
    setups = [o.setup_s for p in passes for o in p.outcomes if o.setup_s is not None]
    return {
        "wall_s": factor * statistics.fmean(p.wall_s for p in passes),
        "cpu_s": factor * statistics.fmean(sum(o.cpu_s for o in p.outcomes) for p in passes),
        "first_byte_s": factor * statistics.fmean(sum(o.first_byte_s for o in p.outcomes) for p in passes),
        "peak_rss_mb": statistics.median(max(o.maxrss_kb for o in p.outcomes) / 1024 for p in passes),
        "setup_s": factor * statistics.median(setups) if setups else float("nan"),
    }


def per_layer(plain: list, traced: list) -> dict:
    """Medians over traced passes of the tracer's layer metrics, plus the
    import time and the tracing overhead against the untraced passes."""
    samples = []
    for p in traced:
        layers = tracer.pass_layers([o.stats for o in p.outcomes if o.stats and "spans" in o.stats])
        samples.append(tracer.layer_metrics(layers, sum(o.bytes_out for o in p.outcomes)))
    metrics = {name: statistics.median(s[name] for s in samples) for name in samples[0]}
    imports = [o.stats["import_s"] for p in traced for o in p.outcomes if o.stats]
    metrics["process.import_s"] = statistics.median(imports) if imports else float("nan")
    metrics["trace.overhead_s"] = (
        statistics.median(p.wall_s for p in traced) - statistics.median(p.wall_s for p in plain)
    )
    return metrics


def measure(name: str, seed: int, seconds: float, trace: bool):
    """Run passes for about `seconds`; return (order, untraced passes, traced passes)."""
    workload = WORKLOADS[name]
    expected = load_expected()
    order = pass_order(workload.invocations, seed)
    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    plain, traced = [], []
    while True:
        plain.append(run_pass(workload, order, expected, False, deadline))
        if trace:
            traced.append(run_pass(workload, order, expected, True, deadline))
        elapsed = time.monotonic() - start
        # start another round only if it should end within `seconds`
        if elapsed * (len(plain) + 1) / len(plain) > seconds or time.monotonic() > deadline:
            return order, plain, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "evenodd", "cli.py")):
        print("perfbench: no evenodd sources under %s; run from a checkout" % SRC, file=sys.stderr)
        return 2

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}

    order, plain, traced = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    passes = plain + traced
    attempted = sum(len(p.outcomes) for p in passes)
    failed = sum(len(p.errors) for p in passes)
    factor = host_factor(plain)
    metrics = per_layer(plain, traced) if args.trace else end_to_end(plain, factor)

    print("workload %s seed %d trace %d passes %d+%d" % (
        args.workload, args.seed, args.trace, len(plain), len(traced)))
    for i, argv in enumerate(order):
        print("  order %d: %s" % (i, argv))
    for i, p in enumerate(passes):
        print("  pass %d%s: wall %.4f s cpu %.4f s" % (
            i, " traced" if i >= len(plain) else "", p.wall_s, sum(o.cpu_s for o in p.outcomes)))
        for argv, reason in sorted(p.errors.items()):
            print("  FAILED %s: %s" % (argv, reason))
    for boundary in sorted({b for p in traced for o in p.outcomes if o.stats for b in o.stats["missing"]}):
        print("  untraced boundary (gone from the package): %s" % boundary)
    print("failed_frac %.6f ratio (%d of %d invocations)" % (failed / attempted, failed, attempted))
    print("host_factor %.6f (times below are scaled by it; unscaled: %s)" % (factor, " ".join(
        "%s=%.6g" % kv for kv in end_to_end(plain).items())))
    for key, value in metrics.items():
        print("%s %s %s" % (key, value, units[key]))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
