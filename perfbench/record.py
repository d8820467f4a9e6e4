#!/usr/bin/env python3
"""Record every workload invocation's exit status and stdout SHA-256.

Usage, from the root of a checkout: python3 perfbench/record.py

Writes perfbench/expected.json, the record run.py checks each invocation
against. Re-record only when the program's output is meant to change.
"""

import json
import sys

from run import run_invocation
from workloads import EXPECTED_PATH, WORKLOADS


def main() -> int:
    record = {}
    for workload in WORKLOADS.values():
        for argv in workload.invocations:
            outcome = run_invocation(argv, trace=False)
            if outcome.stats is None or outcome.timed_out:
                print("%s did not finish: %s" % (argv, outcome.stderr.decode()[-400:]), file=sys.stderr)
                return 1
            record[argv] = {"exit": outcome.status, "sha256": outcome.sha256, "bytes": outcome.bytes_out}
            print("%-64s exit %d %9d bytes" % (argv, outcome.status, outcome.bytes_out))
    with open(EXPECTED_PATH, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
