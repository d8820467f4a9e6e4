"""The benchmark's workloads: fixed lists of evenodd CLI invocations.

Every input is fixed. The seed only permutes the order in which a pass runs a
workload's invocations; the program only ever receives argv.
"""

import json
import os
import random
from typing import NamedTuple, Optional

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


class CrossCheck(NamedTuple):
    """Two invocations whose first `terms` "n: c" output lines must agree."""

    left: str
    right: str
    terms: int


class Workload(NamedTuple):
    invocations: tuple  # argv strings, split on spaces
    crosscheck: Optional[CrossCheck] = None


WORKLOADS = {
    # The enumeration path: time to a verdict. Most self time is in the P and
    # B enumerators; the shifted verify dominates because the shift check
    # enumerates odd-shift members up to weight 2 * max_n.
    "verify-sweep": Workload(
        invocations=(
            "verify --family P --i 1 --max-n 60",
            "verify --family P --i 2 --max-n 60",
            "verify --family P --k 1 --parity odd --max-n 50",
            "verify --family A --refined --max-n 60",
            "witness --i 1 --max-n 60",
        ),
    ),
    # Every weight is above the oracle limit, so nothing is enumerated: the
    # recursion tables and the product series carry the whole run.
    "deep-tables": Workload(
        invocations=(
            "count --family B --n 1000",
            "count --family P --k 3 --parity even --n 1200",
            "series --family B --i 1 --max-n 1500",
            "verify --family A --i 2 --max-n 1500",
            "series --family A --i 1 --max-n 5000",
        ),
        # the product (kind A) against the table (kind B): two independent
        # sources of the same coefficients
        crosscheck=CrossCheck(
            "series --family A --i 1 --max-n 5000",
            "series --family B --i 1 --max-n 1500",
            1501,
        ),
    ),
    # The same layers used differently: the B enumerator streams members,
    # the table is dumped cell by cell, and it is the only load on the
    # bijections and on rendering (about 25.6 MB of stdout per pass).
    "stream-output": Workload(
        invocations=(
            "list --family B --n 120 --format json",
            "list --family B --i 1 --n 130",
            "list --family P --n 60 --format csv",
            "table --max-n 600 --format csv",
            "bijection B-case-min3 --n 110 --oracle-limit 110 --format json",
            "bijection P-case-generic --n 60",
            "bijection P-drop-one --n 60 --format json",
            "bijection shift-add-one --k 1 --n 60",
        ),
    ),
}


def pass_order(invocations, seed: int) -> list:
    """The invocations in the order the given seed fixes for every pass."""
    order = list(invocations)
    random.Random(seed).shuffle(order)
    return order


def load_expected(path: str = EXPECTED_PATH) -> dict:
    """Recorded {argv: {"exit": int, "sha256": str, "bytes": int}}."""
    with open(path) as fh:
        return json.load(fh)
