"""The count sources stay independent: run at a small size, each source's
call graph reaches no function of another source.

The P and B counts are the enumerator-structure source (evenodd.partitions),
the System1/2/3 tables fill by their own recursion (CountTable._fill), and
the kind-A product is a theta quotient (evenodd.qseries).  A source that
called into another would check a count against something derived from
itself.
"""

import sys

import pytest

from evenodd import partitions
from evenodd.partitions import FamilySpec, count_family, counts_by_length
from evenodd.qseries import product_for_A
from evenodd.recurrences import system1, system2, system3


def _modules_reached(run):
    # the module of every Python function that run() calls, at any depth
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_globals.get("__name__"))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return seen


def _count_p_and_b():
    # empty memos, so every recursion runs instead of answering from a memo
    for name, memo in vars(partitions).items():
        if type(memo) is dict and name[1] != "_":
            memo.clear()
    for kind in ("P", "B"):
        for i in (1, 2):
            for j in (1, 2, 3):
                f = FamilySpec(kind, i, j)
                for n in (0, 9, 24):
                    counts_by_length(n, f)
                    count_family(n, f)
                    count_family(n, f, 3)


def _fill_tables():
    for t in (system1(), system2(1), system3(2)):
        t._fill(80)


@pytest.mark.parametrize(
    "run, own, foreign",
    [
        (_count_p_and_b, "evenodd.partitions", {"evenodd.recurrences", "evenodd.qseries"}),
        (_fill_tables, "evenodd.recurrences", {"evenodd.partitions"}),
        (lambda: [product_for_A(i, 200) for i in (1, 2)], "evenodd.qseries", {"evenodd.partitions"}),
    ],
    ids=["P-and-B-counts", "table-fill", "A-product"],
)
def test_each_source_reaches_only_its_own_module(run, own, foreign):
    reached = _modules_reached(run)
    assert own in reached
    assert not reached & foreign, reached & foreign
