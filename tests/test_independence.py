"""The count sources stay independent: each row of evenodd.sources.SOURCES,
read at a small size, reaches its own module and no module another row
counts with.

The enumeration counts with evenodd.partitions, the table row fills the
System1/2/3 tables by their own recursion (evenodd.recurrences), and the
product row is a theta quotient (evenodd.qseries).  A row that called into
another would check a count against something derived from itself.
Within evenodd.partitions, the P and B columns that verify compares reach
none of each other's recursions.
"""

import sys

import pytest

from evenodd import partitions
from evenodd.partitions import FamilySpec, count_family, counts_by_length
from evenodd.sources import SOURCES


def _calls(run):
    # (module, name) of every Python function that run() calls, at any depth
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add((frame.f_globals.get("__name__"), frame.f_code.co_name))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return seen


def _clear_memos():
    # empty memos, so every recursion runs instead of answering from a memo
    for name, memo in vars(partitions).items():
        if type(memo) is dict and name[1] != "_":
            memo.clear()


# the module each row counts with, and the modules its readers must never
# reach, by row name: a row added to SOURCES needs an entry here
REACHES = {
    "product": ("evenodd.qseries", {"evenodd.partitions", "evenodd.recurrences"}),
    "enumeration": ("evenodd.partitions", {"evenodd.recurrences", "evenodd.qseries"}),
    "table": ("evenodd.recurrences", {"evenodd.partitions", "evenodd.qseries"}),
}


def test_every_row_forbids_every_other_rows_module():
    assert set(REACHES) == {row.name for row in SOURCES}
    for name, (_, foreign) in REACHES.items():
        assert {own for other, (own, _) in REACHES.items() if other != name} <= foreign, name


def _read(row):
    # every count the row has of each kind, index and minimum part 1 to 3
    # at a few weights, one cell at a time and a column at a time
    _clear_memos()
    for kind in row.kinds:
        for j in (1,) if kind == "A" else (1, 2, 3):
            for columns in (None, {}):
                count = row.open(kind, j, 40, columns)
                for i in (1, 2):
                    for n in (0, 9, 24, 40):
                        count(i, None, n)
                        if row.refined:
                            count(i, 3, n)


@pytest.mark.parametrize("row", SOURCES, ids=lambda row: row.name)
def test_each_source_reaches_only_its_own_module(row):
    own, foreign = REACHES[row.name]
    reached = {module for module, _ in _calls(lambda: _read(row))}
    assert own in reached
    assert not reached & foreign, reached & foreign


# the recursions each side of verify's P = B comparison counts its columns
# with; a fixed B length is listed as a P bound-class state (_p_offsets),
# so the B counts must not reach the P recursions, nor P the B table
_P_RECURSIONS = {"_p_size", "_p_offsets", "_p_pairs", "_p_count", "_p_lengths", "_p_least_weights"}
_B_RECURSIONS = {"_b_at_most", "_b_parts", "_b_count"}


@pytest.mark.parametrize(
    "kind, own, foreign",
    [("B", _B_RECURSIONS, _P_RECURSIONS), ("P", _P_RECURSIONS, _B_RECURSIONS)],
)
def test_p_and_b_columns_share_no_recursion(kind, own, foreign):
    def columns():
        _clear_memos()
        for i in (1, 2):
            for j in (1, 2, 3):
                for n in (0, 9, 24, 40):
                    counts_by_length(n, FamilySpec(kind, i, j))

    called = {name for module, name in _calls(columns) if module == "evenodd.partitions"}
    assert own & called
    assert not called & foreign, called & foreign


def test_fixed_b_lengths_reach_no_p_recursion():
    # the shift check reads fixed-length B counts: they come from the
    # staircase table, as the B columns do, and never from a P class state
    def fixed_lengths():
        _clear_memos()
        partitions._B_ROWS.clear()
        for i in (1, 2):
            for j in (1, 2, 3):
                for n in (0, 9, 24, 40):
                    for m in range(n + 2):
                        count_family(n, FamilySpec("B", i, j), m)

    called = {name for module, name in _calls(fixed_lengths) if module == "evenodd.partitions"}
    assert {"_b_count", "_b_at_most"} <= called
    assert not called & _P_RECURSIONS, called & _P_RECURSIONS
