"""Mutants of the P and B enumerators that drop given members.

Each patches the seams that listing and counting read: the fixed-length P
listing and the P count per (weight, length) cell; the B groups, the B
length histogram per weight and the fixed-length B count.  A dropped
member is then missing from enumerate_family, member_groups, count_family
and counts_by_length alike, and each count loses exactly one per dropped
member of its cell.  A member is dropped at whatever index and minimum
part it belongs to, or only at min_part when that is given.
"""

from evenodd import partitions
from evenodd.partitions import FamilySpec, is_member


def _dropped(members, min_part, kind, n, i, j):
    # the members to drop from family (kind, i, j) at weight n
    if min_part not in (None, j):
        return ()
    return [p for p in members if sum(p) == n and is_member(p, FamilySpec(kind, i, j))]


def drop_p_members(monkeypatch, members, min_part=None):
    """Patch the P listing and count so that no P member in members is listed
    or counted."""
    listed, counted = partitions._p_members_fixed, partitions._p_count

    def listing(n, i, j, m):
        drop = _dropped(members, min_part, "P", n, i, j)
        return [p for p in listed(n, i, j, m) if p not in drop]

    def counting(n, i, j, m):
        return counted(n, i, j, m) - sum(len(p) == m for p in _dropped(members, min_part, "P", n, i, j))

    monkeypatch.setattr(partitions, "_p_members_fixed", listing)
    monkeypatch.setattr(partitions, "_p_count", counting)


def drop_b_members(monkeypatch, members, min_part=None):
    """Patch the B groups and counts so that no B member in members is listed
    or counted."""
    groups, lengths, counted = partitions._b_groups, partitions._b_lengths, partitions._b_count

    def grouping(n, i, j, fixed_length):
        drop = _dropped(members, min_part, "B", n, i, j)
        for prefix, tails in groups(n, i, j, fixed_length):
            yield prefix, tuple(t for t in tails if prefix + t not in drop)

    def histogram(n, i, j):
        h = list(lengths(n, i, j))
        for p in _dropped(members, min_part, "B", n, i, j):
            h[len(p)] -= 1
        return tuple(h)

    def counting(n, i, j, m):
        return counted(n, i, j, m) - sum(len(p) == m for p in _dropped(members, min_part, "B", n, i, j))

    monkeypatch.setattr(partitions, "_b_groups", grouping)
    monkeypatch.setattr(partitions, "_b_lengths", histogram)
    monkeypatch.setattr(partitions, "_b_count", counting)
