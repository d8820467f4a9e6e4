"""Mutants of the P and B enumerators that drop given members.

Each patches the seam that both listing and counting read, so a dropped
member is missing from enumerate_family, member_groups, count_family and
counts_by_length alike.  A member is dropped at whatever index and minimum
part it belongs to, or only at min_part when that is given.
"""

from evenodd import partitions


def drop_p_members(monkeypatch, members, min_part=None):
    """Patch partitions._p_pairs so that no P member in members is listed.

    A member t + g with t in tops and g in gaps leaves its pair as
    (tops without t, gaps) and ((t,), gaps without g), which hold every
    other member of the pair once.
    """
    original = partitions._p_pairs

    def dropping(n, i, j, m):
        pairs = list(original(n, i, j, m))
        for p in members if min_part in (None, j) else ():
            t_p = tuple(x for x in p if x % 2 != j % 2)
            g_p = tuple(x for x in p if x % 2 == j % 2)
            split = []
            for tops, gaps in pairs:
                if t_p in tops and g_p in gaps:
                    split.append((tuple(t for t in tops if t != t_p), gaps))
                    split.append(((t_p,), tuple(g for g in gaps if g != g_p)))
                else:
                    split.append((tops, gaps))
            pairs = split
        return pairs

    monkeypatch.setattr(partitions, "_p_pairs", dropping)


def drop_b_members(monkeypatch, members, min_part=None):
    """Patch partitions._b_groups so that no B member in members is listed."""
    original = partitions._b_groups

    def dropping(n, i, j, fixed_length):
        drop = members if min_part in (None, j) else ()
        for prefix, tails in original(n, i, j, fixed_length):
            yield prefix, tuple(t for t in tails if prefix + t not in drop)

    monkeypatch.setattr(partitions, "_b_groups", dropping)
