"""Command-line harness: verification sweeps, counting, listing, bijection
traces, recurrence tables, series and the refined-counterexample search.

`count` and `series` read one source, which `_counter` picks: kind-A
totals come from the product; any other count is enumerated up to
--oracle-limit; above that, kinds P and B read the recursion table of their
minimum part (so `count --family P` is the table's value there), filled up
to MAX_FILL_N.  `verify` names its sources itself, since the identity it
checks fixes which counts it compares.  A bound that a run would pass is
refused with one stderr line, "<what the command reads>; <flag> <value>
exceeds the <bound> <limit>", and exit status 2.

Exit status is 0 exactly when the executed checks report zero violations,
1 when violations were found, 2 on usage errors, infeasible bounds or a
failure to write the output, and 3 on an internal error (a crash is never a
verdict).
Identical invocations produce byte-identical output.  Output is rendered
while it is written, so a run that exits 2 or 3 part way may leave partial
output behind; only the exit status says that a run finished.
"""

import argparse
import json
import sys
from contextlib import nullcontext
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Iterable

from .bijections import BIJECTION_NAMES, takes_k, trace_bijection
from .partitions import FamilySpec, count_family, counts_by_length, member_groups
from .qseries import product_for_A
from .recurrences import (
    VerificationReport,
    family_count_via_table,
    mismatches,
    refined_AB_witness,
    shift_identity_check,
    system1,
    variant_for_min_part,
)

DEFAULT_ORACLE_LIMIT = 60
DEFAULT_DP_MAX_N = 200
MAX_TABLE_DUMP_N = 1000
# a table or product read at weight n is filled at every weight up to n:
# O(n^1.5) table cells, and O(n^1.5) additions for the product; at 5000
# either takes under a second and about 40 MB, at 40000 a table takes 800 MB
MAX_FILL_N = 5000


def _family_from_args(args):
    """The FamilySpec that --family, --i, --min-part, --k and --parity select
    (kind P, i = 2 and minimum part 1 when not given), or None after one
    line on stderr when they select none.

    A flag that would be ignored is refused too: --k below 1, --parity
    without --k, --k without --parity, --min-part with --k, --family or --i
    on table (the dump holds both index values of the one table that kinds
    P and B share), --family, --min-part, --k or --parity on witness, which
    compares the base families A and B, --min-part or --parity on
    bijection, whose map fixes its domain's minimum part, and --k on a
    bijection map other than the shift maps, which alone read it.
    """
    k, parity, min_part = args.k, args.parity, args.min_part
    refusal = None
    if k is not None and k < 1:
        refusal = "--k must be >= 1"
    elif args.command == "table" and (args.family or args.i):
        given = "--family " + args.family if args.family else "--i %d" % args.i
        refusal = "table takes no %s; it dumps the P and B table at both index values" % given
    elif args.command == "witness":
        if args.family or min_part is not None or k is not None or parity is not None:
            refusal = ("witness takes no --family, --min-part, --k or --parity; "
                       "it compares the base families A and B")
    elif args.command == "bijection":
        if min_part is not None or parity is not None:
            refusal = "bijection takes no --min-part or --parity; the map fixes its domain"
        elif k is not None and not takes_k(args.bijection):
            refusal = "%s takes no --k; only the shift maps read it" % args.bijection
    elif parity is not None and k is None:
        refusal = "--parity needs --k"
    elif k is not None and min_part is not None:
        refusal = "--min-part and --k are mutually exclusive"
    elif k is not None and parity is None:
        refusal = "--k needs --parity {odd,even}"
    elif k is not None:
        min_part = 2 * k + 1 if parity == "odd" else 2 * k
    if refusal is None:
        try:
            return FamilySpec(args.family or "P", args.i or 2, 1 if min_part is None else min_part)
        except ValueError as e:
            refusal = str(e)
    print(refusal, file=sys.stderr)
    return None


_EMIT_BLOCK_CHARS = 1 << 16  # one write; a default Linux pipe holds 64 KiB


def _emit(args, chunks: Iterable[str]) -> None:
    """Write an iterable of string chunks to --out or stdout, in blocks.

    The target is opened before the first chunk is rendered, and chunks are
    rendered only as they are written, so a failure mid-stream leaves the
    output written so far in place.

    Every write but the last is a whole number of _EMIT_BLOCK_CHARS
    characters (bytes: the output is ASCII), so a reader on a pipe gets one
    full read per block, not a full read plus a few-byte tail per batch.
    """
    target = open(args.out, "w") if args.out else nullcontext(sys.stdout)
    with target as fh:
        batch, size = [], 0
        for chunk in chunks:
            batch.append(chunk)
            size += len(chunk)
            if size >= _EMIT_BLOCK_CHARS:
                text = "".join(batch)
                size %= _EMIT_BLOCK_CHARS
                cut = len(text) - size
                fh.write(text[:cut])
                batch = [text[cut:]]
        fh.write("".join(batch))


def _fmt_partition(p) -> str:
    return "(" + ",".join(map(str, p)) + ")"


def _member_lines(groups, sep, open_, close):
    """One string per member of partitions.member_groups groups: open_, the
    parts joined by sep, then close.  A group whose tail list is empty has
    no member and renders nothing.

    Each prefix is rendered once per group and each distinct tail list once
    per call, cached under its id().  A nonempty tail starts with sep, since
    its prefix is never empty.
    """
    rendered, held = {}, []
    for prefix, tails in groups:
        strings = rendered.get(id(tails))
        if strings is None:
            strings = rendered[id(tails)] = [
                sep + sep.join(map(str, t)) + close if t else close for t in tails
            ]
            # while the list is held, no other list can take its id
            held.append(tails)
        head = open_ + sep.join(map(str, prefix))
        for tail in strings:
            yield head + tail


class _Line:
    """A file whose write returns its text, so csv writerow returns one line."""

    def write(self, text):
        return text


def _csv_lines(header, rows):
    # imported on first use, so that only csv output pays to load the module
    import csv

    line = csv.writer(_Line(), lineterminator="\n").writerow
    yield line(header)
    yield from map(line, rows)


_json_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _json_text(obj) -> str:
    return _json_encode(obj) + "\n"


def _json_array(items, open_="[", close="]\n"):
    """Chunks of a JSON array whose items are already encoded: the same bytes
    as _json_text of the decoded list."""
    yield open_
    sep = ""
    for item in items:
        yield sep + item
        sep = ","
    yield close


def _render_report(args, report: VerificationReport, rows):
    if args.format == "json":
        return [_json_text(report.to_dict())]
    if args.format == "csv":
        return _csv_lines(
            ["i", "m", "n", "expected", "actual"],
            (
                [v["i"], "" if v["m"] is None else v["m"], v["n"], v["expected"], v["actual"]]
                for v in report.violations
            ),
        )
    lines = ["%s %s max_n=%d" % (report.system, report.family, report.max_n)]
    lines += rows
    lines.append("violations: %d" % len(report.violations))
    for v in report.violations[:50]:
        lines.append(
            "  i=%s m=%s n=%s expected=%s actual=%s"
            % (v["i"], v["m"], v["n"], v["expected"], v["actual"])
        )
    return [line + "\n" for line in lines]


def _exceeds(reads, flag, value, bound, limit) -> bool:
    """True, after one line on stderr, when value exceeds limit: what the
    command reads, then "<flag> <value> exceeds the <bound> <limit>"."""
    if value <= limit:
        return False
    print("%s; %s %d exceeds the %s %d" % (reads, flag, value, bound, limit), file=sys.stderr)
    return True


def _counter(args, f, n, m=None):
    """The count of f at each weight w <= n, of length m when m is given, as
    a function of w, from the one source the module docstring's rule picks;
    or None, after one line on stderr, when n exceeds that source's bound.
    The sources are this module's globals, so a patched one is the one read.
    """
    flag = "--n" if args.command == "count" else "--max-n"
    if f.kind == "A" and m is None:
        if _exceeds(args.command + " reads the kind-A product", flag, n, "fill limit", MAX_FILL_N):
            return None
        return product_for_A(f.i, n).__getitem__
    if n <= args.oracle_limit or f.kind == "A":
        reads = args.command + " enumerates fixed-length counts of kind A"
        if _exceeds(reads, flag, n, "oracle limit", args.oracle_limit):
            return None
        return lambda w: count_family(w, f, m)
    table = variant_for_min_part(f.min_part)
    reads = "%s reads the %s table" % (args.command, table.variant)
    # a structural zero needs no fill, at any weight
    if (m is None or table.stores(m, n)) and _exceeds(reads, flag, n, "fill limit", MAX_FILL_N):
        return None
    if m is None:
        return lambda w: family_count_via_table(table, f.i, w)
    return lambda w: table.value(f.i, m, w)


def cmd_verify(args) -> int:
    f = args.family
    if f.kind == "A":
        max_n = args.max_n if args.max_n is not None else DEFAULT_DP_MAX_N
        reads = "verify reads the kind-A product and the System1 table"
        if _exceeds(reads, "--max-n", max_n, "fill limit", MAX_FILL_N):
            return 2
        prod = product_for_A(f.i, max_n)
        table = system1()
        totals = [(n, prod[n], family_count_via_table(table, f.i, n)) for n in range(max_n + 1)]
        rows = ["n=%d: A=%d B=%d" % t for t in totals]
        # the product against the table's totals, then the first cell where
        # the enumerated fixed-length counts disagree
        cells = [(f.i, None, n, {"A": a, "B": b}) for n, a, b in totals]
        if args.refined:
            w = refined_AB_witness(f.i, min(max_n, args.oracle_limit))
            if w is not None:
                m, n, ca, cb = w
                cells.append((f.i, m, n, {"A": ca, "B": cb}))
        report = VerificationReport(
            "A-product=B-counts" + ("+refined" if args.refined else ""),
            f.label(),
            max_n,
            list(mismatches(cells, [("B", "A")])),
        )
        _emit(args, _render_report(args, report, rows))
        return 0 if report.ok else 1

    max_n = args.max_n if args.max_n is not None else args.oracle_limit
    if _exceeds("verify enumerates P and B", "--max-n", max_n, "oracle limit", args.oracle_limit):
        return 2
    table = variant_for_min_part(f.min_part)
    fP = FamilySpec("P", f.i, f.min_part)
    fB = FamilySpec("B", f.i, f.min_part)
    # one column per family, handed on to the shift check, which reads the
    # same two columns
    columns = {g: [counts_by_length(n, g) for n in range(max_n + 1)] for g in (fP, fB)}
    colP, colB = columns[fP], columns[fB]
    rows = [
        "n=%d: P=%d B=%d" % (n, sum(colP[n].values()), sum(colB[n].values()))
        for n in range(max_n + 1)
    ]
    cells = (
        (f.i, m, n, {"P": colP[n][m], "B": colB[n][m], "table": table.value(f.i, m, n)})
        for n in range(max_n + 1)
        for m in range(n + 1)
    )
    report = VerificationReport(
        "P=B+%s" % table.variant,
        "P+B(i=%d,min_part=%d)" % (f.i, f.min_part),
        max_n,
        list(mismatches(cells, [("B", "P"), ("table", "P"), ("table", "B")])),
    )
    if f.min_part > 1:
        k = f.min_part // 2  # the minimum part is 2k+1 or 2k
        report.violations.extend(shift_identity_check(k, f.i, max_n, columns).violations)
        report.system += "+shift-equations"
    _emit(args, _render_report(args, report, rows))
    return 0 if report.ok else 1


def cmd_count(args) -> int:
    n = args.n
    count = _counter(args, args.family, n, args.fixed_length)
    if count is None:
        return 2
    c = count(n)
    if args.format == "json":
        chunks = [_json_text({"count": c, "n": n})]
    elif args.format == "csv":
        chunks = _csv_lines(["n", "count"], [[n, c]])
    else:
        chunks = ["%d\n" % c]
    _emit(args, chunks)
    return 0


def cmd_list(args) -> int:
    f, n = args.family, args.n
    reads = "list enumerates kind %s, which prunes less than kind B" % f.kind
    if f.kind != "B" and _exceeds(reads, "--n", n, "oracle limit", args.oracle_limit):
        return 2
    groups = member_groups(n, f, args.fixed_length)
    if args.format == "json":
        chunks = _json_array(_member_lines(groups, ",", "[", "]"))
    elif args.format == "csv":
        # the csv module quotes a lone empty field, so the empty partition
        # (the one member at n = 0) is the line ""
        chunks = chain(["parts\n"], _member_lines(groups, " ", '""' if n == 0 else "", "\n"))
    else:
        chunks = _member_lines(groups, ",", "(", ")\n")
    _emit(args, chunks)
    return 0


def _json_trace_row(r) -> str:
    """_json_encode(r.to_dict()) for a TraceRow with bool flags, formatted
    directly: the keys in sorted order, "case" only when not None."""
    return '{"bijection":%s,%s"codomain_ok":%s,"domain_ok":%s,"input":[%s],"output":%s}' % (
        encode_basestring_ascii(r.bijection),
        "" if r.case is None else '"case":%d,' % r.case,
        "true" if r.codomain_ok else "false",
        "true" if r.domain_ok else "false",
        ",".join(map(str, r.input)),
        "null" if r.output is None else "[" + ",".join(map(str, r.output)) + "]",
    )


def cmd_bijection(args) -> int:
    n = args.n
    if _exceeds("bijection enumerates the domain", "--n", n, "oracle limit", args.oracle_limit):
        return 2
    name = args.bijection
    kind = args.family.kind
    if takes_k(name):
        if args.k is None:
            print("%s needs --k >= 1" % name, file=sys.stderr)
            return 2
        if kind == "A":
            print("%s applies to families P and B only" % name, file=sys.stderr)
            return 2
    rows = trace_bijection(name, n, k=args.k, kind=kind, i=args.family.i)
    ok = all(r.domain_ok and r.codomain_ok and r.roundtrip_ok for r in rows)
    if args.format == "json":
        chunks = _json_array(map(_json_trace_row, rows))
    elif args.format == "csv":
        chunks = _csv_lines(
            ["bijection", "input", "case", "output", "domain_ok", "codomain_ok"],
            (
                [
                    r.bijection,
                    " ".join(map(str, r.input)),
                    "" if r.case is None else r.case,
                    "" if r.output is None else " ".join(map(str, r.output)),
                    r.domain_ok,
                    r.codomain_ok,
                ]
                for r in rows
            ),
        )
    else:
        chunks = (
            "%s%s %s %s\n"
            % (
                _fmt_partition(r.input),
                " -> case %d ->" % r.case if r.case is not None else " ->",
                _fmt_partition(r.output),
                "round-trip ok" if r.roundtrip_ok and r.codomain_ok else "FAILED",
            )
            for r in rows
        )
    _emit(args, chunks)
    return 0 if ok else 1


def cmd_series(args) -> int:
    degree = args.max_n if args.max_n is not None else DEFAULT_DP_MAX_N
    count = _counter(args, args.family, degree)
    if count is None:
        return 2
    coeffs = [count(w) for w in range(degree + 1)]
    if args.format == "json":
        chunks = [_json_text([str(c) for c in coeffs])]
    elif args.format == "csv":
        chunks = _csv_lines(["degree", "coefficient"], enumerate(coeffs))
    else:
        chunks = ("%d: %d\n" % (n, c) for n, c in enumerate(coeffs))
    _emit(args, chunks)
    return 0


def _table_cells(table, max_n):
    """The "i,m,n,count" cells of each (i, n) row of a table dump, as one
    list per row, in dump order.  The stored cells come from table.row; the
    lengths past them up to n are structural zeros, written without lookups.
    """
    for i in (1, 2):
        for n in range(max_n + 1):
            row = table.row(i, n)
            zero = "%d,%%d,%d,0" % (i, n)
            yield ["%d,%d,%d,%d" % (i, m, n, c) for m, c in enumerate(row)] + [
                zero % m for m in range(len(row), n + 1)
            ]


def cmd_table(args) -> int:
    max_n = args.max_n if args.max_n is not None else DEFAULT_DP_MAX_N
    reads = "table renders all (max_n+1)(max_n+2) cells"
    if _exceeds(reads, "--max-n", max_n, "dump limit", MAX_TABLE_DUMP_N):
        return 2
    table = variant_for_min_part(args.family.min_part)
    rows = _table_cells(table, max_n)
    if args.format == "json":
        chunks = _json_array(
            ("[" + "],[".join(cells) + "]" for cells in rows),
            '{"cells":[',
            '],"variant":%s}\n' % _json_encode(table.variant),
        )
    else:
        if args.format == "csv":
            head = "i,m,n,count\n"
        else:
            head = "%s cells (i,m,n,count)\n" % table.variant
        chunks = chain([head], ("\n".join(cells) + "\n" for cells in rows))
    _emit(args, chunks)
    return 0


def cmd_witness(args) -> int:
    max_n = args.max_n if args.max_n is not None else 20
    if _exceeds("witness enumerates A and B", "--max-n", max_n, "oracle limit", args.oracle_limit):
        return 2
    w = refined_AB_witness(args.family.i, max_n)
    if args.format == "json":
        if w is None:
            chunks = [_json_text({"found": False})]
        else:
            m, n, ca, cb = w
            chunks = [_json_text({"found": True, "m": m, "n": n, "countA": ca, "countB": cb})]
    elif args.format == "csv":
        chunks = _csv_lines(["m", "n", "countA", "countB"], [] if w is None else [list(w)])
    elif w is None:
        chunks = ["no witness up to max_n=%d\n" % max_n]
    else:
        chunks = ["m=%d n=%d countA=%d countB=%d\n" % w]
    _emit(args, chunks)
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    # no defaults here, so that table and witness can refuse them when given
    common.add_argument("--family", choices=("A", "B", "P"))
    common.add_argument("--i", type=int, choices=(1, 2))
    common.add_argument("--min-part", type=int, dest="min_part")
    common.add_argument("--k", type=int)
    common.add_argument("--parity", choices=("odd", "even"))
    common.add_argument("--format", choices=("text", "json", "csv"), default="text")
    common.add_argument("--out")
    common.add_argument("--oracle-limit", type=int, dest="oracle_limit", default=DEFAULT_ORACLE_LIMIT)

    parser = argparse.ArgumentParser(
        prog="evenodd",
        description="verify and explore the even-odd partition identities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", parents=[common], help="identity sweeps")
    p.add_argument("--max-n", type=int, dest="max_n")
    p.add_argument("--refined", action="store_true",
                   help="for kind A, also search for a fixed-length counterexample")

    p = sub.add_parser("count", parents=[common], help="count one family at one weight")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--fixed-length", type=int, dest="fixed_length")

    p = sub.add_parser("list", parents=[common], help="list family members at one weight")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--fixed-length", type=int, dest="fixed_length")

    p = sub.add_parser("bijection", parents=[common], help="trace a map over its domain")
    p.add_argument("bijection", choices=BIJECTION_NAMES)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("series", parents=[common], help="generating function coefficients")
    p.add_argument("--max-n", type=int, dest="max_n")

    p = sub.add_parser("table", parents=[common], help="recurrence table cells")
    p.add_argument("--max-n", type=int, dest="max_n")

    p = sub.add_parser("witness", parents=[common], help="fixed-length A vs B counterexample")
    p.add_argument("--max-n", type=int, dest="max_n")
    return parser


_COMMANDS = {
    "verify": cmd_verify,
    "count": cmd_count,
    "list": cmd_list,
    "bijection": cmd_bijection,
    "series": cmd_series,
    "table": cmd_table,
    "witness": cmd_witness,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    for flag in ("--max-n", "--n", "--fixed-length", "--oracle-limit"):
        if (getattr(args, flag[2:].replace("-", "_"), None) or 0) < 0:
            print("%s must be >= 0" % flag, file=sys.stderr)
            return 2
    # --family parsed as a kind; the commands read the whole FamilySpec
    args.family = _family_from_args(args)
    if args.family is None:
        return 2
    try:
        return _COMMANDS[args.command](args)
    except OSError as e:
        # an I/O failure is neither a verdict nor a violation
        print("evenodd: %s" % e, file=sys.stderr)
        return 2
    except Exception as e:
        # a crash must not read as "violations found" (exit 1)
        print("evenodd: internal error: %s: %s" % (type(e).__name__, e), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
