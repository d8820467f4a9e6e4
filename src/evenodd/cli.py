"""Command-line harness: verification sweeps, counting, listing, bijection
traces, recurrence tables, series and the refined-counterexample search.

Each subcommand has only the flags it reads, as _READS lists them, plus
--format and --out.  Any other argument is refused with one stderr line,
"<command> takes no <args>", and exit status 2.

A run loads only what its command reads.  This module imports partitions,
which every command reads; a command imports what it reads of sources,
recurrences, qseries, bijections or json when it runs, never into this
module's globals, so a name patched on its module is the one run.  A
subcommand's parser gets its flags when it first parses (_CommandParser).

`count` and `series` read the first row of sources.SOURCES that counts
the family and admits the weight (_counter): the product, for kind-A
totals up to MAX_FILL_N; the enumeration, for any count up to
--oracle-limit (at most MAX_ORACLE_N); the recursion table of the minimum
part, for kinds P and B up to MAX_FILL_N, and at a structural zero at any
weight (so above the oracle limit `count --family P` is the table's
value).  `verify` runs one check of the library, which compares rows:
recurrences.verify_family for kinds P and B, verify_product for kind A.  A
bound that a run would pass is refused with one stderr line, "<what the
command reads>; <flag> <value> exceeds the <bound> <limit>", and exit status 2.

Exit status is 0 exactly when the executed checks report zero violations,
1 when violations were found, 2 on usage errors, infeasible bounds or a
failure to write the output, and 3 on an internal error (a crash is never a
verdict).
Identical invocations produce byte-identical output.  Output is rendered
while it is written, so a run that exits 2 or 3 part way may leave partial
output on stdout; only the exit status says that a run finished.  A
bijection trace is also computed while it is written, a kind-B domain one
member group at a time (bijections.trace_groups) and any other _TRACE_BLOCK
rows at a time, so it holds one group or block of rows, and its verdict
(exit 1 when any row failed) is known only once the last row is written.
--out names a file that is replaced only when the run exits 0 or 1, so a
file there was written whole.
"""

import argparse
import os
import sys
from contextlib import nullcontext
from itertools import chain, islice

from .partitions import FamilySpec, member_groups

DEFAULT_ORACLE_LIMIT = 60
# the largest --oracle-limit: the P and B counts keep states that grow
# faster than the weight squared, and a deep P verify to 300 takes seconds
MAX_ORACLE_N = 300
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

    Each command has only the flags it reads (see _READS); this refuses the
    values that would select no family or go unread: --k below 1, --parity
    without --k, --k without --parity, --min-part with --k, --family, --i or
    --k on a bijection map other than the shift maps, which alone read them,
    a shift map without --k or with --family A, and --oracle-limit where the
    family decides that nothing is enumerated.
    """
    k, parity, min_part = args.k, args.parity, args.min_part
    refusal = None
    if k is not None and k < 1:
        refusal = "--k must be >= 1"
    elif args.command == "bijection":
        from .bijections import takes_k

        name = args.bijection
        if not takes_k(name):
            if args.family or args.i or k is not None:
                refusal = "%s takes no --family, --i or --k; only the shift maps read them" % name
        elif k is None:
            refusal = "%s needs --k >= 1" % name
        elif args.family == "A":
            refusal = "%s applies to families P and B only" % name
    elif parity is not None and k is None:
        refusal = "--parity needs --k"
    elif k is not None and min_part is not None:
        refusal = "--min-part and --k are mutually exclusive"
    elif k is not None and parity is None:
        refusal = "--k needs --parity {odd,even}"
    elif args.oracle_limit is not None and (unread := _oracle_limit_unread(args)):
        refusal = "%s takes no --oracle-limit %s" % (args.command, unread)
    elif k is not None:
        min_part = 2 * k + 1 if parity == "odd" else 2 * k
    if refusal is None:
        try:
            return FamilySpec(args.family or "P", args.i or 2, 1 if min_part is None else min_part)
        except ValueError as e:
            refusal = str(e)
    print(refusal, file=sys.stderr)
    return None


def _oracle_limit_unread(args):
    """Why the command would not read --oracle-limit with these flags, or None."""
    kind = args.family or "P"
    totals = getattr(args, "fixed_length", None) is None
    if args.command in ("count", "series") and kind == "A" and totals:
        return "on kind-A totals, which come from the product"
    if args.command == "list" and kind == "B":
        return "on kind B, which it lists at any --n"
    if args.command == "verify" and kind == "A" and not args.refined:
        return "on kind A without --refined"
    return None


_EMIT_BLOCK_CHARS = 1 << 16  # one write; a default Linux pipe holds 64 KiB


def _emit(args, chunks) -> None:
    """Write an iterable of string chunks to --out or stdout, in blocks.

    Chunks are rendered only as they are written, so a failure mid-stream
    leaves the stdout written so far in place.  --out is written to a new
    file beside it, which replaces it once every chunk is written; commands
    emit last, so only a run that exits 0 or 1 leaves a file there.  A
    target that exists but is not a regular file (a device, a pipe) is
    written in place.

    Every write but the last is a whole number of _EMIT_BLOCK_CHARS
    characters (bytes: the output is ASCII), so a reader on a pipe gets one
    full read per block, not a full read plus a few-byte tail per batch.
    """
    path = args.out and os.path.realpath(args.out)
    replace = path and (os.path.isfile(path) or not os.path.exists(path))
    # "x" neither follows a link planted at that name nor reuses a file
    tmp = "%s.%d.tmp" % (path, os.getpid()) if replace else path
    # an empty --out names no file, and fails to open like any unwritable one
    target = nullcontext(sys.stdout) if path is None else open(tmp, "x" if replace else "w")
    try:
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
        if replace:
            os.replace(tmp, path)
    except BaseException:
        if replace:
            os.unlink(tmp)
        raise


class _Parts(dict):
    """The str of each part, rendered once per run: parts[p] == str(p)."""

    def __missing__(self, part):
        text = self[part] = str(part)
        return text


def _member_lines(groups, sep, open_, close, between=""):
    """One chunk per nonempty group of partitions.member_groups: each member
    rendered as open_, the parts joined by sep, then close, with between
    before every member but the group's first.  A group whose tail list is
    empty has no member and yields no chunk.

    Each prefix is rendered once per group and each distinct tail list once
    per call, cached under its id().  A nonempty tail starts with sep, since
    its prefix is never empty.
    """
    part = _Parts().__getitem__
    rendered, held = {}, []
    for prefix, tails in groups:
        strings = rendered.get(id(tails))
        if strings is None:
            strings = rendered[id(tails)] = [
                sep + sep.join(map(part, t)) + close if t else close for t in tails
            ]
            # while the list is held, no other list can take its id
            held.append(tails)
        if strings:
            head = open_ + sep.join(map(part, prefix))
            yield head + (between + head).join(strings)


def _csv_lines(header, rows):
    # no field needs quoting: they are ints, bools, map names and
    # space-joined parts, and no row is one empty field
    return (",".join(map(str, row)) + "\n" for row in chain([header], rows))


def _json_encode(obj) -> str:
    import json

    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


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


def _render_report(args, report):
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
    for n, totals in report.totals:
        lines.append("n=%d: " % n + " ".join("%s=%d" % total for total in totals.items()))
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
    """The reader count(i, m, w) of the first row of sources.SOURCES that
    counts f, by length when m is given, and admits weight n; or None, after
    one line on stderr, when none admits n: the row that reaches farthest
    names its bound.  A row loads its module when opened, so a function
    patched there is the one read."""
    from .sources import SOURCES

    limits = {"oracle limit": args.oracle_limit, "fill limit": MAX_FILL_N}
    rows = [row for row in SOURCES if row.counts(f.kind, m)]
    for row in rows:
        if row.admits(f.min_part, m, n, limits[row.bound]):
            return row.open(f.kind, f.min_part, n)
    row = max(rows, key=lambda row: limits[row.bound])
    reads = "%s %s" % (args.command, row.reads(f.kind, f.min_part))
    _exceeds(reads, "--n" if args.command == "count" else "--max-n", n, row.bound, limits[row.bound])
    return None


def cmd_verify(args) -> int:
    from .recurrences import verify_family, verify_product

    f = args.family
    if args.refined and f.kind != "A":
        print("--refined applies to kind A only", file=sys.stderr)
        return 2
    if f.kind == "A":
        max_n = args.max_n if args.max_n is not None else DEFAULT_DP_MAX_N
        reads = "verify reads the kind-A product and the System1 table"
        if _exceeds(reads, "--max-n", max_n, "fill limit", MAX_FILL_N):
            return 2
        witness_max_n = min(max_n, args.oracle_limit) if args.refined else None
        report = verify_product(f.i, max_n, witness_max_n)
    else:
        max_n = args.max_n if args.max_n is not None else args.oracle_limit
        if _exceeds("verify enumerates P and B", "--max-n", max_n, "oracle limit", args.oracle_limit):
            return 2
        report = verify_family(f, max_n)
    _emit(args, _render_report(args, report))
    return 0 if report.ok else 1


def cmd_count(args) -> int:
    n, m = args.n, args.fixed_length
    count = _counter(args, args.family, n, m)
    if count is None:
        return 2
    c = count(args.family.i, m, n)
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
        chunks = _json_array(_member_lines(groups, ",", "[", "]", ","))
    elif args.format == "csv":
        # the csv module quotes a lone empty field, so the empty partition
        # (the one member at n = 0) is the line ""
        chunks = chain(["parts\n"], _member_lines(groups, " ", '""' if n == 0 else "", "\n"))
    else:
        chunks = _member_lines(groups, ",", "(", ")\n")
    _emit(args, chunks)
    return 0


# rows per trace_bijection call on a domain of a kind other than B: a json
# row is about 120 bytes, so the first block fills the first
# _EMIT_BLOCK_CHARS write
_TRACE_BLOCK = 1024


def _trace_inputs(groups, sep):
    """(input, row) for each row of trace_groups' (prefix, tails, rows)
    groups, input the member's parts joined by sep: each prefix is rendered
    once per group and each distinct tail once per call."""
    part = _Parts().__getitem__
    rendered = {}
    for prefix, tails, rows in groups:
        head = sep.join(map(part, prefix))
        for t, r in zip(tails, rows):
            text = rendered.get(t)
            if text is None:
                text = rendered[t] = sep + sep.join(map(part, t)) if t else ""
            yield head + text, r


def _json_trace_rows(pairs):
    """_json_encode(r.to_dict()) for each (input, TraceRow) pair of
    _trace_inputs(..., ","), the row's flags bools, formatted directly: the
    keys in sorted order, "case" only when not None.

    The head up to "input":[ is rendered once per (bijection, case,
    codomain_ok, domain_ok), and each distinct part once per call.
    """
    from json.encoder import encode_basestring_ascii

    part = _Parts().__getitem__
    heads = {}
    for text, r in pairs:
        key = (r.bijection, r.case, r.codomain_ok, r.domain_ok)
        head = heads.get(key)
        if head is None:
            head = heads[key] = '{"bijection":%s,%s"codomain_ok":%s,"domain_ok":%s,"input":[' % (
                encode_basestring_ascii(r.bijection),
                "" if r.case is None else '"case":%d,' % r.case,
                "true" if r.codomain_ok else "false",
                "true" if r.domain_ok else "false",
            )
        out = r.output
        yield head + text + (
            '],"output":null}' if out is None else '],"output":[' + ",".join(map(part, out)) + "]}"
        )


def cmd_bijection(args) -> int:
    from .bijections import bijection_domain, bijection_groups, domain_family, trace_bijection, trace_groups

    n = args.n
    if _exceeds("bijection enumerates the domain", "--n", n, "oracle limit", args.oracle_limit):
        return 2
    name, kw = args.bijection, dict(k=args.k, kind=args.family.kind, i=args.family.i)
    if domain_family(name, **kw).kind == "B":
        traced = trace_groups(name, bijection_groups(name, n, **kw), **kw)
    else:
        domain = bijection_domain(name, n, **kw)
        blocks = iter(lambda: trace_bijection(name, islice(domain, _TRACE_BLOCK), **kw), [])
        traced = ((r.input, ((),), [r]) for block in blocks for r in block)
    failed = []

    def groups():
        # the first failing group is noted before its rows are rendered
        for group in traced:
            if not (failed or all(r.domain_ok and r.codomain_ok and r.roundtrip_ok for r in group[2])):
                failed.append(group)
            yield group

    part = _Parts().__getitem__
    if args.format == "json":
        chunks = _json_array(_json_trace_rows(_trace_inputs(groups(), ",")))
    elif args.format == "csv":
        chunks = _csv_lines(
            ["bijection", "input", "case", "output", "domain_ok", "codomain_ok"],
            (
                [
                    r.bijection,
                    text,
                    "" if r.case is None else r.case,
                    "" if r.output is None else " ".join(map(part, r.output)),
                    r.domain_ok,
                    r.codomain_ok,
                ]
                for text, r in _trace_inputs(groups(), " ")
            ),
        )
    else:
        chunks = (
            "(%s)%s (%s) %s\n"
            % (
                text,
                " -> case %d ->" % r.case if r.case is not None else " ->",
                ",".join(map(part, r.output)),
                "round-trip ok" if r.roundtrip_ok and r.codomain_ok else "FAILED",
            )
            if r.domain_ok
            else "(%s) not in the domain FAILED\n" % text
            for text, r in _trace_inputs(groups(), ",")
        )
    _emit(args, chunks)
    return 1 if failed else 0


def cmd_series(args) -> int:
    degree = args.max_n if args.max_n is not None else DEFAULT_DP_MAX_N
    count = _counter(args, args.family, degree)
    if count is None:
        return 2
    coeffs = [count(args.family.i, None, w) for w in range(degree + 1)]
    if args.format == "json":
        chunks = [_json_text([str(c) for c in coeffs])]
    elif args.format == "csv":
        chunks = _csv_lines(["degree", "coefficient"], enumerate(coeffs))
    else:
        chunks = ("%d: %d\n" % (n, c) for n, c in enumerate(coeffs))
    _emit(args, chunks)
    return 0


def _table_cells(table, max_n, between):
    """One string per (i, n) row of a table dump, in dump order: the row's
    "i,m,n,count" cells joined by between.  The stored cells come from
    table.row; the lengths past them up to n are structural zeros, written
    without lookups by one join over the lengths' digit strings.
    """
    digits = [str(m) for m in range(max_n + 1)]
    for i in (1, 2):
        for n in range(max_n + 1):
            row = table.row(i, n)
            cells = ["%d,%d,%d,%d" % (i, m, n, c) for m, c in enumerate(row)]
            if len(row) <= n:
                head, tail = "%d," % i, ",%d,0" % n
                cells.append(head + (tail + between + head).join(digits[len(row):n + 1]) + tail)
            yield between.join(cells)


def cmd_table(args) -> int:
    max_n = args.max_n if args.max_n is not None else DEFAULT_DP_MAX_N
    reads = "table renders all (max_n+1)(max_n+2) cells"
    if _exceeds(reads, "--max-n", max_n, "dump limit", MAX_TABLE_DUMP_N):
        return 2
    from .recurrences import variant_for_min_part

    table = variant_for_min_part(args.family.min_part)
    if args.format == "json":
        chunks = _json_array(
            ("[" + row + "]" for row in _table_cells(table, max_n, "],[")),
            '{"cells":[',
            '],"variant":%s}\n' % _json_encode(table.variant),
        )
    else:
        if args.format == "csv":
            head = "i,m,n,count\n"
        else:
            head = "%s cells (i,m,n,count)\n" % table.variant
        chunks = chain([head], (row + "\n" for row in _table_cells(table, max_n, "\n")))
    _emit(args, chunks)
    return 0


def cmd_witness(args) -> int:
    max_n = args.max_n if args.max_n is not None else 20
    if _exceeds("witness enumerates A and B", "--max-n", max_n, "oracle limit", args.oracle_limit):
        return 2
    from .recurrences import refined_AB_witness

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


# every flag a command may read, and the flags each command reads besides
# --format and --out; a flag a command does not read is refused by main
_FLAGS = {
    "--family": dict(choices=("A", "B", "P")),
    "--i": dict(type=int, choices=(1, 2)),
    "--min-part": dict(type=int),
    "--k": dict(type=int),
    "--parity": dict(choices=("odd", "even")),
    "--oracle-limit": dict(type=int),
    "--max-n": dict(type=int),
    "--n": dict(type=int, required=True),
    "--fixed-length": dict(type=int),
    "--refined": dict(action="store_true",
                      help="for kind A, also search for a fixed-length counterexample"),
}
_FAMILY = ("--family", "--i", "--min-part", "--k", "--parity", "--oracle-limit")
_READS = {
    "verify": ("identity sweeps", _FAMILY + ("--max-n", "--refined")),
    "count": ("count one family at one weight", _FAMILY + ("--n", "--fixed-length")),
    "list": ("list family members at one weight", _FAMILY + ("--n", "--fixed-length")),
    "bijection": ("trace a map over its domain", ("--family", "--i", "--k", "--oracle-limit", "--n")),
    "series": ("generating function coefficients", _FAMILY + ("--max-n",)),
    "table": ("recurrence table cells", ("--min-part", "--k", "--parity", "--max-n")),
    "witness": ("fixed-length A vs B counterexample", ("--i", "--oracle-limit", "--max-n")),
}


class _CommandParser(argparse.ArgumentParser):
    """A subcommand's parser, which adds its command's flags when it first
    parses: a run builds the flags of its own command only, and only the
    bijection command reads bijections.BIJECTION_NAMES."""

    _command = None

    def parse_known_args(self, args=None, namespace=None):
        command, self._command = self._command, None
        if command == "bijection":
            from .bijections import BIJECTION_NAMES

            self.add_argument("bijection", choices=BIJECTION_NAMES)
        if command is not None:
            for flag in _READS[command][1]:
                self.add_argument(flag, **_FLAGS[flag])
            self.add_argument("--format", choices=("text", "json", "csv"), default="text")
            self.add_argument("--out")
        return super().parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evenodd",
        description="verify and explore the even-odd partition identities",
    )
    # what the commands without a selector read in its place
    parser.set_defaults(family=None, i=None, min_part=None, k=None, parity=None, oracle_limit=None)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)
    for command, (help_, _) in _READS.items():
        sub.add_parser(command, help=help_)._command = command
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
    args, unread = build_parser().parse_known_args(argv)
    if unread:
        print("%s takes no %s" % (args.command, " ".join(unread)), file=sys.stderr)
        return 2
    for flag in ("--max-n", "--n", "--fixed-length", "--oracle-limit"):
        if (getattr(args, flag[2:].replace("-", "_"), None) or 0) < 0:
            print("%s must be >= 0" % flag, file=sys.stderr)
            return 2
    # --family parsed as a kind; the commands read the whole FamilySpec
    args.family = _family_from_args(args)
    if args.family is None:
        return 2
    if args.oracle_limit is None:
        args.oracle_limit = DEFAULT_ORACLE_LIMIT
    elif _exceeds(args.command + " enumerates up to the oracle limit", "--oracle-limit",
                  args.oracle_limit, "oracle cap", MAX_ORACLE_N):
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
