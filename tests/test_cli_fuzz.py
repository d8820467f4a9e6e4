"""A derandomized property over the command line: whatever argv it gets,
evenodd exits 0, 1 or 2, refuses in one stderr line, prints the same bytes
when run again, and leaves an --out target whole or as it was.

Every command is drawn with its own flags, sometimes one it does not read,
and values at the edges: negative, zero, weights up to 30, one past each
bound the flag meets (the oracle limit, the dump limit, the fill limit),
oracle limits past their cap and values argparse cannot parse.  --out
points into a fresh temporary directory (a new file, a file that exists,
a missing directory, the directory itself), at the empty name, or at
/dev/full.
"""

import contextlib
import io
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from evenodd import cli
from evenodd.bijections import BIJECTION_NAMES

_WEIGHTS = ("0", "1", "2", "3", "5", "8", "13", "21", "30")
# one past each bound the command's weight flag meets; a B list has no
# bound, so it gets only the oracle limit's
_PAST = {
    "verify": ("61", str(cli.MAX_FILL_N + 1)),
    "count": ("61", str(cli.MAX_FILL_N + 1)),
    "list": ("61",),
    "bijection": ("61",),
    "series": ("61", str(cli.MAX_FILL_N + 1)),
    "table": (str(cli.MAX_TABLE_DUMP_N + 1),),
    "witness": ("61",),
}


def _pool(good, bad):
    # each flag's values: those that parse, three times over, and those
    # that parse to a refused value or not at all
    return good * 3 + bad


_VALUES = {
    "--family": _pool(("A", "B", "P"), ("Q",)),
    "--i": _pool(("1", "2"), ("3", "x")),
    "--min-part": _pool(("1", "2", "3", "6"), ("-1", "0")),
    "--k": _pool(("1", "2", "3"), ("-1", "0")),
    "--parity": _pool(("odd", "even"), ("both",)),
    "--oracle-limit": _pool(("0", "5", "30"), ("-1", "x", str(cli.MAX_ORACLE_N + 1), "2000000")),
    "--fixed-length": _pool(_WEIGHTS + ("1000000",), ("-1", "1.5")),
    "--format": _pool(("text", "json", "csv"), ("xml",)),
}
_WEIGHT_VALUES = {command: _pool(_WEIGHTS + past, ("-1", "x", "", "1.5")) for command, past in _PAST.items()}
_SENTINEL = "written before the run\n"


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(cli._READS)))
    argv = [command]
    if command == "bijection":
        argv.append(draw(st.sampled_from(BIJECTION_NAMES + ("no-such-map",))))
    reads = cli._READS[command][1]
    flags = draw(st.sets(st.sampled_from(reads + ("--format",)), max_size=3))
    # a weight always, so that no default weight (up to 200) is run
    flags.add("--n" if "--n" in reads else "--max-n")
    if draw(st.integers(0, 9)) == 0:
        # now and then a flag the command may not read
        flags.add(draw(st.sampled_from(sorted(cli._FLAGS))))
    for flag in sorted(flags):
        if flag == "--refined":
            argv.append(flag)
            continue
        values = _WEIGHT_VALUES[command] if flag in ("--n", "--max-n") else _VALUES[flag]
        argv += [flag, draw(st.sampled_from(values))]
    return argv


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code, refused = cli.main(argv), False
        except SystemExit as e:
            # argparse refused, with its usage lines
            code, refused = e.code, True
    return code, refused, out.getvalue(), err.getvalue()


def _read(path):
    if not os.path.isfile(path):
        return None
    with open(path) as fh:
        return fh.read()


@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_argv(), st.sampled_from(("stdout", "new", "existing", "missing-dir", "dir", "empty", "/dev/full")))
def test_every_argv_exits_0_1_or_2_and_writes_whole(argv, out):
    with tempfile.TemporaryDirectory() as tmp:
        target = {
            "stdout": None,
            "new": os.path.join(tmp, "new.txt"),
            "existing": os.path.join(tmp, "existing.txt"),
            "missing-dir": os.path.join(tmp, "missing", "x"),
            "dir": tmp,
            "empty": "",
            "/dev/full": "/dev/full",
        }[out]
        if out == "existing":
            with open(target, "w") as fh:
                fh.write(_SENTINEL)
        before = None if target is None else _read(target)
        code, refused, stdout, stderr = _run(argv + ([] if target is None else ["--out", target]))
        assert code in (0, 1, 2), (argv, target, code, stderr)
        if code == 2 and not refused:
            assert len(stderr.splitlines()) == 1, (argv, target, stderr)
        if code in (0, 1):
            # run again without --out: the same verdict and the same bytes,
            # which a target, when there is one, holds whole
            again, _, stdout2, _ = _run(argv)
            assert again == code, (argv, target)
            if target is None:
                assert stdout2 == stdout, argv
            else:
                assert stdout == "", (argv, target)
                if os.path.isfile(target):
                    assert _read(target) == stdout2, (argv, target)
        elif target is not None:
            assert _read(target) == before, (argv, target)
        # no temporary file is left beside the target
        left = {"existing": {"existing.txt"}, "new": {"new.txt"} if code in (0, 1) else set()}
        assert set(os.listdir(tmp)) == left.get(out, set()), (argv, target)
