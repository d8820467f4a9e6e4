"""The benchmark's tracer skips a boundary it cannot find without failing, so
this checks that every boundary it wraps still exists in evenodd, and that
the tracer finds each one from the package as the benchmark's child
imports it."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
SRC = Path(__file__).resolve().parent.parent / "src"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_boundary_resolves():
    tracer = _load_tracer()
    boundaries = [(mod_name, attr) for mod_name, attr, *_ in tracer.BOUNDARIES]
    # install counts CountTable.value calls besides wrapping BOUNDARIES
    boundaries.append(("recurrences", "CountTable.value"))
    for mod_name, attr in boundaries:
        owner = importlib.import_module("evenodd." + mod_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        assert callable(owner), "%s.%s" % (mod_name, attr)


def _fresh(script, *argv):
    """The stdout of script run in a fresh interpreter that imports this
    evenodd, as the benchmark's child does."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=str(SRC) if not path else str(SRC) + os.pathsep + path)
    proc = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    return proc.stdout


def test_tracer_installs_every_boundary_through_the_package():
    # the child imports evenodd and evenodd.cli only; install finds the
    # submodules cli has not loaded through the package's attributes
    script = """
import importlib.util, sys
import evenodd, evenodd.cli
spec = importlib.util.spec_from_file_location("perfbench_tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
print(tracer.install(tracer.Tracer(), evenodd))
"""
    assert _fresh(script, str(TRACER)) == "[]\n"


def test_package_attributes_load_their_submodules():
    script = "import evenodd; print(evenodd.recurrences.variant_for_min_part(1).value(1, 0, 0))"
    assert _fresh(script) == "1\n"


def test_an_unknown_package_attribute_is_an_attribute_error():
    import evenodd

    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        evenodd.nope
