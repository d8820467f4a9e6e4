"""The benchmark's tracer skips a boundary it cannot find without failing, so
this checks that every boundary it wraps still exists in evenodd."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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
