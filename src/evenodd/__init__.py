"""Verification engine for even-odd partition identities.

Counts constrained partition families three independent ways (length counts
from recursions over the families' own rules, recurrence tables, q-series
products), implements the underlying bijections as invertible maps and
certifies the identities up to configurable bounds.
"""

from .partitions import (
    FamilySpec,
    Partition,
    as_partition,
    count_family,
    counts_by_length,
    enumerate_family,
    enumerate_partitions,
    is_member,
)

__version__ = "0.1.0"

# imported on first read of evenodd.<name> (PEP 562), so `import evenodd`
# compiles only partitions
_SUBMODULES = ("bijections", "cli", "qseries", "recurrences", "sources")


def __getattr__(name):
    if name in _SUBMODULES:
        import importlib

        return importlib.import_module("." + name, __name__)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


__all__ = [
    "FamilySpec",
    "Partition",
    "as_partition",
    "count_family",
    "counts_by_length",
    "enumerate_family",
    "enumerate_partitions",
    "is_member",
    "__version__",
]
