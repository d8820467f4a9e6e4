"""Verification engine for even-odd partition identities.

Counts constrained partition families three independent ways (exhaustive
enumeration, recurrence tables, q-series products), implements the underlying
bijections as invertible maps and certifies the identities up to configurable
bounds.
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
