"""Global resource limits.

All caps exist to keep exhaustive computations (TMD families, powerset
lattices, enumeration depth) from silently exploding; they are not
correctness bounds.  CHM_MAX_N overrides the element-count cap.
"""

from __future__ import annotations

import os

from .errors import FormatError

DEFAULT_MAX_N = 64
DEFAULT_MAX_TMD_SETS = 1 << 20
DEFAULT_MAX_EXTERIOR_SETS = 1 << 12  # the exterior's order is m x m
DEFAULT_VERTEX_CAP = 5
DEFAULT_POSET_ENUM_CAP = 9
DEFAULT_CHAINMAIL_ENUM_CAP = 8
DEEP_CHAINMAIL_ENUM_CAP = 10


def max_n() -> int:
    """Element-count cap for posets built from external input."""
    raw = os.environ.get("CHM_MAX_N")
    if raw is None:
        return DEFAULT_MAX_N
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value <= 0:
        raise FormatError(f"CHM_MAX_N must be a positive integer, got {raw!r}")
    return value
