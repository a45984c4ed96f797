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
# enumeration kind -> (largest n by default, largest n with deep)
ENUM_CAPS = {"posets": (9, 9), "chainmails": (8, 10), "lattices": (9, 9)}


def max_n() -> int:
    """Element-count cap for posets built from external input or from
    pairs (``poset.check_size``)."""
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
