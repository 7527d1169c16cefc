"""CSV emission for trajectory artifacts.

Floats are printed with 17 significant digits so that re-reading an
emitted file (``np.loadtxt(path, delimiter=",", skiprows=1)``) reproduces
the in-memory values bit-exactly.  Files use LF line endings regardless
of platform.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError


def write_csv(path: str, header: list, columns: list) -> None:
    """Write named float columns; ``columns`` is a list of equal-length arrays."""
    if len(header) != len(columns):
        raise ContractError("header and column counts differ")
    cols = [np.asarray(c, dtype=float) for c in columns]
    if any(c.size != cols[0].size for c in cols):
        raise ContractError("columns must have equal length")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        np.savetxt(fh, np.column_stack(cols), fmt="%.17g", delimiter=",",
                   header=",".join(header), comments="")
