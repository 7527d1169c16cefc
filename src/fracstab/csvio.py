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
    table = np.column_stack(cols)
    # One row template, repeated and filled by a single % over all the
    # values: the bytes of np.savetxt(fmt="%.17g", delimiter=","), which
    # formats row by row.
    rows = (",".join(["%.17g"] * len(cols)) + "\n") * table.shape[0]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.write(rows % tuple(table.ravel().tolist()))
