"""Full-precision CSV writer shared by the per-step artifacts."""

from __future__ import annotations

import numpy as np


def write_csv(path, cols: np.ndarray, header: str) -> None:
    """Write the rows of the 2-D array ``cols`` as ``%.17g`` values joined
    by ``,`` under a one-line ``header``: the bytes
    ``np.savetxt(path, cols, delimiter=",", header=header, comments="",
    fmt="%.17g")`` writes.

    The file is opened and written once. Given a path, ``np.savetxt``
    creates the file and then reopens it truncating, and on ext4
    (``auto_da_alloc``) closing a truncated file pushes its data to disk,
    which costs tens of milliseconds per artifact.
    """
    line = ",".join(["%.17g"] * cols.shape[1])
    body = "".join(line % tuple(row) + "\n" for row in cols.tolist())
    with open(path, "w") as fh:
        fh.write(header + "\n" + body)
