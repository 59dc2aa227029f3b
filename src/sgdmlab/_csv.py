"""Full-precision CSV writer shared by the per-step artifacts."""

from __future__ import annotations

import numpy as np


def write_csv(path, cols: np.ndarray, header: str) -> None:
    """Write ``cols`` with ``%.17g`` values under a one-line ``header``.

    The file is opened once and handed to ``np.savetxt``. Given a path,
    ``np.savetxt`` creates the file and then reopens it truncating, and on
    ext4 (``auto_da_alloc``) closing a truncated file pushes its data to
    disk, which costs tens of milliseconds per artifact.
    """
    with open(path, "w") as fh:
        np.savetxt(fh, cols, delimiter=",", header=header, comments="", fmt="%.17g")
