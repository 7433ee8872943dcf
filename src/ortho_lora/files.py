"""Output files written whole or not at all.

Every file the package writes (the run config, the CSVs and the adapter
dumps) goes through ``atomic_write``: the text goes to a temporary file in
the target's directory, which then replaces the target with ``os.replace``.
A write that fails part-way leaves the old file, if there is one, as it was,
and leaves no temporary file behind. The temporary file is not synced to
disk first, so this guards against a failing write, not against power loss.
"""

from __future__ import annotations

import contextlib
import os
from collections.abc import Iterator
from pathlib import Path
from typing import TextIO


@contextlib.contextmanager
def atomic_write(path: str | Path, newline: str | None = None) -> Iterator[TextIO]:
    """A UTF-8 text file whose content replaces path when the block ends
    without an error; newline is as for ``open``."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline=newline, encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)  # gone already after a successful replace
