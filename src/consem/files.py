"""Artifact file I/O: UTF-8 text in, atomic writes out.

It imports nothing else from the package, so every module can use it.
"""

from __future__ import annotations

import csv
import io
import os
from pathlib import Path
from typing import Iterable, Sequence

from .errors import ConsemError

__all__ = ["read_utf8", "write_atomic", "write_csv"]


def read_utf8(path: str | Path, error: type[ConsemError]) -> str:
    """The text of ``path``; a file that is not UTF-8 raises ``error`` naming the path."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc


def write_atomic(path: str | Path, data: bytes) -> None:
    """Write ``data`` to a temp file beside ``path``, then rename it over ``path``.

    A failed write leaves the previous file as it was and no temp file behind.
    """
    tmp = Path(f"{path}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_csv(path: str | Path, rows: Iterable[Sequence]) -> None:
    """Write ``rows`` as UTF-8 CSV with csv's default ``\\r\\n`` line ends, atomically."""
    buffer = io.StringIO()
    csv.writer(buffer).writerows(rows)
    write_atomic(path, buffer.getvalue().encode("utf-8"))
