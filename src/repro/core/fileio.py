"""The one opener for append-only JSON-lines files, and their encoder.

The store of paid-for evaluations (the eval cache and the design
archive) and a campaign's event and span logs are appended to, and their
readers skip a torn final line.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, TextIO

__all__ = ["append_lines", "dumps", "open_append"]

#: ``json.dumps`` with default arguments, minus the circular-reference
#: check: the same bytes, for lines written every generation.
dumps = json.JSONEncoder(check_circular=False).encode


def open_append(path: str | Path) -> tuple[TextIO, bool]:
    """Open ``path`` for appending UTF-8 text lines.

    Creates the parent directory. Returns the handle and whether the file
    holds no complete line, so a writer whose files start with a header
    writes it even into a file a killed writer left empty or cut inside
    its first line. When the file does not end with a newline (a writer
    was killed mid-line), one is written first: the torn line stays a
    line of its own, and only it is lost. Deciding reads at most the
    file's last byte and first line.
    """
    path = Path(path)
    try:
        handle = path.open("a+", encoding="utf-8")
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        handle = path.open("a+", encoding="utf-8")
    size = handle.tell()
    headless = size == 0
    if size:
        # Appends land at the end whatever the position, so the byte
        # layer can read the file before the first write.
        handle.buffer.seek(size - 1)
        if handle.buffer.read(1) != b"\n":
            handle.buffer.seek(0)
            headless = not handle.buffer.readline().endswith(b"\n")
            handle.write("\n")
    return handle, headless


def append_lines(path: str | Path, lines: str, header: Any) -> None:
    """Append already-encoded, newline-terminated ``lines`` to ``path``
    with one write; a file that holds no complete line gets ``header``
    first (after the torn line, if there is one).

    Returns once the lines are flushed, so a caller that indexes rows
    after this call indexes only rows whose lines are written.
    """
    handle, headless = open_append(path)
    with handle:
        if headless:
            handle.write(dumps(header) + "\n")
        handle.write(lines)
