"""The one opener for append-only JSON-lines files.

The evaluation cache, the design archive and a campaign's event and span
logs are appended to, and their readers skip a torn final line.
"""

from __future__ import annotations

from pathlib import Path
from typing import TextIO

__all__ = ["open_append"]


def open_append(path: str | Path) -> tuple[TextIO, bool]:
    """Open ``path`` for appending UTF-8 text lines.

    Creates the parent directory. Returns the handle and whether the file
    is empty, so a writer whose files start with a header writes it even
    into a file a killed writer left empty. When the file does not end
    with a newline (a writer was killed mid-line), one is written first:
    the torn line stays a line of its own, and only it is lost.
    """
    path = Path(path)
    try:
        handle = path.open("a+", encoding="utf-8")
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        handle = path.open("a+", encoding="utf-8")
    size = handle.tell()
    if size:
        # Appends land at the end whatever the position, so the byte
        # layer can read the last byte before the first write.
        handle.buffer.seek(size - 1)
        if handle.buffer.read(1) != b"\n":
            handle.write("\n")
    return handle, size == 0
