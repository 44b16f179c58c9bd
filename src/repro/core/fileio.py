"""The one opener for append-only JSON-lines files, and their encoder.

The store of paid-for evaluations (the eval cache and the design
archive) and a campaign's event and span logs are appended to, and their
readers skip a torn final line. Every such writer opens its file through
:func:`open_append`; the store keeps the handle it returns open across
appends (see :class:`~repro.core.evalstack.PersistentCache`), the event
and span logs for the life of their sink.

:func:`dumps` encodes every event line, journal line and store row: the
bytes of ``json.dumps``, through one C encoder built once.
:func:`dumps_sorted` is its ``sort_keys=True`` twin, which a dataset's
content fingerprint hashes.
"""

from __future__ import annotations

import json
import json.encoder
import os
from pathlib import Path
from typing import Any, Callable, TextIO

__all__ = ["KeptAppender", "dumps", "dumps_sorted", "open_append"]


def _make_dumps(sort_keys: bool = False) -> Callable[[Any], str]:
    """``json.dumps`` with default arguments but ``sort_keys``, minus the
    circular-reference check: one C encoder, made as
    ``JSONEncoder.encode`` makes one on every call, and reused. Without
    the C accelerator, that ``encode``."""
    encoder = json.JSONEncoder(check_circular=False, sort_keys=sort_keys)
    make_encoder = json.encoder.c_make_encoder
    if make_encoder is None:
        return encoder.encode
    iterencode = make_encoder(
        None,  # no circular-reference markers
        encoder.default,
        json.encoder.encode_basestring_ascii,
        encoder.indent,
        encoder.key_separator,
        encoder.item_separator,
        encoder.sort_keys,
        encoder.skipkeys,
        encoder.allow_nan,
    )

    def dumps(obj: Any) -> str:
        return "".join(iterencode(obj, 0))

    return dumps


#: The same bytes as ``json.dumps(obj)`` for every input it encodes.
dumps = _make_dumps()
#: The same bytes as ``json.dumps(obj, sort_keys=True)``: the encoding of
#: a dataset's content fingerprint.
dumps_sorted = _make_dumps(sort_keys=True)


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


class KeptAppender:
    """Appends to one JSON-lines file through a handle kept open across
    appends, with the guarantees of opening it per append.

    Before each append one ``os.stat`` of the path checks that the handle
    still ends the file: the path names the file the handle opened
    (``st_dev``, ``st_ino``), and the file's size is where this handle's
    last write ended. When the file was deleted or replaced (say, by
    ``nautilus cache compact`` in another process), or another writer
    appended to it, the handle is closed and the file reopened through
    :func:`open_append`: a torn tail gets its newline, and a new or
    emptied file its header. A write or flush that raises closes the
    handle; the next append reopens.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._handle: TextIO | None = None
        self._ident: tuple[int, int] | None = None
        self._end = -1

    def append(self, lines: str, header: Any) -> None:
        """Write already-encoded, newline-terminated ``lines`` with one
        write, and flush. A file that holds no complete line gets
        ``header`` first (after the torn line, if there is one)."""
        handle = self._handle
        if handle is not None:
            try:
                st = os.stat(self.path)
            except FileNotFoundError:
                st = None
            if (
                st is None
                or (st.st_dev, st.st_ino) != self._ident
                or st.st_size != self._end
            ):
                self.close()
                handle = None
        if handle is None:
            handle, headless = open_append(self.path)
            self._handle = handle
            st = os.fstat(handle.fileno())
            self._ident = (st.st_dev, st.st_ino)
            if headless:
                lines = dumps(header) + "\n" + lines
        try:
            handle.write(lines)
            handle.flush()
            self._end = handle.tell()
        except BaseException:
            try:
                self.close()
            except OSError:
                pass  # the write's error is the one to raise
            raise

    def close(self) -> None:
        """Close the handle; a later append reopens the file."""
        handle, self._handle = self._handle, None
        if handle is not None:
            handle.close()
