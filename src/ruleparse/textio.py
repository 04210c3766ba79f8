"""Line-by-line reading and chunk-by-chunk writing of text streams.

:func:`lines_of` is the line source of every reader.  A line ends at LF,
CRLF or CR and nowhere else: U+0085, U+2028, U+2029, ``\\x0b``, ``\\x0c``
and ``\\x1c``–``\\x1e``, at which Python's ``str`` line splitter also
breaks, are text within a line.  :func:`join_or_write` lets one
generator per output format serve both the whole-text form and the
streamed one.
"""

from __future__ import annotations

from io import StringIO
from itertools import repeat
from typing import IO, Iterable, Iterator


def lines_of(source: str | IO[str]) -> Iterator[str]:
    """The lines of a string or a text handle, without their breaks.

    A handle is read line by line and must end its lines only at LF, CRLF
    or CR: open it with ``newline=None``, ``open``'s default, or with
    ``newline=""``.  A string is read through such a handle.
    """
    if isinstance(source, str):
        source = StringIO(source, newline=None)
    return map(str.rstrip, source, repeat("\r\n"))


def join_or_write(chunks: Iterable[str], out: IO[str] | None) -> str | None:
    """The text of ``chunks``, or, given a text handle ``out``, None after
    writing the chunks there one at a time."""
    if out is None:
        return "".join(chunks)
    out.writelines(chunks)
    return None
