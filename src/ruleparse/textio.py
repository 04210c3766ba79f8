"""Line-by-line reading and chunk-by-chunk writing of text streams.

:func:`iter_lines` yields the lines of a text handle exactly as
``str.splitlines()`` splits its whole text, but reads a fixed number of
characters at a time, so a reader holds one chunk and its lines instead
of the file.  :func:`join_or_write` lets one generator per output format
serve both the whole-text form and the streamed one.
"""

from __future__ import annotations

from typing import IO, Iterable, Iterator

# Characters that end a line for ``str.splitlines()``.
_BREAKS = frozenset("\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029")
CHUNK_CHARS = 1 << 16


def iter_lines(handle: IO[str], size: int = CHUNK_CHARS) -> Iterator[str]:
    """The lines of ``handle.read()``, as ``str.splitlines()`` gives them,
    read ``size`` characters at a time.  A short read is not the end; an
    empty one is.

    Each chunk is split once.  A line that spans chunks is kept as a list
    of its pieces and joined once, when its break is read, so a long line
    costs time linear in its length.
    """
    pending: list[str] = []  # the pieces of a line whose break is not read yet
    after_cr = False  # the last chunk ended in "\r": a "\n" next ends no line
    while chunk := handle.read(size):
        if after_cr and chunk[0] == "\n":
            chunk = chunk[1:]
            if not chunk:
                after_cr = False
                continue
        lines = chunk.splitlines()
        last = chunk[-1]
        after_cr = last == "\r"
        tail = lines.pop() if last not in _BREAKS else None
        if pending and lines:
            pending.append(lines[0])
            lines[0] = "".join(pending)
            pending = []
        yield from lines
        if tail is not None:
            pending.append(tail)
    if pending:
        yield "".join(pending)


def lines_of(source: str | IO[str]) -> Iterable[str]:
    """The lines of a string, or streamed from a text handle."""
    return iter_lines(source) if hasattr(source, "read") else source.splitlines()


def join_or_write(chunks: Iterable[str], out: IO[str] | None) -> str | None:
    """The text of ``chunks``, or, given a text handle ``out``, None after
    writing the chunks there one at a time."""
    if out is None:
        return "".join(chunks)
    out.writelines(chunks)
    return None
