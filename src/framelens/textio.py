"""UTF-8 text input shared by every reader.

Files are opened with ``errors="surrogateescape"``, so a byte that is not
UTF-8 decodes to a lone surrogate instead of failing the read of a whole
buffer; `numbered_lines`, or `check_utf8` line by line, then rejects the
line that holds it. An ASCII line is valid as it stands and is not checked
further. One UTF-8 byte order mark at the start of a file is skipped, so it
never becomes part of the first record.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from .errors import DataError

_BOM = b"\xef\xbb\xbf"


def open_text(path: str):
    """Open `path` for reading as UTF-8 after one leading byte order mark, if
    it has one; check its lines with `numbered_lines`.

    The mark is skipped in the byte buffer before the first decode. The
    ``utf-8-sig`` codec would do the same, but it decodes every chunk through
    a Python-level decoder, which slowed reading a 10k-line d=300 embedding
    file by 10-45 % (best of 5, 2-core x86-64).
    """
    fh = open(path, "r", encoding="utf-8", errors="surrogateescape")
    try:
        if fh.buffer.peek(len(_BOM)).startswith(_BOM):
            fh.buffer.read(len(_BOM))
    except BaseException:
        fh.close()
        raise
    return fh


def check_utf8(line: str, lineno: int, path: str, error: type[Exception] = DataError) -> None:
    """Raise `error` naming line `lineno` of `path` when `line` was not valid UTF-8."""
    if not line.isascii():
        try:
            line.encode("utf-8")
        except UnicodeEncodeError:
            raise error(f"{path}:{lineno}: not valid UTF-8") from None


def numbered_lines(
    lines: Iterable[str], path: str, error: type[Exception] = DataError
) -> Iterator[tuple[int, str]]:
    """Yield ``(lineno, line)`` from 1; raise `error` naming the first line
    that was not valid UTF-8."""
    for lineno, line in enumerate(lines, start=1):
        check_utf8(line, lineno, path, error)
        yield lineno, line
