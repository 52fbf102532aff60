"""UTF-8 text input shared by every reader.

Files are opened with ``errors="surrogateescape"``, so a byte that is not
UTF-8 decodes to a lone surrogate instead of failing the read of a whole
buffer; `numbered_lines`, or `check_utf8` line by line, then rejects the
line that holds it. An ASCII line is valid as it stands and is not checked
further.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from .errors import DataError


def open_text(path: str):
    """Open `path` for reading as UTF-8; check its lines with `numbered_lines`."""
    return open(path, "r", encoding="utf-8", errors="surrogateescape")


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
