"""Exception types shared across the package, and the reader of small text
files that names the path and line of every error raised while reading.

The CLI maps these onto process exit codes: usage errors exit 1, data
errors exit 2, internal invariant violations exit 3.
"""

from __future__ import annotations

from collections.abc import Iterator


class BoostkitError(Exception):
    """Base class for all package errors."""

    exit_code = 3


class UsageError(BoostkitError):
    """Bad flags, flag combinations, or configuration values."""

    exit_code = 1


class DataError(BoostkitError):
    """Malformed input files, invalid values, or incompatible shapes."""

    exit_code = 2


class InvariantError(BoostkitError):
    """An internal consistency check failed; indicates a bug."""

    exit_code = 3


def not_utf8(path: str, error: type[BoostkitError] = DataError) -> BoostkitError:
    """``error`` naming the first line of ``path`` that is not valid UTF-8.

    Text readers decode ahead of the line they hand out, so the line where a
    decode error surfaces can lie past the bad one. Readers call this after
    such an error, and only then is the file read a second time.
    """
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()  # at \n, \r and \r\n, as text readers count lines
    for line_no, raw in enumerate(lines, start=1):
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            return error(f"{path}: line {line_no}: not valid UTF-8 (byte {raw[exc.start]:#04x})")
    return error(f"{path}: not valid UTF-8")


class TextLines:
    """The non-blank lines of a small UTF-8 text file, without their line ends.

    ``with TextLines(path) as lines`` iterates over them. A
    :class:`BoostkitError` raised in the block comes out as the same type
    with ``<path>: line <N>: `` in front, N the line last handed out, or the
    file's last line once all are. Bytes that are not UTF-8 raise
    :func:`not_utf8`'s ``error`` before any line is handed out.
    """

    def __init__(self, path: str, error: type[BoostkitError] = DataError):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                self.lines = fh.readlines()
        except UnicodeDecodeError:
            raise not_utf8(path, error) from None
        self.path = path
        self.line_no = 0

    def __iter__(self) -> Iterator[str]:
        for self.line_no, line in enumerate(self.lines, start=1):
            if line.strip():
                yield line.rstrip("\n")

    def __enter__(self) -> Iterator[str]:
        return iter(self)

    def __exit__(self, kind, exc, tb) -> None:
        if isinstance(exc, BoostkitError):
            where = f"line {self.line_no}: " if self.line_no else ""  # an empty file has none
            exc.args = (f"{self.path}: {where}{exc}",)
