"""Exception types shared across the package, and the error for bytes that
are not UTF-8.

The CLI maps these onto process exit codes: usage errors exit 1, data
errors exit 2, internal invariant violations exit 3.
"""

from __future__ import annotations


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


def utf8_lines(path: str, error: type[BoostkitError] = DataError) -> list[str]:
    """The lines of a small UTF-8 text file, or :func:`not_utf8`'s error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.readlines()
    except UnicodeDecodeError:
        raise not_utf8(path, error) from None
