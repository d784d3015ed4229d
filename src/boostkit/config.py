"""Flat key=value experiment config files.

One `key = value` per line; blank lines and lines starting with `#` are
ignored. Keys outside the caller's set and repeated keys are rejected so
typos cannot silently fall back to defaults. Values are returned as text,
with the line each came from, for the caller to parse and to name that line
in any error.
"""

from __future__ import annotations

from collections.abc import Container

from .errors import TextLines, UsageError


def load_config(path: str, known: Container[str]) -> dict[str, tuple[str, int]]:
    """Each key's value and the number of its line."""
    values: dict[str, tuple[str, int]] = {}
    reader = TextLines(path, UsageError)
    with reader as lines:
        for raw in lines:
            line = raw.strip()
            if line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise UsageError("expected key = value")
            key = key.strip()
            if key not in known:
                raise UsageError(f"unknown config key {key!r}")
            if key in values:
                raise UsageError(f"duplicate config key {key!r}")
            values[key] = (value.strip(), reader.line_no)
    return values
