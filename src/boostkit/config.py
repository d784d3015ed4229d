"""Flat key=value experiment config files.

One `key = value` per line; blank lines and lines starting with `#` are
ignored. Keys outside the caller's set and repeated keys are rejected so
typos cannot silently fall back to defaults. Values are returned as text for
the caller to parse.
"""

from __future__ import annotations

from collections.abc import Container

from .errors import UsageError, utf8_lines


def load_config(path: str, known: Container[str]) -> dict[str, str]:
    values: dict[str, str] = {}
    for line_no, raw in enumerate(utf8_lines(path, UsageError), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise UsageError(f"{path}: line {line_no}: expected key = value")
        key = key.strip()
        value = value.strip()
        if key not in known:
            raise UsageError(f"{path}: line {line_no}: unknown config key {key!r}")
        if key in values:
            raise UsageError(f"{path}: line {line_no}: duplicate config key {key!r}")
        values[key] = value
    return values
