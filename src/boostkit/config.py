"""Flat key=value experiment config files.

One `key = value` per line; blank lines and lines starting with `#` are
ignored. Keys outside the caller's set and repeated keys are rejected so
typos cannot silently fall back to defaults. Values are returned as text for
the caller to parse.
"""

from __future__ import annotations

from collections.abc import Container

from .errors import TextLines, UsageError


def load_config(path: str, known: Container[str]) -> dict[str, str]:
    values: dict[str, str] = {}
    with TextLines(path, UsageError) as lines:
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
            values[key] = value.strip()
    return values
