"""Plain-text model files with exact float round-trips.

Format version 1 is line-oriented, space-separated, UTF-8. Floats use
Python's shortest round-trip decimal representation, so reloading a model
reproduces its predictions bit for bit. Writes go to a temp file in the
target directory and are renamed into place, so interrupted runs never
leave a partial model.

Classifier file:

    boostkit-model 1
    mode classify
    seed <int>
    config <echo string, no spaces semantics>
    features <d>
    loss exponential|logistic
    link sigmoid2f|sigmoidf
    alpha-cap <float>
    terms <T>
    term <round> <alpha> <feature> <threshold> <left> <right>   (T lines)
    end

Density file replaces the loss/link/terms block with:

    mode cde
    ...
    features <d>
    support <lo> <hi>
    breakpoints <k>
    breakpoint <b>                                              (k lines)
    classifier <j> constant <0|1>
    loss logistic
    link sigmoidf
    terms <T> + term lines                                      (k blocks)
    end
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .boosting import ALPHA_CAP, AdditiveModel
from .density import Breakpoints, ConditionalDensityModel
from .errors import DataError
from .stumps import Stump

FORMAT_VERSION = 1
MAGIC = "boostkit-model"

_LINK_FOR_LOSS = {"exponential": "sigmoid2f", "logistic": "sigmoidf"}


@dataclass(frozen=True)
class LoadedModel:
    mode: str  # "classify" | "cde"
    model: AdditiveModel | None
    density: ConditionalDensityModel | None
    link: str
    features: int
    seed: int
    config: str


def _fmt(x: float) -> str:
    return repr(float(x))


def atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".boostkit-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _term_lines(model: AdditiveModel) -> list[str]:
    lines = [f"terms {model.rounds}"]
    for t, (alpha, s) in enumerate(model.terms, start=1):
        lines.append(
            f"term {t} {_fmt(alpha)} {s.feature_index} {_fmt(s.threshold)} "
            f"{_fmt(s.left_output)} {_fmt(s.right_output)}"
        )
    return lines


def save_classifier(
    path: str, model: AdditiveModel, features: int, seed: int, config: str
) -> None:
    if model.rounds < 1:
        raise DataError("refusing to save a model with no terms")
    lines = [
        f"{MAGIC} {FORMAT_VERSION}",
        "mode classify",
        f"seed {seed}",
        f"config {config}",
        f"features {features}",
        f"loss {model.loss_kind}",
        f"link {_LINK_FOR_LOSS[model.loss_kind]}",
        f"alpha-cap {_fmt(ALPHA_CAP)}",
    ]
    lines += _term_lines(model)
    lines.append("end")
    atomic_write_text(path, "\n".join(lines) + "\n")


def save_density(
    path: str, model: ConditionalDensityModel, features: int, seed: int, config: str
) -> None:
    lines = [
        f"{MAGIC} {FORMAT_VERSION}",
        "mode cde",
        f"seed {seed}",
        f"config {config}",
        f"features {features}",
        f"support {_fmt(model.breakpoints.support_lo)} {_fmt(model.breakpoints.support_hi)}",
        f"breakpoints {model.k}",
    ]
    for b in model.breakpoints.values:
        lines.append(f"breakpoint {_fmt(b)}")
    for j, (clf, const) in enumerate(zip(model.classifiers, model.constant_flags), start=1):
        lines.append(f"classifier {j} constant {int(const)}")
        lines.append(f"loss {clf.loss_kind}")
        lines.append("link sigmoidf")
        lines += _term_lines(clf)
    lines.append("end")
    atomic_write_text(path, "\n".join(lines) + "\n")


class _LineReader:
    def __init__(self, path: str, lines: list[str]):
        self.path = path
        self.lines = lines
        self.pos = 0

    def next(self, expect_key: str | None = None) -> list[str]:
        if self.pos >= len(self.lines):
            raise DataError(f"{self.path}: truncated model file")
        parts = self.lines[self.pos].split()
        self.pos += 1
        if expect_key is not None and (not parts or parts[0] != expect_key):
            raise DataError(
                f"{self.path}: line {self.pos}: expected {expect_key!r}, got "
                f"{self.lines[self.pos - 1]!r}"
            )
        return parts

    def next_raw(self, expect_key: str) -> str:
        if self.pos >= len(self.lines):
            raise DataError(f"{self.path}: truncated model file")
        line = self.lines[self.pos]
        self.pos += 1
        key, _, rest = line.partition(" ")
        if key != expect_key:
            raise DataError(f"{self.path}: line {self.pos}: expected {expect_key!r}")
        return rest


def _parse_float(reader: _LineReader, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise DataError(f"{reader.path}: line {reader.pos}: bad float {text!r}") from None


def _parse_int(reader: _LineReader, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise DataError(f"{reader.path}: line {reader.pos}: bad integer {text!r}") from None


def _read_terms(reader: _LineReader, loss_kind: str) -> AdditiveModel:
    parts = reader.next("terms")
    count = _parse_int(reader, parts[1])
    if count < 1:
        raise DataError(f"{reader.path}: model must have at least one term")
    terms = []
    for expected_round in range(1, count + 1):
        parts = reader.next("term")
        if len(parts) != 7:
            raise DataError(f"{reader.path}: line {reader.pos}: malformed term line")
        rnd = _parse_int(reader, parts[1])
        if rnd != expected_round:
            raise DataError(f"{reader.path}: line {reader.pos}: term rounds out of order")
        alpha = _parse_float(reader, parts[2])
        if not math.isfinite(alpha):
            raise DataError(f"{reader.path}: line {reader.pos}: non-finite alpha {parts[2]!r}")
        fields = (
            _parse_int(reader, parts[3]),
            _parse_float(reader, parts[4]),
            _parse_float(reader, parts[5]),
            _parse_float(reader, parts[6]),
        )
        try:
            stump = Stump(*fields)
        except DataError as exc:
            raise DataError(f"{reader.path}: line {reader.pos}: {exc}") from None
        terms.append((alpha, stump))
    return AdditiveModel(tuple(terms), loss_kind)


def load_model(path: str) -> LoadedModel:
    """Parse and validate a model file of either mode."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    reader = _LineReader(path, lines)

    parts = reader.next(MAGIC)
    version = _parse_int(reader, parts[1]) if len(parts) == 2 else -1
    if version != FORMAT_VERSION:
        raise DataError(f"{path}: unsupported format version {parts[1:]}")
    mode = reader.next("mode")[1]
    seed = _parse_int(reader, reader.next("seed")[1])
    config = reader.next_raw("config")
    features = _parse_int(reader, reader.next("features")[1])

    if mode == "classify":
        loss = reader.next("loss")[1]
        link = reader.next("link")[1]
        if link not in ("sigmoid2f", "sigmoidf"):
            raise DataError(f"{path}: unknown link {link!r}")
        cap = _parse_float(reader, reader.next("alpha-cap")[1])
        del cap  # provenance only
        model = _read_terms(reader, loss)
        reader.next("end")
        return LoadedModel("classify", model, None, link, features, seed, config)

    if mode == "cde":
        parts = reader.next("support")
        lo, hi = _parse_float(reader, parts[1]), _parse_float(reader, parts[2])
        k = _parse_int(reader, reader.next("breakpoints")[1])
        values = [
            _parse_float(reader, reader.next("breakpoint")[1]) for _ in range(k)
        ]
        classifiers = []
        flags = []
        for j in range(1, k + 1):
            parts = reader.next("classifier")
            if _parse_int(reader, parts[1]) != j:
                raise DataError(f"{path}: classifier blocks out of order")
            flags.append(bool(_parse_int(reader, parts[3])))
            loss = reader.next("loss")[1]
            reader.next("link")
            classifiers.append(_read_terms(reader, loss))
        reader.next("end")
        density = ConditionalDensityModel(
            Breakpoints(np.asarray(values), lo, hi), tuple(classifiers), tuple(flags)
        )
        return LoadedModel("cde", None, density, "sigmoidf", features, seed, config)

    raise DataError(f"{path}: unknown mode {mode!r}")
