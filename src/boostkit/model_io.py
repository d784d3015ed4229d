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
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .boosting import ALPHA_CAP, AdditiveModel
from .density import Breakpoints, ConditionalDensityModel
from .data import atomic_write_text
from .errors import DataError, TextLines
from .losses import LINKS
from .stumps import Stump

FORMAT_VERSION = 1
MAGIC = "boostkit-model"

# Fields on a line, its key included, where that is not two (a key and one value).
_FIELDS = {"term": 7, "support": 3, "classifier": 4, "end": 1}


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


def _term_lines(model: AdditiveModel) -> list[str]:
    lines = [f"terms {model.rounds}"]
    for t, (alpha, s) in enumerate(model.terms, start=1):
        lines.append(
            f"term {t} {_fmt(alpha)} {s.feature_index} {_fmt(s.threshold)} "
            f"{_fmt(s.left_output)} {_fmt(s.right_output)}"
        )
    return lines


def _header_lines(mode: str, features: int, seed: int, config: str) -> list[str]:
    return [f"{MAGIC} {FORMAT_VERSION}", f"mode {mode}", f"seed {seed}", f"config {config}",
            f"features {features}"]


def save_classifier(
    path: str, model: AdditiveModel, features: int, seed: int, config: str
) -> None:
    if model.rounds < 1:
        raise DataError("refusing to save a model with no terms")
    lines = _header_lines("classify", features, seed, config) + [
        f"loss {model.loss_kind}",
        f"link {model.link}",
        f"alpha-cap {_fmt(ALPHA_CAP)}",
    ]
    lines += _term_lines(model)
    lines.append("end")
    atomic_write_text(path, "\n".join(lines) + "\n")


def save_density(
    path: str, model: ConditionalDensityModel, features: int, seed: int, config: str
) -> None:
    lines = _header_lines("cde", features, seed, config) + [
        f"support {_fmt(model.breakpoints.support_lo)} {_fmt(model.breakpoints.support_hi)}",
        f"breakpoints {model.k}",
    ]
    for b in model.breakpoints.values:
        lines.append(f"breakpoint {_fmt(b)}")
    for j, (clf, const) in enumerate(zip(model.classifiers, model.constant_flags), start=1):
        lines.append(f"classifier {j} constant {int(const)}")
        lines.append(f"loss {clf.loss_kind}")
        lines.append(f"link {clf.link}")
        lines += _term_lines(clf)
    lines.append("end")
    atomic_write_text(path, "\n".join(lines) + "\n")


def _next(lines: Iterator[str]) -> str:
    line = next(lines, None)
    if line is None:
        raise DataError("truncated model file")
    return line


def _fields(lines: Iterator[str], key: str) -> list[str]:
    """The fields of the next line, which must be a ``key`` line."""
    line = _next(lines)
    parts = line.split()
    if parts[0] != key:
        raise DataError(f"expected {key!r}, got {line!r}")
    fields = _FIELDS.get(key, 2)
    if len(parts) != fields:
        raise DataError(f"a {key!r} line has {fields} fields, got {len(parts)}")
    return parts


def _parse_float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise DataError(f"bad float {text!r}") from None


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise DataError(f"bad integer {text!r}") from None


def _read_terms(lines: Iterator[str], loss_kind: str, features: int) -> AdditiveModel:
    count = _parse_int(_fields(lines, "terms")[1])
    if count < 1:
        raise DataError("model must have at least one term")
    terms = []
    for expected_round in range(1, count + 1):
        parts = _fields(lines, "term")
        if _parse_int(parts[1]) != expected_round:
            raise DataError("term rounds out of order")
        alpha = _parse_float(parts[2])
        if not math.isfinite(alpha):
            raise DataError(f"non-finite alpha {parts[2]!r}")
        stump = Stump(_parse_int(parts[3]), _parse_float(parts[4]), _parse_float(parts[5]),
                      _parse_float(parts[6]))
        if not 0 <= stump.feature_index < features:
            raise DataError(f"feature index {stump.feature_index} out of range for {features} features")
        terms.append((alpha, stump))
    return AdditiveModel(tuple(terms), loss_kind)


def _read_loss(lines: Iterator[str]) -> str:
    """A loss line and the link line after it, which must be that loss's link."""
    loss = _fields(lines, "loss")[1]
    if loss not in LINKS:
        raise DataError(f"unknown loss {loss!r}")
    link = _fields(lines, "link")[1]
    if link != LINKS[loss].name:
        raise DataError(f"link {link!r} does not match loss {loss!r}")
    return loss


def load_model(path: str) -> LoadedModel:
    """Parse and validate a model file of either mode.

    Every check runs while a line of the block at fault is the reader's
    current line, so its error names the path and that line.
    """
    with TextLines(path) as lines:
        parts = _fields(lines, MAGIC)
        if _parse_int(parts[1]) != FORMAT_VERSION:
            raise DataError(f"unsupported format version {parts[1:]}")
        mode = _fields(lines, "mode")[1]
        if mode not in ("classify", "cde"):
            raise DataError(f"unknown mode {mode!r}")
        seed = _parse_int(_fields(lines, "seed")[1])
        key, _, config = _next(lines).partition(" ")
        if key != "config":
            raise DataError("expected 'config'")
        features = _parse_int(_fields(lines, "features")[1])
        if features < 1:
            raise DataError(f"a model needs at least one feature, got {features}")

        if mode == "classify":
            loss = _read_loss(lines)
            _parse_float(_fields(lines, "alpha-cap")[1])  # provenance only
            model = _read_terms(lines, loss, features)
            _fields(lines, "end")
            return LoadedModel("classify", model, None, model.link, features, seed, config)

        parts = _fields(lines, "support")
        lo, hi = _parse_float(parts[1]), _parse_float(parts[2])
        k = _parse_int(_fields(lines, "breakpoints")[1])
        values = [_parse_float(_fields(lines, "breakpoint")[1]) for _ in range(k)]
        breakpoints = Breakpoints(np.asarray(values), lo, hi)
        classifiers = []
        flags = []
        for j in range(1, k + 1):
            parts = _fields(lines, "classifier")
            if _parse_int(parts[1]) != j:
                raise DataError("classifier blocks out of order")
            flags.append(bool(_parse_int(parts[3])))
            classifiers.append(_read_terms(lines, _read_loss(lines), features))
            # built after every block, so that its checks name a line of the block at fault
            density = ConditionalDensityModel(
                Breakpoints(breakpoints.values[:j], lo, hi), tuple(classifiers), tuple(flags)
            )
        _fields(lines, "end")
    return LoadedModel("cde", None, density, density.classifiers[0].link, features, seed, config)
