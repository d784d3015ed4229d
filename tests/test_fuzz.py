"""Byte and line mutations of every kind of file the CLI reads.

A mutated CSV, model file, config file or rule table must end in exit 0, 1
or 2, never in a traceback, and a command that exits 0 must not have written
or printed a non-finite number. A mutated model file, config file or rule
table that its loader rejects, or a config value that does not parse, must
be rejected with the path and a line of the file.
"""

import argparse
import contextlib
import io
import math
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boostkit import cli, data
from boostkit.cli import _CONFIG_KEYS, main
from boostkit.config import load_config
from boostkit.data import load_csv, load_features_csv
from boostkit.errors import BoostkitError
from boostkit.model_io import load_model
from boostkit.prior import load_rule_table

from conftest import dataset, save_csv

# Bytes a mutation may write: not UTF-8, separators, signs, non-finite words.
PIECES = [b"\xe4", b"\xff", b"\x00", b"\n", b"\r", b",", b" ", b"=", b"#", b"-", b"e", b"9",
          b"nan", b"inf", b"1e308", b"0"]

mutations = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["insert", "replace"]), st.integers(0, 10**6),
                  st.sampled_from(PIECES)),
        st.tuples(st.just("delete"), st.integers(0, 10**6), st.integers(1, 12)),
        st.tuples(st.sampled_from(["drop line", "repeat line", "swap lines"]),
                  st.integers(0, 10**6), st.integers(0, 10**6)),
    ),
    min_size=1,
    max_size=4,
)


def mutate(data: bytes, ops) -> bytes:
    for op, at, arg in ops:
        if op in ("insert", "replace", "delete"):
            i = at % (len(data) + 1)
            end = i + (0 if op == "insert" else len(arg) if op == "replace" else arg)
            data = data[:i] + (b"" if op == "delete" else arg) + data[end:]
            continue
        lines = data.splitlines(keepends=True)
        if not lines:
            continue
        i, j = at % len(lines), arg % len(lines)
        if op == "drop line":
            del lines[i]
        elif op == "repeat line":
            lines.insert(i, lines[i])
        else:
            lines[i], lines[j] = lines[j], lines[i]
        data = b"".join(lines)
    return data


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Valid files of each kind, and the commands that read them."""
    d = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(3)
    X = np.round(rng.uniform(-1.0, 1.0, size=(16, 2)), 2)
    y = np.where(X[:, 0] + 0.3 * rng.normal(size=16) > 0.0, 1.0, -1.0)
    save_csv(dataset(X, y, weights=rng.uniform(0.5, 2.0, size=16).round(2)), str(d / "train.csv"))
    save_csv(dataset(X, np.round(X[:, 0] + rng.normal(size=16), 2)), str(d / "reg.csv"))
    (d / "run.cfg").write_text("rounds = 3\nloss = logistic\nstumps = confidence\n"
                               "smoothing = 0.01\nseed = 4\n")
    (d / "rules.txt").write_text("0, <=, 0.0, 0.2\n1, >, 0.5, 0.9\ndefault, 0.5\n")
    for argv in (["train", "--data", "train.csv", "--rounds", "3", "--out", "clf.txt"],
                 ["cde", "train", "--data", "reg.csv", "--k", "2", "--rounds", "2",
                  "--out", "cde.txt"]):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([str(d / a) if "." in a else a for a in argv]) == 0
    # "{}" is the mutated file; out.* are written in each example's directory
    runs = [
        ("train.csv", ["train", "--data", "{}", "--rounds", "3", "--out", "out.txt"]),
        ("train.csv", ["predict", "--model", "clf.txt", "--data", "{}", "--out", "out.csv"]),
        ("clf.txt", ["predict", "--model", "{}", "--data", "train.csv", "--out", "out.csv"]),
        ("clf.txt", ["eval", "--model", "{}", "--data", "train.csv"]),
        ("cde.txt", ["cde", "quantile", "--model", "{}", "--data", "reg.csv", "--level", "0.5",
                     "--out", "out.csv"]),
        ("cde.txt", ["cde", "sample", "--model", "{}", "--data", "reg.csv", "--out", "out.csv"]),
        ("run.cfg", ["train", "--config", "{}", "--data", "train.csv", "--out", "out.txt"]),
        ("rules.txt", ["train", "--data", "train.csv", "--rounds", "2", "--prior-rules", "{}",
                       "--eta", "1", "--out", "out.txt"]),
    ]
    return d, [(name, [str(d / a) if a.endswith((".csv", ".txt")) and not a.startswith("out.")
                       else a for a in argv]) for name, argv in runs]


def numbers(text: str):
    for token in text.replace(",", " ").split():
        try:
            yield float(token)
        except ValueError:
            pass


def check_finite_outputs(workdir: Path, stdout: str) -> None:
    assert all(map(math.isfinite, numbers(stdout))), stdout
    for path in workdir.iterdir():
        if path.name == "out.txt":  # a trained classifier
            for alpha, stump in load_model(str(path)).model.terms:
                assert math.isfinite(alpha * stump.left_output), path
                assert math.isfinite(alpha * stump.right_output), path
        elif path.name != "in":
            assert all(map(math.isfinite, numbers(path.read_text()))), path


@settings(max_examples=200, deadline=None)
@given(st.data(), mutations)
def test_mutated_inputs_end_in_a_typed_exit(inputs, data, ops):
    d, runs = inputs
    name, argv = data.draw(st.sampled_from(runs))
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        bad = work / "in"
        bad.write_bytes(mutate((d / name).read_bytes(), ops))
        argv = [str(bad) if a == "{}" else str(work / a) if a.startswith("out.") else a
                for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                np.errstate(all="ignore"):
            code = main(argv)
        assert code in (0, 1, 2), (code, err.getvalue())
        assert "Traceback" not in err.getvalue()
        if code == 0:
            check_finite_outputs(work, out.getvalue())


def config_values(path: str) -> dict:
    """The options of ``train --config path``: every config value train takes,
    parsed; a required option the file does not give is passed as a flag."""
    keys = cli._COMMON + cli._COMMANDS["train"].keys
    given = load_config(path, _CONFIG_KEYS)
    args = argparse.Namespace(**dict.fromkeys(keys))
    args.config = path
    for key in keys:
        if key not in given and cli._FLAGS[key].default is cli._REQUIRED:
            setattr(args, key, "flag")
    return cli._options(args, keys)


# the file each loader reads, mutated
LOADERS = {
    "clf.txt": ("clf.txt", load_model),
    "cde.txt": ("cde.txt", load_model),
    "run.cfg": ("run.cfg", lambda path: load_config(path, _CONFIG_KEYS)),
    "run.cfg values": ("run.cfg", config_values),
    "rules.txt": ("rules.txt", load_rule_table),
}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(LOADERS)), mutations)
def test_loader_errors_name_path_and_line(inputs, name, ops):
    d, _ = inputs
    file, loader = LOADERS[name]
    data = mutate((d / file).read_bytes(), ops)
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "in")
        Path(path).write_bytes(data)
        try:
            loader(path)
        except BoostkitError as exc:
            lines = len(data.splitlines())  # at \n, \r and \r\n, as the loaders count
            if lines == 0:  # no line to name
                assert re.match(rf"{re.escape(path)}: (?!line )", str(exc)), str(exc)
                return
            match = re.match(rf"{re.escape(path)}: line (\d+): ", str(exc))
            assert match, str(exc)
            assert 1 <= int(match.group(1)) <= lines, (str(exc), lines)


def read_outcome(loader, path):
    """What a CSV reader gives: its arrays, or the type and text of its error."""
    try:
        result = loader(path)
    except Exception as exc:  # parity covers errors that are not DataError too
        return type(exc), str(exc)
    arrays = [result] if isinstance(result, np.ndarray) else [
        result.features, result.labels, result.weights, result.prior]
    return [None if a is None else (a.shape, a.tobytes()) for a in arrays]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["train.csv", "reg.csv"]), mutations, st.sampled_from([1, 7, 64]))
def test_mutated_csv_reads_alike_in_any_block_size(inputs, name, ops, block_bytes):
    """A mutated CSV read in blocks of a few bytes gives the arrays, bit for
    bit, or the error that one whole-file block gives."""
    d, _ = inputs
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "in")
        Path(path).write_bytes(mutate((d / name).read_bytes(), ops))
        for loader in (load_csv, load_features_csv):
            whole = read_outcome(loader, path)
            with mock.patch.object(data, "_BLOCK_BYTES", block_bytes):
                assert read_outcome(loader, path) == whole
