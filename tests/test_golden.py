"""Byte-identity guard: every CLI command on tiny seeded inputs, pinned by sha256.

Each command runs in a scratch directory with relative paths, so its
standard output does not depend on where the test runs. A digest changes
only when an artifact's bytes change: a model, a stats file, predictions,
samples, quantiles, curves, or a command's printed report. A change meant
to keep outputs byte-identical must leave every digest as it is. The
digests were recorded with Python 3.11 and numpy 2.4 on x86-64; another
numpy build may round exp or log differently in the last bit.
"""

import hashlib

import numpy as np

from boostkit.cli import main

GOLDEN = {
    "exp.txt": "7b77eb450f65f46d8aa37ac64f1eab01ad5c77d36e3f74f3d5bc364717e04205",
    "exp.txt.stats.csv": "27af9a71df1044ec74d4c632cea7dce1d2eea26889faa1d06a9cd939fab8a6da",
    "log.txt": "8fea95d86bef92589c8c7f0960168145203f84914f349f401777589e3b7db100",
    "log.txt.stats.csv": "921617e8458b1cafc21ce70ccfb15405c367e3ab7568679c211abf0cdcd42bc8",
    "wexp.txt": "127532e5c4b396ae1bc89d11b0e112eb010c5ab6a5e4c1663c5b2cb1e29bc184",
    "wexp.txt.stats.csv": "6639e7304233c58aa2c8553754fbe78dba379d07ab371b4db187f533ee960f59",
    "prior.txt": "0c5abf8b2b13e344cc69a7c31f4975e4c7c44236c5b5f856d4e374623fef27c7",
    "prior.txt.stats.csv": "5da81d631811949e97172e72d7825537d7e5e929b9941ecf4ec369277a23bf33",
    "pred_exp.csv": "3e4f972327e4397a7ea443ca2e1147e8869f6f281a5665cdd2886c7767c898cb",
    "pred_log.csv": "85007eefd31b0f6930121546016c63bcd4cd8b524edc500f77d581a72c8362a2",
    "cde.txt": "30634f1a837cb789bdcd54966e632cb76684432413d738f467b37c08bb8abe0c",
    "samples.csv": "0bd399a67ddc24f54ef1562f0b10278526b14340367c252beb13af55c78769bc",
    "q.csv": "a18b1b067faddbfe6fddd2734d8d29b5c261e5c50d5592bdd5cee748f75c6f4e",
    "curves.csv": "d836eafbfccd73eba79f101b5cafe38af8cfff050d93a9e65e1005c8c122e7b9",
    "stdout": "d80ee0e8f05c8708e70fa09ac39665e666e9e27f9e0f3d0fbc9ac835d65f7292",
}


def _write(path, header, columns):
    lines = [",".join(header)]
    lines += [",".join(repr(float(v)) for v in row) for row in zip(*columns)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _inputs(tmp_path):
    rng = np.random.default_rng(7)
    for name, m in (("train.csv", 60), ("test.csv", 40)):
        X = rng.uniform(-1.0, 1.0, size=(m, 3))
        y = np.where(X[:, 0] + 0.5 * X[:, 1] + rng.normal(scale=0.4, size=m) > 0, 1.0, -1.0)
        _write(tmp_path / name, ("a", "b", "c", "label"), (*X.T, y))
    X = rng.uniform(-1.0, 1.0, size=(50, 3))
    y = np.where(X[:, 0] > 0.1, 1.0, -1.0)
    prior = 1.0 / (1.0 + np.exp(-3.0 * X[:, 0]))
    weight = rng.uniform(0.5, 2.0, size=50)
    _write(tmp_path / "weighted.csv", ("a", "b", "c", "label", "prior", "weight"),
           (*X.T, y, prior, weight))
    X = rng.uniform(-1.0, 1.0, size=(80, 2))
    y = 2.0 * X[:, 0] + rng.normal(scale=0.3, size=80)
    _write(tmp_path / "reg.csv", ("a", "b", "label"), (*X.T, y))
    X = rng.uniform(-1.0, 1.0, size=(160, 4))
    y = np.where(X[:, 1] > 0.0, 1.0, -1.0)
    _write(tmp_path / "pool.csv", ("a", "b", "c", "d", "label"), (*X.T, y))


COMMANDS = (
    ["train", "--data", "train.csv", "--test", "test.csv", "--rounds", "8", "--loss", "exp",
     "--stumps", "binary", "--seed", "1", "--out", "exp.txt"],
    ["train", "--data", "weighted.csv", "--rounds", "6", "--loss", "logistic",
     "--stumps", "confidence", "--seed", "2", "--out", "log.txt"],
    ["train", "--data", "weighted.csv", "--rounds", "5", "--loss", "exp",
     "--stumps", "confidence", "--alpha", "line-search", "--out", "wexp.txt"],
    ["train", "--data", "weighted.csv", "--rounds", "5", "--loss", "logistic",
     "--prior-col", "prior", "--eta", "0.5", "--out", "prior.txt"],
    ["predict", "--model", "exp.txt", "--data", "test.csv", "--out", "pred_exp.csv"],
    ["predict", "--model", "log.txt", "--data", "weighted.csv", "--out", "pred_log.csv"],
    ["eval", "--model", "exp.txt", "--data", "test.csv"],
    ["eval", "--model", "exp.txt", "--data", "weighted.csv"],
    ["eval", "--model", "log.txt", "--data", "weighted.csv"],
    ["cde", "train", "--data", "reg.csv", "--k", "3", "--rounds", "6", "--seed", "4",
     "--out", "cde.txt"],
    ["cde", "sample", "--model", "cde.txt", "--data", "reg.csv", "--n-samples", "3",
     "--seed", "5", "--out", "samples.csv"],
    ["cde", "quantile", "--model", "cde.txt", "--data", "reg.csv", "--level", "0.3",
     "--out", "q.csv"],
    ["active", "--data", "pool.csv", "--test-fraction", "0.25", "--strategy", "both",
     "--init", "20", "--batch", "10", "--iterations", "3", "--seeds", "0,1",
     "--rounds", "4", "--out", "curves.csv"],
)


def run_golden(tmp_path, capsys) -> dict[str, str]:
    """Run every command in tmp_path; return the sha256 of each artifact."""
    _inputs(tmp_path)
    stdout = []
    for argv in COMMANDS:
        code = main(argv)
        out = capsys.readouterr()
        assert code == 0, (argv, out.err)
        stdout.append(out.out)
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in GOLDEN if name != "stdout"}
    digests["stdout"] = hashlib.sha256("".join(stdout).encode("utf-8")).hexdigest()
    return digests


def test_cli_artifacts_byte_identical(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    digests = run_golden(tmp_path, capsys)
    assert {k: v for k, v in digests.items() if v != GOLDEN[k]} == {}


# Stump search takes features max(1, 2**14 // m) at a time and cuts each group
# into blocks of at most 2**12 candidate thresholds. At m=6000 and d=7 the
# groups are {0,1}, {2,3}, {4,5}, {6}; feature 3 is continuous (6000
# candidates), so the blocks are {0,1}, {2}, {3}, {4,5} and {6}. Feature 2
# copies feature 1 and feature 6 copies feature 5, so exact ties straddle
# block boundaries; the models pick features 1, 3, 4 and 5. These digests
# were recorded with the per-feature search the blocks replaced.
BLOCKS_GOLDEN = {
    "blk_exp.txt": "48f7f41351fcae283646d6a2a1393947dbaa7423fb6ee9beb5550fdeac4c0757",
    "blk_exp.txt.stats.csv": "907f6f92e1254137789040674b7eb3b1c6dd118d16c5052d5d6d3627f02a5e68",
    "blk_log.txt": "32b15d0c4172c076278b92d56db588d92e32129a42947a933b1a2b1cb5b1a057",
    "blk_log.txt.stats.csv": "6b8a4b18b1738addc18edd827152b8924dd227e5d5c61477dca70354b70036bb",
    "blk_conf.txt": "6632be29629f60b70af304af91939d236e78ea9836581aa97e6dad5ecba3825e",
    "blk_conf.txt.stats.csv": "1f25364e85087d3e4e2fc54fa97cd829c2f0bd73a8b0ed72fa9d01591d3648a4",
    "stdout": "56d565d988248471f3bedd9b195eb667760b2bef74a8434eb9253f44fab62a96",
}

BLOCKS_COMMANDS = (
    ["train", "--data", "blocks.csv", "--rounds", "10", "--loss", "exp",
     "--stumps", "binary", "--out", "blk_exp.txt"],
    ["train", "--data", "blocks.csv", "--rounds", "6", "--loss", "logistic",
     "--stumps", "confidence", "--out", "blk_log.txt"],
    ["train", "--data", "blocks.csv", "--rounds", "6", "--loss", "exp",
     "--stumps", "confidence", "--out", "blk_conf.txt"],
)


def test_multi_block_search_byte_identical(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(11)
    m = 6000
    X = np.round(rng.uniform(-1.0, 1.0, size=(m, 7)) * 8.0) / 8.0
    X[:, 2] = X[:, 1]
    X[:, 3] = rng.normal(size=m)
    X[:, 4] = np.round(X[:, 4] * 2.0)
    X[:, 6] = X[:, 5]
    score = X[:, 1] + 0.6 * X[:, 5] + 0.3 * X[:, 4] + 0.2 * X[:, 3] + rng.normal(scale=0.5, size=m)
    y = np.where(score > 0.0, 1.0, -1.0)
    _write(tmp_path / "blocks.csv", ("a", "b", "c", "d", "e", "f", "g", "label"), (*X.T, y))
    stdout = []
    for argv in BLOCKS_COMMANDS:
        code = main(argv)
        out = capsys.readouterr()
        assert code == 0, (argv, out.err)
        stdout.append(out.out)
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in BLOCKS_GOLDEN if name != "stdout"}
    digests["stdout"] = hashlib.sha256("".join(stdout).encode("utf-8")).hexdigest()
    assert {k: v for k, v in digests.items() if v != BLOCKS_GOLDEN[k]} == {}
