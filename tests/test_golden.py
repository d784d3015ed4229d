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


def _digests(tmp_path, capsys, commands, names) -> dict[str, str]:
    """Run the commands in tmp_path; the sha256 of each named file and of stdout."""
    stdout = []
    for argv in commands:
        code = main(argv)
        out = capsys.readouterr()
        assert code == 0, (argv, out.err)
        stdout.append(out.out)
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in names if name != "stdout"}
    digests["stdout"] = hashlib.sha256("".join(stdout).encode("utf-8")).hexdigest()
    return digests


def run_golden(tmp_path, capsys) -> dict[str, str]:
    """Run every command in tmp_path; return the sha256 of each artifact."""
    _inputs(tmp_path)
    return _digests(tmp_path, capsys, COMMANDS, GOLDEN)


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
    digests = _digests(tmp_path, capsys, BLOCKS_COMMANDS, BLOCKS_GOLDEN)
    assert {k: v for k, v in digests.items() if v != BLOCKS_GOLDEN[k]} == {}


# At m=1000 and d=10 the blocks are {0,1,2,3}, {4,5,6,7} and {8,9}. Features
# 0-8 are continuous, but feature 1 repeats one value, so only the block
# {4,...,7} is tie-free; feature 9 takes the values 0 and 1. These digests
# were recorded with the search that gathered every block's candidate
# masses through a flat index; the models pick features 1, 2, 5 and 9.
TIE_FREE_GOLDEN = {
    "tf_exp.txt": "feff4bb304f626950b7dc9f2b99dcadc06349fc891a78d6cf7be142f4b8bf69f",
    "tf_exp.txt.stats.csv": "c9236635b4ef2db9fcc8914a7c9ac42993933d06d3609c68635a21937e9753b9",
    "tf_log.txt": "8d377fbb498ae39c4b4705f57beb293d3ef96e42043f3a6ec97f51f220dd264f",
    "tf_log.txt.stats.csv": "5f803d1c13e52effe02eb582c90afb6423d256f29b991bf9c5c474727106d8d3",
    "tf_conf.txt": "e33b7652c163ef4345b98ffba2f9071675893c699800b55a382f111ebce213f2",
    "tf_conf.txt.stats.csv": "1af6ba08ba1c4932382f0d32a539b63077a6a3c4581ebb99a5ec96956ac35c63",
    "stdout": "99663c4615a0128c432a3800d1398f71737a68d9549f723f6d3666040358bf02",
}

TIE_FREE_COMMANDS = (
    ["train", "--data", "tf.csv", "--rounds", "10", "--loss", "exp",
     "--stumps", "binary", "--out", "tf_exp.txt"],
    ["train", "--data", "tf.csv", "--rounds", "6", "--loss", "logistic",
     "--stumps", "confidence", "--out", "tf_log.txt"],
    ["train", "--data", "tf.csv", "--rounds", "6", "--loss", "exp",
     "--stumps", "confidence", "--out", "tf_conf.txt"],
)


def test_tie_free_blocks_byte_identical(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(13)
    m = 1000
    X = rng.normal(size=(m, 10))
    X[7, 1] = X[5, 1]
    X[:, 9] = rng.integers(0, 2, size=m)
    score = X[:, 1] + 0.6 * X[:, 5] + 0.4 * X[:, 9] + 0.3 * X[:, 2] + rng.normal(scale=0.5, size=m)
    y = np.where(score > 0.0, 1.0, -1.0)
    _write(tmp_path / "tf.csv", (*"abcdefghij", "label"), (*X.T, y))
    digests = _digests(tmp_path, capsys, TIE_FREE_COMMANDS, TIE_FREE_GOLDEN)
    assert {k: v for k, v in digests.items() if v != TIE_FREE_GOLDEN[k]} == {}


# A pool of 0/1 "word" features: every block has ties, and each retrain
# searches sides split by label. Exponential loss with confidence-rated
# stumps, both strategies. Digests recorded with the search that folded each
# label's masses over every row.
WORDS_GOLDEN = {
    "words.csv": "f79f7592dba4fc50fba7f38b89b6888c62576461d06b6ab14c5f3505795cd8c8",
    "stdout": "8aaf15d42232cca9604121cf517d7dfa1900596e17d5129905b9f8c809be0615",
}

WORDS_COMMANDS = (
    ["active", "--data", "words_pool.csv", "--test-fraction", "0.25", "--strategy", "both",
     "--init", "20", "--batch", "10", "--iterations", "4", "--seeds", "0,1",
     "--rounds", "6", "--loss", "exp", "--stumps", "confidence", "--out", "words.csv"],
)


def test_word_pool_active_byte_identical(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(17)
    m, d = 240, 12
    X = (rng.uniform(size=(m, d)) < np.linspace(0.05, 0.5, d)).astype(np.float64)
    score = X[:, 0] + X[:, 3] - X[:, 7] + 0.5 * X[:, 10] + rng.normal(scale=0.4, size=m)
    y = np.where(score > 0.3, 1.0, -1.0)
    _write(tmp_path / "words_pool.csv", (*(f"w{j}" for j in range(d)), "label"), (*X.T, y))
    digests = _digests(tmp_path, capsys, WORDS_COMMANDS, WORDS_GOLDEN)
    assert {k: v for k, v in digests.items() if v != WORDS_GOLDEN[k]} == {}


# Weights of 0.0 and -0.0 on a fifth of the rows: those rows carry no mass
# on either side of the search, and a -0.0 keeps its sign through the
# distribution. Digests recorded with the search that folded each label's
# masses over every row.
ZERO_WEIGHT_GOLDEN = {
    "zw_exp.txt": "be5555afed6e3b46f6e44b24304ca1594897fc419228b953ef4e81e4b3595859",
    "zw_exp.txt.stats.csv": "ea15cbc693cf14bea616c2272fc99e7ffd8ff5f82ff6e22c6f3b977478cf42fb",
    "zw_log.txt": "34039502904678b8eae8563f975621d018e700070d8d14af271fbbf3d8ef19d2",
    "zw_log.txt.stats.csv": "c7dcf3e1e648d9aecdd2ad513126caad964a6ea5986ae3c7fecaced5b61c844f",
    "zw_conf.txt": "9304d79b595068a3705794082ecc45d7b61cfd9f9f449bb4e72712425e5c0b27",
    "zw_conf.txt.stats.csv": "2360e98709e83d6c0b9fd6b47b9cb4ae30e0b7dc6e391de5aa104a3c34f14be6",
    "stdout": "e213d96ae37234c75616b920350c6629c65829094ccad8e4579dc99cccee62d2",
}

ZERO_WEIGHT_COMMANDS = (
    ["train", "--data", "zw.csv", "--rounds", "8", "--loss", "exp",
     "--stumps", "binary", "--out", "zw_exp.txt"],
    ["train", "--data", "zw.csv", "--rounds", "6", "--loss", "logistic",
     "--stumps", "confidence", "--out", "zw_log.txt"],
    ["train", "--data", "zw.csv", "--rounds", "6", "--loss", "exp",
     "--stumps", "confidence", "--alpha", "line-search", "--out", "zw_conf.txt"],
)


def test_zero_weight_rows_byte_identical(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(19)
    m = 90
    X = np.column_stack([rng.uniform(-1.0, 1.0, size=(m, 2)), rng.integers(0, 3, size=m)])
    y = np.where(X[:, 0] + 0.4 * X[:, 2] + rng.normal(scale=0.4, size=m) > 0.4, 1.0, -1.0)
    weight = rng.uniform(0.5, 2.0, size=m)
    weight[rng.permutation(m)[:18]] = np.tile([0.0, -0.0], 9)
    _write(tmp_path / "zw.csv", ("a", "b", "c", "label", "weight"), (*X.T, y, weight))
    digests = _digests(tmp_path, capsys, ZERO_WEIGHT_COMMANDS, ZERO_WEIGHT_GOLDEN)
    assert {k: v for k, v in digests.items() if v != ZERO_WEIGHT_GOLDEN[k]} == {}
