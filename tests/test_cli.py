import csv

import numpy as np
import pytest

from boostkit.cli import main
from boostkit.data import save_csv
from boostkit.model_io import load_model

from conftest import dataset, random_classification, stump_separable


def write_dataset(tmp_path, ds, name):
    path = str(tmp_path / name)
    save_csv(ds, path)
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


@pytest.fixture
def separable_csv(tmp_path, np_rng):
    return write_dataset(tmp_path, stump_separable(np_rng, 60, 2), "train.csv")


@pytest.fixture
def random_csv(tmp_path, np_rng):
    return write_dataset(tmp_path, random_classification(np_rng, 40, 2), "rand.csv")


class TestTrainCommand:
    def test_separable_reaches_zero_error(self, tmp_path, separable_csv, capsys):
        out = str(tmp_path / "model.txt")
        code = main(["train", "--data", separable_csv, "--rounds", "5",
                     "--loss", "exp", "--seed", "1", "--out", out])
        assert code == 0
        header, rows = read_csv(out + ".stats.csv")
        assert header == ["round", "epsilon", "gamma", "z", "prod_z",
                          "exp_bound", "train_error", "test_error"]
        assert float(rows[-1][6]) == 0.0

    def test_rerun_byte_identical(self, tmp_path, random_csv):
        out_a, out_b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
        args = ["train", "--data", random_csv, "--rounds", "7", "--loss", "exp", "--seed", "3"]
        assert main(args + ["--out", out_a]) == 0
        assert main(args + ["--out", out_b]) == 0
        assert open(out_a, "rb").read() == open(out_b, "rb").read()
        assert (
            open(out_a + ".stats.csv", "rb").read() == open(out_b + ".stats.csv", "rb").read()
        )

    def test_eta_without_prior_is_usage_error(self, tmp_path, random_csv, capsys):
        code = main(["train", "--data", random_csv, "--rounds", "2",
                     "--out", str(tmp_path / "m.txt"), "--eta", "1.0"])
        assert code == 1
        assert "prior" in capsys.readouterr().err

    def test_prior_col_without_eta_is_usage_error(self, tmp_path, random_csv):
        code = main(["train", "--data", random_csv, "--rounds", "2",
                     "--out", str(tmp_path / "m.txt"), "--prior-col", "prior"])
        assert code == 1

    def test_prior_route(self, tmp_path, np_rng):
        ds = random_classification(np_rng, 30, 2)
        ds = dataset(ds.features, ds.labels, prior=np_rng.uniform(0.2, 0.8, size=30))
        data = write_dataset(tmp_path, ds, "prior.csv")
        out = str(tmp_path / "m.txt")
        code = main(["train", "--data", data, "--rounds", "4", "--loss", "logistic",
                     "--prior-col", "prior", "--eta", "0.5", "--out", out])
        assert code == 0
        assert load_model(out).model.loss_kind == "logistic"

    def test_prior_rules_route(self, tmp_path, random_csv):
        rules = tmp_path / "rules.txt"
        rules.write_text("0, <=, 0.0, 0.8\ndefault, 0.2\n")
        out = str(tmp_path / "m.txt")
        code = main(["train", "--data", random_csv, "--rounds", "3",
                     "--prior-rules", str(rules), "--eta", "1.0", "--out", out])
        assert code == 0
        assert load_model(out).model.loss_kind == "logistic"

    def test_eta_with_exponential_loss_rejected(self, tmp_path, np_rng):
        ds = random_classification(np_rng, 10, 1)
        ds = dataset(ds.features, ds.labels, prior=np.full(10, 0.5))
        data = write_dataset(tmp_path, ds, "p.csv")
        code = main(["train", "--data", data, "--rounds", "2", "--loss", "exp",
                     "--prior-col", "prior", "--eta", "1.0", "--out", str(tmp_path / "m.txt")])
        assert code == 1

    def test_missing_data_file_is_data_error(self, tmp_path):
        code = main(["train", "--data", str(tmp_path / "nope.csv"), "--rounds", "2",
                     "--out", str(tmp_path / "m.txt")])
        assert code == 2

    def test_config_file_with_flag_override(self, tmp_path, random_csv):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("rounds = 3\nloss = exp\nseed = 5\n")
        out = str(tmp_path / "m.txt")
        code = main(["train", "--config", str(cfg), "--data", random_csv,
                     "--rounds", "2", "--out", out])
        assert code == 0
        assert load_model(out).model.rounds == 2  # flag wins

    def test_unknown_config_key_rejected(self, tmp_path, random_csv, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("rounds = 3\nrondas = 5\n")
        code = main(["train", "--config", str(cfg), "--data", random_csv,
                     "--out", str(tmp_path / "m.txt")])
        assert code == 1
        assert "unknown config key" in capsys.readouterr().err


class TestPredictCommand:
    def train_model(self, tmp_path, data):
        out = str(tmp_path / "model.txt")
        assert main(["train", "--data", data, "--rounds", "5", "--loss", "exp",
                     "--out", out]) == 0
        return out

    def test_predictions_match_model(self, tmp_path, np_rng, random_csv):
        model_path = self.train_model(tmp_path, random_csv)
        pred_path = str(tmp_path / "pred.csv")
        assert main(["predict", "--model", model_path, "--data", random_csv,
                     "--out", pred_path]) == 0
        header, rows = read_csv(pred_path)
        assert header == ["row", "f", "H", "prob_positive"]
        loaded = load_model(model_path)
        from boostkit.data import load_csv

        ds = load_csv(random_csv)
        f = loaded.model.score(ds.features)
        for i, row in enumerate(rows):
            assert float(row[1]) == f[i]
            assert float(row[2]) == (1.0 if f[i] >= 0 else -1.0)
            assert 0.0 < float(row[3]) < 1.0

    def test_sign_zero_is_positive(self, tmp_path, np_rng):
        # two opposite stumps make f identically zero
        from boostkit.boosting import AdditiveModel
        from boostkit.model_io import save_classifier
        from boostkit.stumps import Stump

        terms = ((0.5, Stump(0, 0.0, -1.0, 1.0)), (0.5, Stump(0, 0.0, 1.0, -1.0)))
        model_path = str(tmp_path / "zero.txt")
        save_classifier(model_path, AdditiveModel(terms, "exponential"), 1, 0, "c")
        data = write_dataset(tmp_path, dataset([[1.0], [-1.0]], [1.0, -1.0]), "d.csv")
        pred_path = str(tmp_path / "pred.csv")
        assert main(["predict", "--model", model_path, "--data", data, "--out", pred_path]) == 0
        _, rows = read_csv(pred_path)
        assert all(float(r[1]) == 0.0 and float(r[2]) == 1.0 for r in rows)

    def test_dimension_mismatch_names_expected(self, tmp_path, np_rng, random_csv, capsys):
        model_path = self.train_model(tmp_path, random_csv)
        wide = write_dataset(tmp_path, random_classification(np_rng, 5, 4), "wide.csv")
        code = main(["predict", "--model", model_path, "--data", wide,
                     "--out", str(tmp_path / "p.csv")])
        assert code == 2
        assert "expected 2 features" in capsys.readouterr().err

    def test_nan_alpha_model_is_data_error(self, tmp_path, random_csv, capsys):
        model_path = self.train_model(tmp_path, random_csv)
        lines = open(model_path).read().splitlines()
        i = next(i for i, ln in enumerate(lines) if ln.startswith("term 1 "))
        parts = lines[i].split()
        parts[2] = "nan"
        lines[i] = " ".join(parts)
        open(model_path, "w").write("\n".join(lines) + "\n")
        pred_path = tmp_path / "pred.csv"
        code = main(["predict", "--model", model_path, "--data", random_csv,
                     "--out", str(pred_path)])
        assert code == 2
        assert f"{model_path}: line {i + 1}: non-finite alpha" in capsys.readouterr().err
        assert not pred_path.exists()


class TestEvalCommand:
    def test_perfect_model_report(self, tmp_path, separable_csv, capsys):
        model_path = str(tmp_path / "model.txt")
        assert main(["train", "--data", separable_csv, "--rounds", "3",
                     "--loss", "exp", "--out", model_path]) == 0
        capsys.readouterr()
        assert main(["eval", "--model", model_path, "--data", separable_csv]) == 0
        out = capsys.readouterr().out
        assert "error_rate 0.0" in out
        assert "bound_chain_ok true" in out

    def test_bound_chain_values_consistent(self, tmp_path, random_csv, capsys):
        model_path = str(tmp_path / "model.txt")
        assert main(["train", "--data", random_csv, "--rounds", "6",
                     "--loss", "exp", "--out", model_path]) == 0
        capsys.readouterr()
        assert main(["eval", "--model", model_path, "--data", random_csv]) == 0
        out = capsys.readouterr().out
        rows = [ln.split() for ln in out.splitlines() if ln.startswith("bound_round")]
        assert len(rows) == 6
        for row in rows:
            prod_z, prod_sqrt, exp_bound, train_error = map(float, row[4:8])
            assert train_error <= prod_z + 1e-9
            assert prod_z <= exp_bound + 1e-9
            assert prod_z == pytest.approx(prod_sqrt, rel=1e-9)

    def test_margin_histogram_emitted(self, tmp_path, random_csv, capsys):
        model_path = str(tmp_path / "model.txt")
        assert main(["train", "--data", random_csv, "--rounds", "4",
                     "--loss", "exp", "--out", model_path]) == 0
        capsys.readouterr()
        assert main(["eval", "--model", model_path, "--data", random_csv]) == 0
        out = capsys.readouterr().out
        bins = [ln for ln in out.splitlines() if ln.startswith("margin_bin")]
        assert len(bins) == 20
        total = sum(int(ln.split()[-1]) for ln in bins)
        assert total == 40


class TestCdeCommands:
    @pytest.fixture
    def regression_csv(self, tmp_path, np_rng):
        X = np_rng.uniform(-1, 1, size=(150, 2))
        y = 2.0 * X[:, 0] + np_rng.normal(scale=0.2, size=150)
        return write_dataset(tmp_path, dataset(X, y), "reg.csv")

    def test_train_sample_deterministic(self, tmp_path, regression_csv):
        model_path = str(tmp_path / "cde.txt")
        assert main(["cde", "train", "--data", regression_csv, "--k", "3",
                     "--rounds", "5", "--seed", "2", "--out", model_path]) == 0
        s1, s2 = str(tmp_path / "s1.csv"), str(tmp_path / "s2.csv")
        for out in (s1, s2):
            assert main(["cde", "sample", "--model", model_path, "--data", regression_csv,
                         "--n-samples", "3", "--seed", "11", "--out", out]) == 0
        assert open(s1, "rb").read() == open(s2, "rb").read()

    def test_quantiles_ordered(self, tmp_path, regression_csv):
        model_path = str(tmp_path / "cde.txt")
        assert main(["cde", "train", "--data", regression_csv, "--k", "3",
                     "--rounds", "5", "--out", model_path]) == 0
        values = {}
        for level in ("0.25", "0.5", "0.75"):
            out = str(tmp_path / f"q{level}.csv")
            assert main(["cde", "quantile", "--model", model_path, "--data", regression_csv,
                         "--level", level, "--out", out]) == 0
            _, rows = read_csv(out)
            values[level] = [float(r[1]) for r in rows]
        for lo, mid, hi in zip(values["0.25"], values["0.5"], values["0.75"]):
            assert lo <= mid <= hi

    def test_bad_level_is_usage_error_before_loading(self, tmp_path, capsys):
        # the model and data paths do not exist: the flag is checked first
        for bad in ("0", "1", "1.5", "-0.25", "nan"):
            code = main(["cde", "quantile", "--model", str(tmp_path / "none.txt"),
                         "--data", str(tmp_path / "none.csv"), "--level", bad,
                         "--out", str(tmp_path / "q.csv")])
            assert code == 1
            assert "--level" in capsys.readouterr().err

    def test_classification_data_rejected(self, tmp_path, separable_csv):
        code = main(["cde", "train", "--data", separable_csv, "--k", "2",
                     "--rounds", "3", "--out", str(tmp_path / "m.txt")])
        assert code == 2

    def test_classifier_model_rejected_by_sample(self, tmp_path, random_csv):
        model_path = str(tmp_path / "clf.txt")
        assert main(["train", "--data", random_csv, "--rounds", "2", "--out", model_path]) == 0
        code = main(["cde", "sample", "--model", model_path, "--data", random_csv,
                     "--out", str(tmp_path / "s.csv")])
        assert code == 2


class TestActiveCommand:
    def test_row_counts_and_pairing(self, tmp_path, np_rng):
        pool = write_dataset(tmp_path, stump_separable(np_rng, 400, 2), "pool.csv")
        test = write_dataset(tmp_path, stump_separable(np_rng, 100, 2), "test.csv")
        out = str(tmp_path / "curves.csv")
        assert main(["active", "--data", pool, "--test", test, "--strategy", "both",
                     "--init", "40", "--batch", "20", "--iterations", "3",
                     "--seeds", "0,1", "--rounds", "5", "--out", out]) == 0
        header, rows = read_csv(out)
        assert header == ["strategy", "seed", "iteration", "labels_used", "test_error"]
        assert len(rows) == 2 * 2 * 4  # strategies x seeds x (iterations + 1)
        by_key = {(r[0], r[1], r[2]): r for r in rows}
        for seed in ("0", "1"):
            unc = by_key[("uncertainty", seed, "0")]
            ran = by_key[("random", seed, "0")]
            assert unc[3] == ran[3] == "40"
            assert unc[4] == ran[4]

    def test_bad_seeds_flag(self, tmp_path, np_rng):
        pool = write_dataset(tmp_path, stump_separable(np_rng, 100, 2), "pool.csv")
        code = main(["active", "--data", pool, "--test-fraction", "0.3",
                     "--init", "10", "--batch", "5", "--iterations", "1",
                     "--seeds", "a,b", "--rounds", "2", "--out", str(tmp_path / "c.csv")])
        assert code == 1


class TestUsage:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag(self, capsys):
        assert main(["train", "--rounds", "2"]) == 1
        assert "data" in capsys.readouterr().err
