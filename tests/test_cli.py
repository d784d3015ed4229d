import csv
import math
import os
import re
import stat

import numpy as np
import pytest

from boostkit import cli
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

    @pytest.mark.parametrize("eta", ["inf", "nan", "-1"])
    def test_eta_must_be_finite_and_nonnegative(self, tmp_path, np_rng, capsys, eta):
        ds = random_classification(np_rng, 10, 1)
        data = write_dataset(tmp_path, dataset(ds.features, ds.labels, prior=np.full(10, 0.5)), "p.csv")
        code = main(["train", "--data", data, "--rounds", "2", "--prior-col", "prior",
                     "--eta", eta, "--out", str(tmp_path / "m.txt")])
        assert code == 1
        assert "--eta must be finite and nonnegative" in capsys.readouterr().err

    def test_eta_whose_masses_overflow_is_data_error(self, tmp_path, capsys):
        # 3 rows: each folded mass is finite, their sum is not
        path = tmp_path / "p.csv"
        path.write_text("a,label,prior\n0,1,0.5\n1,-1,0.5\n2,1,0.5\n")
        out = tmp_path / "m.txt"
        code = main(["train", "--data", str(path), "--rounds", "2", "--prior-col", "prior",
                     "--eta", "1e308", "--out", str(out)])
        assert code == 2
        assert "weights must have a finite sum" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("loss, stumps", [("logistic", "confidence"), ("exp", "binary"),
                                              ("exp", "confidence")])
    def test_weights_with_overflowing_sum_are_data_error(self, tmp_path, capsys, loss, stumps):
        path = tmp_path / "w.csv"
        path.write_text("a,label,weight\n0,1,1e308\n1,-1,1e308\n2,1,1e308\n")
        out = tmp_path / "m.txt"
        code = main(["train", "--data", str(path), "--rounds", "2", "--loss", loss,
                     "--stumps", stumps, "--out", str(out)])
        assert code == 2
        assert "data error: weights must have a finite sum" in capsys.readouterr().err
        assert not out.exists()

    def test_logistic_weights_that_underflow_name_the_round(self, tmp_path, capsys):
        # each base weight is the smallest double, and sigmoid(0) = 0.5 halves it to 0
        path = tmp_path / "w.csv"
        path.write_text("a,label,weight\n0,1,5e-324\n1,-1,5e-324\n2,1,5e-324\n")
        out = tmp_path / "m.txt"
        argv = ["train", "--data", str(path), "--rounds", "2", "--stumps", "confidence",
                "--out", str(out)]
        assert main(argv + ["--loss", "logistic"]) == 2
        assert "data error: round 1: logistic weights underflowed" in capsys.readouterr().err
        assert not out.exists()
        # exponential loss normalizes the base weights themselves
        assert main(argv + ["--loss", "exp"]) == 0

    def test_unparseable_test_cell_names_the_test_file(self, tmp_path, random_csv, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("f0,f1,label\n0.1,0.2,1\nnp.float64(0.3),0.4,-1\n")
        code = main(["train", "--data", random_csv, "--test", str(bad), "--rounds", "2",
                     "--out", str(tmp_path / "m.txt")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"data error: {bad}: line 3, column 'f0': cannot parse 'np.float64(0.3)'" in err

    def test_real_valued_test_labels_name_the_test_file(self, tmp_path, random_csv, capsys):
        test = tmp_path / "test.csv"
        test.write_text("f0,f1,label\n0.1,0.2,1\n0.3,0.4,2.5\n")
        out = tmp_path / "m.txt"
        code = main(["train", "--data", random_csv, "--test", str(test), "--rounds", "2", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {test}: ") and "classification labels" in err
        assert not out.exists()

    def test_test_feature_count_mismatch_names_the_test_file(self, tmp_path, random_csv, np_rng, capsys):
        test = write_dataset(tmp_path, random_classification(np_rng, 5, 3), "test.csv")
        out = tmp_path / "m.txt"
        code = main(["train", "--data", random_csv, "--test", test, "--rounds", "2", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {test}: expected 2 features") and "got 3" in err
        assert not out.exists()

    def test_unit_alphas_obey_the_alpha_cap(self, tmp_path):
        data = tmp_path / "u.csv"
        data.write_text("a,label\n0,1\n1,1\n2,-1\n3,1\n")
        out = str(tmp_path / "m.txt")
        assert main(["train", "--data", str(data), "--rounds", "2", "--stumps", "confidence",
                     "--alpha", "unit", "--smoothing", "1e-300", "--out", out]) == 0
        for alpha, stump in load_model(out).model.terms:
            assert max(abs(alpha * stump.left_output), abs(alpha * stump.right_output)) <= 35.0

    def test_an_overflowing_side_quotient_trains_with_a_clamped_unit_alpha(self, tmp_path, capsys):
        # the left side of a < 0.5 holds W+ = 1/3 and W- = 1e-320/3: W+ / W-
        # overflows, and its output is the finite difference of the logs
        data = tmp_path / "w.csv"
        data.write_text("a,label,weight\n0,1,1\n0,-1,1e-320\n1,-1,1\n1,1,1\n")
        out = str(tmp_path / "m.txt")
        assert main(["train", "--data", str(data), "--rounds", "2", "--stumps", "confidence",
                     "--smoothing", "0", "--out", out]) == 0, capsys.readouterr().err
        terms = load_model(out).model.terms
        assert len(terms) == 2
        for alpha, stump in terms:
            top = max(abs(stump.left_output), abs(stump.right_output))
            assert np.isfinite([stump.left_output, stump.right_output]).all()
            assert top > 35.0 and alpha == 35.0 / top
        alpha, stump = terms[0]
        assert stump.left_output == 0.5 * (math.log(1.0 / 3.0) - math.log(1e-320 / 3.0))

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

    def test_bad_config_value_names_its_line(self, tmp_path, monkeypatch, random_csv, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "c.cfg").write_text("rounds = 3\n# smoothing below\nsmoothing = nan\n")
        code = main(["train", "--config", "c.cfg", "--data", random_csv, "--out", "m.txt"])
        assert code == 1
        assert capsys.readouterr().err == (
            "usage error: c.cfg: line 3: --smoothing must be finite and nonnegative, got 'nan'\n")

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_outputs_take_the_umask_mode(self, tmp_path, random_csv, umask, mode):
        out = tmp_path / "m.txt"
        old = os.umask(umask)
        try:
            assert main(["train", "--data", random_csv, "--rounds", "2", "--out", str(out)]) == 0
        finally:
            os.umask(old)
        for path in (out, tmp_path / "m.txt.stats.csv"):
            assert stat.S_IMODE(path.stat().st_mode) == mode, path


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
        err = capsys.readouterr().err
        assert "expected 2 features" in err
        assert err.startswith(f"data error: {wide}: ") and f"model {model_path}" in err

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


CLASSIFY_KEYS = ("boostkit-model", "mode", "seed", "features", "loss", "link", "alpha-cap",
                 "terms", "term")
CDE_KEYS = ("mode", "seed", "features", "support", "breakpoints", "breakpoint", "classifier",
            "loss", "link", "terms", "term")


class TestMalformedModelFiles:
    @pytest.fixture
    def commands(self, tmp_path, np_rng):
        """Per mode: a trained model file and the command that loads it."""
        clf_data = write_dataset(tmp_path, random_classification(np_rng, 40, 2), "clf.csv")
        X = np_rng.uniform(-1, 1, size=(60, 2))
        reg_data = write_dataset(tmp_path, dataset(X, X[:, 0] + np_rng.normal(size=60)), "reg.csv")
        clf, cde = str(tmp_path / "clf.txt"), str(tmp_path / "cde.txt")
        assert main(["train", "--data", clf_data, "--rounds", "3", "--out", clf]) == 0
        assert main(["cde", "train", "--data", reg_data, "--k", "2", "--rounds", "3",
                     "--out", cde]) == 0
        out = str(tmp_path / "out.csv")
        return {
            "classify": (clf, ["predict", "--data", clf_data, "--out", out]),
            "cde": (cde, ["cde", "quantile", "--data", reg_data, "--level", "0.5", "--out", out]),
        }

    def run_edited(self, tmp_path, commands, mode, edit):
        """Run the mode's command on its model file with one line edited."""
        model, argv = commands[mode]
        lines = open(model).read().splitlines()
        i = edit(lines)
        bad = str(tmp_path / "bad.txt")
        open(bad, "w").write("\n".join(lines) + "\n")
        return main(argv + ["--model", bad]), bad, i + 1

    @pytest.mark.parametrize("mode,key", [("classify", k) for k in CLASSIFY_KEYS]
                             + [("cde", k) for k in CDE_KEYS])
    def test_bare_key_line_is_data_error(self, tmp_path, commands, capsys, mode, key):
        def bare(lines):
            i = next(i for i, ln in enumerate(lines) if ln.split()[0] == key)
            lines[i] = key
            return i

        code, bad, line = self.run_edited(tmp_path, commands, mode, bare)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {bad}: line {line}: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("mode,link,other", [("classify", "sigmoid2f", "sigmoidf"),
                                                 ("cde", "sigmoidf", "sigmoid2f")])
    def test_link_must_match_loss(self, tmp_path, commands, capsys, mode, link, other):
        def swap(lines):
            i = lines.index(f"link {link}")
            lines[i] = f"link {other}"
            return i

        code, bad, line = self.run_edited(tmp_path, commands, mode, swap)
        assert code == 2
        assert f"{bad}: line {line}: link {other!r} does not match loss" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    def test_nonfinite_score_is_data_error(self, tmp_path, capsys):
        model = tmp_path / "huge.txt"
        model.write_text(
            "boostkit-model 1\nmode classify\nseed 0\nconfig c\nfeatures 1\n"
            "loss exponential\nlink sigmoid2f\nalpha-cap 35.0\nterms 1\n"
            "term 1 1e308 0 1.5 1.0 1e308\nend\n"
        )
        data = write_dataset(tmp_path, dataset([[1.0], [2.0], [3.0]], [1.0, -1.0, 1.0]), "d.csv")
        out = tmp_path / "pred.csv"
        with np.errstate(over="ignore"):
            code = main(["predict", "--model", str(model), "--data", data, "--out", str(out)])
        assert code == 2
        assert "score must be finite; row 1 has inf" in capsys.readouterr().err
        assert not out.exists()


class TestLoadErrorsNameTheLine:
    """A bad model file or rule table exits 2 naming the path and a line of the
    faulty block, counted as in the file, blank lines included."""

    def edit(self, tmp_path, model, edit):
        """Write model with edit(lines) applied to its lines; return the path."""
        lines = open(model).read().splitlines()
        edit(lines)
        bad = str(tmp_path / "bad.txt")
        open(bad, "w").write("\n".join(lines) + "\n")
        return bad

    def error(self, capsys, argv, bad) -> tuple[int, str]:
        """Run argv, which must exit 2 naming bad and a line: that line and the message."""
        assert main(argv) == 2
        err = capsys.readouterr().err
        match = re.fullmatch(rf"data error: {re.escape(bad)}: line (\d+): (.*)\n", err)
        assert match, err
        return int(match.group(1)), match.group(2)

    @pytest.fixture
    def classifier(self, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("a,label\n0.0,1\n2.0,-1\n1.0,1\n0.5,-1\n")
        model = str(tmp_path / "m.txt")
        assert main(["train", "--data", str(data), "--rounds", "2", "--out", model]) == 0
        return model, ["predict", "--data", str(data), "--out", str(tmp_path / "p.csv")]

    @pytest.fixture
    def density(self, tmp_path):
        data = tmp_path / "r.csv"
        data.write_text("a,b,label\n0.1,0.2,1.5\n0.3,0.1,2.5\n0.5,0.9,0.5\n0.7,0.4,3.0\n"
                        "0.2,0.8,1.0\n0.9,0.3,2.0\n")
        model = str(tmp_path / "c.txt")
        assert main(["cde", "train", "--data", str(data), "--k", "2", "--rounds", "2",
                     "--out", model]) == 0
        return model, ["cde", "quantile", "--data", str(data), "--level", "0.5",
                       "--out", str(tmp_path / "q.csv")]

    def test_blank_lines_are_counted(self, tmp_path, capsys, classifier):
        model, argv = classifier

        def edit(lines):
            lines[2:2] = ["", ""]
            i = next(i for i, ln in enumerate(lines) if ln.startswith("term 2 "))
            parts = lines[i].split()
            parts[2] = "nan"
            lines[i] = " ".join(parts)

        bad = self.edit(tmp_path, model, edit)
        assert self.error(capsys, argv + ["--model", bad], bad) == (13, "non-finite alpha 'nan'")
        assert open(bad).read().splitlines()[12].startswith("term 2 nan ")

    @pytest.mark.parametrize("key, field, value, message", [
        ("term 1 ", 3, "3", "feature index 3 out of range for 1 features"),
        ("features ", 1, "-2", "a model needs at least one feature, got -2"),
    ])
    def test_feature_indices_checked_at_load(self, tmp_path, capsys, classifier, key, field,
                                             value, message):
        model, argv = classifier
        line = []

        def edit(lines):
            i = next(i for i, ln in enumerate(lines) if ln.startswith(key))
            parts = lines[i].split()
            parts[field] = value
            lines[i] = " ".join(parts)
            line.append(i + 1)

        bad = self.edit(tmp_path, model, edit)
        assert self.error(capsys, argv + ["--model", bad], bad) == (line[0], message)

    @pytest.mark.parametrize("case, message", [
        ("swap breakpoints", "breakpoints must be finite and strictly increasing"),
        ("narrow support", "breakpoints must lie inside the support range"),
        ("exponential block 1", "density classifiers must use logistic loss"),
    ])
    def test_density_checks_name_the_faulty_block(self, tmp_path, capsys, density, case,
                                                  message):
        model, argv = density
        block = []

        def edit(lines):
            keys = [ln.split()[0] for ln in lines]
            first_block, second_block = (i for i, k in enumerate(keys) if k == "classifier")
            if case == "exponential block 1":
                lines[first_block + 1:first_block + 3] = ["loss exponential", "link sigmoid2f"]
                block.extend(range(first_block + 1, second_block + 1))
                return
            i, j = (i for i, k in enumerate(keys) if k == "breakpoint")
            if case == "swap breakpoints":
                lines[i], lines[j] = lines[j], lines[i]
            else:
                lines[keys.index("support")] = "support 5.0 9.0"
            block.extend(range(keys.index("support") + 1, first_block + 1))

        bad = self.edit(tmp_path, model, edit)
        line, text = self.error(capsys, argv + ["--model", bad], bad)
        assert text == message
        assert line in block

    @pytest.mark.parametrize("table, line, message", [
        ("0, <=, 0.5, 1.5\ndefault, 0.5\n", 1,
         "rule probabilities must be in [0,1] and indices >= 0"),
        ("0, <=, 0.5, 0.3\n0, <, 0.5, 0.7\ndefault, 0.5\n", 2, "unknown comparator '<'"),
        ("# rules\n0, <=, 0.5, 0.3\n\ndefault, 2\n", 4, "default probability must be in [0,1]"),
    ])
    def test_rule_checks_name_their_line(self, tmp_path, capsys, classifier, table, line,
                                         message):
        rules = str(tmp_path / "r.txt")
        open(rules, "w").write(table)
        argv = ["train", "--data", classifier[1][2], "--rounds", "2", "--prior-rules", rules,
                "--eta", "1", "--out", str(tmp_path / "pm.txt")]
        assert self.error(capsys, argv, rules) == (line, message)


class TestEvalCommand:
    def test_nonfinite_score_is_data_error(self, tmp_path, capsys):
        model = tmp_path / "huge.txt"
        model.write_text(
            "boostkit-model 1\nmode classify\nseed 0\nconfig c\nfeatures 1\n"
            "loss exponential\nlink sigmoid2f\nalpha-cap 35.0\nterms 1\n"
            "term 1 1e308 0 1.5 1.0 1e308\nend\n"
        )
        data = write_dataset(tmp_path, dataset([[1.0], [2.0], [3.0]], [1.0, -1.0, 1.0]), "d.csv")
        with np.errstate(over="ignore"):
            code = main(["eval", "--model", str(model), "--data", data])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "score must be finite; row 1 has inf" in captured.err

    def test_overflowing_loss_is_data_error(self, tmp_path, capsys):
        # finite scores of +-1000, one row misclassified: exp(1000) is inf
        model = tmp_path / "big.txt"
        model.write_text(
            "boostkit-model 1\nmode classify\nseed 0\nconfig c\nfeatures 1\n"
            "loss exponential\nlink sigmoid2f\nalpha-cap 35.0\nterms 1\n"
            "term 1 1000.0 0 1.5 1.0 -1.0\nend\n"
        )
        data = write_dataset(tmp_path, dataset([[0.0], [2.0], [1.0]], [-1.0, -1.0, 1.0]), "d.csv")
        with np.errstate(over="ignore"):
            code = main(["eval", "--model", str(model), "--data", data])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{model}: exponential loss on {data} is inf" in captured.err

    def test_underflowing_normalizer_is_data_error(self, tmp_path, capsys):
        # scores of +-1000, every row right: exp(-1000) is 0, so the replayed
        # bound chain's first normalizer is 0.0
        model = tmp_path / "big.txt"
        model.write_text(
            "boostkit-model 1\nmode classify\nseed 0\nconfig c\nfeatures 1\n"
            "loss exponential\nlink sigmoid2f\nalpha-cap 35.0\nterms 1\n"
            "term 1 1000.0 0 1.5 1.0 -1.0\nend\n"
        )
        data = tmp_path / "d.csv"
        data.write_text("a,label\n0.0,1\n2.0,-1\n1.0,1\n")
        code = main(["eval", "--model", str(model), "--data", str(data)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{model}: bound-chain replay on {data}, round 1: distribution normalizer is 0.0" in captured.err

    def test_scores_the_file_once(self, tmp_path, random_csv, capsys, monkeypatch):
        from boostkit.boosting import AdditiveModel

        model_path = str(tmp_path / "model.txt")
        assert main(["train", "--data", random_csv, "--rounds", "4", "--out", model_path]) == 0
        calls = []
        real_score = AdditiveModel.score

        def spy(self, X):
            calls.append(X.shape[0])
            return real_score(self, X)

        monkeypatch.setattr(AdditiveModel, "score", spy)
        assert main(["eval", "--model", model_path, "--data", random_csv]) == 0
        assert calls == [40]

    def test_long_cell_is_data_error(self, tmp_path, separable_csv, capsys):
        model = str(tmp_path / "model.txt")
        assert main(["train", "--data", separable_csv, "--rounds", "2", "--out", model]) == 0
        data = tmp_path / "long.csv"  # a cell over the csv module's 131,072-character limit
        data.write_text("a,b,label\n1,2,1\n" + "9" * 140_000 + "x,2,-1\n", encoding="utf-8")
        for argv in (["predict", "--model", model, "--data", str(data), "--out", str(tmp_path / "p.csv")],
                     ["eval", "--model", model, "--data", str(data)]):
            capsys.readouterr()
            assert main(argv) == 2
            assert f"{data}: line 3: field larger than field limit" in capsys.readouterr().err

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


class TestLabelErrorsNameTheFile:
    """Each labeled file a classification command reads is named when its labels are not -1/+1."""

    @pytest.mark.parametrize("command, flag", [
        ("train", "--data"), ("eval", "--data"), ("active", "--data"), ("active", "--test"),
    ])
    def test_real_valued_labels(self, tmp_path, capsys, command, flag):
        reg = tmp_path / "reg.csv"
        reg.write_text("a,label\n1,0.5\n2,1.5\n3,2.5\n")
        good = write_dataset(tmp_path, dataset([[1.0], [2.0], [3.0], [4.0]], [1.0, -1.0, 1.0, -1.0]),
                             "good.csv")
        model, out = str(tmp_path / "m.txt"), str(tmp_path / "out.csv")
        assert main(["train", "--data", good, "--rounds", "2", "--out", model]) == 0
        data, test = (str(reg) if flag == f else good for f in ("--data", "--test"))
        argv = {
            "train": ["train", "--data", data, "--rounds", "2", "--out", out],
            "eval": ["eval", "--model", model, "--data", data],
            "active": ["active", "--data", data, "--test", test, "--init", "2",
                       "--batch", "1", "--iterations", "1", "--rounds", "2", "--out", out],
        }[command]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {reg}: ") and "requires classification labels (-1/+1)" in err


class TestUsage:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag(self, capsys):
        assert main(["train", "--rounds", "2"]) == 1
        assert "data" in capsys.readouterr().err


# One bad value per flag that has a checked value; text flags (paths and
# column names) take any text.
BAD_VALUES = {
    "eta": "-1", "rounds": "0", "loss": "hinge", "stumps": "stump", "alpha": "exact",
    "smoothing": "nan", "seed": "-5", "k": "0", "n_samples": "0", "level": "1",
    "test_fraction": "1.5", "split_seed": "-1", "strategy": "greedy", "init": "0",
    "batch": "0", "iterations": "-1", "seeds": "-1",
}
# Valid values of the required flags; the files need not exist, as every
# value is checked before any file is read.
REQUIRED_VALUES = {"data": "none.csv", "model": "none.txt", "out": "out.txt", "rounds": "2",
                   "k": "2", "level": "0.5"}


def flag(key):
    return "--" + key.replace("_", "-")


def command_taking(key):
    """The argv of the first command that takes key, with its other required flags."""
    name, command = next((n, c) for n, c in cli._COMMANDS.items() if key in c.keys)
    argv = name.split()
    for required, value in REQUIRED_VALUES.items():
        if required in command.keys and required != key:
            argv += [flag(required), value]
    return argv


class TestFlagTable:
    def test_every_checked_flag_has_a_bad_value(self):
        assert set(BAD_VALUES) == {k for k, f in cli._FLAGS.items() if f.kind.accepts is not None}

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("key", sorted(BAD_VALUES))
    def test_bad_value_is_usage_error_naming_the_flag(self, tmp_path, monkeypatch, capsys, key, source):
        monkeypatch.chdir(tmp_path)
        argv = command_taking(key)
        if source == "flag":
            argv += [flag(key), BAD_VALUES[key]]
        else:
            (tmp_path / "bad.cfg").write_text(f"{key} = {BAD_VALUES[key]}\n")
            argv += ["--config", "bad.cfg"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and f"{flag(key)} must be " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("name", list(cli._COMMANDS))
    def test_help_lists_each_flag_once(self, monkeypatch, capsys, name):
        monkeypatch.setenv("COLUMNS", "300")  # one line per option
        with pytest.raises(SystemExit) as exit_info:
            main(name.split() + ["--help"])
        assert exit_info.value.code == 0
        listed = [ln.split()[0] for ln in capsys.readouterr().out.splitlines()
                  if ln.startswith("  --")]
        keys = cli._COMMON + cli._COMMANDS[name].keys
        assert sorted(listed) == sorted(flag(k) for k in keys)

    def test_config_keys_a_command_does_not_take_are_ignored(self, tmp_path, np_rng, capsys):
        X = np_rng.uniform(-1, 1, size=(60, 2))
        reg = write_dataset(tmp_path, dataset(X, X[:, 0] + np_rng.normal(size=60)), "reg.csv")
        clf = write_dataset(tmp_path, random_classification(np_rng, 30, 2), "clf.csv")
        cfg = tmp_path / "other.cfg"
        # cde train has no --loss and train has no --k, --level or --seeds
        cfg.write_text("loss = exp\nk = 0\nlevel = 7\nseeds = x\n")
        assert main(["cde", "train", "--config", str(cfg), "--data", reg, "--k", "2",
                     "--rounds", "2", "--out", str(tmp_path / "cde.txt")]) == 0
        assert main(["train", "--config", str(cfg), "--data", clf, "--rounds", "2",
                     "--out", str(tmp_path / "m.txt")]) == 0
        assert load_model(str(tmp_path / "m.txt")).model.loss_kind == "exponential"

    def test_k_above_distinct_labels_is_data_error(self, tmp_path, capsys):
        data = write_dataset(tmp_path, dataset([[0.0], [1.0], [2.0]], [0.5, 1.5, 2.5]), "r.csv")
        assert main(["cde", "train", "--data", data, "--k", "3", "--rounds", "2",
                     "--out", str(tmp_path / "c.txt")]) == 2
        assert "k must be in [1, 2]" in capsys.readouterr().err


CONFIG_RUNS = {
    "train": (["train", "--out", "m.txt"], ["m.txt", "m.txt.stats.csv"], {
        "data": "clf.csv", "test": "clf.csv", "rounds": "4", "loss": "logistic",
        "stumps": "confidence", "alpha": "line-search", "smoothing": "0.01", "seed": "9",
        "label_col": "y"}),
    "cde": (["cde", "sample", "--out", "s.csv"], ["s.csv"], {
        "model": "cde.txt", "data": "reg.csv", "n_samples": "3", "seed": "4", "label_col": "y"}),
    "active": (["active", "--out", "c.csv"], ["c.csv"], {
        "data": "pool.csv", "test_fraction": "0.4", "split_seed": "3", "strategy": "random",
        "init": "10", "batch": "5", "iterations": "2", "seeds": "1,2", "rounds": "3",
        "loss": "logistic", "stumps": "binary", "alpha": "auto", "label_col": "y"}),
}


@pytest.mark.parametrize("run", sorted(CONFIG_RUNS))
def test_config_values_give_the_bytes_flags_give(tmp_path, monkeypatch, np_rng, capsys, run):
    monkeypatch.chdir(tmp_path)
    clf = random_classification(np_rng, 40, 2)
    save_csv(dataset(clf.features, clf.labels, label_name="y"), "clf.csv")
    save_csv(dataset(clf.features, clf.labels, label_name="y"), "pool.csv")
    X = np_rng.uniform(-1, 1, size=(50, 2))
    save_csv(dataset(X, X[:, 0] + np_rng.normal(size=50), label_name="y"), "reg.csv")
    assert main(["cde", "train", "--data", "reg.csv", "--label-col", "y", "--k", "2",
                 "--rounds", "2", "--out", "cde.txt"]) == 0
    argv, outputs, values = CONFIG_RUNS[run]
    by_flags = argv + [a for key, value in values.items() for a in (flag(key), value)]
    assert main(by_flags) == 0
    expected = {name: open(name, "rb").read() for name in outputs}
    with open("run.cfg", "w") as fh:
        fh.writelines(f"{key} = {value}\n" for key, value in values.items())
    assert main(argv + ["--config", "run.cfg"]) == 0
    assert {name: open(name, "rb").read() for name in outputs} == expected


class TestNotUtf8:
    """One byte 0xe4 in any input file is a typed error naming the path and line."""

    @pytest.fixture
    def files(self, tmp_path, random_csv):
        model = str(tmp_path / "m.txt")
        assert main(["train", "--data", random_csv, "--rounds", "2", "--out", model]) == 0
        text = open(random_csv, "rb").read().splitlines(keepends=True)
        bad_csv = tmp_path / "bad.csv"
        bad_csv.write_bytes(b"".join(text[:3] + [b"0.5,0\xe4.25,1\n"] + text[3:]))
        bad_model = tmp_path / "bad.txt"
        bad_model.write_bytes(open(model, "rb").read().replace(b"features", b"feat\xe4ures"))
        bad_cfg = tmp_path / "bad.cfg"
        bad_cfg.write_bytes(b"rounds = 2\n\n# r\xe4nde\n")
        bad_rules = tmp_path / "bad_rules.txt"
        bad_rules.write_bytes(b"0, <=, 0.0, 0.8\n\xe4default, 0.2\n")
        return {"csv": str(bad_csv), "model": str(bad_model), "cfg": str(bad_cfg),
                "rules": str(bad_rules), "good_model": model, "good_csv": random_csv}

    @pytest.mark.parametrize("case, code, line", [
        ("train --data", 2, 4), ("predict --data", 2, 4), ("predict --model", 2, 5),
        ("train --config", 1, 3), ("train --prior-rules", 2, 2)])
    def test_names_path_and_line(self, tmp_path, files, capsys, case, code, line):
        out = str(tmp_path / "out")
        argv = {
            "train --data": ["train", "--data", files["csv"], "--rounds", "2", "--out", out],
            "predict --data": ["predict", "--model", files["good_model"], "--data", files["csv"],
                               "--out", out],
            "predict --model": ["predict", "--model", files["model"], "--data", files["good_csv"],
                                "--out", out],
            "train --config": ["train", "--config", files["cfg"], "--data", files["good_csv"],
                               "--out", out],
            "train --prior-rules": ["train", "--data", files["good_csv"], "--rounds", "2",
                                    "--prior-rules", files["rules"], "--eta", "1", "--out", out],
        }[case]
        bad = {"--data": files["csv"], "--model": files["model"], "--config": files["cfg"],
               "--prior-rules": files["rules"]}[case.split()[1]]
        assert main(argv) == code
        err = capsys.readouterr().err
        assert f"{bad}: line {line}: not valid UTF-8 (byte 0xe4)" in err
        assert "Traceback" not in err

    def test_line_found_past_the_first_decoded_chunk(self, tmp_path, capsys):
        rows = [f"{i * 0.25!r},{(-1) ** i}" for i in range(5000)]
        rows[3999] = "0\xe4.5,1"
        path = tmp_path / "long.csv"
        path.write_bytes(("a,label\n" + "\n".join(rows) + "\n").encode("latin-1"))
        assert main(["train", "--data", str(path), "--rounds", "1",
                     "--out", str(tmp_path / "m.txt")]) == 2
        assert f"{path}: line 4001: not valid UTF-8" in capsys.readouterr().err


def test_converged_logistic_fit_adds_a_zero_term(tmp_path, capsys):
    # after round 1 the one side's label masses are equal, so round 2's stump is zero
    data = tmp_path / "conv.csv"
    data.write_text("a,label,weight\n-1,-1,1\n-1,1,0.5\n")
    out = str(tmp_path / "m.txt")
    assert main(["train", "--loss", "logistic", "--stumps", "confidence", "--rounds", "2",
                 "--data", str(data), "--out", out]) == 0
    (_, first), (alpha, second) = load_model(out).model.terms
    x = np.array([[-1.0]])
    assert first.evaluate_matrix(x)[0] != 0.0
    assert alpha == 0.0 and second.evaluate_matrix(x)[0] == 0.0
