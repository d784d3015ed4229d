import numpy as np
import pytest

from boostkit.boosting import AdditiveModel, BoostConfig, train
from boostkit.density import survival_probabilities, train_cde
from boostkit.errors import DataError
from boostkit.model_io import load_model, save_classifier, save_density
from boostkit.stumps import Stump, StumpSearchConfig

from conftest import dataset, random_classification


def trained_model(np_rng, rounds=6, loss="exponential", stumps="binary"):
    ds = random_classification(np_rng, 40, 3)
    cfg = BoostConfig(rounds=rounds, loss_kind=loss, stumps=StumpSearchConfig(mode=stumps))
    model, _ = train(ds, cfg)
    return ds, model


class TestClassifierRoundTrip:
    def test_predictions_bit_identical(self, tmp_path, np_rng):
        ds, model = trained_model(np_rng, loss="exponential", stumps="confidence")
        path = str(tmp_path / "model.txt")
        save_classifier(path, model, features=ds.d, seed=7, config="rounds=6")
        loaded = load_model(path)
        assert loaded.mode == "classify"
        assert loaded.model == model
        assert loaded.seed == 7 and loaded.features == 3
        X = np_rng.uniform(-3, 3, size=(1000, 3))
        np.testing.assert_array_equal(loaded.model.score(X), model.score(X))

    def test_link_recorded_per_loss(self, tmp_path, np_rng):
        for loss, link in (("exponential", "sigmoid2f"), ("logistic", "sigmoidf")):
            ds, model = trained_model(np_rng, loss=loss, stumps="confidence")
            path = str(tmp_path / f"{loss}.txt")
            save_classifier(path, model, ds.d, 0, "c")
            assert load_model(path).link == link

    def test_save_is_byte_deterministic(self, tmp_path, np_rng):
        ds, model = trained_model(np_rng)
        a, b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
        save_classifier(a, model, ds.d, 1, "c")
        save_classifier(b, model, ds.d, 1, "c")
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_empty_model_refused(self, tmp_path):
        with pytest.raises(DataError):
            save_classifier(str(tmp_path / "m.txt"), AdditiveModel((), "exponential"), 1, 0, "c")

    def test_config_echo_preserved(self, tmp_path, np_rng):
        ds, model = trained_model(np_rng)
        path = str(tmp_path / "m.txt")
        save_classifier(path, model, ds.d, 0, "rounds=6;loss=exponential")
        assert load_model(path).config == "rounds=6;loss=exponential"


class TestValidation:
    def write_model(self, tmp_path, np_rng):
        ds, model = trained_model(np_rng, rounds=2)
        path = str(tmp_path / "m.txt")
        save_classifier(path, model, ds.d, 0, "c")
        return path

    def test_unknown_version_rejected(self, tmp_path, np_rng):
        path = self.write_model(tmp_path, np_rng)
        text = open(path).read().replace("boostkit-model 1", "boostkit-model 99")
        bad = str(tmp_path / "bad.txt")
        open(bad, "w").write(text)
        with pytest.raises(DataError, match="version"):
            load_model(bad)

    def test_zero_terms_rejected(self, tmp_path):
        bad = str(tmp_path / "zero.txt")
        open(bad, "w").write(
            "boostkit-model 1\nmode classify\nseed 0\nconfig c\nfeatures 1\n"
            "loss exponential\nlink sigmoid2f\nalpha-cap 35.0\nterms 0\nend\n"
        )
        with pytest.raises(DataError, match="at least one term"):
            load_model(bad)

    def test_truncated_rejected(self, tmp_path, np_rng):
        path = self.write_model(tmp_path, np_rng)
        lines = open(path).read().splitlines()
        bad = str(tmp_path / "trunc.txt")
        open(bad, "w").write("\n".join(lines[:-2]) + "\n")
        with pytest.raises(DataError):
            load_model(bad)

    def test_garbled_float_rejected(self, tmp_path, np_rng):
        path = self.write_model(tmp_path, np_rng)
        text = open(path).read().replace("alpha-cap 35.0", "alpha-cap pony")
        bad = str(tmp_path / "garbled.txt")
        open(bad, "w").write(text)
        with pytest.raises(DataError, match="bad float"):
            load_model(bad)

    def test_nonfinite_term_fields_rejected_with_line(self, tmp_path, np_rng):
        path = self.write_model(tmp_path, np_rng)
        lines = open(path).read().splitlines()
        term_line = next(i for i, ln in enumerate(lines) if ln.startswith("term "))
        # field 2 is alpha; 4, 5 and 6 are the stump's threshold and outputs
        for field, value, message in ((2, "nan", "non-finite alpha"), (2, "inf", "non-finite alpha"),
                                      (2, "-inf", "non-finite alpha"), (4, "nan", "threshold"),
                                      (5, "inf", "outputs"), (6, "nan", "outputs")):
            parts = lines[term_line].split()
            parts[field] = value
            bad = str(tmp_path / "nonfinite.txt")
            open(bad, "w").write("\n".join(lines[:term_line] + [" ".join(parts)]
                                           + lines[term_line + 1:]) + "\n")
            with pytest.raises(DataError, match=f"^{bad}: line {term_line + 1}: [^/]*{message}"):
                load_model(bad)

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_model(str(tmp_path / "nope.txt"))


class TestDensityRoundTrip:
    def test_survival_bit_identical(self, tmp_path, np_rng):
        X = np_rng.uniform(-1, 1, size=(200, 2))
        y = X[:, 0] * 2.0 + np_rng.normal(scale=0.3, size=200)
        ds = dataset(X, y)
        cfg = BoostConfig(rounds=8, loss_kind="logistic",
                          stumps=StumpSearchConfig(mode="confidence"))
        model = train_cde(ds, 3, cfg)
        path = str(tmp_path / "cde.txt")
        save_density(path, model, features=2, seed=3, config="k=3")
        loaded = load_model(path)
        assert loaded.mode == "cde"
        assert loaded.density.k == 3
        assert loaded.density.constant_flags == model.constant_flags
        np.testing.assert_array_equal(
            loaded.density.breakpoints.values, model.breakpoints.values
        )
        grid = np_rng.uniform(-2, 2, size=(300, 2))
        np.testing.assert_array_equal(
            survival_probabilities(loaded.density, grid),
            survival_probabilities(model, grid),
        )

    def test_mode_confusion_detected(self, tmp_path, np_rng):
        ds, model = trained_model(np_rng, rounds=2)
        path = str(tmp_path / "clf.txt")
        save_classifier(path, model, ds.d, 0, "c")
        loaded = load_model(path)
        assert loaded.density is None
