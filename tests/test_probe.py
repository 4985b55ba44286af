import numpy as np
import pytest

from vocalm.ulm import probe_eval, train_probe
from vocalm.ulm.probe import ProbeClassifier


def gaussian_clusters(rng, n_per=120, dim=26, c=3, sep=6.0):
    centers = rng.normal(size=(c, dim)) * sep
    xs, ys = [], []
    for label, center in enumerate(centers):
        xs.append(center + rng.normal(size=(n_per, dim)))
        ys.append(np.full(n_per, label))
    return np.vstack(xs), np.concatenate(ys)


class TestProbe:
    def test_separable_clusters_high_f1(self, rng):
        x, y = gaussian_clusters(rng, c=2)
        result = train_probe(x, y, epochs=20, seed=0)
        recall, precision, f1 = result.val_metrics
        assert f1 >= 0.99
        assert recall >= 0.99 and precision >= 0.99

    def test_shuffled_labels_chance_level(self, rng):
        x, y = gaussian_clusters(rng, c=4, n_per=150)
        y_shuffled = rng.permutation(y)
        result = train_probe(x, y_shuffled, epochs=10, seed=1)
        _, _, f1 = result.val_metrics
        assert abs(f1 - 0.25) <= 0.1

    def test_duplicated_points_same_metrics(self, rng):
        x, y = gaussian_clusters(rng, c=2, n_per=60)
        result = train_probe(x, y, epochs=10, seed=3)
        clf = result.classifier
        base = probe_eval(clf, x, y)
        doubled = probe_eval(clf, np.vstack([x, x]), np.concatenate([y, y]))
        assert base == pytest.approx(doubled, abs=1e-12)

    def test_single_class_rejected(self, rng):
        x = rng.normal(size=(40, 8))
        with pytest.raises(ValueError, match="2 classes"):
            train_probe(x, np.zeros(40, dtype=int))

    @pytest.mark.parametrize("n_labels", [6, 48])
    def test_label_count_must_equal_row_count(self, rng, n_labels):
        # fewer labels used to train on the first rows alone, more to end in an IndexError
        x = rng.normal(size=(24, 8))
        with pytest.raises(ValueError) as exc:
            train_probe(x, np.arange(n_labels) % 2)
        assert str(exc.value) == f"{n_labels} labels for 24 rows; the probe needs one label a row"

    def test_one_class_message_lists_the_classes(self, rng):
        with pytest.raises(ValueError) as exc:
            train_probe(rng.normal(size=(6, 4)), [3] * 6)
        assert str(exc.value) == "the labels hold the classes [3] only; the probe needs at least 2 classes"

    def test_negative_label_rejected(self, rng):
        # -1 used to train as the last class, its F1 counted with the rest
        x, y = gaussian_clusters(rng, c=3, n_per=8)
        with pytest.raises(ValueError) as exc:
            train_probe(x, y - 1)
        assert str(exc.value) == "the labels hold the class -1, which is negative; the probe numbers its classes from 0"

    @pytest.mark.parametrize("epochs", [0, -3])
    def test_epochs_below_1_rejected(self, rng, epochs):
        # no epoch would leave the classifier untrained, its val_metrics from its initial weights
        x, y = gaussian_clusters(rng, c=2, n_per=20)
        with pytest.raises(ValueError, match="epochs must be >= 1"):
            train_probe(x, y, epochs=epochs)

    def test_val_split_is_class_balanced(self, rng):
        x, y = gaussian_clusters(rng, c=3, n_per=100)
        result = train_probe(x, y, epochs=1, seed=5)
        val_labels = y[result.val_idx]
        counts = np.bincount(val_labels, minlength=3)
        assert np.all(counts == 10)  # 10% of 100 per class
        assert len(set(result.val_idx) & set(result.train_idx)) == 0

    def test_deterministic_inference(self, rng):
        x, y = gaussian_clusters(rng, c=2, n_per=40)
        clf = train_probe(x, y, epochs=3, seed=7).classifier
        a = clf.predict_logits(x)
        b = clf.predict_logits(x.copy())
        assert np.array_equal(a, b)

    def test_architecture_validation(self):
        with pytest.raises(ValueError, match="decrease"):
            ProbeClassifier(10, 3, hidden=(32, 64, 16))
        with pytest.raises(ValueError, match="2 classes"):
            ProbeClassifier(10, 1)
