import math
import re

import numpy as np
import pytest

from lsmkit import (
    ConfigError,
    DatasetError,
    FitTrace,
    ReadoutConfig,
    ReadoutModel,
    SpikeRecord,
    evaluate,
    extract_state,
    save_model,
    train_readout,
)
from lsmkit.readout import loss_and_gradients


def record(counts, slab=None):
    counts = np.asarray(counts, dtype=np.int64)
    return SpikeRecord(
        counts=counts,
        slab_counts=None if slab is None else np.asarray(slab, dtype=np.int64),
    )


class TestExtractState:
    def test_silent_reservoir_zero_vector(self):
        state = extract_state([record(np.zeros(10))])
        assert state.features.shape == (10,)
        assert np.all(state.features == 0)

    def test_concatenation_dim(self):
        records = [record(np.ones(1200)) for _ in range(3)]
        state = extract_state(records)
        assert state.features.shape == (3600,)

    def test_count_conservation(self):
        rng = np.random.default_rng(0)
        records = [record(rng.integers(0, 30, size=50)) for _ in range(4)]
        state = extract_state(records)
        assert state.features.sum() == sum(r.counts.sum() for r in records)

    def test_full_window_counts_even_with_slab_counts(self):
        # tepre records carry slab counts; the state is still the full window
        rec = record(np.full(5, 9), slab=np.arange(5))
        state = extract_state([rec])
        assert np.array_equal(state.features, np.full(5, 9.0))

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            extract_state([])


def finite_difference_grads(w, b, x, y_onehot, l2, eps=1e-6):
    """Central differences on the full loss, one coordinate at a time."""
    gw = np.zeros_like(w)
    for i in range(w.shape[0]):
        for j in range(w.shape[1]):
            wp, wm = w.copy(), w.copy()
            wp[i, j] += eps
            wm[i, j] -= eps
            lp = loss_and_gradients(wp, b, x, y_onehot, l2)[0]
            lm = loss_and_gradients(wm, b, x, y_onehot, l2)[0]
            gw[i, j] = (lp - lm) / (2 * eps)
    gb = np.zeros_like(b)
    for i in range(b.shape[0]):
        bp, bm = b.copy(), b.copy()
        bp[i] += eps
        bm[i] -= eps
        lp = loss_and_gradients(w, bp, x, y_onehot, l2)[0]
        lm = loss_and_gradients(w, bm, x, y_onehot, l2)[0]
        gb[i] = (lp - lm) / (2 * eps)
    return gw, gb


class TestGradients:
    def test_analytic_matches_central_differences(self):
        rng = np.random.default_rng(42)
        n, f, c = 30, 50, 5
        x = rng.normal(size=(n, f))
        y = rng.integers(0, c, size=n)
        y_onehot = np.eye(c)[y]
        for point in range(10):
            w = rng.normal(scale=0.5, size=(c, f))
            b = rng.normal(scale=0.5, size=c)
            _, gw, gb = loss_and_gradients(w, b, x, y_onehot, l2=1e-3)
            fw, fb = finite_difference_grads(w, b, x, y_onehot, l2=1e-3)
            num = np.linalg.norm(gw - fw) + np.linalg.norm(gb - fb)
            den = np.linalg.norm(fw) + np.linalg.norm(fb)
            assert num / den < 1e-5


class TestTraining:
    def gaussian_clusters(self, seed=1, n_per=40, dim=10, n_classes=2, spread=6.0):
        rng = np.random.default_rng(seed)
        centers = rng.normal(scale=spread, size=(n_classes, dim))
        x = np.concatenate(
            [rng.normal(size=(n_per, dim)) + centers[c] for c in range(n_classes)]
        )
        y = np.repeat(np.arange(n_classes), n_per)
        return x, y

    def test_separable_clusters_reach_full_training_accuracy(self):
        x, y = self.gaussian_clusters()
        model = train_readout((x, y), ReadoutConfig(epochs=300))
        metrics = evaluate(model, (x, y))
        assert metrics.accuracy == 1.0

    def test_duplicating_samples_leaves_model_unchanged(self):
        x, y = self.gaussian_clusters(seed=2)
        cfg = ReadoutConfig(epochs=100)
        base = train_readout((x, y), cfg)
        doubled = train_readout(
            (np.concatenate([x, x]), np.concatenate([y, y])), cfg
        )
        assert np.allclose(base.weights, doubled.weights, atol=1e-9)
        assert np.allclose(base.bias, doubled.bias, atol=1e-9)

    def test_training_deterministic(self):
        x, y = self.gaussian_clusters(seed=4, n_classes=3)
        a = train_readout((x, y), ReadoutConfig())
        b = train_readout((x, y), ReadoutConfig())
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.bias, b.bias)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("epochs", -1),
            ("l2", -1.0),
            ("l2", math.inf),
            ("tolerance", -1.0),
            ("tolerance", math.inf),
        ],
    )
    def test_out_of_range_settings_rejected(self, field, value):
        # each would otherwise train without an error: zero weights for
        # epochs < 0, a rewarded weight norm for l2 < 0, a NaN loss for an
        # infinite l2, a fit that can never converge for tolerance < 0 and
        # the zero start returned as converged for an infinite tolerance
        with pytest.raises(ConfigError, match=field):
            ReadoutConfig(**{field: value})

    def test_single_class_rejected(self):
        x = np.random.default_rng(0).normal(size=(10, 4))
        with pytest.raises(DatasetError):
            train_readout((x, np.zeros(10, dtype=int)))

    def test_non_finite_features_rejected(self):
        x = np.full((4, 3), np.nan)
        with pytest.raises(DatasetError):
            train_readout((x, np.array([0, 1, 0, 1])))

    @pytest.mark.parametrize("fit", [True, False], ids=["train", "evaluate"])
    @pytest.mark.parametrize(
        "cut, match",
        [
            (lambda x, y: (x[:1], y), "(1, 3) and (4,)"),
            (lambda x, y: (x, y[:1]), "(4, 3) and (1,)"),
            (lambda x, y: (x[0], y), "(3,) and (4,)"),
            (lambda x, y: (x[None], y), "(1, 4, 3) and (4,)"),
            (lambda x, y: (x, y[:, None]), "(4, 3) and (4, 1)"),
        ],
        ids=["one-row", "one-label", "1-d-features", "3-d-features", "2-d-labels"],
    )
    def test_rows_and_labels_must_match(self, fit, cut, match):
        """Otherwise ``evaluate`` on one row and four labels gives accuracy
        2.0, and on four rows and one label 0.5; ``train_readout`` raises
        NumPy's own errors."""
        x = np.array([[1.0, 0, 0], [0, 1, 0], [1, 0, 0], [0, 1, 0]])
        y = np.array([0, 1, 0, 1])
        model = train_readout((x, y), ReadoutConfig(epochs=20))
        message = "need 2-D features and one label per row, not shapes " + match
        with pytest.raises(DatasetError, match=re.escape(message)):
            train_readout(cut(x, y)) if fit else evaluate(model, cut(x, y))

    def test_feature_scaling_guards_zero_columns(self):
        x = np.zeros((20, 5))
        x[:10, 0] = 100.0
        x[10:, 1] = 50.0
        y = np.array([0] * 10 + [1] * 10)
        model = train_readout((x, y), ReadoutConfig(epochs=200))
        assert np.all(np.isfinite(model.weights))
        assert evaluate(model, (x, y)).accuracy == 1.0


class TestFitTrace:
    @pytest.mark.parametrize(
        "cfg, converged",
        [
            (ReadoutConfig(epochs=40), False),
            (ReadoutConfig(epochs=500, tolerance=0.05), True),
        ],
        ids=["capped", "converged"],
    )
    def test_budget_exhausted_fit_reports_its_final_gradient(self, cfg, converged):
        """A fit that runs out its budget and one that converges both report
        the loss and the gradient norm at the parameters they return."""
        x, y = TestTraining().gaussian_clusters(seed=5, n_classes=3)
        model = train_readout((x, y), cfg)
        assert model.fit.converged is converged
        assert (model.fit.epochs == cfg.epochs) is not converged
        classes = np.unique(y)
        onehot = (y[:, None] == classes[None, :]).astype(float)
        loss, gw, gb = loss_and_gradients(
            model.weights, model.bias, x / model.feature_scale, onehot, cfg.l2
        )
        assert model.fit.final_loss == loss
        assert model.fit.grad_norm == float(np.sqrt(np.sum(gw**2) + np.sum(gb**2)))

    def test_converged_fit_stops_early(self):
        x, y = TestTraining().gaussian_clusters(seed=5, n_classes=3)
        model = train_readout((x, y), ReadoutConfig(epochs=500, tolerance=0.05))
        assert model.fit.converged is True
        assert 0 < model.fit.epochs < 500 and model.fit.grad_norm < 0.05
        # the same parameters as a budget of exactly the iterations it ran
        budget = train_readout((x, y), ReadoutConfig(epochs=model.fit.epochs))
        assert np.array_equal(budget.weights, model.weights)

    def test_zero_tolerance_ends_without_raising(self):
        """No norm falls below 0, so only the cap or a line search stalled
        at machine precision ends the fit, and neither raises."""
        x, y = TestTraining().gaussian_clusters(seed=5, n_classes=3)
        model = train_readout((x, y), ReadoutConfig(epochs=500, tolerance=0.0))
        assert model.fit.converged is False
        assert 0 < model.fit.epochs <= 500
        assert np.isfinite(model.weights).all() and np.isfinite(model.bias).all()

    @pytest.mark.parametrize(
        "cfg, converged",
        [(ReadoutConfig(epochs=0), False), (ReadoutConfig(tolerance=1e3), True)],
        ids=["zero-epochs", "converged-start"],
    )
    def test_zero_start_returned_without_a_step(self, cfg, converged):
        """No iteration budget, or a tolerance the zero start already meets,
        ends the fit before L-BFGS-B, which would take one step, is called."""
        x, y = TestTraining().gaussian_clusters(seed=5, n_classes=3)
        model = train_readout((x, y), cfg)
        assert model.fit.epochs == 0 and model.fit.converged is converged
        assert not model.weights.any() and not model.bias.any()
        assert model.fit.final_loss == pytest.approx(np.log(3))


class TestEvaluate:
    def test_zero_model_predicts_lowest_class(self):
        model = ReadoutModel(
            weights=np.zeros((3, 4)),
            bias=np.zeros(3),
            feature_scale=np.ones(4),
            classes=np.array([0, 1, 2]),
            fit=FitTrace(0, 0.0, True, 0.0),
        )
        x = np.random.default_rng(1).normal(size=(6, 4))
        assert np.all(model.predict(x) == 0)

    def test_score_shift_invariance(self):
        rng = np.random.default_rng(2)
        model = ReadoutModel(
            weights=rng.normal(size=(3, 4)),
            bias=rng.normal(size=3),
            feature_scale=np.ones(4),
            classes=np.array([0, 1, 2]),
            fit=FitTrace(0, 0.0, True, 0.0),
        )
        shifted = ReadoutModel(
            weights=model.weights,
            bias=model.bias + 7.5,
            feature_scale=model.feature_scale,
            classes=model.classes,
            fit=FitTrace(0, 0.0, True, 0.0),
        )
        x = rng.normal(size=(20, 4))
        assert np.array_equal(model.predict(x), shifted.predict(x))

    def test_confusion_row_sums(self):
        x, y = TestTraining().gaussian_clusters(seed=5, n_classes=3, spread=2.0)
        model = train_readout((x, y), ReadoutConfig(epochs=50))
        metrics = evaluate(model, (x, y))
        row_sums = metrics.confusion.sum(axis=1)
        for c, total in zip(model.classes, row_sums):
            assert total == np.sum(y == c)

    def test_empty_test_set_rejected(self):
        x, y = TestTraining().gaussian_clusters(seed=6)
        model = train_readout((x, y), ReadoutConfig(epochs=20))
        with pytest.raises(DatasetError):
            evaluate(model, (np.zeros((0, 10)), np.zeros(0, dtype=int)))

    def test_dimension_mismatch_rejected(self):
        x, y = TestTraining().gaussian_clusters(seed=7)
        model = train_readout((x, y), ReadoutConfig(epochs=20))
        with pytest.raises(ConfigError):
            evaluate(model, (np.zeros((3, 11)), np.zeros(3, dtype=int)))


class TestModelFile:
    def test_format_is_pinned(self, tmp_path):
        # the file is write-only, so its text is the format's only contract
        model = ReadoutModel(
            weights=np.array([[0.5, -1.25], [0.1, 3.0]]),
            bias=np.array([0.0, -0.75]),
            feature_scale=np.array([2.0, 1e-3]),
            classes=np.array([3, 7]),
            fit=FitTrace(1, 0.5, False, 0.7),
        )
        path = tmp_path / "model.txt"
        save_model(model, path)
        assert path.read_text() == (
            "lsm-readout v1\n"
            "classes 2\n"
            "features 2\n"
            "labels 3 7\n"
            "scale 2.0 0.001\n"
            "bias 0.0 -0.75\n"
            "0.5 -1.25\n"
            "0.1 3.0\n"
        )
