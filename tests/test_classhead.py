"""Head/loss/training tests.

Oracles: hand-evaluated weight fractions, a longdouble softmax, central
finite differences for the gradient, and a separable synthetic cluster
problem for the training loop.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mipclass.classhead import (
    ClassWeights,
    HeadParams,
    LossValue,
    TrainConfig,
    HeadSpec,
    class_weights,
    extract_features,
    feature_dim,
    forward,
    grad_weighted_ce,
    lr_schedule,
    train_heads,
    uniform_weights,
    weighted_ce,
)
from mipclass.errors import DimMismatch, Diverged, EmptyClass
from mipclass.mipbuild import MipStack


class TestClassWeights:
    def test_balanced_counts_uniform(self):
        cw = class_weights([10, 10, 10])
        np.testing.assert_allclose(cw.w, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)

    def test_hand_case_100_50_25(self):
        cw = class_weights([100, 50, 25])
        np.testing.assert_allclose(cw.w, [1 / 7, 2 / 7, 4 / 7], atol=1e-12)

    def test_hand_case_1_1_2(self):
        cw = class_weights([1, 1, 2])
        np.testing.assert_allclose(cw.w, [0.4, 0.4, 0.2], atol=1e-12)

    def test_sum_one_and_constant_mass(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            counts = rng.integers(1, 500, 3)
            cw = class_weights(counts)
            assert abs(sum(cw.w) - 1.0) <= 1e-12
            masses = [w * n for w, n in zip(cw.w, counts)]
            np.testing.assert_allclose(masses, masses[0], rtol=1e-9)

    def test_permutation_equivariance(self):
        counts = [7, 19, 3]
        base = class_weights(counts)
        for perm in ([1, 2, 0], [2, 0, 1], [0, 2, 1]):
            permuted = class_weights([counts[i] for i in perm])
            np.testing.assert_allclose(permuted.w, [base.w[i] for i in perm], atol=1e-15)

    def test_empty_class_rejected(self):
        with pytest.raises(EmptyClass):
            class_weights([5, 0, 3])

    def test_uniform_weights(self):
        cw = uniform_weights()
        np.testing.assert_allclose(cw.w, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)

    def test_invariants_enforced_on_construction(self):
        with pytest.raises(ValueError):
            ClassWeights(w=(0.5, 0.3, 0.3), counts=(1, 1, 1))
        with pytest.raises(ValueError):
            ClassWeights(w=(0.5, 0.25, 0.25), counts=(1, 1, 3))


class TestExtractFeatures:
    def _stack(self, channels):
        return MipStack(channels, side="left", patient_id="p", normalized=True)

    def test_constant_stack(self):
        stack = self._stack(np.full((4, 8, 8), 1.5, np.float32))
        feats = extract_features(stack, grid=4)
        assert feats.shape == (68,)
        np.testing.assert_allclose(feats, 1.5, rtol=1e-6)

    def test_grid_1_equals_global_means(self):
        rng = np.random.default_rng(1)
        channels = rng.normal(size=(4, 6, 6)).astype(np.float32)
        feats = extract_features(self._stack(channels), grid=1)
        assert feats.shape == (8,)
        for c in range(4):
            np.testing.assert_allclose(feats[2 * c], channels[c].mean(), rtol=1e-5)
            np.testing.assert_allclose(feats[2 * c + 1], channels[c].mean(), rtol=1e-5)

    def test_matches_double_loop_oracle(self):
        """g=2 on a 4x8x8 stack against scalar cell means."""
        rng = np.random.default_rng(2)
        channels = rng.normal(size=(4, 8, 8)).astype(np.float32)
        feats = extract_features(self._stack(channels), grid=2)
        expected = []
        for c in range(4):
            expected.append(channels[c].astype(np.float64).mean())
            for xi in range(2):
                for yi in range(2):
                    cell = channels[c, xi * 4 : (xi + 1) * 4, yi * 4 : (yi + 1) * 4]
                    expected.append(cell.astype(np.float64).mean())
        np.testing.assert_allclose(feats, np.asarray(expected, np.float32), rtol=1e-6)

    def test_remainder_goes_to_last_cell(self):
        """7 pixels on a g=2 axis -> cells of 3 and 4."""
        channels = np.zeros((4, 7, 4), np.float32)
        channels[:, 3:7, :] = 1.0  # exactly the last x-cell
        feats = extract_features(self._stack(channels), grid=2)
        per = 1 + 4
        for c in range(4):
            block = feats[c * per : (c + 1) * per]
            # cells: (x0,y0), (x0,y1), (x1,y0), (x1,y1)
            np.testing.assert_allclose(block[1:3], 0.0, atol=1e-7)
            np.testing.assert_allclose(block[3:5], 1.0, atol=1e-7)

    def test_unnormalized_rejected(self):
        stack = MipStack(np.zeros((4, 4, 4), np.float32), side="left", patient_id="p")
        with pytest.raises(ValueError):
            extract_features(stack)

    def test_feature_dim_formula(self):
        assert feature_dim(4) == 68
        assert feature_dim(1) == 8
        assert feature_dim(3) == 40


class TestForward:
    def test_zero_params_uniform(self):
        params = HeadParams(np.zeros((5, 3)), np.zeros(3))
        probs = forward(np.ones(5), params)
        np.testing.assert_allclose(probs, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)

    def test_saturated_bias(self):
        params = HeadParams(np.zeros((4, 3)), np.array([100.0, 0.0, 0.0]))
        probs = forward(np.zeros(4), params)
        np.testing.assert_allclose(probs, [1.0, 0.0, 0.0], atol=1e-12)

    def test_matches_longdouble_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            dim = int(rng.integers(2, 10))
            params = HeadParams(rng.normal(0, 2, (dim, 3)), rng.normal(0, 2, 3))
            f = rng.normal(0, 2, dim)
            probs = forward(f, params)
            z = (f.astype(np.longdouble) @ params.W.astype(np.longdouble)
                 + params.b.astype(np.longdouble))
            e = np.exp(z)
            np.testing.assert_allclose(probs, (e / e.sum()).astype(np.float64), atol=1e-12)
            assert abs(probs.sum() - 1.0) <= 1e-12

    def test_shift_invariance(self):
        rng = np.random.default_rng(4)
        params = HeadParams(rng.normal(size=(6, 3)), rng.normal(size=3))
        shifted = HeadParams(params.W, params.b + 500.0)
        f = rng.normal(size=6)
        np.testing.assert_allclose(forward(f, params), forward(f, shifted), atol=1e-12)

    def test_batch_shape(self):
        params = HeadParams(np.zeros((4, 3)), np.zeros(3))
        probs = forward(np.ones((7, 4)), params)
        assert probs.shape == (7, 3)

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            forward(np.ones(5), HeadParams(np.zeros((4, 3)), np.zeros(3)))


class TestWeightedCE:
    def test_perfect_predictions_zero_loss(self):
        probs = np.eye(3)
        labels = np.array([0, 1, 2])
        loss = weighted_ce(probs, labels, uniform_weights())
        assert loss.value == 0.0

    def test_uniform_hand_value(self):
        """One sample, uniform probs and weights: (1/3)·ln 3."""
        loss = weighted_ce(np.full((1, 3), 1 / 3), np.array([1]), uniform_weights())
        np.testing.assert_allclose(loss.value, np.log(3) / 3, atol=1e-12)
        np.testing.assert_allclose(loss.value, 0.3662, atol=5e-5)

    def test_linear_in_weights(self):
        rng = np.random.default_rng(5)
        probs = rng.dirichlet(np.ones(3), size=6)
        labels = rng.integers(0, 3, 6)
        w1 = uniform_weights()
        base = weighted_ce(probs, labels, w1).value
        # doubling every weight (bypassing the sum-to-1 type) doubles the sum
        manual = 0.0
        for i in range(6):
            manual -= 2 * w1.w[labels[i]] * np.log(max(probs[i, labels[i]], 1e-12))
        np.testing.assert_allclose(manual / 6, 2 * base, rtol=1e-12)

    def test_sample_permutation_invariant(self):
        rng = np.random.default_rng(6)
        probs = rng.dirichlet(np.ones(3), size=10)
        labels = rng.integers(0, 3, 10)
        cw = class_weights([3, 4, 3])
        base = weighted_ce(probs, labels, cw).value
        perm = rng.permutation(10)
        assert weighted_ce(probs[perm], labels[perm], cw).value == pytest.approx(base, abs=1e-15)

    def test_log_floor_keeps_loss_finite(self):
        probs = np.array([[1.0, 0.0, 0.0]])
        loss = weighted_ce(probs, np.array([2]), uniform_weights())
        assert np.isfinite(loss.value)
        np.testing.assert_allclose(loss.value, -np.log(1e-12) / 3, rtol=1e-12)

    def test_improving_true_prob_decreases_loss(self):
        cw = class_weights([2, 3, 5])
        worse = weighted_ce(np.array([[0.5, 0.3, 0.2]]), np.array([0]), cw).value
        better = weighted_ce(np.array([[0.6, 0.25, 0.15]]), np.array([0]), cw).value
        assert better < worse

    def test_label_and_shape_validation(self):
        with pytest.raises(DimMismatch):
            weighted_ce(np.ones((2, 4)) / 4, np.array([0, 1]), uniform_weights())
        with pytest.raises(ValueError):
            weighted_ce(np.ones((1, 3)) / 3, np.array([5]), uniform_weights())


class TestGradient:
    @staticmethod
    def _fd_grad(features, labels, params, cw, h=1e-4):
        """Central finite differences on the f64 loss."""
        def loss_at(W, b):
            return weighted_ce(forward(features, HeadParams(W, b)), labels, cw).value

        dW = np.zeros_like(params.W)
        for i in range(params.W.shape[0]):
            for j in range(3):
                up = params.W.copy(); up[i, j] += h
                dn = params.W.copy(); dn[i, j] -= h
                dW[i, j] = (loss_at(up, params.b) - loss_at(dn, params.b)) / (2 * h)
        db = np.zeros(3)
        for j in range(3):
            up = params.b.copy(); up[j] += h
            dn = params.b.copy(); dn[j] -= h
            db[j] = (loss_at(params.W, up) - loss_at(params.W, dn)) / (2 * h)
        return dW, db

    def test_saturated_gradient_near_zero(self):
        params = HeadParams(np.zeros((2, 3)), np.array([200.0, 0.0, 0.0]))
        dW, db = grad_weighted_ce(np.ones((4, 2)), np.zeros(4, dtype=int), params, uniform_weights())
        assert np.abs(dW).max() <= 1e-9
        assert np.abs(db).max() <= 1e-9

    def test_matches_finite_differences(self):
        """50 random instances, every entry within 1e-5 relative."""
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(1, 8))
            dim = int(rng.integers(2, 6))
            features = rng.normal(0, 1, (n, dim))
            labels = rng.integers(0, 3, n)
            params = HeadParams(rng.normal(0, 1, (dim, 3)), rng.normal(0, 1, 3))
            cw = class_weights(rng.integers(1, 40, 3))
            dW, db = grad_weighted_ce(features, labels, params, cw)
            fW, fb = self._fd_grad(features, labels, params, cw)
            scale = max(np.abs(fW).max(), np.abs(fb).max(), 1e-8)
            assert np.abs(dW - fW).max() / scale < 1e-5
            assert np.abs(db - fb).max() / scale < 1e-5

    def test_uniform_weights_reduce_to_scaled_ce(self):
        """With w = 1/3 the gradient is the plain softmax-CE gradient / 3."""
        rng = np.random.default_rng(8)
        features = rng.normal(size=(5, 4))
        labels = rng.integers(0, 3, 5)
        params = HeadParams(rng.normal(size=(4, 3)), rng.normal(size=3))
        dW, db = grad_weighted_ce(features, labels, params, uniform_weights())
        probs = forward(features, params)
        dz = probs.copy()
        dz[np.arange(5), labels] -= 1.0
        dz /= 5
        np.testing.assert_allclose(dW, features.T @ dz / 3, rtol=1e-12)
        np.testing.assert_allclose(db, dz.sum(axis=0) / 3, rtol=1e-12)


class TestSchedule:
    CFG = TrainConfig(epochs=300, batch=10, lr_max=1e-4, warmup_epochs=5)

    def test_first_epoch_fifth_of_max(self):
        np.testing.assert_allclose(lr_schedule(0, self.CFG), 1e-4 / 5, rtol=1e-15)

    def test_warmup_is_linear(self):
        for t in range(5):
            np.testing.assert_allclose(lr_schedule(t, self.CFG), 1e-4 * (t + 1) / 5, rtol=1e-15)

    def test_peak_at_warmup_end(self):
        np.testing.assert_allclose(lr_schedule(5, self.CFG), 1e-4, rtol=1e-15)

    def test_floor_at_last_epoch(self):
        np.testing.assert_allclose(lr_schedule(299, self.CFG), 0.0, atol=1e-20)

    def test_monotone_decay_after_warmup(self):
        lrs = [lr_schedule(t, self.CFG) for t in range(5, 300)]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))

    def test_midpoint_half_amplitude(self):
        cfg = TrainConfig(epochs=15, batch=4, lr_max=2.0, lr_min=1.0, warmup_epochs=4)
        # midpoint of the cosine span: t - w = (epochs - w - 1)/2 = 5
        np.testing.assert_allclose(lr_schedule(9, cfg), 1.5, rtol=1e-12)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=5, warmup_epochs=5)
        with pytest.raises(ValueError):
            TrainConfig(batch=0)
        with pytest.raises(ValueError):
            TrainConfig(lr_max=0.0)

    @pytest.mark.parametrize(
        "field, value",
        [("epochs", 8.5), ("batch", 2.5), ("batch", True), ("warmup_epochs", "5")],
    )
    def test_integer_fields_refuse_floats_strings_and_bools(self, field, value):
        with pytest.raises(TypeError, match=f"{field} must be an integer"):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    @pytest.mark.parametrize("field", ["lr_max", "lr_min", "momentum"])
    def test_non_finite_rates_refused(self, field, value):
        with pytest.raises(ValueError):
            TrainConfig(**{field: value})

    def test_out_of_range_epoch(self):
        with pytest.raises(ValueError):
            lr_schedule(300, self.CFG)


def _cluster_problem(n_per=20, dim=6, margin=10.0, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.normal(0, 1, (3, dim)) * margin
    feats, labels = [], []
    for c in range(3):
        feats.append(centers[c] + rng.normal(0, 0.5, (n_per, dim)))
        labels.extend([c] * n_per)
    return np.concatenate(feats), np.asarray(labels)


def _train_alone(feats, labels, cfg, weights, seed=0):
    """One head on every row of one fixed matrix."""
    head = HeadSpec(np.arange(len(feats)), labels, weights, seed)
    return train_heads(feats[None], [head], cfg)[0]


class TestTrainHead:
    def test_separable_clusters_reach_full_accuracy(self):
        feats, labels = _cluster_problem()
        cfg = TrainConfig(epochs=400, batch=10, lr_max=0.05, warmup_epochs=5)
        result = _train_alone(feats, labels, cfg, uniform_weights(), seed=1)
        preds = forward(feats, result.params).argmax(axis=1)
        assert (preds == labels).mean() == 1.0
        assert result.loss_trace.shape == (400,)
        assert result.loss_trace[-1] < result.loss_trace[0]

    def test_zero_lr_keeps_params_at_init(self):
        feats, labels = _cluster_problem(n_per=5)
        cfg = TrainConfig(epochs=10, batch=5, lr_max=1e-30, warmup_epochs=2)
        result = _train_alone(feats, labels, cfg, uniform_weights())
        # an lr this small cannot move f64 params off zero by any visible amount
        assert np.abs(result.params.W).max() < 1e-20
        assert np.abs(result.params.b).max() < 1e-20

    @pytest.mark.parametrize("per_epoch", [False, True], ids=["matrix", "per_epoch"])
    def test_same_seed_bit_identical(self, per_epoch):
        """A rerun, or the same matrix repeated once per epoch, gives the same bytes."""
        feats, labels = _cluster_problem(n_per=8, seed=3)
        cfg = TrainConfig(epochs=50, batch=7, lr_max=0.01, warmup_epochs=3)
        cw = class_weights([8, 8, 8])
        a = _train_alone(feats, labels, cfg, cw, seed=9)
        if per_epoch:
            # one copy per epoch, so no step can lean on seeing one array twice
            head = HeadSpec(rows=np.arange(labels.size), labels=labels, weights=cw, seed=9)
            (b,) = train_heads(np.stack([feats] * cfg.epochs), [head], cfg)
        else:
            b = _train_alone(feats, labels, cfg, cw, seed=9)
        assert a.params.W.tobytes() == b.params.W.tobytes()
        assert a.params.b.tobytes() == b.params.b.tobytes()
        assert a.loss_trace.tobytes() == b.loss_trace.tobytes()

    def test_different_seed_changes_shuffles(self):
        feats, labels = _cluster_problem(n_per=8, seed=3)
        cw = uniform_weights()
        cfg = TrainConfig(epochs=30, batch=3, lr_max=0.01, warmup_epochs=2)
        a = _train_alone(feats, labels, cfg, cw, seed=1)
        b = _train_alone(feats, labels, cfg, cw, seed=2)
        assert a.params.W.tobytes() != b.params.W.tobytes()

    def test_weight_scale_equals_lr_scale(self):
        """Scaling all w by k matches dividing lr by k (identical trajectories)."""
        feats, labels = _cluster_problem(n_per=6, seed=5)
        cfg_a = TrainConfig(epochs=40, batch=6, lr_max=0.03, warmup_epochs=2)
        cfg_b = TrainConfig(epochs=40, batch=6, lr_max=0.01, warmup_epochs=2)
        counts = (6, 6, 6)
        uniform_third = ClassWeights(w=(1 / 3, 1 / 3, 1 / 3), counts=counts)
        a = _train_alone(feats, labels, cfg_a, uniform_third, seed=4)

        # weights 3x larger are outside the sum-to-1 type; emulate with the
        # identity w·lr = const by comparing uniform (1/3) at lr to a run at lr/3
        # against hand-stepped SGD using w = 1 exactly.
        W = np.zeros((feats.shape[1], 3)); b = np.zeros(3)
        vW = np.zeros_like(W); vb = np.zeros_like(b)
        rng = np.random.Generator(np.random.Philox(key=4))
        for epoch in range(40):
            lr = lr_schedule(epoch, cfg_b)
            perm = rng.permutation(feats.shape[0])
            for start in range(0, feats.shape[0], 6):
                idx = perm[start : start + 6]
                probs = forward(feats[idx], HeadParams(W, b))
                dz = probs.copy()
                dz[np.arange(idx.size), labels[idx]] -= 1.0
                dz /= idx.size  # w = 1 (3x the uniform 1/3)
                dW, db = feats[idx].T @ dz, dz.sum(axis=0)
                vW = cfg_b.momentum * vW - lr * dW
                vb = cfg_b.momentum * vb - lr * db
                W = W + vW
                b = b + vb
        np.testing.assert_allclose(a.params.W, W, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(a.params.b, b, rtol=1e-10, atol=1e-12)


def _reference_train(features, rows, labels, cfg, weights, seed):
    """One head trained alone, written out batch by batch on the public
    forward, grad_weighted_ce and weighted_ce: zero init, one Philox
    permutation stream, momentum SGD, full-data loss per epoch."""
    labels = np.asarray(labels, dtype=np.int64)
    W, b = np.zeros((features.shape[2], 3)), np.zeros(3)
    vW, vb = np.zeros_like(W), np.zeros_like(b)
    rng = np.random.Generator(np.random.Philox(key=seed))
    trace = np.empty(cfg.epochs)
    for epoch in range(cfg.epochs):
        feats = np.asarray(features[epoch % len(features)], dtype=np.float64)[rows]
        perm = rng.permutation(labels.shape[0])
        lr = lr_schedule(epoch, cfg)
        for start in range(0, perm.shape[0], cfg.batch):
            idx = perm[start : start + cfg.batch]
            dW, db = grad_weighted_ce(feats[idx], labels[idx], HeadParams(W, b), weights)
            vW = cfg.momentum * vW - lr * dW
            vb = cfg.momentum * vb - lr * db
            W = W + vW
            b = b + vb
        trace[epoch] = weighted_ce(forward(feats, HeadParams(W, b)), labels, weights).value
    return W, b, trace


@st.composite
def _head_sets(draw):
    """An (E, N, D) feature array and 1-5 heads over it: overlapping rows, two
    row counts (one leaves a remainder batch of 1), both weightings; E is 1,
    or 1-3 matrices that the epochs cycle through."""
    n_feats = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = rng.normal(0, 2, (n_feats, draw(st.integers(1, 6)))).astype(np.float32)
    all_labels = rng.integers(0, 3, n_feats)
    batch = draw(st.integers(1, 5))
    sizes = [batch * draw(st.integers(1, 3)) + 1, draw(st.integers(1, 14))]
    heads = []
    for _ in range(draw(st.integers(1, 5))):
        n = draw(st.sampled_from(sizes))
        rows = np.asarray(draw(st.lists(st.integers(0, n_feats - 1), min_size=n, max_size=n)))
        labels = all_labels[rows]
        counts = np.maximum(np.bincount(labels, minlength=3), 1)
        weights = draw(st.sampled_from([uniform_weights(), class_weights(counts)]))
        heads.append(HeadSpec(rows, labels, weights, draw(st.integers(0, 2**64 - 1))))
    epochs = draw(st.integers(2, 5))
    n_matrices = draw(st.sampled_from([1, epochs, draw(st.integers(1, 3))]))
    source = np.stack(
        [(base * np.float32(1.0 + 0.05 * e)).astype(np.float32) for e in range(n_matrices)]
    )
    cfg = TrainConfig(
        epochs=epochs, batch=batch, lr_max=draw(st.sampled_from([0.01, 0.5])), warmup_epochs=1
    )
    return source, heads, cfg


class TestHeadSpec:
    @pytest.mark.parametrize(
        "seed", [-1, 2**128, True, 1.0], ids=["negative", "2**128", "bool", "float"]
    )
    def test_seed_outside_philox_keys_refused(self, seed):
        labels = np.array([0, 1, 2])
        with pytest.raises(ValueError, match="seed must be"):
            HeadSpec(rows=np.arange(3), labels=labels, weights=uniform_weights(), seed=seed)

    def test_largest_philox_key_accepted(self):
        head = HeadSpec(rows=[0], labels=[1], weights=uniform_weights(), seed=2**128 - 1)
        cfg = TrainConfig(epochs=2, warmup_epochs=1)
        (result,) = train_heads(np.ones((1, 1, 2)), [head], cfg)
        assert result.loss_trace.shape == (2,)

    @pytest.mark.parametrize("labels", [[0, 1, 2, -1], [0, 3, 1, 1]], ids=["negative", "three"])
    def test_labels_outside_the_classes_refused(self, labels):
        with pytest.raises(ValueError, match="labels must be in 0..2"):
            HeadSpec(rows=np.arange(4), labels=labels, weights=uniform_weights(), seed=0)

    @pytest.mark.parametrize("labels", [[1.7, 2.9], [0.5, 1.0], [1.0, np.nan]],
                             ids=["fractions", "one_fraction", "nan"])
    def test_fractional_labels_refused(self, labels):
        """They used to be truncated: [1.7, 2.9] trained as classes [1, 2]."""
        with pytest.raises(ValueError, match="labels must be"):
            HeadSpec(rows=[0, 1], labels=labels, weights=uniform_weights(), seed=0)

    def test_fractional_labels_refused_by_the_loss(self):
        """weighted_ce used to score labels [0.5, 1.2] as classes [0, 1]."""
        with pytest.raises(ValueError, match="labels must be whole numbers, got 0.5"):
            weighted_ce(np.full((2, 3), 1 / 3), np.array([0.5, 1.2]), uniform_weights())

    def test_whole_labels_keep_their_bytes(self):
        """Integer and whole-float labels both become the same int64 array."""
        for labels in ([0, 2, 1], [0.0, 2.0, 1.0], np.array([0, 2, 1], np.uint8)):
            head = HeadSpec(rows=[0, 1, 2], labels=labels, weights=uniform_weights(), seed=0)
            assert head.labels.dtype == np.int64
            assert head.labels.tobytes() == np.array([0, 2, 1], np.int64).tobytes()

    def test_empty_rows_refused(self):
        with pytest.raises(DimMismatch, match="non-empty"):
            HeadSpec(rows=[], labels=[], weights=uniform_weights(), seed=0)
        with pytest.raises(DimMismatch, match="empty batch"):
            weighted_ce(np.zeros((0, 3)), np.zeros(0), uniform_weights())

    def test_rows_and_labels_must_pair(self):
        with pytest.raises(DimMismatch):
            HeadSpec(rows=np.arange(3), labels=np.zeros(2), weights=uniform_weights(), seed=0)


class TestTrainHeads:
    CFG = TrainConfig(epochs=25, batch=4, lr_max=0.02, warmup_epochs=2)

    @staticmethod
    def _problem():
        feats, labels = _cluster_problem(n_per=8, seed=3)
        # overlapping row sets in different orders, as CV folds share patients
        row_sets = [np.arange(0, 18), np.arange(23, 5, -1), np.array([2, 20, 9, 14, 0, 17, 11, 5])]
        heads = []
        for i, rows in enumerate(row_sets):
            counts = np.bincount(labels[rows], minlength=3)
            weights = uniform_weights() if i == 1 else class_weights(counts)
            heads.append(HeadSpec(rows=rows, labels=labels[rows], weights=weights, seed=11 + i))
        return feats, heads

    @pytest.mark.parametrize("per_epoch", [False, True], ids=["matrix", "per_epoch"])
    def test_each_head_matches_training_it_alone(self, per_epoch):
        """Redrawn per epoch, or one fixed matrix, every head gets the bytes of
        training it alone; a fixed matrix also matches training a head on just its rows."""
        feats, heads = self._problem()
        if per_epoch:
            # a float32 matrix that changes every epoch, like augmented features
            epochs = range(self.CFG.epochs)
            source = np.stack([(feats * (1.0 + 0.01 * e)).astype(np.float32) for e in epochs])
        else:
            source = feats[None]
        results = train_heads(source, heads, self.CFG)
        for head, result in zip(heads, results):
            W, b, trace = _reference_train(
                source, head.rows, head.labels, self.CFG, head.weights, head.seed
            )
            got = [result]
            if not per_epoch:
                alone = _train_alone(
                    feats[head.rows], head.labels, self.CFG, head.weights, head.seed
                )
                got.append(alone)
            for one in got:
                assert one.params.W.tobytes() == W.tobytes()
                assert one.params.b.tobytes() == b.tobytes()
                assert one.loss_trace.tobytes() == trace.tobytes()

    def test_rows_outside_features_rejected(self):
        feats, heads = self._problem()
        with pytest.raises(DimMismatch):
            train_heads(feats[None, :10], heads, self.CFG)

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(_head_sets())
    def test_stacked_heads_match_reference(self, case):
        """Heads with equal and unequal row counts, stepped as stacks, each
        have the reference's bytes for training them alone."""
        source, heads, cfg = case
        results = train_heads(source, heads, cfg)
        for head, result in zip(heads, results, strict=True):
            W, b, trace = _reference_train(
                source, head.rows, head.labels, cfg, head.weights, head.seed
            )
            assert result.params.W.tobytes() == W.tobytes()
            assert result.params.b.tobytes() == b.tobytes()
            assert result.loss_trace.tobytes() == trace.tobytes()

    def test_divergence_is_a_typed_error(self):
        feats, heads = self._problem()
        cfg = TrainConfig(epochs=25, batch=4, lr_max=1.7e308, warmup_epochs=2)
        with pytest.raises(Diverged, match=r"at epoch \d+: .*train\.lr_max"):
            train_heads(feats[None], heads, cfg)


_W = np.zeros((feature_dim(), 3))
_NAN_W = np.full((2, 3), np.nan)
_ONE_HEAD = [HeadSpec(rows=[0], labels=[0], weights=uniform_weights(), seed=0)]


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: ClassWeights((0.5, 0.5), (1, 1)), ValueError,
         "weights and counts must have 3 classes"),
        (lambda: ClassWeights((0.5, 0.75, -0.25), (1, 1, 1)), ValueError,
         "weights must be positive, got (0.5, 0.75, -0.25)"),
        (lambda: class_weights([1, 2]), DimMismatch, "need 3 class counts, got 2"),
        (lambda: HeadParams(_W, np.zeros(2)), DimMismatch, "b must be (3,), got (2,)"),
        (lambda: HeadParams(_NAN_W, np.zeros(3)), ValueError, "head parameters must be finite"),
        (lambda: LossValue(-1.0), ValueError, "loss must be finite and >= 0, got -1.0"),
        (lambda: extract_features(MipStack(np.ones((4, 2, 2)), "left", "p0", True), grid=0),
         ValueError, "grid must be >= 1, got 0"),
        (lambda: forward(np.zeros((1, 1, feature_dim())), HeadParams(_W, np.zeros(3))), DimMismatch,
         f"features must be (D,) or (N, D), got shape (1, 1, {feature_dim()})"),
        (lambda: train_heads(np.zeros(3), _ONE_HEAD, TrainConfig()), DimMismatch,
         "features must be (E, N, D) with E >= 1, got shape (3,)"),
        (lambda: train_heads(np.zeros((0, 1, 3)), _ONE_HEAD, TrainConfig()), DimMismatch,
         "features must be (E, N, D) with E >= 1, got shape (0, 1, 3)"),
    ],
    ids=[
        "weights_two_classes", "weights_negative", "counts_two_classes", "bias_shape",
        "params_nan", "loss_negative", "features_grid_0", "forward_3d", "train_1d",
        "train_no_epochs",
    ],
)
def test_input_refusals(call, error, message):
    """Each input refusal's exact type and message."""
    with pytest.raises(error) as refused:
        call()
    assert type(refused.value) is error
    assert str(refused.value) == message
