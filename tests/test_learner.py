import numpy as np
import pytest

from airsgd.data import DataError, LocalDataset, SyntheticSpec, make_synthetic
from airsgd.learner import (
    OptimizerSpec,
    apply_update,
    evaluate_accuracy,
    gradients,
    init_optimizer_state,
    check_labels,
    init_params,
    log_probabilities,
    losses,
    param_count,
)


def test_param_count_matches_flat_layout():
    assert param_count(784, 10) == 7850
    assert param_count(32, 10) == 330
    assert init_params(32, 10).shape == (330,)
    assert np.all(init_params(4, 3) == 0)


def test_gradient_at_zero_closed_form():
    # At theta = 0 all classes get probability 1/2; the gradient is the
    # residual (p - onehot) outer features, bias last per class.
    X, y = np.array([[[1.0, 2.0]]]), np.array([[0]])
    grad = gradients(X, y, log_probabilities(np.zeros(6), X))[0]
    expected = np.array([-0.5, -1.0, -0.5, 0.5, 1.0, 0.5])
    assert np.allclose(grad, expected, rtol=1e-15)


def test_gradient_duplicate_batch_invariance():
    gen = np.random.default_rng(0)
    X, y = gen.normal(size=(6, 4)), gen.integers(0, 3, size=6)
    theta = gen.normal(size=param_count(4, 3))
    once = np.array([[0, 1, 2]])
    # two devices, each holding rows 0-2 twice, in different orders
    doubled = np.array([[0, 1, 2, 0, 1, 2], [0, 0, 1, 1, 2, 2]])
    once_grad = gradients(X[once], y[once], log_probabilities(theta, X[once]))
    doubled_grads = gradients(X[doubled], y[doubled], log_probabilities(theta, X[doubled]))
    assert np.allclose(once_grad, doubled_grads, rtol=1e-13)


def test_gradient_matches_finite_differences():
    gen = np.random.default_rng(1)
    X, y = gen.normal(size=(1, 12, 5)), gen.integers(0, 4, size=(1, 12))
    theta = gen.normal(size=param_count(5, 4)) * 0.5
    grad = gradients(X, y, log_probabilities(theta, X))[0]
    step = 1e-6
    for _ in range(20):
        direction = gen.normal(size=theta.size)
        direction /= np.linalg.norm(direction)
        plus = losses(y, log_probabilities(theta + step * direction, X))[0]
        minus = losses(y, log_probabilities(theta - step * direction, X))[0]
        numeric = (plus - minus) / (2 * step)
        analytic = float(grad @ direction)
        assert abs(numeric - analytic) <= 1e-5 * max(abs(analytic), 1e-8)


def test_gradient_rejects_empty_batch_and_bad_labels():
    data = LocalDataset(np.ones((2, 3)), np.array([0, 1]))
    theta = np.zeros(param_count(3, 2))
    with pytest.raises(DataError, match="nonempty"):
        LocalDataset(data.features[[]], data.labels[[]])
    # the labels are checked against the class count before any gradient
    X, y = np.ones((2, 1, 3)), np.array([[1], [5]])
    with pytest.raises(ValueError):
        check_labels(y, log_probabilities(theta, X).shape[-1])


def test_sgd_one_step_arithmetic():
    spec = OptimizerSpec(kind="sgd", learning_rate=0.1)
    state = init_optimizer_state(1)
    theta, state = apply_update(np.array([1.0]), np.array([10.0]), spec, state)
    assert np.array_equal(theta, [0.0])
    assert state.step == 1


def test_zero_gradient_leaves_theta_fixed():
    theta0 = np.array([0.3, -0.7])
    for kind in ("sgd", "adam"):
        spec = OptimizerSpec(kind=kind, learning_rate=0.05)
        state = init_optimizer_state(2)
        theta, state = apply_update(theta0, np.zeros(2), spec, state)
        assert np.array_equal(theta, theta0)


def test_adam_first_step_is_learning_rate_sized():
    # bias correction makes the first step ~ lr * sign(g) regardless of scale
    spec = OptimizerSpec(kind="adam", learning_rate=0.001)
    state = init_optimizer_state(3)
    for scale in (1e-3, 1.0, 1e3):
        g = scale * np.array([1.0, -2.0, 0.5])
        theta, _ = apply_update(np.zeros(3), g, spec, state)
        assert np.allclose(np.abs(theta), 0.001, rtol=1e-4)
        assert np.array_equal(np.sign(theta), -np.sign(g))


def test_adam_moments_accumulate():
    spec = OptimizerSpec(kind="adam", learning_rate=0.01)
    state = init_optimizer_state(1)
    g = np.array([2.0])
    _, state = apply_update(np.zeros(1), g, spec, state)
    assert state.step == 1
    assert np.allclose(state.m, 0.1 * 2.0)
    assert np.allclose(state.v, 0.001 * 4.0)


def test_optimizer_spec_validation():
    with pytest.raises(ValueError):
        OptimizerSpec(kind="momentum", learning_rate=0.1)
    with pytest.raises(ValueError):
        OptimizerSpec(kind="sgd", learning_rate=0.0)
    with pytest.raises(ValueError):
        OptimizerSpec(kind="adam", learning_rate=0.1, beta1=1.0)


def test_accuracy_tie_breaks_to_lowest_class():
    # theta = 0 makes every logit equal; argmax picks class 0
    data = LocalDataset(np.ones((4, 2)), np.array([0, 0, 1, 1]))
    assert evaluate_accuracy(np.zeros(6), data) == 0.5


def test_accuracy_perfect_with_oracle_weights():
    train, test = make_synthetic(
        SyntheticSpec(classes=3, features=6, train_per_class=30,
                      test_per_class=20, margin=12.0, seed=5)
    )
    # three equal device shards; their mean gradient is the whole set's
    X, y = train.features.reshape(3, -1, 6), train.labels.reshape(3, -1)
    theta = np.zeros(param_count(6, 3))
    state = init_optimizer_state(theta.size)
    spec = OptimizerSpec(kind="sgd", learning_rate=0.5)
    for _ in range(100):
        grad = gradients(X, y, log_probabilities(theta, X)).mean(axis=0)
        theta, state = apply_update(theta, grad, spec, state)
    assert evaluate_accuracy(theta, test) == 1.0


def test_accuracy_rejects_out_of_range_labels():
    data = LocalDataset(np.ones((2, 2)), np.array([7, 8]))
    with pytest.raises(ValueError):
        evaluate_accuracy(np.zeros(6), data)


def test_loss_monotone_under_small_step_sgd():
    train, _ = make_synthetic(
        SyntheticSpec(classes=4, features=8, train_per_class=40,
                      test_per_class=10, margin=4.0, seed=2)
    )
    # four equal device shards; their mean loss and gradient are the whole set's
    X, y = train.features.reshape(4, -1, 8), train.labels.reshape(4, -1)
    theta = np.zeros(param_count(8, 4))
    spec = OptimizerSpec(kind="sgd", learning_rate=0.01)
    state = init_optimizer_state(theta.size)
    log_probs = log_probabilities(theta, X)
    history = [losses(y, log_probs).mean()]
    for _ in range(200):
        grad = gradients(X, y, log_probs).mean(axis=0)
        theta, state = apply_update(theta, grad, spec, state)
        log_probs = log_probabilities(theta, X)
        history.append(losses(y, log_probs).mean())
    diffs = np.diff(history)
    assert np.all(diffs <= 1e-12)
    assert history[-1] < history[0]


def _shared_pool_devices(M, n, pool, F, C, seed):
    # M devices drawing n rows each from a pool of `pool` rows, so they share rows
    gen = np.random.default_rng(seed)
    X, y = gen.normal(size=(pool, F)), gen.integers(0, C, size=pool)
    index = np.stack([gen.choice(pool, size=n, replace=False) for _ in range(M)])
    theta = gen.normal(size=param_count(F, C)) * 0.3
    return theta, [LocalDataset(X[i], y[i]) for i in index]


@pytest.mark.parametrize("M, n, pool, F, C, batch", [
    (1, 40, 60, 5, 3, None),
    (1, 40, 60, 5, 3, 8),
    (6, 40, 60, 5, 3, None),
    (6, 40, 60, 5, 3, 8),
    (4, 150, 200, 32, 10, None),
    (4, 150, 200, 32, 10, 32),
])
def test_batched_gradient_and_loss_equal_per_device_bit_for_bit(M, n, pool, F, C, batch):
    theta, devices = _shared_pool_devices(M, n, pool, F, C, seed=M * n + F)
    positions = [None] * M
    if batch is not None:
        gen = np.random.default_rng(1)
        positions = [gen.choice(n, size=batch, replace=False) for _ in range(M)]
    sets = [dev if p is None else LocalDataset(dev.features[p], dev.labels[p])
            for dev, p in zip(devices, positions)]
    X = np.stack([s.features for s in sets])
    y = np.stack([s.labels for s in sets])
    log_probs = log_probabilities(theta, X)
    grads, loss = gradients(X, y, log_probs), losses(y, log_probs)
    for m, s in enumerate(sets):
        # the set alone: a 2-d forward pass and a stack of one
        alone = log_probabilities(theta, s.features)[None]
        assert np.array_equal(grads[m], gradients(s.features[None], s.labels[None], alone)[0])
        assert loss[m] == losses(s.labels[None], alone)[0]


def test_log_probabilities_of_a_stack_equal_each_set_alone():
    theta, devices = _shared_pool_devices(5, 30, 50, 32, 10, seed=3)
    X = np.stack([dev.features for dev in devices])
    stacked = log_probabilities(theta, X)
    for m, dev in enumerate(devices):
        assert np.array_equal(stacked[m], log_probabilities(theta, dev.features))
