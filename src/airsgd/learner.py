"""Single-layer softmax classifier with SGD and ADAM updates.

The parameter vector flattens the (classes, features) weight matrix
class-major with each class's bias appended last:

    theta.reshape(C, F + 1)[c] == [w_c1, ..., w_cF, b_c]

so a model with F features and C classes has d = (F + 1) * C parameters.
Gradients are averages of the cross-entropy gradient over a batch; the
aggregated (or channel-estimated) average gradient drives the optimizer,
whose state lives at the parameter server only. A training run computes the
gradients and losses of all M devices at once; an ensemble of R runs adds a
leading cell axis to the parameters. In a full-batch run the devices share
rows, so the per-row work runs once per distinct row they hold: the forward
pass, the residual ``(p - onehot(y)) / n`` (:func:`residuals`) and the
loss's label pick. Only the backward product with each device's (n, F) rows
and its bias sum (:func:`device_gradients`) and each device's loss mean run
per device row. A BLAS may round a row's product by the size of the matrix
it sits in, so the last bit can differ from a per-device forward pass when a
local set is small (OpenBLAS's AVX-512 kernel has a small-matrix path).
The two matrix products run in the features' dtype (float32 in a training
run, whose features ``data`` makes float32); the parameters, logits,
log-probabilities, losses and gradients are float64 whatever that dtype.
"""

from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "param_count",
    "init_params",
    "log_probabilities",
    "check_labels",
    "residuals",
    "device_gradients",
    "gradients",
    "losses",
    "evaluate_accuracy",
    "OptimizerSpec",
    "OptimizerState",
    "init_optimizer_state",
    "apply_update",
]


def param_count(num_features: int, num_classes: int) -> int:
    return (num_features + 1) * num_classes


def init_params(num_features: int, num_classes: int) -> np.ndarray:
    """Zero initialization; softmax regression is convex, no symmetry to break."""
    return np.zeros(param_count(num_features, num_classes))


def _split_theta(theta: np.ndarray, num_features: int):
    if theta.shape[-1] % (num_features + 1) != 0:
        raise ValueError(
            f"parameter length {theta.shape[-1]} not divisible by features+1={num_features + 1}"
        )
    table = theta.reshape(*theta.shape[:-1], -1, num_features + 1)
    return table[..., :num_features], table[..., num_features]


def _logits(theta: np.ndarray, X: np.ndarray) -> np.ndarray:
    W, b = _split_theta(theta, X.shape[-1])
    # the product in X's dtype, so no float32 X is copied at float64; adding
    # the float64 bias brings the logits back to float64
    return X @ W.swapaxes(-1, -2).astype(X.dtype, copy=False) + b[..., None, :]


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log-softmax over the last axis, computed in place in ``logits``."""
    # each row's maximum as a running maximum over the class columns: a
    # maximum is exact, so it equals the reduce's, and numpy's reduce over a
    # short last axis is several times slower
    top = logits[..., :1].copy()
    for c in range(1, logits.shape[-1]):
        np.maximum(top, logits[..., c : c + 1], out=top)
    logits -= top
    logits -= np.log(np.exp(logits).sum(axis=-1, keepdims=True))
    return logits


def log_probabilities(theta: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Class log-probabilities of the rows of X, shape (..., F) -> (..., C).

    A 2-d X is one (rows, F) x (F, C) matrix product; an (M, n, F) stack is
    M products of shape (n, F) x (F, C), one per row set, so each set gets
    the bytes it would get on its own. Leading axes of ``theta`` broadcast
    against X's: (R, d) gives (R, rows, C), (R, 1, d) gives (R, M, n, C).
    """
    return _log_softmax(_logits(theta, X))


def check_labels(labels: np.ndarray, num_classes: int) -> None:
    """Reject labels outside [0, num_classes)."""
    if np.any(labels < 0) or np.any(labels >= num_classes):
        raise ValueError(f"labels outside [0, {num_classes})")


def _at_labels(y: np.ndarray):
    """The index of each row's label entry in a (..., *y.shape, C) array."""
    return (..., *np.indices(y.shape, sparse=True), y)


def residuals(y: np.ndarray, log_probs: np.ndarray, n: int, out=None) -> np.ndarray:
    """Each row's share ``(exp(log p) - onehot(y)) / n`` of its set's gradient.

    ``log_probs`` is the (..., *y.shape, C) output of
    :func:`log_probabilities` for the rows whose labels ``y`` holds, already
    checked against the class count, and ``n`` the size of the sets they
    belong to. The result is written to ``out`` when given, an array of
    log_probs' shape in any memory layout. The work is elementwise, so a
    row's residual has the same bytes whether it is computed once for a row
    several sets hold or once in each set.
    """
    residual = np.exp(log_probs, out=out)
    residual[_at_labels(y)] -= 1.0
    residual /= n
    return residual


def device_gradients(X: np.ndarray, residual: np.ndarray) -> np.ndarray:
    """Average cross-entropy gradient of each of M row sets, shape (..., M, d).

    ``X`` is the (M, n, F) stack of the sets' rows and ``residual`` their
    (..., M, n, C) :func:`residuals`, with any leading cell axes. Each
    (cell, set) backward product is its own (C, n) x (n, F) matrix product
    inside one batched matmul, so row set m gives the same bytes whatever
    sets and cells come with it: the M sets may be cut into parts along the
    device axis, each part a call of its own in any thread, and the parts'
    gradients are the bytes of one call's. The bias sums over n run fastest
    with the cell axes next to the class axis in memory, as in the
    (k, n, R, C) chunks ``experiment`` gathers the held rows' residuals into.
    """
    F = X.shape[-1]
    grad = np.empty(residual.shape[:-2] + (residual.shape[-1], F + 1))
    grad[..., :F] = np.matmul(residual.swapaxes(-1, -2).astype(X.dtype, copy=False), X)
    grad[..., F] = residual.sum(axis=-2)
    return grad.reshape(*residual.shape[:-2], -1)


def gradients(X: np.ndarray, y: np.ndarray, log_probs: np.ndarray) -> np.ndarray:
    """Average cross-entropy gradient of each of M row sets, shape (..., M, d).

    ``X`` is (M, n, F), ``y`` the (M, n) labels, already checked against
    the class count, and ``log_probs`` the (..., M, n, C) output of
    :func:`log_probabilities` for X at the parameters the gradient is taken
    at: the :func:`residuals` of every set row, then :func:`device_gradients`.
    """
    return device_gradients(X, residuals(y, log_probs, X.shape[1]))


def losses(y: np.ndarray, log_probs: np.ndarray, rows=None) -> np.ndarray:
    """Mean cross-entropy of each of M row sets, shape (..., M).

    ``y`` holds the (M, n) labels of the sets' rows and ``log_probs`` their
    (..., M, n, C) log-probabilities; or, given the (M, n) ``rows``, ``y``
    and ``log_probs`` are the (H,) labels and (..., H, C) log-probabilities
    of held rows, of which set m holds ``rows[m]``. Each held row's label
    entry is picked once, then gathered to the sets.
    """
    picked = log_probs[_at_labels(y)]
    if rows is not None:
        picked = np.take(picked, rows, axis=-1)
    # A gather behind leading axes leaves them innermost in memory, and a mean
    # over such a strided axis sums in another order than over a contiguous one.
    return -np.ascontiguousarray(picked).mean(axis=-1)


def evaluate_accuracy(theta: np.ndarray, X: np.ndarray, y: np.ndarray):
    """Fraction of rows X whose argmax class is their label y, per parameter vector.

    Ties go to the lowest class.
    """
    logits = _logits(theta, X)
    check_labels(y, logits.shape[-1])
    return (logits.argmax(axis=-1) == y).mean(axis=-1)


@dataclass(frozen=True)
class OptimizerSpec:
    kind: str  # "sgd" | "adam"
    learning_rate: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        if self.kind not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer kind {self.kind!r}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if not (0 < self.beta1 < 1 and 0 < self.beta2 < 1):
            raise ValueError("beta1 and beta2 must lie in (0, 1)")
        if self.eps <= 0:
            raise ValueError(f"eps must be positive, got {self.eps}")


@dataclass
class OptimizerState:
    step: int
    m: np.ndarray  # first-moment accumulator (adam)
    v: np.ndarray  # second-moment accumulator (adam)


def init_optimizer_state(d: int) -> OptimizerState:
    return OptimizerState(step=0, m=np.zeros(d), v=np.zeros(d))


def apply_update(
    theta: np.ndarray, grad: np.ndarray, spec: OptimizerSpec, state: OptimizerState
):
    """One optimizer step on the aggregated gradient; returns (theta, state).

    SGD: theta - lr * grad. ADAM: standard bias-corrected moment update.
    The gradient is not checked for finiteness: ``experiment.run_cells``
    does that, naming the stage that produced it.
    """
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != theta.shape:
        raise ValueError(f"gradient shape {grad.shape} does not match parameters {theta.shape}")
    step = state.step + 1
    if spec.kind == "sgd":
        return theta - spec.learning_rate * grad, replace(state, step=step)
    m = spec.beta1 * state.m + (1 - spec.beta1) * grad
    v = spec.beta2 * state.v + (1 - spec.beta2) * grad**2
    m_hat = m / (1 - spec.beta1**step)
    v_hat = v / (1 - spec.beta2**step)
    theta_new = theta - spec.learning_rate * m_hat / (np.sqrt(v_hat) + spec.eps)
    return theta_new, OptimizerState(step=step, m=m, v=v)
