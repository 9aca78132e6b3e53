"""Linear readout on reservoir spike-count state vectors.

The per-sample state is the concatenation of per-neuron spike counts over
all ensemble members.  A multinomial logistic regression is trained on
these states by L-BFGS (Liu & Nocedal 1989) on cross-entropy plus an L2
penalty on the weights (never the biases, so duplicating every sample
leaves the optimum unchanged).  Features are standardized by their
training-set maximum because spike counts have a wide dynamic range.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DatasetError, check_int, check_real
from .ensemble import SpikeRecord


@dataclass
class SampleStateVector:
    features: np.ndarray

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 1:
            raise ConfigError("state vector must be one-dimensional")


def extract_state(records: list[SpikeRecord]) -> SampleStateVector:
    """Concatenate per-member full-window spike counts into one feature vector."""
    if not records:
        raise ConfigError("need at least one spike record")
    counts = np.concatenate([r.counts for r in records])
    return SampleStateVector(counts.astype(np.float64))


@dataclass(frozen=True)
class ReadoutConfig:
    l2: float = 1e-4
    epochs: int = 500
    tolerance: float = 1e-6

    def __post_init__(self):
        check_int("epochs", self.epochs, low=0)
        # an infinite tolerance returns the zero start, an infinite l2 a NaN loss
        check_real("l2", self.l2, at_least=0)
        check_real("tolerance", self.tolerance, at_least=0)


@dataclass(frozen=True)
class FitTrace:
    """How a fit ended: the L-BFGS iterations it ran, the gradient norm at
    its final parameters, whether that norm fell below the tolerance, and
    the loss there."""

    epochs: int
    grad_norm: float
    converged: bool
    final_loss: float


@dataclass
class ReadoutModel:
    weights: np.ndarray  # (classes, features)
    bias: np.ndarray  # (classes,)
    feature_scale: np.ndarray  # (features,) divisor fit on the training set
    classes: np.ndarray  # label value per row of the weight matrix
    fit: FitTrace

    @property
    def n_classes(self) -> int:
        return self.weights.shape[0]

    @property
    def n_features(self) -> int:
        return self.weights.shape[1]

    def scores(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape[1] != self.n_features:
            raise ConfigError(
                f"feature dim {x.shape[1]} does not match model {self.n_features}"
            )
        return (x / self.feature_scale) @ self.weights.T + self.bias

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Argmax class labels; ties resolve to the lowest class index."""
        return self.classes[np.argmax(self.scores(x), axis=1)]


def _softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def loss_and_gradients(
    w: np.ndarray,
    b: np.ndarray,
    x: np.ndarray,
    y_onehot: np.ndarray,
    l2: float,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean cross-entropy + 0.5*l2*||W||^2 and its analytic gradients."""
    n = x.shape[0]
    probs = _softmax(x @ w.T + b)
    # clip keeps log finite; for correctly scaled features probs stay > 0
    ce = -np.log(np.clip(probs[np.arange(n), y_onehot.argmax(axis=1)], 1e-300, None))
    loss = float(ce.mean() + 0.5 * l2 * np.sum(w * w))
    delta = (probs - y_onehot) / n
    grad_w = delta.T @ x + l2 * w
    grad_b = delta.sum(axis=0)
    return loss, grad_w, grad_b


def _labelled(data) -> tuple[np.ndarray, np.ndarray]:
    """Features as a float64 (samples, features) array and one int64 label
    per row, or a ``DatasetError``."""
    x, y = data
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.int64)
    if x.ndim != 2 or y.shape != (x.shape[0],):
        raise DatasetError(
            f"need 2-D features and one label per row, not shapes {x.shape} and {y.shape}"
        )
    return x, y


def train_readout(
    train: tuple[np.ndarray, np.ndarray],
    config: ReadoutConfig = ReadoutConfig(),
) -> ReadoutModel:
    """Fit the linear readout by L-BFGS from zero parameters.

    The objective is convex, so the start only fixes the deterministic
    path.  The fit stops when the joint gradient norm drops below the
    tolerance (at once if the zero start meets it) or after ``epochs``
    iterations; it stops earlier, unconverged, when the line search stalls
    at machine precision or after SciPy's cap of 15000 loss evaluations.
    ``fit`` records the iterations run and the loss and gradient norm at
    the returned parameters.
    """
    # imported here: scipy.optimize adds ~20 MB RSS to engine workers, which never fit
    from scipy import optimize

    x, y = _labelled(train)
    if not np.isfinite(x).all():
        raise DatasetError("non-finite feature values")
    classes = np.unique(y)
    if classes.shape[0] < 2:
        raise DatasetError("training set must contain at least two classes")

    scale = x.max(axis=0)
    scale = np.where(scale > 0, scale, 1.0)
    xs = x / scale
    y_onehot = (y[:, None] == classes[None, :]).astype(np.float64)
    k, f = classes.shape[0], x.shape[1]

    def unpack(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return theta[: k * f].reshape(k, f), theta[k * f :]

    last = {}  # the point last evaluated, with its loss and joint gradient norm

    def objective(theta: np.ndarray) -> tuple[float, np.ndarray]:
        loss, grad_w, grad_b = loss_and_gradients(*unpack(theta), xs, y_onehot, config.l2)
        norm = float(np.sqrt(np.sum(grad_w**2) + np.sum(grad_b**2)))
        last.update(theta=theta.copy(), loss=loss, norm=norm)
        return loss, np.concatenate([grad_w.ravel(), grad_b])

    def norm_at(theta: np.ndarray) -> float:
        if not np.array_equal(theta, last["theta"]):
            objective(theta)
        return last["norm"]

    # SciPy hands the iterate to a callback whose one parameter has this name
    def stop_when_converged(intermediate_result) -> None:
        if norm_at(intermediate_result.x) < config.tolerance:
            raise StopIteration

    theta, iterations = np.zeros(k * f + k), 0
    objective(theta)
    # L-BFGS-B takes one step even at maxiter=0 or from a converged start
    if config.epochs > 0 and last["norm"] >= config.tolerance:
        # the tolerance is the only convergence test: SciPy's own are off
        result = optimize.minimize(
            objective,
            theta,
            method="L-BFGS-B",
            jac=True,
            callback=stop_when_converged,
            options={"maxiter": config.epochs, "gtol": 0, "ftol": 0},
        )
        theta, iterations = result.x, result.nit
    gnorm = norm_at(theta)
    w, b = unpack(theta)
    fit = FitTrace(iterations, gnorm, gnorm < config.tolerance, last["loss"])
    return ReadoutModel(weights=w, bias=b, feature_scale=scale, classes=classes, fit=fit)


@dataclass
class EvalMetrics:
    accuracy: float
    confusion: np.ndarray  # (classes, classes), rows = true, cols = predicted


def evaluate(
    model: ReadoutModel,
    test: tuple[np.ndarray, np.ndarray],
) -> EvalMetrics:
    x, y = _labelled(test)
    if x.shape[0] == 0:
        raise DatasetError("empty evaluation set")
    predicted = model.predict(x)
    correct = int(np.sum(predicted == y))
    class_index = {c: i for i, c in enumerate(model.classes)}
    confusion = np.zeros((model.n_classes, model.n_classes), dtype=np.int64)
    for truth, pred in zip(y, predicted):
        ti = class_index.get(int(truth))
        if ti is None:
            raise DatasetError(f"test label {truth} unseen in training")
        confusion[ti, class_index[int(pred)]] += 1
    return EvalMetrics(accuracy=correct / x.shape[0], confusion=confusion)


def save_model(model: ReadoutModel, path) -> None:
    """Plain text: header, standardization vector, bias, then weight rows.

    The file is write-only: nothing in lsmkit reads it back."""
    with open(path, "w") as fh:
        fh.write("lsm-readout v1\n")
        fh.write(f"classes {model.n_classes}\n")
        fh.write(f"features {model.n_features}\n")
        fh.write("labels " + " ".join(str(int(c)) for c in model.classes) + "\n")
        fh.write("scale " + " ".join(repr(float(v)) for v in model.feature_scale) + "\n")
        fh.write("bias " + " ".join(repr(float(v)) for v in model.bias) + "\n")
        for row in model.weights:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")

