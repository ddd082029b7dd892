"""Adam with decoupled weight decay, and the batch schedule and step both trainers share."""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, TrainingDivergedError
from .tensor import Tape, Tensor, backward

__all__ = ["QUIET_FLOAT_ERRORS", "AdamW", "minibatches"]

# ``np.errstate`` settings for a training run.  Overflow on the way to a
# non-finite loss or gradient is expected when a run diverges;
# ``AdamW.descend``'s loss check and ``AdamW.step``'s gradient check report it
# as one TrainingDivergedError, so numpy's warnings would only repeat it.
QUIET_FLOAT_ERRORS = {"over": "ignore", "invalid": "ignore", "divide": "ignore"}


def minibatches(order: np.ndarray, batch_size: int, seed: int, stream: int, epoch: int):
    """Yield ``(rows, rng)`` for each consecutive block ``b`` of ``order`` (the last may be short).

    ``rng`` is ``default_rng([seed, stream, epoch, b])``, the block's dropout generator.
    """
    for batch_no, start in enumerate(range(0, len(order), batch_size)):
        yield order[start : start + batch_size], np.random.default_rng([seed, stream, epoch, batch_no])


class AdamW:
    """First/second-moment adaptive steps plus decoupled weight decay.

    Moment buffers are keyed by parameter name and updated in insertion
    order, so two optimizers built from the same parameter mapping evolve
    identically.  The decay term is applied directly to the parameter,
    outside the adaptive update.
    """

    def __init__(
        self,
        params: dict[str, Tensor],
        learning_rate: float,
        weight_decay: float = 0.01,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        if learning_rate <= 0.0:
            raise ConfigError(f"learning rate must be positive, got {learning_rate}")
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ConfigError(f"betas must lie in [0, 1), got {beta1}, {beta2}")
        if weight_decay < 0.0:
            raise ConfigError(f"weight decay must be non-negative, got {weight_decay}")
        self.params = dict(params)
        self.learning_rate = learning_rate
        self.weight_decay = weight_decay
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self._m = {name: np.zeros_like(p.data) for name, p in self.params.items()}
        self._v = {name: np.zeros_like(p.data) for name, p in self.params.items()}

    def descend(self, loss: Tensor, tape: Tape, epoch: int) -> None:
        """Backpropagate ``loss`` through ``tape``, update, and clear the gradients.

        A non-finite loss raises TrainingDivergedError before anything changes.
        """
        if not np.isfinite(loss.data):
            raise TrainingDivergedError(f"non-finite loss at step {self.step_count + 1} (epoch {epoch})")
        backward(loss, tape)
        self.step()
        self.zero_grad()

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def step(self) -> None:
        """Apply one update from the gradients currently stored on the parameters.

        Parameters whose ``grad`` is ``None`` are treated as having a zero
        gradient (their moments still decay and weight decay still applies).
        A non-finite gradient aborts with an error naming the parameter.
        """
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            elif not np.all(np.isfinite(g)):
                raise TrainingDivergedError(
                    f"non-finite gradient for parameter '{name}' at step {t}"
                )
            m = self._m[name]
            v = self._v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            mhat = m / bc1
            vhat = v / bc2
            update = mhat / (np.sqrt(vhat) + self.eps)
            if self.weight_decay:
                update = update + self.weight_decay * p.data
            p.data -= (self.learning_rate * update).astype(p.data.dtype, copy=False)
