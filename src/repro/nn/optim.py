"""Optimizers, learning-rate schedules and the one training loop.

The paper trains TrajCL with Adam, initial learning rate 0.001, halved every
5 epochs (§V-A). :class:`Adam`, :class:`SGD` and :class:`StepLR` reproduce
the exact update rules; :func:`clip_grad_norm` bounds the global gradient
norm. :func:`train_epoch` is the minibatch loop every learner steps
through: TrajCL's pre-training, its fine-tune heads and the baselines.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional

import numpy as np

from .module import Parameter
from .tensor import Tensor


class Optimizer:
    """Base optimizer holding a flat parameter list."""

    def __init__(self, params: Iterable[Parameter], lr: float):
        self.params: List[Parameter] = [p for p in params if p.requires_grad]
        if not self.params:
            raise ValueError("optimizer received no trainable parameters")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional classical momentum."""

    def __init__(self, params: Iterable[Parameter], lr: float, momentum: float = 0.0):
        super().__init__(params, lr)
        self.momentum = momentum
        self._velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        for p, v in zip(self.params, self._velocity):
            if p.grad is None:
                continue
            if self.momentum > 0:
                v *= self.momentum
                v += p.grad
                p.data -= self.lr * v
            else:
                p.data -= self.lr * p.grad


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) with decoupled-style weight decay option."""

    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float = 1e-3,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        super().__init__(params, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        self._step_count += 1
        t = self._step_count
        bias1 = 1.0 - self.beta1 ** t
        bias2 = 1.0 - self.beta2 ** t
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            m_hat = m / bias1
            v_hat = v / bias2
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class StepLR:
    """Decay the optimizer's learning rate by ``gamma`` every ``step_size`` epochs.

    With ``step_size=5, gamma=0.5`` this is exactly the paper's schedule
    ("initialized to 0.001 and decayed by half after every 5 epochs").
    """

    def __init__(self, optimizer: Optimizer, step_size: int, gamma: float = 0.5):
        if step_size <= 0:
            raise ValueError("step_size must be positive")
        self.optimizer = optimizer
        self.step_size = step_size
        self.gamma = gamma
        self.base_lr = optimizer.lr
        self.epoch = 0

    def step(self) -> None:
        """Advance one epoch and update the learning rate."""
        self.epoch += 1
        decays = self.epoch // self.step_size
        self.optimizer.lr = self.base_lr * (self.gamma ** decays)

    @property
    def current_lr(self) -> float:
        return self.optimizer.lr


def clip_grad_norm(params: Iterable[Parameter], max_norm: float) -> float:
    """Scale gradients so their global L2 norm is at most ``max_norm``.

    Returns the pre-clip norm (useful for logging divergence).
    """
    params = [p for p in params if p.grad is not None]
    total = float(np.sqrt(sum(float((p.grad ** 2).sum()) for p in params)))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for p in params:
            p.grad *= scale
    return total


def train_epoch(
    optimizer: Optimizer,
    size: int,
    batch_size: int,
    rng: np.random.Generator,
    batch_loss: Callable[[np.ndarray], Tensor],
    *,
    min_batch: int = 1,
    max_norm: Optional[float] = 5.0,
    after_step: Optional[Callable[[], None]] = None,
) -> float:
    """One pass over ``size`` examples in a fresh ``rng`` order; returns
    the mean batch loss (NaN when no batch was long enough).

    Each batch of example indices shorter than ``min_batch`` is skipped;
    otherwise the step is: zero the gradients, ``batch_loss(indices)``,
    backpropagate, clip the global gradient norm to ``max_norm`` (``None``
    clips nothing), ``optimizer.step()``, then ``after_step()`` (TrajCL's
    momentum update).
    """
    order = rng.permutation(size)
    losses = []
    for start in range(0, size, batch_size):
        index = order[start:start + batch_size]
        if len(index) < min_batch:
            continue
        optimizer.zero_grad()
        loss = batch_loss(index)
        loss.backward()
        if max_norm is not None:
            clip_grad_norm(optimizer.params, max_norm)
        optimizer.step()
        if after_step is not None:
            after_step()
        losses.append(loss.item())
    return float(np.mean(losses)) if losses else float("nan")
