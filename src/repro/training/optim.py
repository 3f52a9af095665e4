"""Optimizers and learning-rate schedules."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np


class SGD:
    """SGD with (heavy-ball) momentum and optional weight decay.

    Operates on flat ``{name: array}`` dicts so the same optimizer can
    sit "at the parameter server" for any sync rule.
    """

    def __init__(self, lr: float = 0.1, momentum: float = 0.9,
                 weight_decay: float = 0.0) -> None:
        if lr <= 0:
            raise ValueError("lr must be positive")
        if not (0.0 <= momentum < 1.0):
            raise ValueError("momentum must be in [0, 1)")
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity: Dict[str, np.ndarray] = {}

    def step(self, params: Dict[str, np.ndarray], grads: Dict[str, np.ndarray]) -> None:
        """In-place parameter update."""
        for name, p in params.items():
            g = grads[name]
            if self.weight_decay:
                g = g + self.weight_decay * p
            if self.momentum:
                v = self._velocity.get(name)
                if v is None:
                    v = np.zeros_like(p)
                v = self.momentum * v + g
                self._velocity[name] = v
                p -= self.lr * v
            else:
                p -= self.lr * g

    def reset(self) -> None:
        self._velocity.clear()


@dataclass(frozen=True)
class StepSchedule:
    """Multiply the base LR by ``gamma`` at each milestone epoch.

    Mirrors the standard CIFAR ResNet schedule the paper's Section 5.6
    experiments use (decay at 50% and 75% of training).
    """

    base_lr: float = 0.1
    milestones: Sequence[float] = (0.5, 0.75)  # fractions of total epochs
    gamma: float = 0.1

    def lr_at(self, epoch: int, total_epochs: int) -> float:
        lr = self.base_lr
        for frac in self.milestones:
            if epoch >= frac * total_epochs:
                lr *= self.gamma
        return lr
