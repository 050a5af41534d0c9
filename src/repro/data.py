"""Synthetic corpora with learnable structure.

The default training data (:func:`repro.parallel.common.microbatch`) is
uniform random tokens — perfect for equivalence testing (any
distribution works) but unlearnable: the loss floor is ``log V``.  For
demos and convergence tests we want data a model can actually learn, so
this module provides a first-order **Markov chain corpus**: each token
has a small set of plausible successors with random (Dirichlet-ish)
probabilities.  Its *entropy rate* — the theoretical minimum achievable
next-token loss — is computable in closed form, giving examples and
tests an absolute yardstick ("the model reached within X nats of
optimal") rather than a vague "loss went down".

Any object with a ``microbatch(iteration, index, g, s)`` method can be
plugged into :class:`~repro.parallel.common.TrainSpec` as its ``data``
source; determinism in ``(iteration, index)`` is required so every
worker of every strategy materialises identical batches.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
from numpy.random import default_rng

__all__ = ["UniformCorpus", "MarkovCorpus"]


class UniformCorpus:
    """I.i.d. uniform tokens — unlearnable, entropy rate ``log V``."""

    def __init__(self, vocab: int, seed: int = 1234):
        if vocab < 2:
            raise ValueError("vocab must be >= 2")
        self.vocab = vocab
        self.seed = seed

    def microbatch(
        self, iteration: int, index: int, g: int, s: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        rng = default_rng((self.seed, iteration, index))
        stream = rng.integers(0, self.vocab, size=(g, s + 1))
        return stream[:, :-1], stream[:, 1:]

    def entropy_rate(self) -> float:
        return float(np.log(self.vocab))


class MarkovCorpus:
    """First-order Markov chains over the vocabulary.

    Each token's successor distribution is supported on ``branching``
    random tokens with random weights, so sequences have real structure
    a causal LM can learn.  The transition matrix is fixed by ``seed``.
    """

    def __init__(
        self,
        vocab: int,
        seed: int = 7,
        branching: int = 4,
        concentration: float = 1.0,
    ):
        if vocab < 2:
            raise ValueError("vocab must be >= 2")
        if not (1 <= branching <= vocab):
            raise ValueError("branching must be in [1, vocab]")
        self.vocab = vocab
        self.seed = seed
        self.branching = branching
        rng = default_rng(seed)
        self.transition = np.zeros((vocab, vocab))
        for t in range(vocab):
            succ = rng.choice(vocab, size=branching, replace=False)
            weights = rng.gamma(concentration, size=branching)
            self.transition[t, succ] = weights / weights.sum()

    # -- sampling ---------------------------------------------------------------

    def _sample_stream(self, rng: np.random.Generator, length: int) -> np.ndarray:
        out = np.empty(length, dtype=np.int64)
        state = int(rng.integers(0, self.vocab))
        # cumulative rows once per call; vectorised inverse-CDF steps.
        cdf = np.cumsum(self.transition, axis=1)
        draws = rng.random(length)
        for i in range(length):
            out[i] = state
            state = int(np.searchsorted(cdf[state], draws[i], side="right"))
            state = min(state, self.vocab - 1)
        return out

    def microbatch(
        self, iteration: int, index: int, g: int, s: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Deterministic batch: ``g`` independent chains of ``s+1`` tokens."""
        rng = default_rng((self.seed, iteration, index))
        stream = np.stack([self._sample_stream(rng, s + 1) for _ in range(g)])
        return stream[:, :-1], stream[:, 1:]

    # -- information-theoretic yardsticks -----------------------------------------

    def stationary_distribution(self) -> np.ndarray:
        """Left Perron eigenvector of the transition matrix (power method;
        robust to complex eigenvalue noise)."""
        pi = np.full(self.vocab, 1.0 / self.vocab)
        for _ in range(10_000):
            nxt = pi @ self.transition
            nxt /= nxt.sum()
            if np.abs(nxt - pi).max() < 1e-13:
                return nxt
            pi = nxt
        return pi

    def entropy_rate(self) -> float:
        """Expected next-token entropy under the stationary distribution —
        the minimum achievable mean cross-entropy loss (nats/token)."""
        pi = self.stationary_distribution()
        rows = self.transition
        with np.errstate(divide="ignore", invalid="ignore"):
            logp = np.where(rows > 0, np.log(rows), 0.0)
        row_entropy = -(rows * logp).sum(axis=1)
        return float(pi @ row_entropy)
