"""Evaluation next to the loss: per-position log-probabilities, perplexity."""

import numpy as np
import pytest

from repro.nn import ModelConfig, init_model, perplexity, sequence_logprobs

CFG = ModelConfig(hidden=16, n_layers=3, n_heads=2, seq_len=12, vocab=23)
CHUNKS = init_model(CFG, seed=4)
RNG = np.random.default_rng(2)


class TestEvaluation:
    def test_logprobs_negative(self):
        tokens = RNG.integers(0, CFG.vocab, size=(2, 6))
        targets = RNG.integers(0, CFG.vocab, size=(2, 6))
        lp = sequence_logprobs(CFG, CHUNKS, tokens, targets)
        assert lp.shape == (2, 6)
        assert (lp < 0).all()

    def test_perplexity_of_untrained_model_near_vocab(self):
        """An untrained (near-uniform) model's perplexity ~ vocab size."""
        tokens = RNG.integers(0, CFG.vocab, size=(4, 10))
        targets = RNG.integers(0, CFG.vocab, size=(4, 10))
        ppl = perplexity(CFG, CHUNKS, tokens, targets)
        assert 0.5 * CFG.vocab < ppl < 2.0 * CFG.vocab

    def test_perplexity_matches_loss(self):
        from repro.nn import functional as F
        from repro.nn import model_fwd, rope_tables

        tokens = RNG.integers(0, CFG.vocab, size=(2, CFG.seq_len))
        targets = RNG.integers(0, CFG.vocab, size=(2, CFG.seq_len))
        cos, sin = rope_tables(CFG)
        logits, _ = model_fwd(CFG, CHUNKS, tokens, cos, sin)
        loss, _ = F.cross_entropy_fwd(logits, targets)
        assert perplexity(CFG, CHUNKS, tokens, targets) == pytest.approx(
            np.exp(loss), rel=1e-9
        )
