"""Train a real (tiny) language model with WeiPipe, end to end.

Uses the Markov-chain corpus (known entropy rate = the information-
theoretic loss floor), trains with the paper's recipe — WeiPipe-
Interleave on a 4-worker ring, AdamW, cosine LR schedule with warmup,
global-norm gradient clipping, recomputation — then evaluates held-out
perplexity against the floor.

    python examples/train_language_model.py
"""

import numpy as np

from repro import FP64, AdamW, ModelConfig, TrainSpec, perplexity, train
from repro.data import MarkovCorpus
from repro.optim import cosine_with_warmup

WORLD = 4
ITERS = 30


def main() -> None:
    cfg = ModelConfig(
        hidden=32, n_layers=4, n_heads=4, seq_len=32, vocab=24, ffn=96
    )
    corpus = MarkovCorpus(vocab=cfg.vocab, branching=3, seed=11)
    floor = corpus.entropy_rate()

    spec = TrainSpec(
        cfg=cfg,
        n_microbatches=8,
        microbatch_size=4,
        iters=ITERS,
        precision=FP64,
        recompute=True,
        data=corpus,
        make_optimizer=lambda: AdamW(lr=8e-3, weight_decay=0.01),
        lr_schedule=cosine_with_warmup(3, ITERS),
        clip_norm=1.0,
    )

    print(f"corpus entropy rate (loss floor): {floor:.4f} nats/token "
          f"(uniform would be {np.log(cfg.vocab):.4f})")
    print(f"training {ITERS} iterations on {WORLD} WeiPipe workers...\n")

    result = train(spec, "weipipe-interleave", WORLD)

    for i in range(0, ITERS, 5):
        print(f"  iter {i:>3}: loss {result.losses[i]:.4f}")
    print(f"  iter {ITERS - 1:>3}: loss {result.losses[-1]:.4f}")

    # held-out evaluation (fresh chains the model never saw)
    held_tokens, held_targets = corpus.microbatch(10_000, 0, 8, cfg.seq_len)
    ppl = perplexity(cfg, result.chunks, held_tokens, held_targets)
    print(f"\nheld-out perplexity: {ppl:.2f} "
          f"(floor e^H = {np.exp(floor):.2f}, untrained ~ {cfg.vocab})")

    assert result.losses[-1] < result.losses[0] - 0.3, "training must learn"
    assert ppl < cfg.vocab * 0.8, "perplexity must beat the unigram bar"


if __name__ == "__main__":
    main()
