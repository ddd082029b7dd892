"""How temperature reshapes the contrastive objective, in three acts.

The temperature divides every cosine score before the softmax, so it
decides how hard the loss concentrates on the most-confusable negative.
This script trains the same tiny encoder at several temperatures and
watches three things: the training loss curve, how tightly entailed
pairs cluster (alignment), and how spread out the space stays
(uniformity).  Everything runs in-process against the library API; no
files are written.
"""

import numpy as np

from consem.analysis import accuracy_at_topk, alignment, uniformity
from consem.encoder import (
    EncoderConfig,
    EncoderWeights,
    PoolingStrategy,
    embed_sentences,
    parameter_names,
)
from consem.pretrain import PretrainConfig, train
from consem.text import ContrastiveTriple, build_vocab

TOPICS = [
    "river", "glacier", "harbor", "canyon", "orchard", "temple", "market", "tunnel",
    "meadow", "quarry", "lagoon", "castle", "forest", "desert", "island", "bridge",
]
PATTERNS = [
    "the {t} stays quiet through {w}",
    "people cross the {t} every {w}",
    "a guide describes the {t} during {w}",
    "light settles on the {t} in {w}",
]
WHEN = ["spring", "summer", "autumn", "winter", "dawn", "dusk"]


def sentence(topic: str, k: int) -> str:
    mixed = (k * 2654435761) >> 8
    return PATTERNS[mixed % len(PATTERNS)].format(t=topic, w=WHEN[(mixed >> 4) % len(WHEN)])


# Act 1: a corpus where "similar" means "same topic".  The anchor and
# positive share a topic; the hard negative takes the next one over.
triples = [
    ContrastiveTriple(
        sentence1=sentence(TOPICS[i % 16], 3 * i),
        sentence2=sentence(TOPICS[i % 16], 3 * i + 1),
        hard_neg=sentence(TOPICS[(i + 1) % 16], 3 * i + 2),
    )
    for i in range(128)
]
vocab = build_vocab([t for tr in triples for t in (tr.sentence1, tr.sentence2, tr.hard_neg)])
encoder_config = EncoderConfig(
    vocab_size=vocab.size, num_layers=2, num_heads=2,
    hidden_size=32, ff_size=64, max_len=20, dropout=0.0,
)

# Unseen sentences for the probes: one claim and one candidate per topic.
claim_texts = [sentence(t, 700 + i) for i, t in enumerate(TOPICS)]
pool_texts = [sentence(t, 800 + i) for i, t in enumerate(TOPICS)]
pair_texts = [(sentence(t, 900 + i), sentence(t, 950 + i)) for i, t in enumerate(TOPICS)]

print(f"{'tau':>6} {'loss e1':>8} {'loss e8':>8} {'align':>7} {'uniform':>8} {'acc@1':>6}")
for tau in (0.001, 0.01, 0.05, 0.1, 0.5, 1.0):
    config = PretrainConfig(
        tau=tau, batch_size=8, epochs=8, learning_rate=1e-3, seed=0,
        pooling=PoolingStrategy.MEAN,
    )
    ckpt, log = train(triples, config, vocab, encoder_config)
    weights = EncoderWeights.from_arrays(
        encoder_config, {n: ckpt.params[n] for n in parameter_names(encoder_config)}
    )

    def embed(texts):
        return embed_sentences(texts, weights, encoder_config, vocab, config.pooling)

    claims, pool = embed(claim_texts), embed(pool_texts)
    acc1 = accuracy_at_topk(claims, pool, np.arange(len(TOPICS)), ks=(1,))[1]
    lefts = embed([a for a, _ in pair_texts])
    rights = embed([b for _, b in pair_texts])
    epochs = [r for r in log if r.split == "train"]
    print(
        f"{tau:>6} {epochs[0].contrastive:>8.3f} {epochs[-1].contrastive:>8.3f} "
        f"{alignment(lefts, rights):>7.2f} "
        f"{uniformity(np.asarray(pool)):>8.3f} "
        f"{acc1:>6.2f}"
    )

print()
print("Every row solves this toy retrieval problem, which is exactly why")
print("accuracy alone is a poor lens: the geometry underneath differs a")
print("lot.  At tau=0.001 the scores are multiplied by a thousand, the")
print("first-epoch loss explodes, and the space stays clumped (uniformity")
print("near zero) because gradients only ever touch the single hardest")
print("negative.  Raising the temperature spreads the repulsion over all")
print("negatives, driving uniformity down; push it past 0.5 and the last")
print("epochs stop making progress because the softmax barely prefers the")
print("positive any more.  The mid-range rows get both tight entailed")
print("pairs (small alignment) and a well-spread space.")
