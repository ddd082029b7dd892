"""Look at what the last attention layer attends to, before and after.

Attention maps are the one part of the encoder you can read directly:
row i says how much token i draws from every other position.  This
script pretrains a small encoder on a topic corpus, then renders the
head-averaged last-layer map for one premise/hypothesis pair as text,
next to the same map from an untrained encoder.  The trained map should
show the topic words finding each other across the [SEP] boundary.
"""

import numpy as np

from consem.analysis import export_attention
from consem.encoder import EncoderConfig, EncoderWeights
from consem.pretrain import PretrainConfig, train
from consem.text import ContrastiveTriple, build_vocab

TOPICS = ["river", "glacier", "harbor", "canyon", "orchard", "temple", "market", "tunnel"]
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


def render(dump: dict) -> None:
    """Print the head-averaged map as a shaded character grid.

    Shading is by absolute weight, so a uniform row reads as uniformly
    faint and a peaked row shows its peak; rows always sum to one.
    """
    tokens = dump["tokens"]
    grid = np.asarray(dump["head_mean"])
    shades = " .:-=+*#%@"
    width = max(len(t) for t in tokens)
    print(" " * (width + 1) + " ".join(t[0] for t in tokens))
    for i, token in enumerate(tokens):
        cells = " ".join(
            shades[min(int(v * 2 * len(shades)), len(shades) - 1)] for v in grid[i]
        )
        print(f"{token:>{width}} {cells}")
    print()


triples = [
    ContrastiveTriple(
        sentence1=sentence(TOPICS[i % 8], 3 * i),
        sentence2=sentence(TOPICS[i % 8], 3 * i + 1),
        hard_neg=sentence(TOPICS[(i + 1) % 8], 3 * i + 2),
    )
    for i in range(96)
]
vocab = build_vocab([t for tr in triples for t in (tr.sentence1, tr.sentence2, tr.hard_neg)])
encoder_config = EncoderConfig(
    vocab_size=vocab.size, num_layers=2, num_heads=2,
    hidden_size=32, ff_size=64, max_len=24, dropout=0.0,
)
config = PretrainConfig(tau=0.1, batch_size=8, epochs=8, learning_rate=1e-3, seed=0)

text_a = "the river stays quiet through winter"
text_b = "people cross the river every spring"

print("untrained encoder (fresh random weights):")
render(export_attention(EncoderWeights.initialize(encoder_config, seed=0), vocab, text_a, text_b))

print("after contrastive pretraining:")
trained, _ = train(triples, config, vocab, encoder_config)
render(export_attention(trained.encoder_weights(vocab), vocab, text_a, text_b))

print("Each row is a query token, each column a key; darker means more")
print("weight, and every row sums to one.  Rows are labeled with the full")
print("token, columns abbreviated to first letters.  Untrained, every row")
print("spreads its weight almost uniformly.  Trained, look at the column")
print("under the first 'river': the [CLS] row puts nearly all its weight")
print("there and most first-sentence rows lean on it too, so the topic")
print("word becomes the hub the sentence representation is built around.")
