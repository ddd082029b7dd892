"""Shared fixtures: gradient-check helpers and a synthetic topic corpus.

The synthetic world assigns every sentence a topic word that appears
twice; sentences about one topic should embed near each other and far
from other topics, which gives training something learnable and gives
the geometry metrics a known structure to detect.  Sentences vary only
through a small pool of filler words, mixed by a hash so that no token
identifies which sentences were paired: a unique token per sentence (or
a filler shared within a triple) lets contrastive training memorize the
pairing instead of learning the topic.
"""

from __future__ import annotations

import errno
import os
import signal

import numpy as np
import pytest

from consem import workers as workers_module
from consem.encoder import EVAL_BATCH, EncoderConfig
from consem.tensor import Tape, Tensor, backward, precision
from consem.text import ContrastiveTriple, NliExample, build_vocab

TOPICS = (
    "river", "glacier", "orchard", "harbor", "capital",
    "museum", "reactor", "bakery", "stadium", "forest",
    "desert", "lagoon", "castle", "airport", "library",
    "market", "bridge", "garden", "island", "temple",
)

_PATTERNS = (
    "the {t} report stays near the {t} during {w}",
    "people visit the {t} and describe the {t} during {w}",
    "a guide maps the {t} while the {t} rests in {w}",
    "morning light covers the {t} and the {t} glows in {w}",
    "workers chart the {t} before the {t} opens in {w}",
    "the old {t} welcomes visitors when the {t} calms in {w}",
)

_FILLERS = (
    "spring", "summer", "autumn", "winter", "dawn", "noon",
    "dusk", "rain", "fog", "wind", "snow", "mist",
)


def topic_sentence(topic: str, flavor: int) -> str:
    # LCG mix: consecutive flavors must land on unrelated pattern/filler
    # combinations, or the combination itself becomes a pairing shortcut.
    mixed = (flavor * 1103515245 + 12345) >> 16
    filler = _FILLERS[mixed % len(_FILLERS)]
    pattern = _PATTERNS[(mixed >> 8) % len(_PATTERNS)]
    return pattern.format(t=topic, w=filler)


def make_topic_triples(n: int, num_topics: int = len(TOPICS)) -> list[ContrastiveTriple]:
    """Anchor and positive share a topic, the hard negative takes the next one."""
    triples = []
    for i in range(n):
        topic = TOPICS[i % num_topics]
        other = TOPICS[(i + 1) % num_topics]
        triples.append(
            ContrastiveTriple(
                sentence1=topic_sentence(topic, 3 * i),
                sentence2=topic_sentence(topic, 3 * i + 1),
                hard_neg=topic_sentence(other, 3 * i + 2),
            )
        )
    return triples


def make_topic_nli(groups: int, per_group: int = 1, num_topics: int = len(TOPICS)) -> list[NliExample]:
    """Premise groups with entailment (same topic), contradiction (other), neutral."""
    examples = []
    for g in range(groups):
        topic = TOPICS[g % num_topics]
        other = TOPICS[(g + 7) % num_topics]
        premise = topic_sentence(topic, 1000 + 3 * g)
        for k in range(per_group):
            examples.append(NliExample(premise, topic_sentence(topic, 2000 + 3 * g + k), "entailment"))
            examples.append(NliExample(premise, topic_sentence(other, 3000 + 3 * g + k), "contradiction"))
            # "maybe" keeps neutral texts disjoint from the other hypotheses
            examples.append(
                NliExample(premise, "maybe " + topic_sentence(TOPICS[(g + 11) % num_topics], 4000 + g + k), "neutral")
            )
    return examples


def make_pair_task(n: int, start: int = 0, num_topics: int = 8) -> list[dict]:
    """Pair records: a cue word opening the second sentence decides the label.

    Entailment pairs share a topic and say "indeed"; contradiction pairs
    switch topics and say "instead".  The cue makes the task linearly
    separable, the topic correlation keeps it semantically coherent.
    """
    records = []
    for i in range(start, start + n):
        topic = TOPICS[i % num_topics]
        if i % 2 == 0:
            text_b = "indeed " + topic_sentence(topic, 5000 + 2 * i + 1)
            label = "entailment"
        else:
            text_b = "instead " + topic_sentence(TOPICS[(i + 3) % num_topics], 5000 + 2 * i + 1)
            label = "contradiction"
        records.append(
            {"text_a": topic_sentence(topic, 5000 + 2 * i), "text_b": text_b, "label": label, "line": i + 1}
        )
    return records


def make_single_task(n: int, start: int = 0, num_topics: int = 8) -> list[dict]:
    """Single-sentence records labeled by topic group (token presence decides)."""
    records = []
    half = num_topics // 2
    for i in range(start, start + n):
        topic_index = i % num_topics
        label = "waterside" if topic_index < half else "inland"
        records.append(
            {"text": topic_sentence(TOPICS[topic_index], 7000 + i), "label": label, "line": i + 1}
        )
    return records


def make_mrc_task(n: int, start: int = 0, choices: int = 4, num_topics: int = 8) -> list[dict]:
    """Questions whose correct choice repeats the context topic.

    Question and choices stay short so the topic word survives pair
    truncation at max_len 20 (the longer side loses its tail first).
    """
    records = []
    for i in range(start, start + n):
        topic_index = i % num_topics
        answer = i % choices
        option_topics = [
            TOPICS[(topic_index + (0 if k == answer else k + 1)) % len(TOPICS)] for k in range(choices)
        ]
        records.append(
            {
                "context": topic_sentence(TOPICS[topic_index], 9000 + i),
                "question": "which place appears ?",
                "choices": [f"the {t} appears" for t in option_topics],
                "answer_index": answer,
                "line": i + 1,
            }
        )
    return records


# Rows of the twin text in ``boundary_twin_texts``.
BOUNDARY_TWINS = (EVAL_BATCH - 1, EVAL_BATCH)


def boundary_twin_texts() -> list[str]:
    """``EVAL_BATCH - 1`` distinct three-word texts, one four-word text twice, then longer texts.

    Sorted by length with every copy kept, the twin's two copies
    (``BOUNDARY_TWINS``) fall on either side of the first ``EVAL_BATCH``
    boundary, into batches padded to different widths.
    """
    short = [f"{TOPICS[i % len(TOPICS)]} {TOPICS[i // len(TOPICS)]} glows" for i in range(EVAL_BATCH - 1)]
    longer = [f"the {a} and the {b} glow at dawn" for a, b in zip(TOPICS[:8], TOPICS[1:9])]
    twin = "the river glows brightly"
    return short + [twin, twin] + longer


def micro_encoder_config(vocab_size: int, **overrides) -> EncoderConfig:
    base = dict(
        vocab_size=vocab_size,
        num_layers=2,
        num_heads=2,
        hidden_size=16,
        ff_size=32,
        max_len=16,
        dropout=0.1,
    )
    base.update(overrides)
    return EncoderConfig(**base)


def central_difference(fn, tensors: list[Tensor], h: float = 1e-3) -> list[np.ndarray]:
    """Numeric gradient of scalar ``fn()`` with respect to each tensor, entry by entry."""
    grads = []
    for t in tensors:
        g = np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + h
            up = float(fn().data)
            flat[i] = original - h
            down = float(fn().data)
            flat[i] = original
            gflat[i] = (up - down) / (2.0 * h)
        grads.append(g)
    return grads


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Max elementwise |a - n| / max(1, |a|, |n|)."""
    scale = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float((np.abs(analytic - numeric) / scale).max())


def fd_at(fn, t: Tensor, flat_index: int, h: float = 1e-3) -> float:
    """Central difference of scalar ``fn()`` for one entry of ``t``."""
    flat = t.data.reshape(-1)
    original = flat[flat_index]
    flat[flat_index] = original + h
    up = float(fn().data)
    flat[flat_index] = original - h
    down = float(fn().data)
    flat[flat_index] = original
    return (up - down) / (2.0 * h)


def analytic_gradients(fn, tensors: list[Tensor]) -> list[np.ndarray]:
    """Backprop ``fn`` once and return a gradient array per tensor."""
    for t in tensors:
        t.grad = None
    with Tape() as tape:
        loss = fn()
        backward(loss, tape)
    return [
        np.array(t.grad if t.grad is not None else np.zeros_like(t.data))
        for t in tensors
    ]


def check_gradients(fn, tensors: list[Tensor], h: float = 1e-3) -> float:
    """Backprop ``fn`` and compare against central differences; returns the worst error.

    Runs in float64 (callers construct inputs under ``precision(np.float64)``)
    because float32 rounding at step 1e-3 would drown the comparison.
    """
    for t in tensors:
        t.grad = None
    with Tape() as tape:
        loss = fn()
        backward(loss, tape)
    analytic = [np.array(t.grad if t.grad is not None else np.zeros_like(t.data)) for t in tensors]
    numeric = central_difference(fn, tensors, h=h)
    return max(relative_error(a, n) for a, n in zip(analytic, numeric))


def force_workers(monkeypatch, workers: int) -> None:
    """Spread every ``eval_rows`` call and every sharded training loop over ``workers``
    processes, whatever the CPUs, the batches and the shards."""
    monkeypatch.setattr(workers_module, "worker_count", lambda units: workers)


def blas_env(monkeypatch, **values: str) -> None:
    """Set exactly ``values`` among the BLAS thread-count variables."""
    for name in workers_module._BLAS_THREAD_VARS:
        monkeypatch.delenv(name, raising=False)
    for name, value in values.items():
        monkeypatch.setenv(name, value)


def die_mid_reply() -> None:
    """Called in a helper process: its next reply is sent cut short, then it exits."""

    def cut_and_exit(pipe, data):
        pipe.write(data[:-8])
        pipe.flush()
        os._exit(0)

    workers_module._write = cut_and_exit


def open_fds() -> int:
    """How many file descriptors this process has open."""
    return len(os.listdir("/proc/self/fd"))


class TwoArgError(Exception):
    """Pickles, but unpickling calls ``TwoArgError(message)``, which raises ``TypeError``."""

    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


def no_child_left() -> None:
    """Fail unless this process has no child, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def fail_os_call(monkeypatch, name: str, at: int) -> None:
    """Make call ``at`` (1-based) of ``os.<name>`` raise ``EAGAIN``; the others go through."""
    real, calls = getattr(os, name), []

    def failing(*args):
        calls.append(args)
        if len(calls) == at:
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
        return real(*args)

    monkeypatch.setattr(os, name, failing)


@pytest.fixture()
def time_bound():
    """A caller left waiting on a helper process fails its test after 60 s, not the whole suite."""

    def hung(signum, frame):
        raise TimeoutError("a caller waiting on a helper process hung")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture()
def one_worker(monkeypatch):
    """Eval batches and training shards run in the test's own process, for tests that read side effects."""
    force_workers(monkeypatch, 1)


@pytest.fixture()
def f64():
    with precision(np.float64):
        yield


@pytest.fixture(scope="session")
def topic_vocab_triples():
    triples = make_topic_triples(96, num_topics=8)
    corpus = [t for tr in triples for t in (tr.sentence1, tr.sentence2, tr.hard_neg)]
    extra = [topic_sentence(t, f) for t in TOPICS for f in (5000, 7000, 9000)]
    vocab = build_vocab(
        corpus + extra + ["which place appears ? the waterside inland report indeed instead"]
    )
    return vocab, triples


@pytest.fixture(scope="session")
def micro_checkpoint(topic_vocab_triples):
    """A checkpoint trained enough to cluster topics; shared across test modules.

    Dropout stays off: at this width the fine-tuning tests need the
    optimization itself to be quiet enough to hit their accuracy bars.
    """
    from consem.encoder import EncoderConfig
    from consem.pretrain import PretrainConfig, train

    vocab, triples = topic_vocab_triples
    config = PretrainConfig(batch_size=8, epochs=8, learning_rate=2e-3, seed=11)
    encoder_config = EncoderConfig(
        vocab_size=vocab.size, num_layers=2, num_heads=2,
        hidden_size=32, ff_size=64, max_len=20, dropout=0.0,
    )
    ckpt, records = train(triples, config, vocab, encoder_config)
    return ckpt, records, vocab
