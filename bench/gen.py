"""Seeded input generator for the consem benchmark.

Every sentence is drawn from one fixed word pool: a few function words plus
synthetic content words grouped into topics.  The fixture corpus lists every
pool word, so a vocabulary built over it maps no generated token to [UNK].
The same seed always writes the same bytes; the program under test receives
only the files written here.

Sizes (words per text):
    NLI sentences      8-14   (pretrain-short triples, embed-retrieve analysis)
    MRC contexts      30-40   plus a 4-6 word question and 2-3 word choices
    retrieval claims   5-8    drawn from the gold context's words
    retrieval contexts 50-60
"""

from __future__ import annotations

import json
import random
from pathlib import Path

FUNCTION_WORDS = (
    "the", "a", "of", "and", "near", "with", "by", "in",
    "on", "from", "to", "over", "under", "after", "before", "while",
)
NUM_TOPICS = 24
WORDS_PER_TOPIC = 20
_SYLLABLES = tuple(c + v for c in "bdfgklmnprstvz" for v in "aeiou")


def _build_pool() -> tuple[tuple[str, ...], ...]:
    # A fixed stream, independent of any workload seed: the pool never changes.
    rng = random.Random("consem-bench-word-pool")
    seen: set[str] = set(FUNCTION_WORDS)
    words: list[str] = []
    while len(words) < NUM_TOPICS * WORDS_PER_TOPIC:
        word = "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(2, 3)))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return tuple(
        tuple(words[t * WORDS_PER_TOPIC : (t + 1) * WORDS_PER_TOPIC]) for t in range(NUM_TOPICS)
    )


TOPIC_WORDS = _build_pool()
POOL = FUNCTION_WORDS + tuple(w for topic in TOPIC_WORDS for w in topic)


def _sentence(rng: random.Random, topic: int, lo: int, hi: int, keep=()) -> str:
    """``lo``..``hi`` words: mostly topic words, some function words, ``keep`` mixed in."""
    n = rng.randint(lo, hi)
    words = list(keep)[:n]
    while len(words) < n:
        pool = FUNCTION_WORDS if rng.random() < 0.3 else TOPIC_WORDS[topic]
        words.append(rng.choice(pool))
    rng.shuffle(words)
    return " ".join(words)


def _unique(rng: random.Random, seen: set[str], make) -> str:
    while True:
        text = make()
        if text not in seen:
            seen.add(text)
            return text


def _other_topic(rng: random.Random, topic: int) -> int:
    return (topic + rng.randint(1, NUM_TOPICS - 1)) % NUM_TOPICS


def nli_pairs(rng: random.Random, premises: int) -> list[dict]:
    """An entailment, a contradiction and a neutral hypothesis per premise.

    Every sentence in the file is distinct, so ``prepare`` mines exactly
    ``premises`` triples and ``analyze`` sees 4 sentences per premise.
    """
    rows: list[dict] = []
    seen: set[str] = set()
    for _ in range(premises):
        topic = rng.randrange(NUM_TOPICS)
        premise = _unique(rng, seen, lambda: _sentence(rng, topic, 8, 14))
        shared = rng.sample(premise.split(), 4)
        entail = _unique(rng, seen, lambda: _sentence(rng, topic, 8, 14, keep=shared))
        other = _other_topic(rng, topic)
        contra = _unique(rng, seen, lambda: _sentence(rng, other, 8, 14, keep=shared[:2]))
        rows.append({"premise": premise, "hypothesis": entail, "label": "entailment"})
        neutral = _unique(rng, seen, lambda: _sentence(rng, topic, 8, 14))
        rows.append({"premise": premise, "hypothesis": contra, "label": "contradiction"})
        rows.append({"premise": premise, "hypothesis": neutral, "label": "neutral"})
    return rows


def mrc_records(rng: random.Random, count: int) -> list[dict]:
    """Four-choice questions whose right choice is made of words from the context."""
    rows: list[dict] = []
    for _ in range(count):
        topic = rng.randrange(NUM_TOPICS)
        context = _sentence(rng, topic, 30, 40)
        context_words = [w for w in context.split() if w not in FUNCTION_WORDS]
        question = _sentence(rng, topic, 4, 6)
        answer = rng.randrange(4)
        choices = []
        for k in range(4):
            size = rng.randint(2, 3)
            if k == answer:
                choices.append(" ".join(rng.sample(context_words, size)))
            else:
                other = TOPIC_WORDS[_other_topic(rng, topic)]
                choices.append(" ".join(rng.sample(other, size)))
        rows.append({"context": context, "question": question, "choices": choices, "answer_index": answer})
    return rows


def retrieval_sets(rng: random.Random, claims: int, contexts: int) -> tuple[list[dict], list[dict]]:
    """Distinct 50-60 word contexts and short claims pointing at one gold context each."""
    seen: set[str] = set()
    texts = []
    for _ in range(contexts):
        topic = rng.randrange(NUM_TOPICS)
        texts.append(_unique(rng, seen, lambda: _sentence(rng, topic, 50, 60)))
    claim_rows = []
    for _ in range(claims):
        gold = rng.randrange(contexts)
        content = [w for w in texts[gold].split() if w not in FUNCTION_WORDS]
        words = rng.sample(content, min(len(content), rng.randint(5, 8)))
        claim_rows.append({"claim": " ".join(words), "gold_index": gold})
    return claim_rows, [{"text": t} for t in texts]


def fixture_pairs() -> list[dict]:
    """A small fixed NLI corpus that mentions every pool word at least once.

    It does not depend on the workload seed, so the fixture vocabulary is
    the same for every run.
    """
    rng = random.Random("consem-bench-fixture")
    rows = nli_pairs(rng, 64)
    chunks = [list(POOL[i : i + 12]) for i in range(0, len(POOL), 12)]
    for i, chunk in enumerate(chunks):
        premise = " ".join(chunk)
        rows.append({"premise": premise, "hypothesis": " ".join(chunk[::-1]), "label": "entailment"})
        contra = " ".join(chunks[(i + 1) % len(chunks)])
        rows.append({"premise": premise, "hypothesis": contra, "label": "contradiction"})
    return rows


def write_jsonl(rows: list[dict], path: Path) -> Path:
    lines = [json.dumps(row, sort_keys=True) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


# Input sizes per workload; recorded in every result.
SIZES = {
    "pretrain-short": {"premises": 200},
    "finetune-mrc": {"train_questions": 48, "dev_questions": 16, "test_questions": 96},
    "embed-retrieve": {"premises": 250, "claims": 1000, "contexts": 1000},
}


def generate(workload: str, seed: int, out: Path) -> dict[str, Path]:
    """Write the inputs of ``workload`` for ``seed`` under ``out``; return their paths."""
    out.mkdir(parents=True, exist_ok=True)
    sizes = SIZES[workload]

    def rng(purpose: str) -> random.Random:
        return random.Random(f"{workload}/{seed}/{purpose}")

    if workload == "pretrain-short":
        return {"nli": write_jsonl(nli_pairs(rng("nli"), sizes["premises"]), out / "nli.jsonl")}
    if workload == "finetune-mrc":
        return {
            split: write_jsonl(mrc_records(rng(split), sizes[f"{split}_questions"]), out / f"mrc_{split}.jsonl")
            for split in ("train", "dev", "test")
        }
    if workload == "embed-retrieve":
        claims, contexts = retrieval_sets(rng("retrieval"), sizes["claims"], sizes["contexts"])
        return {
            "pairs": write_jsonl(nli_pairs(rng("pairs"), sizes["premises"]), out / "pairs.jsonl"),
            "claims": write_jsonl(claims, out / "claims.jsonl"),
            "contexts": write_jsonl(contexts, out / "contexts.jsonl"),
        }
    raise ValueError(f"unknown workload {workload!r}")
