"""Deterministic tokenization, vocabulary handling, and NLI triple mining.

Text is lowercased and split on whitespace with punctuation separated
into its own tokens, so the same corpus always produces the same token
stream.  Vocabularies assign ids 0..4 to the reserved tokens and order
the rest by descending frequency, ties broken alphabetically, which
makes vocabulary files byte-for-byte reproducible.

Triple mining pairs, within each premise group of a labeled corpus, the
k-th entailment hypothesis with the k-th contradiction hypothesis in
input order and drops neutral examples entirely.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .errors import ConfigError, DataError, FormatError, VocabularyError
from .files import read_utf8, write_atomic

__all__ = [
    "ContrastiveTriple",
    "DatasetStats",
    "LeakageViolation",
    "NliExample",
    "SourceStats",
    "TokenSequence",
    "Vocabulary",
    "build_vocab",
    "encode_pair",
    "encode_single",
    "json_field",
    "leakage_guard",
    "load_jsonl",
    "load_nli_jsonl",
    "load_triples_jsonl",
    "prepare_contrastive",
    "save_triples_jsonl",
    "write_jsonl",
]

PAD_TOKEN = "[PAD]"
CLS_TOKEN = "[CLS]"
SEP_TOKEN = "[SEP]"
UNK_TOKEN = "[UNK]"
MASK_TOKEN = "[MASK]"
RESERVED_TOKENS = (PAD_TOKEN, CLS_TOKEN, SEP_TOKEN, UNK_TOKEN, MASK_TOKEN)

PAD_ID, CLS_ID, SEP_ID, UNK_ID, MASK_ID = range(5)

NLI_LABELS = ("entailment", "contradiction", "neutral")

_TOKEN_RE = re.compile(r"\w+|[^\w\s]", re.UNICODE)


def split_text(text: str) -> list[str]:
    """Lowercase and split into word / punctuation tokens."""
    return _TOKEN_RE.findall(text.lower())


@dataclass
class Vocabulary:
    """Immutable token/id mapping; index in ``tokens`` is the id."""

    tokens: list[str]
    index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        self.index = {token: i for i, token in enumerate(self.tokens)}
        if len(self.index) != len(self.tokens):
            raise VocabularyError("vocabulary contains duplicate tokens")
        if tuple(self.tokens[:5]) != RESERVED_TOKENS:
            raise VocabularyError(f"vocabulary must start with the reserved tokens {RESERVED_TOKENS}")

    @property
    def size(self) -> int:
        return len(self.tokens)

    def id_for(self, token: str) -> int:
        return self.index.get(token, UNK_ID)

    def token_for(self, token_id: int) -> str:
        if not 0 <= token_id < len(self.tokens):
            raise VocabularyError(f"token id {token_id} out of range for vocabulary of size {len(self.tokens)}")
        return self.tokens[token_id]

    def content_hash(self) -> str:
        """SHA-256 of the serialized token list; stored in checkpoints."""
        payload = "\n".join(self.tokens).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()

    def require_hash(self, vocab_hash: str, what: str) -> None:
        """Raise VocabularyError unless ``vocab_hash``, the hash ``what`` was built with, is this vocabulary's."""
        if vocab_hash != self.content_hash():
            raise VocabularyError(f"{what} was built with a different vocabulary")

    def save(self, path: str | Path) -> None:
        write_atomic(path, ("\n".join(self.tokens) + "\n").encode("utf-8"))

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        lines = read_utf8(path, FormatError).splitlines()
        if len(lines) < len(RESERVED_TOKENS):
            raise FormatError(f"vocabulary file {path} is too short")
        return cls(tokens=list(lines))


def build_vocab(corpus: Iterable[str], min_count: int = 1) -> Vocabulary:
    """Count tokens over ``corpus`` and keep those with frequency >= ``min_count``.

    Non-reserved tokens are ordered by (frequency desc, token asc) after the
    five reserved tokens.  Corpus tokens that collide with a reserved literal
    are dropped rather than duplicated.
    """
    if min_count < 1:
        raise ConfigError(f"min_count must be >= 1, got {min_count}")
    counts: Counter[str] = Counter()
    for text in corpus:
        counts.update(split_text(text))
    kept = [
        token
        for token, count in counts.items()
        if count >= min_count and token not in RESERVED_TOKENS
    ]
    kept.sort(key=lambda token: (-counts[token], token))
    return Vocabulary(tokens=list(RESERVED_TOKENS) + kept)


@dataclass
class TokenSequence:
    """Token ids of one sequence; unpadded, so ``length`` equals ``real_length``.

    ``encoder.forward_batch`` pads each batch to its longest sequence.
    """

    ids: list[int]

    @property
    def length(self) -> int:
        return len(self.ids)

    real_length = length


def encode_single(text: str, vocab: Vocabulary, max_len: int) -> TokenSequence:
    """Encode one sentence as ``[CLS] text [SEP]``, truncated to at most ``max_len`` ids."""
    if max_len < 2:
        raise ConfigError(f"max_len must be >= 2 to fit [CLS] and [SEP], got {max_len}")
    body = [vocab.id_for(t) for t in split_text(text)][: max_len - 2]
    return TokenSequence(ids=[CLS_ID] + body + [SEP_ID])


def encode_pair(text_a: str, text_b: str, vocab: Vocabulary, max_len: int) -> TokenSequence:
    """Encode a pair as ``[CLS] a [SEP] b [SEP]``, truncated to at most ``max_len`` ids.

    When the pair is too long, tokens are removed one at a time from the end
    of whichever segment is currently longer (the first segment on ties), so
    both segments stay represented.
    """
    if max_len < 4:
        raise ConfigError(f"max_len must be >= 4 to fit both segments, got {max_len}")
    a = [vocab.id_for(t) for t in split_text(text_a)]
    b = [vocab.id_for(t) for t in split_text(text_b)]
    budget = max_len - 3
    while len(a) + len(b) > budget:
        if a and len(a) >= len(b):
            a.pop()
        else:
            b.pop()
    return TokenSequence(ids=[CLS_ID] + a + [SEP_ID] + b + [SEP_ID])


@dataclass
class NliExample:
    """One labeled premise/hypothesis pair."""

    premise: str
    hypothesis: str
    label: str
    source: str = "default"

    def __post_init__(self):
        if self.label not in NLI_LABELS:
            raise DataError(f"unknown NLI label {self.label!r}; expected one of {NLI_LABELS}")


@dataclass
class ContrastiveTriple:
    """Anchor sentence with one entailed positive and one contradicting hard negative."""

    sentence1: str
    sentence2: str
    hard_neg: str


@dataclass
class SourceStats:
    """Per-source counts mirroring one row of the preparation summary."""

    premises: int = 0
    entailment: int = 0
    contradiction: int = 0
    triples: int = 0


@dataclass
class DatasetStats:
    """Preparation counts per source plus a total row."""

    per_source: dict[str, SourceStats]

    @property
    def total(self) -> SourceStats:
        return SourceStats(
            premises=sum(s.premises for s in self.per_source.values()),
            entailment=sum(s.entailment for s in self.per_source.values()),
            contradiction=sum(s.contradiction for s in self.per_source.values()),
            triples=sum(s.triples for s in self.per_source.values()),
        )

    def to_dict(self) -> dict:
        return {
            "sources": {name: asdict(s) for name, s in sorted(self.per_source.items())},
            "total": asdict(self.total),
        }


def _normalize_ws(text: str) -> str:
    return " ".join(text.split())


def prepare_contrastive(examples: Sequence[NliExample]) -> tuple[list[ContrastiveTriple], DatasetStats]:
    """Mine (anchor, positive, hard negative) triples from a labeled NLI corpus.

    Examples are grouped by (source, whitespace-normalized premise) in first
    appearance order.  Within a group, the k-th entailment hypothesis is
    paired with the k-th contradiction hypothesis (both in input order) and
    min(#entailment, #contradiction) triples are emitted.  Neutral examples
    are counted toward nothing.  Degenerate pairs whose positive equals the
    hard negative are dropped.
    """
    groups: dict[tuple[str, str], dict] = {}
    stats: dict[str, SourceStats] = {}
    for ex in examples:
        key = (ex.source, _normalize_ws(ex.premise))
        if key not in groups:
            groups[key] = {"premise": ex.premise, "entailment": [], "contradiction": []}
            stats.setdefault(ex.source, SourceStats()).premises += 1
        if ex.label == "entailment":
            groups[key]["entailment"].append(ex.hypothesis)
            stats[ex.source].entailment += 1
        elif ex.label == "contradiction":
            groups[key]["contradiction"].append(ex.hypothesis)
            stats[ex.source].contradiction += 1
    triples: list[ContrastiveTriple] = []
    for (source, _), group in groups.items():
        for positive, negative in zip(group["entailment"], group["contradiction"]):
            if positive == negative:
                continue
            triples.append(ContrastiveTriple(group["premise"], positive, negative))
            stats[source].triples += 1
    return triples, DatasetStats(per_source=stats)


@dataclass
class LeakageViolation:
    """A triple sentence that also appears verbatim in a held-out set."""

    triple_index: int
    fieldname: str
    sentence: str


def leakage_guard(
    triples: Sequence[ContrastiveTriple], held_out: Iterable[str]
) -> list[LeakageViolation]:
    """Report every triple field whose text appears verbatim among ``held_out``."""
    held = set(held_out)
    violations: list[LeakageViolation] = []
    for i, triple in enumerate(triples):
        for fieldname in ("sentence1", "sentence2", "hard_neg"):
            sentence = getattr(triple, fieldname)
            if sentence in held:
                violations.append(LeakageViolation(i, fieldname, sentence))
    return violations


def load_jsonl(path: str | Path) -> list[tuple[str, dict]]:
    """(``<path>:<line>``, object) for every non-blank line; each must hold a JSON object.

    Lines end at a newline only: U+2028, U+2029 and U+0085 may sit raw in a
    JSON string, as :func:`write_jsonl` writes them.
    """
    rows = []
    for lineno, raw in enumerate(read_utf8(path, DataError).split("\n"), start=1):
        if not raw.strip():
            continue
        where = f"{path}:{lineno}"
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise DataError(f"{where}: malformed JSON ({exc.msg})") from exc
        except RecursionError as exc:
            raise DataError(f"{where}: malformed JSON (nested too deeply)") from exc
        if not isinstance(obj, dict):
            raise DataError(f"{where}: expected a JSON object")
        rows.append((where, obj))
    return rows


def write_jsonl(path: str | Path, rows: Iterable[dict]) -> None:
    """Write each row as one sorted-key JSON object, non-ASCII kept raw, plus a newline, atomically."""
    text = "".join(json.dumps(row, sort_keys=True, ensure_ascii=False) + "\n" for row in rows)
    write_atomic(path, text.encode("utf-8"))


_JSON_TYPES = {
    type(None): "null",
    bool: "a boolean",
    int: "an integer",
    float: "a number",
    str: "a string",
    list: "a list",
    dict: "an object",
}


def _require_utf8(text: str, where: str, name: str) -> None:
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise DataError(f"{where}: {name} must be UTF-8 text, got a lone surrogate at character {exc.start}") from None


def json_field(record: dict, key: str, where: str, kinds: tuple[type, ...] = (str,), nonblank: bool = False):
    """``record[key]``, which must be present and of one of ``kinds`` exactly.

    ``where`` names the record as ``<path>:<line>`` in the error.  Types are
    compared exactly, so JSON ``true`` is no integer and ``null`` no string.
    A list must hold only strings (the one list field, MRC ``choices``, is a
    list of texts); with ``nonblank`` a string must hold more than whitespace.
    Every string must encode as UTF-8: JSON can escape a lone surrogate
    (``"\\ud800"``), which no artifact could then be written with.
    """
    if key not in record:
        raise DataError(f"{where}: missing field {key!r}")
    value = record[key]
    if type(value) not in kinds:
        wanted = " or ".join(_JSON_TYPES[kind] for kind in kinds)
        raise DataError(f"{where}: field {key!r} must be {wanted}, got {_JSON_TYPES[type(value)]}")
    if type(value) is str:
        _require_utf8(value, where, f"field {key!r}")
    if type(value) is list:
        for i, item in enumerate(value):
            if type(item) is not str:
                raise DataError(f"{where}: field {key!r} item {i} must be a string, got {_JSON_TYPES[type(item)]}")
            _require_utf8(item, where, f"field {key!r} item {i}")
    if nonblank and not value.strip():
        raise DataError(f"{where}: field {key!r} must be a non-empty string")
    return value


def load_nli_jsonl(path: str | Path) -> list[NliExample]:
    """Read labeled pairs from JSON lines with premise/hypothesis/label fields.

    Premise and hypothesis must be non-blank strings, the rule
    :func:`load_triples_jsonl` applies to the triples mined from them.
    """
    examples: list[NliExample] = []
    for where, record in load_jsonl(path):
        premise = json_field(record, "premise", where, nonblank=True)
        hypothesis = json_field(record, "hypothesis", where, nonblank=True)
        label = json_field(record, "label", where)
        source = json_field(record, "source", where) if "source" in record else "default"
        try:
            examples.append(NliExample(premise, hypothesis, label, source))
        except DataError as exc:
            raise DataError(f"{where}: {exc}") from exc
    return examples


def save_triples_jsonl(triples: Sequence[ContrastiveTriple], path: str | Path) -> None:
    write_jsonl(path, (asdict(t) for t in triples))


def load_triples_jsonl(path: str | Path) -> list[ContrastiveTriple]:
    """Read training triples, validating that every field is a non-empty string."""
    triples: list[ContrastiveTriple] = []
    for where, record in load_jsonl(path):
        triple = ContrastiveTriple(
            *(json_field(record, key, where, nonblank=True) for key in ("sentence1", "sentence2", "hard_neg"))
        )
        if triple.sentence2 == triple.hard_neg:
            raise DataError(f"{where}: positive and hard negative are identical")
        triples.append(triple)
    return triples
