"""In-memory span tracing around the public functions of each consem module.

A :class:`Tracer` records one span per call of a wrapped function: its name
(``<module>.<what>``), start, end and the index of the enclosing span.  The
benchmark opens the root spans itself, one per CLI command.  Counters are
updated at the same boundaries, so ratios such as the real-token share are
measured where the work happens.

Wrappers are installed at every import site of a wrapped name: a function
imported with ``from .encoder import forward_batch`` lives on in
``consem.pretrain`` and ``consem.finetune`` as well as ``consem.encoder``,
and each of those attributes is replaced while tracing is on.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import json
import os
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans and counters of one traced unit of work (a setup or a pass)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append(Span(name, self.clock(), float("nan"), parent))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = self.clock()

    def wrap(self, name: str, fn: Callable, count: Callable | None = None) -> Callable:
        """``fn`` recording a ``name`` span per call; ``count(counts, args, kwargs, result)`` after it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.counts[f"{name}_calls"] += 1
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return traced


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that its children cover."""
    children: list[list[Span]] = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result = []
    for span, kids in zip(spans, children):
        covered = 0.0
        reach = span.start
        for kid in sorted(kids, key=lambda k: k.start):
            lo, hi = max(kid.start, reach), min(kid.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(span.duration - covered)
    return result


def module_self_times(spans: list[Span]) -> dict[str, float]:
    totals: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        totals[span.module] = totals.get(span.module, 0.0) + own
    return totals


def write(path: Path, units: dict[str, Tracer]) -> None:
    """One JSON line per span, tagged with the traced unit (setup or pass) it belongs to."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for unit, tracer in units.items():
            for index, s in enumerate(tracer.spans):
                record = {"unit": unit, "id": index, "name": s.name, "start": s.start, "end": s.end, "parent": s.parent}
                fh.write(json.dumps(record) + "\n")


def totals_by_name(spans: list[Span]) -> dict[str, float]:
    totals: dict[str, float] = {}
    for span in spans:
        totals[span.name] = totals.get(span.name, 0.0) + span.duration
    return totals


# --- what gets wrapped -----------------------------------------------------

TENSOR_OPS = (
    "add", "sub", "mul", "scale", "matmul", "transpose", "reshape", "concat",
    "gather_rows", "reduce_sum", "mean", "softmax", "logsumexp", "layer_norm",
    "gelu", "normalize_rows", "cosine_similarity", "cross_entropy", "dropout",
)


def _count_tokens(counts, args, kwargs, result):
    seqs = args[0]
    counts["encoder.token_slots"] += sum(s.length for s in seqs)
    counts["encoder.real_tokens"] += sum(s.real_length for s in seqs)


def _count_tape(counts, args, kwargs, result):
    tape = args[1] if len(args) > 1 else kwargs["tape"]
    counts["tensor.tape_nodes"] += len(tape)


def _count_bytes(counts, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    counts["checkpoint.bytes_written"] += os.path.getsize(path)


def targets() -> list[tuple[str, str, str, Callable | None]]:
    """(module, attribute, span name, counter hook) for every wrapped function."""
    wrapped = [
        ("consem.text", "encode_single", "text.encode", None),
        ("consem.text", "encode_pair", "text.encode", None),
        ("consem.text", "prepare_contrastive", "text.prepare", None),
        ("consem.text", "build_vocab", "text.build_vocab", None),
        ("consem.encoder", "forward_batch", "encoder.forward", _count_tokens),
        ("consem.encoder", "pool", "encoder.pool", None),
        ("consem.encoder", "embed_sentences", "encoder.embed", None),
        ("consem.tensor", "backward", "tensor.backward", _count_tape),
        ("consem.pretrain", "train", "pretrain.train", None),
        ("consem.pretrain", "contrastive_loss", "pretrain.contrastive_loss", None),
        ("consem.pretrain", "mask_for_mlm", "pretrain.mask", None),
        ("consem.finetune", "finetune_classifier", "finetune.train", None),
        ("consem.finetune", "evaluate_mrc", "finetune.evaluate_mrc", None),
        ("consem.finetune", "mrc_scores", "finetune.mrc_scores", None),
        ("consem.analysis", "rank_candidates", "analysis.rank", None),
        ("consem.analysis", "accuracy_at_topk", "analysis.topk", None),
        ("consem.analysis", "uniformity", "analysis.uniformity", None),
        ("consem.analysis", "alignment", "analysis.alignment", None),
        ("consem.analysis", "save_embeddings", "analysis.save_embeddings", None),
        ("consem.checkpoint", "save_checkpoint", "checkpoint.save", _count_bytes),
        ("consem.checkpoint", "load_checkpoint", "checkpoint.load", None),
    ]
    wrapped += [("consem.tensor", op, f"tensor.op.{op}", None) for op in TENSOR_OPS]
    return wrapped


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Replace every wrapped name at each of its import sites; restore on exit.

    The CLI is imported first: it imports every other module, and a module
    first imported while wrappers are installed would keep them for good.
    """
    importlib.import_module("consem.cli")
    modules = [m for name, m in sorted(sys.modules.items()) if name == "consem" or name.startswith("consem.")]
    undo: list[tuple[object, str, object]] = []
    try:
        for module_name, attr, span_name, count in targets():
            original = getattr(sys.modules[module_name], attr)
            wrapper = tracer.wrap(span_name, original, count)
            for module in modules:
                if getattr(module, attr, None) is original:
                    undo.append((module, attr, original))
                    setattr(module, attr, wrapper)
        adamw = sys.modules["consem.optim"].AdamW
        undo.append((adamw, "step", adamw.step))
        adamw.step = tracer.wrap("optim.step", adamw.step)
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
