"""Tests of the benchmark's own code.

Run from the repository root:

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
DOC = json.loads((BENCH / "metrics.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# --- generator -----------------------------------------------------------------


def _bytes(workload: str, seed: int, out: Path) -> dict[str, bytes]:
    return {key: path.read_bytes() for key, path in gen.generate(workload, seed, out).items()}


@pytest.mark.parametrize("workload", sorted(gen.SIZES))
def test_generator_repeats_per_seed_and_differs_across_seeds(tmp_path, workload):
    first = _bytes(workload, 7, tmp_path / "a")
    again = _bytes(workload, 7, tmp_path / "b")
    other = _bytes(workload, 8, tmp_path / "c")
    assert first == again
    assert all(first[key] != other[key] for key in first)


def _texts(workload: str, out: Path) -> dict[str, list[str]]:
    paths = gen.generate(workload, 3, out)
    rows = {key: [json.loads(line) for line in path.read_text().splitlines()] for key, path in paths.items()}
    if workload == "pretrain-short":
        return {"sentence": [t for r in rows["nli"] for t in (r["premise"], r["hypothesis"])]}
    if workload == "finetune-mrc":
        records = rows["train"] + rows["dev"] + rows["test"]
        return {
            "context": [r["context"] for r in records],
            "question": [r["question"] for r in records],
            "choice": [c for r in records for c in r["choices"]],
        }
    return {
        "sentence": [t for r in rows["pairs"] for t in (r["premise"], r["hypothesis"])],
        "claim": [r["claim"] for r in rows["claims"]],
        "long context": [r["text"] for r in rows["contexts"]],
    }


LENGTHS = {
    "sentence": (8, 14), "context": (30, 40), "question": (4, 6), "choice": (2, 3),
    "claim": (5, 8), "long context": (50, 60),
}


@pytest.mark.parametrize("workload", sorted(gen.SIZES))
def test_generated_texts_use_the_pool_within_their_length_ranges(tmp_path, workload):
    pool = set(gen.POOL)
    for kind, texts in _texts(workload, tmp_path).items():
        lo, hi = LENGTHS[kind]
        assert all(lo <= len(t.split()) <= hi for t in texts), kind
        assert {w for t in texts for w in t.split()} <= pool, kind


def test_fixture_corpus_covers_every_pool_word_in_mined_triples():
    from consem.text import NliExample, build_vocab, prepare_contrastive

    examples = [NliExample(r["premise"], r["hypothesis"], r["label"]) for r in gen.fixture_pairs()]
    triples, _ = prepare_contrastive(examples)
    vocab = build_vocab(t for triple in triples for t in (triple.sentence1, triple.sentence2, triple.hard_neg))
    assert set(gen.POOL) <= set(vocab.tokens)


def test_generated_sizes_match_the_recorded_sizes(tmp_path):
    paths = gen.generate("embed-retrieve", 1, tmp_path)
    pairs = [json.loads(line) for line in paths["pairs"].read_text().splitlines()]
    texts = {t for r in pairs for t in (r["premise"], r["hypothesis"])}
    assert len(texts) == 4 * gen.SIZES["embed-retrieve"]["premises"]
    nli = gen.generate("pretrain-short", 1, tmp_path / "p")["nli"].read_text().splitlines()
    assert len(nli) == 3 * gen.SIZES["pretrain-short"]["premises"]


# --- spans and self time -----------------------------------------------------------


def _tree() -> list[spans.Span]:
    # cli.x [0, 10] > encoder.a [1, 4] > tensor.b [2, 3];  cli.x > tensor.c [5, 9]
    return [
        spans.Span("cli.x", 0.0, 10.0, None),
        spans.Span("encoder.a", 1.0, 4.0, 0),
        spans.Span("tensor.b", 2.0, 3.0, 1),
        spans.Span("tensor.c", 5.0, 9.0, 0),
    ]


def test_self_time_subtracts_the_time_children_cover():
    assert spans.self_times(_tree()) == [3.0, 2.0, 1.0, 4.0]


def test_module_self_times_add_up_to_the_root_wall():
    totals = spans.module_self_times(_tree())
    assert totals == {"cli": 3.0, "encoder": 2.0, "tensor": 5.0}
    assert sum(totals.values()) == 10.0


def test_overlapping_children_are_counted_once():
    tree = [
        spans.Span("cli.x", 0.0, 10.0, None),
        spans.Span("text.a", 1.0, 6.0, 0),
        spans.Span("text.b", 4.0, 8.0, 0),
        spans.Span("text.c", 9.0, 12.0, 0),
    ]
    assert spans.self_times(tree)[0] == 10.0 - 7.0 - 1.0


def test_tracer_records_nesting_and_counts():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("tensor.op", lambda x: x + 1)
    outer = tracer.wrap("encoder.f", lambda x: inner(inner(x)), count=lambda c, a, k, r: c.update({"encoder.n": r}))
    with tracer.span("cli.run"):
        assert outer(1) == 3
    assert [(s.name, s.parent) for s in tracer.spans] == [
        ("cli.run", None), ("encoder.f", 0), ("tensor.op", 1), ("tensor.op", 1)
    ]
    assert tracer.counts == {"encoder.f_calls": 1, "tensor.op_calls": 2, "encoder.n": 3}
    assert sum(spans.module_self_times(tracer.spans).values()) == tracer.spans[0].duration


def test_written_spans_round_trip(tmp_path):
    import gzip

    path = tmp_path / "trace.jsonl.gz"
    spans.write(path, {"pass1": spans.Tracer()})
    tracer = spans.Tracer()
    tracer.spans = _tree()
    spans.write(path, {"setup": spans.Tracer(), "pass1": tracer})
    rows = [json.loads(line) for line in gzip.open(path, "rt", encoding="utf-8")]
    assert [(r["unit"], r["id"], r["name"], r["parent"]) for r in rows] == [
        ("pass1", i, s.name, s.parent) for i, s in enumerate(_tree())
    ]


def test_installed_wraps_every_import_site_and_restores_them():
    import consem.encoder
    import consem.finetune
    import consem.pretrain

    original = consem.encoder.forward_batch
    with spans.installed(spans.Tracer()):
        assert consem.pretrain.forward_batch is consem.finetune.forward_batch is consem.encoder.forward_batch
        assert consem.encoder.forward_batch is not original
    assert consem.pretrain.forward_batch is consem.finetune.forward_batch is consem.encoder.forward_batch is original


# --- metric names against BENCHMARK.json -----------------------------------------------


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    names = [m["name"] for section in ("workloads", "end_to_end", "per_layer") for m in SPEC[section]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25 and metric["better"] in ("higher", "lower")
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"} and metric["better"] in ("higher", "lower")
    assert all(UNIT.match(m["unit"]) for s in ("end_to_end", "per_layer") for m in SPEC[s])
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_metric_document_covers_exactly_the_benchmark_metrics():
    assert list(DOC["end_to_end"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(set(doc) == set(run.WORKLOADS) for doc in DOC["end_to_end"].values())
    assert list(DOC["per_layer"]) == [m["name"] for m in SPEC["per_layer"]]


def test_end_to_end_metrics_are_the_benchmark_ones():
    items = [10, 4]
    passes = [run.Pass([1.0, 2.0], items, Path("p0")), run.Pass([2.0, 4.0], items, Path("p1")),
              run.Pass([4.0, 1.0], items, Path("p2"))]
    metrics = run.end_to_end([0.5, 0.7, 0.6], [0.0, 0.2, 0.1], passes, 123.0)
    assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
    assert metrics["first_cmd_items_per_s"] == 5.0 and metrics["last_cmd_items_per_s"] == 2.0
    assert metrics["setup_s"] == 0.7 and metrics["peak_rss_mb"] == 123.0


def _producible_per_layer_names() -> set[str]:
    from consem.cli import build_parser

    names = set()
    for _, _, span_name, _ in spans.targets():
        names |= {f"{span_name}_s", f"{span_name}_calls"}
    names |= {"optim.step_s", "optim.steps"}
    names |= {"encoder.token_slots", "encoder.real_tokens", "encoder.real_token_share", "tensor.tape_nodes",
              "checkpoint.bytes_written", "pretrain.step_ms.p50", "pretrain.step_ms.p90", "trace.overhead_ratio"}
    commands = build_parser()._subparsers._group_actions[0].choices
    names |= {f"cli.{command}_s" for command in commands}
    modules = {span_name.split(".")[0] for _, _, span_name, _ in spans.targets()} | {"cli", "optim"}
    names |= {f"{module}.self_s" for module in modules}
    return names


def test_every_per_layer_metric_can_be_produced_by_the_tracer():
    missing = [m["name"] for m in SPEC["per_layer"] if m["name"] not in _producible_per_layer_names()]
    assert not missing


def test_per_layer_reports_every_name_with_derived_values():
    ticks = iter(range(1000))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    tracer.counts.update({"encoder.token_slots": 100, "encoder.real_tokens": 20})
    with tracer.span("pretrain.train"):
        for _ in range(3):
            with tracer.span("optim.step"):
                pass
    names = [m["name"] for m in SPEC["per_layer"]]
    metrics = run.per_layer(spans.Tracer(), [tracer], 1.05, names)
    assert list(metrics) == names
    assert metrics["encoder.real_token_share"] == 0.2
    assert metrics["pretrain.step_ms.p50"] == 2000.0
    assert metrics["analysis.rank_s"] == 0.0 and metrics["trace.overhead_ratio"] == 1.05


def test_a_short_run_emits_exactly_the_benchmark_metrics_and_passes_its_checks():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(["--workload", "finetune-mrc", "--seed", "2", "--seconds", "0", "--trace", "0"]) == 0
    result = json.loads(out.getvalue().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_a_short_traced_run_emits_exactly_the_per_layer_metrics():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(["--workload", "finetune-mrc", "--seed", "2", "--seconds", "0", "--trace", "1"]) == 0
    lines = out.getvalue().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    assert "check ok pass1 self times add up" in lines
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["finetune.mrc_scores_calls"] > 0 and values["analysis.rank_calls"] == 0
    assert (ROOT / ".bench_work" / "trace-finetune-mrc.jsonl.gz").is_file()
