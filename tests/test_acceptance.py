"""Acceptance gate: nine numbered checks covering the whole package.

Each test prints one verdict line (run with ``pytest tests/test_acceptance.py -s``
to see them all) stating the bar and the measured value, then asserts.  The
checks are ordered so the cheap structural ones run before the two that
actually train: criterion 4 pretrains the default encoder for ten epochs and
criterion 8 fine-tunes classifier heads, so the module takes a few minutes.
"""

import json
import math
import time
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.stats import ortho_group

from conftest import (
    TOPICS,
    analytic_gradients,
    check_gradients,
    fd_at,
    make_mrc_task,
    make_pair_task,
    make_topic_nli,
    make_topic_triples,
    relative_error,
    topic_sentence,
)
from gradcases import GRAD_CASES, micro_encoder_case
from oracles import (
    accuracy_reference,
    alignment_reference,
    contrastive_loss_reference,
    macro_f1_reference,
    topk_reference,
    triple_counts_reference,
    uniformity_reference,
)

from consem import tensor as T
from consem.analysis import accuracy_at_topk, alignment, uniformity
from consem.cli import SWEEP_GRIDS, main
from consem.encoder import (
    EncoderConfig,
    EncoderWeights,
    PoolingStrategy,
    embed_sentences,
    forward_batch,
    parameter_names,
    pool,
)
from consem.finetune import FinetuneConfig, TaskKind, TaskSpec, finetune_classifier
from consem.metrics import ConfusionMatrix, accuracy, macro_f1, mrc_accuracy
from consem.pretrain import PretrainConfig, contrastive_loss, contrastive_scores, train
from consem.tensor import Tensor, precision
from consem.text import NliExample, TokenSequence, build_vocab, encode_single, prepare_contrastive


def _verdict(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {num} {label}: {detail}", flush=True)
    assert ok, f"criterion {num} ({label}): {detail}"


# ---------------------------------------------------------------- criterion 1

def test_1_gradients_match_finite_differences():
    """Every op and the full micro-encoder against central differences."""
    started = time.monotonic()
    worst = 0.0
    with precision(np.float64):
        for seed in range(100):
            for builder in GRAD_CASES.values():
                fn, params = builder(np.random.default_rng([seed, 17]))[:2]
                worst = max(worst, check_gradients(fn, params, h=1e-3))

        # One seed gets every coordinate; the rest sample two per parameter
        # so the encoder check still spans 100 seeds inside the time budget.
        fn, params, _ = micro_encoder_case(np.random.default_rng([0, 18]))
        worst = max(worst, check_gradients(fn, params, h=1e-3))
        for seed in range(1, 100):
            rng = np.random.default_rng([seed, 18])
            fn, params, _ = micro_encoder_case(rng)
            grads = analytic_gradients(fn, params)
            for t, grad in zip(params, grads):
                picks = rng.integers(0, t.data.size, size=min(2, t.data.size))
                for i in {int(v) for v in picks}:
                    numeric = fd_at(fn, t, i, h=1e-3)
                    worst = max(
                        worst,
                        relative_error(np.array(grad.reshape(-1)[i]), np.array(numeric)),
                    )
    elapsed = time.monotonic() - started
    _verdict(
        1,
        "gradient checks",
        worst < 1e-3 and elapsed < 60.0,
        f"max relative error {worst:.2e} (bar 1e-3) over 100 seeds in {elapsed:.1f}s (bar 60s)",
    )


# ---------------------------------------------------------------- criterion 2

def test_2_contrastive_loss_matches_scalar_reference():
    rng = np.random.default_rng(20240801)
    worst = 0.0
    with precision(np.float64):
        for _ in range(1000):
            n = int(rng.integers(1, 9))
            d = int(rng.integers(2, 17))
            tau = float(rng.choice([0.001, 0.05, 1.0]))
            a, p, g = (rng.normal(size=(n, d)) for _ in range(3))
            got = contrastive_loss(Tensor(a), Tensor(p), Tensor(g), tau).item()
            worst = max(worst, abs(got - contrastive_loss_reference(a, p, g, tau)))
        # One triple whose positive and negative are equidistant from the
        # anchor: both exponentials agree, so the loss must be exactly ln 2.
        symmetric = contrastive_loss(
            Tensor([[1.0, 0.0]]), Tensor([[0.0, 1.0]]), Tensor([[0.0, -1.0]]), 0.05
        ).item()
    ln2_err = abs(symmetric - math.log(2.0))
    _verdict(
        2,
        "loss oracle",
        worst < 1e-6 and ln2_err < 1e-9,
        f"worst |diff| {worst:.2e} over 1000 instances (bar 1e-6); "
        f"ln 2 anchor off by {ln2_err:.2e} (bar 1e-9)",
    )


# ---------------------------------------------------------------- criterion 3

def test_3_triple_mining_matches_enumeration():
    shaped = make_topic_nli(30, per_group=1)
    premises = len({ex.premise for ex in shaped})
    triples, _ = prepare_contrastive(shaped)
    one_per_premise = len(triples) == premises == 30

    rng = np.random.default_rng(42)
    mismatches = 0
    for _ in range(100):
        examples = []
        for g in range(int(rng.integers(3, 11))):
            premise = f"group {g} premise sentence"
            for j in range(int(rng.integers(0, 4))):
                examples.append(NliExample(premise, f"group {g} yes {j}", "entailment"))
            for j in range(int(rng.integers(0, 4))):
                examples.append(NliExample(premise, f"group {g} no {j}", "contradiction"))
            for j in range(int(rng.integers(0, 3))):
                examples.append(NliExample(premise, f"group {g} shrug {j}", "neutral"))
        order = rng.permutation(len(examples))
        examples = [examples[int(i)] for i in order]
        expected = triple_counts_reference(examples)
        mined, _ = prepare_contrastive(examples)
        counts: dict[str, int] = {}
        for tr in mined:
            counts[tr.sentence1] = counts.get(tr.sentence1, 0) + 1
        for (_, premise), want in expected.items():
            if counts.get(premise, 0) != want:
                mismatches += 1
        if len(mined) != sum(expected.values()):
            mismatches += 1
    _verdict(
        3,
        "triple mining",
        one_per_premise and mismatches == 0,
        f"1 ent + 1 con fixture: {len(triples)} triples from {premises} premises; "
        f"{mismatches} count mismatches over 100 random fixtures",
    )


# ---------------------------------------------------------------- criterion 4

def test_4_pretraining_shapes_the_embedding_space():
    """Ten epochs on 200 separable triples must move all four needles."""
    started = time.monotonic()
    triples = make_topic_triples(200, num_topics=20)
    corpus = [t for tr in triples for t in (tr.sentence1, tr.sentence2, tr.hard_neg)]
    vocab = build_vocab(corpus)
    encoder_config = EncoderConfig(vocab_size=vocab.size)
    config = PretrainConfig(
        tau=0.1, batch_size=8, epochs=10, learning_rate=1e-3, seed=0,
        pooling=PoolingStrategy.MEAN,
    )
    ckpt, _ = train(triples, config, vocab, encoder_config)
    weights = EncoderWeights.from_arrays(
        encoder_config, {n: ckpt.params[n] for n in parameter_names(encoder_config)}
    )
    init_weights = EncoderWeights.initialize(encoder_config, config.seed)

    def embed(texts, w=weights):
        return embed_sentences(texts, w, encoder_config, vocab, config.pooling)

    # Loss before and after, measured the same way: evaluation forward over
    # shuffled batches.  Dataset order would group each hard negative with
    # the next triple's same-topic anchor and inflate both numbers.
    order = np.random.default_rng(77).permutation(len(triples))
    shuffled = [triples[int(i)] for i in order]

    def corpus_loss(w):
        losses = []
        for start in range(0, len(shuffled), config.batch_size):
            chunk = shuffled[start : start + config.batch_size]
            a = embed([t.sentence1 for t in chunk], w)
            p = embed([t.sentence2 for t in chunk], w)
            g = embed([t.hard_neg for t in chunk], w)
            losses.append(contrastive_loss_reference(a, p, g, config.tau))
        return float(np.mean(losses))

    initial, final = corpus_loss(init_weights), corpus_loss(weights)
    halved = final <= 0.5 * initial

    held_out = make_topic_nli(20, per_group=1, num_topics=20)
    prem = embed([ex.premise for ex in held_out if ex.label == "entailment"])
    ent = embed([ex.hypothesis for ex in held_out if ex.label == "entailment"])
    con = embed([ex.hypothesis for ex in held_out if ex.label == "contradiction"])
    align_e = alignment(prem, ent)
    align_c = alignment(prem, con)

    pool_texts = [topic_sentence(t, 800 + i) for i, t in enumerate(TOPICS)]
    uni_trained = uniformity(embed(pool_texts))
    uni_init = uniformity(embed(pool_texts, EncoderWeights.initialize(encoder_config, 999)))

    claims = embed([topic_sentence(t, 700 + i) for i, t in enumerate(TOPICS)])
    candidates = embed(pool_texts)
    acc1 = accuracy_at_topk(claims, candidates, np.arange(len(TOPICS)), ks=(1,))[1]
    elapsed = time.monotonic() - started
    _verdict(
        4,
        "training efficacy",
        halved and align_e < align_c and uni_trained < uni_init and acc1 >= 0.9
        and elapsed < 300.0,
        f"loss {initial:.3f} -> {final:.3f} (need <= 50%); alignment E {align_e:.2f} "
        f"< C {align_c:.2f}; uniformity {uni_trained:.3f} < init {uni_init:.3f}; "
        f"retrieval acc@1 {acc1:.2f} (bar 0.9, chance 0.05) in {elapsed:.0f}s (bar 300s)",
    )


# ---------------------------------------------------------------- criterion 5

def test_5_metrics_match_brute_force():
    rng = np.random.default_rng(555)
    worst = {name: 0.0 for name in
             ("accuracy", "macro_f1", "mrc_accuracy", "topk", "alignment", "uniformity")}
    for _ in range(120):
        k = int(rng.integers(2, 6))
        n = int(rng.integers(1, 41))
        gold = rng.integers(0, k, size=n).tolist()
        pred = rng.integers(0, k, size=n).tolist()
        cm = ConfusionMatrix.from_pairs([f"c{i}" for i in range(k)], gold, pred)
        worst["accuracy"] = max(
            worst["accuracy"], abs(accuracy(cm) - accuracy_reference(gold, pred))
        )
        worst["macro_f1"] = max(
            worst["macro_f1"], abs(macro_f1(cm)[0] - macro_f1_reference(gold, pred, k))
        )
        chosen = rng.integers(0, 4, size=n).tolist()
        answer = rng.integers(0, 4, size=n).tolist()
        brute = sum(1 for c, a in zip(chosen, answer) if c == a) / n
        worst["mrc_accuracy"] = max(
            worst["mrc_accuracy"], abs(mrc_accuracy(chosen, answer) - brute)
        )

        pool_size = int(rng.integers(3, 13))
        width = int(rng.integers(3, 7))
        claims, pools, golds = [], [], []
        for _ in range(int(rng.integers(1, 7))):
            claims.append(rng.normal(size=width))
            pools.append(rng.normal(size=(pool_size, width)))
            golds.append(int(rng.integers(0, pool_size)))
        top = int(rng.integers(1, pool_size + 1))
        # Each claim has its own pool: one call per claim, averaged.
        per_claim = [
            accuracy_at_topk(claim[None, :], pool, [gold], ks=(top,))[top]
            for claim, pool, gold in zip(claims, pools, golds)
        ]
        worst["topk"] = max(
            worst["topk"], abs(float(np.mean(per_claim)) - topk_reference(claims, pools, golds, top))
        )

        pairs = [
            (rng.normal(size=width), rng.normal(size=width))
            for _ in range(int(rng.integers(1, 11)))
        ]
        lefts, rights = (np.array(side) for side in zip(*pairs))
        worst["alignment"] = max(
            worst["alignment"], abs(alignment(lefts, rights) - alignment_reference(pairs))
        )
        rows = rng.normal(size=(int(rng.integers(2, 11)), width))
        worst["uniformity"] = max(
            worst["uniformity"], abs(uniformity(rows) - uniformity_reference(rows))
        )
    bad = {name: err for name, err in worst.items() if err >= 1e-9}
    _verdict(
        5,
        "metric oracles",
        not bad,
        "worst |diff| over 120 fixtures: "
        + ", ".join(f"{name} {err:.1e}" for name, err in worst.items())
        + " (bar 1e-9 each)",
    )


# ------------------------------------------------------- criteria 6 and 7

_TINY = [
    "--num-layers", "2", "--num-heads", "2", "--hidden-size", "32",
    "--ff-size", "64", "--max-len", "20",
]


def _write_jsonl(path, rows):
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")


@pytest.fixture(scope="module")
def gate_ws(tmp_path_factory):
    """Prepared corpus, vocabulary, checkpoint, and model for the CLI checks."""
    root = tmp_path_factory.mktemp("gate")
    nli = root / "nli.jsonl"
    _write_jsonl(
        nli,
        [
            {"premise": ex.premise, "hypothesis": ex.hypothesis, "label": ex.label}
            for ex in make_topic_nli(24, per_group=1)
        ],
    )
    train_file = root / "train.jsonl"
    dev_file = root / "dev.jsonl"
    _write_jsonl(train_file, make_pair_task(24))
    _write_jsonl(dev_file, make_pair_task(8, start=24))
    claims = root / "claims.jsonl"
    contexts = root / "contexts.jsonl"
    _write_jsonl(
        claims,
        [{"claim": topic_sentence(t, 8100 + i), "gold_index": i} for i, t in enumerate(TOPICS[:8])],
    )
    _write_jsonl(
        contexts,
        [{"text": topic_sentence(t, 8200 + i)} for i, t in enumerate(TOPICS[:8])],
    )

    assert main(["prepare", "--nli", str(nli), "--out", str(root / "prep")]) == 0
    triples = root / "prep" / "triples.jsonl"
    assert main(["build-vocab", "--triples", str(triples), "--out", str(root / "vv")]) == 0
    vocab = root / "vv" / "vocab.txt"
    assert main(
        ["pretrain", "--triples", str(triples), "--vocab", str(vocab),
         "--out", str(root / "pre"), "--epochs", "2", "--batch-size", "8",
         "--seed", "3"] + _TINY
    ) == 0
    checkpoint = root / "pre" / "checkpoint.bin"
    assert main(
        ["finetune", "--checkpoint", str(checkpoint), "--vocab", str(vocab),
         "--train", str(train_file), "--dev", str(dev_file), "--task", "pair",
         "--ft-epochs", "2", "--out", str(root / "ft")]
    ) == 0
    return SimpleNamespace(
        root=root, nli=nli, train=train_file, dev=dev_file, claims=claims,
        contexts=contexts, triples=triples, vocab=vocab, checkpoint=checkpoint,
        model=root / "ft" / "model.bin",
    )


def test_6_sweeps_reproduce_the_grids(gate_ws):
    axes = {axis: SWEEP_GRIDS[axis] for axis in ("tau", "lambda", "mask_rate", "pooling")}
    expected_rows = {"tau": 6, "lambda": 7, "mask_rate": 6, "pooling": 4}
    problems = []
    for axis, grid in axes.items():
        out = gate_ws.root / f"sweep_{axis}"
        extra = ["--mlm-weight", "0.01"] if axis == "mask_rate" else []
        rc = main(
            ["sweep", "--axis", axis, "--triples", str(gate_ws.triples),
             "--vocab", str(gate_ws.vocab), "--train", str(gate_ws.train),
             "--dev", str(gate_ws.dev), "--out", str(out),
             "--epochs", "1", "--ft-epochs", "1", "--batch-size", "8"]
            + extra + _TINY
        )
        if rc != 0:
            problems.append(f"{axis} exit {rc}")
            continue
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        header, rows = lines[0], [line.split(",") for line in lines[1:]]
        if header != "value,dev_accuracy,dev_macro_f1,status":
            problems.append(f"{axis} header {header!r}")
        if len(rows) != expected_rows[axis] or [r[0] for r in rows] != list(grid):
            problems.append(f"{axis} rows {[r[0] for r in rows]}")
        for r in rows:
            if r[3] != "ok" or not 0.0 <= float(r[1]) <= 1.0:
                problems.append(f"{axis} row {r}")
    _verdict(
        6,
        "sweep grids",
        not problems,
        "tau/lambda/mask_rate/pooling produced 6/7/6/4 ok rows with dev accuracy"
        if not problems
        else "; ".join(problems),
    )


def _artifact_bytes(root) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_7_reruns_are_byte_identical(gate_ws):
    ws = gate_ws
    commands = {
        "prepare": ["prepare", "--nli", str(ws.nli)],
        "build-vocab": ["build-vocab", "--triples", str(ws.triples)],
        "pretrain": ["pretrain", "--triples", str(ws.triples), "--vocab", str(ws.vocab),
                     "--epochs", "2", "--batch-size", "8", "--seed", "3"] + _TINY,
        "finetune": ["finetune", "--checkpoint", str(ws.checkpoint), "--vocab", str(ws.vocab),
                     "--train", str(ws.train), "--dev", str(ws.dev), "--task", "pair",
                     "--ft-epochs", "2"],
        "evaluate": ["evaluate", "--model", str(ws.model), "--vocab", str(ws.vocab),
                     "--data", str(ws.dev)],
        "analyze": ["analyze", "--checkpoint", str(ws.checkpoint), "--vocab", str(ws.vocab),
                    "--pairs", str(ws.nli), "--attention-a", "the river stays calm",
                    "--attention-b", "people visit the river", "--save-embeddings"],
        "retrieve": ["retrieve", "--checkpoint", str(ws.checkpoint), "--vocab", str(ws.vocab),
                     "--claims", str(ws.claims), "--contexts", str(ws.contexts)],
        "sweep": ["sweep", "--axis", "tau", "--values", "0.05,0.1",
                  "--triples", str(ws.triples), "--vocab", str(ws.vocab),
                  "--train", str(ws.train), "--dev", str(ws.dev),
                  "--epochs", "1", "--ft-epochs", "1", "--batch-size", "8"] + _TINY,
    }
    unstable = []
    for name, argv in commands.items():
        outputs = []
        for attempt in ("a", "b"):
            out = ws.root / f"det_{name}_{attempt}"
            assert main(argv + ["--out", str(out)]) == 0, f"{name} rerun failed"
            outputs.append(_artifact_bytes(out))
        if outputs[0].keys() != outputs[1].keys():
            unstable.append(f"{name} file sets differ")
        elif any(outputs[0][k] != outputs[1][k] for k in outputs[0]):
            unstable.append(name)
    _verdict(
        7,
        "determinism",
        not unstable,
        "all eight commands wrote byte-identical artifacts on rerun"
        if not unstable
        else "differing outputs: " + ", ".join(unstable),
    )


# ---------------------------------------------------------------- criterion 8

def test_8_finetuning_learns_the_synthetic_tasks(micro_checkpoint):
    ckpt, _, vocab = micro_checkpoint
    _, pair_report = finetune_classifier(
        ckpt,
        TaskSpec(kind=TaskKind.PAIR),
        make_pair_task(64),
        make_pair_task(16, start=64),
        FinetuneConfig(batch_size=8, epochs=7, learning_rate=2e-3, seed=5),
        vocab,
    )
    choices = 4
    _, mrc_report = finetune_classifier(
        ckpt,
        TaskSpec(kind=TaskKind.MRC),
        make_mrc_task(96, choices=choices),
        make_mrc_task(16, start=96, choices=choices),
        FinetuneConfig(batch_size=8, epochs=7, learning_rate=1e-3, seed=9),
        vocab,
    )
    baseline = 1.0 / choices
    margin = (mrc_report.mrc_accuracy or 0.0) - baseline
    _verdict(
        8,
        "fine-tuning sanity",
        pair_report.accuracy >= 0.95 and margin >= 0.2,
        f"pair dev accuracy {pair_report.accuracy:.2f} (bar 0.95) within 7 epochs; "
        f"mrc {mrc_report.mrc_accuracy:.2f} vs {baseline:.2f} baseline "
        f"(margin {margin:+.2f}, bar +0.20)",
    )


# ---------------------------------------------------------------- criterion 9

def test_9_invariance_properties_hold():
    rng = np.random.default_rng(909)
    failures = []

    with precision(np.float64):
        worst_cos = 0.0
        for _ in range(100):
            d = int(rng.integers(2, 9))
            u, v = rng.normal(size=d), rng.normal(size=d)
            alpha, beta = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), size=2))
            # The cosine as contrastive_scores forms it: a dot of normalize_rows outputs.
            base = float(T.normalize_rows(Tensor(u)).data @ T.normalize_rows(Tensor(v)).data)
            scaled = float(
                T.normalize_rows(Tensor(alpha * u)).data @ T.normalize_rows(Tensor(beta * v)).data
            )
            worst_cos = max(worst_cos, abs(scaled - base))
        if worst_cos >= 1e-6:
            failures.append(f"cosine scale {worst_cos:.1e}")

        argmax_flips = 0
        for _ in range(100):
            n, d = int(rng.integers(2, 7)), int(rng.integers(3, 11))
            a, p, g = (rng.normal(size=(n, d)) for _ in range(3))
            rankings = []
            for tau in (0.001, 0.05, 1.0):
                scores = contrastive_scores(Tensor(a), Tensor(p), Tensor(g), tau)
                rankings.append(scores.data.argmax(axis=1))
            if not all((r == rankings[0]).all() for r in rankings[1:]):
                argmax_flips += 1
        if argmax_flips:
            failures.append(f"tau argmax flipped in {argmax_flips} instances")

    monotone_breaks = 0
    for _ in range(50):
        pool_size = int(rng.integers(2, 12))
        width = int(rng.integers(3, 7))
        n = int(rng.integers(1, 6))
        claims = rng.normal(size=(n, width))
        candidates = rng.normal(size=(pool_size, width))
        gold = rng.integers(0, pool_size, size=n)
        series = list(accuracy_at_topk(claims, candidates, gold, ks=range(1, pool_size + 1)).values())
        if any(b < a for a, b in zip(series, series[1:])) or series[-1] != 1.0:
            monotone_breaks += 1
    if monotone_breaks:
        failures.append(f"topk monotonicity broke {monotone_breaks} times")

    worst_rot = 0.0
    for i in range(40):
        d = int(rng.integers(2, 8))
        rotation = ortho_group.rvs(dim=d, random_state=i)
        pairs = [(rng.normal(size=d), rng.normal(size=d)) for _ in range(6)]
        lefts, rights = (np.array(side) for side in zip(*pairs))
        rotated = alignment(lefts @ rotation.T, rights @ rotation.T)
        worst_rot = max(worst_rot, abs(alignment(lefts, rights) - rotated))
        rows = rng.normal(size=(7, d))
        worst_rot = max(worst_rot, abs(uniformity(rows) - uniformity(rows @ rotation.T)))
    if worst_rot >= 1e-9:
        failures.append(f"rotation drift {worst_rot:.1e}")

    vocab = build_vocab(["the river stays calm", "people visit the glacier all summer"])
    config = EncoderConfig(
        vocab_size=vocab.size, num_layers=2, num_heads=2,
        hidden_size=16, ff_size=24, max_len=16, dropout=0.0,
    )
    weights = EncoderWeights.initialize(config, seed=3)
    # Padding: each text pooled alone and beside a longer batch-mate, which
    # pads it to the mate's length (8 and then the full max_len 16).
    worst_pad = 0.0
    mates = [TokenSequence(ids=[1] + [5] * (n - 2) + [2]) for n in (8, 16)]
    for text in ("the river stays calm", "people visit the glacier", "the glacier"):
        seq = encode_single(text, vocab, config.max_len)
        for strategy in PoolingStrategy:
            alone = pool(forward_batch([seq], weights), strategy).data[0]
            for mate in mates:
                padded = pool(forward_batch([seq, mate], weights), strategy).data[0]
                worst_pad = max(worst_pad, float(np.abs(alone - padded).max()))
    if worst_pad >= 1e-5:
        failures.append(f"padding drift {worst_pad:.1e}")

    _verdict(
        9,
        "invariances",
        not failures,
        "cosine scale, tau argmax, topk monotonicity, rotation, padding all stable"
        if not failures
        else "; ".join(failures),
    )
