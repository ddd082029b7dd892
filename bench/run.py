"""consem benchmark: drives the real CLI in-process on seeded, generated inputs.

Usage (from the repository root):

    python3 bench/run.py --workload pretrain-short --seed 1 --seconds 30 --trace 0

Each workload is a batch job.  One process runs its commands one after the
other, each after the previous one completes (a closed loop with one
client), and repeats that pass until ``--seconds`` is used up, at least
twice.  Throughputs are medians over passes.  BLAS is pinned to one thread
to match the package's one-core design.

With ``--trace 0`` the last stdout line holds the end-to-end metrics, with
no tracing installed.  With ``--trace 1`` traced passes alternate with
untraced ones and the last line holds the per-layer metrics from the spans.
Every run checks the program's outputs and counts each failed command or
check in ``failed``.  Earlier stdout lines record the environment, the
workload's named metrics and every check.
"""

from __future__ import annotations

import os
import sys

# Pinned before numpy is imported anywhere in this process or its children.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path

import gen
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"

SETUP_REPS = 5
MIN_PASSES = 2
FIXTURE_EPOCHS = 1
# Tolerated gap between the summed module self times and the traced command wall.
SELF_SUM_TOLERANCE = 0.01


@dataclass
class Command:
    argv: list[str]
    items: int  # work items, for the command's throughput


@dataclass
class Ledger:
    """Commands and checks attempted, with the reason for each failure."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    lines: list[str] = field(default_factory=list)

    def check(self, name: str, fn, *args) -> None:
        import checks

        self.attempted += 1
        try:
            fn(*args)
        except checks.CheckFailed as exc:
            self._fail(f"check {name}: {exc}")
        except Exception as exc:  # a crash inside a check is a failed check, not a dead benchmark
            self._fail(f"check {name}: {type(exc).__name__}: {exc}")
        else:
            self.lines.append(f"check ok {name}")

    def command(self, argv: list[str], tracer: spans.Tracer | None = None) -> float:
        """Run one CLI command in-process; return its wall time in seconds."""
        from consem.cli import main

        self.attempted += 1
        captured = io.StringIO()
        gc.collect()  # start each command from a collected heap, not from the last one's garbage
        start = time.perf_counter()
        with contextlib.redirect_stdout(captured):
            try:
                if tracer is None:
                    status = main(argv)
                else:
                    with tracer.span(f"cli.{argv[0]}"):
                        status = main(argv)
            except (Exception, SystemExit) as exc:  # argparse exits; a crash is a failed command
                status = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        if status != 0:
            self._fail(f"command {' '.join(argv)}: exit {status}")
        return wall

    def _fail(self, message: str) -> None:
        self.failures.append(message)
        self.lines.append(f"check FAILED {message}")


# --- workloads ---------------------------------------------------------------


class Workload:
    name = ""
    # names under which the first and the last timed command's throughput is reported
    first_metric = ""
    last_metric = ""

    def __init__(self, seed: int, work: Path, ledger: Ledger):
        self.seed = seed
        self.work = work
        self.ledger = ledger
        self.inputs = gen.generate(self.name, seed, work / "inputs")

    def build(self) -> None:
        """Untimed preparation the passes need (the fixture checkpoint and vocab)."""

    def setup_commands(self, out: Path) -> list[list[str]]:
        return []

    def pass_commands(self, out: Path) -> list[Command]:
        raise NotImplementedError

    def quality(self, out: Path) -> dict[str, tuple[float, str]]:
        """Deterministic quality sentinels: name -> (value, unit)."""
        raise NotImplementedError

    def check(self, out: Path) -> None:
        raise NotImplementedError


class FixtureWorkload(Workload):
    """Starts from a fixture checkpoint and vocab built by the code under test."""

    def build(self) -> None:
        import checks

        d = self.work / "fixture"
        d.mkdir(parents=True)
        nli = gen.write_jsonl(gen.fixture_pairs(), d / "nli.jsonl")
        self.vocab = d / "vocab.txt"
        self.checkpoint = d / "pre" / "checkpoint.bin"
        for argv in (
            ["prepare", "--nli", str(nli), "--out", str(d)],
            ["build-vocab", "--triples", str(d / "triples.jsonl"), "--out", str(d)],
            ["pretrain", "--triples", str(d / "triples.jsonl"), "--vocab", str(self.vocab),
             "--epochs", str(FIXTURE_EPOCHS), "--pooling", "Mean", "--out", str(d / "pre")],
        ):
            self.ledger.command(argv)
        self.ledger.check("fixture loss log", checks.loss_log, d / "pre" / "loss_log.csv", FIXTURE_EPOCHS)
        self.ledger.check("fixture checkpoint re-save", checks.resaves_identically, self.checkpoint)


class PretrainShort(Workload):
    name = "pretrain-short"
    first_metric = last_metric = "pretrain_triples_per_s"
    EPOCHS = 2
    VALIDATION_FRACTION = 0.1  # the pretrain default; sets how many triples train

    def setup_commands(self, out: Path) -> list[list[str]]:
        return [
            ["prepare", "--nli", str(self.inputs["nli"]), "--out", str(out)],
            ["build-vocab", "--triples", str(out / "triples.jsonl"), "--out", str(out)],
        ]

    def pass_commands(self, out: Path) -> list[Command]:
        prepared = self.work / "setup0"
        # The generator writes one entailment and one contradiction per premise: one triple each.
        triples = gen.SIZES[self.name]["premises"]
        train = triples - int(triples * self.VALIDATION_FRACTION)
        argv = ["pretrain", "--triples", str(prepared / "triples.jsonl"), "--vocab", str(prepared / "vocab.txt"),
                "--epochs", str(self.EPOCHS), "--batch-size", "8", "--mlm-weight", "0.1",
                "--seed", str(self.seed), "--out", str(out / "pre")]
        return [Command(argv, items=train * self.EPOCHS)]

    def quality(self, out: Path) -> dict[str, tuple[float, str]]:
        lines = (out / "pre" / "loss_log.csv").read_text(encoding="utf-8").splitlines()
        last_train = [line.split(",") for line in lines[1:] if line.split(",")[2] == "train"][-1]
        return {"pretrain_final_loss": (float(last_train[3]), "nats")}

    def check(self, out: Path) -> None:
        import checks

        self.ledger.check("one triple per premise", checks.record_count, self.work / "setup0" / "triples.jsonl",
                          gen.SIZES[self.name]["premises"])
        self.ledger.check("loss log", checks.loss_log, out / "pre" / "loss_log.csv", self.EPOCHS)
        self.ledger.check("checkpoint re-save", checks.resaves_identically, out / "pre" / "checkpoint.bin")


class FinetuneMrc(FixtureWorkload):
    name = "finetune-mrc"
    first_metric = "finetune_pairs_per_s"
    last_metric = "evaluate_questions_per_s"
    EPOCHS = 2
    CHOICES = 4

    def pass_commands(self, out: Path) -> list[Command]:
        sizes = gen.SIZES[self.name]
        return [
            Command(["finetune", "--checkpoint", str(self.checkpoint), "--vocab", str(self.vocab),
                     "--train", str(self.inputs["train"]), "--dev", str(self.inputs["dev"]), "--task", "mrc",
                     "--ft-epochs", str(self.EPOCHS), "--ft-batch-size", "16", "--seed", str(self.seed),
                     "--out", str(out / "ft")],
                    items=sizes["train_questions"] * self.CHOICES * self.EPOCHS),
            Command(["evaluate", "--model", str(out / "ft" / "model.bin"), "--vocab", str(self.vocab),
                     "--data", str(self.inputs["test"]), "--out", str(out / "eval")],
                    items=sizes["test_questions"]),
        ]

    def quality(self, out: Path) -> dict[str, tuple[float, str]]:
        dev = json.loads((out / "ft" / "dev_metrics.json").read_text(encoding="utf-8"))
        test = json.loads((out / "eval" / "metrics.json").read_text(encoding="utf-8"))
        return {"finetune_dev_accuracy": (dev["accuracy"], "ratio"), "evaluate_accuracy": (test["accuracy"], "ratio")}

    def check(self, out: Path) -> None:
        import checks

        self.ledger.check("model re-save", checks.resaves_identically, out / "ft" / "model.bin")
        self.ledger.check("mrc predictions", checks.mrc_predictions, out / "eval" / "predictions.jsonl",
                          out / "eval" / "metrics.json", gen.SIZES[self.name]["test_questions"])


class EmbedRetrieve(FixtureWorkload):
    name = "embed-retrieve"
    first_metric = "analyze_sentences_per_s"
    last_metric = "retrieve_claims_per_s"
    SENTENCES_PER_PREMISE = 4  # the premise and its three distinct hypotheses

    def pass_commands(self, out: Path) -> list[Command]:
        sizes = gen.SIZES[self.name]
        return [
            Command(["analyze", "--checkpoint", str(self.checkpoint), "--vocab", str(self.vocab),
                     "--pairs", str(self.inputs["pairs"]), "--save-embeddings", "--out", str(out / "an")],
                    items=self.SENTENCES_PER_PREMISE * sizes["premises"]),
            Command(["retrieve", "--checkpoint", str(self.checkpoint), "--vocab", str(self.vocab),
                     "--claims", str(self.inputs["claims"]), "--contexts", str(self.inputs["contexts"]),
                     "--out", str(out / "ret")],
                    items=sizes["claims"]),
        ]

    def quality(self, out: Path) -> dict[str, tuple[float, str]]:
        acc = json.loads((out / "ret" / "retrieval.json").read_text(encoding="utf-8"))["accuracy_at_k"]
        return {"retrieve_acc_at_1": (acc["1"], "ratio"), "retrieve_acc_at_10": (acc["10"], "ratio")}

    def check(self, out: Path) -> None:
        import checks

        self.ledger.check("retrieval brute-force recount", checks.retrieval_recount, out / "ret" / "retrieval.json",
                          self.inputs["claims"], self.inputs["contexts"], self.checkpoint, self.vocab)
        self.ledger.check("uniformity blocked recompute", checks.analysis_uniformity, out / "an" / "analysis.json",
                          out / "an" / "embeddings.bin", self.SENTENCES_PER_PREMISE * gen.SIZES[self.name]["premises"])


WORKLOADS = {w.name: w for w in (PretrainShort, FinetuneMrc, EmbedRetrieve)}


# --- measurement ---------------------------------------------------------------


def import_seconds() -> float:
    """Wall time of ``import consem`` in a fresh interpreter, as a user's command pays it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import consem"], env=env, cwd=ROOT, check=True, timeout=120)
    return time.perf_counter() - start


@dataclass
class Pass:
    walls: list[float]
    items: list[int]
    out: Path
    tracer: spans.Tracer | None = None


def run_pass(workload: Workload, out: Path, tracer: spans.Tracer | None = None) -> tuple[Pass, bool]:
    failures = len(workload.ledger.failures)
    commands = workload.pass_commands(out)
    with spans.installed(tracer) if tracer else contextlib.nullcontext():
        walls = [workload.ledger.command(cmd.argv, tracer) for cmd in commands]
    return Pass(walls, [cmd.items for cmd in commands], out, tracer), len(workload.ledger.failures) == failures


def run_passes(workload: Workload, seconds: float, traced: bool) -> tuple[list[Pass], list[float]]:
    """Closed loop: one pass after another until ``seconds`` is spent (at least two).

    When ``traced``, untraced and traced passes alternate, starting untraced.
    A pass is started only if the longest pass so far fits the time left.
    Untraced runs also time ``import consem`` before each pass and, up to
    ``SETUP_REPS`` samples, after the last one: the machine's speed drifts
    over minutes, so set-up is sampled across the same window as the passes.
    """
    passes: list[Pass] = []
    imports: list[float] = []
    start = time.perf_counter()
    while True:
        if not traced:
            imports.append(import_seconds())
        tracer = spans.Tracer() if traced and len(passes) % 2 == 1 else None
        done, ok = run_pass(workload, workload.work / f"pass{len(passes)}", tracer)
        passes.append(done)
        if not ok:
            break
        elapsed = time.perf_counter() - start
        longest = max(sum(p.walls) for p in passes)
        if len(passes) >= MIN_PASSES and elapsed + longest > seconds:
            break
    while not traced and len(imports) < SETUP_REPS:
        imports.append(import_seconds())
    return passes, imports


def rate(items: int, wall: float) -> float:
    return items / wall if wall > 0 else 0.0


def end_to_end(import_walls: list[float], setup_walls: list[float], passes: list[Pass], peak_rss_mb: float) -> dict:
    """Medians over passes; ``setup_s`` is the median import plus the median set-up commands."""
    first = statistics.median(rate(p.items[0], p.walls[0]) for p in passes)
    last = statistics.median(rate(p.items[-1], p.walls[-1]) for p in passes)
    return {
        "setup_s": statistics.median(import_walls) + statistics.median(setup_walls),
        "peak_rss_mb": peak_rss_mb,
        "first_cmd_items_per_s": first,
        "last_cmd_items_per_s": last,
    }


def unit_values(tracer: spans.Tracer) -> dict[str, float]:
    """Span totals (``<name>_s``), counters and module self times of one traced unit."""
    values: dict[str, float] = {f"{name}_s": t for name, t in spans.totals_by_name(tracer.spans).items()}
    values.update(tracer.counts)
    values.update({f"{m}.self_s": t for m, t in spans.module_self_times(tracer.spans).items()})
    return values


def step_intervals_ms(tracer: spans.Tracer) -> list[float]:
    """Time between consecutive optimizer steps inside each ``pretrain.train`` span."""
    by_train: dict[int, list[float]] = {}
    for s in tracer.spans:
        if s.name == "optim.step" and s.parent is not None and tracer.spans[s.parent].name == "pretrain.train":
            by_train.setdefault(s.parent, []).append(s.start)
    return [1000.0 * (b - a) for starts in by_train.values() for a, b in zip(starts, starts[1:])]


def per_layer(setup: spans.Tracer, traced: list[spans.Tracer], overhead_ratio: float, names: list[str]) -> dict:
    """One setup plus the mean of the traced passes, for every name in ``names`` (0 when unused)."""
    values = unit_values(setup)
    for tracer in traced:
        for key, value in unit_values(tracer).items():
            values[key] = values.get(key, 0.0) + value / len(traced)
    slots = values.get("encoder.token_slots", 0.0)
    values["encoder.real_token_share"] = values.get("encoder.real_tokens", 0.0) / slots if slots else 0.0
    values["optim.steps"] = values.get("optim.step_calls", 0.0)
    intervals = [ms for tracer in traced for ms in step_intervals_ms(tracer)]
    if len(intervals) >= 2:
        values["pretrain.step_ms.p50"] = statistics.median(intervals)
        values["pretrain.step_ms.p90"] = statistics.quantiles(intervals, n=10, method="inclusive")[8]
    values["trace.overhead_ratio"] = overhead_ratio
    return {name: float(values.get(name, 0.0)) for name in names}


def self_time_adds_up(tracer: spans.Tracer, command_walls: list[float]) -> None:
    import checks

    total = sum(spans.module_self_times(tracer.spans).values())
    wall = sum(command_walls)
    checks.require(abs(total - wall) <= SELF_SUM_TOLERANCE * wall,
                   f"module self times sum to {total:.6f} s, traced commands took {wall:.6f} s")


def blas_threads() -> dict[str, int]:
    """Thread count reported by each OpenBLAS library loaded in this process."""
    import ctypes

    libs = sorted({line.split()[-1] for line in open("/proc/self/maps") if "openblas" in line.lower()})
    found = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                found[Path(path).name] = getter()
                break
    return found


def environment(args, workload: Workload, passes: list[Pass]) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_pinned": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": gen.SIZES[workload.name],
        "passes": len(passes),
        "loop": "closed, one client, one process",
    }


def run(args, work: Path) -> tuple[dict, Ledger, list[str]]:
    import checks

    ledger = Ledger()
    workload = WORKLOADS[args.workload](args.seed, work, ledger)
    workload.build()
    report: list[str] = []

    setup_walls = []
    setup_tracer = spans.Tracer()
    reps = 1 if args.trace else SETUP_REPS
    import_seconds()  # warm the bytecode cache; users pay a cold one only once
    for rep in range(reps):
        out = work / f"setup{rep}"
        out.mkdir(parents=True)
        wall = 0.0
        with spans.installed(setup_tracer) if args.trace else contextlib.nullcontext():
            for argv in workload.setup_commands(out):
                wall += ledger.command(argv, setup_tracer if args.trace else None)
        setup_walls.append(wall)
    for rep in range(1, reps):
        ledger.check(f"setup rep {rep} identical", checks.identical_trees, work / "setup0", work / f"setup{rep}")

    passes, import_walls = run_passes(workload, args.seconds, traced=bool(args.trace))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    workload.check(passes[0].out)
    for p in passes[1:]:
        ledger.check(f"{p.out.name} identical to {passes[0].out.name}", checks.identical_trees, passes[0].out, p.out)
    digest = hashlib.sha256(json.dumps(checks.tree_digest(passes[0].out), sort_keys=True).encode()).hexdigest()
    report.append(f"artifacts sha256 {digest}")
    report.append("pass walls s " + json.dumps([[round(w, 4) for w in p.walls] for p in passes]))

    if args.trace:
        traced = [p for p in passes if p.tracer is not None]
        untraced = [p for p in passes if p.tracer is None]
        if workload.setup_commands(work):
            ledger.check("setup self times add up", self_time_adds_up, setup_tracer, setup_walls)
        for p in traced:
            ledger.check(f"{p.out.name} self times add up", self_time_adds_up, p.tracer, p.walls)
        ratio = (statistics.median(sum(p.walls) for p in traced) / statistics.median(sum(p.walls) for p in untraced)
                 if traced and untraced else 0.0)
        metrics = per_layer(setup_tracer, [p.tracer for p in traced], ratio, [m["name"] for m in spec()["per_layer"]])
        trace_path = ROOT / ".bench_work" / f"trace-{workload.name}.jsonl.gz"
        spans.write(trace_path, {"setup": setup_tracer, **{p.out.name: p.tracer for p in traced}})
        report.append(f"spans written to {trace_path.relative_to(ROOT)}")
    else:
        metrics = end_to_end(import_walls, setup_walls, passes, peak_rss_mb)
        named = {
            "setup_s": (metrics["setup_s"], "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            workload.first_metric: (metrics["first_cmd_items_per_s"], "1/s"),
            workload.last_metric: (metrics["last_cmd_items_per_s"], "1/s"),
        }
        ledger.check("quality sentinels", lambda: named.update(workload.quality(passes[0].out)))
        for name, (value, unit) in named.items():
            report.append(f"metric {name} {value!r} {unit}")
        report.append(f"items per pass {passes[0].items}")
    report.append(f"metric error_rate {len(ledger.failures) / max(ledger.attempted, 1)!r} ratio")
    report.insert(0, "env " + json.dumps(environment(args, workload, passes), sort_keys=True))
    return metrics, ledger, report


def spec() -> dict:
    return json.loads(SPEC.read_text(encoding="utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="time to spend on timed passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "consem" / "__init__.py").is_file():
        print(f"error: the consem sources are missing: {SRC / 'consem'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec()[section]}

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        metrics, ledger, report = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in report + ledger.lines:
        print(line)
    print(json.dumps({
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
