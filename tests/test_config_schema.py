"""Characterization of the configuration surface: keys, defaults and flags.

These pin what a user can set and what a run archives, so a change to how
the schema is declared cannot add, drop or rename a knob unnoticed.
"""

import argparse
import dataclasses
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from consem.cli import build_parser
from consem.config import RunConfig
from consem.errors import ConfigError
from consem.finetune import FinetuneConfig
from consem.pretrain import PretrainConfig

# Empty string values keep the space after '='.
DEFAULT_RUN_CONFIG = "".join(
    line + "\n"
    for line in (
        "batch_size = 8",
        "data_fraction = 1.0",
        "dev_data = ",
        "dropout = 0.1",
        "epochs = 10",
        "ff_size = 256",
        "ft_batch_size = 16",
        "ft_epochs = 7",
        "ft_learning_rate = 0.001",
        "hidden_size = 64",
        "labels = ",
        "learning_rate = 0.001",
        "mask_rate = 0.15",
        "max_len = 64",
        "min_count = 1",
        "mlm_weight = 0.0",
        "num_heads = 4",
        "num_layers = 4",
        "pooling = CLS",
        "seed = 0",
        "task = pair",
        "tau = 0.05",
        "train_data = ",
        "triples = ",
        "validation_fraction = 0.1",
        "vocab = ",
        "weight_decay = 0.01",
    )
)

_COMMON = {"-h", "--help", "--out"}
# Only the commands that resolve a RunConfig take --config and --seed.
_SETTINGS = {"--config", "--seed"}
_ENCODER = {"--num-layers", "--num-heads", "--hidden-size", "--ff-size", "--max-len", "--dropout"}
_PRETRAIN = {
    "--tau", "--mlm-weight", "--mask-rate", "--batch-size", "--epochs", "--learning-rate",
    "--weight-decay", "--pooling", "--data-fraction", "--validation-fraction",
}
_FINETUNE = {"--ft-batch-size", "--ft-epochs", "--ft-learning-rate", "--task", "--labels"}

SUBCOMMAND_OPTIONS = {
    "prepare": _COMMON | {"--nli", "--held-out"},
    "build-vocab": _COMMON | _SETTINGS | {"--triples", "--min-count"},
    "pretrain": _COMMON | _SETTINGS | {"--triples", "--vocab", "--init"} | _ENCODER | _PRETRAIN,
    "finetune": _COMMON | _SETTINGS | {"--checkpoint", "--vocab", "--train", "--dev"} | _FINETUNE,
    "evaluate": _COMMON | {"--model", "--vocab", "--data"},
    "analyze": _COMMON | {
        "--checkpoint", "--vocab", "--pairs",
        "--attention-a", "--attention-b", "--pooling", "--save-embeddings",
    },
    "retrieve": _COMMON | {"--checkpoint", "--vocab", "--claims", "--contexts", "--pooling"},
    "sweep": _COMMON | _SETTINGS | {"--axis", "--values", "--triples", "--vocab", "--train", "--dev"}
    | _ENCODER | _PRETRAIN | _FINETUNE,
}


def test_default_run_config_bytes(tmp_path):
    RunConfig().write(tmp_path / "run_config.txt")
    assert (tmp_path / "run_config.txt").read_bytes() == DEFAULT_RUN_CONFIG.encode("utf-8")


def test_every_subcommand_keeps_its_options():
    parser = build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    found = {
        name: {option for action in sub._actions for option in action.option_strings}
        for name, sub in subparsers.choices.items()
    }
    assert found == SUBCOMMAND_OPTIONS


# Strings as the CLI receives them: arbitrary text, lone surrogates (argv
# bytes that are not UTF-8), and the characters a ``key = value`` line is
# read by: '#', '=', line breaks, blank space at either end.
_ARGV_TEXT = st.one_of(
    st.text(),
    st.text(st.characters(codec=None, exclude_categories=())),
    st.builds(
        "".join,
        st.lists(st.sampled_from(["#", "=", " ", "\t", "\n", "\r", "\u2028", "\x85", "a", "1", ".", "e", "\ud800"])),
    ),
    st.integers().map(str),
    st.floats().map(repr),
)


@given(st.dictionaries(st.sampled_from(sorted(RunConfig.field_types())), _ARGV_TEXT, max_size=4))
@settings(max_examples=300, deadline=None)
def test_write_then_read_is_the_identity_for_every_accepted_value(overrides):
    config = RunConfig()
    for key, value in overrides.items():
        try:
            config.update({key: value})
        except ConfigError:
            pass  # rejected before the run starts, as the CLI reports it
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run_config.txt"
        config.write(path)
        back = RunConfig()
        back.update_from_file(path)
    assert repr(dataclasses.asdict(back)) == repr(dataclasses.asdict(config))


def test_hash_starts_a_comment_only_at_the_start_of_a_line(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# a comment\n   # an indented comment\ntrain_data = data/run#2/train.jsonl\nlabels = a#1,b\n")
    config = RunConfig()
    config.update_from_file(path)
    assert (config.train_data, config.labels) == ("data/run#2/train.jsonl", "a#1,b")


@pytest.mark.parametrize("value", ["a\nb", "a\rb", " padded", "padded\t", "bad\udcff"])
def test_values_a_line_cannot_hold_are_rejected(value, tmp_path):
    with pytest.raises(ConfigError, match="'labels'"):
        RunConfig().update({"labels": value})
    config = RunConfig()
    config.labels = value
    with pytest.raises(ConfigError, match="run_config.txt cannot hold"):
        config.write(tmp_path / "run_config.txt")
    assert not (tmp_path / "run_config.txt").exists()


@pytest.mark.parametrize("value", [2.5, 3.0, True, "3", None])
@pytest.mark.parametrize("name", ["batch_size", "epochs", "seed"])
@pytest.mark.parametrize("section", [PretrainConfig, FinetuneConfig])
def test_training_counts_must_be_integers(section, name, value):
    # Rejected up front, not as a TypeError from range() or default_rng() mid-run.
    with pytest.raises(ConfigError, match=f"^{name} must be an integer, got "):
        section(**{name: value})


@pytest.mark.parametrize("value", [-0.1, float("nan"), float("inf")])
@pytest.mark.parametrize("section", [PretrainConfig, FinetuneConfig])
def test_weight_decay_must_be_non_negative_and_finite(section, value):
    with pytest.raises(ConfigError, match="^weight_decay must be non-negative and finite, got "):
        section(weight_decay=value)
