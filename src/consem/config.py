"""Flat key-value run configuration shared by every command.

A configuration file holds ``key = value`` lines over a closed schema;
a line whose first non-blank character is ``#`` is a comment, and a ``#``
anywhere else is part of the value.  Unknown keys are rejected so typos
fail loudly.  Command-line flags override file values, and the resolved
configuration is archived next to a run's outputs in the same format,
which makes any run reproducible from its artifact directory alone: a
value that the format cannot hold back (a line break, blank space at
either end, text that is not UTF-8) is rejected when it is set.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields, make_dataclass
from pathlib import Path

from .encoder import EncoderConfig
from .errors import ConfigError
from .files import read_utf8, write_atomic
from .finetune import FinetuneConfig
from .pretrain import PretrainConfig

__all__ = ["RunConfig", "SHARED_KEYS", "section_keys"]

# Each section dataclass with the prefix its keys take in the flat namespace.
_SECTION_PREFIXES = {EncoderConfig: "", PretrainConfig: "", FinetuneConfig: "ft_"}
# Pretraining and fine-tuning share these keys, so they carry no prefix.
SHARED_KEYS = ("weight_decay", "seed")
# Field annotations are strings here (every module defers annotations).
_TYPES = {"int": int, "float": float, "str": str}


def section_keys(section: type) -> dict[str, str]:
    """Configuration key of each field of a section dataclass.

    ``vocab_size`` has no key: it always comes from the vocabulary file.
    """
    prefix = _SECTION_PREFIXES[section]
    return {
        f.name: f.name if f.name in SHARED_KEYS else prefix + f.name
        for f in fields(section)
        if f.name != "vocab_size"
    }


def _section_fields() -> list[tuple[str, str, object]]:
    """(key, type name, default) of every section key; an enum is kept by its value."""
    schema: dict[str, tuple[str, str, object]] = {}
    for section in _SECTION_PREFIXES:
        by_name = {f.name: f for f in fields(section)}
        for name, key in section_keys(section).items():
            f = by_name[name]
            if isinstance(f.default, enum.Enum):
                schema.setdefault(key, (key, "str", f.default.value))
            else:
                schema.setdefault(key, (key, f.type, f.default))
    return list(schema.values())


@dataclass
class _RunConfigBase:
    """Every tunable of a run, in one flat namespace.

    The encoder, pretraining and fine-tuning keys, with their types and
    defaults, come from the fields of those section dataclasses; the keys
    below belong to no section.
    """

    # vocabulary
    min_count: int = 1
    # fine-tuning task
    task: str = "pair"
    labels: str = ""
    # input paths: what --triples, --vocab, --train and --dev read (sweep may take them from a file)
    triples: str = ""
    vocab: str = ""
    train_data: str = ""
    dev_data: str = ""

    @classmethod
    def field_types(cls) -> dict[str, type]:
        return {f.name: _TYPES[f.type] for f in fields(cls)}

    def update_from_file(self, path: str | Path) -> None:
        types = self.field_types()
        for lineno, raw in enumerate(read_utf8(path, ConfigError).split("\n"), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in types:
                raise ConfigError(f"{path}:{lineno}: unknown configuration key {key!r}")
            self.update({key: value})

    def update(self, overrides: dict) -> None:
        """Apply explicit overrides (values may be strings or already typed)."""
        types = self.field_types()
        for key, value in overrides.items():
            if value is None:
                continue
            if key not in types:
                raise ConfigError(f"unknown configuration key {key!r}")
            if isinstance(value, str):
                value = _convert(key, value, types[key])
            value = types[key](value)
            if isinstance(value, str):
                _check_archivable(key, value)
            setattr(self, key, value)

    def write(self, path: str | Path) -> None:
        lines = []
        for f in sorted(fields(self), key=lambda f: f.name):
            value = getattr(self, f.name)
            if isinstance(value, str):
                _check_archivable(f.name, value)
            lines.append(f"{f.name} = {value}")
        write_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"))

    def build(self, section: type, **extra):
        """The ``section`` dataclass filled from this configuration, plus ``extra`` fields.

        A section's range errors start with the field name; raised from here
        they start with its configuration key instead.
        """
        keys = section_keys(section)
        try:
            return section(**{name: getattr(self, key) for name, key in keys.items()}, **extra)
        except ConfigError as exc:
            name, _, rest = str(exc).partition(" ")
            if name in keys:
                raise ConfigError(f"{keys[name]} {rest}") from exc
            raise

    def label_list(self) -> list[str]:
        return [part.strip() for part in self.labels.split(",") if part.strip()]


RunConfig = make_dataclass(
    "RunConfig",
    _section_fields(),
    bases=(_RunConfigBase,),
    namespace={"__module__": __name__, "__doc__": _RunConfigBase.__doc__},
)


def _convert(key: str, value: str, target: type):
    try:
        if target is int:
            return int(value)
        if target is float:
            return float(value)
        return value
    except ValueError as exc:
        raise ConfigError(f"configuration key {key!r} expects {target.__name__}, got {value!r}") from exc


def _check_archivable(key: str, value: str) -> None:
    """Reject a string that a ``key = value`` line cannot carry back unchanged."""
    if "\n" in value or "\r" in value:
        problem = "holds a line break"
    elif value != value.strip():
        problem = "starts or ends with blank space"
    else:
        try:
            value.encode("utf-8")
            return
        except UnicodeEncodeError:
            problem = "is not valid UTF-8 text"
    raise ConfigError(f"configuration key {key!r}: value {value!r} {problem}, which run_config.txt cannot hold")
