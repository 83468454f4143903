"""The experiment configuration: its fields and checks, its one error
family, its hash and its flat `key = value` file format.

One assignment per line, `#` starts a comment, unknown keys are errors.
An empty file resolves to all defaults, and every run writes back the
fully resolved configuration, which re-parses to identical settings.
"""

import dataclasses
import hashlib
import json
import math
import os

from . import data, losses, nn, sampling

MODELS = {"fcn": nn.build_fcn, "cnn": nn.build_cnn}


class ConfigError(Exception):
    """A setting that cannot run; `line` is the file line at fault, if any."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line


class ParseError(ConfigError):
    pass


class UnknownKey(ParseError):
    pass


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """Hyperparameters and identifiers for one experiment."""

    model: str = "fcn"
    loss: str = "cls_kl"
    sampling: str = "indirect"
    lr: float = 1e-3
    weight_decay: float = 0.0
    batch_size: int = 128
    source_epochs: int = 100
    stop_threshold: float = 1e-3
    max_adapt_epochs: int = 200
    trials: int = 3
    seed: int = 0
    align_weight: float = 1.0
    encoder_noise: float = 1e-2

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.type is float and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
        if self.model not in MODELS:
            raise ConfigError(f"model must be one of {tuple(MODELS)}, got {self.model!r}")
        if self.loss not in losses.LOSSES:
            raise ConfigError(f"unknown loss kind {self.loss!r}")
        if self.sampling not in sampling.SAMPLER_KINDS:
            raise ConfigError(f"unknown sampling kind {self.sampling!r}")
        for name in ("lr", "weight_decay", "align_weight", "encoder_noise"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be nonnegative")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be at least 1")
        if self.source_epochs < 0:
            raise ConfigError("source_epochs must be nonnegative")
        if self.stop_threshold <= 0:
            raise ConfigError("stop_threshold must be positive")
        if self.max_adapt_epochs < 1:
            raise ConfigError("max_adapt_epochs must be at least 1")
        if self.trials < 1:
            raise ConfigError("trials must be at least 1")

    def snapshot(self):
        return dataclasses.asdict(self)


def config_hash(cfg):
    return hashlib.sha256(
        json.dumps(cfg.snapshot(), sort_keys=True).encode()).hexdigest()[:16]


def parse_assignments(text, types):
    """{key: value} from `key = value` lines, each value converted by
    `types[key]`; `#` starts a comment.  A line without `=`, a key not
    in `types`, a repeated key or a value that does not convert raises,
    naming the line."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(
                f"line {lineno}: expected 'key = value', got {raw.strip()!r}",
                lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in types:
            raise UnknownKey(f"line {lineno}: unknown key {key!r}", lineno)
        if key in values:
            raise ParseError(f"line {lineno}: duplicate key {key!r}", lineno)
        kind = types[key]
        try:
            values[key] = kind(value)
        except ValueError:
            raise ParseError(
                f"line {lineno}: cannot parse {key} = {value!r} as {kind.__name__}",
                lineno) from None
    return values


def parse_text(text):
    """Parse configuration text into an ExperimentConfig."""
    types = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}
    return ExperimentConfig(**parse_assignments(text, types))


def read_text(path):
    """The text of a `key = value` file; one that is not UTF-8 raises
    ConfigError naming the file and the first byte that does not decode."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: byte {exc.start} is not UTF-8 text") from None


def load(path):
    return parse_text(read_text(path))


def _format(value):
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render(cfg):
    """Render every field, defaults included, in declaration order."""
    lines = ["# resolved experiment configuration"]
    for field in dataclasses.fields(ExperimentConfig):
        lines.append(f"{field.name} = {_format(getattr(cfg, field.name))}")
    return "\n".join(lines) + "\n"


def write_resolved(cfg, run_dir, name="config-resolved.txt"):
    """Write `render(cfg)` to run_dir/name; returns the path."""
    data.atomic_write_text(path := os.path.join(run_dir, name), render(cfg))
    return path
