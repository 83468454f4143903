"""Flat `key = value` experiment configuration files.

One assignment per line, `#` starts a comment, unknown keys are errors.
An empty file resolves to all defaults, and every run writes back the
fully resolved configuration, which re-parses to identical settings.
"""

import dataclasses

from . import data
from .engine import ExperimentConfig


class ConfigFileError(Exception):
    """Base class for configuration file failures."""


class ParseError(ConfigFileError):
    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line


class UnknownKey(ConfigFileError):
    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}


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
    return ExperimentConfig(**parse_assignments(text, _FIELD_TYPES))


def load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_text(fh.read())


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


def write_resolved(cfg, path):
    data.atomic_write_text(path, render(cfg))
