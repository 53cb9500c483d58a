"""Config files: YAML mappings read into the config dataclasses.

``from_dict`` builds a config dataclass from a mapping by walking its
fields, and each field's annotation decides what its value may be:

- ``int``: an integer; a bool or a float, even an integral one, is not;
- ``float``: a finite integer or float;
- ``bool``: ``true`` or ``false``;
- ``str``, an ``Enum`` (by its value) and ``Path`` (from a string);
- ``tuple[X, Y]``: exactly that many values; ``tuple[X, ...]``: any number;
- a nested dataclass: a mapping, read the same way;
- ``X | None``: also ``null``.

An unknown key or a missing required field is an error; an absent key
takes the dataclass default, so the defaults live in the dataclasses
alone. The dataclass's own range checks still run; a ConfigError they
raise names the field relative to the dataclass, and gets the
dataclass's path put in front. Every error is a ConfigError naming the
dotted path of the value, such as ``walls[0].x_range``,
``selector.depth_range[1]`` or ``input.simulate.num_frames``.
"""

from __future__ import annotations

import dataclasses
import re
import sys
import types
import typing
from enum import Enum
from pathlib import Path

import yaml

from .errors import ConfigError, DataFormatError, config_field

_SCALARS = {
    int: ("an integer", lambda x: isinstance(x, int) and not isinstance(x, bool)),
    float: (
        "a finite number",
        lambda x: isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max,
    ),
    bool: ("true or false", lambda x: isinstance(x, bool)),
    str: ("a string", lambda x: isinstance(x, str)),
    Path: ("a string", lambda x: isinstance(x, str)),
}


class _UniqueKeyLoader(yaml.SafeLoader):
    """``yaml.safe_load``'s loader, but a key written twice in one mapping
    is an error; a merge key (``<<``) still merges, own keys winning."""

    def compose_mapping_node(self, anchor):
        node = super().compose_mapping_node(anchor)
        seen = set()
        for key, _ in node.value:
            if isinstance(key, yaml.ScalarNode) and key.tag != "tag:yaml.org,2002:merge":
                if (key.tag, key.value) in seen:
                    raise yaml.composer.ComposerError(None, None, f"duplicate key {key.value!r}", key.start_mark)
                seen.add((key.tag, key.value))
        return node


# floats with an exponent that YAML 1.1, unlike 1.2, reads as strings: 8e-2, 1E3
_UniqueKeyLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)[eE][-+]?[0-9]+$"),
    list("-+.0123456789"),
)


def load_yaml(path, what: str):
    """The parsed content of the YAML file at path, {} when it is empty;
    what names the file in an I/O error, and a repeated key is invalid."""
    try:
        with open(path) as fh:
            raw = yaml.load(fh, _UniqueKeyLoader)
    except OSError as exc:
        raise DataFormatError(f"cannot read {what} {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
    return {} if raw is None else raw


def _join(path: str, key) -> str:
    return f"{path}.{key}" if path else str(key)


def from_dict(cls, mapping, path: str = "", **given):
    """The dataclass cls read from mapping, whose errors are named under
    path. The fields in given are taken as they are and are unknown keys
    of mapping."""
    if not isinstance(mapping, dict):
        raise ConfigError(f"{path or cls.__name__}: expected a mapping, got {mapping!r}")
    fields = {f.name: f for f in dataclasses.fields(cls) if f.name not in given}
    for key in mapping:
        if key not in fields:
            raise ConfigError(f"{_join(path, key)}: unknown key")
    hints = typing.get_type_hints(cls)
    kwargs = dict(given)
    for name, f in fields.items():
        if name in mapping:
            kwargs[name] = read(hints[name], mapping[name], _join(path, name))
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise ConfigError(f"{_join(path, name)}: missing required field")
    with config_field(path or cls.__name__):
        try:
            return cls(**kwargs)
        except ConfigError as exc:
            # the dataclass's own checks name its fields relative to itself
            if not path:
                raise
            raise ConfigError(f"{path}.{exc}") from exc


def read(tp, value, path: str):
    """value read as the annotation tp; errors are named under path."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is types.UnionType:  # X | None
        return None if value is None else read(args[0], value, path)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{path}: expected a list, got {value!r}")
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        elif len(value) != len(args):
            raise ConfigError(f"{path}: expected {len(args)} values, got {len(value)}")
        return tuple(read(a, v, f"{path}[{i}]") for i, (a, v) in enumerate(zip(args, value)))
    if dataclasses.is_dataclass(tp):
        return from_dict(tp, value, path)
    if issubclass(tp, Enum):
        try:
            return tp(value)
        except (TypeError, ValueError):
            raise ConfigError(f"{path}: expected one of {[m.value for m in tp]}, got {value!r}") from None
    expected, accepts = _SCALARS[tp]
    if not accepts(value):
        raise ConfigError(f"{path}: expected {expected}, got {value!r}")
    return tp(value)
