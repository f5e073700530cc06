"""The one JSON codec for frozen config dataclasses.

``from_dict`` checks each value against its field's annotation (``int``,
``float``, ``str``, a nested dataclass or a ``tuple[...]`` read from a JSON
list), rejects unknown keys and lets a key be omitted only when its field
has a default. Every failure, a ``__post_init__`` ``ValueError`` included,
is a ``DataError`` naming the value's dotted path, such as
``TrainConfig.model.conv_blocks[0]``.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import typing

from .errors import DataError


def to_json(obj) -> str:
    return json.dumps(dataclasses.asdict(obj), indent=2)


def from_json(cls, text):
    """Parse JSON text (or UTF-8 bytes) into ``cls`` via ``from_dict``."""
    try:
        d = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, UnicodeDecodeError
        raise DataError(f"{cls.__name__}: invalid JSON: {exc}") from None
    return from_dict(cls, d)


def from_dict(cls, d, where: str | None = None):
    """Build dataclass ``cls`` from a JSON-decoded dict; raises DataError."""
    where = where or cls.__name__
    if not isinstance(d, dict):
        raise DataError(f"{where}: expected an object, got {d!r:.40}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = sorted(set(d) - set(fields))
    if unknown:
        raise DataError(f"{where}: unknown key(s) {', '.join(map(repr, unknown))}")
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for name, f in fields.items():
        if name in d:
            kwargs[name] = _value(hints[name], d[name], f"{where}.{name}")
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise DataError(f"{where}: missing key {name!r}")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise DataError(f"{where}: {exc}") from None


def _value(kind, v, where):
    if dataclasses.is_dataclass(kind):
        return from_dict(kind, v, where)
    if typing.get_origin(kind) is tuple:
        args = typing.get_args(kind)
        if not isinstance(v, (list, tuple)):
            raise DataError(f"{where}: expected a list, got {v!r:.40}")
        if len(args) == 2 and args[1] is Ellipsis:
            args = (args[0],) * len(v)
        elif len(v) != len(args):
            raise DataError(f"{where}: expected {len(args)} items, got {len(v)}")
        return tuple(_value(k, x, f"{where}[{i}]") for i, (k, x) in enumerate(zip(args, v)))
    if kind is float:
        # abs(v) <= max rejects nan, inf and ints too large for a float
        if isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max:
            return float(v)
        raise DataError(f"{where}: expected a finite float, got {v!r:.40}")
    if kind in (int, str):
        if isinstance(v, kind) and not isinstance(v, bool):
            return v
        raise DataError(f"{where}: expected {kind.__name__}, got {v!r:.40}")
    raise TypeError(f"{where}: unsupported annotation {kind!r}")

