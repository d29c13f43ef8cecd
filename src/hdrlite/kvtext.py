"""One plain-text ``key=value`` format for model configs, degradation recipes,
manifests and the checkpoint header.

A file is one ``key=value`` line per field; blank lines and ``#`` comments are
skipped, and a key given twice is an error.  Tuples are comma-separated with
exactly as many values as their declared type has (nine for the row-major
``cst_matrix``), booleans are true/false/1/0/yes/no in any case, and every
conversion error names its key.  ``kvtext`` also owns the rule for what a
config field's declared type admits: a config calls ``check_types`` when
built, then checks only its own value ranges.
"""
from __future__ import annotations

import dataclasses
import functools
import typing
from collections.abc import Mapping

import numpy as np

_BOOLS = {"true": True, "1": True, "yes": True,
          "false": False, "0": False, "no": False}


def items(obj):
    """(key, text) pairs of a dataclass instance's fields, in field order, or
    of a mapping; tuples and lists become comma-separated ``str()`` values."""
    pairs = obj.items() if isinstance(obj, Mapping) else (
        (f.name, getattr(obj, f.name)) for f in dataclasses.fields(obj))
    for k, v in pairs:
        yield k, ",".join(map(str, v)) if isinstance(v, (tuple, list)) else str(v)


def dumps(obj) -> str:
    return "".join(f"{k}={v}\n" for k, v in items(obj))


def _convert(text: str, typ):
    if typ is bool:
        if text.lower() not in _BOOLS:
            raise ValueError(f"must be one of true/false/1/0/yes/no, got {text!r}")
        return _BOOLS[text.lower()]
    if typing.get_origin(typ) is tuple:
        parts, types = text.split(","), typing.get_args(typ)
        if len(parts) != len(types):
            raise ValueError(f"needs {len(types)} comma-separated values, got {text!r}")
        return tuple(t(s) for t, s in zip(types, parts))
    return typ(text)


# What a field of each scalar type admits, as "<field> must be <one>/hold <many>".
_ADMITS = {int: ((int, np.integer), "an integer", "integers"),
           float: ((int, float, np.integer, np.floating), "a real number", "real numbers"),
           bool: ((bool, np.bool_), "a bool", "bools")}
field_types = functools.cache(typing.get_type_hints)  # resolved once per class


def _admits(typ, v) -> bool:
    return isinstance(v, _ADMITS[typ][0]) and (typ is bool or not isinstance(v, bool))


def check_types(obj):
    """Check each field of the frozen dataclass ``obj`` against its declared
    type, raising a ValueError that names the field.  Numbers may be numpy
    scalars but not bools; a ``tuple[...]`` field takes any sequence or array
    of that many values, stored as a tuple of the declared types."""
    for name, typ in field_types(type(obj)).items():
        v, types = getattr(obj, name), typing.get_args(typ)
        if not types:
            if not _admits(typ, v):
                raise ValueError(f"{name} must be {_ADMITS[typ][1]}, got {v!r}")
            continue
        vals = np.asarray(v, dtype=object).ravel()
        if len(vals) != len(types):
            raise ValueError(f"{name} must hold {len(types)} values, got {v!r}")
        for t, x in zip(types, vals):
            if not _admits(t, x):
                raise ValueError(f"{name} must hold {_ADMITS[t][2]}, got {v!r}")
        object.__setattr__(obj, name, tuple(t(x) for t, x in zip(types, vals)))


def loads(cls, text: str):
    """Parse ``text`` into a ``cls`` instance, which checks itself when built,
    converting each value by the field's declared type.  Returns (instance,
    {key: raw text}) where the dict holds the keys ``cls`` has no field for."""
    hints = field_types(cls)
    kwargs, extra = {}, {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"malformed key=value line: {line!r}")
        k, v = (s.strip() for s in line.split("=", 1))
        if k in kwargs or k in extra:
            raise ValueError(f"duplicate key {k!r}")
        if k not in hints:
            extra[k] = v
            continue
        try:
            kwargs[k] = _convert(v, hints[k])
        except ValueError as e:
            raise ValueError(f"{k}: {e}") from None
    return cls(**kwargs), extra
