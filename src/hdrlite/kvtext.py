"""One plain-text ``key=value`` format for model configs, degradation recipes,
manifests and the checkpoint header.

A file is one ``key=value`` line per field; blank lines and ``#`` comments are
skipped, and a key given twice is an error.  Tuples are comma-separated with
exactly as many values as their declared type has (nine for the row-major
``cst_matrix``), booleans are true/false/1/0/yes/no in any case, and every
conversion error names its key.  A config checks its own values when built.
"""
from __future__ import annotations

import dataclasses
import typing
from collections.abc import Mapping

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


def loads(cls, text: str):
    """Parse ``text`` into a ``cls`` instance, which checks itself when built,
    converting each value by the field's declared type.  Returns (instance,
    {key: raw text}) where the dict holds the keys ``cls`` has no field for."""
    hints = typing.get_type_hints(cls)
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
