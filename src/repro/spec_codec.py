"""The one serialisation rule of every pure-data spec.

A spec dataclass inheriting :class:`SpecCodec` gets ``as_dict`` /
``from_dict``. A payload holds every field by name, a nested spec as its
payload and a tuple as a list, except that a field declared
:func:`omittable` is left out while it holds its default: those fields
came after payloads of their class were first hashed, so specs that do
not use them keep their historical payloads, hashes and cache keys.
``from_dict`` rebuilds nested specs from the field types and raises
``ValueError`` naming every undeclared key: a misspelt key is an error,
never a silently different run.
"""

from __future__ import annotations

import dataclasses
import typing
from functools import cache


def omittable(default=None):
    """A field left out of the payload while it holds ``default``."""
    return dataclasses.field(default=default, metadata={"omittable": True})


def _encode(value):
    if isinstance(value, SpecCodec):
        return value.as_dict()
    if isinstance(value, tuple):
        return [_encode(item) for item in value]
    return value


def _decoder(hint):
    """How to rebuild a field of type ``hint`` holding nested specs (a
    spec, an optional spec or a tuple of specs); ``None`` otherwise."""
    spec = next((arg for arg in typing.get_args(hint) or (hint,)
                 if isinstance(arg, type) and issubclass(arg, SpecCodec)),
                None)
    if spec is None:
        return None
    if typing.get_origin(hint) is tuple:
        return lambda value: tuple(map(spec.from_dict, value))
    return lambda value: None if value is None else spec.from_dict(value)


@cache
def _layout(cls) -> tuple:
    """``cls``'s fields as ``(name, omittable, default)``, and each
    field's decoder by name."""
    hints = typing.get_type_hints(cls)
    fields = dataclasses.fields(cls)
    return (tuple((f.name, bool(f.metadata.get("omittable")), f.default)
                  for f in fields),
            {f.name: _decoder(hints[f.name]) for f in fields})


class SpecCodec:
    """``as_dict`` / ``from_dict`` for a spec dataclass (see module)."""

    def as_dict(self) -> dict:
        payload = {}
        for name, omit, default in _layout(type(self))[0]:
            value = getattr(self, name)
            if not (omit and value == default):
                payload[name] = _encode(value)
        return payload

    @classmethod
    def from_dict(cls, payload: dict):
        decoders = _layout(cls)[1]
        unknown = sorted(payload.keys() - decoders.keys())
        if unknown:
            raise ValueError(f"unknown {cls.__name__} field(s): "
                             f"{', '.join(unknown)}")
        return cls(**{key: value if decoders[key] is None
                      else decoders[key](value)
                      for key, value in payload.items()})
