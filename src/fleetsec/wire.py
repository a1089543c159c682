"""Canonical encodings: the binary one of tokens and manifests, and the JSON schema.

Binary: fixed field order, unsigned 64-bit big-endian integers,
length-prefixed byte strings (32-bit big-endian length prefix). Decoding
is strict: truncated fields or trailing bytes raise DecodeError.

JSON: a dataclass is the schema of its object, read by read_spec and
written by write_spec, every field of it. Each field's key is its name,
or the "key" in its metadata where the file names it otherwise ("public"
for public_bytes). A field whose default is None is left out of the
object while it is None, and an absent key reads as the field's default,
so absent and null read alike there. A NamedTuple is the schema of a
list: its values in field order, each of exactly its field's type. Every
mistake in a file is a ConfigError naming its path. A type's own checks
raise a ConfigError naming the field; build puts that field under the
path of the object being built.
"""

from __future__ import annotations

import base64
import functools
import json
import types
import typing
from dataclasses import MISSING, fields, is_dataclass
from enum import Enum
from pathlib import Path

from .errors import FleetsecError

U64_MAX = 2**64 - 1


class DecodeError(FleetsecError):
    """Canonical encoding could not be parsed."""


def u64(value: int) -> bytes:
    if not 0 <= value <= U64_MAX:
        raise ValueError(f"value out of u64 range: {value}")
    return value.to_bytes(8, "big")


def lp(data: bytes) -> bytes:
    if len(data) > 2**32 - 1:
        raise ValueError("byte string too long for length prefix")
    return len(data).to_bytes(4, "big") + data


class Reader:
    """Strict cursor over a canonical byte string."""

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    def take(self, n: int) -> bytes:
        if self._pos + n > len(self._data):
            raise DecodeError(f"truncated: wanted {n} bytes at offset {self._pos}")
        out = self._data[self._pos : self._pos + n]
        self._pos += n
        return out

    def u64(self) -> int:
        return int.from_bytes(self.take(8), "big")

    def lp(self) -> bytes:
        length = int.from_bytes(self.take(4), "big")
        return self.take(length)

    def expect_end(self) -> None:
        if self._pos != len(self._data):
            raise DecodeError(f"{len(self._data) - self._pos} trailing bytes")


def b64e(data: bytes) -> str:
    """base64url text for JSON byte fields."""
    return base64.urlsafe_b64encode(data).decode("ascii")


class ConfigError(FleetsecError, ValueError):
    """A value breaks its schema at path: a file's key path, a type's field, or "" for all of it."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path
        self.message = message


def build(spec: type, path: str, **values):
    """spec(**values); a field its checks refuse is named under path, in the same error class."""
    try:
        return spec(**values)
    except ConfigError as exc:
        raise type(exc)(f"{path}.{exc.path}" if exc.path else path, exc.message) from None


def load_json(path: str | Path):
    """The JSON value in the file at path; text that is not JSON is a ConfigError."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError(str(path), f"not valid JSON: {exc}") from exc


def read_spec(spec: type, obj, path: str) -> dict:
    """The fields of dataclass spec read from the object obj, by key, with their defaults.

    int, float, str and bool fields are read as those JSON types, bytes
    fields from base64url strings, Enum fields by value, X | None fields
    as X or null, dataclass fields as objects of their own schema,
    NamedTuple fields as lists of their values, and tuple[X, ...] fields
    as lists of X, each item at path[i]. Any other key is an error.
    """
    if not isinstance(obj, dict):
        raise ConfigError(path, "expected dict")
    keys, placed = _schema(spec)
    for key in obj:
        if key not in keys:
            raise ConfigError(f"{path}.{key}", "unknown field")
    values = {}
    for name, key, kind, default in placed:
        if key not in obj:
            if default is MISSING:
                raise ConfigError(f"{path}.{key}", "missing required field")
            values[name] = default
            continue
        value = obj[key]
        # nearly every value is of the JSON type itself
        values[name] = value if type(value) is kind else _value(kind, value, f"{path}.{key}")
    return values


def write_spec(value) -> dict:
    """The object read_spec reads the dataclass value back from, its keys in field order.

    A field whose default is None is left out while it is None.
    """
    obj: dict = {}
    for name, key, _, default in _schema(type(value))[1]:
        item = getattr(value, name)
        if item is not None or default is not None:
            obj[key] = _json(item)
    return obj


def save_json(path: str | Path, obj) -> None:
    """Write obj to the file at path as indented JSON text."""
    Path(path).write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")


def _json(value):
    if isinstance(value, bytes):
        return b64e(value)
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return [_json(item) for item in value]
    if is_dataclass(value):
        return write_spec(value)
    return value


@functools.cache
def _schema(spec: type):
    """The keys of spec's object, and (name, key, type, default) of each field.

    A field's key is its metadata "key", else its name.
    """
    hints = typing.get_type_hints(spec)
    placed = tuple(
        (f.name, f.metadata.get("key", f.name), hints[f.name], f.default) for f in fields(spec)
    )
    return frozenset(key for _, key, _, _ in placed), placed


def _value(kind, value, path: str):
    if isinstance(kind, types.UnionType):  # X | None
        if value is None:
            return None
        (kind,) = set(kind.__args__) - {type(None)}
    if isinstance(kind, types.GenericAlias):  # tuple[X, ...]
        if not isinstance(value, list):
            raise ConfigError(path, "expected list")
        item, items = kind.__args__[0], []
        for i, entry in enumerate(value):
            items.append(entry if type(entry) is item else _value(item, entry, f"{path}[{i}]"))
        return tuple(items)
    if is_dataclass(kind):
        return build(kind, path, **read_spec(kind, value, path))
    if issubclass(kind, tuple):  # a NamedTuple
        exact = list(typing.get_type_hints(kind).values())
        if not isinstance(value, list) or list(map(type, value)) != exact:
            raise ConfigError(path, f"expected [{', '.join(kind._fields)}]")
        return kind(*value)
    if issubclass(kind, Enum):
        try:
            return kind(value)
        except ValueError:
            raise ConfigError(path, f"expected one of {[m.value for m in kind]}") from None
    if kind is bytes:
        try:
            return base64.urlsafe_b64decode(str.encode(value, "ascii"))
        except (TypeError, ValueError):  # not a str, not ASCII, or not base64url
            raise ConfigError(path, "expected a base64url string") from None
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            raise ConfigError(path, "out of float range") from None
    if isinstance(value, kind) and (kind is bool or not isinstance(value, bool)):
        return value
    raise ConfigError(path, f"expected {kind.__name__}")
