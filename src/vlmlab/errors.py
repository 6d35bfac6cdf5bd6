"""Shared exception types, and the one type check of configs, at construction and JSON load.

The CLI maps these onto exit codes: configuration problems exit with 2,
validation/parse failures with 3.
"""

from __future__ import annotations

import json
import numbers
import sys
from typing import Mapping


class ShapeError(ValueError):
    """Tensor shapes or index bounds do not line up."""


class NonFiniteError(ValueError):
    """An operation produced a NaN or an infinity."""


class ConfigError(ValueError):
    """A configuration value is missing, malformed, or out of range."""


class GroundingParseError(ValueError):
    """A grounding JSON payload failed structural validation."""


NUMBER = (int, float)
_TYPE_NAMES = {int: "integer", NUMBER: "finite number", str: "string", bool: "boolean",
               dict: "object"}


def _required(expected) -> str:
    """What a value of type ``expected`` must do, as ``be an integer`` or ``hold strings in an
    array``."""
    if isinstance(expected, list):
        return f"hold {_TYPE_NAMES[expected[0]]}s in an array"
    name = _TYPE_NAMES.get(expected) or expected.__name__
    return f"be {'an' if name[0] in 'aeiou' else 'a'} {name}"


def _has_type(value, expected) -> bool:
    if isinstance(expected, list):
        # A Python caller's tuple or frozenset stands for a JSON array.
        return (isinstance(value, (list, tuple, frozenset))
                and all(_has_type(v, expected[0]) for v in value))
    # JSON true/false parse to bool, which Python counts as an int.
    if not (isinstance(value, expected) and isinstance(value, bool) == (expected is bool)):
        return False
    # NaN, Infinity, 1e400 (read as Infinity) and integers past the float range are not
    # finite numbers; the comparison is exact for ints and false for NaN.
    return expected is not NUMBER or abs(value) <= sys.float_info.max


def check_fields(config, what: str) -> None:
    """Check each init field of the dataclass ``config`` against ``config.FIELD_TYPES``, the
    table its JSON loader also reads; a field left at a ``None`` default is not checked."""
    for f in config.__dataclass_fields__.values():
        if not f.init:
            continue
        value = getattr(config, f.name)
        expected = config.FIELD_TYPES[f.name]
        if not ((value is None and f.default is None) or _has_type(value, expected)):
            raise ConfigError(f"{what} {f.name} must {_required(expected)}, got {value!r}")


def is_integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer: a bool is not one."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_config_types(raw: dict, key_types: Mapping, what: str) -> None:
    """Reject keys absent from ``key_types`` and values of the wrong JSON type.

    ``key_types`` maps each key to a type, to ``NUMBER`` (a finite number),
    or to ``[t]`` for an array whose items are all of type ``t``.  Where it
    lists ``schema_version``, a version other than 1 is rejected; the key
    is then dropped from ``raw``.
    """
    unknown = set(raw) - set(key_types)
    if unknown:
        raise ConfigError(f"unknown {what} config keys: {sorted(unknown)}")
    for key, value in raw.items():
        expected = key_types[key]
        if not _has_type(value, expected):
            raise ConfigError(f"{what} config key {key!r} must {_required(expected)}, "
                              f"got {json.dumps(value)}")
    version = raw.pop("schema_version", 1)
    if version != 1:
        raise ConfigError(f"unsupported {what} config schema_version {version}")


def load_json_config(path: str | None, key_types: Mapping, what: str) -> dict:
    """Read a JSON config object from ``path`` and check its keys and value types.

    ``None`` reads as an empty config.
    """
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:
        # ValueError: malformed text, or an integer past Python's digit limit;
        # RecursionError: arrays or objects nested too deep to decode.
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    check_config_types(raw, key_types, what)
    return raw
