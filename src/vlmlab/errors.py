"""Shared exception types, and the one reader and type check for JSON configs.

The CLI maps these onto exit codes: configuration problems exit with 2,
validation/parse failures with 3.
"""

from __future__ import annotations

import json
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
_JSON_NAMES = {int: "integer", NUMBER: "number", str: "string", bool: "boolean", dict: "object"}


def _has_type(value, expected) -> bool:
    if isinstance(expected, list):
        return isinstance(value, list) and all(_has_type(v, expected[0]) for v in value)
    # JSON true/false parse to bool, which Python counts as an int.
    if not (isinstance(value, expected) and isinstance(value, bool) == (expected is bool)):
        return False
    # NaN, Infinity, 1e400 (read as Infinity) and integers past the float range are not
    # finite numbers; the comparison is exact for ints and false for NaN.
    return expected is not NUMBER or abs(value) <= sys.float_info.max


def is_number(value) -> bool:
    """Whether ``value`` is a finite int or float, as a JSON config's number: a bool is not."""
    return _has_type(value, NUMBER)


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
            name = (f"array of {_JSON_NAMES[expected[0]]}s" if isinstance(expected, list)
                    else _JSON_NAMES[expected])
            raise ConfigError(
                f"{what} config key {key!r} must be a JSON {name}, got {json.dumps(value)}")
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
