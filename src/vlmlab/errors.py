"""Shared exception types, and the type check on JSON config objects.

The CLI maps these onto exit codes: configuration problems exit with 2,
validation/parse failures with 3.
"""

from __future__ import annotations

import json
from typing import Mapping


class ShapeError(ValueError):
    """Tensor shapes or index bounds do not line up."""


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
    return isinstance(value, expected) and isinstance(value, bool) == (expected is bool)


def check_config_types(raw: Mapping, key_types: Mapping, what: str) -> None:
    """Reject keys absent from ``key_types`` and values of the wrong JSON type.

    ``key_types`` maps each key to a type, to ``NUMBER``, or to ``[t]`` for
    an array whose items are all of type ``t``.
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
