"""The four-stage training schedule and its freeze semantics.

The reference schedule goes through alignment (only the merger trains),
full multimodal training, long-context, and ultra-long-context phases, on
about 67B, 1T, 1T and 100B tokens.  A stage here carries only the
schedule's shape, not its budgets: what trains and the documented sequence
length (8K, 8K, 32K and 256K tokens).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

from ..errors import ConfigError, check_fields, load_json_config

COMPONENTS = frozenset({"encoder", "merger", "decoder"})

# name -> (sequence_length, trainable components)
_STAGE_TABLE: dict[str, tuple[int, frozenset[str]]] = {
    "S0": (8_192, frozenset({"merger"})),
    "S1": (8_192, COMPONENTS),
    "S2": (32_768, COMPONENTS),
    "S3": (262_144, COMPONENTS),
}
STAGE_NAMES = tuple(_STAGE_TABLE)


@dataclass(frozen=True)
class StageConfig:
    FIELD_TYPES = {"schema_version": int, "name": str, "sequence_length": int, "trainable": [str]}

    name: str
    sequence_length: int
    trainable: frozenset[str]

    def __post_init__(self):
        check_fields(self, "stage")
        if self.name not in _STAGE_TABLE:
            raise ConfigError(f"unknown stage {self.name!r}; valid names: {', '.join(STAGE_NAMES)}")
        if self.sequence_length < 1:
            raise ConfigError("sequence_length must be positive")
        trainable = frozenset(self.trainable)
        unknown = trainable - COMPONENTS
        if unknown:
            raise ConfigError(f"unknown trainable components: {sorted(unknown)}")
        if self.name == "S0" and trainable != frozenset({"merger"}):
            raise ConfigError("stage S0 trains only the merger")
        object.__setattr__(self, "trainable", trainable)


def _builtin(name: str) -> StageConfig:
    seq_len, trainable = _STAGE_TABLE[name]
    return StageConfig(name=name, sequence_length=seq_len, trainable=trainable)


def load_stage_config(name_or_path: str) -> StageConfig:
    """Load a stage by built-in name (S0..S3) or from a JSON file.

    A JSON file holds one object with the StageConfig fields, checked like
    any ``--config``; missing fields fall back to the built-in row for its
    ``name``.
    """
    if name_or_path in _STAGE_TABLE:
        return _builtin(name_or_path)
    if not os.path.exists(name_or_path):
        raise ConfigError(
            f"unknown stage {name_or_path!r}; valid names: {', '.join(STAGE_NAMES)} "
            "(or pass a path to a JSON stage file)")
    raw = load_json_config(name_or_path, StageConfig.FIELD_TYPES, "stage")
    name = raw.get("name")
    if name not in _STAGE_TABLE:
        raise ConfigError(f"unknown stage {name!r}; valid names: {', '.join(STAGE_NAMES)}")
    return replace(_builtin(name), **raw)
