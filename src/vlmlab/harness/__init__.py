"""Training-stage schedule, toy training loop, retrieval probe, and reports.

Each exported name is imported from its submodule on first access (PEP 562),
so ``from vlmlab.harness import NiahConfig`` loads the probe and not the model.
"""

import importlib

_EXPORTS = {
    "niah": ("NiahConfig", "NiahGroundTruth", "build_niah_sequence", "run_niah_probe"),
    "reports": ("emit_report",),
    "stages": ("StageConfig", "load_stage_config"),
    "training": ("TrainingBatch", "TrainingExample", "TrainResult", "make_synthetic_batch",
                 "train_toy"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later lookups find it without this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
