"""Training-stage schedule, toy training loop, retrieval probe, and reports."""

from .niah import NiahConfig, NiahGroundTruth, build_niah_sequence, run_niah_probe
from .reports import emit_report
from .stages import StageConfig, load_stage_config
from .training import TrainingExample, TrainResult, make_synthetic_batch, train_toy

__all__ = [
    "NiahConfig", "NiahGroundTruth", "build_niah_sequence", "run_niah_probe",
    "emit_report",
    "StageConfig", "load_stage_config",
    "TrainingExample", "TrainResult", "make_synthetic_batch", "train_toy",
]
