"""Synthetic needle-in-a-haystack retrieval probe over long video timelines.

A probe sequence is a long run of frame groups sampled at one frame per
second, each prefixed with its textual timestamp, plus a key array holding
one content signature per group.  Hay groups share one signature; a single
needle group carries a distinct signature at a chosen relative depth.
Retrieval scores each group by rotating both the query and the group's key
to the group's position before taking the dot product, i.e. the attention
score the decoder would produce with query and key co-located.  Because the
rotary map is an isometry, a clean needle is found at any depth and any
length; degrading the signature separation degrades retrieval rather than
the mechanism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .. import numerics, timeline
from ..errors import ConfigError
from ..mrope import FrequencyAllocation, frame_group_ids, rotation_tables
from ..numerics import Tensor
from ..seeding import Rng
from ..sequence import MultimodalSequence
from ..timeline import SamplingPolicy, format_timestamp, interleave_timestamps, sample_frames


@dataclass(frozen=True)
class NiahConfig:
    """Grid shape and signature generation for the probe."""

    num_frames: int = 4096
    needle_depths: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    trials: int = 3
    seed: int = 0
    durations_min: tuple[float, ...] = (1.0, 8.0, 32.0, 68.27)
    signature_dim: int = 16
    overlap: float = 0.0
    signature_noise: float = 0.0
    timestamp_style: str = "seconds"

    def __post_init__(self):
        for name in ("num_frames", "trials", "signature_dim", "seed"):
            value = getattr(self, name)
            if type(value) is not int:
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if not 1 <= self.num_frames <= timeline.MAX_GROUPS:
            raise ConfigError(f"num_frames must lie in [1, {timeline.MAX_GROUPS}]")
        depths = tuple(float(d) for d in self.needle_depths)
        if not depths or any(not 0 < d < 1 for d in depths):
            raise ConfigError("needle depths must lie strictly inside (0, 1)")
        if list(depths) != sorted(set(depths)):
            raise ConfigError("needle depths must be strictly increasing")
        if self.trials < 1:
            raise ConfigError("trials must be at least 1")
        if not self.durations_min or not all(0 < d < math.inf for d in self.durations_min):
            raise ConfigError("durations must be finite and positive")
        if self.signature_dim < 2 or self.signature_dim % 2:
            raise ConfigError("signature_dim must be even and >= 2")
        if not 0.0 <= self.overlap <= 1.0:
            raise ConfigError("overlap must lie in [0, 1]")
        if not 0 <= self.signature_noise < math.inf:
            raise ConfigError("signature_noise must be finite and non-negative")
        object.__setattr__(self, "needle_depths", depths)
        object.__setattr__(self, "durations_min", tuple(float(d) for d in self.durations_min))

    def to_dict(self) -> dict:
        """Every field, tuples as lists, as a report's config records it."""
        raw = {f.name: getattr(self, f.name) for f in fields(self)}
        return {k: list(v) if isinstance(v, tuple) else v for k, v in raw.items()}


@dataclass(frozen=True)
class NiahGroundTruth:
    group_index: int
    timestamp: float
    timestamp_text: str
    query_signature: tuple[float, ...] = field(compare=False, default=())


def _signatures(cfg: NiahConfig, rng: Rng) -> tuple[np.ndarray, np.ndarray]:
    """A unit needle signature and a hay signature with chosen overlap."""
    needle = rng.split("needle").normal(cfg.signature_dim)
    needle /= np.linalg.norm(needle)
    raw = rng.split("hay").normal(cfg.signature_dim)
    ortho = raw - (raw @ needle) * needle
    ortho /= np.linalg.norm(ortho)
    hay = cfg.overlap * needle + math.sqrt(max(0.0, 1.0 - cfg.overlap ** 2)) * ortho
    return needle, hay


def build_niah_sequence(cfg: NiahConfig, duration_s: float, depth: float,
                        trial_seed: int = 0
                        ) -> tuple[MultimodalSequence, np.ndarray, NiahGroundTruth]:
    """Build one probe timeline with the needle at the given relative depth.

    Frames are taken at 1 fps (capped at ``num_frames``), one frame per
    group; the needle sits at group round(depth * (groups - 1)).  Returns
    the timestamped timeline, the (groups, signature_dim) key array whose
    row g is group g's content signature, and the ground truth.
    """
    if not 0 < depth < 1:
        raise ConfigError(f"depth must lie strictly inside (0, 1), got {depth}")
    if duration_s <= 0:
        raise ConfigError(f"duration must be positive, got {duration_s}")
    policy = SamplingPolicy(fps=1.0, max_frames=cfg.num_frames,
                            tokens_per_frame=1, token_budget=cfg.num_frames,
                            group_size=1)
    frames = sample_frames(duration_s, native_fps=30.0, policy=policy)
    seq = interleave_timestamps(frames, group_size=1, style=cfg.timestamp_style)

    rng = Rng(cfg.seed).split("build").split(trial_seed)
    needle_sig, hay_sig = _signatures(cfg, rng)
    groups = len(frames)
    needle_index = math.floor(depth * (groups - 1) + 0.5)  # round half up

    keys = np.tile(hay_sig, (groups, 1))
    keys[needle_index] = needle_sig
    if cfg.signature_noise > 0:
        noise_rng = rng.split("noise")
        keys += np.stack([noise_rng.split(g).normal(cfg.signature_dim, cfg.signature_noise)
                          for g in range(groups)])

    needle_time = frames[needle_index].item()
    truth = NiahGroundTruth(
        group_index=needle_index,
        timestamp=needle_time,
        timestamp_text=format_timestamp(needle_time, cfg.timestamp_style),
        query_signature=tuple(needle_sig))
    return seq, keys, truth


@dataclass(frozen=True)
class ProbeResult:
    predicted_index: int
    margin: float
    scores: tuple[float, ...]


def run_niah_probe(seq: MultimodalSequence, keys, query_signature,
                   alloc: FrequencyAllocation) -> ProbeResult:
    """Score every frame group against the query and predict the argmax.

    ``keys`` holds one content signature per frame group, in sequence
    order.  Keys are rotated at their groups' positions; the query is
    rotated to each group's position, with the same cos/sin tables, before
    the dot product, so a score reduces to the content similarity the
    rotary isometry preserves.  The margin is top1 minus top2 (0.0 with a
    single group).
    """
    group_ids = frame_group_ids(seq)
    groups = len(group_ids)
    if not groups:
        raise ConfigError("probe sequence has no frame groups")
    query = np.asarray(query_signature, dtype=np.float64)
    dim = query.shape[0]
    if query.ndim != 1 or dim != alloc.head_dim:
        raise ConfigError(f"query width {query.shape} vs allocation head_dim {alloc.head_dim}")
    keys = np.asarray(keys, dtype=np.float64)
    if keys.ndim != 2 or keys.shape[0] != groups:
        raise ConfigError(f"key array of shape {keys.shape} needs one signature row "
                          f"per frame group ({groups})")
    if keys.shape[1] != dim:
        raise ConfigError(f"signature width {keys.shape[1]} vs query width {dim}")

    cos, sin = rotation_tables(group_ids, alloc)
    rotated_keys = numerics.rotate_pairs(Tensor(keys), cos, sin).data
    rotated_queries = numerics.rotate_pairs(Tensor(np.tile(query, (groups, 1))), cos, sin).data
    scores = np.einsum("ij,ij->i", rotated_queries, rotated_keys)

    order = np.argsort(scores)[::-1]
    predicted = int(order[0])
    margin = float(scores[order[0]] - scores[order[1]]) if groups > 1 else 0.0
    return ProbeResult(predicted_index=predicted, margin=margin, scores=tuple(scores.tolist()))


def run_niah_grid(cfg: NiahConfig, alloc: FrequencyAllocation) -> dict:
    """Accuracy per (duration, depth) cell, averaged over trials."""
    if alloc.head_dim != cfg.signature_dim:
        raise ConfigError("allocation head_dim must match signature_dim")
    accuracies = []
    for duration_min in cfg.durations_min:
        row = []
        for depth in cfg.needle_depths:
            hits = 0
            for trial in range(cfg.trials):
                seq, keys, truth = build_niah_sequence(cfg, duration_min * 60.0, depth, trial)
                result = run_niah_probe(seq, keys, truth.query_signature, alloc)
                hits += int(result.predicted_index == truth.group_index)
            row.append(hits / cfg.trials)
        accuracies.append(row)
    return {
        "durations_min": list(cfg.durations_min),
        "depths": list(cfg.needle_depths),
        "accuracies": accuracies,
        "trials": cfg.trials,
    }
