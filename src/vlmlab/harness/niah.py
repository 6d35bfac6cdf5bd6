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

The grid scores each timeline in row blocks of a fixed size, so its scratch
memory does not grow with the timeline: beyond the timeline itself it keeps
one score per group and trial, and draws a noisy signature's noise rows one
block at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from .. import numerics, timeline
from ..errors import NUMBER, ConfigError, check_fields
from ..mrope import FrequencyAllocation, frame_group_ids, rotation_tables
from ..seeding import Rng
from ..sequence import MultimodalSequence
from ..timeline import SamplingPolicy, format_timestamp, interleave_timestamps, sample_frames

# Timeline rows run_niah_grid scores at a time, chosen by measurement: a
# block's largest arrays (64 KiB at 16-wide signatures) stay below glibc's
# 128 KiB mmap threshold, so each grid reuses heap pages, not fresh ones.
_BLOCK = 512


@dataclass(frozen=True)
class NiahConfig:
    """Grid shape and signature generation for the probe."""

    FIELD_TYPES = {"schema_version": int, "num_frames": int, "needle_depths": [NUMBER],
                   "trials": int, "seed": int, "durations_min": [NUMBER], "signature_dim": int,
                   "overlap": NUMBER, "signature_noise": NUMBER, "timestamp_style": str}

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
        check_fields(self, "niah")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if not 1 <= self.num_frames <= timeline.MAX_GROUPS:
            raise ConfigError(f"num_frames must lie in [1, {timeline.MAX_GROUPS}]")
        depths = tuple(float(d) for d in self.needle_depths)
        if not depths:
            raise ConfigError("needle_depths must not be empty")
        if any(not 0 < d < 1 for d in depths):
            raise ConfigError("needle depths must lie strictly inside (0, 1)")
        if list(depths) != sorted(set(depths)):
            raise ConfigError("needle depths must be strictly increasing")
        if self.trials < 1:
            raise ConfigError("trials must be at least 1")
        durations = tuple(float(d) for d in self.durations_min)
        if not durations:
            raise ConfigError("durations_min must not be empty")
        if min(durations) <= 0:
            raise ConfigError("durations must be finite and positive")
        if max(durations) * 60.0 == math.inf:
            raise ConfigError(f"durations of {max(durations)!r} min overflow in seconds")
        if self.signature_dim < 2 or self.signature_dim % 2:
            raise ConfigError("signature_dim must be even and >= 2")
        if not 0.0 <= self.overlap <= 1.0:
            raise ConfigError("overlap must lie in [0, 1]")
        if self.signature_noise < 0:
            raise ConfigError("signature_noise must be finite and non-negative")
        object.__setattr__(self, "needle_depths", depths)
        object.__setattr__(self, "durations_min", durations)

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


def _trial_keys(cfg: NiahConfig, trial_seed: int
                ) -> tuple[np.ndarray, np.ndarray, Callable[[int, int], np.ndarray] | None]:
    """A trial's needle and hay signatures, and ``noise(lo, hi)`` giving the
    noise rows of groups lo..hi (None without noise).  Group g's key is the
    hay (or, at the needle's group, the needle) signature plus noise row g,
    drawn from g's own stream: any block that draws it draws the same row.
    """
    rng = Rng(cfg.seed).split("build").split(trial_seed)
    needle, hay = _signatures(cfg, rng)
    if cfg.signature_noise == 0:
        return needle, hay, None
    noise_rng = rng.split("noise")

    def noise(lo: int, hi: int) -> np.ndarray:
        return np.stack([noise_rng.split(g).normal(cfg.signature_dim, cfg.signature_noise)
                         for g in range(lo, hi)])
    return needle, hay, noise


def _sample(cfg: NiahConfig, duration_s: float) -> np.ndarray:
    """A probe's frame times: 1 fps, capped at ``num_frames``."""
    policy = SamplingPolicy(max_frames=cfg.num_frames, token_budget=cfg.num_frames)
    return sample_frames(duration_s, native_fps=30.0, policy=policy)


def _needle_index(depth: float, groups: int) -> int:
    return math.floor(depth * (groups - 1) + 0.5)  # round half up


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
    frames = _sample(cfg, duration_s)
    seq = interleave_timestamps(frames, group_size=1, style=cfg.timestamp_style)
    needle_sig, hay, noise = _trial_keys(cfg, trial_seed)
    needle_index = _needle_index(depth, len(frames))
    keys = np.tile(hay, (len(frames), 1))
    keys[needle_index] = needle_sig
    if noise is not None:
        keys += noise(0, len(frames))

    needle_time = frames[needle_index].item()
    truth = NiahGroundTruth(
        group_index=needle_index,
        timestamp=needle_time,
        timestamp_text=format_timestamp(needle_time, cfg.timestamp_style),
        query_signature=tuple(needle_sig))
    return seq, keys, truth


@dataclass(frozen=True, eq=False)
class ProbeResult:
    predicted_index: int
    margin: float
    scores: np.ndarray  # (groups,) float64, in sequence order


def _scores(query: np.ndarray, keys: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Each row's score: the query and the row's key, both rotated by the row's angles, dotted.

    Every step works row by row, so a row scores the same alone as in a longer array,
    and ``run_niah_grid`` can score row blocks.  ``keys`` must be C-ordered: for a
    strided view such as ``np.broadcast_to``'s, ``np.empty_like`` is not, and
    ``einsum`` then sums each row in another order.
    """
    rotated_keys = numerics._rotated(keys, cos, sin)
    rotated_queries = numerics._rotated(np.tile(query, (len(keys), 1)), cos, sin)
    return np.einsum("ij,ij->i", rotated_queries, rotated_keys)


def _ranking(scores: np.ndarray) -> np.ndarray:
    """Row indices from the highest score down."""
    return np.argsort(scores)[::-1]


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
    scores = _scores(query, keys, cos, sin)
    order = _ranking(scores)
    predicted = int(order[0])
    margin = float(scores[order[0]] - scores[order[1]]) if groups > 1 else 0.0
    return ProbeResult(predicted_index=predicted, margin=margin, scores=scores)


def run_niah_grid(cfg: NiahConfig, alloc: FrequencyAllocation) -> list[list[float]]:
    """The accuracy table: one row per duration and one column per depth of ``cfg``, each
    cell's hits averaged over its trials.

    A cell's hit is ``run_niah_probe`` on ``build_niah_sequence``'s probe
    predicting the needle, but each distinct timeline is built once: a
    duration whose frames open a longer duration's frames reads the first
    columns of that timeline's per-trial hay scores.  A cell then scores
    only its needle row.

    The hay scores are taken ``_BLOCK`` rows at a time, each block with its
    own cos/sin tables, tiled keys and noise rows, and the needle's noise
    row is drawn when its cell is scored: beside the timeline, its ids and
    the (trials, groups) hay scores, the grid's scratch memory does not
    grow with the timeline.
    """
    if alloc.head_dim != cfg.signature_dim:
        raise ConfigError("allocation head_dim must match signature_dim")
    frame_sets = [_sample(cfg, minutes * 60.0) for minutes in cfg.durations_min]
    hits = np.zeros((len(frame_sets), len(cfg.needle_depths)), dtype=np.int64)
    pending = sorted(range(len(frame_sets)), key=lambda i: -len(frame_sets[i]))
    while pending:
        longest = frame_sets[pending[0]]
        rows = [i for i in pending if np.array_equal(frame_sets[i], longest[:len(frame_sets[i])])]
        pending = [i for i in pending if i not in rows]
        ids = frame_group_ids(interleave_timestamps(longest, group_size=1,
                                                    style=cfg.timestamp_style))
        signatures = [_trial_keys(cfg, trial) for trial in range(cfg.trials)]
        hay_scores = np.empty((cfg.trials, len(longest)))
        for lo in range(0, len(longest), _BLOCK):
            block = slice(lo, lo + _BLOCK)
            cos, sin = rotation_tables(ids[block], alloc)
            for trial, (needle, hay, noise) in enumerate(signatures):
                block_keys = np.tile(hay, (len(cos), 1))
                if noise is not None:
                    block_keys += noise(lo, lo + len(cos))
                hay_scores[trial, block] = _scores(needle, block_keys, cos, sin)
        for i in rows:
            groups = len(frame_sets[i])
            for j, depth in enumerate(cfg.needle_depths):
                n = _needle_index(depth, groups)
                cos, sin = rotation_tables(ids[n:n + 1], alloc)
                for trial, (needle, _, noise) in enumerate(signatures):
                    needle_key = needle if noise is None else needle + noise(n, n + 1)[0]
                    scores = hay_scores[trial, :groups].copy()
                    scores[n] = _scores(needle, needle_key[None], cos, sin)[0]
                    hits[i, j] += _ranking(scores)[0] == n
    return (hits / cfg.trials).tolist()
