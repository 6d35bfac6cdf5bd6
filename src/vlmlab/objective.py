"""Loss aggregation over mixed batches of variable-length samples.

With m_s the mean token loss of sample s and n_s its token count, the batch
loss under every scheme is the weighted mean

    loss = sum_s w_s * m_s / sum_s w_s,      w_s = n_s ** p

where p selects the scheme: 0 weighs every sample equally (``per_sample``),
1 weighs every token equally (``per_token``), and 1/2 (``sqrt``) sits
between the two, damping the dominance of long samples without ignoring
length entirely.  Normalization is per batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

SCHEMES = {"per_sample": 0.0, "per_token": 1.0, "sqrt": 0.5}


@dataclass(frozen=True)
class SampleLossRecord:
    """The per-token losses of one sample; its weight reads their count only.

    Each loss is an int or a float (numpy float64 included), not a bool or a
    string, and is stored as a float."""

    token_losses: tuple[float, ...]

    def __post_init__(self):
        losses = tuple(self.token_losses)
        bad = [x for x in losses if isinstance(x, bool) or not isinstance(x, (int, float))]
        if bad:
            raise ValueError(f"token losses must be int or float numbers, got {bad[0]!r}")
        losses = tuple(map(float, losses))
        if not losses:
            raise ValueError("sample must contain at least one token loss")
        if any(not math.isfinite(x) or x < 0 for x in losses):
            raise ValueError("token losses must be finite and non-negative")
        object.__setattr__(self, "token_losses", losses)

    @property
    def token_count(self) -> int:
        return len(self.token_losses)

    @property
    def mean_loss(self) -> float:
        return sum(self.token_losses) / len(self.token_losses)


def _sample_weights(batch: Sequence[SampleLossRecord],
                    scheme: str) -> tuple[float, list[float], float]:
    """The scheme's exponent p, each sample's weight n_s**p, and their sum."""
    if not batch:
        raise ValueError("batch must be non-empty")
    try:
        p = SCHEMES[scheme]
    except KeyError:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {sorted(SCHEMES)}") from None
    weights = [s.token_count ** p for s in batch]
    return p, weights, sum(weights)


def aggregate(batch: Sequence[SampleLossRecord], scheme: str) -> float:
    """The batch loss under the chosen weighting scheme."""
    _, weights, total = _sample_weights(batch, scheme)
    return sum(w * s.mean_loss for w, s in zip(weights, batch)) / total


def gradient_weights(batch: Sequence[SampleLossRecord], scheme: str) -> list[float]:
    """The weight every token of each sample shares, one per sample.

    Every token of sample s weighs n_s**(p-1) / sum_s n_s**p, so
    sum_s weight_s * (sum of sample s's token losses) reproduces the
    aggregate exactly.
    """
    p, _, total = _sample_weights(batch, scheme)
    return [s.token_count ** (p - 1.0) / total for s in batch]
