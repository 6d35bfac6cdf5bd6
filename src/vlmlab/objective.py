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
    """The per-token losses of one sample; its weight reads their count only."""

    token_losses: tuple[float, ...]

    def __post_init__(self):
        losses = tuple(float(x) for x in self.token_losses)
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


def _exponent(scheme: str) -> float:
    try:
        return SCHEMES[scheme]
    except KeyError:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {sorted(SCHEMES)}") from None


def aggregate(batch: Sequence[SampleLossRecord], scheme: str) -> float:
    """The batch loss under the chosen weighting scheme."""
    if not batch:
        raise ValueError("batch must be non-empty")
    p = _exponent(scheme)
    weights = [s.token_count ** p for s in batch]
    total = sum(weights)
    return sum(w * s.mean_loss for w, s in zip(weights, batch)) / total


def gradient_weights(batch: Sequence[SampleLossRecord], scheme: str) -> list[float]:
    """The weight every token of each sample shares, one per sample.

    Every token of sample s weighs n_s**(p-1) / sum_s n_s**p, so
    sum_s weight_s * (sum of sample s's token losses) reproduces the
    aggregate exactly.
    """
    if not batch:
        raise ValueError("batch must be non-empty")
    p = _exponent(scheme)
    total = sum(s.token_count ** p for s in batch)
    return [s.token_count ** (p - 1.0) / total for s in batch]
