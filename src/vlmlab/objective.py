"""Loss aggregation over mixed batches of variable-length samples.

With m_s the mean token loss of sample s and n_s its token count, the batch
loss under every scheme is the weighted mean

    loss = sum_s w_s * m_s / sum_s w_s,      w_s = n_s ** p

where p selects the scheme: 0 weighs every sample equally (``per_sample``),
1 weighs every token equally (``per_token``), and 1/2 (``sqrt``) sits
between the two, damping the dominance of long samples without ignoring
length entirely.  Normalization is per batch.

A batch is one vector of every sample's token losses, one run after
another, and the count in each run.  Sums run left to right, as ``sum`` does.
"""

from __future__ import annotations

import numpy as np

SCHEMES = {"per_sample": 0.0, "per_token": 1.0, "sqrt": 0.5}


def _counts(counts, scheme: str) -> tuple[np.ndarray, float]:
    """``counts`` as a checked int64 vector, and the scheme's exponent p."""
    counts = np.asarray(counts)
    if not counts.size:
        raise ValueError("batch must be non-empty")
    if counts.ndim != 1 or counts.dtype.kind not in "iu" or counts.min() < 1:
        raise ValueError(f"counts must be a vector of integers: every sample holds at least "
                         f"one token loss, got {counts.tolist()}")
    try:
        return counts.astype(np.int64), SCHEMES[scheme]
    except KeyError:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {sorted(SCHEMES)}") from None


def _powers(counts: np.ndarray, p: float) -> np.ndarray:
    """n ** p for each count n, with the C library's ``pow``: numpy's own
    differs from it in the last bit for some counts (15 ** -0.5)."""
    return np.array([n ** p for n in counts.tolist()], dtype=np.float64)


def _running_total(values: np.ndarray) -> np.ndarray:
    """Each row's sum in the bits of ``sum`` of its floats: left to right, from 0."""
    return np.cumsum(values, axis=-1)[..., -1] + 0.0


def aggregate(losses, counts, scheme: str) -> float:
    """The batch loss under the chosen weighting scheme."""
    counts, p = _counts(counts, scheme)
    losses = np.asarray(losses)
    if losses.shape != (counts.sum(),) or losses.dtype.kind != "f" or not (
            np.isfinite(losses) & (losses >= 0)).all():
        raise ValueError(f"token losses must be a vector of {counts.sum()} (the counts' sum) "
                         "finite, non-negative floats")
    padded = np.zeros((len(counts), counts.max()))  # row s: sample s's losses, then zeros
    padded[np.arange(counts.max()) < counts[:, None]] = losses
    weights = _powers(counts, p)
    means = _running_total(padded) / counts
    return float(_running_total(weights * means) / _running_total(weights))


def gradient_weights(counts, scheme: str) -> np.ndarray:
    """The weight every token of each sample shares, one per sample.

    Every token of sample s weighs n_s**(p-1) / sum_s n_s**p, so
    sum_s weight_s * (sum of sample s's token losses) reproduces the
    aggregate exactly.
    """
    counts, p = _counts(counts, scheme)
    return _powers(counts, p - 1.0) / _running_total(_powers(counts, p))
