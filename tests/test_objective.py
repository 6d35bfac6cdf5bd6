import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from vlmlab.objective import SCHEMES, aggregate, gradient_weights
from vlmlab.seeding import Rng


def batch(*runs):
    """The loss vector and counts of samples with these token losses."""
    losses = np.concatenate([np.asarray(run, dtype=np.float64) for run in runs])
    return losses, [len(run) for run in runs]


def reference_aggregate(runs, scheme):
    """The formula over one tuple of Python floats per sample, as the
    per-sample record objects computed it: the aggregate and the gradient
    weights."""
    p = SCHEMES[scheme]
    weights = [len(run) ** p for run in runs]
    total = sum(weights)
    means = [sum(run) / len(run) for run in runs]
    return (sum(w * m for w, m in zip(weights, means)) / total,
            [len(run) ** (p - 1.0) / total for run in runs])


TWO_SAMPLE = batch([0.0], [1.0, 1.0, 1.0, 1.0])


class TestAggregate:
    def test_two_sample_derived_values(self):
        assert aggregate(*TWO_SAMPLE, "per_sample") == 0.5
        assert aggregate(*TWO_SAMPLE, "per_token") == 0.8
        assert aggregate(*TWO_SAMPLE, "sqrt") == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_constant_losses_any_scheme(self):
        const = batch(*([0.7] * n for n in (1, 3, 9)))
        for scheme in SCHEMES:
            assert aggregate(*const, scheme) == pytest.approx(0.7, abs=1e-15)

    def test_single_sample(self):
        single = batch([0.5, 1.5, 2.5])
        for scheme in SCHEMES:
            assert aggregate(*single, scheme) == pytest.approx(1.5, abs=1e-15)

    def test_equal_lengths_all_schemes_agree(self):
        rng = Rng(0)
        equal = batch(*(abs(rng.split(i).normal(6)) for i in range(5)))
        values = {scheme: aggregate(*equal, scheme) for scheme in SCHEMES}
        assert values["per_sample"] == pytest.approx(values["per_token"], abs=1e-12)
        assert values["per_sample"] == pytest.approx(values["sqrt"], abs=1e-12)

    def test_empty_batch(self):
        with pytest.raises(ValueError, match="non-empty"):
            aggregate(np.zeros(0), [], "sqrt")
        with pytest.raises(ValueError, match="non-empty"):
            gradient_weights([], "sqrt")

    def test_unknown_scheme(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            aggregate(*TWO_SAMPLE, "median")

    def test_reordering_invariance(self):
        rng = Rng(1)
        runs = [abs(rng.split(i).normal(int(rng.split(f"n{i}").integers(1, 9))))
                for i in range(6)]
        for scheme in SCHEMES:
            assert aggregate(*batch(*runs), scheme) == pytest.approx(
                aggregate(*batch(*reversed(runs)), scheme), abs=1e-12)

    def test_duplicating_sample_invariant_only_for_per_token(self):
        # Splitting the 4-token sample into two copies of itself keeps the
        # per-token loss, while per-sample and sqrt shift as their weights do.
        split = batch([0.0], [1.0, 1.0], [1.0, 1.0])
        assert aggregate(*split, "per_token") == aggregate(*TWO_SAMPLE, "per_token")
        # Regression-pinned values from the weighting formula.
        assert aggregate(*split, "per_sample") == pytest.approx(2.0 / 3.0, abs=1e-15)
        expected_sqrt = (0.0 + 2 ** 0.5 + 2 ** 0.5) / (1 + 2 * 2 ** 0.5)
        assert aggregate(*split, "sqrt") == pytest.approx(expected_sqrt, abs=1e-15)
        assert aggregate(*split, "per_sample") != aggregate(*TWO_SAMPLE, "per_sample")
        assert aggregate(*split, "sqrt") != aggregate(*TWO_SAMPLE, "sqrt")


class TestGradientWeights:
    def test_per_token_uniform(self):
        weights = gradient_weights(TWO_SAMPLE[1], "per_token")
        assert weights.tolist() == [pytest.approx(1 / 5)] * 2

    def test_sqrt_two_sample(self):
        weights = gradient_weights(TWO_SAMPLE[1], "sqrt")
        assert weights[1] == pytest.approx(1 / 6)

    def test_per_sample_equals_per_token_for_unit_lengths(self):
        _, counts = batch([0.3], [0.9], [0.1])
        assert (gradient_weights(counts, "per_sample").tobytes()
                == gradient_weights(counts, "per_token").tobytes())

    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    def test_weighted_sum_reproduces_aggregate(self, scheme):
        rng = Rng(2)
        for trial in range(100):
            r = rng.split(trial)
            runs = [abs(r.split(i).normal(int(r.split(f"n{i}").integers(1, 12))))
                    for i in range(int(r.split("b").integers(1, 6)))]
            losses, counts = batch(*runs)
            weights = gradient_weights(counts, scheme)
            assert len(weights) == len(runs)
            total = sum(w * l for w, run in zip(weights, runs) for l in run)
            assert total == pytest.approx(aggregate(losses, counts, scheme), rel=1e-12)


# Non-negative losses with the signed zero, whole numbers and spans of magnitude
# at which a pairwise or reordered sum would round differently.
token_loss = st.one_of(st.floats(0.0, 50.0), st.sampled_from([-0.0, 0.0, 1.0, 1e-300, 1e300]))


@given(runs=st.lists(st.lists(token_loss, min_size=1, max_size=40), min_size=1, max_size=8),
       scheme=st.sampled_from(sorted(SCHEMES)))
@example(runs=[[1.0] * n for n in (13, 11, 14, 11, 12, 11, 13, 11, 15, 26, 33)], scheme="sqrt")
@example(runs=[[-0.0], [-0.0, -0.0]], scheme="per_token")
def test_arrays_give_the_reference_bytes(runs, scheme):
    """The array ``aggregate`` and ``gradient_weights`` equal the per-sample
    float formula byte for byte (15 ** -0.5 is one count numpy's own power
    rounds differently)."""
    losses, counts = batch(*runs)
    value, weights = reference_aggregate(runs, scheme)
    got = aggregate(losses, counts, scheme)
    assert type(got) is float
    assert np.float64(got).tobytes() == np.float64(value).tobytes()
    assert gradient_weights(counts, scheme).tobytes() == np.array(weights).tobytes()


def comonotone_batch(rng: Rng, n: int):
    """Sample means increase with token count: weighted means then order."""
    counts = sorted(int(c) for c in rng.split("n").integers(1, 40, n))
    means = sorted(float(m) for m in rng.split("m").uniform(n, 0.0, 5.0))
    return batch(*([m] * c for c, m in zip(counts, means)))


def test_sqrt_sandwiched_for_comonotone_batches():
    rng = Rng(3)
    for trial in range(1000):
        comon = comonotone_batch(rng.split(trial), n=int(Rng(trial).integers(2, 7)))
        lo = aggregate(*comon, "per_sample")
        hi = aggregate(*comon, "per_token")
        mid = aggregate(*comon, "sqrt")
        assert lo <= mid + 1e-12 and mid <= hi + 1e-12


class TestRecordValidation:
    """The checks on each sample's run of token losses and on the counts."""

    def test_empty_losses_rejected(self):
        for counts in ([1, 0], [2, -1]):
            with pytest.raises(ValueError, match="at least one"):
                aggregate([0.5, 0.5], counts, "sqrt")
            with pytest.raises(ValueError, match="at least one"):
                gradient_weights(counts, "sqrt")

    def test_negative_loss_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            aggregate([-0.1], [1], "sqrt")

    @pytest.mark.parametrize("losses", [[math.inf], [math.nan]], ids=["inf", "nan"])
    def test_non_finite_loss_rejected(self, losses):
        with pytest.raises(ValueError, match="finite"):
            aggregate(losses, [1], "sqrt")

    @pytest.mark.parametrize("losses", [(True, 1), ("1.5",), (None,), (1.0, b"2"), (1, 2),
                                        np.ones((1, 2))],
                             ids=["bool", "str", "none", "bytes", "int", "matrix"])
    def test_non_number_loss_rejected(self, losses):
        with pytest.raises(ValueError, match=r"vector of \d+ \(the counts' sum\) finite, "
                                             r"non-negative floats"):
            aggregate(losses, [len(losses)], "sqrt")

    def test_losses_must_fill_the_counts(self):
        for losses in ([0.5, 1.0, 2.0], [0.5]):
            with pytest.raises(ValueError, match=r"vector of 2 \(the counts' sum\)"):
                aggregate(losses, [1, 1], "sqrt")

    @pytest.mark.parametrize("counts", [[1.0, 1.0], [True, True], [[1, 1]]],
                             ids=["float", "bool", "matrix"])
    def test_counts_must_be_an_integer_vector(self, counts):
        with pytest.raises(ValueError, match="counts must be a vector of integers"):
            gradient_weights(counts, "sqrt")
