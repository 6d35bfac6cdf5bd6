import pytest

from vlmlab.objective import SCHEMES, SampleLossRecord, aggregate, gradient_weights
from vlmlab.seeding import Rng


def record(losses):
    return SampleLossRecord(tuple(losses))


TWO_SAMPLE = [record([0.0]), record([1.0, 1.0, 1.0, 1.0])]


class TestAggregate:
    def test_two_sample_derived_values(self):
        assert aggregate(TWO_SAMPLE, "per_sample") == 0.5
        assert aggregate(TWO_SAMPLE, "per_token") == 0.8
        assert aggregate(TWO_SAMPLE, "sqrt") == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_constant_losses_any_scheme(self):
        batch = [record([0.7] * n) for n in (1, 3, 9)]
        for scheme in SCHEMES:
            assert aggregate(batch, scheme) == pytest.approx(0.7, abs=1e-15)

    def test_single_sample(self):
        batch = [record([0.5, 1.5, 2.5])]
        for scheme in SCHEMES:
            assert aggregate(batch, scheme) == pytest.approx(1.5, abs=1e-15)

    def test_equal_lengths_all_schemes_agree(self):
        rng = Rng(0)
        batch = [record(abs(rng.split(i).normal(6))) for i in range(5)]
        values = {scheme: aggregate(batch, scheme) for scheme in SCHEMES}
        assert values["per_sample"] == pytest.approx(values["per_token"], abs=1e-12)
        assert values["per_sample"] == pytest.approx(values["sqrt"], abs=1e-12)

    def test_empty_batch(self):
        with pytest.raises(ValueError, match="non-empty"):
            aggregate([], "sqrt")

    def test_unknown_scheme(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            aggregate(TWO_SAMPLE, "median")

    def test_reordering_invariance(self):
        rng = Rng(1)
        batch = [record(abs(rng.split(i).normal(int(rng.split(f"n{i}").integers(1, 9)))))
                 for i in range(6)]
        rev = list(reversed(batch))
        for scheme in SCHEMES:
            assert aggregate(batch, scheme) == pytest.approx(aggregate(rev, scheme), abs=1e-12)

    def test_duplicating_sample_invariant_only_for_per_token(self):
        # Splitting the 4-token sample into two copies of itself keeps the
        # per-token loss, while per-sample and sqrt shift as their weights do.
        short, long = TWO_SAMPLE
        half = record([1.0, 1.0])
        split = [short, half, half]
        assert aggregate(split, "per_token") == aggregate(TWO_SAMPLE, "per_token")
        # Regression-pinned values from the weighting formula.
        assert aggregate(split, "per_sample") == pytest.approx(2.0 / 3.0, abs=1e-15)
        expected_sqrt = (0.0 + 2 ** 0.5 + 2 ** 0.5) / (1 + 2 * 2 ** 0.5)
        assert aggregate(split, "sqrt") == pytest.approx(expected_sqrt, abs=1e-15)
        assert aggregate(split, "per_sample") != aggregate(TWO_SAMPLE, "per_sample")
        assert aggregate(split, "sqrt") != aggregate(TWO_SAMPLE, "sqrt")


class TestGradientWeights:
    def test_per_token_uniform(self):
        weights = gradient_weights(TWO_SAMPLE, "per_token")
        assert weights == [pytest.approx(1 / 5)] * 2

    def test_sqrt_two_sample(self):
        weights = gradient_weights(TWO_SAMPLE, "sqrt")
        assert weights[1] == pytest.approx(1 / 6)

    def test_per_sample_equals_per_token_for_unit_lengths(self):
        batch = [record([0.3]), record([0.9]), record([0.1])]
        assert gradient_weights(batch, "per_sample") == gradient_weights(batch, "per_token")

    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    def test_weighted_sum_reproduces_aggregate(self, scheme):
        rng = Rng(2)
        for trial in range(100):
            r = rng.split(trial)
            batch = [record(abs(r.split(i).normal(int(r.split(f"n{i}").integers(1, 12)))))
                     for i in range(int(r.split("b").integers(1, 6)))]
            weights = gradient_weights(batch, scheme)
            assert len(weights) == len(batch)
            total = sum(w * l for w, rec in zip(weights, batch) for l in rec.token_losses)
            assert total == pytest.approx(aggregate(batch, scheme), rel=1e-12)


def comonotone_batch(rng: Rng, n: int):
    """Sample means increase with token count: weighted means then order."""
    counts = sorted(int(c) for c in rng.split("n").integers(1, 40, n))
    means = sorted(float(m) for m in rng.split("m").uniform(n, 0.0, 5.0))
    return [record([m] * c) for c, m in zip(counts, means)]


def test_sqrt_sandwiched_for_comonotone_batches():
    rng = Rng(3)
    for trial in range(1000):
        batch = comonotone_batch(rng.split(trial), n=int(Rng(trial).integers(2, 7)))
        lo = aggregate(batch, "per_sample")
        hi = aggregate(batch, "per_token")
        mid = aggregate(batch, "sqrt")
        assert lo <= mid + 1e-12 and mid <= hi + 1e-12


class TestRecordValidation:
    def test_empty_losses_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            record([])

    def test_negative_loss_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            record([-0.1])
