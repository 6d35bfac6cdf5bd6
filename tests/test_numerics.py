import inspect
import math
import operator
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from vlmlab import numerics as N
from vlmlab import objective
from vlmlab.errors import ConfigError, ShapeError
from vlmlab.numerics import Tensor
from vlmlab.seeding import Rng


def rand(shape, seed=0):
    return Tensor(Rng(seed).normal(shape))


def no_bias(w):
    """A zero bias for ``linear`` with weight shape ``w``: the matrix product alone."""
    return Tensor(np.zeros(w[-1:]))


class TestBasics:
    # The test_matmul_* cases check the matrix product inside ``linear``.
    def test_matmul_identity(self):
        out = N.linear(Tensor([[1.0, 0.0], [0.0, 1.0]]), Tensor([[3.0, 4.0], [5.0, 6.0]]),
                       no_bias((2, 2)))
        np.testing.assert_array_equal(out.data, [[3.0, 4.0], [5.0, 6.0]])

    def test_matmul_hand(self):
        out = N.linear(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]), no_bias((2, 1)))
        np.testing.assert_array_equal(out.data, [[11.0]])

    def test_matmul_zero(self):
        zero = Tensor(np.zeros((2, 2)))
        out = N.linear(zero, Tensor(Rng(3).normal((2, 5))), no_bias((2, 5)))
        np.testing.assert_array_equal(out.data, np.zeros((2, 5)))

    def test_matmul_shape_error(self):
        with pytest.raises(ShapeError, match="inner dims"):
            N.linear(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))), no_bias((2, 3)))

    def test_linear_adds_the_bias_to_every_row(self):
        out = N.linear(Tensor([[1.0, 2.0], [0.0, 0.0]]), Tensor([[3.0], [4.0]]), Tensor([0.5]))
        np.testing.assert_array_equal(out.data, [[11.5], [0.5]])

    @pytest.mark.parametrize("bias", [(3,), (1,), (2, 2), ()])
    def test_linear_bias_shape_error(self, bias):
        with pytest.raises(ShapeError, match="bias"):
            N.linear(Tensor(np.ones((3, 4))), Tensor(np.ones((4, 2))), Tensor(np.ones(bias)))

    def test_tensor_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            Tensor([1.0, float("nan")])

    def test_tensor_data_is_readonly(self):
        t = Tensor([1.0, 2.0])
        with pytest.raises(ValueError):
            t.data[0] = 5.0

    def test_leaf_leaves_the_callers_array_writable(self):
        a = np.zeros(3)
        t = N.parameter(a)
        a[0] = 1.0
        np.testing.assert_array_equal(t.data, np.zeros(3))

    def test_overflowing_op_result_is_rejected(self):
        with np.errstate(over="ignore"), \
                pytest.raises(ValueError, match="non-finite values in result of op 'mul'"):
            N.mul(Tensor(1e308), Tensor(1e308))

    def test_batched_attention_is_per_entry(self):
        q, k, v = rand((3, 2, 4), seed=1), rand((3, 5, 4), seed=2), rand((3, 5, 6), seed=3)
        out = N.attention(q, k, v)
        for i in range(3):
            one = N.attention(Tensor(q.data[i]), Tensor(k.data[i]), Tensor(v.data[i]))
            np.testing.assert_array_equal(out.data[i], one.data)

    @pytest.mark.parametrize("left,right,match", [
        ((2, 3, 4), (3, 4, 2), "two rank-2"),
        ((3, 4), (2, 4, 2), "two rank-2"),
        ((2, 3, 4), (4, 2), "two rank-2"),
        ((1, 2, 3, 4), (1, 2, 4, 3), "two rank-2"),
        ((2, 3, 4), (2, 3, 4), "two rank-2"),
        ((4,), (4, 2), "two rank-2"),
        ((2, 3), (2, 3), "inner dims"),
    ])
    def test_matmul_operand_errors(self, left, right, match):
        with pytest.raises(ShapeError, match=match):
            N.linear(Tensor(np.ones(left)), Tensor(np.ones(right)), no_bias(right))

    @pytest.mark.parametrize("q,k,v,causal,match", [
        ((2, 4), (3, 4), (3, 4, 1), False, "rank-2 or three rank-3"),
        ((1, 2, 3, 4), (1, 2, 3, 4), (1, 2, 3, 4), False, "rank-2 or three rank-3"),
        ((2, 3, 4), (3, 3, 4), (3, 3, 4), False, "do not fit"),
        ((3, 4), (3, 5), (3, 2), False, "do not fit"),
        ((3, 4), (3, 4), (2, 2), False, "do not fit"),
        ((3, 0), (3, 0), (3, 2), False, "do not fit"),
        ((2, 4), (3, 4), (3, 2), True, "causal=True"),
    ])
    def test_attention_operand_errors(self, q, k, v, causal, match):
        with pytest.raises(ShapeError, match=match):
            N.attention(Tensor(np.ones(q)), Tensor(np.ones(k)), Tensor(np.ones(v)), causal)


def test_linear_is_bit_identical_to_its_numpy_steps():
    rng = Rng(5)
    x, w, b = (N.parameter(rng.split(name).normal(shape))
               for name, shape in (("x", (7, 5)), ("w", (5, 3)), ("b", (3,))))
    upstream = rng.split("g").normal((7, 3))
    out = N.linear(x, w, b)
    N.sum_all(N.mul(out, Tensor(upstream))).backward()
    expected = (x.data @ w.data + b.data, upstream @ w.data.T, x.data.T @ upstream,
                upstream.sum(axis=0))
    for got, want in zip((out.data, x.grad, w.grad, b.grad), expected):
        assert np.array_equal(got, want)


class TestSoftmax:
    """The softmax inside ``attention``.  Width-1 keys make each score the
    product of one query and one key value, and identity values make each
    output row the probability row itself."""

    @staticmethod
    def probabilities(query, keys):
        q = Tensor(np.reshape(query, (-1, 1)))
        return N.attention(q, Tensor(np.reshape(keys, (-1, 1))), Tensor(np.eye(len(keys)))).data

    def test_uniform(self):
        out = self.probabilities([0.0], [1.0, -2.0, 3.0, 0.5])
        np.testing.assert_array_equal(out, [[0.25] * 4])

    def test_hand_values(self):
        out = self.probabilities([1.0], [math.log(1.0), math.log(3.0)])
        np.testing.assert_allclose(out, [[0.25, 0.75]], atol=1e-15)

    def test_stabilized(self):
        out = self.probabilities([1.0], [1000.0, 0.0])
        np.testing.assert_allclose(out, [[1.0, 0.0]], atol=1e-300)

    def test_rows_sum_to_one(self):
        full = N.attention(rand((7, 3), seed=5), rand((13, 3), seed=6), Tensor(np.eye(13))).data
        causal = N.attention(rand((13, 3), seed=7), rand((13, 3), seed=6), Tensor(np.eye(13)),
                             causal=True).data
        for out in (full, causal):
            np.testing.assert_allclose(out.sum(axis=-1), np.ones(len(out)), atol=1e-12)
            assert (out >= 0).all()
        # A causal row puts no mass on later keys.
        np.testing.assert_array_equal(np.triu(causal, 1), np.zeros((13, 13)))

    def test_empty_axis_errors(self):
        with pytest.raises(ShapeError, match="do not fit"):
            N.attention(Tensor(np.zeros((2, 3))), Tensor(np.zeros((0, 3))),
                        Tensor(np.zeros((0, 2))))


def _attention_steps(q, k, v, causal, upstream):
    """Output and (q, k, v) gradients of attention as separate numpy steps:
    transpose, product, scale, mask, softmax, product, and their backwards."""
    def swap(x):
        return np.swapaxes(x, -1, -2)

    c = float(1.0 / np.sqrt(q.shape[-1]))
    kt = swap(k).copy()
    scaled = (q @ kt) * c
    if causal:
        scaled = np.where(np.tril(np.ones(scaled.shape[-2:], dtype=bool)), scaled, -np.inf)
    e = np.exp(scaled - scaled.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    g_p = upstream @ swap(v)
    g_scores = p * (g_p - (g_p * p).sum(axis=-1, keepdims=True)) * c
    return p @ v, g_scores @ swap(kt), swap(swap(q) @ g_scores), swap(p) @ upstream


class TestAttention:
    @pytest.mark.parametrize("batch,rows,causal", [
        ((), 5, False), ((), 7, True), ((), 64, True), ((3,), 6, False), ((3,), 6, True),
        ((2,), 64, False),
    ])
    def test_bit_identical_to_separate_steps(self, batch, rows, causal):
        rng = Rng(rows + len(batch) + causal)
        q, k = (N.parameter(rng.split(name).normal((*batch, rows, 8))) for name in "qk")
        v = N.parameter(rng.split("v").normal((*batch, rows, 5)))
        upstream = rng.split("g").normal((*batch, rows, 5))
        out = N.attention(q, k, v, causal)
        N.sum_all(N.mul(out, Tensor(upstream))).backward()
        expected = _attention_steps(q.data, k.data, v.data, causal, upstream)
        for got, want in zip((out.data, q.grad, k.grad, v.grad), expected):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("batch,rows", [((), 65), ((), 130), ((), 200), ((3,), 150)])
    def test_row_blocks_match_separate_steps(self, batch, rows):
        """Past one row block, causal rows are summed over fewer keys than the
        separate steps sum, so the results agree to rounding, not bit for bit."""
        rng = Rng(rows + len(batch))
        q, k = (N.parameter(rng.split(name).normal((*batch, rows, 8))) for name in "qk")
        v = N.parameter(rng.split("v").normal((*batch, rows, 5)))
        upstream = rng.split("g").normal((*batch, rows, 5))
        out = N.attention(q, k, v, causal=True)
        N.sum_all(N.mul(out, Tensor(upstream))).backward()
        expected = _attention_steps(q.data, k.data, v.data, True, upstream)
        for got, want in zip((out.data, q.grad, k.grad, v.grad), expected):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("j", [63, 64, 65, 128])
    def test_causal_across_row_blocks(self, j):
        """New keys and values from row j on leave every earlier output row as
        it was, bit for bit, on either side of a row block's edge."""
        rng = Rng(j)
        q, k, v = (rng.split(name).normal((130, 6)) for name in "qkv")
        base = N.attention(Tensor(q), Tensor(k), Tensor(v), causal=True).data
        k[j:], v[j:] = (rng.split(f"new {name}").normal((130 - j, 6)) for name in "kv")
        out = N.attention(Tensor(q), Tensor(k), Tensor(v), causal=True).data
        np.testing.assert_array_equal(out[:j], base[:j])
        assert not np.array_equal(out[j], base[j])

    def test_each_backward_uses_its_own_upstream_gradient(self):
        """Two losses on one output, differentiated in turn: each backward call
        gets that loss's gradients, none left over from the call before."""
        rng = Rng(9)
        q, k, v = (N.parameter(rng.split(name).normal((6, 4))) for name in "qkv")
        out = N.attention(q, k, v, causal=True)
        weights = rng.split("w").normal((6, 4))
        losses = {"sum": N.sum_all(out), "weighted": N.sum_all(N.mul(out, Tensor(weights)))}
        upstreams = {"sum": np.ones((6, 4)), "weighted": weights}
        for name in ("sum", "weighted", "sum"):
            losses[name].backward()
            expected = _attention_steps(q.data, k.data, v.data, True, upstreams[name])
            for got, want in zip((q.grad, k.grad, v.grad), expected[1:]):
                assert np.array_equal(got, want), name


def _stored_probability_attention(q, k, v, causal, upstream):
    """Output and (q, k, v) gradients of the row-blocked attention that keeps
    every block's probabilities for backward, the design recomputation
    replaced: the reference its outputs and gradients must match bit for bit."""
    def swap(x):
        return np.swapaxes(x, -1, -2)

    def prefix_sum(parts):
        total = parts[-1]
        for part in parts[-2::-1]:
            total[..., :part.shape[-2], :] += part
        return total

    m, d = q.shape[-2:]
    c = 1.0 / math.sqrt(d)
    kt = swap(k).copy()
    above = np.triu(np.ones((64, 64), dtype=bool), 1)
    blocks = []
    for start in range(0, m, 64) if causal else (0,):
        stop = min(start + 64, m) if causal else m
        keys = stop if causal else k.shape[-2]
        p = q[..., start:stop, :] @ kt[..., :keys]
        p *= c
        if causal:
            size = stop - start
            np.copyto(p[..., start:], -np.inf, where=above[:size, :size])
        p -= p.max(axis=-1, keepdims=True)
        np.exp(p, out=p)
        p /= p.sum(axis=-1, keepdims=True)
        blocks.append((slice(start, stop), keys, p))
    grads = []
    for rows, keys, p in blocks:
        g_rows = upstream[..., rows, :]
        gs = g_rows @ swap(v[..., :keys, :])
        gs -= (gs * p).sum(axis=-1, keepdims=True)
        gs *= p
        gs *= c
        grads.append((g_rows, gs))
    out = np.concatenate([p @ v[..., :keys, :] for _, keys, p in blocks], axis=-2)
    gq = np.concatenate([gs @ swap(kt[..., :keys])
                         for (_, keys, _), (_, gs) in zip(blocks, grads)], axis=-2)
    gk = prefix_sum([swap(swap(q[..., rows, :]) @ gs)
                     for (rows, _, _), (_, gs) in zip(blocks, grads)])
    gv = prefix_sum([swap(p) @ g for (_, _, p), (g, _) in zip(blocks, grads)])
    return out, gq, gk, gv


class TestRecomputedAttention:
    @given(batch=st.sampled_from([(), (1,), (3,)]), rows=st.integers(1, 260),
           keys=st.integers(1, 260), width=st.integers(1, 9), causal=st.booleans(),
           seed=st.integers(0, 2**16))
    @example(batch=(), rows=63, keys=63, width=8, causal=True, seed=0)
    @example(batch=(), rows=64, keys=64, width=8, causal=True, seed=0)
    @example(batch=(), rows=65, keys=65, width=8, causal=True, seed=0)
    @example(batch=(2,), rows=128, keys=128, width=4, causal=True, seed=0)
    @example(batch=(), rows=129, keys=129, width=8, causal=True, seed=0)
    @example(batch=(3,), rows=129, keys=65, width=8, causal=False, seed=0)
    def test_matches_stored_probabilities(self, batch, rows, keys, width, causal, seed):
        """Output and q, k, v gradients equal, bit for bit, those of the
        design that kept each row block's probabilities for backward."""
        keys = rows if causal else keys
        rng = Rng(seed)
        q = N.parameter(rng.split("q").normal((*batch, rows, width)))
        k = N.parameter(rng.split("k").normal((*batch, keys, width)))
        v = N.parameter(rng.split("v").normal((*batch, keys, 5)))
        upstream = rng.split("g").normal((*batch, rows, 5))
        out = N.attention(q, k, v, causal)
        N.sum_all(N.mul(out, Tensor(upstream))).backward()
        expected = _stored_probability_attention(q.data, k.data, v.data, causal, upstream)
        for got, want in zip((out.data, q.grad, k.grad, v.grad), expected):
            assert np.array_equal(got, want)

    def test_memory_linear_in_rows(self):
        """At n = 1,024 causal rows of width 8, forward keeps less than 1 MB
        (the probabilities alone would take 4.5 MB), and backward's peak stays
        under five 64-row blocks of all n keys: one block at a time."""
        n, d = 1024, 8
        rng = Rng(3)
        q, k, v = (N.parameter(rng.split(name).normal((n, d))) for name in "qkv")
        upstream = Tensor(rng.split("g").normal((n, d)))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = N.attention(q, k, v, causal=True)
            kept = tracemalloc.get_traced_memory()[0] - before
            loss = N.sum_all(N.mul(out, upstream))
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            loss.backward()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert kept < 2**20
        assert peak < 5 * 64 * n * 8


def _runs(lengths):
    bounds = np.cumsum([0, *lengths])
    return [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]


# Each op with segments, as (operand widths, parameter shapes, output width,
# call).  The linear shapes are the model's head, mlp1 and mlp2: one product
# over all rows gives other bits than one per run from 76 rows on in the
# head and mlp1 backward, and from 209 rows on in the head forward.
SEGMENTED_OPS = {
    "linear/head": ((16,), ((16, 300), (300,)), 300, N.linear),
    "linear/mlp1": ((16,), ((16, 32), (32,)), 32, N.linear),
    "linear/mlp2": ((32,), ((32, 16), (16,)), 16, N.linear),
    "layer_norm": ((16,), ((16,), (16,)), 16,
                   lambda x, gain, bias, segments: N.layer_norm(x, gain, bias, segments=segments)),
    "attention": ((8, 8, 8), (), 8, lambda q, k, v, segments: N.attention(q, k, v, False, segments)),
    "attention/causal": ((8, 8, 8), (), 8,
                         lambda q, k, v, segments: N.attention(q, k, v, True, segments)),
}


class TestSegments:
    @pytest.mark.parametrize("lengths", [[1, 300], [300, 1, 7], [5, 1, 300, 1]])
    def test_linear_fills_one_output_with_each_runs_products(self, lengths):
        """``linear`` writes each run's product into one output, and its x
        gradient into one array, and adds the runs' w gradients in place: the
        bits of one call per run.  A one-row run is a matrix-vector product,
        and above about 120 rows OpenBLAS switches kernels, so a product over
        all rows rounds otherwise in the forward and in each gradient."""
        rng = Rng(sum(lengths))
        x, upstream = rng.split("x").normal((sum(lengths), 16)), rng.split("g").normal(
            (sum(lengths), 300))
        w, b = rng.split("w").normal((16, 300)), rng.split("b").normal((300,))

        def once(run, segments):
            xs, ws, bs = N.parameter(x[run]), N.parameter(w), N.parameter(b)
            out = N.linear(xs, ws, bs, segments)
            N.sum_all(N.mul(out, Tensor(upstream[run]))).backward()
            return out.data, xs.grad, ws.grad, bs.grad

        out, gx, gw, gb = once(slice(None), N.Segments(lengths))
        runs = [once(run, None) for run in _runs(lengths)]
        assert out.tobytes() == np.concatenate([r[0] for r in runs]).tobytes()
        assert gx.tobytes() == np.concatenate([r[1] for r in runs]).tobytes()
        assert gw.tobytes() == reduce(operator.add, [r[2] for r in runs]).tobytes()
        assert gb.tobytes() == reduce(operator.add, [r[3] for r in runs]).tobytes()

    @pytest.mark.parametrize("name", sorted(SEGMENTED_OPS))
    @given(lengths=st.lists(st.integers(1, 90), min_size=1, max_size=4),
           seed=st.integers(0, 2**16))
    @example(lengths=[1], seed=0)
    @example(lengths=[75], seed=0)
    @example(lengths=[76], seed=0)
    @example(lengths=[209], seed=0)
    @example(lengths=[1, 75, 76, 209], seed=1)
    @example(lengths=[76, 76], seed=2)
    def test_one_call_per_run(self, name, lengths, seed):
        """With ``segments``, the output and the operand gradients are, byte
        for byte and in the same row layout, those of one call per run
        stacked; the parameter gradients are the runs' ones added in order."""
        widths, param_shapes, out_width, call = SEGMENTED_OPS[name]
        rng = Rng(seed)
        rows = sum(lengths)
        operands = [rng.split(f"x{i}").normal((rows, w)) for i, w in enumerate(widths)]
        params = [rng.split(f"p{i}").normal(shape) for i, shape in enumerate(param_shapes)]
        upstream = rng.split("g").normal((rows, out_width))

        def once(run, segments):
            xs = [N.parameter(x[run]) for x in operands]
            ps = [N.parameter(p) for p in params]
            out = call(*xs, *ps, segments)
            N.sum_all(N.mul(out, Tensor(upstream[run]))).backward()
            return out.data, [t.grad for t in xs], [t.grad for t in ps]

        out, grads, param_grads = once(slice(None), lengths)
        runs = [once(run, None) for run in _runs(lengths)]
        assert out.tobytes() == np.concatenate([r[0] for r in runs]).tobytes()
        for i, grad in enumerate(grads):
            assert grad.tobytes() == np.concatenate([r[1][i] for r in runs]).tobytes(), i
            assert all(grad.strides[0] == r[1][i].strides[0] for r in runs), i
        for i, grad in enumerate(param_grads):
            assert grad.tobytes() == reduce(operator.add, [r[2][i] for r in runs]).tobytes(), i

    @pytest.mark.parametrize("segments,match", [
        ([2.0, 3], "must be integers"),
        ([True, 4], "must be integers"),
        ([np.float64(2), 3], "must be integers"),
        (["2", 3], "must be integers"),
        ([0, 5], "must be at least 1"),
        ([-1, 6], "must be at least 1"),
        ([], "must be at least 1"),
        ([2, 2], "sum to 4, not to the 5 rows"),
        ([5, 1], "sum to 6, not to the 5 rows"),
    ])
    @pytest.mark.parametrize("op", ["linear", "layer_norm", "attention", "weighted_run_sum"])
    def test_bad_segment_lists(self, op, segments, match):
        x = rand((5, 4))
        calls = {"linear": lambda: N.linear(x, rand((4, 3), 1), rand((3,), 2), segments),
                 "layer_norm": lambda: N.layer_norm(x, rand((4,), 1), rand((4,), 2),
                                                    segments=segments),
                 "attention": lambda: N.attention(x, x, x, True, segments),
                 "weighted_run_sum": lambda: N.weighted_run_sum(rand((5,)), segments,
                                                                np.ones(len(segments)))}
        with pytest.raises(ShapeError, match=f"{op}: segment lengths {match}"):
            calls[op]()

    @pytest.mark.parametrize("segments", [[np.int64(2), 3], (np.uint8(1), 4), np.array([2, 3])])
    def test_numpy_integer_lengths_accepted(self, segments):
        """Lengths that are numpy integers pass the slower check and run as
        the Python ints of the same values."""
        x, w, b = rand((5, 4)), rand((4, 3), 1), rand((3,), 2)
        plain = [int(n) for n in segments]
        assert (N.linear(x, w, b, segments).data.tobytes()
                == N.linear(x, w, b, plain).data.tobytes())

    def test_checked_segments(self):
        """A ``Segments`` is the tuple of its lengths as ints, checked once,
        with each run's row slice; an op takes it as it takes the plain
        lengths, and still checks that it covers the operand's rows."""
        seg = N.Segments([np.int64(2), 3])
        assert seg == (2, 3) and all(type(n) is int for n in seg)
        assert (seg.runs, seg.rows) == ((slice(0, 2), slice(2, 5)), 5)
        x, w, b = rand((5, 4)), rand((4, 3), 1), rand((3,), 2)
        assert N.linear(x, w, b, seg).data.tobytes() == N.linear(x, w, b, [2, 3]).data.tobytes()
        with pytest.raises(ShapeError, match="layer_norm: segment lengths sum to 5, not to the "
                                             "6 rows"):
            N.layer_norm(rand((6, 4)), rand((4,), 1), rand((4,), 2), segments=seg)
        with pytest.raises(ShapeError, match="segments: segment lengths must be at least 1"):
            N.Segments([2, 0])

    @given(lengths=st.lists(st.integers(1, 20), min_size=1, max_size=8),
           scheme=st.sampled_from(sorted(objective.SCHEMES)), seed=st.integers(0, 2**16))
    @example(lengths=[1], scheme="sqrt", seed=0)
    @example(lengths=[13, 11, 14, 11, 12, 11, 13, 11], scheme="sqrt", seed=1)
    def test_weighted_run_sum_is_the_sum_all_mul_add_chain(self, lengths, scheme, seed):
        """The forward value and the gradient, under an upstream gradient
        other than 1, are byte for byte those of each run's ``sum_all``
        multiplied by its weight, the products added in run order."""
        rng = Rng(seed)
        x = np.abs(rng.split("x").normal(sum(lengths)))
        runs = _runs(lengths)
        weights = objective.gradient_weights(lengths, scheme)
        upstream = Tensor(rng.split("g").normal(()))

        leaf = N.parameter(x)
        out = N.weighted_run_sum(leaf, lengths, weights)
        N.mul(out, upstream).backward()

        parts = [N.parameter(x[run]) for run in runs]
        chain = reduce(N.add, [N.mul(N.sum_all(part), Tensor(w))
                               for part, w in zip(parts, weights)])
        N.mul(chain, upstream).backward()
        assert out.data.tobytes() == chain.data.tobytes()
        assert leaf.grad.tobytes() == np.concatenate([part.grad for part in parts]).tobytes()

    @pytest.mark.parametrize("x,weights,match", [
        ((5, 1), [1.0], "needs a vector"),
        ((5,), [1.0], r"\(1,\) weights for 2 runs"),
        ((5,), [[1.0, 2.0]], r"\(1, 2\) weights for 2 runs"),
    ])
    def test_weighted_run_sum_shapes(self, x, weights, match):
        with pytest.raises(ShapeError, match=match):
            N.weighted_run_sum(rand(x), [2, 3], weights)

    @pytest.mark.parametrize("causal", [False, True])
    def test_segments_with_rank_3_attention_rejected(self, causal):
        q = rand((2, 3, 4))
        with pytest.raises(ShapeError, match="attention: segments need rank-2 operands"):
            N.attention(q, q, q, causal, [3])

    def test_keys_split_like_queries(self):
        with pytest.raises(ShapeError, match="attention: segment lengths sum to 3, not to the 5"):
            N.attention(rand((3, 4)), rand((5, 4)), rand((5, 2)), segments=[1, 2])


class TestLayerNorm:
    def test_constant_row_is_zero(self):
        out = N.layer_norm(Tensor([[4.0, 4.0, 4.0]]), Tensor(np.ones(3)), Tensor(np.zeros(3)))
        np.testing.assert_allclose(out.data, np.zeros((1, 3)), atol=1e-12)

    def test_standardized_pair(self):
        """The pair's variance is 1, and layer_norm adds 1e-6 to it."""
        out = N.layer_norm(Tensor([[1.0, -1.0]]), Tensor(np.ones(2)), Tensor(np.zeros(2)))
        scaled = 1.0 / math.sqrt(1.0 + 1e-6)
        np.testing.assert_allclose(out.data, [[scaled, -scaled]], atol=1e-7)

    def test_zero_gain_broadcasts_bias(self):
        x = rand((4, 5), seed=9)
        bias = Rng(10).normal(5)
        out = N.layer_norm(x, Tensor(np.zeros(5)), Tensor(bias))
        np.testing.assert_array_equal(out.data, np.tile(bias, (4, 1)))


class TestBackward:
    def test_each_node_visited_once(self):
        # Diamond graph: loss uses x through two paths; gradient must be the
        # sum of both, not double-counted by revisits.
        x = N.parameter(np.asarray([2.0]))
        y = N.add(x, x)
        loss = N.sum_all(N.mul(y, y))
        loss.backward()
        np.testing.assert_allclose(x.grad, [16.0])

    def test_backward_requires_scalar(self):
        x = N.parameter(np.ones((2, 2)))
        with pytest.raises(ShapeError, match="scalar"):
            N.add(x, x).backward()

    def test_constant_operand_product_never_computed(self):
        # The constant's gradient product, 1e300 * 1e10, would overflow.
        const = Tensor(np.full((2, 3), 1e-200))
        weight = N.parameter(np.full((3, 2), 1e10))
        loss = N.mul(N.sum_all(N.linear(const, weight, no_bias((3, 2)))), Tensor(1e300))
        with np.errstate(over="raise"):
            loss.backward()
        assert const.grad is None
        np.testing.assert_allclose(weight.grad, np.full((3, 2), 2e100))

    def test_grad_reset_between_calls(self):
        x = N.parameter(np.asarray([3.0]))
        for _ in range(2):
            loss = N.sum_all(N.mul(x, x))
            loss.backward()
        np.testing.assert_allclose(x.grad, [6.0])

    def test_output_that_requires_no_gradient_leaves_every_grad_unset(self):
        x = Tensor(np.ones(3))
        hidden = N.gelu(x)
        loss = N.sum_all(hidden)
        loss.backward()
        assert [t.grad for t in (x, hidden, loss)] == [None, None, None]

    @given(st.data())
    def test_frozen_leaves_leave_the_others_gradients_bit_identical(self, data):
        """Leaves that require a gradient get the bytes the backward in which
        every leaf requires one gives them; the frozen ones get none."""
        rng = Rng(data.draw(st.integers(0, 2 ** 32), label="seed"))
        kinds = data.draw(st.lists(st.sampled_from(["matrix", "vector"]), min_size=1,
                                   max_size=3), label="kinds")
        values = [rng.split("x").normal((3, 4))]
        values += [rng.split(i).normal((4, 4) if kind == "matrix" else (4,))
                   for i, kind in enumerate(kinds)]
        matrices = [i for i, v in enumerate(values) if i and v.ndim == 2]
        vectors = [i for i, v in enumerate(values) if v.ndim == 1]
        biases = vectors or [None]
        ops = ["gelu"] + ["linear"] * bool(matrices) + ["layer_norm"] * bool(vectors)
        plan = []
        for op in data.draw(st.lists(st.sampled_from(ops), min_size=1, max_size=6), label="ops"):
            if op == "gelu":
                plan.append((op,))
            elif op == "linear":
                plan.append((op, data.draw(st.sampled_from(matrices)),
                             data.draw(st.sampled_from(biases))))
            else:
                plan.append((op, data.draw(st.sampled_from(vectors)),
                             data.draw(st.sampled_from(vectors))))
        weight = Tensor(rng.split("w").normal((3, 4)))

        def loss_of(leaves):
            h = leaves[0]
            for op, *args in plan:
                if op == "gelu":
                    h = N.gelu(h)
                elif op == "linear":
                    w, b = args
                    h = N.linear(h, leaves[w], no_bias((4,)) if b is None else leaves[b])
                else:
                    h = N.layer_norm(h, leaves[args[0]], leaves[args[1]])
            return N.sum_all(N.mul(h, weight))

        full = [N.parameter(v) for v in values]
        loss_of(full).backward()
        trainable = data.draw(st.sets(st.sampled_from(range(len(values)))), label="listed")
        leaves = [N.parameter(v) if i in trainable else Tensor(v) for i, v in enumerate(values)]
        loss_of(leaves).backward()
        for i, (leaf, reference) in enumerate(zip(leaves, full)):
            if i in trainable and reference.grad is not None:
                assert np.array_equal(leaf.grad, reference.grad), i
            else:
                assert leaf.grad is None, i


class TestGradCheck:
    def test_linear_function(self):
        err = N.grad_check(N.sum_all, rand((3, 4), seed=1))
        assert err < 1e-9

    def test_constant_function(self):
        const = Tensor(np.asarray(7.0))
        err = N.grad_check(lambda t: const, rand((2, 2), seed=2))
        assert err < 1e-12

    def test_softmax_cross_entropy(self):
        logits = rand((1, 8), seed=3)
        err = N.grad_check(lambda t: N.sum_all(N.token_nll(t, [5])), logits, h=1e-5)
        assert err < 1e-5

    def test_step_bounds(self):
        with pytest.raises(ValueError, match="step"):
            N.grad_check(N.sum_all, rand((2, 2)), h=1e-2)

    def test_non_finite_bumped_value_rejected(self):
        """f is finite at x but overflows a step above it: the Tensor that
        would hold the infinity refuses it, inside grad_check's loop."""
        def f(t):
            return N.mul(N.sum_all(t), Tensor(1e308))

        x = Tensor([1.7976931348623])
        assert math.isfinite(f(x).item())
        with np.errstate(over="ignore"), \
                pytest.raises(ValueError, match="non-finite values in result of op 'mul'"):
            N.grad_check(f, x)


def _gelu_scalar_cases():
    # gelu(0) = 0; large positive passes through, large negative vanishes
    x = Tensor([[0.0, 6.0, -6.0]])
    out = N.gelu(x)
    return out.data[0]


def test_gelu_limits():
    v0, vp, vn = _gelu_scalar_cases()
    assert v0 == 0.0
    assert abs(vp - 6.0) < 1e-6
    assert abs(vn) < 1e-6


def test_rotate_pairs_is_isometry():
    x = rand((5, 8), seed=11)
    ang = Rng(12).uniform((5, 4), -10, 10)
    out = N.rotate_pairs(x, np.cos(ang), np.sin(ang))
    np.testing.assert_allclose(np.linalg.norm(out.data, axis=1),
                               np.linalg.norm(x.data, axis=1), atol=1e-12)


def test_add_rows_at_rejects_duplicates():
    with pytest.raises(ShapeError, match="duplicate"):
        N.add_rows_at(rand((4, 3)), rand((2, 3), seed=1), [1, 1])


def test_gather_rows_out_of_range():
    with pytest.raises(ShapeError, match="out of range"):
        N.gather_rows(rand((3, 2)), [0, 3])


@given(st.lists(st.integers(0, 5), max_size=12), st.integers(0, 2 ** 32))
@example([3, 0, 5], 0)
@example([2, 2, 0, 2], 0)
@example([], 0)
def test_gather_rows_gradient_is_add_at_onto_zeros(indices, seed):
    """Unique indices write the gradient by assignment, repeated ones add it
    up; either way it is np.add.at onto zeros bit for bit, so an upstream
    -0.0 lands as +0.0."""
    rng = Rng(seed)
    x = N.parameter(rng.normal((6, 3)))
    upstream = rng.split("g").normal((len(indices), 3))
    upstream.flat[::2] = -0.0
    N.sum_all(N.mul(N.gather_rows(x, indices), Tensor(upstream))).backward()
    want = np.zeros((6, 3))
    np.add.at(want, np.asarray(indices, dtype=np.int64), upstream)
    assert x.grad.tobytes() == want.tobytes()


@pytest.mark.parametrize("indices", [[0.9, 2.2], [True, False], np.array([1.0])],
                         ids=["floats", "bools", "float-array"])
@pytest.mark.parametrize("op", [
    lambda idx: N.gather_rows(rand((4, 2)), idx),
    lambda idx: N.add_rows_at(rand((4, 2)), rand((len(idx), 2), seed=1), idx),
    lambda idx: N.token_nll(rand((len(idx), 4)), idx),
], ids=["gather_rows", "add_rows_at", "token_nll"])
def test_indices_must_be_integers(op, indices):
    """A float or bool index is not truncated or read as 0/1: it is refused."""
    with pytest.raises(ShapeError, match="integers"):
        op(indices)


@pytest.mark.parametrize("call, match", [
    (lambda: rand((2,)).item(), r"item\(\) on tensor of shape \(2,\)"),
    (lambda: N.add(rand((2, 3)), rand((3, 2))), r"add: \(2, 3\) vs \(3, 2\)"),
    (lambda: N.mul(rand((2,)), rand((3,))), r"mul: \(2,\) vs \(3,\)"),
    (lambda: N.reshape(rand((2, 3)), (4, 2)), r"reshape \(2, 3\) -> \(4, 2\)"),
    (lambda: N.reshape(rand((2, 3)), (-2, -3)),
     r"reshape \(2, 3\) -> \(-2, -3\): the sizes must be non-negative integers "
     "whose product is 6"),
    (lambda: N.reshape(rand((2, 3)), (-1, -6)),
     r"reshape \(2, 3\) -> \(-1, -6\): the sizes must be non-negative integers "
     "whose product is 6"),
    (lambda: N.reshape(rand((2, 3)), (2, 3.0)),
     r"reshape \(2, 3\) -> \(2, 3\.0\): the sizes must be non-negative integers "
     "whose product is 6"),
    (lambda: N.reshape(rand((2, 3)), (True, 6)),
     r"reshape \(2, 3\) -> \(True, 6\): the sizes must be non-negative integers "
     "whose product is 6"),
    (lambda: N.concat_rows([]), "concat_rows of nothing"),
    (lambda: N.concat_rows([rand((2, 3)), rand((2, 4))]),
     "concat_rows: operands must be rank 2 with equal widths"),
    (lambda: N.layer_norm(rand((2, 0)), rand((0,)), rand((0,))), "layer_norm: empty last axis"),
    (lambda: N.layer_norm(Tensor(1.0), rand((1,)), rand((1,))),
     "layer_norm needs at least one axis, got a scalar"),
    (lambda: N.layer_norm(rand((2, 3)), rand((3,)), rand((2,))),
     r"layer_norm: affine shapes \(3,\)/\(2,\) vs width 3"),
    (lambda: N.gather_rows(rand((4,)), [0]), r"gather_rows needs rank 2, got \(4,\)"),
    (lambda: N.gather_rows(rand((4, 2)), [[0, 1]]), "gather_rows: indices must be a flat sequence"),
    (lambda: N.add_rows_at(rand((4,)), rand((1, 2)), [0]), "add_rows_at needs rank-2 operands"),
    (lambda: N.add_rows_at(rand((4, 2)), rand((2, 2)), [0]),
     r"add_rows_at: 2 rows vs \(1,\) positions"),
    (lambda: N.add_rows_at(rand((4, 2)), rand((1, 3)), [0]), "add_rows_at: widths 2 vs 3"),
    (lambda: N.rotate_pairs(rand((2, 3)), np.ones((2, 1)), np.ones((2, 1))),
     r"rotate_pairs needs an even width, got \(2, 3\)"),
    (lambda: N.token_nll(rand((4,)), [0]), r"token_nll needs rank-2 logits, got \(4,\)"),
    (lambda: N.token_nll(rand((2, 4)), [0]), r"token_nll: 2 rows vs targets \(1,\)"),
    (lambda: N.token_nll(rand((2, 4)), [0, 4]), "token_nll: target id out of vocab 4"),
    (lambda: N.interpolate_bilinear(rand((2, 2)), 2, 2),
     r"interpolate_bilinear needs rank 3, got \(2, 2\)"),
    (lambda: N.interpolate_bilinear(rand((2, 2, 1)), 0, 2),
     "interpolate_bilinear: all grid sizes must be >= 1"),
    (lambda: N.grad_check(lambda t: t, rand((2,))), "grad_check: f must return a scalar"),
], ids=["item-of-a-vector", "add-shapes", "mul-shapes", "reshape-size",
        "reshape-two-negative-sizes", "reshape-minus-one-and-minus-six", "reshape-float-size",
        "reshape-bool-size", "concat-nothing", "concat-widths", "layer-norm-empty-width",
        "layer-norm-rank-0", "layer-norm-affine-shape", "gather-rank-1",
        "gather-nested-indices", "add-rows-at-rank-1", "add-rows-at-count", "add-rows-at-width",
        "rotate-odd-width", "token-nll-rank-1", "token-nll-target-count",
        "token-nll-target-out-of-vocab", "interpolate-rank-2", "interpolate-empty-grid",
        "grad-check-vector-output"])
def test_operand_errors(call, match):
    with pytest.raises(ShapeError, match=match):
        call()


def test_empty_index_lists_stay_legal():
    x = rand((3, 2))
    assert N.gather_rows(x, []).shape == (0, 2)
    assert N.add_rows_at(x, Tensor(np.zeros((0, 2))), []).data.tobytes() == x.data.tobytes()
    assert N.token_nll(Tensor(np.zeros((0, 4))), []).shape == (0,)


class TestInterpolate:
    def test_identity_resampling(self):
        table = rand((3, 4, 2), seed=20)
        out = N.interpolate_bilinear(table, 3, 4)
        np.testing.assert_array_equal(out.data, table.data)

    def test_hand_bilinear(self):
        table = Tensor(np.asarray([[[1.0], [3.0]]]))  # 1x2 grid
        out = N.interpolate_bilinear(table, 1, 3)
        np.testing.assert_allclose(out.data[0, :, 0], [1.0, 2.0, 3.0])

    def test_constant_preserved(self):
        table = Tensor(np.full((2, 2, 3), 0.7))
        out = N.interpolate_bilinear(table, 5, 9)
        np.testing.assert_allclose(out.data, np.full((5, 9, 3), 0.7))


# Every differentiable op, with a builder per supported rank.  The sweep
# checks 32 seeded inputs each against central differences.
def _two_arg(op, other):
    return lambda t: N.sum_all(op(t, other))


OP_CASES = []
for rank, shape in ((1, (6,)), (2, (3, 4))):
    OP_CASES += [
        (f"add/r{rank}", shape, lambda t, s=shape: N.sum_all(N.mul(N.add(t, rand(s, 91)), rand(s, 92)))),
        (f"add_right/r{rank}", shape, lambda t, s=shape: N.sum_all(N.mul(N.add(rand(s, 122), t), rand(s, 123)))),
        (f"mul/r{rank}", shape, _two_arg(N.mul, rand(shape, 93))),
        (f"mul_right/r{rank}", shape, lambda t, s=shape: N.sum_all(N.mul(N.mul(rand(s, 124), t), rand(s, 125)))),
        (f"gelu/r{rank}", shape, lambda t: N.sum_all(N.gelu(t))),
    ]
OP_CASES += [
    ("linear_x", (3, 4), lambda t: N.sum_all(N.mul(
        N.linear(t, rand((4, 2), 97), rand((2,), 94)), rand((3, 2), 95)))),
    ("linear_w", (4, 2), lambda t: N.sum_all(N.mul(
        N.linear(rand((3, 4), 98), t, rand((2,), 94)), rand((3, 2), 96)))),
    ("linear_b", (2,), lambda t: N.sum_all(N.mul(
        N.linear(rand((3, 4), 98), rand((4, 2), 97), t), rand((3, 2), 96)))),
    ("layer_norm_x", (3, 6), lambda t: N.sum_all(N.mul(
        N.layer_norm(t, rand((6,), 102), rand((6,), 103)), rand((3, 6), 104)))),
    ("layer_norm_gain", (6,), lambda t: N.sum_all(N.mul(
        N.layer_norm(rand((3, 6), 105), t, rand((6,), 106)), rand((3, 6), 107)))),
    ("layer_norm_bias", (6,), lambda t: N.sum_all(N.mul(
        N.layer_norm(rand((3, 6), 126), rand((6,), 127), t), rand((3, 6), 128)))),
    ("linear_x/segmented", (5, 4), lambda t: N.sum_all(N.mul(
        N.linear(t, rand((4, 2), 97), rand((2,), 94), [2, 3]), rand((5, 2), 95)))),
    ("linear_w/segmented", (4, 2), lambda t: N.sum_all(N.mul(
        N.linear(rand((5, 4), 98), t, rand((2,), 94), [1, 3, 1]), rand((5, 2), 96)))),
    ("linear_b/segmented", (2,), lambda t: N.sum_all(N.mul(
        N.linear(rand((5, 4), 98), rand((4, 2), 97), t, [3, 2]), rand((5, 2), 96)))),
    ("layer_norm_x/segmented", (5, 6), lambda t: N.sum_all(N.mul(
        N.layer_norm(t, rand((6,), 102), rand((6,), 103), segments=[2, 3]), rand((5, 6), 104)))),
    ("layer_norm_gain/segmented", (6,), lambda t: N.sum_all(N.mul(
        N.layer_norm(rand((5, 6), 105), t, rand((6,), 106), segments=[4, 1]),
        rand((5, 6), 107)))),
    ("layer_norm_bias/segmented", (6,), lambda t: N.sum_all(N.mul(
        N.layer_norm(rand((5, 6), 126), rand((6,), 127), t, segments=[1, 1, 3]),
        rand((5, 6), 128)))),
    ("gather_rows", (5, 3), lambda t: N.sum_all(N.mul(
        N.gather_rows(t, [0, 2, 2, 4]), rand((4, 3), 108)))),
    ("concat_rows", (2, 3), lambda t: N.sum_all(N.mul(
        N.concat_rows([t, rand((4, 3), 111)]), rand((6, 3), 112)))),
    ("concat_rows_later", (2, 3), lambda t: N.sum_all(N.mul(
        N.concat_rows([rand((4, 3), 132), t, rand((1, 3), 133)]), rand((7, 3), 134)))),
    ("add_rows_at_base", (5, 3), lambda t: N.sum_all(N.mul(
        N.add_rows_at(t, rand((2, 3), 113), [1, 3]), rand((5, 3), 114)))),
    ("add_rows_at_rows", (2, 3), lambda t: N.sum_all(N.mul(
        N.add_rows_at(rand((5, 3), 115), t, [0, 4]), rand((5, 3), 116)))),
    ("rotate_pairs", (4, 6), lambda t: N.sum_all(N.mul(
        N.rotate_pairs(t, np.cos(Rng(117).uniform((4, 3), -3, 3)),
                       np.sin(Rng(117).uniform((4, 3), -3, 3))), rand((4, 6), 118)))),
    ("token_nll", (4, 7), lambda t: N.sum_all(N.token_nll(t, [0, 3, 6, 2]))),
    ("reshape", (3, 4), lambda t: N.sum_all(N.mul(N.reshape(t, (2, 6)), rand((2, 6), 120)))),
    ("interpolate_bilinear/r3", (3, 4, 2), lambda t: N.sum_all(N.mul(
        N.interpolate_bilinear(t, 5, 7), rand((5, 7, 2), 121)))),
    ("sum_all/r3", (2, 3, 2), N.sum_all),
    ("weighted_run_sum", (6,), lambda t: N.weighted_run_sum(t, [2, 3, 1], [0.5, -1.3, 2.0])),
]



def _attention_cases():
    """One case per parent slot of ``attention``, per rank and per mask mode:
    q (rows, 3) attends over 4 keys (rows equal to 4 when causal).  A causal
    case of 66 rows, of width 2, crosses the edge of a row block.  Segmented
    cases split 5 rows into runs of 2 and 3, per mask mode."""
    cases = []

    def add_slots(variant, shapes, causal, seed, segments=None):
        for slot in "qkv":
            def f(t, slot=slot):
                args = {s: t if s == slot else rand(shape, seed + j)
                        for j, (s, shape) in enumerate(shapes.items())}
                out = N.attention(args["q"], args["k"], args["v"], causal, segments)
                return N.sum_all(N.mul(out, rand(out.shape, seed + 3)))
            cases.append((f"attention_{slot}/{variant}", shapes[slot], f))

    for batch in ((), (2,)):
        for causal in (False, True):
            rows = 4 if causal else 3
            add_slots(f"r{len(batch) + 2}" + ("-causal" if causal else ""),
                      {"q": (*batch, rows, 3), "k": (*batch, 4, 3), "v": (*batch, 4, 2)},
                      causal, 140 + 10 * len(batch) + 5 * causal)
    add_slots("r2-causal-66", {"q": (66, 2), "k": (66, 2), "v": (66, 2)}, True, 180)
    for causal in (False, True):
        add_slots("r2-segmented" + ("-causal" if causal else ""),
                  {"q": (5, 3), "k": (5, 3), "v": (5, 2)}, causal, 190 + 5 * causal, [2, 3])
    # One tensor as both queries and keys: the two slots' gradients add up.
    cases.append(("attention_qk/r2-causal", (4, 3), lambda t: N.sum_all(N.mul(
        N.attention(t, t, rand((4, 2), 170), causal=True), rand((4, 2), 171)))))
    return cases


OP_CASES += _attention_cases()

@pytest.mark.parametrize("name,shape,f", OP_CASES, ids=[c[0] for c in OP_CASES])
def test_grad_check_sweep(name, shape, f):
    worst = 0.0
    for trial in range(32):
        x = Tensor(Rng(1000 + trial).split(name).normal(shape))
        worst = max(worst, N.grad_check(f, x, h=1e-5))
    assert worst < 1e-5, f"{name}: max rel err {worst}"


def test_every_public_op_is_in_the_sweep():
    # Public functions as the benchmark tracer finds them, less the non-ops.
    ops = {name for name, fn in vars(N).items()
           if inspect.isfunction(fn) and fn.__module__ == N.__name__
           and not name.startswith("_")} - {"grad_check", "parameter"}
    # A case id is "<op>", "<op>_<operand>" or either with "/<variant>"; it
    # belongs to the longest op name it starts with.
    swept = set()
    for case_id, _, _ in OP_CASES:
        head = case_id.split("/")[0]
        swept.add(max((op for op in ops if head == op or head.startswith(op + "_")),
                      key=len, default=None))
    assert ops <= swept, f"ops without a grad_check case: {sorted(ops - swept)}"


def test_determinism_same_seed_bitwise():
    a = Rng(42).split("x").normal((16, 16))
    b = Rng(42).split("x").normal((16, 16))
    assert a.tobytes() == b.tobytes()
    c = Rng(42).split("b").normal(16)
    out1 = N.linear(Tensor(a), Tensor(b), Tensor(c))
    out2 = N.linear(Tensor(a), Tensor(b), Tensor(c))
    assert out1.data.tobytes() == out2.data.tobytes()


def test_negative_seed_is_a_config_error():
    with pytest.raises(ConfigError, match="seed must be non-negative"):
        Rng(-1)


@pytest.mark.parametrize("seed", ["3", 1.5, True, np.float64(2.0), np.True_])
def test_seed_that_is_not_an_integer_is_a_config_error(seed):
    with pytest.raises(ConfigError, match="seed must be an integer"):
        Rng(seed)


def test_numpy_integer_seed_seeds_as_its_value():
    assert Rng(np.int64(3)).seed == 3
    assert Rng(np.int64(3)).split("x").normal(4).tobytes() == Rng(3).split("x").normal(4).tobytes()


def test_split_streams_differ():
    a = Rng(42).split("x").normal(8)
    b = Rng(42).split("y").normal(8)
    assert not np.array_equal(a, b)
