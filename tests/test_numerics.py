import inspect
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vlmlab import numerics as N
from vlmlab.errors import ConfigError, ShapeError
from vlmlab.numerics import Tensor
from vlmlab.seeding import Rng


def rand(shape, seed=0):
    return Tensor(Rng(seed).normal(shape))


class TestBasics:
    def test_matmul_identity(self):
        out = N.matmul(Tensor([[1.0, 0.0], [0.0, 1.0]]), Tensor([[3.0, 4.0], [5.0, 6.0]]))
        np.testing.assert_array_equal(out.data, [[3.0, 4.0], [5.0, 6.0]])

    def test_matmul_hand(self):
        out = N.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        np.testing.assert_array_equal(out.data, [[11.0]])

    def test_matmul_zero(self):
        zero = Tensor(np.zeros((2, 2)))
        out = N.matmul(zero, Tensor(Rng(3).normal((2, 5))))
        np.testing.assert_array_equal(out.data, np.zeros((2, 5)))

    def test_matmul_shape_error(self):
        with pytest.raises(ShapeError, match="inner dims"):
            N.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

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
                pytest.raises(ValueError, match="non-finite values in result of op 'scale'"):
            N.scale(Tensor([1e308]), 1e308)

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
            N.matmul(Tensor(np.ones(left)), Tensor(np.ones(right)))

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


class TestLayerNorm:
    def test_constant_row_is_zero(self):
        out = N.layer_norm(Tensor([[4.0, 4.0, 4.0]]), Tensor(np.ones(3)), Tensor(np.zeros(3)))
        np.testing.assert_allclose(out.data, np.zeros((1, 3)), atol=1e-12)

    def test_standardized_pair(self):
        out = N.layer_norm(Tensor([[1.0, -1.0]]), Tensor(np.ones(2)), Tensor(np.zeros(2)),
                           eps=1e-15)
        np.testing.assert_allclose(out.data, [[1.0, -1.0]], atol=1e-7)

    def test_zero_gain_broadcasts_bias(self):
        x = rand((4, 5), seed=9)
        bias = Rng(10).normal(5)
        out = N.layer_norm(x, Tensor(np.zeros(5)), Tensor(bias))
        np.testing.assert_array_equal(out.data, np.tile(bias, (4, 1)))

    def test_eps_positive(self):
        with pytest.raises(ValueError, match="eps"):
            N.layer_norm(rand((1, 2)), Tensor(np.ones(2)), Tensor(np.zeros(2)), eps=0.0)


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
        loss = N.scale(N.sum_all(N.matmul(const, weight)), 1e300)
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

    def test_listed_tensors_must_be_leaves_that_require_gradients(self):
        x = N.parameter(np.ones((2, 2)))
        hidden = N.gelu(x)
        loss = N.sum_all(hidden)
        with pytest.raises(ValueError, match="not a leaf"):
            loss.backward([hidden])
        with pytest.raises(ValueError, match="not a leaf"):
            loss.backward([x, Tensor(np.ones((2, 2)))])

    def test_listed_leaf_outside_the_graph_is_cleared(self):
        x, unused = N.parameter(np.asarray([3.0])), N.parameter(np.asarray([1.0]))
        N.sum_all(N.mul(unused, unused)).backward()
        N.sum_all(N.mul(x, x)).backward([x, unused])
        np.testing.assert_allclose(x.grad, [6.0])
        assert unused.grad is None

    @given(st.data())
    def test_listed_leaves_get_the_full_backwards_gradients(self, data):
        """Gradients of a listed subset are bit-identical to the full backward's;
        every other leaf of the graph ends with no gradient."""
        rng = Rng(data.draw(st.integers(0, 2 ** 32), label="seed"))
        kinds = data.draw(st.lists(st.sampled_from(["matrix", "vector"]), min_size=1,
                                   max_size=3), label="kinds")
        leaves = [N.parameter(rng.split("x").normal((3, 4)))]
        leaves += [N.parameter(rng.split(i).normal((4, 4) if kind == "matrix" else (4,)))
                   for i, kind in enumerate(kinds)]
        matrices = [p for p in leaves[1:] if p.data.ndim == 2]
        vectors = [p for p in leaves[1:] if p.data.ndim == 1]
        ops = ["gelu"] + ["matmul"] * bool(matrices) + ["add_bias", "layer_norm"] * bool(vectors)
        h = leaves[0]
        for op in data.draw(st.lists(st.sampled_from(ops), min_size=1, max_size=6), label="ops"):
            if op == "gelu":
                h = N.gelu(h)
            elif op == "matmul":
                h = N.matmul(h, data.draw(st.sampled_from(matrices)))
            elif op == "add_bias":
                h = N.add_bias(h, data.draw(st.sampled_from(vectors)))
            else:
                h = N.layer_norm(h, data.draw(st.sampled_from(vectors)),
                                 data.draw(st.sampled_from(vectors)))
        loss = N.sum_all(N.mul(h, Tensor(rng.split("w").normal((3, 4)))))
        loss.backward()
        full = [p.grad for p in leaves]
        listed = data.draw(st.sets(st.sampled_from(range(len(leaves)))), label="listed")
        loss.backward([leaves[i] for i in listed])
        for i, p in enumerate(leaves):
            if i in listed and full[i] is not None:
                assert np.array_equal(p.grad, full[i]), i
            else:
                assert p.grad is None, i


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
        (f"scale/r{rank}", shape, lambda t: N.sum_all(N.scale(t, -1.7))),
        (f"gelu/r{rank}", shape, lambda t: N.sum_all(N.gelu(t))),
    ]
OP_CASES += [
    ("add_bias/r2", (3, 4), _two_arg(N.add_bias, rand((4,), 94))),
    ("bias_of_add_bias", (4,), lambda t: N.sum_all(N.mul(N.add_bias(rand((3, 4), 95), t), rand((3, 4), 96)))),
    ("matmul_left", (3, 4), _two_arg(N.matmul, rand((4, 2), 97))),
    ("matmul_right", (4, 2), lambda t: N.sum_all(N.matmul(rand((3, 4), 98), t))),
    ("layer_norm_x", (3, 6), lambda t: N.sum_all(N.mul(
        N.layer_norm(t, rand((6,), 102), rand((6,), 103)), rand((3, 6), 104)))),
    ("layer_norm_gain", (6,), lambda t: N.sum_all(N.mul(
        N.layer_norm(rand((3, 6), 105), t, rand((6,), 106)), rand((3, 6), 107)))),
    ("layer_norm_bias", (6,), lambda t: N.sum_all(N.mul(
        N.layer_norm(rand((3, 6), 126), rand((6,), 127), t), rand((3, 6), 128)))),
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
]



def _attention_cases():
    """One case per parent slot of ``attention``, per rank and per mask mode:
    q (rows, 3) attends over 4 keys (rows equal to 4 when causal)."""
    cases = []
    for batch in ((), (2,)):
        for causal in (False, True):
            rows = 4 if causal else 3
            shapes = {"q": (*batch, rows, 3), "k": (*batch, 4, 3), "v": (*batch, 4, 2)}
            seed = 140 + 10 * len(batch) + 5 * causal
            for i, slot in enumerate("qkv"):
                def f(t, slot=slot, shapes=shapes, causal=causal, seed=seed):
                    args = {s: t if s == slot else rand(shape, seed + j)
                            for j, (s, shape) in enumerate(shapes.items())}
                    out = N.attention(args["q"], args["k"], args["v"], causal)
                    return N.sum_all(N.mul(out, rand(out.shape, seed + 3)))
                variant = f"r{len(batch) + 2}" + ("-causal" if causal else "")
                cases.append((f"attention_{slot}/{variant}", shapes[slot], f))
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
    out1 = N.matmul(Tensor(a), Tensor(b))
    out2 = N.matmul(Tensor(a), Tensor(b))
    assert out1.data.tobytes() == out2.data.tobytes()


def test_negative_seed_is_a_config_error():
    with pytest.raises(ConfigError, match="seed must be non-negative"):
        Rng(-1)


def test_split_streams_differ():
    a = Rng(42).split("x").normal(8)
    b = Rng(42).split("y").normal(8)
    assert not np.array_equal(a, b)
