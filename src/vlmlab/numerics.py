"""Dense float64 tensors with reverse-mode automatic differentiation.

The design goal is auditability, not speed: values are immutable numpy
arrays (safe to share read-only across threads), every operation records
one tape node (op name, parents, backward closure), and ``backward`` walks
the tape once in topological order.  There is no broadcasting beyond the
last-axis bias vector of ``linear`` and ``layer_norm``.  ``attention``
also takes rank-3 operands, a batch of matrices along the first axis, so a
batch of independent attentions runs as one node.  It is fused: scores,
scale, mask, softmax and value product make one node that keeps, besides
its operands, only each row's max and sum of exponentials; backward
recomputes the probabilities from them one row block at a time, so its
memory grows linearly in the rows.  Causal attention runs its queries in row
blocks that meet only the keys up to their last row, so the masked triangle
is never computed.  ``linear`` fuses a projection's matrix product
and bias the same way.

Each differentiable op checks shapes, computes its forward value and passes
it to ``_node`` with one gradient function per parent, mapping the upstream
gradient to that parent's gradient (a vector-Jacobian product).  ``_node``
alone records the node: in ``backward`` it calls a parent's function only
if that parent ``requires_grad``: is such a leaf or has one as ancestor.  It
stores the first gradient a parent receives as it is and adds later ones.
No gradient is written in place.  ``backward`` walks only the tensors that
require a gradient; the others' ancestors require none either, so a frozen
leaf prunes whole subtrees and the rest keep their order, and with it the
order in which each gradient's terms are added.  After ``backward`` only
leaves hold a ``.grad``: a computed tensor drops its gradient once used.
``token_nll``, like ``attention``, keeps two floats per row instead of its
probabilities and recomputes them in backward.

``linear``, ``layer_norm`` and ``attention`` take ``segments``, the lengths
of runs of rank-2 rows, one after another; the default is one run of all
rows.  A packed batch of samples has one run per sample, and each run gets
the bits of its own call: every matrix product runs on one run's rows,
forward and backward, into one array for all runs (OpenBLAS picks its kernel
by shape, so a product over more rows may round otherwise), attention stays
inside each run, and each parameter gradient is summed per run and the sums
added in run order, as the tape adds the gradients of separate calls.
Row-wise ops (``add``, ``gelu``, ``rotate_pairs``, ``add_rows_at``) need no
segments.
``weighted_run_sum`` takes the runs of a vector, such as a packed batch's
token losses, and adds their sums, each times its own weight, in run order.
All four take their runs only as a ``Segments``, whose lengths are checked
once, when it is made, and refuse any other value, such as a list of lengths.

All differentiable operations here are validated against central finite
differences by :func:`grad_check`; see the test suite for the sweep over
every op and supported rank.
"""

from __future__ import annotations

import math
import operator
from functools import reduce
from itertools import accumulate
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import NonFiniteError, ShapeError, is_integer

_TANH_GELU_C = math.sqrt(2.0 / math.pi)
_LN_EPS = 1e-6  # added to each row's variance by ``layer_norm``
# Rows per block of causal ``attention``, and the keys each row of a block's
# diagonal square may not see.
_ROW_BLOCK = 64
_ABOVE_DIAGONAL = np.triu(np.ones((_ROW_BLOCK, _ROW_BLOCK), dtype=bool), 1)


class Tensor:
    """An immutable float64 array plus its tape node.

    ``_op`` names the producing operation, ``_parents`` references the input
    tensors, and ``_backward`` (set by ``_node``) passes an upstream
    gradient to each parent that requires one: the parent's first gradient
    is stored as it is, later ones are added.  Leaf tensors have no parents.
    """

    __slots__ = ("data", "requires_grad", "grad", "_op", "_parents", "_backward")

    def __init__(self, values, requires_grad: bool = False,
                 _op: str = "leaf", _parents: tuple["Tensor", ...] = ()):
        # A leaf copies its input, so freezing the array does not freeze the
        # caller's; op results are fresh arrays already.
        data = (np.array if _op == "leaf" else np.asarray)(values, dtype=np.float64)
        if not np.isfinite(data).all():
            raise NonFiniteError(f"non-finite values in result of op '{_op}'")
        data.flags.writeable = False
        self.data = data
        self.requires_grad = requires_grad or any(p.requires_grad for p in _parents)
        self.grad: np.ndarray | None = None
        self._op = _op
        self._parents = _parents
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def backward(self) -> None:
        """Accumulate gradients of this scalar output into its ancestors.

        Visits each tensor that requires a gradient once, in reverse
        topological order; a tensor that requires none is never visited.
        Afterwards only leaves hold a ``.grad``: each computed tensor, this
        output included, drops its gradient once it has passed it on.  An
        output that requires no gradient changes nothing.
        """
        if self.data.size != 1:
            raise ShapeError("backward() requires a scalar output")
        if not self.requires_grad:
            return

        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)  # post-order: after all its parents
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in seen:
                    stack.append((parent, False))

        for node in order:
            node.grad = None
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._parents:
                node._backward(node.grad)
                node.grad = None  # used up: only leaves keep a gradient

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, op={self._op!r})"


def parameter(values) -> Tensor:
    """A leaf tensor that participates in gradient accumulation."""
    return Tensor(values, requires_grad=True)


def _node(op: str, data: np.ndarray, parents: tuple[Tensor, ...],
          grads: Sequence[Callable], shared: Callable | None = None) -> Tensor:
    """The tape node of ``op``: ``grads[i]`` maps the upstream gradient to
    the gradient of ``parents[i]``.  With ``shared``, each ``grads[i]`` takes
    ``shared(upstream)`` instead, computed once per backward call."""
    node = Tensor(data, _op=op, _parents=parents)
    if node.requires_grad:
        def _backward(g: np.ndarray) -> None:
            h = g if shared is None else shared(g)
            for parent, grad in zip(parents, grads):
                if parent.requires_grad:
                    gp = grad(h)
                    parent.grad = gp if parent.grad is None else parent.grad + gp
        node._backward = _backward
    return node


def _identity(g: np.ndarray) -> np.ndarray:
    return g


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add: {a.shape} vs {b.shape}")
    return _node("add", a.data + b.data, (a, b), (_identity, _identity))


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"mul: {a.shape} vs {b.shape}")
    return _node("mul", a.data * b.data, (a, b),
                 (lambda g: g * b.data, lambda g: g * a.data))


def _swap_last(x: np.ndarray) -> np.ndarray:
    return np.swapaxes(x, -1, -2)


def linear(x: Tensor, w: Tensor, b: Tensor, segments: Segments | None = None) -> Tensor:
    """The projection x @ w + b of rank-2 ``x`` and ``w``, the bias vector
    ``b`` added to every row, as one node.

    ``segments`` splits the rows into runs, one run after another (by
    default one run of all rows).  Each run is its own product, forward and
    backward, written into one output (bias added in place) or x gradient;
    the w and b gradients are summed per run and added in run order: the
    bits of one call per run whose parameter gradients the tape adds up.
    """
    if x.data.ndim != 2 or w.data.ndim != 2:
        raise ShapeError(f"linear needs two rank-2 operands, got {x.shape} and {w.shape}")
    if x.shape[1] != w.shape[0]:
        raise ShapeError(f"linear: inner dims {x.shape} x {w.shape}")
    if b.shape != w.shape[1:]:
        raise ShapeError(f"linear: bias {b.shape} vs output width {w.shape[1]}")
    runs = _runs(segments, x.shape, "linear")
    out = _run_products(x.data, w.data, runs)
    out += b.data
    return _node("linear", out, (x, w, b),
                 (lambda g: _run_products(g, w.data.T, runs),
                  lambda g: reduce(operator.iadd, [x.data[r].T @ g[r] for r in runs]),
                  lambda g: _sum_runs(g, runs)))


def _run_products(a: np.ndarray, b: np.ndarray, runs: Sequence[slice]) -> np.ndarray:
    """``a @ b``, each run of ``a``'s rows its own product, in one array."""
    out = np.empty((a.shape[0], b.shape[1]))
    for r in runs:
        np.matmul(a[r], b, out=out[r])
    return out


def _stack(parts: Sequence[np.ndarray], axis: int = -2) -> np.ndarray:
    """Row blocks stacked in order; a single block is returned as it is."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=axis)


def _sum_runs(g: np.ndarray, runs: Sequence[slice]) -> np.ndarray:
    """Gradient of a vector added to every row: ``g`` summed over the rows of
    each run, the sums added in run order."""
    return reduce(operator.add, [g[r].sum(axis=0) for r in runs])


def attention(q: Tensor, k: Tensor, v: Tensor, causal: bool = False,
              segments: Segments | None = None) -> Tensor:
    """Scaled dot-product attention, softmax(q k^T / sqrt(width)) v, as one node.

    Operands are rank 2, (rows, width), or rank 3, a batch of independent
    attentions along the first axis.  ``causal`` hides from each query the
    keys after its own row.  ``segments`` splits the rows of rank-2 operands,
    queries and keys alike, into runs, one after another (by default one run
    of all rows): each run attends only within itself, as its own call
    would, and no mask over the whole rows is ever built.  Causal queries
    run in blocks of ``_ROW_BLOCK`` rows of a run, each meeting only the
    keys up to its last row, so the masked triangle beyond the blocks'
    diagonal squares is never computed, forward or backward.  Without the
    mask, all rows of a run make one block.  Each block writes its ``p @ v``
    and its q gradient into one array each.  The node keeps q, k^T and v and
    two floats per row, each block's row max and row sum, so its memory
    grows linearly in the rows.  Backward walks each run's blocks from the
    last to the first, recomputing each one's probabilities with the
    forward's own expressions, so they come out bit for bit the same; it
    holds one block's probabilities and score gradient at a time.  The k
    gradient is laid out as one call's is, rows along the faster axis.
    """
    if not q.data.ndim == k.data.ndim == v.data.ndim in (2, 3):
        raise ShapeError(f"attention needs three rank-2 or three rank-3 operands, "
                         f"got {q.shape}, {k.shape} and {v.shape}")
    *batch, m, d = q.shape
    n = k.shape[-2]
    if k.shape != (*batch, n, d) or v.shape[:-1] != (*batch, n) or 0 in (n, d) \
            or causal and m != n:
        raise ShapeError(f"attention: q {q.shape}, k {k.shape} and v {v.shape} "
                         f"do not fit (causal={causal})")
    runs = _runs(segments, q.shape, "attention")
    _runs(segments, k.shape, "attention")  # the keys split alike
    c = 1.0 / math.sqrt(d)

    def _scores(qs: np.ndarray, kt: np.ndarray, rows: slice, keys: int) -> np.ndarray:
        """A block's scaled scores, its keys after each row at -inf if causal."""
        s = qs[..., rows, :] @ kt[..., :keys]
        s *= c
        if causal:
            size = rows.stop - rows.start
            np.copyto(s[..., rows.start:], -np.inf, where=_ABOVE_DIAGONAL[:size, :size])
        return s

    # Per run: its q, k^T and v, and per block (query rows, keys they meet,
    # row max, row sum).
    saved = []
    out = np.empty((*q.shape[:-1], v.shape[-1]))
    for run in runs:
        qs, vs = q.data[..., run, :], v.data[..., run, :]
        kt = _swap_last(k.data[..., run, :]).copy()
        rows_in_run, blocks = qs.shape[-2], []
        for start in range(0, rows_in_run, _ROW_BLOCK) if causal else (0,):
            rows = slice(start, min(start + _ROW_BLOCK, rows_in_run) if causal else rows_in_run)
            keys = rows.stop if causal else kt.shape[-1]
            p = _scores(qs, kt, rows, keys)
            top = p.max(axis=-1, keepdims=True)
            p -= top
            np.exp(p, out=p)
            total = p.sum(axis=-1, keepdims=True)
            p /= total
            blocks.append((rows, keys, top, total))
            np.matmul(p, vs[..., :keys, :], out=out[..., run, :][..., rows, :])
        saved.append((run, qs, kt, vs, blocks))

    def _grads(g):
        """The q, k and v gradients, run by run.  In a run, one block at a
        time from the last, the full-width one: the q parts written into one
        array, each earlier block's k and v parts added onto the leading
        rows of the sums so far.  The runs' k gradients are stacked
        transposed, so each keeps the layout it has alone."""
        gq, gk, gv = np.empty_like(q.data), [], []
        for run, qs, kt, vs, blocks in saved:
            g_run = g[..., run, :]
            gk_run = gv_run = None
            for rows, keys, top, total in reversed(blocks):
                p = _scores(qs, kt, rows, keys)
                p -= top
                np.exp(p, out=p)
                p /= total
                g_rows = g_run[..., rows, :]
                gs = g_rows @ _swap_last(vs[..., :keys, :])
                gs -= (gs * p).sum(axis=-1, keepdims=True)
                gs *= p
                gs *= c
                np.matmul(gs, _swap_last(kt[..., :keys]), out=gq[..., run, :][..., rows, :])
                gk_part = _swap_last(_swap_last(qs[..., rows, :]) @ gs)
                gv_part = _swap_last(p) @ g_rows
                if gk_run is None:
                    gk_run, gv_run = gk_part, gv_part
                else:
                    gk_run[..., :keys, :] += gk_part
                    gv_run[..., :keys, :] += gv_part
            gk.append(_swap_last(gk_run))
            gv.append(gv_run)
        return gq, _swap_last(_stack(gk, axis=-1)), _stack(gv)

    return _node("attention", out, (q, k, v),
                 (lambda h: h[0], lambda h: h[1], lambda h: h[2]), _grads)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    if not all((type(n) is int or is_integer(n)) and n >= 0 for n in shape) \
            or math.prod(shape) != x.data.size:
        raise ShapeError(f"reshape {x.shape} -> {shape}: the sizes must be non-negative "
                         f"integers whose product is {x.data.size}")
    return _node("reshape", x.data.reshape(shape), (x,), (lambda g: g.reshape(x.shape),))


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    """Stack rank-2 tensors of equal width vertically; one alone is returned."""
    if not parts:
        raise ShapeError("concat_rows of nothing")
    if parts[0].data.ndim != 2 or len({p.shape[1:] for p in parts}) != 1:
        raise ShapeError("concat_rows: operands must be rank 2 with equal widths")
    if len(parts) == 1:
        return parts[0]
    bounds = list(accumulate((p.shape[0] for p in parts), initial=0))
    return _node("concat_rows", np.concatenate([p.data for p in parts]), tuple(parts),
                 [lambda g, lo=lo, hi=hi: g[lo:hi] for lo, hi in zip(bounds, bounds[1:])])


def sum_all(x: Tensor) -> Tensor:
    return _node("sum", np.asarray(x.data.sum()), (x,),
                 (lambda g: np.full_like(x.data, float(g)),))


def weighted_run_sum(x: Tensor, segments: Segments, weights: Sequence[float]) -> Tensor:
    """The sum over runs of a vector's entries of each run's sum times its
    weight, as one node.

    ``segments`` splits the entries into runs, one after another, and
    ``weights`` gives one weight per run.  Each run's sum is multiplied by
    its weight and the products added left to right; backward gives each
    entry its run's weight times the upstream gradient.  These are the bits
    of ``mul`` of each run's ``sum_all`` by its weight, added by ``add``.
    """
    if x.data.ndim != 1:
        raise ShapeError(f"weighted_run_sum needs a vector, got {x.shape}")
    runs = _runs(segments, x.shape, "weighted_run_sum", rank=1)
    w = np.array(weights, dtype=np.float64)
    if w.shape != (len(runs),):
        raise ShapeError(f"weighted_run_sum: {w.shape} weights for {len(runs)} runs")
    total = reduce(operator.add, [x.data[r].sum() * c for r, c in zip(runs, w)])
    return _node("weighted_run_sum", np.asarray(total), (x,),
                 (lambda g: np.repeat(g * w, segments),))


def gelu(x: Tensor) -> Tensor:
    """Tanh-approximation GELU (smooth, no special-function dependency)."""
    u = _TANH_GELU_C * (x.data + 0.044715 * x.data ** 3)
    t = np.tanh(u)

    def _grad(g):
        du = _TANH_GELU_C * (1.0 + 3 * 0.044715 * x.data ** 2)
        return g * (0.5 * (1.0 + t) + 0.5 * x.data * (1.0 - t ** 2) * du)

    return _node("gelu", 0.5 * x.data * (1.0 + t), (x,), (_grad,))


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor,
               segments: Segments | None = None) -> Tensor:
    """Normalize each row of rank-2 ``x`` to zero mean / unit variance, then affine.

    Rows are normalized one by one, each divided by the square root of its
    variance plus ``_LN_EPS`` (1e-6).  ``segments`` splits the rows into
    runs, one after another (by default one run of all rows); the gain and
    bias gradients are summed per run and added in run order, as the tape
    adds those of one call per run.
    """
    if x.data.ndim != 2:
        raise ShapeError(f"layer_norm needs a rank-2 operand, got {x.shape}")
    d = x.shape[1]
    if d < 1:
        raise ShapeError("layer_norm: empty last axis")
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer_norm: affine shapes {gain.shape}/{bias.shape} vs width {d}")
    runs = _runs(segments, x.shape, "layer_norm")

    def mean(a):  # ndarray.mean's own sum and division, without its wrapper
        return np.add.reduce(a, axis=-1, keepdims=True) / d

    xc = x.data - mean(x.data)
    # np.var's own steps, without its second mean and subtraction.
    inv = 1.0 / np.sqrt(mean(xc * xc) + _LN_EPS)
    xhat = xc * inv

    def _grad_x(g):
        gx = g * gain.data
        return inv * (gx - mean(gx) - xhat * mean(gx * xhat))

    return _node("layer_norm", xhat * gain.data + bias.data, (x, gain, bias),
                 (_grad_x, lambda g: _sum_runs(g * xhat, runs), lambda g: _sum_runs(g, runs)))


def _indices(values, op: str) -> np.ndarray:
    """``values`` as an int64 array; a float or bool is not an index, while
    an empty sequence (float64 to numpy) is."""
    idx = np.asarray(values)
    if idx.size and idx.dtype.kind not in "iu":
        raise ShapeError(f"{op}: indices must be integers, got dtype {idx.dtype}")
    return idx.astype(np.int64, copy=False)


class Segments(tuple):
    """Lengths of runs of rows, one after another, checked once: a tuple of
    at least one positive int, with each run's row slice (``runs``) and their
    total (``rows``).  ``linear``, ``layer_norm``, ``attention`` and
    ``weighted_run_sum`` take their runs only as one."""

    def __new__(cls, lengths: Iterable[int]):
        lengths = list(lengths)
        # ``type(n) is int`` first: the ABC check of ``is_integer`` is slow.
        if not all(type(n) is int or is_integer(n) for n in lengths):
            raise ShapeError(f"segments: segment lengths must be integers, got {lengths!r}")
        if not lengths or min(lengths) < 1:
            raise ShapeError(f"segments: segment lengths must be at least 1, got {lengths}")
        self = super().__new__(cls, map(int, lengths))
        bounds = list(accumulate(self, initial=0))
        self.runs = tuple(slice(lo, hi) for lo, hi in zip(bounds, bounds[1:]))
        self.rows = bounds[-1]
        return self


def _runs(segments: Segments | None, shape: tuple[int, ...], op: str,
          rank: int = 2) -> Sequence[slice]:
    """The row slices of ``segments``, a ``Segments`` that covers the rows of
    an operand of ``shape`` and ``rank``.  ``None`` is one run covering every
    row, in any rank, except where the runs split a vector (``rank`` 1):
    ``weighted_run_sum`` needs them."""
    if segments is None and rank == 2:
        return [slice(None)]
    if not isinstance(segments, Segments):
        raise ShapeError(f"{op}: segments must be a Segments, got {type(segments).__name__}")
    if len(shape) != rank:
        raise ShapeError(f"{op}: segments need rank-{rank} operands, got shape {shape}")
    if segments.rows != shape[0]:
        raise ShapeError(f"{op}: segment lengths sum to {segments.rows}, not to the "
                         f"{shape[0]} rows")
    return segments.runs


def gather_rows(x: Tensor, indices: Sequence[int]) -> Tensor:
    """Select rows of a rank-2 tensor; repeated indices are allowed."""
    if x.data.ndim != 2:
        raise ShapeError(f"gather_rows needs rank 2, got {x.shape}")
    idx = _indices(indices, "gather_rows")
    if idx.ndim != 1:
        raise ShapeError("gather_rows: indices must be a flat sequence")
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[0]):
        raise ShapeError(f"gather_rows: index out of range for {x.shape[0]} rows")
    distinct = x.requires_grad and np.unique(idx).size == idx.size

    def _grad(g):
        gx = np.zeros_like(x.data)
        if distinct:
            gx[idx] = g
            np.add(gx, 0.0, out=gx)  # -0.0 to +0.0, as adding onto zeros gives
        else:
            np.add.at(gx, idx, g)
        return gx

    return _node("gather_rows", x.data[idx], (x,), (_grad,))


def add_rows_at(x: Tensor, rows: Tensor, positions: Sequence[int]) -> Tensor:
    """Return ``x`` with ``rows[j]`` added to row ``positions[j]``.

    Positions form an index set: duplicates and out-of-range values are
    rejected.
    """
    if x.data.ndim != 2 or rows.data.ndim != 2:
        raise ShapeError("add_rows_at needs rank-2 operands")
    pos = _indices(positions, "add_rows_at")
    if pos.ndim != 1 or pos.shape[0] != rows.shape[0]:
        raise ShapeError(f"add_rows_at: {rows.shape[0]} rows vs {pos.shape} positions")
    if rows.shape[1] != x.shape[1]:
        raise ShapeError(f"add_rows_at: widths {x.shape[1]} vs {rows.shape[1]}")
    if pos.size:
        if pos.min() < 0 or pos.max() >= x.shape[0]:
            raise ShapeError(f"add_rows_at: position out of range [0, {x.shape[0]})")
        if np.unique(pos).size != pos.size:
            raise ShapeError("add_rows_at: duplicate positions")
    data = x.data.copy()
    data[pos] += rows.data
    return _node("add_rows_at", data, (x, rows), (_identity, lambda g: g[pos]))


def _rotated(x: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """``x`` with each column pair (x1, x2) = (x[:, 2i], x[:, 2i+1]) turned into
    (x1*cos - x2*sin, x1*sin + x2*cos)."""
    xe, xo = x[:, 0::2], x[:, 1::2]
    out = np.empty_like(x)
    out[:, 0::2] = xe * cos - xo * sin
    out[:, 1::2] = xe * sin + xo * cos
    return out


def rotate_pairs(x: Tensor, cos: np.ndarray, sin: np.ndarray) -> Tensor:
    """Rotate adjacent coordinate pairs (x[2i], x[2i+1]) by fixed angles.

    ``cos``/``sin`` have shape (rows, width/2); the convention is
    (x1*cos - x2*sin, x1*sin + x2*cos).  Angles are constants on the tape.
    """
    if x.data.ndim != 2 or x.shape[1] % 2 != 0:
        raise ShapeError(f"rotate_pairs needs an even width, got {x.shape}")
    half = x.shape[1] // 2
    cos = np.asarray(cos, dtype=np.float64)
    sin = np.asarray(sin, dtype=np.float64)
    if cos.shape != (x.shape[0], half) or sin.shape != cos.shape:
        raise ShapeError(f"rotate_pairs: angle shape {cos.shape} vs {(x.shape[0], half)}")
    return _node("rotate_pairs", _rotated(x.data, cos, sin), (x,),
                 (lambda g: _rotated(g, cos, -sin),))  # back by the opposite angles


def token_nll(logits: Tensor, targets: Sequence[int]) -> Tensor:
    """Per-row negative log-likelihood of the target class.

    ``logits`` is (n, vocab); returns a length-n vector of losses.  The node
    keeps each row's max and sum of exponentials, not the (n, vocab)
    probabilities; backward recomputes those with the forward's own
    expressions, so they come out bit for bit the same.
    """
    if logits.data.ndim != 2:
        raise ShapeError(f"token_nll needs rank-2 logits, got {logits.shape}")
    tgt = _indices(targets, "token_nll")
    n, v = logits.shape
    if tgt.shape != (n,):
        raise ShapeError(f"token_nll: {n} rows vs targets {tgt.shape}")
    if tgt.size and (tgt.min() < 0 or tgt.max() >= v):
        raise ShapeError(f"token_nll: target id out of vocab {v}")
    m = logits.data.max(axis=1, keepdims=True)

    def _exps() -> np.ndarray:
        """exp(logits - m), a fresh array."""
        e = logits.data - m
        np.exp(e, out=e)
        return e

    z = _exps().sum(axis=1)
    nll = np.log(z) + m[:, 0] - logits.data[np.arange(n), tgt]

    def _grad(g):
        gl = _exps()
        gl /= z[:, None]  # the probabilities
        gl *= g[:, None]
        gl[np.arange(n), tgt] -= g
        return gl

    return _node("token_nll", nll, (logits,), (_grad,))


def interpolate_bilinear(table: Tensor, gh: int, gw: int) -> Tensor:
    """Resample a (th, tw, dim) grid to (gh, gw, dim), per channel.

    Endpoints map onto endpoints; a singleton target axis samples source
    coordinate 0.  Linear in the table, so gradients flow back into it.
    """
    if table.data.ndim != 3:
        raise ShapeError(f"interpolate_bilinear needs rank 3, got {table.shape}")
    th, tw, dim = table.shape
    if min(th, tw, gh, gw) < 1:
        raise ShapeError("interpolate_bilinear: all grid sizes must be >= 1")

    def _coords(src: int, dst: int) -> np.ndarray:
        if dst == 1:
            return np.zeros(1)
        return np.arange(dst) * (src - 1) / (dst - 1)

    ys, xs = _coords(th, gh), _coords(tw, gw)
    y0 = np.clip(np.floor(ys).astype(np.int64), 0, th - 1)
    x0 = np.clip(np.floor(xs).astype(np.int64), 0, tw - 1)
    y1 = np.minimum(y0 + 1, th - 1)
    x1 = np.minimum(x0 + 1, tw - 1)
    fy = (ys - y0)[:, None, None]
    fx = (xs - x0)[None, :, None]

    t = table.data
    data = ((1 - fy) * (1 - fx) * t[np.ix_(y0, x0)]
            + (1 - fy) * fx * t[np.ix_(y0, x1)]
            + fy * (1 - fx) * t[np.ix_(y1, x0)]
            + fy * fx * t[np.ix_(y1, x1)])

    def _grad(g):
        gt = np.zeros_like(t)
        np.add.at(gt, np.ix_(y0, x0), (1 - fy) * (1 - fx) * g)
        np.add.at(gt, np.ix_(y0, x1), (1 - fy) * fx * g)
        np.add.at(gt, np.ix_(y1, x0), fy * (1 - fx) * g)
        np.add.at(gt, np.ix_(y1, x1), fy * fx * g)
        return gt

    return _node("interpolate_bilinear", data, (table,), (_grad,))


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor, h: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` must map a tensor to a scalar tensor.  The relative error at each
    coordinate is |analytic - central| / (|analytic| + |central| + 1e-12).
    """
    if not (1e-7 <= h <= 1e-3):
        raise ValueError(f"grad_check: step {h} outside [1e-7, 1e-3]")
    probe = Tensor(x.data.copy(), requires_grad=True)
    out = f(probe)
    if out.data.size != 1:
        raise ShapeError("grad_check: f must return a scalar")
    out.backward()
    analytic = probe.grad if probe.grad is not None else np.zeros_like(probe.data)

    flat = x.data.reshape(-1)
    central = np.zeros_like(flat)
    for i in range(flat.size):
        for sign, slot in ((+1.0, 0), (-1.0, 1)):
            bumped = flat.copy()
            bumped[i] += sign * h
            # A Tensor holds finite values only, so ``val`` is finite.
            val = f(Tensor(bumped.reshape(x.shape))).item()
            central[i] += sign * val / (2.0 * h)
    central = central.reshape(x.shape)

    denom = np.abs(analytic) + np.abs(central) + 1e-12
    return float(np.max(np.abs(analytic - central) / denom))
