"""Dense float64 tensors with reverse-mode automatic differentiation.

The design goal is auditability, not speed: values are immutable numpy
arrays (safe to share read-only across threads), every operation records
one tape node (op name, parents, backward closure), and ``backward`` walks
the tape once in topological order.  There is no broadcasting beyond the
last-axis affine used by ``add_bias`` and ``layer_norm``.  ``attention``
also takes rank-3 operands, a batch of matrices along the first axis, so a
batch of independent attentions runs as one node.  It is fused: scores,
scale, mask, softmax and value product make one node that keeps only the
probabilities for backward.

Each differentiable op checks shapes, computes its forward value and passes
it to ``_node`` with one gradient function per parent, mapping the upstream
gradient to that parent's gradient (a vector-Jacobian product).  ``_node``
alone records the node: in ``backward`` it calls a parent's function only
if that parent is *needed*, that is, has a differentiated leaf among its
ancestors or is one.  It stores the first gradient a parent receives as it
is and adds later ones.  No gradient is written in place.  Every child of a
needed node is needed, so differentiating a subset of the leaves gives them
bit-identical gradients in less work.

All differentiable operations here are validated against central finite
differences by :func:`grad_check`; see the test suite for the sweep over
every op and supported rank.
"""

from __future__ import annotations

import math
from itertools import accumulate, chain
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import NonFiniteError, ShapeError

_TANH_GELU_C = math.sqrt(2.0 / math.pi)


class Tensor:
    """An immutable float64 array plus its tape node.

    ``_op`` names the producing operation, ``_parents`` references the input
    tensors, and ``_backward`` (set by ``_node``) passes an upstream
    gradient to each needed parent: the parent's first gradient is stored
    as it is, later ones are added.  Leaf tensors have no parents.
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
        self._backward: Callable[[np.ndarray, set[Tensor]], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def backward(self, leaves: Iterable["Tensor"] | None = None) -> None:
        """Accumulate gradients of this scalar output into its ancestors.

        Visits each tape node exactly once, in reverse topological order.
        Differentiates ``leaves``, or by default every leaf that requires a
        gradient; a listed leaf outside this graph ends with no gradient.
        """
        if self.data.size != 1:
            raise ShapeError("backward() requires a scalar output")
        wanted = None if leaves is None else set(leaves)
        if wanted and any(leaf._parents or not leaf.requires_grad for leaf in wanted):
            raise ValueError("backward: a listed tensor is not a leaf that requires a gradient")

        order: list[Tensor] = []
        needed: set[Tensor] = set()
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                # Post-order: every parent has been decided already.
                if (any(p in needed for p in node._parents) if node._parents
                        else node.requires_grad and (wanted is None or node in wanted)):
                    needed.add(node)
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))

        for node in chain(order, wanted or ()):
            node.grad = None
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None and node in needed:
                node._backward(node.grad, needed)

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
        def _backward(g: np.ndarray, needed: set[Tensor]) -> None:
            h = g if shared is None else shared(g)
            for parent, grad in zip(parents, grads):
                if parent in needed:
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


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)
    return _node("scale", x.data * c, (x,), (lambda g: g * c,))


def _sum_leading(g: np.ndarray) -> np.ndarray:
    """Gradient of a last-axis vector broadcast over the leading axes."""
    return g.sum(axis=tuple(range(g.ndim - 1))) if g.ndim > 1 else g


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """Add a vector along the last axis (the only broadcast we allow)."""
    if b.data.ndim != 1 or x.shape[-1] != b.shape[0]:
        raise ShapeError(f"add_bias: {x.shape} vs {b.shape}")
    return _node("add_bias", x.data + b.data, (x, b), (_identity, _sum_leading))


def _swap_last(x: np.ndarray) -> np.ndarray:
    return np.swapaxes(x, -1, -2)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of rank-2 operands."""
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul needs two rank-2 operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dims {a.shape} x {b.shape}")
    return _node("matmul", a.data @ b.data, (a, b),
                 (lambda g: g @ b.data.T, lambda g: a.data.T @ g))


def attention(q: Tensor, k: Tensor, v: Tensor, causal: bool = False) -> Tensor:
    """Scaled dot-product attention, softmax(q k^T / sqrt(width)) v, as one node.

    Operands are rank 2, (rows, width), or rank 3, a batch of independent
    attentions along the first axis.  ``causal`` hides from each query the
    keys after its own row.  The scores become the probabilities in place,
    and backward keeps nothing larger.
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
    c = 1.0 / math.sqrt(d)
    kt = _swap_last(k.data).copy()
    p = q.data @ kt
    p *= c
    if causal:
        for row in range(n - 1):
            p[..., row, row + 1:] = -np.inf
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)

    def _with_scores_grad(g):
        """The upstream gradient and that of the scaled scores, via the softmax."""
        gs = g @ _swap_last(v.data)
        gs -= (gs * p).sum(axis=-1, keepdims=True)
        gs *= p
        gs *= c
        return g, gs

    return _node("attention", p @ v.data, (q, k, v),
                 (lambda h: h[1] @ _swap_last(kt),
                  lambda h: _swap_last(_swap_last(q.data) @ h[1]),
                  lambda h: _swap_last(p) @ h[0]), _with_scores_grad)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    if int(np.prod(shape)) != x.data.size:
        raise ShapeError(f"reshape {x.shape} -> {shape}")
    return _node("reshape", x.data.reshape(shape), (x,), (lambda g: g.reshape(x.shape),))


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    """Stack rank-2 tensors of equal width vertically."""
    if len(parts) == 1:
        return parts[0]
    if not parts:
        raise ShapeError("concat_rows of nothing")
    if any(p.data.ndim != 2 for p in parts) or len({p.shape[1] for p in parts}) != 1:
        raise ShapeError("concat_rows: operands must be rank 2 with equal widths")
    bounds = list(accumulate((p.shape[0] for p in parts), initial=0))
    return _node("concat_rows", np.concatenate([p.data for p in parts]), tuple(parts),
                 [lambda g, lo=lo, hi=hi: g[lo:hi] for lo, hi in zip(bounds, bounds[1:])])


def sum_all(x: Tensor) -> Tensor:
    return _node("sum", np.asarray(x.data.sum()), (x,),
                 (lambda g: np.full_like(x.data, float(g)),))


def gelu(x: Tensor) -> Tensor:
    """Tanh-approximation GELU (smooth, no special-function dependency)."""
    u = _TANH_GELU_C * (x.data + 0.044715 * x.data ** 3)
    t = np.tanh(u)

    def _grad(g):
        du = _TANH_GELU_C * (1.0 + 3 * 0.044715 * x.data ** 2)
        return g * (0.5 * (1.0 + t) + 0.5 * x.data * (1.0 - t ** 2) * du)

    return _node("gelu", 0.5 * x.data * (1.0 + t), (x,), (_grad,))


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-6) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    if eps <= 0:
        raise ValueError("layer_norm: eps must be positive")
    d = x.shape[-1]
    if d < 1:
        raise ShapeError("layer_norm: empty last axis")
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer_norm: affine shapes {gain.shape}/{bias.shape} vs width {d}")
    xc = x.data - x.data.mean(axis=-1, keepdims=True)
    # np.var's own steps, without its second mean and subtraction.
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + eps)
    xhat = xc * inv

    def _grad_x(g):
        gx = g * gain.data
        return inv * (gx - gx.mean(axis=-1, keepdims=True)
                      - xhat * (gx * xhat).mean(axis=-1, keepdims=True))

    return _node("layer_norm", xhat * gain.data + bias.data, (x, gain, bias),
                 (_grad_x, lambda g: _sum_leading(g * xhat), _sum_leading))


def gather_rows(x: Tensor, indices: Sequence[int]) -> Tensor:
    """Select rows of a rank-2 tensor; repeated indices are allowed."""
    if x.data.ndim != 2:
        raise ShapeError(f"gather_rows needs rank 2, got {x.shape}")
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError("gather_rows: indices must be a flat sequence")
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[0]):
        raise ShapeError(f"gather_rows: index out of range for {x.shape[0]} rows")

    def _grad(g):
        gx = np.zeros_like(x.data)
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
    pos = np.asarray(positions, dtype=np.int64)
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
    xe, xo = x.data[:, 0::2], x.data[:, 1::2]
    data = np.empty_like(x.data)
    data[:, 0::2] = xe * cos - xo * sin
    data[:, 1::2] = xe * sin + xo * cos

    def _grad(g):
        ge, go = g[:, 0::2], g[:, 1::2]
        gx = np.empty_like(g)
        gx[:, 0::2] = ge * cos + go * sin
        gx[:, 1::2] = -ge * sin + go * cos
        return gx

    return _node("rotate_pairs", data, (x,), (_grad,))


def token_nll(logits: Tensor, targets: Sequence[int]) -> Tensor:
    """Per-row negative log-likelihood of the target class.

    ``logits`` is (n, vocab); returns a length-n vector of losses.
    """
    if logits.data.ndim != 2:
        raise ShapeError(f"token_nll needs rank-2 logits, got {logits.shape}")
    tgt = np.asarray(targets, dtype=np.int64)
    n, v = logits.shape
    if tgt.shape != (n,):
        raise ShapeError(f"token_nll: {n} rows vs targets {tgt.shape}")
    if tgt.size and (tgt.min() < 0 or tgt.max() >= v):
        raise ShapeError(f"token_nll: target id out of vocab {v}")
    m = logits.data.max(axis=1, keepdims=True)
    e = np.exp(logits.data - m)
    z = e.sum(axis=1)
    probs = e / z[:, None]
    nll = np.log(z) + m[:, 0] - logits.data[np.arange(n), tgt]

    def _grad(g):
        gl = probs * g[:, None]
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
            val = f(Tensor(bumped.reshape(x.shape))).item()
            if not math.isfinite(val):
                raise ValueError("grad_check: non-finite function value")
            central[i] += sign * val / (2.0 * h)
    central = central.reshape(x.shape)

    denom = np.abs(analytic) + np.abs(central) + 1e-12
    return float(np.max(np.abs(analytic - central) / denom))
