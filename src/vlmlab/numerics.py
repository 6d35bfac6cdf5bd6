"""Dense float64 tensors with reverse-mode automatic differentiation.

The design goal is auditability, not speed: values are immutable numpy
arrays (safe to share read-only across threads), every operation records
one tape node (op name, parents, backward closure), and ``backward`` walks
the tape once in topological order.  There is no broadcasting beyond the
last-axis affine used by ``add_bias`` and ``layer_norm``.

All differentiable operations here are validated against central finite
differences by :func:`grad_check`; see the test suite for the sweep over
every op and supported rank.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import ShapeError

_TANH_GELU_C = math.sqrt(2.0 / math.pi)


def _as_array(values, shape=None) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if shape is not None:
        arr = arr.reshape(shape)
    return arr


class Tensor:
    """An immutable float64 array plus its tape node.

    ``_op`` names the producing operation, ``_parents`` references the input
    tensors, and ``_backward`` propagates an upstream gradient array into the
    parents' ``grad`` accumulators.  Leaf tensors have no parents.
    """

    __slots__ = ("data", "requires_grad", "grad", "_op", "_parents", "_backward")

    def __init__(self, values, requires_grad: bool = False,
                 _op: str = "leaf", _parents: tuple["Tensor", ...] = ()):
        data = _as_array(values)
        if not np.all(np.isfinite(data)):
            raise ValueError(f"non-finite values in result of op '{_op}'")
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

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def backward(self) -> None:
        """Accumulate gradients of this scalar output into all ancestors.

        Visits each tape node exactly once, in reverse topological order.
        """
        if self.data.size != 1:
            raise ShapeError("backward() requires a scalar output")

        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))

        for node in order:
            node.grad = None
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, op={self._op!r})"


def parameter(values) -> Tensor:
    """A leaf tensor that participates in gradient accumulation."""
    return Tensor(values, requires_grad=True)


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad = t.grad + g


def _unary(op: str, x: Tensor, out_data: np.ndarray,
           backward: Callable[[np.ndarray], np.ndarray]) -> Tensor:
    out = Tensor(out_data, _op=op, _parents=(x,))
    if out.requires_grad:
        out._backward = lambda g: _accumulate(x, backward(g))
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add: {a.shape} vs {b.shape}")
    out = Tensor(a.data + b.data, _op="add", _parents=(a, b))
    if out.requires_grad:
        def _bw(g):
            _accumulate(a, g)
            _accumulate(b, g)
        out._backward = _bw
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"mul: {a.shape} vs {b.shape}")
    out = Tensor(a.data * b.data, _op="mul", _parents=(a, b))
    if out.requires_grad:
        def _bw(g):
            _accumulate(a, g * b.data)
            _accumulate(b, g * a.data)
        out._backward = _bw
    return out


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)
    return _unary("scale", x, x.data * c, lambda g: g * c)


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """Add a vector along the last axis (the only broadcast we allow)."""
    if b.data.ndim != 1 or x.shape[-1] != b.shape[0]:
        raise ShapeError(f"add_bias: {x.shape} vs {b.shape}")
    out = Tensor(x.data + b.data, _op="add_bias", _parents=(x, b))
    if out.requires_grad:
        lead = tuple(range(x.data.ndim - 1))
        def _bw(g):
            _accumulate(x, g)
            _accumulate(b, g.sum(axis=lead) if lead else g)
        out._backward = _bw
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul needs rank-2 operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dims {a.shape} x {b.shape}")
    out = Tensor(a.data @ b.data, _op="matmul", _parents=(a, b))
    if out.requires_grad:
        def _bw(g):
            _accumulate(a, g @ b.data.T)
            _accumulate(b, a.data.T @ g)
        out._backward = _bw
    return out


def transpose(x: Tensor) -> Tensor:
    if x.data.ndim != 2:
        raise ShapeError(f"transpose needs rank 2, got {x.shape}")
    return _unary("transpose", x, x.data.T.copy(), lambda g: g.T)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    if int(np.prod(shape)) != x.data.size:
        raise ShapeError(f"reshape {x.shape} -> {shape}")
    return _unary("reshape", x, x.data.reshape(shape),
                  lambda g: g.reshape(x.shape))


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    """Stack rank-2 tensors vertically."""
    if not parts:
        raise ShapeError("concat_rows of nothing")
    if len(parts) == 1:
        return parts[0]
    widths = {p.shape[1] for p in parts}
    if any(p.data.ndim != 2 for p in parts) or len(widths) != 1:
        raise ShapeError("concat_rows: operands must be rank 2 with equal widths")
    out = Tensor(np.concatenate([p.data for p in parts], axis=0),
                 _op="concat_rows", _parents=tuple(parts))
    if out.requires_grad:
        sizes = [p.shape[0] for p in parts]
        offsets = np.cumsum([0] + sizes)
        def _bw(g):
            for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
                _accumulate(p, g[lo:hi])
        out._backward = _bw
    return out


def sum_all(x: Tensor) -> Tensor:
    return _unary("sum", x, np.asarray(x.data.sum()), lambda g: np.full_like(x.data, float(g)))


def gelu(x: Tensor) -> Tensor:
    """Tanh-approximation GELU (smooth, no special-function dependency)."""
    u = _TANH_GELU_C * (x.data + 0.044715 * x.data ** 3)
    t = np.tanh(u)
    out_data = 0.5 * x.data * (1.0 + t)

    def _bw(g):
        du = _TANH_GELU_C * (1.0 + 3 * 0.044715 * x.data ** 2)
        return g * (0.5 * (1.0 + t) + 0.5 * x.data * (1.0 - t ** 2) * du)

    return _unary("gelu", x, out_data, _bw)


def _softmax(op: str, x: Tensor, axis: int, mask: np.ndarray | None) -> Tensor:
    """Stabilized softmax along ``axis``, with masked-out logits at -inf."""
    ax = axis if axis >= 0 else x.data.ndim + axis
    if ax < 0 or ax >= x.data.ndim:
        raise ShapeError(f"{op}: axis {axis} invalid for shape {x.shape}")
    logits = x.data
    if mask is not None:
        if not mask.any(axis=ax).all():
            raise ShapeError(f"{op}: fully masked slice")
        logits = np.where(mask, logits, -np.inf)
    elif x.shape[ax] == 0:
        raise ShapeError(f"{op} over an empty axis")
    shifted = logits - logits.max(axis=ax, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=ax, keepdims=True)
    return _unary(op, x, s, lambda g: s * (g - (g * s).sum(axis=ax, keepdims=True)))


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stabilized softmax along ``axis``."""
    return _softmax("softmax", x, axis, None)


def masked_softmax(x: Tensor, mask: np.ndarray, axis: int = -1) -> Tensor:
    """Softmax where entries with ``mask == False`` get zero probability.

    Each slice along ``axis`` must keep at least one unmasked entry.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != x.shape:
        raise ShapeError(f"masked_softmax: mask {mask.shape} vs {x.shape}")
    return _softmax("masked_softmax", x, axis, mask)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-6) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    if eps <= 0:
        raise ValueError("layer_norm: eps must be positive")
    d = x.shape[-1]
    if d < 1:
        raise ShapeError("layer_norm: empty last axis")
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer_norm: affine shapes {gain.shape}/{bias.shape} vs width {d}")
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    out = Tensor(xhat * gain.data + bias.data, _op="layer_norm", _parents=(x, gain, bias))
    if out.requires_grad:
        lead = tuple(range(x.data.ndim - 1))
        def _bw(g):
            gx = g * gain.data
            dx = inv * (gx - gx.mean(axis=-1, keepdims=True)
                        - xhat * (gx * xhat).mean(axis=-1, keepdims=True))
            _accumulate(x, dx)
            _accumulate(gain, (g * xhat).sum(axis=lead) if lead else g * xhat)
            _accumulate(bias, g.sum(axis=lead) if lead else g)
        out._backward = _bw
    return out


def gather_rows(x: Tensor, indices: Sequence[int]) -> Tensor:
    """Select rows of a rank-2 tensor; repeated indices are allowed."""
    if x.data.ndim != 2:
        raise ShapeError(f"gather_rows needs rank 2, got {x.shape}")
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError("gather_rows: indices must be a flat sequence")
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[0]):
        raise ShapeError(f"gather_rows: index out of range for {x.shape[0]} rows")
    out = Tensor(x.data[idx], _op="gather_rows", _parents=(x,))
    if out.requires_grad:
        def _bw(g):
            gx = np.zeros_like(x.data)
            np.add.at(gx, idx, g)
            _accumulate(x, gx)
        out._backward = _bw
    return out


def concat_cols(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate rank-2 tensors along the last axis."""
    if not parts:
        raise ShapeError("concat_cols of nothing")
    rows = parts[0].shape[0]
    for p in parts:
        if p.data.ndim != 2 or p.shape[0] != rows:
            raise ShapeError("concat_cols: row counts differ")
    out = Tensor(np.concatenate([p.data for p in parts], axis=1),
                 _op="concat_cols", _parents=tuple(parts))
    if out.requires_grad:
        widths = [p.shape[1] for p in parts]
        offsets = np.cumsum([0] + widths)
        def _bw(g):
            for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
                _accumulate(p, g[:, lo:hi])
        out._backward = _bw
    return out


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
    out = Tensor(data, _op="add_rows_at", _parents=(x, rows))
    if out.requires_grad:
        def _bw(g):
            _accumulate(x, g)
            _accumulate(rows, g[pos])
        out._backward = _bw
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
    xe, xo = x.data[:, 0::2], x.data[:, 1::2]
    data = np.empty_like(x.data)
    data[:, 0::2] = xe * cos - xo * sin
    data[:, 1::2] = xe * sin + xo * cos
    out = Tensor(data, _op="rotate_pairs", _parents=(x,))
    if out.requires_grad:
        def _bw(g):
            ge, go = g[:, 0::2], g[:, 1::2]
            gx = np.empty_like(g)
            gx[:, 0::2] = ge * cos + go * sin
            gx[:, 1::2] = -ge * sin + go * cos
            _accumulate(x, gx)
        out._backward = _bw
    return out


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
    out = Tensor(nll, _op="token_nll", _parents=(logits,))
    if out.requires_grad:
        def _bw(g):
            gl = probs * g[:, None]
            gl[np.arange(n), tgt] -= g
            _accumulate(logits, gl)
        out._backward = _bw
    return out


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
    out = Tensor(data, _op="interpolate_bilinear", _parents=(table,))
    if out.requires_grad:
        def _bw(g):
            gt = np.zeros_like(t)
            np.add.at(gt, np.ix_(y0, x0), (1 - fy) * (1 - fx) * g)
            np.add.at(gt, np.ix_(y0, x1), (1 - fy) * fx * g)
            np.add.at(gt, np.ix_(y1, x0), fy * (1 - fx) * g)
            np.add.at(gt, np.ix_(y1, x1), fy * fx * g)
            _accumulate(table, gt)
        out._backward = _bw
    return out


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
