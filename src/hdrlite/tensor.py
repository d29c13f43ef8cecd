"""Dense 4-D float tensor engine with reverse-mode automatic differentiation.

Everything is laid out as (batch, channel, height, width), contiguous, with
width fastest.  The graph is define-by-run: each op node keeps references to
its parents and a backward closure, and the tape is rebuilt on every forward
pass.  Tensors default to float32; building a graph from float64 arrays gives
a 64-bit check mode for finite-difference verification.
"""
from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

_FLOAT_TYPES = (np.float32, np.float64)

# Op-name trace for graph inspection (activation census etc.).  Appended to
# only while a trace list is installed via trace_ops().
_op_trace: list | None = None


@contextlib.contextmanager
def trace_ops():
    """Record the name of every op node created inside the block."""
    global _op_trace
    prev = _op_trace
    _op_trace = []
    try:
        yield _op_trace
    finally:
        _op_trace = prev


class Tensor:
    """A (n, c, h, w) array, optionally tracked for reverse-mode autodiff."""

    __slots__ = ("data", "requires_grad", "grad", "op", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.ndim != 4:
            raise ValueError(f"tensor must be 4-D (n,c,h,w), got shape {arr.shape}")
        if arr.dtype not in _FLOAT_TYPES:
            arr = arr.astype(np.float32)
        self.data = np.ascontiguousarray(arr)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self.op = "leaf"
        self._parents: tuple = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def zero_grad(self):
        self.grad = None

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError("item() requires a scalar tensor")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}, op={self.op!r})"

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, other)
        return mul(self, other)

    __rmul__ = __mul__


@dataclass(frozen=True)
class ConvSpec:
    """Static description of a 2-D convolution layer."""

    in_channels: int
    out_channels: int
    kernel: int
    stride: int = 1
    padding: int = 0
    groups: int = 1

    def __post_init__(self):
        if min(self.in_channels, self.out_channels, self.kernel, self.stride, self.groups) < 1:
            raise ValueError(f"conv spec fields must be positive: {self}")
        if self.in_channels % self.groups or self.out_channels % self.groups:
            raise ValueError(
                f"groups={self.groups} must divide in={self.in_channels} and out={self.out_channels}"
            )

    @property
    def weight_shape(self):
        return (self.out_channels, self.in_channels // self.groups, self.kernel, self.kernel)

    @property
    def weight_count(self) -> int:
        return int(np.prod(self.weight_shape))

    @property
    def bias_count(self) -> int:
        return self.out_channels

    def out_hw(self, h: int, w: int):
        oh = (h + 2 * self.padding - self.kernel) // self.stride + 1
        ow = (w + 2 * self.padding - self.kernel) // self.stride + 1
        return oh, ow


def _node(data, op: str, parents, backward=None) -> Tensor:
    out = Tensor(data, requires_grad=any(p.requires_grad for p in parents))
    out.op = op
    if _op_trace is not None:
        _op_trace.append(op)
    if out.requires_grad:
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _accum(t: Tensor, g):
    if not t.requires_grad:
        return
    t.grad = g if t.grad is None else t.grad + g


def _unbroadcast(g, shape):
    axes = tuple(i for i in range(4) if shape[i] == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def backward(loss: Tensor):
    """Run reverse-mode accumulation from a scalar loss over the recorded tape."""
    if loss.data.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")
    topo = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


# ---------------------------------------------------------------------------
# Elementwise ops
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    def bwd(g):
        _accum(a, _unbroadcast(g, a.shape))
        _accum(b, _unbroadcast(g, b.shape))

    return _node(a.data + b.data, "add", (a, b), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    def bwd(g):
        _accum(a, _unbroadcast(g, a.shape))
        _accum(b, _unbroadcast(-g, b.shape))

    return _node(a.data - b.data, "sub", (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    def bwd(g):
        _accum(a, _unbroadcast(g * b.data, a.shape))
        _accum(b, _unbroadcast(g * a.data, b.shape))

    return _node(a.data * b.data, "mul", (a, b), bwd)


def scale(x: Tensor, s: float) -> Tensor:
    s = float(s)

    def bwd(g):
        _accum(x, g * s)

    return _node(x.data * s, "scale", (x,), bwd)


def mul_const(x: Tensor, arr) -> Tensor:
    """Multiply by a fixed array that carries no gradient (e.g. a mask)."""
    arr = np.asarray(arr, dtype=x.dtype)

    def bwd(g):
        _accum(x, _unbroadcast(g * arr, x.shape))

    return _node(x.data * arr, "mul_const", (x,), bwd)


def abs_(x: Tensor) -> Tensor:
    def bwd(g):
        _accum(x, g * np.sign(x.data))

    return _node(np.abs(x.data), "abs", (x,), bwd)


def relu(x: Tensor) -> Tensor:
    def bwd(g):
        _accum(x, g * (x.data > 0))

    return _node(np.maximum(x.data, 0), "relu", (x,), bwd)


def leaky_relu(x: Tensor, slope: float = 0.2) -> Tensor:
    if not 0.0 < slope < 1.0:
        raise ValueError(f"leaky slope must lie in (0,1), got {slope}")

    def bwd(g):
        # branch-free (x > 0 ? 1 : slope) factor, kept in g's dtype
        factor = (x.data > 0).astype(g.dtype)
        np.maximum(factor, slope, out=factor)
        factor *= g
        _accum(x, factor)

    out = x.data * slope
    return _node(np.maximum(x.data, out, out=out), "leaky_relu", (x,), bwd)


# ---------------------------------------------------------------------------
# Reductions and shape ops
# ---------------------------------------------------------------------------

def mean_all(x: Tensor) -> Tensor:
    inv = 1.0 / x.data.size

    def bwd(g):
        _accum(x, np.full_like(x.data, g.reshape(()) * inv))

    return _node(x.data.mean().reshape(1, 1, 1, 1), "mean_all", (x,), bwd)


def sum_all(x: Tensor) -> Tensor:
    def bwd(g):
        _accum(x, np.full_like(x.data, g.reshape(())))

    return _node(x.data.sum().reshape(1, 1, 1, 1), "sum_all", (x,), bwd)


def global_avg_pool(x: Tensor) -> Tensor:
    n, c, h, w = x.shape
    inv = 1.0 / (h * w)

    def bwd(g):
        _accum(x, np.broadcast_to(g * inv, x.shape).copy())

    return _node(x.data.mean(axis=(2, 3), keepdims=True), "global_avg_pool", (x,), bwd)


def concat_channels(*tensors: Tensor) -> Tensor:
    if len(tensors) < 2:
        raise ValueError("concat_channels needs at least two tensors")
    ref = tensors[0].shape
    for t in tensors[1:]:
        if t.shape[0] != ref[0] or t.shape[2:] != ref[2:]:
            raise ValueError(f"concat spatial/batch mismatch: {ref} vs {t.shape}")
    sizes = [t.shape[1] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        for t, c0, c1 in zip(tensors, offsets[:-1], offsets[1:]):
            _accum(t, g[:, c0:c1])

    return _node(np.concatenate([t.data for t in tensors], axis=1), "concat", tensors, bwd)


def narrow_channels(x: Tensor, start: int, length: int) -> Tensor:
    if start < 0 or start + length > x.shape[1]:
        raise ValueError(f"channel slice [{start}, {start + length}) out of range for {x.shape}")

    def bwd(g):
        full = np.zeros_like(x.data)
        full[:, start:start + length] = g
        _accum(x, full)

    return _node(x.data[:, start:start + length], "narrow", (x,), bwd)


def _pool2(a):
    """2x2 average of an (n,c,h,w) array with even h and w (plain numpy)."""
    rows = a[:, :, 0::2] + a[:, :, 1::2]
    out = rows[..., 0::2] + rows[..., 1::2]
    out *= 0.25
    return out


def down2(x: Tensor) -> Tensor:
    """2x2 average pooling."""
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ValueError(f"down2 needs even spatial dims, got {h}x{w}")

    def bwd(g):
        _accum(x, np.repeat(np.repeat(g * 0.25, 2, axis=2), 2, axis=3))

    return _node(_pool2(x.data), "down2", (x,), bwd)


def up2(x: Tensor) -> Tensor:
    """Nearest-neighbor 2x upsampling."""
    n, c, h, w = x.shape
    out = np.repeat(np.repeat(x.data, 2, axis=2), 2, axis=3)

    def bwd(g):
        gx = g.reshape(n, c, h, 2, w, 2).sum(axis=(3, 5))
        _accum(x, gx)

    return _node(out, "up2", (x,), bwd)


def _reflect_index(n: int, pad: int):
    idx = np.arange(n + pad)
    return np.where(idx >= n, 2 * (n - 1) - idx, idx)


def pad_reflect(x: Tensor, ph: int, pw: int) -> Tensor:
    """Reflect-pad the bottom/right edges by (ph, pw)."""
    if ph == 0 and pw == 0:
        return x
    n, c, h, w = x.shape
    if ph >= h or pw >= w:
        raise ValueError(f"reflect pad ({ph}, {pw}) too large for size {h}x{w}")
    out = np.pad(x.data, ((0, 0), (0, 0), (0, ph), (0, pw)), mode="reflect")

    def bwd(g):
        tmp = np.zeros((n, c, h, w + pw), dtype=g.dtype)
        np.add.at(tmp, (slice(None), slice(None), _reflect_index(h, ph)), g)
        gx = np.zeros_like(x.data)
        np.add.at(gx, (slice(None), slice(None), slice(None), _reflect_index(w, pw)), tmp)
        _accum(x, gx)

    return _node(out, "pad_reflect", (x,), bwd)


def crop(x: Tensor, top: int, left: int, h: int, w: int) -> Tensor:
    n, c, xh, xw = x.shape
    if top + h > xh or left + w > xw or top < 0 or left < 0:
        raise ValueError(f"crop ({top},{left},{h},{w}) out of range for {x.shape}")
    if top == 0 and left == 0 and h == xh and w == xw:
        return x

    def bwd(g):
        gx = np.zeros_like(x.data)
        gx[:, :, top:top + h, left:left + w] = g
        _accum(x, gx)

    return _node(x.data[:, :, top:top + h, left:left + w].copy(), "crop", (x,), bwd)


def grad_map(x: Tensor) -> Tensor:
    """Forward differences along x and y, zero at the last column/row.

    Output has 2c channels: first c horizontal, then c vertical.
    """
    n, c, h, w = x.shape
    out = np.zeros((n, 2 * c, h, w), dtype=x.dtype)
    out[:, :c, :, :-1] = x.data[:, :, :, 1:] - x.data[:, :, :, :-1]
    out[:, c:, :-1, :] = x.data[:, :, 1:, :] - x.data[:, :, :-1, :]

    def bwd(g):
        gx = np.zeros_like(x.data)
        gh = g[:, :c, :, :-1]
        gv = g[:, c:, :-1, :]
        gx[:, :, :, 1:] += gh
        gx[:, :, :, :-1] -= gh
        gx[:, :, 1:, :] += gv
        gx[:, :, :-1, :] -= gv
        _accum(x, gx)

    return _node(out, "grad_map", (x,), bwd)


# ---------------------------------------------------------------------------
# Convolution
# ---------------------------------------------------------------------------

# Byte bound on the column buffer of one band of output rows (at least one
# row is gathered, whatever its size).
_COL_BYTES = 2 << 20


def _taps(k: int, stride: int, r0: int, r1: int, ow: int):
    """(i, j, index): the padded-input window kernel tap (i, j) reads for
    output rows [r0, r1) of one image, all channels."""
    for i in range(k):
        rows = slice(i + stride * r0, i + stride * (r1 - 1) + 1, stride)
        for j in range(k):
            yield i, j, (slice(None), rows, slice(j, j + stride * (ow - 1) + 1, stride))


def _im2col(buf, xb, k: int, stride: int, r0: int, r1: int, ow: int):
    """Column matrix (c*k*k, (r1-r0)*ow) of output rows [r0, r1) of image xb.

    For a 1x1 stride-1 conv the input rows already are the columns (no copy);
    otherwise the k*k shifted windows are gathered into buf.
    """
    c = xb.shape[0]
    if k == 1 and stride == 1:
        return xb[:, r0:r1].reshape(c, -1)
    cols = buf[:c * k * k * (r1 - r0) * ow].reshape(c, k, k, r1 - r0, ow)
    for i, j, win in _taps(k, stride, r0, r1, ow):
        cols[:, i, j] = xb[win]
    return cols.reshape(c * k * k, -1)


def _col2im(dxb, dcols, k: int, stride: int, r0: int, r1: int, ow: int):
    """Scatter-add column gradients back through the taps _im2col read."""
    d = dcols.reshape(dxb.shape[0], k, k, r1 - r0, ow)
    for i, j, win in _taps(k, stride, r0, r1, ow):
        dxb[win] += d[:, i, j]


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None, *,
           stride: int = 1, padding: int = 0, groups: int = 1) -> Tensor:
    """Grouped 2-D convolution; plain, grouped, pointwise and partial convs
    all run this one im2col + GEMM kernel.

    Output rows are processed in bands whose column matrix fits _COL_BYTES.
    Per band, one matmul batched over groups computes
    W[g].reshape(ocg, icg*k*k) @ cols[g]; backward reuses the same bands for
    dW += g @ cols^T and dcols = W^T @ g, scattered back through the taps.
    """
    n, c, h, w = x.shape
    oc, icg, k, k2 = weight.shape
    if k != k2:
        raise ValueError(f"kernel must be square, got {weight.shape}")
    if c % groups or oc % groups:
        raise ValueError(f"groups={groups} must divide channels ({c} -> {oc})")
    if icg != c // groups:
        raise ValueError(f"weight expects {icg * groups} input channels, got {c}")
    if bias is not None and bias.shape != (1, oc, 1, 1):
        raise ValueError(f"bias must be (1,{oc},1,1), got {bias.shape}")

    xp = np.pad(x.data, ((0, 0), (0, 0), (padding, padding), (padding, padding))) \
        if padding else x.data
    oh = (h + 2 * padding - k) // stride + 1
    ow = (w + 2 * padding - k) // stride + 1
    if oh < 1 or ow < 1:
        raise ValueError(f"conv output would be empty for input {h}x{w}, kernel {k}")
    ocg, kk = oc // groups, k * k
    wmat = weight.data.reshape(groups, ocg, icg * kk)
    if k == 1 and stride == 1:
        rows, buf_size = oh, 0
    else:
        rows = max(1, min(oh, _COL_BYTES // (c * kk * ow * xp.itemsize)))
        buf_size = c * kk * rows * ow
    bands = [(b, r0, min(r0 + rows, oh)) for b in range(n) for r0 in range(0, oh, rows)]

    buf = np.empty(buf_size, dtype=xp.dtype)
    out = np.empty((n, oc, oh, ow), dtype=xp.dtype)
    for b, r0, r1 in bands:
        cols = _im2col(buf, xp[b], k, stride, r0, r1, ow)
        np.matmul(wmat, cols.reshape(groups, icg * kk, -1),
                  out=out[b, :, r0:r1].reshape(groups, ocg, -1))
    if bias is not None:
        out += bias.data

    parents = (x, weight) if bias is None else (x, weight, bias)

    def bwd(g):
        if bias is not None:
            _accum(bias, g.sum(axis=(0, 2, 3)).reshape(1, oc, 1, 1))
        dw = np.zeros_like(wmat) if weight.requires_grad else None
        dxp = np.zeros_like(xp) if x.requires_grad else None
        wt = wmat.transpose(0, 2, 1)
        buf = np.empty(buf_size, dtype=xp.dtype)  # not kept alive by the tape
        for b, r0, r1 in bands:
            gb = g[b, :, r0:r1].reshape(groups, ocg, -1)
            if dw is not None:
                cols = _im2col(buf, xp[b], k, stride, r0, r1, ow)
                dw += gb @ cols.reshape(groups, icg * kk, -1).transpose(0, 2, 1)
            if dxp is not None:
                _col2im(dxp[b], wt @ gb, k, stride, r0, r1, ow)
        if dw is not None:
            _accum(weight, dw.reshape(weight.shape))
        if dxp is not None:
            gx = dxp[:, :, padding:padding + h, padding:padding + w] if padding else dxp
            _accum(x, gx)

    return _node(out, "conv2d", parents, bwd)


def mask_window_sum(mask, k: int, padding: int, pad_value: float = 0.0):
    """Sum of a 1-channel mask over each k x k window (plain numpy helper)."""
    mp = np.pad(mask, ((0, 0), (0, 0), (padding, padding), (padding, padding)),
                constant_values=pad_value) if padding else mask
    n, c, hp, wp = mp.shape
    oh, ow = hp - k + 1, wp - k + 1
    out = np.zeros((n, c, oh, ow), dtype=mask.dtype)
    for i in range(k):
        for j in range(k):
            out += mp[:, :, i:i + oh, j:j + ow]
    return out


def partial_conv(x: Tensor, mask, weight: Tensor, bias: Tensor | None = None, *,
                 padding: int = 0, groups: int = 1):
    """Mask-gated convolution with per-window renormalization.

    mask is a fixed (n,1,h,w) array in [0,1]; it gates the input, scales each
    window by area/mask_sum, and propagates as 1 wherever the window saw any
    valid pixel.  Returns (output, updated_mask).

    Out-of-bounds area counts as fully valid for the renormalization so an
    all-ones mask reproduces a plain convolution exactly, borders included;
    validity itself is judged on in-bounds pixels only.
    """
    mask = np.asarray(mask, dtype=x.dtype)
    if mask.shape != (x.shape[0], 1, x.shape[2], x.shape[3]):
        raise ValueError(f"mask shape {mask.shape} does not match input {x.shape}")
    k = weight.shape[2]
    msum = mask_window_sum(mask, k, padding, pad_value=1.0)
    valid = mask_window_sum(mask, k, padding, pad_value=0.0) > 1e-8
    ratio = np.where(valid, (k * k) / np.maximum(msum, 1e-8), 0.0)
    new_mask = valid.astype(x.dtype)

    y = conv2d(mul_const(x, mask), weight, None, padding=padding, groups=groups)
    y = mul_const(y, ratio)
    if bias is not None:
        y = add(y, bias)
    return y, new_mask


# ---------------------------------------------------------------------------
# Finite-difference verification
# ---------------------------------------------------------------------------

def gradient_check(fn, tensors, eps: float = 1e-3) -> float:
    """Max relative error between analytic and central-difference gradients.

    fn maps the tensors to a scalar Tensor.  The check runs on whatever dtype
    the tensors carry; pass float64 data for full fidelity.  The error is
    ||analytic - numeric||_inf normalized by ||numeric||_inf per tensor.
    """
    for t in tensors:
        t.zero_grad()
    loss = fn(*tensors)
    backward(loss)
    worst = 0.0
    for t in tensors:
        if not t.requires_grad:
            continue
        analytic = t.grad.copy() if t.grad is not None else np.zeros_like(t.data)
        numeric = np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        nflat = numeric.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + eps
            hi = fn(*tensors).item()
            flat[idx] = orig - eps
            lo = fn(*tensors).item()
            flat[idx] = orig
            nflat[idx] = (hi - lo) / (2 * eps)
        denom = max(np.abs(numeric).max(), 1e-10)
        worst = max(worst, float(np.abs(analytic - numeric).max() / denom))
    return worst
