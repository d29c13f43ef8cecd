"""Dense 4-D float tensor engine with reverse-mode automatic differentiation.

Everything is laid out as (batch, channel, height, width), contiguous, with
width fastest.  The graph is define-by-run: each op node keeps references to
its parents and a backward closure, and the tape is rebuilt on every forward
pass.  Tensors default to float32; building a graph from float64 arrays gives
a 64-bit check mode for finite-difference verification.
"""
from __future__ import annotations

import contextlib

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


def abs_(x: Tensor) -> Tensor:
    def bwd(g):
        _accum(x, g * np.sign(x.data))

    return _node(np.abs(x.data), "abs", (x,), bwd)


def relu(x: Tensor) -> Tensor:
    def bwd(g):
        _accum(x, g * (x.data > 0))

    return _node(np.maximum(x.data, 0), "relu", (x,), bwd)


def _check_slope(slope: float):
    if slope is None or not 0.0 < slope < 1.0:
        raise ValueError(f"leaky slope must lie in (0,1), got {slope}")


def _leaky_grad(g, sign_of, slope: float):
    """g times the leaky ReLU derivative (1 where sign_of > 0, else slope):
    branch-free and kept in g's dtype.  For 0 < slope < 1 the activation's
    output has its input's sign, so either may be passed as sign_of."""
    factor = (sign_of > 0).astype(g.dtype)
    np.maximum(factor, slope, out=factor)
    factor *= g
    return factor


def leaky_relu(x: Tensor, slope: float = 0.2) -> Tensor:
    _check_slope(slope)

    def bwd(g):
        _accum(x, _leaky_grad(g, x.data, slope))

    out = x.data * slope
    return _node(np.maximum(x.data, out, out=out), "leaky_relu", (x,), bwd)


def affine(x: Tensor, scale=None, shift: Tensor | None = None, *,
           slope: float | None = None) -> Tensor:
    """leaky_relu(x * scale + shift, slope) in one output array.

    scale is a fixed array or number that carries no gradient (e.g. the
    partial-conv mask and ratio, the loss weight) or None; a 4-D scale
    broadcasts against x, a 0-d one scales all of it.  shift is a Tensor of
    shape (1 or n, c, 1, 1) or x's shape, or None; slope None applies no
    activation.  The shift and the activation run in conv2d's blocked
    epilogue, and the backward builds the derivative from the output's sign.
    """
    n, c, h, w = x.shape
    if scale is not None:
        scale = np.asarray(scale, dtype=x.dtype)
        if scale.ndim not in (0, 4) or any(d not in (1, e)
                                           for d, e in zip(scale.shape, x.shape)):
            raise ValueError(f"scale {scale.shape} does not broadcast to {x.shape}")
    if shift is not None and shift.shape not in ((1, c, 1, 1), (n, c, 1, 1), x.shape):
        raise ValueError(f"shift must be (1 or {n},{c},1,1) or {x.shape}, got {shift.shape}")
    if slope is not None:
        _check_slope(slope)

    out = x.data * scale if scale is not None else x.data.copy()
    if shift is not None or slope is not None:
        _bias_leaky_inplace(out, None if shift is None else shift.data, slope)

    def bwd(g):
        if slope is not None:
            g = _leaky_grad(g, out, slope)
        if shift is not None:
            _accum(shift, _unbroadcast(g, shift.shape))
        if x.requires_grad:
            _accum(x, g if scale is None else g * scale)

    return _node(out, "affine", (x,) if shift is None else (x, shift), bwd)


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
    offsets = np.cumsum([0] + [t.shape[1] for t in tensors])

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


def pad_reflect(x: Tensor, ph: int, pw: int) -> Tensor:
    """Reflect-pad the bottom/right edges by (ph, pw)."""
    if ph == 0 and pw == 0:
        return x
    n, c, h, w = x.shape
    if ph >= h or pw >= w:
        raise ValueError(f"reflect pad ({ph}, {pw}) too large for size {h}x{w}")
    out = np.pad(x.data, ((0, 0), (0, 0), (0, ph), (0, pw)), mode="reflect")

    def bwd(g):
        # padded row h + k mirrors row h - 2 - k (columns likewise): fold the
        # mirrored rows back, then the mirrored columns
        gx = g[:, :, :h].copy()
        gx[:, :, h - 1 - ph:h - 1] += g[:, :, h:][:, :, ::-1]
        gx[..., w - 1 - pw:w - 1] += gx[..., w:][..., ::-1]
        _accum(x, gx[..., :w])

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


def _band_cols(x, k: int):
    """Yield (b, r0, r1, cols) for each band of output rows [r0, r1) of image
    b of a 'same' k x k correlation over the (n, c, h, w) array x:
    cols is the (c*k*k, (r1-r0)*w) column matrix, zero outside the frame.
    Taps sit at offsets -(k//2) .. k-1-k//2, so -1 and 0 for the even k = 2.

    The k*k shifted windows of x are gathered into a buffer of about
    _COL_BYTES, and taps that fall outside the frame are zeros written into
    it, so no padded copy of x is made.  A tap's out-of-frame columns are
    the same in every band: they are zeroed once per buffer layout and never
    written.  Its out-of-frame rows occur only in the first and last bands
    and are zeroed there.
    """
    n, c, h, w = x.shape
    p = k // 2
    row_span = [_in_frame(h, i - p) for i in range(k)]
    col_span = [_in_frame(w, j - p) for j in range(k)]
    rows = max(1, min(h, _COL_BYTES // (c * k * k * w * x.itemsize)))
    buf = np.empty(c * k * k * rows * w, dtype=x.dtype)
    zeroed_rows = 0  # band height of the layout whose border columns are zero
    for b in range(n):
        for r0 in range(0, h, rows):
            r1 = min(r0 + rows, h)
            cols = buf[:c * k * k * (r1 - r0) * w].reshape(c, k, k, r1 - r0, w)
            if zeroed_rows != r1 - r0:
                for j, (c0, c1) in enumerate(col_span):
                    cols[:, :, j, :, :c0] = 0
                    cols[:, :, j, :, c1:] = 0
                zeroed_rows = r1 - r0
            for i, (lo, hi) in enumerate(row_span):
                a0 = min(max(lo, r0), r1)  # in-frame rows [a0, a1) of this band
                a1 = min(max(hi, a0), r1)
                if a0 > r0:
                    cols[:, i, :, :a0 - r0] = 0
                if a1 < r1:
                    cols[:, i, :, a1 - r0:] = 0
                src = x[b, :, a0 + i - p:a1 + i - p]
                for j, (c0, c1) in enumerate(col_span):
                    cols[:, i, j, a0 - r0:a1 - r0, c0:c1] = src[:, :, c0 + j - p:c1 + j - p]
            yield b, r0, r1, cols.reshape(c * k * k, -1)


def _in_frame(size: int, d: int):
    """[lo, hi): the output positions whose tap at offset d lies inside a
    frame of `size` (lo == hi when none does)."""
    lo = min(max(0, -d), size)
    return lo, max(min(size, size - d), lo)


def _same_conv(x, wmat, k: int, out=None, add: bool = False):
    """'Same' grouped correlation of the (n, c, h, w) array x with
    wmat (groups, ocg, icg*k*k), taps placed as _band_cols places them (an
    even k too): one matmul batched over groups per band,
    written into out (new when None, or a channel slice of a larger array)
    or, with add set, made in one reused band temporary and added into it."""
    n, c, h, w = x.shape
    groups, ocg, _ = wmat.shape
    if out is None:
        out = np.empty((n, groups * ocg, h, w), dtype=x.dtype)
    tmp = None
    for b, r0, r1, cols in _band_cols(x, k):
        dst = out[b, :, r0:r1].reshape(groups, ocg, -1)
        if add and tmp is None:  # the first band is the largest
            tmp = np.empty(dst.size, dtype=out.dtype)
        prod = tmp[:dst.size].reshape(dst.shape) if add else dst
        np.matmul(wmat, cols.reshape(groups, -1, cols.shape[1]), out=prod)
        if add:
            dst += prod
    return out


# Byte bound on the block of channel planes the conv epilogue works on at once
# (at least one plane), so that its temporary stays in cache.
_EPILOGUE_BYTES = 256 << 10


def _bias_leaky_inplace(out, bias, slope):
    """out += bias (None, (1 or n, c, 1, 1) or out's shape), then leaky ReLU when
    slope is set, in place on the (n, c, h, w) array out: one pass over it,
    in blocks of whole channel planes."""
    n, c, h, w = out.shape
    planes = max(1, min(c, _EPILOGUE_BYTES // (h * w * out.itemsize)))
    tmp = np.empty((planes, h * w), dtype=out.dtype)
    for b in range(n):
        ob = out[b].reshape(c, -1)
        bb = None if bias is None else bias[b if bias.shape[0] > 1 else 0].reshape(c, -1)
        for c0 in range(0, c, planes):
            blk = ob[c0:c0 + planes]
            if bb is not None:
                blk += bb[c0:c0 + planes]
            if slope is not None:
                t = tmp[:len(blk)]
                np.multiply(blk, slope, out=t)
                np.maximum(blk, t, out=blk)


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None, *,
           groups: int = 1, slope: float | None = None) -> Tensor:
    """Grouped convolution with an odd square kernel that slides one pixel at
    a time over the input zero-padded by k // 2, so the output has the input's
    size; plain, grouped and partial convs all run this one im2col + GEMM
    kernel (the network runs its 1x1 layers as _pointwise_mlp steps).

    bias is (1, oc, 1, 1).  With slope set, leaky_relu(., slope) is applied
    in place on the output array; its backward builds the derivative from
    the output's sign.

    Backward walks the same bands for dW += g @ cols^T.  The input gradient
    is the same kernel run on g with the flipped, group-transposed weights
    (a 'same' conv's adjoint is a 'same' conv), so it is a gather too.
    """
    n, c, h, w = x.shape
    oc, icg, k, k2 = weight.shape
    if k != k2 or k % 2 == 0:
        raise ValueError(f"kernel must be square with odd size, got {weight.shape}")
    if c % groups or oc % groups:
        raise ValueError(f"groups={groups} must divide channels ({c} -> {oc})")
    if icg != c // groups:
        raise ValueError(f"weight expects {icg * groups} input channels, got {c}")
    if bias is not None and bias.shape != (1, oc, 1, 1):
        raise ValueError(f"bias must be (1,{oc},1,1), got {bias.shape}")
    if slope is not None:
        _check_slope(slope)

    ocg = oc // groups
    wmat = weight.data.reshape(groups, ocg, icg * k * k)
    out = _same_conv(x.data, wmat, k)
    if bias is not None or slope is not None:
        _bias_leaky_inplace(out, None if bias is None else bias.data, slope)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def bwd(g):
        if slope is not None:
            g = _leaky_grad(g, out, slope)
        if bias is not None:
            _accum(bias, g.sum(axis=(0, 2, 3)).reshape(1, oc, 1, 1))
        if weight.requires_grad:
            _accum(weight, _band_dw(x.data, g, groups, k).reshape(weight.shape))
        if x.requires_grad:
            _accum(x, _same_conv(g, _adjoint_wmat(weight.data, groups), k))

    return _node(out, "conv2d", parents, bwd)


def _band_dw(x, g, groups: int, k: int):
    """Weight gradient (groups, ocg, icg*k*k) of a 'same' k x k conv of the
    array x whose output gradient is g: the sum over x's bands of the band's
    g times its transposed columns."""
    n, c, h, w = x.shape
    ocg, icg = g.shape[1] // groups, c // groups
    dw = np.zeros((groups, ocg, icg * k * k), dtype=g.dtype)
    for b, r0, r1, cols in _band_cols(x, k):
        gb = g[b, :, r0:r1].reshape(groups, ocg, -1)
        dw += gb @ cols.reshape(groups, icg * k * k, -1).transpose(0, 2, 1)
    return dw


def _adjoint_wmat(weight, groups: int):
    """(groups, icg, ocg*k*k) matrix of the 'same' conv that gives a conv's
    input gradient from its output gradient: the (oc, icg, k, k) weights
    flipped in both spatial axes and transposed within each group."""
    oc, icg, k, _ = weight.shape
    ocg = oc // groups
    wflip = weight[:, :, ::-1, ::-1].reshape(groups, ocg, icg, k * k)
    return wflip.transpose(0, 2, 1, 3).reshape(groups, icg, ocg * k * k)


# _UP2_PHASE[a, u, i] = 1 where, at output rows 2r + a, tap i of a 3x3 conv
# over up2(x) (offsets -1, 0, +1) reads row r - 1 + a + u of x, the row that
# tap u of the phase's 2x2 conv reads.  up2(x)'s zero padding is x's.
_UP2_PHASE = np.array([[[1, 0, 0], [0, 1, 1]],
                       [[1, 1, 0], [0, 0, 1]]], dtype=np.float64)


def _up2_conv(x: Tensor, weight: Tensor, bias: Tensor, *, slope: float) -> Tensor:
    """leaky_relu(conv2d(up2(x), weight, bias), slope) for a 3x3 weight, run
    on x (resize-convolution, Odena et al., Distill 2016).  Output phase
    (a, b), the pixels (2i + a, 2j + b), reads a 2x2 window of x, so it is a
    2x2 conv with taps summed from the 3x3 ones: 4 of the 9 (a sub-pixel
    convolution, Shi et al., 2016).  The four run as one 2x2 'same' conv
    with 4*oc outputs (channel 4*o + 2*a + b) over x zero-padded by one row
    and column, bottom and right; phase (a, b) is its rows a..a+h-1 and
    columns b..b+w-1.  Backward scatters g into that layout for one band
    pass over the padded x (the weight gradient, folded back to 3x3) and
    the adjoint 2x2 conv, whose rows and columns 1.. are x's gradient."""
    n, c, h, w = x.shape
    oc = weight.shape[0]
    if weight.shape[1:] != (c, 3, 3):
        raise ValueError(f"up-conv weights must be (oc, {c}, 3, 3) for {c} input "
                         f"channels, got {weight.shape}")
    _check_slope(slope)
    taps = _UP2_PHASE.astype(weight.dtype)
    w2 = np.einsum("aui,bvj,ocij->oabcuv", taps, taps, weight.data,
                   optimize=True).reshape(4 * oc, c, 2, 2)
    xp = np.pad(x.data, ((0, 0), (0, 0), (0, 1), (0, 1)))
    y = _same_conv(xp, w2.reshape(1, 4 * oc, c * 4), 2).reshape(n, oc, 2, 2, h + 1, w + 1)
    out = np.empty((n, oc, 2 * h, 2 * w), dtype=x.dtype)
    for a, b in np.ndindex(2, 2):
        out[:, :, a::2, b::2] = y[:, :, a, b, a:a + h, b:b + w]
    _bias_leaky_inplace(out, bias.data, slope)

    def bwd(g):
        g = _leaky_grad(g, out, slope)
        _accum(bias, g.sum(axis=(0, 2, 3)).reshape(1, oc, 1, 1))
        gy = np.zeros((n, oc, 2, 2, h + 1, w + 1), dtype=g.dtype)
        for a, b in np.ndindex(2, 2):
            gy[:, :, a, b, a:a + h, b:b + w] = g[:, :, a::2, b::2]
        gy = gy.reshape(n, 4 * oc, h + 1, w + 1)
        if weight.requires_grad:
            dw2 = _band_dw(xp, gy, 1, 2).reshape(oc, 2, 2, c, 2, 2)
            _accum(weight, np.einsum("aui,bvj,oabcuv->ocij", taps, taps, dw2, optimize=True))
        if x.requires_grad:
            _accum(x, _same_conv(gy, _adjoint_wmat(w2, 1), 2)[:, :, 1:, 1:])

    return _node(out, "up2_conv", (x, weight, bias), bwd)


def _dense_block(x: Tensor, weights, biases, *, slope: float) -> Tensor:
    """The (n, L*g, h, w) stack [d_0, ..., d_{L-1}] of a dense branch over
    x of c channels, for L same k x k convs of g outputs each (weights[i] is
    (g, c + i*g, k, k), biases[i] (1, g, 1, 1)):
    d_i = leaky_relu(conv(concat(x, d_0, ..., d_{i-1}), weights[i]) + biases[i])

    The stack is one preactivation buffer, filled in place (Pleiss et al.,
    "Memory-Efficient Implementation of DenseNets", 2017).  Each part (x,
    then d_0, ..., d_{L-2}) is gathered once: one _same_conv with the rows
    of every layer that reads it, stacked, writes (x) or adds (the rest)
    into those layers' slices of the buffer.  After each part, the first
    layer that read it is final: its bias and leaky ReLU run on it in place
    before it is gathered as the next part.

    Backward runs the layers in reverse over one gradient buffer, x's rows
    then the stack's.  Each layer's preactivation gradient is added into
    the rows of all of its input parts by one adjoint conv (x's rows only
    when x requires grad), and one band pass per part gives the stacked
    weight gradient of the layers that read it.
    """
    n, c, h, w = x.shape
    L = len(weights)
    if L < 1 or len(biases) != L:
        raise ValueError(f"need one bias per dense layer and at least one layer, "
                         f"got {L} weights and {len(biases)} biases")
    g, _, k, _ = weights[0].shape
    if k % 2 == 0:
        raise ValueError(f"dense kernels must be odd, got {weights[0].shape}")
    _check_slope(slope)
    for i, (wt, bt) in enumerate(zip(weights, biases)):
        if wt.shape != (g, c + i * g, k, k):
            raise ValueError(f"dense layer {i}: weight {wt.shape} != {(g, c + i * g, k, k)}")
        if bt.shape != (1, g, 1, 1):
            raise ValueError(f"dense layer {i}: bias must be (1,{g},1,1), got {bt.shape}")

    def part(p):  # (array, channel offset in each reader's weight, channels, first reader)
        if p == 0:
            return x.data, 0, c, 0
        return a[:, (p - 1) * g:p * g], c + (p - 1) * g, g, p

    a = np.empty((n, L * g, h, w), dtype=x.dtype)
    for p in range(L):
        src, c0, cp, f = part(p)
        wstack = np.concatenate([wt.data[:, c0:c0 + cp].reshape(g, -1)
                                 for wt in weights[f:]])
        _same_conv(src, wstack[None], k, out=a[:, f * g:], add=p > 0)
        _bias_leaky_inplace(a[:, f * g:(f + 1) * g], biases[f].data, slope)

    def bwd(G):
        lo = 0 if x.requires_grad else c  # the first row that gets a gradient
        gall = np.concatenate([np.zeros_like(x.data, dtype=G.dtype), G], axis=1)
        for i in reversed(range(L)):
            gi = gall[:, c + i * g:c + (i + 1) * g]
            gi[...] = _leaky_grad(gi, a[:, i * g:(i + 1) * g], slope)
            _accum(biases[i], gi.sum(axis=(0, 2, 3)).reshape(1, g, 1, 1))
            if c + i * g > lo:
                _same_conv(gi, _adjoint_wmat(weights[i].data[:, lo:], 1), k,
                           out=gall[:, lo:c + i * g], add=True)
        _accum(x, gall[:, :c].copy())  # as a view it would keep all of gall alive
        if not any(wt.requires_grad for wt in weights):
            return
        dws = [np.zeros(wt.shape, dtype=G.dtype) for wt in weights]
        for p in range(L):
            src, c0, cp, f = part(p)
            dw = _band_dw(src, gall[:, c + f * g:], 1, k).reshape(L - f, g, cp, k, k)
            for i in range(f, L):
                dws[i][:, c0:c0 + cp] = dw[i - f]
        for wt, dw in zip(weights, dws):
            _accum(wt, dw)

    return _node(a, "dense_block", (x, *weights, *biases), bwd)


# Byte bound on one band's widest activation in _pointwise_mlp (at least one
# pixel), so that a band's activations stay in cache.
_MLP_BYTES = 256 << 10


def _pointwise_mlp(x, steps, *, into: Tensor | None = None,
                   pool: bool = False) -> Tensor:
    """A chain of 1x1 convs over the pixels of x, run as one op on bands of
    pixels, so that no layer's activation is built over the whole frame.

    x is a tensor, or a list of tensors of one batch and size read as their
    channel concat (the first step adds one GEMM per part, read in place).
    Each step is (weight, bias, slope): a 1x1 conv with its bias (or None),
    followed by the leaky ReLU when slope is set.  The output is the last
    step's activation, or with pool set its mean over the pixels,
    (n, c, 1, 1).  With into, an (n, c, h, w) tensor, the last step has 2c
    channels and the output is into * alpha + beta with alpha and beta its
    two halves, per pixel (spatial feature modulation).

    A band holds about _MLP_BYTES of its widest activation, and bias,
    activation and modulation run on it while it is in cache.  When a
    gradient is needed, each band's activations are kept, in band-sized
    arrays, and backward walks each band back; the last step's is read back
    from the output, unless into or pool is set.  When nothing requires
    grad, every band reuses one set of band buffers and nothing is kept, so
    no activation of the whole frame is held.
    (Recomputing each band in the backward instead, as in Chen et al.,
    "Training Deep Nets with Sublinear Memory Cost", 2016, measured slower
    at the 64x64 training patch.)
    """
    xs = [x] if isinstance(x, Tensor) else list(x)
    n, _, h, w = xs[0].shape
    if any(t.shape[0] != n or t.shape[2:] != (h, w) for t in xs):
        raise ValueError(f"input parts differ in batch or size: {[t.shape for t in xs]}")
    offsets = np.cumsum([0] + [t.shape[1] for t in xs]).tolist()
    c = offsets[-1]
    if into is not None and pool:
        raise ValueError("pool and into cannot both be set")
    specs, width, widest = [], c, c
    for i, (wt, bt, slope) in enumerate(steps):
        oc = wt.shape[0]
        if wt.shape != (oc, width, 1, 1):
            raise ValueError(f"step {i}: weight {wt.shape} is not a 1x1 conv of "
                             f"{width} channels")
        if bt is not None and bt.shape != (1, oc, 1, 1):
            raise ValueError(f"step {i}: bias must be (1,{oc},1,1), got {bt.shape}")
        if slope is not None:
            _check_slope(slope)
        specs.append((wt, bt, slope, oc))
        width = oc
        widest = max(widest, oc)
    cout = width
    if into is not None:
        cout = width // 2
        if width % 2 or into.shape != (n, cout, h, w):
            raise ValueError(f"into {into.shape} does not fit a {width}-channel output "
                             f"over {xs[0].shape}")

    hw = h * w
    dtype = xs[0].dtype
    band = max(1, min(hw, _MLP_BYTES // (widest * xs[0].data.itemsize)))
    band = -(-hw // -(-hw // band))  # the same number of bands, of equal width

    # each step's, then a temporary's
    widths = [ch for *_, ch in specs] + [widest]

    def band_buffers(k=len(widths)):
        return [np.empty(band * ch, dtype=dtype) for ch in widths[:k]]

    def run(bufs, b, p0, p1):
        """The activations of pixels [p0, p1) of image b: the list of x's
        parts (views), then each step's, in bufs."""
        acts = [[t.data[b].reshape(-1, hw)[:, p0:p1] for t in xs]]
        tmp = bufs[-1]
        for i, ((wt, bt, slope, ch), buf) in enumerate(zip(specs, bufs)):
            z = buf[:ch * (p1 - p0)].reshape(ch, p1 - p0)
            t = tmp[:z.size].reshape(z.shape)
            wm = wt.data.reshape(ch, -1)
            if i:
                np.matmul(wm, acts[i], out=z)
            else:  # one GEMM per part of x, added into z
                np.matmul(wm[:, :offsets[1]], acts[0][0], out=z)
                for part, o0, o1 in zip(acts[0][1:], offsets[1:], offsets[2:]):
                    np.matmul(wm[:, o0:o1], part, out=t)
                    z += t
            if bt is not None:
                z += bt.data.reshape(-1, 1)
            if slope is not None:
                np.multiply(z, slope, out=t)
                np.maximum(z, t, out=z)
            acts.append(z)
        return acts

    def bands():
        for b in range(n):
            for p0 in range(0, hw, band):
                yield b, p0, min(p0 + band, hw)

    parents = xs + ([into] if into is not None else [])
    for wt, bt, *_ in specs:
        parents += [wt] if bt is None else [wt, bt]
    keep = any(t.requires_grad for t in parents)
    saved = []  # each band's activations, for the backward
    # the number of steps whose band activations are kept: a plain op's
    # output holds its last step's, so that step's band buffer and the
    # temporary are reused across bands
    kept = len(specs) - (into is None and not pool)

    def forward_bands():
        bufs = band_buffers()
        for b, p0, p1 in bands():
            acts = run(bufs, b, p0, p1)
            if keep:
                saved.append(acts[:kept + 1])
                bufs = band_buffers(kept) + bufs[kept:]
            yield b, p0, p1, acts[-1]

    if pool:
        sums = np.zeros((n, cout), dtype=np.float64)
        for b, _, _, z in forward_bands():
            sums[b] += z.sum(axis=1)
        out = (sums / hw).astype(dtype).reshape(n, cout, 1, 1)
    else:
        out = np.empty((n, cout, h, w), dtype=dtype)
        for b, p0, p1, z in forward_bands():
            ob = out[b].reshape(cout, hw)[:, p0:p1]
            if into is None:
                ob[...] = z
            else:
                np.multiply(into.data[b].reshape(cout, hw)[:, p0:p1], z[:cout], out=ob)
                ob += z[cout:]

    def bwd(G):
        dws = [np.zeros(wt.shape, dtype=G.dtype) if wt.requires_grad else None
               for wt, *_ in specs]
        dbs = [np.zeros(bt.shape, dtype=G.dtype) if bt is not None and bt.requires_grad
               else None for _, bt, *_ in specs]
        gxs = [np.empty_like(t.data) if t.requires_grad else None for t in xs]
        gi = np.empty_like(into.data) if into is not None and into.requires_grad else None
        w0 = specs[0][0].data.reshape(specs[0][3], c)
        for (b, p0, p1), acts in zip(bands(), saved):
            if kept < len(specs):
                acts = acts + [out[b].reshape(cout, hw)[:, p0:p1]]
            if pool:
                g = np.repeat(G[b].reshape(cout, 1) / hw, p1 - p0, axis=1)
            else:
                g = G[b].reshape(cout, hw)[:, p0:p1]
            if into is not None:
                if gi is not None:
                    np.multiply(g, acts[-1][:cout], out=gi[b].reshape(cout, hw)[:, p0:p1])
                g = np.concatenate([g * into.data[b].reshape(cout, hw)[:, p0:p1], g])
            for i in reversed(range(len(specs))):
                wt, _, slope, ch = specs[i]
                if slope is not None:
                    g = _leaky_grad(g, acts[i + 1], slope)
                if dbs[i] is not None:
                    dbs[i] += g.sum(axis=1).reshape(dbs[i].shape)
                if i:
                    if dws[i] is not None:
                        dws[i] += (g @ acts[i].T).reshape(wt.shape)
                    g = wt.data.reshape(ch, -1).T @ g
            for part, gx, o0, o1 in zip(acts[0], gxs, offsets, offsets[1:]):  # step 0's
                if dws[0] is not None:
                    dws[0][:, o0:o1, 0, 0] += g @ part.T
                if gx is not None:
                    gx[b].reshape(-1, hw)[:, p0:p1] = w0[:, o0:o1].T @ g
        for t, gt in zip((*xs, into), (*gxs, gi)):
            if gt is not None:
                _accum(t, gt)
        for (wt, bt, *_), dw, db in zip(specs, dws, dbs):
            if dw is not None:
                _accum(wt, dw)
            if db is not None:
                _accum(bt, db)

    return _node(out, "pointwise_mlp", parents, bwd)


def partial_conv(x: Tensor, mask, weight: Tensor, bias: Tensor | None = None, *,
                 groups: int = 1, slope: float | None = None):
    """Mask-gated convolution with per-window renormalization.

    mask is a fixed (n,1,h,w) array in [0,1]; it gates the input, scales each
    window by area/mask_sum, and propagates as 1 wherever the window saw any
    valid pixel.  The ratio, the bias and, with slope set, the leaky ReLU
    are one affine op.  Returns (output, updated_mask).

    Out-of-bounds area counts as fully valid for the renormalization so an
    all-ones mask reproduces a plain convolution exactly, borders included;
    validity itself is judged on in-bounds pixels only.
    """
    mask = np.asarray(mask, dtype=x.dtype)
    n, _, h, w = x.shape
    if mask.shape != (n, 1, h, w):
        raise ValueError(f"mask shape {mask.shape} does not match input {x.shape}")
    k = weight.shape[2]
    # k x k window sums of the mask and of a plane of ones (the in-frame tap
    # count, an exact integer) as one 2-group conv with all-ones taps.  The
    # out-of-frame taps are added to the mask sum: k*k minus the window sum
    # of 1 - mask would cancel where the mask is near 0
    sums = _same_conv(np.concatenate([mask, np.ones_like(mask)], axis=1),
                      np.ones((2, 1, k * k), dtype=x.dtype), k)
    msum, inside = sums[:, :1], sums[:, 1:]
    valid = msum > 1e-8
    ratio = np.where(valid, (k * k) / np.maximum(msum + (k * k - inside), 1e-8), 0.0)
    new_mask = valid.astype(x.dtype)

    y = conv2d(affine(x, mask), weight, None, groups=groups)
    return affine(y, ratio, bias, slope=slope), new_mask


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
