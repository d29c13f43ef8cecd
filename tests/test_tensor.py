import zlib

import numpy as np
import pytest

from hdrlite import tensor as T
from hdrlite.tensor import Tensor
from tests.conftest import traced


def t64(rng, shape, rg=True):
    return Tensor(rng.normal(0, 1, shape).astype(np.float64), requires_grad=rg)


def test_tensor_requires_4d():
    with pytest.raises(ValueError):
        Tensor(np.zeros((3, 3)))


def test_conv_identity_pointwise():
    x = Tensor(np.random.default_rng(0).random((1, 3, 4, 4)).astype(np.float32))
    w = Tensor(np.eye(3, dtype=np.float32).reshape(3, 3, 1, 1))
    b = Tensor(np.zeros((1, 3, 1, 1), dtype=np.float32))
    y = T.conv2d(x, w, b)
    np.testing.assert_array_equal(y.data, x.data)


def test_conv_allones_kernel_center_and_corner():
    # 1x2x3x3 all ones, one 3x3 all-ones kernel, pad 1: center 18, corner 8
    x = Tensor(np.ones((1, 2, 3, 3), dtype=np.float32))
    w = Tensor(np.ones((1, 2, 3, 3), dtype=np.float32))
    y = T.conv2d(x, w)
    assert y.data[0, 0, 1, 1] == 18.0
    assert y.data[0, 0, 0, 0] == 8.0


def test_conv_shape_mismatch_raises():
    x = Tensor(np.zeros((1, 3, 4, 4), dtype=np.float32))
    w = Tensor(np.zeros((4, 2, 3, 3), dtype=np.float32))
    with pytest.raises(ValueError):
        T.conv2d(x, w)


def test_grouped_conv_matches_blockwise_dense():
    # groups=2 conv equals two independent dense convs on channel halves
    rng = np.random.default_rng(1)
    x = Tensor(rng.random((2, 4, 5, 5)).astype(np.float64))
    w = Tensor(rng.random((6, 2, 3, 3)).astype(np.float64))
    y = T.conv2d(x, w, groups=2)
    for g in range(2):
        xg = Tensor(x.data[:, 2 * g:2 * g + 2])
        wg = Tensor(w.data[3 * g:3 * g + 3])
        yg = T.conv2d(xg, wg)
        np.testing.assert_allclose(y.data[:, 3 * g:3 * g + 3], yg.data, rtol=1e-12)


def conv_reference(x, w, b, groups):
    """Nested-loop float64 'same' convolution (zero padding k // 2): one dot
    product per output value."""
    n, c, h, wd = x.shape
    oc, icg, k, _ = w.shape
    ocg, p = oc // groups, k // 2
    xp = np.pad(x.astype(np.float64), ((0, 0), (0, 0), (p, p), (p, p)))
    out = np.zeros((n, oc, h, wd))
    for bi in range(n):
        for o in range(oc):
            g = o // ocg
            for y in range(h):
                for xx in range(wd):
                    patch = xp[bi, g * icg:(g + 1) * icg, y:y + k, xx:xx + k]
                    out[bi, o, y, xx] = np.sum(patch * w[o]) + b[0, o, 0, 0]
    return out


def conv_reference_grads(x, w, gy, groups):
    """(dx, dw, db) of sum(gy * conv), by scattering each output value's
    upstream gradient through its window in the same nested loops."""
    n, c, h, wd = x.shape
    oc, icg, k, _ = w.shape
    ocg, p = oc // groups, k // 2
    xp = np.pad(x.astype(np.float64), ((0, 0), (0, 0), (p, p), (p, p)))
    dxp, dw = np.zeros_like(xp), np.zeros(w.shape)
    for bi in range(n):
        for o in range(oc):
            cs = slice(o // ocg * icg, (o // ocg + 1) * icg)
            for y in range(h):
                for xx in range(wd):
                    dxp[bi, cs, y:y + k, xx:xx + k] += gy[bi, o, y, xx] * w[o]
                    dw[o] += gy[bi, o, y, xx] * xp[bi, cs, y:y + k, xx:xx + k]
    db = gy.astype(np.float64).sum(axis=(0, 2, 3)).reshape(1, oc, 1, 1)
    return dxp[:, :, p:p + h, p:p + wd], dw, db


def set_band_rows(monkeypatch, rows, c, k, ow, dtype):
    """Shrink the column buffer so conv2d gathers `rows` output rows per band."""
    monkeypatch.setattr(T, "_COL_BYTES", rows * c * k * k * ow * np.dtype(dtype).itemsize)


@pytest.mark.parametrize("band_rows", [None, 1, 2])
@pytest.mark.parametrize("groups", [1, 2, 4])
@pytest.mark.parametrize("batch", [1, 2])
@pytest.mark.parametrize("k", [1, 3, 5])
def test_conv_matches_nested_loop_reference(monkeypatch, k, batch, groups, band_rows):
    # forward, dx, dW and db; the frames include ones narrower than the kernel
    rng = np.random.default_rng(k * 100 + batch * 10 + groups)
    tol = {np.float32: 1e-5, np.float64: 1e-12}
    for dtype in (np.float32, np.float64):
        for h, wd in ((7, 9), (4, 3), (1, 6)):
            x = rng.normal(0, 1, (batch, 4, h, wd)).astype(dtype)
            w = rng.normal(0, 1, (4, 4 // groups, k, k)).astype(dtype)
            b = rng.normal(0, 1, (1, 4, 1, 1)).astype(dtype)
            gy = rng.normal(0, 1, (batch, 4, h, wd)).astype(dtype)
            if band_rows:
                set_band_rows(monkeypatch, band_rows, 4, k, wd, dtype)
            xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
            y = T.conv2d(xt, wt, bt, groups=groups)
            assert y.dtype == dtype and y.shape == gy.shape
            np.testing.assert_allclose(y.data, conv_reference(x, w, b, groups),
                                       rtol=tol[dtype], atol=tol[dtype])
            T.backward(T.sum_all(T.mul(y, Tensor(gy))))
            for t, ref in zip((xt, wt, bt), conv_reference_grads(x, w, gy, groups)):
                assert t.grad.dtype == dtype
                np.testing.assert_allclose(t.grad, ref, rtol=tol[dtype], atol=tol[dtype])


def test_conv_gradients_do_not_depend_on_bands(monkeypatch):
    # backward walks bands too (the weight gradient over the forward's bands,
    # the input gradient over its own gather); one-row bands must give the
    # same gradients as a single band
    rng = np.random.default_rng(7)
    x, w, b = t64(rng, (2, 4, 9, 8)), t64(rng, (6, 2, 3, 3)), t64(rng, (1, 6, 1, 1))
    grads = []
    for col_bytes in (T._COL_BYTES, 1):
        monkeypatch.setattr(T, "_COL_BYTES", col_bytes)
        for t in (x, w, b):
            t.zero_grad()
        y = T.conv2d(x, w, b, groups=2)
        assert y.shape == (2, 6, 9, 8)
        T.backward(T.mean_all(T.mul(y, y)))
        grads.append([t.grad.copy() for t in (x, w, b)])
    for g_one, g_banded in zip(*grads):
        np.testing.assert_allclose(g_banded, g_one, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("shape", [(2, 2, 2, 2), (2, 2, 4, 4), (2, 2, 3, 1)],
                         ids=["2x2", "4x4", "3x1"])
def test_conv_rejects_even_or_non_square_kernel(shape):
    x = Tensor(np.zeros((1, 2, 5, 5), dtype=np.float32))
    with pytest.raises(ValueError, match="odd"):
        T.conv2d(x, Tensor(np.zeros(shape, dtype=np.float32)))


def test_conv_backward_creates_no_op_nodes(monkeypatch):
    # the benchmark tracer rebinds the public tensor functions to count conv
    # calls and elementwise ops; backward must not go through any of them
    rng = np.random.default_rng(8)
    x, w, b = t64(rng, (1, 4, 5, 6)), t64(rng, (4, 2, 3, 3)), t64(rng, (1, 4, 1, 1))
    with T.trace_ops() as trace:
        loss = T.sum_all(T.conv2d(x, w, b, groups=2))
        monkeypatch.setattr(T, "conv2d", None)
        T.backward(loss)
    assert trace == ["conv2d", "sum_all"]
    assert x.grad is not None and w.grad is not None and b.grad is not None


def test_activations():
    x = Tensor(np.array([-1.0, 3.5]).reshape(1, 1, 1, 2).astype(np.float32))
    assert T.relu(x).data[0, 0, 0, 0] == 0.0
    lr = T.leaky_relu(x, 0.2)
    assert lr.data[0, 0, 0, 0] == pytest.approx(-0.2)
    assert lr.data[0, 0, 0, 1] == pytest.approx(3.5)
    with pytest.raises(ValueError):
        T.leaky_relu(x, 1.5)


def test_resample():
    x = Tensor(np.full((1, 1, 1, 1), 7.0, dtype=np.float32))
    up = T.up2(x)
    assert up.shape == (1, 1, 2, 2)
    np.testing.assert_array_equal(up.data, 7.0)
    blk = Tensor(np.array([1, 2, 3, 4], dtype=np.float32).reshape(1, 1, 2, 2))
    assert T.down2(blk).data[0, 0, 0, 0] == pytest.approx(2.5)
    # down2(up2(x)) is identity
    y = Tensor(np.random.default_rng(0).random((2, 3, 4, 6)).astype(np.float32))
    np.testing.assert_array_equal(T.down2(T.up2(y)).data, y.data)
    with pytest.raises(ValueError):
        T.down2(Tensor(np.zeros((1, 1, 3, 4), dtype=np.float32)))


def test_concat_and_slice_roundtrip():
    rng = np.random.default_rng(2)
    a = Tensor(rng.random((1, 2, 4, 4)).astype(np.float32))
    b = Tensor(rng.random((1, 3, 4, 4)).astype(np.float32))
    cat = T.concat_channels(a, b)
    assert cat.shape == (1, 5, 4, 4)
    np.testing.assert_array_equal(cat.data[:, 0], a.data[:, 0])
    np.testing.assert_array_equal(T.narrow_channels(cat, 0, 2).data, a.data)
    np.testing.assert_array_equal(T.narrow_channels(cat, 2, 3).data, b.data)
    with pytest.raises(ValueError):
        T.concat_channels(a, Tensor(np.zeros((1, 1, 5, 5), dtype=np.float32)))


def test_global_avg_pool():
    x = Tensor(np.array([0, 2, 4, 6], dtype=np.float32).reshape(1, 1, 2, 2))
    p = T.global_avg_pool(x)
    assert p.shape == (1, 1, 1, 1)
    assert p.data[0, 0, 0, 0] == pytest.approx(3.0)
    # idempotent
    np.testing.assert_array_equal(T.global_avg_pool(p).data, p.data)
    const = Tensor(np.full((1, 2, 3, 3), 1.25, dtype=np.float32))
    np.testing.assert_allclose(T.global_avg_pool(const).data, 1.25)


def test_backward_linear_case():
    rng = np.random.default_rng(3)
    x = Tensor(rng.random((1, 2, 3, 3)).astype(np.float64))
    w = Tensor(rng.random((1, 2, 3, 3)).astype(np.float64), requires_grad=True)
    loss = T.sum_all(T.mul(w, x))
    T.backward(loss)
    np.testing.assert_allclose(w.grad, x.data)


def test_backward_requires_scalar():
    x = Tensor(np.zeros((1, 1, 2, 2), dtype=np.float32), requires_grad=True)
    with pytest.raises(ValueError):
        T.backward(x)


def test_relu_grad_zero_at_negative():
    x = Tensor(np.full((1, 1, 1, 1), -1.0), requires_grad=True)
    T.backward(T.sum_all(T.relu(x)))
    assert x.grad[0, 0, 0, 0] == 0.0


def test_forward_purity():
    rng = np.random.default_rng(4)
    x = Tensor(rng.random((1, 4, 6, 6)).astype(np.float32))
    w = Tensor(rng.random((4, 1, 3, 3)).astype(np.float32))
    y1 = T.conv2d(x, w, groups=4)
    y2 = T.conv2d(x, w, groups=4)
    np.testing.assert_array_equal(y1.data, y2.data)


def test_partial_conv_degenerate_masks():
    rng = np.random.default_rng(5)
    x = Tensor(rng.random((1, 2, 5, 5)).astype(np.float64))
    w = Tensor(rng.random((2, 2, 3, 3)).astype(np.float64))
    b = Tensor(rng.random((1, 2, 1, 1)).astype(np.float64))
    ones = np.ones((1, 1, 5, 5))
    y, m = T.partial_conv(x, ones, w, b)
    ref = T.conv2d(x, w, b)
    np.testing.assert_allclose(y.data, ref.data, rtol=1e-10)
    np.testing.assert_array_equal(m, 1.0)
    zeros = np.zeros((1, 1, 5, 5))
    y0, m0 = T.partial_conv(x, zeros, w, b)
    np.testing.assert_allclose(y0.data, np.broadcast_to(b.data, y0.shape))
    np.testing.assert_array_equal(m0, 0.0)


def test_partial_conv_renormalization():
    # 3x3 window with 4 of 9 pixels valid, all-ones kernel and inputs:
    # conv gives 4, renormalized by 9/4 -> 9, matching the fully-valid case
    x = Tensor(np.ones((1, 1, 3, 3), dtype=np.float64))
    w = Tensor(np.ones((1, 1, 3, 3), dtype=np.float64))
    mask = np.zeros((1, 1, 3, 3))
    mask[0, 0, :2, :2] = 1.0
    y, m = T.partial_conv(x, mask, w)
    assert y.data[0, 0, 1, 1] == pytest.approx(9.0)
    assert m[0, 0, 1, 1] == 1.0


@pytest.mark.parametrize("k", [1, 3, 5])
def test_partial_conv_matches_two_pass_reference(k):
    # reference: the window sum with zero padding judges validity, the one
    # with the frame padded by ones renormalizes.  float32 runs the window
    # sums through the conv kernel's GEMM; the mask scaled by 1e-3 catches a
    # renormalization sum that cancels (k*k minus the sum of 1 - mask)
    rng = np.random.default_rng(20 + k)
    p = k // 2
    for h, wd in ((6, 7), (3, 2)):
        x, w = rng.normal(0, 1, (2, 4, h, wd)), rng.normal(0, 1, (4, 2, k, k))
        mask = rng.random((2, 1, h, wd)) * (rng.random((2, 1, h, wd)) > 0.6)
        for m_in in (mask, mask * 1e-3):

            def window_sum(pad_value):
                mp = np.pad(m_in, ((0, 0), (0, 0), (p, p), (p, p)), constant_values=pad_value)
                return sum(mp[:, :, i:i + h, j:j + wd] for i in range(k) for j in range(k))
            valid = window_sum(0.0) > 1e-8
            ratio = np.where(valid, k * k / np.maximum(window_sum(1.0), 1e-8), 0.0)
            ref = conv_reference(x * m_in, w, np.zeros((1, 4, 1, 1)), 2) * ratio
            y, m = T.partial_conv(Tensor(x), m_in, Tensor(w), groups=2)
            np.testing.assert_allclose(y.data, ref, rtol=1e-12, atol=1e-12)
            np.testing.assert_array_equal(m, valid)
            y, m = T.partial_conv(Tensor(x.astype(np.float32)), m_in,
                                  Tensor(w.astype(np.float32)), groups=2)
            assert y.dtype == m.dtype == np.float32
            close(y.data, ref, np.float32)
            np.testing.assert_array_equal(m, valid)


GRAD_CASES = {}


def case_rng(name: str) -> np.random.Generator:
    # stable across processes, unlike hash()
    return np.random.default_rng(zlib.crc32(name.encode()))


def case(name):
    def deco(fn):
        GRAD_CASES[name] = fn
        return fn
    return deco


@case("conv_plain")
def _(rng):
    x, w, b = t64(rng, (2, 3, 6, 6)), t64(rng, (4, 3, 3, 3)), t64(rng, (1, 4, 1, 1))
    return lambda x, w, b: T.mean_all(T.abs_(T.conv2d(x, w, b))), [x, w, b]


@case("conv_grouped")
def _(rng):
    x, w, b = t64(rng, (2, 4, 5, 5)), t64(rng, (4, 1, 3, 3)), t64(rng, (1, 4, 1, 1))
    return lambda x, w, b: T.mean_all(T.mul(T.conv2d(x, w, b, groups=4),
                                            T.conv2d(x, w, b, groups=4))), [x, w, b]


@case("conv_pointwise")
def _(rng):
    x, w, b = t64(rng, (1, 4, 4, 4)), t64(rng, (6, 4, 1, 1)), t64(rng, (1, 6, 1, 1))
    return lambda x, w, b: T.mean_all(T.abs_(T.conv2d(x, w, b))), [x, w, b]


@case("conv_grouped2")
def _(rng):
    x, w, b = t64(rng, (1, 4, 7, 6)), t64(rng, (4, 2, 3, 3)), t64(rng, (1, 4, 1, 1))
    return lambda x, w, b: T.mean_all(T.abs_(T.conv2d(x, w, b, groups=2))), [x, w, b]


@case("conv_batch2")
def _(rng):
    x, w, b = t64(rng, (2, 2, 5, 5)), t64(rng, (3, 2, 5, 5)), t64(rng, (1, 3, 1, 1))
    return lambda x, w, b: T.mean_all(T.abs_(T.conv2d(x, w, b))), [x, w, b]


@case("partial_conv")
def _(rng):
    x, w, b = t64(rng, (1, 2, 6, 6)), t64(rng, (2, 2, 3, 3)), t64(rng, (1, 2, 1, 1))
    mask = (rng.random((1, 1, 6, 6)) > 0.4).astype(np.float64)

    def f(x, w, b):
        y, _ = T.partial_conv(x, mask, w, b)
        return T.mean_all(T.mul(y, y))
    return f, [x, w, b]


@case("leaky_relu")
def _(rng):
    x = t64(rng, (2, 3, 4, 4))
    return lambda x: T.mean_all(T.abs_(T.leaky_relu(x, 0.2))), [x]


@case("relu")
def _(rng):
    x = t64(rng, (2, 3, 4, 4))
    return lambda x: T.mean_all(T.mul(T.relu(x), T.relu(x))), [x]


@case("down2_up2")
def _(rng):
    x = t64(rng, (1, 2, 4, 4))
    return lambda x: T.mean_all(T.mul(T.up2(T.down2(x)), x)), [x]


@case("concat_narrow")
def _(rng):
    a, b = t64(rng, (1, 2, 3, 3)), t64(rng, (1, 3, 3, 3))
    return lambda a, b: T.mean_all(T.abs_(T.narrow_channels(T.concat_channels(a, b), 1, 3))), [a, b]


@case("global_avg_pool")
def _(rng):
    x = t64(rng, (2, 2, 3, 3))
    return lambda x: T.mean_all(T.mul(T.global_avg_pool(x), T.global_avg_pool(x))), [x]


@case("pad_crop")
def _(rng):
    x = t64(rng, (1, 2, 5, 5))
    return lambda x: T.mean_all(T.mul(T.crop(T.pad_reflect(x, 3, 2), 1, 1, 5, 5),
                                      T.crop(T.pad_reflect(x, 3, 2), 1, 1, 5, 5))), [x]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("h,w,ph,pw", [(5, 7, 3, 2), (4, 4, 0, 3), (6, 9, 5, 0), (3, 3, 2, 2)])
def test_pad_reflect_backward_bit_equal_to_add_at(h, w, ph, pw, dtype):
    rng = np.random.default_rng(h * w + ph)
    x = Tensor(rng.standard_normal((2, 3, h, w)).astype(dtype), requires_grad=True)
    y = T.pad_reflect(x, ph, pw)
    g = rng.standard_normal(y.shape).astype(dtype)
    y._backward(g)
    # oracle: scatter-add each padded row, then each column, to its source
    rows, cols = np.arange(h + ph), np.arange(w + pw)
    rows = np.where(rows >= h, 2 * (h - 1) - rows, rows)
    cols = np.where(cols >= w, 2 * (w - 1) - cols, cols)
    tmp = np.zeros((2, 3, h, w + pw), dtype=dtype)
    np.add.at(tmp, (slice(None), slice(None), rows), g)
    want = np.zeros_like(x.data)
    np.add.at(want, (slice(None), slice(None), slice(None), cols), tmp)
    assert x.grad.dtype == want.dtype
    np.testing.assert_array_equal(x.grad.view(np.uint8), want.view(np.uint8))


@case("grad_map")
def _(rng):
    x = t64(rng, (1, 3, 4, 4))
    return lambda x: T.mean_all(T.abs_(T.grad_map(x))), [x]


@case("broadcast_modulation")
def _(rng):
    x, a, b = t64(rng, (2, 3, 4, 4)), t64(rng, (2, 3, 1, 1)), t64(rng, (2, 3, 1, 1))
    return lambda x, a, b: T.mean_all(T.abs_(T.add(T.mul(x, a), b))), [x, a, b]


@pytest.mark.parametrize("name", sorted(GRAD_CASES))
def test_gradient_matches_finite_differences(name):
    fn, tensors = GRAD_CASES[name](case_rng(name))
    assert T.gradient_check(fn, tensors) < 1e-4


def test_gradcheck_random_small_tensors():
    # random op chains on tensors up to 2x4x8x8
    rng = np.random.default_rng(99)
    for trial in range(3):
        x = t64(rng, (2, 4, 8, 8))
        w = t64(rng, (4, 2, 3, 3))

        def f(x, w):
            y = T.conv2d(x, w, groups=2)
            y = T.leaky_relu(y, 0.2)
            y = T.down2(y)
            y = T.up2(y)
            return T.mean_all(T.abs_(y))
        assert T.gradient_check(f, [x, w]) < 1e-4


def test_op_trace_records_activations():
    with T.trace_ops() as trace:
        x = Tensor(np.ones((1, 1, 2, 2), dtype=np.float32))
        T.relu(T.leaky_relu(x, 0.2))
    assert trace == ["leaky_relu", "relu"]


# ---------------------------------------------------------------------------
# Fast paths against their plain formulations
# ---------------------------------------------------------------------------

def padded_band_cols(x, k, rows):
    """The column matrices gathered from an np.pad copy of x, band by band."""
    n, c, h, w = x.shape
    p = k // 2
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    for b in range(n):
        for r0 in range(0, h, rows):
            r1 = min(r0 + rows, h)
            cols = np.empty((c, k, k, r1 - r0, w), dtype=x.dtype)
            for i in range(k):
                for j in range(k):
                    cols[:, i, j] = xp[b, :, r0 + i:r1 + i, j:j + w]
            yield b, r0, r1, cols.reshape(c * k * k, -1)


@pytest.mark.parametrize("band_rows", [1, 2, None], ids=["1row", "2rows", "whole"])
@pytest.mark.parametrize("k", [1, 3, 5])
def test_band_cols_bit_equal_to_padded_gather(monkeypatch, k, band_rows):
    # exact equality (tolerance 0); frames include ones smaller than k, and
    # two images so that bands of a new layout follow ones of another
    rng = np.random.default_rng(40 + k)
    for h, w in ((7, 9), (5, 4), (2, 3), (1, 1), (1, 6), (6, 1)):
        x = rng.normal(0, 1, (2, 3, h, w)).astype(np.float32)
        rows = band_rows or h
        set_band_rows(monkeypatch, rows, 3, k, w, np.float32)
        got = [(b, r0, r1, cols.copy()) for b, r0, r1, cols in T._band_cols(x, k)]
        ref = list(padded_band_cols(x, k, rows))
        assert [g[:3] for g in got] == [r[:3] for r in ref]
        for g, r in zip(got, ref):
            np.testing.assert_array_equal(g[3], r[3])


@pytest.mark.parametrize("add", [False, True], ids=["write", "add"])
@pytest.mark.parametrize("band_rows", [None, 1], ids=["whole", "1row"])
@pytest.mark.parametrize("groups", [1, 2])
def test_same_conv_into_a_channel_slice(monkeypatch, groups, band_rows, add):
    # out= a channel slice of a batch-2 buffer: it holds the conv (plus its
    # old values with add), exactly, and the other channels keep theirs.  A
    # band reshape that copied instead of viewing would lose the write
    k, c, oc, h, w = 3, 4, 6, 5, 7
    rng = np.random.default_rng(130 + groups)
    x = rng.normal(0, 1, (2, c, h, w))
    wmat = rng.normal(0, 1, (groups, oc // groups, c // groups * k * k))
    if band_rows:
        set_band_rows(monkeypatch, band_rows, c, k, w, np.float64)
    buf = rng.normal(0, 1, (2, 2 + oc + 3, h, w))
    before = buf.copy()
    view = buf[:, 2:2 + oc]
    assert T._same_conv(x, wmat, k, out=view, add=add) is view
    conv = T._same_conv(x, wmat, k)
    np.testing.assert_array_equal(view, before[:, 2:2 + oc] + conv if add else conv)
    np.testing.assert_array_equal(buf[:, :2], before[:, :2])
    np.testing.assert_array_equal(buf[:, 2 + oc:], before[:, 2 + oc:])


def conv_and_grads(x, w, b, r, s, gy, groups, fused):
    """Output and (dx, dw, db, ds) of sum(gy * y) for y = conv2d with slope
    0.2, scale r and shift s fused, or the unfused composition
    leaky_relu(add(add(mul(conv2d(x, w), r), b), s), 0.2).  r and s may be
    None (ds is then None)."""
    xt, wt, bt = (Tensor(a.copy(), requires_grad=True) for a in (x, w, b))
    st = None if s is None else Tensor(s.copy(), requires_grad=True)
    if fused:
        y = T.conv2d(xt, wt, bt, groups=groups, slope=0.2, scale=r, shift=st)
    else:
        y = T.conv2d(xt, wt, groups=groups)
        if r is not None:
            y = T.mul(y, Tensor(r))
        y = T.add(y, bt)
        if st is not None:
            y = T.add(y, st)
        y = T.leaky_relu(y, 0.2)
    T.backward(T.sum_all(T.mul(y, Tensor(gy))))
    return y.data, xt.grad, wt.grad, bt.grad, None if st is None else st.grad


@pytest.mark.parametrize("scale_shift", [False, True], ids=["bias", "scale_shift"])
@pytest.mark.parametrize("plane_blocks", [False, True], ids=["one_block", "plane_blocks"])
@pytest.mark.parametrize("k,groups", [(1, 1), (3, 1), (3, 2), (5, 4)])
def test_conv_fused_slope_bit_equal_to_leaky_relu(monkeypatch, k, groups, plane_blocks,
                                                  scale_shift):
    # exact equality of values and of dx, dW, db and the shift's gradient
    # (tolerance 0), with the epilogue over all channel planes at once or
    # over one plane at a time; with scale_shift, a per-pixel scale (partial
    # conv's ratio) and a full-shape shift (a residual block's input)
    if plane_blocks:
        monkeypatch.setattr(T, "_EPILOGUE_BYTES", 1)
    rng = np.random.default_rng(60 + k + groups)
    for dtype in (np.float32, np.float64):
        x = rng.normal(0, 1, (2, 4, 6, 7)).astype(dtype)
        w = rng.normal(0, 1, (8, 4 // groups, k, k)).astype(dtype)
        b = rng.normal(0, 1, (1, 8, 1, 1)).astype(dtype)
        gy = rng.normal(0, 1, (2, 8, 6, 7)).astype(dtype)
        r = (rng.random((2, 1, 6, 7)) + 0.5).astype(dtype) if scale_shift else None
        s = rng.normal(0, 1, (2, 8, 6, 7)).astype(dtype) if scale_shift else None
        fused = conv_and_grads(x, w, b, r, s, gy, groups, fused=True)
        plain = conv_and_grads(x, w, b, r, s, gy, groups, fused=False)
        assert (fused[0] < 0).any() and (fused[0] > 0).any()
        for got, ref in zip(fused, plain):
            if ref is None:
                assert got is None
                continue
            assert got.dtype == dtype
            np.testing.assert_array_equal(got, ref)


@pytest.mark.parametrize("plane_blocks", [False, True], ids=["one_block", "plane_blocks"])
def test_partial_conv_shift_bit_equal_to_residual_tail(monkeypatch, plane_blocks):
    # partial_conv(..., slope, shift=h), a residual block's last layer as one
    # conv2d node, equals leaky_relu(add(partial_conv(...), h)): values and
    # the gradients of x, the weights, the bias and h (tolerance 0)
    if plane_blocks:
        monkeypatch.setattr(T, "_EPILOGUE_BYTES", 1)
    rng = np.random.default_rng(62)
    for dtype in (np.float32, np.float64):
        arrays = [rng.normal(0, 1, sh).astype(dtype)
                  for sh in ((2, 4, 6, 7), (4, 2, 3, 3), (1, 4, 1, 1), (2, 4, 6, 7))]
        mask = rng.random((2, 1, 6, 7)) * (rng.random((2, 1, 6, 7)) > 0.3)
        gy = rng.normal(0, 1, (2, 4, 6, 7)).astype(dtype)

        def fused(x, w, b, h):
            return T.partial_conv(x, mask, w, b, groups=2, slope=0.2, shift=h)[0]

        def plain(x, w, b, h):
            return T.leaky_relu(T.add(T.partial_conv(x, mask, w, b, groups=2)[0], h), 0.2)
        got, ref = value_and_grads(fused, arrays, gy), value_and_grads(plain, arrays, gy)
        assert (ref[0] < 0).any() and (ref[0] > 0).any()
        for g, want in zip(got, ref):
            assert g.dtype == dtype
            np.testing.assert_array_equal(g, want)


def test_conv_fused_slope_gradient_check():
    # float64 central differences for x, the weights, the bias and the
    # shift under a fixed per-pixel scale, max relative error <= 1e-6
    rng = np.random.default_rng(61)
    x, w, b = t64(rng, (2, 4, 5, 6)), t64(rng, (6, 2, 3, 3)), t64(rng, (1, 6, 1, 1))
    s = t64(rng, (2, 6, 5, 6))
    ratio = rng.random((2, 1, 5, 6)) + 0.5

    def f(x, w, b, s):
        y = T.conv2d(x, w, b, groups=2, slope=0.2, scale=ratio, shift=s)
        return T.mean_all(T.mul(y, y))
    assert T.gradient_check(f, [x, w, b, s], eps=1e-5) <= 1e-6


def test_conv_rejects_bad_slope_and_bias_shape():
    x = Tensor(np.zeros((2, 2, 4, 5), dtype=np.float32))
    w = Tensor(np.zeros((3, 2, 3, 3), dtype=np.float32))
    for slope in (0.0, 1.0, 1.5, -0.2):
        with pytest.raises(ValueError, match="slope"):
            T.conv2d(x, w, slope=slope)
    # the bias is per channel only, of no other shape, the output's included:
    # a 1x1 layer over a channel concat is one _pointwise_mlp node
    for shape in ((1, 3, 4, 5), (2, 3, 4, 5)):
        with pytest.raises(ValueError, match=r"bias must be \(1,3,1,1\)"):
            T.conv2d(x, w, Tensor(np.zeros(shape, dtype=np.float32)))
    # the shift has the output's shape, the scale one value per pixel
    for shape in ((1, 3, 4, 5), (2, 3, 1, 1), (2, 2, 4, 5)):
        with pytest.raises(ValueError, match=r"shift must be \(2, 3, 4, 5\)"):
            T.conv2d(x, w, shift=Tensor(np.zeros(shape, dtype=np.float32)))
    for shape in ((1, 1, 4, 5), (2, 3, 4, 5), (2, 1, 1, 1), (4, 5)):
        with pytest.raises(ValueError, match=r"scale must be \(2, 1, 4, 5\)"):
            T.conv2d(x, w, scale=np.ones(shape, dtype=np.float32))


@pytest.mark.parametrize("fixed_first", [False, True], ids=["fixed_b", "fixed_a"])
@pytest.mark.parametrize("op", [T.add, T.sub, T.mul], ids=["add", "sub", "mul"])
def test_binary_op_builds_no_gradient_term_for_a_fixed_operand(monkeypatch, op,
                                                               fixed_first):
    # a fixed operand (a partial-conv gate, the loss weight) gets no
    # gradient term: the backward unbroadcasts one term, the other operand's
    calls = []
    unbroadcast = T._unbroadcast
    monkeypatch.setattr(T, "_unbroadcast",
                        lambda g, shape: calls.append(shape) or unbroadcast(g, shape))
    x = Tensor(np.arange(6.0).reshape(1, 2, 1, 3), requires_grad=True)
    fixed = Tensor(np.full((1, 1, 1, 1), 0.5))
    T.backward(T.sum_all(op(fixed, x) if fixed_first else op(x, fixed)))
    assert calls == [x.shape] and fixed.grad is None
    sign = -1.0 if op is T.sub and fixed_first else 1.0
    np.testing.assert_array_equal(x.grad, np.full(x.shape, 0.5 if op is T.mul else sign))


def close(got, ref, dtype):
    """float64 within 1e-12, float32 within 1e-5, relative to ref's largest
    magnitude."""
    tol = 1e-12 if dtype == np.float64 else 1e-5
    scale = max(np.abs(ref).max(), 1e-30)
    np.testing.assert_allclose(got, ref, rtol=0, atol=tol * scale)


def value_and_grads(fn, arrays, gy):
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    y = fn(*tensors)
    T.backward(T.sum_all(T.mul(y, Tensor(gy))))
    return [y.data] + [t.grad for t in tensors]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_conv_over_parts_with_full_bias_matches_concat(dtype):
    # the one-step pointwise op over the parts [a, b] equals the leaky 1x1
    # conv of concat(a, b) at batch 2, with and without a bias; values and
    # gradients
    rng = np.random.default_rng(70)
    a, b = rng.normal(0, 1, (2, 3, 5, 6)), rng.normal(0, 1, (2, 2, 5, 6))
    w, bias = rng.normal(0, 1, (4, 5, 1, 1)), rng.normal(0, 1, (1, 4, 1, 1))
    gy = rng.normal(0, 1, (2, 4, 5, 6)).astype(dtype)
    arrays = [t.astype(dtype) for t in (a, b, w, bias)]
    for with_bias in (True, False):
        def over_parts(a, b, w, bias):
            return T._pointwise_mlp([a, b], [(w, bias if with_bias else None, 0.2)])

        def whole(a, b, w, bias):
            y = T.conv2d(T.concat_channels(a, b), w, bias if with_bias else None)
            return T.leaky_relu(y, 0.2)
        for got, ref in zip(value_and_grads(over_parts, arrays, gy),
                            value_and_grads(whole, arrays, gy)):
            if ref is None:  # the bias, when it is not read
                assert got is None
            else:
                close(got, ref, dtype)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_pooled_1x1_conv_matches_full_frame(dtype):
    # mod1 after the pooling: global_avg_pool commutes with a 1x1 conv + bias
    rng = np.random.default_rng(71)
    arrays = [rng.normal(0, 1, s).astype(dtype)
              for s in ((2, 6, 7, 5), (8, 6, 1, 1), (1, 8, 1, 1))]
    gy = rng.normal(0, 1, (2, 8, 1, 1)).astype(dtype)
    pooled = value_and_grads(lambda h, w, b: T.conv2d(T.global_avg_pool(h), w, b), arrays, gy)
    full = value_and_grads(lambda h, w, b: T.global_avg_pool(T.conv2d(h, w, b)), arrays, gy)
    for got, ref in zip(pooled, full):
        close(got, ref, dtype)


@pytest.mark.parametrize("band_rows", [None, 1, 2], ids=["whole", "1row", "2rows"])
@pytest.mark.parametrize("batch", [1, 2])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("size", [(4, 5), (1, 1), (3, 2)])
def test_up2_conv_matches_up2_then_conv(monkeypatch, size, dtype, batch, band_rows):
    # the four 2x2 phase convs on x, interleaved, equal the leaky 3x3 conv of
    # up2(x); values and the gradients of x, the stored weights and the bias.
    # The forward gathers the (h+1, w+1) padded x: 1- and 2-row bands walk
    # it band by band, the 2-row ones ending in a partial band when h is even
    rng = np.random.default_rng(72)
    h, w = size
    arrays = [rng.normal(0, 1, s).astype(dtype)
              for s in ((batch, 6, h, w), (4, 6, 3, 3), (1, 4, 1, 1))]
    gy = rng.normal(0, 1, (batch, 4, 2 * h, 2 * w)).astype(dtype)
    if band_rows:
        set_band_rows(monkeypatch, band_rows, 6, 2, w + 1, dtype)

    def full(x, wt, b):
        return T.leaky_relu(T.conv2d(T.up2(x), wt, b), 0.2)
    for got, ref in zip(value_and_grads(lambda x, wt, b: T._up2_conv(x, wt, b, slope=0.2),
                                        arrays, gy),
                        value_and_grads(full, arrays, gy)):
        assert got.dtype == dtype
        close(got, ref, dtype)


def test_up2_conv_gradient_check():
    # float64 central differences, max relative error < 1e-4
    rng = np.random.default_rng(73)
    x, w, b = t64(rng, (2, 3, 3, 4)), t64(rng, (2, 3, 3, 3)), t64(rng, (1, 2, 1, 1))

    def f(x, w, b):
        y = T._up2_conv(x, w, b, slope=0.2)
        return T.mean_all(T.mul(y, y))
    assert T.gradient_check(f, [x, w, b], eps=1e-5) < 1e-4


def test_up2_conv_rejects_bad_shapes():
    # conv2d's own rejection of even kernels is test_conv_rejects_even_or_non_square_kernel
    x = Tensor(np.zeros((1, 2, 4, 5), dtype=np.float32))
    b = Tensor(np.zeros((1, 3, 1, 1), dtype=np.float32))
    for shape in ((3, 2, 2, 2), (3, 2, 3, 1), (3, 4, 3, 3)):
        with pytest.raises(ValueError, match=r"must be \(oc, 2, 3, 3\) for 2 input"):
            T._up2_conv(x, Tensor(np.zeros(shape, dtype=np.float32)), b, slope=0.2)


# ---------------------------------------------------------------------------
# The dense branch as one op
# ---------------------------------------------------------------------------

def dense_arrays(rng, n, c, g, layers, h, w, k=3):
    x = rng.normal(0, 1, (n, c, h, w))
    ws = [rng.normal(0, 0.3, (g, c + i * g, k, k)) for i in range(layers)]
    bs = [rng.normal(0, 0.3, (1, g, 1, 1)) for _ in range(layers)]
    return x, ws, bs


def per_part_dense(x, weights, biases, slope=0.2):
    """The dense stack as one conv2d per layer over the channel concat of
    the input and the earlier layer outputs, and a channel concat of the
    layer outputs."""
    feats = [x]
    for wt, bt in zip(weights, biases):
        inp = feats[0] if len(feats) == 1 else T.concat_channels(*feats)
        feats.append(T.conv2d(inp, wt, bt, slope=slope))
    outs = feats[1:]
    return outs[0] if len(outs) == 1 else T.concat_channels(*outs)


def test_dense_block_gradient_check():
    # float64 central differences for x, every weight and every bias, max
    # relative error <= 1e-6; the loss is linear in the stack
    rng = np.random.default_rng(90)
    x, ws, bs = dense_arrays(rng, 1, 2, 3, 2, 5, 6)
    tensors = [Tensor(a, requires_grad=True) for a in [x, *ws, *bs]]
    gy = rng.normal(0, 1, (1, 6, 5, 6))

    def f(x, w0, w1, b0, b1):
        return T.sum_all(T.mul(T._dense_block(x, [w0, w1], [b0, b1], slope=0.2), Tensor(gy)))
    assert T.gradient_check(f, tensors, eps=1e-6) <= 1e-6


@pytest.mark.parametrize("band_rows", [None, 1], ids=["whole", "1row"])
@pytest.mark.parametrize("x_grad", [True, False], ids=["x_grad", "x_fixed"])
@pytest.mark.parametrize("shape", [(1, 7, 9), (2, 5, 11)], ids=["7x9", "b2_5x11"])
@pytest.mark.parametrize("layers", [1, 2, 5])
def test_dense_block_matches_per_part_composition(monkeypatch, layers, shape, x_grad,
                                                  band_rows):
    # the stack, dx and every dW and db within 1e-12 (float64) and 1e-5
    # (float32) of the per-part convs, relative to each one's largest value
    n, h, w = shape
    c, g = 3, 4
    if band_rows:
        set_band_rows(monkeypatch, band_rows, g, 3, w, np.float64)
    rng = np.random.default_rng(91 + layers)
    x, ws, bs = dense_arrays(rng, n, c, g, layers, h, w)
    gy = rng.normal(0, 1, (n, layers * g, h, w))
    for dtype in (np.float64, np.float32):
        results = []
        for fn in (lambda x, ws, bs: T._dense_block(x, ws, bs, slope=0.2), per_part_dense):
            xt = Tensor(x.astype(dtype), requires_grad=x_grad)
            wts = [Tensor(a.astype(dtype), requires_grad=True) for a in ws]
            bts = [Tensor(a.astype(dtype), requires_grad=True) for a in bs]
            y = fn(xt, wts, bts)
            T.backward(T.sum_all(T.mul(y, Tensor(gy.astype(dtype)))))
            results.append([y.data, xt.grad] + [t.grad for t in wts + bts])
        got, ref = results
        assert got[0].dtype == dtype
        assert (got[1] is None) == (not x_grad)
        for i, (a, b) in enumerate(zip(got, ref)):
            if b is not None:
                assert a.dtype == dtype, i
                close(a, b, dtype)


def test_dense_block_rejects_bad_shapes_and_slope():
    rng = np.random.default_rng(93)
    x, ws, bs = dense_arrays(rng, 1, 3, 4, 2, 5, 5)
    x, ws, bs = Tensor(x), [Tensor(a) for a in ws], [Tensor(a) for a in bs]
    with pytest.raises(ValueError, match="dense layer 1: weight"):
        T._dense_block(x, [ws[0], ws[0]], bs, slope=0.2)
    with pytest.raises(ValueError, match="dense layer 0: bias"):
        T._dense_block(x, ws, [Tensor(np.zeros((1, 3, 1, 1))), bs[1]], slope=0.2)
    with pytest.raises(ValueError, match="one bias per dense layer"):
        T._dense_block(x, ws, bs[:1], slope=0.2)
    for slope in (1.0, None):
        with pytest.raises(ValueError, match="slope"):
            T._dense_block(x, ws, bs, slope=slope)
    with pytest.raises(ValueError, match="odd"):
        T._dense_block(x, [Tensor(np.zeros((4, 3, 2, 2)))], bs[:1], slope=0.2)


# ---------------------------------------------------------------------------
# Banded pointwise MLP
# ---------------------------------------------------------------------------

def mlp_form(form, rng, n, h, w):
    """(banded fn, composed fn, arrays, widest activation) of one use of
    _pointwise_mlp: a three-layer leaky chain (the global net), a chain
    whose 2c-channel output modulates `into` per pixel (an SFT branch), the
    pooled mean of a leaky layer (mod0), and a chain over two input parts,
    the first fixed (no gradient), ending in a step with no bias (the parts
    of local.skip*, the bias-free dense half of local.fuse)."""
    x = rng.normal(0, 1, (n, 3, h, w))
    if form == "chain":
        arrays = [x, rng.normal(0, 0.5, (6, 3, 1, 1)), rng.normal(0, 0.5, (1, 6, 1, 1)),
                  rng.normal(0, 0.5, (4, 6, 1, 1)), rng.normal(0, 0.5, (1, 4, 1, 1)),
                  rng.normal(0, 0.5, (3, 4, 1, 1)), rng.normal(0, 0.5, (1, 3, 1, 1))]

        def banded(x, w0, b0, w1, b1, w2, b2):
            return T._pointwise_mlp(x, [(w0, b0, 0.2), (w1, b1, 0.2), (w2, b2, None)])

        def composed(x, w0, b0, w1, b1, w2, b2):
            z = T.leaky_relu(T.conv2d(T.leaky_relu(T.conv2d(x, w0, b0), 0.2), w1, b1), 0.2)
            return T.conv2d(z, w2, b2)
        return banded, composed, arrays, 6
    if form == "into":
        arrays = [x, rng.normal(0, 0.5, (5, 3, 1, 1)), rng.normal(0, 0.5, (1, 5, 1, 1)),
                  rng.normal(0, 0.5, (8, 5, 1, 1)), rng.normal(0, 0.5, (1, 8, 1, 1)),
                  rng.normal(0, 1, (n, 4, h, w))]

        def banded(x, w0, b0, w1, b1, into):
            return T._pointwise_mlp(x, [(w0, b0, 0.2), (w1, b1, None)], into=into)

        def composed(x, w0, b0, w1, b1, into):
            s = T.conv2d(T.leaky_relu(T.conv2d(x, w0, b0), 0.2), w1, b1)
            return T.add(T.mul(into, T.narrow_channels(s, 0, 4)), T.narrow_channels(s, 4, 4))
        return banded, composed, arrays, 8
    if form == "parts":
        fixed = rng.normal(0, 1, (n, 2, h, w))
        arrays = [x, rng.normal(0, 0.5, (6, 5, 1, 1)), rng.normal(0, 0.5, (1, 6, 1, 1)),
                  rng.normal(0, 0.5, (4, 6, 1, 1))]

        def banded(x, w0, b0, w1):
            parts = [Tensor(fixed.astype(x.dtype)), x]
            return T._pointwise_mlp(parts, [(w0, b0, 0.2), (w1, None, None)])

        def composed(x, w0, b0, w1):
            z = T.concat_channels(Tensor(fixed.astype(x.dtype)), x)
            return T.conv2d(T.leaky_relu(T.conv2d(z, w0, b0), 0.2), w1)
        return banded, composed, arrays, 6
    arrays = [x, rng.normal(0, 0.5, (6, 3, 1, 1)), rng.normal(0, 0.5, (1, 6, 1, 1))]

    def banded(x, w0, b0):
        return T._pointwise_mlp(x, [(w0, b0, 0.2)], pool=True)

    def composed(x, w0, b0):
        return T.global_avg_pool(T.leaky_relu(T.conv2d(x, w0, b0), 0.2))
    return banded, composed, arrays, 6


MLP_FORMS = ["chain", "into", "pool", "parts"]


@pytest.mark.parametrize("form", MLP_FORMS)
def test_pointwise_mlp_gradient_check(monkeypatch, form):
    # float64 central differences for x, every weight, bias and modulation,
    # max relative error <= 1e-6, with two-pixel bands and a partial last one
    rng = np.random.default_rng(100 + MLP_FORMS.index(form))
    banded, _, arrays, widest = mlp_form(form, rng, 2, 3, 3)
    monkeypatch.setattr(T, "_MLP_BYTES", 2 * widest * 8)
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    gy = rng.normal(0, 1, banded(*tensors).shape)

    def f(*ts):
        return T.sum_all(T.mul(banded(*ts), Tensor(gy)))
    assert T.gradient_check(f, tensors, eps=1e-6) <= 1e-6


@pytest.mark.parametrize("band_px", [None, 1, 2], ids=["default", "1px", "partial"])
@pytest.mark.parametrize("shape", [(1, 3, 3), (2, 5, 7)], ids=["3x3", "b2_5x7"])
@pytest.mark.parametrize("form", MLP_FORMS)
def test_pointwise_mlp_matches_composition(monkeypatch, form, shape, band_px):
    # values and the gradients of every input within 1e-12 (float64) and
    # 1e-5 (float32) of the unbanded composition; 2-pixel bands leave a
    # partial last band of 1 pixel in both frames (9 and 35 pixels)
    n, h, w = shape
    rng = np.random.default_rng(110 + MLP_FORMS.index(form))
    banded, composed, arrays, widest = mlp_form(form, rng, n, h, w)
    for dtype in (np.float64, np.float32):
        if band_px:
            monkeypatch.setattr(T, "_MLP_BYTES", band_px * widest * np.dtype(dtype).itemsize)
        typed = [a.astype(dtype) for a in arrays]
        gy = rng.normal(0, 1, composed(*[Tensor(a) for a in typed]).shape).astype(dtype)
        for got, ref in zip(value_and_grads(banded, typed, gy),
                            value_and_grads(composed, typed, gy)):
            assert got.dtype == dtype and got.shape == ref.shape
            close(got, ref, dtype)


def test_dense_block_over_two_parts_gradient_check():
    # float64 central differences for both parts, the weight and the bias of
    # one leaky 1x1 step over [a, b] (local.skip*'s op)
    rng = np.random.default_rng(94)
    a, b = t64(rng, (2, 2, 4, 5)), t64(rng, (2, 3, 4, 5))
    w, bias = t64(rng, (4, 5, 1, 1)), t64(rng, (1, 4, 1, 1))
    gy = rng.normal(0, 1, (2, 4, 4, 5))

    def f(a, b, w, bias):
        return T.sum_all(T.mul(T._pointwise_mlp([a, b], [(w, bias, 0.2)]), Tensor(gy)))
    assert T.gradient_check(f, [a, b, w, bias], eps=1e-6) <= 1e-6


@pytest.mark.parametrize("grad_part", [0, 1], ids=["a_grad", "b_grad"])
@pytest.mark.parametrize("layers", [1, 2])
def test_dense_block_with_one_of_two_parts_requiring_grad(layers, grad_part):
    # a chain of `layers` leaky 1x1 steps over the parts [a, b], only one of
    # which requires grad: that part's gradient, the output and every dW and
    # db match the concat composition, and the other part gets no gradient
    rng = np.random.default_rng(95 + layers)
    n, h, w = 2, 5, 7
    arrays = [rng.normal(0, 1, (n, c, h, w)) for c in (2, 3)]
    ws = [rng.normal(0, 0.3, (4, 5 if i == 0 else 4, 1, 1)) for i in range(layers)]
    bs = [rng.normal(0, 0.3, (1, 4, 1, 1)) for _ in range(layers)]
    gy = rng.normal(0, 1, (n, 4, h, w))

    def over_parts(parts, wts, bts):
        return T._pointwise_mlp(parts, [(wt, bt, 0.2) for wt, bt in zip(wts, bts)])

    def composed(parts, wts, bts):
        y = T.concat_channels(*parts)
        for wt, bt in zip(wts, bts):
            y = T.conv2d(y, wt, bt, slope=0.2)
        return y
    for dtype in (np.float64, np.float32):
        results = []
        for fn in (over_parts, composed):
            parts = [Tensor(a.astype(dtype), requires_grad=i == grad_part)
                     for i, a in enumerate(arrays)]
            wts = [Tensor(a.astype(dtype), requires_grad=True) for a in ws]
            bts = [Tensor(a.astype(dtype), requires_grad=True) for a in bs]
            y = fn(parts, wts, bts)
            T.backward(T.sum_all(T.mul(y, Tensor(gy.astype(dtype)))))
            assert parts[1 - grad_part].grad is None
            results.append([y.data, parts[grad_part].grad] + [t.grad for t in wts + bts])
        for a, b in zip(*results):
            assert a.dtype == dtype and a.shape == b.shape
            close(a, b, dtype)


def test_pointwise_mlp_holds_only_its_output_and_bands():
    # at 200x300 the SFT form (20 -> 40 channels) and the global chain
    # (48-channel layers) each peak below their output plus one _MLP_BYTES
    # per step and one for the activation temporary: no 40- or 48-channel
    # plane of the frame is built
    rng = np.random.default_rng(120)
    x = Tensor(rng.random((1, 3, 200, 300)).astype(np.float32))
    into = Tensor(rng.random((1, 20, 200, 300)).astype(np.float32))

    def layer(oc, ic, slope=None):
        return (Tensor(rng.normal(0, 0.3, (oc, ic, 1, 1)).astype(np.float32)),
                Tensor(np.zeros((1, oc, 1, 1), np.float32)), slope)
    for steps, kw in (([layer(20, 3, 0.2), layer(40, 20)], {"into": into}),
                      ([layer(48, 3, 0.2), layer(48, 48, 0.2), layer(48, 48, 0.2),
                        layer(3, 48)], {})):
        y, _, peak = traced(T._pointwise_mlp, x, steps, **kw)
        assert peak < y.data.nbytes + (len(steps) + 1) * T._MLP_BYTES, (peak, len(steps))


def test_pointwise_mlp_over_parts_keeps_no_concat(monkeypatch):
    # a two-part forward with gradients (16 + 16 -> 16 leaky -> 8 channels,
    # two bands of 2048 pixels at 64x64) holds its output and each band's
    # step activations, and no band copy of the parts' concat
    monkeypatch.setattr(T, "_MLP_BYTES", 2048 * 32 * 4)
    rng = np.random.default_rng(122)
    parts = [Tensor(rng.random((1, 16, 64, 64)).astype(np.float32), requires_grad=True)
             for _ in range(2)]
    steps = [(Tensor(rng.normal(0, 0.3, (oc, ic, 1, 1)).astype(np.float32), requires_grad=True),
              None, slope) for oc, ic, slope in ((16, 32, 0.2), (8, 16, None))]
    y, held, _ = traced(T._pointwise_mlp, parts, steps)
    bands = 2 * 2048 * (16 + 8) * 4
    assert held < y.data.nbytes + bands + (16 << 10), held


@pytest.mark.parametrize("nsteps", [1, 2])
def test_plain_pointwise_mlp_reads_its_last_activation_from_the_output(monkeypatch, nsteps):
    # a plain op with gradients (16 -> [16 leaky ->] 8 channels, two bands of
    # 2048 pixels at 64x64) holds its output and the band activations of its
    # earlier steps, and no band copy of the last step's activation
    monkeypatch.setattr(T, "_MLP_BYTES", 2048 * 16 * 4)
    rng = np.random.default_rng(123)
    x = Tensor(rng.random((1, 16, 64, 64)).astype(np.float32), requires_grad=True)
    shapes = ((16, 16, 0.2), (8, 16, None))[-nsteps:]
    steps = [(Tensor(rng.normal(0, 0.3, (oc, ic, 1, 1)).astype(np.float32), requires_grad=True),
              Tensor(np.zeros((1, oc, 1, 1), np.float32), requires_grad=True), slope)
             for oc, ic, slope in shapes]
    y, held, _ = traced(T._pointwise_mlp, x, steps)
    earlier = 2 * 2048 * sum(oc for oc, *_ in shapes[:-1]) * 4
    assert held < y.data.nbytes + earlier + (16 << 10), held


def test_pointwise_mlp_rejects_bad_shapes_and_slope():
    x = Tensor(np.zeros((2, 3, 4, 4)))
    w, b = Tensor(np.zeros((4, 3, 1, 1))), Tensor(np.zeros((1, 4, 1, 1)))
    with pytest.raises(ValueError, match="step 0: weight .* 1x1 conv of 3 channels"):
        T._pointwise_mlp(x, [(Tensor(np.zeros((4, 2, 1, 1))), b, None)])
    with pytest.raises(ValueError, match="step 0: weight"):
        T._pointwise_mlp(x, [(Tensor(np.zeros((4, 3, 3, 3))), b, None)])
    with pytest.raises(ValueError, match=r"step 0: bias must be \(1,4,1,1\)"):
        T._pointwise_mlp(x, [(w, Tensor(np.zeros((1, 3, 1, 1))), None)])
    with pytest.raises(ValueError, match="slope"):
        T._pointwise_mlp(x, [(w, b, 1.0)])
    with pytest.raises(ValueError, match="into"):
        T._pointwise_mlp(x, [(w, b, None)], into=Tensor(np.zeros((2, 4, 4, 4))))
    with pytest.raises(ValueError, match="pool and into"):
        T._pointwise_mlp(x, [(w, b, None)], into=Tensor(np.zeros((2, 2, 4, 4))), pool=True)
    # parts whose batch or size differ from the first part's
    w5 = Tensor(np.zeros((4, 5, 1, 1)))
    for other in ((1, 2, 4, 4), (2, 2, 3, 4), (2, 2, 4, 5)):
        with pytest.raises(ValueError, match="batch or size"):
            T._pointwise_mlp([x, Tensor(np.zeros(other))], [(w5, b, None)])
