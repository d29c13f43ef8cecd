"""Camera-pipeline degradation simulator.

Two families of degradation produce legacy-style SDR from clean sources:
the virtual shot (exposure, color transform, clipping, the 1/2.2 response,
8-bit quantization) turns linear HDR into nonlinear SDR, and the conventional
chain injects sensor noise in the linearized RAW domain followed by a
double block-DCT compression roundtrip at the nonlinear end.
Every stochastic step draws only from an explicit Generator, so a fixed
seed reproduces outputs bit-exactly.

The color transforms, the compression roundtrip and the rescale run on
channel planes. The color transforms and the rescale do the same float64
operations in the same order as np.einsum and scipy.ndimage.zoom (order 1,
grid_mode, mode "nearest"), so their outputs are bit-identical to those
references. The 8x8 block DCT and its inverse are one 64x64 GEMM each, within
1e-9 of scipy.fft.dctn/idctn (norm "ortho") on the 0..255 scale.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kvtext
from .imgio import Image, LINEAR_HDR, NONLINEAR_SDR, float_to_code

# Generic wide-gamut -> sRGB style primary conversion (rows sum to ~1,
# well-conditioned, invertible); stands in for an unspecified camera matrix.
DEFAULT_CST = np.array([
    [1.6605, -0.5876, -0.0728],
    [-0.1246, 1.1329, -0.0083],
    [-0.0182, -0.1006, 1.1187],
], dtype=np.float64)


@dataclass(frozen=True)
class DegradationConfig:
    """A conventional-chain recipe: every field is read by conventional_degrade."""
    noise_sigma_range: tuple[float, float] = (0.001, 0.003)
    jpeg_qf1_range: tuple[int, int] = (60, 80)
    jpeg_qf2: int = 75
    rescale_range: tuple[float, float] = (0.7, 1.0)
    cst_matrix: tuple[(float,) * 9] = tuple(DEFAULT_CST.ravel().tolist())  # row-major

    def __post_init__(self):
        kvtext.check_types(self)
        m = np.array(self.cst_matrix).reshape(3, 3)
        if not np.isfinite(m).all() or abs(np.linalg.det(m)) < 1e-12:
            raise ValueError("cst_matrix must be a finite, invertible 3x3 matrix")
        for name, qs in (("jpeg_qf1_range", self.jpeg_qf1_range),
                         ("jpeg_qf2", (self.jpeg_qf2,))):
            if not all(1 <= q <= 100 for q in qs):
                raise ValueError(f"{name} must lie in [1, 100], got {getattr(self, name)}")
        for name in ("noise_sigma_range", "jpeg_qf1_range", "rescale_range"):
            lo, hi = getattr(self, name)
            if not np.isfinite([lo, hi]).all():
                raise ValueError(f"{name} must be finite, got ({lo}, {hi})")
            if lo > hi:
                raise ValueError(f"{name} must have lo <= hi, got ({lo}, {hi})")
        if self.noise_sigma_range[0] < 0:
            raise ValueError(f"noise_sigma_range must be >= 0, got {self.noise_sigma_range}")
        if self.rescale_range[0] <= 0:
            raise ValueError(f"rescale_range must be > 0, got {self.rescale_range}")


# ---------------------------------------------------------------------------
# Stage primitives
# ---------------------------------------------------------------------------

def srgb_encode(linear: np.ndarray) -> np.ndarray:
    return np.clip(linear, 0.0, 1.0) ** (1.0 / 2.2)


def srgb_decode(nonlinear: np.ndarray) -> np.ndarray:
    return np.clip(nonlinear, 0.0, 1.0) ** 2.2


def _mix(row: np.ndarray, planes, out: np.ndarray) -> np.ndarray:
    """out = row . planes, associated as np.einsum("ij,hwj->hwi") sums a row:
    (p0 + p2) + p1."""
    np.multiply(planes[0], row[0], out=out)
    out += planes[2] * row[2]
    out += planes[1] * row[1]
    return out


def cst_apply(img: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Apply a 3x3 color matrix to every pixel of an (h, w, 3) array; the
    result keeps the input's memory layout."""
    m = np.asarray(m, dtype=np.float64)
    if m.shape != (3, 3):
        raise ValueError(f"color matrix must be 3x3, got {m.shape}")
    if abs(np.linalg.det(m)) < 1e-12:
        raise ValueError("color matrix is singular")
    x = np.asarray(img, dtype=np.float64)
    planes = [x[..., j] for j in range(3)]
    out = np.empty_like(x)
    for i in range(3):
        _mix(m[i], planes, out[..., i])
    return out


def add_camera_noise(linear: np.ndarray, sigma: float,
                     rng: np.random.Generator) -> np.ndarray:
    """Signal-dependent Gaussian: var(x) = sigma^2 * x + sigma^2."""
    x = np.asarray(linear, dtype=np.float64)
    if sigma == 0.0:
        return x.copy()
    noisy = np.clip(x, 0.0, None)
    noisy *= sigma * sigma
    noisy += sigma * sigma
    np.sqrt(noisy, out=noisy)
    noisy *= rng.standard_normal(x.shape)
    noisy += x
    return np.clip(noisy, 0.0, 1.0, out=noisy)


def virtual_shot(hdr: Image, exposure_scale: float = 1.0,
                 cst: np.ndarray = DEFAULT_CST) -> Image:
    """Linear HDR -> 8-bit nonlinear SDR via a virtual camera: exposure, color
    matrix, clip to [0, 1], the 1/2.2 response and rounding to 8-bit codes."""
    if not exposure_scale > 0:
        raise ValueError(f"exposure_scale must be positive, got {exposure_scale}")
    x = np.asarray(hdr.data, dtype=np.float64)
    if not np.isfinite(x).all():
        raise ValueError("HDR input contains non-finite values")
    x = srgb_encode(cst_apply(x * exposure_scale, cst))
    return Image((float_to_code(x, 255) / 255.0).astype(np.float32), NONLINEAR_SDR)


# ---------------------------------------------------------------------------
# Block-DCT compression roundtrip
# ---------------------------------------------------------------------------

# Standard 8x8 luminance / chrominance quantization tables.
_Q_LUMA = np.array([
    [16, 11, 10, 16, 24, 40, 51, 61],
    [12, 12, 14, 19, 26, 58, 60, 55],
    [14, 13, 16, 24, 40, 57, 69, 56],
    [14, 17, 22, 29, 51, 87, 80, 62],
    [18, 22, 37, 56, 68, 109, 103, 77],
    [24, 35, 55, 64, 81, 104, 113, 92],
    [49, 64, 78, 87, 103, 121, 120, 101],
    [72, 92, 95, 98, 112, 100, 103, 99],
], dtype=np.float64)

_Q_CHROMA = np.array([
    [17, 18, 24, 47, 99, 99, 99, 99],
    [18, 21, 26, 66, 99, 99, 99, 99],
    [24, 26, 56, 99, 99, 99, 99, 99],
    [47, 66, 99, 99, 99, 99, 99, 99],
    [99, 99, 99, 99, 99, 99, 99, 99],
    [99, 99, 99, 99, 99, 99, 99, 99],
    [99, 99, 99, 99, 99, 99, 99, 99],
    [99, 99, 99, 99, 99, 99, 99, 99],
], dtype=np.float64)

_RGB_TO_YCC = np.array([
    [0.299, 0.587, 0.114],
    [-0.168736, -0.331264, 0.5],
    [0.5, -0.418688, -0.081312],
], dtype=np.float64)
_YCC_TO_RGB = np.linalg.inv(_RGB_TO_YCC)


def _qf_table(base: np.ndarray, qf: int) -> np.ndarray:
    if not 1 <= qf <= 100:
        raise ValueError(f"quality factor must lie in [1,100], got {qf}")
    s = 5000.0 / qf if qf < 50 else 200.0 - 2.0 * qf
    return np.clip(np.floor((base * s + 50.0) / 100.0), 1.0, 255.0)


def _dct8() -> np.ndarray:
    """The orthonormal 8-point DCT-II matrix: row k holds basis k."""
    n = np.arange(8)
    d = np.cos(np.pi * (2 * n + 1) * n[:, None] / 16) * np.sqrt(2 / 8)
    d[0] /= np.sqrt(2)
    return d


# The 2-D DCT of a row-major 8x8 block as one 64x64 matrix: coefficient
# (k, l) is row 8k + l, so a stack of blocks as (n, 64) rows is one GEMM.
_DCT64 = np.kron(_dct8(), _dct8())


def _dct_roundtrip(plane: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Orthonormal 2-D DCT of each 8x8 block, quantization by table, inverse
    DCT: two (blocks, 64) x (64, 64) GEMMs."""
    h, w = plane.shape
    rows = plane.reshape(h // 8, 8, w // 8, 8).transpose(0, 2, 1, 3).reshape(-1, 64)
    step = table.ravel()
    coeff = rows @ _DCT64.T
    coeff /= step
    np.rint(coeff, out=coeff)
    coeff *= step
    rec = np.matmul(coeff, _DCT64, out=rows)
    return rec.reshape(h // 8, w // 8, 8, 8).transpose(0, 2, 1, 3).reshape(h, w)


def _down2(plane: np.ndarray) -> np.ndarray:
    """Means of the 2x2 cells, summed as np.mean over the cell axes sums
    them in planes at least 4 wide (jpeg_sim's are 16-aligned):
    (a00 + a01) + (a10 + a11)."""
    out = plane[0::2, 0::2] + plane[0::2, 1::2]
    out += plane[1::2, 0::2] + plane[1::2, 1::2]
    out /= 4.0
    return out


def _require_sdr(fn: str, img: Image):
    if img.domain != NONLINEAR_SDR:
        raise ValueError(f"{fn} reads {NONLINEAR_SDR} images, got {img.domain}")


def jpeg_sim(img: Image, qf: int) -> Image:
    """Block-DCT quantization roundtrip with 4:2:0 chroma, no entropy coding.

    Reproduces blocking and ringing artifacts without producing a bitstream.
    The frame is edge-padded to a multiple of 16 for the transform and cropped
    back. The returned data is an (h, w, 3) view of three channel planes.
    """
    _require_sdr("jpeg_sim", img)
    ytab, ctab = _qf_table(_Q_LUMA, qf), _qf_table(_Q_CHROMA, qf)
    h, w = img.height, img.width
    ph, pw = h + (-h) % 16, w + (-w) % 16
    rgb = [np.multiply(img.data[..., c], 255.0, dtype=np.float64) for c in range(3)]
    ycc = np.empty((3, ph, pw))
    for i in range(3):
        _mix(_RGB_TO_YCC[i], rgb, ycc[i, :h, :w])
    ycc[:, h:, :w] = ycc[:, h - 1:h, :w]
    ycc[:, :, w:] = ycc[:, :, w - 1:w]
    y = _dct_roundtrip(ycc[0] - 128.0, ytab)
    y += 128.0
    cb, cr = (_dct_roundtrip(_down2(ycc[c]), ctab) for c in (1, 2))
    out = np.empty((3, h, w), dtype=np.float32)
    for i, row in enumerate(_YCC_TO_RGB):
        # (y * r0 + up2(cr) * r2) + up2(cb) * r1, the chroma products taken at
        # half resolution and broadcast over each 2x2 cell
        acc = y * row[0]
        cells = acc.reshape(ph // 2, 2, pw // 2, 2)
        cells += (cr * row[2])[:, None, :, None]
        cells += (cb * row[1])[:, None, :, None]
        acc = acc[:h, :w]
        acc /= 255.0
        np.clip(acc, 0.0, 1.0, out=out[i])
    return Image(out.transpose(1, 2, 0), NONLINEAR_SDR)


def _taps(n_in: int, n_out: int):
    """Source indices and weights along one axis of scipy.ndimage.zoom's
    order-1 interpolation with grid_mode=True and mode="nearest": output j
    samples input coordinate (j + 0.5) * n_in / n_out - 0.5 (not clamped),
    between taps i0 = floor of it and i0 + 1, each clipped to the axis."""
    cc = (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5
    i0 = np.floor(cc)
    w0 = 1.0 - (cc - i0)
    i0 = i0.astype(np.intp)
    return np.clip(i0, 0, n_in - 1), np.clip(i0 + 1, 0, n_in - 1), w0, 1.0 - w0


def _resize_bilinear(img: np.ndarray, h: int, w: int) -> np.ndarray:
    """Bilinear resize of an (sh, sw, 3) array to (h, w, 3), clipped to [0, 1].

    Bit-identical to np.clip(scipy.ndimage.zoom(img, (h / sh, w / sw, 1),
    order=1, grid_mode=True, mode="nearest"), 0, 1): like zoom, each output
    sample adds its four taps (v * wy) * wx onto 0 in the order
    ((p00 + p01) + p10) + p11. A resized result is an (h, w, 3) view of three
    channel planes; the same size returns a copy.
    """
    img = np.asarray(img, dtype=np.float64)
    sh, sw = img.shape[:2]
    if (sh, sw) == (h, w):
        return img.copy()
    (y0, y1, wy0, wy1), (x0, x1, wx0, wx1) = _taps(sh, h), _taps(sw, w)
    out = np.zeros((3, h, w))
    rows, tap = np.empty((h, sw)), np.empty((h, w))
    for c in range(3):
        for iy, wy in ((y0, wy0), (y1, wy1)):
            # the indices are in range; mode="clip" lets take fill `out` unbuffered
            np.take(img[..., c], iy, axis=0, out=rows, mode="clip")
            rows *= wy[:, None]
            for ix, wx in ((x0, wx0), (x1, wx1)):
                np.take(rows, ix, axis=1, out=tap, mode="clip")
                tap *= wx
                out[c] += tap
    return np.clip(out, 0.0, 1.0, out=out).transpose(1, 2, 0)


# ---------------------------------------------------------------------------
# Full conventional chain
# ---------------------------------------------------------------------------

def conventional_degrade(sdr: Image, cfg: DegradationConfig,
                         rng: np.random.Generator):
    """Noise in the linear RAW domain, then double compression.

    Order: linearize -> to RAW primaries -> camera noise -> back to sRGB ->
    re-encode -> compress (qf1 ~ U range) -> rescale -> compress (fixed qf2)
    -> rescale back.  Returns (degraded image, manifest of sampled params).
    Quality 100 disables a compression stage entirely, so a recipe of
    sigma 0, qf 100/100, scale 1 passes images through nearly unchanged.
    """
    _require_sdr("conventional_degrade", sdr)
    lo, hi = cfg.noise_sigma_range
    sigma = float(rng.uniform(lo, hi)) if hi > lo else float(lo)
    q1lo, q1hi = cfg.jpeg_qf1_range
    qf1 = int(rng.integers(q1lo, q1hi + 1)) if q1hi > q1lo else int(q1lo)
    rlo, rhi = cfg.rescale_range
    scale = float(rng.uniform(rlo, rhi)) if rhi > rlo else float(rlo)

    m = np.reshape(cfg.cst_matrix, (3, 3))
    # every stage below keeps this layout: (h, w, 3) views of channel planes
    x = np.ascontiguousarray(sdr.data.transpose(2, 0, 1), dtype=np.float64)
    x = srgb_decode(x.transpose(1, 2, 0))
    x = cst_apply(x, np.linalg.inv(m))
    np.clip(x, 0.0, 1.0, out=x)
    x = add_camera_noise(x, sigma, rng)
    x = srgb_encode(cst_apply(x, m))
    out = Image(x.astype(np.float32), NONLINEAR_SDR)
    if qf1 < 100:
        out = jpeg_sim(out, qf1)
    h, w = out.height, out.width
    rh, rw = max(8, round(h * scale)), max(8, round(w * scale))
    rescaled = _resize_bilinear(out.data, rh, rw)
    out = Image(rescaled.astype(np.float32), NONLINEAR_SDR)
    if cfg.jpeg_qf2 < 100:
        out = jpeg_sim(out, cfg.jpeg_qf2)
    restored = _resize_bilinear(out.data, h, w)
    manifest = {"sigma": sigma, "qf1": qf1, "qf2": cfg.jpeg_qf2, "rescale": scale}
    return Image(np.ascontiguousarray(restored, dtype=np.float32), NONLINEAR_SDR), manifest


# ---------------------------------------------------------------------------
# Exposure statistics
# ---------------------------------------------------------------------------

def exposure_stats(codes: np.ndarray, over_code: int = 255, under_code: int = 0):
    """(under_fraction, over_fraction) of an integer-coded SDR image.

    A pixel counts via its max channel: under-exposed when every channel is
    at or below under_code, over-exposed when any channel reaches over_code.
    """
    codes = np.asarray(codes)
    if codes.ndim != 3 or codes.shape[2] != 3:
        raise ValueError(f"expected (h, w, 3) coded image, got {codes.shape}")
    p = np.maximum(np.maximum(codes[..., 0], codes[..., 1]), codes[..., 2])
    n = p.size
    return float((p <= under_code).sum() / n), float((p >= over_code).sum() / n)


def dataset_stats(images, over_code: int = 255, under_code: int = 0) -> dict:
    """Exposure fractions of SDR images, counted on their 8-bit codes, as a
    key=value report: the image count, the sorted distinct resolutions, and
    the mean and population standard deviation of the per-image fractions.
    images may be any iterable, such as a generator that decodes one file at
    a time.  Both codes must be 8-bit values, 0..255."""
    for name, code in (("over_code", over_code), ("under_code", under_code)):
        if not 0 <= code <= 255:
            raise ValueError(f"{name} must be an 8-bit code in 0..255, got {code}")
    fractions, resolutions = [], set()
    for img in images:
        if img.domain == LINEAR_HDR:
            raise ValueError(f"dataset_stats counts SDR codes, got a {img.domain} image")
        codes = float_to_code(img.data, 255)
        fractions.append(exposure_stats(codes, over_code=over_code, under_code=under_code))
        resolutions.add(f"{img.width}x{img.height}")
    if not fractions:
        raise ValueError("dataset_stats needs at least one image")
    under, over = zip(*fractions)
    return {"images": len(fractions), "resolutions": sorted(resolutions),
            "under_code": under_code, "over_code": over_code,
            "under_mean": f"{np.mean(under):.6f}", "under_std": f"{np.std(under):.6f}",
            "over_mean": f"{np.mean(over):.6f}", "over_std": f"{np.std(over):.6f}"}
