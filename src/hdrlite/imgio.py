"""Raster I/O for float HDR/SDR interchange: PFM, Radiance RGBE, binary PPM.

All parsers operate on bytes, reject malformed input with ImageFormatError,
and bound every loop by the declared image dimensions so random-byte fuzzing
cannot hang.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

LINEAR_HDR = "linear_hdr"
NONLINEAR_SDR = "nonlinear_sdr"


class ImageFormatError(ValueError):
    """Raised for any malformed or unsupported raster payload."""


@dataclass
class Image:
    """3-channel float32 raster, (h, w, 3) interleaved, with a domain tag."""

    data: np.ndarray
    domain: str = NONLINEAR_SDR

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float32)
        if arr.ndim != 3 or arr.shape[2] != 3:
            raise ValueError(f"image data must be (h, w, 3), got {arr.shape}")
        if self.domain not in (LINEAR_HDR, NONLINEAR_SDR):
            raise ValueError(f"unknown domain {self.domain!r}")
        self.data = arr

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def height(self) -> int:
        return self.data.shape[0]


def _require(cond: bool, msg: str):
    if not cond:
        raise ImageFormatError(msg)


def _require_finite(img: Image, fmt: str):
    if not np.isfinite(img.data).all():
        raise ValueError(f"{fmt} cannot encode non-finite pixels")


_MAX_DIM = 1 << 20  # parser sanity bound on either dimension


# ---------------------------------------------------------------------------
# PFM
# ---------------------------------------------------------------------------

def _read_token(data: bytes, off: int):
    while off < len(data) and data[off:off + 1].isspace():
        off += 1
    start = off
    while off < len(data) and not data[off:off + 1].isspace():
        off += 1
    _require(off > start, "unexpected end of PFM header")
    return data[start:off], off


def read_pfm(data: bytes) -> Image:
    _require(len(data) >= 2, "truncated PFM")
    magic, off = _read_token(data, 0)
    if magic == b"Pf":
        raise ImageFormatError("grayscale 'Pf' PFM is not supported, need color 'PF'")
    _require(magic == b"PF", f"bad PFM magic {magic!r}")
    wtok, off = _read_token(data, off)
    htok, off = _read_token(data, off)
    stok, off = _read_token(data, off)
    try:
        w, h = int(wtok), int(htok)
        scale = float(stok)
    except ValueError as e:
        raise ImageFormatError(f"bad PFM header field: {e}") from None
    _require(0 < w <= _MAX_DIM and 0 < h <= _MAX_DIM, f"bad PFM dims {w}x{h}")
    _require(scale != 0 and math.isfinite(scale), f"bad PFM scale {scale}")
    off += 1  # single whitespace byte terminates the header
    need = w * h * 3 * 4
    _require(len(data) - off >= need, "truncated PFM payload")
    dtype = "<f4" if scale < 0 else ">f4"
    arr = np.frombuffer(data, dtype=dtype, count=w * h * 3, offset=off)
    arr = arr.reshape(h, w, 3).astype(np.float32)
    _require(bool(np.isfinite(arr).all()), "non-finite PFM samples")
    # PFM rows are stored bottom-up; the scale sign only encodes endianness
    arr = arr[::-1].copy()
    if abs(scale) != 1.0:
        arr *= abs(scale)
    return Image(arr, LINEAR_HDR)


def write_pfm(img: Image) -> bytes:
    _require_finite(img, "PFM")
    header = f"PF\n{img.width} {img.height}\n-1.0\n".encode("ascii")
    return header + img.data[::-1].astype("<f4").tobytes()


# ---------------------------------------------------------------------------
# Radiance RGBE (.hdr)
# ---------------------------------------------------------------------------

def rgbe_to_float(rgbe: np.ndarray) -> np.ndarray:
    """(..., 4) uint8 -> (..., 3) float; value = mantissa/256 * 2^(e-128).

    Each channel plane is one product with the per-pixel power of two, which
    is exact in float32 (down to its subnormals), so `rgbe` may be a strided
    view such as the decoder's transposed component planes.
    """
    rgbe = np.asarray(rgbe, dtype=np.uint8)
    e = rgbe[..., 3]
    scale = np.ldexp(np.float32(1.0 / 256.0), e.astype(np.int32) - 128)
    scale[e == 0] = 0.0
    out = np.empty(rgbe.shape[:-1] + (3,), dtype=np.float32)
    for c in range(3):
        np.multiply(rgbe[..., c], scale, out=out[..., c])
    return out


# A pixel maximum this large rounds past mantissa 255 at exponent byte 255,
# the largest RGBE code, so it cannot be encoded.
RGBE_LIMIT = 255.5 / 256.0 * 2.0 ** 127


def float_to_rgbe(rgb: np.ndarray) -> np.ndarray:
    """(..., 3) float -> (..., 4) uint8 shared-exponent RGBE (Ward 1991).

    Works on channel planes: the maximum is `np.maximum` over the three
    channel views, and the power-of-two scaling runs in float32, where it is
    exact. A pixel whose maximum is below 1e-32 (or NaN) encodes as zero; one
    whose maximum reaches RGBE_LIMIT (or +inf) raises ValueError, since its
    exponent byte would wrap.
    """
    rgb = np.maximum(np.asarray(rgb, dtype=np.float32), 0.0)
    v = np.maximum(np.maximum(rgb[..., 0], rgb[..., 1]), rgb[..., 2])
    if (v >= RGBE_LIMIT).any():
        raise ValueError(f"RGBE cannot encode a pixel whose largest channel is "
                         f"{RGBE_LIMIT:.4g} or more")
    zero = ~(v >= 1e-32)  # NaN maxima are zeroed too
    # zeroed pixels take the exponent of 1e-32, so their scale stays finite
    _, e = np.frexp(np.maximum(v, np.float32(1e-32)))
    scale = np.ldexp(np.float32(256.0), -e)
    # a maximum rounding up to 256 does not fit a byte: bump the exponent
    over = np.rint(v * scale) >= 256
    if over.any():
        e[over] += 1
        scale[over] *= np.float32(0.5)
    out = np.empty(rgb.shape[:-1] + (4,), dtype=np.uint8)
    with np.errstate(invalid="ignore"):  # NaN pixels are zeroed below
        for c in range(3):
            out[..., c] = np.rint(rgb[..., c] * scale)
    out[..., 3] = e + 128
    out[zero] = 0
    return out


# Byte budget of one band's gather indices in read_rgbe.
_RGBE_INDEX_BYTES = 1 << 20
# Widths of run-length scanlines, written and read: Radiance's MINELEN..MAXELEN.
_RLE_WIDTHS = range(8, 0x7FFF + 1)


def _rle_expand(src: np.ndarray, codes: list, out: np.ndarray):
    """Expand new-style RLE codes into `out`, one gather from `src`.

    `codes` holds the offset in `src` of each code byte, in scanline order;
    the walk in read_rgbe has checked them. A run code (> 128) repeats the
    byte after it; a literal code n copies the n bytes after it. So the source
    index of each output byte steps by 1 inside a literal and by 0 inside a
    run, and jumps to the byte after the code at each code's first output.
    """
    at = np.array(codes, dtype=np.intp)
    code = src[at].astype(np.intp)
    step = (code <= 128).astype(np.intp)
    lens = code - 128 * (1 - step)
    idx = np.repeat(step, lens)
    jump = at + 1
    jump[1:] -= at[:-1] + 1 + (lens[:-1] - 1) * step[:-1]
    idx[np.cumsum(lens) - lens] = jump
    np.cumsum(idx, out=idx)
    np.take(src, idx, out=out)


def read_rgbe(data: bytes) -> Image:
    """Decode a Radiance RGBE file, in flat or new-style RLE scanlines.

    Scanlines are decoded in bands of rows within _RGBE_INDEX_BYTES of
    gather indices. A Python walk visits only the code bytes of each RLE
    scanline, checking truncation, zero-length literals and codes that
    overflow a component; `_rle_expand` then fills the band's (4, w)
    component planes with one gather. Flat scanlines are copied directly.
    """
    _require(data.startswith(b"#?RADIANCE") or data.startswith(b"#?RGBE"),
             "missing Radiance signature")
    try:
        header_end = data.index(b"\n\n")
    except ValueError:
        raise ImageFormatError("unterminated Radiance header") from None
    for line in data[:header_end].split(b"\n"):
        if line.startswith(b"FORMAT="):
            fmt = line[7:].strip()
            _require(fmt == b"32-bit_rle_rgbe", f"unsupported Radiance format {fmt!r}")
    off = header_end + 2
    res_end = data.find(b"\n", off)
    _require(res_end > 0, "missing resolution line")
    m = re.fullmatch(rb"-Y (\d+) \+X (\d+)", data[off:res_end])
    _require(m is not None, f"unsupported resolution line {data[off:res_end]!r}")
    h, w = int(m.group(1)), int(m.group(2))
    _require(0 < w <= _MAX_DIM and 0 < h <= _MAX_DIM, f"bad RGBE dims {w}x{h}")
    off = res_end + 1

    n = len(data)
    src = np.frombuffer(data, np.uint8)
    planes = np.empty((h, 4, w), dtype=np.uint8)
    rle_head = bytes((2, 2, w >> 8, w & 255)) if w in _RLE_WIDTHS else None
    band = max(1, _RGBE_INDEX_BYTES // (np.dtype(np.intp).itemsize * 4 * w))
    for y0 in range(0, h, band):
        y1 = min(h, y0 + band)
        codes, rle_rows = [], []
        for y in range(y0, y1):
            _require(off + 4 <= n, "truncated RGBE scanline header")
            if data[off:off + 4] != rle_head:
                _require(off + 4 * w <= n, "truncated flat RGBE scanline")
                _require(data[off] != 1 or data[off + 1] != 1 or data[off + 2] != 1,
                         "old-style RLE scanlines are not supported")
                planes[y] = src[off:off + 4 * w].reshape(w, 4).T
                off += 4 * w
                continue
            off += 4
            rle_rows.append(y)
            for _ in range(4):
                pos = 0
                while pos < w:  # the hot loop: its checks are inlined
                    if off >= n:
                        raise ImageFormatError("truncated RGBE scanline")
                    code = data[off]
                    codes.append(off)
                    if code > 128:
                        pos += code - 128
                        off += 2
                    elif code:
                        pos += code
                        off += code + 1
                    else:
                        raise ImageFormatError("zero-length RGBE literal")
                _require(pos == w, "RGBE run or literal overflows scanline")
                # a literal or run value cut off by the end of the data
                _require(off <= n, "truncated RGBE scanline")
        if rle_rows:
            rows = np.empty((len(rle_rows), 4, w), dtype=np.uint8)
            _rle_expand(src, codes, rows.reshape(-1))
            planes[rle_rows] = rows
    return Image(rgbe_to_float(planes.transpose(0, 2, 1)), LINEAR_HDR)


def _rle_encode_scanlines(lines: np.ndarray, out: bytearray):
    """Run-length encode (h, 4, w) component scanlines, each row preceded by
    its new-style header.

    Numpy finds the maximal runs of every scanline; only runs of >= 4 bytes
    reach the Python loop. A run is cut into 127-byte chunks from its start:
    chunks of >= 4 bytes become run codes, a shorter tail joins the literals
    that follow, and literals go out in slices of at most 128 bytes.
    """
    h, _, w = lines.shape
    flat = lines.reshape(-1)
    starts = np.empty(flat.size, dtype=bool)
    starts[0] = True
    np.not_equal(flat[1:], flat[:-1], out=starts[1:])
    starts[::w] = True  # runs never cross a scanline
    starts = np.flatnonzero(starts)
    lens = np.diff(starts, append=flat.size)
    keep = lens >= 4
    run_starts, run_lens = starts[keep].tolist(), lens[keep].tolist()
    run_starts.append(flat.size)  # sentinel
    data = flat.tobytes()
    head = bytes((2, 2, w >> 8, w & 255))
    j = 0
    for y in range(h):
        out += head
        for c in range(4):
            pos = (4 * y + c) * w
            end = pos + w
            while run_starts[j] < end:
                s, n = run_starts[j], run_lens[j]
                j += 1
                while n >= 4:
                    while pos < s:
                        k = min(128, s - pos)
                        out.append(k)
                        out += data[pos:pos + k]
                        pos += k
                    k = min(127, n)
                    out.append(128 + k)
                    out.append(data[s])
                    s += k
                    n -= k
                    pos = s
            while pos < end:
                k = min(128, end - pos)
                out.append(k)
                out += data[pos:pos + k]
                pos += k


def write_rgbe(img: Image) -> bytes:
    _require_finite(img, "RGBE")
    h, w = img.height, img.width
    out = bytearray()
    out += b"#?RADIANCE\nFORMAT=32-bit_rle_rgbe\n\n"
    out += f"-Y {h} +X {w}\n".encode("ascii")
    rgbe = float_to_rgbe(img.data)
    if w in _RLE_WIDTHS:
        _rle_encode_scanlines(np.ascontiguousarray(rgbe.transpose(0, 2, 1)), out)
    else:
        out += rgbe.tobytes()
    return bytes(out)


# ---------------------------------------------------------------------------
# Binary PPM
# ---------------------------------------------------------------------------

def _ppm_token(data: bytes, off: int):
    while off < len(data):
        ch = data[off:off + 1]
        if ch == b"#":
            nl = data.find(b"\n", off)
            _require(nl >= 0, "unterminated PPM comment")
            off = nl + 1
        elif ch.isspace():
            off += 1
        else:
            break
    start = off
    while off < len(data) and not data[off:off + 1].isspace():
        off += 1
    _require(off > start, "unexpected end of PPM header")
    tok = data[start:off]
    _require(tok.isdigit(), f"bad PPM header token {tok!r}")
    return int(tok), off


def read_ppm(data: bytes) -> Image:
    _require(data[:2] == b"P6", "not a binary P6 PPM")
    w, off = _ppm_token(data, 2)
    h, off = _ppm_token(data, off)
    maxval, off = _ppm_token(data, off)
    _require(0 < w <= _MAX_DIM and 0 < h <= _MAX_DIM, f"bad PPM dims {w}x{h}")
    _require(maxval in (255, 65535), f"unsupported PPM maxval {maxval}")
    off += 1  # single whitespace after maxval
    if maxval == 255:
        need = w * h * 3
        _require(len(data) - off >= need, "truncated PPM payload")
        codes = np.frombuffer(data, np.uint8, need, off).reshape(h, w, 3)
    else:
        need = w * h * 3 * 2
        _require(len(data) - off >= need, "truncated PPM payload")
        codes = np.frombuffer(data, ">u2", w * h * 3, off).reshape(h, w, 3)
    return Image(codes.astype(np.float32) / maxval, NONLINEAR_SDR)


def float_to_code(x: np.ndarray, maxval: int) -> np.ndarray:
    """Round half away from zero, for platform-stable writes."""
    return np.floor(np.clip(x, 0.0, 1.0) * maxval + 0.5).astype(np.uint32)


def write_ppm(img: Image) -> bytes:
    """An 8-bit binary PPM."""
    _require_finite(img, "PPM")
    header = f"P6\n{img.width} {img.height}\n255\n".encode("ascii")
    return header + float_to_code(img.data, 255).astype(np.uint8).tobytes()


# ---------------------------------------------------------------------------
# File-level helpers (extension-dispatched)
# ---------------------------------------------------------------------------

def read_image(path) -> Image:
    path = str(path)
    readers = {".pfm": read_pfm, ".hdr": read_rgbe, ".ppm": read_ppm}
    for ext, reader in readers.items():
        if path.endswith(ext):
            with open(path, "rb") as f:
                return reader(f.read())
    raise ImageFormatError(f"unsupported image extension: {path}")


def write_image(path, img: Image):
    path = str(path)
    if path.endswith(".pfm"):
        data = write_pfm(img)
    elif path.endswith(".hdr"):
        data = write_rgbe(img)
    elif path.endswith(".ppm"):
        data = write_ppm(img)
    else:
        raise ImageFormatError(f"unsupported image extension: {path}")
    with open(path, "wb") as f:
        f.write(data)
