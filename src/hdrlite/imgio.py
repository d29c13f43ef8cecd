"""Raster I/O for float HDR/SDR interchange: PFM, Radiance RGBE, binary PPM.

All parsers operate on bytes, reject malformed input with ImageFormatError,
and bound every loop by the declared image dimensions so random-byte fuzzing
cannot hang.
"""
from __future__ import annotations

import math
import re
import struct
from dataclasses import dataclass, field

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
    max_luminance: float | None = None

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


def read_pfm(data: bytes, domain: str = LINEAR_HDR) -> Image:
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
    return Image(arr, domain)


def write_pfm(img: Image) -> bytes:
    header = f"PF\n{img.width} {img.height}\n-1.0\n".encode("ascii")
    return header + img.data[::-1].astype("<f4").tobytes()


# ---------------------------------------------------------------------------
# Radiance RGBE (.hdr)
# ---------------------------------------------------------------------------

def rgbe_to_float(rgbe: np.ndarray) -> np.ndarray:
    """(..., 4) uint8 -> (..., 3) float; value = mantissa/256 * 2^(e-128)."""
    rgbe = np.asarray(rgbe, dtype=np.uint8)
    scale = np.ldexp(1.0 / 256.0, rgbe[..., 3].astype(np.int32) - 128)
    out = rgbe[..., :3].astype(np.float32) * scale[..., None].astype(np.float32)
    out[rgbe[..., 3] == 0] = 0.0
    return out


def float_to_rgbe(rgb: np.ndarray) -> np.ndarray:
    rgb = np.maximum(np.asarray(rgb, dtype=np.float32), 0.0)
    v = rgb.max(axis=-1)
    _, e = np.frexp(v)
    scale = np.ldexp(np.float64(256.0), -e)
    bytes_ = np.rint(rgb * scale[..., None])
    # a max channel rounding up to 256 does not fit a byte: bump the exponent
    over = bytes_.max(axis=-1) >= 256
    if over.any():
        e[over] += 1
        bytes_[over] = np.rint(rgb[over] * np.ldexp(np.float64(256.0), -e[over])[..., None])
    out = np.empty(rgb.shape[:-1] + (4,), dtype=np.uint8)
    zero = ~(v >= 1e-32)  # NaN maxima are zeroed too
    bytes_[zero] = 0
    out[..., :3] = bytes_
    out[..., 3] = e + 128
    out[zero] = 0
    return out


def _rle_decode_component(data: bytes, off: int, w: int, dest: np.ndarray):
    pos = 0
    while pos < w:
        _require(off < len(data), "truncated RGBE scanline")
        code = data[off]
        off += 1
        if code > 128:
            run = code - 128
            _require(pos + run <= w, "RGBE run overflows scanline")
            _require(off < len(data), "truncated RGBE run value")
            dest[pos:pos + run] = data[off]
            off += 1
            pos += run
        else:
            _require(code > 0, "zero-length RGBE literal")
            _require(pos + code <= w, "RGBE literal overflows scanline")
            _require(off + code <= len(data), "truncated RGBE literal")
            dest[pos:pos + code] = np.frombuffer(data, np.uint8, code, off)
            off += code
            pos += code
    return off


def read_rgbe(data: bytes) -> Image:
    _require(data.startswith(b"#?RADIANCE") or data.startswith(b"#?RGBE"),
             "missing Radiance signature")
    try:
        header_end = data.index(b"\n\n")
    except ValueError:
        raise ImageFormatError("unterminated Radiance header") from None
    off = header_end + 2
    res_end = data.find(b"\n", off)
    _require(res_end > 0, "missing resolution line")
    m = re.fullmatch(rb"-Y (\d+) \+X (\d+)", data[off:res_end])
    _require(m is not None, f"unsupported resolution line {data[off:res_end]!r}")
    h, w = int(m.group(1)), int(m.group(2))
    _require(0 < w <= _MAX_DIM and 0 < h <= _MAX_DIM, f"bad RGBE dims {w}x{h}")
    off = res_end + 1

    rgbe = np.empty((h, w, 4), dtype=np.uint8)
    for y in range(h):
        _require(off + 4 <= len(data), "truncated RGBE scanline header")
        head = data[off:off + 4]
        if head[0] == 2 and head[1] == 2 and (head[2] << 8 | head[3]) == w and w >= 8:
            off += 4
            row = np.empty((4, w), dtype=np.uint8)
            for comp in range(4):
                off = _rle_decode_component(data, off, w, row[comp])
            rgbe[y] = row.T
        else:
            _require(off + 4 * w <= len(data), "truncated flat RGBE scanline")
            _require(head[0] != 1 or head[1] != 1 or head[2] != 1,
                     "old-style RLE scanlines are not supported")
            rgbe[y] = np.frombuffer(data, np.uint8, 4 * w, off).reshape(w, 4)
            off += 4 * w
    return Image(rgbe_to_float(rgbe), LINEAR_HDR)


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
    h, w = img.height, img.width
    out = bytearray()
    out += b"#?RADIANCE\nFORMAT=32-bit_rle_rgbe\n\n"
    out += f"-Y {h} +X {w}\n".encode("ascii")
    rgbe = float_to_rgbe(img.data)
    if 8 <= w <= 32767:
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


def write_ppm(img: Image, bit_depth: int = 8) -> bytes:
    if bit_depth not in (8, 16):
        raise ValueError(f"bit_depth must be 8 or 16, got {bit_depth}")
    maxval = (1 << bit_depth) - 1
    header = f"P6\n{img.width} {img.height}\n{maxval}\n".encode("ascii")
    codes = float_to_code(img.data, maxval)
    payload = codes.astype(np.uint8) if bit_depth == 8 else codes.astype(">u2")
    return header + payload.tobytes()


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


def write_image(path, img: Image, bit_depth: int = 8):
    path = str(path)
    if path.endswith(".pfm"):
        data = write_pfm(img)
    elif path.endswith(".hdr"):
        data = write_rgbe(img)
    elif path.endswith(".ppm"):
        data = write_ppm(img, bit_depth)
    else:
        raise ImageFormatError(f"unsupported image extension: {path}")
    with open(path, "wb") as f:
        f.write(data)


# ---------------------------------------------------------------------------
# Patch extraction and dataset statistics
# ---------------------------------------------------------------------------

def extract_patches(img: Image, size: int = 600, count: int = 1,
                    rng: np.random.Generator | None = None) -> list[Image]:
    """Random square crops at integer offsets, deterministic per rng state."""
    rng = rng or np.random.default_rng(0)
    h, w = img.height, img.width
    if h < size or w < size:
        return [Image(img.data.copy(), img.domain, img.max_luminance)]
    out = []
    for _ in range(count):
        y = int(rng.integers(0, h - size + 1))
        x = int(rng.integers(0, w - size + 1))
        out.append(Image(img.data[y:y + size, x:x + size].copy(), img.domain))
    return out


@dataclass
class DatasetReport:
    """Per-image and aggregate under/over-exposure fractions.

    Aggregates are the mean and population standard deviation of the
    per-image fractions.
    """

    under_fractions: list = field(default_factory=list)
    over_fractions: list = field(default_factory=list)
    under_code: int = 0
    over_code: int = 255
    resolutions: list = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.over_fractions)

    @property
    def under_mean(self) -> float:
        return float(np.mean(self.under_fractions))

    @property
    def under_std(self) -> float:
        return float(np.std(self.under_fractions))

    @property
    def over_mean(self) -> float:
        return float(np.mean(self.over_fractions))

    @property
    def over_std(self) -> float:
        return float(np.std(self.over_fractions))

    def to_kv(self) -> str:
        return "\n".join([
            f"images={self.count}",
            f"under_code={self.under_code}",
            f"over_code={self.over_code}",
            f"under_mean={self.under_mean:.6f}",
            f"under_std={self.under_std:.6f}",
            f"over_mean={self.over_mean:.6f}",
            f"over_std={self.over_std:.6f}",
        ])

    def to_text(self) -> str:
        lines = [
            f"{'images':>12}  {self.count}",
            f"{'resolutions':>12}  {', '.join(sorted(set(self.resolutions)))}",
            f"{'under-exp':>12}  code <= {self.under_code}: "
            f"avg {100 * self.under_mean:.4f}%  stdev {self.under_std:.4f}",
            f"{'over-exp':>12}  code >= {self.over_code}: "
            f"avg {100 * self.over_mean:.4f}%  stdev {self.over_std:.4f}",
        ]
        return "\n".join(lines)


def dataset_stats(images: list[Image], over_code: int = 255, under_code: int = 0,
                  bit_depth: int = 8) -> DatasetReport:
    from .degrade import exposure_stats
    if not images:
        raise ValueError("dataset_stats needs at least one image")
    report = DatasetReport(under_code=under_code, over_code=over_code)
    maxval = (1 << bit_depth) - 1
    for img in images:
        codes = float_to_code(img.data, maxval)
        under, over = exposure_stats(codes, over_code=over_code, under_code=under_code)
        report.under_fractions.append(under)
        report.over_fractions.append(over)
        report.resolutions.append(f"{img.width}x{img.height}")
    return report
