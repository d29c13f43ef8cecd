import re

import numpy as np
import pytest

from hdrlite import imgio
from hdrlite.degrade import dataset_stats
from hdrlite.imgio import (
    Image, ImageFormatError, LINEAR_HDR, NONLINEAR_SDR, RGBE_LIMIT, float_to_code,
    float_to_rgbe, read_image, read_pfm, read_ppm, read_rgbe, rgbe_to_float,
    write_image, write_pfm, write_ppm, write_rgbe, _rle_encode_scanlines,
)


def random_hdr(seed, h=37, w=23, scale=100.0):
    r = np.random.default_rng(seed)
    return Image((r.random((h, w, 3)) * scale).astype(np.float32), LINEAR_HDR)


# ---------------------------------------------------------------------------
# PFM
# ---------------------------------------------------------------------------

def test_pfm_roundtrip_bit_exact():
    img = random_hdr(0)
    back = read_pfm(write_pfm(img))
    np.testing.assert_array_equal(back.data, img.data)
    assert back.domain == LINEAR_HDR


def test_pfm_big_endian_scale_sign():
    img = Image(np.array([[[1.5, 2.0, -0.25]]], dtype=np.float32), LINEAR_HDR)
    # hand-build a big-endian file: positive scale means big-endian
    payload = img.data[::-1].astype(">f4").tobytes()
    back = read_pfm(b"PF\n1 1\n1.0\n" + payload)
    np.testing.assert_array_equal(back.data, img.data)


def test_pfm_row_order_is_bottom_up():
    img = Image(np.arange(12, dtype=np.float32).reshape(2, 2, 3), LINEAR_HDR)
    blob = write_pfm(img)
    first_row = np.frombuffer(blob, "<f4", 6, len(blob) - 48)
    np.testing.assert_array_equal(first_row, img.data[1].ravel())


def test_pfm_rejects_malformed():
    with pytest.raises(ImageFormatError, match="grayscale"):
        read_pfm(b"Pf\n2 2\n-1.0\n" + b"\0" * 16)
    with pytest.raises(ImageFormatError, match="truncated"):
        read_pfm(b"PF\n2 2\n-1.0\n" + b"\0" * 5)
    with pytest.raises(ImageFormatError):
        read_pfm(b"JUNKJUNKJUNK")
    with pytest.raises(ImageFormatError, match="scale"):
        read_pfm(b"PF\n1 1\n0.0\n" + b"\0" * 12)
    inf = struct_pack_inf()
    with pytest.raises(ImageFormatError, match="non-finite"):
        read_pfm(b"PF\n1 1\n-1.0\n" + inf)


def struct_pack_inf():
    return np.array([np.inf, 0, 0], dtype="<f4").tobytes()


def test_pfm_absolute_scale_multiplies():
    img = Image(np.full((1, 1, 3), 2.0, dtype=np.float32), LINEAR_HDR)
    blob = write_pfm(img).replace(b"-1.0", b"-4.0")
    np.testing.assert_allclose(read_pfm(blob).data, 8.0)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_write_pfm_rejects_non_finite_pixels(bad, tmp_path):
    data = random_hdr(1, h=2, w=8).data.copy()
    data[1, 3, 0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        write_pfm(Image(data, LINEAR_HDR))
    with pytest.raises(ValueError, match="non-finite"):
        write_image(tmp_path / "bad.pfm", Image(data, LINEAR_HDR))
    assert not (tmp_path / "bad.pfm").exists()


# ---------------------------------------------------------------------------
# RGBE
# ---------------------------------------------------------------------------

def test_rgbe_decode_known_bytes():
    rgbe = np.array([[[128, 128, 128, 130]]], dtype=np.uint8)
    np.testing.assert_allclose(rgbe_to_float(rgbe)[0, 0], [2.0, 2.0, 2.0])
    zero = np.zeros((1, 1, 4), dtype=np.uint8)
    np.testing.assert_array_equal(rgbe_to_float(zero), 0.0)


def test_rgbe_encode_decode_relative_error():
    img = random_hdr(1, h=40, w=40, scale=500.0)
    dec = rgbe_to_float(float_to_rgbe(img.data))
    peak = img.data.max(axis=-1, keepdims=True)
    rel = np.abs(dec - img.data) / np.maximum(peak, 1e-9)
    assert rel.max() < 1.0 / 256.0


def test_rgbe_file_roundtrip():
    img = random_hdr(2, h=32, w=64)  # wide enough for run-length scanlines
    back = read_rgbe(write_rgbe(img))
    peak = img.data.max(axis=-1, keepdims=True)
    rel = np.abs(back.data - img.data) / np.maximum(peak, 1e-9)
    assert rel.max() < 1.0 / 256.0
    assert back.domain == LINEAR_HDR


def test_rgbe_narrow_image_uses_flat_scanlines():
    img = random_hdr(3, h=5, w=4)
    back = read_rgbe(write_rgbe(img))
    peak = img.data.max(axis=-1, keepdims=True)
    rel = np.abs(back.data - img.data) / np.maximum(peak, 1e-9)
    assert rel.max() < 1.0 / 256.0


def test_rgbe_flat_scanline_past_the_rle_widths_roundtrips():
    # 32897 = 0x8081 is past 0x7FFF, so the writer uses flat scanlines; their
    # first pixel (2, 2, 128, 129) must not read as that width's RLE header
    data = np.full((1, 32897, 3), 0.5, np.float32)
    data[0, 0] = (0.015625, 0.015625, 1.0)
    raw = write_rgbe(Image(data, LINEAR_HDR))
    assert raw[raw.index(b"+X 32897\n") + 9:][:4] == bytes((2, 2, 128, 129))
    np.testing.assert_array_equal(read_rgbe(raw).data, data)


def test_rgbe_write_is_stable():
    # decode then re-encode reproduces the same bytes (codes are fixed points)
    img = random_hdr(4, h=16, w=33)
    b1 = write_rgbe(img)
    b2 = write_rgbe(read_rgbe(b1))
    assert b1 == b2


def test_rgbe_runs_compress():
    img = Image(np.full((8, 128, 3), 2.0, dtype=np.float32), LINEAR_HDR)
    blob = write_rgbe(img)
    assert len(blob) < 8 * 128 * 4  # flat rows must RLE well
    np.testing.assert_allclose(read_rgbe(blob).data, 2.0)


# Oracles: scalar reference versions of float_to_rgbe and of the RLE
# scanner, one byte at a time. The writer must reproduce their bytes exactly.

def oracle_float_to_rgbe(rgb):
    rgb = np.maximum(np.asarray(rgb, dtype=np.float32), 0.0)
    v = rgb.max(axis=-1)
    out = np.zeros(rgb.shape[:-1] + (4,), dtype=np.uint8)
    nz = v >= 1e-32
    if not nz.any():
        return out
    _, e = np.frexp(v[nz])
    scale = np.ldexp(np.float64(256.0), -e)
    bytes_ = np.rint(rgb[nz] * scale[..., None])
    over = bytes_.max(axis=-1) >= 256
    if over.any():
        e = e + over.astype(e.dtype)
        scale = np.ldexp(np.float64(256.0), -e)
        bytes_ = np.rint(rgb[nz] * scale[..., None])
    out_nz = np.empty(bytes_.shape[:-1] + (4,), dtype=np.uint8)
    out_nz[..., :3] = bytes_.astype(np.uint8)
    out_nz[..., 3] = (e + 128).astype(np.uint8)
    out[nz] = out_nz
    return out


def oracle_rle_component(comp, out):
    w = comp.size
    pos = 0
    while pos < w:
        run_start, run_len = pos, 0
        while run_start < w:
            run_len = 1
            while (run_start + run_len < w and run_len < 127
                   and comp[run_start + run_len] == comp[run_start]):
                run_len += 1
            if run_len >= 4:
                break
            run_start += run_len
            run_len = 0
        lit = pos
        while lit < run_start:
            n = min(128, run_start - lit)
            out.append(n)
            out += comp[lit:lit + n].tobytes()
            lit += n
        if run_len:
            out.append(128 + run_len)
            out.append(int(comp[run_start]))
            pos = run_start + run_len
        else:
            pos = run_start


def oracle_write_rgbe(img):
    h, w = img.height, img.width
    out = bytearray(b"#?RADIANCE\nFORMAT=32-bit_rle_rgbe\n\n")
    out += f"-Y {h} +X {w}\n".encode("ascii")
    rgbe = oracle_float_to_rgbe(img.data)
    for y in range(h):
        if 8 <= w <= 32767:
            out += bytes((2, 2, w >> 8, w & 255))
            for comp in range(4):
                oracle_rle_component(np.ascontiguousarray(rgbe[y, :, comp]), out)
        else:
            out += rgbe[y].tobytes()
    return bytes(out)


def literals(n, start=0):
    """n bytes in which no two neighbours are equal."""
    return [(start + i) % 200 + 1 for i in range(n)]


def crafted_scanlines():
    """Scanlines around every boundary of the encoder, as pytest params."""
    lines = []
    for w in (8, 9, 33, 480):
        lines.append((f"equal{w}", [7] * w))
        lines.append((f"alternating{w}", [3, 9] * (w // 2) + [3] * (w % 2)))
        for n in (3, 4, 5, 126, 127, 128, 129, 130, 131, 254, 255, 256):
            for pre in (0, 1, 5):
                if pre + n <= w:
                    row = literals(pre) + [0] * n
                    lines.append((f"run{n}@{pre}w{w}", row + literals(w - len(row), 50)))
        for n in (127, 128, 129, 257):
            if n + 4 <= w:
                row = literals(n) + [0] * 4
                lines.append((f"lit{n}w{w}", row + literals(w - len(row), 90)))
    return [pytest.param(row, id=name) for name, row in lines]


@pytest.mark.parametrize("row", crafted_scanlines())
def test_rle_encoder_matches_scalar_scanner_on_crafted_scanlines(row):
    comp = np.array(row, dtype=np.uint8)
    w = comp.size
    want = bytearray(bytes((2, 2, w >> 8, w & 255)))
    for c in range(4):
        oracle_rle_component(np.roll(comp, c), want)
    got = bytearray()
    _rle_encode_scanlines(np.stack([np.roll(comp, c) for c in range(4)])[None], got)
    assert bytes(got) == bytes(want)


def run_and_noise_image(rng, h, w):
    """Rows that mix pixel runs of 1..300 with noise, from a small palette."""
    palette = rng.random((6, 3)).astype(np.float32) * 4.0
    data = np.empty((h, w, 3), dtype=np.float32)
    for y in range(h):
        x = 0
        while x < w:
            n = int(rng.integers(1, 300)) if rng.random() < 0.5 else int(rng.integers(1, 20))
            if rng.random() < 0.5:
                data[y, x:x + n] = palette[rng.integers(0, len(palette))]
            else:
                data[y, x:x + n] = rng.random((min(n, w - x), 3)) * 4.0
            x += n
    return Image(data, LINEAR_HDR)


@pytest.mark.parametrize("w", [8, 9, 33, 480])
def test_write_rgbe_matches_scalar_writer_on_crafted_rows(w):
    rows = [np.full((w, 3), 0.5), np.tile([[0.5] * 3, [0.25] * 3], (w, 1))[:w]]
    for n in (3, 4, 5, 126, 127, 128, 129, 130, 131, 254, 255, 256):
        if n < w:
            row = np.linspace(0.1, 3.0, w * 3).reshape(w, 3)
            row[1:n + 1] = 2.0
            rows.append(row)
    img = Image(np.stack(rows).astype(np.float32), LINEAR_HDR)
    assert write_rgbe(img) == oracle_write_rgbe(img)


@pytest.mark.parametrize("seed", range(6))
def test_write_rgbe_matches_scalar_writer_on_random_rows(seed):
    rng = np.random.default_rng(seed)
    w = int(rng.choice([8, 9, 33, 127, 128, 129, 257, 480]))
    img = run_and_noise_image(rng, int(rng.integers(1, 6)), w)
    assert write_rgbe(img) == oracle_write_rgbe(img)
    assert read_rgbe(write_rgbe(img)).data.shape == img.data.shape


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_write_rgbe_rejects_non_finite_pixels(bad, tmp_path):
    img = random_hdr(5, h=2, w=8)
    assert write_rgbe(img) == oracle_write_rgbe(img)
    data = img.data.copy()
    data[1, 3, 0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        write_rgbe(Image(data, LINEAR_HDR))
    with pytest.raises(ValueError, match="non-finite"):
        write_image(tmp_path / "bad.hdr", Image(data, LINEAR_HDR))
    assert not (tmp_path / "bad.hdr").exists()


def test_float_to_rgbe_matches_scalar_encoder():
    rng = np.random.default_rng(11)
    wide = 10.0 ** rng.uniform(-40, 30, (64, 64, 3))
    wide[rng.random(wide.shape) < 0.1] = 0.0
    wide[rng.random(wide.shape[:2]) < 0.05] = 0.0  # whole zero pixels
    wide[rng.random(wide.shape) < 0.05] *= -1.0
    # max channels whose 8-bit mantissa rounds up to 256
    up = np.array([255.5, 255.75, 255.999, 255.49]) / 256.0
    near = np.stack([up, up / 2, up / 3], axis=-1)[None] * 2.0 ** np.arange(-20, 20)[:, None, None]
    for rgb in (wide.astype(np.float32), near.astype(np.float32),
                np.zeros((3, 5, 3), np.float32)):
        np.testing.assert_array_equal(float_to_rgbe(rgb), oracle_float_to_rgbe(rgb))
    # 255.5/256 rounds to 256 and moves to the next exponent as mantissa 128
    assert (oracle_float_to_rgbe(near.astype(np.float32))[..., 0] == 128).any()


def test_rgbe_rejects_bad_headers():
    with pytest.raises(ImageFormatError, match="signature"):
        read_rgbe(b"not radiance\n\n-Y 2 +X 2\n" + b"\0" * 16)
    with pytest.raises(ImageFormatError, match="resolution"):
        read_rgbe(b"#?RADIANCE\n\n+Y 2 +X 2\n" + b"\0" * 16)  # flipped layout
    with pytest.raises(ImageFormatError, match="truncated"):
        read_rgbe(b"#?RADIANCE\n\n-Y 2 +X 2\n" + b"\0" * 3)
    with pytest.raises(ImageFormatError, match="old-style"):
        read_rgbe(b"#?RADIANCE\n\n-Y 1 +X 2\n" + bytes((1, 1, 1, 9)) + b"\0" * 4)


def test_rgbe_reads_only_the_rgbe_format():
    img = random_hdr(6, h=3, w=9)
    data = write_rgbe(img)
    assert b"FORMAT=32-bit_rle_rgbe\n" in data
    for fmt in (b"32-bit_rle_xyze", b"", b"32-bit_rle_rgbe_x"):
        with pytest.raises(ImageFormatError, match="unsupported Radiance format"):
            read_rgbe(data.replace(b"32-bit_rle_rgbe", fmt))
    # a header with no FORMAT line reads as RGBE
    bare = read_rgbe(data.replace(b"FORMAT=32-bit_rle_rgbe\n", b"EXPOSURE=1\n"))
    np.testing.assert_array_equal(bare.data, read_rgbe(data).data)


def test_write_rgbe_rejects_exponent_overflow(tmp_path):
    # mantissa 255 at exponent byte 255 is the largest code; a maximum of
    # RGBE_LIMIT rounds to mantissa 256 there, and 2^127 or more would wrap
    # the exponent byte (1.7e38 read back as 0, 3.4e38 as 2.9e-39)
    limit = np.float32(RGBE_LIMIT)
    below = np.nextafter(limit, np.float32(0))
    img = random_hdr(5, h=2, w=8)
    img.data[0, 2] = [below, below / 2, 0.0]
    np.testing.assert_array_equal(float_to_rgbe(img.data)[0, 2], [255, 128, 0, 255])
    assert write_rgbe(img) == oracle_write_rgbe(img)
    for big in (limit, np.float32(1.7e38), np.float32(3.4e38)):
        data = img.data.copy()
        data[1, 3, 1] = big
        with pytest.raises(ValueError, match="RGBE cannot encode"):
            write_rgbe(Image(data, LINEAR_HDR))
        with pytest.raises(ValueError, match="RGBE cannot encode"):
            write_image(tmp_path / "big.hdr", Image(data, LINEAR_HDR))
        assert not (tmp_path / "big.hdr").exists()
    # the encoder alone rejects +inf the same way, rather than coding it as 0
    with pytest.raises(ValueError, match="RGBE cannot encode"):
        float_to_rgbe(np.array([[[np.inf, 1.0, 1.0]]], np.float32))


# Oracle: the scalar RGBE reader, one code at a time into one scanline
# component, and its float conversion. read_rgbe must decode the same pixels,
# and raise ImageFormatError on exactly the inputs where the oracle raises.

def _oracle_require(cond, msg):
    if not cond:
        raise ImageFormatError(msg)


def oracle_rgbe_to_float(rgbe):
    scale = np.ldexp(1.0 / 256.0, rgbe[..., 3].astype(np.int32) - 128)
    out = rgbe[..., :3].astype(np.float32) * scale[..., None].astype(np.float32)
    out[rgbe[..., 3] == 0] = 0.0
    return out


def oracle_rle_decode_component(data, off, w, dest):
    pos = 0
    while pos < w:
        _oracle_require(off < len(data), "truncated RGBE scanline")
        code = data[off]
        off += 1
        if code > 128:
            run = code - 128
            _oracle_require(pos + run <= w, "RGBE run overflows scanline")
            _oracle_require(off < len(data), "truncated RGBE run value")
            dest[pos:pos + run] = data[off]
            off += 1
            pos += run
        else:
            _oracle_require(code > 0, "zero-length RGBE literal")
            _oracle_require(pos + code <= w, "RGBE literal overflows scanline")
            _oracle_require(off + code <= len(data), "truncated RGBE literal")
            dest[pos:pos + code] = np.frombuffer(data, np.uint8, code, off)
            off += code
            pos += code
    return off


def oracle_read_rgbe(data):
    _oracle_require(data.startswith(b"#?RADIANCE") or data.startswith(b"#?RGBE"),
                    "missing Radiance signature")
    _oracle_require(b"\n\n" in data, "unterminated Radiance header")
    off = data.index(b"\n\n") + 2
    res_end = data.find(b"\n", off)
    _oracle_require(res_end > 0, "missing resolution line")
    m = re.fullmatch(rb"-Y (\d+) \+X (\d+)", data[off:res_end])
    _oracle_require(m is not None, "unsupported resolution line")
    h, w = int(m.group(1)), int(m.group(2))
    _oracle_require(0 < w <= 1 << 20 and 0 < h <= 1 << 20, "bad RGBE dims")
    off = res_end + 1
    rgbe = np.empty((h, w, 4), dtype=np.uint8)
    for y in range(h):
        _oracle_require(off + 4 <= len(data), "truncated RGBE scanline header")
        head = data[off:off + 4]
        if head[0] == 2 and head[1] == 2 and (head[2] << 8 | head[3]) == w and w >= 8:
            off += 4
            row = np.empty((4, w), dtype=np.uint8)
            for comp in range(4):
                off = oracle_rle_decode_component(data, off, w, row[comp])
            rgbe[y] = row.T
        else:
            _oracle_require(off + 4 * w <= len(data), "truncated flat RGBE scanline")
            _oracle_require(head[0] != 1 or head[1] != 1 or head[2] != 1,
                            "old-style RLE scanlines are not supported")
            rgbe[y] = np.frombuffer(data, np.uint8, 4 * w, off).reshape(w, 4)
            off += 4 * w
    return oracle_rgbe_to_float(rgbe)


def test_rgbe_to_float_matches_scalar_conversion_on_every_code():
    m, e = np.meshgrid(np.arange(256), np.arange(256), indexing="ij")
    rgbe = np.stack([m, 255 - m, m // 3, e], axis=-1).astype(np.uint8)
    np.testing.assert_array_equal(rgbe_to_float(rgbe), oracle_rgbe_to_float(rgbe))
    # a strided view, as read_rgbe passes its transposed component planes
    planes = np.ascontiguousarray(rgbe.transpose(0, 2, 1))
    np.testing.assert_array_equal(rgbe_to_float(planes.transpose(0, 2, 1)),
                                  oracle_rgbe_to_float(rgbe))


def assert_reads_like_oracle(data):
    try:
        want = oracle_read_rgbe(data)
    except ImageFormatError:
        with pytest.raises(ImageFormatError):
            read_rgbe(data)
        return
    got = read_rgbe(data).data
    assert got.flags.c_contiguous
    np.testing.assert_array_equal(got, want)


def rgbe_file(w, rows):
    """A Radiance file and the offsets of its RLE code bytes.

    Each row is either the bytes of a flat scanline or four lists of pieces,
    one list per component: ("run", n, value) or ("lit", [values])."""
    out = bytearray(f"#?RADIANCE\nFORMAT=32-bit_rle_rgbe\n\n-Y {len(rows)} +X {w}\n".encode())
    codes = []
    for row in rows:
        if isinstance(row, bytes):
            out += row
            continue
        out += bytes((2, 2, w >> 8, w & 255))
        for pieces in row:
            for piece in pieces:
                codes.append(len(out))
                if piece[0] == "run":
                    out += bytes((128 + piece[1], piece[2]))
                else:
                    out.append(len(piece[1]))
                    out += bytes(piece[1])
    return bytes(out), codes


def filled(pieces, w, rng):
    """pieces, then random runs and literals up to width w."""
    pieces = list(pieces)
    pos = sum(p[1] if p[0] == "run" else len(p[1]) for p in pieces)
    while pos < w:
        if rng.random() < 0.5:
            n = int(rng.integers(1, min(127, w - pos) + 1))
            pieces.append(("run", n, int(rng.integers(0, 256))))
        else:
            n = int(rng.integers(1, min(128, w - pos) + 1))
            pieces.append(("lit", rng.integers(0, 256, n).tolist()))
        pos += n
    return pieces


def flat_row(rng, w):
    row = rng.integers(0, 256, 4 * w, dtype=np.uint8)
    row[0] = 3 + row[0] % 250  # neither a new-style nor an old-style RLE header
    return row.tobytes()


@pytest.mark.parametrize("w", [8, 9, 33, 480])
def test_read_rgbe_matches_scalar_reader_on_every_run_and_literal_length(w):
    # each component opens with one run of 1..127 or one literal of 1..128
    rng = np.random.default_rng(w)
    firsts = [("run", n, int(rng.integers(0, 256))) for n in range(1, min(127, w) + 1)]
    firsts += [("lit", rng.integers(0, 256, n).tolist()) for n in range(1, min(128, w) + 1)]
    rows = [[filled([firsts[(4 * i + c) % len(firsts)]], w, rng) for c in range(4)]
            for i in range(len(firsts) // 4 + 1)]
    data, _ = rgbe_file(w, rows)
    assert_reads_like_oracle(data)


@pytest.mark.parametrize("index_bytes", [1 << 20, 1])
@pytest.mark.parametrize("seed", range(8))
def test_read_rgbe_matches_scalar_reader_on_random_files(seed, index_bytes, monkeypatch):
    # a budget of 1 byte decodes one scanline per band, so bands that hold
    # only flat rows, or flat and RLE rows mixed, are decoded too
    monkeypatch.setattr(imgio, "_RGBE_INDEX_BYTES", index_bytes)
    rng = np.random.default_rng(seed)
    w = [8, 9, 33, 480][seed % 4]
    h = 150 if seed == 3 else int(rng.integers(1, 12))  # 150 rows span 3 default bands
    flat_share = [0.0, 0.3][seed % 2]
    rows = [flat_row(rng, w) if rng.random() < flat_share
            else [filled([], w, rng) for _ in range(4)] for _ in range(h)]
    data, _ = rgbe_file(w, rows)
    assert_reads_like_oracle(data)


def small_rle_file():
    rng = np.random.default_rng(7)
    w = 9
    rows = [[[("lit", [1, 2, 3]), ("run", 6, 140)], [("run", 9, 7)],
             [("lit", list(range(10, 19)))], [("run", 1, 5), ("lit", [9] * 8)]],
            flat_row(rng, w),
            [filled([], w, rng) for _ in range(4)]]
    return rgbe_file(w, rows)


def test_read_rgbe_matches_scalar_reader_on_every_truncation():
    data, _ = small_rle_file()
    assert_reads_like_oracle(data)
    for end in range(len(data)):
        assert_reads_like_oracle(data[:end])


@pytest.mark.parametrize("value", [0, 1, 128, 129, 255])
def test_read_rgbe_matches_scalar_reader_on_code_byte_mutations(value):
    data, codes = small_rle_file()
    for at in codes:
        assert_reads_like_oracle(data[:at] + bytes((value,)) + data[at + 1:])


def test_read_rgbe_rejects_a_zero_length_literal_between_valid_codes():
    # a 0 code inserted before any code of a valid file, and nothing else wrong
    data, codes = small_rle_file()
    for at in codes:
        bad = data[:at] + b"\0" + data[at:]
        for read in (oracle_read_rgbe, read_rgbe):
            with pytest.raises(ImageFormatError, match="zero-length"):
                read(bad)


@pytest.mark.parametrize("pieces", [
    [("lit", [1, 2, 3, 4, 5]), ("run", 5, 9)],
    [("run", 4, 9), ("lit", [1, 2, 3, 4, 5, 6])],
    [("run", 8, 9), ("run", 2, 9)],
])
def test_read_rgbe_rejects_a_code_crossing_a_component_boundary(pieces):
    # the last run or literal of the first component ends one byte past it
    rest = [("lit", [7] * 8)]
    data, _ = rgbe_file(9, [[pieces, rest, [("run", 9, 1)], [("run", 9, 128)]]])
    for read in (oracle_read_rgbe, read_rgbe):
        with pytest.raises(ImageFormatError, match="overflows"):
            read(data)


# ---------------------------------------------------------------------------
# PPM
# ---------------------------------------------------------------------------

def test_ppm_code_rounding():
    assert float_to_code(np.float32(0.5), 255) == 128
    assert float_to_code(np.float32(0.0), 255) == 0
    assert float_to_code(np.float32(1.0), 255) == 255
    assert float_to_code(np.float32(2.0), 255) == 255  # clipped
    assert float_to_code(np.float32(1.0 / 255), 255) == 1


def test_ppm_roundtrip_8bit():
    codes = np.random.default_rng(5).integers(0, 256, (9, 7, 3))
    img = Image((codes / 255.0).astype(np.float32), NONLINEAR_SDR)
    back = read_ppm(write_ppm(img))
    np.testing.assert_array_equal(np.rint(back.data * 255).astype(int), codes)
    assert back.domain == NONLINEAR_SDR


def test_ppm_roundtrip_16bit():
    # the writer writes 8-bit only; 16-bit files come from outside, so the
    # reader is fed hand-built big-endian bytes
    codes = np.array([[[0, 1, 257], [65535, 256, 32768]]])
    back = read_ppm(b"P6\n2 1\n65535\n" + codes.astype(">u2").tobytes())
    assert back.domain == NONLINEAR_SDR
    np.testing.assert_array_equal(back.data, codes.astype(np.float32) / np.float32(65535))
    np.testing.assert_array_equal(np.rint(back.data * 65535).astype(int), codes)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_write_ppm_rejects_non_finite_pixels(bad, tmp_path):
    data = np.full((2, 8, 3), 0.5, dtype=np.float32)
    data[1, 3, 2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        write_ppm(Image(data, NONLINEAR_SDR))
    with pytest.raises(ValueError, match="non-finite"):
        write_image(tmp_path / "bad.ppm", Image(data, NONLINEAR_SDR))
    assert not (tmp_path / "bad.ppm").exists()


def test_ppm_comments_and_whitespace():
    back = read_ppm(b"P6 # cmt\n# another comment\n 2 1\n255\n" + bytes(6))
    assert back.data.shape == (1, 2, 3)
    np.testing.assert_array_equal(back.data, 0.0)


def test_ppm_rejects_malformed():
    with pytest.raises(ImageFormatError, match="P6"):
        read_ppm(b"P5\n2 2\n255\n" + bytes(4))
    with pytest.raises(ImageFormatError, match="maxval"):
        read_ppm(b"P6\n2 2\n1234\n" + bytes(24))
    with pytest.raises(ImageFormatError, match="truncated"):
        read_ppm(b"P6\n2 2\n255\n" + bytes(5))
    with pytest.raises(ImageFormatError):
        read_ppm(b"P6\n-2 2\n255\n" + bytes(12))


# ---------------------------------------------------------------------------
# Dispatch, patches, stats
# ---------------------------------------------------------------------------

def test_read_write_dispatch(tmp_path):
    hdr = random_hdr(7, h=8, w=8)
    sdr = Image(np.clip(hdr.data / hdr.data.max(), 0, 1), NONLINEAR_SDR)
    for name, img in [("x.pfm", hdr), ("x.hdr", hdr), ("x.ppm", sdr)]:
        p = tmp_path / name
        write_image(p, img)
        assert read_image(p).data.shape == img.data.shape
    with pytest.raises(ImageFormatError):
        write_image(tmp_path / "x.png", hdr)
    with pytest.raises(ImageFormatError):
        read_image(tmp_path / "x.png")


def test_image_invariants():
    with pytest.raises(ValueError):
        Image(np.zeros((4, 4), dtype=np.float32), LINEAR_HDR)
    with pytest.raises(ValueError):
        Image(np.zeros((2, 2, 4), dtype=np.float32), LINEAR_HDR)
    with pytest.raises(ValueError):
        Image(np.zeros((2, 2, 3), dtype=np.float32), "weird")
    img = Image(np.zeros((2, 3, 3), dtype=np.float64))
    assert img.data.dtype == np.float32
    assert (img.width, img.height) == (3, 2)


def test_dataset_stats_exposure_fractions():
    # 100 pixels, 5 saturated, 10 crushed
    codes = np.full((10, 10, 3), 0.5, dtype=np.float32)
    codes[0, :5] = 1.0
    codes[1, :10] = 0.0
    report = dataset_stats([Image(codes, NONLINEAR_SDR)])
    assert float(report["over_mean"]) == pytest.approx(0.05)
    assert float(report["under_mean"]) == pytest.approx(0.10)
    assert report["images"] == 1
    assert report["resolutions"] == ["10x10"]
    with pytest.raises(ValueError):
        dataset_stats([])
    with pytest.raises(ValueError, match=LINEAR_HDR):
        dataset_stats([Image(codes, LINEAR_HDR)])


def test_dataset_stats_reads_any_iterable():
    rng = np.random.default_rng(3)
    images = [Image(rng.random((8, 9, 3)).astype(np.float32), NONLINEAR_SDR) for _ in range(3)]
    assert dataset_stats(img for img in images) == dataset_stats(images)
    assert dataset_stats(iter(images))["images"] == 3
    with pytest.raises(ValueError, match="at least one image"):
        dataset_stats(img for img in [])
