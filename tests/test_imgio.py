import numpy as np
import pytest

from hdrlite.imgio import (
    Image, ImageFormatError, LINEAR_HDR, NONLINEAR_SDR, dataset_stats,
    extract_patches, float_to_code, float_to_rgbe, read_image, read_pfm,
    read_ppm, read_rgbe, rgbe_to_float, write_image, write_pfm, write_ppm,
    write_rgbe, _rle_encode_scanlines,
)
from tests.conftest import make_hdr_scene


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
    codes = np.random.default_rng(6).integers(0, 65536, (5, 6, 3))
    img = Image((codes / 65535.0).astype(np.float32), NONLINEAR_SDR)
    back = read_ppm(write_ppm(img, bit_depth=16))
    np.testing.assert_array_equal(np.rint(back.data * 65535).astype(int), codes)


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


def test_extract_patches_shapes_and_determinism():
    img = make_hdr_scene(0, 64)
    p1 = extract_patches(img, 16, 4, np.random.default_rng(7))
    p2 = extract_patches(img, 16, 4, np.random.default_rng(7))
    assert len(p1) == 4
    for a, b in zip(p1, p2):
        assert a.data.shape == (16, 16, 3)
        np.testing.assert_array_equal(a.data, b.data)
    whole = extract_patches(img, 100, 2, np.random.default_rng(0))
    assert all(p.data.shape == (64, 64, 3) for p in whole)


def test_dataset_stats_exposure_fractions():
    # 100 pixels, 5 saturated, 10 crushed
    codes = np.full((10, 10, 3), 0.5, dtype=np.float32)
    codes[0, :5] = 1.0
    codes[1, :10] = 0.0
    report = dataset_stats([Image(codes, NONLINEAR_SDR)])
    assert report.over_mean == pytest.approx(0.05)
    assert report.under_mean == pytest.approx(0.10)
    assert report.count == 1
    kv = dict(line.split("=", 1) for line in report.to_kv().splitlines())
    assert float(kv["over_mean"]) == pytest.approx(0.05)
    assert "10x10" in report.to_text()
    with pytest.raises(ValueError):
        dataset_stats([])
