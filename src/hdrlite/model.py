"""Two-step HDR reconstruction network.

A local network (dense small-scale branch + 2-level masked encoder-decoder)
runs first, followed by a global pointwise-MLP network whose features are
modulated per channel by statistics pooled from the input prior.  Two soft
masks derived from the input split over-exposed pixels into a "valid
surroundings" band (fed to the spatial-modulation branch) and an "invalid
core" (excluded from encoder features via partial convolution).
"""
from __future__ import annotations

import io
import math
import struct
from dataclasses import dataclass

import numpy as np

from . import kvtext
from . import tensor as T
from .tensor import Tensor, _pool2

CHECKPOINT_MAGIC = b"LHDR"
CHECKPOINT_VERSION = 1

# The fixed architecture: a two-level encoder-decoder with one residual block
# per level, a four-layer global MLP channel-modulated after its second layer,
# masks that ramp from 0.9, and leaky ReLUs of slope 0.2.
UNET_LEVELS = 2
MASK_THRESHOLD = 0.9
LEAKY_SLOPE = 0.2
# Checkpoint header keys from when these choices were ModelConfig fields: a
# checkpoint that carries one loads only at the value the architecture fixes.
_RETIRED_KEYS = {"unet_levels": UNET_LEVELS, "unet_rb_per_level": 1,
                 "global_mlp_layers": 4, "mask_threshold": MASK_THRESHOLD,
                 "leaky_slope": LEAKY_SLOPE, "modulation_after_layer": 2}


@dataclass(frozen=True)
class ModelConfig:
    """The widths of the network, and the partial-conv ablation toggle."""
    dense_layers: int = 5
    dense_growth: int = 16
    unet_base_channels: int = 20
    groups: int = 4
    global_mlp_channels: int = 48
    use_partial_conv: bool = True

    def __post_init__(self):
        kvtext.check_types(self)
        for key in ("dense_layers", "dense_growth", "unet_base_channels", "groups",
                    "global_mlp_channels"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1, got {getattr(self, key)}")
        if self.unet_base_channels % self.groups:
            raise ValueError("unet_base_channels must be divisible by groups")


# ---------------------------------------------------------------------------
# Soft masks
# ---------------------------------------------------------------------------

def prior_scalar(prior) -> np.ndarray:
    """Reduce a (n,3,h,w) prior to one saturation score per pixel (max over RGB)."""
    p = np.clip(np.asarray(prior), 0.0, 1.0)
    return p.max(axis=1, keepdims=True)


def bright_valid_mask(p) -> np.ndarray:
    """0 below MASK_THRESHOLD, rising linearly to 1 at full saturation."""
    p = np.clip(np.asarray(p), 0.0, 1.0)
    return np.maximum(0.0, (p - MASK_THRESHOLD) / (1.0 - MASK_THRESHOLD))


def bright_invalid_mask(p) -> np.ndarray:
    """1 below MASK_THRESHOLD, falling linearly to 0 at full saturation."""
    p = np.clip(np.asarray(p), 0.0, 1.0)
    return np.minimum((p - 1.0) / (MASK_THRESHOLD - 1.0), 1.0)


# ---------------------------------------------------------------------------
# Layer inventory (single source of truth for weights, counts, serialization)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LayerInfo:
    """One "same" conv layer of the network."""
    name: str
    in_channels: int
    out_channels: int
    kernel: int
    groups: int = 1
    scale: int = 1  # spatial downsampling factor of the layer's output

    @property
    def weight_shape(self):
        return (self.out_channels, self.in_channels // self.groups, self.kernel, self.kernel)

    @property
    def weight_count(self) -> int:
        return int(np.prod(self.weight_shape))


def _rb_layers(cfg: ModelConfig, prefix: str, ch: int, scale: int, sft: bool):
    out = []
    if sft:
        out.append(LayerInfo(f"{prefix}.sft0", 3, ch, 1, scale=scale))
        out.append(LayerInfo(f"{prefix}.sft1", ch, 2 * ch, 1, scale=scale))
    out.append(LayerInfo(f"{prefix}.conv1", ch, ch, 3, scale=scale))
    out.append(LayerInfo(f"{prefix}.conv2", ch, ch, 3, groups=cfg.groups, scale=scale))
    return out


def layer_table(cfg: ModelConfig) -> list[LayerInfo]:
    """Every conv layer of the network, in serialization order."""
    layers: list[LayerInfo] = []
    C = cfg.unet_base_channels
    G = cfg.global_mlp_channels

    # local net: dense small-scale branch
    for i in range(cfg.dense_layers):
        layers.append(LayerInfo(f"local.dense{i}", 3 + i * cfg.dense_growth, cfg.dense_growth, 3))

    # local net: encoder-decoder branch
    layers.append(LayerInfo("local.head", 3, C, 3))
    for lvl in range(UNET_LEVELS):
        ch, sc = C << lvl, 1 << lvl
        layers += _rb_layers(cfg, f"local.enc{lvl}.rb0", ch, sc, sft=not cfg.use_partial_conv)
        layers.append(LayerInfo(f"local.down{lvl}", ch, 2 * ch, 3, scale=sc * 2))
    mid_ch, mid_sc = C << UNET_LEVELS, 1 << UNET_LEVELS
    layers += _rb_layers(cfg, "local.mid.rb0", mid_ch, mid_sc, sft=False)
    for lvl in reversed(range(UNET_LEVELS)):
        ch, sc = C << lvl, 1 << lvl
        layers.append(LayerInfo(f"local.up{lvl}", 2 * ch, ch, 3, scale=sc))
        layers.append(LayerInfo(f"local.skip{lvl}", 2 * ch, ch, 1, scale=sc))
        layers += _rb_layers(cfg, f"local.dec{lvl}.rb0", ch, sc, sft=True)
    layers.append(LayerInfo("local.fuse", cfg.dense_layers * cfg.dense_growth + C, 3, 1))

    # global net: pointwise MLP plus modulation branch
    layers += [LayerInfo("global.mlp0", 3, G, 1), LayerInfo("global.mlp1", G, G, 1),
               LayerInfo("global.mlp2", G, G, 1), LayerInfo("global.mlp3", G, 3, 1),
               LayerInfo("global.mod0", 3, G, 1), LayerInfo("global.mod1", G, 2 * G, 1)]
    return layers


def count_params(cfg: ModelConfig) -> int:
    return sum(li.weight_count + li.out_channels for li in layer_table(cfg))


def count_macs(cfg: ModelConfig, h: int, w: int) -> int:
    """Nominal multiply-accumulate count of the layer table at h x w, each
    layer at the size layer_breakdown gives it.  The forward runs fewer:
    global.mod1 on one pooled pixel, and local.up* with 4 of the 9 taps."""
    return sum(macs for _, _, macs in layer_breakdown(cfg, h, w))


def layer_breakdown(cfg: ModelConfig, h: int, w: int):
    """(name, params, nominal macs; see count_macs) per layer, at the size
    the forward pass runs it: local layers on the frame reflect-padded to a
    multiple of 2**UNET_LEVELS, global layers on the unpadded frame."""
    mult = 1 << UNET_LEVELS
    padded = (-(-h // mult) * mult, -(-w // mult) * mult)
    rows = []
    for li in layer_table(cfg):
        fh, fw = padded if li.name.startswith("local.") else (h, w)
        macs = (fh // li.scale) * (fw // li.scale) * li.weight_count
        rows.append((li.name, li.weight_count + li.out_channels, macs))
    return rows


# ---------------------------------------------------------------------------
# Weights and forward passes
# ---------------------------------------------------------------------------

class Network:
    """Configuration plus named weight tensors, with forward evaluation."""

    def __init__(self, cfg: ModelConfig, weights: dict[str, Tensor]):
        self.cfg = cfg
        self.layers = {li.name: li for li in layer_table(cfg)}
        expected = {f"{name}.{kind}" for name in self.layers for kind in ("weight", "bias")}
        if set(weights) != expected:
            raise ValueError(f"weight names do not match the layer table: "
                             f"extra={set(weights) - expected}, missing={expected - set(weights)}")
        for name, li in self.layers.items():
            w = weights[f"{name}.weight"]
            if w.shape != li.weight_shape:
                raise ValueError(f"{name}: weight shape {w.shape} != {li.weight_shape}")
            b = weights[f"{name}.bias"]
            if b.shape != (1, li.out_channels, 1, 1):
                raise ValueError(f"{name}: bad bias shape {b.shape}")
        self.weights = weights

    def conv(self, name: str, x, *, act: bool = False, shift: Tensor | None = None) -> Tensor:
        """The named conv layer on x, plus shift (3x3 layers only), followed by
        the leaky ReLU when act is set, fused into the op.  A 1x1 layer runs
        as one T._pointwise_mlp step, on x or on a list of tensors read as
        their channel concat.  local.up* take the low-resolution input of the
        nearest 2x upsampling they follow and run on it, as T._up2_conv."""
        li = self.layers[name]
        weight, bias, slope = self._step(name, act=act)
        if li.kernel == 1:
            return T._pointwise_mlp(x, [(weight, bias, slope)])
        if name.startswith("local.up"):
            return T._up2_conv(x, weight, bias, slope=slope)
        return T.conv2d(x, weight, bias, groups=li.groups, slope=slope, shift=shift)

    def pconv(self, name: str, x: Tensor, mask, *, shift: Tensor | None = None):
        weight, bias, slope = self._step(name, act=True)
        return T.partial_conv(x, mask, weight, bias, groups=self.layers[name].groups,
                              slope=slope, shift=shift)

    def _step(self, name: str, *, act: bool = False):
        """The named layer's (weight, bias, slope), with slope set for the
        leaky ReLU when act is: a step of T._pointwise_mlp for a 1x1 layer."""
        return (self.weights[f"{name}.weight"], self.weights[f"{name}.bias"],
                LEAKY_SLOPE if act else None)

    def _rb(self, prefix: str, h: Tensor, *, mask=None, mprior: Tensor | None = None):
        """The residual block _rb_layers declares, as (output, mask).  h is
        SFT-modulated by mprior when one is given (sft0, sft1 and h * alpha +
        beta as one banded op, so sft1's 2c-channel map is never built),
        conv1 and conv2 run as partial convs when mask is given (the mask
        they update is returned), and the block's output leaky_relu(h + y)
        is conv2's node: h is its shift, added before its activation."""
        y = h
        if mprior is not None:
            y = T._pointwise_mlp(mprior, [self._step(f"{prefix}.sft0", act=True),
                                          self._step(f"{prefix}.sft1")], into=h)
        if mask is None:
            y = self.conv(f"{prefix}.conv1", y, act=True)
            return self.conv(f"{prefix}.conv2", y, act=True, shift=h), mask
        y, mask = self.pconv(f"{prefix}.conv1", y, mask)
        return self.pconv(f"{prefix}.conv2", y, mask, shift=h)

    # -- sub-networks --------------------------------------------------------

    def global_forward(self, x: Tensor, prior: Tensor) -> Tensor:
        """The global network on one image (a batch of one, as forward
        takes): two banded pointwise ops, so no 48-channel plane is built
        over the frame.  mod0's spatial mean is summed band by band; mod1 is
        a 1x1 conv with bias, which commutes with the spatial mean, so it
        runs on the pooled mod0 features.  Its halves alpha and beta
        modulate mlp1's output per channel, constant over the image, so they
        fold into mlp2: mlp2(h * alpha + beta) is the 1x1 conv with weight
        W2 diag(alpha) and bias W2 beta + b2 (a conv over one pixel)."""
        if x.shape[0] != 1 or prior.shape[0] != 1:
            raise ValueError(f"the global net runs on one image, got {x.shape} and {prior.shape}")
        G = self.cfg.global_mlp_channels
        m = T._pointwise_mlp(prior, [self._step("global.mod0", act=True)], pool=True)
        m = self.conv("global.mod1", m)
        w2, b2 = self.weights["global.mlp2.weight"], self.weights["global.mlp2.bias"]
        mlp2 = (T.mul(w2, T.narrow_channels(m, 0, G)),
                T._pointwise_mlp(T.narrow_channels(m, G, G), [(w2, b2, None)]), LEAKY_SLOPE)
        h = T._pointwise_mlp(x, [self._step("global.mlp0", act=True),
                                 self._step("global.mlp1", act=True), mlp2,
                                 self._step("global.mlp3")])
        return T.relu(h)

    def local_forward(self, x: Tensor) -> Tensor:
        """The local network; its masks and SFT priors come from x itself."""
        cfg = self.cfg
        h0, w0 = x.shape[2:]
        mult = 1 << UNET_LEVELS
        x = T.pad_reflect(x, (-h0) % mult, (-w0) % mult)
        pr = np.clip(x.data, 0.0, 1.0)
        p = prior_scalar(pr)

        # the masked prior of each level whose SFT blocks read it
        mp_levels = [pr * bright_valid_mask(p)]
        for _ in range(UNET_LEVELS - 1):
            mp_levels.append(_pool2(mp_levels[-1]))
        mp_levels = [Tensor(m.astype(x.dtype)) for m in mp_levels]

        # encoder-decoder branch, run before the dense branch so that its
        # activations and the dense features are never alive at once; each
        # skip is dropped as soon as it is consumed
        hT = self.conv("local.head", x, act=True)
        mask = bright_invalid_mask(p).astype(x.dtype) if cfg.use_partial_conv else None
        skips = []
        for lvl in range(UNET_LEVELS):
            if lvl and mask is not None:  # the mask at this level's resolution
                mask = _pool2(mask)
            hT, mask = self._rb(f"local.enc{lvl}.rb0", hT, mask=mask,
                                mprior=None if cfg.use_partial_conv else mp_levels[lvl])
            skips.append(hT)
            hT = self.conv(f"local.down{lvl}", T.down2(hT), act=True)
        hT, _ = self._rb("local.mid.rb0", hT)
        for lvl in reversed(range(UNET_LEVELS)):
            hT = self.conv(f"local.up{lvl}", hT, act=True)  # conv of up2(hT)
            hT = self.conv(f"local.skip{lvl}", [hT, skips.pop()], act=True)
            hT, _ = self._rb(f"local.dec{lvl}.rb0", hT, mprior=mp_levels[lvl])

        # local.fuse reads the channel concat of the dense outputs and hT.
        # Its hT part runs first, so hT is freed before the dense features
        # exist, and its dense part, with no bias, is added to it before the
        # leaky ReLU, on 3 channels
        dense_ch = cfg.dense_layers * cfg.dense_growth
        w_fuse, b_fuse, _ = self._step("local.fuse")
        out = T._pointwise_mlp(hT, [(T.narrow_channels(w_fuse, dense_ch, hT.shape[1]),
                                     b_fuse, None)])
        del hT
        # dense branch: every layer reads the channel concat of the input and
        # all earlier outputs, each part gathered once
        names = [f"local.dense{i}" for i in range(cfg.dense_layers)]
        dense = T._dense_block(x, [self.weights[f"{n}.weight"] for n in names],
                               [self.weights[f"{n}.bias"] for n in names], slope=LEAKY_SLOPE)
        w_dense = T.narrow_channels(w_fuse, 0, dense_ch)
        out = T.add(T._pointwise_mlp(dense, [(w_dense, None, None)]), out)
        return T.crop(T.leaky_relu(out, LEAKY_SLOPE), 0, 0, h0, w0)

    def forward(self, x: Tensor) -> Tensor:
        """Full two-step pass on one image (a batch of one: the global net's
        modulation folds into mlp2's weights per image): local first, then
        global; prior is the input itself."""
        if x.shape[:2] != (1, 3):
            raise ValueError(f"network input must be shaped (1, 3, h, w), got {x.shape}")
        h, w = x.shape[2:]
        if min(h, w) < 3:  # a side of 1 or 2 px cannot be reflect-padded to 4
            raise ValueError(f"a {w}x{h} frame is too small: the network needs at least 3x3")
        y = self.local_forward(x)
        return self.global_forward(y, x)


# ---------------------------------------------------------------------------
# Checkpoint serialization
# ---------------------------------------------------------------------------

def save_checkpoint(path, net: Network, extra: dict | None = None):
    """Binary layout: magic, u16 version, length-prefixed config text, then
    per-tensor records (u32 name length, name, 4 x u32 dims, f32-LE data)."""
    buf = io.BytesIO()
    buf.write(CHECKPOINT_MAGIC)
    buf.write(struct.pack("<H", CHECKPOINT_VERSION))
    cfg_bytes = (kvtext.dumps(net.cfg) + kvtext.dumps(extra or {})).encode("utf-8")
    buf.write(struct.pack("<I", len(cfg_bytes)))
    buf.write(cfg_bytes)
    names = sorted(net.weights)
    buf.write(struct.pack("<I", len(names)))
    for name in names:
        t = net.weights[name]
        nb = name.encode("utf-8")
        buf.write(struct.pack("<I", len(nb)))
        buf.write(nb)
        buf.write(struct.pack("<4I", *t.shape))
        buf.write(t.data.astype("<f4").tobytes())
    data = buf.getvalue()
    with open(path, "wb") as f:
        f.write(data)
    return len(data)


def load_checkpoint(path):
    """Returns (Network, extra key/value dict)."""
    with open(path, "rb") as f:
        data = f.read()
    off = 0

    def take(n, what="checkpoint"):
        nonlocal off
        if off + n > len(data):
            raise ValueError(f"truncated {what}")
        chunk = data[off:off + n]
        off += n
        return chunk

    def take_text(n, what):
        try:
            return take(n).decode("utf-8")
        except UnicodeDecodeError as e:
            raise ValueError(f"{what} is not UTF-8 text (byte {e.start})") from None

    if take(4) != CHECKPOINT_MAGIC:
        raise ValueError("not a checkpoint file (bad magic)")
    (version,) = struct.unpack("<H", take(2))
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    (cfg_len,) = struct.unpack("<I", take(4))
    cfg, extra = kvtext.loads(ModelConfig, take_text(cfg_len, "checkpoint header"))
    for key, value in _RETIRED_KEYS.items():
        text = extra.pop(key, str(value))
        if text != str(value):
            raise ValueError(f"{key}={text}: the architecture fixes {key} at {value}")
    (count,) = struct.unpack("<I", take(4))
    weights = {}
    for i in range(count):
        (name_len,) = struct.unpack("<I", take(4))
        name = take_text(name_len, f"the name of checkpoint record {i}")
        if name in weights:
            raise ValueError(f"duplicate checkpoint record {name!r}")
        dims = struct.unpack("<4I", take(16))
        raw = take(4 * math.prod(dims), f"checkpoint record {name!r}")
        arr = np.frombuffer(raw, dtype="<f4").reshape(dims)
        if not np.isfinite(arr).all():
            raise ValueError(f"checkpoint record {name!r} holds a NaN or inf value")
        weights[name] = Tensor(arr.astype(np.float32))
    if off != len(data):
        raise ValueError("trailing bytes after last checkpoint record")
    return Network(cfg, weights), extra
