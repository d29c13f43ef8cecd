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
import struct
from dataclasses import dataclass, fields, replace

import numpy as np

from . import tensor as T
from .tensor import ConvSpec, Tensor, _pool2

CHECKPOINT_MAGIC = b"LHDR"
CHECKPOINT_VERSION = 1


@dataclass
class ModelConfig:
    dense_layers: int = 5
    dense_growth: int = 16
    unet_levels: int = 2
    unet_base_channels: int = 20
    unet_rb_per_level: int = 1
    groups: int = 4
    global_mlp_channels: int = 48
    global_mlp_layers: int = 4
    mask_threshold: float = 0.9
    leaky_slope: float = 0.2
    use_partial_conv: bool = True
    modulation_after_layer: int = 2

    def validate(self):
        if not 0.0 < self.mask_threshold < 1.0:
            raise ValueError(f"mask_threshold must lie in (0,1), got {self.mask_threshold}")
        if not 0.0 < self.leaky_slope < 1.0:
            raise ValueError(f"leaky_slope must lie in (0,1), got {self.leaky_slope}")
        if self.unet_base_channels % self.groups:
            raise ValueError("unet_base_channels must be divisible by groups")
        if not 1 <= self.modulation_after_layer < self.global_mlp_layers:
            raise ValueError("modulation_after_layer must leave at least one MLP layer after it")
        for f in ("dense_layers", "unet_levels", "unet_rb_per_level", "global_mlp_layers"):
            if getattr(self, f) < 1:
                raise ValueError(f"{f} must be >= 1")


# ---------------------------------------------------------------------------
# Soft masks
# ---------------------------------------------------------------------------

def prior_scalar(prior) -> np.ndarray:
    """Reduce a (n,3,h,w) prior to one saturation score per pixel (max over RGB)."""
    p = np.clip(np.asarray(prior), 0.0, 1.0)
    return p.max(axis=1, keepdims=True)


def bright_valid_mask(p, t: float = 0.9) -> np.ndarray:
    """0 below the threshold, rising linearly to 1 at full saturation."""
    p = np.clip(np.asarray(p), 0.0, 1.0)
    return np.maximum(0.0, (p - t) / (1.0 - t))


def bright_invalid_mask(p, t: float = 0.9) -> np.ndarray:
    """1 below the threshold, falling linearly to 0 at full saturation."""
    p = np.clip(np.asarray(p), 0.0, 1.0)
    return np.minimum((p - 1.0) / (t - 1.0), 1.0)


# ---------------------------------------------------------------------------
# Modulation
# ---------------------------------------------------------------------------

def channel_modulation(x: Tensor, alpha: Tensor, beta: Tensor) -> Tensor:
    """Per-channel affine: alpha and beta are (n,c,1,1)."""
    if alpha.shape[1] != x.shape[1] or beta.shape[1] != x.shape[1]:
        raise ValueError(f"modulation channels {alpha.shape[1]} do not match input {x.shape[1]}")
    return T.add(T.mul(x, alpha), beta)


def sft_modulation(x: Tensor, alpha_map: Tensor, beta_map: Tensor) -> Tensor:
    """Per-pixel affine: alpha_map and beta_map share x's full shape."""
    if alpha_map.shape != x.shape or beta_map.shape != x.shape:
        raise ValueError(f"SFT map shape must equal input shape {x.shape}")
    return T.add(T.mul(x, alpha_map), beta_map)


# ---------------------------------------------------------------------------
# Layer inventory (single source of truth for weights, counts, serialization)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LayerInfo:
    name: str
    spec: ConvSpec
    scale: int  # spatial downsampling factor of the layer's output


def _rb_layers(cfg: ModelConfig, prefix: str, ch: int, scale: int, sft: bool):
    out = []
    if sft:
        out.append(LayerInfo(f"{prefix}.sft0", ConvSpec(3, ch, 1), scale))
        out.append(LayerInfo(f"{prefix}.sft1", ConvSpec(ch, 2 * ch, 1), scale))
    out.append(LayerInfo(f"{prefix}.conv1", ConvSpec(ch, ch, 3, padding=1), scale))
    out.append(LayerInfo(f"{prefix}.conv2", ConvSpec(ch, ch, 3, padding=1, groups=cfg.groups), scale))
    return out


def layer_table(cfg: ModelConfig) -> list[LayerInfo]:
    """Every conv layer of the network, in serialization order."""
    cfg.validate()
    layers: list[LayerInfo] = []
    C = cfg.unet_base_channels
    G = cfg.global_mlp_channels

    # local net: dense small-scale branch
    for i in range(cfg.dense_layers):
        layers.append(LayerInfo(f"local.dense{i}",
                                ConvSpec(3 + i * cfg.dense_growth, cfg.dense_growth, 3, padding=1), 1))

    # local net: encoder-decoder branch
    layers.append(LayerInfo("local.head", ConvSpec(3, C, 3, padding=1), 1))
    for lvl in range(cfg.unet_levels):
        ch, sc = C << lvl, 1 << lvl
        for r in range(cfg.unet_rb_per_level):
            layers += _rb_layers(cfg, f"local.enc{lvl}.rb{r}", ch, sc, sft=not cfg.use_partial_conv)
        layers.append(LayerInfo(f"local.down{lvl}", ConvSpec(ch, 2 * ch, 3, padding=1), sc * 2))
    mid_ch, mid_sc = C << cfg.unet_levels, 1 << cfg.unet_levels
    layers += _rb_layers(cfg, "local.mid.rb0", mid_ch, mid_sc, sft=False)
    for lvl in reversed(range(cfg.unet_levels)):
        ch, sc = C << lvl, 1 << lvl
        layers.append(LayerInfo(f"local.up{lvl}", ConvSpec(2 * ch, ch, 3, padding=1), sc))
        layers.append(LayerInfo(f"local.skip{lvl}", ConvSpec(2 * ch, ch, 1), sc))
        for r in range(cfg.unet_rb_per_level):
            layers += _rb_layers(cfg, f"local.dec{lvl}.rb{r}", ch, sc, sft=True)
    layers.append(LayerInfo("local.fuse",
                            ConvSpec(cfg.dense_layers * cfg.dense_growth + C, 3, 1), 1))

    # global net: pointwise MLP plus modulation branch
    for i in range(cfg.global_mlp_layers):
        ic = 3 if i == 0 else G
        oc = 3 if i == cfg.global_mlp_layers - 1 else G
        layers.append(LayerInfo(f"global.mlp{i}", ConvSpec(ic, oc, 1), 1))
    layers.append(LayerInfo("global.mod0", ConvSpec(3, G, 1), 1))
    layers.append(LayerInfo("global.mod1", ConvSpec(G, 2 * G, 1), 1))
    return layers


def count_params(cfg: ModelConfig) -> int:
    return sum(li.spec.weight_count + li.spec.bias_count for li in layer_table(cfg))


def count_macs(cfg: ModelConfig, h: int, w: int) -> int:
    """Multiply-accumulate count of the convs one forward pass at h x w runs."""
    return sum(macs for _, _, macs in layer_breakdown(cfg, h, w))


def layer_breakdown(cfg: ModelConfig, h: int, w: int):
    """(name, params, macs) per layer, at the size the forward pass runs it:
    local layers on the frame reflect-padded to a multiple of
    2**unet_levels, global layers on the unpadded frame."""
    mult = 1 << cfg.unet_levels
    padded = (-(-h // mult) * mult, -(-w // mult) * mult)
    rows = []
    for li in layer_table(cfg):
        s = li.spec
        fh, fw = padded if li.name.startswith("local.") else (h, w)
        macs = (fh // li.scale) * (fw // li.scale) * s.out_channels \
            * (s.in_channels // s.groups) * s.kernel ** 2
        rows.append((li.name, s.weight_count + s.bias_count, macs))
    return rows


# ---------------------------------------------------------------------------
# Weights and forward passes
# ---------------------------------------------------------------------------

class Network:
    """Configuration plus named weight tensors, with forward evaluation."""

    def __init__(self, cfg: ModelConfig, weights: dict[str, Tensor]):
        cfg.validate()
        self.cfg = cfg
        self.layers = {li.name: li for li in layer_table(cfg)}
        expected = {f"{name}.{kind}" for name in self.layers for kind in ("weight", "bias")}
        if set(weights) != expected:
            raise ValueError(f"weight names do not match the layer table: "
                             f"extra={set(weights) - expected}, missing={expected - set(weights)}")
        for name, li in self.layers.items():
            w = weights[f"{name}.weight"]
            if w.shape != li.spec.weight_shape:
                raise ValueError(f"{name}: weight shape {w.shape} != {li.spec.weight_shape}")
            b = weights[f"{name}.bias"]
            if b.shape != (1, li.spec.out_channels, 1, 1):
                raise ValueError(f"{name}: bad bias shape {b.shape}")
        self.weights = weights

    @classmethod
    def zeros(cls, cfg: ModelConfig, dtype=np.float32, requires_grad: bool = False):
        weights = {}
        for li in layer_table(cfg):
            weights[f"{li.name}.weight"] = Tensor(
                np.zeros(li.spec.weight_shape, dtype=dtype), requires_grad)
            weights[f"{li.name}.bias"] = Tensor(
                np.zeros((1, li.spec.out_channels, 1, 1), dtype=dtype), requires_grad)
        return cls(cfg, weights)

    def conv(self, name: str, x: Tensor, *, bias: bool = True) -> Tensor:
        li = self.layers[name]
        b = self.weights[f"{name}.bias"] if bias else None
        return T.conv2d(x, self.weights[f"{name}.weight"], b,
                        padding=li.spec.padding, groups=li.spec.groups)

    def pconv(self, name: str, x: Tensor, mask):
        li = self.layers[name]
        return T.partial_conv(x, mask, self.weights[f"{name}.weight"],
                              self.weights[f"{name}.bias"],
                              padding=li.spec.padding, groups=li.spec.groups)

    def lrelu(self, x: Tensor) -> Tensor:
        return T.leaky_relu(x, self.cfg.leaky_slope)

    # -- residual blocks -----------------------------------------------------

    def _pconv_rb(self, prefix: str, h: Tensor, mask):
        y, m = self.pconv(f"{prefix}.conv1", h, mask)
        y = self.lrelu(y)
        y, m = self.pconv(f"{prefix}.conv2", y, m)
        return self.lrelu(T.add(h, y)), m

    def _plain_rb(self, prefix: str, h: Tensor) -> Tensor:
        y = self.lrelu(self.conv(f"{prefix}.conv1", h))
        y = self.conv(f"{prefix}.conv2", y)
        return self.lrelu(T.add(h, y))

    def _sft_rb(self, prefix: str, h: Tensor, mprior: Tensor) -> Tensor:
        ch = h.shape[1]
        s = self.lrelu(self.conv(f"{prefix}.sft0", mprior))
        s = self.conv(f"{prefix}.sft1", s)
        alpha = T.narrow_channels(s, 0, ch)
        beta = T.narrow_channels(s, ch, ch)
        y = sft_modulation(h, alpha, beta)
        y = self.lrelu(self.conv(f"{prefix}.conv1", y))
        y = self.conv(f"{prefix}.conv2", y)
        return self.lrelu(T.add(h, y))

    # -- sub-networks --------------------------------------------------------

    def global_forward(self, x: Tensor, prior: Tensor) -> Tensor:
        cfg = self.cfg
        m = self.lrelu(self.conv("global.mod0", prior))
        m = self.conv("global.mod1", m)
        m = T.global_avg_pool(m)
        G = cfg.global_mlp_channels
        alpha = T.narrow_channels(m, 0, G)
        beta = T.narrow_channels(m, G, G)
        h = x
        for i in range(cfg.global_mlp_layers):
            h = self.conv(f"global.mlp{i}", h)
            if i == cfg.global_mlp_layers - 1:
                h = T.relu(h)
            else:
                h = self.lrelu(h)
                if i + 1 == cfg.modulation_after_layer:
                    h = channel_modulation(h, alpha, beta)
        return h

    def local_forward(self, x: Tensor, prior: Tensor) -> Tensor:
        cfg = self.cfg
        n, c, h0, w0 = x.shape
        mult = 1 << cfg.unet_levels
        ph = (-h0) % mult
        pw = (-w0) % mult
        if ph or pw:
            x = T.pad_reflect(x, ph, pw)
        pr = np.clip(prior.data, 0.0, 1.0)
        if pr.shape[2:] != x.shape[2:]:
            pr = np.pad(pr, ((0, 0), (0, 0), (0, x.shape[2] - pr.shape[2]),
                             (0, x.shape[3] - pr.shape[3])), mode="reflect")
        p = prior_scalar(pr)
        t = cfg.mask_threshold
        invalid = bright_invalid_mask(p, t)
        masked_prior = pr * bright_valid_mask(p, t)

        # level-wise constant inputs for SFT branches / partial-conv gating
        mp_levels = [masked_prior]
        for _ in range(cfg.unet_levels):
            mp_levels.append(_pool2(mp_levels[-1]))
        mp_levels = [Tensor(m.astype(x.dtype)) for m in mp_levels]

        # dense branch
        feats = [x]
        outs = []
        for i in range(cfg.dense_layers):
            inp = feats[0] if len(feats) == 1 else T.concat_channels(*feats)
            d = self.lrelu(self.conv(f"local.dense{i}", inp))
            feats.append(d)
            outs.append(d)
        dense_out = T.concat_channels(*outs) if len(outs) > 1 else outs[0]

        # encoder-decoder branch
        hT = self.lrelu(self.conv("local.head", x))
        mask = invalid.astype(x.dtype)
        skips = []
        for lvl in range(cfg.unet_levels):
            for r in range(cfg.unet_rb_per_level):
                if cfg.use_partial_conv:
                    hT, mask = self._pconv_rb(f"local.enc{lvl}.rb{r}", hT, mask)
                else:
                    hT = self._sft_rb(f"local.enc{lvl}.rb{r}", hT, mp_levels[lvl])
            skips.append(hT)
            hT = self.lrelu(self.conv(f"local.down{lvl}", T.down2(hT)))
            mask = _pool2(mask)
        hT = self._plain_rb("local.mid.rb0", hT)
        for lvl in reversed(range(cfg.unet_levels)):
            hT = self.lrelu(self.conv(f"local.up{lvl}", T.up2(hT)))
            hT = self.lrelu(self.conv(f"local.skip{lvl}", T.concat_channels(hT, skips[lvl])))
            for r in range(cfg.unet_rb_per_level):
                hT = self._sft_rb(f"local.dec{lvl}.rb{r}", hT, mp_levels[lvl])

        out = self.lrelu(self.conv("local.fuse", T.concat_channels(dense_out, hT)))
        if ph or pw:
            out = T.crop(out, 0, 0, h0, w0)
        return out

    def forward(self, x: Tensor) -> Tensor:
        """Full two-step pass: local first, then global; prior is the input itself."""
        if x.shape[1] != 3:
            raise ValueError(f"network input must have 3 channels, got {x.shape}")
        y = self.local_forward(x, x)
        return self.global_forward(y, x)


# ---------------------------------------------------------------------------
# Checkpoint serialization
# ---------------------------------------------------------------------------

def _config_text(cfg: ModelConfig, extra: dict | None = None) -> bytes:
    lines = [f"{f.name}={getattr(cfg, f.name)}" for f in fields(cfg)]
    for k, v in (extra or {}).items():
        lines.append(f"{k}={v}")
    return ("\n".join(lines) + "\n").encode("utf-8")


_BOOL_WORDS = {"true": True, "1": True, "yes": True,
               "false": False, "0": False, "no": False}


def _parse_config_text(text: str):
    raw = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"malformed config line: {line!r}")
        k, v = line.split("=", 1)
        raw[k.strip()] = v.strip()
    kwargs = {}
    for f in fields(ModelConfig):
        if f.name not in raw:
            continue
        v = raw.pop(f.name)
        if f.type == "bool":
            if v.lower() not in _BOOL_WORDS:
                raise ValueError(f"{f.name} must be one of true/false/1/0/yes/no, got {v!r}")
            kwargs[f.name] = _BOOL_WORDS[v.lower()]
        elif f.type == "int":
            kwargs[f.name] = int(v)
        elif f.type == "float":
            kwargs[f.name] = float(v)
        else:
            kwargs[f.name] = v
    return ModelConfig(**kwargs), raw


def save_checkpoint(path, net: Network, extra: dict | None = None):
    """Binary layout: magic, u16 version, length-prefixed config text, then
    per-tensor records (u32 name length, name, 4 x u32 dims, f32-LE data)."""
    buf = io.BytesIO()
    buf.write(CHECKPOINT_MAGIC)
    buf.write(struct.pack("<H", CHECKPOINT_VERSION))
    cfg_bytes = _config_text(net.cfg, extra)
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


def load_checkpoint(path, requires_grad: bool = False):
    """Returns (Network, extra key/value dict)."""
    with open(path, "rb") as f:
        data = f.read()
    off = 0

    def take(n):
        nonlocal off
        if off + n > len(data):
            raise ValueError("truncated checkpoint")
        chunk = data[off:off + n]
        off += n
        return chunk

    if take(4) != CHECKPOINT_MAGIC:
        raise ValueError("not a checkpoint file (bad magic)")
    (version,) = struct.unpack("<H", take(2))
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    (cfg_len,) = struct.unpack("<I", take(4))
    cfg, extra = _parse_config_text(take(cfg_len).decode("utf-8"))
    (count,) = struct.unpack("<I", take(4))
    weights = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<I", take(4))
        name = take(name_len).decode("utf-8")
        dims = struct.unpack("<4I", take(16))
        size = int(np.prod(dims))
        arr = np.frombuffer(take(4 * size), dtype="<f4").reshape(dims)
        weights[name] = Tensor(arr.astype(np.float32), requires_grad)
    if off != len(data):
        raise ValueError("trailing bytes after last checkpoint record")
    return Network(cfg, weights), extra


def ablation_config(cfg: ModelConfig, which: str) -> ModelConfig:
    """Named toggles: 'no_partial_conv' swaps masked encoder blocks for SFT
    blocks, 'no_group_conv' sets groups=1."""
    if which == "no_partial_conv":
        return replace(cfg, use_partial_conv=False)
    if which == "no_group_conv":
        return replace(cfg, groups=1)
    raise ValueError(f"unknown ablation {which!r}")
