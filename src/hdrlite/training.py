"""Desk-scale supervised training loop.

Targets are linear HDR images normalized by their own maximum and lifted to
a gamma-0.45 domain; the loss is mean absolute error plus a 0.1-weighted
mean absolute error on forward-difference gradient maps.  Optimization is
Adam with a halving learning-rate schedule.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import kvtext
from . import tensor as T
from .degrade import DegradationConfig, conventional_degrade
from .imgio import Image, NONLINEAR_SDR
from .model import ModelConfig, Network, layer_table
from .tensor import Tensor

# Fixed settings of the training objective and the optimizer.  GAMMA is the
# exponent of the one prediction domain: training lifts labels to it,
# inference and the metrics invert or compare in it.
GAMMA = 0.45
LOSS_GRAD_WEIGHT = 0.1
LR_HALF_EVERY = 250_000
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    lr0: float = 2e-4
    patch_size: int = 64
    max_iters: int = 500
    seed: int = 0
    apply_degradation: bool = True

    def __post_init__(self):
        kvtext.check_types(self)
        if not 0 < self.lr0 < math.inf:
            raise ValueError(f"lr0 must be positive and finite, got {self.lr0}")
        for key, least in (("patch_size", 3), ("max_iters", 0), ("seed", 0)):
            if getattr(self, key) < least:
                raise ValueError(f"{key} must be >= {least}, got {getattr(self, key)}")


class TrainingDiverged(RuntimeError):
    pass


class UnusablePair(ValueError):
    """A training pair that check_pair rejects: index is its place in the
    dataset, reason check_pair's message."""

    def __init__(self, index: int, reason: str):
        super().__init__(f"training pair {index}: {reason}")
        self.index, self.reason = index, reason


# ---------------------------------------------------------------------------
# Pre/post-processing
# ---------------------------------------------------------------------------

def preprocess_gamma(y: Image):
    """Normalize linear HDR by its maximum and lift to the gamma domain.

    Returns (gamma-domain image, recorded maximum) so the mapping inverts
    exactly: postprocess(preprocess(y)) * max_y == y.
    """
    data = np.asarray(y.data, dtype=np.float64)
    if data.min() < 0:
        raise ValueError("linear HDR input must be non-negative")
    max_y = float(data.max())
    if max_y <= 0:
        raise ValueError("cannot normalize an all-zero image")
    out = (data / max_y) ** GAMMA
    return Image(out.astype(np.float32), NONLINEAR_SDR), max_y


def postprocess_gamma(y_gamma: np.ndarray) -> np.ndarray:
    """Inverse of the gamma lift; output is relative linear HDR."""
    return np.clip(np.asarray(y_gamma, dtype=np.float64), 0.0, None) ** (1.0 / GAMMA)


# ---------------------------------------------------------------------------
# Loss
# ---------------------------------------------------------------------------

def loss_terms(pred: Tensor, target: Tensor):
    """(total, l1, lg) loss tensors; total = l1 + LOSS_GRAD_WEIGHT * lg."""
    if pred.shape != target.shape:
        raise ValueError(f"loss shape mismatch: {pred.shape} vs {target.shape}")
    diff = T.sub(pred, target)
    l1 = T.mean_all(T.abs_(diff))
    lg = T.mean_all(T.abs_(T.grad_map(diff)))
    total = T.add(l1, T.mul(lg, Tensor(np.full((1, 1, 1, 1), LOSS_GRAD_WEIGHT, lg.dtype))))
    return total, l1, lg


# ---------------------------------------------------------------------------
# Initialization and optimizer
# ---------------------------------------------------------------------------

def kaiming_init(cfg: ModelConfig, rng: np.random.Generator) -> Network:
    """Conv weights ~ N(0, 2/fan_in) with fan_in = (in/groups) * k^2; zero biases."""
    weights = {}
    for li in layer_table(cfg):
        fan_in = li.weight_count // li.out_channels
        std = np.sqrt(2.0 / fan_in)
        weights[f"{li.name}.weight"] = Tensor(
            rng.normal(0.0, std, li.weight_shape).astype(np.float32), requires_grad=True)
        weights[f"{li.name}.bias"] = Tensor(
            np.zeros((1, li.out_channels, 1, 1), dtype=np.float32), requires_grad=True)
    return Network(cfg, weights)


@dataclass
class AdamState:
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    step: int = 0


def adam_step(params: dict[str, Tensor], state: AdamState, lr: float):
    """Bias-corrected Adam update in place; parameters without grads are kept."""
    state.step += 1
    t = state.step
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    for name, p in params.items():
        g = p.grad
        if g is None:
            continue
        if not np.isfinite(g).all():
            raise TrainingDiverged(f"non-finite gradient in {name} at step {t}")
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        state.m[name] = b1 * state.m[name] + (1 - b1) * g
        state.v[name] = b2 * state.v[name] + (1 - b2) * g * g
        mhat = state.m[name] / (1 - b1 ** t)
        vhat = state.v[name] / (1 - b2 ** t)
        p.data = (p.data - lr * mhat / (np.sqrt(vhat) + ADAM_EPS)).astype(p.data.dtype)


# Parameter groups of the train log's gradient norms, by name prefix; a
# parameter belongs to the first group whose prefix it has.
GRAD_GROUPS = ("local.dense", "local.", "global.")


def grad_norms(params: dict[str, Tensor]) -> list[float]:
    """L2 norm of the gradients of each of GRAD_GROUPS' parameter groups."""
    sq = dict.fromkeys(GRAD_GROUPS, 0.0)
    for name, p in params.items():
        if p.grad is not None:
            g = p.grad.ravel()
            sq[next(k for k in GRAD_GROUPS if name.startswith(k))] += float(g @ g)
    return [math.sqrt(v) for v in sq.values()]


def lr_schedule(iteration: int, cfg: TrainConfig) -> float:
    return cfg.lr0 * 0.5 ** (iteration // LR_HALF_EVERY)


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

def check_pair(hdr: Image, sdr: Image, size: int):
    """Raise ValueError unless a training pair's label has no negative pixel
    and its label and input have the same dimensions, each at least `size`."""
    if hdr.data.min() < 0:
        raise ValueError("label has a negative pixel (linear HDR must be non-negative)")
    h, w = hdr.height, hdr.width
    if (h, w) != (sdr.height, sdr.width):
        raise ValueError(f"HDR/SDR pair dimensions differ: label {w}x{h}, "
                         f"input {sdr.width}x{sdr.height}")
    if h < size or w < size:
        raise ValueError(f"image {w}x{h} smaller than patch size {size}")


def _sample_patch(rng, hdr: Image, sdr: Image, size: int):
    h, w = hdr.height, hdr.width
    y = int(rng.integers(0, h - size + 1))
    x = int(rng.integers(0, w - size + 1))
    return (Image(hdr.data[y:y + size, x:x + size], hdr.domain),
            Image(sdr.data[y:y + size, x:x + size], sdr.domain))


def train_loop(model_cfg: ModelConfig, train_cfg: TrainConfig,
               dataset: list[tuple[Image, Image]],
               degrade_cfg: DegradationConfig | None = None,
               log_path=None):
    """Iterate patch sampling, on-the-fly degradation, forward/backward, Adam.

    dataset holds (linear HDR label, clean nonlinear SDR input) pairs.
    Returns (trained Network, list of per-iteration records).  Each log line
    is "iter, lr, l1, lg, total, seconds" followed by the gradient norms of
    GRAD_GROUPS; seconds is the iteration's wall time up to the Adam step.
    """
    if not dataset:
        raise ValueError("training dataset is empty")
    if train_cfg.max_iters:  # a run of no iterations samples no patch
        for i, (hdr, sdr) in enumerate(dataset):
            try:
                check_pair(hdr, sdr, train_cfg.patch_size)
            except ValueError as e:
                raise UnusablePair(i, str(e)) from None
    rng = np.random.default_rng(train_cfg.seed)
    net = kaiming_init(model_cfg, rng)
    state = AdamState()
    degrade_cfg = degrade_cfg or DegradationConfig()
    trace = []
    log = open(log_path, "w") if log_path else None
    try:
        for it in range(train_cfg.max_iters):
            start = time.perf_counter()
            lr = lr_schedule(it, train_cfg)
            hdr, sdr = dataset[int(rng.integers(0, len(dataset)))]
            hdr_p, sdr_p = _sample_patch(rng, hdr, sdr, train_cfg.patch_size)
            if train_cfg.apply_degradation:
                sdr_p, _ = conventional_degrade(sdr_p, degrade_cfg, rng)
            # an all-zero label patch (a black bar, say) has no maximum to
            # normalize by, so its target is all zero too
            target = (preprocess_gamma(hdr_p)[0].data if hdr_p.data.any()
                      else np.zeros_like(hdr_p.data))
            x = Tensor(sdr_p.data.transpose(2, 0, 1)[None])
            y = Tensor(target.transpose(2, 0, 1)[None])
            for p in net.weights.values():
                p.zero_grad()
            pred = net.forward(x)
            total, l1, lg = loss_terms(pred, y)
            tval = total.item()
            if not np.isfinite(tval):
                raise TrainingDiverged(f"non-finite loss at iteration {it}")
            T.backward(total)
            adam_step(net.weights, state, lr)
            seconds = time.perf_counter() - start
            rec = {"iter": it, "lr": lr, "l1": l1.item(), "lg": lg.item(), "total": tval}
            del pred, total, l1, lg  # let this iteration's tape go before the next
            trace.append(rec)
            if log:
                norms = "".join(f", {v:.6g}" for v in grad_norms(net.weights))
                log.write(f"{it}, {lr:.6g}, {rec['l1']:.6f}, {rec['lg']:.6f}, {tval:.6f}, "
                          f"{seconds:.4f}{norms}\n")
    finally:
        if log:
            log.close()
    return net, trace
